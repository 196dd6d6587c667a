"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Each test prints its verdict to the real stderr so the lines show up even
under pytest's capture. Criteria with a stated time budget assert it.
"""

import functools
import math
import os
import random
import sys
import time

import numpy as np
import pytest

from gridchop.bench import SynthSpec, efficiency, synth_dataset
from gridchop.cli import EXIT_PARTIAL, main
from gridchop.dataio import Feature, FeatureSet, write_raster
from gridchop.executor import RunConfig, TaskSpec, run_grid
from gridchop.geom import BBox, Point, Polygon, Polyline
from gridchop.geoops import extract_at, nearest_distance, summarize_aw, summarize_sedc
from gridchop.partition import (
    GridSpec,
    build_partition,
    make_balanced_groups,
    make_merged_grid,
    make_quantile_grid,
    make_regular_grid,
)
from gridchop.raster import Raster, covered_cells

from conftest import poison_chunks, polygon_set, with_ids
from scalar_reference import make_polygon, polygon_area


# collected here and echoed by the pytest_terminal_summary hook in
# conftest.py, since pytest's fd capture swallows passing tests' stderr
REPORT_LINES: list = []


def _report(line: str) -> None:
    REPORT_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


def criterion(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except pytest.skip.Exception as e:
                _report(f"criterion {num:2d} ({title}): SKIP - {e}")
                raise
            except BaseException as e:
                _report(f"criterion {num:2d} ({title}): FAIL - {type(e).__name__}: {e}")
                raise
            elapsed = time.perf_counter() - t0
            extra = f" - {detail}" if detail else ""
            _report(f"criterion {num:2d} ({title}): PASS [{elapsed:.1f}s]{extra}")

        return wrapper

    return deco


def points_fs(coords, values=None):
    feats = []
    for i, (x, y) in enumerate(coords):
        attrs = {"v": float(values[i])} if values is not None else {}
        feats.append(Feature(f"p{i}", Point(float(x), float(y)), attrs))
    return FeatureSet(feats)


def rect(x0, y0, x1, y1) -> Polygon:
    return make_polygon([[Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)]])


def table_by_id(t, drop=("chunk_id",)):
    cols = [c for c in t.columns if c not in drop]
    return {r["id"]: tuple((c, r.get(c)) for c in cols if c != "id") for r in t.rows}


@criterion(1, "scaling metric reproduction")
def test_criterion_01_metric_reproduction():
    for t1, n, tn, want_s, want_e in [
        (4427.697, 32, 84.693, 52.279, 1.634),
        (1338.149, 32, 134.118, 9.977, 0.312),
    ]:
        s, e = efficiency(t1, n, tn)
        assert s == pytest.approx(want_s, abs=0.001)
        assert e == pytest.approx(want_e, abs=0.001)
    return "speedup/efficiency match reference values within 0.001"


@criterion(2, "absolute runtime reproduction")
def test_criterion_02_absolute_runtimes():
    # The reference timings came from a 32-core cluster over country-scale
    # census/land-cover data; neither is available here. The behavioural
    # substitutes are criteria 3-7 (determinism, sequential equivalence,
    # coverage oracle, partition properties, scaling smoke test).
    pytest.skip("absolute runtimes are hardware/data-bound; substituted by criteria 3-7")


@criterion(3, "determinism across worker counts")
def test_criterion_03_determinism():
    t0 = time.perf_counter()
    seeds = (101, 202, 303, 404, 505)
    runs = 0
    for seed in seeds:
        spec = SynthSpec(seed, n_points=5000, raster_ncols=500, raster_nrows=500)
        points, lines, ras = synth_dataset(spec)
        _, _, ras_cat = synth_dataset(
            SynthSpec(seed, n_points=5000, raster_ncols=500, raster_nrows=500,
                      raster_kind="categorical")
        )
        cs = ras.cellsize
        tasks = [
            (TaskSpec("extract_at", ras, points,
                      {"radius": 0.5 * cs, "stat": "mean", "segments": 6}), "continuous"),
            (TaskSpec("extract_at", ras_cat, points,
                      {"radius": 0.5 * cs, "stat": "frequency", "segments": 6}), "categorical"),
            (TaskSpec("summarize_sedc", points, points,
                      {"bandwidth": 0.2, "maxdist": 0.4, "value_columns": ["v"]}), "continuous"),
            (TaskSpec("nearest_distance", lines, points, {}), "continuous"),
        ]
        # 2-4 chunks per mode: on the shared single-core box the pooled
        # runs are dominated by process spawn, so small chunk counts keep
        # the 320-run matrix inside the 2-minute budget
        modes = [
            GridSpec("grid", nx=2, ny=1),
            GridSpec("grid_quantile", nq=2),
            GridSpec("grid_advanced", nx=2, ny=2, min_features=1500),
            GridSpec("balanced", n_groups=3),
        ]
        for mode in modes:
            parts = build_partition(mode, points)
            for task, kind in tasks:
                outs = [
                    run_grid(task, parts, RunConfig(workers=w), raster_kind=kind).to_csv_bytes()
                    for w in (1, 2, 4, 8)
                ]
                runs += 4
                assert outs[0] == outs[1] == outs[2] == outs[3], (
                    f"seed={seed} mode={mode.mode} op={task.op}: outputs differ"
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"determinism suite took {elapsed:.1f}s (budget 120s)"
    return f"{runs} runs byte-identical across workers 1/2/4/8 in {elapsed:.1f}s"


@criterion(4, "sequential equivalence")
def test_criterion_04_sequential_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    mode_cycle = ["grid", "grid_quantile", "balanced", "grid_advanced"]
    checked = {"extract_at": 0, "summarize_sedc": 0, "nearest_distance": 0}
    for cfg_i in range(20):
        n = rng.randint(120, 250)
        pts = points_fs(
            [(rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(n)],
            [rng.uniform(0, 10) for _ in range(n)],
        )
        op = ("extract_at", "summarize_sedc", "nearest_distance")[cfg_i % 3]
        mode = mode_cycle[cfg_i % 4]
        if op == "extract_at":
            values = np.random.default_rng(cfg_i).uniform(0, 100, (60, 60))
            ras = Raster(60, 60, 0.0, 0.0, 0.5, -9999.0, values)
            radius = rng.choice([0.0, 0.4, 1.0])
            stat = rng.choice(["mean", "sum", "max"])
            task = TaskSpec("extract_at", ras, pts,
                            {"radius": radius, "stat": stat, "segments": 12})
            direct = extract_at(ras, pts, radius=radius, stat=stat, segments=12)
        elif op == "summarize_sedc":
            bw = rng.uniform(0.5, 2.0)
            task = TaskSpec("summarize_sedc", pts, pts,
                            {"bandwidth": bw, "maxdist": 2.0 * bw,
                             "value_columns": ["v"]})
            direct = summarize_sedc(pts, pts, bandwidth=bw, maxdist=2.0 * bw,
                                    value_columns=("v",))
        else:
            m = rng.randint(3, 8)
            lines_fs = FeatureSet(
                [Feature(f"l{i}", Polyline(
                    [Point(rng.uniform(0, 30), rng.uniform(0, 30)),
                     Point(rng.uniform(0, 30), rng.uniform(0, 30))]), {})
                 for i in range(m)])
            direct = nearest_distance(pts, lines_fs)
            task = TaskSpec("nearest_distance", lines_fs, pts, {})
        spec_kwargs = {}
        if mode == "grid":
            spec_kwargs.update(nx=rng.randint(2, 4), ny=rng.randint(2, 4))
        elif mode == "grid_quantile":
            spec_kwargs.update(nq=rng.randint(2, 3))
        elif mode == "grid_advanced":
            spec_kwargs.update(nx=3, ny=3, min_features=rng.randint(5, 40))
        else:
            spec_kwargs.update(n_groups=rng.randint(2, 6))
        parts = build_partition(GridSpec(mode, **spec_kwargs), pts)
        merged = run_grid(task, parts, RunConfig(workers=2))
        got = table_by_id(merged)
        want = table_by_id(with_ids(direct, pts))
        assert got == want, f"config {cfg_i} ({op}, {mode}): partitioned != sequential"
        checked[op] += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sequential-equivalence suite took {elapsed:.1f}s (budget 60s)"
    return (f"20 configs value-exact (extract={checked['extract_at']}, "
            f"sedc={checked['summarize_sedc']}, nearest={checked['nearest_distance']}) "
            f"in {elapsed:.1f}s")


def _pip_even_odd(px, py, ring_pts):
    """Vectorized even-odd point-in-polygon over sample arrays."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(ring_pts)
    for i in range(n):
        ax, ay = ring_pts[i]
        bx, by = ring_pts[(i + 1) % n]
        crosses = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (px < xint)
    return inside


def _supersample_fraction(ring_pts, x0, y0, cs, k=256):
    mids = (np.arange(k) + 0.5) * (cs / k)
    px, py = np.meshgrid(x0 + mids, y0 + mids)
    return float(np.count_nonzero(_pip_even_odd(px.ravel(), py.ravel(), ring_pts))) / (k * k)


def _random_polygon(rng, convex: bool):
    cx, cy = rng.uniform(25, 75), rng.uniform(25, 75)
    big_r = rng.uniform(2.5, 6.0)
    k = rng.randint(8, 15)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
    if convex:
        # vertices on a common circle are always in convex position
        radii = [big_r] * k
    else:
        radii = [rng.uniform(0.35 * big_r, big_r) for _ in range(k)]
    pts = [Point(cx + r * math.cos(a), cy + r * math.sin(a)) for a, r in zip(angles, radii)]
    return make_polygon([pts])


@criterion(5, "coverage-fraction supersampling oracle")
def test_criterion_05_coverage_oracle():
    t0 = time.perf_counter()
    ras = Raster(100, 100, 0.0, 0.0, 1.0, -9999.0, np.zeros((100, 100)))
    rng = random.Random(5150)
    worst = 0.0
    for poly_i in range(50):
        poly = _random_polygon(rng, convex=(poly_i % 2 == 0))
        ring_pts = [(p.x, p.y) for p in poly.outer.vertices]
        _, rows, cols, fracs = covered_cells(ras, polygon_set([poly]), 32_000)
        frac = dict(zip(zip(rows.tolist(), cols.tolist()), fracs.tolist()))

        # conservation against the exact polygon area
        total = sum(frac.values()) * ras.cellsize**2
        area = polygon_area(poly)
        assert total == pytest.approx(area, rel=1e-9)

        # cells touched by an edge get the full 256x256 oracle; walking each
        # edge at cellsize/64 steps can only miss corner clips smaller than
        # (1/64)^2/2, far under the 2e-3 tolerance
        boundary = set()
        for i in range(len(ring_pts)):
            ax, ay = ring_pts[i]
            bx, by = ring_pts[(i + 1) % len(ring_pts)]
            steps = max(2, int(math.hypot(bx - ax, by - ay) / ras.cellsize * 64))
            ts = np.linspace(0.0, 1.0, steps)
            xs = ax + ts * (bx - ax)
            ys = ay + ts * (by - ay)
            cols = np.clip(xs / ras.cellsize, 0, ras.ncols - 1).astype(int)
            rows = np.clip((ras.ytop - ys) / ras.cellsize, 0, ras.nrows - 1).astype(int)
            boundary.update(zip(rows.tolist(), cols.tolist()))
        for row, col in sorted(boundary):
            x0 = ras.xll + col * ras.cellsize
            y0 = ras.ytop - (row + 1) * ras.cellsize
            oracle = _supersample_fraction(ring_pts, x0, y0, ras.cellsize)
            err = abs(frac.get((row, col), 0.0) - oracle)
            worst = max(worst, err)
            assert err <= 2e-3, f"polygon {poly_i} cell ({row},{col}): |{frac.get((row, col), 0.0)} - {oracle}| > 2e-3"

        # away from edges a cell is uniformly inside or outside, so the
        # oracle value is exactly 1 or 0 by the cell-center test
        for key, f in frac.items():
            if key in boundary:
                continue
            row, col = key
            cx = ras.xll + (col + 0.5) * ras.cellsize
            cy = ras.ytop - (row + 0.5) * ras.cellsize
            oracle = 1.0 if bool(
                _pip_even_odd(np.array([cx]), np.array([cy]), ring_pts)[0]
            ) else 0.0
            err = abs(f - oracle)
            worst = max(worst, err)
            assert err <= 2e-3, f"polygon {poly_i} interior cell {key}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"coverage oracle took {elapsed:.1f}s (budget 120s)"
    return f"50 polygons, worst per-cell error {worst:.2e}, conservation 1e-9, in {elapsed:.1f}s"


@criterion(6, "partition properties")
def test_criterion_06_partition_properties():
    rng = random.Random(66)

    # regular grid: shared cell edges are exact, extent covered exactly
    ext = BBox(-3.0, 1.0, 18.0, 9.5)
    grid = make_regular_grid(ext, 7, 3)
    for j in range(3):
        row = [c for c in grid.chunks if c.chunk_id // 7 == j]
        assert row[0].core.xmin == ext.xmin and row[-1].core.xmax == ext.xmax
        for a, b in zip(row, row[1:]):
            assert a.core.xmax == b.core.xmin
    cols = [grid.chunks[i] for i in range(0, 21, 7)]
    assert cols[0].core.ymin == ext.ymin and cols[-1].core.ymax == ext.ymax
    for a, b in zip(cols, cols[1:]):
        assert a.core.ymax == b.core.ymin

    # quantile stripes: distinct coordinates -> n/nq +- 1 per stripe
    n, nq = 219, 4
    pts = points_fs([(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n)])
    q = make_quantile_grid(pts, nq)
    xs = {f.id: f.geometry.x for f in pts.features}
    xedges = sorted({c.core.xmin for c in q.chunks} | {c.core.xmax for c in q.chunks})
    assert len(xedges) == nq + 1
    for lo, hi in zip(xedges, xedges[1:]):
        stripe = sum(
            len(c.member_ids)
            for c in q.chunks
            if c.core.xmin >= lo and c.core.xmax <= hi
        )
        assert abs(stripe - n / nq) <= 1
    assert sum(len(c.member_ids) for c in q.chunks) == n

    # merged grid: count conservation and merge fixpoint on the cell MST
    n, nx, ny, mf = 160, 4, 4, 18
    coords = [(rng.uniform(0, 40) ** 1.3 / 40**0.3, rng.uniform(0, 40)) for _ in range(n)]
    pts = points_fs(coords)
    merged = make_merged_grid(pts, nx, ny, mf)
    assert sum(len(c.member_ids) for c in merged.chunks) == n
    # independently rebuild the cell assignment (half-open, last row/col
    # closed) and lift rook adjacency to chunks through the member ids
    xs = np.array([c[0] for c in coords])
    ys = np.array([c[1] for c in coords])
    ex = BBox(float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))
    ix = np.clip(((xs - ex.xmin) / (ex.width / nx)).astype(int), 0, nx - 1)
    iy = np.clip(((ys - ex.ymin) / (ex.height / ny)).astype(int), 0, ny - 1)
    chunk_of_id = {fid: c.chunk_id for c in merged.chunks for fid in c.member_ids}
    cell_chunk = {}
    for i, f in enumerate(pts.features):
        cell = int(iy[i]) * nx + int(ix[i])
        cell_chunk.setdefault(cell, chunk_of_id[f.id])
        assert cell_chunk[cell] == chunk_of_id[f.id], "cell split across chunks"
    counts = {c.chunk_id: len(c.member_ids) for c in merged.chunks}
    cell_counts = np.bincount(iy * nx + ix, minlength=nx * ny)
    edges = []
    for j in range(ny):
        for i in range(nx):
            u = j * nx + i
            for v in ([u + 1] if i + 1 < nx else []) + ([u + nx] if j + 1 < ny else []):
                edges.append((float(cell_counts[u] + cell_counts[v]), u, v))
    # Kruskal over the sorted edge list; the accepted set depends only on
    # that order, so this reproduces the production MST independently
    parent = list(range(nx * ny))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    mst = []
    for w, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            mst.append((u, v))
    assert len(mst) == nx * ny - 1
    for u, v in mst:
        if u in cell_chunk and v in cell_chunk and cell_chunk[u] != cell_chunk[v]:
            assert not (
                counts[cell_chunk[u]] < mf and counts[cell_chunk[v]] < mf
            ), f"MST edge joins sub-threshold chunks {cell_chunk[u]}/{cell_chunk[v]}"

    # balanced groups: sizes within 1 and per-round SSQ never increases
    from gridchop.partition import _greedy_assignment, _swap_rounds

    n, k = 137, 6
    pts = points_fs([(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(n)])
    bal = make_balanced_groups(pts, k)
    sizes = sorted(len(c.member_ids) for c in bal.chunks)
    assert sizes[-1] - sizes[0] <= 1
    assign, trace = _swap_rounds(pts.coords, _greedy_assignment(pts.coords, k), k)
    assert [c.member_ids for c in bal.chunks] == [
        [fid for fid, g in zip(pts.ids(), assign.tolist()) if g == c.chunk_id]
        for c in bal.chunks], "groups are not the swap phase's assignment"
    assert trace, "balancing left no SSQ trace"
    tol = 1e-9 * 20.0**2
    assert all(a >= b - tol for a, b in zip(trace, trace[1:])), "SSQ increased in a round"

    # unique anchor assignment: disjoint and exhaustive over 1000 points
    pts = points_fs([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(1000)])
    parts = build_partition(GridSpec("grid", nx=5, ny=4), pts)
    seen = [fid for c in parts.chunks for fid in c.member_ids]
    assert len(seen) == 1000 and set(seen) == set(pts.ids())
    return "tiling, stripe balance, merge fixpoint, monotone balancing, unique assignment"


def _physical_cores() -> int:
    try:
        import psutil

        n = psutil.cpu_count(logical=False)
        if n:
            return n
    except ImportError:
        pass
    try:
        pairs = set()
        phys = core = None
        for line in open("/proc/cpuinfo"):
            if line.startswith("physical id"):
                phys = line.split(":")[1].strip()
            elif line.startswith("core id"):
                core = line.split(":")[1].strip()
            elif not line.strip() and phys is not None and core is not None:
                pairs.add((phys, core))
                phys = core = None
        if pairs:
            return len(pairs)
    except OSError:
        pass
    return os.cpu_count() or 1


@criterion(7, "multi-worker speedup smoke test")
def test_criterion_07_speedup_smoke():
    cores = _physical_cores()
    if cores < 4:
        pytest.skip(f"needs >= 4 physical cores, found {cores}")
    points, _, ras = synth_dataset(
        SynthSpec(7, n_points=100_000, raster_ncols=2000, raster_nrows=2000)
    )
    task = TaskSpec("extract_at", ras, points,
                    {"radius": 0.5 * ras.cellsize, "stat": "mean", "segments": 16})
    parts = build_partition(GridSpec("grid", nx=4, ny=2), points)
    t0 = time.perf_counter()
    ref = run_grid(task, parts, RunConfig(workers=1)).to_csv_bytes()
    t_1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = run_grid(task, parts, RunConfig(workers=4)).to_csv_bytes()
    t_4 = time.perf_counter() - t0
    assert out == ref, "4-worker output differs from 1-worker output"
    assert t_1 / t_4 >= 2.0, f"speedup {t_1 / t_4:.2f} < 2.0 (t1={t_1:.1f}s t4={t_4:.1f}s)"
    return f"speedup {t_1 / t_4:.2f}x on {cores} cores"


@criterion(8, "fault isolation")
def test_criterion_08_fault_isolation(tmp_path, monkeypatch):
    # library level: the chunk holding the poisoned anchor errors, the rest
    # of the rows match a clean run exactly
    pts = points_fs([(1.0, 1.0), (9.0, 2.0), (1.5, 8.5)])
    sources = FeatureSet(
        [
            Feature("s0", Point(1.0, 1.0), {"v": 1.0}),
            Feature("s1", Point(9.0, 2.0), {"v": 2.0}),
            Feature("s2", Point(1.5, 8.5), {"v": 3.0}),
        ],
    )
    parts = build_partition(GridSpec("grid", nx=2, ny=2), pts)
    task = TaskSpec("summarize_sedc", sources, pts, {"bandwidth": 1.0, "value_columns": ["v"]})
    clean = run_grid(task, parts, RunConfig(workers=2))
    poison_chunks(monkeypatch, "p1")
    mixed = run_grid(task, parts, RunConfig(workers=2, capture_errors=True))
    assert mixed.had_errors
    bad_ids = {r["id"] for r in mixed.rows if r.get("error")}
    assert bad_ids == {"p1"}, f"errors leaked beyond the failing chunk: {bad_ids}"
    clean_by_id = table_by_id(clean)
    for r in mixed.rows:
        if not r.get("error"):
            assert tuple((c, r.get(c)) for c, _ in clean_by_id[r["id"]]) == clean_by_id[r["id"]]

    # CLI level: a missing raster among two yields exit code 4, with result
    # rows for the healthy raster still written
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("id,x,y\na,2.0,2.0\nb,7.0,7.0\n")
    ras_path = tmp_path / "r.asc"
    write_raster(Raster(10, 10, 0.0, 0.0, 1.0, -9999.0, np.ones((10, 10))), str(ras_path))
    out = tmp_path / "out.csv"
    rc = main([
        "multiraster", "--task", "extract_at", "--y", str(csv_path),
        "--rasters", f"{ras_path},{tmp_path / 'missing.asc'}",
        "--out", str(out),
    ])
    assert rc == EXIT_PARTIAL
    body = out.read_bytes().split(b"\r\n")
    assert b"error" in body[0]
    assert sum(1 for line in body[1:] if line and b"missing.asc" not in line) >= 2
    return "errors confined to failing chunk, healthy rows unchanged, exit code 4"


@criterion(9, "distance-decay contract")
def test_criterion_09_sedc_contract():
    # weight at d == bandwidth is exp(-3), zero past maxdist
    targets = points_fs([(0.0, 0.0)])
    at_bandwidth = points_fs([(2.0, 0.0)], [1.0])
    t = summarize_sedc(targets, at_bandwidth, bandwidth=2.0, maxdist=4.0, value_columns=("v",))
    assert t.rows[0]["v_sedc"] == pytest.approx(math.exp(-3.0), abs=1e-9)
    beyond = points_fs([(4.0000001, 0.0)], [5.0])
    t = summarize_sedc(targets, beyond, bandwidth=2.0, maxdist=4.0, value_columns=("v",))
    assert t.rows[0]["v_sedc"] == 0.0 and t.rows[0]["count"] == 0

    # additivity: the batch result equals accumulating per-source runs
    rng = random.Random(99)
    for _ in range(10):
        n_src = rng.randint(3, 30)
        tgts = points_fs([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(5)])
        src_pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n_src)]
        src_vals = [rng.uniform(-5, 5) for _ in range(n_src)]
        sources = points_fs(src_pts, src_vals)
        params = {"bandwidth": rng.uniform(1.0, 3.0), "value_columns": ("v",)}
        batch = summarize_sedc(tgts, sources, **params)
        # brute force: one run per source, accumulated with the same
        # pairwise reduction the batch uses
        singles = [
            summarize_sedc(tgts, points_fs([src_pts[i]], [src_vals[i]]), **params)
            for i in range(n_src)
        ]
        for ti in range(5):
            contrib = np.array([
                s.rows[ti]["v_sedc"] for s in singles if s.rows[ti]["count"]
            ])
            want = float(np.sum(contrib)) if contrib.size else 0.0
            assert batch.rows[ti]["v_sedc"] == want, "additivity over sources broken"
            assert batch.rows[ti]["count"] == int(contrib.size)
    return "exp(-3) weight at bandwidth, hard cutoff, source additivity exact"


@criterion(10, "area-weighted conservation")
def test_criterion_10_aw_conservation():
    rng = random.Random(1010)
    for _ in range(20):
        def tiling(prefix, nx, ny, values):
            xb = sorted({0.0, 6.0, *(rng.uniform(0.5, 5.5) for _ in range(nx - 1))})
            yb = sorted({0.0, 4.0, *(rng.uniform(0.5, 3.5) for _ in range(ny - 1))})
            feats, k = [], 0
            for x0, x1 in zip(xb, xb[1:]):
                for y0, y1 in zip(yb, yb[1:]):
                    attrs = {"v": values[k % len(values)]} if values else {}
                    feats.append(Feature(f"{prefix}{k}", rect(x0, y0, x1, y1), attrs))
                    k += 1
            return FeatureSet(feats)

        vals = [rng.uniform(-5, 5) for _ in range(97)]
        sources = tiling("s", rng.randint(2, 5), rng.randint(2, 4), vals)
        targets = tiling("t", rng.randint(2, 5), rng.randint(2, 4), None)
        t = summarize_aw(targets, sources, ["v"], stat="sum")
        total = sum(row["v_sum"] for row in t.rows)
        want = sum(float(f.attributes["v"]) for f in sources.features)
        assert total == pytest.approx(want, rel=1e-9)

    # identical polygon: the source value passes through exactly
    poly = make_polygon([[Point(0.3, 0.1), Point(2.7, 0.4), Point(1.9, 3.3)]])
    src = FeatureSet([Feature("s", poly, {"v": 12.34})])
    tgt = FeatureSet([Feature("t", poly, {})])
    t = summarize_aw(tgt, src, ["v"], stat="mean")
    assert t.rows[0]["v_mean"] == 12.34
    return "20 tilings conserve sums at 1e-9; identity transfer exact"
