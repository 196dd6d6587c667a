"""Chunked execution: byte-identical merges, rows exact for any partition,
fault isolation, hierarchy and multiraster planners."""

import json
import math
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import gridchop
from gridchop import executor, geoops
from gridchop.dataio import (
    Feature,
    FeatureSet,
    ResultTable,
    load_partitions,
    save_partitions,
    write_raster,
)
from gridchop.errors import InvalidInputError, InvalidParameterError, LoadError
from gridchop.executor import (
    ChunkError,
    ChunkResult,
    Job,
    RunConfig,
    TaskSpec,
    _apply_op,
    _run,
    lpt_batches,
    merge_chunks,
    run_grid,
    run_hierarchy,
    run_multirasters,
)
from gridchop.geom import BBox, Point, Polyline
from gridchop.partition import (
    Chunk,
    GridSpec,
    PartitionSet,
    build_partition,
    group_by_hierarchy,
)
from gridchop.raster import Raster

from conftest import poison_chunks, random_star, with_ids
from scalar_reference import make_polygon, point_segment_distance


def points_fs(coords, values=None, extra=None):
    feats = []
    for i, (x, y) in enumerate(coords):
        attrs = {"v": float(values[i])} if values is not None else {}
        if extra:
            attrs.update(extra[i])
        feats.append(Feature(f"p{i}", Point(float(x), float(y)), attrs))
    return FeatureSet(feats)


def grid_raster(n=20, seed=0, kind="continuous"):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 10, (n, n))
    if kind == "categorical":
        vals = np.floor(vals / 2.0)
    return Raster(n, n, 0.0, 0.0, 1.0, -9999.0, vals, kind)


def scatter(n=40, seed=1, lo=1.0, hi=19.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, n)
    ys = rng.uniform(lo, hi, n)
    return points_fs(list(zip(xs, ys)), values=rng.uniform(0, 5, n))


def direct(task):
    """The op on the whole datasets, with no partition and no clip."""
    return with_ids(_apply_op(task, task.x, task.y), task.y)


def value_rows(table):
    """(the op's own columns, {id: repr of the row's values in them}): no
    chunk_id or group, and checked to be one row per id with no error."""
    cols = [c for c in table.columns if c not in ("chunk_id", "group")]
    rows = {r["id"]: repr([r.get(c) for c in cols]) for r in table.rows}
    assert len(rows) == len(table.rows) and not table.had_errors
    return cols, rows


class TestTaskSpec:
    def test_unknown_op(self):
        with pytest.raises(InvalidParameterError):
            TaskSpec("resample", grid_raster(), scatter())


class TestTaskParameters:
    """geoops.op_args reads each op's params once, for the check before any
    chunk runs and for every chunk. Each case below once gave one error row
    per anchor, or rows of the wrong values."""

    @staticmethod
    def _error_before_chunks(monkeypatch, task, anchors, error):
        """The message of the `error` that run_grid raises with no chunk run."""
        ran = []
        run_chunk = executor._run_chunk
        monkeypatch.setattr(executor, "_run_chunk", lambda job: ran.append(job) or run_chunk(job))
        with pytest.raises(error) as e:
            run_grid(task, grid_parts(anchors, 2))
        assert ran == []
        return str(e.value)

    def test_none_radius_reads_as_zero(self):
        pts, r = scatter(20), grid_raster()
        none = run_grid(TaskSpec("extract_at", r, pts, {"radius": None}), grid_parts(pts, 2))
        zero = run_grid(TaskSpec("extract_at", r, pts, {"radius": 0.0}), grid_parts(pts, 2))
        assert not none.had_errors and none.rows == zero.rows

    @pytest.mark.parametrize("segments", ["x", -3, 0, 2, 2.7])
    def test_bad_segments_before_any_chunk(self, monkeypatch, segments):
        pts = scatter(20)
        task = TaskSpec("extract_at", grid_raster(), pts, {"radius": 1.5, "segments": segments})
        got = self._error_before_chunks(monkeypatch, task, pts, InvalidParameterError)
        assert got == f"segments must be an integer >= 3, got {segments!r}"

    def test_aw_without_value_columns(self):
        tiles = tiles_fs(6)
        got = run_grid(TaskSpec("summarize_aw", tiles, tiles, {}), grid_parts(tiles, 2))
        assert not got.had_errors and got.columns == ["id", "chunk_id", "coverage"]
        assert [r["coverage"] for r in got.rows] == [1.0] * len(tiles)

    @pytest.mark.parametrize("op", ["summarize_aw", "summarize_sedc"])
    def test_string_value_columns(self, monkeypatch, op):
        anchors = tiles_fs(4) if op == "summarize_aw" else scatter(20)
        task = TaskSpec(op, anchors, anchors, {"bandwidth": 1.0, "value_columns": "v"})
        got = self._error_before_chunks(monkeypatch, task, anchors, InvalidParameterError)
        assert got == "value_columns must be a list of column names, got 'v'"

    @pytest.mark.parametrize("op,context", [
        ("extract_at", None), ("extract_at", "points"), ("summarize_sedc", "raster"),
        ("nearest_distance", "raster"),
    ])
    def test_wrong_context_type_before_any_chunk(self, monkeypatch, op, context):
        pts = scatter(20)
        x = {None: None, "points": pts, "raster": grid_raster()}[context]
        task = TaskSpec(op, x, pts, {"bandwidth": 1.0})
        got = self._error_before_chunks(monkeypatch, task, pts, InvalidInputError)
        want = "Raster" if op == "extract_at" else "FeatureSet"
        assert got == f"{op} requires a {want} context, got {type(x).__name__}"

    def test_multiraster_takes_no_shared_context(self, tmp_path):
        path = str(tmp_path / "r.asc")
        write_raster(grid_raster(), path)
        pts = scatter(10)
        got = run_multirasters(TaskSpec("extract_at", None, pts, {}), [path])
        assert not got.had_errors and len(got.rows) == 10


class TestRunGridExtract:
    def test_matches_unpartitioned(self):
        pts = scatter(60)
        r = grid_raster()
        task = TaskSpec("extract_at", r, pts, {"radius": 1.5, "stat": "mean",
                                               "segments": 12})
        parts = build_partition(GridSpec("grid", nx=2, ny=2), pts)
        got = run_grid(task, parts, RunConfig(workers=1))
        from gridchop.geoops import extract_at

        want = with_ids(extract_at(r, pts, radius=1.5, stat="mean", segments=12), pts)
        by_id = {row["id"]: row for row in got.rows}
        for row in want.rows:
            assert by_id[row["id"]]["mean"] == row["mean"]  # value-exact

    def test_workers_byte_identical(self):
        pts = scatter(60)
        r = grid_raster()
        task = TaskSpec("extract_at", r, pts, {"radius": 1.5, "stat": "mean",
                                               "segments": 12})
        parts = build_partition(GridSpec("grid", nx=3, ny=2), pts)
        csvs = {
            w: run_grid(task, parts, RunConfig(workers=w)).to_csv_bytes()
            for w in (1, 2, 8)
        }
        assert csvs[1] == csvs[2] == csvs[8]

    def test_frequency_with_empty_chunks_matches_unpartitioned(self):
        # an 8 x 8 grid over 12 points leaves most chunks empty; an empty
        # chunk once merged an all-empty "frequency" column into the table
        pts = scatter(12)
        task = TaskSpec("extract_at", grid_raster(kind="categorical"), pts,
                        {"radius": 1.5, "stat": "frequency", "segments": 12})
        parts = build_partition(GridSpec("grid", nx=8, ny=8), pts)
        assert any(not c.member_ids for c in parts.chunks)
        got = run_grid(task, parts, RunConfig(workers=2), raster_kind="categorical")
        assert value_rows(got) == value_rows(direct(task))
        assert got.columns[-1] == "count" and "frequency" not in got.columns

    def test_chunk_id_column_present(self):
        pts = scatter(10)
        task = TaskSpec("extract_at", grid_raster(), pts, {"radius": 0.0})
        parts = build_partition(GridSpec("grid", nx=2, ny=1), pts)
        t = run_grid(task, parts)
        assert t.columns[:2] == ["id", "chunk_id"]
        assert {row["chunk_id"] for row in t.rows} <= {0, 1}

    def test_rows_exact_when_radius_exceeds_padding(self):
        pts = scatter(10)
        task = TaskSpec("extract_at", grid_raster(), pts, {"radius": 3.0})
        parts = build_partition(GridSpec("grid", nx=2, ny=1), pts)
        assert value_rows(run_grid(task, parts)) == value_rows(direct(task))

    def test_rows_independent_of_padding(self, tmp_path):
        # files of earlier versions, written here by hand, carry a `padding`
        # and a `padded` box per chunk: they load and change no row
        pts = scatter(10)
        task = TaskSpec("extract_at", grid_raster(), pts, {"radius": 1.0})
        parts = build_partition(GridSpec("grid", nx=2, ny=1), pts)
        save_partitions(parts, str(tmp_path / "new.json"))
        tables = [run_grid(task, load_partitions(str(tmp_path / "new.json")))]
        for pad in (0.0, 1.0, 100.0):
            chunks = [{"chunk_id": c.chunk_id,
                       "core": [c.core.xmin, c.core.ymin, c.core.xmax, c.core.ymax],
                       "padded": [c.core.xmin - pad, c.core.ymin - pad,
                                  c.core.xmax + pad, c.core.ymax + pad],
                       "member_ids": c.member_ids} for c in parts.chunks]
            old = tmp_path / f"old{pad}.json"
            old.write_text(json.dumps({"mode": "grid", "padding": pad, "chunks": chunks}))
            tables.append(run_grid(task, load_partitions(str(old))))
        assert tables[0].columns == ["id", "chunk_id", "mean", "count"]
        assert {t.to_csv_bytes() for t in tables} == {tables[0].to_csv_bytes()}


class TestRunGridVectorOps:
    def test_sedc_equals_unpartitioned(self):
        pts = scatter(50, seed=3)
        src = scatter(80, seed=4)
        task = TaskSpec(
            "summarize_sedc", src, pts,
            {"bandwidth": 1.0, "maxdist": 2.0, "value_columns": ["v"]},
        )
        parts = build_partition(GridSpec("grid", nx=2, ny=2), pts)
        got = run_grid(task, parts, RunConfig(workers=2))
        from gridchop.geoops import summarize_sedc

        want = summarize_sedc(pts, src, bandwidth=1.0, maxdist=2.0, value_columns=("v",))
        want = with_ids(want, pts)
        by_id = {row["id"]: row for row in got.rows}
        for row in want.rows:
            assert by_id[row["id"]]["v_sedc"] == row["v_sedc"]
            assert by_id[row["id"]]["count"] == row["count"]

    def test_sedc_rows_independent_of_partition(self, monkeypatch):
        # one chunk or 25, default blocks or blocks of 3 targets: the same bits
        pts = scatter(120, seed=5)
        src = scatter(200, seed=6)
        task = TaskSpec(
            "summarize_sedc", src, pts, {"bandwidth": 1.5, "value_columns": ["v"]}
        )

        def values(n, block):
            if block is not None:
                monkeypatch.setattr(geoops, "_PAIR_ELEMS", block * len(src), raising=False)
            parts = build_partition(GridSpec("grid", nx=n, ny=n), pts)
            rows = run_grid(task, parts).rows
            return sorted((r["id"], repr(r["v_sedc"]), r["count"]) for r in rows)

        want = values(1, None)
        assert values(5, None) == want
        assert values(5, 3) == want
        assert values(1, 3) == want

    @pytest.mark.parametrize("op", ["nearest_distance", "summarize_sedc"])
    def test_prune_cache_built_once_in_parent(self, monkeypatch, tmp_path, op):
        # the run's check builds the context's prune cache before the fork;
        # a forked worker records a build in the file, so none may happen there
        pts, src = scatter(40, seed=3), scatter(60, seed=4)
        builds = tmp_path / "builds"
        name = "segments" if op == "nearest_distance" else "bounds"
        build = getattr(FeatureSet, name)

        def recorded(self):
            if self is src and getattr(self, f"_{name}") is None:
                with open(builds, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return build(self)

        monkeypatch.setattr(FeatureSet, name, recorded)
        task = TaskSpec(op, src, pts, {"bandwidth": 1.0, "value_columns": ["v"]})
        got = run_grid(task, grid_parts(pts, 2), RunConfig(workers=2))
        assert not got.had_errors
        assert builds.read_text().split() == [str(os.getpid())]

    def test_nearest_beyond_padding_exact(self):
        # nearest has unbounded interaction: a row whose nearest feature lies
        # beyond its chunk's core and the clip still gets its exact distance
        pts = points_fs([(1.0, 1.0), (9.0, 9.0)])
        lines = FeatureSet([Feature("l", Polyline([Point(0.0, 0.0), Point(0.0, 2.0)])),
                            Feature("m", Polyline([Point(9.5, 0.0), Point(9.5, 1.0)]))])
        task = TaskSpec("nearest_distance", lines, pts, {})
        parts = build_partition(GridSpec("grid", nx=2, ny=1), pts)
        t = run_grid(task, parts)
        assert t.columns == ["id", "chunk_id", "distance", "nearest_feature_id"]
        assert [(r["id"], r["distance"], r["nearest_feature_id"]) for r in t.rows] == [
            ("p0", 1.0, "l"), ("p1", math.sqrt(0.5 ** 2 + 8.0 ** 2), "m")]


def lines_fs(n, seed):
    rng = np.random.default_rng(seed)
    feats = []
    for k in range(n):
        xy = rng.uniform(2.0, 18.0, 2) + rng.uniform(-1.5, 1.5, (2 + k % 3, 2))
        feats.append(Feature(f"l{k}", Polyline([Point(x, y) for x, y in xy.tolist()])))
    return FeatureSet(feats)


def tiles_fs(n=20, seed=7):
    """n x n unit squares over [0, n]^2 with a value each."""
    rng = np.random.default_rng(seed)
    return FeatureSet(
        [Feature(f"s{i}_{j}", make_polygon([[Point(i, j), Point(i + 1, j),
                                             Point(i + 1, j + 1), Point(i, j + 1)]]),
                 {"v": float(rng.uniform(0, 100))}) for i in range(n) for j in range(n)],
    )


def stars_fs(n, seed, radius):
    rng = np.random.default_rng(seed)
    return FeatureSet(
        [Feature(f"t{k}", make_polygon([random_star(rng, *rng.uniform(1, 19, 2).tolist(),
                                                    radius, 7)]))
         for k in range(n)]
    )


def grid_parts(anchors, n):
    """An n x n grid over the anchors' first vertices; members by first vertex."""
    first = anchors.coords[anchors.part_offsets[anchors.feature_offsets[:-1]]]
    points = FeatureSet.from_columns(anchors.ids(), first)
    return build_partition(GridSpec("grid", nx=n, ny=n), points)


def brute_nearest(pt, context):
    """(distance, ids at that distance) from point pt to the closest feature."""
    dist = {}
    for f in context.features:
        g = f.geometry
        verts = [g, g] if isinstance(g, Point) else g.vertices
        dist[f.id] = min(point_segment_distance(pt, a, b) for a, b in zip(verts, verts[1:]))
    best = min(dist.values())
    return best, {fid for fid, d in dist.items() if d <= best * (1 + 1e-12)}


def assert_nearest_exact(table, anchors, context):
    assert not table.had_errors
    xy = dict(zip(anchors.ids(), anchors.coords.tolist()))
    for row in table.rows:
        best, owners = brute_nearest(Point(*xy[row["id"]]), context)
        assert row["distance"] == pytest.approx(best, rel=1e-12, abs=1e-12), row
        assert row["nearest_feature_id"] in owners, row


EXACT_CASES = {
    "extract_buffered": lambda: TaskSpec(
        "extract_at", grid_raster(), scatter(80, seed=11), {"radius": 2.5, "segments": 12}),
    "sedc_maxdist": lambda: TaskSpec(
        "summarize_sedc", scatter(200, seed=12), scatter(80, seed=13),
        {"bandwidth": 1.0, "maxdist": 3.0, "value_columns": ["v"]}),
    "sedc_default_maxdist": lambda: TaskSpec(
        "summarize_sedc", scatter(200, seed=14), scatter(80, seed=15),
        {"bandwidth": 1.5, "value_columns": ["v"]}),
    "aw": lambda: TaskSpec(
        "summarize_aw", tiles_fs(), stars_fs(40, 16, 1.8), {"value_columns": ["v"]}),
    "nearest_points": lambda: TaskSpec(
        "nearest_distance", scatter(6, seed=17), scatter(80, seed=18), {}),
    "nearest_lines": lambda: TaskSpec(
        "nearest_distance", lines_fs(8, 19), scatter(80, seed=20), {}),
}


class TestExactRows:
    """Every row is the row of an unpartitioned run: the partition and the
    planner change nothing."""

    @pytest.mark.parametrize("case", sorted(EXACT_CASES))
    def test_rows_match_unpartitioned(self, case):
        task = EXACT_CASES[case]()
        want = value_rows(direct(task))
        ids = task.y.ids()
        for n in (1, 3, 7):
            assert value_rows(run_grid(task, grid_parts(task.y, n))) == want, n
        # interleaved groups span the whole area; grid cells as groups leave some empty
        cells = grid_parts(task.y, 4).chunks
        for groups in ([("all", ids)], [(f"g{k}", ids[k::5]) for k in range(5)],
                       [(str(c.chunk_id), c.member_ids) for c in cells]):
            assert value_rows(run_hierarchy(task, groups)) == want, len(groups)
        t = run_grid(task, grid_parts(task.y, 7), RunConfig(workers=2))
        assert value_rows(t) == want

    @pytest.mark.parametrize("case", ["nearest_points", "nearest_lines"])
    def test_nearest_matches_brute_force(self, case):
        task = EXACT_CASES[case]()
        assert_nearest_exact(run_grid(task, grid_parts(task.y, 7)), task.y, task.x)

    def test_aw_on_padding_zero_grid(self):
        # targets reach past their chunk's core: a box of the core alone
        # misses sources under them
        task = EXACT_CASES["aw"]()
        t = run_grid(task, grid_parts(task.y, 7))
        assert value_rows(t) == value_rows(direct(task))

    def test_aw_group_far_from_sources(self):
        # a group whose clip holds no source gets the null rows of a target
        # that meets no source, not an error
        task = TaskSpec("summarize_aw", tiles_fs(5), stars_fs(20, 21, 1.0),
                        {"value_columns": ["v"]})
        ids = task.y.ids()
        far = [fid for fid, b in zip(ids, task.y.bounds().tolist()) if min(b[:2]) > 6.0]
        groups = [("far", far), ("near", [fid for fid in ids if fid not in far])]
        t = run_hierarchy(task, groups)
        assert value_rows(t) == value_rows(direct(task))
        assert [(r["v_mean"], r["coverage"]) for r in t.rows if r["group"] == "far"] == [
            (None, 0.0)] * len(far) and far

    def test_nearest_by_zone(self):
        # zones of 2 x 2 units: a line that meets a zone's bbox is often not
        # the nearest one for every anchor in the zone
        pts = scatter(300, seed=22, lo=0.0, hi=20.0)
        lines = lines_fs(30, 23)
        task = TaskSpec("nearest_distance", lines, pts, {})
        zones = {}
        for fid, (x, y) in zip(pts.ids(), pts.coords.tolist()):
            zones.setdefault(f"{int(x // 2)}_{int(y // 2)}", []).append(fid)
        t = run_hierarchy(task, sorted(zones.items()))
        assert value_rows(t) == value_rows(direct(task))
        assert_nearest_exact(t, pts, lines)


def _snapped_shapes(rings, kind, values=None):
    """Features of one part each: rings (n, m, 2) as open rings or lines."""
    n, m = rings.shape[:2]
    attrs = {"v": values.tolist()} if values is not None else {}
    return FeatureSet.from_columns([f"p{i}" for i in range(n)], rings.reshape(-1, 2),
                                   np.arange(0, n * m + 1, m), np.arange(n + 1),
                                   np.full(n, kind, np.int8), attrs)


def _snapped_task(rng, op):
    """A task of `op` on coordinates that are multiples k * step of a step of
    0.1, 0.25, 0.3 or 0.5, so clip boxes and distance tests meet at sums
    rounded from the same steps."""
    step = float(rng.choice([0.1, 0.3, 0.05, 0.25]))

    def snap(*shape):
        return rng.integers(0, 8, shape) * step

    values = rng.integers(1, 9, 40).astype(float)
    if op == "summarize_aw":
        def squares(n):
            lo, side = snap(n, 1, 2), rng.integers(1, 5, (n, 1, 1)) * step
            return lo + side * np.array([[0, 0], [1, 0], [1, 1], [0, 1]])

        return TaskSpec(op, _snapped_shapes(squares(40), 2, values),
                        _snapped_shapes(squares(30), 2), {"value_columns": ["v"]})
    anchors = points_fs(snap(30, 2))
    if op == "extract_at":
        raster = Raster(24, 24, 0.0, 0.0, step, -9999.0, rng.uniform(0, 10, (24, 24)))
        radius = float(rng.choice([0.0, 0.5, 0.75])) * step
        return TaskSpec(op, raster, anchors, {"radius": radius, "segments": 8})
    if op == "summarize_sedc":
        sources = points_fs(snap(40, 2), values)
        return TaskSpec(op, sources, anchors, {"bandwidth": rng.integers(1, 7) * step / 2,
                                               "value_columns": ["v"]})
    if rng.integers(2):
        return TaskSpec(op, points_fs(snap(12, 2)), anchors, {})
    return TaskSpec(op, _snapped_shapes(snap(6, 3, 2), 1), anchors, {})


class TestClipEdge:
    """An op's context prune holds every feature the op admits, also where
    the prune box's edge is a rounded sum."""

    def test_sedc_source_at_maxdist(self):
        # 0.7000000000000001 - 0.5 rounds to 0.20000000000000007, so a box
        # of the anchors expanded by maxdist 0.5 misses the source at y 0.2,
        # which the distance test admits at 0.5 exactly
        anchors = points_fs([(5.9, 0.7000000000000001), (9.0, 0.0)])
        sources = points_fs([(5.9, 0.2)], [1.0])
        task = TaskSpec("summarize_sedc", sources, anchors,
                        {"bandwidth": 0.25, "value_columns": ["v"]})
        want = {"p0": repr(["p0", 0.0024787521766663585, 1]), "p1": repr(["p1", 0.0, 0])}
        for groups in ([("all", ["p0", "p1"])], [("a", ["p0"]), ("b", ["p1"])]):
            for workers in (1, 2):
                assert value_rows(run_hierarchy(task, groups, RunConfig(workers)))[1] == want

    def test_snapped_coordinates_fuzz(self):
        # seeded cases of every op on snapped coordinates, each split into
        # 2-6 chunks of arbitrary members or at snapped x values, run at 1
        # and 2 workers through run_grid and run_hierarchy: every anchor's
        # values are those of a one-chunk run
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        ops = ("summarize_sedc", "summarize_sedc", "nearest_distance", "summarize_aw",
               "extract_at")
        for case in range(250):
            task = _snapped_task(rng, ops[case % len(ops)])
            ids = task.y.ids()
            want = value_rows(run_hierarchy(task, [("all", ids)]))
            k = int(rng.integers(2, 7))
            if case % 2:
                label = rng.integers(0, k, len(ids))
            else:
                x = task.y.bounds()[:, 0]
                label = np.searchsorted(np.sort(rng.choice(x, k - 1)), x)
            members = [[fid for fid, g in zip(ids, label.tolist()) if g == c] for c in range(k)]
            workers = 2 if case % 10 == 0 else 1
            if case % 3:
                parts = PartitionSet("fuzz", [Chunk(c, BBox(0, 0, 0, 0), m)
                                              for c, m in enumerate(members)])
                got = run_grid(task, parts, RunConfig(workers))
            else:
                got = run_hierarchy(task, [(str(c), m) for c, m in enumerate(members)],
                                    RunConfig(workers))
            assert value_rows(got) == want, (case, task.op)
        assert time.perf_counter() - t0 < 10.0


@pytest.mark.parametrize("op", ["summarize_sedc", "nearest_distance", "summarize_aw",
                                "extract_at"])
def test_no_run_path_subsets(monkeypatch, op):
    # a chunk's anchors are index arrays, and each op prunes the whole
    # context itself: no chunk, at 1 or 2 workers, copies a FeatureSet
    def subset(self, indices):
        raise AssertionError("FeatureSet.subset called")

    task = _snapped_task(np.random.default_rng(5), op)
    want = value_rows(run_hierarchy(task, [("all", task.y.ids())]))
    monkeypatch.setattr(FeatureSet, "subset", subset)
    for workers in (1, 2):
        assert value_rows(run_grid(task, grid_parts(task.y, 3), RunConfig(workers))) == want


class TestFaultIsolation:
    def _bad_task(self):
        # maxdist 10: every anchor is in range of the source
        pts = points_fs([(1, 1), (5, 5), (9, 9)])
        src = points_fs([(1, 1)], values=[1.0])
        return TaskSpec("summarize_sedc", src, pts,
                        {"bandwidth": 5.0, "value_columns": ["v"]})

    def test_capture_errors_collects_rows(self, monkeypatch):
        pts = points_fs([(1.0, 1.0), (9.0, 9.0)])
        src = FeatureSet(
            [Feature("s0", Point(1.0, 1.0), {"v": 1.0, "w": 2.0})]
        )
        task = TaskSpec("summarize_sedc", src, pts,
                        {"bandwidth": 1.0, "value_columns": ["v", "w"]})
        parts = build_partition(GridSpec("grid", nx=2, ny=1), pts)
        poison_chunks(monkeypatch, "p0")
        t = run_grid(task, parts, RunConfig(workers=1, capture_errors=True))
        assert t.had_errors
        assert "error" in t.columns
        # p0's chunk blows up; p1's chunk has no sources in range
        # (empty-context fast path, no error)
        err_rows = [r for r in t.rows if r.get("error")]
        assert {r["id"] for r in err_rows} == {"p0"}
        ok = [r for r in t.rows if not r.get("error")]
        assert [r["id"] for r in ok] == ["p1"]

    def test_fail_fast_raises(self, monkeypatch):
        # every chunk fails; both paths stop at the first
        task = self._bad_task()
        poison_chunks(monkeypatch)
        parts = build_partition(GridSpec("grid", nx=3, ny=1), task.y)
        raised = []
        for workers in (1, 2):
            with pytest.raises(ChunkError) as exc:
                run_grid(task, parts, RunConfig(workers=workers, capture_errors=False))
            raised.append(exc.value.chunk_id)
        assert raised == [parts.chunks[0].chunk_id] * 2

    def test_dead_worker_gives_error_rows(self, tmp_path):
        # only the worker running one chosen chunk dies: every chunk of its
        # batch gets error rows naming its exit code, every other row is the
        # row of a clean run. Run in a subprocess so a hang times out.
        script = tmp_path / "dead_worker.py"
        script.write_text(textwrap.dedent("""
            import json, os
            import numpy as np
            from gridchop import executor
            from gridchop.dataio import Feature, FeatureSet
            from gridchop.executor import RunConfig, TaskSpec, lpt_batches, run_grid
            from gridchop.geom import Point
            from gridchop.partition import GridSpec, build_partition
            from gridchop.raster import Raster

            rng = np.random.default_rng(0)
            pts = FeatureSet([Feature(f"p{i}", Point(*map(float, rng.uniform(1, 19, 2))))
                              for i in range(40)])
            raster = Raster(20, 20, 0.0, 0.0, 1.0, -9999.0, rng.uniform(0, 10, (20, 20)))
            parts = build_partition(GridSpec("grid", nx=2, ny=2), pts)
            task = TaskSpec("extract_at", raster, pts, {})
            clean = run_grid(task, parts, RunConfig(workers=1))

            parent, doomed = os.getpid(), parts.chunks[1].chunk_id
            original = executor._run_chunk

            def dying(chunk):
                if os.getpid() != parent and chunk[1].chunk_id == doomed:
                    os._exit(7)
                return original(chunk)

            executor._run_chunk = dying
            table = run_grid(task, parts, RunConfig(workers=2))
            batches = lpt_batches([len(c.member_ids) for c in parts.chunks], 2)
            dead = [parts.chunks[i].chunk_id for b in batches if 1 in b for i in b]
            print(json.dumps({"clean": clean.rows, "rows": table.rows, "dead": dead}))
        """))
        src = os.path.dirname(os.path.dirname(gridchop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert 1 <= len(out["dead"]) < 4
        clean = {r["id"]: r for r in out["clean"]}
        rows = out["rows"]
        assert sorted(r["id"] for r in rows) == sorted(clean)
        dead = [r for r in rows if r["chunk_id"] in out["dead"]]
        assert {r["chunk_id"] for r in dead} == set(out["dead"])
        for r in dead:
            assert r["error"].startswith("worker ") and r["error"].endswith(" exit code 7")
        for r in rows:
            if r["chunk_id"] not in out["dead"]:
                assert r.pop("error") is None and r == clean[r["id"]]

    def test_failed_run_leaves_no_worker(self, tmp_path):
        # a chunk error, or a dead worker, at 2 workers without captured
        # errors raises ChunkError, and no worker process outlives the run
        script = tmp_path / "fail_fast.py"
        script.write_text(textwrap.dedent("""
            import json, multiprocessing, os
            from gridchop import executor
            from gridchop.dataio import Feature, FeatureSet
            from gridchop.executor import ChunkError, RunConfig, TaskSpec, run_grid
            from gridchop.geom import Point
            from gridchop.partition import GridSpec, build_partition

            pts = FeatureSet([Feature(f"p{i}", Point(i + 0.5, 0.5 + i % 2)) for i in range(6)])
            src = FeatureSet([Feature("s0", Point(1.0, 1.0), {"v": 1.0})])
            task = TaskSpec("summarize_sedc", src, pts, {"bandwidth": 5.0, "value_columns": ["v"]})
            parts = build_partition(GridSpec("grid", nx=3, ny=1), pts)
            # every chunk fails in its op, as float("bad") does
            executor._apply_op = lambda task, context, anchors: float("bad")
            parent, original = os.getpid(), executor._run_chunk
            out = []
            for die in (False, True):
                executor._run_chunk = (
                    lambda chunk: os._exit(3) if die and os.getpid() != parent
                    else original(chunk)
                )
                try:
                    run_grid(task, parts, RunConfig(workers=2, capture_errors=False))
                except ChunkError as e:
                    out.append([str(e), len(multiprocessing.active_children())])
            print(json.dumps(out))
        """))
        src = os.path.dirname(os.path.dirname(gridchop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        (error, left), (died, left_after_death) = json.loads(proc.stdout.splitlines()[-1])
        assert error == "chunk 0: ValueError: could not convert string to float: 'bad'"
        assert left == 0
        assert died.startswith("chunk 0: worker ") and died.endswith(" exit code 3")
        assert left_after_death == 0

    def test_short_op_table_gives_error_rows(self, monkeypatch):
        # a chunk whose op table lacks a row for an anchor errors, its rows
        # one per anchor; once it wrote a short table
        pts = scatter(10)
        task = TaskSpec("extract_at", grid_raster(), pts, {"radius": 0.0})
        parts = build_partition(GridSpec("grid", nx=2, ny=1), pts)
        doomed = next(c for c in parts.chunks if "p0" in c.member_ids)
        original = executor._apply_op

        def short(*args):
            table = original(*args)
            if "p0" in args[2].ids():
                return ResultTable({c: col[:-1] for c, col in table.data.items()})
            return table

        monkeypatch.setattr(executor, "_apply_op", short)
        t = run_grid(task, parts)
        n = len(doomed.member_ids)
        assert len(t.rows) == 10
        errors = {r["id"]: r["error"] for r in t.rows if r["error"]}
        assert sorted(errors) == sorted(doomed.member_ids)
        assert set(errors.values()) == {
            f"gridchop.errors.GridchopError: column 'value' has {n - 1} rows for {n} anchors"}

    def test_partial_failure_keeps_good_chunks(self, monkeypatch):
        # chunk with the poisoned anchor errors; others produce rows
        pts = points_fs([(1.0, 1.0), (9.0, 2.0)])
        feats = [Feature("s0", Point(1.0, 1.0), {"v": 1.0}),
                 Feature("s1", Point(9.0, 2.0), {"v": 2.0})]
        src = FeatureSet(feats)
        task = TaskSpec("summarize_sedc", src, pts,
                        {"bandwidth": 1.0, "value_columns": ["v"]})
        parts = build_partition(GridSpec("grid", nx=2, ny=1), pts)
        poison_chunks(monkeypatch, "p1")
        t = run_grid(task, parts, RunConfig(workers=2, capture_errors=True))
        good = [r for r in t.rows if not r.get("error")]
        bad = [r for r in t.rows if r.get("error")]
        assert [r["id"] for r in good] == ["p0"]
        assert [r["id"] for r in bad] == ["p1"]


def chunk(chunk_id, columns=(), rows=(), error=None):
    """A ChunkResult from the op's value columns and row dicts, or from an error."""
    if error is not None:
        return ChunkResult(chunk_id, error=error)
    return ChunkResult(chunk_id, ResultTable({c: [r.get(c) for r in rows] for c in columns}))


class TestMergeChunks:
    def test_layout_csv_bytes(self):
        # value columns in first-seen order; ids, chunk tags and extra columns
        # on every row, error rows included; a chunk missing from
        # extra_by_chunk leaves its extra fields empty; a chunk without a
        # column leaves it empty
        chunks = [
            chunk(2, ["b"], [{"b": 3}]),
            chunk(0, ["a"], [{"a": 1.0}]),
            chunk(1, error="Traceback ...\nValueError: boom"),
            chunk(3, ["b", "a"], [{"b": None, "a": 0.5}]),
        ]
        t = merge_chunks(chunks, "id", {0: ["a"], 1: ["b1", "b2"], 2: ["c"], 3: ["d"]},
                         {0: {"raster": "r0"}, 1: {"raster": "r,1"}, 3: {"raster": "r3"}})
        assert t.had_errors
        assert t.to_csv_bytes() == (
            b"id,chunk_id,raster,a,b,error\r\n"
            b"a,0,r0,1.0,,\r\n"
            b'b1,1,"r,1",,,ValueError: boom\r\n'
            b'b2,1,"r,1",,,ValueError: boom\r\n'
            b"c,2,,,3,\r\n"
            b"d,3,r3,0.5,,\r\n"
        )

    def test_frequency_layout_csv_bytes(self):
        # sorted freq_* columns, then other value columns, then count; a
        # successful chunk zero-fills the freq columns it lacks, an error row
        # leaves them empty
        chunks = [
            chunk(0, ["freq_10", "count"], [{"freq_10": 2.0, "count": 2.0}]),
            chunk(1, error="boom"),
            chunk(2, ["freq_-1", "freq_2", "count"],
                  [{"freq_-1": 0.5, "freq_2": 1.0, "count": 1.5}]),
        ]
        t = merge_chunks(chunks, "id", {0: ["a"], 1: ["b"], 2: ["c"]}, {})
        assert t.to_csv_bytes() == (
            b"id,chunk_id,freq_-1,freq_2,freq_10,count,error\r\n"
            b"a,0,0.0,0.0,2.0,2.0,\r\n"
            b"b,1,,,,,boom\r\n"
            b"c,2,0.5,1.0,0.0,1.5,\r\n"
        )

    def test_id_column_named_like_an_output_column(self):
        # an op column, a chunk tag, an extra column or the error column
        chunks = [chunk(0, ["count"], [{"count": 1}]), chunk(1, error="boom")]
        for id_column in ("count", "chunk_id", "group", "error"):
            with pytest.raises(InvalidParameterError, match=f"id column '{id_column}'"):
                merge_chunks(chunks, id_column, {0: ["a"], 1: ["b"]}, {0: {"group": "g"}})

    def test_out_of_order_sorted(self):
        chunks = [
            chunk(1, ["x"], [{"x": 2.0}]),
            chunk(0, ["x"], [{"x": 1.0}]),
        ]
        t = merge_chunks(chunks, "id", {0: ["a"], 1: ["b"]})
        assert [r["id"] for r in t.rows] == ["a", "b"]
        assert [r["x"] for r in t.rows] == [1.0, 2.0]

    def test_all_empty(self):
        t = merge_chunks([ChunkResult(0), ChunkResult(1)], "id", {0: [], 1: []})
        assert t.rows == []

    def test_duplicate_chunk_id_rejected(self):
        with pytest.raises(InvalidParameterError):
            merge_chunks([ChunkResult(0), ChunkResult(0)], "id", {0: []})

    def test_frequency_union_with_zero_fill(self):
        chunks = [
            chunk(0, ["freq_2", "count"], [{"freq_2": 1.0, "count": 1.0}]),
            chunk(1, ["freq_10", "count"], [{"freq_10": 2.0, "count": 2.0}]),
        ]
        t = merge_chunks(chunks, "id", {0: ["a"], 1: ["b"]})
        assert t.columns == ["id", "chunk_id", "freq_2", "freq_10", "count"]
        assert t.rows[0]["freq_10"] == 0.0
        assert t.rows[1]["freq_2"] == 0.0

    @pytest.mark.parametrize("name,other", [("freq_pop_sedc", "count"),
                                            ("freq_pop_mean", "coverage")], ids=["sedc", "aw"])
    def test_value_column_named_freq_is_ordinary(self, name, other):
        # a sedc or summarize_aw value column may start with freq_; it is no
        # frequency column: first-seen order, None where a chunk lacks it, no
        # zero fill (it once crashed the merge with a ValueError)
        chunks = [chunk(0, [other], [{other: 1.0}]),
                  chunk(1, [name, other], [{name: 2.5, other: 3.0}])]
        t = merge_chunks(chunks, "id", {0: ["a"], 1: ["b"]})
        assert t.to_csv_bytes() == (
            f"id,chunk_id,{other},{name}\r\na,0,1.0,\r\nb,1,3.0,2.5\r\n".encode())

    def test_error_rows_one_per_anchor(self):
        chunks = [
            chunk(0, ["x"], [{"x": 1.0}]),
            chunk(1, error="Traceback ...\nValueError: boom"),
        ]
        t = merge_chunks(chunks, "id", anchor_ids_by_chunk={0: ["a"], 1: ["b", "c"]})
        assert t.had_errors
        errs = [r for r in t.rows if r.get("error")]
        assert [r["id"] for r in errs] == ["b", "c"]
        assert all(r["error"] == "ValueError: boom" for r in errs)


class TestRunHierarchy:
    def test_group_column_and_order(self):
        pts = points_fs([(1, 1), (2, 2), (8, 8)],
                        extra=[{"cty": "B"}, {"cty": "A"}, {"cty": "A"}])
        r = grid_raster(10)
        task = TaskSpec("extract_at", r, pts, {"radius": 0.0})
        groups = group_by_hierarchy(pts, key="cty")
        t = run_hierarchy(task, groups)
        assert "group" in t.columns
        assert [row["group"] for row in t.rows] == ["A", "A", "B"]

    def test_single_group_equals_sequential(self):
        pts = scatter(15, seed=2)
        r = grid_raster()
        task = TaskSpec("extract_at", r, pts, {"radius": 1.0, "segments": 8})
        t = run_hierarchy(task, [("all", pts.ids())])
        from gridchop.geoops import extract_at

        want = with_ids(extract_at(r, pts, radius=1.0, segments=8), pts)
        assert [row["mean"] for row in t.rows] == [row["mean"] for row in want.rows]

    def test_aw_rows_independent_of_groups(self):
        # one group or one per zone: the value columns have the same bytes
        rng = np.random.default_rng(9)
        tiles = [(i, j) for i in range(6) for j in range(6)]
        sources = FeatureSet(
            [Feature(f"s{i}_{j}", make_polygon([[Point(i, j), Point(i + 1, j),
                                                 Point(i + 1, j + 1), Point(i, j + 1)]]),
                     {"v": float(rng.uniform(0, 100))}) for i, j in tiles],
        )
        targets = []
        for k in range(30):
            cx, cy = rng.uniform(0.5, 5.5, 2).tolist()
            ring = [Point(cx + 0.8 * np.cos(a), cy + 0.6 * np.sin(a))
                    for a in (2 * np.pi * np.arange(9) / 9 + k).tolist()]
            targets.append(Feature(f"t{k}", make_polygon([ring]), {"zone": f"z{k % 7}"}))
        targets = FeatureSet(targets)

        def table(groups, stat):
            task = TaskSpec("summarize_aw", sources, targets,
                            {"value_columns": ["v"], "stat": stat})
            t = run_hierarchy(task, groups)
            order = np.argsort(t.data["id"], kind="stable").tolist()
            cols = ["id", f"v_{stat}", "coverage"]
            return ResultTable({c: [t.data[c][i] for i in order] for c in cols}).to_csv_bytes()

        zones = group_by_hierarchy(targets, key="zone")
        assert len(zones) == 7
        for stat in ("mean", "sum"):
            assert table(zones, stat) == table([("all", targets.ids())], stat)

    def test_groups_must_partition_anchors(self):
        pts = scatter(3)
        task = TaskSpec("nearest_distance", pts, pts, {})
        for groups in ([("a", ["p0", "p1", "p2", "ghost"])],  # unknown id
                       [("a", ["p0", "p1"]), ("b", ["p1", "p2"])],  # p1 twice
                       [("a", ["p0", "p1"])]):  # p2 in no group
            with pytest.raises(LoadError):
                run_hierarchy(task, groups)


class TestRunMultirasters:
    def _write(self, tmp_path, name, seed):
        path = str(tmp_path / name)
        write_raster(grid_raster(8, seed=seed), path)
        return path

    def test_two_identical_rasters(self, tmp_path):
        p1 = self._write(tmp_path, "a.asc", 0)
        p2 = self._write(tmp_path, "b.asc", 0)
        pts = scatter(10, lo=1.0, hi=7.0)
        task = TaskSpec("extract_at", p1, pts, {"radius": 0.0})
        t = run_multirasters(task, [p1, p2], RunConfig(workers=2))
        assert "raster" in t.columns
        half = len(t.rows) // 2
        a = [(r["id"], r["value"]) for r in t.rows[:half]]
        b = [(r["id"], r["value"]) for r in t.rows[half:]]
        assert a == b

    def test_single_path_identity(self, tmp_path):
        p1 = self._write(tmp_path, "a.asc", 5)
        pts = scatter(10, lo=1.0, hi=7.0)
        task = TaskSpec("extract_at", p1, pts, {"radius": 0.0})
        t = run_multirasters(task, [p1])
        from gridchop.dataio import load_raster
        from gridchop.geoops import extract_at

        want = extract_at(load_raster(p1), pts)
        assert [row["value"] for row in t.rows] == [row["value"] for row in want.rows]

    def test_bad_path_isolated(self, tmp_path):
        p1 = self._write(tmp_path, "a.asc", 0)
        p3 = self._write(tmp_path, "c.asc", 1)
        pts = scatter(4, lo=1.0, hi=7.0)
        task = TaskSpec("extract_at", p1, pts, {"radius": 0.0})
        t = run_multirasters(task, [p1, str(tmp_path / "missing.asc"), p3],
                             RunConfig(workers=2))
        assert t.had_errors
        errs = [r for r in t.rows if r.get("error")]
        good = [r for r in t.rows if not r.get("error")]
        assert len(errs) == len(pts)
        assert len(good) == 2 * len(pts)

    def test_only_extract_supported(self):
        pts = scatter(4)
        task = TaskSpec("nearest_distance", pts, pts, {})
        with pytest.raises(InvalidParameterError):
            run_multirasters(task, ["x.asc"])

    def test_anchors_must_be_a_feature_set(self, tmp_path):
        path = self._write(tmp_path, "a.asc", 0)
        with pytest.raises(InvalidParameterError,
                           match="^the anchor dataset must be a FeatureSet$"):
            run_multirasters(TaskSpec("extract_at", None, None, {}), [path])

    def test_no_paths_rejected(self):
        task = TaskSpec("extract_at", None, scatter(4), {})
        with pytest.raises(InvalidParameterError):
            run_multirasters(task, [])


class TestRunConfig:
    def test_workers_validation(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(workers=0)


class TestPlan:
    def test_lpt_each_job_in_one_batch(self):
        rng = np.random.default_rng(3)
        for n in range(1, 12):
            for workers in range(1, 8):
                sizes = rng.integers(0, 5, n).tolist()
                batches = lpt_batches(sizes, workers)
                assert len(batches) == min(workers, n) and all(batches)
                assert sorted(i for b in batches for i in b) == list(range(n))
                assert all(b == sorted(b) for b in batches)
                assert lpt_batches(sizes, workers) == batches

    def test_lpt_largest_first(self):
        # 7, 6, then 5 to the lighter batch; 3 breaks the 11-11 tie to batch 0
        assert lpt_batches([7, 6, 5, 4, 3], 2) == [[0, 3, 4], [1, 2]]
        assert lpt_batches([1, 9, 1, 1], 2) == [[1], [0, 2, 3]]

    def test_lpt_equal_sizes_deterministic(self):
        assert lpt_batches([5] * 6, 2) == [[0, 2, 4], [1, 3, 5]]
        assert lpt_batches([5] * 7, 3) == [[0, 3, 6], [1, 4], [2, 5]]
        assert lpt_batches([0, 0, 0], 2) == [[0, 2], [1]]  # empty chunks spread too

    def test_lpt_more_workers_than_jobs(self):
        assert lpt_batches([3, 1], 5) == [[0], [1]]
        assert lpt_batches([4], 3) == [[0]]
        assert lpt_batches([], 2) == []

    def test_plan_names_first_fault_in_plan_order(self):
        pts = points_fs([(i + 0.5, 0.5 + i % 2) for i in range(4)])
        task = TaskSpec("extract_at", grid_raster(), pts, {})
        cases = [
            ([Job(0, ["p0", "p1"]), Job(1, ["p2", "p2", "ghost"]), Job(0, ["p3"])],
             "chunk 1: member id 'p2' is already in chunk 1"),
            ([Job(0, ["p0", "ghost"]), Job(1, ["p0"])],
             "chunk 0: member id 'ghost' is not an anchor id"),
            ([Job(0, ["p0", "p1"]), Job(0, ["p9"])], "chunk id 0 is used by more than one chunk"),
            ([Job(3, ["p0"]), Job(1, ["p3", "p0", "ghost"])],
             "chunk 1: member id 'p0' is already in chunk 3"),
            ([Job(0, ["p0"]), Job(1, ["p2"])], "2 anchor ids are in no chunk, first 'p1'"),
        ]
        for jobs, message in cases:
            with pytest.raises(LoadError) as exc:
                _run(task, jobs, RunConfig(workers=2), "id", "continuous")
            assert str(exc.value) == message
