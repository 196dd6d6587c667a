"""Seeded inputs, `chop` command lines and output oracles for each workload.

Every input is generated here from the workload seed and written with the
benchmark's own writers, so the program under test only ever sees files.
Each workload keeps the generated arrays it needs to check the program's
outputs independently of the program's own code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

EXTENT = 100.0  # every dataset lies in [0, EXTENT) x [0, EXTENT)
NODATA = -9999.0


# --- writers ---------------------------------------------------------------


def write_points_csv(path, xs, ys, columns=None, prefix="p"):
    columns = columns or {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["id", "x", "y", *columns]) + "\n")
        cols = [xs.tolist(), ys.tolist(), *(v.tolist() for v in columns.values())]
        for i, vals in enumerate(zip(*cols)):
            fh.write(f"{prefix}{i}," + ",".join(map(repr, vals)) + "\n")


def write_asc(path, values, cellsize):
    nrows, ncols = values.shape
    with open(path, "w") as fh:
        fh.write(f"ncols {ncols}\nnrows {nrows}\nxllcorner 0.0\nyllcorner 0.0\n")
        fh.write(f"cellsize {cellsize!r}\nnodata_value {NODATA!r}\n")
        for row in values.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def write_geojson(path, features):
    """features: (id, geometry type, coordinates, properties) tuples."""
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"id": fid, **props},
                "geometry": {"type": gtype, "coordinates": coords},
            }
            for fid, gtype, coords, props in features
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def raster_values(rng, n):
    # two-decimal values: short tokens, and exact after a text round trip
    return rng.integers(0, 10_000, (n, n)) / 100.0


def closed_ring(xs, ys):
    ring = [[x, y] for x, y in zip(xs.tolist(), ys.tolist())]
    return ring + [ring[0]]


# --- oracle helpers ---------------------------------------------------------


def shoelace(pts):
    total = 0.0
    for i in range(len(pts)):
        x0, y0 = pts[i - 1]
        x1, y1 = pts[i]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def _clip_side(pts, keep, cut):
    out = []
    for i in range(len(pts)):
        p, q = pts[i - 1], pts[i]
        if keep(q):
            if not keep(p):
                out.append(cut(p, q))
            out.append(q)
        elif keep(p):
            out.append(cut(p, q))
    return out


def rect_clip_area(pts, x0, y0, x1, y1):
    """Area of a counterclockwise ring clipped to [x0, x1] x [y0, y1].

    A scalar Sutherland-Hodgman clip, one rectangle side at a time; it is the
    reference the coverage outputs are checked against.
    """

    def at_x(xc):
        return lambda p, q: (xc, p[1] + (q[1] - p[1]) * (xc - p[0]) / (q[0] - p[0]))

    def at_y(yc):
        return lambda p, q: (p[0] + (q[0] - p[0]) * (yc - p[1]) / (q[1] - p[1]), yc)

    for keep, cut in (
        (lambda p: p[0] >= x0, at_x(x0)),
        (lambda p: p[0] <= x1, at_x(x1)),
        (lambda p: p[1] >= y0, at_y(y0)),
        (lambda p: p[1] <= y1, at_y(y1)),
    ):
        pts = _clip_side(pts, keep, cut)
        if not pts:
            return 0.0
    return shoelace(pts)


def coverage_mean(pts, values, cellsize):
    """Coverage-weighted mean of a raster anchored at (0, 0) under a ring."""
    nrows = values.shape[0]
    ytop = nrows * cellsize
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    weighted = area = 0.0
    for r in range(int((ytop - max(ys)) // cellsize), int((ytop - min(ys)) // cellsize) + 1):
        for c in range(int(min(xs) // cellsize), int(max(xs) // cellsize) + 1):
            x0, y0 = c * cellsize, ytop - (r + 1) * cellsize
            a = rect_clip_area(pts, x0, y0, x0 + cellsize, y0 + cellsize)
            if a > 0.0:
                weighted += a * values[r, c]
                area += a
    return weighted / area


def close(got, want, rel=1e-9):
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def num(text):
    """A CSV field as a float; NaN (which compares unequal) if it is not one."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def csv_rows(path, columns, problems, optional=()):
    """Stream (id, [named fields]) per row; a missing column or an error row
    is a problem, an absent optional column reads as "". Streaming keeps the
    checks' memory below the job's."""
    where = os.path.basename(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in ("id", *columns) if c not in header]
        if missing:
            problems.append(f"{where}: missing columns {missing}")
            return
        pos = [header.index(c) if c in header else None for c in ("id", *columns, *optional)]
        err = header.index("error") if "error" in header else None
        for row in reader:
            if len(row) != len(header):
                problems.append(f"{where}: a row has {len(row)} fields, not {len(header)}")
                continue
            if err is not None and row[err]:
                problems.append(f"{where}: anchor {row[pos[0]]} has an error row")
            yield row[pos[0]], ["" if j is None else row[j] for j in pos[1:]]


def rows_by_id(path, ids, columns, problems, optional=()):
    """{id: {column: field}}; reports a missing, unknown or repeated anchor."""
    where = os.path.basename(path)
    out = {}
    for fid, fields in csv_rows(path, columns, problems, optional):
        if fid in out:
            problems.append(f"{where}: anchor {fid} has more than one row")
        out[fid] = dict(zip((*columns, *optional), fields))
    missing = len(set(ids) - set(out))
    extra = len(set(out) - set(ids))
    if missing or extra:
        problems.append(f"{where}: {missing} anchors missing, {extra} unknown ids")
    return out


def sample(n, k):
    """A fixed, evenly spread sample of k indices out of n."""
    return sorted({int(i) for i in np.linspace(0, n - 1, k)})


# --- workloads --------------------------------------------------------------


class Workload:
    name: str
    workers: int  # worker count of the timed jobs; the reference uses 1
    outputs: tuple[str, ...]  # files a job writes, compared byte for byte

    def generate(self, rng, d):
        raise NotImplementedError

    def commands(self, d, workers):
        raise NotImplementedError

    def check(self, d):
        """Oracle problems found in the outputs in d; empty when all hold."""
        raise NotImplementedError


class ExtractBuffered(Workload):
    """Buffered point extract: the coverage-fraction kernel dominates."""

    name = "extract_buffered"
    workers = 1
    outputs = ("parts.json", "out.csv")
    n_points = 400
    raster_size = 500
    radius_cells = 3
    segments = 64  # extract_at's default buffer polygon

    def generate(self, rng, d):
        self.cs = EXTENT / self.raster_size
        self.radius = self.radius_cells * self.cs
        self.px = rng.uniform(0.0, EXTENT, self.n_points)
        self.py = rng.uniform(0.0, EXTENT, self.n_points)
        self.values = raster_values(rng, self.raster_size)
        write_points_csv(os.path.join(d, "points.csv"), self.px, self.py)
        write_asc(os.path.join(d, "raster.asc"), self.values, self.cs)

    def commands(self, d, workers):
        p = lambda f: os.path.join(d, f)  # noqa: E731
        r = repr(self.radius)
        return [
            ["partition", "--input", p("points.csv"), "--mode", "grid", "--nx", "4",
             "--ny", "2", "--padding", r, "--out", p("parts.json")],
            ["run", "--task", "extract_at", "--x", p("raster.asc"), "--y", p("points.csv"),
             "--partition", p("parts.json"), "--radius", r, "--stat", "mean",
             "--workers", str(workers), "--out", p("out.csv")],
        ]

    def _ring(self, i):
        theta = 2.0 * np.pi * np.arange(self.segments) / self.segments
        xs = self.px[i] + self.radius * np.cos(theta)
        ys = self.py[i] + self.radius * np.sin(theta)
        return list(zip(xs.tolist(), ys.tolist()))

    def check(self, d):
        problems = []
        ids = [f"p{i}" for i in range(self.n_points)]
        rows = rows_by_id(os.path.join(d, "out.csv"), ids, ("mean", "count"), problems)
        if problems:
            return problems
        n = self.segments
        want_count = 0.5 * n * self.radius**2 * math.sin(2.0 * math.pi / n) / self.cs**2
        r = self.radius
        inside = [
            i for i in range(self.n_points)
            if r <= self.px[i] <= EXTENT - r and r <= self.py[i] <= EXTENT - r
        ]
        for i in inside:
            if not close(num(rows[f"p{i}"]["count"]), want_count):
                problems.append(f"p{i}: count {rows[f'p{i}']['count']} != {want_count!r}")
        for k in sample(len(inside), 8):
            i = inside[k]
            want = coverage_mean(self._ring(i), self.values, self.cs)
            if not close(num(rows[f"p{i}"]["mean"]), want):
                problems.append(f"p{i}: mean {rows[f'p{i}']['mean']} != {want!r}")
        return problems


class VectorCovariates(Workload):
    """Point covariates on an MST-merged partition with a 2-worker fork pool."""

    name = "vector_covariates"
    workers = 2
    outputs = ("parts.json", "sedc.csv", "nearest.csv")
    n_anchors = 8_000
    n_sources = 8_000
    n_lines = 200
    bandwidth = 1.5

    def generate(self, rng, d):
        self.ax = rng.uniform(0.0, EXTENT, self.n_anchors)
        self.ay = rng.uniform(0.0, EXTENT, self.n_anchors)
        self.sx = rng.uniform(0.0, EXTENT, self.n_sources)
        self.sy = rng.uniform(0.0, EXTENT, self.n_sources)
        self.sv = rng.integers(0, 1000, self.n_sources) / 10.0
        write_points_csv(os.path.join(d, "anchors.csv"), self.ax, self.ay)
        write_points_csv(os.path.join(d, "sources.csv"), self.sx, self.sy, {"v": self.sv}, "s")
        lines, segs = [], []
        for k in range(self.n_lines):
            n = 2 + k % 4
            start = rng.uniform(15.0, EXTENT - 15.0, 2)
            pts = start + rng.uniform(-15.0, 15.0, (n, 2))
            lines.append((f"l{k}", "LineString", pts.tolist(), {}))
            segs += [(*pts[i], *pts[i + 1], f"l{k}") for i in range(n - 1)]
        write_geojson(os.path.join(d, "lines.geojson"), lines)
        self.segs = np.array([s[:4] for s in segs])
        self.seg_owner = [s[4] for s in segs]

    def commands(self, d, workers):
        p = lambda f: os.path.join(d, f)  # noqa: E731
        w = str(workers)
        return [
            ["partition", "--input", p("anchors.csv"), "--mode", "advanced", "--nx", "10",
             "--ny", "10", "--min-features", "150", "--padding", "3", "--out", p("parts.json")],
            ["run", "--task", "sedc", "--x", p("sources.csv"), "--y", p("anchors.csv"),
             "--partition", p("parts.json"), "--bandwidth", repr(self.bandwidth),
             "--value-cols", "v", "--workers", w, "--out", p("sedc.csv")],
            ["run", "--task", "nearest", "--x", p("lines.geojson"), "--y", p("anchors.csv"),
             "--partition", p("parts.json"), "--workers", w, "--out", p("nearest.csv")],
        ]

    def _segment_distances(self, x, y):
        ax, ay, bx, by = self.segs.T
        dx, dy = bx - ax, by - ay
        t = np.clip(((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        return np.hypot(x - (ax + t * dx), y - (ay + t * dy))

    def check(self, d):
        problems = []
        ids = [f"p{i}" for i in range(self.n_anchors)]
        sedc = rows_by_id(os.path.join(d, "sedc.csv"), ids, ("v_sedc", "count"), problems)
        near = rows_by_id(
            os.path.join(d, "nearest.csv"), ids, ("distance", "nearest_feature_id"), problems,
            optional=("pad_warning",),
        )
        if problems:
            return problems
        maxdist = 2.0 * self.bandwidth
        for i in sample(self.n_anchors, 64):
            fid = f"p{i}"
            dist = np.hypot(self.sx - self.ax[i], self.sy - self.ay[i])
            hit = dist <= maxdist
            want = float(np.sum(self.sv[hit] * np.exp(-3.0 * dist[hit] / self.bandwidth)))
            if num(sedc[fid]["count"]) != hit.sum() or not close(
                num(sedc[fid]["v_sedc"]), want, 1e-12
            ):
                problems.append(f"sedc {fid}: {sedc[fid]} != count {hit.sum()} sum {want!r}")
            if near[fid]["pad_warning"] == "1":
                continue
            seg_d = self._segment_distances(self.ax[i], self.ay[i])
            got = num(near[fid]["distance"])
            owner = near[fid]["nearest_feature_id"]
            owner_d = min((seg_d[j] for j, o in enumerate(self.seg_owner) if o == owner),
                          default=math.inf)
            if not close(got, float(seg_d.min()), 1e-12) or not close(owner_d, got, 1e-12):
                problems.append(f"nearest {fid}: {got!r} != brute force {seg_d.min()!r}")
        return problems


class PolygonZonal(Workload):
    """Zonal extract and area-weighted transfer for polygons grouped by zone."""

    name = "polygon_zonal"
    workers = 1
    outputs = ("extract.csv", "aw.csv")
    n_polygons = 400
    raster_size = 500
    source_grid = 40

    def generate(self, rng, d):
        self.cs = EXTENT / self.raster_size
        self.values = raster_values(rng, self.raster_size)
        write_asc(os.path.join(d, "raster.asc"), self.values, self.cs)
        self.rings = []
        polys = []
        for k in range(self.n_polygons):
            # vertex counts and sizes cycle through fixed ranges, so the work
            # of a job does not depend on the seed
            nv = 6 + k % 19
            rmax = (1.0 + 4.0 * (k * 0.6180339887 % 1.0)) * self.cs  # spans 2 to 10 cells
            cx, cy = rng.uniform(rmax, EXTENT - rmax, 2)
            # one vertex per equal sector: every gap is below pi, so the
            # ring is star-shaped around (cx, cy) and simple
            theta = 2.0 * np.pi * (np.arange(nv) + rng.uniform(0.0, 1.0, nv)) / nv
            rad = rmax * rng.uniform(0.5, 1.0, nv)
            xs, ys = cx + rad * np.cos(theta), cy + rad * np.sin(theta)
            self.rings.append(list(zip(xs.tolist(), ys.tolist())))
            zone = f"z{int(cx // 25)}{int(cy // 25)}"
            polys.append((f"g{k}", "Polygon", [closed_ring(xs, ys)], {"zone": zone}))
        write_geojson(os.path.join(d, "polygons.geojson"), polys)
        self.side = EXTENT / self.source_grid
        self.pop = rng.integers(0, 10_000, (self.source_grid, self.source_grid)) / 10.0
        squares = []
        for j in range(self.source_grid):
            for i in range(self.source_grid):
                x0, y0 = i * self.side, j * self.side
                xs = np.array([x0, x0 + self.side, x0 + self.side, x0])
                ys = np.array([y0, y0, y0 + self.side, y0 + self.side])
                squares.append(
                    (f"s{j}_{i}", "Polygon", [closed_ring(xs, ys)], {"pop": self.pop[j, i]})
                )
        write_geojson(os.path.join(d, "sources.geojson"), squares)

    def commands(self, d, workers):
        p = lambda f: os.path.join(d, f)  # noqa: E731
        w = str(workers)
        return [
            ["run", "--task", "extract_at", "--x", p("raster.asc"), "--y", p("polygons.geojson"),
             "--hierarchy", "zone", "--stat", "mean", "--workers", w, "--out", p("extract.csv")],
            ["run", "--task", "summarize_aw", "--x", p("sources.geojson"),
             "--y", p("polygons.geojson"), "--hierarchy", "zone", "--value-cols", "pop",
             "--workers", w, "--out", p("aw.csv")],
        ]

    def _aw_mean(self, ring):
        xs = [p[0] for p in ring]
        ys = [p[1] for p in ring]
        weighted = area = 0.0
        for j in range(int(min(ys) // self.side), int(max(ys) // self.side) + 1):
            for i in range(int(min(xs) // self.side), int(max(xs) // self.side) + 1):
                x0, y0 = i * self.side, j * self.side
                a = rect_clip_area(ring, x0, y0, x0 + self.side, y0 + self.side)
                weighted += a * self.pop[j, i]
                area += a
        return weighted / area

    def check(self, d):
        problems = []
        ids = [f"g{k}" for k in range(self.n_polygons)]
        ext = rows_by_id(os.path.join(d, "extract.csv"), ids, ("mean", "count"), problems)
        aw = rows_by_id(os.path.join(d, "aw.csv"), ids, ("pop_mean", "coverage"), problems)
        if problems:
            return problems
        for k, ring in enumerate(self.rings):
            fid = f"g{k}"
            want = shoelace(ring) / self.cs**2
            if not close(num(ext[fid]["count"]), want):
                problems.append(f"extract {fid}: count {ext[fid]['count']} != {want!r}")
            if not close(num(aw[fid]["coverage"]), 1.0):
                problems.append(f"aw {fid}: coverage {aw[fid]['coverage']} != 1")
        for k in sample(self.n_polygons, 24):
            fid, ring = f"g{k}", self.rings[k]
            want = coverage_mean(ring, self.values, self.cs)
            if not close(num(ext[fid]["mean"]), want):
                problems.append(f"extract {fid}: mean {ext[fid]['mean']} != {want!r}")
            want = self._aw_mean(ring)
            if not close(num(aw[fid]["pop_mean"]), want):
                problems.append(f"aw {fid}: pop_mean {aw[fid]['pop_mean']} != {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (ExtractBuffered, VectorCovariates, PolygonZonal)}


def corruptions(blob):
    """Defective copies of a CSV, one at a time: its first data row with one
    value changed, dropped, or duplicated. Each must fail the output gate."""
    start = blob.index(b"\r\n") + 2
    end = blob.index(b"\r\n", start) + 2
    line = blob[start:end]
    fields = next(csv.reader([line.decode()[:-2]]))
    for j in range(len(fields) - 1, -1, -1):
        if not math.isnan(num(fields[j])):
            fields[j] = repr(num(fields[j]) + 1.0)
            break
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    yield "value changed", blob[:start] + buf.getvalue().encode() + blob[end:]
    yield "row dropped", blob[:start] + blob[end:]
    yield "row duplicated", blob[:end] + line + blob[end:]
