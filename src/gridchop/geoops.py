"""User-facing geospatial summarizers parallelized by the executor.

All four operations are pure functions from immutable inputs to a
ResultTable and compute each output row independently of the others, which
is what makes chunked execution value-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import FeatureSet, ResultTable
from .errors import InvalidInputError, InvalidParameterError, UnsupportedGeometryError
from .geom import BBox, Point, Polygon, bbox_of, polygon_area
from .raster import Raster, StatSpec, cell_areas, coverage_fractions, zonal_stat

# cap on the coverage kernel's per-batch temporaries, in array elements;
# larger blocks are no faster and only raise peak memory
_BATCH_ELEMS = 32_000
# cap on the target x source distance block of summarize_sedc and
# nearest_distance, in array elements
_PAIR_ELEMS = 200_000


@dataclass(frozen=True)
class SedcParams:
    """Exponential decay: weight exp(-3 d / bandwidth), hard cutoff at maxdist.

    The weight at d = bandwidth is exp(-3) ~ 0.0498; maxdist defaults to
    twice the bandwidth.
    """

    bandwidth: float
    maxdist: float | None = None
    value_columns: tuple[str, ...] = ()

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise InvalidParameterError("bandwidth must be > 0")
        if self.maxdist is None:
            object.__setattr__(self, "maxdist", 2.0 * self.bandwidth)
        if self.maxdist < self.bandwidth:
            raise InvalidParameterError("maxdist must be >= bandwidth")


def freq_column(category: float) -> str:
    c = float(category)
    return f"freq_{int(c)}" if c.is_integer() else f"freq_{c!r}"


def freq_sort_key(column: str) -> float:
    return float(column.removeprefix("freq_"))


def _finish_freq_table(id_column: str, rows: list[dict]) -> ResultTable:
    cats: set[str] = set()
    for row in rows:
        cats.update(k for k in row if k.startswith("freq_"))
    cols = sorted(cats, key=freq_sort_key)
    for row in rows:
        for c in cols:
            row.setdefault(c, 0.0)
    return ResultTable([id_column, *cols, "count"], rows)


def _point_arrays(fs: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    px = np.array([f.geometry.x for f in fs.features], dtype=np.float64)
    py = np.array([f.geometry.y for f in fs.features], dtype=np.float64)
    return px, py


def _buffered_point_stats(
    r: Raster,
    px: np.ndarray,
    py: np.ndarray,
    radius: float,
    stat: StatSpec,
    segments: int,
):
    """Coverage-weighted statistics over inscribed-polygon buffers, batched.

    Returns (values, counts) for scalar stats, or (freq dict list, counts)
    for frequency. Each point's result depends only on that point and the
    raster, so results are independent of batch composition.
    """
    n = px.size
    cs = r.cellsize
    theta = 2.0 * np.pi * np.arange(segments) / segments
    ux = np.cos(theta)
    uy = np.sin(theta)
    w_cells = int(np.ceil(2.0 * radius / cs)) + 1
    c_per_pt = w_cells * w_cells

    counts = np.zeros(n)
    scalars = np.full(n, np.nan)
    freqs: list[dict[float, float]] = [dict() for _ in range(n)] if stat.kind == "frequency" else []

    # per point the kernel sorts about 2V edge ends plus 4W line crossings
    # and accumulates W*W cells
    block = max(1, _BATCH_ELEMS // (2 * segments + 4 * w_cells + c_per_pt))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        bx, by = px[lo:hi], py[lo:hi]
        vx = bx[:, None] + radius * ux[None, :]  # (P, V)
        vy = by[:, None] + radius * uy[None, :]
        col0 = np.floor((bx - radius - r.xll) / cs).astype(int)
        row0 = np.floor((r.ytop - (by + radius)) / cs).astype(int)
        cols = col0[:, None, None] + np.arange(w_cells)[None, None, :]
        rows = row0[:, None, None] + np.arange(w_cells)[None, :, None]
        cols = np.broadcast_to(cols, (hi - lo, w_cells, w_cells)).reshape(hi - lo, -1)
        rows = np.broadcast_to(rows, (hi - lo, w_cells, w_cells)).reshape(hi - lo, -1)
        inb = (cols >= 0) & (cols < r.ncols) & (rows >= 0) & (rows < r.nrows)
        area = cell_areas(
            vx.ravel(), vy.ravel(), np.roll(vx, -1, axis=1).ravel(),
            np.roll(vy, -1, axis=1).ravel(), np.repeat(np.arange(hi - lo), segments),
            r.xll + col0 * cs, r.ytop - row0 * cs, cs, w_cells, w_cells,
        )
        frac = np.minimum(area.reshape(hi - lo, -1), 1.0)
        vals = r.values[np.clip(rows, 0, r.nrows - 1), np.clip(cols, 0, r.ncols - 1)]
        valid = inb & (frac > 0.0) & (vals != r.nodata)
        w = np.where(valid, frac, 0.0)
        cnt = np.sum(w, axis=1)
        counts[lo:hi] = cnt
        if stat.kind == "frequency":
            for i in range(hi - lo):
                d = freqs[lo + i]
                idx = np.nonzero(valid[i])[0]
                for j in idx:
                    v = float(vals[i, j])
                    d[v] = d.get(v, 0.0) + float(w[i, j])
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            if stat.kind == "count":
                out = cnt
            elif stat.kind == "sum":
                out = np.sum(w * vals, axis=1)
            elif stat.kind == "mean":
                out = np.sum(w * vals, axis=1) / cnt
            elif stat.kind == "stdev":
                mu = np.sum(w * vals, axis=1) / cnt
                out = np.sqrt(np.sum(w * (vals - mu[:, None]) ** 2, axis=1) / cnt)
            elif stat.kind == "min":
                out = np.min(np.where(valid, vals, np.inf), axis=1)
            elif stat.kind == "max":
                out = np.max(np.where(valid, vals, -np.inf), axis=1)
            else:
                raise InvalidParameterError(f"unknown statistic {stat.kind!r}")
        scalars[lo:hi] = np.where(cnt > 0, out, np.nan)
    if stat.kind == "frequency":
        return freqs, counts
    return scalars, counts


def extract_at(
    x: Raster,
    y: FeatureSet,
    radius: float = 0.0,
    stat: StatSpec | str = "mean",
    id_column: str = "id",
    segments: int = 64,
) -> ResultTable:
    """Zonal statistics of raster x at features y (points or polygons).

    Points with radius 0 read the cell value under the point; with
    radius > 0 they are buffered into inscribed regular polygons. Raw
    polygons are summarized directly; buffered polygons and line inputs are
    rejected.
    """
    if isinstance(stat, str):
        stat = StatSpec(stat)
    if radius < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {radius}")
    if stat.kind == "frequency" and x.kind != "categorical":
        raise InvalidParameterError("frequency statistic requires a categorical raster")
    kind = y.geometry_kind()
    if kind == "line":
        raise UnsupportedGeometryError("extract_at does not support line inputs")
    ids = y.ids()
    if kind == "empty":
        cols = [id_column, "value" if radius == 0 else stat.kind, "count"]
        return ResultTable(cols, [])

    if kind == "point" and radius == 0:
        px, py = _point_arrays(y)
        cs = x.cellsize
        col = np.floor((px - x.xll) / cs).astype(int)
        row = np.floor((x.ytop - py) / cs).astype(int)
        inb = (col >= 0) & (col < x.ncols) & (row >= 0) & (row < x.nrows)
        vals = x.values[np.clip(row, 0, x.nrows - 1), np.clip(col, 0, x.ncols - 1)]
        rows_out = []
        for i, fid in enumerate(ids):
            v = float(vals[i]) if inb[i] else None
            if v is not None and v == x.nodata:
                v = None
            rows_out.append({id_column: fid, "value": v, "count": 0.0 if v is None else 1.0})
        return ResultTable([id_column, "value", "count"], rows_out)

    if kind == "point":
        px, py = _point_arrays(y)
        res, counts = _buffered_point_stats(x, px, py, radius, stat, segments)
        rows_out = []
        if stat.kind == "frequency":
            for i, fid in enumerate(ids):
                row = {id_column: fid, "count": float(counts[i])}
                for cat, wsum in res[i].items():
                    row[freq_column(cat)] = wsum
                rows_out.append(row)
            return _finish_freq_table(id_column, rows_out)
        for i, fid in enumerate(ids):
            v = None if math.isnan(res[i]) else float(res[i])
            rows_out.append({id_column: fid, stat.kind: v, "count": float(counts[i])})
        return ResultTable([id_column, stat.kind, "count"], rows_out)

    # polygons
    if radius > 0:
        raise InvalidParameterError("buffered polygon extraction is not supported")
    rows_out = []
    for feat in y.features:
        cells = coverage_fractions(x, feat.geometry)
        sr = zonal_stat(x, cells, stat)
        row = {id_column: feat.id, "count": sr.count}
        if stat.kind == "frequency":
            for cat, wsum in (sr.frequency or {}).items():
                row[freq_column(cat)] = wsum
        else:
            row[stat.kind] = sr.value
        rows_out.append(row)
    if stat.kind == "frequency":
        return _finish_freq_table(id_column, rows_out)
    return ResultTable([id_column, stat.kind, "count"], rows_out)


# --- polygon/polygon intersection via trapezoid decomposition -----------


def _trapezoids(poly: Polygon) -> list[list[tuple[float, float]]]:
    """Decompose a polygon (holes included, even-odd) into convex trapezoids."""
    edges = []
    for ring in [poly.outer, *poly.holes]:
        verts = ring.vertices
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            if a.y != b.y:
                edges.append((a.x, a.y, b.x, b.y))
    ys = sorted({e[1] for e in edges} | {e[3] for e in edges})
    traps = []
    for y0, y1 in zip(ys, ys[1:]):
        ymid = 0.5 * (y0 + y1)
        xs = []
        for ax, ay, bx, by in edges:
            if min(ay, by) <= y0 and max(ay, by) >= y1:
                slope = (bx - ax) / (by - ay)
                xs.append((ax + (ymid - ay) * slope, ax + (y0 - ay) * slope, ax + (y1 - ay) * slope))
        xs.sort()
        for i in range(0, len(xs) - 1, 2):
            (_, l0, l1), (_, r0, r1) = xs[i], xs[i + 1]
            # at a shared vertex rounding can put r one ulp left of l; a
            # reversed edge would make the convex clip drop the trapezoid
            traps.append([(l0, y0), (max(r0, l0), y0), (max(r1, l1), y1), (l1, y1)])
    return traps


def _clip_ring_convex(
    pts: list[tuple[float, float]], clip_pts: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman against a convex CCW clip polygon."""
    out = pts
    m = len(clip_pts)
    for e in range(m):
        ax, ay = clip_pts[e]
        bx, by = clip_pts[(e + 1) % m]
        ex, ey = bx - ax, by - ay
        if ex == 0.0 and ey == 0.0:
            continue
        pts_in = out
        out = []
        n = len(pts_in)
        if n == 0:
            break
        for i in range(n):
            cx, cy = pts_in[i]
            qx, qy = pts_in[i - 1]
            cur_in = ex * (cy - ay) - ey * (cx - ax) >= 0.0
            prev_in = ex * (qy - ay) - ey * (qx - ax) >= 0.0
            if cur_in != prev_in:
                dc = ex * (cy - ay) - ey * (cx - ax)
                dq = ex * (qy - ay) - ey * (qx - ax)
                t = dq / (dq - dc)
                out.append((qx + t * (cx - qx), qy + t * (cy - qy)))
            if cur_in:
                out.append((cx, cy))
    return out


def _shoelace(pts: list[tuple[float, float]]) -> float:
    total = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def _same_polygon(a: Polygon, b: Polygon) -> bool:
    ra = [[(v.x, v.y) for v in ring.vertices] for ring in [a.outer, *a.holes]]
    rb = [[(v.x, v.y) for v in ring.vertices] for ring in [b.outer, *b.holes]]
    return ra == rb


def polygon_intersection_area(a: Polygon, b: Polygon, traps=None) -> float:
    """Exact intersection area; a is decomposed into convex trapezoids and b's
    rings are clipped against each (signed areas summed, so holes work).
    """
    if _same_polygon(a, b):
        return polygon_area(a)
    if not bbox_of(a).intersects(bbox_of(b)):
        return 0.0
    if traps is None:
        traps = _trapezoids(a)
    rings = [[(v.x, v.y) for v in ring.vertices] for ring in [b.outer, *b.holes]]
    total = 0.0
    for trap in traps:
        for ring in rings:
            clipped = _clip_ring_convex(ring, trap)
            if len(clipped) >= 3:
                total += _shoelace(clipped)
    return max(total, 0.0)


def summarize_aw(
    targets: FeatureSet,
    sources: FeatureSet,
    value_columns: list[str],
    stat: str = "mean",
    id_column: str = "id",
) -> ResultTable:
    """Area-weighted polygon-to-polygon transfer.

    mean_j = sum_i a_ij v_i / sum_i a_ij; sum_j = sum_i v_i a_ij / area_i.
    Means are normalized by intersected area; the coverage column reports
    sum_i a_ij / area(target_j). Targets intersecting nothing yield null rows.
    """
    if stat not in ("mean", "sum"):
        raise InvalidParameterError(f"summarize_aw stat must be mean or sum, got {stat!r}")
    if targets.geometry_kind() != "polygon" or sources.geometry_kind() != "polygon":
        raise InvalidInputError("summarize_aw requires polygon inputs")
    src_boxes = [bbox_of(f.geometry) for f in sources.features]
    src_areas = [polygon_area(f.geometry) for f in sources.features]
    cols = [f"{c}_{stat}" for c in value_columns]
    rows_out = []
    for tgt in targets.features:
        tbox = bbox_of(tgt.geometry)
        traps = _trapezoids(tgt.geometry)
        tarea = polygon_area(tgt.geometry)
        inter_total = 0.0
        num = {c: 0.0 for c in value_columns}
        for i, src in enumerate(sources.features):
            if not tbox.intersects(src_boxes[i]):
                continue
            aij = polygon_intersection_area(tgt.geometry, src.geometry, traps)
            if aij <= 0.0:
                continue
            inter_total += aij
            for c in value_columns:
                v = float(src.attributes[c])
                if stat == "mean":
                    num[c] += aij * v
                else:
                    num[c] += v * (aij / src_areas[i])
        row = {id_column: tgt.id, "coverage": inter_total / tarea if tarea > 0 else 0.0}
        for c, oc in zip(value_columns, cols):
            if inter_total > 0.0:
                row[oc] = num[c] / inter_total if stat == "mean" else num[c]
            else:
                row[oc] = None
        rows_out.append(row)
    return ResultTable([id_column, *cols, "coverage"], rows_out)


def summarize_sedc(
    targets: FeatureSet,
    sources: FeatureSet,
    params: SedcParams,
    id_column: str = "id",
) -> ResultTable:
    """Sum of exponentially decaying contributions from sources at targets."""
    if targets.geometry_kind() not in ("point", "empty") or sources.geometry_kind() not in (
        "point",
        "empty",
    ):
        raise InvalidInputError("summarize_sedc requires point inputs")
    value_columns = list(params.value_columns)
    cols = [f"{c}_sedc" for c in value_columns]
    sx, sy = _point_arrays(sources)
    tx, ty = _point_arrays(targets)
    svals = {
        c: np.array([float(f.attributes[c]) for f in sources.features]) for c in value_columns
    }
    rows_out = []
    block = max(1, _PAIR_ELEMS // max(1, len(sources)))
    for lo in range(0, len(targets), block):
        d = np.sqrt((sx - tx[lo : lo + block, None]) ** 2 + (sy - ty[lo : lo + block, None]) ** 2)
        # row-major: each target's pairs are contiguous, its sources ascending
        ti, si = np.nonzero(d <= params.maxdist)
        w = np.exp(-3.0 * d[ti, si] / params.bandwidth)
        terms = [svals[c][si] * w for c in value_columns]
        ends = np.cumsum(np.bincount(ti, minlength=len(d))).tolist()
        for k, (start, end) in enumerate(zip([0, *ends], ends)):
            row = {id_column: targets.features[lo + k].id, "count": end - start}
            for oc, t in zip(cols, terms):
                # the sum of the target's own slice has the same bits as the
                # sum of its terms alone (np.add.reduceat rounds differently)
                row[oc] = float(t[start:end].sum()) if end > start else 0.0
            rows_out.append(row)
    return ResultTable([id_column, *cols, "count"], rows_out)


def _segments_of(fs: FeatureSet) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """All segments of a line/point FeatureSet as (S,4) coords + owner ids."""
    segs = []
    owners = []
    for feat in fs.features:
        g = feat.geometry
        if isinstance(g, Point):
            segs.append((g.x, g.y, g.x, g.y))
            owners.append(feat.id)
        else:
            verts = g.vertices if not isinstance(g, Polygon) else g.outer.vertices
            for a, b in zip(verts, verts[1:]):
                segs.append((a.x, a.y, b.x, b.y))
                owners.append(feat.id)
    arr = np.array(segs, dtype=np.float64).reshape(-1, 4)
    return arr, np.arange(arr.shape[0]), owners


def nearest_distance(
    y: FeatureSet,
    x: FeatureSet,
    id_column: str = "id",
) -> ResultTable:
    """Distance from each y point to the closest x feature (points or lines)."""
    if y.geometry_kind() not in ("point", "empty"):
        raise InvalidInputError("nearest_distance requires point anchors")
    if len(x) == 0:
        raise InvalidInputError("nearest_distance requires a non-empty context dataset")
    segs, _, owners = _segments_of(x)
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    px, py = _point_arrays(y)
    rows_out = []
    block = max(1, _PAIR_ELEMS // max(1, len(owners)))
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, len(y), block):
            bx = px[lo : lo + block, None]
            by = py[lo : lo + block, None]
            t = ((bx - ax) * dx + (by - ay) * dy) / dd
            t = np.where(dd == 0.0, 0.0, np.minimum(1.0, np.maximum(0.0, t)))
            cx = ax + t * dx
            cy = ay + t * dy
            d = np.sqrt((bx - cx) ** 2 + (by - cy) ** 2)
            nearest = np.argmin(d, axis=1)
            for i, j in enumerate(nearest):
                rows_out.append(
                    {
                        id_column: y.features[lo + i].id,
                        "distance": float(d[i, j]),
                        "nearest_feature_id": owners[j],
                    }
                )
    return ResultTable([id_column, "distance", "nearest_feature_id"], rows_out)
