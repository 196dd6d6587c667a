"""User-facing geospatial summarizers parallelized by the executor.

All four operations are pure functions from immutable inputs to a
ResultTable, built column by column, and compute each output row
independently of the others, which is what makes chunked execution
value-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import FeatureSet, ResultTable
from .errors import InvalidInputError, InvalidParameterError, UnsupportedGeometryError
from .geom import BBox
from .raster import (
    Raster,
    StatSpec,
    category_weights,
    cell_areas,
    cell_stat,
    covered_cells,
    ragged_arange,
    ring_edges,
    ring_neighbour,
    signed_ring_areas,
    window_for_bbox,
)

# cap on the per-batch temporaries of the coverage kernel and of the polygon
# clip, in array elements; larger blocks are no faster and only raise peak
# memory
_BATCH_ELEMS = 32_000
# cap on the target x source block of summarize_sedc, nearest_distance and
# the bbox mask of summarize_aw, in array elements
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


def freq_sort_key(column: str) -> tuple[bool, float]:
    """A frequency column's category, with NaN after every number."""
    c = float(column.removeprefix("freq_"))
    return math.isnan(c), c


def _freq_columns(freqs: list[dict[float, float]]) -> dict[str, list]:
    """The freq_* columns, sorted, of each row's {category: weight}; a row
    without a category reads 0.0 in its column."""
    cols: dict[str, list] = {}
    for i, freq in enumerate(freqs):
        for cat, wsum in freq.items():
            cols.setdefault(freq_column(cat), [0.0] * len(freqs))[i] = wsum
    return {c: cols[c] for c in sorted(cols, key=freq_sort_key)}


def _check_kind(kind: str, op: str, kinds: tuple[str, ...]):
    """Raise InvalidInputError unless `kind` is "empty" or one of `kinds`."""
    if kind != "empty" and kind not in kinds:
        want = " or ".join(f"{k} geometry" for k in kinds).replace("+", " and ")
        raise InvalidInputError(f"{op} requires {want}, got {kind.replace('+', ' and ')}")


# The geometry kinds each op accepts: of its anchors y, and of its context x
# where that is a FeatureSet (None: a raster context). The ops and the
# executor's check before any chunk runs both read it through check_kinds.
OP_KINDS = {
    "extract_at": (("point", "polygon"), None),
    "summarize_aw": (("polygon",), ("polygon",)),
    "summarize_sedc": (("point",), ("point",)),
    "nearest_distance": (("point",), ("point", "line", "point+line")),
}


def check_kinds(op: str, y: FeatureSet, x=None) -> str:
    """The geometry kind of the anchors y; raise InvalidInputError unless y,
    and x where it is a FeatureSet, is empty or of a kind `op` accepts."""
    y_kinds, x_kinds = OP_KINDS[op]
    kind = y.geometry_kind()
    if op == "extract_at" and kind == "line":
        raise UnsupportedGeometryError("extract_at does not support line inputs")
    _check_kind(kind, op, y_kinds)
    if x_kinds is not None and isinstance(x, FeatureSet):
        _check_kind(x.geometry_kind(), op, x_kinds)
    return kind


def _point_arrays(fs: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """x and y of a point set (one vertex per feature)."""
    px, py = np.ascontiguousarray(fs.coords.T)
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
                freqs[lo + i] = category_weights(vals[i, valid[i]], w[i, valid[i]])
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
    kind = check_kinds("extract_at", y)
    ids = list(y.ids())
    # a count is one column: the covered weight, 0.0 where no valid cell is covered
    value_cols = [] if stat.kind == "count" else [stat.kind]
    if kind == "empty":
        cols = ["value"] if radius == 0 else value_cols
        return ResultTable({id_column: [], **{c: [] for c in cols}, "count": []})

    if kind == "point" and radius == 0:
        px, py = _point_arrays(y)
        cs = x.cellsize
        col = np.floor((px - x.xll) / cs).astype(int)
        row = np.floor((x.ytop - py) / cs).astype(int)
        inb = (col >= 0) & (col < x.ncols) & (row >= 0) & (row < x.nrows)
        vals = x.values[np.clip(row, 0, x.nrows - 1), np.clip(col, 0, x.ncols - 1)]
        ok = inb & (vals != x.nodata)  # a NaN cell is a value
        value = [v if k else None for v, k in zip(vals.tolist(), ok.tolist())]
        return ResultTable({id_column: ids, "value": value, "count": ok.astype(float).tolist()})

    if kind == "point":
        px, py = _point_arrays(y)
        res, counts = _buffered_point_stats(x, px, py, radius, stat, segments)
        if stat.kind == "frequency":
            values = _freq_columns(res)
        else:
            values = {c: [None if math.isnan(v) else v for v in res.tolist()] for c in value_cols}
        return ResultTable({id_column: ids, **values, "count": counts.tolist()})

    # polygons
    if radius > 0:
        raise InvalidParameterError("buffered polygon extraction is not supported")
    wins = [window_for_bbox(x, BBox(*b)) for b in y.bounds().tolist()]
    results = []
    lo = 0
    while lo < len(wins):
        # the next polygons in file order whose windows, padded to the
        # largest, stay under the cap; a polygon over the cap runs alone
        hi, nr, nc = lo + 1, wins[lo].nrows_w, wins[lo].ncols_w
        while hi < len(wins):
            nr2, nc2 = max(nr, wins[hi].nrows_w), max(nc, wins[hi].ncols_w)
            if (hi - lo + 1) * nr2 * nc2 > _BATCH_ELEMS:
                break
            hi, nr, nc = hi + 1, nr2, nc2
        cells = covered_cells(x, y, np.arange(lo, hi), wins[lo:hi])
        results += [cell_stat(x, rows, cols, w, stat) for rows, cols, w in cells]
        lo = hi
    if stat.kind == "frequency":
        values = _freq_columns([sr.frequency or {} for sr in results])
    else:
        values = {c: [sr.value for sr in results] for c in value_cols}
    return ResultTable({id_column: ids, **values, "count": [sr.count for sr in results]})


# --- polygon/polygon intersection via trapezoid decomposition -----------


def _trapezoid_corners(
    polys: FeatureSet, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut polygons idx of polys (holes included, even-odd) into convex trapezoids.

    The slabs lie between consecutive distinct edge-end ys of a polygon; in
    each slab the edges that span it are sorted by their x at the middle,
    bottom and top of the slab, and ranks 0-1, 2-3, ... bound a trapezoid.
    Returns the position in idx of each trapezoid's polygon and its corners
    x, y as (n, 4) arrays, counterclockwise from the bottom left, by polygon,
    then slab, then left to right.
    """
    ax, ay, bx, by, owner = ring_edges(polys, idx)
    keep = ay != by
    ax, ay, bx, by, owner = ax[keep], ay[keep], bx[keep], by[keep], owner[keep]
    n = ay.size
    # the slab lines of each polygon, ascending; a stable sort keeps the
    # first of equal ys (0.0 and -0.0) as the one that stands for them all
    ends, end_poly = np.concatenate([ay, by]), np.concatenate([owner, owner])
    order = np.lexsort((ends, end_poly))
    ends, end_poly = ends[order], end_poly[order]
    new = np.ones(ends.size, dtype=bool)
    new[1:] = (ends[1:] != ends[:-1]) | (end_poly[1:] != end_poly[:-1])
    line = np.empty(ends.size, dtype=np.intp)
    line[order] = np.cumsum(new) - 1
    ys = ends[new]
    # one entry per (slab, edge spanning it), edges in ring order
    cnt = np.abs(line[n:] - line[:n])
    edge = np.repeat(np.arange(n), cnt)
    slab = np.minimum(line[:n], line[n:])[edge] + ragged_arange(cnt)
    y0, y1 = ys[slab], ys[slab + 1]
    ymid = 0.5 * (y0 + y1)
    ex, ey = ax[edge], ay[edge]
    slope = ((bx - ax) / (by - ay))[edge]
    xmid = ex + (ymid - ey) * slope
    x0 = ex + (y0 - ey) * slope
    x1 = ex + (y1 - ey) * slope
    order = np.lexsort((x1, x0, xmid, slab))
    slab, x0, x1, edge = slab[order], x0[order], x1[order], edge[order]
    rank = np.arange(slab.size) - np.searchsorted(slab, slab)
    left = np.nonzero((rank % 2 == 0) & np.append(slab[1:] == slab[:-1], False))[0]
    l0, l1, r0, r1 = x0[left], x1[left], x0[left + 1], x1[left + 1]
    # at a shared vertex rounding can put r one ulp left of l; a reversed
    # edge would make the convex clip drop the trapezoid
    r0 = np.where(l0 > r0, l0, r0)
    r1 = np.where(l1 > r1, l1, r1)
    y0, y1 = ys[slab[left]], ys[slab[left] + 1]
    return owner[edge[left]], np.stack([l0, r0, r1, l1], 1), np.stack([y0, y0, y1, y1], 1)


def _clip_convex(x, y, inst, cx, cy):
    """Sutherland-Hodgman clip of many rings against convex CCW quadrilaterals.

    Ring instance k is the vertices x, y where inst == k (contiguous, in ring
    order); its clip corners are cx[k], cy[k]. Per side, every vertex emits
    its crossing with the side when it and its predecessor lie on different
    sides, then itself when it is inside. A zero-length side puts every
    vertex inside and leaves the ring as it is.
    """
    for e in range(4):
        f = (e + 1) % 4
        ax, ay = cx[:, e][inst], cy[:, e][inst]
        ex, ey = (cx[:, f] - cx[:, e])[inst], (cy[:, f] - cy[:, e])[inst]
        d = ex * (y - ay) - ey * (x - ax)
        inside = d >= 0.0
        q = ring_neighbour(inst, len(cx), -1)
        cross = inside != inside[q]
        qc = q[cross]
        dc, dq = d[cross], d[qc]
        t = dq / (dq - dc)
        emit = cross + inside.astype(np.intp)
        at = np.cumsum(emit) - emit
        nx, ny = np.empty(int(emit.sum())), np.empty(int(emit.sum()))
        nx[at[cross]] = x[qc] + t * (x[cross] - x[qc])
        ny[at[cross]] = y[qc] + t * (y[cross] - y[qc])
        at = (at + cross)[inside]
        nx[at], ny[at] = x[inside], y[inside]
        x, y, inst = nx, ny, np.repeat(inst, emit)
    return x, y, inst


def _intersection_areas(
    tpolys: FeatureSet, spolys: FeatureSet, ti: np.ndarray, si: np.ndarray
) -> np.ndarray:
    """Intersection area of polygon ti[k] of tpolys and polygon si[k] of
    spolys for each pair k.

    Every ring of the source is clipped against every trapezoid of the
    target, and the signed shoelace areas are summed in (trapezoid, ring)
    order, so holes work. Work runs over blocks of pairs whose ring copies
    stay under _BATCH_ELEMS vertices; a pair over the cap runs alone.
    """
    if ti.size == 0:
        return np.zeros(0)
    tu, ti = np.unique(ti, return_inverse=True)
    towner, cx, cy = _trapezoid_corners(tpolys, tu)
    ntrap = np.bincount(towner, minlength=tu.size)
    trap0 = np.cumsum(ntrap) - ntrap
    x, y = spolys.coords[:, 0], spolys.coords[:, 1]
    vert0, ring_len = spolys.part_offsets[:-1], np.diff(spolys.part_offsets)
    ring0, nrings = spolys.feature_offsets[:-1], np.diff(spolys.feature_offsets)
    nverts = spolys.part_offsets[spolys.feature_offsets[1:]] - vert0[ring0]
    cum = np.cumsum(ntrap[ti] * nverts[si])
    total = np.zeros(ti.size)
    lo = 0
    while lo < ti.size:
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + _BATCH_ELEMS, side="right")))
        # instances: pair, then trapezoid, then ring
        ninst = ntrap[ti[lo:hi]] * nrings[si[lo:hi]]
        pair = np.repeat(np.arange(lo, hi), ninst)
        k = ragged_arange(ninst)
        trap = trap0[ti[pair]] + k // nrings[si[pair]]
        ring = ring0[si[pair]] + k % nrings[si[pair]]
        inst = np.repeat(np.arange(pair.size), ring_len[ring])
        vert = vert0[ring][inst] + ragged_arange(ring_len[ring])
        px, py, inst = _clip_convex(x[vert], y[vert], inst, cx[trap], cy[trap])
        nxt = ring_neighbour(inst, pair.size, 1)
        # np.bincount adds each bin's weights in input order, as a loop would
        twice = np.bincount(inst, weights=px * py[nxt] - px[nxt] * py, minlength=pair.size)
        ok = np.bincount(inst, minlength=pair.size) >= 3
        total[lo:hi] = np.bincount(pair[ok] - lo, weights=0.5 * twice[ok], minlength=hi - lo)
        lo = hi
    return np.where(0.0 > total, 0.0, total)


def _polygon_areas(polys: FeatureSet) -> np.ndarray:
    """Area of each polygon: |outer ring|, then each hole's |area| subtracted
    in turn. np.bincount adds each polygon's terms in ring order."""
    area = np.abs(signed_ring_areas(polys.coords, polys.part_offsets))
    outer = np.zeros(area.size, dtype=bool)
    outer[polys.feature_offsets[:-1]] = True
    owner = np.repeat(np.arange(len(polys)), np.diff(polys.feature_offsets))
    return np.bincount(owner, weights=np.where(outer, area, -area), minlength=len(polys))


def _same_rings(a: FeatureSet, i: int, b: FeatureSet, j: int) -> bool:
    """Whether polygon i of a and polygon j of b have equal rings, vertex for vertex."""
    (ca, pa, _), (cb, pb, _) = a.gather([i]), b.gather([j])
    return pa.shape == pb.shape and bool((pa == pb).all() and (ca == cb).all())


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
    check_kinds("summarize_aw", targets, sources)
    # a target over no source gets a null row
    tb, sb = targets.bounds(), sources.bounds()
    tarea, sarea = _polygon_areas(targets), _polygon_areas(sources)
    value_columns = list(dict.fromkeys(value_columns))  # one column each
    out = {id_column: list(targets.ids()), **{f"{c}_{stat}": [] for c in value_columns},
           "coverage": []}
    block = max(1, _PAIR_ELEMS // max(1, len(sources)))
    for lo in range(0, len(targets), block):
        t = tb[lo : lo + block, None, :]
        hit = ((sb[:, 2] >= t[..., 0]) & (sb[:, 0] <= t[..., 2])
               & (sb[:, 3] >= t[..., 1]) & (sb[:, 1] <= t[..., 3]))
        # row-major: target-major, each target's sources ascending
        ti, si = np.nonzero(hit)
        ti += lo
        same = np.all(tb[ti] == sb[si], axis=1)
        same[same] = [_same_rings(targets, i, sources, j)
                      for i, j in zip(ti[same].tolist(), si[same].tolist())]
        aij = np.empty(ti.size)
        aij[same] = tarea[ti[same]]
        aij[~same] = _intersection_areas(targets, sources, ti[~same], si[~same])
        keep = ~(aij <= 0.0)
        ti, si, aij = ti[keep] - lo, si[keep], aij[keep]
        # np.bincount adds each target's terms in pair order, as a loop would
        inter = np.bincount(ti, weights=aij, minlength=len(t)).tolist()
        if stat == "sum":
            aij = aij / sarea[si]
        for c in value_columns:
            weights = aij * sources.floats(c, si.tolist())
            num = np.bincount(ti, minlength=len(t), weights=weights).tolist()
            out[f"{c}_{stat}"] += [
                (n / total if stat == "mean" else n) if total > 0.0 else None
                for n, total in zip(num, inter)
            ]
        for total, area in zip(inter, tarea[lo : lo + block].tolist()):
            out["coverage"].append(total / area if area > 0 else 0.0)
    return ResultTable(out)


def summarize_sedc(
    targets: FeatureSet,
    sources: FeatureSet,
    params: SedcParams,
    id_column: str = "id",
) -> ResultTable:
    """Sum of exponentially decaying contributions from sources at targets."""
    check_kinds("summarize_sedc", targets, sources)
    value_columns = list(dict.fromkeys(params.value_columns))  # one column each
    sx, sy = _point_arrays(sources)
    tx, ty = _point_arrays(targets)
    svals = {c: sources.floats(c) for c in value_columns}
    out = {id_column: list(targets.ids()), **{f"{c}_sedc": [] for c in value_columns},
           "count": []}
    block = max(1, _PAIR_ELEMS // max(1, len(sources)))
    for lo in range(0, len(targets), block):
        d = np.sqrt((sx - tx[lo : lo + block, None]) ** 2 + (sy - ty[lo : lo + block, None]) ** 2)
        # row-major: each target's pairs are contiguous, its sources ascending
        ti, si = np.nonzero(d <= params.maxdist)
        w = np.exp(-3.0 * d[ti, si] / params.bandwidth)
        counts = np.bincount(ti, minlength=len(d))
        ends = np.cumsum(counts).tolist()
        slices = list(zip([0, *ends], ends))
        for c in value_columns:
            t = svals[c][si] * w
            # the sum of the target's own slice has the same bits as the sum
            # of its terms alone (np.add.reduceat rounds differently)
            out[f"{c}_sedc"] += [float(t[a:b].sum()) if b > a else 0.0 for a, b in slices]
        out["count"] += counts.tolist()
    return ResultTable(out)


def nearest_distance(
    y: FeatureSet,
    x: FeatureSet,
    id_column: str = "id",
) -> ResultTable:
    """Distance from each y point to the closest x feature (points or lines)."""
    check_kinds("nearest_distance", y, x)
    if len(x) == 0:
        raise InvalidInputError("nearest_distance requires a non-empty context dataset")
    segs, owners = x.segments()
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    px, py = _point_arrays(y)
    distance, nearest_id = [], []
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
            distance += d[np.arange(len(d)), nearest].tolist()
            nearest_id += [owners[j] for j in nearest.tolist()]
    return ResultTable(
        {id_column: list(y.ids()), "distance": distance, "nearest_feature_id": nearest_id}
    )
