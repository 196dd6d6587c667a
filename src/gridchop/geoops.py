"""User-facing geospatial summarizers parallelized by the executor.

All four operations are pure functions from immutable inputs to a
ResultTable of value columns only, one row per anchor in anchor order (the
executor attaches ids at merge), and compute each output row independently
of the others, which is what makes chunked execution value-exact.

Every op first calls check_inputs, the one owner of the rules about an
op's inputs. It also builds the context's cache the op prunes by; a run
calls it once before any fork, so every chunk reads that cache.

A chunk passes an op the run's whole context, and the op prunes it to its
anchors' reach: one mask over the context's cached bounds() keeps the
features whose bbox meets the anchors' bbox grown by the op's reach (sedc's
maxdist, 0 for summarize_aw) plus a margin of rounding. The op's kernel then
runs on the kept features' coordinates and values, gathered by index in
ascending context order, so every sum adds the terms of an unpruned run in
their order. nearest_distance has no reach: it masks the bboxes of the
context's cached segments() by the anchors' bbox grown by half its larger
side, and searches once more, in a box bounded by the distances found,
every row not strictly nearer than that box's edge.
"""

from __future__ import annotations

import math
import numbers
from contextlib import suppress

import numpy as np

from .dataio import MISSING, FeatureSet, ResultTable
from .errors import InvalidInputError, InvalidParameterError, UnsupportedGeometryError
from .geom import BBox
from .raster import (
    STAT_KINDS,
    Raster,
    category_sums,
    cell_areas,
    covered_cells,
    ragged_runs,
    ring_edges,
    ring_neighbour,
    signed_ring_areas,
    zonal_stats,
)

# cap on the per-batch temporaries of the coverage kernel and of the polygon
# clip, in array elements; larger blocks are no faster and only raise peak
# memory
_BATCH_ELEMS = 32_000
# cap on the target x source block of summarize_sedc, nearest_distance and
# the bbox mask of summarize_aw, in array elements
_PAIR_ELEMS = 200_000


def _number(key: str, value) -> float:
    """value as a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise InvalidParameterError(f"{key} must be finite, got {value!r}")
    return number


def op_args(op: str, params: dict) -> dict:
    """The keyword arguments of `op` that a task's params give, checked.

    Only the keys `op` takes are read, and a key that is missing or None
    reads as its default (in brackets):
    - extract_at: stat, one of STAT_KINDS (mean); radius, a finite number
      >= 0 (0.0); segments, an integer >= 3 (64);
    - summarize_aw: value_columns, a list of column names (none); stat, mean
      or sum (mean);
    - summarize_sedc: bandwidth, a finite number > 0 (required); maxdist, a
      finite number >= bandwidth (twice the bandwidth); value_columns as
      above;
    - nearest_distance: none.
    A failure raises InvalidParameterError."""
    p = {k: v for k, v in params.items() if v is not None}
    names = p.get("value_columns", [])
    if op in ("summarize_aw", "summarize_sedc") and not (
            isinstance(names, (list, tuple)) and all(isinstance(c, str) for c in names)):
        raise InvalidParameterError(f"value_columns must be a list of column names, got {names!r}")
    if op == "summarize_sedc":
        if "bandwidth" not in p:
            raise InvalidParameterError("summarize_sedc requires a bandwidth")
        maxdist = _number("maxdist", p["maxdist"]) if "maxdist" in p else None
        bandwidth = _number("bandwidth", p["bandwidth"])
        if bandwidth <= 0:
            raise InvalidParameterError("bandwidth must be > 0")
        maxdist = 2.0 * bandwidth if maxdist is None else maxdist
        if maxdist < bandwidth:
            raise InvalidParameterError("maxdist must be >= bandwidth")
        return {"bandwidth": bandwidth, "maxdist": maxdist, "value_columns": list(names)}
    if op == "nearest_distance":
        return {}
    stat = p.get("stat", "mean")
    if op == "summarize_aw":
        if stat not in ("mean", "sum"):
            raise InvalidParameterError(f"summarize_aw stat must be mean or sum, got {stat!r}")
        return {"value_columns": list(names), "stat": stat}
    if stat not in STAT_KINDS:
        raise InvalidParameterError(f"unknown statistic {stat!r}")
    radius = _number("radius", p.get("radius", 0.0))
    if radius < 0:
        raise InvalidParameterError(f"radius must be >= 0, got {radius}")
    segments = p.get("segments", 64)
    if not isinstance(segments, numbers.Integral) or segments < 3:
        raise InvalidParameterError(f"segments must be an integer >= 3, got {segments!r}")
    return {"radius": radius, "stat": stat, "segments": int(segments)}


def freq_column(category: float) -> str:
    c = float(category)
    return f"freq_{int(c)}" if c.is_integer() else f"freq_{c!r}"


def freq_columns(columns) -> list[str]:
    """The columns freq_column names among `columns` (not freq_pop_sedc),
    by category, NaN after every number: the merge asks no one else."""
    cats = {}
    for col in columns:
        with suppress(ValueError):
            cats[col] = float(col.removeprefix("freq_"))
    return sorted((col for col, c in cats.items() if freq_column(c) == col),
                  key=lambda col: (math.isnan(cats[col]), cats[col]))


def _check_kind(kind: str, op: str, kinds: tuple[str, ...]):
    """Raise InvalidInputError unless `kind` is "empty" or one of `kinds`."""
    if kind != "empty" and kind not in kinds:
        want = " or ".join(f"{k} geometry" for k in kinds).replace("+", " and ")
        raise InvalidInputError(f"{op} requires {want}, got {kind.replace('+', ' and ')}")


# The geometry kinds each op accepts: of its anchors y, and of its context x
# where that is a FeatureSet (None: a raster context). The ops and the
# executor's check before any chunk runs both read it through check_inputs.
OP_KINDS = {
    "extract_at": (("point", "polygon"), None),
    "summarize_aw": (("polygon",), ("polygon",)),
    "summarize_sedc": (("point",), ("point",)),
    "nearest_distance": (("point",), ("point", "line", "point+line")),
}


def check_inputs(
    op: str, y: FeatureSet, x, params: dict | None = None, raster_kind: str | None = None
) -> tuple[dict, str, dict[str, np.ndarray]]:
    """The op's keyword arguments (op_args of params), the geometry kind of
    the anchors y, and float() of each value column of a FeatureSet context
    x as one float64 array per column, once every check below holds:
    - y is a FeatureSet, else InvalidParameterError;
    - params (a task's, or an op's own locals()) suit `op` (op_args), a
      frequency statistic has a categorical raster (x's kind where x is a
      Raster, else raster_kind) and a radius > 0 has no polygon anchors. A
      failure raises InvalidParameterError;
    - x is the context `op` takes: a Raster for extract_at (or, before a
      run loads it, a raster path, with the raster_kind the run loads it
      as), a FeatureSet for the other ops;
    - y, and x where it is a FeatureSet, is empty or of a kind `op` accepts;
    - a nearest_distance context x has a feature;
    - every feature of a non-empty context x has each value column, and
      float() takes each of its values (a CSV field's text, a GeoJSON
      number) without an error: an int too large for a float is one.
    Each input failure raises InvalidInputError. Each converted column is
    cached in x.value_arrays, and the cache the op prunes a non-empty x by
    is built (x.segments() for nearest_distance, else x.bounds()), so a
    later check of the same set (a chunk's, after the run's own, which runs
    before any fork) takes them from there: a FeatureSet is read-only once
    built."""
    if not isinstance(y, FeatureSet):
        raise InvalidParameterError("the anchor dataset must be a FeatureSet")
    args = op_args(op, params or {})
    y_kinds, x_kinds = OP_KINDS[op]
    kind = y.geometry_kind()
    if op == "extract_at" and kind == "line":
        raise UnsupportedGeometryError("extract_at does not support line inputs")
    _check_kind(kind, op, y_kinds)
    if op == "extract_at":
        if not (isinstance(x, Raster) or (isinstance(x, str) and raster_kind is not None)):
            raise InvalidInputError(f"{op} requires a Raster context, got {type(x).__name__}")
        categorical = (x.kind if isinstance(x, Raster) else raster_kind) == "categorical"
        if args["stat"] == "frequency" and not categorical:
            raise InvalidParameterError("frequency statistic requires a categorical raster")
        if kind == "polygon" and args["radius"] > 0:
            raise InvalidParameterError("buffered polygon extraction is not supported")
        return args, kind, {}
    if not isinstance(x, FeatureSet):
        raise InvalidInputError(f"{op} requires a FeatureSet context, got {type(x).__name__}")
    _check_kind(x.geometry_kind(), op, x_kinds)
    columns = dict.fromkeys(args.get("value_columns", ()))
    if len(x) == 0:
        if op == "nearest_distance":
            raise InvalidInputError("nearest_distance requires a non-empty context dataset")
        return args, kind, {c: np.zeros(0) for c in columns}
    if op == "nearest_distance":
        x.segments()
    else:
        x.bounds()
    for c in columns:
        if c in x.value_arrays:
            columns[c] = x.value_arrays[c]
            continue
        values = x.attributes.get(c)
        if values is None:
            raise InvalidInputError(f"{op}: no context feature has value column {c!r}")
        if MISSING in values:
            fid = x.ids()[values.index(MISSING)]
            raise InvalidInputError(f"{op}: context feature {fid!r} lacks value column {c!r}")
        rest = iter(values)
        try:
            columns[c] = np.fromiter(map(float, rest), np.float64, len(values))
        except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large
            i = len(values) - len(list(rest)) - 1  # the value float() rejected was the last taken
            raise InvalidInputError(f"{op}: context feature {x.ids()[i]!r} has value "
                                    f"{values[i]!r} in column {c!r}, not a number")
        x.value_arrays[c] = columns[c]
    return args, kind, columns


def _reach_box(bounds: np.ndarray, reach: float) -> tuple[BBox, float]:
    """The bbox of the boxes `bounds` (n > 0 rows of xmin, ymin, xmax, ymax)
    grown by reach plus a margin, and that margin: 8 eps x (largest
    coordinate + reach). The ops' own distances round, and so do the box's
    sums, each by an ulp or so of the numbers involved; the margin keeps in
    the box every feature an op could admit or find nearest."""
    lo, hi = bounds[:, :2].min(axis=0), bounds[:, 2:].max(axis=0)
    margin = 8 * np.finfo(float).eps * (float(np.abs(bounds).max()) + reach)
    return BBox(*lo.tolist(), *hi.tolist()).expand(reach + margin), margin


def _in_box(bounds: np.ndarray, box: BBox) -> np.ndarray:
    """Whether each of the boxes `bounds` (n, 4) meets `box`, edges touching."""
    keep = (bounds[:, 0] <= box.xmax) & (bounds[:, 2] >= box.xmin)
    keep &= (bounds[:, 1] <= box.ymax) & (bounds[:, 3] >= box.ymin)
    return keep


def _near(x: FeatureSet, y: FeatureSet, reach: float) -> np.ndarray:
    """The indices, ascending, of the features of context x within `reach`
    of the anchors y: those whose bbox meets _reach_box of y's. None of them
    for no anchors."""
    if not len(y):
        return np.zeros(0, dtype=np.intp)
    box, _ = _reach_box(y.bounds(), reach)
    return np.flatnonzero(_in_box(x.bounds(), box))


def _buffer_cells(r: Raster, px: np.ndarray, py: np.ndarray, radius: float, segments: int):
    """Values and weights (points, cells) of the window cells of each point's
    inscribed-polygon buffer, one batch of points at a time. A cell's weight
    is its covered fraction, 0 where the cell is uncovered, outside the
    raster or nodata. Each point's row depends only on that point and the
    raster, so results are independent of batch composition."""
    cs = r.cellsize
    theta = 2.0 * np.pi * np.arange(segments) / segments
    ux = np.cos(theta)
    uy = np.sin(theta)
    w_cells = int(np.ceil(2.0 * radius / cs)) + 1
    c_per_pt = w_cells * w_cells
    # per point the kernel sorts about 2V edge ends plus 4W line crossings
    # and accumulates W*W cells
    block = max(1, _BATCH_ELEMS // (2 * segments + 4 * w_cells + c_per_pt))
    for lo in range(0, px.size, block):
        hi = min(lo + block, px.size)
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
        yield vals, np.where(inb & (frac > 0.0) & (vals != r.nodata), frac, 0.0)


def extract_at(
    x: Raster,
    y: FeatureSet,
    radius: float = 0.0,
    stat: str = "mean",
    segments: int = 64,
) -> ResultTable:
    """Zonal statistics of raster x at features y (points or polygons).

    Points with radius 0 read the cell value under the point; with
    radius > 0 they are buffered into inscribed regular polygons, whose
    padded windows are reduced a batch at a time. Raw polygons are reduced
    one at a time over the valid cells they cover; buffered polygons and
    line inputs are rejected. Frequency writes a freq_column per category met,
    by category, 0.0 in rows without it (raster.category_sums); then count.
    """
    args, kind, _ = check_inputs("extract_at", y, x, locals())
    radius, stat, segments = args["radius"], args["stat"], args["segments"]
    if kind != "polygon" and radius == 0:
        px, py = np.ascontiguousarray(y.coords.T)
        cs = x.cellsize
        col = np.floor((px - x.xll) / cs).astype(int)
        row = np.floor((x.ytop - py) / cs).astype(int)
        inb = (col >= 0) & (col < x.ncols) & (row >= 0) & (row < x.nrows)
        vals = x.values[np.clip(row, 0, x.nrows - 1), np.clip(col, 0, x.ncols - 1)]
        ok = inb & (vals != x.nodata)  # a NaN cell is a value
        value = [v if k else None for v, k in zip(vals.tolist(), ok.tolist())]
        return ResultTable({"value": value, "count": ok.astype(float).tolist()})

    freq = stat == "frequency"
    if kind != "polygon":
        batches = _buffer_cells(x, *np.ascontiguousarray(y.coords.T), radius, segments)
        parts = []
    else:
        owner, rows, cols, w = covered_cells(x, y, _BATCH_ELEMS)
        v = x.values[rows, cols]
        valid = v != x.nodata
        owner, v, w = owner[valid], v[valid], w[valid]
        ends = np.cumsum(np.bincount(owner, minlength=len(y))).tolist()
        batches = ((v[None, a:b], w[None, a:b]) for a, b in zip([0, *ends], ends))
        # every polygon's cells at once, each batch of points in the loop
        parts = [(0, *category_sums(owner, v, w, len(y)))] if freq else []
    values, counts = [], []
    for cell_values, weights in batches:
        if freq and kind != "polygon":
            at = np.broadcast_to(np.arange(len(weights))[:, None], weights.shape)
            parts.append((len(counts), *category_sums(at, cell_values, weights, len(weights))))
        got, count = zonal_stats(cell_values, weights, "count" if freq else stat)
        values += got
        counts += count
    if not freq:
        return ResultTable({**({} if stat == "count" else {stat: values}), "count": counts})
    # each part's rows from its first row on, its columns put in the union's
    cats = np.unique(np.concatenate([np.zeros(0), *(c for _, c, _ in parts)]))
    sums = np.zeros((len(y), cats.size))
    for lo, c, s in parts:
        sums[lo : lo + len(s), np.searchsorted(cats, c)] = s
    columns = {freq_column(c): column for c, column in zip(cats.tolist(), sums.T.tolist())}
    return ResultTable({**columns, "count": counts})


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
    slab, _ = ragged_runs(np.minimum(line[:n], line[n:]), cnt)
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

    Every ring of the spolys polygon is clipped against every trapezoid of
    the tpolys polygon, and the signed shoelace areas are summed in
    (trapezoid, ring) order, so holes on either side work and either
    argument order gives the area of the intersection. Work runs over blocks
    of pairs whose ring copies stay under _BATCH_ELEMS vertices; a pair over
    the cap runs alone.
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
    cum = np.cumsum(ntrap[ti] * _vertex_counts(spolys)[si])
    total = np.zeros(ti.size)
    lo = 0
    while lo < ti.size:
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + _BATCH_ELEMS, side="right")))
        # instances: pair, then trapezoid, then ring
        ninst = ntrap[ti[lo:hi]] * nrings[si[lo:hi]]
        pair = np.repeat(np.arange(lo, hi), ninst)
        k, _ = ragged_runs(0, ninst)
        trap = trap0[ti[pair]] + k // nrings[si[pair]]
        ring = ring0[si[pair]] + k % nrings[si[pair]]
        inst = np.repeat(np.arange(pair.size), ring_len[ring])
        vert, _ = ragged_runs(vert0[ring], ring_len[ring])
        px, py, inst = _clip_convex(x[vert], y[vert], inst, cx[trap], cy[trap])
        nxt = ring_neighbour(inst, pair.size, 1)
        # np.bincount adds each bin's weights in input order, as a loop would
        twice = np.bincount(inst, weights=px * py[nxt] - px[nxt] * py, minlength=pair.size)
        ok = np.bincount(inst, minlength=pair.size) >= 3
        total[lo:hi] = np.bincount(pair[ok] - lo, weights=0.5 * twice[ok], minlength=hi - lo)
        lo = hi
    return np.where(0.0 > total, 0.0, total)


def _vertex_counts(polys: FeatureSet) -> np.ndarray:
    """The number of vertices of each polygon, every ring counted."""
    return np.diff(polys.part_offsets[polys.feature_offsets])


def _polygon_areas(polys: FeatureSet, idx: np.ndarray | None = None) -> np.ndarray:
    """Area of each polygon (of polygons idx, if given): |outer ring|, then
    each hole's |area| subtracted in turn. np.bincount adds each polygon's
    terms in ring order."""
    coords, part_offsets, feature_offsets = (
        (polys.coords, polys.part_offsets, polys.feature_offsets) if idx is None
        else polys.gather(idx))
    n = feature_offsets.size - 1
    area = np.abs(signed_ring_areas(coords, part_offsets))
    outer = np.zeros(area.size, dtype=bool)
    outer[feature_offsets[:-1]] = True
    owner = np.repeat(np.arange(n), np.diff(feature_offsets))
    return np.bincount(owner, weights=np.where(outer, area, -area), minlength=n)


def _same_rings(a: FeatureSet, i: int, b: FeatureSet, j: int) -> bool:
    """Whether polygon i of a and polygon j of b have equal rings, vertex for vertex."""
    (ca, pa, _), (cb, pb, _) = a.gather([i]), b.gather([j])
    return pa.shape == pb.shape and bool((pa == pb).all() and (ca == cb).all())


def summarize_aw(
    targets: FeatureSet,
    sources: FeatureSet,
    value_columns: list[str],
    stat: str = "mean",
) -> ResultTable:
    """Area-weighted polygon-to-polygon transfer.

    mean_j = sum_i a_ij v_i / sum_i a_ij; sum_j = sum_i v_i a_ij / area_i.
    Means are normalized by intersected area; the coverage column reports
    sum_i a_ij / area(target_j). Targets intersecting nothing yield null rows.
    a_ij of an identical pair is the target's area; otherwise the polygon of
    the pair with fewer vertices (the target on a tie) is cut into
    trapezoids and the other one's rings are clipped against them.
    """
    args, _, svals = check_inputs("summarize_aw", targets, sources, locals())
    stat = args["stat"]
    # a source must overlap its target; a target over no source gets a null row
    near = _near(sources, targets, 0.0)
    tb, sb = targets.bounds(), sources.bounds()[near]
    tarea, sarea = _polygon_areas(targets), _polygon_areas(sources, near)
    tverts, sverts = _vertex_counts(targets), _vertex_counts(sources)
    svals = {c: v[near] for c, v in svals.items()}
    out = {**{f"{c}_{stat}": [] for c in svals}, "coverage": []}
    block = max(1, _PAIR_ELEMS // max(1, near.size))
    for lo in range(0, len(targets), block):
        t = tb[lo : lo + block, None, :]
        hit = ((sb[:, 2] >= t[..., 0]) & (sb[:, 0] <= t[..., 2])
               & (sb[:, 3] >= t[..., 1]) & (sb[:, 1] <= t[..., 3]))
        # row-major: target-major, each target's sources ascending; sj
        # indexes the kept sources, si the whole context
        ti, sj = np.nonzero(hit)
        ti += lo
        si = near[sj]
        same = np.all(tb[ti] == sb[sj], axis=1)
        same[same] = [_same_rings(targets, i, sources, j)
                      for i, j in zip(ti[same].tolist(), si[same].tolist())]
        aij = np.empty(ti.size)
        aij[same] = tarea[ti[same]]
        flip = ~same & (sverts[si] < tverts[ti])
        rest = ~(same | flip)
        aij[flip] = _intersection_areas(sources, targets, si[flip], ti[flip])
        aij[rest] = _intersection_areas(targets, sources, ti[rest], si[rest])
        keep = ~(aij <= 0.0)
        ti, sj, aij = ti[keep] - lo, sj[keep], aij[keep]
        # np.bincount adds each target's terms in pair order, as a loop would
        inter = np.bincount(ti, weights=aij, minlength=len(t)).tolist()
        if stat == "sum":
            aij = aij / sarea[sj]
        for c, v in svals.items():
            num = np.bincount(ti, minlength=len(t), weights=aij * v[sj]).tolist()
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
    bandwidth: float,
    maxdist: float | None = None,
    value_columns: list[str] | tuple[str, ...] = (),
) -> ResultTable:
    """Sum of exponentially decaying contributions from sources at targets.

    A source at distance d adds its value times exp(-3 d / bandwidth), which
    is exp(-3) ~ 0.0498 at d = bandwidth; a source farther than maxdist
    (twice the bandwidth by default) adds nothing, a hard cutoff.
    """
    args, _, svals = check_inputs("summarize_sedc", targets, sources, locals())
    bandwidth, maxdist = args["bandwidth"], args["maxdist"]
    near = _near(sources, targets, maxdist)
    sx, sy = np.ascontiguousarray(sources.coords[near].T)
    svals = {c: v[near] for c, v in svals.items()}
    tx, ty = np.ascontiguousarray(targets.coords.T)
    out = {**{f"{c}_sedc": [] for c in svals}, "count": []}
    block = max(1, _PAIR_ELEMS // max(1, near.size))
    for lo in range(0, len(targets), block):
        # sqrt((sx - tx)**2 + (sy - ty)**2), the same operations in place
        d = sx - tx[lo : lo + block, None]
        d *= d
        dy = sy - ty[lo : lo + block, None]
        dy *= dy
        d += dy
        np.sqrt(d, out=d)
        # row-major: each target's pairs are contiguous, its sources ascending
        pair = np.flatnonzero(d <= maxdist)
        ti, si = np.divmod(pair, near.size)
        w = np.exp(-3.0 * d.ravel()[pair] / bandwidth)
        counts = np.bincount(ti, minlength=len(d))
        ends = np.cumsum(counts).tolist()
        slices = list(zip([0, *ends], ends))
        for c, v in svals.items():
            t = v[si] * w
            # the sum of the target's own slice has the same bits as the sum
            # of its terms alone (np.add.reduceat rounds differently)
            out[f"{c}_sedc"] += [float(t[a:b].sum()) if b > a else 0.0 for a, b in slices]
        out["count"] += counts.tolist()
    return ResultTable(out)


def _nearest_segments(px: np.ndarray, py: np.ndarray, segs: np.ndarray):
    """The distance from each point (px, py) to its nearest segment of segs
    (S, 4), S > 0, and that segment's row: the first of equal distances."""
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    dx = bx - ax
    dy = by - ay
    dd = dx * dx + dy * dy
    point = dd == 0.0
    distance, nearest = np.empty(px.size), np.empty(px.size, dtype=np.intp)
    block = max(1, _PAIR_ELEMS // len(segs))
    for lo in range(0, px.size, block):
        qx = px[lo : lo + block, None]
        qy = py[lo : lo + block, None]
        # each step in place, the operations of t = min(1, max(0, ((qx - ax)
        # * dx + (qy - ay) * dy) / dd)), 0 on a point, then of d =
        # sqrt((qx - (ax + t * dx))**2 + (qy - (ay + t * dy))**2)
        t = qx - ax
        t *= dx
        d = qy - ay
        d *= dy
        t += d
        with np.errstate(invalid="ignore", divide="ignore"):
            t /= dd
        np.maximum(0.0, t, out=t)
        np.minimum(1.0, t, out=t)
        t[:, point] = 0.0
        np.multiply(t, dy, out=d)
        d += ay
        np.subtract(qy, d, out=d)
        d *= d
        t *= dx
        t += ax
        np.subtract(qx, t, out=t)
        t *= t
        d += t
        np.sqrt(d, out=d)
        k = np.argmin(d, axis=1)
        nearest[lo : lo + block] = k
        distance[lo : lo + block] = d[np.arange(len(d)), k]
    return distance, nearest


def nearest_distance(y: FeatureSet, x: FeatureSet) -> ResultTable:
    """Distance from each y point to the closest x feature (points or lines).

    The segments searched first are those whose bbox meets y's bbox grown
    by half its larger side (an empty prune searches them all). A segment
    outside that box is at least as far from a point as the box's edge, so
    the rows not strictly nearer than the edge are searched once more, in
    their own bbox grown by the largest distance found for them: each
    distance found bounds its row's own, so every segment at least as near
    lies in that box. Segments stay in ascending order, so argmin takes the
    segment a search of the whole context takes."""
    check_inputs("nearest_distance", y, x)
    if not len(y):
        return ResultTable({"distance": [], "nearest_feature_id": []})
    segs, owners = x.segments()
    ax, ay, bx, by = segs.T
    # each segment's bbox, column by column as bounds() stores them
    sb = np.stack([np.minimum(ax, bx), np.minimum(ay, by), np.maximum(ax, bx),
                   np.maximum(ay, by)]).T
    px, py = np.ascontiguousarray(y.coords.T)
    b = y.bounds()
    box, margin = _reach_box(b, 0.5 * float((b[:, 2:].max(axis=0) - b[:, :2].min(axis=0)).max()))
    cand = np.flatnonzero(_in_box(sb, box))
    if not cand.size:
        distance, seg = _nearest_segments(px, py, segs)
    else:
        distance, k = _nearest_segments(px, py, segs[cand])
        seg = cand[k]
        edge = np.minimum.reduce([px - box.xmin, box.xmax - px, py - box.ymin, box.ymax - py])
        redo = np.flatnonzero(~(distance < edge - margin))
        if redo.size:
            box, _ = _reach_box(b[redo], float(distance[redo].max()))
            cand = np.flatnonzero(_in_box(sb, box))
            distance[redo], k = _nearest_segments(px[redo], py[redo], segs[cand])
            seg[redo] = cand[k]
    ids = x.ids()
    return ResultTable({"distance": distance.tolist(),
                        "nearest_feature_id": [ids[j] for j in owners[seg].tolist()]})
