"""In-memory raster model, windowing, exact coverage fractions, zonal stats.

Cells are square. Row 0 is the top row; cell (row, col) spans
x in [xll + col*cs, xll + (col+1)*cs) and y in (ytop - (row+1)*cs, ytop - row*cs]
under the half-open point-lookup rule (left/top closed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameterError
from .geom import BBox

if TYPE_CHECKING:  # dataio imports this module
    from .dataio import FeatureSet

STAT_KINDS = ("mean", "sum", "count", "min", "max", "stdev", "frequency")


@dataclass
class Raster:
    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray  # shape (nrows, ncols), row 0 = top
    kind: str = "continuous"

    def __post_init__(self):
        for name in ("xll", "yll", "cellsize"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
        if self.cellsize <= 0:
            raise InvalidParameterError("cellsize must be > 0")
        if self.kind not in ("continuous", "categorical"):
            raise InvalidParameterError(f"unknown raster kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.nrows, self.ncols):
            raise InvalidParameterError(
                f"values shape {self.values.shape} != ({self.nrows}, {self.ncols})"
            )

    @property
    def xmax(self) -> float:
        return self.xll + self.ncols * self.cellsize

    @property
    def ytop(self) -> float:
        return self.yll + self.nrows * self.cellsize

    def extent(self) -> BBox:
        return BBox(self.xll, self.yll, self.xmax, self.ytop)


def cell_windows(r: Raster, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """row0, col0, nrows, ncols of the smallest window holding every cell
    whose rectangle overlaps each box (xmin, ymin, xmax, ymax) of bounds, one
    int array each; a box off the raster gets 0 rows and 0 columns at (0, 0)."""
    cs = r.cellsize
    xmin, ymin, xmax, ymax = bounds.T
    col0 = np.maximum(np.floor((xmin - r.xll) / cs), 0.0)
    row0 = np.maximum(np.floor((r.ytop - ymax) / cs), 0.0)
    ncols = np.minimum(np.ceil((xmax - r.xll) / cs), r.ncols) - col0
    nrows = np.minimum(np.ceil((r.ytop - ymin) / cs), r.nrows) - row0
    live = (ncols > 0.0) & (nrows > 0.0)
    return tuple(np.where(live, a, 0.0).astype(np.intp) for a in (row0, col0, nrows, ncols))


def ring_neighbour(ring: np.ndarray, nrings: int, step: int) -> np.ndarray:
    """Index of each vertex's predecessor (step -1) or successor (step 1) in
    its ring, for vertices in contiguous runs of ring index `ring`."""
    cnt = np.bincount(ring, minlength=nrings)
    first = (np.cumsum(cnt) - cnt)[ring]
    return first + (np.arange(ring.size) - first + step) % cnt[ring]


def _ring_index(part_offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ring of each vertex and the index of its successor in that ring."""
    nrings = part_offsets.size - 1
    ring = np.repeat(np.arange(nrings), np.diff(part_offsets))
    return ring, ring_neighbour(ring, nrings, 1)


def signed_ring_areas(coords: np.ndarray, part_offsets: np.ndarray) -> np.ndarray:
    """Shoelace area of each ring, positive counterclockwise. np.bincount adds
    each ring's terms in vertex order, as a loop over the ring would."""
    ring, nxt = _ring_index(part_offsets)
    x, y = coords[:, 0], coords[:, 1]
    twice = np.bincount(ring, weights=x * y[nxt] - x[nxt] * y, minlength=part_offsets.size - 1)
    return 0.5 * twice


def ring_edges(polys: FeatureSet, idx: np.ndarray):
    """Directed edges (ax, ay) -> (bx, by) of every ring of polygons idx of
    polys, holes included, and the position in idx of each edge's polygon."""
    coords, part_offsets, feature_offsets = polys.gather(idx)
    ring, nxt = _ring_index(part_offsets)
    owner = np.repeat(np.arange(len(idx)), np.diff(feature_offsets))[ring]
    x, y = coords[:, 0], coords[:, 1]
    return x, y, x[nxt], y[nxt], owner


def run_offsets(counts) -> np.ndarray:
    """0 and the running sum of counts: the offsets of consecutive runs."""
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def ragged_runs(starts, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1,
    concatenated, and the offsets of the runs in that concatenation."""
    offsets = run_offsets(counts)
    return np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], counts), offsets


def _line_crossings(a: np.ndarray, b: np.ndarray, first, last):
    """Integer lines first..last strictly between a and b, as (edge, line, t)."""
    lo = np.maximum(np.floor(np.minimum(a, b)) + 1.0, first)
    hi = np.minimum(np.ceil(np.maximum(a, b)) - 1.0, last)
    cnt = np.maximum(hi - lo + 1.0, 0.0).astype(np.intp)
    edge = np.repeat(np.arange(a.size), cnt)
    line, _ = ragged_runs(lo, cnt)
    t = (line - a[edge]) / (b[edge] - a[edge])
    return edge, line, t


def cell_areas(
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    win: np.ndarray,
    x0: np.ndarray,
    ytop: np.ndarray,
    cellsize: float,
    nrows: int,
    ncols,
) -> np.ndarray:
    """Exact covered area of every cell of a batch of windows.

    Edges (ax, ay) -> (bx, by) form closed rings, outer rings counterclockwise
    and holes clockwise; edge i belongs to window win[i], whose top-left
    corner is (x0[k], ytop[k]) and which has ncols[k] columns (an int gives
    every window the same count). Returns (len(x0), nrows, max(ncols)) signed
    areas in units of one cell, so a fully covered cell reads 1.0; columns
    and rows past a window's own are padding.

    Green's theorem per cell column: a CCW ring bounds area -sum(y dx). Each
    edge is split at every cell line it crosses, so every piece lies in one
    cell; a piece adds dx times its mean height above its row floor to its
    own cell and dx to every cell below it in the column. Work grows with
    vertices plus line crossings plus window cells, not with their product.
    Parts of a ring left or right of the
    window are dropped, parts above it count as full height, parts below it
    add nothing, so windows clamped to a raster stay exact. Padding gives a
    window no piece it did not have alone: the extra lines lie right of it or
    below it, so its cells have the same bits as in a call of its own.
    """
    nc = int(np.max(ncols))
    # window-local cell coordinates: u rightwards, h downwards from the top.
    # u is shifted by 1 << ncols[k].bit_length(), so every u inside window k
    # shares one binade: piece widths are exact differences whose column
    # sums cancel exactly, and cells outside every ring read 0. Equal
    # windows share one offset and skip the per-edge gathers.
    off = np.ldexp(1.0, np.frexp(ncols)[1])
    off = off[win] if np.ndim(off) else off
    u0 = (ax - x0[win]) / cellsize + off
    u1 = (bx - x0[win]) / cellsize + off
    h0 = (ytop[win] - ay) / cellsize
    h1 = (ytop[win] - by) / cellsize
    ev, kv, tv = _line_crossings(u0, u1, off, off + nc)
    eh, kh, th = _line_crossings(h0, h1, 0.0, float(nrows))
    ends = np.arange(u0.size)
    edge = np.concatenate([ends, ev, eh, ends])
    t = np.concatenate([np.zeros(u0.size), tv, th, np.ones(u0.size)])
    # crossings are snapped onto the line they cross
    u = np.concatenate([u0, kv, u0[eh] + th * (u1[eh] - u0[eh]), u1])
    h = np.concatenate([h0, h0[ev] + tv * (h1[ev] - h0[ev]), kh, h1])
    order = np.lexsort((t, edge))
    edge, u, h = edge[order], u[order], np.clip(h[order], 0.0, float(nrows))
    piece = edge[1:] == edge[:-1]
    edge = edge[:-1][piece]
    ua, ub = u[:-1][piece], u[1:][piece]
    hmid = 0.5 * (h[:-1][piece] + h[1:][piece])
    du = ub - ua
    col = np.floor(0.5 * (ua + ub) - (off[edge] if np.ndim(off) else off)).astype(np.intp)
    row = np.floor(hmid).astype(np.intp)
    keep = (du != 0.0) & (col >= 0) & (col < nc) & (row < nrows)
    du, col, row, hmid = du[keep], col[keep], row[keep], hmid[keep]
    flat = (win[edge[keep]] * nrows + row) * nc + col
    size = x0.size * nrows * nc
    shape = (x0.size, nrows, nc)
    own = np.bincount(flat, weights=du * (row + 1.0 - hmid), minlength=size).reshape(shape)
    below = np.bincount(flat, weights=du, minlength=size).reshape(shape)
    own[:, 1:] += np.cumsum(below, axis=1)[:, :-1]
    return -own


def covered_cells(r: Raster, polys: FeatureSet, cap: int) -> tuple[np.ndarray, ...]:
    """(owner, rows, cols, fractions) of the raster cells each polygon of
    polys covers, as flat arrays: owner is the polygon's index, cells come
    by polygon, then in row-major order, fractions are capped at 1 and cells
    with zero coverage are omitted.

    One kernel call serves each run of polygons in file order whose windows,
    padded to the largest, stay under cap cells; a polygon over the cap runs
    alone.
    """
    row0, col0, nrows, ncols = cell_windows(r, polys.bounds())
    cs, n = r.cellsize, len(polys)
    nr_of, nc_of = nrows.tolist(), ncols.tolist()
    parts = [(np.zeros(0, dtype=np.intp),) * 3 + (np.zeros(0),)]
    lo = 0
    while lo < n:
        hi, nr, nc = lo + 1, nr_of[lo], nc_of[lo]
        while hi < n:
            nr2, nc2 = max(nr, nr_of[hi]), max(nc, nc_of[hi])
            if (hi - lo + 1) * nr2 * nc2 > cap:
                break
            hi, nr, nc = hi + 1, nr2, nc2
        idx = lo + np.flatnonzero(nrows[lo:hi])
        lo = hi
        if not idx.size:
            continue
        ax, ay, bx, by, win = ring_edges(polys, idx)
        frac = cell_areas(ax, ay, bx, by, win, r.xll + col0[idx] * cs, r.ytop - row0[idx] * cs,
                          cs, nr, ncols[idx])
        # cells of the padding are not the window's own
        own = ((np.arange(nr)[:, None] < nrows[idx, None, None])
               & (np.arange(frac.shape[2]) < ncols[idx, None, None]))
        k, i, j = np.nonzero(own & (frac > 0.0))
        parts.append((idx[k], i + row0[idx][k], j + col0[idx][k], np.minimum(frac[k, i, j], 1.0)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def zonal_stats(v: np.ndarray, w: np.ndarray, stat: str) -> tuple[list, list[float]]:
    """The statistic `stat` of each row of cell values v weighted by w, both
    (features, cells), and each row's count, its summed weight.

    A cell of weight 0 does not count, whatever its value; a counted NaN
    cell makes the value nan. A row with no counted cell reads None. min/max
    take the counted values; stdev is the weighted population standard
    deviation sqrt(sum w (v-mu)^2 / sum w); frequency is category_sums'.
    Each row is one NumPy reduction along axis 1 over all its cells, so the
    caller's layout fixes the summation order: a (1, m) row has the bits of
    the 1-D reduction of its m cells.
    """
    counted = w > 0.0
    count = np.sum(w, axis=1)
    if v.shape[1] == 0:  # min and max have no identity
        return [None] * len(v), count.tolist()
    with np.errstate(invalid="ignore", divide="ignore"):
        if stat == "count":
            out = count
        elif stat == "min":
            out = np.min(np.where(counted, v, np.inf), axis=1)
        elif stat == "max":
            out = np.max(np.where(counted, v, -np.inf), axis=1)
        else:
            # -0.0 leaves any sum as it is: an uncounted cell adds nothing
            out = np.sum(np.where(counted, w * v, -0.0), axis=1)
            if stat != "sum":
                out = out / count
            if stat == "stdev":
                dev = np.where(counted, w * (v - out[:, None]) ** 2, -0.0)
                out = np.sqrt(np.sum(dev, axis=1) / count)
    count = count.tolist()
    return [x if n > 0.0 else None for x, n in zip(out.tolist(), count)], count


def category_sums(rows: np.ndarray, v: np.ndarray, w: np.ndarray, n: int):
    """The categories of the counted cells (w > 0), ascending, every NaN in
    one NaN category last, and the (n, categories) summed weight of each in
    each of n rows: a cell has row `rows`, value v and weight w, arrays of one
    shape. np.bincount adds each bin's weights in cell order, as a loop would."""
    counted = w > 0.0
    cats, inv = np.unique(v[counted], return_inverse=True)
    k = cats.size
    sums = np.bincount(rows[counted] * k + inv, weights=w[counted], minlength=n * k)
    return cats, sums.reshape(n, k)
