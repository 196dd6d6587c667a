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


@dataclass(frozen=True)
class CellWindow:
    row0: int
    col0: int
    nrows_w: int
    ncols_w: int

    @property
    def empty(self) -> bool:
        return self.nrows_w == 0 or self.ncols_w == 0


@dataclass(frozen=True)
class StatSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in STAT_KINDS:
            raise InvalidParameterError(f"unknown statistic {self.kind!r}")


@dataclass
class StatResult:
    value: float | None = None
    count: float = 0.0
    frequency: dict[float, float] | None = None


EMPTY_WINDOW = CellWindow(0, 0, 0, 0)


def window_for_bbox(r: Raster, b: BBox) -> CellWindow:
    """Smallest window holding every cell whose rectangle overlaps b."""
    cs = r.cellsize
    col0 = int(np.floor((b.xmin - r.xll) / cs))
    col1 = int(np.ceil((b.xmax - r.xll) / cs)) - 1
    row0 = int(np.floor((r.ytop - b.ymax) / cs))
    row1 = int(np.ceil((r.ytop - b.ymin) / cs)) - 1
    col1 = min(col1, r.ncols - 1)
    row1 = min(row1, r.nrows - 1)
    col0 = max(col0, 0)
    row0 = max(row0, 0)
    if col0 > col1 or row0 > row1:
        return EMPTY_WINDOW
    return CellWindow(row0, col0, row1 - row0 + 1, col1 - col0 + 1)


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


def covered_cells(
    r: Raster, polys: FeatureSet, idx: np.ndarray, wins: list[CellWindow]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, cols, fractions) of the raster cells each polygon idx of polys
    covers.

    wins[k] is window_for_bbox of polygon idx[k]. Cells come in row-major order,
    fractions are capped at 1 and cells with zero coverage are omitted. One
    kernel call serves every polygon, each window padded to the largest.
    """
    none = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
    out = [none] * len(wins)
    live = [k for k, w in enumerate(wins) if not w.empty]
    if not live:
        return out
    cs = r.cellsize
    row0, col0, nrows, ncols = np.array(
        [(wins[k].row0, wins[k].col0, wins[k].nrows_w, wins[k].ncols_w) for k in live]
    ).T
    ax, ay, bx, by, owner = ring_edges(polys, np.asarray(idx, dtype=np.intp)[live])
    frac = cell_areas(ax, ay, bx, by, owner, r.xll + col0 * cs, r.ytop - row0 * cs, cs,
                      int(nrows.max()), ncols)
    for i, k in enumerate(live):
        f = frac[i, : nrows[i], : ncols[i]]
        rows, cols = np.nonzero(f > 0.0)
        out[k] = (rows + row0[i], cols + col0[i], np.minimum(f[rows, cols], 1.0))
    return out


def cell_stat(
    r: Raster, rows: np.ndarray, cols: np.ndarray, w: np.ndarray, spec: StatSpec
) -> StatResult:
    """Weighted statistic over cells (rows[i], cols[i]) covered by fraction
    w[i]; nodata cells are excluded.

    min/max consider any cell with positive fraction; stdev is the weighted
    population standard deviation sqrt(sum w (v-mu)^2 / sum w).
    """
    v = r.values[rows, cols]
    valid = v != r.nodata
    v = v[valid]
    w = w[valid]
    if v.size == 0:
        return StatResult(None, 0.0, {} if spec.kind == "frequency" else None)
    count = float(np.sum(w))
    kind = spec.kind
    if kind == "count":
        return StatResult(count, count)
    if kind == "sum":
        return StatResult(float(np.sum(w * v)), count)
    if kind == "mean":
        return StatResult(float(np.sum(w * v) / np.sum(w)), count)
    if kind == "min":
        return StatResult(float(np.min(v)), count)
    if kind == "max":
        return StatResult(float(np.max(v)), count)
    if kind == "stdev":
        mu = np.sum(w * v) / np.sum(w)
        return StatResult(float(np.sqrt(np.sum(w * (v - mu) ** 2) / np.sum(w))), count)
    # frequency
    return StatResult(None, count, category_weights(v, w))


def category_weights(v: np.ndarray, w: np.ndarray) -> dict[float, float]:
    """{category: summed weight} of cells of value v[i] and weight w[i],
    categories ascending; every NaN cell falls in one NaN category, last.
    np.bincount adds each category's weights in cell order, as a loop would."""
    cats, inv = np.unique(v, return_inverse=True)
    sums = np.bincount(inv.reshape(-1), weights=w, minlength=cats.size)
    return dict(zip(cats.tolist(), sums.tolist()))
