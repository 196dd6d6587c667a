"""PartitionSet generation and anchor-feature assignment.

Each chunk is a core extent plus the ids of the anchors it owns; every
anchor is owned by exactly one chunk. All generators are deterministic:
identical inputs yield byte-identical PartitionSet JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataio import MISSING, FeatureSet
from .errors import InvalidInputError, InvalidParameterError
from .geom import BBox
from .raster import ring_edges

# cap on the anchor x edge block of the region test of group_by_hierarchy, in
# array elements
_PAIR_ELEMS = 200_000


@dataclass(frozen=True)
class GridSpec:
    mode: str  # grid | grid_quantile | grid_advanced | balanced
    nx: int = 1
    ny: int = 1
    nq: int = 1
    n_groups: int = 1
    min_features: int = 1

    def __post_init__(self):
        if self.mode not in ("grid", "grid_quantile", "grid_advanced", "balanced"):
            raise InvalidParameterError(f"unknown partition mode {self.mode!r}")


@dataclass
class Chunk:
    chunk_id: int
    core: BBox
    member_ids: list[str] = field(default_factory=list)


@dataclass
class PartitionSet:
    mode: str
    chunks: list[Chunk]


def _point_coords(points: FeatureSet) -> np.ndarray:
    if points.geometry_kind() != "point":
        raise InvalidInputError("operation requires point geometry")
    return points.coords


def _members(ids: list[str], label: np.ndarray, n: int) -> list[list[str]]:
    """The ids labelled 0 .. n-1, each list in file order."""
    order = np.argsort(label, kind="stable")
    splits = np.cumsum(np.bincount(label, minlength=n))[:-1]
    return [[ids[i] for i in rows.tolist()] for rows in np.split(order, splits)]


def _coords_bbox(coords: np.ndarray) -> BBox:
    """The bbox of an (n, 2) coordinate array."""
    return BBox(
        float(coords[:, 0].min()),
        float(coords[:, 1].min()),
        float(coords[:, 0].max()),
        float(coords[:, 1].max()),
    )


def _cell_labels(coords: np.ndarray, xe: list[float], ye: list[float]) -> np.ndarray:
    """Row-major cell of each point of the lattice of sorted edges xe, ye.

    Cells are half-open, [xe[i], xe[i + 1]) x [ye[j], ye[j + 1]), with the
    last column and row closed; a zero-width cell holds exact matches only.
    A point on repeated edges goes to the lowest cell that holds it. Every
    point must lie inside [xe[0], xe[-1]] x [ye[0], ye[-1]].
    """

    def axis(v: np.ndarray, edges: list[float]) -> np.ndarray:
        e = np.asarray(edges)
        k = np.searchsorted(e, v, side="left")  # the first edge >= v
        on_edge = e[np.minimum(k, e.size - 1)] == v
        # off an edge, or on the closing edge behind a cell that ends there
        return k - (~on_edge | ((v == e[-1]) & (k > 0)))

    return axis(coords[:, 1], ye) * (len(xe) - 1) + axis(coords[:, 0], xe)


def _cells_from_edges(
    xe: list[float], ye: list[float], mode: str, points: FeatureSet
) -> PartitionSet:
    """One cell per pair of adjacent edges, row-major from the minimum corner,
    holding the points that _cell_labels puts in it."""
    cores = [BBox(x0, y0, x1, y1) for y0, y1 in zip(ye, ye[1:]) for x0, x1 in zip(xe, xe[1:])]
    members = _members(points.ids(), _cell_labels(points.coords, xe, ye), len(cores))
    return PartitionSet(mode, [Chunk(cid, *cell) for cid, cell in enumerate(zip(cores, members))])


def _grid_edges(extent: BBox, nx: int, ny: int) -> tuple[list[float], list[float]]:
    """The x and y edges of nx*ny equal cells tiling extent."""
    if nx < 1 or ny < 1:
        raise InvalidParameterError("nx and ny must be >= 1")
    if extent.width <= 0 or extent.height <= 0:
        raise InvalidParameterError("degenerate extent")
    xe = [extent.xmin + extent.width * i / nx for i in range(nx + 1)]
    ye = [extent.ymin + extent.height * j / ny for j in range(ny + 1)]
    xe[-1] = extent.xmax
    ye[-1] = extent.ymax
    return xe, ye


def make_regular_grid(extent: BBox, nx: int, ny: int) -> PartitionSet:
    """nx*ny equal cells tiling extent, row-major from the minimum corner,
    with no members."""
    no_points = FeatureSet.from_columns([], np.zeros((0, 2)))
    return _cells_from_edges(*_grid_edges(extent, nx, ny), "grid", no_points)


def make_quantile_grid(points: FeatureSet, nq: int) -> PartitionSet:
    """Irregular lattice with breaks at i/nq coordinate quantiles per axis.

    Quantiles use linear interpolation between order statistics. Degenerate
    (zero-width) cells are collapsed by deduplicating equal breaks.
    """
    if nq < 1:
        raise InvalidParameterError("nq must be >= 1")
    if len(points) == 0:
        raise InvalidInputError("quantile grid needs at least one point")
    coords = _point_coords(points)
    qs = [i / nq for i in range(1, nq)]
    xe = [float(coords[:, 0].min())] + [float(np.quantile(coords[:, 0], q)) for q in qs]
    xe.append(float(coords[:, 0].max()))
    ye = [float(coords[:, 1].min())] + [float(np.quantile(coords[:, 1], q)) for q in qs]
    ye.append(float(coords[:, 1].max()))

    def dedupe(edges: list[float]) -> list[float]:
        out = [edges[0]]
        for e in edges[1:]:
            if e > out[-1]:
                out.append(e)
        return out

    xe, ye = dedupe(xe), dedupe(ye)
    # An axis where all points coincide keeps one degenerate interval so the
    # other axis's stripes survive; degenerate cores own exact matches only.
    if len(xe) < 2:
        xe = [xe[0], xe[0]]
    if len(ye) < 2:
        ye = [ye[0], ye[0]]
    return _cells_from_edges(xe, ye, "grid_quantile", points)


def _join_along(edges: list[tuple[float, int, int]], weights: list[int], cap: float):
    """One ascending scan of edges (weight, u, v) that joins the groups of u
    and v when they differ and both weigh less than cap. Returns the edges
    that joined two groups and the root of each node."""
    parent = list(range(len(weights)))
    weight = list(weights)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    joined = []
    for w, u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv and weight[ru] < cap and weight[rv] < cap:
            parent[ru] = rv
            weight[rv] += weight[ru]
            joined.append((w, u, v))
    return joined, [find(a) for a in range(len(weights))]


def _merge_cells(counts: list[int], nx: int, ny: int, min_features: int) -> list[list[int]]:
    """The cells of each merged group, groups ordered by their first cell.

    Rook-adjacency edges are weighted by the combined point count of their
    endpoints; Kruskal's MST takes them ascending, ties broken by (u, v).
    One ascending scan of the MST edges then merges two groups when both
    hold fewer than min_features points. That scan is already a fixpoint:
    it skips an edge only when its groups are one group or one of them is
    full, and groups only grow.
    """
    edges = []
    for j in range(ny):
        for i in range(nx):
            u = j * nx + i
            if i + 1 < nx:
                edges.append((float(counts[u] + counts[u + 1]), u, u + 1))
            if j + 1 < ny:
                edges.append((float(counts[u] + counts[u + nx]), u, u + nx))
    mst, _ = _join_along(sorted(edges), counts, math.inf)
    _, root = _join_along(mst, counts, min_features)
    groups: dict[int, list[int]] = {}  # in order of each group's first cell
    for cell, r in enumerate(root):
        groups.setdefault(r, []).append(cell)
    return list(groups.values())


def make_merged_grid(points: FeatureSet, nx: int, ny: int, min_features: int) -> PartitionSet:
    """Regular nx*ny grid over the points' extent, points labelled into cells
    by _cell_labels, sparse adjacent cells merged by _merge_cells. A chunk's
    core spans its cells' edges."""
    if min_features < 1:
        raise InvalidParameterError("min_features must be >= 1")
    if nx * ny < 2:
        raise InvalidParameterError("merged grid needs nx*ny >= 2")
    if len(points) == 0:
        raise InvalidInputError("merged grid needs at least one point")
    coords = _point_coords(points)
    extent = _coords_bbox(coords)
    if extent.width <= 0 or extent.height <= 0:
        raise InvalidInputError("merged grid needs a non-degenerate point extent")
    xe, ye = _grid_edges(extent, nx, ny)
    cell_of_point = _cell_labels(coords, xe, ye)
    counts = np.bincount(cell_of_point, minlength=nx * ny).tolist()
    groups = _merge_cells(counts, nx, ny, min_features)
    chunk_of_cell = np.empty(nx * ny, dtype=np.intp)
    for cid, cells in enumerate(groups):
        chunk_of_cell[cells] = cid
    members = _members(points.ids(), chunk_of_cell[cell_of_point], len(groups))
    chunks = []
    for cid, (cells, ids) in enumerate(zip(groups, members)):
        cols = [c % nx for c in cells]  # cells ascend, and so do their rows
        core = BBox(xe[min(cols)], ye[cells[0] // nx], xe[max(cols) + 1], ye[cells[-1] // nx + 1])
        chunks.append(Chunk(cid, core, ids))
    return PartitionSet("grid_advanced", chunks)


def make_balanced_groups(points: FeatureSet, n_groups: int) -> PartitionSet:
    """Equal-size spatially compact point groups (sizes differ by <= 1).

    Deterministic heuristic: farthest-point seeding from the point nearest
    the centroid, capacity-constrained greedy assignment ordered by distance
    to the nearest seed, then pairwise swap improvement over move-gain
    candidates (one best improving swap per round, capped rounds) minimizing
    total within-group sum of squared distances to group means.
    """
    coords = _point_coords(points)
    n = len(points)
    if n_groups < 1 or n_groups > n:
        raise InvalidParameterError(f"n_groups must be in [1, {n}], got {n_groups}")
    assign, _ = _swap_rounds(coords, _greedy_assignment(coords, n_groups), n_groups)
    return PartitionSet("balanced", [
        Chunk(g, _coords_bbox(coords[assign == g]), ids)
        for g, ids in enumerate(_members(points.ids(), assign, n_groups))
    ])


def _greedy_assignment(coords: np.ndarray, k: int) -> np.ndarray:
    """Group of each point: farthest-point seeds, then each point in order of
    its distance to the nearest seed takes the nearest seed with room left."""
    n = len(coords)
    centroid = coords.mean(axis=0)
    d0 = np.sum((coords - centroid) ** 2, axis=1)
    seeds = [int(np.argmin(d0))]
    mind = np.sum((coords - coords[seeds[0]]) ** 2, axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(mind))
        seeds.append(nxt)
        mind = np.minimum(mind, np.sum((coords - coords[nxt]) ** 2, axis=1))

    base, extra = divmod(n, k)
    capacity = np.array([base + 1 if g < extra else base for g in range(k)])
    dist_to_seed = np.sum(
        (coords[:, None, :] - coords[np.array(seeds)][None, :, :]) ** 2, axis=2
    )  # (n, k)
    order = np.lexsort((np.arange(n), dist_to_seed.min(axis=1)))
    assign = np.full(n, -1, dtype=int)
    remaining = capacity.copy()
    for i in order:
        d = dist_to_seed[i].copy()
        d[remaining == 0] = np.inf
        g = int(np.argmin(d))
        assign[i] = g
        remaining[g] -= 1
    return assign


def _swap_rounds(coords: np.ndarray, assign: np.ndarray, k: int) -> tuple[np.ndarray, list[float]]:
    """Improve assign (in place) by swaps; returns it and the within-group SSQ
    at the start of each round.

    With fixed group sizes, minimizing within-group SSQ is maximizing
    sum_g |S_g|^2 / n_g where S_g is the coordinate sum.
    """
    n = len(coords)
    sizes = np.bincount(assign, minlength=k).astype(float)
    sums = np.zeros((k, 2))
    np.add.at(sums, assign, coords)

    scale = float(np.abs(coords).max()) or 1.0
    tol = 1e-9 * scale * scale
    c2 = np.sum(coords * coords, axis=1)
    trace = []
    top = 16
    for _ in range(12 * k * k):
        means = sums / sizes[:, None]
        d2 = c2[:, None] - 2.0 * coords @ means.T + np.sum(means * means, axis=1)[None, :]
        trace.append(float(d2[np.arange(n), assign].sum()))
        # move gain of point i toward group g, against the current means;
        # exact swap deltas are evaluated only on the top candidates per
        # group pair, so each round is O(n k) instead of O(n^2)
        gain = d2[np.arange(n), assign][:, None] - d2
        best = (tol, -1, -1)
        for a in range(k):
            ia = np.nonzero(assign == a)[0]
            if not len(ia):
                continue
            for b in range(a + 1, k):
                ib = np.nonzero(assign == b)[0]
                if not len(ib):
                    continue
                ca = ia[np.argsort(-gain[ia, b], kind="stable")[:top]]
                cb = ib[np.argsort(-gain[ib, a], kind="stable")[:top]]
                # swapping i<-a with j<-b changes sum_g |S_g|^2/n_g by
                # (2 v.S_a + |v|^2)/n_a + (-2 v.S_b + |v|^2)/n_b, v = c_j - c_i
                v = coords[cb][None, :, :] - coords[ca][:, None, :]
                q = np.sum(v * v, axis=2)
                delta = (2.0 * (v @ sums[a]) + q) / sizes[a] + (
                    -2.0 * (v @ sums[b]) + q
                ) / sizes[b]
                pos = int(np.argmax(delta))
                if float(delta.flat[pos]) > best[0]:
                    best = (float(delta.flat[pos]), int(ca[pos // len(cb)]), int(cb[pos % len(cb)]))
        if best[1] < 0:
            break
        _, i, j = best
        a, b = int(assign[i]), int(assign[j])
        sums[a] += coords[j] - coords[i]
        sums[b] += coords[i] - coords[j]
        assign[i], assign[j] = b, a
    return assign, trace


def _in_polygon(points: np.ndarray, ax, ay, bx, by) -> np.ndarray:
    """Even-odd test of each point against the edges (ax, ay) -> (bx, by) of
    the rings of one polygon; a point on a ring counts as inside. Per point
    and edge, the float expressions of a scalar loop, over blocks of points."""
    xlo, xhi = np.minimum(ax, bx), np.maximum(ax, bx)
    ylo, yhi = np.minimum(ay, by), np.maximum(ay, by)
    inside = np.zeros(len(points), dtype=bool)
    block = max(1, _PAIR_ELEMS // ax.size)
    for lo in range(0, len(points), block):
        px, py = points[lo : lo + block, :1], points[lo : lo + block, 1:]
        on = (bx - ax) * (py - ay) - (by - ay) * (px - ax) == 0.0
        on &= (xlo <= px) & (px <= xhi) & (ylo <= py) & (py <= yhi)
        with np.errstate(divide="ignore", invalid="ignore"):  # horizontal edges never cross
            xcross = ax + (py - ay) * (bx - ax) / (by - ay)
        crossings = np.count_nonzero(((ay > py) != (by > py)) & (xcross > px), axis=1)
        inside[lo : lo + block] = on.any(axis=1) | (crossings % 2 == 1)
    return inside


def group_by_hierarchy(
    anchors: FeatureSet,
    key: str | None = None,
    regions: FeatureSet | None = None,
    regions_id: str | None = None,
) -> list[tuple[str, list[str]]]:
    """Group anchors by an attribute column, or by the first region polygon,
    in file order, that holds an anchor's first vertex (on a ring counts).
    A key is str() of the value as read: a CSV field's text as written
    (`007`, `07` and `7` are three groups), a GeoJSON value's str()."""
    if key is not None:
        values = anchors.attributes.get(key, [MISSING] * len(anchors))
        groups: dict[str, list[str]] = {}
        for fid, v in zip(anchors.ids(), values):
            if v is MISSING or v is None:
                raise InvalidInputError(f"feature {fid!r} missing hierarchy column {key!r}")
            groups.setdefault(str(v), []).append(fid)
        return sorted(groups.items())
    if regions is None or regions_id is None:
        raise InvalidParameterError("need either key or regions + regions_id")
    if regions.geometry_kind() != "polygon":
        raise InvalidInputError("regions must be polygons")
    values = regions.attributes.get(regions_id, [MISSING] * len(regions))
    region_keys = [str(rid if v is MISSING else v) for rid, v in zip(regions.ids(), values)]
    rep = anchors.coords[anchors.part_offsets[anchors.feature_offsets[:-1]]]  # first vertices
    region = np.full(len(anchors), -1)
    for r in range(len(regions)):
        ax, ay, bx, by, _ = ring_edges(regions, [r])
        # outside the y range of its rings, a point is on no ring and crosses none
        todo = np.nonzero((region < 0) & (ay.min() <= rep[:, 1]) & (rep[:, 1] <= ay.max()))[0]
        region[todo[_in_polygon(rep[todo], ax, ay, bx, by)]] = r
    groups = {k: [] for k in region_keys}
    unassigned: list[str] = []
    for fid, r in zip(anchors.ids(), region.tolist()):
        (unassigned if r < 0 else groups[region_keys[r]]).append(fid)
    out = list(groups.items())
    if unassigned:
        out.append(("UNASSIGNED", unassigned))
    return out


def build_partition(spec: GridSpec, points: FeatureSet) -> PartitionSet:
    """Dispatch a GridSpec to the matching generator; members always filled."""
    if spec.mode == "grid":
        xe, ye = _grid_edges(_coords_bbox(_point_coords(points)), spec.nx, spec.ny)
        return _cells_from_edges(xe, ye, "grid", points)
    if spec.mode == "grid_quantile":
        return make_quantile_grid(points, spec.nq)
    if spec.mode == "grid_advanced":
        return make_merged_grid(points, spec.nx, spec.ny, spec.min_features)
    return make_balanced_groups(points, spec.n_groups)
