"""Partition generators: tiling, quantiles, MST merging, balanced groups,
the one cell rule of the grid modes, hierarchy grouping."""

import json
import random

import numpy as np
import pytest

from gridchop import partition
from gridchop.dataio import Feature, FeatureSet, load_features, save_partitions
from gridchop.errors import InvalidInputError, InvalidParameterError
from gridchop.geom import BBox, Point, Polygon, Polyline, Ring
from gridchop.partition import (
    Chunk,
    GridSpec,
    PartitionSet,
    build_partition,
    group_by_hierarchy,
    make_balanced_groups,
    make_merged_grid,
    make_quantile_grid,
    make_regular_grid,
)
from conftest import random_star
from scalar_reference import assign_to_partition as assign_loop
from scalar_reference import group_by_regions, make_polygon, merge_cells_to_fixpoint


def point_set(coords, attrs=None):
    feats = []
    for i, (x, y) in enumerate(coords):
        a = dict(attrs[i]) if attrs else {}
        feats.append(Feature(f"p{i}", Point(float(x), float(y)), a))
    return FeatureSet(feats)


class TestRegularGrid:
    def test_4x2_unit_cells(self):
        parts = make_regular_grid(BBox(0, 0, 4, 2), 4, 2)
        assert len(parts.chunks) == 8
        # row-major from the minimum corner
        assert parts.chunks[0].core == BBox(0, 0, 1, 1)
        assert parts.chunks[3].core == BBox(3, 0, 4, 1)
        assert parts.chunks[4].core == BBox(0, 1, 1, 2)
        for c in parts.chunks:
            assert c.core.width == 1.0 and c.core.height == 1.0

    def test_tiling_exactness(self):
        ext = BBox(-3.7, 1.1, 12.9, 8.3)
        parts = make_regular_grid(ext, 7, 5)
        xs = sorted({c.core.xmin for c in parts.chunks} | {c.core.xmax for c in parts.chunks})
        ys = sorted({c.core.ymin for c in parts.chunks} | {c.core.ymax for c in parts.chunks})
        assert xs[0] == ext.xmin and xs[-1] == ext.xmax
        assert ys[0] == ext.ymin and ys[-1] == ext.ymax
        # cells abut exactly: every interior edge is shared
        area = sum(c.core.width * c.core.height for c in parts.chunks)
        assert area == pytest.approx(ext.width * ext.height, rel=1e-12)

    def test_single_chunk_identity(self):
        ext = BBox(0, 0, 5, 5)
        parts = make_regular_grid(ext, 1, 1)
        assert len(parts.chunks) == 1
        assert parts.chunks[0].core == ext

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            make_regular_grid(BBox(0, 0, 1, 1), 0, 1)
        with pytest.raises(InvalidParameterError):
            make_regular_grid(BBox(0, 0, 0, 1), 1, 1)


class TestQuantileGrid:
    def test_median_break(self):
        pts = point_set([(0, 0), (1, 0), (2, 0), (3, 0)])
        parts = make_quantile_grid(pts, 2)
        # same y for all points: y-axis collapses, two x-columns remain
        assert len(parts.chunks) == 2
        xmaxes = sorted(c.core.xmax for c in parts.chunks)
        assert xmaxes[0] == pytest.approx(1.5)  # linear-interpolation median
        sizes = sorted(len(c.member_ids) for c in parts.chunks)
        assert sizes == [2, 2]

    def test_nq1_single_chunk(self):
        pts = point_set([(0, 0), (2, 3), (5, 1)])
        parts = make_quantile_grid(pts, 1)
        assert len(parts.chunks) == 1
        assert parts.chunks[0].core == BBox(0, 0, 5, 3)
        assert len(parts.chunks[0].member_ids) == 3

    def test_identical_points_collapse(self):
        pts = point_set([(2, 2)] * 5)
        parts = make_quantile_grid(pts, 3)
        assert len(parts.chunks) == 1
        assert len(parts.chunks[0].member_ids) == 5

    def test_stripe_balance(self):
        # distinct coordinates: stripes hold n/nq +- 1 points per axis
        rng = random.Random(99)
        n, nq = 200, 4
        pts = point_set([(rng.random(), rng.random()) for _ in range(n)])
        parts = make_quantile_grid(pts, nq)
        coords = {f.id: f.geometry for f in pts.features}
        xe = sorted({c.core.xmin for c in parts.chunks} | {c.core.xmax for c in parts.chunks})
        for lo, hi in zip(xe, xe[1:]):
            last = hi == xe[-1]
            cnt = sum(
                1 for g in coords.values() if lo <= g.x < hi or (last and g.x == hi)
            )
            assert abs(cnt - n / nq) <= 1

    def test_empty_input(self):
        with pytest.raises(InvalidInputError):
            make_quantile_grid(FeatureSet([]), 2)


class TestMergedGrid:
    def test_two_sparse_cells_merge(self):
        # 2x2 grid, counts [1, 1, 100, 100] bottom row sparse
        coords = [(0.5, 0.5), (1.5, 0.5)]
        coords += [(0.5 + 0.001 * i, 1.5) for i in range(100)]
        coords += [(1.5 + 0.001 * i, 1.75) for i in range(100)]
        # pin the extent corners into the sparse cells
        coords[0] = (0.0, 0.0)
        pts = point_set(coords + [(2.0, 2.0)])
        parts = make_merged_grid(pts, 2, 2, 5)
        assert len(parts.chunks) == 3
        sizes = sorted(len(c.member_ids) for c in parts.chunks)
        assert sizes[0] == 2  # the two sparse cells became one chunk
        assert sum(sizes) == len(pts)

    def test_no_merge_when_all_dense(self):
        rng = random.Random(3)
        coords = []
        for cx in (0.5, 1.5):
            for cy in (0.5, 1.5):
                coords += [
                    (cx + rng.uniform(-0.4, 0.4), cy + rng.uniform(-0.4, 0.4))
                    for _ in range(10)
                ]
        coords += [(0.0, 0.0), (2.0, 2.0)]
        pts = point_set(coords)
        parts = make_merged_grid(pts, 2, 2, 5)
        assert len(parts.chunks) == 4

    def test_empty_cells_absorbed(self):
        # one populated cell in a 3x3 grid: empty cells merge away
        pts = point_set([(0.0, 0.0), (3.0, 3.0), (0.1, 0.1), (0.2, 0.05)])
        parts = make_merged_grid(pts, 3, 3, 2)
        assert len(parts.chunks) <= 2
        assert sum(len(c.member_ids) for c in parts.chunks) == 4

    def test_fixpoint_condition(self):
        # after merging, no rook-adjacent pair of chunks is both sub-threshold
        rng = random.Random(17)
        pts = point_set([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(60)])
        parts = make_merged_grid(pts, 4, 4, 6)
        small = [c for c in parts.chunks if len(c.member_ids) < 6]
        for a in small:
            for b in small:
                if a.chunk_id >= b.chunk_id:
                    continue
                # rook adjacency between unions of grid cells = bboxes abut
                touch_x = a.core.xmax == b.core.xmin or b.core.xmax == a.core.xmin
                touch_y = a.core.ymax == b.core.ymin or b.core.ymax == a.core.ymin
                overlap_y = a.core.ymin < b.core.ymax and b.core.ymin < a.core.ymax
                overlap_x = a.core.xmin < b.core.xmax and b.core.xmin < a.core.xmax
                assert not ((touch_x and overlap_y) or (touch_y and overlap_x))

    def test_count_conservation(self):
        rng = random.Random(5)
        pts = point_set([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(73)])
        parts = make_merged_grid(pts, 3, 4, 10)
        ids = [m for c in parts.chunks for m in c.member_ids]
        assert sorted(ids) == sorted(pts.ids())


    @pytest.mark.parametrize("seed", range(6))
    def test_members_follow_their_cells_in_file_order(self, seed):
        # clustered points leave empty cells; each point must be listed by
        # the chunk that holds its grid cell, each chunk in file order
        rng = np.random.default_rng(seed)
        nx, ny = (int(v) for v in rng.integers(4, 9, 2))
        centers = rng.uniform(0, 10, (3, 2))
        xy = centers[rng.integers(0, 3, 300)] + rng.normal(0, 0.6, (300, 2))
        pts = point_set(xy)
        parts = make_merged_grid(pts, nx, ny, int(rng.integers(1, 60)))

        cells = assign_loop(pts, make_regular_grid(_bbox(xy), nx, ny)).chunks
        cell = {fid: c.chunk_id for c in cells for fid in c.member_ids}
        assert min(len(c.member_ids) for c in cells) == 0

        chunk_of_cell = {}
        for c in parts.chunks:
            for fid in c.member_ids:
                assert chunk_of_cell.setdefault(cell[fid], c.chunk_id) == c.chunk_id
                core = cells[cell[fid]].core
                assert c.core.xmin < (core.xmin + core.xmax) / 2 < c.core.xmax
                assert c.core.ymin < (core.ymin + core.ymax) / 2 < c.core.ymax
        want = {c.chunk_id: [] for c in parts.chunks}
        for fid in pts.ids():
            want[chunk_of_cell[cell[fid]]].append(fid)
        assert {c.chunk_id: c.member_ids for c in parts.chunks} == want


class TestBalancedGroups:
    def test_collinear_split(self):
        pts = point_set([(0, 0), (1, 0), (10, 0), (11, 0)])
        parts = make_balanced_groups(pts, 2)
        groups = [set(c.member_ids) for c in parts.chunks]
        assert {"p0", "p1"} in groups and {"p2", "p3"} in groups

    def test_k1_and_kn(self):
        pts = point_set([(0, 0), (1, 2), (3, 1)])
        assert len(make_balanced_groups(pts, 1).chunks) == 1
        parts = make_balanced_groups(pts, 3)
        assert sorted(len(c.member_ids) for c in parts.chunks) == [1, 1, 1]

    def test_sizes_differ_by_at_most_one(self):
        rng = random.Random(11)
        pts = point_set([(rng.random(), rng.random()) for _ in range(23)])
        parts = make_balanced_groups(pts, 5)
        sizes = sorted(len(c.member_ids) for c in parts.chunks)
        assert sizes == [4, 4, 5, 5, 5]

    def test_invalid_k(self):
        pts = point_set([(0, 0), (1, 1)])
        with pytest.raises(InvalidParameterError):
            make_balanced_groups(pts, 3)
        with pytest.raises(InvalidParameterError):
            make_balanced_groups(pts, 0)


def grid(coords, nx, ny):
    return build_partition(GridSpec("grid", nx=nx, ny=ny), point_set(coords))


def reference_members(pts, spec, parts):
    """The member lists the scalar loops give for the cores of parts: the
    reference assignment over those cores, and for a merged grid the
    reference assignment over its regular cells, merged as the fixpoint
    loop merges them."""
    if spec.mode != "grid_advanced":
        cores = PartitionSet(parts.mode, [Chunk(c.chunk_id, c.core) for c in parts.chunks])
        return [c.member_ids for c in assign_loop(pts, cores).chunks]
    cells = assign_loop(pts, make_regular_grid(_bbox(pts.coords), spec.nx, spec.ny)).chunks
    groups = merge_cells_to_fixpoint([len(c.member_ids) for c in cells], spec.nx, spec.ny,
                                     spec.min_features)
    for chunk, group in zip(parts.chunks, groups):
        boxes = [cells[k].core for k in group]
        assert chunk.core == BBox(min(b.xmin for b in boxes), min(b.ymin for b in boxes),
                                  max(b.xmax for b in boxes), max(b.ymax for b in boxes))
    order = {fid: i for i, fid in enumerate(pts.ids())}
    return [sorted((m for k in g for m in cells[k].member_ids), key=order.get) for g in groups]


def _bbox(xy):
    return BBox(*xy.min(axis=0).tolist(), *xy.max(axis=0).tolist())


class TestAssignToPartition:
    """Every grid mode labels points by one cell rule: cells are half-open,
    the last row and column closed, and on repeated edges the lowest cell
    wins. The extent is the points' bbox, pinned here by corner points."""

    def test_interior_point(self):
        out = grid([(2.5, 1.5), (0, 0), (4, 2)], 4, 2)
        assert [c.chunk_id for c in out.chunks if "p0" in c.member_ids] == [6]

    def test_shared_edge_half_open(self):
        out = grid([(1.0, 0.5), (0, 0), (2, 1)], 2, 1)
        # x=1 opens the right cell's interval
        assert out.chunks[0].member_ids == ["p1"]
        assert out.chunks[1].member_ids == ["p0", "p2"]

    def test_global_max_edge_closed(self):
        out = grid([(0, 0), (2.0, 1.0)], 2, 1)
        assert out.chunks[1].member_ids == ["p1"]

    def test_disjoint_and_exhaustive(self):
        rng = random.Random(1234)
        out = grid([(rng.uniform(0, 4), rng.uniform(0, 2)) for _ in range(1000)], 4, 2)
        ids = [m for c in out.chunks for m in c.member_ids]
        assert len(ids) == 1000
        assert len(set(ids)) == 1000

    def test_edge_point_same_chunk_in_every_mode(self):
        # cell 3's core starts at 0.030000000000000006, so x = 0.03 lies in cell 2
        pts = point_set([(i / 100, 0.0) for i in range(6)] + [(0.0, 1.0)])
        for spec in (GridSpec("grid", nx=5, ny=1),
                     GridSpec("grid_advanced", nx=5, ny=1, min_features=1)):
            parts = build_partition(spec, pts)
            assert parts.chunks[2].member_ids == ["p2", "p3"], spec.mode
            assert parts.chunks[3].core.xmin == 0.030000000000000006

    @pytest.mark.parametrize("case", ["lattice", "degenerate", "coincident", "clustered"])
    def test_matches_reference_loop(self, case):
        rng = np.random.default_rng(7)
        specs = [GridSpec("grid", nx=5, ny=3), GridSpec("grid", nx=10, ny=7),
                 GridSpec("grid_quantile", nq=4), GridSpec("grid_quantile", nq=9),
                 GridSpec("grid_advanced", nx=5, ny=3, min_features=1),
                 GridSpec("grid_advanced", nx=10, ny=7, min_features=6)]
        if case == "lattice":
            # points on a 0.01 lattice lie on the cell edges of every mode;
            # the cell widths are not exact, so edges fall off the lattice too
            coords = [(i / 100, j / 100) for i in range(21) for j in range(15)]
        elif case == "degenerate":
            # one y: the quantile grid keeps one zero-height row of exact matches
            coords = [(x, 2.0) for x in [0, 0, 1, 1, 1, 2, 5, 5, 8]]
            specs = [s for s in specs if s.mode == "grid_quantile"]
        elif case == "coincident":
            # doubles near 1e16 are 2 apart, so equal-width cell edges repeat
            coords = [(1e16 + 2 * i, j) for i in range(5) for j in range(4)]
        else:
            centres = rng.uniform(0, 10, (3, 2))
            coords = (centres[rng.integers(0, 3, 300)] + rng.normal(0, 0.6, (300, 2))).tolist()
        pts = point_set(coords)
        xy = dict(zip(pts.ids(), pts.coords.tolist()))
        for spec in specs:
            parts = build_partition(spec, pts)
            got = [c.member_ids for c in parts.chunks]
            assert got == reference_members(pts, spec, parts), spec
            assert sum(map(len, got)) == len(coords)
            for c in parts.chunks:
                for x, y in map(xy.get, c.member_ids):
                    assert c.core.xmin <= x <= c.core.xmax and c.core.ymin <= y <= c.core.ymax

    def test_coincident_edges_lowest_cell(self):
        # extent [1e16, 1e16 + 8] in 10 columns: the edges round to 1e16 + 2k,
        # repeated; a point on one goes to the lowest cell that holds it
        parts = grid([(1e16 + 2 * i, 0.0) for i in range(5)] + [(1e16, 1.0)], 10, 1)
        cols = [c for c in parts.chunks if c.member_ids]
        assert [(c.core.xmin, c.core.xmax) for c in cols] == [
            (1e16, 1e16), (1e16 + 2, 1e16 + 2), (1e16 + 4, 1e16 + 4),
            (1e16 + 6, 1e16 + 6), (1e16 + 6, 1e16 + 8)]


class TestMergeCells:
    def test_one_pass_equals_fixpoint_loop(self):
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            nx, ny = (int(v) for v in rng.integers(1, 9, 2))
            counts = rng.integers(0, 30, nx * ny)
            counts[rng.random(nx * ny) < 0.4] = 0
            counts = counts.tolist()
            m = int(rng.choice([1, 2, 5, 20, 60, 1000]))
            want = merge_cells_to_fixpoint(counts, nx, ny, m)
            assert partition._merge_cells(counts, nx, ny, m) == want, (nx, ny, counts, m)


class TestHierarchy:
    def test_attribute_groups(self):
        pts = point_set(
            [(0, 0), (1, 0), (2, 0)],
            attrs=[{"county": "37001"}, {"county": "37001"}, {"county": "37003"}],
        )
        groups = group_by_hierarchy(pts, key="county")
        assert groups == [("37001", ["p0", "p1"]), ("37003", ["p2"])]

    def test_missing_key_raises(self):
        pts = point_set([(0, 0)], attrs=[{}])
        with pytest.raises(InvalidInputError, match="p0"):
            group_by_hierarchy(pts, key="county")

    def test_region_containment(self):
        big = make_polygon([[Point(-1, -1), Point(5, -1), Point(5, 5), Point(-1, 5)]])
        regions = FeatureSet([Feature("r1", big, {"ST": "37"})])
        pts = point_set([(0, 0), (1, 1)])
        groups = group_by_hierarchy(pts, regions=regions, regions_id="ST")
        assert groups == [("37", ["p0", "p1"])]

    def test_keys_are_the_text_as_written(self, tmp_path):
        # a CSV value is its field's text, and a group key is that text: once
        # values parsed to int or float first, and 12, +12 and 1e2 read 12,
        # 12 and 100.0
        p = tmp_path / "pts.csv"
        p.write_text("id,x,y,k\na,0,0,12\nb,1,0,12.0\nc,2,0,1e2\nd,3,0,12\ne,4,0,x1\n"
                     "f,5,0,+12\ng,6,0,012\n")
        groups = group_by_hierarchy(load_features(str(p)), key="k")
        assert groups == [("+12", ["f"]), ("012", ["g"]), ("12", ["a", "d"]), ("12.0", ["b"]),
                          ("1e2", ["c"]), ("x1", ["e"])]

    @staticmethod
    def _regions(rng):
        """Overlapping random stars, most with a hole, and a grid of unit
        squares whose shared edges and corners belong to two to four of them;
        a repeated key and keys read from the feature id when a region lacks
        the column."""
        feats = []
        for k in range(8):
            cx, cy = rng.uniform(2.0, 6.0, 2).tolist()
            rings = [random_star(rng, cx, cy, 2.5, int(rng.integers(8, 20)))]
            if k % 4:  # 8+ sectors of radius >= 1.0 keep the outer ring clear of the hole
                rings.append(random_star(rng, cx, cy, 0.6, int(rng.integers(3, 9))))
            feats.append(Feature(f"s{k}", make_polygon(rings), {"name": f"n{k % 7}"}))
        for i in range(4):
            for j in range(4):
                sq = [Point(i, j), Point(i + 1, j), Point(i + 1, j + 1), Point(i, j + 1)]
                feats.append(Feature(f"q{i}{j}", make_polygon([sq])))
        return FeatureSet(feats)

    @staticmethod
    def _anchor_points(regions, rng):
        """Every region vertex, the middle of every edge (on the edge exactly
        for the squares), and random points inside and far outside."""
        pts = []
        for f in regions.features:
            for ring in [f.geometry.outer, *f.geometry.holes]:
                verts = ring.vertices
                pts += [(v.x, v.y) for v in verts]
                pts += [(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
                        for a, b in zip(verts, verts[1:] + verts[:1])]
        pts += rng.uniform(-1.0, 9.0, (300, 2)).tolist()
        return pts

    @pytest.mark.parametrize("block", [None, 500])
    @pytest.mark.parametrize("kind", ["point", "line", "polygon"])
    def test_regions_match_scalar_point_in_polygon(self, kind, block, monkeypatch):
        # a line or polygon anchor is placed by its first vertex
        if block is not None:
            monkeypatch.setattr(partition, "_PAIR_ELEMS", block)
        rng = np.random.default_rng(20261018)
        regions = self._regions(rng)
        feats = []
        for i, (x, y) in enumerate(self._anchor_points(regions, rng)):
            if kind == "point":
                g = Point(x, y)
            elif kind == "line":
                g = Polyline([Point(x, y), Point(x + 0.3, y - 0.2)])
            else:
                g = Polygon(Ring([Point(x, y), Point(x + 0.1, y), Point(x, y + 0.1)]))
            feats.append(Feature(f"a{i}", g))
        anchors = FeatureSet(feats)
        got = group_by_hierarchy(anchors, regions=regions, regions_id="name")
        assert got == group_by_regions(anchors, regions, "name")
        sizes = {k: len(ids) for k, ids in got}
        assert sizes["UNASSIGNED"] > 0 and sizes["q00"] > 0 and sizes["n0"] > 0

    def test_unassigned_bucket(self):
        small = make_polygon([[Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]])
        regions = FeatureSet([Feature("r1", small, {"ST": "37"})])
        pts = point_set([(0.5, 0.5), (9, 9)])
        groups = group_by_hierarchy(pts, regions=regions, regions_id="ST")
        assert ("UNASSIGNED", ["p1"]) in groups


class TestBuildPartitionDeterminism:
    def test_byte_identical_json(self, tmp_path):
        rng = random.Random(4242)
        pts = point_set([(rng.uniform(0, 9), rng.uniform(0, 7)) for _ in range(120)])
        for spec in (
            GridSpec("grid", nx=3, ny=2),
            GridSpec("grid_quantile", nq=3),
            GridSpec("grid_advanced", nx=3, ny=3, min_features=20),
            GridSpec("balanced", n_groups=4),
        ):
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            save_partitions(build_partition(spec, pts), str(a))
            save_partitions(build_partition(spec, pts), str(b))
            assert a.read_bytes() == b.read_bytes(), spec.mode
            doc = json.loads(a.read_text())
            assert doc["mode"] == spec.mode
