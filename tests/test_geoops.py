"""Summarizers: buffered/polygon extraction, area-weighted transfer,
exponential-decay sums, nearest distance."""

import math
import random

import numpy as np
import pytest

from gridchop import geoops
from gridchop.dataio import Feature, FeatureSet
from gridchop.errors import InvalidInputError, InvalidParameterError, UnsupportedGeometryError
from gridchop.geom import BBox, Point, Polyline, bbox_of
from gridchop.geoops import (
    _in_box,
    _intersection_areas,
    check_inputs,
    extract_at,
    freq_column,
    freq_columns,
    nearest_distance,
    op_args,
    summarize_aw,
    summarize_sedc,
)
from gridchop.raster import Raster, covered_cells

import scalar_reference
from conftest import polygon_set, random_star, with_ids
from scalar_reference import buffer_point, make_polygon, point_segment_distance, polygon_area


def rect(x0, y0, x1, y1):
    return make_polygon([[Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)]])


def points_fs(coords, values=None):
    feats = []
    for i, (x, y) in enumerate(coords):
        attrs = {"v": float(values[i])} if values is not None else {}
        feats.append(Feature(f"p{i}", Point(float(x), float(y)), attrs))
    return FeatureSet(feats)


def const_raster(n, value, kind="continuous"):
    return Raster(n, n, 0.0, 0.0, 1.0, -9999.0, np.full((n, n), float(value)), kind)


class TestExtractAtPoints:
    def test_value_under_point(self):
        vals = np.arange(16, dtype=float).reshape(4, 4)  # row 0 = top
        r = Raster(4, 4, 0.0, 0.0, 1.0, -9999.0, vals)
        t = extract_at(r, points_fs([(0.5, 3.5), (3.5, 0.5)]))
        assert t.rows[0]["value"] == 0.0
        assert t.rows[1]["value"] == 15.0

    def test_point_outside_is_null(self):
        t = extract_at(const_raster(2, 5.0), points_fs([(10.0, 10.0)]))
        assert t.rows[0]["value"] is None
        assert t.rows[0]["count"] == 0.0

    def test_nodata_is_null(self):
        vals = np.array([[-9999.0]])
        r = Raster(1, 1, 0.0, 0.0, 1.0, -9999.0, vals)
        t = extract_at(r, points_fs([(0.5, 0.5)]))
        assert t.rows[0]["value"] is None

    def test_radius0_csv_bytes(self):
        # off the raster and on a nodata cell: empty value and count 0.0; a
        # NaN cell is a value, written as nan
        vals = np.array([[1.5, -9999.0], [np.nan, 4.0]])
        r = Raster(2, 2, 0.0, 0.0, 1.0, -9999.0, vals)
        pts = points_fs([(0.5, 1.5), (5.0, 0.5), (1.5, 1.5), (0.5, 0.5), (-0.5, 0.5)])
        assert with_ids(extract_at(r, pts), pts).to_csv_bytes() == (
            b"id,value,count\r\np0,1.5,1.0\r\np1,,0.0\r\np2,,0.0\r\n"
            b"p3,nan,1.0\r\np4,,0.0\r\n"
        )

    def test_buffer_mean_constant_raster(self):
        t = extract_at(const_raster(10, 5.0), points_fs([(5.0, 5.0)]), radius=2.0)
        assert t.rows[0]["mean"] == pytest.approx(5.0, abs=1e-12)

    def test_buffer_count_is_polygon_area(self):
        # coverage-weighted count over a constant raster = buffer area / cs^2
        t = extract_at(
            const_raster(20, 1.0), points_fs([(10.0, 10.0)]), radius=3.0, stat="count",
            segments=32,
        )
        area = polygon_area(buffer_point(Point(10, 10), 3.0, 32))
        assert t.rows[0]["count"] == pytest.approx(area, rel=1e-9)

    def test_buffer_stats_vs_direct_zonal(self):
        # batched buffers equal the polygon path over each buffer polygon,
        # nodata and raster edges included
        rng = np.random.default_rng(42)
        vals = rng.uniform(0, 10, (30, 30))
        vals[rng.random((30, 30)) < 0.1] = -9999.0
        r = Raster(30, 30, 0.0, 0.0, 1.0, -9999.0, vals)
        pts = [(rng.uniform(-1, 31), rng.uniform(-1, 31)) for _ in range(40)]
        buffers = polygon_set([buffer_point(Point(x, y), 2.5, 16) for x, y in pts])
        for stat in ("mean", "sum", "count", "min", "max", "stdev"):
            got = extract_at(r, points_fs(pts), radius=2.5, stat=stat, segments=16).data
            want = extract_at(r, buffers, stat=stat).data
            for a, b in zip(got[stat], want[stat]):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12) or a is b is None, stat
            assert got["count"] == pytest.approx(want["count"], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("where", ["inside_buffer", "window_outside_buffer"])
    def test_nan_cell_same_for_points_and_polygons(self, where):
        # a covered NaN cell makes the statistic nan for every anchor kind; a
        # NaN cell in the buffer's window that the buffer misses counts for
        # nothing
        vals = np.full((5, 5), 1.0)
        vals[(2, 2) if where == "inside_buffer" else (0, 0)] = np.nan
        r = Raster(5, 5, 0.0, 0.0, 1.0, -9999.0, vals)
        buffer = polygon_set([buffer_point(Point(2.5, 2.5), 2.0, 16)])
        for stat in ("mean", "sum", "stdev", "min", "max"):
            point = extract_at(r, points_fs([(2.5, 2.5)]), radius=2.0, stat=stat, segments=16)
            polygon = extract_at(r, buffer, stat=stat)
            for t in (point, polygon):
                (value, count), = zip(t.data[stat], t.data["count"])
                want = {"sum": count, "stdev": 0.0}.get(stat, 1.0)
                assert repr(value) == ("nan" if where == "inside_buffer" else repr(want)), stat
            assert point.data["count"] == pytest.approx(polygon.data["count"], rel=1e-12)

    def test_buffered_row_independent_of_batch(self):
        # a point's row is the same bytes alone and among 1000 other points,
        # which span several kernel batches and the raster's edges
        rng = np.random.default_rng(11)
        r = Raster(60, 60, 0.0, 0.0, 0.5, -9999.0, rng.uniform(0, 10, (60, 60)))
        others = [tuple(p) for p in rng.uniform(-2.0, 32.0, (1000, 2))]
        target = (11.3, 17.9)
        for stat in ("mean", "stdev", "min", "count"):
            alone = extract_at(r, points_fs([target]), radius=1.7, stat=stat).rows[0]
            for at in (0, 437, 1000):
                pts = others[:at] + [target] + others[at:]
                row = extract_at(r, points_fs(pts), radius=1.7, stat=stat).rows[at]
                assert repr((row[stat], row["count"])) == repr((alone[stat], alone["count"]))

    def test_frequency_columns(self):
        vals = np.array([[1.0, 1.0], [1.0, 3.0]])
        r = Raster(2, 2, 0.0, 0.0, 1.0, -9999.0, vals, kind="categorical")
        t = extract_at(r, [rect(0, 0, 2, 2)] and FeatureSet(
            [Feature("a", rect(0, 0, 2, 2))]), stat="frequency")
        row = t.rows[0]
        assert row["freq_1"] == pytest.approx(3.0)
        assert row["freq_3"] == pytest.approx(1.0)
        assert t.columns.index("freq_1") < t.columns.index("freq_3")

    @pytest.mark.parametrize("anchor", ["whole_raster_polygon", "buffered_point"])
    def test_frequency_columns_add_up_to_count(self, anchor):
        # every NaN cell falls in the one freq_nan column
        vals = np.zeros((4, 4))
        vals[0, 1] = vals[2, 2] = vals[3, 0] = np.nan
        r = Raster(4, 4, 0.0, 0.0, 1.0, -9999.0, vals, kind="categorical")
        if anchor == "whole_raster_polygon":
            fs = FeatureSet([Feature("a", rect(0, 0, 4, 4))])
            row = extract_at(r, fs, stat="frequency").rows[0]
            assert (row["freq_0"], row["freq_nan"], row["count"]) == (13.0, 3.0, 16.0)
        else:
            row = extract_at(r, points_fs([(2.0, 2.0)]), radius=1.9, stat="frequency").rows[0]
        freq = [v for c, v in row.items() if c.startswith("freq_")]
        assert list(row)[-3:] == ["freq_0", "freq_nan", "count"]
        assert sum(freq) == pytest.approx(row["count"], rel=1e-12)

    def test_frequency_requires_categorical(self):
        with pytest.raises(InvalidParameterError):
            extract_at(const_raster(2, 1.0), points_fs([(0.5, 0.5)]), stat="frequency")

    def test_lines_rejected(self):
        fs = FeatureSet([Feature("l", Polyline([Point(0, 0), Point(1, 1)]))])
        with pytest.raises(UnsupportedGeometryError):
            extract_at(const_raster(2, 1.0), fs)

    def test_buffered_polygon_rejected(self):
        fs = FeatureSet([Feature("a", rect(0, 0, 1, 1))])
        with pytest.raises(InvalidParameterError):
            extract_at(const_raster(2, 1.0), fs, radius=1.0)


def test_points_mixed_with_lines_rejected():
    # a set whose first geometry is a point but that also holds a line
    mixed = FeatureSet([Feature("a", Point(0.0, 0.0)),
                        Feature("b", Polyline([Point(0, 0), Point(1, 1)]))])
    pts = points_fs([(1.0, 1.0)], [1.0])
    with pytest.raises(InvalidInputError, match="requires point geometry"):
        nearest_distance(mixed, pts)
    with pytest.raises(InvalidInputError, match="requires point geometry"):
        extract_at(const_raster(2, 1.0), mixed)
    assert nearest_distance(pts, mixed).rows[0]["nearest_feature_id"] == "b"


def test_points_mixed_with_polygons_rejected():
    # a polygon first, then a point: a polygon op names both kinds
    mixed = FeatureSet([Feature("a", rect(0, 0, 1, 1), {"v": 1.0}),
                        Feature("b", Point(0.5, 0.5), {"v": 2.0})])
    polys = FeatureSet([Feature("s", rect(0, 0, 2, 2), {"v": 1.0})])
    both = "got point and polygon"
    with pytest.raises(InvalidInputError, match=f"extract_at requires .*{both}"):
        extract_at(const_raster(2, 1.0), mixed)
    with pytest.raises(InvalidInputError, match=f"summarize_aw requires polygon geometry, {both}"):
        summarize_aw(mixed, polys, ["v"])
    with pytest.raises(InvalidInputError, match=f"summarize_aw requires polygon geometry, {both}"):
        summarize_aw(polys, mixed, ["v"])


def test_op_bodies_read_op_args():
    # an op called directly reads its keyword arguments as a task's params
    # are read: None as the default, each checked, and the context's type
    r, pts = const_raster(4, 2.0), points_fs([(1.5, 1.5)], [1.0])
    assert extract_at(r, pts, radius=None).rows == extract_at(r, pts).rows
    with pytest.raises(InvalidParameterError, match=r"^segments must be an integer >= 3, got 2$"):
        extract_at(r, pts, radius=1.0, segments=2)
    with pytest.raises(InvalidParameterError, match="^value_columns must be a list"):
        summarize_sedc(pts, pts, 1.0, value_columns="v")
    with pytest.raises(InvalidInputError, match="^nearest_distance requires a FeatureSet context"):
        nearest_distance(pts, r)
    with pytest.raises(InvalidInputError, match="^extract_at requires a Raster context"):
        extract_at(pts, pts)
    # only a run takes a raster path, which it loads; called directly, this
    # once failed with AttributeError: 'str' object has no attribute 'cellsize'
    with pytest.raises(InvalidInputError, match="^extract_at requires a Raster context, got str$"):
        extract_at("r.asc", pts)
    tile = FeatureSet([Feature("s", rect(0, 0, 1, 1))])
    assert summarize_aw(tile, tile, None).data == {"coverage": [1.0]}
    # sedc's own range rules are op_args', so a bandwidth that is not finite
    # is named as given (SedcParams once built it and blamed a maxdist of nan)
    for bandwidth in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError,
                           match=rf"^bandwidth must be finite, got {bandwidth!r}$"):
            summarize_sedc(pts, pts, bandwidth=bandwidth)


@pytest.mark.parametrize("anchors", [None, [], np.zeros((2, 2))])
def test_anchors_must_be_a_feature_set(anchors):
    # once an AttributeError on geometry_kind, when called directly
    pts = points_fs([(1.5, 1.5)], [1.0])
    tile = FeatureSet([Feature("s", rect(0, 0, 1, 1), {"v": 1.0})])
    for call in (lambda: extract_at(const_raster(4, 2.0), anchors),
                 lambda: summarize_aw(anchors, tile, ["v"]),
                 lambda: summarize_sedc(anchors, pts, bandwidth=1.0),
                 lambda: nearest_distance(anchors, pts)):
        with pytest.raises(InvalidParameterError,
                           match="^the anchor dataset must be a FeatureSet$"):
            call()


class TestCountStat:
    def test_one_count_column(self):
        r = const_raster(10, 1.0)
        polys = FeatureSet([Feature("a", rect(1, 1, 3, 3))])
        for y, radius in ((points_fs([(5.0, 5.0)]), 2.0), (polys, 0.0), (FeatureSet([]), 2.0)):
            assert extract_at(r, y, radius=radius, stat="count").columns == ["count"]

    def test_no_valid_cell_counts_zero(self):
        # a polygon and a buffered point over nodata or off the raster both count 0.0
        r = const_raster(4, -9999.0)
        polys = FeatureSet([Feature("a", rect(1, 1, 3, 3)), Feature("b", rect(9, 9, 10, 10))])
        rows = extract_at(r, polys, stat="count").rows
        rows += extract_at(r, points_fs([(2.0, 2.0), (20.0, 20.0)]), radius=1.0,
                           stat="count").rows
        assert [repr(row["count"]) for row in rows] == ["0.0"] * 4

    def test_csv_bytes(self):
        from gridchop.executor import TaskSpec, run_hierarchy

        vals = np.full((4, 4), 2.0)
        vals[:, 2:] = -9999.0
        r = Raster(4, 4, 0.0, 0.0, 1.0, -9999.0, vals)
        polys = FeatureSet([Feature("a", rect(0, 0, 1, 1)), Feature("b", rect(2.5, 0, 3.5, 1))])
        t = run_hierarchy(TaskSpec("extract_at", r, polys, {"stat": "count"}),
                          [("g", ["a", "b"])])
        assert t.to_csv_bytes() == b"id,chunk_id,group,count\r\na,0,g,1.0\r\nb,0,g,0.0\r\n"


class TestExtractAtPolygons:
    def test_full_extent_mean(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        r = Raster(2, 2, 0.0, 0.0, 1.0, -9999.0, vals)
        t = extract_at(r, FeatureSet([Feature("a", rect(0, 0, 2, 2))]), stat="mean")
        assert t.rows[0]["mean"] == pytest.approx(2.5, abs=1e-12)
        assert t.rows[0]["count"] == pytest.approx(4.0, abs=1e-12)


class TestFreqColumns:
    def test_naming_and_sorting(self):
        assert freq_column(3.0) == "freq_3"
        assert freq_column(2.5) == "freq_2.5"
        assert freq_columns(["freq_10", "freq_2", "freq_-1"]) == ["freq_-1", "freq_2", "freq_10"]
        # NaN sorts after every number, wherever it starts
        assert freq_column(float("nan")) == "freq_nan"
        for cols in (["freq_nan", "freq_3", "freq_-1"], ["freq_3", "freq_nan", "freq_inf"]):
            assert freq_columns(cols)[-1] == "freq_nan"

    def test_only_a_category_name_is_a_frequency_column(self):
        # a sedc or summarize_aw value column may start with freq_ (it once
        # crashed the merge); only a name freq_column gives is a frequency
        # column, and float() reads more spellings than freq_column writes
        cols = ["freq_pop_sedc", "freq_pop_mean", "freq_", "freq_1_0", "freq_01", "freq_NaN",
                "freq_1e999", "freq_ 1", "count", "freq_inf", "freq_nan", "freq_2.5", "freq_-inf"]
        assert freq_columns(cols) == ["freq_-inf", "freq_2.5", "freq_inf", "freq_nan"]

    def test_every_category_name_reads_back(self, nprng):
        cats = [0.0, -0.0, 1e300, -5.0, 2.0**60, 1e-310, math.inf, -math.inf, math.nan,
                *nprng.uniform(-1e6, 1e6, 50).tolist(), *nprng.integers(-10**6, 10**6, 50).tolist()]
        names = list(dict.fromkeys(map(freq_column, cats)))
        assert freq_columns(names[::-1]) == sorted(
            names, key=lambda c: (c == "freq_nan", float(c.removeprefix("freq_"))))


def polygon_intersection_area(a, b):
    """The area of one pair, as summarize_aw computes it for two polygons that
    are not the same."""
    pair = np.zeros(1, dtype=np.intp)
    return float(_intersection_areas(polygon_set([a]), polygon_set([b]), pair, pair)[0])


class TestPolygonIntersectionArea:
    def test_identity_is_exact(self):
        # summarize_aw takes an identical pair's area as it is, not clipped
        p = rect(0.3, 0.7, 2.9, 3.1)
        t = summarize_aw(FeatureSet([Feature("t", p)]),
                         FeatureSet([Feature("s", p, {"v": 0.1})]), ["v"], stat="sum")
        assert t.rows[0]["coverage"] == 1.0 and t.rows[0]["v_sum"] == 0.1
        assert polygon_intersection_area(p, p) == pytest.approx(polygon_area(p), rel=1e-12)

    def test_disjoint(self):
        assert polygon_intersection_area(rect(0, 0, 1, 1), rect(5, 5, 6, 6)) == 0.0

    def test_partial_overlap(self):
        a = rect(0, 0, 2, 2)
        b = rect(1, 1, 3, 3)
        assert polygon_intersection_area(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_non_convex_vs_shapely_style_decomposition(self):
        # L-shape against a square, checked by decomposing the L by hand
        l_shape = make_polygon(
            [[Point(0, 0), Point(3, 0), Point(3, 1), Point(1, 1), Point(1, 3), Point(0, 3)]]
        )
        got = polygon_intersection_area(l_shape, rect(0.5, 0.5, 2.0, 2.0))
        # overlap = [0.5,2.0]x[0.5,1.0] plus [0.5,1.0]x[1.0,2.0]
        assert got == pytest.approx(1.5 * 0.5 + 0.5 * 1.0, abs=1e-12)

    def test_hole_excluded(self):
        outer = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
        hole = [Point(1, 1), Point(3, 1), Point(3, 3), Point(1, 3)]
        donut = make_polygon([outer, hole])
        got = polygon_intersection_area(donut, rect(0, 0, 4, 2))
        assert got == pytest.approx(8.0 - 2.0, abs=1e-12)

    def test_sliver_trapezoid_kept(self):
        # rounding at a shared vertex puts a trapezoid's right x one ulp left
        # of its left x; the reversed edge must not drop the trapezoid
        ring = [
            (0.9306727210040051, 33.81298807736598), (0.8018921634184671, 33.87562960077943),
            (0.6064699088253517, 33.96009946566015), (0.38057307133339285, 33.96330284265172),
            (0.3756736404451636, 33.75638784580735), (0.257459047736317, 33.54032038418853),
            (0.39895943486943447, 33.40296850442517), (0.6277978069963452, 33.39624980577009),
            (0.7692396422951988, 33.307692450971466), (0.953275021817341, 33.65376976116628),
        ]
        poly = make_polygon([[Point(x, y) for x, y in ring]])
        got = polygon_intersection_area(poly, rect(0.0, 32.5, 2.5, 35.0))
        assert got == pytest.approx(polygon_area(poly), rel=1e-12)


class TestSummarizeAw:
    def test_identical_target_source(self):
        src = FeatureSet([Feature("s", rect(0, 0, 2, 3), {"pop": 42.0})])
        tgt = FeatureSet([Feature("t", rect(0, 0, 2, 3))])
        for stat in ("mean", "sum"):
            t = summarize_aw(tgt, src, ["pop"], stat=stat)
            assert t.rows[0][f"pop_{stat}"] == pytest.approx(42.0, abs=1e-12)
            assert t.rows[0]["coverage"] == pytest.approx(1.0, abs=1e-12)

    def test_half_half_mean(self):
        src = FeatureSet(
            [
                Feature("a", rect(0, 0, 1, 2), {"v": 0.0}),
                Feature("b", rect(1, 0, 2, 2), {"v": 10.0}),
            ],
        )
        tgt = FeatureSet([Feature("t", rect(0, 0, 2, 2))])
        t = summarize_aw(tgt, src, ["v"], stat="mean")
        assert t.rows[0]["v_mean"] == pytest.approx(5.0, abs=1e-12)

    def test_sum_conservation_random_tilings(self):
        rng = random.Random(7)
        for _ in range(10):
            # random axis-aligned tiling of [0,6]x[0,4] for both sides
            def tiling(prefix, nx, ny, values):
                xb = sorted({0.0, 6.0, *(rng.uniform(0.5, 5.5) for _ in range(nx - 1))})
                yb = sorted({0.0, 4.0, *(rng.uniform(0.5, 3.5) for _ in range(ny - 1))})
                feats = []
                k = 0
                for x0, x1 in zip(xb, xb[1:]):
                    for y0, y1 in zip(yb, yb[1:]):
                        attrs = {"v": values[k % len(values)]} if values else {}
                        feats.append(Feature(f"{prefix}{k}", rect(x0, y0, x1, y1), attrs))
                        k += 1
                return FeatureSet(feats)

            vals = [rng.uniform(-5, 5) for _ in range(97)]
            sources = tiling("s", 4, 3, vals)
            targets = tiling("t", 3, 4, None)
            t = summarize_aw(targets, sources, ["v"], stat="sum")
            total = sum(row["v_sum"] for row in t.rows)
            want = sum(float(f.attributes["v"]) for f in sources.features)
            assert total == pytest.approx(want, rel=1e-9)

    def test_no_overlap_null_row(self):
        src = FeatureSet([Feature("s", rect(10, 10, 11, 11), {"v": 1.0})])
        tgt = FeatureSet([Feature("t", rect(0, 0, 1, 1))])
        t = summarize_aw(tgt, src, ["v"])
        assert t.rows[0]["v_mean"] is None
        assert t.rows[0]["coverage"] == 0.0

    def test_bad_stat(self):
        tgt = FeatureSet([Feature("t", rect(0, 0, 1, 1))])
        with pytest.raises(InvalidParameterError):
            summarize_aw(tgt, tgt, [], stat="median")


def _polys_fs(polys, prefix, rng=None):
    """Polygons as a FeatureSet; with rng, two random value columns."""
    feats = []
    for i, p in enumerate(polys):
        attrs = {} if rng is None else {"v": float(rng.uniform(-50, 50)),
                                        "w": float(rng.uniform(0, 9))}
        feats.append(Feature(f"{prefix}{i}", p, attrs))
    return FeatureSet(feats)


def _star(rng, lo, hi, rmax, hole=False):
    cx, cy = rng.uniform(lo, hi, 2).tolist()
    r = float(rng.uniform(0.3, rmax))
    rings = [random_star(rng, cx, cy, r, int(rng.integers(8, 24)))]
    if hole:
        # 8+ sectors of radius >= 0.4 r keep every outer edge 0.28 r from
        # the center, clear of the hole
        rings.append(buffer_point(Point(cx, cy), 0.2 * r, 9).outer.vertices)
    return make_polygon(rings)


def _stars_with_holes(rng):
    targets = [_star(rng, 0, 10, 2.5, hole=k % 2 == 0) for k in range(14)]
    sources = [_star(rng, 0, 10, 2.0, hole=k % 3 == 0) for k in range(25)]
    return targets, sources


def _identical(rng):
    targets, sources = _stars_with_holes(rng)
    # the same polygon object, and an equal copy of another
    copy = make_polygon([targets[3].outer.vertices, *[h.vertices for h in targets[3].holes]])
    return targets, [targets[0], *sources[:10], copy, *sources[10:]]


def _shared_edges(rng):
    # unit cells against rectangles that share their edges or touch them at
    # a corner only
    targets = [rect(i, j, i + 1, j + 1) for j in range(3) for i in range(3)]
    sources = [rect(0, 0, 2, 1), rect(1, 1, 3, 3), rect(3, 3, 4, 4), rect(-1, 1, 0, 2),
               rect(0.5, 2, 1.5, 3), rect(2, -1, 3, 0), rect(0, 0, 3, 3)]
    return targets, sources


def _triangles(rng):
    # a triangle's trapezoids have a zero-length side at its apex
    def tri():
        pts = rng.uniform(0, 6, (3, 2)).tolist()
        return make_polygon([[Point(x, y) for x, y in pts]])

    return [tri() for _ in range(10)], [tri() for _ in range(15)] + [rect(1, 1, 5, 5)]


def _no_hit(rng):
    targets, sources = _stars_with_holes(rng)
    return [*targets[:5], rect(50, 50, 51, 51), *targets[5:], rect(-40, 3, -39, 4)], sources


def _grid_under_stars(rng):
    # a source with fewer vertices than its target, every ring counted, is
    # the polygon cut into trapezoids: rectangles under stars with holes;
    # ties keep the target cut: rectangles under quadrilaterals, and
    # squares with a square hole under 8-vertex stars
    def square_with_hole(x, y):
        return make_polygon([rect(x, y, x + 2, y + 2).outer.vertices,
                             rect(x + 0.5, y + 0.5, x + 1.5, y + 1.5).outer.vertices])

    targets = [_star(rng, 1, 9, 2.5, hole=k % 2 == 0) for k in range(10)]
    targets += [make_polygon([random_star(rng, *rng.uniform(1, 9, 2).tolist(), 2.0, 8)])
                for _ in range(4)]
    targets += [make_polygon([random_star(rng, *rng.uniform(1, 9, 2).tolist(), 1.5, 4)])
                for _ in range(4)]
    sources = [rect(i * 1.25, j * 1.25, (i + 1) * 1.25, (j + 1) * 1.25)
               for j in range(8) for i in range(8)]
    sources += [square_with_hole(*rng.uniform(0, 8, 2).tolist()) for _ in range(6)]
    return targets, sources


AW_CASES = {
    "stars_with_holes": _stars_with_holes,
    "identical": _identical,
    "shared_edges": _shared_edges,
    "triangles": _triangles,
    "no_hit": _no_hit,
    "grid_under_stars": _grid_under_stars,
}


@pytest.mark.parametrize("stat", ["mean", "sum"])
@pytest.mark.parametrize("case", sorted(AW_CASES))
def test_aw_matches_scalar_reference(case, stat, nprng):
    # the batched pass performs the scalar loop's float operations in the
    # same order: every row has the same bits
    targets, sources = AW_CASES[case](nprng)
    tfs, sfs = _polys_fs(targets, "t"), _polys_fs(sources, "s", nprng)
    got = with_ids(summarize_aw(tfs, sfs, ["v", "w"], stat=stat), tfs)
    want = scalar_reference.summarize_aw(tfs, sfs, ["v", "w"], stat=stat)
    assert got.columns == want.columns
    assert [repr(r) for r in got.rows] == [repr(r) for r in want.rows]
    assert any(r["coverage"] > 0.0 for r in got.rows)


@pytest.mark.parametrize("caps", [None, (1, 1), (1, 10**9), (10**9, 1), (60, 200)])
def test_aw_rows_independent_of_batch(monkeypatch, caps, nprng):
    # (_PAIR_ELEMS, _BATCH_ELEMS): one target or one pair per block, up to
    # everything at once; a row has the bits of its target run alone
    targets, sources = _identical(nprng)
    tfs, sfs = _polys_fs(targets, "t"), _polys_fs(sources, "s", nprng)
    if caps is not None:
        monkeypatch.setattr(geoops, "_PAIR_ELEMS", caps[0], raising=False)
        monkeypatch.setattr(geoops, "_BATCH_ELEMS", caps[1], raising=False)
    for stat in ("mean", "sum"):
        got = with_ids(summarize_aw(tfs, sfs, ["v"], stat=stat), tfs).rows
        want = scalar_reference.summarize_aw(tfs, sfs, ["v"], stat=stat).rows
        assert [repr(r) for r in got] == [repr(r) for r in want]
        for k in (0, 3, 7, 13):
            one = tfs.subset([k])
            alone = with_ids(summarize_aw(one, sfs, ["v"], stat=stat), one).rows[0]
            assert repr(alone) == repr(got[k])


@pytest.mark.parametrize("cap", [None, 1, 60, 600])
def test_polygon_extract_rows_independent_of_batch(monkeypatch, cap, nprng):
    # a 30 x 20 raster of 0.5 cells over [1, 16] x [2, 12]; the polygons
    # reach past every edge of it, and some miss it
    vals = np.floor(nprng.uniform(0, 6, (20, 30)))
    vals[3, 4:9] = -9999.0
    r = Raster(30, 20, 1.0, 2.0, 0.5, -9999.0, vals, "categorical")
    polys = [_star(nprng, -2, 19, 3.0, hole=k % 4 == 0) for k in range(40)]
    polys[5:5] = [rect(20, 20, 21, 21), rect(16, 5, 17, 6)]  # outside, touching
    fs = _polys_fs(polys, "g")
    if cap is not None:
        monkeypatch.setattr(geoops, "_BATCH_ELEMS", cap, raising=False)
    for stat in ("mean", "stdev", "min", "count", "frequency"):
        got = extract_at(r, fs, stat=stat).rows
        assert any(not row["count"] for row in got)
        for k in range(len(polys)):
            alone = extract_at(r, fs.subset([k]), stat=stat).rows[0]
            assert repr(alone) == repr({c: got[k][c] for c in alone})
            # frequency: categories only other polygons cover read 0
            assert all(got[k][c] == 0.0 for c in set(got[k]) - set(alone))


def _categorical_raster(rng):
    """A 30 x 20 raster of 0.5 cells over [1, 16] x [2, 12]: categories 0-5
    with NaN, signed-zero, infinite, fractional and nodata cells strewn in."""
    vals = np.floor(rng.uniform(0, 6, (20, 30)))
    for value in (np.nan, -0.0, np.inf, -np.inf, 2.5, -9999.0):
        vals[rng.integers(0, 20, 25), rng.integers(0, 30, 25)] = value
    return Raster(30, 20, 1.0, 2.0, 0.5, -9999.0, vals, "categorical")


def _assert_frequency_is(table, want):
    """table's freq_* columns have want's names, order and bits, then count."""
    assert table.columns == [*want, "count"]
    assert repr({c: table.data[c] for c in want}) == repr(want)


@pytest.mark.parametrize("cap", [None, 60])
def test_polygon_frequency_matches_per_row_dict_loop(monkeypatch, cap, nprng):
    # the polygons' valid covered cells reduced by the per-row dict loop
    r = _categorical_raster(nprng)
    polys = [_star(nprng, -2, 19, 3.0, hole=k % 3 == 0) for k in range(40)]
    polys.append(rect(20, 20, 21, 21))  # off the raster: no counted cell
    fs = _polys_fs(polys, "g")
    if cap is not None:
        monkeypatch.setattr(geoops, "_BATCH_ELEMS", cap, raising=False)
    owner, rows, cols, w = covered_cells(r, fs, geoops._BATCH_ELEMS)
    v = r.values[rows, cols]
    valid = v != r.nodata
    want = scalar_reference.frequency_columns(
        owner[valid].tolist(), v[valid].tolist(), w[valid].tolist(), len(fs))
    assert {"freq_nan", "freq_0", "freq_inf", "freq_-inf", "freq_2.5"} <= set(want)
    got = extract_at(r, fs, stat="frequency")
    _assert_frequency_is(got, want)
    assert all(col[-1] == 0.0 for col in want.values())


def test_buffered_frequency_matches_per_row_dict_loop(monkeypatch, nprng):
    # points' buffer cells over several _buffer_cells batches, each with its
    # own categories, reduced by the per-row dict loop over every batch
    r = _categorical_raster(nprng)
    # the last point is off the raster
    pts = [*map(tuple, nprng.uniform(-1.0, 18.0, (60, 2))), (40.0, 40.0)]
    fs = points_fs(pts)
    monkeypatch.setattr(geoops, "_BATCH_ELEMS", 2000, raising=False)
    batches = list(geoops._buffer_cells(r, *fs.coords.T, 1.3, 12))
    assert len(batches) > 3
    rows, v, w, first = [], [], [], 0
    for bv, bw in batches:
        rows += np.repeat(np.arange(first, first + len(bw)), bw.shape[1]).tolist()
        first += len(bw)
        v += bv.ravel().tolist()
        w += bw.ravel().tolist()
    want = scalar_reference.frequency_columns(rows, v, w, len(fs))
    got = extract_at(r, fs, radius=1.3, stat="frequency", segments=12)
    _assert_frequency_is(got, want)
    assert all(col[-1] == 0.0 for col in want.values())
    assert got.data["count"][-1] == 0.0


def test_frequency_without_anchors_has_count_only(nprng):
    # no anchor meets a category: no freq column, and no "frequency" column
    # (an empty chunk once added one, all empty, to a partitioned run)
    r = _categorical_raster(nprng)
    for radius in (0.0, 1.3):
        assert extract_at(r, points_fs([]), radius=radius, stat="frequency").columns == (
            ["value", "count"] if radius == 0 else ["count"])


class TestSummarizeSedc:
    def test_coincident_source_weight_one(self):
        tgt = points_fs([(0, 0)])
        src = points_fs([(0, 0)], values=[7.0])
        t = summarize_sedc(tgt, src, bandwidth=1.0, value_columns=("v",))
        assert t.rows[0]["v_sedc"] == pytest.approx(7.0, abs=1e-12)
        assert t.rows[0]["count"] == 1

    def test_weight_at_bandwidth(self):
        tgt = points_fs([(0, 0)])
        src = points_fs([(2.0, 0)], values=[1.0])
        t = summarize_sedc(tgt, src, bandwidth=2.0, value_columns=("v",))
        assert t.rows[0]["v_sedc"] == pytest.approx(math.exp(-3.0), abs=1e-9)

    def test_cutoff_beyond_maxdist(self):
        tgt = points_fs([(0, 0)])
        src = points_fs([(100.0, 0)], values=[5.0])
        t = summarize_sedc(tgt, src, bandwidth=1.0, value_columns=("v",))
        assert t.rows[0]["v_sedc"] == 0.0
        assert t.rows[0]["count"] == 0

    def test_no_sources(self):
        tgt = points_fs([(0, 0), (1, 1)])
        t = summarize_sedc(tgt, FeatureSet([]), bandwidth=1.0, value_columns=("v",))
        t = with_ids(t, tgt)
        assert t.columns == ["id", "v_sedc", "count"]
        rows = [(r["id"], r["v_sedc"], r["count"]) for r in t.rows]
        assert rows == [("p0", 0.0, 0), ("p1", 0.0, 0)]

    def test_maxdist_defaults_to_twice_bandwidth(self):
        assert op_args("summarize_sedc", {"bandwidth": 3.0})["maxdist"] == 6.0
        pts = points_fs([(0, 0)])
        with pytest.raises(InvalidParameterError, match="^maxdist must be >= bandwidth$"):
            summarize_sedc(pts, pts, bandwidth=3.0, maxdist=2.0)
        with pytest.raises(InvalidParameterError, match="^bandwidth must be > 0$"):
            summarize_sedc(pts, pts, bandwidth=0.0)

    def test_multiple_columns_and_sources(self):
        tgt = points_fs([(0, 0)])
        feats = [
            Feature("s0", Point(1.0, 0.0), {"a": 2.0, "b": 10.0}),
            Feature("s1", Point(0.0, 1.0), {"a": 4.0, "b": 20.0}),
        ]
        src = FeatureSet(feats)
        t = summarize_sedc(tgt, src, bandwidth=1.0, value_columns=("a", "b"))
        w = math.exp(-3.0)
        assert t.rows[0]["a_sedc"] == pytest.approx(6.0 * w, rel=1e-12)
        assert t.rows[0]["b_sedc"] == pytest.approx(30.0 * w, rel=1e-12)


    @staticmethod
    def _reference(targets, sources, bandwidth, maxdist):
        """The per-target loop: one distance row per target, its terms added
        one at a time from 0.0 in source order (np.sum and, from Python 3.12,
        builtin sum round differently)."""
        sx = np.array([f.geometry.x for f in sources.features])
        sy = np.array([f.geometry.y for f in sources.features])
        vals = np.array([f.attributes["v"] for f in sources.features])
        rows = []
        for tgt in targets.features:
            d = np.sqrt((sx - tgt.geometry.x) ** 2 + (sy - tgt.geometry.y) ** 2)
            hit = np.nonzero(d <= maxdist)[0]
            w = np.exp(-3.0 * d[hit] / bandwidth)
            total = 0.0
            for term in (vals[hit] * w).tolist():
                total += term
            rows.append({"id": tgt.id, "v_sedc": total, "count": int(hit.size)})
        return rows

    def test_sum_is_the_loop_at_pairwise_block_sizes(self):
        # targets with 0, 1, 8, 9, 16, 17, 129 and 130 pairs, counts on either
        # side of NumPy's pairwise-sum blocks: each row has the bits of its
        # terms added one at a time, and terms of mixed sign and size make a
        # different order or grouping show
        rng = np.random.default_rng(30)
        counts = [0, 1, 8, 9, 16, 17, 129, 130]
        src_xy = np.vstack([
            np.column_stack([10.0 * k + rng.uniform(-0.9, 0.9, n), rng.uniform(-0.9, 0.9, n)])
            for k, n in enumerate(counts)
        ])
        vals = rng.uniform(-1, 1, len(src_xy)) * 10.0 ** rng.integers(-8, 9, len(src_xy))
        src = points_fs(src_xy, values=vals)
        tgt = points_fs([(10.0 * k, 0.0) for k in range(len(counts))])
        got = with_ids(summarize_sedc(tgt, src, bandwidth=1.5, value_columns=("v",)), tgt).rows
        assert [r["count"] for r in got] == counts
        assert [repr(r) for r in got] == [repr(r) for r in self._reference(tgt, src, 1.5, 3.0)]
        assert repr(got[0]["v_sedc"]) == "0.0"

    @pytest.mark.parametrize("block", [None, 1, 3, 7])
    def test_rows_independent_of_block(self, monkeypatch, block):
        # targets are summed in blocks of `block` (None: the default cap);
        # every row must have the bits of that target summed alone, whether
        # it opens, closes or sits inside a block
        rng = np.random.default_rng(12)
        src_xy = np.vstack([rng.uniform(0, 10, (100, 2)), rng.uniform(4, 5, (60, 2))])
        src = points_fs(src_xy, values=rng.uniform(-50, 50, len(src_xy)))
        tgt = points_fs(rng.uniform(-2, 14, (40, 2)))
        if block is not None:
            monkeypatch.setattr(geoops, "_PAIR_ELEMS", block * len(src), raising=False)
        params = {"bandwidth": 1.0, "value_columns": ("v",)}
        got = with_ids(summarize_sedc(tgt, src, **params), tgt).rows
        assert [repr(r) for r in got] == [repr(r) for r in self._reference(tgt, src, 1.0, 2.0)]
        assert {r["count"] for r in got} >= {0} and max(r["count"] for r in got) > 16
        for k in (0, 2, 3, 6, 7, 20, 39):
            one = tgt.subset([k])
            assert repr(with_ids(summarize_sedc(one, src, **params), one).rows[0]) == repr(got[k])


class TestNearestDistance:
    def test_point_to_horizontal_line(self):
        lines = FeatureSet([Feature("l", Polyline([Point(-10, 0), Point(10, 0)]))])
        t = nearest_distance(points_fs([(0, 5)]), lines)
        assert t.rows[0]["distance"] == 5.0
        assert t.rows[0]["nearest_feature_id"] == "l"

    def test_coincident_with_vertex(self):
        lines = FeatureSet([Feature("l", Polyline([Point(1, 1), Point(2, 2)]))])
        t = nearest_distance(points_fs([(1, 1)]), lines)
        assert t.rows[0]["distance"] == 0.0

    def test_brute_force_oracle_exact(self):
        # same arithmetic as the scalar helper: equality must be exact
        rng = random.Random(88)
        lines = FeatureSet(
            [
                Feature(
                    f"l{i}",
                    Polyline(
                        [
                            Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                            Point(rng.uniform(0, 100), rng.uniform(0, 100)),
                        ]
                    ),
                )
                for i in range(50)
            ]
        )
        pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(1000)]
        t = nearest_distance(points_fs(pts), lines)
        for i, (x, y) in enumerate(pts):
            best = min(
                point_segment_distance(
                    Point(x, y), f.geometry.vertices[0], f.geometry.vertices[1]
                )
                for f in lines.features
            )
            assert t.rows[i]["distance"] == best  # bitwise

    def test_point_context(self):
        ctx = points_fs([(0, 0), (10, 0)])
        t = nearest_distance(points_fs([(1, 0)]), ctx)
        assert t.rows[0]["distance"] == 1.0
        assert t.rows[0]["nearest_feature_id"] == "p0"

    @pytest.mark.parametrize("context,kind", [
        ([Feature("sq", rect(0, 0, 1, 1))], "polygon"),
        ([Feature("sq", rect(0, 0, 1, 1)), Feature("p", Point(5.0, 5.0))], "point and polygon"),
    ])
    def test_polygon_context_rejected(self, context, kind):
        # a polygon's distance would miss its closing edge and its holes: from
        # (-0.5, 0.5) the unit square is 0.5 away, not 0.7071067811865476
        with pytest.raises(InvalidInputError, match=f"requires .*line geometry.*, got {kind}$"):
            nearest_distance(points_fs([(-0.5, 0.5)]), FeatureSet(context))


class TestPrune:
    """Each op prunes the whole context it is given to its anchors' reach."""

    @staticmethod
    def _features(kind, rng):
        feats = []
        for i in range(60):
            if kind == "point":
                g = Point(*(float(v) for v in rng.integers(0, 7, 2)))
            elif kind == "line":
                xy = np.cumsum(rng.integers(1, 3, (3, 2)) * rng.choice([-1, 1], (3, 2)), axis=0)
                g = Polyline([Point(float(x), float(y)) for x, y in xy + 3])
            else:
                x0, y0 = (float(v) for v in rng.integers(0, 5, 2))
                x1, y1 = x0 + float(rng.integers(1, 3)), y0 + float(rng.integers(1, 3))
                rings = [[Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)]]
                if i % 3 == 0:  # a hole never widens the bbox
                    rings.append([Point(x0 + 0.25, y0 + 0.25), Point(x0 + 0.25, y0 + 0.75),
                                  Point(x0 + 0.75, y0 + 0.75)])
                g = make_polygon(rings)
            feats.append(Feature(f"f{i}", g))
        return FeatureSet(feats)

    @pytest.mark.parametrize("kind", ["point", "line", "polygon"])
    def test_in_box_matches_bbox_intersects(self, kind):
        # the prune keeps exactly the features whose bbox meets the box;
        # integer coordinates: many boxes touch a feature's bbox exactly
        rng = np.random.default_rng(len(kind))
        fs = self._features(kind, rng)
        assert fs.geometry_kind() == kind
        for _ in range(200):
            x0, x1 = sorted(float(v) for v in rng.integers(-1, 8, 2))
            y0, y1 = sorted(float(v) for v in rng.integers(-1, 8, 2))
            box = BBox(x0, y0, x1, y1)
            want = [f.id for f in fs.features if box.intersects(bbox_of(f.geometry))]
            assert [fs.ids()[i] for i in np.flatnonzero(_in_box(fs.bounds(), box))] == want

    def test_op_reach(self, monkeypatch):
        # the reach each op grows its anchors' bbox by: sedc's maxdist, 0
        # for summarize_aw, half the larger side for nearest_distance; an
        # extract_at context is a raster, which is not pruned
        reaches = []
        reach_box = geoops._reach_box
        monkeypatch.setattr(geoops, "_reach_box",
                            lambda b, reach: reaches.append(reach) or reach_box(b, reach))
        pts = points_fs([(1.0, 1.0), (4.0, 2.0), (2.0, 3.5)], [1.0, 2.0, 3.0])
        extract_at(const_raster(6, 1.0), pts, radius=2.5)
        assert reaches == []
        summarize_sedc(pts, pts, 3.0)
        summarize_sedc(pts, pts, 3.0, 9.0)
        tile = FeatureSet([Feature("s", rect(0, 0, 1, 1))])
        summarize_aw(tile, tile, [])
        nearest_distance(pts, pts)
        assert reaches[:4] == [6.0, 9.0, 0.0, 1.5]


class TestValueCache:
    """check_inputs converts a context's value column once per FeatureSet,
    and builds the cache the op prunes it by."""

    def test_second_check_returns_same_array(self):
        src = points_fs([(0.0, 0.0), (1.0, 1.0)], [1.0, 2.5])
        params = {"bandwidth": 1.0, "value_columns": ["v"]}
        first = check_inputs("summarize_sedc", src, src, params)[2]["v"]
        assert first.tolist() == [1.0, 2.5]
        assert check_inputs("summarize_sedc", src, src, params)[2]["v"] is first
        assert src.value_arrays["v"] is first

    @pytest.mark.parametrize("op", ["nearest_distance", "summarize_sedc", "summarize_aw"])
    def test_check_builds_prune_cache(self, op):
        # the cache the op prunes a non-empty context by: segments() for
        # nearest_distance, bounds() for the others
        x = (FeatureSet([Feature("s", rect(0, 0, 1, 1))]) if op == "summarize_aw"
             else points_fs([(0.0, 0.0), (1.0, 1.0)]))
        assert x._segments is None and x._bounds is None
        check_inputs(op, x, x, {"bandwidth": 1.0})
        nearest = op == "nearest_distance"
        assert (x._segments is not None) == nearest and (x._bounds is not None) != nearest

    def test_subset_holds_no_cache(self):
        # a subset converts, and so checks, its own values again
        fs = FeatureSet([Feature("a", Point(0.0, 0.0), {"v": 1.0}),
                         Feature("b", Point(1.0, 0.0), {"v": "x"})])
        fs.value_arrays["v"] = np.zeros(2)  # as if a check had cached the column
        sub = fs.subset([0, 1])
        assert sub.value_arrays == {}
        with pytest.raises(InvalidInputError, match="'b' has value 'x' in column 'v'"):
            summarize_sedc(sub, sub, 1.0, value_columns=("v",))


def _brute_nearest(pts, context):
    """(distance, id) of each point's first nearest segment of the context,
    one scalar distance at a time over the whole context."""
    out = []
    for x, y in pts:
        best = None
        for f in context.features:
            g = f.geometry
            verts = g.vertices if isinstance(g, Polyline) else [g, g]
            for a, b in zip(verts, verts[1:]):
                d = point_segment_distance(Point(x, y), a, b)
                if best is None or d < best[0]:
                    best = (d, f.id)
        out.append(best)
    return out


class TestNearestResearch:
    """nearest_distance searches a row again in one bounded step, never the
    whole context once its first prune holds a feature; every row is the
    first nearest of a whole-context search, bit for bit."""

    @staticmethod
    def _searched(monkeypatch):
        """The number of segments each _nearest_segments call searches."""
        sizes = []
        kernel = geoops._nearest_segments
        monkeypatch.setattr(geoops, "_nearest_segments",
                            lambda px, py, segs: sizes.append(len(segs)) or kernel(px, py, segs))
        return sizes

    @staticmethod
    def _check(pts, context):
        got = nearest_distance(points_fs(pts), context).data
        want = _brute_nearest(pts, context)
        assert [repr(d) for d in got["distance"]] == [repr(d) for d, _ in want]
        assert got["nearest_feature_id"] == [fid for _, fid in want]

    @pytest.mark.parametrize("copies", [1, 4])
    def test_one_or_coincident_anchors(self, monkeypatch, copies):
        # the anchors' bbox has no extent: the long line's bbox holds it,
        # the short line nearer to it lies outside the first box
        lines = FeatureSet([Feature("long", Polyline([Point(0, 0), Point(10, 10)])),
                            Feature("near", Polyline([Point(3, 6.5), Point(4, 6.5)])),
                            Feature("far", Polyline([Point(50, 50), Point(60, 50)]))])
        searched = self._searched(monkeypatch)
        self._check([(3.0, 6.0)] * copies, lines)
        assert searched == [1, 2]

    def test_empty_first_prune(self, monkeypatch):
        # no feature meets the first box: the whole context is searched once
        ctx = points_fs([(20.0, 0.0), (0.0, 30.0), (-20.0, 0.0)])
        searched = self._searched(monkeypatch)
        self._check([(0.0, 0.0), (1.0, 1.0)], ctx)
        assert searched == [3]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_tie_across_box_edge(self, monkeypatch, order):
        # the anchors' box is x -2..6, y -2..2: from (0, 0), "out" at (0, 2.5)
        # and "in" at (2.5, 0) are both 2.5 away, and the first in context
        # order is the nearest
        both = [Feature("out", Point(0.0, 2.5)), Feature("in", Point(2.5, 0.0))]
        ctx = FeatureSet([both[i] for i in order])
        searched = self._searched(monkeypatch)
        self._check([(0.0, 0.0), (4.0, 0.0)], ctx)
        assert searched == [1, 2]

    def test_snapped_fuzz(self, monkeypatch):
        # chunks of 1-4 anchors, some coincident, on integer coordinates,
        # where equal distances are common; at most one search follows the
        # first
        rng = np.random.default_rng(77)
        searched = self._searched(monkeypatch)
        for case in range(300):
            feats = []
            for k in range(int(rng.integers(1, 9))):
                xy = rng.integers(0, 12, (int(rng.integers(1, 4)), 2)).astype(float)
                xy = xy[np.append(True, (np.diff(xy, axis=0) != 0).any(axis=1))].tolist()
                g = Point(*xy[0]) if len(xy) == 1 else Polyline([Point(*v) for v in xy])
                feats.append(Feature(f"f{k}", g))
            pts = rng.integers(0, 12, (int(rng.integers(1, 5)), 2)).astype(float).tolist()
            if case % 4 == 0:
                pts = pts[:1] * len(pts)
            del searched[:]
            self._check(pts, FeatureSet(feats))
            assert len(searched) <= 2, case
