import math

import numpy as np
import pytest

from gridchop import (
    BBox,
    Feature,
    FeatureSet,
    InvalidParameterError,
    Point,
    Polygon,
    Raster,
    Ring,
    bbox_of,
    extract_at,
)
from gridchop.geoops import freq_column
from gridchop.raster import (
    category_sums,
    cell_areas,
    cell_windows,
    covered_cells,
    ring_edges,
    zonal_stats,
)

from conftest import polygon_set, random_star, square, star_polygon, with_ids
from scalar_reference import (
    buffer_point,
    clip_ring_convex,
    frequency_columns,
    make_polygon,
    polygon_area,
    shoelace,
    signed_ring_area,
)


def grid(n=4, values=None, kind="continuous", nodata=-9999.0):
    if values is None:
        values = np.arange(n * n, dtype=float).reshape(n, n)
    return Raster(n, n, 0.0, 0.0, 1.0, nodata, values, kind)


def window(r, box):
    """(row0, col0, nrows, ncols) of cell_windows for one box."""
    return tuple(int(a[0]) for a in cell_windows(r, np.array([[box.xmin, box.ymin,
                                                                box.xmax, box.ymax]])))


def coverage(r, poly):
    """{(row, col): fraction} of the cells poly covers, as extract_at reads them."""
    _, rows, cols, fracs = covered_cells(r, polygon_set([poly]), 32_000)
    return dict(zip(zip(rows.tolist(), cols.tolist()), fracs.tolist()))


def zonal(r, poly, kind):
    """extract_at's row for poly: the statistic of kind over the cells it covers."""
    polys = polygon_set([poly])
    return with_ids(extract_at(r, polys, stat=kind), polys).rows[0]


def value_at(r, x, y):
    """extract_at's value of the point (x, y) at radius 0."""
    return extract_at(r, FeatureSet.from_columns(["p"], np.array([[x, y]]))).rows[0]["value"]


def mc_fraction_oracle(r, poly, row, col, sub=256):
    """Supersampling oracle: fraction of sub*sub cell-interior sample points
    inside the polygon (even-odd crossing count, vectorized)."""
    cs = r.cellsize
    x0 = r.xll + col * cs
    y0 = r.ytop - (row + 1) * cs
    t = (np.arange(sub) + 0.5) / sub * cs
    xs, ys = np.meshgrid(x0 + t, y0 + t)
    xs = xs.ravel()
    ys = ys.ravel()
    inside = np.zeros(xs.size, dtype=int)
    for ring in [poly.outer, *poly.holes]:
        verts = ring.vertices
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            crosses = (a.y > ys) != (b.y > ys)
            with np.errstate(divide="ignore", invalid="ignore"):
                xc = a.x + (ys - a.y) * (b.x - a.x) / (b.y - a.y)
            inside += np.where(crosses & (xc > xs), 1, 0)
    return float(np.mean(inside % 2))


def kernel_cells(poly, x0, ytop, cs, nrows, ncols):
    """cell_areas of one polygon over one window, in cell units."""
    ax, ay, bx, by, win = ring_edges(polygon_set([poly]), [0])
    return cell_areas(ax, ay, bx, by, win, np.array([x0]), np.array([ytop]), cs, nrows, ncols)[0]


def scalar_clip_cells(poly, x0, ytop, cs, nrows, ncols):
    """Reference: each ring clipped to each cell by the scalar convex clipper,
    in coordinates relative to the cell's corner so the shoelace stays exact."""
    out = np.zeros((nrows, ncols))
    cell = [(0.0, 0.0), (cs, 0.0), (cs, cs), (0.0, cs)]
    for i in range(nrows):
        for j in range(ncols):
            cx, cy = x0 + j * cs, ytop - (i + 1) * cs
            for ring in [poly.outer, *poly.holes]:
                clipped = clip_ring_convex([(v.x - cx, v.y - cy) for v in ring.vertices], cell)
                if len(clipped) >= 3:
                    out[i, j] += shoelace(clipped) / (cs * cs)
    return out


def _stars(rng):
    return [make_polygon([random_star(rng, 4.25, 2.0, 1.2, rng.integers(5, 30))])
            for _ in range(6)]


def _stars_with_holes(rng):
    polys = []
    for _ in range(6):
        # 8+ sectors of radius >= 0.48 keep every outer edge 0.33 from the
        # center, clear of the hole
        outer = random_star(rng, 4.25, 2.0, 1.2, rng.integers(8, 30))
        hole = buffer_point(Point(4.25 + rng.uniform(-0.05, 0.05), 2.0), 0.25, 9).outer.vertices
        polys.append(make_polygon([outer, hole]))
    return polys


def _vertices_on_lines(rng):
    # every vertex snapped onto a horizontal cell line, every other one onto
    # a cell corner
    polys = []
    for _ in range(6):
        pts = random_star(rng, 4.25, 2.0, 1.2, 12)
        snapped = []
        for k, p in enumerate(pts):
            x = 3.0 + round((p.x - 3.0) / 0.25) * 0.25 if k % 2 == 0 else p.x
            y = round(p.y / 0.25) * 0.25
            if not snapped or (x, y) != snapped[-1]:
                snapped.append((x, y))
        if snapped[0] == snapped[-1]:
            snapped.pop()
        polys.append(make_polygon([[Point(x, y) for x, y in snapped]]))
    return polys


def _edges_on_lines(rng):
    # rectilinear rings whose edges run along cell lines, one with a diagonal
    stairs = [(3.0, 1.0), (5.0, 1.0), (5.0, 1.5), (4.5, 1.5), (4.5, 2.25), (3.75, 3.0),
              (3.5, 3.0), (3.5, 2.0), (3.0, 2.0)]
    frame = [[(3.25, 1.25), (5.25, 1.25), (5.25, 3.25), (3.25, 3.25)],
             [(3.75, 1.75), (4.75, 1.75), (4.75, 2.75), (3.75, 2.75)]]
    return [make_polygon([[Point(x, y) for x, y in stairs]]),
            make_polygon([[Point(x, y) for x, y in ring] for ring in frame])]


def _below_one_cell(rng):
    return [buffer_point(Point(rng.uniform(3.2, 5.0), rng.uniform(1.2, 3.2)), 0.4 * 0.25, 64)
            for _ in range(6)]


# window: x0 = 3.0, ytop = 3.5, 0.25-sized cells, 12 rows x 10 columns
KERNEL_CASES = {
    "stars": _stars,
    "stars_with_holes": _stars_with_holes,
    "vertices_on_lines": _vertices_on_lines,
    "edges_on_lines": _edges_on_lines,
    "below_one_cell": _below_one_cell,
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_scalar_clipper(case, nprng):
    ras = Raster(10, 12, 3.0, 0.5, 0.25, -9999.0, np.zeros((12, 10)))
    for poly in KERNEL_CASES[case](nprng):
        # the whole raster, and the polygon's own window as covered_cells uses
        row0, col0, nrows, ncols = window(ras, bbox_of(poly))
        for win in ((3.0, 3.5, 12, 10), (3.0 + col0 * 0.25, 3.5 - row0 * 0.25, nrows, ncols)):
            got = kernel_cells(poly, *win[:2], 0.25, *win[2:])
            want = scalar_clip_cells(poly, *win[:2], 0.25, *win[2:])
            assert np.max(np.abs(got - want)) <= 1e-12
            # a cell the ring misses reads exactly 0, or zonal min/max and
            # frequency would pick it up
            assert np.all(got[want == 0.0] == 0.0)


def test_kernel_clamped_window(nprng):
    # rings reaching past the window on every side, as when a raster clamps
    # the window: cells inside the window are still exact
    for _ in range(6):
        poly = make_polygon([random_star(nprng, 4.25, 2.0, 2.5, 40)])
        for x0, ytop, nrows, ncols in ((3.0, 3.5, 12, 10), (2.5, 2.0, 5, 4), (4.0, 5.0, 6, 3)):
            got = kernel_cells(poly, x0, ytop, 0.25, nrows, ncols)
            want = scalar_clip_cells(poly, x0, ytop, 0.25, nrows, ncols)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_padded_windows_match_single_windows(nprng):
    # one kernel call over windows of different sizes, padded to the
    # largest, gives each window the bits of a call of its own, also where
    # the raster clamps a window on any side
    ras = Raster(23, 17, 1.0, 2.0, 0.5, -9999.0, np.zeros((17, 23)))
    polys = []
    for _ in range(30):
        cx, cy = nprng.uniform(-1.0, 14.0), nprng.uniform(0.0, 13.0)
        polys.append(make_polygon([random_star(nprng, cx, cy, nprng.uniform(0.2, 4.0),
                                               nprng.integers(5, 40))]))
    polys.append(square(30.0, 30.0, 1.0))  # outside the raster
    assert len({window(ras, bbox_of(p))[2:] for p in polys}) > 10
    owner, *batch = covered_cells(ras, polygon_set(polys), 32_000)
    for k, poly in enumerate(polys):
        _, *alone = covered_cells(ras, polygon_set([poly]), 32_000)
        for got, want in zip(batch, alone):
            got = got[owner == k]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _clip_case(case, rng):
    """(got, want) for one behaviour of clipping a ring to cells."""
    sq = square().outer
    if case == "contained":
        return kernel_cells(square(), 0.0, 1.0, 1.0, 1, 1)[0, 0], 1.0
    if case == "contained_star":
        poly = star_polygon(1.0, 2.0, 3.0, 1.2, points=6)
        return kernel_cells(poly, -2.5, 5.5, 7.0, 1, 1)[0, 0] * 49.0, signed_ring_area(poly.outer)
    if case == "half_overlap":
        return kernel_cells(square(), 0.5, 1.0, 1.0, 1, 1)[0, 0], 0.5
    if case == "disjoint":
        return kernel_cells(square(), 5.0, 6.0, 1.0, 1, 1)[0, 0], 0.0
    if case == "clockwise":
        cw = Polygon(Ring(list(reversed(sq.vertices))))
        return kernel_cells(cw, 0.25, 1.25, 1.0, 1, 1)[0, 0], -0.75 * 0.75
    # split_additivity: two cells split along a grid line at a random x add
    # up to the whole ring
    got, want = [], []
    for _ in range(50):
        poly = star_polygon(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1, 2),
                            rng.uniform(0.3, 0.9))
        xsplit = rng.uniform(-1.0, 1.0)
        got.append(kernel_cells(poly, xsplit - 4.0, 4.0, 4.0, 2, 2).sum() * 16.0)
        want.append(signed_ring_area(poly.outer))
    return np.array(got), np.array(want)


@pytest.mark.parametrize(
    "case",
    ["contained", "contained_star", "half_overlap", "disjoint", "clockwise", "split_additivity"],
)
def test_kernel_clip_cases(case, nprng):
    got, want = _clip_case(case, nprng)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestWindowForBBox:
    def test_full_extent(self):
        r = grid()
        assert window(r, r.extent()) == (0, 0, 4, 4)

    def test_inside_one_cell(self):
        r = grid()
        assert window(r, BBox(1.2, 1.2, 1.8, 1.8)) == (2, 1, 1, 1)

    def test_disjoint(self):
        r = grid()
        assert window(r, BBox(10, 10, 11, 11)) == (0, 0, 0, 0)
        assert window(r, BBox(-3, -3, -1, -1)) == (0, 0, 0, 0)

    def test_clamped_and_far_boxes(self):
        # one array call: windows clamped on every side, and boxes too far
        # off for an int cast of their cell index
        r = grid()
        boxes = np.array([[-2.5, 1.5, 1.5, 9.0], [2.5, -1.0, 7.0, 0.5],
                          [-1e300, -1e300, 1e300, 1e300], [1e300, 0.0, 2e300, 1.0]])
        assert [tuple(w) for w in np.stack(cell_windows(r, boxes), 1).tolist()] == [
            (0, 0, 3, 2), (3, 2, 1, 2), (0, 0, 4, 4), (0, 0, 0, 0)]


class TestCoverageFractions:
    def test_exact_cell_rectangle(self):
        assert coverage(grid(), square(1.0, 1.0, 1.0)) == {(2, 1): 1.0}

    def test_half_cell(self):
        # Left half of cell (row 2, col 1): [1, 1.5] x [1, 2].
        half = Polygon(
            Ring([Point(1, 1), Point(1.5, 1), Point(1.5, 2), Point(1, 2)])
        )
        cells = coverage(grid(), half)
        assert list(cells) == [(2, 1)]
        assert cells[(2, 1)] == pytest.approx(0.5)

    def test_circle_on_cell_corner_vs_mc_oracle(self):
        r = grid(8)
        poly = buffer_point(Point(4.0, 4.0), 1.5, 64)
        cells = coverage(r, poly)
        assert cells, "circle must cover cells"
        for (row, col), fraction in cells.items():
            oracle = mc_fraction_oracle(r, poly, row, col)
            assert fraction == pytest.approx(oracle, abs=2e-3)

    def test_conservation(self, rng):
        r = grid(10)
        for _ in range(20):
            poly = star_polygon(
                rng.uniform(3, 7), rng.uniform(3, 7), rng.uniform(1, 2.5), rng.uniform(0.4, 0.9)
            )
            total = sum(coverage(r, poly).values()) * r.cellsize**2
            assert total == pytest.approx(polygon_area(poly), rel=1e-9)

    def test_axis_aligned_exactness(self):
        cells = coverage(grid(), square(1.0, 0.0, 3.0))
        assert all(f == 1.0 for f in cells.values())
        assert len(cells) == 9

    def test_window_cropping_transparency(self):
        # Fractions are a function of the cell and the polygon alone, so the
        # same cells come back regardless of raster extent around them.
        poly = star_polygon(2.0, 2.0, 1.4, 0.5)
        small = grid(4)
        big = Raster(8, 8, -2.0, -2.0, 1.0, -9999.0, np.zeros((8, 8)))
        got_small = coverage(small, poly)
        got_big = {(row - 2, col - 2): f for (row, col), f in coverage(big, poly).items()}
        shared = {k: v for k, v in got_big.items() if 0 <= k[0] < 4 and 0 <= k[1] < 4}
        assert got_small == shared


class TestZonalStat:
    def test_constant_mean(self):
        r = grid(4, np.full((4, 4), 5.0))
        assert zonal(r, square(0, 0, 4.0), "mean")["mean"] == 5.0

    def test_plain_average(self):
        r = grid(2, np.array([[1.0, 2.0], [3.0, 4.0]]))
        res = zonal(r, square(0, 0, 2.0), "mean")
        assert res["mean"] == 2.5
        assert res["count"] == 4.0

    def test_frequency(self):
        r = grid(2, np.array([[7.0, 7.0], [7.0, 9.0]]), kind="categorical")
        res = zonal(r, square(0, 0, 2.0), "frequency")
        assert res == {"id": "g0", "freq_7": 3.0, "freq_9": 1.0, "count": 4.0}

    def test_nodata_excluded(self):
        vals = np.array([[1.0, -9999.0], [3.0, 5.0]])
        res = zonal(grid(2, vals), square(0, 0, 2.0), "mean")
        assert res["mean"] == pytest.approx(3.0)
        assert res["count"] == 3.0

    def test_all_nodata_null(self):
        r = grid(2, np.full((2, 2), -9999.0))
        res = zonal(r, square(0, 0, 2.0), "mean")
        assert res["mean"] is None
        assert res["count"] == 0.0

    def test_stdev_population(self):
        r = grid(2, np.array([[1.0, 2.0], [3.0, 4.0]]))
        res = zonal(r, square(0, 0, 2.0), "stdev")
        assert res["stdev"] == pytest.approx(math.sqrt(1.25))

    def test_min_max_and_mean_bounds(self, rng):
        r = grid(6, np.array([[rng.uniform(0, 10) for _ in range(6)] for _ in range(6)]))
        poly = star_polygon(3.0, 3.0, 2.5, 1.0)
        lo = zonal(r, poly, "min")["min"]
        hi = zonal(r, poly, "max")["max"]
        mu = zonal(r, poly, "mean")["mean"]
        assert lo <= mu <= hi

    def test_frequency_requires_categorical(self):
        polys = FeatureSet([Feature("a", square(0, 0, 2.0))])
        with pytest.raises(InvalidParameterError):
            extract_at(grid(2), polys, stat="frequency")


@pytest.mark.parametrize("field", ["xll", "yll", "cellsize"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_georeference_rejected(field, value):
    # a NaN cellsize once built a raster on which every extract_at read None
    fields = {"xll": 0.0, "yll": 0.0, "cellsize": 1.0, field: value}
    with pytest.raises(InvalidParameterError, match=f"^{field} must be finite, got {value}$"):
        Raster(2, 2, fields["xll"], fields["yll"], fields["cellsize"], -9999.0, np.ones((2, 2)))


STATS = ("mean", "sum", "count", "min", "max", "stdev")


class TestZonalStatsReducer:
    """raster.zonal_stats, the one reducer of buffered points and polygons
    for every statistic but frequency (TestCategorySums)."""

    def test_uncounted_cells_add_nothing(self):
        # a cell of weight 0 counts for nothing, whatever its value
        v = np.array([[2.0, np.nan, 4.0, np.inf, 1.0, -np.inf]])
        w = np.array([[0.5, 0.0, 1.0, 0.0, 0.25, 0.0]])
        for stat in STATS:
            got = zonal_stats(v, w, stat)
            want = zonal_stats(v[:, [0, 2, 4]], w[:, [0, 2, 4]], stat)
            assert repr(got) == repr(want), stat
        assert zonal_stats(v, w, "mean") == ([(1.0 + 4.0 + 0.25) / 1.75], [1.75])

    def test_counted_nan_is_nan(self):
        v = np.array([[1.0, np.nan, 3.0]])
        w = np.ones((1, 3))
        for stat in ("mean", "sum", "stdev", "min", "max"):
            (value,), _ = zonal_stats(v, w, stat)
            assert math.isnan(value), stat

    @pytest.mark.parametrize("cells", [0, 3])
    def test_row_without_counted_cell(self, cells):
        # zero cells, or only weight-0 cells: None (no identity for min and
        # max), count 0.0
        v, w = np.full((2, cells), 5.0), np.zeros((2, cells))
        for stat in STATS:
            assert zonal_stats(v, w, stat) == ([None, None], [0.0, 0.0]), stat

    def test_rows_are_independent(self, nprng):
        v = nprng.uniform(-5, 5, (7, 40))
        w = np.where(nprng.random((7, 40)) < 0.3, 0.0, nprng.random((7, 40)))
        for stat in STATS:
            together = zonal_stats(v, w, stat)
            for i in range(7):
                alone = zonal_stats(v[i : i + 1], w[i : i + 1], stat)
                assert repr((together[0][i], together[1][i])) == repr((alone[0][0], alone[1][0]))


def freq_table(rows, v, w, n):
    """category_sums as {freq_column: one value per row}, in its order."""
    cats, sums = category_sums(np.asarray(rows), np.asarray(v, float), np.asarray(w, float), n)
    assert sums.shape == (n, cats.size) and sums.dtype == np.float64
    return {freq_column(c): column for c, column in zip(cats.tolist(), sums.T.tolist())}


def one_row(v, w):
    """freq_table of the cells of one row (a 2-D (1, m) v and w, as rows)."""
    v, w = np.atleast_2d(v), np.atleast_2d(w)
    return freq_table(np.zeros(v.shape, np.intp), v, w, 1)


class TestCategorySums:
    """raster.category_sums, the frequency reducer, against the per-row dict
    loop it replaced (scalar_reference.frequency_columns): the same names,
    the same order and the same bits."""

    def test_uncounted_cells_add_nothing(self):
        # a cell of weight 0 counts for nothing, whatever its value: its
        # category gets no column
        v = np.array([[2.0, np.nan, 4.0, np.inf, 1.0, -np.inf]])
        w = np.array([[0.5, 0.0, 1.0, 0.0, 0.25, 0.0]])
        got = one_row(v, w)
        assert repr(got) == repr(one_row(v[:, [0, 2, 4]], w[:, [0, 2, 4]]))
        assert got == {"freq_1": [0.25], "freq_2": [0.5], "freq_4": [1.0]}

    def test_counted_nan_is_a_category(self):
        # every counted NaN cell falls in one NaN category, last
        v = np.array([[np.nan, 1.0, np.nan, 3.0, np.nan]])
        got = one_row(v, np.array([[1.0, 1.0, 0.5, 1.0, 0.25]]))
        assert repr(got) == "{'freq_1': [1.0], 'freq_3': [1.0], 'freq_nan': [1.75]}"

    @pytest.mark.parametrize("cells", [0, 3])
    def test_row_without_counted_cell(self, cells):
        # zero cells, or only weight-0 cells: no category, an (n, 0) array
        rows = np.repeat(np.arange(2), cells)
        cats, sums = category_sums(rows, np.full(2 * cells, 5.0), np.zeros(2 * cells), 2)
        assert cats.shape == (0,) and sums.shape == (2, 0)
        # with another row's counted cell, these rows read 0.0 in its column
        got = freq_table([*rows, 2], [*[5.0] * (2 * cells), 7.0], [*[0.0] * (2 * cells), 0.5], 4)
        assert repr(got) == "{'freq_7': [0.0, 0.0, 0.5, 0.0]}"

    def test_rows_are_independent(self, nprng):
        v = np.floor(nprng.uniform(-5, 5, (7, 40)))
        w = np.where(nprng.random((7, 40)) < 0.3, 0.0, nprng.random((7, 40)))
        together = freq_table(np.repeat(np.arange(7), 40), v.ravel(), w.ravel(), 7)
        for i in range(7):
            alone = one_row(v[i], w[i])
            assert repr(alone) == repr({c: [together[c][i]] for c in alone})
            # categories only other rows have read 0.0
            assert all(together[c][i] == 0.0 for c in set(together) - set(alone))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_row_dict_loop(self, seed):
        # rows in any order, rows past the last cell's, NaN, signed zeros,
        # infinities, fractions, huge integers and weight-0 cells
        rng = np.random.default_rng(seed)
        pool = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 3.0, -2.0, 0.5, 1e20, 7.25, 2.0])
        m, n = int(rng.integers(0, 400)), int(rng.integers(1, 30))
        rows = rng.integers(0, max(1, n - 3), m)
        v = rng.choice(pool[: rng.integers(1, pool.size + 1)], m)
        w = np.where(rng.random(m) < 0.3, 0.0, rng.random(m) * 10.0 ** rng.integers(-6, 6, m))
        got = freq_table(rows, v, w, n)
        want = frequency_columns(rows.tolist(), v.tolist(), w.tolist(), n)
        assert list(got) == list(want)
        assert repr(got) == repr(want)


def test_numpy_row_reduction_has_1d_bits():
    # the polygon path reduces each polygon as one (1, m) row and keeps the
    # bytes of the 1-D reductions it replaced only while NumPy's axis-1 sum,
    # min and max of a (1, m) row have the bits of the 1-D ones, signed
    # zeros included
    rng = np.random.default_rng(299)
    for n in [*range(1, 300), 513, 1000, 4097]:
        mixed = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 8, n)
        signed = rng.choice([0.0, -0.0, 1.0, -1.0], n)
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        for a in (mixed, signed, zeros):
            for reduce in (np.sum, np.min, np.max):
                got, want = reduce(a[None], axis=1)[0], reduce(a)
                assert got.tobytes() == want.tobytes(), (reduce.__name__, n, got, want)


class TestValueAtPoint:
    """extract_at at radius 0 reads the cell under the point."""

    def test_cell_center(self):
        assert value_at(grid(), 1.5, 3.5) == 1.0  # row 0, col 1

    def test_outside(self):
        assert value_at(grid(), -1, -1) is None

    def test_half_open_vertical_edge(self):
        # On an interior vertical edge the cell to the right wins.
        assert value_at(grid(), 2.0, 3.5) == 2.0  # col 2, not col 1

    def test_nodata_is_none(self):
        vals = np.full((2, 2), -9999.0)
        assert value_at(grid(2, vals), 0.5, 0.5) is None
