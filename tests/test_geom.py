import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridchop import (
    BBox,
    InvalidParameterError,
    Point,
    Polygon,
    Polyline,
    Ring,
    bbox_of,
)

from conftest import square, square_with_hole, star_polygon
from scalar_reference import buffer_point, point_in_polygon, point_segment_distance, polygon_area


class TestBBoxOf:
    def test_point_degenerate(self):
        assert bbox_of(Point(2, 3)) == BBox(2, 3, 2, 3)

    def test_unit_square(self):
        assert bbox_of(square()) == BBox(0, 0, 1, 1)

    def test_polyline(self):
        assert bbox_of(Polyline([Point(0, 0), Point(5, -1)])) == BBox(0, -1, 5, 0)


class TestPointInPolygon:
    def test_inside(self):
        assert point_in_polygon(Point(0.5, 0.5), square())

    def test_outside(self):
        assert not point_in_polygon(Point(2, 2), square())

    def test_inside_hole(self):
        assert not point_in_polygon(Point(0.5, 0.5), square_with_hole())

    def test_boundary_is_inside(self):
        assert point_in_polygon(Point(0, 0.5), square())
        assert point_in_polygon(Point(0.25, 0.5), square_with_hole())

    def test_matches_crossing_number_oracle(self, rng):
        """Brute-force crossing-number oracle over 1000 random points."""
        poly = star_polygon(0.0, 0.0, 2.0, 0.8, points=7, phase=0.3)
        verts = poly.outer.vertices
        edges = [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]

        def oracle(p):
            count = 0
            for a, b in edges:
                if (a.y > p.y) != (b.y > p.y):
                    if p.x < a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y):
                        count += 1
            return count % 2 == 1

        def near_edge(p):
            return any(point_segment_distance(p, a, b) < 1e-12 for a, b in edges)

        for _ in range(1000):
            p = Point(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            if near_edge(p):
                continue
            assert point_in_polygon(p, poly) == oracle(p)


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area(square()) == 1.0

    def test_triangle(self):
        tri = Polygon(Ring([Point(0, 0), Point(1, 0), Point(0, 1)]))
        assert polygon_area(tri) == 0.5

    def test_square_with_hole(self):
        assert polygon_area(square_with_hole()) == pytest.approx(0.75)


class TestBufferPoint:
    """The reference buffer polygon that extract_at's batched buffers match."""

    def test_four_segments_is_rotated_square(self):
        with pytest.raises(InvalidParameterError):
            buffer_point(Point(0, 0), 1.0, 4)
        poly = buffer_point(Point(0, 0), 1.0, 8)
        v0 = poly.outer.vertices[0]
        assert (v0.x, v0.y) == pytest.approx((1.0, 0.0))

    def test_inscribed_polygon_area(self):
        # Closed-form inscribed-polygon area (n/2) r^2 sin(2 pi / n).
        n = 64
        poly = buffer_point(Point(0, 0), 1.0, n)
        assert polygon_area(poly) == pytest.approx((n / 2) * math.sin(2 * math.pi / n), rel=1e-12)

    def test_bbox_inscribed(self):
        box = bbox_of(buffer_point(Point(5, 5), 2.0, 64))
        assert 3 <= box.xmin and 3 <= box.ymin and box.xmax <= 7 and box.ymax <= 7

    def test_area_converges_to_circle(self):
        target = math.pi * 4.0
        e64 = abs(polygon_area(buffer_point(Point(0, 0), 2.0, 64)) - target)
        e256 = abs(polygon_area(buffer_point(Point(0, 0), 2.0, 256)) - target)
        assert e256 < e64

    def test_invalid_radius(self):
        with pytest.raises(InvalidParameterError):
            buffer_point(Point(0, 0), 0.0)
        with pytest.raises(InvalidParameterError):
            buffer_point(Point(0, 0), -1.0)


class TestPointSegmentDistance:
    """The reference distance that nearest_distance matches bit for bit."""

    def test_perpendicular_foot(self):
        assert point_segment_distance(Point(0, 1), Point(-1, 0), Point(1, 0)) == 1.0

    def test_endpoint(self):
        assert point_segment_distance(Point(2, 0), Point(-1, 0), Point(1, 0)) == 1.0

    def test_degenerate_segment(self):
        assert point_segment_distance(Point(3, 4), Point(0, 0), Point(0, 0)) == 5.0

    @given(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(-100, 100), st.floats(-100, 100),
    )
    @settings(max_examples=200)
    def test_never_negative_and_bounded_by_endpoints(self, px, py, ax, ay, bx, by):
        p, a, b = Point(px, py), Point(ax, ay), Point(bx, by)
        d = point_segment_distance(p, a, b)
        da = math.sqrt((px - ax) ** 2 + (py - ay) ** 2)
        db = math.sqrt((px - bx) ** 2 + (py - by) ** 2)
        assert 0.0 <= d <= min(da, db) + 1e-9


class TestValidation:
    def test_ring_needs_three_vertices(self):
        with pytest.raises(InvalidParameterError):
            Ring([Point(0, 0), Point(1, 1)])

    def test_no_consecutive_duplicates(self):
        with pytest.raises(InvalidParameterError):
            Ring([Point(0, 0), Point(0, 0), Point(1, 1), Point(0, 1)])

    def test_nonfinite_point_rejected(self):
        with pytest.raises(InvalidParameterError):
            Point(float("nan"), 0.0)

    def test_inverted_bbox_rejected(self):
        with pytest.raises(InvalidParameterError):
            BBox(1, 0, 0, 1)
