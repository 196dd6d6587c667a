"""Planar geometry primitives and predicates.

All coordinates are planar Euclidean in CRS units; callers own any
reprojection. Every function here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidParameterError(f"non-finite point coordinates ({self.x}, {self.y})")


@dataclass(frozen=True)
class BBox:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        for v in (self.xmin, self.ymin, self.xmax, self.ymax):
            if not math.isfinite(v):
                raise InvalidParameterError("non-finite bbox coordinate")
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise InvalidParameterError(f"inverted bbox {self}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def expand(self, pad: float) -> "BBox":
        return BBox(self.xmin - pad, self.ymin - pad, self.xmax + pad, self.ymax + pad)

    def intersects(self, other: "BBox") -> bool:
        return not (
            other.xmax < self.xmin
            or other.xmin > self.xmax
            or other.ymax < self.ymin
            or other.ymin > self.ymax
        )

    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    @staticmethod
    def union(boxes: list["BBox"]) -> "BBox":
        if not boxes:
            raise InvalidParameterError("union of zero boxes")
        return BBox(
            min(b.xmin for b in boxes),
            min(b.ymin for b in boxes),
            max(b.xmax for b in boxes),
            max(b.ymax for b in boxes),
        )


@dataclass
class Ring:
    """Closed ring stored open (first vertex != last)."""

    vertices: list[Point]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise InvalidParameterError("ring needs at least 3 vertices")
        prev = self.vertices[-1]
        for v in self.vertices:
            if v.x == prev.x and v.y == prev.y:
                raise InvalidParameterError("consecutive duplicate ring vertices")
            prev = v


@dataclass
class Polygon:
    """Outer ring counterclockwise, holes clockwise."""

    outer: Ring
    holes: list[Ring] = field(default_factory=list)


@dataclass
class Polyline:
    vertices: list[Point]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise InvalidParameterError("polyline needs at least 2 vertices")
        prev = None
        for v in self.vertices:
            if prev is not None and v.x == prev.x and v.y == prev.y:
                raise InvalidParameterError("consecutive duplicate polyline vertices")
            prev = v


Geometry = Point | Polyline | Polygon


def signed_ring_area(ring: Ring) -> float:
    """Shoelace area; positive for counterclockwise rings."""
    verts = ring.vertices
    total = 0.0
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return 0.5 * total


def make_polygon(rings: list[list[Point]]) -> Polygon:
    """Build a polygon from raw vertex lists, fixing ring orientations."""
    oriented = []
    for i, pts in enumerate(rings):
        ring = Ring(list(pts))
        area = signed_ring_area(ring)
        want_ccw = i == 0
        if (area > 0) != want_ccw:
            ring = Ring(list(reversed(ring.vertices)))
        oriented.append(ring)
    return Polygon(oriented[0], oriented[1:])


def bbox_of(geometry: Geometry) -> BBox:
    if isinstance(geometry, Point):
        return BBox(geometry.x, geometry.y, geometry.x, geometry.y)
    if isinstance(geometry, Polyline):
        verts = geometry.vertices
    elif isinstance(geometry, Polygon):
        verts = geometry.outer.vertices
    else:
        raise InvalidParameterError(f"unsupported geometry {type(geometry)}")
    xs = [v.x for v in verts]
    ys = [v.y for v in verts]
    return BBox(min(xs), min(ys), max(xs), max(ys))


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if cross != 0.0:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def _ring_crossings(p: Point, ring: Ring) -> int:
    count = 0
    verts = ring.vertices
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            xcross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if xcross > p.x:
                count += 1
    return count


def point_in_polygon(p: Point, poly: Polygon) -> bool:
    """Even-odd test; points on any ring boundary count as inside."""
    for ring in [poly.outer, *poly.holes]:
        verts = ring.vertices
        n = len(verts)
        for i in range(n):
            if _on_segment(p, verts[i], verts[(i + 1) % n]):
                return True
    crossings = _ring_crossings(p, poly.outer)
    for hole in poly.holes:
        crossings += _ring_crossings(p, hole)
    return crossings % 2 == 1


def polygon_area(poly: Polygon) -> float:
    area = abs(signed_ring_area(poly.outer))
    for hole in poly.holes:
        area -= abs(signed_ring_area(hole))
    return area
