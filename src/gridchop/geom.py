"""Planar geometry objects: one object per geometry and per vertex.

Feature sets store geometry as flat arrays (see dataio.FeatureSet); these
objects are what its `features` view builds and what `FeatureSet(features)`
reads. All coordinates are planar Euclidean in CRS units; callers own any
reprojection.
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

    @property
    def parts(self) -> list[list["Point"]]:
        """The vertex lists of the geometry: a point is one part of one vertex."""
        return [[self]]


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

    @property
    def parts(self) -> list[list[Point]]:
        """The outer ring's vertices, then each hole's."""
        return [self.outer.vertices, *(h.vertices for h in self.holes)]


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

    @property
    def parts(self) -> list[list[Point]]:
        """The line's vertices, as its one part."""
        return [self.vertices]


Geometry = Point | Polyline | Polygon


def bbox_of(geometry: Geometry) -> BBox:
    """The bbox of a point, of a line, or of a polygon's outer ring."""
    verts = geometry.parts[0]
    xs = [v.x for v in verts]
    ys = [v.y for v in verts]
    return BBox(min(xs), min(ys), max(xs), max(ys))
