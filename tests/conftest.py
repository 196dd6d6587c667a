import math
import random
import sys

import numpy as np
import pytest

from gridchop import Feature, FeatureSet, Point, Polygon, Ring, ResultTable, executor


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "REPORT_LINES", ())
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def with_ids(table: ResultTable, anchors: FeatureSet) -> ResultTable:
    """An op's table with its anchors' ids as the first column, "id", as a
    run attaches them at merge."""
    return ResultTable({"id": anchors.ids(), **table.data})


def poison_chunks(monkeypatch, anchor_id=None):
    """Make every chunk whose anchors hold anchor_id (every chunk, if None)
    fail in its op as float("bad") does. A forked worker inherits the patch."""
    original = executor._apply_op

    def poisoned(run, context, anchors):
        if anchor_id is None or anchor_id in anchors.ids():
            float("bad")
        return original(run, context, anchors)

    monkeypatch.setattr(executor, "_apply_op", poisoned)


def polygon_set(polys) -> FeatureSet:
    """The polygons as a set, in order, as the polygon kernels take them."""
    return FeatureSet([Feature(f"g{i}", p) for i, p in enumerate(polys)])


def square(x0=0.0, y0=0.0, size=1.0) -> Polygon:
    return Polygon(
        Ring(
            [
                Point(x0, y0),
                Point(x0 + size, y0),
                Point(x0 + size, y0 + size),
                Point(x0, y0 + size),
            ]
        )
    )


def square_with_hole() -> Polygon:
    outer = Ring([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
    hole = Ring([Point(0.25, 0.25), Point(0.25, 0.75), Point(0.75, 0.75), Point(0.75, 0.25)])
    return Polygon(outer, [hole])


def star_polygon(cx, cy, r_outer, r_inner, points=5, phase=0.0) -> Polygon:
    verts = []
    for i in range(2 * points):
        r = r_outer if i % 2 == 0 else r_inner
        theta = phase + math.pi * i / points
        verts.append(Point(cx + r * math.cos(theta), cy + r * math.sin(theta)))
    return Polygon(Ring(verts))


def random_star(rng: np.random.Generator, cx, cy, radius, nv) -> list[Point]:
    """Simple ring: one vertex per equal angular sector around (cx, cy)."""
    theta = 2.0 * np.pi * (np.arange(nv) + rng.uniform(0.0, 1.0, nv)) / nv
    rad = radius * rng.uniform(0.4, 1.0, nv)
    return [Point(cx + q * math.cos(a), cy + q * math.sin(a))
            for a, q in zip(theta.tolist(), rad.tolist())]


def random_convex_polygon(rng: random.Random, cx, cy, radius) -> Polygon:
    n = rng.randint(5, 12)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    verts = [
        Point(cx + radius * math.cos(a), cy + radius * math.sin(a)) for a in angles
    ]
    return Polygon(Ring(verts))


@pytest.fixture
def rng():
    return random.Random(20260826)


@pytest.fixture
def nprng():
    return np.random.default_rng(20260826)
