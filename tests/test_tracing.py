"""The benchmark's tracer (perfbench/tracing.py) still reads what it probes:
traced sedc, nearest, area-weighted and polygon extract runs, at one and two
workers, record no probe error and the counts the written CSVs imply."""

import csv
import json
import os
import sys

import numpy as np
import pytest

import gridchop.cli as cli
from gridchop.cli import EXIT_OK, EXIT_PARTIAL
from gridchop.dataio import write_raster
from gridchop.raster import Raster

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from tracing import Tracer  # noqa: E402

from conftest import poison_chunks  # noqa: E402


@pytest.fixture
def inputs(tmp_path):
    """40 anchors, 60 sources and 5 lines."""
    rng = np.random.default_rng(3)
    anchors = ["id,x,y"] + [f"a{i},{x!r},{y!r}"
                            for i, (x, y) in enumerate(rng.uniform(0, 10, (40, 2)).tolist())]
    sources = ["id,x,y,v"] + [f"s{i},{x!r},{y!r},{v!r}" for i, (x, y, v)
                              in enumerate(rng.uniform(0, 10, (60, 3)).tolist())]
    (tmp_path / "anchors.csv").write_text("\n".join(anchors) + "\n")
    (tmp_path / "sources.csv").write_text("\n".join(sources) + "\n")
    lines = ",".join(
        '{"type": "Feature", "properties": {"id": "l%d"}, "geometry": {"type": "LineString", '
        '"coordinates": %s}}' % (k, rng.uniform(0, 10, (2 + k % 3, 2)).tolist())
        for k in range(5)
    )
    (tmp_path / "lines.geojson").write_text(
        '{"type": "FeatureCollection", "features": [' + lines + "]}")
    assert cli.main(["partition", "--input", str(tmp_path / "anchors.csv"), "--nx", "2",
                     "--ny", "2", "--out", str(tmp_path / "parts.json")]) == EXIT_OK
    return tmp_path


def _polygon_feature(fid, rings, props):
    return ('{"type": "Feature", "properties": %s, "geometry": {"type": "Polygon", '
            '"coordinates": %s}}' % (json.dumps({"id": fid, **props}), json.dumps(rings)))


@pytest.fixture
def polygon_inputs(tmp_path):
    """30 polygons in 4 zones (every third with a hole), 25 square sources
    of side 2 with a value, and a 10 x 10 raster."""
    rng = np.random.default_rng(5)
    polys = []
    for k in range(30):
        cx, cy = rng.uniform(1.5, 8.5, 2).tolist()
        theta = 2.0 * np.pi * (np.arange(7) + rng.uniform(0, 1, 7)) / 7
        rad = rng.uniform(0.6, 1.2, 7)
        outer = np.column_stack([cx + rad * np.cos(theta), cy + rad * np.sin(theta)]).tolist()
        rings = [outer + outer[:1]]
        if k % 3 == 0:
            rings.append([[cx - 0.2, cy - 0.2], [cx - 0.2, cy + 0.2], [cx + 0.2, cy + 0.2],
                          [cx - 0.2, cy - 0.2]])
        polys.append(_polygon_feature(f"g{k}", rings, {"zone": f"z{int(cx // 5)}{int(cy // 5)}"}))
    sources = [_polygon_feature(f"s{i}_{j}", [[[x, y], [x + 2, y], [x + 2, y + 2], [x, y + 2],
                                                [x, y]]], {"pop": float(i * 5 + j)})
               for i, x in enumerate(range(0, 10, 2)) for j, y in enumerate(range(0, 10, 2))]
    for name, feats in (("polygons.geojson", polys), ("sources.geojson", sources)):
        (tmp_path / name).write_text(
            '{"type": "FeatureCollection", "features": [' + ", ".join(feats) + "]}")
    write_raster(Raster(10, 10, 0.0, 0.0, 1.0, -9999.0, rng.uniform(0, 10, (10, 10))),
                 str(tmp_path / "raster.asc"))
    return tmp_path


def traced(argv):
    tracer = Tracer()
    tracer.install("job")
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    return code, tracer


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("workers", ["1", "2"])
def test_traced_sedc(inputs, workers, monkeypatch):
    out = inputs / "sedc.csv"
    poison_chunks(monkeypatch, "a0")
    code, tracer = traced([
        "run", "--task", "sedc", "--x", str(inputs / "sources.csv"),
        "--y", str(inputs / "anchors.csv"), "--partition", str(inputs / "parts.json"),
        "--bandwidth", "1.0", "--value-cols", "v", "--workers", workers, "--out", str(out),
    ])
    assert code == EXIT_PARTIAL
    assert tracer.probe_errors == set()
    rows = read_rows(out)
    errors = [r for r in rows if r["error"]]
    assert 0 < len(errors) < len(rows) == 40
    assert tracer.counts["executor.error_rows"] == len(errors)
    contributions = sum(int(r["count"]) for r in rows if not r["error"])
    assert contributions > 0
    assert tracer.counts["geoops.sedc_contributions"] == contributions
    assert tracer.counts["geoops.sedc_pairs"] >= contributions


@pytest.mark.parametrize("workers", ["1", "2"])
def test_traced_nearest(inputs, workers):
    out = inputs / "nearest.csv"
    code, tracer = traced([
        "run", "--task", "nearest", "--x", str(inputs / "lines.geojson"),
        "--y", str(inputs / "anchors.csv"), "--partition", str(inputs / "parts.json"),
        "--workers", workers, "--out", str(out),
    ])
    assert code == EXIT_OK
    assert tracer.probe_errors == set()
    assert len(read_rows(out)) == 40
    assert tracer.counts["executor.error_rows"] == 0
    assert tracer.counts["geoops.nearest_pairs"] > 0
    assert tracer.counts["executor.context_anchors"] >= 40


@pytest.mark.parametrize("workers", ["1", "2"])
def test_traced_summarize_aw(polygon_inputs, workers):
    out = polygon_inputs / "aw.csv"
    code, tracer = traced([
        "run", "--task", "summarize_aw", "--x", str(polygon_inputs / "sources.geojson"),
        "--y", str(polygon_inputs / "polygons.geojson"), "--hierarchy", "zone",
        "--value-cols", "pop", "--workers", workers, "--out", str(out),
    ])
    assert code == EXIT_OK
    assert tracer.probe_errors == set()
    rows = read_rows(out)
    assert len(rows) == 30 and all(r["pop_mean"] for r in rows)
    assert tracer.counts["executor.error_rows"] == 0
    assert tracer.counts["geoops.aw_pairs"] > 0
    assert 0 < tracer.counts["geoops.aw_bbox_pairs"] <= tracer.counts["geoops.aw_pairs"]
    assert tracer.counts["executor.context_anchors"] == 30


@pytest.mark.parametrize("workers", ["1", "2"])
def test_traced_polygon_extract(polygon_inputs, workers):
    out = polygon_inputs / "extract.csv"
    code, tracer = traced([
        "run", "--task", "extract_at", "--x", str(polygon_inputs / "raster.asc"),
        "--y", str(polygon_inputs / "polygons.geojson"), "--hierarchy", "zone",
        "--stat", "mean", "--workers", workers, "--out", str(out),
    ])
    assert code == EXIT_OK
    assert tracer.probe_errors == set()
    rows = read_rows(out)
    assert len(rows) == 30 and all(float(r["count"]) > 0 for r in rows)
    assert tracer.counts["executor.error_rows"] == 0
    assert tracer.counts["dataio.features_read"] == 30
