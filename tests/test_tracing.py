"""The benchmark's tracer (perfbench/tracing.py) still reads what it probes:
traced sedc and nearest runs, at one and two workers, record no probe error
and the counts the written CSVs imply."""

import csv
import os
import sys

import numpy as np
import pytest

import gridchop.cli as cli
from gridchop.cli import EXIT_OK, EXIT_PARTIAL

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from tracing import Tracer  # noqa: E402


@pytest.fixture
def inputs(tmp_path):
    """40 anchors, 60 sources (one with a bad value in a corner) and 5 lines."""
    rng = np.random.default_rng(3)
    anchors = ["id,x,y"] + [f"a{i},{x!r},{y!r}"
                            for i, (x, y) in enumerate(rng.uniform(0, 10, (40, 2)).tolist())]
    sources = ["id,x,y,v"] + [f"s{i},{x!r},{y!r},{v!r}" for i, (x, y, v)
                              in enumerate(rng.uniform(0, 10, (60, 3)).tolist())]
    sources.append("bad,9.5,9.5,oops")
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
def test_traced_sedc(inputs, workers):
    out = inputs / "sedc.csv"
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
