"""`chop` CLI: subcommands, exit codes, config files, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridchop
from gridchop import dataio
from gridchop.cli import EXIT_INPUT, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from gridchop.dataio import load_partitions, write_raster
from gridchop.errors import LoadError
from gridchop.raster import Raster

SRC = os.path.dirname(os.path.dirname(gridchop.__file__))


@pytest.fixture
def workspace(tmp_path):
    """points.csv (23 points), raster.asc (20x20) and a partition file."""
    rng = np.random.default_rng(0)
    lines = ["id,x,y,v"]
    for i in range(23):
        x, y = (float(v) for v in rng.uniform(1, 19, 2))
        lines.append(f"p{i},{x!r},{y!r},{float(rng.uniform(0, 5))!r}")
    pts = tmp_path / "points.csv"
    pts.write_text("\n".join(lines) + "\n")
    raster = tmp_path / "raster.asc"
    write_raster(
        Raster(20, 20, 0.0, 0.0, 1.0, -9999.0, rng.uniform(0, 10, (20, 20))),
        str(raster),
    )
    parts = tmp_path / "parts.json"
    rc = main([
        "partition", "--input", str(pts), "--mode", "grid",
        "--nx", "2", "--ny", "2", "--out", str(parts),
    ])
    assert rc == EXIT_OK
    return tmp_path


class TestPartitionCommand:
    def test_grid_4x2(self, workspace):
        out = workspace / "p8.json"
        rc = main([
            "partition", "--input", str(workspace / "points.csv"),
            "--mode", "grid", "--nx", "4", "--ny", "2", "--out", str(out),
        ])
        assert rc == EXIT_OK
        parts = load_partitions(str(out))
        assert len(parts.chunks) == 8

    def test_padding_accepted_and_ignored(self, workspace, capsys):
        # scripts for earlier versions pass --padding; it changes no byte
        args = ["partition", "--input", str(workspace / "points.csv"), "--mode", "grid",
                "--nx", "2", "--ny", "2"]
        assert main([*args, "--padding", "3", "--out", str(workspace / "pad.json")]) == EXIT_OK
        assert main([*args, "--out", str(workspace / "plain.json")]) == EXIT_OK
        assert (workspace / "pad.json").read_bytes() == (workspace / "plain.json").read_bytes()
        capsys.readouterr()
        assert main(["partition", "--help"]) == EXIT_OK
        assert "--padding" not in capsys.readouterr().out

    def test_balanced_sizes(self, workspace):
        out = workspace / "bal.json"
        rc = main([
            "partition", "--input", str(workspace / "points.csv"),
            "--mode", "balanced", "--groups", "5", "--out", str(out),
        ])
        assert rc == EXIT_OK
        parts = load_partitions(str(out))
        sizes = sorted(len(c.member_ids) for c in parts.chunks)
        assert sizes == [4, 4, 5, 5, 5]

    def test_missing_input_usage_error(self, capsys):
        assert main(["partition", "--out", "x.json"]) == EXIT_USAGE

    def test_invalid_json_input_load_error(self, tmp_path, capsys):
        # this once ended in a JSONDecodeError traceback
        bad = tmp_path / "f.geojson"
        bad.write_text('{"mode": ')
        rc = main(["partition", "--input", str(bad), "--out", str(tmp_path / "o.json")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"load error: {bad}: not valid JSON: Expecting value: line 1 column 10 (char 9)\n")

    def test_nonexistent_input_load_error(self, tmp_path):
        rc = main([
            "partition", "--input", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "o.json"),
        ])
        assert rc == EXIT_INPUT


class TestRunCommand:
    def test_extract_mean(self, workspace):
        out = workspace / "res.csv"
        rc = main([
            "run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
            "--y", str(workspace / "points.csv"), "--radius", "1.5",
            "--partition", str(workspace / "parts.json"), "--out", str(out),
        ])
        assert rc == EXIT_OK
        header = out.read_bytes().split(b"\r\n")[0].decode()
        assert "mean" in header.split(",")
        assert len(out.read_bytes().split(b"\r\n")) >= 24  # header + 23 rows

    def test_workers_identical_output(self, workspace):
        outs = []
        for w, name in ((1, "w1.csv"), (8, "w8.csv")):
            out = workspace / name
            rc = main([
                "run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
                "--y", str(workspace / "points.csv"), "--radius", "1.5",
                "--partition", str(workspace / "parts.json"),
                "--workers", str(w), "--out", str(out),
            ])
            assert rc == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_hierarchy_run(self, workspace):
        # give each point a group column by rewriting the csv
        src = (workspace / "points.csv").read_text().splitlines()
        rows = [src[0] + ",grp"]
        for i, line in enumerate(src[1:]):
            rows.append(line + ("," + ("a" if i % 2 else "b")))
        (workspace / "pts2.csv").write_text("\n".join(rows) + "\n")
        out = workspace / "h.csv"
        rc = main([
            "run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
            "--y", str(workspace / "pts2.csv"), "--hierarchy", "grp",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert b"group" in out.read_bytes().split(b"\r\n")[0]

    def test_hierarchy_keys_are_the_text_as_written(self, workspace):
        # codes with leading zeros are groups of their own: once 01 and 1
        # merged into group 1, and 007 and 1.50 were written 7 and 1.5
        zones = ["01", "1", "007", "1.50", "1", "007"]
        pts = workspace / "zones.csv"
        pts.write_text("id,x,y,zone\n" + "".join(
            f"z{i},{i + 2},5,{zone}\n" for i, zone in enumerate(zones)))
        out = workspace / "zones_out.csv"
        rc = main(["run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
                   "--y", str(pts), "--hierarchy", "zone", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("id,chunk_id,group,")
        assert [tuple(line.split(",")[:3]) for line in lines[1:]] == [
            ("z2", "0", "007"), ("z5", "0", "007"), ("z0", "1", "01"), ("z1", "2", "1"),
            ("z4", "2", "1"), ("z3", "3", "1.50")]

    def test_nan_category_frequency_order(self, tmp_path):
        # a NaN category sorts after every number, whatever the hash seed
        vals = np.arange(36, dtype=float).reshape(6, 6) % 5
        vals[2, 3] = np.nan
        write_raster(Raster(6, 6, 0.0, 0.0, 1.0, -9999.0, vals, "categorical"),
                     str(tmp_path / "cat.asc"))
        (tmp_path / "pts.csv").write_text("id,x,y,g\na,3.5,3.5,u\nb,1.5,4.5,v\nc,4.5,1.5,u\n")
        blobs = set()
        for seed in ("1", "2", "3", "4"):
            out = tmp_path / f"out{seed}.csv"
            run = ("import sys; from gridchop.cli import main; sys.exit(main(sys.argv[1:]))")
            proc = subprocess.run(
                [sys.executable, "-c", run, "run", "--task", "extract_at",
                 "--x", str(tmp_path / "cat.asc"), "--categorical", "--y", str(tmp_path / "pts.csv"),
                 "--hierarchy", "g", "--radius", "1.5", "--stat", "frequency", "--out", str(out)],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC),
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            blobs.add(out.read_bytes())
        assert len(blobs) == 1
        header = blobs.pop().split(b"\r\n")[0]
        assert header == b"id,chunk_id,group,freq_0,freq_1,freq_2,freq_3,freq_4,freq_nan,count"

    @pytest.mark.parametrize("task", ["sedc", "summarize_aw"])
    def test_value_column_named_freq(self, workspace, capsys, task):
        # value column freq_pop gives freq_pop_sedc or freq_pop_mean, an
        # ordinary column; the merge once took it for a frequency column and
        # exited 1 with a ValueError traceback
        if task == "sedc":
            x = workspace / "pts.csv"
            x.write_text((workspace / "points.csv").read_text().replace(",v\n", ",freq_pop\n", 1))
            flags = ["--bandwidth", "2", "--partition", str(workspace / "parts.json")]
            want = b"id,chunk_id,freq_pop_sedc,count"
        else:
            x = workspace / "polys.geojson"
            _polygons(workspace)  # writes x
            x.write_text(x.read_text().replace('"v":', '"freq_pop":'))
            parts = workspace / "poly_parts.json"
            parts.write_text(json.dumps({"mode": "grid", "chunks": [
                {"chunk_id": i, "core": [0, 0, 10, 10], "member_ids": [fid]}
                for i, fid in enumerate(["q2", "q5"])]}))
            flags = ["--partition", str(parts)]
            want = b"id,chunk_id,freq_pop_mean,coverage"
        out = workspace / "out.csv"
        rc = main(["run", "--task", task, "--x", str(x), "--y", str(x), "--value-cols", "freq_pop",
                   *flags, "--out", str(out)])
        assert rc == EXIT_OK, capsys.readouterr().err
        lines = out.read_bytes().split(b"\r\n")
        assert lines[0] == want
        assert all(line.split(b",")[2] for line in lines[1:-1])  # every row has its value

    def test_missing_partition_choice(self, workspace):
        rc = main([
            "run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
            "--y", str(workspace / "points.csv"), "--out", str(workspace / "o.csv"),
        ])
        assert rc == EXIT_USAGE

    def test_sedc_requires_bandwidth(self, workspace):
        rc = main([
            "run", "--task", "sedc", "--x", str(workspace / "points.csv"),
            "--y", str(workspace / "points.csv"),
            "--partition", str(workspace / "parts.json"),
            "--out", str(workspace / "o.csv"),
        ])
        assert rc == EXIT_USAGE

    def test_config_file(self, workspace):
        cfg = {
            "task": "extract_at",
            "x": str(workspace / "raster.asc"),
            "y": str(workspace / "points.csv"),
            "radius": 1.0,
            "partition": str(workspace / "parts.json"),
            "out": str(workspace / "cfg_out.csv"),
        }
        cfg_path = workspace / "job.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        assert (workspace / "cfg_out.csv").exists()

    def test_config_unknown_key(self, workspace):
        cfg_path = workspace / "job.json"
        cfg_path.write_text('{"bogus": 1}')
        assert main(["run", "--config", str(cfg_path)]) == EXIT_USAGE

    def test_workers_env_default(self, workspace, monkeypatch):
        monkeypatch.setenv("CHOP_WORKERS", "2")
        out = workspace / "env.csv"
        rc = main([
            "run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
            "--y", str(workspace / "points.csv"), "--radius", "1.5",
            "--partition", str(workspace / "parts.json"), "--out", str(out),
        ])
        assert rc == EXIT_OK

    def test_flag_overrides_config(self, workspace):
        # an explicit flag wins even when it spells the default value
        cfg_path = workspace / "job.json"
        cfg_path.write_text(json.dumps({"stat": "max", "radius": 1.0}))
        out = workspace / "flag.csv"
        rc = main([
            "run", "--config", str(cfg_path), "--task", "extract_at",
            "--x", str(workspace / "raster.asc"), "--y", str(workspace / "points.csv"),
            "--partition", str(workspace / "parts.json"), "--stat", "mean",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        header = out.read_bytes().split(b"\r\n")[0].decode().split(",")
        assert "mean" in header and "max" not in header

    def test_short_csv_row_load_error(self, workspace, capsys):
        # a row that lacks only an attribute value is a load error, not a traceback
        short = workspace / "short.csv"
        short.write_text("id,x,y,v,w\na,1,1,2,3\nb,2,2,4\n")
        out = workspace / "res.csv"
        rc = main([
            "run", "--task", "sedc", "--x", str(short), "--y", str(short),
            "--bandwidth", "1.0", "--value-cols", "v", "--hierarchy", "v", "--out", str(out),
        ])
        assert rc == EXIT_INPUT and not out.exists()
        assert "'w' at row 3" in capsys.readouterr().err

    def test_non_finite_csv_coordinate_load_error(self, workspace, capsys):
        bad = workspace / "nan.csv"
        bad.write_text("id,x,y,v\na,1,1,2\nb,nan,2,4\n")
        rc = main(["partition", "--input", str(bad), "--out", str(workspace / "p.json")])
        assert rc == EXIT_INPUT and not (workspace / "p.json").exists()
        err = capsys.readouterr().err
        assert err == f"load error: {bad}: non-finite coordinates (nan, 2.0) at row 3\n"

    def test_non_finite_geojson_point_load_error(self, workspace, capsys):
        bad = workspace / "nan.geojson"
        bad.write_text('{"type": "FeatureCollection", "features": [{"type": "Feature", '
                       '"properties": {"id": "a"}, '
                       '"geometry": {"type": "Point", "coordinates": [NaN, 2]}}]}')
        rc = main(["partition", "--input", str(bad), "--out", str(workspace / "p.json")])
        assert rc == EXIT_INPUT and not (workspace / "p.json").exists()
        err = capsys.readouterr().err
        assert err == f"load error: {bad}: feature 0: non-finite coordinates (nan, 2.0)\n"

    def test_polygon_then_point_input_error(self, workspace, capsys):
        # the kind comes from every feature: the point makes the anchors an
        # input error, found before any chunk runs, with no table written
        mixed = workspace / "mixed.geojson"
        square = [[[1, 1], [3, 1], [3, 3], [1, 3], [1, 1]]]
        mixed.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"id": "a", "grp": "g"},
             "geometry": {"type": "Polygon", "coordinates": square}},
            {"type": "Feature", "properties": {"id": "b", "grp": "g"},
             "geometry": {"type": "Point", "coordinates": [5.5, 5.5]}}]}))
        out = workspace / "mixed.csv"
        rc = main(["run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
                   "--y", str(mixed), "--hierarchy", "grp", "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists()
        msg = "extract_at requires point geometry or polygon geometry, got point and polygon"
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_wrong_context_kind_is_input_error(self, workspace, capsys, monkeypatch):
        # a polygon nearest context is an input error known before any chunk
        # runs: exit 3, one message, no table, no chunk run
        import gridchop.executor as executor

        ran = []
        run_chunk = executor._run_chunk
        monkeypatch.setattr(executor, "_run_chunk", lambda job: ran.append(job) or run_chunk(job))
        square = workspace / "sq.geojson"
        square.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"id": "s"}, "geometry": {
                "type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}}]}))
        pts = workspace / "pts.csv"
        pts.write_text("id,x,y,g\na,2,2,u\nb,3,3,u\nc,4,5,w\n")
        out = workspace / "near.csv"
        rc = main(["run", "--task", "nearest", "--x", str(square), "--y", str(pts),
                   "--hierarchy", "g", "--workers", "2", "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists() and ran == []
        msg = ("nearest_distance requires point geometry or line geometry or point and line "
               "geometry, got polygon")
        assert capsys.readouterr().err == f"error: {msg}\n"

    @pytest.mark.parametrize("case", ["no_feature_has_it", "a_feature_lacks_it", "empty_nearest"])
    def test_value_columns_and_nearest_context_are_input_errors(self, workspace, capsys,
                                                                 monkeypatch, case):
        # known before any chunk runs: exit 3, one message, no table, no chunk run
        import gridchop.executor as executor

        ran = []
        run_chunk = executor._run_chunk
        monkeypatch.setattr(executor, "_run_chunk", lambda job: ran.append(job) or run_chunk(job))
        sources = workspace / "sources.geojson"
        features = [{"type": "Feature", "properties": {"id": fid, **props},
                     "geometry": {"type": "Point", "coordinates": [x, x]}}
                    for fid, x, props in (("s0", 2, {"v": 1}), ("s1", 9, {}), ("s2", 15, {"v": 2}))]
        task = ["--task", "sedc", "--bandwidth", "2", "--value-cols", "v"]
        msg = "summarize_sedc: context feature 's1' lacks value column 'v'"
        if case == "no_feature_has_it":
            task[-1] = "nosuch"
            msg = "summarize_sedc: no context feature has value column 'nosuch'"
        elif case == "empty_nearest":
            features, task = [], ["--task", "nearest"]
            msg = "nearest_distance requires a non-empty context dataset"
        sources.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        out = workspace / "out.csv"
        rc = main(["run", *task, "--x", str(sources), "--y", str(workspace / "points.csv"),
                   "--partition", str(workspace / "parts.json"), "--workers", "2",
                   "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists() and ran == []
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_missing_x_raster_load_error(self, workspace):
        out = workspace / "nox.csv"
        rc = main([
            "run", "--task", "extract_at", "--x", str(workspace / "nope.asc"),
            "--y", str(workspace / "points.csv"),
            "--partition", str(workspace / "parts.json"), "--out", str(out),
        ])
        assert rc == EXIT_INPUT
        assert not out.exists()


def _polygons(workspace):
    """Two unit squares in group g, with value column v."""
    path = workspace / "polys.geojson"
    path.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": f"q{i}", "grp": "g", "v": i},
         "geometry": {"type": "Polygon", "coordinates": [[[i, 1], [i + 1, 1], [i + 1, 2],
                                                          [i, 2], [i, 1]]]}}
        for i in (2, 5)]}))
    return str(path)


_BAD_PARAMETERS = {  # task, its flags, the message
    "stat_unknown": ("extract_at", ["--radius", "1", "--stat", "bogus"],
                     "unknown statistic 'bogus'"),
    "radius_negative": ("extract_at", ["--radius", "-1"], "radius must be >= 0, got -1.0"),
    "radius_nan": ("extract_at", ["--radius", "nan"], "radius must be finite, got nan"),
    "frequency_continuous": ("extract_at", ["--radius", "1", "--stat", "frequency"],
                             "frequency statistic requires a categorical raster"),
    "polygon_radius": ("extract_at", ["--radius", "1"],
                       "buffered polygon extraction is not supported"),
    "sedc_bandwidth_zero": ("sedc", ["--bandwidth", "0", "--value-cols", "v"],
                            "bandwidth must be > 0"),
    "sedc_bandwidth_inf": ("sedc", ["--bandwidth", "inf", "--value-cols", "v"],
                           "bandwidth must be finite, got inf"),
    "sedc_maxdist_below_bandwidth": ("sedc", ["--bandwidth", "2", "--maxdist", "1",
                                              "--value-cols", "v"],
                                     "maxdist must be >= bandwidth"),
    "aw_stat_median": ("summarize_aw", ["--value-cols", "v", "--stat", "median"],
                       "summarize_aw stat must be mean or sum, got 'median'"),
}


class TestParametersCheckedBeforeChunks:
    """A bad task parameter is one input error found before any chunk runs:
    exit 3, one message, no table, no chunk run. Each once gave one error
    row per anchor and exit 4."""

    @pytest.mark.parametrize("case,command", [
        *((case, "run") for case in sorted(_BAD_PARAMETERS)),
        *((case, "multiraster") for case in sorted(_BAD_PARAMETERS)
          if _BAD_PARAMETERS[case][0] == "extract_at"),
    ])
    def test_bad_parameter_is_one_input_error(self, workspace, capsys, monkeypatch, case,
                                              command):
        import gridchop.executor as executor

        ran = []
        run_chunk = executor._run_chunk
        monkeypatch.setattr(executor, "_run_chunk", lambda job: ran.append(job) or run_chunk(job))
        task, flags, msg = _BAD_PARAMETERS[case]
        points, polys = str(workspace / "points.csv"), _polygons(workspace)
        x = {"extract_at": str(workspace / "raster.asc"), "sedc": points,
             "summarize_aw": polys}[task]
        y = polys if case in ("polygon_radius", "aw_stat_median") else points
        if command == "multiraster":
            context = ["--rasters", x]
        elif y == polys:
            context = ["--x", x, "--hierarchy", "grp"]
        else:
            context = ["--x", x, "--partition", str(workspace / "parts.json")]
        out = workspace / "out.csv"
        rc = main([command, "--task", task, *context, "--y", y, *flags, "--workers", "2",
                   "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists() and ran == []
        assert capsys.readouterr().err == f"error: {msg}\n"


    @pytest.mark.parametrize("key,task", [("radius", "extract_at"), ("bandwidth", "sedc"),
                                          ("maxdist", "sedc")])
    def test_non_numeric_config_number(self, workspace, capsys, key, task):
        # a config value meets its flag's type, as --radius wide does: a usage
        # error before any input is read (once exit 3, from the task's check)
        points = str(workspace / "points.csv")
        doc = {"task": task, "x": str(workspace / "raster.asc") if task == "extract_at" else points,
               "y": points, "partition": str(workspace / "parts.json"), "bandwidth": 1.0,
               "value_cols": "v", "out": str(workspace / "out.csv"), key: "wide"}
        cfg = workspace / "job.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert not (workspace / "out.csv").exists()
        assert capsys.readouterr().err == (
            f'error: --{key} must be a number in --config {cfg}, got "wide"\n')


def test_bad_raster_header_is_a_load_error(workspace, capsys):
    # `ncols abc` once escaped as a ValueError traceback, exit 1
    bad = workspace / "bad.asc"
    bad.write_text((workspace / "raster.asc").read_text().replace("ncols 20", "ncols abc", 1))
    out = workspace / "out.csv"
    rc = main(["run", "--task", "extract_at", "--x", str(bad), "--y", str(workspace / "points.csv"),
               "--partition", str(workspace / "parts.json"), "--out", str(out)])
    assert rc == EXIT_INPUT and not out.exists()
    assert capsys.readouterr().err == (
        f"load error: {bad}: ncols must be a whole number >= 1, got 'abc'\n")


class TestNotUtf8:
    """A byte that is not UTF-8 in a points CSV, a raster or a raster list is
    a load error naming the file, not a UnicodeDecodeError traceback."""

    def test_points_csv(self, workspace, capsys):
        bad = workspace / "bad.csv"
        bad.write_bytes(b"id,x,y\na,0,0\nb,1,\xff\n")
        rc = main(["partition", "--input", str(bad), "--out", str(workspace / "p.json")])
        assert rc == EXIT_INPUT and not (workspace / "p.json").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"load error: {bad}: not valid UTF-8: ") and err.count("\n") == 1

    def test_raster(self, workspace, capsys):
        bad = workspace / "bad.asc"
        bad.write_bytes((workspace / "raster.asc").read_bytes().replace(b"\n", b"\xff\n", 7))
        out = workspace / "out.csv"
        rc = main(["run", "--task", "extract_at", "--x", str(bad),
                   "--y", str(workspace / "points.csv"),
                   "--partition", str(workspace / "parts.json"), "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"load error: {bad}: not valid UTF-8: ") and err.count("\n") == 1


    def test_raster_list(self, workspace, capsys):
        lst = workspace / "rasters.txt"
        lst.write_bytes(b"r\xff.asc\n")
        out = workspace / "out.csv"
        rc = main(["multiraster", "--task", "extract_at", "--y", str(workspace / "points.csv"),
                   "--raster-list", str(lst), "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"load error: {lst}: not valid UTF-8: ") and err.count("\n") == 1


class TestNonNumericValue:
    """A value that float() rejects in a value column is one input error
    found before any chunk runs, naming the feature, the column and the
    value: exit 3, no table, no chunk run. Far from every anchor it once
    passed unseen (exit 0); in a chunk's clip it failed that chunk (exit 4)."""

    @pytest.mark.parametrize("where", ["far", "near"])
    def test_bad_value_is_one_input_error(self, workspace, capsys, monkeypatch, where):
        import gridchop.executor as executor

        ran = []
        run_chunk = executor._run_chunk
        monkeypatch.setattr(executor, "_run_chunk", lambda job: ran.append(job) or run_chunk(job))
        sources = workspace / "sources.csv"
        xy = "500.0,500.0" if where == "far" else "1.0,1.0"
        sources.write_text((workspace / "points.csv").read_text() + f"bad,{xy},oops\n")
        out = workspace / "out.csv"
        rc = main(["run", "--task", "sedc", "--x", str(sources),
                   "--y", str(workspace / "points.csv"), "--bandwidth", "5",
                   "--value-cols", "v", "--partition", str(workspace / "parts.json"),
                   "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists() and ran == []
        assert capsys.readouterr().err == (
            "error: summarize_sedc: context feature 'bad' has value 'oops' in column 'v',"
            " not a number\n")

    def test_json_integer_beyond_float_is_one_input_error(self, workspace, capsys):
        # float() of it overflows: once an OverflowError traceback, exit 1
        big = "1" + "0" * 400
        sources = workspace / "sources.geojson"
        sources.write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature", "properties": '
            f'{{"id": "big", "v": {big}}}, "geometry": {{"type": "Point", "coordinates": [1, 1]}}'
            "}]}")
        out = workspace / "out.csv"
        rc = main(["run", "--task", "sedc", "--x", str(sources),
                   "--y", str(workspace / "points.csv"), "--bandwidth", "5",
                   "--value-cols", "v", "--partition", str(workspace / "parts.json"),
                   "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists()
        assert capsys.readouterr().err == (
            f"error: summarize_sedc: context feature 'big' has value {big} in column 'v',"
            " not a number\n")


class TestIdNamedLikeOutputColumn:
    """An id column named like an output column is an input error naming the
    column: exit 3, no table. Once the chunk ids replaced the anchor ids
    (nearest, --id chunk_id), or the counts did (sedc, --id count)."""

    @pytest.mark.parametrize("task,column", [("nearest", "chunk_id"), ("sedc", "count")])
    def test_id_clash_is_an_input_error(self, workspace, capsys, task, column):
        points = workspace / "renamed.csv"
        text = (workspace / "points.csv").read_text()
        points.write_text(text.replace("id,", f"{column},", 1))
        out = workspace / "out.csv"
        rc = main(["run", "--task", task, "--x", str(points), "--y", str(points),
                   "--id", column, "--bandwidth", "1", "--value-cols", "v",
                   "--partition", str(workspace / "parts.json"), "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists()
        assert capsys.readouterr().err == (
            f"error: id column {column!r} is also an output column\n")


def _failing_multiraster(workspace, out):
    # the missing first raster fails chunk 0
    return {
        "task": "extract_at", "rasters": f"{workspace / 'missing.asc'},{workspace / 'raster.asc'}",
        "y": str(workspace / "points.csv"), "out": str(out),
    }


class TestCaptureErrors:
    def test_captured_by_default(self, workspace):
        out = workspace / "cap.csv"
        cfg_path = workspace / "job.json"
        cfg_path.write_text(json.dumps(_failing_multiraster(workspace, out)))
        assert main(["multiraster", "--config", str(cfg_path)]) == EXIT_PARTIAL
        assert b"error" in out.read_bytes().split(b"\r\n")[0]

    def test_config_capture_errors_false(self, workspace):
        out = workspace / "nocap.csv"
        cfg_path = workspace / "job.json"
        cfg_path.write_text(json.dumps({**_failing_multiraster(workspace, out),
                                        "capture_errors": False}))
        assert main(["multiraster", "--config", str(cfg_path)]) == EXIT_PARTIAL
        assert not out.exists()

    def test_no_capture_errors_flag(self, workspace, capsys):
        out = workspace / "nocap.csv"
        cfg_path = workspace / "job.json"
        cfg_path.write_text(json.dumps(_failing_multiraster(workspace, out)))
        for workers in ("1", "2"):
            rc = main(["multiraster", "--config", str(cfg_path), "--no-capture-errors",
                       "--workers", workers])
            assert rc == EXIT_PARTIAL
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: chunk 0: FileNotFoundError")
            assert "Traceback" not in err


def set_in_chunk(at, key, value):
    """A partition document with chunks[at][key] set to value."""
    def edit(doc):
        doc["chunks"][at][key] = value
        return doc
    return edit


class TestPartitionValidation:
    """A partition file must assign every anchor to exactly one chunk."""

    def _run_with(self, workspace, edit):
        doc = json.loads((workspace / "parts.json").read_text())
        edit(doc["chunks"])
        bad = workspace / "bad_parts.json"
        bad.write_text(json.dumps(doc))
        out = workspace / "bad.csv"
        rc = main([
            "run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
            "--y", str(workspace / "points.csv"), "--partition", str(bad),
            "--out", str(out),
        ])
        return rc, out

    def test_dropped_ids(self, workspace, capsys):
        def drop(chunks):
            chunks[0]["member_ids"] = chunks[0]["member_ids"][1:]

        rc, out = self._run_with(workspace, drop)
        assert rc == EXIT_INPUT and not out.exists()
        assert "in no chunk" in capsys.readouterr().err

    def test_unknown_id(self, workspace, capsys):
        def add(chunks):
            chunks[1]["member_ids"].append("ghost")

        rc, out = self._run_with(workspace, add)
        assert rc == EXIT_INPUT and not out.exists()
        assert "'ghost'" in capsys.readouterr().err

    def test_duplicated_id(self, workspace, capsys):
        def dup(chunks):
            chunks[1]["member_ids"].append(chunks[0]["member_ids"][0])

        rc, out = self._run_with(workspace, dup)
        assert rc == EXIT_INPUT and not out.exists()
        assert "already in chunk" in capsys.readouterr().err

    def test_repeated_chunk_id(self, workspace, capsys, monkeypatch):
        import gridchop.executor as executor

        ran = []
        run_chunk = executor._run_chunk
        monkeypatch.setattr(executor, "_run_chunk", lambda job: ran.append(job) or run_chunk(job))

        def repeat(chunks):
            chunks[1]["chunk_id"] = chunks[0]["chunk_id"]

        rc, out = self._run_with(workspace, repeat)
        assert rc == EXIT_INPUT and not out.exists()
        assert "chunk id 0 " in capsys.readouterr().err
        assert ran == []


    @pytest.mark.parametrize("text,want", [
        (lambda doc: '{"mode": ', "not valid JSON: Expecting value: line 1 column 10 (char 9)"),
        (lambda doc: {**doc, "chunks": 5}, "$.chunks is not an array"),
        (lambda doc: {**doc, "chunks": [5]}, "$.chunks[0] is not an object"),
        (set_in_chunk(3, "member_ids", 5), "$.chunks[3].member_ids is not an array"),
        (set_in_chunk(3, "chunk_id", "x"), '$.chunks[3].chunk_id is not an integer: "x"'),
        (set_in_chunk(3, "chunk_id", 3.7), "$.chunks[3].chunk_id is not an integer: 3.7"),
        (set_in_chunk(1, "chunk_id", True), "$.chunks[1].chunk_id is not an integer: true"),
        (set_in_chunk(2, "core", "0123"),
         '$.chunks[2].core is not an array of four numbers: "0123"'),
        (set_in_chunk(0, "core", [0, False, 10, 5]),
         "$.chunks[0].core is not an array of four numbers: [0, false, 10, 5]"),
        (set_in_chunk(0, "core", [0, "0", 10, 5]),
         '$.chunks[0].core is not an array of four numbers: [0, "0", 10, 5]'),
        (set_in_chunk(0, "core", [0, 0, 10]),
         "$.chunks[0].core is not an array of four numbers: [0, 0, 10]"),
        (set_in_chunk(0, "core", [10, 0, 0, 5]),
         "$.chunks[0].core: bad bbox: inverted bbox BBox(xmin=10.0, ymin=0.0, xmax=0.0, ymax=5.0)"),
    ], ids=["truncated", "chunks_number", "chunk_number", "member_ids_number",
            "chunk_id_string", "chunk_id_float", "chunk_id_bool", "core_string", "core_bool",
            "core_numeric_string", "core_three_numbers", "core_inverted"])
    def test_malformed_file_load_error(self, workspace, capsys, text, want):
        # each once ended in a traceback, or was read as something else: (3.7,
        # true) as chunk 3 or 1, a core "0123" as the box (0, 1, 2, 3)
        doc = text(json.loads((workspace / "parts.json").read_text()))
        bad = workspace / "bad_parts.json"
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = workspace / "bad.csv"
        rc = main(["run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
                   "--y", str(workspace / "points.csv"), "--partition", str(bad),
                   "--out", str(out)])
        assert rc == EXIT_INPUT and not out.exists()
        assert capsys.readouterr().err == f"load error: {bad}: {want}\n"

class TestMultirasterCommand:
    def test_two_rasters_and_fault_isolation(self, workspace):
        r2 = workspace / "raster2.asc"
        r2.write_bytes((workspace / "raster.asc").read_bytes())
        out = workspace / "mr.csv"
        rc = main([
            "multiraster", "--task", "extract_at",
            "--y", str(workspace / "points.csv"),
            "--rasters", f"{workspace / 'raster.asc'},{r2}",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        body = out.read_bytes().split(b"\r\n")
        assert len(body) >= 47  # header + 2 * 23 rows

        rc = main([
            "multiraster", "--task", "extract_at",
            "--y", str(workspace / "points.csv"),
            "--rasters", f"{workspace / 'raster.asc'},{workspace / 'missing.asc'}",
            "--out", str(out),
        ])
        assert rc == EXIT_PARTIAL
        assert b"error" in out.read_bytes().split(b"\r\n")[0]

    def test_raster_list_file(self, workspace):
        lst = workspace / "rasters.txt"
        lst.write_text(str(workspace / "raster.asc") + "\n")
        out = workspace / "mr1.csv"
        rc = main([
            "multiraster", "--task", "extract_at",
            "--y", str(workspace / "points.csv"),
            "--raster-list", str(lst), "--out", str(out),
        ])
        assert rc == EXIT_OK

    def test_task_other_than_extract_at_usage_error(self, workspace, capsys):
        # once exit 3, from a check after the parse
        out = workspace / "o.csv"
        rc = main(["multiraster", "--task", "nearest", "--y", str(workspace / "points.csv"),
                   "--rasters", str(workspace / "raster.asc"), "--out", str(out)])
        assert rc == EXIT_USAGE and not out.exists()
        assert "argument --task: invalid choice: 'nearest'" in capsys.readouterr().err

    def test_no_rasters_usage(self, workspace):
        rc = main([
            "multiraster", "--task", "extract_at",
            "--y", str(workspace / "points.csv"),
            "--out", str(workspace / "o.csv"),
        ])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("key", ["x", "partition", "hierarchy", "regions", "regions_id"])
    def test_run_only_flag_is_a_usage_error(self, workspace, capsys, key):
        # once accepted and ignored: --partition /nonexistent.json ran, exit 0
        out = workspace / "o.csv"
        doc = {"task": "extract_at", "y": str(workspace / "points.csv"),
               "rasters": str(workspace / "raster.asc"), "out": str(out)}
        flag = "--" + key.replace("_", "-")
        assert main(["multiraster", *_flags(doc), flag, "/nonexistent.json"]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} /nonexistent.json" in capsys.readouterr().err
        cfg = workspace / "job.json"
        cfg.write_text(json.dumps({**doc, key: "/nonexistent.json"}))
        assert main(["multiraster", "--config", str(cfg)]) == EXIT_USAGE
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not out.exists()


class TestSynthAndBench:
    def test_synth_outputs(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["synth", "--seed", "42", "--n-points", "30",
                   "--raster-size", "10", "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "points.csv").exists()
        assert (out / "raster.asc").exists()
        assert (out / "lines.geojson").exists()

    @pytest.mark.parametrize("argv,digests", [
        (["--seed", "42", "--n-points", "30", "--raster-size", "10"],
         {"points.csv": "5f02740f626834277eec5a00c01b753adfe6bc9409e0d5d5e63dbaa0676e1dd2",
          "raster.asc": "d636678131100c6daa3253c394d40e831b0da87fad0c85d6d2b83a28f8a1ed89",
          "lines.geojson": "64513e219a7e7d9d2901fba8f8b59fe301dd2e5b370d9b11d14797ab930eaa39"}),
        (["--seed", "7", "--case", "nearest", "--n-points", "50", "--n-lines", "9",
          "--raster-size", "6"],
         {"points.csv": "bbfea60e4869c680fa961182835c5c29e801b037eee22824654ad438edcb1d71",
          "raster.asc": "70c4b0644f9e60145e79e5ba5854de442934b579ad9fad41f98a926405b0e4e6",
          "lines.geojson": "21b26907a454cd26c7138b0c741bcf434f8d96f929463ce3bc86782407931f45"}),
    ])
    def test_synth_files_pinned(self, tmp_path, argv, digests):
        # every output file, byte for byte
        assert main(["synth", *argv, "--out", str(tmp_path)]) == EXIT_OK
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in digests}
        assert got == digests

    def test_synth_deterministic(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--seed", "42", "--n-points", "30",
                         "--raster-size", "10", "--out", str(out)]) == EXIT_OK
            blobs.append((out / "points.csv").read_bytes()
                         + (out / "raster.asc").read_bytes())
        assert blobs[0] == blobs[1]

    def test_bench_single_worker(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--case", "extract", "--n-points", "40",
                   "--raster-size", "20", "--workers", "1", "--out", str(out)])
        assert rc == EXIT_OK
        metrics = (tmp_path / "bench_metrics.csv").read_bytes().split(b"\r\n")
        assert metrics[0] == b"case,workers,t1,tn,speedup,efficiency,repeats,aggregation"
        # single worker: speedup column is exactly 1.0; times are medians
        assert metrics[1].split(b",")[4] == b"1.0"
        assert metrics[1].split(b",")[7] == b"median"

    def test_bench_metrics_beside_out(self, tmp_path):
        # only the name's own .csv is replaced: one in a directory name once
        # sent the metrics to a directory that does not exist (exit 3)
        out = tmp_path / "run.csv.d" / "b.csv"
        out.parent.mkdir()
        assert main(["bench", "--n-points", "20", "--raster-size", "5", "--workers", "1",
                     "--nx", "1", "--ny", "1", "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.parent.iterdir()) == ["b.csv", "b_metrics.csv"]

    def test_bench_seed_reproducible(self, tmp_path):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            assert main(["bench", "--case", "nearest", "--n-points", "25",
                         "--raster-size", "10", "--seed", "9", "--workers", "1",
                         "--out", str(out)]) == EXIT_OK
            # timings differ run to run; compare the synthetic task result
            # indirectly through the deterministic partition of the same seed
            outs.append(out.read_bytes().split(b"\r\n")[0])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv,err", [
        (["bench", "--workers", "1,x"], "argument --workers: must be an integer >= 1, got 'x'"),
        (["synth", "--n-points", "-5"], "argument --n-points: must be an integer >= 0, got '-5'"),
        (["synth", "--raster-size", "0"],
         "argument --raster-size: must be an integer >= 1, got '0'"),
    ], ids=["bench_workers", "synth_n_points", "synth_raster_size"])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, argv, err):
        # each once escaped as a ValueError or ZeroDivisionError traceback (exit 1)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        got = capsys.readouterr().err
        assert err in got and "Traceback" not in got
        assert not out.exists()

    def test_least_values_run(self, tmp_path):
        assert main(["synth", "--n-points", "0", "--n-lines", "0", "--raster-size", "1",
                     "--seed", "0", "--out", str(tmp_path / "s")]) == EXIT_OK
        assert (tmp_path / "s" / "points.csv").read_bytes() == b"id,x,y,v\r\n"
        out = tmp_path / "b.csv"
        assert main(["bench", "--n-points", "20", "--raster-size", "5", "--workers", "1,,2",
                     "--repeats", "1", "--nx", "1", "--ny", "1", "--out", str(out)]) == EXIT_OK
        rows = (tmp_path / "b_metrics.csv").read_bytes().split(b"\r\n")
        assert [row.split(b",")[1] for row in rows[1:-1]] == [b"1", b"2"]


def _run_args(workspace):
    return [
        "run", "--task", "extract_at", "--x", str(workspace / "raster.asc"),
        "--y", str(workspace / "points.csv"), "--partition", str(workspace / "parts.json"),
        "--out", str(workspace / "out.csv"),
    ]


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
    def test_bad_chop_workers(self, workspace, capsys, monkeypatch, value):
        monkeypatch.setenv("CHOP_WORKERS", value)
        assert main(_run_args(workspace)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: CHOP_WORKERS") and err.count("\n") == 1
        assert not (workspace / "out.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_workers_flag_below_one(self, workspace, capsys, value):
        # the same usage error as CHOP_WORKERS=0
        assert main(_run_args(workspace) + ["--workers", value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --workers") and err.count("\n") == 1
        assert not (workspace / "out.csv").exists()

    @pytest.mark.parametrize("value", ['"2"', "0", "1.5"])
    def test_bad_config_workers(self, workspace, capsys, value):
        cfg = workspace / "job.json"
        cfg.write_text(f'{{"workers": {value}}}')
        assert main(_run_args(workspace) + ["--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --workers") and err.count("\n") == 1
        assert not (workspace / "out.csv").exists()

    def test_workers_flag_beats_chop_workers(self, workspace, monkeypatch):
        monkeypatch.setenv("CHOP_WORKERS", "two")
        assert main(_run_args(workspace) + ["--workers", "2"]) == EXIT_OK

    @pytest.mark.parametrize("text", ["{bad", "5", "null", '["task"]', ""])
    def test_malformed_config(self, workspace, capsys, text):
        cfg = workspace / "job.json"
        cfg.write_text(text)
        assert main(_run_args(workspace) + ["--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --config") and err.count("\n") == 1
        assert not (workspace / "out.csv").exists()

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_pad_y_removed(self, workspace, capsys):
        # the removed anchor-role swap is a usage error, not silently ignored
        assert main(_run_args(workspace) + ["--pad-y"]) == EXIT_USAGE
        assert "unrecognized arguments: --pad-y" in capsys.readouterr().err
        cfg = workspace / "job.json"
        cfg.write_text('{"pad_y": true}')
        assert main(_run_args(workspace) + ["--config", str(cfg)]) == EXIT_USAGE
        assert "unknown config keys: ['pad_y']" in capsys.readouterr().err
        assert not (workspace / "out.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        # the mirror of --regions without --regions-id; once silently ignored
        (["--regions-id", "q"], "--regions-id requires --regions"),
        (["--regions", "regions.geojson"], "--regions requires --regions-id"),
    ])
    def test_regions_and_regions_id_go_together(self, workspace, capsys, flags, message):
        argv = _run_args(workspace)
        if "--regions" in flags:  # in place of --partition
            at = argv.index("--partition")
            argv[at : at + 2] = []
        assert main(argv + flags) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workspace / "out.csv").exists()

    @pytest.mark.parametrize("rid", [True, 2.0, ["r"]], ids=["true", "float", "array"])
    def test_regions_id_neither_string_nor_integer(self, workspace, capsys, rid):
        # a region id once became Python's text for it, and named the group
        region = {"type": "Feature", "properties": {"q": rid},
                  "geometry": {"type": "Polygon",
                               "coordinates": [[[0, 0], [20, 0], [20, 20], [0, 20], [0, 0]]]}}
        regions = workspace / "regions.geojson"
        regions.write_text(json.dumps({"type": "FeatureCollection", "features": [region]}))
        argv = _run_args(workspace)
        at = argv.index("--partition")
        argv[at : at + 2] = ["--regions", str(regions), "--regions-id", "q"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"load error: {regions}: feature 0: property 'q' is not a string or an integer: "
            f"{json.dumps(rid)}\n")
        assert not (workspace / "out.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--hierarchy", "g", "--regions-id", "q"], "--regions-id requires --regions"),
        (["--regions", "f.geojson"], "--regions requires --regions-id"),
    ])
    def test_regions_rules_on_missing_inputs(self, tmp_path, capsys, flags, message):
        # neither input exists: each rule once waited behind the read of --y
        # and exited 3 on the missing file
        out = tmp_path / "out.csv"
        argv = ["run", "--task", "extract_at", "--x", str(tmp_path / "nonexistent.asc"),
                "--y", str(tmp_path / "nonexistent.csv"), "--out", str(out)]
        assert main(argv + flags) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["sedc_bandwidth", "regions_id", "regions",
                                      "chop_workers", "workers_flag"])
    def test_usage_error_reads_no_file(self, workspace, capsys, monkeypatch, case):
        reads = []

        def load_features(*args, **kwargs):
            reads.append(args)
            raise LoadError("read before the usage rules")

        monkeypatch.setattr(dataio, "load_features", load_features)
        argv = _run_args(workspace)
        if case == "sedc_bandwidth":
            argv[argv.index("extract_at")] = "sedc"
        elif case == "regions_id":
            argv += ["--regions-id", "q"]
        elif case == "regions":
            at = argv.index("--partition")
            argv[at : at + 2] = ["--regions", str(workspace / "regions.geojson")]
        elif case == "chop_workers":
            monkeypatch.setenv("CHOP_WORKERS", "0")
        else:
            argv += ["--workers", "0"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert reads == []
        assert not (workspace / "out.csv").exists()


class TestConfigValues:
    """A --config value is read as its flag: each meets the flag's type,
    choices and JSON type, or is a usage error naming the flag and the value
    (exit 2, no CSV). Each case once ran (exit 0) or failed later: a list of
    value columns as an AttributeError traceback, the string "false" as a
    categorical raster, "no" as captured errors, true as 1 worker, "1" as
    radius 1, 1 as the CSV written to stdout, and a bogus task as a load error."""

    @pytest.mark.parametrize("key,value,err", [
        ("value_cols", ["v"], '--value-cols must be a string in --config {cfg}, got ["v"]'),
        ("categorical", "false", '--categorical must be true or false in --config {cfg}, '
                                 'got "false"'),
        ("capture_errors", "no", '--capture-errors must be true or false in --config {cfg}, '
                                 'got "no"'),
        ("workers", True, "--workers must be an integer in --config {cfg}, got true"),
        ("radius", "1", '--radius must be a number in --config {cfg}, got "1"'),
        ("out", 1, "--out must be a string in --config {cfg}, got 1"),
        ("task", "bogus", "argument --task: invalid choice: 'bogus'"),
    ], ids=["value_cols_list", "categorical_string", "capture_errors_string", "workers_true",
            "radius_string", "out_number", "task_bogus"])
    def test_bad_value_is_usage_error(self, workspace, capsys, key, value, err):
        out = workspace / "out.csv"
        doc = {"task": "sedc", "x": str(workspace / "points.csv"),
               "y": str(workspace / "points.csv"), "partition": str(workspace / "parts.json"),
               "bandwidth": 2.0, "value_cols": "v", "out": str(out), key: value}
        cfg = workspace / "job.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert not out.exists()
        got = capsys.readouterr().err
        assert err.format(cfg=cfg) in got and "Traceback" not in got

    def test_config_value_starting_with_dash(self, workspace, monkeypatch):
        # a config value is one token, so a file named -o.csv is an output path
        doc = {"task": "extract_at", "x": str(workspace / "raster.asc"),
               "y": str(workspace / "points.csv"), "hierarchy": "v", "out": "-o.csv"}
        cfg = workspace / "job.json"
        cfg.write_text(json.dumps(doc))
        monkeypatch.chdir(workspace)
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert (workspace / "-o.csv").exists()

    def test_switch_flag_wins_over_config(self, workspace):
        out = workspace / "cap.csv"
        cfg = workspace / "job.json"
        cfg.write_text(json.dumps({**_failing_multiraster(workspace, out),
                                   "capture_errors": False}))
        assert main(["multiraster", "--config", str(cfg), "--capture-errors"]) == EXIT_PARTIAL
        assert b"error" in out.read_bytes().split(b"\r\n")[0]

    def test_a_key_of_another_command_is_unknown(self, workspace, capsys):
        cfg = workspace / "job.json"
        cfg.write_text(json.dumps({"rasters": str(workspace / "raster.asc")}))
        assert main(_run_args(workspace) + ["--config", str(cfg)]) == EXIT_USAGE
        assert "unknown config keys: ['rasters']" in capsys.readouterr().err
        assert not (workspace / "out.csv").exists()

    @pytest.mark.parametrize("config", [{}, {"raster_list": "list.txt"}],
                             ids=["both_flags", "flag_and_config"])
    def test_rasters_and_raster_list_usage_error(self, workspace, capsys, config):
        cfg = workspace / "job.json"
        cfg.write_text(json.dumps(config))
        out = workspace / "mr.csv"
        rc = main(["multiraster", "--task", "extract_at", "--y", str(workspace / "points.csv"),
                   "--rasters", str(workspace / "raster.asc"), "--config", str(cfg),
                   *([] if config else ["--raster-list", "list.txt"]), "--out", str(out)])
        assert rc == EXIT_USAGE and not out.exists()
        assert "not allowed with argument" in capsys.readouterr().err


def _flags(doc):
    """The command-line spelling of a config document."""
    argv = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        else:
            argv += [flag, str(value)]
    return argv


class TestConfigAndFlagsSameBytes:
    """A job given as flags and as a --config file writes the same bytes."""

    @pytest.fixture
    def inputs(self, workspace):
        src = (workspace / "points.csv").read_text().splitlines()
        rows = [src[0] + ",g"] + [line + ("," + "ab"[i % 2]) for i, line in enumerate(src[1:])]
        (workspace / "pts.csv").write_text("\n".join(rows) + "\n")
        vals = np.arange(400, dtype=float).reshape(20, 20) % 4
        write_raster(Raster(20, 20, 0.0, 0.0, 1.0, -9999.0, vals, "categorical"),
                     str(workspace / "cat.asc"))
        polys = _polygons(workspace)
        (workspace / "poly_parts.json").write_text(json.dumps({"mode": "grid", "chunks": [
            {"chunk_id": i, "core": [0, 0, 10, 10], "member_ids": [fid]}
            for i, fid in enumerate(["q2", "q5"])]}))
        return {"pts": str(workspace / "pts.csv"), "raster": str(workspace / "raster.asc"),
                "cat": str(workspace / "cat.asc"), "polys": polys,
                "parts": str(workspace / "parts.json"),
                "poly_parts": str(workspace / "poly_parts.json")}

    @pytest.mark.parametrize("chunking", ["partition", "hierarchy"])
    @pytest.mark.parametrize("job", ["extract_mean", "extract_frequency", "summarize_aw", "sedc",
                                     "nearest"])
    def test_run(self, workspace, inputs, chunking, job):
        f = inputs
        doc = {
            "extract_mean": {"task": "extract_at", "x": f["raster"], "y": f["pts"],
                             "radius": 1.5, "stat": "mean", "workers": 2},
            "extract_frequency": {"task": "extract_at", "x": f["cat"], "y": f["pts"],
                                  "radius": 1.5, "stat": "frequency", "categorical": True},
            "summarize_aw": {"task": "summarize_aw", "x": f["polys"], "y": f["polys"],
                             "value_cols": "v", "stat": "sum"},
            "sedc": {"task": "sedc", "x": f["pts"], "y": f["pts"], "bandwidth": 2,
                     "maxdist": 5.0, "value_cols": "v", "capture_errors": False},
            "nearest": {"task": "nearest", "x": f["pts"], "y": f["pts"], "id": "id"},
        }[job]
        polygons = job == "summarize_aw"
        if chunking == "partition":
            doc["partition"] = f["poly_parts"] if polygons else f["parts"]
        else:
            doc["hierarchy"] = "grp" if polygons else "g"
        self._same_bytes(workspace, "run", doc)

    def test_multiraster(self, workspace, inputs):
        doc = {"task": "extract_at", "y": inputs["pts"],
               "rasters": f"{inputs['raster']},{inputs['cat']}", "radius": 1.0, "stat": "max"}
        self._same_bytes(workspace, "multiraster", doc)

    def _same_bytes(self, workspace, command, doc):
        flags_out, config_out = workspace / "flags.csv", workspace / "config.csv"
        assert main([command, *_flags(doc), "--out", str(flags_out)]) == EXIT_OK
        cfg = workspace / "job.json"
        cfg.write_text(json.dumps({**doc, "out": str(config_out)}))
        assert main([command, "--config", str(cfg)]) == EXIT_OK
        assert flags_out.read_bytes() == config_out.read_bytes()
        assert len(flags_out.read_bytes().split(b"\r\n")) > 2
