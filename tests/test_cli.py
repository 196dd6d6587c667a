"""`chop` CLI: subcommands, exit codes, config files, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridchop
from gridchop.cli import EXIT_INPUT, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from gridchop.dataio import load_partitions, write_raster
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

    def test_missing_x_raster_load_error(self, workspace):
        out = workspace / "nox.csv"
        rc = main([
            "run", "--task", "extract_at", "--x", str(workspace / "nope.asc"),
            "--y", str(workspace / "points.csv"),
            "--partition", str(workspace / "parts.json"), "--out", str(out),
        ])
        assert rc == EXIT_INPUT
        assert not out.exists()


def _failing_sedc(workspace, out):
    # a value column the sources lack fails every chunk
    return {
        "task": "sedc", "x": str(workspace / "points.csv"),
        "y": str(workspace / "points.csv"), "bandwidth": 1.0, "value_cols": "nope",
        "partition": str(workspace / "parts.json"), "out": str(out),
    }


class TestCaptureErrors:
    def test_captured_by_default(self, workspace):
        out = workspace / "cap.csv"
        cfg_path = workspace / "job.json"
        cfg_path.write_text(json.dumps(_failing_sedc(workspace, out)))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_PARTIAL
        assert b"error" in out.read_bytes().split(b"\r\n")[0]

    def test_config_capture_errors_false(self, workspace):
        out = workspace / "nocap.csv"
        cfg_path = workspace / "job.json"
        cfg_path.write_text(json.dumps({**_failing_sedc(workspace, out), "capture_errors": False}))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_PARTIAL
        assert not out.exists()

    def test_no_capture_errors_flag(self, workspace, capsys):
        out = workspace / "nocap.csv"
        cfg_path = workspace / "job.json"
        cfg_path.write_text(json.dumps(_failing_sedc(workspace, out)))
        for workers in ("1", "2"):
            rc = main(["run", "--config", str(cfg_path), "--no-capture-errors",
                       "--workers", workers])
            assert rc == EXIT_PARTIAL
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: chunk 0: KeyError")
            assert "Traceback" not in err


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

    def test_no_rasters_usage(self, workspace):
        rc = main([
            "multiraster", "--task", "extract_at",
            "--y", str(workspace / "points.csv"),
            "--out", str(workspace / "o.csv"),
        ])
        assert rc == EXIT_USAGE


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
