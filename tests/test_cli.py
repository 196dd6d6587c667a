"""`chop` CLI: subcommands, exit codes, config files, determinism."""

import json

import numpy as np
import pytest

from gridchop.cli import EXIT_INPUT, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from gridchop.dataio import load_partitions, write_raster
from gridchop.raster import Raster


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
        "--nx", "2", "--ny", "2", "--padding", "2.0", "--out", str(parts),
    ])
    assert rc == EXIT_OK
    return tmp_path


class TestPartitionCommand:
    def test_grid_4x2(self, workspace):
        out = workspace / "p8.json"
        rc = main([
            "partition", "--input", str(workspace / "points.csv"),
            "--mode", "grid", "--nx", "4", "--ny", "2",
            "--padding", "10000", "--out", str(out),
        ])
        assert rc == EXIT_OK
        parts = load_partitions(str(out))
        assert len(parts.chunks) == 8
        assert parts.padding == 10000.0

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
        assert b"speedup" in metrics[0]
        # single worker: speedup column is exactly 1.0
        assert metrics[1].split(b",")[4] == b"1.0"

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


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE
