"""Chunked execution: byte-identical merges, padding semantics, fault
isolation, hierarchy and multiraster planners."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import gridchop
from gridchop.dataio import Feature, FeatureSet, write_raster
from gridchop.errors import InvalidParameterError, LoadError
from gridchop.executor import (
    ChunkError,
    ChunkResult,
    RunConfig,
    TaskSpec,
    interaction_radius,
    merge_chunks,
    run_grid,
    run_hierarchy,
    run_multirasters,
)
from gridchop.geom import BBox, Point, Polyline
from gridchop.partition import GridSpec, build_partition, group_by_hierarchy
from gridchop.raster import Raster


def points_fs(coords, values=None, extra=None):
    feats = []
    for i, (x, y) in enumerate(coords):
        attrs = {"v": float(values[i])} if values is not None else {}
        if extra:
            attrs.update(extra[i])
        feats.append(Feature(f"p{i}", Point(float(x), float(y)), attrs))
    cols = sorted(feats[0].attributes) if feats else []
    return FeatureSet(feats, cols)


def grid_raster(n=20, seed=0, kind="continuous"):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 10, (n, n))
    if kind == "categorical":
        vals = np.floor(vals / 2.0)
    return Raster(n, n, 0.0, 0.0, 1.0, -9999.0, vals, kind)


def scatter(n=40, seed=1, lo=1.0, hi=19.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, n)
    ys = rng.uniform(lo, hi, n)
    return points_fs(list(zip(xs, ys)), values=rng.uniform(0, 5, n))


class TestTaskSpec:
    def test_unknown_op(self):
        with pytest.raises(InvalidParameterError):
            TaskSpec("resample", grid_raster(), scatter())

    def test_interaction_radius(self):
        pts = scatter(3)
        assert interaction_radius(TaskSpec("extract_at", grid_raster(), pts,
                                           {"radius": 2.5})) == 2.5
        assert interaction_radius(TaskSpec("summarize_sedc", pts, pts,
                                           {"bandwidth": 3.0})) == 6.0
        assert interaction_radius(TaskSpec("summarize_sedc", pts, pts,
                                           {"bandwidth": 3.0, "maxdist": 9.0})) == 9.0
        assert interaction_radius(TaskSpec("nearest_distance", pts, pts, {})) is None


class TestRunGridExtract:
    def test_matches_unpartitioned(self):
        pts = scatter(60)
        r = grid_raster()
        task = TaskSpec("extract_at", r, pts, {"radius": 1.5, "stat": "mean",
                                               "segments": 12})
        parts = build_partition(GridSpec("grid", nx=2, ny=2, padding=1.5), pts)
        got = run_grid(task, parts, RunConfig(workers=1))
        from gridchop.geoops import extract_at

        want = extract_at(r, pts, radius=1.5, stat="mean", segments=12)
        by_id = {row["id"]: row for row in got.rows}
        for row in want.rows:
            assert by_id[row["id"]]["mean"] == row["mean"]  # value-exact

    def test_workers_byte_identical(self):
        pts = scatter(60)
        r = grid_raster()
        task = TaskSpec("extract_at", r, pts, {"radius": 1.5, "stat": "mean",
                                               "segments": 12})
        parts = build_partition(GridSpec("grid", nx=3, ny=2, padding=1.5), pts)
        csvs = {
            w: run_grid(task, parts, RunConfig(workers=w)).to_csv_bytes()
            for w in (1, 2, 8)
        }
        assert csvs[1] == csvs[2] == csvs[8]

    def test_chunk_id_column_present(self):
        pts = scatter(10)
        task = TaskSpec("extract_at", grid_raster(), pts, {"radius": 0.0})
        parts = build_partition(GridSpec("grid", nx=2, ny=1), pts)
        t = run_grid(task, parts)
        assert t.columns[:2] == ["id", "chunk_id"]
        assert {row["chunk_id"] for row in t.rows} <= {0, 1}

    def test_pad_warning_when_radius_exceeds_padding(self):
        pts = scatter(10)
        task = TaskSpec("extract_at", grid_raster(), pts, {"radius": 3.0})
        parts = build_partition(GridSpec("grid", nx=2, ny=1, padding=1.0), pts)
        t = run_grid(task, parts)
        assert "pad_warning" in t.columns
        assert all(row["pad_warning"] == 1 for row in t.rows)

    def test_no_pad_warning_when_padding_suffices(self):
        pts = scatter(10)
        task = TaskSpec("extract_at", grid_raster(), pts, {"radius": 1.0})
        parts = build_partition(GridSpec("grid", nx=2, ny=1, padding=1.0), pts)
        t = run_grid(task, parts)
        assert "pad_warning" not in t.columns


class TestRunGridVectorOps:
    def test_sedc_equals_unpartitioned(self):
        pts = scatter(50, seed=3)
        src = scatter(80, seed=4)
        task = TaskSpec(
            "summarize_sedc", src, pts,
            {"bandwidth": 1.0, "maxdist": 2.0, "value_columns": ["v"]},
        )
        parts = build_partition(GridSpec("grid", nx=2, ny=2, padding=2.0), pts)
        got = run_grid(task, parts, RunConfig(workers=2))
        from gridchop.geoops import SedcParams, summarize_sedc

        want = summarize_sedc(pts, src, SedcParams(1.0, 2.0, ("v",)))
        by_id = {row["id"]: row for row in got.rows}
        for row in want.rows:
            assert by_id[row["id"]]["v_sedc"] == row["v_sedc"]
            assert by_id[row["id"]]["count"] == row["count"]

    def test_nearest_pad_warning_per_row(self):
        # nearest has unbounded interaction: rows whose distance exceeds the
        # padding are flagged individually
        pts = points_fs([(1.0, 1.0), (9.0, 9.0)])
        lines = FeatureSet([Feature("l", Polyline([Point(0.0, 0.0), Point(0.0, 2.0)]))])
        task = TaskSpec("nearest_distance", lines, pts, {})
        parts = build_partition(GridSpec("grid", nx=2, ny=1, padding=2.0), pts)
        t = run_grid(task, parts)
        by_id = {row["id"]: row for row in t.rows}
        assert by_id["p0"]["pad_warning"] == 0
        assert by_id["p1"]["pad_warning"] == 1

    def test_pad_y_swaps_roles(self):
        # anchors on x: one output row per x feature
        pts = scatter(12, seed=9)
        src = scatter(30, seed=10)
        task = TaskSpec(
            "summarize_sedc", pts, src,
            {"bandwidth": 1.0, "value_columns": ["v"]},
            pad_y=True,
        )
        parts = build_partition(GridSpec("grid", nx=2, ny=2, padding=2.0), pts)
        t = run_grid(task, parts)
        assert sorted(row["id"] for row in t.rows) == sorted(pts.ids())


class TestFaultIsolation:
    def _bad_task(self):
        # sedc with a value column missing from sources raises inside chunks
        pts = points_fs([(1, 1), (5, 5), (9, 9)])
        src = points_fs([(1, 1)])  # no "v" attribute
        return TaskSpec("summarize_sedc", src, pts,
                        {"bandwidth": 1.0, "value_columns": ["v"]})

    def test_capture_errors_collects_rows(self):
        pts = points_fs([(1.0, 1.0), (9.0, 9.0)])
        src = FeatureSet(
            [Feature("s0", Point(1.0, 1.0), {"v": 1.0})], ["v"]
        )
        task = TaskSpec("summarize_sedc", src, pts,
                        {"bandwidth": 1.0, "value_columns": ["v", "missing"]})
        parts = build_partition(GridSpec("grid", nx=2, ny=1, padding=2.0), pts)
        t = run_grid(task, parts, RunConfig(workers=1, capture_errors=True))
        assert t.had_errors
        assert "error" in t.columns
        # p0's chunk sees s0 and blows up on the missing column; p1's chunk
        # has no sources in range (empty-context fast path, no error)
        err_rows = [r for r in t.rows if r.get("error")]
        assert {r["id"] for r in err_rows} == {"p0"}
        ok = [r for r in t.rows if not r.get("error")]
        assert [r["id"] for r in ok] == ["p1"]

    def test_fail_fast_raises(self):
        # every chunk sees the poisoned source; both paths stop at the first
        task = self._bad_task()
        parts = build_partition(GridSpec("grid", nx=3, ny=1, padding=20.0), task.y)
        raised = []
        for workers in (1, 2):
            with pytest.raises(ChunkError) as exc:
                run_grid(task, parts, RunConfig(workers=workers, capture_errors=False))
            raised.append(exc.value.chunk_id)
        assert raised == [parts.chunks[0].chunk_id] * 2

    def test_dead_worker_gives_error_rows(self, tmp_path):
        # a worker that dies must not hang the run: every chunk without a
        # result gets error rows. Run in a subprocess so a hang times out.
        script = tmp_path / "dead_worker.py"
        script.write_text(textwrap.dedent("""
            import json, os
            import numpy as np
            from gridchop import geoops
            from gridchop.dataio import Feature, FeatureSet
            from gridchop.executor import RunConfig, TaskSpec, run_grid
            from gridchop.geom import Point
            from gridchop.partition import GridSpec, build_partition
            from gridchop.raster import Raster

            parent = os.getpid()
            original = geoops.extract_at

            def dying(*args, **kwargs):
                if os.getpid() != parent:
                    os._exit(1)
                return original(*args, **kwargs)

            geoops.extract_at = dying
            rng = np.random.default_rng(0)
            pts = FeatureSet([Feature(f"p{i}", Point(*map(float, rng.uniform(1, 19, 2))))
                              for i in range(40)])
            raster = Raster(20, 20, 0.0, 0.0, 1.0, -9999.0, rng.uniform(0, 10, (20, 20)))
            parts = build_partition(GridSpec("grid", nx=2, ny=2), pts)
            table = run_grid(TaskSpec("extract_at", raster, pts, {}), parts, RunConfig(workers=2))
            print(json.dumps({"ids": [r["id"] for r in table.rows],
                              "errors": sum(1 for r in table.rows if r.get("error")),
                              "had_errors": table.had_errors}))
        """))
        src = os.path.dirname(os.path.dirname(gridchop.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert sorted(out["ids"]) == sorted(f"p{i}" for i in range(40))
        assert out["errors"] >= 1 and out["had_errors"]

    def test_partial_failure_keeps_good_chunks(self):
        # chunk with the poisoned anchor errors; others produce rows
        pts = points_fs([(1.0, 1.0), (9.0, 2.0)])
        feats = [Feature("s0", Point(1.0, 1.0), {"v": 1.0}),
                 Feature("s1", Point(9.0, 2.0), {})]  # missing v near p1
        src = FeatureSet(feats, ["v"])
        task = TaskSpec("summarize_sedc", src, pts,
                        {"bandwidth": 1.0, "value_columns": ["v"]})
        parts = build_partition(GridSpec("grid", nx=2, ny=1, padding=2.0), pts)
        t = run_grid(task, parts, RunConfig(workers=2, capture_errors=True))
        good = [r for r in t.rows if not r.get("error")]
        bad = [r for r in t.rows if r.get("error")]
        assert [r["id"] for r in good] == ["p0"]
        assert [r["id"] for r in bad] == ["p1"]


class TestMergeChunks:
    def test_out_of_order_sorted(self):
        chunks = [
            ChunkResult(1, ["id", "x"], [{"id": "b", "x": 2.0}]),
            ChunkResult(0, ["id", "x"], [{"id": "a", "x": 1.0}]),
        ]
        t = merge_chunks(chunks, "id")
        assert [r["id"] for r in t.rows] == ["a", "b"]

    def test_all_empty(self):
        t = merge_chunks([ChunkResult(0), ChunkResult(1)], "id")
        assert t.rows == []

    def test_duplicate_chunk_id_rejected(self):
        with pytest.raises(InvalidParameterError):
            merge_chunks([ChunkResult(0), ChunkResult(0)], "id")

    def test_frequency_union_with_zero_fill(self):
        chunks = [
            ChunkResult(0, ["id", "freq_2", "count"],
                        [{"id": "a", "freq_2": 1.0, "count": 1.0}]),
            ChunkResult(1, ["id", "freq_10", "count"],
                        [{"id": "b", "freq_10": 2.0, "count": 2.0}]),
        ]
        t = merge_chunks(chunks, "id")
        assert t.columns == ["id", "chunk_id", "freq_2", "freq_10", "count"]
        assert t.rows[0]["freq_10"] == 0.0
        assert t.rows[1]["freq_2"] == 0.0

    def test_error_rows_one_per_anchor(self):
        chunks = [
            ChunkResult(0, ["id", "x"], [{"id": "a", "x": 1.0}]),
            ChunkResult(1, error="Traceback ...\nValueError: boom"),
        ]
        t = merge_chunks(chunks, "id", anchor_ids_by_chunk={1: ["b", "c"]})
        assert t.had_errors
        errs = [r for r in t.rows if r.get("error")]
        assert [r["id"] for r in errs] == ["b", "c"]
        assert all(r["error"] == "ValueError: boom" for r in errs)


class TestRunHierarchy:
    def test_group_column_and_order(self):
        pts = points_fs([(1, 1), (2, 2), (8, 8)],
                        extra=[{"cty": "B"}, {"cty": "A"}, {"cty": "A"}])
        r = grid_raster(10)
        task = TaskSpec("extract_at", r, pts, {"radius": 0.0})
        groups = group_by_hierarchy(pts, key="cty")
        t = run_hierarchy(task, groups)
        assert "group" in t.columns
        assert [row["group"] for row in t.rows] == ["A", "A", "B"]

    def test_single_group_equals_sequential(self):
        pts = scatter(15, seed=2)
        r = grid_raster()
        task = TaskSpec("extract_at", r, pts, {"radius": 1.0, "segments": 8})
        t = run_hierarchy(task, [("all", pts.ids())])
        from gridchop.geoops import extract_at

        want = extract_at(r, pts, radius=1.0, segments=8)
        assert [row["mean"] for row in t.rows] == [row["mean"] for row in want.rows]

    def test_groups_must_partition_anchors(self):
        pts = scatter(3)
        task = TaskSpec("nearest_distance", pts, pts, {})
        for groups in ([("a", ["p0", "p1", "p2", "ghost"])],  # unknown id
                       [("a", ["p0", "p1"]), ("b", ["p1", "p2"])],  # p1 twice
                       [("a", ["p0", "p1"])]):  # p2 in no group
            with pytest.raises(LoadError):
                run_hierarchy(task, groups)


class TestRunMultirasters:
    def _write(self, tmp_path, name, seed):
        path = str(tmp_path / name)
        write_raster(grid_raster(8, seed=seed), path)
        return path

    def test_two_identical_rasters(self, tmp_path):
        p1 = self._write(tmp_path, "a.asc", 0)
        p2 = self._write(tmp_path, "b.asc", 0)
        pts = scatter(10, lo=1.0, hi=7.0)
        task = TaskSpec("extract_at", p1, pts, {"radius": 0.0})
        t = run_multirasters(task, [p1, p2], RunConfig(workers=2))
        assert "raster" in t.columns
        half = len(t.rows) // 2
        a = [(r["id"], r["value"]) for r in t.rows[:half]]
        b = [(r["id"], r["value"]) for r in t.rows[half:]]
        assert a == b

    def test_single_path_identity(self, tmp_path):
        p1 = self._write(tmp_path, "a.asc", 5)
        pts = scatter(10, lo=1.0, hi=7.0)
        task = TaskSpec("extract_at", p1, pts, {"radius": 0.0})
        t = run_multirasters(task, [p1])
        from gridchop.dataio import load_raster
        from gridchop.geoops import extract_at

        want = extract_at(load_raster(p1), pts)
        assert [row["value"] for row in t.rows] == [row["value"] for row in want.rows]

    def test_bad_path_isolated(self, tmp_path):
        p1 = self._write(tmp_path, "a.asc", 0)
        p3 = self._write(tmp_path, "c.asc", 1)
        pts = scatter(4, lo=1.0, hi=7.0)
        task = TaskSpec("extract_at", p1, pts, {"radius": 0.0})
        t = run_multirasters(task, [p1, str(tmp_path / "missing.asc"), p3],
                             RunConfig(workers=2))
        assert t.had_errors
        errs = [r for r in t.rows if r.get("error")]
        good = [r for r in t.rows if not r.get("error")]
        assert len(errs) == len(pts)
        assert len(good) == 2 * len(pts)

    def test_only_extract_supported(self):
        pts = scatter(4)
        task = TaskSpec("nearest_distance", pts, pts, {})
        with pytest.raises(InvalidParameterError):
            run_multirasters(task, ["x.asc"])

    def test_no_paths_rejected(self):
        task = TaskSpec("extract_at", None, scatter(4), {})
        with pytest.raises(InvalidParameterError):
            run_multirasters(task, [])


class TestRunConfig:
    def test_workers_validation(self):
        with pytest.raises(InvalidParameterError):
            RunConfig(workers=0)
