"""Chunked execution of a TaskSpec over a worker pool.

Three planners turn a run into a list of `Job`s: `run_grid` makes one per
PartitionSet chunk, `run_hierarchy` one per group, and `run_multirasters`
one per raster file. `_run` executes every plan the same way. Grid and
hierarchy jobs must own each anchor exactly once (the plan is checked before
any chunk runs), and they share one context dataset that each job clips to
its bbox, so merged results never need deduplication. A shared raster given
by path is loaded once in the parent; it and in-memory datasets reach the
workers read-only via fork. Each multiraster job loads its own raster in its
worker. Determinism comes from merge ordering (by chunk id), not execution
order.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from . import geoops
from .dataio import FeatureSet, ResultTable, load_raster
from .errors import GridchopError, InvalidParameterError, LoadError
from .geom import BBox, bbox_of
from .partition import PartitionSet, group_by_hierarchy  # noqa: F401  (re-export)
from .raster import Raster

OPS = ("extract_at", "summarize_aw", "summarize_sedc", "nearest_distance")


@dataclass
class TaskSpec:
    """Declarative binding of an operation to x/y roles and parameters."""

    op: str
    x: Raster | FeatureSet | str | None  # str = raster path; None if each job names one
    y: FeatureSet
    params: dict = field(default_factory=dict)
    pad_y: bool = False

    def __post_init__(self):
        if self.op not in OPS:
            raise InvalidParameterError(f"unknown operation {self.op!r}")


@dataclass
class Job:
    """One chunk of a plan: its anchors, its context and its extra columns."""

    chunk_id: int
    anchor_ids: list[str]
    context: BBox | str | None = None  # clip box over the shared context, or a raster path
    extra: dict = field(default_factory=dict)  # e.g. {"group": key}, on every row
    pad_warning: bool = False  # flag every row: padding is below the op's radius
    warn_distance: float | None = None  # flag rows whose distance exceeds this


@dataclass
class ChunkResult:
    chunk_id: int
    columns: list[str] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    error: str | None = None


@dataclass
class RunConfig:
    workers: int = 1
    capture_errors: bool = True  # False: the first failed chunk raises ChunkError

    def __post_init__(self):
        if self.workers < 1:
            raise InvalidParameterError("workers must be >= 1")


def _last_line(error: str) -> str:
    return error.strip().splitlines()[-1] if error.strip() else "error"


class ChunkError(GridchopError):
    """A chunk failed in a run that does not capture errors."""

    def __init__(self, chunk_id: int, error: str):
        super().__init__(f"chunk {chunk_id}: {_last_line(error)}")
        self.chunk_id = chunk_id
        self.traceback = error


# Shared state of the current run, set once before the workers fork.
_CTX: dict = {}


def _apply_op(task: TaskSpec, x, y, id_column: str) -> ResultTable:
    p = task.params
    if task.op == "extract_at":
        return geoops.extract_at(
            x,
            y,
            radius=float(p.get("radius", 0.0)),
            stat=p.get("stat", "mean"),
            id_column=id_column,
            segments=int(p.get("segments", 64)),
        )
    if task.op == "summarize_aw":
        return geoops.summarize_aw(
            y, x, list(p["value_columns"]), stat=p.get("stat", "mean"), id_column=id_column
        )
    if task.op == "summarize_sedc":
        sp = geoops.SedcParams(
            bandwidth=float(p["bandwidth"]),
            maxdist=float(p["maxdist"]) if p.get("maxdist") is not None else None,
            value_columns=tuple(p["value_columns"]),
        )
        return geoops.summarize_sedc(y, x, sp, id_column=id_column)
    return geoops.nearest_distance(y, x, id_column=id_column)


def interaction_radius(task: TaskSpec) -> float | None:
    """Context distance the op needs around each anchor; None if unbounded."""
    p = task.params
    if task.op == "extract_at":
        return float(p.get("radius", 0.0))
    if task.op == "summarize_sedc":
        md = p.get("maxdist")
        return float(md) if md is not None else 2.0 * float(p["bandwidth"])
    if task.op == "summarize_aw":
        return 0.0
    return None  # nearest_distance: unbounded, flagged per row instead


def _subset_by_bbox(fs: FeatureSet, box: BBox) -> FeatureSet:
    if fs.geometry_kind() == "point":
        c = fs.point_coords()
        keep = (
            (c[:, 0] >= box.xmin)
            & (c[:, 0] <= box.xmax)
            & (c[:, 1] >= box.ymin)
            & (c[:, 1] <= box.ymax)
        )
        return fs.subset(np.nonzero(keep)[0].tolist())
    idx = [i for i, f in enumerate(fs.features) if box.intersects(bbox_of(f.geometry))]
    return fs.subset(idx)


def _run_chunk(job: Job) -> ChunkResult:
    task: TaskSpec = _CTX["task"]
    try:
        index_of = _CTX["index_of"]
        anchors: FeatureSet = _CTX["anchors"].subset([index_of[fid] for fid in job.anchor_ids])
        context = _CTX["context"]
        if isinstance(job.context, str):
            context = load_raster(job.context, kind=_CTX["raster_kind"])
        elif isinstance(context, FeatureSet) and job.context is not None:
            clipped = _subset_by_bbox(context, job.context)
            # nearest_distance has unbounded interaction: an empty padded
            # subset falls back to the full context (rows beyond the padding
            # get flagged below either way)
            if len(clipped) == 0 and task.op == "nearest_distance":
                clipped = context
            context = clipped
        # pad_y only changes which of task.x/task.y is the anchor side (the
        # caller resolved that); ops always take (context, anchors)
        table = _apply_op(task, context, anchors, _CTX["id_column"])
        rows = table.rows
        if job.pad_warning:
            for row in rows:
                row["pad_warning"] = 1
        elif job.warn_distance is not None:
            for row in rows:
                if row.get("distance") is not None and row["distance"] > job.warn_distance:
                    row["pad_warning"] = 1
        return ChunkResult(job.chunk_id, table.columns, rows)
    except Exception:
        return ChunkResult(job.chunk_id, error=traceback.format_exc(limit=4))


def _checked(res: ChunkResult, cfg: RunConfig) -> ChunkResult:
    if res.error is not None and not cfg.capture_errors:
        raise ChunkError(res.chunk_id, res.error)
    return res


def _execute(jobs: list[Job], cfg: RunConfig) -> list[ChunkResult]:
    """Each job's result, in job order: a loop at one worker, else one fork
    pool. A dead worker breaks the pool, and every job still without a
    result gets an error."""
    if cfg.workers == 1 or len(jobs) <= 1:
        return [_checked(_run_chunk(job), cfg) for job in jobs]
    results = []
    pool = ProcessPoolExecutor(min(cfg.workers, len(jobs)), mp_context=mp.get_context("fork"))
    try:
        futures = [pool.submit(_run_chunk, job) for job in jobs]
        for job, future in zip(jobs, futures):
            try:
                res = future.result()
            except BrokenProcessPool:
                res = ChunkResult(job.chunk_id, error=traceback.format_exc(limit=1))
            results.append(_checked(res, cfg))
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def merge_chunks(
    chunks: list[ChunkResult],
    id_column: str,
    anchor_ids_by_chunk: dict[int, list[str]] | None = None,
    extra_by_chunk: dict[int, dict] | None = None,
) -> ResultTable:
    """Concatenate chunk outputs sorted by chunk_id; errors become rows.

    Every row gets its chunk_id and its chunk's extra columns; a failed
    chunk gives one error row per anchor id.
    """
    seen = set()
    for c in chunks:
        if c.chunk_id in seen:
            raise InvalidParameterError(f"duplicate chunk_id {c.chunk_id}")
        seen.add(c.chunk_id)
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    extra_by_chunk = extra_by_chunk or {}
    extra_cols = list(dict.fromkeys(k for extra in extra_by_chunk.values() for k in extra))

    value_cols: list[str] = []
    freq_cols: set[str] = set()
    for c in ordered:
        for col in c.columns:
            if col == id_column:
                continue
            if col.startswith("freq_"):
                freq_cols.add(col)
            elif col not in value_cols:
                value_cols.append(col)
    sorted_freq = sorted(freq_cols, key=geoops.freq_sort_key)
    if sorted_freq:
        value_cols = sorted_freq + [c for c in value_cols if c != "count"] + (
            ["count"] if any(c.columns and "count" in c.columns for c in ordered) else []
        )

    rows: list[dict] = []
    had_errors = False
    has_warn = False
    for c in ordered:
        tags = {"chunk_id": c.chunk_id, **extra_by_chunk.get(c.chunk_id, {})}
        if c.error is not None:
            had_errors = True
            ids = (anchor_ids_by_chunk or {}).get(c.chunk_id, [""])
            msg = _last_line(c.error)
            for fid in ids:
                rows.append({id_column: fid, **tags, "error": msg})
            continue
        for row in c.rows:
            row.update(tags)
            if sorted_freq:
                for fc in sorted_freq:
                    row.setdefault(fc, 0.0)
            if row.get("pad_warning"):
                has_warn = True
            rows.append(row)
    columns = [id_column, "chunk_id"] + extra_cols + value_cols
    if has_warn or any(r.get("pad_warning") is not None for r in rows):
        columns.append("pad_warning")
        for r in rows:
            r.setdefault("pad_warning", 0)
    if had_errors:
        columns.append("error")
    return ResultTable(columns, rows, had_errors=had_errors)


def _anchors(task: TaskSpec) -> FeatureSet:
    anchors = task.x if task.pad_y else task.y
    if not isinstance(anchors, FeatureSet):
        raise InvalidParameterError("the anchor dataset must be a FeatureSet")
    return anchors


def _check_plan(index_of: dict[str, int], jobs: list[Job]):
    """Raise LoadError unless the jobs' member ids partition the anchor ids."""
    owner: dict[str, int] = {}
    for job in jobs:
        for fid in job.anchor_ids:
            if fid not in index_of:
                raise LoadError(f"chunk {job.chunk_id}: member id {fid!r} is not an anchor id")
            if fid in owner:
                raise LoadError(
                    f"chunk {job.chunk_id}: member id {fid!r} is already in chunk {owner[fid]}"
                )
            owner[fid] = job.chunk_id
    missing = [fid for fid in index_of if fid not in owner]
    if missing:
        raise LoadError(f"{len(missing)} anchor ids are in no chunk, first {missing[0]!r}")


def _run(
    task: TaskSpec, jobs: list[Job], cfg: RunConfig | None, id_column: str, raster_kind: str
) -> ResultTable:
    """Check the plan, share the context with the workers, run, merge."""
    global _CTX
    anchors = _anchors(task)
    index_of = {fid: i for i, fid in enumerate(anchors.ids())}
    # jobs that name a raster path each take every anchor and no shared context
    context = None
    if not any(isinstance(job.context, str) for job in jobs):
        _check_plan(index_of, jobs)
        context = task.y if task.pad_y else task.x
    if isinstance(context, str):
        context = load_raster(context, kind=raster_kind)
    elif isinstance(context, FeatureSet) and context.geometry_kind() == "point":
        context.point_coords()  # build the cache pre-fork, workers share it
    _CTX = dict(
        task=task,
        id_column=id_column,
        anchors=anchors,
        index_of=index_of,
        context=context,
        raster_kind=raster_kind,
    )
    try:
        results = _execute(jobs, cfg or RunConfig())
    finally:
        _CTX = {}  # the run's datasets must not outlive it
    return merge_chunks(
        results,
        id_column,
        {job.chunk_id: job.anchor_ids for job in jobs},
        {job.chunk_id: job.extra for job in jobs},
    )


def run_grid(
    task: TaskSpec,
    parts: PartitionSet,
    cfg: RunConfig | None = None,
    id_column: str = "id",
    raster_kind: str = "continuous",
) -> ResultTable:
    """Run the task chunk-by-chunk over a PartitionSet with member assignments."""
    radius = interaction_radius(task)
    pad_short = radius is not None and radius > parts.padding and radius > 0
    warn_distance = parts.padding if task.op == "nearest_distance" else None
    jobs = [
        Job(c.chunk_id, c.member_ids, c.padded, pad_warning=pad_short, warn_distance=warn_distance)
        for c in parts.chunks
    ]
    return _run(task, jobs, cfg, id_column, raster_kind)


def run_hierarchy(
    task: TaskSpec,
    groups: list[tuple[str, list[str]]],
    cfg: RunConfig | None = None,
    id_column: str = "id",
    raster_kind: str = "continuous",
) -> ResultTable:
    """One chunk per hierarchy group; merge ordered by group key."""
    geometry = {f.id: f.geometry for f in _anchors(task).features}
    radius = interaction_radius(task) or 0.0
    jobs = []
    for cid, (key, member_ids) in enumerate(sorted(groups, key=lambda g: g[0])):
        # the context clip: the members' bbox, expanded by the op's radius
        # (ids that are not anchors are reported by _run's plan check)
        boxes = [bbox_of(geometry[fid]) for fid in member_ids if fid in geometry]
        box = BBox.union(boxes).expand(radius) if boxes else None
        jobs.append(Job(cid, member_ids, box, {"group": key}))
    return _run(task, jobs, cfg, id_column, raster_kind)


def run_multirasters(
    task: TaskSpec,
    raster_paths: list[str],
    cfg: RunConfig | None = None,
    id_column: str = "id",
    raster_kind: str = "continuous",
) -> ResultTable:
    """Evaluate the full anchor set against each raster path (one chunk each)."""
    if task.op != "extract_at":
        raise InvalidParameterError("run_multirasters supports only extract_at")
    if not raster_paths:
        raise InvalidParameterError("run_multirasters needs at least one raster path")
    ids = _anchors(task).ids()
    jobs = [Job(cid, ids, path, {"raster": path}) for cid, path in enumerate(raster_paths)]
    return _run(task, jobs, cfg, id_column, raster_kind)
