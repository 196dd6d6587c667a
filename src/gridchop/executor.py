"""Chunked execution of a TaskSpec over a worker pool.

Three planners turn a run into a list of `Job`s: `run_grid` makes one per
PartitionSet chunk, `run_hierarchy` one per group, and `run_multirasters`
one per raster file. `_run` executes every plan the same way. Grid and
hierarchy jobs must own each anchor exactly once (the plan is checked before
any chunk runs), and they share one context dataset that each job clips
around its own anchors, so merged results never need deduplication and each
row is the row of an unpartitioned run. A shared raster given
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
from .geom import BBox
from .partition import PartitionSet
from .raster import Raster

OPS = ("extract_at", "summarize_aw", "summarize_sedc", "nearest_distance")


@dataclass
class TaskSpec:
    """Declarative binding of an operation to its context x, its anchors y
    (one output row each) and its parameters."""

    op: str
    x: Raster | FeatureSet | str | None  # str = raster path; None if each job names one
    y: FeatureSet
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in OPS:
            raise InvalidParameterError(f"unknown operation {self.op!r}")


@dataclass
class Job:
    """One chunk of a plan: its anchors, its context and its extra columns."""

    chunk_id: int
    anchor_ids: list[str]
    context: str | None = None  # the job's own raster path; None: the shared context
    extra: dict = field(default_factory=dict)  # e.g. {"group": key}, on every row


@dataclass
class ChunkResult:
    """A chunk's table, or the traceback of its failure."""

    chunk_id: int
    table: ResultTable | None = None
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
    return None  # nearest_distance


def _subset_by_bbox(fs: FeatureSet, box: BBox) -> FeatureSet:
    """The features whose bbox intersects `box` (edges touching count)."""
    b = fs.bounds()
    keep = (b[:, 0] <= box.xmax) & (b[:, 2] >= box.xmin)
    keep &= (b[:, 1] <= box.ymax) & (b[:, 3] >= box.ymin)
    return fs.subset(np.nonzero(keep)[0])


def _apply_clipped(task: TaskSpec, context: FeatureSet, anchors: FeatureSet, id_column: str):
    """The op over the context clipped to the anchors' bbox expanded by the
    op's radius, so each row is the row of an unclipped run. nearest_distance
    has none: it clips to the bbox expanded by half its larger side, then
    recomputes against the whole context every row (all of them if the clip
    is empty) not strictly nearer than the box's edge, beyond which any
    feature is at least that far."""
    radius = interaction_radius(task)
    box, clipped = None, context.subset([])
    if len(anchors):
        b = anchors.bounds()
        box = BBox(*b[:, :2].min(axis=0).tolist(), *b[:, 2:].max(axis=0).tolist())
        box = box.expand(0.5 * max(box.width, box.height) if radius is None else radius)
        clipped = _subset_by_bbox(context, box)
    if radius is not None:
        return _apply_op(task, clipped, anchors, id_column)
    if len(clipped) == 0:
        return _apply_op(task, context, anchors, id_column)
    table = _apply_op(task, clipped, anchors, id_column)
    x, y = anchors.coords.T
    edge = np.minimum.reduce([x - box.xmin, box.xmax - x, y - box.ymin, box.ymax - y])
    redo = np.nonzero(~(np.array(table.data["distance"]) < edge))[0]
    if redo.size:
        again = _apply_op(task, context, anchors.subset(redo), id_column)
        for name, column in table.data.items():
            for i, value in zip(redo.tolist(), again.data[name]):
                column[i] = value
    return table


def _run_chunk(job: Job) -> ChunkResult:
    task: TaskSpec = _CTX["task"]
    try:
        index_of = _CTX["index_of"]
        anchors: FeatureSet = _CTX["anchors"].subset([index_of[fid] for fid in job.anchor_ids])
        context = _CTX["context"]
        if job.context is not None:
            context = load_raster(job.context, kind=_CTX["raster_kind"])
        if isinstance(context, FeatureSet):
            table = _apply_clipped(task, context, anchors, _CTX["id_column"])
        else:
            table = _apply_op(task, context, anchors, _CTX["id_column"])
        return ChunkResult(job.chunk_id, table)
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
    """Concatenate chunk tables column by column, sorted by chunk_id.

    Every row gets its chunk_id and its chunk's extra columns, which win over
    op columns of the same name. Value columns come in first-seen order; with
    frequency columns, the sorted freq_* columns come first, then the other
    value columns, then count. A successful chunk's rows read 0.0 in the
    frequency columns they lack; any other missing field is None. A failed
    chunk gives one error row per anchor id.
    """
    seen = set()
    for c in chunks:
        if c.chunk_id in seen:
            raise InvalidParameterError(f"duplicate chunk_id {c.chunk_id}")
        seen.add(c.chunk_id)
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    anchor_ids_by_chunk = anchor_ids_by_chunk or {}
    extra_by_chunk = extra_by_chunk or {}
    tags = ["chunk_id", *dict.fromkeys(k for extra in extra_by_chunk.values() for k in extra)]
    values = list(dict.fromkeys(
        col for c in ordered if c.table is not None for col in c.table.data
        if col != id_column and col not in tags
    ))
    freq = sorted((col for col in values if col.startswith("freq_")), key=geoops.freq_sort_key)
    if freq:
        rest = [col for col in values if not col.startswith("freq_") and col != "count"]
        values = freq + rest + (["count"] if "count" in values else [])
    data: dict[str, list] = {col: [] for col in [id_column, *tags, *values]}
    if any(c.error is not None for c in ordered):
        data["error"] = []
    zero = dict.fromkeys(freq, 0.0)
    for c in ordered:
        if c.error is not None:
            ids = anchor_ids_by_chunk.get(c.chunk_id, [""])
            got, fill = {id_column: ids, "error": [_last_line(c.error)] * len(ids)}, {}
        else:
            got, fill = (c.table.data if c.table is not None else {}), zero
        n = len(next(iter(got.values()), ()))
        own = {"chunk_id": c.chunk_id, **extra_by_chunk.get(c.chunk_id, {})}
        for col, out in data.items():
            if col in own:
                out += [own[col]] * n
            elif col in got:
                out += got[col]
            else:
                out += [fill.get(col)] * n
    return ResultTable(data)


def _anchors(task: TaskSpec) -> FeatureSet:
    if not isinstance(task.y, FeatureSet):
        raise InvalidParameterError("the anchor dataset must be a FeatureSet")
    return task.y


def _check_plan(index_of: dict[str, int], jobs: list[Job]):
    """Raise LoadError on a repeated chunk id, or unless member ids partition the anchors."""
    owner: dict[str, int] = {}
    chunk_ids: set[int] = set()
    for job in jobs:
        if job.chunk_id in chunk_ids:
            raise LoadError(f"chunk id {job.chunk_id} is used by more than one chunk")
        chunk_ids.add(job.chunk_id)
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
    if not any(job.context is not None for job in jobs):
        _check_plan(index_of, jobs)
        context = task.x
    if isinstance(context, str):
        context = load_raster(context, kind=raster_kind)
    elif isinstance(context, FeatureSet):
        # build the bbox caches pre-fork, workers share them
        anchors.bounds()
        context.bounds()
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
    """Run the task chunk-by-chunk over a PartitionSet; only its member ids are read."""
    jobs = [Job(c.chunk_id, c.member_ids) for c in parts.chunks]
    return _run(task, jobs, cfg, id_column, raster_kind)


def run_hierarchy(
    task: TaskSpec,
    groups: list[tuple[str, list[str]]],
    cfg: RunConfig | None = None,
    id_column: str = "id",
    raster_kind: str = "continuous",
) -> ResultTable:
    """One chunk per hierarchy group; merge ordered by group key."""
    jobs = [
        Job(cid, member_ids, extra={"group": key})
        for cid, (key, member_ids) in enumerate(sorted(groups, key=lambda g: g[0]))
    ]
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
