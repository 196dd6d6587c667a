"""Chunked execution of a TaskSpec over forked workers.

Three planners turn a run into a list of `Job`s: `run_grid` makes one per
PartitionSet chunk, `run_hierarchy` one per group, and `run_multirasters`
one per raster file. `_run` executes every plan the same way. It checks the
inputs as the op does (parameters, context type, geometry kinds, value
columns, a non-empty nearest context), resolves each job's member ids to anchor
indices once, and checks that grid and hierarchy jobs own each anchor
exactly once, all before any chunk runs. Those jobs share one context
dataset that each job clips around its own anchors, so merged results never
need deduplication and each row is the row of an unpartitioned run. A
chunk's table holds the op's value columns only, one row per anchor; the
merge attaches each row's anchor id, chunk id and extra columns.

At more than one worker the jobs are split into one batch per worker,
largest first by anchor count (Graham's LPT rule), and one worker process is
forked per batch. A worker inherits its batch and the run's datasets
through fork, read-only; nothing is sent to it. It sends its batch's results
back on one pipe. A shared raster given by path is loaded once in the
parent; each multiraster job loads its own raster in its worker. A worker
that dies gives error rows to the chunks of its own batch only.
Determinism comes from merge ordering (by chunk id), not execution order.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from . import geoops
from .dataio import FeatureSet, ResultTable, load_raster
from .errors import GridchopError, InvalidParameterError, LoadError
from .geom import BBox
from .partition import PartitionSet
from .raster import Raster


@dataclass
class TaskSpec:
    """Declarative binding of an operation to its context x, its anchors y
    (one output row each) and its parameters."""

    op: str
    x: Raster | FeatureSet | str | None  # str = raster path; None if each job names one
    y: FeatureSet
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in geoops.OP_KINDS:
            raise InvalidParameterError(f"unknown operation {self.op!r}")


@dataclass
class Job:
    """One chunk of a plan: its anchors, its context and its extra columns."""

    chunk_id: int
    anchor_ids: list[str]
    context: str | None = None  # the job's own raster path; None: the shared context
    extra: dict = field(default_factory=dict)  # e.g. {"group": key}, on every row
    rows: np.ndarray | None = None  # anchor index of each member id, -1 if none; set by _run


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


@dataclass
class _Run:
    """The shared state of one run; forked workers inherit it read-only."""

    task: TaskSpec
    anchors: FeatureSet
    context: Raster | FeatureSet | None
    raster_kind: str


def _apply_op(task: TaskSpec, x, y) -> ResultTable:
    """The task's op over context x and anchors y, its arguments read by geoops.op_args."""
    xy = (x, y) if task.op == "extract_at" else (y, x)
    return getattr(geoops, task.op)(*xy, **geoops.op_args(task.op, task.params))


def interaction_radius(task: TaskSpec) -> float | None:
    """Context distance the op needs around each anchor; None if unbounded."""
    args = geoops.op_args(task.op, task.params)
    if task.op == "summarize_sedc":
        return args["params"].maxdist
    # summarize_aw has no radius: a source must overlap its target
    return None if task.op == "nearest_distance" else args.get("radius", 0.0)


def _subset_by_bbox(fs: FeatureSet, box: BBox) -> FeatureSet:
    """The features whose bbox intersects `box` (edges touching count)."""
    b = fs.bounds()
    keep = (b[:, 0] <= box.xmax) & (b[:, 2] >= box.xmin)
    keep &= (b[:, 1] <= box.ymax) & (b[:, 3] >= box.ymin)
    return fs.subset(np.nonzero(keep)[0])


def _apply_clipped(task: TaskSpec, context: FeatureSet, anchors: FeatureSet):
    """The op over the context clipped to the anchors' bbox expanded by the
    op's radius, so each row is the row of an unclipped run. nearest_distance
    has none: it clips to the bbox expanded by half its larger side, then
    recomputes against the whole context every row (all of them if the clip
    is empty) not strictly nearer than the box's edge, beyond which any
    feature is at least that far.

    The op's own distances round, and so do the box's sums, each by an ulp
    or so of the numbers involved; the box is widened, and the edge pulled
    in, by a margin of several ulps of the largest of them, so the clip
    holds every feature the op could admit or find nearest."""
    radius = interaction_radius(task)
    if not len(anchors):  # no box: an empty clip, which nearest_distance widens to all
        clipped = context if radius is None else context.subset([])
        return _apply_op(task, clipped, anchors)
    b = anchors.bounds()
    lo, hi = b[:, :2].min(axis=0), b[:, 2:].max(axis=0)
    reach = 0.5 * float((hi - lo).max()) if radius is None else radius
    margin = 8 * np.finfo(float).eps * (float(np.abs(b).max()) + reach)
    box = BBox(*lo.tolist(), *hi.tolist()).expand(reach + margin)
    clipped = _subset_by_bbox(context, box)
    if radius is not None:
        return _apply_op(task, clipped, anchors)
    if len(clipped) == 0:
        return _apply_op(task, context, anchors)
    table = _apply_op(task, clipped, anchors)
    x, y = anchors.coords.T
    edge = np.minimum.reduce([x - box.xmin, box.xmax - x, y - box.ymin, box.ymax - y]) - margin
    redo = np.nonzero(~(np.array(table.data["distance"]) < edge))[0]
    if redo.size:
        again = _apply_op(task, context, anchors.subset(redo))
        for name, column in table.data.items():
            for i, value in zip(redo.tolist(), again.data[name]):
                column[i] = value
    return table


def _run_chunk(chunk: tuple[_Run, Job]) -> ChunkResult:
    """The op's table over the job's anchors: one row per anchor, or an error."""
    run, job = chunk
    try:
        anchors = run.anchors.subset(job.rows)
        context = run.context
        if job.context is not None:
            context = load_raster(job.context, kind=run.raster_kind)
        if isinstance(context, FeatureSet):
            table = _apply_clipped(run.task, context, anchors)
        else:
            table = _apply_op(run.task, context, anchors)
        for name, column in table.data.items():
            if len(column) != len(anchors):
                raise GridchopError(f"column {name!r} has {len(column)} rows for "
                                    f"{len(anchors)} anchors")
        return ChunkResult(job.chunk_id, table)
    except Exception:
        return ChunkResult(job.chunk_id, error=traceback.format_exc(limit=4))


def _checked(res: ChunkResult, cfg: RunConfig) -> ChunkResult:
    if res.error is not None and not cfg.capture_errors:
        raise ChunkError(res.chunk_id, res.error)
    return res


def lpt_batches(sizes: list[int], workers: int) -> list[list[int]]:
    """The positions of `sizes` split into min(workers, len(sizes)) batches by
    Graham's longest-processing-time rule: largest first (equal sizes in
    position order), each to the batch with the least total so far, then the
    fewest members, then the lowest index. Each batch lists its positions in
    ascending order."""
    batches: list[list[int]] = [[] for _ in range(min(workers, len(sizes)))]
    loads = [0] * len(batches)
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        b = min(range(len(batches)), key=lambda b: (loads[b], len(batches[b])))
        batches[b].append(i)
        loads[b] += sizes[i]
    return [sorted(batch) for batch in batches]


def _work(writer, chunks: list[tuple[_Run, Job]]):
    """A forked worker's body: run its batch, send the results home."""
    writer.send([_run_chunk(chunk) for chunk in chunks])
    writer.close()


def _execute(run: _Run, jobs: list[Job], cfg: RunConfig) -> list[ChunkResult]:
    """Each job's result, in job order: a loop at one worker, else one forked
    worker per LPT batch. A worker that dies before its results arrive gives
    an error to every job of its batch."""
    if cfg.workers == 1 or len(jobs) <= 1:
        return [_checked(_run_chunk((run, job)), cfg) for job in jobs]
    fork = mp.get_context("fork")
    results: list[ChunkResult | None] = [None] * len(jobs)
    workers = []
    try:
        for batch in lpt_batches([len(job.anchor_ids) for job in jobs], cfg.workers):
            reader, writer = fork.Pipe(duplex=False)
            proc = fork.Process(target=_work, args=(writer, [(run, jobs[i]) for i in batch]),
                                daemon=True)
            # close this write end before the next fork: a dead worker's pipe
            # reads EOF only once every copy of its write end is closed
            with writer:
                proc.start()
            workers.append((proc, reader, batch))
        for proc, reader, batch in workers:
            try:
                got = reader.recv()
            except EOFError:
                proc.join()
                error = f"worker {proc.pid} died with exit code {proc.exitcode}"
                got = [ChunkResult(jobs[i].chunk_id, error=error) for i in batch]
            for i, res in zip(batch, got):
                results[i] = res
    except BaseException:
        for proc, _, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, reader, _ in workers:
            proc.join()
            proc.close()
            reader.close()
    return [_checked(res, cfg) for res in results]


def merge_chunks(
    chunks: list[ChunkResult],
    id_column: str,
    anchor_ids_by_chunk: dict[int, list[str]],
    extra_by_chunk: dict[int, dict] | None = None,
) -> ResultTable:
    """Concatenate chunk tables column by column, sorted by chunk_id.

    A chunk's table holds value columns only, one row per anchor id of its
    chunk in anchor_ids_by_chunk, in that order. Every row gets its anchor
    id, its chunk_id and its chunk's extra columns, which win over value
    columns of the same name. Value columns come in first-seen order; with
    frequency columns, the sorted freq_* columns come first, then the other
    value columns, then count. A successful chunk's rows read 0.0 in the
    frequency columns they lack; any other missing field is None. A failed
    chunk gives one error row per anchor id. An id column named like any
    other column raises InvalidParameterError.
    """
    seen = set()
    for c in chunks:
        if c.chunk_id in seen:
            raise InvalidParameterError(f"duplicate chunk_id {c.chunk_id}")
        seen.add(c.chunk_id)
    ordered = sorted(chunks, key=lambda c: c.chunk_id)
    extra_by_chunk = extra_by_chunk or {}
    tags = ["chunk_id", *dict.fromkeys(k for extra in extra_by_chunk.values() for k in extra)]
    values = list(dict.fromkeys(
        col for c in ordered if c.table is not None for col in c.table.data if col not in tags
    ))
    freq = sorted((col for col in values if col.startswith("freq_")), key=geoops.freq_sort_key)
    if freq:
        rest = [col for col in values if not col.startswith("freq_") and col != "count"]
        values = freq + rest + (["count"] if "count" in values else [])
    if any(c.error is not None for c in ordered):
        values.append("error")
    if id_column in tags or id_column in values:
        raise InvalidParameterError(f"id column {id_column!r} is also an output column")
    data: dict[str, list] = {col: [] for col in [id_column, *tags, *values]}
    zero = dict.fromkeys(freq, 0.0)
    for c in ordered:
        ids = anchor_ids_by_chunk[c.chunk_id]
        n = len(ids)
        if c.error is not None:
            got, fill = {"error": [_last_line(c.error)] * n}, {}
        else:
            got, fill = (c.table.data if c.table is not None else {}), zero
        own = {"chunk_id": c.chunk_id, **extra_by_chunk.get(c.chunk_id, {})}
        got = {**got, id_column: ids, **{col: [value] * n for col, value in own.items()}}
        for col, out in data.items():
            out += got[col] if col in got else [fill.get(col)] * n
    return ResultTable(data)


def _anchors(task: TaskSpec) -> FeatureSet:
    if not isinstance(task.y, FeatureSet):
        raise InvalidParameterError("the anchor dataset must be a FeatureSet")
    return task.y


def _resolve(index_of: dict[str, int], jobs: list[Job]):
    """Set each job's rows: the anchor index of each member id, -1 if none."""
    ids = list(chain.from_iterable(job.anchor_ids for job in jobs))
    rows = np.fromiter(map(index_of.get, ids, repeat(-1)), np.intp, len(ids))
    ends = np.cumsum([len(job.anchor_ids) for job in jobs]).tolist()
    for job, lo, hi in zip(jobs, [0, *ends], ends):
        job.rows = rows[lo:hi]


def _check_plan(ids: list[str], jobs: list[Job]):
    """Raise LoadError on a repeated chunk id, or unless the jobs' rows
    partition the anchors. The first fault in plan order is named."""
    rows = np.concatenate([np.zeros(0, np.intp), *(job.rows for job in jobs)])
    per_anchor = np.bincount(rows + 1, minlength=len(ids) + 1)  # bin 0: no such anchor
    if per_anchor[0] or per_anchor.max() > 1 or len({job.chunk_id for job in jobs}) < len(jobs):
        owner: dict[int, int] = {}
        chunk_ids: set[int] = set()
        for job in jobs:
            if job.chunk_id in chunk_ids:
                raise LoadError(f"chunk id {job.chunk_id} is used by more than one chunk")
            chunk_ids.add(job.chunk_id)
            for fid, row in zip(job.anchor_ids, job.rows.tolist()):
                if row < 0:
                    raise LoadError(f"chunk {job.chunk_id}: member id {fid!r} is not an anchor id")
                if row in owner:
                    raise LoadError(
                        f"chunk {job.chunk_id}: member id {fid!r} is already in chunk {owner[row]}"
                    )
                owner[row] = job.chunk_id
    missing = np.flatnonzero(per_anchor[1:] == 0)
    if missing.size:
        raise LoadError(f"{missing.size} anchor ids are in no chunk, first {ids[missing[0]]!r}")


def _run(
    task: TaskSpec, jobs: list[Job], cfg: RunConfig | None, id_column: str, raster_kind: str
) -> ResultTable:
    """Check the inputs and the plan, run the jobs, merge."""
    anchors = _anchors(task)
    # jobs that name a raster path each take every anchor and no shared context
    own = [job.context for job in jobs if job.context is not None]
    geoops.check_inputs(task.op, anchors, own[0] if own else task.x, task.params, raster_kind)
    ids = anchors.ids()
    context = None
    if own:
        every = np.arange(len(ids))
        for job in jobs:
            job.rows = every
    else:
        _resolve({fid: i for i, fid in enumerate(ids)}, jobs)
        _check_plan(ids, jobs)
        context = task.x
    if isinstance(context, str):
        context = load_raster(context, kind=raster_kind)
    elif isinstance(context, FeatureSet):
        # build the bbox caches pre-fork, workers share them
        anchors.bounds()
        context.bounds()
    results = _execute(_Run(task, anchors, context, raster_kind), jobs, cfg or RunConfig())
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
