"""Chunked execution of a TaskSpec over forked workers.

Three planners turn a run into a list of `Job`s: `run_grid` makes one per
PartitionSet chunk, `run_hierarchy` one per group, and `run_multirasters`
one per raster file. `_run` executes every plan the same way. It checks the
inputs with geoops.check_inputs, as the op does, resolves each job's member
ids to anchor indices once, and checks that grid and hierarchy jobs own each
anchor exactly once, all before any chunk runs. That check also caches the
context's converted value columns and the cache the op prunes by, and `_run`
builds the anchors' bounds(), all before any fork, so a chunk's own check
and prune read those caches. `_run` holds no rule about any op; the
executor's only ones are `_apply_op`'s argument order and that
`run_multirasters` plans extract_at alone.

Grid and hierarchy jobs share one context dataset. A chunk's anchors are
index arrays into the run's anchors (their gathered geometry, ids and
bounds, no attributes), and the op itself prunes the whole context to
those anchors' reach (see geoops), so merged results never need
deduplication and each row is the row of an unpartitioned run. A chunk's
table holds the op's value columns only, one row per anchor; the merge
attaches each row's anchor id, chunk id and extra columns.

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
    anchor_ids: list[str]  # a job that names a raster path takes every anchor; set by _run
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


def _run_chunk(chunk: tuple[_Run, Job]) -> ChunkResult:
    """The op's table over the job's anchors: one row per anchor, or an error."""
    run, job = chunk
    try:
        rows = job.rows
        anchors = FeatureSet.from_columns(
            job.anchor_ids, *run.anchors.gather(rows), run.anchors.kinds[rows],
            bounds=run.anchors.bounds()[rows],
        )
        context = run.context
        if job.context is not None:
            context = load_raster(job.context, kind=run.raster_kind)
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
    frequency columns, those geoops.freq_columns alone picks out and orders
    come first, then the other value columns, then count. A successful
    chunk's rows read 0.0 in the frequency columns they lack; any other
    missing field is None. A failed chunk gives one error row per anchor id.
    An id column named like any other column raises InvalidParameterError.
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
    zero = dict.fromkeys(geoops.freq_columns(values), 0.0)
    if zero:
        rest = [col for col in values if col not in zero and col != "count"]
        values = [*zero, *rest, *(["count"] if "count" in values else [])]
    if any(c.error is not None for c in ordered):
        values.append("error")
    if id_column in tags or id_column in values:
        raise InvalidParameterError(f"id column {id_column!r} is also an output column")
    data: dict[str, list] = {col: [] for col in [id_column, *tags, *values]}
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
    anchors = task.y
    # jobs that name a raster path each take every anchor and no shared context
    own = [job.context for job in jobs if job.context is not None]
    geoops.check_inputs(task.op, anchors, own[0] if own else task.x, task.params, raster_kind)
    ids = anchors.ids()
    context = None
    if own:
        every = np.arange(len(ids))
        for job in jobs:
            job.anchor_ids, job.rows = ids, every
    else:
        _resolve({fid: i for i, fid in enumerate(ids)}, jobs)
        _check_plan(ids, jobs)
        context = task.x
    if isinstance(context, str):
        context = load_raster(context, kind=raster_kind)
    anchors.bounds()  # each chunk slices its anchors' boxes from it
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
    jobs = [Job(cid, [], path, {"raster": path}) for cid, path in enumerate(raster_paths)]
    return _run(task, jobs, cfg, id_column, raster_kind)
