"""Spans and counters recorded from outside gridchop, around calls into it.

A probe replaces one module attribute, at the place where its caller looks
it up (e.g. `gridchop.executor.load_raster`), with a wrapper that records a
span (name, start, end, parent span, job id) and the probe's counters.
`Tracer.restore` puts every original back. Spans made in forked pool workers
ride back to the parent on the chunk result the worker returns and are
collected when the executor merges its chunks, so worker layers are measured
at any worker count.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

_WORKER_TRACE = "_perfbench_trace"  # attribute carrying a worker's spans home


# --- counters: (counts, args, kwargs, result) -> None ----------------------


def _features_read(counts, args, kwargs, result):
    counts["dataio.features_read"] += len(result)


def _raster_read(counts, args, kwargs, result):
    counts["dataio.load_raster_calls"] += 1
    counts["dataio.raster_cells_read"] += int(np.size(result.values))


def _bytes_written(counts, args, kwargs, result):
    counts["dataio.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _chunk_sizes(counts, sizes):
    counts["partition.builds"] += 1
    counts["partition.chunks"] += len(sizes)
    counts["partition.imbalance"] += max(sizes) / (sum(sizes) / len(sizes))


def _partition_built(counts, args, kwargs, result):
    _chunk_sizes(counts, [len(c.member_ids) for c in result.chunks])


def _groups_built(counts, args, kwargs, result):
    _chunk_sizes(counts, [len(ids) for _, ids in result])


def _run_rows(counts, args, kwargs, result):
    counts["executor.error_rows"] += sum(1 for r in result.rows if r.get("error"))
    counts["executor.pad_warning_rows"] += sum(1 for r in result.rows if r.get("pad_warning") == 1)


def _context(counts, anchors, context):
    counts["executor.context_features"] += len(context)
    counts["executor.context_anchors"] += len(anchors)


def _sedc(counts, args, kwargs, result):
    targets, sources = args[0], args[1]
    _context(counts, targets, sources)
    counts["geoops.sedc_pairs"] += len(targets) * len(sources)
    counts["geoops.sedc_contributions"] += sum(r["count"] for r in result.rows)


def _nearest(counts, args, kwargs, result):
    anchors, context = args[0], args[1]
    _context(counts, anchors, context)
    segments = sum(
        max(1, len(getattr(f.geometry, "vertices", ())) - 1) for f in context.features
    )
    counts["geoops.nearest_pairs"] += len(anchors) * segments


def _boxes(fs):
    from gridchop.geom import bbox_of

    return np.array(
        [(b.xmin, b.ymin, b.xmax, b.ymax) for b in (bbox_of(f.geometry) for f in fs.features)]
    ).reshape(-1, 4)


def _aw(counts, args, kwargs, result):
    targets, sources = args[0], args[1]
    _context(counts, targets, sources)
    t, s = _boxes(targets), _boxes(sources)
    overlap = (
        (t[:, None, 0] <= s[None, :, 2])
        & (s[None, :, 0] <= t[:, None, 2])
        & (t[:, None, 1] <= s[None, :, 3])
        & (s[None, :, 1] <= t[:, None, 3])
    )
    counts["geoops.aw_pairs"] += overlap.size
    counts["geoops.aw_bbox_pairs"] += int(overlap.sum())


def _clip(counts, args, kwargs, result):
    xs, cx0 = args[0], args[2]
    cells = int(np.prod(np.broadcast_shapes(np.shape(cx0), np.shape(xs)[:-1])))
    counts["raster.clip_cells"] += cells
    counts["raster.clip_slots"] += cells * np.shape(xs)[-1] * 9
    counts["raster.clip_positive"] += int(np.count_nonzero(np.asarray(result) > 0.0))


def _coverage(counts, args, kwargs, result):
    counts["raster.coverage_cells"] += len(result)


# (module, attribute, span name, counter). The span name's first part is the
# layer; its self time is reported as "<span name>_s".
PROBES = (
    ("gridchop.cli", "main", "cli", None),
    ("gridchop.dataio", "load_features", "dataio.load_features", _features_read),
    ("gridchop.executor", "load_raster", "dataio.load_raster", _raster_read),
    ("gridchop.dataio", "save_table", "dataio.save_table", _bytes_written),
    ("gridchop.dataio", "load_partitions", "dataio.load_partitions", None),
    ("gridchop.dataio", "save_partitions", "dataio.save_partitions", None),
    ("gridchop.cli", "build_partition", "partition.build", _partition_built),
    ("gridchop.cli", "group_by_hierarchy", "partition.build", _groups_built),
    ("gridchop.cli", "run_grid", "executor.run", _run_rows),
    ("gridchop.cli", "run_hierarchy", "executor.run", _run_rows),
    ("gridchop.geoops", "extract_at", "geoops.extract_at", None),
    ("gridchop.geoops", "summarize_sedc", "geoops.summarize_sedc", _sedc),
    ("gridchop.geoops", "nearest_distance", "geoops.nearest_distance", _nearest),
    ("gridchop.geoops", "summarize_aw", "geoops.summarize_aw", _aw),
    ("gridchop.geoops", "cell_clipped_areas", "raster.cell_clipped_areas", _clip),
    ("gridchop.geoops", "coverage_fractions", "raster.coverage_fractions", _coverage),
    ("gridchop.geoops", "zonal_stat", "raster.zonal_stat", None),
)

# per-layer metrics, in report order: name -> (unit, better)
METRICS = {
    "cli.self_s": ("s", "lower"),
    "dataio.load_features_s": ("s", "lower"),
    "dataio.features_read": ("count", "lower"),
    "dataio.load_raster_s": ("s", "lower"),
    "dataio.load_raster_calls": ("count", "lower"),
    "dataio.raster_cells_read": ("count", "lower"),
    "dataio.save_table_s": ("s", "lower"),
    "dataio.bytes_written": ("bytes", "lower"),
    "dataio.load_partitions_s": ("s", "lower"),
    "dataio.save_partitions_s": ("s", "lower"),
    "partition.build_s": ("s", "lower"),
    "partition.chunks": ("count", "lower"),
    "partition.imbalance": ("ratio", "lower"),
    "executor.run_s": ("s", "lower"),
    "executor.self_s": ("s", "lower"),
    "executor.context_per_anchor": ("count", "lower"),
    "executor.error_rows": ("count", "lower"),
    "executor.pad_warning_rows": ("count", "lower"),
    "geoops.extract_at_s": ("s", "lower"),
    "geoops.summarize_sedc_s": ("s", "lower"),
    "geoops.nearest_distance_s": ("s", "lower"),
    "geoops.summarize_aw_s": ("s", "lower"),
    "geoops.sedc_pairs": ("count", "lower"),
    "geoops.sedc_useful_ratio": ("ratio", "higher"),
    "geoops.nearest_pairs": ("count", "lower"),
    "geoops.aw_pairs": ("count", "lower"),
    "geoops.aw_useful_ratio": ("ratio", "higher"),
    "raster.cell_clipped_areas_s": ("s", "lower"),
    "raster.clip_cells": ("count", "lower"),
    "raster.clip_slots": ("count", "lower"),
    "raster.clip_useful_ratio": ("ratio", "higher"),
    "raster.coverage_fractions_s": ("s", "lower"),
    "raster.zonal_stat_s": ("s", "lower"),
    "raster.coverage_cells": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _self_metric(span_name):
    return {"cli": "cli.self_s", "executor.run": "executor.self_s"}.get(
        span_name, span_name + "_s"
    )


class Tracer:
    """Installs the probes for one job at a time and keeps what they record."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # (span id, name, start, end, parent id, job id)
        self.counts = Counter()
        self.job = None
        self.skipped = []  # probes whose attribute the program no longer has
        self.probe_errors = set()  # counters that could not read a result
        self._stack = []
        self._next = 0
        self._installed = []

    # spans

    def _open(self):
        self._next += 1
        sid = f"{os.getpid()}.{self._next}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.job))

    def _probe(self, original, name, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except Exception as e:  # a probe must not fail the job it observes
                    self.probe_errors.add(f"{name}: {e!r}")
            return result

        return wrapper

    def _in_worker(self, original):
        """`executor._run_chunk`: in a forked worker, attach the spans and
        counts of this chunk to its result instead of keeping them."""

        @functools.wraps(original)
        def wrapper(payload):
            if os.getpid() == self.pid:
                return original(payload)
            mark, before = len(self.spans), self.counts.copy()
            result = original(payload)
            spans, self.spans[mark:] = self.spans[mark:], []
            counts = self.counts - before
            self.counts = before
            result.__dict__[_WORKER_TRACE] = (spans, dict(counts))
            return result

        return wrapper

    def _from_workers(self, original):
        """`executor.merge_chunks`: take the worker spans off the results."""

        @functools.wraps(original)
        def wrapper(chunks, *args, **kwargs):
            for chunk in chunks:
                spans, counts = chunk.__dict__.pop(_WORKER_TRACE, ((), {}))
                self.spans.extend(spans)
                self.counts.update(counts)
            return original(chunks, *args, **kwargs)

        return wrapper

    # install / restore

    def install(self, job):
        self.job = job
        self.skipped = []
        hooks = [(m, a, lambda o, n=n, c=c: self._probe(o, n, c)) for m, a, n, c in PROBES]
        hooks += [
            ("gridchop.executor", "_run_chunk", self._in_worker),
            ("gridchop.executor", "merge_chunks", self._from_workers),
        ]
        for module_name, attr, make in hooks:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.skipped.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, make(original))

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                raise RuntimeError(f"could not restore {module.__name__}.{attr}")
        self.job = None

    def take(self):
        """Remove and return the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> its duration minus the part its child spans cover.

    Children from parallel workers may overlap; their union is subtracted.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, start, end, _, _ in spans
    }


def job_metrics(spans, counts):
    """Per-layer metrics of one traced job (trace.overhead_s excluded)."""
    out = {name: 0.0 for name in METRICS if name != "trace.overhead_s"}
    selfs = self_times(spans)
    for sid, name, start, end, _, _ in spans:
        out[_self_metric(name)] += selfs[sid]
        if name == "executor.run":
            out["executor.run_s"] += end - start
    for name in ("dataio.features_read", "dataio.load_raster_calls", "dataio.raster_cells_read",
                 "dataio.bytes_written", "executor.error_rows", "executor.pad_warning_rows",
                 "geoops.sedc_pairs", "geoops.nearest_pairs", "geoops.aw_pairs",
                 "raster.clip_cells", "raster.clip_slots", "raster.coverage_cells"):
        out[name] = float(counts[name])

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out["partition.chunks"] = ratio("partition.chunks", "partition.builds")
    out["partition.imbalance"] = ratio("partition.imbalance", "partition.builds")
    out["executor.context_per_anchor"] = ratio("executor.context_features", "executor.context_anchors")
    out["geoops.sedc_useful_ratio"] = ratio("geoops.sedc_contributions", "geoops.sedc_pairs")
    out["geoops.aw_useful_ratio"] = ratio("geoops.aw_bbox_pairs", "geoops.aw_pairs")
    out["raster.clip_useful_ratio"] = ratio("raster.clip_positive", "raster.clip_cells")
    return out


def layer_shares(metrics, job_s):
    """Self time of each layer, and of its largest single metric, over job_s.

    Spans from parallel pool workers add up busy time across processes, so
    on a multi-worker workload the shares can sum to more than 1.
    """
    layers = defaultdict(float)
    top = {}
    for name, value in metrics.items():
        if not name.endswith("_s") or name in ("executor.run_s", "trace.overhead_s"):
            continue
        layer = name.split(".")[0]
        layers[layer] += value
        if value > top.get(layer, ("", -1.0))[1]:
            top[layer] = (name, value)
    return {
        layer: {"share": total / job_s, "top": top[layer][0], "top_share": top[layer][1] / job_s}
        for layer, total in sorted(layers.items(), key=lambda kv: -kv[1])
    }
