"""Synthetic data generation and the speedup / efficiency-per-thread harness.

Randomness comes from numpy's Philox counter-based 64-bit generator, so a
seed pins every synthetic dataset exactly (the generator's stream is part of
numpy's stability guarantee). Timings cover the executor run only; before
any timed run the harness asserts byte equality with the single-worker
output and aborts on mismatch.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import LINE, FeatureSet, ResultTable
from .errors import GridchopError, InvalidParameterError
from .executor import RunConfig, TaskSpec, run_grid
from .geom import BBox
from .partition import GridSpec, build_partition
from .raster import Raster


@dataclass
class SynthSpec:
    seed: int
    n_points: int = 1000
    extent: BBox = field(default_factory=lambda: BBox(0.0, 0.0, 100.0, 100.0))
    raster_ncols: int = 100
    raster_nrows: int = 100
    raster_kind: str = "continuous"
    n_categories: int = 5
    n_lines: int = 20


@dataclass
class BenchMetrics:
    case: str
    n: int
    t1: float
    tn: float
    repeats: int

    @property
    def speedup(self) -> float:
        return efficiency(self.t1, self.n, self.tn)[0]

    @property
    def efficiency(self) -> float:
        return efficiency(self.t1, self.n, self.tn)[1]


def efficiency(t1: float, n: int, tn: float) -> tuple[float, float]:
    """(speedup, efficiency per thread) = (t1/tn, t1/(n*tn))."""
    if t1 <= 0 or tn <= 0 or n < 1:
        raise InvalidParameterError("times must be > 0 and n >= 1")
    return t1 / tn, t1 / (n * tn)


def synth_dataset(s: SynthSpec) -> tuple[FeatureSet, FeatureSet, Raster]:
    """Deterministic (points, lines, raster) from the seed.

    Draw order is fixed: point coords, point values, raster cells, then line
    endpoints, each from an independent jump of the same Philox stream.
    """
    rng = np.random.Generator(np.random.Philox(s.seed))
    ext = s.extent
    px = rng.uniform(ext.xmin, ext.xmax, s.n_points)
    py = rng.uniform(ext.ymin, ext.ymax, s.n_points)
    pv = rng.uniform(0.0, 100.0, s.n_points)
    points = FeatureSet.from_columns(
        [f"p{i}" for i in range(s.n_points)],
        np.column_stack([px, py]),
        attributes={"v": pv.tolist()},
    )
    if s.raster_kind == "categorical":
        cells = rng.integers(0, s.n_categories, (s.raster_nrows, s.raster_ncols)).astype(float)
    else:
        cells = rng.uniform(0.0, 100.0, (s.raster_nrows, s.raster_ncols))
    # Square cells sized off the x axis; the grid is anchored at the
    # extent's minimum corner and may not exactly span its height.
    raster = Raster(
        ncols=s.raster_ncols,
        nrows=s.raster_nrows,
        xll=ext.xmin,
        yll=ext.ymin,
        cellsize=ext.width / s.raster_ncols,
        nodata=-9999.0,
        values=cells,
        kind=s.raster_kind,
    )
    ends = rng.uniform(
        [ext.xmin, ext.ymin, ext.xmin, ext.ymin],
        [ext.xmax, ext.ymax, ext.xmax, ext.ymax],
        (s.n_lines, 4),
    )
    lines = FeatureSet.from_columns(
        [f"l{i}" for i in range(s.n_lines)],
        ends.reshape(-1, 2),  # each line is one part of two vertices
        part_offsets=np.arange(0, 2 * s.n_lines + 1, 2),
        feature_offsets=np.arange(s.n_lines + 1),
        kinds=np.full(s.n_lines, LINE),
    )
    return points, lines, raster


@dataclass
class BenchRecord:
    case: str
    workers: int
    repeat: int
    elapsed_s: float


def _timed_run(task: TaskSpec, parts, cfg: RunConfig) -> tuple[float, ResultTable]:
    t0 = time.perf_counter()
    table = run_grid(task, parts, cfg)
    elapsed = time.perf_counter() - t0
    if elapsed <= 0:
        t0 = time.perf_counter()
        table = run_grid(task, parts, cfg)
        elapsed = time.perf_counter() - t0
        if elapsed <= 0:
            raise GridchopError("non-monotone timer: repeated non-positive elapsed time")
    return elapsed, table


def run_benchmark(
    task: TaskSpec,
    grid: GridSpec,
    workers_list: list[int],
    repeats: int,
    case: str = "bench",
) -> tuple[list[BenchRecord], list[BenchMetrics]]:
    """Timed repeated executor runs per worker count, each count's time the
    median of its repeats.

    t1 comes from the workers=1 row of the same sweep (prepended when
    absent). Every parallel output is checked byte-for-byte against the
    single-worker reference before its timing counts.
    """
    if repeats < 1:
        raise InvalidParameterError("repeats must be >= 1")
    parts = build_partition(grid, task.y)
    workers = list(workers_list)
    if 1 not in workers:
        workers.insert(0, 1)

    reference: bytes | None = None
    records: list[BenchRecord] = []
    per_worker: dict[int, list[float]] = {}
    for n in workers:
        cfg = RunConfig(workers=n)
        times = []
        for rep in range(repeats):
            elapsed, table = _timed_run(task, parts, cfg)
            blob = table.to_csv_bytes()
            if reference is None:
                reference = blob
            elif blob != reference:
                raise GridchopError(
                    f"benchmark aborted: workers={n} output differs from workers=1"
                )
            times.append(elapsed)
            records.append(BenchRecord(case, n, rep, elapsed))
        per_worker[n] = times
    t1 = float(statistics.median(per_worker[1]))
    metrics = [
        BenchMetrics(case, n, t1, float(statistics.median(per_worker[n])), repeats)
        for n in workers
    ]
    return records, metrics


def records_csv(records: list[BenchRecord]) -> ResultTable:
    return ResultTable({
        "case": [r.case for r in records],
        "workers": [r.workers for r in records],
        "repeat": [r.repeat for r in records],
        "elapsed_s": [r.elapsed_s for r in records],
    })


def metrics_csv(metrics: list[BenchMetrics]) -> ResultTable:
    return ResultTable({
        "case": [m.case for m in metrics],
        "workers": [m.n for m in metrics],
        "t1": [m.t1 for m in metrics],
        "tn": [m.tn for m in metrics],
        "speedup": [m.speedup for m in metrics],
        "efficiency": [m.efficiency for m in metrics],
        "repeats": [m.repeats for m in metrics],
        "aggregation": ["median"] * len(metrics),
    })
