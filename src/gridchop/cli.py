"""`chop` command line interface.

Exit codes: 0 success, 2 usage error, 3 input/load error, 4 partial failure
(some chunks errored; result rows are still written, unless errors are not
captured: then the first failed chunk stops the run and no CSV is written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod
from . import dataio, partition
from .errors import GridchopError, InvalidParameterError, LoadError
from .executor import ChunkError, RunConfig, TaskSpec, run_grid, run_hierarchy, run_multirasters
from .geom import BBox
from .partition import GridSpec, build_partition, group_by_hierarchy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_PARTIAL = 4


class UsageError(Exception):
    pass


def _default_workers() -> int:
    raw = os.environ.get("CHOP_WORKERS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise UsageError(f"CHOP_WORKERS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _load_vector(path: str, id_column: str, fmt: str | None = None):
    fmt = fmt or ("geojson" if path.endswith((".geojson", ".json")) else "csv")
    return dataio.load_features(path, format=fmt, id_column=id_column)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--task", choices=["extract_at", "summarize_aw", "sedc", "nearest"])
    p.add_argument("--x", help="context dataset: raster .asc path or vector file")
    p.add_argument("--y", help="anchor dataset: vector file")
    p.add_argument("--id", help="id column name (default: id)")
    p.add_argument("--radius", type=float)
    p.add_argument("--stat")
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--maxdist", type=float)
    p.add_argument("--value-cols", help="comma-separated source columns")
    p.add_argument("--partition", help="PartitionSet JSON file")
    p.add_argument("--hierarchy", help="hierarchy attribute column")
    p.add_argument("--regions", help="region polygons file (GeoJSON)")
    p.add_argument("--regions-id", help="region id column")
    p.add_argument("--workers", type=int)
    p.add_argument("--capture-errors", dest="capture_errors", action="store_true", default=None)
    p.add_argument("--no-capture-errors", dest="capture_errors", action="store_false",
                   default=None)
    p.add_argument("--categorical", action="store_true", default=None,
                   help="treat raster as categorical")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--config", help="JSON job config mirroring these flags; flags win")


_CONFIG_KEYS = {
    "task", "x", "y", "id", "radius", "stat", "bandwidth", "maxdist", "value_cols",
    "partition", "hierarchy", "regions", "regions_id", "workers",
    "capture_errors", "categorical", "out", "rasters", "raster_list",
}


_RUN_DEFAULTS = {"id": "id", "value_cols": "", "capture_errors": True, "categorical": False}


def _apply_config(args: argparse.Namespace):
    """Fill each flag not given on the command line from --config, else its default."""
    doc = {}
    if args.config:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except ValueError as e:
                raise UsageError(f"--config {args.config}: not valid JSON: {e}")
        if not isinstance(doc, dict):
            raise UsageError(f"--config {args.config}: must be a JSON object")
        unknown = set(doc) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, val in [*doc.items(), *_RUN_DEFAULTS.items()]:
        if getattr(args, key, None) is None:
            setattr(args, key, val)
    if args.workers is None:
        args.workers = _default_workers()
    elif not isinstance(args.workers, int) or args.workers < 1:  # a config value may be any JSON
        raise UsageError(f"--workers must be an integer >= 1, got {args.workers!r}")


def _build_task(args) -> tuple[TaskSpec, str]:
    """The task of `run` (context --x) or `multiraster` (one raster per chunk)."""
    multi = args.command == "multiraster"
    if not args.task or not (args.x or multi) or not args.y or not args.out:
        raise UsageError("--task, --x, --y and --out are required")
    if multi and args.task != "extract_at":
        raise InvalidParameterError("multiraster supports only --task extract_at")
    if args.task == "sedc" and args.bandwidth is None:
        raise UsageError("sedc requires --bandwidth")
    raster_kind = "categorical" if args.categorical else "continuous"
    y = _load_vector(args.y, args.id)
    # extract_at's --x is a raster path, which the run loads; the other ops' is a vector file
    x = args.x if args.task == "extract_at" else _load_vector(args.x, args.id)
    params = {"radius": args.radius, "stat": args.stat, "bandwidth": args.bandwidth,
              "maxdist": args.maxdist, "value_columns": [c for c in args.value_cols.split(",") if c]}
    op = {"sedc": "summarize_sedc", "nearest": "nearest_distance"}.get(args.task, args.task)
    return TaskSpec(op, x, y, params), raster_kind


def cmd_partition(args) -> int:
    if not args.input or not args.out:
        raise UsageError("--input and --out are required")
    feats = _load_vector(args.input, args.id, args.format)
    mode = {"grid": "grid", "quantile": "grid_quantile", "advanced": "grid_advanced",
            "balanced": "balanced"}[args.mode]
    spec = GridSpec(
        mode=mode,
        nx=args.nx,
        ny=args.ny,
        nq=args.nq,
        n_groups=args.groups,
        min_features=args.min_features,
    )
    parts = build_partition(spec, feats)
    dataio.save_partitions(parts, args.out)
    sizes = sorted(len(c.member_ids) for c in parts.chunks)
    mid = sizes[len(sizes) // 2]
    print(
        f"chunks={len(parts.chunks)} members min={sizes[0]} median={mid} max={sizes[-1]}",
        file=sys.stderr,
    )
    return EXIT_OK


def _raster_paths(args) -> list[str]:
    paths = []
    if args.rasters:
        paths = [p for p in args.rasters.split(",") if p]
    elif args.raster_list:
        with open(args.raster_list) as fh:
            try:
                paths = [line.strip() for line in fh if line.strip()]
            except UnicodeDecodeError as e:
                raise LoadError(f"{args.raster_list}: not valid UTF-8: {e}")
    if not paths:
        raise UsageError("need --rasters or --raster-list")
    return paths


def _run_table(args, task: TaskSpec, cfg: RunConfig, raster_kind: str):
    if args.command == "multiraster":
        return run_multirasters(
            task, _raster_paths(args), cfg, id_column=args.id, raster_kind=raster_kind
        )
    chosen = [bool(args.partition), bool(args.hierarchy), bool(args.regions)]
    if sum(chosen) != 1:
        raise UsageError("exactly one of --partition, --hierarchy or --regions is required")
    if args.partition:
        parts = dataio.load_partitions(args.partition)
        return run_grid(task, parts, cfg, id_column=args.id, raster_kind=raster_kind)
    if args.hierarchy:
        groups = group_by_hierarchy(task.y, key=args.hierarchy)
    else:
        if not args.regions_id:
            raise UsageError("--regions requires --regions-id")
        regions = _load_vector(args.regions, args.regions_id, "geojson")
        groups = group_by_hierarchy(task.y, regions=regions, regions_id=args.regions_id)
    return run_hierarchy(task, groups, cfg, id_column=args.id, raster_kind=raster_kind)


def cmd_run(args) -> int:
    """`chop run` and `chop multiraster`."""
    _apply_config(args)
    task, raster_kind = _build_task(args)
    cfg = RunConfig(workers=args.workers, capture_errors=args.capture_errors)
    table = _run_table(args, task, cfg, raster_kind)
    dataio.save_table(table, args.out)
    return EXIT_PARTIAL if table.had_errors else EXIT_OK


def _synth_dataset(args):
    return bench_mod.synth_dataset(bench_mod.SynthSpec(
        seed=args.seed,
        n_points=args.n_points,
        raster_ncols=args.raster_size,
        raster_nrows=args.raster_size,
        raster_kind="categorical" if args.case == "frequency" else "continuous",
        n_lines=args.n_lines,
    ))


def cmd_synth(args) -> int:
    points, lines, raster = _synth_dataset(args)
    os.makedirs(args.out, exist_ok=True)
    x, y = points.coords.T.tolist()
    table = dataio.ResultTable({"id": points.ids(), "x": x, "y": y, "v": points.attributes["v"]})
    dataio.save_table(table, os.path.join(args.out, "points.csv"))
    dataio.write_raster(raster, os.path.join(args.out, "raster.asc"))
    coords, ends = lines.coords.tolist(), lines.part_offsets.tolist()  # a line is one part
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"id": fid},
                "geometry": {"type": "LineString", "coordinates": coords[a:b]},
            }
            for fid, a, b in zip(lines.ids(), ends, ends[1:])
        ],
    }
    with open(os.path.join(args.out, "lines.geojson"), "w") as fh:
        json.dump(doc, fh)
    print(f"wrote points.csv raster.asc lines.geojson to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    points, lines, raster = _synth_dataset(args)
    if args.case == "nearest":
        task = TaskSpec("nearest_distance", lines, points, {})
    else:
        stat = "mean" if args.case == "extract" else "frequency"
        params = {"radius": 3.0 * raster.cellsize, "stat": stat}
        task = TaskSpec("extract_at", raster, points, params)
    grid = GridSpec(mode="grid", nx=args.nx, ny=args.ny)
    workers = [int(w) for w in args.workers.split(",") if w]
    records, metrics = bench_mod.run_benchmark(
        task, grid, workers, args.repeats, case=args.case
    )
    dataio.save_table(bench_mod.records_csv(records), args.out)
    agg_path = args.out.replace(".csv", "") + "_metrics.csv"
    dataio.save_table(bench_mod.metrics_csv(metrics), agg_path)
    for m in metrics:
        print(
            f"case={m.case} workers={m.n} tn={m.tn:.4f}s "
            f"speedup={m.speedup:.3f} efficiency={m.efficiency:.3f}",
            file=sys.stderr,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chop", description="parallel geospatial partition-and-compute engine"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="generate a PartitionSet JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "geojson"], default=None)
    p.add_argument("--id", default="id")
    p.add_argument("--mode", choices=["grid", "quantile", "advanced", "balanced"],
                   default="grid")
    p.add_argument("--nx", type=int, default=1)
    p.add_argument("--ny", type=int, default=1)
    p.add_argument("--nq", type=int, default=1)
    p.add_argument("--groups", type=int, default=1)
    p.add_argument("--min-features", dest="min_features", type=int, default=1)
    # accepted for scripts written for earlier versions; it has no effect
    p.add_argument("--padding", help=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("run", help="run a task over a partition or hierarchy")
    _add_run_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("multiraster", help="run extract_at over multiple raster files")
    _add_run_flags(p)
    p.add_argument("--rasters", help="comma-separated raster paths")
    p.add_argument("--raster-list", dest="raster_list", help="file of raster paths")
    p.set_defaults(func=cmd_run)

    for name, fn in (("synth", cmd_synth), ("bench", cmd_bench)):
        p = sub.add_parser(name)
        p.add_argument("--case", choices=["extract", "nearest", "frequency"],
                       default="extract")
        p.add_argument("--n-points", dest="n_points", type=int, default=1000)
        p.add_argument("--raster-size", dest="raster_size", type=int, default=100)
        p.add_argument("--n-lines", dest="n_lines", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        if name == "bench":
            p.add_argument("--workers", default="1")
            p.add_argument("--repeats", type=int, default=1)
            p.add_argument("--nx", type=int, default=4)
            p.add_argument("--ny", type=int, default=2)
        p.set_defaults(func=fn)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ChunkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARTIAL
    except LoadError as e:
        print(f"load error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (GridchopError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
