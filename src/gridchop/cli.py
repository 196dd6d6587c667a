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
from . import dataio
from .errors import GridchopError, LoadError
from .executor import ChunkError, RunConfig, TaskSpec, run_grid, run_hierarchy, run_multirasters
from .partition import GridSpec, build_partition, group_by_hierarchy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_PARTIAL = 4


class UsageError(Exception):
    pass


def _workers(args) -> int:
    """--workers, else CHOP_WORKERS, else 1."""
    name, raw = ("--workers", str(args.workers)) if args.workers is not None else (
        "CHOP_WORKERS", os.environ.get("CHOP_WORKERS", "1"))
    if not raw.isdecimal() or int(raw) < 1:
        raise UsageError(f"{name} must be an integer >= 1, got {raw!r}")
    return int(raw)


def _int_at_least(minimum: int):
    """An argparse type: an integer >= minimum."""
    def integer(text: str) -> int:
        try:
            if int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
    return integer


def _worker_counts(text: str) -> list[int]:
    """An argparse type: comma-separated worker counts, each >= 1."""
    return [_int_at_least(1)(w) for w in text.split(",") if w]


def _load_vector(path: str, id_column: str, fmt: str | None = None):
    fmt = fmt or ("geojson" if path.endswith((".geojson", ".json")) else "csv")
    return dataio.load_features(path, format=fmt, id_column=id_column)


def _add_run_flags(p: argparse.ArgumentParser, multi: bool):
    tasks = ["extract_at"] if multi else ["extract_at", "summarize_aw", "sedc", "nearest"]
    p.add_argument("--task", required=True, choices=tasks)
    if not multi:  # multiraster's context and chunks are its rasters
        p.add_argument("--x", required=True,
                       help="context dataset: raster .asc path or vector file")
    p.add_argument("--y", required=True, help="anchor dataset: vector file")
    p.add_argument("--id", default="id", help="id column name (default: id)")
    p.add_argument("--radius", type=float)
    p.add_argument("--stat")
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--maxdist", type=float)
    p.add_argument("--value-cols", default="", help="comma-separated source columns")
    if multi:
        rasters = p.add_mutually_exclusive_group(required=True)
        rasters.add_argument("--rasters", help="comma-separated raster paths")
        rasters.add_argument("--raster-list", help="file of raster paths")
        p.set_defaults(x=None)  # no shared context: each job names its raster
    else:
        chunks = p.add_mutually_exclusive_group(required=True)
        chunks.add_argument("--partition", help="PartitionSet JSON file")
        chunks.add_argument("--hierarchy", help="hierarchy attribute column")
        chunks.add_argument("--regions", help="region polygons file (GeoJSON)")
        p.add_argument("--regions-id", help="region id column")
    p.add_argument("--workers", type=int)
    p.add_argument("--capture-errors", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--categorical", action="store_true", help="treat raster as categorical")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--config", help="JSON job config mirroring these flags; flags win")


# the JSON types a --config value may take, by its flag's type (a switch's is bool)
_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), None: ((str,), "a string")}


def _config_flags(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """The keys of argv's --config file, if it names one, as flags of parser."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise UsageError(f"--config {path}: not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise UsageError(f"--config {path}: must be a JSON object")
    actions = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(doc) - set(actions)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in doc.items():
        action = actions[key]
        types, want = _JSON_TYPES[bool if action.nargs == 0 else action.type]
        if type(value) not in types:
            raise UsageError(f"{action.option_strings[0]} must be {want} in --config {path}, "
                             f"got {json.dumps(value)}")
        if action.nargs == 0:  # a switch's false with no --no- form is its default: no flag
            flags += [s for s in action.option_strings if s.startswith("--no-") != value][:1]
        else:  # the = form keeps a value that starts with - a value
            flags.append(f"{action.option_strings[0]}={value}")
    return flags


def _build_task(args) -> tuple[TaskSpec, str]:
    """The task of `run` (context --x) or `multiraster` (one raster per chunk)."""
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
    feats = _load_vector(args.input, args.id, args.format)
    mode = {"grid": "grid", "quantile": "grid_quantile", "advanced": "grid_advanced",
            "balanced": "balanced"}[args.mode]
    spec = GridSpec(mode=mode, nx=args.nx, ny=args.ny, nq=args.nq, n_groups=args.groups,
                    min_features=args.min_features)
    parts = build_partition(spec, feats)
    dataio.save_partitions(parts, args.out)
    sizes = sorted(len(c.member_ids) for c in parts.chunks)
    print(f"chunks={len(parts.chunks)} members min={sizes[0]} "
          f"median={sizes[len(sizes) // 2]} max={sizes[-1]}", file=sys.stderr)
    return EXIT_OK


def _raster_paths(args) -> list[str]:
    if args.rasters is not None:
        return [p for p in args.rasters.split(",") if p]
    with open(args.raster_list) as fh:
        try:
            return [line.strip() for line in fh if line.strip()]
        except UnicodeDecodeError as e:
            raise LoadError(f"{args.raster_list}: not valid UTF-8: {e}")


def _run_table(args, task: TaskSpec, cfg: RunConfig, raster_kind: str):
    if args.command == "multiraster":
        return run_multirasters(
            task, _raster_paths(args), cfg, id_column=args.id, raster_kind=raster_kind
        )
    if args.regions_id is not None and args.regions is None:
        raise UsageError("--regions-id requires --regions")
    if args.partition is not None:
        parts = dataio.load_partitions(args.partition)
        return run_grid(task, parts, cfg, id_column=args.id, raster_kind=raster_kind)
    if args.hierarchy is not None:
        groups = group_by_hierarchy(task.y, key=args.hierarchy)
    else:
        if not args.regions_id:
            raise UsageError("--regions requires --regions-id")
        regions = _load_vector(args.regions, args.regions_id, "geojson")
        groups = group_by_hierarchy(task.y, regions=regions, regions_id=args.regions_id)
    return run_hierarchy(task, groups, cfg, id_column=args.id, raster_kind=raster_kind)


def cmd_run(args) -> int:
    """`chop run` and `chop multiraster`."""
    workers = _workers(args)
    task, raster_kind = _build_task(args)
    cfg = RunConfig(workers=workers, capture_errors=args.capture_errors)
    table = _run_table(args, task, cfg, raster_kind)
    dataio.save_table(table, args.out)
    return EXIT_PARTIAL if table.had_errors else EXIT_OK


def _synth_dataset(args):
    return bench_mod.synth_dataset(bench_mod.SynthSpec(
        seed=args.seed, n_points=args.n_points, raster_ncols=args.raster_size,
        raster_nrows=args.raster_size, n_lines=args.n_lines,
        raster_kind="categorical" if args.case == "frequency" else "continuous"))


def cmd_synth(args) -> int:
    points, lines, raster = _synth_dataset(args)
    os.makedirs(args.out, exist_ok=True)
    x, y = points.coords.T.tolist()
    table = dataio.ResultTable({"id": points.ids(), "x": x, "y": y, "v": points.attributes["v"]})
    dataio.save_table(table, os.path.join(args.out, "points.csv"))
    dataio.write_raster(raster, os.path.join(args.out, "raster.asc"))
    coords, ends = lines.coords.tolist(), lines.part_offsets.tolist()  # a line is one part
    doc = {"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": fid},
         "geometry": {"type": "LineString", "coordinates": coords[a:b]}}
        for fid, a, b in zip(lines.ids(), ends, ends[1:])]}
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
    records, metrics = bench_mod.run_benchmark(task, grid, args.workers, args.repeats, args.case)
    dataio.save_table(bench_mod.records_csv(records), args.out)
    agg_path = args.out.removesuffix(".csv") + "_metrics.csv"
    dataio.save_table(bench_mod.metrics_csv(metrics), agg_path)
    for m in metrics:
        print(f"case={m.case} workers={m.n} tn={m.tn:.4f}s "
              f"speedup={m.speedup:.3f} efficiency={m.efficiency:.3f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The `chop` parser, and the parsers of the commands that take --config."""
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

    configured = {}
    for name, help_text in (("run", "run a task over a partition or hierarchy"),
                            ("multiraster", "run extract_at over multiple raster files")):
        p = configured[name] = sub.add_parser(name, help=help_text)
        _add_run_flags(p, multi=name == "multiraster")
        p.set_defaults(func=cmd_run)

    for name, fn in (("synth", cmd_synth), ("bench", cmd_bench)):
        p = sub.add_parser(name)
        p.add_argument("--case", choices=["extract", "nearest", "frequency"],
                       default="extract")
        p.add_argument("--n-points", dest="n_points", type=_int_at_least(0), default=1000)
        p.add_argument("--raster-size", dest="raster_size", type=_int_at_least(1), default=100)
        p.add_argument("--n-lines", dest="n_lines", type=_int_at_least(0), default=20)
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--out", required=True)
        if name == "bench":
            p.add_argument("--workers", type=_worker_counts, default="1")
            p.add_argument("--repeats", type=_int_at_least(1), default=1)
            p.add_argument("--nx", type=_int_at_least(1), default=4)
            p.add_argument("--ny", type=_int_at_least(1), default=2)
        p.set_defaults(func=fn)
    return ap, configured


def main(argv: list[str] | None = None) -> int:
    ap, configured = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in configured:
            argv = [argv[0], *_config_flags(configured[argv[0]], argv[1:]), *argv[1:]]
        args = ap.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse's usage errors, and --help
        return e.code if isinstance(e.code, int) else EXIT_USAGE
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
