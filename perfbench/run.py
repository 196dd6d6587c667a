"""gridchop benchmark: whole `chop` jobs on seeded synthetic inputs.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/` of the
checkout this file sits in; there is nothing to build. A job runs every
`chop` command of its workload in this process through `gridchop.cli.main`,
from the first input read to the closed output CSV, and is timed as a whole.
The loop is closed: one job at a time, the next starting when the previous
one has finished and been checked.

Set-up (repeated SETUP_REPEATS times; `setup_s` is the median) generates and
writes the inputs, builds the reference outputs at 1 worker, checks them
with the workload's oracles, and runs one warm-up job. A timed job fails
unless it exits 0 and writes outputs byte-identical to a reference that
passed the oracles. Before timing, corrupted copies of the reference (one
value changed, one row dropped, one row duplicated) must all fail that gate.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced jobs and reports per-layer metrics from spans recorded around calls
into gridchop's modules (see tracing.py); the spans go to perfbench/.out/.
The last line of standard output is one JSON object; a readable report and
the run's provenance go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr

import numpy as np

from tracing import METRICS as LAYER_METRICS
from tracing import Tracer, job_metrics, layer_shares
from workloads import WORKLOADS, corruptions

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
MIN_JOBS = 4

END_TO_END = {
    "job_s": "s",
    "job_cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def import_program():
    """Import gridchop from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gridchop", "__init__.py")):
        sys.exit(f"error: no gridchop sources under {src}")
    sys.path.insert(0, src)
    import gridchop.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported gridchop from {cli.__file__}, not from {src}")
    return cli


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Jobs:
    """Runs one workload's jobs in a work directory and gates their outputs."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.wl = workload
        self.dir = workdir
        self.reference = {}

    def run(self, workers, tracer=None, job=None):
        """One job; returns (wall s, CPU s, problems)."""
        for name in self.wl.outputs:
            path = os.path.join(self.dir, name)
            if os.path.exists(path):
                os.remove(path)
        commands = self.wl.commands(self.dir, workers)
        problems = []
        gc.collect()
        if tracer is not None:
            tracer.install(job)
        try:
            with redirect_stderr(io.StringIO()) as err:
                cpu0, t0 = cpu_seconds(), time.perf_counter()
                for argv in commands:
                    try:
                        code = self.cli.main(argv)
                    except Exception:  # the job fails; the benchmark goes on
                        code = "an exception:\n" + traceback.format_exc(limit=3)
                    if code != 0:
                        problems.append(f"chop {argv[0]} exited with {code} {err.getvalue()}")
                        break
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        finally:
            if tracer is not None:
                tracer.restore()
        return wall, cpu, problems

    def outputs(self):
        blobs = {}
        for name in self.wl.outputs:
            with open(os.path.join(self.dir, name), "rb") as fh:
                blobs[name] = fh.read()
        return blobs

    def gate(self):
        """Differences between the written outputs and the reference."""
        problems = []
        for name, want in self.reference.items():
            path = os.path.join(self.dir, name)
            if not os.path.exists(path):
                problems.append(f"{name} was not written")
                continue
            with open(path, "rb") as fh:
                if fh.read() != want:
                    problems.append(f"{name} differs from the reference")
        return problems


def setup(jobs, seed):
    """Inputs, reference, oracle checks and one warm-up job; returns
    (seconds, problems)."""
    t0 = time.perf_counter()
    jobs.wl.generate(np.random.Generator(np.random.PCG64(seed)), jobs.dir)
    _, _, problems = jobs.run(workers=1)
    if problems:
        return time.perf_counter() - t0, problems
    jobs.reference = jobs.outputs()
    problems += jobs.wl.check(jobs.dir)
    problems += jobs.run(jobs.wl.workers)[2] + jobs.gate()
    return time.perf_counter() - t0, problems


def gate_self_test(jobs):
    """Write corrupted references and gate them as timed jobs are gated.

    Returns (file, defect, rejected by the gate, rejected by the oracles)
    per corruption. The gate must reject every one, and the oracles every
    dropped or duplicated row, independently of the reference bytes.
    """
    results = []
    for name, blob in jobs.reference.items():
        if not name.endswith(".csv"):
            continue
        for defect, bad in corruptions(blob):
            with open(os.path.join(jobs.dir, name), "wb") as fh:
                fh.write(bad)
            results.append((name, defect, bool(jobs.gate()), bool(jobs.wl.check(jobs.dir))))
        with open(os.path.join(jobs.dir, name), "wb") as fh:
            fh.write(blob)
    return results


def self_test_misses(results):
    misses = [f"gate accepted {f} with a {d}" for f, d, gate, _ in results if not gate]
    misses += [
        f"oracles accepted {f} with a {d}"
        for f, d, _, oracle in results
        if not oracle and d != "value changed"
    ]
    return misses if results else ["gate self-test did not run"]


def provenance(seed):
    nproc = len(os.sched_getaffinity(0))
    workers = {name: wl.workers for name, wl in WORKLOADS.items()}
    too_many = {name: w for name, w in workers.items() if w > nproc}
    if too_many:
        sys.exit(f"error: workers {too_many} exceed nproc={nproc}")
    return {
        "seed": seed,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "workers": workers,
    }


def measure(jobs, seconds, tracer, setup_problems):
    """Timed jobs for `seconds`; with a tracer every second job is traced.

    A job fails when a command exits non-zero, when its outputs differ from
    the reference, or when the reference it equals failed set-up's checks.
    """
    untraced = {"job_s": [], "job_cpu_s": []}
    traced_s, per_job, spans, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted < MIN_JOBS or time.perf_counter() - start < seconds:
        traced = tracer is not None and attempted % 2 == 1
        wall, cpu, problems = jobs.run(jobs.wl.workers, tracer if traced else None, attempted)
        problems = problems or jobs.gate() or setup_problems
        if problems:
            failures.append({"job": attempted, "problems": problems})
        if traced:
            job_spans, counts = tracer.take()
            spans += job_spans
            per_job.append(job_metrics(job_spans, counts))
            traced_s.append(wall)
        else:
            untraced["job_s"].append(wall)
            untraced["job_cpu_s"].append(cpu)
        attempted += 1
    return attempted, failures, untraced, traced_s, per_job, spans


def run_workload(args):
    cli = import_program()
    wl = WORKLOADS[args.workload]()
    prov = provenance(args.seed)
    out_dir = os.path.join(HERE, ".out")
    work = os.path.join(HERE, ".work", f"{wl.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work)
    try:
        jobs = Jobs(cli, wl, work)
        setup_s, setup_problems, refs = [], [], set()
        for _ in range(SETUP_REPEATS):
            seconds, problems = setup(jobs, args.seed)
            setup_s.append(seconds)
            setup_problems += problems
            refs.add(tuple(sorted(jobs.reference.items())))
        if len(refs) != 1:
            setup_problems.append("set-ups from one seed built different references")
        setup_problems = list(dict.fromkeys(setup_problems))  # repeats of one set-up
        self_test = gate_self_test(jobs) if jobs.reference else []
        tracer = Tracer() if args.trace else None
        attempted, failures, untraced, traced_s, per_job, spans = measure(
            jobs, args.seconds, tracer, setup_problems
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: statistics.median(j[k] for j in per_job) for k in per_job[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(
            untraced["job_s"]
        )
        values = {k: (metrics[k], LAYER_METRICS[k][0]) for k in LAYER_METRICS}
    else:
        measured = {
            "job_s": statistics.median(untraced["job_s"]),
            "job_cpu_s": statistics.median(untraced["job_cpu_s"]),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup_s),
        }
        values = {k: (v, END_TO_END[k]) for k, v in measured.items()}
    misses = self_test_misses(self_test)
    correct = not setup_problems and not misses and not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    record = {
        "workload": wl.name,
        "provenance": prov,
        "result": result,
        "failed_frac": len(failures) / attempted,
        "setup_s": setup_s,
        "setup_problems": setup_problems,
        "gate_self_test": [
            {"file": f, "defect": d, "gate_rejected": g, "oracles_rejected": o}
            for f, d, g, o in self_test
        ],
        "gate_self_test_misses": misses,
        "failures": failures[:20],
        "samples": untraced,
    }
    if args.trace:
        shares = layer_shares(metrics, statistics.median(traced_s))
        record["trace"] = {
            "traced_jobs": len(per_job),
            "traced_job_s": traced_s,
            # spans recorded in forked pool workers and carried back on the
            # chunk results; 0 at 1 worker
            "worker_spans": sum(not s[0].startswith(f"{os.getpid()}.") for s in spans),
            "skipped_probes": tracer.skipped,
            "probe_errors": sorted(tracer.probe_errors),
            "layer_shares": shares,
            "spans": [
                dict(zip(("id", "name", "start", "end", "parent", "job"), s)) for s in spans
            ],
        }
    path = os.path.join(out_dir, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, values, path)
    print(json.dumps(result))


def report(record, values, path):
    p = record["provenance"]
    err = sys.stderr
    print(f"== {record['workload']}  seed={p['seed']} workers={p['workers'][record['workload']]} "
          f"nproc={p['nproc']} cpu={p['cpu_model']!r} python={p['python']} "
          f"numpy={p['numpy']} commit={p['git_commit'][:12]}", file=err)
    n = len(record["samples"]["job_s"])
    for name, (value, unit) in values.items():
        note = f"  (median of {n} jobs)" if name in ("job_s", "job_cpu_s") else ""
        if name == "setup_s":
            note = f"  (median of {len(record['setup_s'])} set-ups)"
        print(f"  {name:<30} {value:12.6g} {unit}{note}", file=err)
    res = record["result"]
    print(f"  {'failed_frac':<30} {record['failed_frac']:12.6g} ratio  "
          f"({res['failed']} of {res['attempted']} jobs failed)", file=err)
    rejected = sum(t["gate_rejected"] for t in record["gate_self_test"])
    print(f"  gate self-test: {rejected} of {len(record['gate_self_test'])} corrupted "
          "outputs counted as failed jobs", file=err)
    for problem in record["setup_problems"] + record["gate_self_test_misses"]:
        print(f"  CHECK FAILED: {problem}", file=err)
    for failure in record["failures"][:3]:
        print(f"  JOB FAILED: {failure}", file=err)
    if "trace" in record:
        print(f"  {record['trace']['worker_spans']} spans came from pool workers", file=err)
        for probe in record["trace"]["skipped_probes"] + record["trace"]["probe_errors"]:
            print(f"  PROBE NOT MEASURED: {probe}", file=err)
        for layer, s in record["trace"]["layer_shares"].items():
            if s["share"] == 0.0:
                continue
            print(f"  layer {layer:<10} {s['share']:6.1%} of traced job_s; "
                  f"largest {s['top']} {s['top_share']:6.1%}", file=err)
    print(f"  record: {os.path.relpath(path)}", file=err)


def run_all(args):
    """Each workload in its own process, then one table of the end-to-end
    metrics."""
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    names = list(END_TO_END) + ["failed_frac"]
    print("workload".ljust(20) + "".join(n.rjust(16) for n in names))
    for name, res in rows:
        cells = [f"{res['metrics'][m]['value']:.4g} {END_TO_END[m]}" for m in END_TO_END]
        cells.append(f"{res['failed'] / res['attempted']:.4g}")
        print(name.ljust(20) + "".join(c.rjust(16) for c in cells))
    print(json.dumps({name: res for name, res in rows}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
