#!/usr/bin/env python3
"""schurkit batch-verification benchmark.

One process acts as a single client in a closed loop: it generates curve
specs from ``--seed``, runs each job through ``schurkit.cli.main(argv)``
in-process, checks the outcome against a theorem-derived oracle, and
prints the end-to-end metrics. With ``--trace 1`` it instead runs each job
of a fixed list once untraced and once traced, and prints the per-layer
metrics and the tracing overhead.

Usage (from the repository root)::

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.bench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5        # fresh interpreters per setup_s measurement
IMPORTTIME_REPEATS = 3   # fresh interpreters per -X importtime split
MIN_JOBS = 11            # the tail percentile needs ten samples beyond it
MAX_LOOP_S = 120.0       # a run never measures longer, whatever the job cycle
RERUN_SHARE = 1 / 16     # share of jobs re-run for the byte-identity check
TRACE_CYCLES = {"verify-mix": 2, "sweep-dense": 3, "export-tables": 2}
REF_NOMINAL_S = 5e-3     # host-reference loop time that end-to-end times are scaled to

clock = time.perf_counter


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# host-speed reference
# ---------------------------------------------------------------------------
# On a shared virtual machine the same job can take 0.7 s or 1.3 s depending
# on the load of its neighbours, in phases lasting a minute or more, which is
# longer than a run. Each run therefore times a fixed reference loop before
# every job and scales its end-to-end times by REF_NOMINAL_S / (median loop
# time). The loop has the instruction mix of the program's per-step work
# (small NumPy arrays, math calls, Python arithmetic) but none of its code,
# so a change to schurkit cannot move it.

def _ref_field(s, y):
    return np.array([math.cos(y[2]), math.sin(y[2]), 1.0 + 0.1 * math.sin(s)])


def reference_seconds() -> float:
    """Wall time of a fixed 300-step RK4 loop on a 3-vector."""
    t0 = clock()
    y, h = np.zeros(3), 1e-3
    for i in range(300):
        s = i * h
        k1 = _ref_field(s, y)
        k2 = _ref_field(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = _ref_field(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = _ref_field(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return clock() - t0


# ---------------------------------------------------------------------------
# fresh-interpreter set-up time
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(refs: list) -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter running ``import schurkit.cli``."""
    times = []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_seconds())
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import schurkit.cli"], env=_child_env(),
                       cwd=ROOT, check=True, timeout=120)
        times.append(clock() - t0)
    return statistics.median(times), times


def measure_importtime() -> tuple[float, float]:
    from spans import parse_importtime

    splits = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import schurkit.cli"],
                              env=_child_env(), cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        splits.append(parse_importtime(proc.stderr))
    return (statistics.median(s[0] for s in splits), statistics.median(s[1] for s in splits))


# ---------------------------------------------------------------------------
# running and judging one job
# ---------------------------------------------------------------------------

def _digests(outputs: dict) -> dict:
    return {k: hashlib.sha256(Path(p).read_bytes()).hexdigest() for k, p in outputs.items()}


class JobRunner:
    """Writes a job's specs, calls ``cli.main`` and applies the oracle."""

    def __init__(self, cli, workloads, workdir: Path):
        self.cli = cli
        self.wl = workloads
        self.workdir = workdir

    def materialise(self, job):
        stem = self.workdir / f"job{job.index}"
        paths = {}
        for name, spec in job.specs.items():
            path = f"{stem}.{name}.json"
            Path(path).write_text(json.dumps(spec))
            paths[name] = path
        args = [a.format(**paths) if a.startswith("{") else a for a in job.args]
        outputs = {}
        if job.command in ("verify", "sweep"):
            outputs["report"] = f"{stem}.report.json"
            args += ["--report", outputs["report"]]
        if job.command != "verify":
            outputs["csv"] = f"{stem}.csv"
            args += ["-o", outputs["csv"]]
        return [job.command, *args], outputs, list(paths.values())

    def call(self, job, argv):
        """(exit code, exception or None, seconds) of one in-process CLI run."""
        os.environ["SCHURKIT_SEED"] = str(job.env_seed or 0)
        exc = None
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = clock()
            try:
                code = self.cli.main(argv)
            except SystemExit as e:          # argparse usage errors
                code = e.code if isinstance(e.code, int) else 1
            except Exception as e:            # an uncaught exception is a traceback
                exc, code = e, 1
            seconds = clock() - t0
        return code, exc, seconds

    def judge(self, job, code, exc, outputs) -> str | None:
        """Failure cause, or None when the oracle accepts the outcome."""
        if exc is not None:
            return "exception"
        if code != job.expect_exit:
            return "exit_code"
        if job.input_error:
            return None
        try:
            if "report" in outputs:
                report = json.loads(Path(outputs["report"]).read_text())
                if self.wl.check_report(job, report):
                    return "verdict"
            if "csv" in outputs:
                check = {"sweep": self.wl.check_sweep_csv,
                         "project": self.wl.check_project_csv,
                         "reconstruct": self.wl.check_reconstruct_csv}[job.command]
                if check(job, outputs["csv"]):
                    return "output"
        except (OSError, ValueError):     # missing or unparsable output
            return "output"
        return None

    def run(self, job, rerun=False):
        """Run, judge and clean up one job; returns (seconds, cause, rerun_seconds)."""
        argv, outputs, specs = self.materialise(job)
        code, exc, seconds = self.call(job, argv)
        cause = self.judge(job, code, exc, outputs)
        rerun_seconds = 0.0
        if rerun and cause is None and not job.input_error:
            t0 = clock()
            first = _digests(outputs)
            self.call(job, argv)
            if first != _digests(outputs):
                cause = "nondeterministic"
            rerun_seconds = clock() - t0
        for p in [*outputs.values(), *specs]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(p)
        return seconds, cause, rerun_seconds


# ---------------------------------------------------------------------------
# workload runs
# ---------------------------------------------------------------------------

def tail_stat(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_timed(runner, gen, seed, seconds, cycle, refs):
    """Closed loop that ends at the job-cycle boundary nearest to ``seconds``.

    Ending on a cycle boundary gives every run the same job mix, so the
    median does not move with how many cheap or dear jobs fit in the time.
    """
    times, causes = [], []
    busy = 0.0           # loop time, excluding the byte-identity re-runs
    index = 0
    while busy < MAX_LOOP_S:
        if index and index % cycle == 0 and len(times) >= MIN_JOBS:
            if busy * (1 + 0.5 / (index // cycle)) >= seconds:
                break
        job = gen(seed, index)
        rerun = random.Random(seed * 7919 + index).random() < RERUN_SHARE
        refs.append(reference_seconds())
        t0 = clock()
        t, cause, rerun_s = runner.run(job, rerun)
        busy += clock() - t0 - rerun_s
        times.append(t)
        causes.append((job, cause))
        index += 1
    return times, causes, busy


def run_traced(runner, gen, seed, n_jobs):
    """Run each job untraced and traced, alternating which goes first.

    Interleaving per job puts both runs of a job under the same host load,
    so their difference measures the tracing overhead rather than drift.
    """
    from spans import Tracer

    jobs = [gen(seed, i) for i in range(n_jobs)]
    runner.run(jobs[0])            # untimed: first-call costs of the process
    tracer = Tracer(clock)
    untraced, causes = 0.0, []
    for job in jobs:
        for traced in ((False, True) if job.index % 2 == 0 else (True, False)):
            if not traced:
                untraced += runner.run(job)[0]
                continue
            tracer.job = job.index
            tracer.install()
            try:
                _, cause, _ = runner.run(job)
            finally:
                tracer.restore()
            causes.append((job, cause))
    return tracer, untraced, causes


def environment(args) -> dict:
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def failure_summary(causes, wl_unexpected):
    """(failed, by_cause, correct). Only generated input errors may fail and stay 'correct'."""
    by_cause = {}
    correct = True
    for job, cause in causes:
        if cause is None:
            continue
        by_cause[cause] = by_cause.get(cause, 0) + 1
        if not job.input_error:
            correct = False
            wl_unexpected.append(f"job {job.index} {job.kind}: {cause}")
    return sum(by_cause.values()), by_cause, correct


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    if not (SRC / "schurkit" / "cli.py").is_file():
        return fail(f"schurkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from schurkit import cli
    from spans import FAILURE_CAUSES, PER_LAYER

    if args.workload not in wl.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    gen, cycle = wl.WORKLOADS[args.workload]
    env = environment(args)
    env.update(step=wl.STEP, export_step=wl.EXPORT_STEP, tol=wl.TOL)
    print("env " + json.dumps(env, sort_keys=True))

    # Relative, fixed-width spec paths keep report bytes (and the
    # cli.bytes_written count) identical from run to run.
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    workdir = WORK.relative_to(ROOT) / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid():07d}"
    workdir.mkdir()
    runner = JobRunner(cli, wl, workdir)
    unexpected: list[str] = []
    try:
        if args.trace:
            schurkit_s, scipy_s = measure_importtime()
            n_jobs = cycle * TRACE_CYCLES[args.workload]
            tracer, untraced, causes = run_traced(runner, gen, args.seed, n_jobs)
            failed, by_cause, correct = failure_summary(causes, unexpected)
            values = tracer.metrics()
            values.update({
                "setup.import_schurkit_s": schurkit_s,
                "setup.import_scipy_s": scipy_s,
                "cli.failed_jobs": failed,
                "trace.untraced_wall_s": untraced,
                "trace.overhead_share": values["trace.job_wall_s"] / untraced - 1.0,
            })
            for cause in FAILURE_CAUSES:
                values[f"cli.failed_jobs.{cause}"] = by_cause.get(cause, 0)
            metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
            attempted = len(causes)
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"env": env, **tracer.dump()}))
            print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
            if tracer.absent:
                print("absent (no longer in schurkit): " + ", ".join(tracer.absent))
        else:
            refs: list[float] = []
            setup_s, setup_all = measure_setup(refs)
            times, causes, busy = run_timed(runner, gen, args.seed, args.seconds, cycle, refs)
            failed, by_cause, correct = failure_summary(causes, unexpected)
            attempted = len(times)
            tail, pct = tail_stat(times)
            raw = {
                "setup_s": setup_s,
                "job_p50_s": statistics.median(times),
                "job_tail_s": tail,
                "jobs_per_s": (attempted - failed) / busy,
            }
            scale = REF_NOMINAL_S / statistics.median(refs)
            metrics = {
                **{k: metric(v / scale if k == "jobs_per_s" else v * scale,
                             "1/s" if k == "jobs_per_s" else "s") for k, v in raw.items()},
                "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            print(f"host reference loop: median {statistics.median(refs) * 1e3:.3f} ms "
                  f"over {len(refs)} samples; times scaled by {scale:.4f}")
            print("raw wall: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
            print(f"setup_s samples (raw): {', '.join(f'{t:.4f}' for t in setup_all)}")
            print(f"job_tail_s is p{pct:.1f} of {attempted} jobs")
            print(f"fail_ratio: {failed / attempted:.6g} ({failed}/{attempted}) by cause {by_cause}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in unexpected:
        print("unexpected failure: " + line)
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    summary = {}
    for name in ("verify-mix", "sweep-dense", "export-tables"):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            print(f"== {name} trace={trace}")
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="verify-mix, sweep-dense, export-tables, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        return fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
