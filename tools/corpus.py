"""Byte-identity corpus: 78 seeded CLI jobs, one digest line each.

Runs verify-mix jobs 0..23 and 28 at seeds 7 and 8 (job 28 is a spherical
verify whose s* search evaluates the cone section off the rows),
export-tables jobs 0..11 at seed 7, and sweep-dense jobs 0..2 at seed 7 and
0..5 at seed 8 (the job generators of ``bench/workloads.py``), plus two jobs that cross a
``schur.WINDOW_BLOCK`` boundary: sweep-dense seed 7 job 0 with ``--grid 60``
(1770 windows) and seed 7 job 1, a chord verify, with ``--pairs 1500``, and
five explicit pivots: verify-mix job 3, a global-monotonicity verify, with
``--s-star 1.5`` at seeds 7 and 8 and with ``--s-star 1.0`` at seed 7, and
two Minkowski verifies, verify-mix job 5 at seed 7 and job 11 at seed 8,
with ``--s-star 0.3``. The
extra arguments follow the job's own, so they override it, and the job's
kind names them (``sweep:chord+grid=60``). The jobs run in-process through
``schurkit.cli.main``, with the benchmark's own job runner
(``bench/run.py``: the same argv, ``SCHURKIT_SEED`` and output files). Specs are written to a temporary directory and passed by relative
path, so report bytes do not depend on where the corpus runs. Each job
prints one line (``raised=`` only when the CLI leaks an exception)::

    <workload> <seed> <index> <kind> exit=<code> [raised=<type>] report=<sha256|-> csv=<sha256|->
        hypotheses=<flags> conclusion=<flag> checks=<flags>

(all on one line). The flags are the report's ``passed`` values in report
order, ``T`` true, ``F`` false and ``-`` null (not verified); each field
reads ``-`` for a job that wrote no report. Diffing the lines of two trees,
e.g. this checkout against a ``git worktree`` of another commit, shows
every job whose exit code, report or table changed, and whether its
verdicts changed with it::

    python tools/corpus.py > new.txt
    python tools/corpus.py --src ../parent/src > old.txt
    diff old.txt new.txt

Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = (  # workload, seed, job indices, extra arguments
    ("verify-mix", 7, (*range(24), 28), ()),
    ("verify-mix", 8, (*range(24), 28), ()),
    ("export-tables", 7, range(12), ()),
    ("sweep-dense", 7, range(3), ()),
    ("sweep-dense", 8, range(6), ()),
    ("sweep-dense", 7, (0,), ("--grid", "60")),
    ("sweep-dense", 7, (1,), ("--pairs", "1500")),
    ("verify-mix", 7, (3,), ("--s-star", "1.5")),
    ("verify-mix", 8, (3,), ("--s-star", "1.5")),
    ("verify-mix", 7, (3,), ("--s-star", "1.0")),
    ("verify-mix", 7, (5,), ("--s-star", "0.3")),
    ("verify-mix", 8, (11,), ("--s-star", "0.3")),
)


def _digest(path: str | None) -> str:
    if path is None or not Path(path).exists():
        return "-"
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _flag(passed) -> str:
    return "-" if passed is None else "T" if passed else "F"


def _verdicts(path: str | None) -> str:
    """The report's hypothesis, conclusion and conclusion-check ``passed`` flags."""
    if path is None or not Path(path).exists():
        return "hypotheses=- conclusion=- checks=-"
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    conclusion = report.get("conclusion", {})
    hypotheses = "".join(_flag(h["passed"]) for h in report.get("hypotheses", []))
    checks = "".join(_flag(c["passed"]) for c in conclusion.get("checks", []))
    return (f"hypotheses={hypotheses or '-'} conclusion={_flag(conclusion.get('passed'))} "
            f"checks={checks or '-'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the schurkit package "
                             "(default: this checkout's src)")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/ or in --src
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]
    cli = importlib.import_module("schurkit.cli")
    workloads = importlib.import_module("workloads")
    bench_run = importlib.import_module("run")  # the benchmark's job runner: same argv, same env
    print(f"schurkit from {Path(cli.__file__).resolve().parent}", file=sys.stderr)

    saved_cwd, saved_seed = os.getcwd(), os.environ.get("SCHURKIT_SEED")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for workload, seed, indices, extra in JOBS:
                suffix = "+" + "=".join(extra).lstrip("-") if extra else ""
                runner = bench_run.JobRunner(cli, workloads, Path(f"{workload}-{seed}{suffix}"))
                runner.workdir.mkdir()
                make = workloads.WORKLOADS[workload][0]
                for index in indices:
                    job = make(seed, index)
                    job.args = [*job.args, *extra]
                    argv, outputs, _ = runner.materialise(job)
                    code, exc, _ = runner.call(job, argv)
                    raised = f" raised={type(exc).__name__}" if exc is not None else ""
                    print(f"{workload} {seed} {index} {job.kind}{suffix} exit={code}{raised} "
                          f"report={_digest(outputs.get('report'))} "
                          f"csv={_digest(outputs.get('csv'))} {_verdicts(outputs.get('report'))}",
                          flush=True)
    finally:
        os.chdir(saved_cwd)
        if saved_seed is None:
            os.environ.pop("SCHURKIT_SEED", None)
        else:
            os.environ["SCHURKIT_SEED"] = saved_seed
    return 0


if __name__ == "__main__":
    sys.exit(main())
