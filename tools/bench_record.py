"""Record the end-to-end benchmark of one checkout as ``BENCH_<n>.json``.

Runs the checkout's own, unchanged ``bench/run.py --workload all --seed S
--seconds 30`` in a fresh interpreter and writes its final JSON line as it
is, together with the code it ran (the checkout's commit, and a digest of
``git diff HEAD`` when the tree is dirty), the Python and numpy versions,
the number of usable CPUs (``nproc``) and the CPU model. Standard library
only::

    git clone --no-checkout . ../parent && git -C ../parent checkout <parent-commit>
    python tools/bench_record.py 0 --checkout ../parent --seed 41
    python tools/bench_record.py 1 --seed 41

Both files of a comparison should be recorded with the same seed on the
same host; every record runs for the benchmark's 30 seconds. The file goes
to this repository's root unless ``--out`` says otherwise.

With ``--parent REV --pairs N`` one file compares this checkout against
REV in interleaved pairs instead. REV is checked out into a temporary
directory (``git clone --no-checkout`` and ``git checkout``, so no worktree
entry is added), and for each workload each side runs the unchanged
``bench/run.py --workload W --seed S --seconds 30 --trace 0`` N times,
the side that goes first alternating from pair to pair. Per workload and
end-to-end metric the record holds each side's values, median, Q1 and Q3,
and the pairs each side won (by the metric's direction in
``BENCHMARK.json``; a tie goes to neither)::

    python tools/bench_record.py 4 --parent HEAD~1 --pairs 10 --seed 41
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-mix", "sweep-dense", "export-tables")


def _git(checkout: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _code(checkout: Path) -> dict:
    """The code a checkout runs: its commit and, when its tree is dirty, a digest of
    ``git diff HEAD`` (so a dirty tree is not labelled with the commit alone)."""
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    code = {"commit": _git(checkout, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}
    if code["dirty"]:
        diff = _git(checkout, "diff", "HEAD") or ""
        code["diff_sha256"] = hashlib.sha256(diff.encode()).hexdigest()
    return code


def _run(checkout: Path, command: list[str]) -> dict | None:
    """The final JSON line of ``bench/run.py`` run in ``checkout``, or None when it fails."""
    proc = subprocess.run([sys.executable, *command], cwd=checkout,
                          capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"bench_record: bench/run.py exited {proc.returncode} in {checkout}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def _paired(parent: Path, pairs: int, seed: int) -> dict | None:
    """Per workload: the runs of both sides, interleaved, and each metric's summary."""
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"parent": parent, "change": ROOT}
    out = {}
    for workload in WORKLOADS:
        command = ["bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", "30", "--trace", "0"]
        runs = {"parent": [], "change": []}
        for i in range(pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                result = _run(sides[side], command)
                if result is None:
                    return None
                runs[side].append(result)
                print(f"bench_record: {workload} pair {i + 1}/{pairs} {side} done",
                      file=sys.stderr)
        metrics = {}
        for name, unit in ((k, m["unit"]) for k, m in runs["change"][0]["metrics"].items()):
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            sign = -1.0 if better.get(name) == "lower" else 1.0
            wins = [sign * (b - a) for a, b in zip(values["parent"], values["change"])]
            metrics[name] = {
                "unit": unit, "better": better.get(name),
                **{side: _summary(v) for side, v in values.items()},
                "pairs_won": {"change": sum(w > 0 for w in wins),
                              "parent": sum(w < 0 for w in wins)},
            }
        out[workload] = {
            "first": ["parent" if i % 2 == 0 else "change" for i in range(pairs)],
            "correct": {side: [r["correct"] for r in runs[side]] for side in runs},
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="index of the record: writes BENCH_<n>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose bench/run.py and src are run (default: this one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", default=None,
                        help="revision to compare this checkout against, in paired runs")
    parser.add_argument("--pairs", type=int, default=10,
                        help="runs per side and workload with --parent (default: 10)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: BENCH_<n>.json at this repository's root)")
    args = parser.parse_args(argv)
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    host = {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": _nproc(), "cpu_model": _cpu_model()}
    if args.parent is None:
        checkout = args.checkout.resolve()
        command = ["bench/run.py", "--workload", "all", "--seed", str(args.seed),
                   "--seconds", "30"]
        result = _run(checkout, command)
        if result is None:
            return 1
        record = {"command": ["python3", *command], **_code(checkout), **host,
                  "result": result}
    else:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
        try:
            parent = tmp / "parent"
            for git in (["clone", "--quiet", "--no-checkout", str(ROOT), str(parent)],
                        ["-C", str(parent), "checkout", "--quiet", args.parent]):
                subprocess.run(["git", *git], check=True)
            parent_code, change_code = _code(parent), _code(ROOT)
            workloads = _paired(parent, args.pairs, args.seed)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if workloads is None:
            return 1
        record = {
            "command": ["python3", "bench/run.py", "--workload", "<workload>", "--seed",
                        str(args.seed), "--seconds", "30", "--trace", "0"],
            "pairs": args.pairs, "seed": args.seed,
            "parent": {"rev": args.parent, **parent_code}, "change": change_code, **host,
            "workloads": workloads,
        }
    out = args.out or ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
