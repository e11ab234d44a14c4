"""Record the end-to-end benchmark of one checkout as ``BENCH_<n>.json``.

Runs the checkout's own, unchanged ``bench/run.py --workload all --seed S
--seconds 30`` in a fresh interpreter and writes its final JSON line as it
is, together with the checkout's commit, the Python and numpy versions, the
number of usable CPUs (``nproc``) and the CPU model. Standard library only::

    git clone --no-checkout . ../parent && git -C ../parent checkout <parent-commit>
    python tools/bench_record.py 0 --checkout ../parent --seed 41
    python tools/bench_record.py 1 --seed 41

Both files of a comparison should be recorded with the same seed on the
same host; every record runs for the benchmark's 30 seconds. The file goes
to this repository's root unless ``--out`` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="index of the record: writes BENCH_<n>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose bench/run.py and src are run (default: this one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: BENCH_<n>.json at this repository's root)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    command = ["bench/run.py", "--workload", "all", "--seed", str(args.seed),
               "--seconds", "30"]
    proc = subprocess.run([sys.executable, *command], cwd=checkout,
                          capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"bench_record: bench/run.py exited {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    record = {
        "command": ["python3", *command],
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "result": json.loads(lines[-1]),
    }
    out = args.out or ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
