"""Benchmark entry point.

    python3 perfbench/run.py --workload {tables,queries,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the package is not installed; it
is imported from ``src``). The workload runs in a child process started
here, single-threaded, so that ``setup_s`` is timed from that process's
start. The last line of standard output is the result JSON:
``{"correct", "attempted", "failed", "metrics"}``. Any failure to run
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "queries", "certify")
TIMEOUT_S = 175


def main(argv=None):
    parser = argparse.ArgumentParser(description="sqtotient benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "sqtotient" / "__init__.py").is_file():
        print(f"error: no sqtotient sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        # numpy asks for transparent huge pages on large arrays, which makes
        # their RSS and speed depend on whether the host has one free
        NUMPY_MADVISE_HUGEPAGE="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    spawned_at = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    command = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at),
    ]
    # its own process group, so a timeout also stops the CLI children it runs
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as child:
        try:
            out, _ = child.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            print(f"error: workload {args.workload} ran past {TIMEOUT_S} s", file=sys.stderr)
            return 1
    if child.returncode != 0:
        print(f"error: workload {args.workload} exited with {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
