"""Runs the CLI commands on behalf of the workload process.

Linux records a process's peak RSS at exec from the memory image it is
leaving, and a child forked from the workload process leaves a copy of
the workload's image. So the workload process starts this small helper
before it imports anything large, and every CLI child is forked from
here: ``getrusage(RUSAGE_CHILDREN)`` in this process then measures the
CLI children alone.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "cwd":
..., "timeout": s}``; one JSON reply per line on stdout with the exit
code, stdout, stderr, the child's CPU time (user + system) and wall time,
and the children's peak RSS so far (KiB).
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main():
    for line in sys.stdin:
        request = json.loads(line)
        cpu0 = children_cpu_s()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                request["argv"],
                cwd=request["cwd"],
                capture_output=True,
                text=True,
                timeout=request["timeout"],
            )
            reply = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        except subprocess.TimeoutExpired:
            reply = {"code": None, "stdout": "", "stderr": "timed out"}
        reply["wall_s"] = time.perf_counter() - t0
        reply["cpu_s"] = children_cpu_s() - cpu0
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
