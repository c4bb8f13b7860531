"""One workload in one process: set-up, timed rounds, checks, metrics.

Started by ``run.py``. Times are CPU time (user + system) of the process
that does the work, which leaves out time a shared host's hypervisor
steals: on a 2-vCPU VM with 3-22% steal in bursts, wall-clock pass times
moved by up to 80% between runs. ``setup_s`` is this process's CPU time
from its start to the end of the warm-up pass: interpreter start,
imports, input generation, one pass. Wall-clock figures are kept in the
result file's notes.

A round is one pass over the workload's operations
followed by ``CLI_REPS`` invocations of each of its CLI commands; rounds
repeat while the next one would still end within ``--seconds``. Every
operation and CLI invocation of a round counts as attempted, so the
failed share is the same in every run.

With ``--trace 1`` the first half of the rounds run untraced and the
second half under the span tracer (CLI commands then run through
``cli_traced.py``); the run reports per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent  # the source checkout; run.py puts ROOT/src on PYTHONPATH
CLI_REPS = 3  # invocations of each CLI command per round
WALL = time.perf_counter  # deadlines and wall-clock notes
CPU = time.process_time  # what the metrics report


def own_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Linear-interpolated percentile q in (0, 100) of a list of samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    def __init__(self, workload, recurrence, spawner, out_dir: Path):
        self.workload = workload
        self.spawner = spawner
        self.recurrence = recurrence  # rho_base_vector's lru_cache, emptied before every pass
        self.out_dir = out_dir
        self.digests: dict[int, object] = {}
        self.evidence: dict[str, object] = {}
        self.matched = defaultdict(int)  # timed attempts that reproduced the warm-up output
        self.op_times = [[] for _ in workload.ops]
        self.pass_times: list[float] = []
        self.pass_wall: list[float] = []
        self.cli_times = {c.label: [] for c in workload.cli}
        self.cli_wall = {c.label: [] for c in workload.cli}
        self.cli_maxrss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, message):
        self.problems.append(message)
        print(f"[{self.workload.name}] {message}", file=sys.stderr)

    def _call(self, op):
        t0 = CPU()
        try:
            out = op.call()
        except Exception as exc:  # counted and reported; the run goes on
            return CPU() - t0, None, exc
        return CPU() - t0, out, None

    def warm_up(self):
        """One untimed pass that keeps each output's digest and evidence."""
        self._start_pass()
        for i, op in enumerate(self.workload.ops):
            _, out, exc = self._call(op)
            if exc is not None:
                if not (op.deep and isinstance(exc, RecursionError)):
                    self.problem(f"{op.label}: raised {exc!r} in the warm-up")
                continue
            self.digests[i] = op.digest(out)
            self.evidence[op.label] = op.evidence(out)
            out = None  # not held while the next operation runs

    def _start_pass(self):
        gc.collect()
        self.recurrence.cache_clear()

    def run_pass(self, tracer=None):
        self._start_pass()
        total = 0.0
        for i, op in enumerate(self.workload.ops):
            if tracer is not None:
                tracer.op = i
            dt, out, exc = self._call(op)
            total += dt
            self.attempted += 1
            if exc is not None:
                self.failed += 1
                if not (op.deep and isinstance(exc, RecursionError)):
                    self.problem(f"{op.label}: raised {exc!r}")
                continue
            same = i in self.digests and op.digest(out) == self.digests[i]
            out = None  # not held while the next operation runs
            if not same:
                self.failed += 1
                self.problem(f"{op.label}: output differs from the warm-up pass")
                continue
            self.matched[i] += 1
            self.op_times[i].append(dt)
        if tracer is not None:
            tracer.op = -1
        return total

    def run_cli(self, command, traced_spans: Path | None = None):
        """Run one CLI invocation; return its CPU time, or None if it failed."""
        if traced_spans is None:
            argv = [sys.executable, "-m", "sqtotient.cli", *command.args]
        else:
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(traced_spans), *command.args]
        self.attempted += 1
        request = {"argv": argv, "cwd": str(ROOT), "timeout": 120}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.cli_maxrss_kb = reply["maxrss_kb"]
        message = command.check(reply["code"], reply["stdout"], self.evidence)
        if message:
            self.failed += 1
            self.problem(f"CLI {command.label}: {message}; stderr: {reply['stderr'].strip()[-300:]}")
            return None
        if traced_spans is None:
            self.cli_times[command.label].append(reply["cpu_s"])
            self.cli_wall[command.label].append(reply["wall_s"])
        return reply["cpu_s"]

    def final_checks(self):
        """Check the warm-up evidence against the references (imports sympy)."""
        for i, op in enumerate(self.workload.ops):
            if op.label not in self.evidence:
                continue
            message = op.check(self.evidence[op.label], self.evidence)
            if message:
                # every timed attempt that reproduced this output was wrong too
                self.failed += self.matched[i]
                self.problem(f"{op.label}: {message}")


def rounds(runner, deadline, tracer=None, on_round=None):
    """Run rounds until the next one would end past ``deadline`` (at least one).

    With a ``tracer`` the pass runs under it and each CLI invocation writes
    its spans to its own file under ``.perfbench/spans``; after every round
    ``on_round`` gets the ``(command index, spans file)`` pairs of the
    invocations that succeeded.
    """
    while True:
        t0 = WALL()
        runner.pass_times.append(runner.run_pass(tracer))
        runner.pass_wall.append(WALL() - t0)
        cli_spans = []
        for j, command in enumerate(runner.workload.cli):
            for rep in range(CLI_REPS):
                path = None
                if tracer is not None:
                    path = runner.out_dir / "spans" / f"{runner.workload.name}-cli{j}-{rep}.json"
                if runner.run_cli(command, traced_spans=path) is not None and path is not None:
                    cli_spans.append((j, path))
        if on_round is not None:
            on_round(cli_spans)
        if 2 * WALL() - t0 > deadline:
            return


def end_to_end(runner: Runner, setup_s: float, setup_wall_s: float):
    wl = runner.workload
    # An operation's latency is its median over the run's passes, which
    # keeps one slow pass from moving the tail. Percentiles are taken over
    # the point queries in queries, and over every operation elsewhere
    # (fewer than forty of mixed kinds, so there they describe the mix).
    queries_only = any(op.kind == "query" for op in wl.ops)
    samples = [
        median(ts)
        for op, ts in zip(wl.ops, runner.op_times)
        if ts and (op.kind == "query" or not queries_only)
    ]
    sample_note = f"{len(samples)} operations x {len(runner.pass_times)} passes"
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rss_children = runner.cli_maxrss_kb / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (median(runner.pass_times), "s"),
        "peak_rss_mb": (rss_self, "MB"),
        "cli_s": (sum(median(ts) for ts in runner.cli_times.values()), "s"),
        "cli_peak_rss_mb": (rss_children, "MB"),
        "query_p50_ms": (percentile(samples, 50) * 1e3, "ms"),
        "query_p99_ms": (percentile(samples, 99) * 1e3, "ms"),
    }
    notes = {
        "passes": len(runner.pass_times),
        "query_samples": sample_note,
        "cli_invocations": {k: len(v) for k, v in runner.cli_times.items()},
        "setup_wall_s": setup_wall_s,
        "pass_times": runner.pass_times,
        "pass_wall_s": runner.pass_wall,
        "cli_times": runner.cli_times,
        "cli_wall_s": runner.cli_wall,
        "op_medians": {op.label: median(ts) for op, ts in zip(wl.ops, runner.op_times)},
    }
    return metrics, notes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # started while this process is still small; see spawner.py
    spawner = subprocess.Popen(
        [sys.executable, str(HERE / "spawner.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        return run(args, spawner)
    finally:
        spawner.stdin.close()
        spawner.wait()


def run(args, spawner):
    out_dir = ROOT / ".perfbench"

    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed)
    runner = Runner(workload, workloads.RECURRENCE, spawner, out_dir)
    runner.warm_up()
    setup_s = own_cpu_s()
    setup_wall_s = WALL() - args.spawned_at

    start = WALL()
    if args.trace:
        import layers

        rounds(runner, start + args.seconds / 2)
        metrics = layers.traced_rounds(runner, start + args.seconds)
        summary = f"{len(runner.pass_times)} untraced passes, then traced passes"
        notes = {}
    else:
        rounds(runner, start + args.seconds)
        metrics, notes = end_to_end(runner, setup_s, setup_wall_s)
        summary = f"{notes['passes']} passes, percentiles over {notes['query_samples']}"
    runner.final_checks()

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, notes=notes,
                  problems=runner.problems, inputs=workload.inputs)
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    width = max(len(n) for n in metrics)
    print(f"workload {args.workload} seed {args.seed}: {summary}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
