"""Traced rounds and the per-layer metrics they yield (``--trace 1``).

Self time of a span is its duration minus its direct children's. Times
are medians over the traced passes; counts come from the first traced
pass and must repeat in every later one (a pass starts from an empty
recurrence cache, so it does the same work each time).
"""

from __future__ import annotations

import json
import sys

from harness import median, rounds
from tracer import AMOUNTS, LAYERS, SUMMARIZED, Tracer, summarize

SUITES = ("rho", "phi", "identities", "convolution", "menon-classic")

# (name, unit, better). Pass-level layer self times leave out reporting
# and cli, which only run inside the CLI children.
METRICS = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS[:6]]
    + [(f"cli_run.{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("core_arith.build_spf_s", "s", "lower"),
        ("core_arith.spf_bytes", "B", "lower"),
        ("core_arith.factorize_s", "s", "lower"),
        ("core_arith.factorize_calls", "count", "lower"),
        ("core_arith.is_prime_calls", "count", "lower"),
        ("core_arith.primes_upto_s", "s", "lower"),
        ("phi.phi_k_s", "s", "lower"),
        ("phi.phi_k_brute_s", "s", "lower"),
        ("phi.phi_k_via_rho_s", "s", "lower"),
        ("rho.formula_calls", "count", "higher"),
        ("rho.oracle_calls", "count", "lower"),
        ("rho.census_s", "s", "lower"),
        ("rho.census_calls", "count", "lower"),
        ("rho.census_tuples", "count", "lower"),
        ("rho.census_tuples_per_s", "1/s", "higher"),
        ("rho.recurrence_s", "s", "lower"),
        ("rho.recurrence_cache_hits", "count", "higher"),
        ("rho.recurrence_cache_misses", "count", "lower"),
        ("averaging.phi_k_table_s", "s", "lower"),
        ("averaging.table_values", "count", "higher"),
        ("averaging.table_values_per_s", "1/s", "higher"),
        ("averaging.g_k_table_s", "s", "lower"),
        ("averaging.convolution_check_s", "s", "lower"),
        ("averaging.partial_sum_s", "s", "lower"),
        ("averaging.averaging_report_s", "s", "lower"),
        ("averaging.euler_constant_s", "s", "lower"),
        ("averaging.corollary_constant_s", "s", "lower"),
        ("averaging.product_primes", "count", "lower"),
        ("menon.psi_table_s", "s", "lower"),
        ("menon.menon_lhs_s", "s", "lower"),
        ("menon.factorize_calls_per_n", "count", "lower"),
    ]
    + [(f"verify.{s.replace('-', '_')}_s", "s", "lower") for s in SUITES]
    + [
        ("reporting.render_s", "s", "lower"),
        ("reporting.bytes_out", "B", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.untraced_pass_s", "s", "lower"),
        ("trace.traced_pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans_per_pass", "count", "lower"),
    ]
)

# per-function self times reported under their own metric name
FUNCTION_TIMES = {
    "core_arith.build_spf_s": "core_arith.build_spf",
    "core_arith.factorize_s": "core_arith.factorize",
    "core_arith.primes_upto_s": "core_arith.primes_upto",
    "phi.phi_k_s": "phi.phi_k",
    "phi.phi_k_brute_s": "phi.phi_k_brute",
    "phi.phi_k_via_rho_s": "phi.phi_k_via_rho",
    "rho.census_s": "rho.sum_of_squares_census",
    "rho.recurrence_s": "rho.rho_base_vector",
    "averaging.phi_k_table_s": "averaging.phi_k_table",
    "averaging.g_k_table_s": "averaging.g_k_table",
    "averaging.convolution_check_s": "averaging.convolution_check",
    "averaging.partial_sum_s": "averaging.partial_sum",
    "averaging.averaging_report_s": "averaging.averaging_report",
    "averaging.euler_constant_s": "averaging.euler_constant",
    "averaging.corollary_constant_s": "averaging.corollary_constant",
    "menon.psi_table_s": "menon.psi_table",
    "menon.menon_lhs_s": "menon.menon_lhs",
}

# Functions the per-layer metrics read by name: a pass-level tracer that
# did not wrap one of them would report 0 for its metric without notice.
PASS_TRACED = (
    set(FUNCTION_TIMES.values()) | set(AMOUNTS) | SUMMARIZED | {"core_arith.is_prime"}
) - {"reporting.render"}
CLI_TRACED = {"reporting.render"}


def _counts(summary):
    """The exact counts of one pass, for the repeat check."""
    return (
        summary["calls"],
        summary["amount"],
        summary["rho_oracle_calls"],
        summary["product_primes"],
        summary["factorize_under_psi"],
        summary["spans"],
    )


def traced_rounds(runner, deadline):
    """Run traced rounds until ``deadline`` (at least one); return metrics."""
    workload = runner.workload
    spans_dir = runner.out_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    labels = {i: op.label for i, op in enumerate(workload.ops)}
    untraced = len(runner.pass_times)
    tracer = Tracer().install()
    unwrapped = PASS_TRACED - set(tracer.names)
    if unwrapped:
        runner.problem(f"tracer did not wrap {sorted(unwrapped)}")
    passes, caches, batches, cli_rounds = [], [], [], []

    def on_round(cli_spans):
        info = runner.recurrence.cache_info()
        caches.append((info.hits, info.misses))
        batches.append(tracer.take())
        passes.append(summarize(tracer.names, batches[-1], labels))
        # every invocation runs traced; the first good one of each command is kept
        kept = {}
        for j, path in cli_spans:
            if j not in kept:
                kept[j] = json.loads(path.read_text())
                unwrapped = CLI_TRACED - set(kept[j]["names"])
                if unwrapped:
                    runner.problem(f"CLI tracer did not wrap {sorted(unwrapped)}")
        cli_rounds.append(list(kept.values()))

    try:
        rounds(runner, deadline, tracer, on_round)
    finally:
        tracer.uninstall()
    tracer.dump(spans_dir / f"{workload.name}-passes.jsonl", batches)
    for later in range(1, len(passes)):
        if _counts(passes[later]) != _counts(passes[0]) or caches[later] != caches[0]:
            runner.problem(f"traced pass {later} counts differ from the first traced pass")
    return per_layer(
        passes, caches, cli_rounds, runner.pass_times[:untraced], runner.pass_times[untraced:]
    )


def per_layer(passes, caches, cli_rounds, untraced_times, traced_times):
    first = passes[0]

    def med(get):
        return median([get(s) for s in passes])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS[:6]:
        m[f"{layer}.self_s"] = med(lambda s: s["layer_self_s"].get(layer, 0.0))

    cli_summaries = [
        [summarize(inv["names"], inv["spans"]) for inv in invocations] for invocations in cli_rounds
    ]
    for layer in LAYERS:
        m[f"cli_run.{layer}.self_s"] = median(
            [sum(s["layer_self_s"].get(layer, 0.0) for s in r) for r in cli_summaries]
        )

    for metric, fn in FUNCTION_TIMES.items():
        m[metric] = med(lambda s: s["self_s"].get(fn, 0.0))
    calls, amount = first["calls"], first["amount"]
    m["core_arith.spf_bytes"] = 8 * first["amount_max"].get("core_arith.build_spf", 0)
    m["core_arith.factorize_calls"] = calls.get("core_arith.factorize", 0)
    m["core_arith.is_prime_calls"] = calls.get("core_arith.is_prime", 0)
    m["rho.oracle_calls"] = first["rho_oracle_calls"]
    m["rho.formula_calls"] = calls.get("rho.rho", 0) - first["rho_oracle_calls"]
    m["rho.census_calls"] = calls.get("rho.sum_of_squares_census", 0)
    m["rho.census_tuples"] = amount.get("rho.sum_of_squares_census", 0)
    m["rho.census_tuples_per_s"] = ratio(m["rho.census_tuples"], m["rho.census_s"])
    m["rho.recurrence_cache_hits"], m["rho.recurrence_cache_misses"] = caches[0]
    m["averaging.table_values"] = amount.get("averaging.phi_k_table", 0)
    m["averaging.table_values_per_s"] = ratio(
        m["averaging.table_values"], m["averaging.phi_k_table_s"]
    )
    m["averaging.product_primes"] = first["product_primes"]
    m["menon.factorize_calls_per_n"] = ratio(
        first["factorize_under_psi"], amount.get("menon.psi_table", 0)
    )
    for suite in SUITES:
        m[f"verify.{suite.replace('-', '_')}_s"] = med(lambda s: s["suite_self_s"].get(suite, 0.0))

    m["reporting.render_s"] = median(
        [sum(s["self_s"].get("reporting.render", 0.0) for s in r) for r in cli_summaries]
    )
    m["reporting.bytes_out"] = sum(
        s["amount"].get("reporting.render", 0) for s in (cli_summaries[0] if cli_summaries else [])
    )
    m["cli.import_s"] = median([inv["import_s"] for r in cli_rounds for inv in r])
    m["trace.untraced_pass_s"] = median(untraced_times)
    m["trace.traced_pass_s"] = median(traced_times)
    m["trace.overhead_s"] = m["trace.traced_pass_s"] - m["trace.untraced_pass_s"]
    m["trace.spans_per_pass"] = first["spans"]

    units = {name: unit for name, unit, _ in METRICS}
    missing = set(units) - set(m)
    if missing:
        print(f"per-layer metrics not computed: {sorted(missing)}", file=sys.stderr)
    return {name: (m.get(name, 0.0), units[name]) for name, _, _ in METRICS}
