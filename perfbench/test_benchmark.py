"""Tests of the benchmark's own reference computations and accounting.

Run with ``python3 -m pytest perfbench -q`` from the repository root. The
references are checked against naive enumeration of every tuple at tiny
sizes; the accounting tests show that a wrong value and an unexpected
exception count as failed operations while the known deep-k
RecursionError counts as failed without making the run incorrect.
"""

from __future__ import annotations

import itertools
import sys
from math import gcd
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from harness import Runner  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

TINY = [(k, n) for k in range(1, 5) for n in range(1, 13) if n**k <= 20000]


@pytest.mark.parametrize("k,n", TINY)
def test_census_by_convolution_matches_enumeration(k, n):
    assert ref.census(k, n) == ref.enumerate_census(k, n)


def test_census_uses_exact_ints_past_int64():
    half = ref.census(35, 8)
    counts = ref.census(70, 8)
    assert sum(counts) == 8**70
    # 8^70 > 2^63, so this product runs on Python ints
    assert counts == ref.cyclic_convolve(half, half, 8, 8**70)


@pytest.mark.parametrize("k,n", TINY)
def test_phi_k_formula_matches_enumeration(k, n):
    factors = {int(p): int(e) for p, e in sympy.factorint(n).items()}
    counts = ref.enumerate_census(k, n)
    assert ref.phi_k(k, factors) == ref.phi_k_from_census(counts, n)


@pytest.mark.parametrize("k,n", [(k, n) for k, n in TINY if n > 1])
def test_rho_unit_formula_matches_enumeration(k, n):
    factors = {int(p): int(e) for p, e in sympy.factorint(n).items()}
    counts = ref.enumerate_census(k, n)
    for lam in range(n):
        if gcd(lam, n) == 1:
            assert ref.rho_unit(k, lam, factors) == counts[lam]


@pytest.mark.parametrize("k,n", [(1, 40), (2, 40), (3, 40), (3, 24), (4, 16), (4, 8), (5, 8)])
def test_deep_k_reference_matches_enumeration(k, n):
    factors = {int(p): int(e) for p, e in sympy.factorint(n).items()}
    counts = ref.enumerate_census(k, n)
    for lam in range(n):
        if gcd(lam, n) == 1:
            assert ref.rho_by_census(k, lam, factors) == counts[lam]


def test_deep_k_reference_lifts_above_modulus_8():
    # 2^((e-3)(k-1)) times the mod-8 count, against enumeration mod 32
    counts = ref.enumerate_census(3, 32)
    for lam in range(1, 32, 2):
        assert ref.rho_by_census(3, lam, {2: 5}) == counts[lam]


@pytest.mark.parametrize("k,n", [(1, 9), (2, 10), (2, 12), (3, 9), (3, 10), (4, 6)])
def test_menon_sum_matches_enumeration(k, n):
    brute = sum(
        gcd(s - 1, n)
        for tup in itertools.product(range(n), repeat=k)
        for s in [sum(x * x for x in tup) % n]
        if gcd(s, n) == 1
    )
    assert ref.menon_lhs(k, n) == brute


def test_totients_and_partial_sums():
    phi = ref.totients(300)
    assert [int(v) for v in phi[1:]] == [int(sympy.totient(n)) for n in range(1, 301)]
    for k in (1, 3):
        xs = [10, 100, 300]
        want = [sum(n ** (k - 1) * int(sympy.totient(n)) for n in range(1, x + 1)) for x in xs]
        assert ref.odd_k_partial_sums(k, xs) == want


def test_plain_product_is_within_its_truncation_of_the_certified_constant():
    primes = list(sympy.primerange(3, 100_000))
    for k in (2, 4, 6):
        certified = workloads.AV.euler_constant(k, 1e-9).value
        assert abs(float(certified) / ref.plain_euler_product(k, primes) - 1) < 3e-5


def test_g_k_dirichlet_check_detects_a_wrong_coefficient():
    k, n = 2, 12
    divisors = [1, 2, 3, 4, 6, 12]
    table = workloads.AV.g_k_table(k, n)
    g = list(table.values)
    phi = ref.phi_k(k, {2: 2, 3: 1})
    assert ref.g_k_dirichlet_check(k, n, g, divisors, phi)
    g[6] += 1
    assert not ref.g_k_dirichlet_check(k, n, g, divisors, phi)


# ---------------------------------------------------------------------------
# accounting


def _runner(ops):
    workload = workloads.Workload("test", ops, [])
    return Runner(workload, workloads.RECURRENCE, None, HERE / "unused")


def test_wrong_value_is_counted_as_failed():
    good = workloads._phi_query(2, 15)
    wrong = workloads._phi_query(2, 21)
    wrong.call = lambda: workloads.PHI.phi_k(2, 21) + 1
    runner = _runner([good, wrong])
    runner.warm_up()
    for _ in range(3):
        runner.run_pass()
    runner.final_checks()
    assert runner.attempted == 6
    assert runner.failed == 3
    assert len(runner.problems) == 1 and "phi_k(2, 21)" in runner.problems[0]


def test_unexpected_exception_is_failed_and_incorrect():
    op = workloads._phi_query(2, 15)
    op.call = lambda: workloads.PHI.phi_k(0, 15)  # ValueError
    runner = _runner([op])
    runner.warm_up()
    runner.run_pass()
    runner.final_checks()
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.problems


def test_deep_k_recursion_error_is_failed_but_correct():
    deep = workloads._deep_rho(3000, 5, 24)
    good = workloads._rho_oracle_query(2, 0, 6)
    runner = _runner([deep, good])
    runner.warm_up()
    runner.run_pass()
    runner.run_pass()
    runner.final_checks()
    assert (runner.attempted, runner.failed) == (4, 2)
    assert runner.problems == []


def test_deep_k_check_accepts_the_census_value():
    op = workloads._deep_rho(40, 5, 24)  # shallow enough to succeed today
    value = workloads.RHO.rho(40, 5, 24)
    assert op.check(value, {}) is None
    assert op.check(value + 1, {}) is not None


# ---------------------------------------------------------------------------
# tracer


def test_tracer_rebinds_every_namespace_and_restores():
    menon = workloads.MENON
    original = menon.phi_k
    tracer = Tracer().install()
    try:
        assert menon.phi_k is not original
        assert sys.modules["sqtotient"].phi_k is menon.phi_k
        tracer.op = 7
        rows = menon.psi_table(2, 12)
    finally:
        tracer.uninstall()
    assert menon.phi_k is original
    assert [r.n for r in rows] == list(range(1, 13))
    spans = tracer.take()
    summary = summarize(tracer.names, spans)
    assert summary["calls"]["menon.psi_table"] == 1
    assert summary["calls"]["phi.phi_k"] == 12
    assert summary["amount"]["menon.psi_table"] == 12
    assert summary["factorize_under_psi"] == summary["calls"]["core_arith.factorize"]
    assert all(s[4] == 7 for s in spans)


def test_tracer_survives_the_deep_k_recursion_error():
    tracer = Tracer().install()
    try:
        workloads.RECURRENCE.cache_clear()
        with pytest.raises(RecursionError):
            workloads.RHO.rho(3000, 1, 8)
        assert tracer.stack == []
        workloads.RHO.rho(2, 1, 5)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    rho_spans = [s for s in spans if tracer.names[s[0]] == "rho.rho"]
    assert rho_spans[-1][3] == -1  # the later call is a top-level span again
    assert summarize(tracer.names, spans)["calls"]["rho.rho"] == 2


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    import json

    from layers import METRICS

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.BUILDERS)
    names = {m["name"] for m in bench["end_to_end"]}
    assert names == {
        "setup_s", "pass_s", "peak_rss_mb", "cli_s", "cli_peak_rss_mb", "query_p50_ms", "query_p99_ms"
    }


def test_tracer_wraps_what_the_metrics_read_whatever_all_lists(monkeypatch):
    from layers import PASS_TRACED
    from tracer import LAYERS

    for layer in LAYERS:
        module = sys.modules.get(f"sqtotient.{layer}")
        if module is not None:
            monkeypatch.setattr(module, "__all__", [], raising=False)
    tracer = Tracer().install()
    tracer.uninstall()
    assert PASS_TRACED <= set(tracer.names)
