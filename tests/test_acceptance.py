"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (plus wall-clock time for the heavier ones).
"""

import time
from fractions import Fraction
from math import gcd

import mpmath as mp

from sqtotient import (
    corollary_constant,
    euler_constant,
    menon_classic,
    minimal_order_scan,
    phi_k,
    psi_table,
    rho,
    rho_base_vector,
    run_suite,
    sum_of_squares_census,
)
from sqtotient.averaging import partial_sum
from sqtotient.menon import menon_lhs_brute
from sqtotient.phi import phi_k_brute, phi_k_via_rho
from sqtotient.rho import closed_form_rho2, closed_form_rho4, rho_brute, trig_closed_form_rho8

GUARD = 10**8


def _conclude(number: int, description: str, ok: bool, started: float, detail: str = ""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number:2d} {status}: {description} ({elapsed:.1f}s){suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_three_route_oracle_equivalence():
    started = time.time()
    bad = None
    for n in range(1, 101):
        for k in (1, 2, 3, 4):
            if n**k > GUARD:
                continue
            closed = phi_k(k, n)
            if phi_k_brute(k, n) != closed or phi_k_via_rho(k, n) != closed:
                bad = f"k={k} n={n}"
                break
        if bad:
            break
    _conclude(
        1,
        "phi_k = enumeration = residue-sum for n <= 100, k <= 4, n^k <= 1e8",
        bad is None,
        started,
        bad or "",
    )


def test_criterion_02_rho_formula_vs_oracle_prime_powers():
    started = time.time()
    rows = {c.name: c for c in run_suite("rho", 729, guard=GUARD).checks}
    check = rows["prime-power formula vs enumeration"]
    trio = (rho_brute(1, 1, 4), rho_brute(2, 1, 4), rho_brute(3, 1, 4)) == (2, 8, 24)
    _conclude(
        2,
        "rho formula = enumeration on prime powers (odd <= 729, two-power <= 256), plus the 2/8/24 anchors",
        check.ok and check.detail.endswith(f"477 cases checked, 429 skipped by the guard of {GUARD} tuples") and trio,
        started,
        check.detail,
    )


def test_criterion_03_closed_forms_recurrence_oracle():
    started = time.time()
    ok = True
    detail = ""
    for k in range(1, 33):
        expected2 = rho_base_vector(k, 2)
        expected4 = rho_base_vector(k, 4)
        expected8 = rho_base_vector(k, 8)
        if closed_form_rho2(k) != expected2[1]:
            ok, detail = False, f"modulus 2 k={k}"
            break
        if any(closed_form_rho4(k, lam) != expected4[lam] for lam in (1, 3)):
            ok, detail = False, f"modulus 4 k={k}"
            break
        if any(trig_closed_form_rho8(k, lam) != expected8[lam] for lam in (1, 3, 5, 7)):
            ok, detail = False, f"modulus 8 k={k}"
            break
        for modulus, vector in ((2, expected2), (4, expected4), (8, expected8)):
            census = sum_of_squares_census(k, modulus)
            if any(int(census[lam]) != vector[lam] for lam in range(1, modulus, 2)):
                ok, detail = False, f"census modulus {modulus} k={k}"
                break
        if not ok:
            break
    _conclude(
        3,
        "closed forms = residue vector (= census) at 2, 4, 8 for k <= 32",
        ok,
        started,
        detail,
    )


def test_criterion_04_identity_suite():
    started = time.time()
    result = run_suite("identities", 1000)
    failures = [c for c in result.checks if not c.ok]
    _conclude(
        4,
        "multiplicativity, divisibility, gcd, power, Jordan, ratio, parity at module bounds",
        not failures,
        started,
        failures[0].detail if failures else "",
    )


def test_criterion_05_convolution_identity():
    started = time.time()
    result = run_suite("convolution", 500)
    failures = [c for c in result.checks if not c.ok]
    _conclude(
        5,
        "sum_(d|n) g_k(d) (n/d)^k = phi_k(n) for n <= 500, k in {2, 4}",
        not failures,
        started,
        failures[0].detail if failures else "",
    )


def test_criterion_06_average_order_k1():
    started = time.time()
    total = partial_sum(1, 10**5)
    with mp.workdps(30):
        deviation = abs(total * mp.pi**2 / mp.mpf(3 * 10**10) - 1)
    _conclude(
        6,
        "first-order partial sum at 1e5 within 1e-3 of (3/pi^2) x^2",
        deviation <= mp.mpf("1e-3"),
        started,
        f"rel dev {mp.nstr(deviation, 3)}",
    )


def test_criterion_07_average_order_k2_and_constants():
    started = time.time()
    constant2 = euler_constant(2, 1e-9)
    constant4 = euler_constant(4, 1e-9)
    corollary2 = corollary_constant(2, 1e-9)
    corollary4 = corollary_constant(4, 1e-9)
    total = partial_sum(2, 10**5)
    with mp.workdps(30):
        deviation = abs(total / (constant2.value * mp.mpf(10) ** 15 / 3) - 1)
        forms2 = abs(constant2.value - 3 * corollary2.value)
        forms4 = abs(constant4.value - 5 * corollary4.value)
    ok = deviation <= mp.mpf("1e-2") and forms2 <= 1e-8 and forms4 <= 1e-8
    _conclude(
        7,
        "second-order sum within 1e-2 of C_2 x^3 / 3; two product forms agree to 1e-8",
        ok,
        started,
        f"rel dev {mp.nstr(deviation, 3)}, form gaps {mp.nstr(forms2, 2)}/{mp.nstr(forms4, 2)}",
    )


def test_criterion_08_menon_classic():
    started = time.time()
    bad = None
    for n in range(1, 2001):
        lhs, rhs = menon_classic(n)
        if lhs != rhs:
            bad = f"n={n}: {lhs} != {rhs}"
            break
    _conclude(8, "unit gcd-sum equals phi(n) d(n) for all n <= 2000", bad is None, started, bad or "")


def test_criterion_09_menon_generalization_report():
    started = time.time()
    rows = psi_table(2, 60)
    oracle = {n: Fraction(menon_lhs_brute(2, n), phi_k_brute(2, n)) for n in range(1, 61)}
    wrong = [row.n for row in rows if row.psi != oracle[row.n]]
    pairs = [(m, n) for m in range(1, 61) for n in range(m, 60 // m + 1) if gcd(m, n) == 1]
    unsplit = [(m, n) for m, n in pairs if oracle[m * n] != oracle[m] * oracle[n]]
    _conclude(
        9,
        "psi_table(2, 60) equals the census gcd-sum over phi_2, and that ratio is multiplicative for mn <= 60",
        len(rows) == 60 and not wrong and not unsplit,
        started,
        f"{len(rows)} rows, {len(pairs)} coprime pairs; wrong at n = {wrong}, not split at {unsplit}",
    )


def test_criterion_10_minimal_order_primorials():
    started = time.time()
    rows = minimal_order_scan(1, 9)
    ratios = [ratio for _, ratio in rows]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    with mp.workdps(30):
        ceiling = float(mp.exp(-mp.euler)) + 1e-3
    bounded = all(r < ceiling for r in ratios)
    anchors = (
        abs(ratios[0] - 0.326) <= 2e-3
        and abs(ratios[1] - 0.383) <= 2e-3
        and abs(ratios[2] - 0.425) <= 2e-3
    )
    _conclude(
        10,
        "primorial ratios strictly increase, stay under exp(-gamma) + 1e-3, and anchor at .326/.383/.425",
        increasing and bounded and anchors,
        started,
        f"ratios {[round(r, 4) for r in ratios]}",
    )


def test_partial_sums_reuse_one_sieve():
    # not a numbered criterion: guards the 30s runtime expectations above by
    # making sure the bulk path really is sieve-backed; each sum builds its
    # own SPF sieve, a few milliseconds at 1e5
    started = time.time()
    partial_sum(1, 10**5)
    partial_sum(2, 10**5)
    elapsed = time.time() - started
    print(f"bulk partial sums at 1e5 took {elapsed:.2f}s")
    assert elapsed < 30
