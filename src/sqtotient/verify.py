"""Runnable verification suites: formulas against oracles and identities.

Each suite scans a bounded range, stops at the first counterexample, and
reports it; a passing check records what was covered. These back the CLI
``verify`` subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .averaging import convolution_check, phi_k_table
from .core_arith import factorize
from .menon import menon_classic
from .phi import phi_k, phi_k_brute, phi_k_via_rho, phi_ratio_check, phi_k_via_jordan
from .rho import (
    DEFAULT_GUARD,
    closed_form_rho2,
    closed_form_rho4,
    rho,
    rho_base_vector,
    sum_of_squares_census,
    trig_closed_form_rho8,
)

__all__ = ["Check", "SuiteResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    limit: int
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _passed(name: str, covered: str) -> Check:
    return Check(name=name, ok=True, detail=covered)


def _failed(name: str, counterexample: str) -> Check:
    return Check(name=name, ok=False, detail=f"first counterexample: {counterexample}")


def _cases(checked: int, skipped: int) -> str:
    return f"{checked} cases checked, {skipped} skipped by the guard"


def check_closed_forms(k_max: int = 32, guard: int = DEFAULT_GUARD) -> Check:
    """Closed forms = residue vector at 2, 4, 8 for every k (= guarded census where it fits)."""
    name = "closed forms at moduli 2, 4, 8"
    checked = skipped = 0
    for modulus in (2, 4, 8):
        censuses = {
            k: sum_of_squares_census(k, modulus, guard)
            for k in range(1, k_max + 1)
            if modulus**k <= guard
        }
        checked += len(censuses)
        skipped += k_max - len(censuses)
        for k in range(1, k_max + 1):
            vector = rho_base_vector(k, modulus)
            for lam in range(1, modulus, 2):
                if modulus == 2:
                    closed = closed_form_rho2(k)
                elif modulus == 4:
                    closed = closed_form_rho4(k, lam)
                else:
                    closed = trig_closed_form_rho8(k, lam)
                if closed != vector.counts[lam]:
                    return _failed(
                        name,
                        f"k={k} lam={lam} mod {modulus}: closed {closed} != residue vector {vector.counts[lam]}",
                    )
                if k in censuses and closed != int(censuses[k][lam]):
                    return _failed(
                        name,
                        f"k={k} lam={lam} mod {modulus}: closed {closed} != census {int(censuses[k][lam])}",
                    )
    return _passed(
        name, f"k <= {k_max}, all odd residues; census cross-check: {_cases(checked, skipped)}"
    )


def check_census_totals(n_max: int = 64, k_max: int = 8) -> Check:
    """Residue-class counts sum to n^k (residue-vector route, no tuple guard)."""
    name = "census totals n^k"
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            vector = rho_base_vector(k, n)
            if sum(vector.counts) != n**k:
                return _failed(name, f"n={n} k={k}")
    return _passed(name, f"n <= {n_max}, k <= {k_max}")


def check_rho_prime_powers(
    odd_bound: int = 729,
    two_bound: int = 256,
    k_max: int = 6,
    guard: int = DEFAULT_GUARD,
) -> Check:
    """Formula equals exhaustive census at prime-power moduli, unit residues."""
    name = "prime-power formula vs enumeration"
    moduli = []
    for p in range(3, odd_bound + 1, 2):
        f = factorize(p)
        if len(f.factors) == 1:
            moduli.append(p)
    q = 2
    while q <= two_bound:
        moduli.append(q)
        q *= 2
    checked = skipped = 0
    for n in sorted(moduli):
        for k in range(1, k_max + 1):
            if n**k > guard:
                skipped += k_max - k + 1
                break
            checked += 1
            census = sum_of_squares_census(k, n, guard)
            for lam in range(1, n):
                if gcd(lam, n) != 1:
                    continue
                formula = rho(k, lam, n)
                if formula != int(census[lam]):
                    return _failed(
                        name, f"k={k} lam={lam} n={n}: formula {formula} != census {int(census[lam])}"
                    )
    return _passed(
        name,
        f"odd prime powers <= {odd_bound}, powers of two <= {two_bound}, k <= {k_max}: "
        + _cases(checked, skipped),
    )


def check_rho_general(limit: int, k_max: int = 6, guard: int = DEFAULT_GUARD) -> Check:
    """Formula equals exhaustive census at every modulus <= limit."""
    name = "general-modulus formula vs enumeration"
    checked = skipped = 0
    for n in range(1, limit + 1):
        for k in range(1, k_max + 1):
            if n**k > guard:
                skipped += k_max - k + 1
                break
            checked += 1
            census = sum_of_squares_census(k, n, guard)
            for lam in range(n):
                if gcd(lam, n) != 1:
                    continue
                formula = rho(k, lam, n)
                if formula != int(census[lam]):
                    return _failed(
                        name, f"k={k} lam={lam} n={n}: formula {formula} != census {int(census[lam])}"
                    )
    return _passed(name, f"n <= {limit}, unit residues, k <= {k_max}: {_cases(checked, skipped)}")


def check_rho_multiplicativity(bound: int = 24, k_max: int = 5, guard: int = DEFAULT_GUARD) -> Check:
    """rho(k, lam, mn) = rho(k, lam mod m, m) rho(k, lam mod n, n), coprime m, n."""
    name = "residue-count multiplicativity"
    checked = skipped = 0
    for m in range(2, bound + 1):
        for n in range(m + 1, bound + 1):
            if gcd(m, n) != 1:
                continue
            for k in range(1, k_max + 1):
                if (m * n) ** k > guard:
                    skipped += k_max - k + 1
                    break
                checked += 1
                census = sum_of_squares_census(k, m * n, guard)
                for lam in range(m * n):
                    if gcd(lam, m * n) != 1:
                        continue
                    split = rho(k, lam % m, m) * rho(k, lam % n, n)
                    if split != int(census[lam]):
                        return _failed(name, f"k={k} lam={lam} m={m} n={n}")
    return _passed(name, f"coprime pairs <= {bound}, k <= {k_max}: {_cases(checked, skipped)}")


def check_lifting_steps(guard: int = DEFAULT_GUARD) -> Check:
    """One-step lifts: p^(k-1) per extra exponent (odd p everywhere, 2 from s >= 3)."""
    name = "prime-power lifting steps"
    checked = skipped = 0
    for p in (3, 5):
        for s in range(1, 4):
            for k in range(1, 4):
                if p ** ((s + 1) * k) > guard:
                    skipped += 1
                    continue
                checked += 1
                low = sum_of_squares_census(k, p**s, guard)
                high = sum_of_squares_census(k, p ** (s + 1), guard)
                for lam in range(p ** (s + 1)):
                    if lam % p == 0:
                        continue
                    if int(high[lam]) != p ** (k - 1) * int(low[lam % p**s]):
                        return _failed(name, f"p={p} s={s} k={k} lam={lam}")
    for s in (3, 4):
        for k in range(1, 4):
            if 2 ** ((s + 1) * k) > guard:
                skipped += 1
                continue
            checked += 1
            low = sum_of_squares_census(k, 2**s, guard)
            high = sum_of_squares_census(k, 2 ** (s + 1), guard)
            for lam in range(1, 2 ** (s + 1), 2):
                if int(high[lam]) != 2 ** (k - 1) * int(low[lam % 2**s]):
                    return _failed(name, f"p=2 s={s} k={k} lam={lam}")
    return _passed(
        name, f"p in (3, 5) s <= 3 and p = 2 s in (3, 4), k <= 3: {_cases(checked, skipped)}"
    )


def verify_rho(limit: int, guard: int = DEFAULT_GUARD) -> SuiteResult:
    checks = [
        check_closed_forms(guard=guard),
        check_census_totals(n_max=min(limit, 64)),
        check_rho_prime_powers(
            odd_bound=min(limit, 729), two_bound=min(limit, 256), guard=guard
        ),
        check_rho_general(limit=min(limit, 100), guard=min(guard, 10**6)),
        check_rho_multiplicativity(bound=min(limit, 24), guard=min(guard, 10**6)),
        check_lifting_steps(guard=guard),
    ]
    return SuiteResult(suite="rho", limit=limit, checks=checks)


def verify_phi(limit: int, guard: int = DEFAULT_GUARD, k_max: int = 4) -> SuiteResult:
    name = "three-route agreement"
    checks = []
    failure = None
    checked = skipped = 0
    for n in range(1, limit + 1):
        for k in range(1, k_max + 1):
            if n**k > guard:
                skipped += k_max - k + 1
                break
            checked += 1
            closed = phi_k(k, n)
            brute = phi_k_brute(k, n, guard)
            via = phi_k_via_rho(k, n)
            if not closed == brute == via:
                failure = f"k={k} n={n}: closed {closed}, enumerated {brute}, residue-sum {via}"
                break
        if failure:
            break
    if failure:
        checks.append(_failed(name, failure))
    else:
        checks.append(_passed(name, f"n <= {limit}, k <= {k_max}: {_cases(checked, skipped)}"))
    return SuiteResult(suite="phi", limit=limit, checks=checks)


def verify_identities(limit: int) -> SuiteResult:
    checks = []
    # largest modulus any sub-check reads: products of the gcd-identity pairs
    top = max(min(limit, 200), min(limit, 500), min(limit, 100) ** 2, min(limit, 1000))
    tables = {k: phi_k_table(k, top) for k in (1, 2, 3, 4)}

    def value(k, n):
        return tables[k][n] if n < len(tables[k]) else phi_k(k, n)

    name = "multiplicativity"
    bound = min(limit, 200)
    bad = None
    for m in range(1, bound + 1):
        for n in range(1, bound // m + 1):
            if gcd(m, n) != 1:
                continue
            for k in (1, 2, 3, 4):
                if value(k, m * n) != value(k, m) * value(k, n):
                    bad = f"k={k} m={m} n={n}"
                    break
            if bad:
                break
        if bad:
            break
    checks.append(_failed(name, bad) if bad else _passed(name, f"coprime products <= {bound}, k <= 4"))

    name = "divisibility along divisors"
    bound = min(limit, 500)
    bad = None
    for m in range(1, bound + 1):
        for n in range(1, m + 1):
            if m % n:
                continue
            for k in (1, 2, 3, 4):
                if value(k, m) % value(k, n):
                    bad = f"k={k} n={n} m={m}"
                    break
            if bad:
                break
        if bad:
            break
    checks.append(_failed(name, bad) if bad else _passed(name, f"n | m <= {bound}, k <= 4"))

    name = "gcd identity"
    bound = min(limit, 100)
    bad = None
    for m in range(1, bound + 1):
        for n in range(1, bound + 1):
            d = gcd(m, n)
            for k in (1, 2, 3):
                if value(k, m * n) * value(k, d) != d**k * value(k, m) * value(k, n):
                    bad = f"k={k} m={m} n={n}"
                    break
            if bad:
                break
        if bad:
            break
    checks.append(_failed(name, bad) if bad else _passed(name, f"m, n <= {bound}, k <= 3"))

    name = "power identity"
    bound = min(limit, 50)
    bad = None
    for n in range(1, bound + 1):
        for m in range(1, 5):
            for k in (1, 2, 3):
                if phi_k(k, n**m) != n ** (k * (m - 1)) * value(k, n):
                    bad = f"k={k} n={n} m={m}"
                    break
            if bad:
                break
        if bad:
            break
    checks.append(_failed(name, bad) if bad else _passed(name, f"n <= {bound}, powers <= 4, k <= 3"))

    name = "Jordan route"
    bound = min(limit, 300)
    bad = None
    for k in (4, 8):
        for n in range(1, bound + 1):
            if phi_k_via_jordan(k, n) != phi_k(k, n):
                bad = f"k={k} n={n}"
                break
        if bad:
            break
    checks.append(_failed(name, bad) if bad else _passed(name, f"k in (4, 8), n <= {bound}"))

    name = "quarter-order ratio"
    bound = min(limit, 100)
    bad = None
    for k in (4, 12):
        for n in range(1, bound + 1):
            lhs, rhs = phi_ratio_check(k, n)
            if lhs != rhs:
                bad = f"k={k} n={n}: {lhs} != {rhs}"
                break
        if bad:
            break
    checks.append(_failed(name, bad) if bad else _passed(name, f"k in (4, 12), n <= {bound}"))

    name = "parity"
    bound = min(limit, 1000)
    bad = None
    for n in range(3, bound + 1):
        for k in (1, 2, 3, 4):
            if value(k, n) % 2:
                bad = f"k={k} n={n}"
                break
        if bad:
            break
    checks.append(_failed(name, bad) if bad else _passed(name, f"3 <= n <= {bound}, k <= 4"))

    return SuiteResult(suite="identities", limit=limit, checks=checks)


def verify_convolution(limit: int) -> SuiteResult:
    checks = []
    for k in (2, 4):
        report = convolution_check(k, limit)
        name = f"convolution identity k={k}"
        if report.ok:
            checks.append(_passed(name, f"n <= {limit}"))
        else:
            n, expected, got = report.first_mismatch
            checks.append(_failed(name, f"n={n}: expected {expected}, convolution {got}"))
    return SuiteResult(suite="convolution", limit=limit, checks=checks)


def verify_menon_classic(limit: int) -> SuiteResult:
    name = "unit gcd-sum identity"
    for n in range(1, limit + 1):
        lhs, rhs = menon_classic(n)
        if lhs != rhs:
            check = _failed(name, f"n={n}: {lhs} != {rhs}")
            break
    else:
        check = _passed(name, f"n <= {limit}")
    return SuiteResult(suite="menon-classic", limit=limit, checks=[check])


SUITES = {
    "rho": verify_rho,
    "phi": verify_phi,
    "identities": verify_identities,
    "convolution": verify_convolution,
    "menon-classic": verify_menon_classic,
}


def run_suite(suite: str, limit: int, guard: int = DEFAULT_GUARD) -> SuiteResult:
    """Run one named suite at the given limit."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    runner = SUITES[suite]
    if suite in ("rho", "phi"):
        return runner(limit, guard=guard)
    return runner(limit)
