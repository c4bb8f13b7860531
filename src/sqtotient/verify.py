"""Runnable verification suites: formulas against oracles and identities.

Each check is a generator over a bounded range of cases. It yields one
outcome per case: None when the case holds, a counterexample string when
it fails, or ``_SKIPPED`` when the enumeration guard refuses the oracle.
One runner counts the outcomes, stops at the first counterexample, and
reports either it or "<coverage>: N cases checked, M skipped by the
guard". Suites whose work grows with the limit refuse a limit above a
fixed cap before doing any work. These back the CLI ``verify``
subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd

from .averaging import convolution_check, phi_k_table
from .core_arith import BudgetExceededError, build_spf, factorize
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


_SKIPPED = object()


def _run(name: str, coverage: str, outcomes) -> Check:
    """Count the outcomes of one check; the first counterexample ends it."""
    checked = skipped = 0
    for outcome in outcomes:
        if outcome is None:
            checked += 1
        elif outcome is _SKIPPED:
            skipped += 1
        else:
            return Check(name=name, ok=False, detail=f"first counterexample: {outcome}")
    return Check(
        name=name, ok=True, detail=f"{coverage}: {checked} cases checked, {skipped} skipped by the guard"
    )


def _guarded(moduli, k_max: int, guard: int):
    """(n, k) for k <= k_max while n^k <= guard, then _SKIPPED for each larger k."""
    for n in moduli:
        for k in range(1, k_max + 1):
            if n**k > guard:
                yield from repeat(_SKIPPED, k_max - k + 1)
                break
            yield n, k


_CLOSED_FORMS = {
    2: lambda k, lam: closed_form_rho2(k),
    4: closed_form_rho4,
    8: trig_closed_form_rho8,
}


def _closed_forms(guard: int):
    # every k is checked against the residue vector; a case is a census cross-check
    for modulus in (2, 4, 8):
        for k in range(1, 33):
            vector = rho_base_vector(k, modulus).counts
            census = sum_of_squares_census(k, modulus, guard) if modulus**k <= guard else None
            for lam in range(1, modulus, 2):
                closed = _CLOSED_FORMS[modulus](k, lam)
                if closed != vector[lam]:
                    yield f"k={k} lam={lam} mod {modulus}: closed {closed} != residue vector {vector[lam]}"
                if census is not None and closed != int(census[lam]):
                    yield f"k={k} lam={lam} mod {modulus}: closed {closed} != census {int(census[lam])}"
            yield _SKIPPED if census is None else None


def _census_totals(n_max: int):
    # the residue-vector route has no tuple guard
    for n in range(1, n_max + 1):
        for k in range(1, 9):
            yield f"n={n} k={k}" if sum(rho_base_vector(k, n).counts) != n**k else None


def _residue_counts(k: int, n: int) -> list[int]:
    """[rho(k, lam, n) for every lam mod n]."""
    return [rho(k, lam, n) for lam in range(n)]


def _formula_vs_census(moduli, guard: int, formulas):
    for case in _guarded(moduli, 6, guard):
        if case is _SKIPPED:
            yield case
            continue
        n, k = case
        census = sum_of_squares_census(k, n, guard)
        for lam, formula in enumerate(formulas(k, n)):
            if formula != int(census[lam]):
                yield f"k={k} lam={lam} n={n}: formula {formula} != census {int(census[lam])}"
        yield None


def _multiplicativity(bound: int, guard: int, formulas):
    # rho(k, lam, mn) = rho(k, lam mod m, m) rho(k, lam mod n, n) for coprime m, n
    # and every lam (Chinese remainder theorem)
    for m in range(2, bound + 1):
        for n in range(m + 1, bound + 1):
            if gcd(m, n) != 1:
                continue
            for case in _guarded((m * n,), 5, guard):
                if case is _SKIPPED:
                    yield case
                    continue
                mn, k = case
                census = sum_of_squares_census(k, mn, guard)
                at_m, at_n = formulas(k, m), formulas(k, n)
                for lam in range(mn):
                    if at_m[lam % m] * at_n[lam % n] != int(census[lam]):
                        yield f"k={k} lam={lam} m={m} n={n}"
                yield None


def _lifting_steps(guard: int):
    # one step p^s -> p^(s+1) multiplies each unit count by p^(k-1): odd p
    # from s = 1, p = 2 from s = 3
    for p, s in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (2, 3), (2, 4)]:
        for k in range(1, 4):
            if p ** ((s + 1) * k) > guard:
                yield _SKIPPED
                continue
            low = sum_of_squares_census(k, p**s, guard)
            high = sum_of_squares_census(k, p ** (s + 1), guard)
            for lam in range(p ** (s + 1)):
                if lam % p and int(high[lam]) != p ** (k - 1) * int(low[lam % p**s]):
                    yield f"p={p} s={s} k={k} lam={lam}"
            yield None


def _rho(limit: int, guard: int) -> list[Check]:
    odd_bound, two_bound = min(limit, 729), min(limit, 256)
    prime_powers = [q for q in range(3, odd_bound + 1, 2) if len(factorize(q).factors) == 1]
    prime_powers += [1 << j for j in range(1, two_bound.bit_length())]
    n_max, general, pairs = min(limit, 64), min(limit, 100), min(limit, 24)
    # the three formula checks read one table of residue counts per (k, n)
    formulas = lru_cache(maxsize=None)(_residue_counts)
    return [
        _run(
            "closed forms at moduli 2, 4, 8",
            "k <= 32, all odd residues; census cross-check",
            _closed_forms(guard),
        ),
        _run("census totals n^k", f"n <= {n_max}, k <= 8", _census_totals(n_max)),
        _run(
            "prime-power formula vs enumeration",
            f"odd prime powers <= {odd_bound}, powers of two <= {two_bound}, every residue, k <= 6",
            _formula_vs_census(sorted(prime_powers), guard, formulas),
        ),
        _run(
            "general-modulus formula vs enumeration",
            f"n <= {general}, every residue, k <= 6",
            _formula_vs_census(range(1, general + 1), min(guard, 10**6), formulas),
        ),
        _run(
            "residue-count multiplicativity",
            f"coprime pairs <= {pairs}, every residue, k <= 5",
            _multiplicativity(pairs, min(guard, 10**6), formulas),
        ),
        _run(
            "prime-power lifting steps",
            "p in (3, 5) s <= 3 and p = 2 s in (3, 4), k <= 3",
            _lifting_steps(guard),
        ),
    ]


def _three_routes(limit: int, guard: int):
    for case in _guarded(range(1, limit + 1), 4, guard):
        if case is _SKIPPED:
            yield case
            continue
        n, k = case
        closed, brute, via = phi_k(k, n), phi_k_brute(k, n, guard), phi_k_via_rho(k, n)
        yield None if closed == brute == via else (
            f"k={k} n={n}: closed {closed}, enumerated {brute}, residue-sum {via}"
        )


def _phi(limit: int, guard: int) -> list[Check]:
    return [_run("three-route agreement", f"n <= {limit}, k <= 4", _three_routes(limit, guard))]


# The identity checks read phi_k(n) from sieve tables as t[k][n], indexed in
# the loops themselves: a helper call per case costs more than the check.


def _table_multiplicativity(t, bound: int):
    for m in range(1, bound + 1):
        for n in range(1, bound // m + 1):
            if gcd(m, n) == 1:
                for k in (1, 2, 3, 4):
                    yield f"k={k} m={m} n={n}" if t[k][m * n] != t[k][m] * t[k][n] else None


def _divisibility(t, bound: int):
    for m in range(1, bound + 1):
        for n in range(1, m + 1):
            if m % n == 0:
                for k in (1, 2, 3, 4):
                    yield f"k={k} n={n} m={m}" if t[k][m] % t[k][n] else None


def _gcd_identity(t, bound: int):
    for m in range(1, bound + 1):
        for n in range(1, bound + 1):
            d = gcd(m, n)
            for k in (1, 2, 3):
                yield f"k={k} m={m} n={n}" if t[k][m * n] * t[k][d] != d**k * t[k][m] * t[k][n] else None


def _power_identity(t, bound: int):
    for n in range(1, bound + 1):
        for m in range(1, 5):
            for k in (1, 2, 3):
                yield f"k={k} n={n} m={m}" if phi_k(k, n**m) != n ** (k * (m - 1)) * t[k][n] else None


def _jordan_route(bound: int):
    for k in (4, 8):
        for n in range(1, bound + 1):
            yield f"k={k} n={n}" if phi_k_via_jordan(k, n) != phi_k(k, n) else None


def _quarter_ratio(bound: int):
    for k in (4, 12):
        for n in range(1, bound + 1):
            lhs, rhs = phi_ratio_check(k, n)
            yield f"k={k} n={n}: {lhs} != {rhs}" if lhs != rhs else None


def _parity(t, bound: int):
    for n in range(3, bound + 1):
        for k in (1, 2, 3, 4):
            yield f"k={k} n={n}" if t[k][n] % 2 else None


def _identities(limit: int, guard: int) -> list[Check]:
    mult, div, gcds, power, jordan, ratio, parity = (
        min(limit, b) for b in (200, 500, 100, 50, 300, 100, 1000)
    )
    # the largest index read: products of the gcd-identity pairs
    top = max(mult, div, gcds**2, parity)
    t = [None] + [phi_k_table(k, top) for k in (1, 2, 3, 4)]
    return [
        _run("multiplicativity", f"coprime products <= {mult}, k <= 4", _table_multiplicativity(t, mult)),
        _run("divisibility along divisors", f"n | m <= {div}, k <= 4", _divisibility(t, div)),
        _run("gcd identity", f"m, n <= {gcds}, k <= 3", _gcd_identity(t, gcds)),
        _run("power identity", f"n <= {power}, powers <= 4, k <= 3", _power_identity(t, power)),
        _run("Jordan route", f"k in (4, 8), n <= {jordan}", _jordan_route(jordan)),
        _run("quarter-order ratio", f"k in (4, 12), n <= {ratio}", _quarter_ratio(ratio)),
        _run("parity", f"3 <= n <= {parity}, k <= 4", _parity(t, parity)),
    ]


def _convolution_identity(k: int, limit: int, table):
    report = convolution_check(k, limit, table)
    if not report.ok:
        n, expected, got = report.first_mismatch
        yield f"n={n}: expected {expected}, convolution {got}"
    yield from repeat(None, limit)


def _convolution(limit: int, guard: int) -> list[Check]:
    table = build_spf(limit) if limit >= 2 else None  # one sieve for both k
    return [
        _run(f"convolution identity k={k}", f"n <= {limit}", _convolution_identity(k, limit, table))
        for k in (2, 4)
    ]


def _unit_gcd_sums(limit: int):
    for n in range(1, limit + 1):
        lhs, rhs = menon_classic(n)
        yield f"n={n}: {lhs} != {rhs}" if lhs != rhs else None


def _menon_classic(limit: int, guard: int) -> list[Check]:
    return [_run("unit gcd-sum identity", f"n <= {limit}", _unit_gcd_sums(limit))]


# Each suite with the largest limit it accepts where its work grows with
# the limit: phi counts every n^k census under the guard, menon-classic
# fills one numpy gcd table of n + 1 entries per n <= limit (O(limit^2)
# vectorised steps, about 2 s at its cap), and convolution builds a sieve
# and four tables of limit + 1 entries (about 250 MB peak RSS at its cap).
# Each cap costs seconds of CPU. rho and identities clamp every bound
# themselves.
SUITES = {
    "rho": (_rho, None),
    "phi": (_phi, 1 << 10),
    "identities": (_identities, None),
    "convolution": (_convolution, 1 << 20),
    "menon-classic": (_menon_classic, 1 << 14),
}


def run_suite(suite: str, limit: int, guard: int = DEFAULT_GUARD) -> SuiteResult:
    """Run one named suite at the given limit."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    checks, largest = SUITES[suite]
    if largest is not None and limit > largest:
        raise BudgetExceededError(limit, largest, f"the {suite} suite's limit")
    return SuiteResult(suite=suite, limit=limit, checks=checks(limit, guard))
