"""Runnable verification suites: formulas against oracles and identities.

Each check is a generator over a bounded range of cases. It yields one
outcome per case: None when the case holds, a counterexample string when
it fails, or ``_SKIPPED`` when n^k is over the check's guard, the largest
census it compares against. One runner counts the outcomes, stops at the
first counterexample, and reports either it or "<coverage>: N cases
checked", followed, for a check that consults a guard, by ", M skipped by
the guard of G tuples" with the guard G it applied. Suites whose work
grows with the limit refuse a limit above a fixed cap before doing any
work. These back the CLI ``verify`` subcommand and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd, isqrt

from .averaging import convolution_check, phi_k_table
from .core_arith import BudgetExceededError, divisor_count, euler_phi, factorize
from .menon import _gcd_sum_block
from .phi import phi_k, phi_k_brute, phi_k_via_rho, phi_ratio_check, phi_k_via_jordan
from .rho import (
    _power_census,
    closed_form_rho2,
    closed_form_rho4,
    rho,
    rho_base_vector,
    sum_of_squares_census,
    trig_closed_form_rho8,
)

__all__ = ["Check", "DEFAULT_GUARD", "SuiteResult", "SUITES", "run_suite"]

# Default guard: the largest n^k at which a check compares against the
# census (``--max-enum``). It sets coverage only; the census kernel has
# its own budget of predicted CPU time and memory.
DEFAULT_GUARD = 10**8


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


def _run(name: str, coverage: str, outcomes, guard: int | None = None) -> Check:
    """Count the outcomes of one check; the first counterexample ends it.

    ``guard`` is the tuple guard the check applied, if it consults one.
    """
    checked = skipped = 0
    for outcome in outcomes:
        if outcome is None:
            checked += 1
        elif outcome is _SKIPPED:
            skipped += 1
        else:
            return Check(name=name, ok=False, detail=f"first counterexample: {outcome}")
    detail = f"{coverage}: {checked} cases checked"
    if guard is not None:
        detail += f", {skipped} skipped by the guard of {guard} tuples"
    return Check(name=name, ok=True, detail=detail)


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


def _closed_forms():
    # three routes per (modulus, k): the Gauss-sum residue vector, the trig
    # closed forms, and the census kernel, at every k whatever the guard
    for modulus in (2, 4, 8):
        for k in range(1, 33):
            vector = rho_base_vector(k, modulus)
            kernel = _power_census(k, modulus)
            for lam in range(1, modulus, 2):
                closed = _CLOSED_FORMS[modulus](k, lam)
                if closed != vector[lam]:
                    yield f"k={k} lam={lam} mod {modulus}: closed {closed} != residue vector {vector[lam]}"
                if closed != kernel[lam]:
                    yield f"k={k} lam={lam} mod {modulus}: closed {closed} != kernel {kernel[lam]}"
            yield None


def _census_totals(n_max: int):
    # not guarded: n <= 64 and k <= 8 are far inside the kernel's budget
    for n in range(1, n_max + 1):
        for k in range(1, 9):
            yield f"n={n} k={k}" if sum(sum_of_squares_census(k, n)) != n**k else None


def _residue_counts(k: int, n: int) -> list[int]:
    """[rho(k, lam, n) for every lam mod n]."""
    return [rho(k, lam, n) for lam in range(n)]


def _formula_vs_census(moduli, guard: int, formulas):
    for case in _guarded(moduli, 6, guard):
        if case is _SKIPPED:
            yield case
            continue
        n, k = case
        census = sum_of_squares_census(k, n)
        for lam, formula in enumerate(formulas(k, n)):
            if formula != census[lam]:
                yield f"k={k} lam={lam} n={n}: formula {formula} != census {census[lam]}"
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
                census = sum_of_squares_census(k, mn)
                at_m, at_n = formulas(k, m), formulas(k, n)
                for lam in range(mn):
                    if at_m[lam % m] * at_n[lam % n] != census[lam]:
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
            low = sum_of_squares_census(k, p**s)
            high = sum_of_squares_census(k, p ** (s + 1))
            for lam in range(p ** (s + 1)):
                if lam % p and high[lam] != p ** (k - 1) * low[lam % p**s]:
                    yield f"p={p} s={s} k={k} lam={lam}"
            yield None


def _rho(limit: int, guard: int) -> list[Check]:
    odd_bound, two_bound = min(limit, 729), min(limit, 256)
    prime_powers = [q for q in range(3, odd_bound + 1, 2) if len(factorize(q).factors) == 1]
    prime_powers += [1 << j for j in range(1, two_bound.bit_length())]
    n_max, general, pairs = min(limit, 64), min(limit, 100), min(limit, 24)
    # the three formula checks read one table of residue counts per (k, n)
    formulas = lru_cache(maxsize=None)(_residue_counts)
    # the checks over general moduli compare censuses of at most 10^6 tuples
    wide_guard = min(guard, 10**6)
    return [
        _run(
            "closed forms at moduli 2, 4, 8",
            "k <= 32, all odd residues; Gauss sums, trig forms and census kernel",
            _closed_forms(),
        ),
        _run("census totals n^k", f"n <= {n_max}, k <= 8", _census_totals(n_max)),
        _run(
            "prime-power formula vs enumeration",
            f"odd prime powers <= {odd_bound}, powers of two <= {two_bound}, every residue, k <= 6",
            _formula_vs_census(sorted(prime_powers), guard, formulas),
            guard,
        ),
        _run(
            "general-modulus formula vs enumeration",
            f"n <= {general}, every residue, k <= 6",
            _formula_vs_census(range(1, general + 1), wide_guard, formulas),
            wide_guard,
        ),
        _run(
            "residue-count multiplicativity",
            f"coprime pairs <= {pairs}, every residue, k <= 5",
            _multiplicativity(pairs, wide_guard, formulas),
            wide_guard,
        ),
        _run(
            "prime-power lifting steps",
            "p in (3, 5) s <= 3 and p = 2 s in (3, 4), k <= 3",
            _lifting_steps(guard),
            guard,
        ),
    ]


def _three_routes(limit: int, guard: int):
    for case in _guarded(range(1, limit + 1), 4, guard):
        if case is _SKIPPED:
            yield case
            continue
        n, k = case
        closed, brute, via = phi_k(k, n), phi_k_brute(k, n), phi_k_via_rho(k, n)
        yield None if closed == brute == via else (
            f"k={k} n={n}: closed {closed}, enumerated {brute}, residue-sum {via}"
        )


def _phi(limit: int, guard: int) -> list[Check]:
    return [_run("three-route agreement", f"n <= {limit}, k <= 4", _three_routes(limit, guard), guard)]


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


def _convolution_identity(k: int, limit: int):
    report = convolution_check(k, limit)
    if not report.ok:
        n, expected, got = report.first_mismatch
        yield f"n={n}: expected {expected}, convolution {got}"
    yield from repeat(None, limit)


def _convolution(limit: int, guard: int) -> list[Check]:
    return [
        _run(f"convolution identity k={k}", f"n <= {limit}", _convolution_identity(k, limit))
        for k in (2, 4)
    ]


# Entries of one block's gcd table in the unit gcd-sum check. Larger blocks
# save few numpy calls and raise peak RSS.
_GCD_TABLE_ENTRIES = 1 << 16


def _gcd_blocks(limit: int):
    """Blocks [lo, hi] tiling 1..limit, each with the most rows r whose table of
    r (lo + r) entries stays within _GCD_TABLE_ENTRIES (one row at the least)."""
    lo = 1
    while lo <= limit:
        rows = max(1, (isqrt(lo * lo + 4 * _GCD_TABLE_ENTRIES) - lo) // 2)
        hi = min(limit, lo + rows - 1)
        yield lo, hi
        lo = hi + 1


def _unit_gcd_sums(limit: int):
    for lo, hi in _gcd_blocks(limit):
        for n, lhs in enumerate(_gcd_sum_block(lo, hi), lo):
            f = factorize(n)
            rhs = euler_phi(f) * divisor_count(f)
            yield f"n={n}: {lhs} != {rhs}" if lhs != rhs else None


def _menon_classic(limit: int, guard: int) -> list[Check]:
    return [_run("unit gcd-sum identity", f"n <= {limit}", _unit_gcd_sums(limit))]


# Each suite with the largest limit it accepts where its work grows with
# the limit: phi counts every n^k census under the guard, menon-classic
# fills one numpy gcd table per block of moduli (O(limit^2) entries in
# all, about 11 ms at limit 2000 and 0.33 s at its cap), and convolution holds three
# arrays of limit + 1 entries per k (g_k, the phi_k residual and n^k, in
# Python ints at k = 4), each table over its own sieve (2-4.3 s of CPU and
# 220 MB peak RSS at its cap).
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
