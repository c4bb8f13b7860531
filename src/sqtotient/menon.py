"""Gcd-sum identities over tuples with invertible square sums.

The classical identity sums gcd(j - 1, n) over the units j of Z/nZ and
equals phi(n) d(n). Its square-sum analogue sums gcd(x_1^2+...+x_k^2 - 1, n)
over tuples whose square sum is a unit; dividing by phi_k(n) yields a
cofactor psi_k. Both the sum and phi_k split over the prime powers of n
(Chinese remainder theorem), so psi_k is multiplicative. Its integrality
is open (the data show integers at k = 2 and 4, fractions at k = 3, 5, 6),
so the scans emit it as an exact rational (k = 1 reduces to the classical
j^2 - 1 cofactor).

The tuple sum is never enumerated directly on the main path: grouping
tuples by their square sum lambda turns the n^k-term sum into
sum over units lambda of rho(k, lambda, n) * gcd(lambda - 1, n), and both
factors of each term split over the prime powers p^e of n, so the sum is
the product over p^e of the same sum taken modulo p^e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .core_arith import (
    BudgetExceededError,
    Factorization,
    _check_sieve_limit,
    as_factorization,
    divisor_count,
    euler_phi,
    factorize,
)
from .phi import phi_k
from .rho import DEFAULT_GUARD, _check_output_bits, _local_count, sum_of_squares_census

__all__ = [
    "MenonRow",
    "PsiScanRow",
    "menon_classic",
    "menon_lhs",
    "menon_lhs_brute",
    "psi_table",
    "psi_multiplicativity_scan",
]

# Largest n_max of psi_table and bound of psi_multiplicativity_scan. Both
# cost one _menon_lhs per modulus, a sum over every unit of each prime-power
# block, so their work grows about quadratically with the bound.
_MAX_SCAN_BOUND = 1 << 12


@dataclass(frozen=True)
class MenonRow:
    """One gcd-sum measurement: the sum, phi_k, and their exact ratio."""

    k: int
    n: int
    lhs: int
    phi_k: int
    psi: Fraction
    integral: bool


@dataclass(frozen=True)
class PsiScanRow:
    """psi_k(m) psi_k(n) against psi_k(mn) for one coprime pair."""

    m: int
    n: int
    separate: Fraction
    combined: Fraction
    equal: bool


def menon_classic(n: int) -> tuple[int, int]:
    """Both sides of the classical unit gcd-sum identity.

    Returns (sum over units j of gcd(j - 1, n), phi(n) d(n)); the two are
    equal for every n. The sum reads a table g[j] = gcd(j, n), 0 <= j <= n,
    made by writing each divisor d of n, ascending, at the multiples of d.
    The divisors come by trial, not factorize, to keep the sides independent.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    _check_sieve_limit(n, "menon_classic")
    g = np.ones(n + 1, dtype=np.int64)
    for d in np.flatnonzero(n % np.arange(1, n + 1) == 0) + 1:
        g[::d] = d
    lhs = int(g[:n][g[1:] == 1].sum())  # units j have g[j] == 1; gcd(j - 1, n) = g[j - 1]
    f = as_factorization(n)
    return lhs, euler_phi(f) * divisor_count(f)


def menon_lhs(k: int, n: int) -> int:
    """Gcd-sum over tuples with invertible square sum, via residue classes.

    Factors n once and costs one rho evaluation per unit of each prime-power
    block p^e instead of n^k tuples, so no enumeration guard is involved.
    """
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    return _menon_lhs(k, factorize(n))


def _menon_lhs(k: int, f: Factorization) -> int:
    _check_output_bits(k, f.factors, "menon_lhs")
    result = 1
    for p, e in f.factors:
        q = p**e
        result *= sum(
            _local_count(k, lam, p, e) * gcd(lam - 1, q) for lam in range(1, q) if lam % p
        )
    return result


def menon_lhs_brute(k: int, n: int, guard: int = DEFAULT_GUARD) -> int:
    """Same gcd-sum from the residue census; cross-check only."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n == 1:
        return 1
    census = sum_of_squares_census(k, n, guard)
    return sum(
        int(census[lam]) * gcd(lam - 1, n)
        for lam in range(n)
        if gcd(lam, n) == 1
    )


def _psi(k: int, n: int) -> Fraction:
    f = factorize(n)
    return Fraction(_menon_lhs(k, f), phi_k(k, f))


def psi_table(k: int, n_max: int) -> list[MenonRow]:
    """Candidate cofactors psi_k(n) = lhs / phi_k(n) for n = 1..n_max.

    psi is kept as an exact rational in lowest terms so a non-integral
    value, should one appear, is reported losslessly.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > _MAX_SCAN_BOUND:
        raise BudgetExceededError(n_max, _MAX_SCAN_BOUND, "psi_table's n_max")
    rows = []
    for n in range(1, n_max + 1):
        f = factorize(n)
        lhs = _menon_lhs(k, f)
        value = phi_k(k, f)
        psi = Fraction(lhs, value)
        rows.append(
            MenonRow(
                k=k,
                n=n,
                lhs=lhs,
                phi_k=value,
                psi=psi,
                integral=psi.denominator == 1,
            )
        )
    return rows


def psi_multiplicativity_scan(k: int, bound: int) -> list[PsiScanRow]:
    """Compare psi_k(m) psi_k(n) with psi_k(mn) over coprime pairs.

    Emits every pair 1 <= m <= n with gcd(m, n) = 1 and mn <= bound, in
    lexicographic order. psi_k is multiplicative for every k (both the
    gcd-sum and phi_k split over prime powers), so any mismatch is an
    internal error.
    """
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > _MAX_SCAN_BOUND:
        raise BudgetExceededError(bound, _MAX_SCAN_BOUND, "psi_multiplicativity_scan's bound")
    cache: dict[int, Fraction] = {}

    def psi(value: int) -> Fraction:
        out = cache.get(value)
        if out is None:
            out = _psi(k, value)
            cache[value] = out
        return out

    rows = []
    for m in range(1, bound + 1):
        for n in range(m, bound // m + 1):
            if gcd(m, n) != 1:
                continue
            separate = psi(m) * psi(n)
            combined = psi(m * n)
            equal = separate == combined
            if not equal:
                raise ArithmeticError(f"psi_{k} failed multiplicativity at ({m}, {n})")
            rows.append(
                PsiScanRow(m=m, n=n, separate=separate, combined=combined, equal=equal)
            )
    return rows
