"""Gcd-sum identities over tuples with invertible square sums.

The classical identity sums gcd(j - 1, n) over the units j of Z/nZ and
equals phi(n) d(n). Its square-sum analogue sums gcd(x_1^2+...+x_k^2 - 1, n)
over tuples whose square sum is a unit; dividing by phi_k(n) yields a
cofactor psi_k. Both the sum and phi_k split over the prime powers of n
(Chinese remainder theorem), so psi_k is multiplicative; menon_lhs_brute,
which sums over the residue census, is the check of that split.

At an odd prime power psi_k has a closed form. A unit count
rho(k, lam, p^e) depends only on the Legendre symbol of lam, and over the
units gcd(lam - 1, p^e) sums to (e + 1) phi(p^e) (Menon) and, weighted by
that symbol, to e phi(p^e). So psi_k(p^e) = e + 1 for even k, and
1 + e (1 + eps p^(-(k-1)/2)) for odd k with eps = (-1)^((p-1)(k-1)/4):
an integer at every odd p^e for even k and for k = 1, and for odd k >= 3
only when p^((k-1)/2) divides e. At p = 2, when 4 | k every unit count
mod 8 is 8^(k-1), so psi_k(2^e) = e + 1 and psi_k(n) = d(n) for every n;
psi_2(2^e) = 2e; and psi_6(4) = 11/4 is not an integer. The table emits
psi_k as an exact rational (k = 1 reduces to the classical j^2 - 1
cofactor).

The tuple sum is never enumerated on the main path: grouping tuples by
their square sum lambda turns the n^k-term sum into the sum over units
lambda of rho(k, lambda, n) * gcd(lambda - 1, n), which is the product over
the prime powers p^e of n of the same sum taken modulo p^e. Each such block
is a closed form in the two unit counts mod p (odd p) or the four mod 8
(p = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core_arith import Factorization, _check_budget, _mean_bits, as_factorization, divisor_count, euler_phi, factorize
from .phi import phi_k
from .rho import _check_output_bits, _local_count, _prime_count, rho_base_vector, sum_of_squares_census

__all__ = [
    "MenonRow",
    "menon_classic",
    "menon_lhs",
    "menon_lhs_brute",
    "psi_table",
]

@dataclass(frozen=True)
class MenonRow:
    """One gcd-sum measurement: the sum, phi_k, and their exact ratio."""

    k: int
    n: int
    lhs: int
    phi_k: int
    psi: Fraction
    integral: bool


def menon_classic(n: int) -> tuple[int, int]:
    """Both sides of the classical unit gcd-sum identity.

    Returns (sum over units j of gcd(j - 1, n), phi(n) d(n)); the two are
    equal for every n. The sum is the one-row gcd table of
    ``_gcd_sum_block(n, n)``, whose divisors come by trial, not factorize,
    to keep the sides independent.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    # at the most three int32 arrays of n entries and a bool one live at once
    _check_budget(f"menon_classic({n})", 1.5e-8 * n, 15 * n)
    (lhs,) = _gcd_sum_block(n, n)
    f = as_factorization(n)
    return lhs, euler_phi(f) * divisor_count(f)


def _gcd_sum_block(lo: int, hi: int) -> list[int]:
    """Sum over units j of gcd(j - 1, n) for each n in [lo, hi], from one gcd table.

    Entry (n, j) of the table, 0 <= j <= hi, is gcd(j, n): it starts at 1,
    and each d with a multiple in [lo, hi] (hi mod d <= hi - lo, which for
    one row is d | n) is written, ascending, where d divides both n and j.
    The units of row n are its columns 1 <= j <= n holding 1. Entries are
    int16 while hi < 2^15 and int32 above (callers keep hi under 2^31).
    """
    import numpy as np

    dtype = np.int16 if hi < 1 << 15 else np.int32
    columns = np.arange(1, hi + 1, dtype=dtype)
    g = np.ones((hi - lo + 1, hi + 1), dtype=dtype)
    for d in (np.flatnonzero(hi % columns <= hi - lo) + 1).tolist():
        g[-lo % d :: d, ::d] = d
    units = g[:, 1:] == 1
    units &= columns <= np.arange(lo, hi + 1, dtype=dtype)[:, None]
    return (g[:, :-1] * units).sum(axis=1, dtype=np.int64).tolist()


def menon_lhs(k: int, n: int) -> int:
    """Gcd-sum over tuples with invertible square sum, via residue classes.

    Factors n once and takes one closed-form block per prime power p^e
    instead of n^k tuples, so the census is never built.
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
        result *= _menon_block(k, p, e)
    return result


def _menon_block(k: int, p: int, e: int) -> int:
    """Sum over units lam mod p^e of rho(k, lam, p^e) gcd(lam - 1, p^e).

    From p (odd p) or 8 (p = 2) on, a unit count gains p^(k-1) per extra
    power of p, so it depends on lam mod p or mod 8 only.
    """
    if p == 2:
        if e < 3:
            return sum(_local_count(k, lam, 2, e) * gcd(lam - 1, 1 << e) for lam in range(1, 1 << e, 2))
        # lam = r + 8 mu over mu mod 2^j: r = 1 gives gcd 8 gcd(mu, 2^j),
        # which sums to 8 P(2^j) = 8 (j + 2) 2^(j-1) (Pillai's gcd-sum),
        # and r = 3, 5, 7 give gcd 2, 4, 2 for each of the 2^j values of mu
        j = e - 3
        at8 = rho_base_vector(k, 8)
        block = 8 * ((j + 2) << j >> 1) * at8[1] + ((2 * at8[3] + 4 * at8[5] + 2 * at8[7]) << j)
        return block << j * (k - 1)
    # over the units, gcd(lam - 1, p^e) sums to (e + 1) phi(p^e) (Menon), and
    # weighted by the Legendre symbol of lam to e phi(p^e); so the block is
    # p^((e-1)(k-1)) phi(p^e) / 2 ((2e + 1) rho_+ + rho_-) with rho_+ and
    # rho_- the counts mod p at a quadratic residue and a non-residue
    nonresidue = next(a for a in range(2, p) if pow(a, p // 2, p) != 1)
    residue_count, nonresidue_count = _prime_count(k, 1, p), _prime_count(k, nonresidue, p)
    phi_half = (p - 1) // 2 * p ** (e - 1)
    return p ** ((e - 1) * (k - 1)) * phi_half * ((2 * e + 1) * residue_count + nonresidue_count)


def menon_lhs_brute(k: int, n: int) -> int:
    """Same gcd-sum from the residue census; cross-check only."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n == 1:
        return 1
    census = sum_of_squares_census(k, n)
    return sum(
        census[lam] * gcd(lam - 1, n)
        for lam in range(n)
        if gcd(lam, n) == 1
    )


def _psi_bits(k: int, bound: int) -> float:
    """About the bits of psi_k(n) for n <= bound, numerator and denominator together.

    For 4 | k, psi_k(n) = d(n) (every unit count mod 4 and mod 8 is then
    4^(k-1) or 8^(k-1)), which has no more bits than bound. For other even
    k the block at 2 has about k bits and the odd blocks are e + 1. For odd
    k the block at p^e has denominator p^((k-1)/2), so psi_k(n) has about
    as many bits as a gcd-sum.
    """
    if k % 4 == 0:
        return bound.bit_length()
    if k % 2 == 0:
        return k
    return _mean_bits(k, bound)


def _scan_cost(k: int, bound: int) -> tuple[float, float]:
    """Predicted CPU seconds and bytes of psi_k at every n <= bound.

    A modulus takes 1.5e-5 + 3.5e-10 B^1.4 s for B the mean bits of its gcd-sum
    (fitted for k = 2 to 65536) and holds about B / 3 + 250 bytes.
    """
    bits = _mean_bits(k, bound)
    return bound * (1.5e-5 + 3.5e-10 * bits**1.4), bound * (bits / 3 + 250)


def psi_table(k: int, n_max: int) -> list[MenonRow]:
    """Candidate cofactors psi_k(n) = lhs / phi_k(n) for n = 1..n_max.

    psi is kept as an exact rational in lowest terms so a non-integral
    value, should one appear, is reported losslessly.
    """
    if k < 1 or n_max < 1:
        raise ValueError(f"psi_table needs k >= 1 and n_max >= 1, got k = {k}, n_max = {n_max}")
    _check_budget(f"psi_table({k}, {n_max})", *_scan_cost(k, n_max))
    rows = []
    for n in range(1, n_max + 1):
        f = factorize(n)
        lhs = _menon_lhs(k, f)
        value = phi_k(k, f)
        psi = Fraction(lhs, value)
        rows.append(MenonRow(k=k, n=n, lhs=lhs, phi_k=value, psi=psi, integral=psi.denominator == 1))
    return rows
