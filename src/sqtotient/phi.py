"""Totients of sums of squares.

phi_k(n) counts the k-tuples over Z/nZ whose square sum is a unit mod n;
phi_1 is Euler's totient. The function is multiplicative with prime-power
values

    phi_k(2^r)  = 2^(kr - 1)
    phi_k(p^r)  = p^(kr - 1) (p - 1)                       for odd k
    phi_k(p^r)  = p^(kr - k/2 - 1) (p - 1) (p^(k/2) - s)   for even k,

where s = (-1)^(k(p-1)/4) for odd p. All products are assembled from
integer prime-power blocks; no floating point ever enters. Two oracles
(the residue census, and summing residue-class counts over units) plus a
Jordan-totient route for 4 | k cross-check the closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .core_arith import Factorization, as_factorization, euler_phi, jordan_totient
from .rho import _check_output_bits, _local_count, sum_of_squares_census

__all__ = [
    "phi_k_brute",
    "phi_k_via_rho",
    "phi_k_prime_power",
    "phi_k",
    "phi_k_via_jordan",
    "phi_ratio_check",
]


def phi_k_brute(k: int, n: int) -> int:
    """Count of tuples whose square sum is a unit mod n, from the census."""
    census = sum_of_squares_census(k, n)
    return sum(c for r, c in enumerate(census) if gcd(r, n) == 1)


def phi_k_via_rho(k: int, n: int) -> int:
    """Sum of residue-class counts over the units of Z/nZ.

    n is factored once; each unit's count is the product of its CRT-local
    prime-power counts, as in ``rho``.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    factors = as_factorization(n).factors
    _check_output_bits(k, factors, "phi_k_via_rho")
    # lam = 0 is the unit class when n = 1, where the empty product is 1
    return sum(
        prod(_local_count(k, lam, p, e) for p, e in factors)
        for lam in range(n)
        if gcd(lam, n) == 1
    )


def phi_k_prime_power(k: int, p: int, r: int) -> int:
    """Exact prime-power value of phi_k: phi_k(p) p^(k(r - 1))."""
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if r < 1:
        raise ValueError(f"exponent must be >= 1, got {r}")
    return _phi_k_at_primes(k, p) * p ** (k * (r - 1))


def _phi_k_at_primes(k: int, p):
    """phi_k(p) for one prime as a Python int, or for an array of primes in its dtype (int64 or object)."""
    if k % 2:
        return p ** (k - 1) * (p - 1)
    half = k // 2
    # s = (-1)^(k(p-1)/4) at odd p and 0 at p = 2, where phi_k(2) = 2^(k-1)
    sign = (p % 2) * (1 - 2 * (half % 2) * (p % 4 == 3))
    return p ** (half - 1) * (p - 1) * (p**half - sign)


def phi_k(k: int, f: int | Factorization) -> int:
    """Number of k-tuples over Z/nZ whose square sum is invertible."""
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    f = as_factorization(f)
    _check_output_bits(k, f.factors, "phi_k")
    result = 1
    for p, e in f.factors:
        result *= phi_k_prime_power(k, p, e)
    return result


def phi_k_via_jordan(k: int, f: int | Factorization) -> int:
    """phi_k through the Jordan totient, valid when 4 divides k.

    n^(k/2 - 1) * J_(k/2)(n) * phi(n) * 2^(k/2) / (2^(k/2) - 1 + n mod 2);
    the division must be exact and is asserted, never rounded.
    """
    if k % 4:
        raise ValueError(f"the Jordan route needs 4 | k, got k = {k}")
    f = as_factorization(f)
    n = f.n
    half = k // 2
    numerator = n ** (half - 1) * jordan_totient(half, f) * euler_phi(f) * 2**half
    denominator = 2**half - 1 + n % 2
    if numerator % denominator:
        raise ArithmeticError(
            f"Jordan-route quotient is not integral for k={k}, n={n}"
        )
    return numerator // denominator


def phi_ratio_check(k: int, f: int | Factorization) -> tuple[Fraction, Fraction]:
    """Both sides of the quarter-order ratio identity, as exact rationals.

    For k = 4 mod 8: phi_k(n) / phi_(k/4)(n) against
    n^(k/4) * J_(k/2)(n) * 2^(k/2) / (2^(k/2) - 1 + n mod 2). The two
    returned values are computed independently; callers assert equality.
    """
    if k % 8 != 4:
        raise ValueError(f"the ratio identity needs k = 4 mod 8, got k = {k}")
    f = as_factorization(f)
    n = f.n
    half = k // 2
    lhs = Fraction(phi_k(k, f), phi_k(k // 4, f))
    rhs = Fraction(
        n ** (k // 4) * jordan_totient(half, f) * 2**half,
        2**half - 1 + n % 2,
    )
    return lhs, rhs
