"""Bulk evaluation, asymptotic constants, and average-order reports.

The partial sums S(x) = sum_{n <= x} phi_k(n) grow like C_k x^(k+1)/(k+1)
with

    C_k = 6/pi^2                                            (k odd)
    C_k = 3/4 * prod_{p>2} (1 - 1/p^2 - s_p (p-1)/p^(k/2+2)) (k even),

s_p = (-1)^(k(p-1)/4). The tables are exact integers, built from the
prime-power values by one SPF sieve and a multiplicative walk that fills
whole chunks of n at once in numpy (int64 while limit^k < 2^63, Python
ints above); the constants are high-precision reals carrying a certified
truncation bound.

A plainly truncated product converges like 1/(P log P), which would need
P ~ 10^9 for nine digits. Instead the product is rearranged: the factors
(1 - 1/p^2) and (1 - s_p/p^m), m = k/2 + 1, are pulled out and replaced by
their closed forms (zeta and Dirichlet-beta values), leaving a residual
product whose log-factors are bounded by 1.4/p^(m+1). The certified tail
is then the crude integral bound 1.4 * P^(-m)/m, small already at P in the
tens of thousands.

Also here: the multiplicative coefficients g_k with phi_k = id_k * g_k
(Dirichlet convolution), an exact convolution checker, and the minimal
order scan along primorials, whose ratio tends to exp(-gamma) for odd k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .core_arith import BudgetExceededError, SpfTable, _check_sieve_limit, build_spf, primes_upto
from .phi import even_k_sign, phi_k_prime_power
from .rho import _check_output_bits

__all__ = [
    "EulerConstant",
    "AveragingRow",
    "GkCoefficient",
    "ConvolutionReport",
    "phi_k_table",
    "partial_sum",
    "euler_constant",
    "corollary_constant",
    "g_k_table",
    "convolution_check",
    "averaging_report",
    "minimal_order_scan",
]

# |log h_p| <= _C_LOG / p^d for every residual factor family used below;
# see _residual_tail for the derivation.
_C_LOG = 1.4

_WORK_DPS = 30

# Largest sieve an Euler product may ask primes_upto for: about 17 MB of
# flags and a million primes, 128 times the 2^17 that tol 3e-10 needs.
_MAX_PRIME_BOUND = 1 << 24

_MAX_PRIMORIAL_PRIMES = 10_000


@dataclass(frozen=True)
class EulerConstant:
    """A computed asymptotic constant with a certified truncation bound.

    ``value`` is guaranteed to lie within ``tail_bound`` of the value the
    same computation yields at any larger prime bound.
    """

    k: int
    value: mp.mpf
    prime_bound: int
    tail_bound: mp.mpf


@dataclass(frozen=True)
class AveragingRow:
    """One measured line of an average-order report; asserts nothing."""

    x: int
    partial_sum: int
    main_term: float
    rel_error: float
    error_ratio: float


@dataclass(frozen=True)
class GkCoefficient:
    """Table of the convolution coefficients g_k(n), indexed by n.

    g_k(1) = 1 and g_k vanishes off squarefree numbers; values are signed
    exact integers.
    """

    k: int
    limit: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class ConvolutionReport:
    """Outcome of checking sum_{d|n} g_k(d) (n/d)^k = phi_k(n) up to a limit."""

    k: int
    limit: int
    ok: bool
    first_mismatch: tuple[int, int, int] | None  # (n, expected phi_k, convolution)


# Entries per vectorised chunk of the sieve walk. Each chunk temporary
# (8 bytes per entry, 64 KiB here) stays below glibc's 128 KiB mmap
# threshold, so the chunks reuse one patch of heap; larger ones are mapped,
# and freeing a mapped block raises the threshold, which leaves later freed
# blocks resident and adds to peak RSS.
_CHUNK = 1 << 13


def _multiplicative_table(limit: int, k: int, table: SpfTable | None, local) -> list[int]:
    """values[n] = f(n) for n <= limit, f multiplicative with f(p^e) = local(p, e).

    With p = spf[n] and p^e the exact power of p dividing n, f(n) =
    f(p^e) * f(n / p^e), and both factors are at most n/2 unless n is a
    prime power. So n is walked in chunks of _CHUNK entries, each filled
    by numpy: ``local`` is called once per prime power, and every other
    entry comes from one gather per dyadic block [2^j, 2^(j+1)) that the
    chunk meets, since the blocks below it are already filled.
    |f(n)| <= n^k is required, which keeps the table in int64 while
    limit^k < 2^63 and in exact Python ints above. Slot 0 is a placeholder.
    A limit above the sieve cap is refused before anything is allocated.
    """
    _check_sieve_limit(limit, "multiplicative table")
    dtype = np.int64 if limit**k < 2**63 else object
    values = np.zeros(limit + 1, dtype=dtype)
    values[1] = 1
    if limit >= 2:
        spf = (table if table is not None and table.limit >= limit else build_spf(limit)).spf
        for lo in range(0, limit + 1, _CHUNK):
            _fill_chunk(values, spf, max(lo, 2), min(lo + _CHUNK, limit + 1), local)
        del spf  # frees a sieve built here before the list is allocated
    return values.tolist()


def _fill_chunk(values: np.ndarray, spf: np.ndarray, lo: int, hi: int, local) -> None:
    # values[lo:hi]; every entry below lo is already filled
    p = spf[lo:hi]
    m = np.arange(lo, hi, dtype=np.int64) // p
    q = p.copy()  # p^e, the exact power of p dividing n
    e = np.ones(hi - lo, dtype=np.int64)
    more = np.flatnonzero(m % p == 0)
    while more.size:
        m[more] //= p[more]
        q[more] *= p[more]
        e[more] += 1
        more = more[m[more] % p[more] == 0]
    prime_power = m == 1
    values[lo + np.flatnonzero(prime_power)] = [
        local(pp, ee) for pp, ee in zip(p[prime_power].tolist(), e[prime_power].tolist())
    ]
    rest = np.flatnonzero(~prime_power)
    # an aligned chunk lies in one dyadic block; only the first meets several
    cuts = [lo] + [1 << j for j in range(lo.bit_length(), (hi - 1).bit_length())] + [hi]
    ends = np.searchsorted(rest, np.array(cuts) - lo)
    for i, j in zip(ends, ends[1:]):
        block = rest[i:j]
        values[lo + block] = values[q[block]] * values[m[block]]


def phi_k_table(k: int, x: int, table: SpfTable | None = None) -> list[int]:
    """Exact phi_k(n) for all n <= x, indexed by n (slot 0 is a placeholder).

    Built from the prime-power values by the multiplicative sieve walk
    (one SPF sieve, vectorised chunks of n) instead of per-value trial
    division.
    """
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if x < 1:
        raise ValueError(f"range end must be >= 1, got {x}")
    _check_output_bits(k, ((x, 1),), "phi_k_table")
    return _multiplicative_table(x, k, table, lambda p, e: phi_k_prime_power(k, p, e))


def partial_sum(k: int, x: int, table: SpfTable | None = None) -> int:
    """Exact sum of phi_k(n) for n <= x."""
    return sum(phi_k_table(k, x, table=table))


def _dirichlet_beta(s) -> mp.mpf:
    # L(s, chi_4) through the Hurwitz zeta function
    return mp.mpf(4) ** (-s) * (mp.zeta(s, mp.mpf(1) / 4) - mp.zeta(s, mp.mpf(3) / 4))


def _odd_prime_zeta_product(s: int) -> mp.mpf:
    # prod_{p odd} (1 - p^-s) in closed form
    return 1 / (mp.zeta(s) * (1 - mp.mpf(2) ** (-s)))


def _residual_tail(p_bound: int, decay: int) -> mp.mpf:
    """Certified bound on sum_{p > P} |log h_p| when |log h_p| <= C/p^decay.

    Every residual family below satisfies |h_p - 1| <= 1.27/p^decay (the
    numerator is below 1 and the pulled-out denominators are >= (8/9)^2),
    hence |log h_p| <= 1.33/p^decay; 1.4 adds margin. Primes are then
    replaced by all integers and the sum by the integral, so the bound is
    crude but unconditional.
    """
    return mp.mpf(_C_LOG) * p_bound ** (1 - decay) / (decay - 1)


def _product_factor(k: int, p) -> mp.mpf:
    sign = even_k_sign(k, int(p))
    return 1 - 1 / p**2 - sign * (p - 1) / p ** (k // 2 + 2)


def _pulled_out_base(k: int, p) -> mp.mpf:
    m = k // 2 + 1
    sign = even_k_sign(k, int(p))
    return (1 - 1 / p**2) * (1 - mp.mpf(sign) / p**m)


def _assemble(prefactor, residual_at, decay: int, tol: float, prime_bound: int | None):
    """Truncated residual product with a certified two-sided tail bound.

    Without ``prime_bound`` the bound doubles from 64 until the tail is
    below ``tol``; with it, the product stops there whatever the tail. A
    bound above _MAX_PRIME_BOUND is refused before its sieve is built.
    """
    if prime_bound is None:
        tol, p_bound = mp.mpf(tol), 64
    else:
        tol, p_bound = mp.inf, prime_bound
    while _residual_tail(p_bound, decay) * 4 > tol:
        p_bound *= 2
    while True:
        if p_bound > _MAX_PRIME_BOUND:
            raise BudgetExceededError(p_bound, _MAX_PRIME_BOUND, "Euler-product prime bound")
        log_acc = mp.mpf(0)
        for p in primes_upto(p_bound):
            if p == 2:
                continue
            log_acc += mp.log(residual_at(mp.mpf(p)))
        value = prefactor * mp.exp(log_acc)
        tail = 2 * value * mp.expm1(_residual_tail(p_bound, decay))
        if tail <= tol:
            return value, p_bound, tail
        p_bound *= 2


def euler_constant(k: int, tol: float = 1e-9, prime_bound: int | None = None) -> EulerConstant:
    """The average-order constant C_k with a certified truncation bound.

    Odd k needs no product: the constant is 6/pi^2 exactly. Even k runs the
    rearranged truncated product until the certified tail drops below
    ``tol``; pass ``prime_bound`` to pin the truncation point instead (the
    reported tail stays certified either way).
    """
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    with mp.workdps(_WORK_DPS):
        if k % 2 == 1:
            return EulerConstant(k=k, value=6 / mp.pi**2, prime_bound=0, tail_bound=mp.mpf(0))
        m = k // 2 + 1
        prefactor = mp.mpf(3) / 4 * _odd_prime_zeta_product(2)
        if (k // 2) % 2:  # k = 2 mod 4: the pulled-out factor carries chi_4
            prefactor /= _dirichlet_beta(m)
        else:
            prefactor *= _odd_prime_zeta_product(m)

        def residual(p):
            return _product_factor(k, p) / _pulled_out_base(k, p)

        value, p_used, tail = _assemble(prefactor, residual, m + 1, tol, prime_bound)
        return EulerConstant(k=k, value=value, prime_bound=p_used, tail_bound=tail)


def corollary_constant(k: int, tol: float = 1e-9, prime_bound: int | None = None) -> EulerConstant:
    """Leading coefficient of x^(k+1) in the k = 2 and k = 4 partial sums.

    Computed from the residue-class product forms (split over p mod 4 for
    k = 2), so it is an independent evaluation route; it must agree with
    euler_constant(k)/(k+1) within the two tail bounds.
    """
    if k not in (2, 4):
        raise ValueError(f"corollary form exists for k in (2, 4), got {k}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    with mp.workdps(_WORK_DPS):
        if k == 2:
            prefactor = mp.mpf(1) / 4 * _odd_prime_zeta_product(2) / _dirichlet_beta(2)

            def residual(p):
                if int(p) % 4 == 1:
                    return (1 - 2 / p**2 + 1 / p**3) / (1 - 1 / p**2) ** 2
                return (1 - 1 / p**3) / (1 - 1 / p**4)

            decay = 3
        else:
            prefactor = (
                mp.mpf(3) / 20 * _odd_prime_zeta_product(2) * _odd_prime_zeta_product(3)
            )

            def residual(p):
                # the base expands to 1 - 1/p^2 - 1/p^3 + 1/p^5, so the
                # residual deviation is (1/p^4 - 1/p^5)/base
                return (1 - 1 / p**2 - 1 / p**3 + 1 / p**4) / (
                    (1 - 1 / p**2) * (1 - 1 / p**3)
                )

            decay = 4
        value, p_used, tail = _assemble(prefactor, residual, decay, tol, prime_bound)
        return EulerConstant(k=k, value=value, prime_bound=p_used, tail_bound=tail)


def g_k_table(k: int, limit: int, table: SpfTable | None = None) -> GkCoefficient:
    """Multiplicative convolution coefficients g_k(n) for n <= limit.

    Prime values are -2^(k-1) at p = 2 and
    -p^(k-1) - s_p p^(k/2-1)(p-1) at odd p; anything non-squarefree is 0.
    """
    if k < 1 or k % 2:
        raise ValueError(f"the convolution decomposition is used for even k, got {k}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    _check_output_bits(k, ((limit, 1),), "g_k_table")

    def local(p: int, e: int) -> int:
        if e > 1:
            return 0
        if p == 2:
            return -(2 ** (k - 1))
        return -(p ** (k - 1)) - even_k_sign(k, p) * p ** (k // 2 - 1) * (p - 1)

    values = _multiplicative_table(limit, k, table, local)
    return GkCoefficient(k=k, limit=limit, values=tuple(values))


def convolution_check(k: int, limit: int, table: SpfTable | None = None) -> ConvolutionReport:
    """Verify sum_{d|n} g_k(d) (n/d)^k = phi_k(n) exactly for all n <= limit."""
    if table is None and limit >= 2:
        table = build_spf(limit)
    coeffs = g_k_table(k, limit, table)
    expected = phi_k_table(k, limit, table=table)
    powers = [e**k for e in range(limit + 1)]
    acc = [0] * (limit + 1)
    for d in range(1, limit + 1):
        gd = coeffs.values[d]
        if gd == 0:
            continue
        for e in range(1, limit // d + 1):
            acc[d * e] += gd * powers[e]
    for n in range(1, limit + 1):
        if acc[n] != expected[n]:
            return ConvolutionReport(k=k, limit=limit, ok=False, first_mismatch=(n, expected[n], acc[n]))
    return ConvolutionReport(k=k, limit=limit, ok=True, first_mismatch=None)


def _error_scale(k: int, x: int) -> float:
    # the comparison scale x^k R_k(x) for the secondary error column
    if k % 2 == 1:
        r = math.log(x) ** (2 / 3) * math.log(math.log(x)) ** (4 / 3)
    else:
        r = math.log(x)
    return x**k * r


def averaging_report(
    k: int,
    xs: list[int],
    tol: float = 1e-9,
    table: SpfTable | None = None,
) -> list[AveragingRow]:
    """Measure exact partial sums against the main term C_k x^(k+1)/(k+1).

    One row per range end: the exact sum, the main term, the relative
    error, and the error divided by x^k R_k(x). The report only measures;
    nothing here asserts a bound.
    """
    if not xs:
        raise ValueError("need at least one range end")
    if any(x < 3 for x in xs):
        raise ValueError("range ends must be >= 3 so log log x is positive")
    if list(xs) != sorted(xs):
        raise ValueError("range ends must be ascending")
    constant = euler_constant(k, tol)
    top = xs[-1]
    values = phi_k_table(k, top, table=table)
    rows = []
    with mp.workdps(_WORK_DPS):
        running = 0
        upto = 0
        for x in xs:
            running += sum(values[upto + 1 : x + 1])
            upto = x
            main = constant.value * mp.mpf(x) ** (k + 1) / (k + 1)
            rel = (running - main) / main
            ratio = (running - main) / _error_scale(k, x)
            rows.append(
                AveragingRow(
                    x=x,
                    partial_sum=running,
                    main_term=float(main),
                    rel_error=float(rel),
                    error_ratio=float(ratio),
                )
            )
    return rows


def minimal_order_scan(
    k: int, prime_count: int, experimental: bool = False
) -> list[tuple[int, float]]:
    """Ratios phi_k(n) log log n / n^k along primorials n = 2*3*5*...

    For odd k the ratio climbs toward exp(-gamma). Starts at the third
    primorial, 30, below which log log n is not usefully positive. Even k
    is accepted only with ``experimental=True``: the scan then just emits
    data, since no limit is asserted for it.
    """
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if k % 2 == 0 and not experimental:
        raise ValueError(
            "the asserted limit exists for odd k; pass experimental=True to emit even-k data"
        )
    if prime_count < 3:
        raise ValueError("need at least the first three primes")
    if prime_count > _MAX_PRIMORIAL_PRIMES:
        raise BudgetExceededError(
            prime_count, _MAX_PRIMORIAL_PRIMES, "primorial scan length"
        )
    bound = 15 * prime_count  # p_m < m (log m + log log m) with slack
    primes = primes_upto(max(bound, 30))[:prime_count]
    if len(primes) < prime_count:
        primes = primes_upto(bound * 4)[:prime_count]
    # the exact ratio gains about k log2 p bits per prime
    _check_output_bits(k, [(p, 1) for p in primes], "minimal_order_scan")
    rows: list[tuple[int, float]] = []
    primorial = 1
    scaled = Fraction(1)  # phi_k(n) / n^k, exact
    with mp.workdps(_WORK_DPS):
        for count, p in enumerate(primes, start=1):
            primorial *= p
            scaled *= Fraction(phi_k_prime_power(k, p, 1), p**k)
            if count >= 3:
                loglog = mp.log(mp.log(mp.mpf(primorial)))
                rows.append((primorial, float(mp.mpf(scaled.numerator) / scaled.denominator * loglog)))
    return rows
