"""Bulk evaluation, asymptotic constants, and average-order reports.

The partial sums S(x) = sum_{n <= x} phi_k(n) grow like C_k x^(k+1)/(k+1)
with

    C_k = 6/pi^2                                            (k odd)
    C_k = 3/4 * prod_{p>2} (1 - 1/p^2 - s_p (p-1)/p^(k/2+2)) (k even),

s_p = (-1)^(k(p-1)/4). The tables are exact integers, built from the
values at primes and the constant ratio f(p^(e+1))/f(p^e) by one SPF
sieve and a division-free fill, a few numpy steps per prime power p^e
with p <= sqrt(limit) (int64 while limit^k < 2^63, Python ints above).
Partial sums, average-order reports and the convolution check read these
arrays directly; only phi_k_table and g_k_table convert them to Python
ints. The constants are high-precision reals within a certified bound of
the true value.

A plainly truncated product converges like 1/(P log P). Instead each
constant is evaluated by Cohen's method (H. Cohen, "High precision
computation of Hardy-Littlewood constants", 1998). The factors
(1 - 1/p^2) and (1 - s_p/p^m), m = k/2 + 1, are pulled out in closed form
(zeta and Dirichlet-beta values), leaving residual factors h_p, ratios of
polynomials in 1/p whose coefficients are affine in s_p. The primes
p <= 64 are multiplied explicitly; for p > 64 the series of log h_p in
powers of 1/p is summed exactly through prime zeta values, which are
Mobius sums of log zeta and log L(., chi_4) with their small Euler factors
removed. The bound covers the truncated series, the truncated Mobius sums
and rounding, and it is met at a working precision of tol's digits plus
ten: about a millisecond at tol 1e-9, a tenth of a second at 1e-118.

Also here: the multiplicative coefficients g_k with phi_k = id_k * g_k
(Dirichlet convolution), an exact convolution checker, and the minimal
order scan along primorials, whose ratio tends to exp(-gamma) for odd k.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .core_arith import BudgetExceededError, _check_budget, build_spf, factorize, primes_upto
from .phi import _phi_k_at_primes, phi_k_prime_power
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

# Working precision in decimal digits: at least _WORK_DPS, and tol's own
# digits plus ten for the constants. Past _MAX_WORK_DPS (tol below about
# 10^-118) a constant is refused.
_WORK_DPS = 30
_MAX_WORK_DPS = 128

# Primes multiplied explicitly in an Euler product; the rest is the
# prime-zeta tail series. _log10_neglected needs at least twice a family's
# root bound, which is at most 3.
_DEFAULT_PRIME_BOUND = 64


@dataclass(frozen=True)
class EulerConstant:
    """A computed asymptotic constant with a certified error bound.

    ``value`` lies within ``tail_bound`` of the constant itself. The bound
    covers the truncated prime-zeta tail series and rounding. The primes up
    to ``prime_bound`` are multiplied explicitly (0 when the constant has a
    closed form).
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


# Entries per numpy step of the table fill, the exact sums and the
# convolution check. Each temporary stays within 64 KiB, under glibc's
# 128 KiB mmap threshold, so the steps reuse one patch of heap; freeing
# larger mapped blocks raises the threshold and leaves later ones resident
# (whole-range steps added about 2 MB to peak RSS at limit 10^6).
_BLOCK = 1 << 13


def _table_cost(limit: int, k: int, listed: bool) -> tuple[float, float]:
    """Predicted CPU seconds and peak bytes of a table of about n^k, n <= limit, with its sieve.

    An int64 entry takes 5.5e-8 s and 16 bytes (9e-8 s, 48 bytes ``listed``); one of B = k log2(limit)
    bits 9e-8 + 2.5e-10 B + 1.2e-13 B^2 s and 48 + B / 7.5 bytes (fitted for B = 176 to 15,000).
    """
    bits = k * limit.bit_length()
    if bits < 64:
        return limit * (9e-8 if listed else 5.5e-8), limit * (48 if listed else 16)
    return limit * (9e-8 + 2.5e-10 * bits + 1.2e-13 * bits**2), limit * (48 + bits / 7.5)


def _multiplicative_table(limit: int, k: int, at_primes, ratio, listed: bool = False) -> np.ndarray:
    """values[n] = f(n) for n <= limit, f multiplicative and given at primes.

    ``at_primes`` maps an array of primes, in the table's dtype, to f(p);
    ``ratio`` maps one prime (an int) to r(p), f(p^(e+1)) = r(p) f(p^e).
    A composite n is p^e m in exactly one way with p = spf(n) and
    spf(m) > p, where m = 1 or m > p. So after the primes, the primes
    p <= sqrt(limit) are taken from the largest down, and each power q = p^e
    sets values[q] = f(q) and values[q m] = f(q) values[m] for those
    m in (p, limit/q], whose entries are final by then; nothing is
    divided. |f(n)| <= n^k keeps the table in int64 while limit^k < 2^63
    and in Python ints above. Slot 0 is 0. A table (``listed`` if it is
    to become a list) predicted over the budget is refused up front.
    """
    _check_budget(f"a table of {limit} values at k = {k}", *_table_cost(limit, k, listed))
    import numpy as np

    dtype = np.int64 if limit**k < 2**63 else object
    values = np.zeros(limit + 1, dtype=dtype)
    values[1] = 1
    if limit < 2:
        return values
    spf = build_spf(limit)
    for lo in range(2, limit + 1, _BLOCK):
        hi = min(lo + _BLOCK, limit + 1)
        primes = lo + (spf[lo:hi] == np.arange(lo, hi)).nonzero()[0]
        values[primes] = at_primes(primes.astype(dtype, copy=False))
    for p in reversed(primes_upto(math.isqrt(limit))):
        q, fq, r = p, int(values[p]), ratio(p)
        while q <= limit and fq:  # f(q) = 0 leaves its entries at 0
            values[q] = fq
            top = limit // q
            for lo in range(p + 1, top + 1, _BLOCK):
                m = lo + (spf[lo : min(lo + _BLOCK, top + 1)] > p).nonzero()[0]
                values[q * m] = fq * values[m]
            q, fq = q * p, fq * r
    return values


def _phi_k_values(k: int, x: int, listed: bool = False) -> np.ndarray:
    # the phi_k table as an array, validated as phi_k_table validates it
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if x < 1:
        raise ValueError(f"range end must be >= 1, got {x}")
    _check_output_bits(k, ((x, 1),), "phi_k_table")
    return _multiplicative_table(x, k, lambda p: _phi_k_at_primes(k, p), lambda p: p**k, listed)


def phi_k_table(k: int, x: int) -> list[int]:
    """Exact phi_k(n) for all n <= x, indexed by n (slot 0 is a placeholder).

    Built from the values at primes and the ratio p^k between consecutive
    prime powers by the multiplicative sieve fill (one SPF sieve, numpy
    steps per prime power) instead of per-value trial division.
    """
    return _phi_k_values(k, x, listed=True).tolist()


def _exact_sum(values: np.ndarray, start: int, stop: int) -> int:
    """sum(values[start:stop]) as an int.

    Summed by numpy one _BLOCK at a time. int64 entries are split into
    their high and low 32 bits: a block's half sums stay below 2^45, so
    none overflows. An object block sums its Python ints, with no list.
    """
    high = low = 0
    for i in range(start, stop, _BLOCK):
        block = values[i : min(i + _BLOCK, stop)]
        if block.dtype == object:
            low += block.sum()
        else:
            high += int((block >> 32).sum())
            low += int((block & 0xFFFFFFFF).sum())
    return (high << 32) + low


def partial_sum(k: int, x: int) -> int:
    """Exact sum of phi_k(n) for n <= x."""
    return _exact_sum(_phi_k_values(k, x), 1, x + 1)


@dataclass(frozen=True)
class _Family:
    """An Euler product C = scale * prod_{p > 2} num(1/p), in Cohen's form.

    With x = 1/p and s = chi_4(p), ``num`` is 1 plus the terms (e, a, b),
    each (a + b*s) x^e, and ``den`` lists factors (e, t) of
    den = prod (1 - s^t x^e). The den part of the product has a closed form
    (zeta and Dirichlet-beta values); what is left is the residual
    h_p = num/den = 1 + O(x^decay). ``decay`` is stated by each family and
    checked against the log series.
    """

    scale: Fraction
    num: tuple[tuple[int, int, int], ...]
    den: tuple[tuple[int, int], ...]
    decay: int

    @property
    def root_bound(self) -> int:
        # every inverse root of num has modulus <= 1 + max |a + b*s| (Cauchy);
        # those of den lie on the unit circle
        return 1 + max(abs(a + b * s) for _, a, b in self.num for s in (1, -1))

    @property
    def degree(self) -> int:
        # the number of inverse roots of num and den together
        return max(e for e, _, _ in self.num) + sum(e for e, _ in self.den)


def _euler_family(k: int) -> _Family:
    # 1 - x^2 - s(x^m - x^(m+1)) over (1 - x^2)(1 - s x^m), m = k/2 + 1,
    # with s = chi_4(p) when k = 2 mod 4 (t = 1) and s = 1 when 4 | k (t = 0)
    m = k // 2 + 1
    t = (k // 2) % 2
    num = {2: (-1, 0)}
    for e, sign in ((m, -1), (m + 1, 1)):  # at k = 2, m = 2 shares x^2
        a, b = num.get(e, (0, 0))
        num[e] = (a + sign * (1 - t), b + sign * t)
    return _Family(
        scale=Fraction(3, 4),
        num=tuple((e, a, b) for e, (a, b) in sorted(num.items())),
        den=((2, 0), (m, t)),
        decay=m + 1,
    )


@lru_cache(maxsize=256)
def _log_coefficients(family: _Family, order: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact (alpha_j, beta_j) for j <= order with log h_p = sum (alpha_j + beta_j s) x^j.

    Each sign of s gets its own series: log num by the recurrence
    j g_j = j f_j - sum_e (j - e) g_(j-e) f_e (from f g' = f'), plus
    -log(1 - y x^e) = sum_r y^r x^(er) / r for every den factor.
    """
    series = []
    for s in (1, -1):
        f = {e: a + b * s for e, a, b in family.num if a + b * s and e <= order}
        g = [Fraction(0)] * (order + 1)
        for j in range(1, order + 1):
            g[j] = f.get(j, 0) - Fraction(sum((j - e) * g[j - e] * c for e, c in f.items() if e < j), j)
        for e, t in family.den:
            y = s**t
            for r in range(1, order // e + 1):
                g[e * r] += Fraction(y**r, r)
        series.append(g)
    plus, minus = series
    if any(plus[: family.decay]) or any(minus[: family.decay]):
        raise ArithmeticError("residual factor is not 1 + O(x^decay)")
    return tuple(((a + b) / 2, (a - b) / 2) for a, b in zip(plus, minus))


def _mobius(m: int) -> int:
    result = 1
    for _, e in factorize(m).factors:
        if e > 1:
            return 0
        result = -result
    return result


@lru_cache(maxsize=256)
def _tail_weights(family: _Family, order: int) -> tuple[tuple[tuple[int, Fraction, Fraction], ...], int]:
    """The tail sum regrouped by exponent, and a ceiling on its total weight.

    sum_{p > P} p^-j = sum_m mu(m)/m log zeta_{>P}(mj), and the chi_4-twisted
    sum takes log L_{>P}(mj, chi^m), where chi^m is principal for even m
    (then L_{>P} = zeta_{>P}, as 2 <= P). Keeping the pairs with mj <= order
    and collecting them by sigma = mj gives
    sum_sigma wz log zeta_{>P}(sigma) + wx log L_{>P}(sigma, chi_4),
    so every zeta and L value is evaluated once.
    """
    coefficients = _log_coefficients(family, order) if order >= family.decay else ()
    wz: defaultdict[int, Fraction] = defaultdict(Fraction)
    wx: defaultdict[int, Fraction] = defaultdict(Fraction)
    for j in range(family.decay, order + 1):
        alpha, beta = coefficients[j]
        for m in range(1, order // j + 1):
            c = Fraction(_mobius(m), m)
            if m % 2:
                wz[m * j] += c * alpha
                wx[m * j] += c * beta
            else:  # chi^m is principal: the twisted sum reads zeta too
                wz[m * j] += c * (alpha + beta)
    rows = tuple((s, wz[s], wx[s]) for s in sorted(set(wz) | set(wx)))
    total = sum(abs(w) for _, a, b in rows for w in (a, b))
    return rows, math.ceil(total)


def _log10_neglected(family: _Family, p_bound: int, order: int) -> float:
    """log10 of the certified bound on the neglected part of the tail sum.

    |alpha_j| + |beta_j| <= deg B^j / j, with B the root bound, and
    sum_{p > P} p^-j <= P^(1-j)/(j-1), so the j-series beyond ``order`` J
    is at most 2 deg B (B/P)^J / (J(J+1)) when B/P <= 1/2. The Mobius sums
    cut at mj <= J leave |log zeta_{>P}(sigma)| terms with sigma > J, at
    most 1.1 P^-J / J per j, or 2.2 deg (B/P)^J / J over all j <= J.
    """
    deg, root = family.degree, family.root_bound
    return (
        math.log10(deg)
        + order * math.log10(root / p_bound)
        - math.log10(order)
        + math.log10(2.2 + 2 * root / (order + 1))
    )


@lru_cache(maxsize=16)
def _cvz_weights(bits: int) -> tuple[int, tuple[int, ...]]:
    """Integer weights w_k and divisor d with d >= 2^bits for alternating sums.

    Cohen, Rodriguez Villegas and Zagier: for a_k = int_0^1 x^k dmu with
    mu >= 0, sum_k (-1)^k a_k = sum_{k<n} w_k a_k / d within a_0 / d, where
    d = T_n(3) = ((3 + sqrt 8)^n + (3 - sqrt 8)^n)/2 is an integer.
    """
    n, d, previous = 1, 3, 1
    while d < 1 << bits:
        n, d, previous = n + 1, 6 * d - previous, d
    b, c = -1, -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(c)
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return d, tuple(weights)


def _beta_fixed(sigma: int, bits: int) -> int:
    """L(sigma, chi_4) * 2^bits within 3 units, sigma >= 1.

    The alternating series sum_k (-1)^k (2k+1)^-sigma with CVZ weights;
    (2k+1)^-sigma is the k-th moment of a positive measure on [0, 1].
    """
    if sigma > bits:  # 3^-sigma is below one unit
        return 1 << bits
    d, weights = _cvz_weights(bits)
    return sum((w << bits) // (2 * k + 1) ** sigma for k, w in enumerate(weights)) // d


def _working_dps(tol: float) -> int:
    """Digits for a result within tol: its own digits plus ten, at least _WORK_DPS."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    dps = max(_WORK_DPS, math.ceil(-math.log10(min(tol, 1.0))) + 10)
    if dps > _MAX_WORK_DPS:
        raise BudgetExceededError(dps, _MAX_WORK_DPS, "Euler-product working precision in digits")
    return dps


def _assemble(k: int, family: _Family, tol: float) -> EulerConstant:
    """Cohen's evaluation: an explicit product over p <= P and a prime-zeta tail.

    log C = log scale + log prod_{p>2} den(1/p) + sum_{2<p<=P} log h_p
            + sum_j (alpha_j sum_{p>P} p^-j + beta_j sum_{p>P} chi_4(p) p^-j),
    with the den product in closed form and the prime sums as Mobius sums of
    log zeta_{>P} and log L_{>P} (see _tail_weights). The order J is the
    first at which the neglected part of the series is below tol/2.
    Fixed-point integers with guard bits carry the explicit product, the
    partial Euler factors of zeta and L, and L(s, chi_4) itself, so the
    reported bound adds only an allowance of ten units in the last working
    digit for rounding.
    """
    import mpmath as mp

    dps = _working_dps(tol)
    p_bound = _DEFAULT_PRIME_BOUND
    order = family.decay - 1
    while _log10_neglected(family, p_bound, order) > math.log10(tol / 2):
        order += 1
    rows, weight = _tail_weights(family, order)
    primes = primes_upto(p_bound)
    with mp.workdps(dps):
        # guard bits: a few units of rounding per prime, in the explicit
        # product and in each partial Euler factor, the latter amplified by
        # the tail weights
        terms = len(family.num) + len(family.den) + 2
        guard = ((len(primes) + 4) * (4 * terms + weight)).bit_length() + 4
        bits = mp.mp.prec + guard
        one = 1 << bits
        explicit = one
        for p in primes[1:]:
            s = 1 if p % 4 == 1 else -1
            # x^e with e > bits is below one unit, and p^e too large to build
            num = one + sum((a + b * s) * (one // p**e) for e, a, b in family.num if e <= bits)
            den = one
            for e, t in family.den:
                if e <= bits:
                    den -= s**t * (den // p**e)
            explicit = explicit * num // den
        with mp.workprec(bits):
            log_c = mp.log(mp.ldexp(explicit, -bits))
            prefactor = mp.mpf(family.scale.numerator) / family.scale.denominator
            for e, t in family.den:
                # prod_{p>2} (1 - s^t p^-e) is 1/L(e, chi_4), or 1/((1 - 2^-e) zeta(e))
                closed = mp.ldexp(_beta_fixed(e, bits), -bits) if t else mp.zeta(e) * -mp.expm1(-e * mp.ln2)
                prefactor /= closed
            for sigma, wz, wx in rows:
                if wz:
                    z = int(mp.ldexp(mp.zeta(sigma), bits))
                    for p in primes:
                        z -= z // p**sigma
                    log_c += mp.mpf(wz.numerator) / wz.denominator * mp.log(mp.ldexp(z, -bits))
                if wx:
                    z = _beta_fixed(sigma, bits)
                    for p in primes[1:]:
                        z -= (1 if p % 4 == 1 else -1) * (z // p**sigma)
                    log_c += mp.mpf(wx.numerator) / wx.denominator * mp.log(mp.ldexp(z, -bits))
            value = prefactor * mp.exp(log_c)
        neglected = mp.mpf(10) ** _log10_neglected(family, p_bound, order)
        tail = value * (mp.expm1(neglected) + mp.mpf(10) ** (1 - dps))
        return EulerConstant(k=k, value=+value, prime_bound=p_bound, tail_bound=+tail)


def euler_constant(k: int, tol: float = 1e-9) -> EulerConstant:
    """The average-order constant C_k, within ``tail_bound`` <= ``tol`` of it.

    Odd k needs no product: the constant is 6/pi^2 exactly. Even k is
    Cohen's evaluation of the Euler product (see _assemble), with the primes
    up to 64 multiplied explicitly and ``tol`` setting the rest.
    """
    import mpmath as mp

    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if k % 2 == 1:
        with mp.workdps(_working_dps(tol)):
            return EulerConstant(k=k, value=6 / mp.pi**2, prime_bound=0, tail_bound=mp.mpf(0))
    return _assemble(k, _euler_family(k), tol)


def corollary_constant(k: int, tol: float = 1e-9) -> EulerConstant:
    """Leading coefficient of x^(k+1) in the k = 2 and k = 4 partial sums.

    The paper's corollaries state it as C_k/(k+1): the same Euler product as
    euler_constant(k), with its scale divided by k + 1 and its own certified
    tail bound. It is not an independent route to C_k.
    """
    if k not in (2, 4):
        raise ValueError(f"corollary form exists for k in (2, 4), got {k}")
    family = _euler_family(k)
    return _assemble(k, replace(family, scale=family.scale / (k + 1)), tol)


def _g_k_values(k: int, limit: int, listed: bool = False) -> np.ndarray:
    # the g_k table as an array, validated as g_k_table validates it
    if k < 1 or k % 2:
        raise ValueError(f"the convolution decomposition is used for even k, got {k}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    _check_output_bits(k, ((limit, 1),), "g_k_table")
    return _multiplicative_table(limit, k, lambda p: _phi_k_at_primes(k, p) - p**k, lambda p: 0, listed)


def g_k_table(k: int, limit: int) -> GkCoefficient:
    """Multiplicative convolution coefficients g_k(n) for n <= limit.

    Prime values are phi_k(p) - p^k, as phi_k = id_k * g_k; anything
    non-squarefree is 0.
    """
    return GkCoefficient(k=k, limit=limit, values=tuple(_g_k_values(k, limit, listed=True).tolist()))


def convolution_check(k: int, limit: int) -> ConvolutionReport:
    """Verify sum_{d|n} g_k(d) (n/d)^k = phi_k(n) exactly for all n <= limit.

    The convolution is subtracted from the phi_k table in place by the
    hyperbola method: with s = isqrt(limit), each d <= s takes g_k(d) e^k
    off n = d e for all e <= limit/d, and each e <= limit/(s+1) does so for
    all d in (s, limit/e], in strided numpy steps. The identity holds where
    the residual is 0. Partial results are at most n^(k+1) in size, so the
    arrays are int64 while limit^(k+1) < 2^63 and Python ints above, where
    the three arrays and the steps over them are priced up front. The phi_k
    value reported at a mismatch comes from a table rebuilt up to it.
    """
    import numpy as np

    dtype = np.int64 if limit ** (k + 1) < 2**63 else object
    if dtype is object:
        # entries of B = (k + 1) log2(limit) bits take 48 + B / 7.5 bytes each, and
        # the steps (1.2e-7 + 1e-10 B) s per entry and unit of ln(limit) (fitted
        # for k = 2 to 40, limit = 2^14 to 2.5 10^6)
        bits = (k + 1) * math.log2(limit)
        seconds = limit * math.log(limit) * (1.2e-7 + 1e-10 * bits)
        _check_budget(f"convolution_check({k}, {limit})", seconds, 3 * limit * (48 + bits / 7.5))
    g = _g_k_values(k, limit).astype(dtype, copy=False)
    residual = _phi_k_values(k, limit).astype(dtype, copy=False)
    powers = np.arange(limit + 1, dtype=dtype) ** k
    s = math.isqrt(limit)
    for d in range(1, s + 1):
        if g[d]:
            _add_strided(residual, d, -g[d], powers, 1, limit // d + 1)
    for e in range(1, limit // (s + 1) + 1):
        _add_strided(residual, e, -powers[e], g, s + 1, limit // e + 1)
    wrong = residual.nonzero()[0]
    if wrong.size:
        n = int(wrong[0])
        expected = int(_phi_k_values(k, n)[n])
        mismatch = (n, expected, expected - int(residual[n]))
        return ConvolutionReport(k=k, limit=limit, ok=False, first_mismatch=mismatch)
    return ConvolutionReport(k=k, limit=limit, ok=True, first_mismatch=None)


def _add_strided(acc: np.ndarray, step: int, scale, source: np.ndarray, lo: int, hi: int) -> None:
    # acc[step j] += scale source[j] for lo <= j < hi, _BLOCK entries at a time
    for i in range(lo, hi, _BLOCK):
        j = min(i + _BLOCK, hi)
        acc[step * i : step * j : step] += scale * source[i:j]


def averaging_report(k: int, xs: list[int], tol: float = 1e-9) -> list[AveragingRow]:
    """Measure exact partial sums against the main term C_k x^(k+1)/(k+1).

    One row per range end: the exact sum, the main term, the relative
    error, and the error divided by x^k R_k(x). The report only measures;
    nothing here asserts a bound.
    """
    import mpmath as mp

    if not xs:
        raise ValueError("need at least one range end")
    if any(x < 3 for x in xs):
        raise ValueError("range ends must be >= 3 so log log x is positive")
    if list(xs) != sorted(xs):
        raise ValueError("range ends must be ascending")
    if k >= 1 and (k + 1) * math.log2(xs[-1]) - math.log2(k + 1) >= 1024:
        raise ValueError(f"the main term at x = {xs[-1]}, k = {k} is past the float range: x^(k+1) / (k+1) >= 2^1024")
    values = _phi_k_values(k, xs[-1])
    constant = euler_constant(k, tol)
    rows = []
    with mp.workdps(_WORK_DPS):
        running = upto = 0
        for x in xs:
            running += _exact_sum(values, upto + 1, x + 1)
            upto = x
            main = constant.value * mp.mpf(x) ** (k + 1) / (k + 1)
            # the error scale x^k R_k(x), rounded as a float would be but in an
            # mpf, since x^k leaves the float range at k log2(x) = 1024
            log_x = math.log(x)
            with mp.workprec(53):
                scale = mp.mpf(x) ** k * (log_x ** (2 / 3) * math.log(log_x) ** (4 / 3) if k % 2 else log_x)
            error = running - main
            rows.append(AveragingRow(x, running, float(main), float(error / main), float(error / scale)))
    return rows


def _primorial_bits(count: int) -> float:
    """About the bits of the product of the first ``count`` primes: p_count / ln 2."""
    m = max(count, 3)
    return m * (math.log(m) + math.log(math.log(m)) - 1) / math.log(2)


def _primorial_scan_cost(count: int) -> tuple[float, float]:
    # 2.5e-5 s a row and 2.2e-10 s a bit built; the rows hold all the primorials
    bits = count * _primorial_bits(count) / 2
    return 2.5e-5 * count + 2.2e-10 * bits, bits / 8 + 100 * count


def minimal_order_scan(k: int, prime_count: int) -> list[tuple[int, float]]:
    """Ratios phi_k(n) log log n / n^k along primorials n = 2*3*5*...

    For odd k the ratio climbs toward exp(-gamma); for even k it is emitted
    as data, with no limit stated. Starts at the third primorial, 30, below
    which log log n is not usefully positive.
    """
    import mpmath as mp

    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if prime_count < 3:
        raise ValueError("need at least the first three primes")
    _check_budget(f"minimal_order_scan({k}, {prime_count})", *_primorial_scan_cost(prime_count))
    bound = 15 * prime_count  # p_m < m (log m + log log m) with slack
    primes = primes_upto(max(bound, 30))[:prime_count]
    # the output cap of phi_k(n) itself, about k log2 n bits
    _check_output_bits(k, [(p, 1) for p in primes], "minimal_order_scan")
    rows: list[tuple[int, float]] = []
    primorial = 1
    with mp.workdps(_WORK_DPS):
        scaled = mp.mpf(1)  # phi_k(n) / n^k
        log_n = mp.mpf(0)
        for count, p in enumerate(primes, start=1):
            primorial *= p
            scaled *= mp.mpf(phi_k_prime_power(k, p, 1)) / p**k
            log_n += mp.log(p)
            if count >= 3:
                rows.append((primorial, float(scaled * mp.log(log_n))))
    return rows
