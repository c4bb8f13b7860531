"""Exact integer arithmetic substrate: factorization, sieves, totients.

Everything here works with unbounded Python integers; nothing ever wraps
silently. Bulk tables are filled over an SPF (smallest prime factor)
sieve; single values get trial division up to a fixed bound followed by
Miller-Rabin plus Brent-style rho splitting for anything larger. Every
computation priced by its arguments passes its predicted CPU seconds and
peak bytes to ``_check_budget``, which refuses it before any work.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from math import ceil, gcd, isqrt, log2, prod

__all__ = [
    "BudgetExceededError",
    "Factorization",
    "build_spf",
    "factorize",
    "as_factorization",
    "is_prime",
    "euler_phi",
    "jordan_totient",
    "divisor_count",
    "primes_upto",
]

# Trial division stops at this bound: a cofactor below its square is then
# prime, and anything larger goes to Miller-Rabin + rho splitting.
_TRIAL_BOUND = 1000
_TRIAL_SQUARE = _TRIAL_BOUND * _TRIAL_BOUND

# The first 13 primes. As Miller-Rabin bases they are deterministic below
# A014233(13) = 3,317,044,064,679,887,385,961,981 (Sorenson and Webster,
# Math. Comp. 86, 2017). The first 12 are deterministic only below
# A014233(12) = 318,665,857,834,031,151,167,461, a strong pseudoprime to them.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)

# Miller-Rabin bases by size of n: those of the first tier whose bound
# exceeds n are deterministic for it. Above the last bound its bases make
# a probable-prime test.
_MR_TIERS = (
    (3_215_031_751, (2, 3, 5, 7)),  # A014233(4)
    # Sinclair's bases; every n in this tier exceeds every base
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES),  # A014233(13)
)

# The budget of every computation whose cost grows with its arguments: CPU
# seconds predicted for a 2-vCPU VM (Python 3.11.7), and peak bytes. Each
# entry point prices itself next to its code and calls _check_budget first.
_CPU_LIMIT = 4.0
_BYTE_LIMIT = 500 * 10**6


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its resource budget.

    ``required`` is the budget the computation needs, in the unit of
    ``budget``, the limit it is over.
    """

    def __init__(self, required: int, budget: int, what: str):
        self.required = required
        self.budget = budget
        super().__init__(f"{what} needs a budget of {required}, over the limit of {budget}")


def _check_budget(what: str, seconds: float, nbytes: float) -> None:
    """Refuse ``what`` if its predicted CPU seconds or peak bytes are over the limits."""
    if seconds <= _CPU_LIMIT and nbytes <= _BYTE_LIMIT:
        return
    predicted = f"{what} (predicted {seconds:.3g} s of CPU and {nbytes / 1e6:.3g} MB)"
    if seconds > _CPU_LIMIT:
        raise BudgetExceededError(ceil(seconds * 1000), round(_CPU_LIMIT * 1000), f"CPU milliseconds of {predicted}")
    raise BudgetExceededError(ceil(nbytes / 1e6), _BYTE_LIMIT // 10**6, f"megabytes of {predicted}")


def _mean_bits(k: int, x: int) -> float:
    """About the mean bit length of n^k over n <= x: k (log2(x) - 1 / ln 2)."""
    return k * max(1.0, log2(x) - 1.44)


@dataclass(frozen=True)
class Factorization:
    """Canonical prime-power decomposition of a positive integer.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes; it is empty exactly when n = 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"factorization requires n >= 1, got {self.n}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if e < 1:
                raise ValueError(f"exponent must be >= 1, got {p}^{e}")
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors reconstruct {prod}, expected {self.n}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def build_spf(limit: int) -> np.ndarray:
    """Smallest prime factors of 0..limit, as an int64 array.

    Entry i >= 2 is the least prime dividing i, so spf[p] == p exactly for
    primes; entries 0 and 1 are 0. Memory is 8 bytes per entry, and the
    budget is checked before anything is allocated.

    Every entry starts as itself, and each prime p <= sqrt(limit), from the
    largest down, overwrites its multiples from p^2 on with one strided
    store, so the smallest prime writes last. A composite i has
    spf(i)^2 <= i, so it is reached; a prime is never overwritten.
    """
    if limit < 2:
        raise ValueError(f"build_spf requires limit >= 2, got {limit}")
    _check_budget(f"build_spf({limit})", 3.6e-8 * limit, 8 * limit)
    import numpy as np

    spf = np.arange(limit + 1, dtype=np.int64)
    spf[1] = 0
    for p in reversed(primes_upto(isqrt(limit))):
        spf[p * p :: p] = p
    return spf


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with bases chosen by the size of n.

    Deterministic below A014233(13) = 3,317,044,064,679,887,385,961,981,
    which covers every 64-bit input: the first 4 primes as bases below
    3,215,031,751, Sinclair's 7 bases below 2^64, and the first 13 primes
    above. Past that bound the 13 primes give a probable-prime answer.
    """
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    m = n - 1
    r = (m & -m).bit_length() - 1
    d = m >> r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == m:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == m:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant).

    Deterministic: sweeps the polynomial offset c = 1, 2, 3, ... until a
    factor appears, so repeated runs always split the same way.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable for composite n


def _certified(n: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
    """A Factorization whose primes were just certified here, built unchecked."""
    f = object.__new__(Factorization)
    object.__setattr__(f, "n", n)
    object.__setattr__(f, "factors", factors)
    return f


def _split(n: int, out: dict[int, int]):
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _split(d, out)
    _split(n // d, out)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 into its canonical prime-power decomposition.

    Trial division by 2, then by the odd primes below 1000 until d^2
    exceeds the cofactor: at most 167 odd trial divisors. A cofactor above
    10^6 first takes one gcd with the product of those primes, and trial
    division stops at the first prime above it, so a cofactor with no
    factor below 1000 costs no division. Then Miller-Rabin on a cofactor
    above 10^6 and Brent rho splitting if it is composite. Output is
    deterministic for a given n.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return _certified(1, ())
    counts: dict[int, int] = {}
    m = n
    while m % 2 == 0:
        m //= 2
        counts[2] = counts.get(2, 0) + 1
    trial = _TRIAL_PRIMES
    if m > _TRIAL_SQUARE:
        # the trial primes dividing m are those dividing this gcd, so none
        # is above it
        trial = trial[: bisect_right(trial, gcd(m, _TRIAL_PRODUCT))]
    for d in trial:
        if d * d > m:
            break
        while m % d == 0:
            m //= d
            counts[d] = counts.get(d, 0) + 1
    if m > 1:
        if m <= _TRIAL_SQUARE or is_prime(m):
            # no divisor up to the trial bound, so below its square m is prime
            counts[m] = counts.get(m, 0) + 1
        else:
            _split(m, counts)
    return _certified(n, tuple(sorted(counts.items())))


def as_factorization(x: int | Factorization) -> Factorization:
    """Coerce an int (or pass through a Factorization) for the totient ops."""
    if isinstance(x, Factorization):
        return x
    return factorize(x)


def euler_phi(f: int | Factorization) -> int:
    """Euler's totient: the number of units in Z/nZ."""
    f = as_factorization(f)
    result = 1
    for p, e in f.factors:
        result *= p ** (e - 1) * (p - 1)
    return result


def jordan_totient(k: int, f: int | Factorization) -> int:
    """Jordan totient of order k: n^k * prod_{p|n} (1 - p^-k), exactly."""
    if k < 1:
        raise ValueError(f"jordan_totient requires k >= 1, got {k}")
    f = as_factorization(f)
    result = 1
    for p, e in f.factors:
        result *= p ** (k * (e - 1)) * (p**k - 1)
    return result


def divisor_count(f: int | Factorization) -> int:
    """Number of divisors: prod (e + 1) over the prime-power decomposition."""
    f = as_factorization(f)
    result = 1
    for _, e in f.factors:
        result *= e + 1
    return result


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, ascending, within the budget."""
    # a byte per entry, strides of up to limit / 2 bytes, and about
    # 36 limit / ln(limit) bytes of list and ints
    _check_budget(f"primes_upto({limit})", 4.3e-8 * limit, 4 * limit)
    if limit < 2:
        return []
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), prime))


# The 167 odd primes below the trial bound, the only trial divisors after 2.
_TRIAL_PRIMES = tuple(primes_upto(_TRIAL_BOUND)[1:])
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)
