"""Reference computations made apart from the program.

Nothing here imports ``sqtotient``. Residue counts come from the census of
squares mod n raised to the k-th power under cyclic convolution (by
repeated squaring), point values from the paper's prime-power formulas
applied to a factorisation the caller supplies (``sympy.factorint`` in the
benchmark), and the tiniest cases from literal enumeration of all tuples.
"""

from __future__ import annotations

import itertools
import math
from math import gcd

import numpy as np

_INT64_SAFE = 1 << 62


def square_census(n: int) -> list[int]:
    """counts[r] = #{x mod n : x^2 = r mod n}."""
    counts = [0] * n
    for x in range(n):
        counts[x * x % n] += 1
    return counts


def cyclic_convolve(a: list[int], b: list[int], n: int, bound: int) -> list[int]:
    """Cyclic convolution mod n; int64 when every entry stays below ``bound``."""
    if bound < _INT64_SAFE:
        full = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        folded = full[:n].copy()
        folded[: full.size - n] += full[n:]
        return [int(v) for v in folded]
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % n] += x * y
    return out


def census(k: int, n: int) -> list[int]:
    """counts[lam] = number of k-tuples mod n with square sum lam (exact)."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    base = square_census(n)
    result = None
    result_k = 0
    power = base
    power_k = 1
    e = k
    while True:
        if e & 1:
            if result is None:
                result, result_k = power, power_k
            else:
                result_k += power_k
                result = cyclic_convolve(result, power, n, n**result_k)
        e >>= 1
        if not e:
            return result
        power_k *= 2
        power = cyclic_convolve(power, power, n, n**power_k)


def enumerate_census(k: int, n: int) -> list[int]:
    """The same counts by visiting every tuple; for tiny n^k only."""
    counts = [0] * n
    for tup in itertools.product(range(n), repeat=k):
        counts[sum(x * x for x in tup) % n] += 1
    return counts


def phi_k_from_census(counts: list[int], n: int) -> int:
    """Tuples whose square sum is a unit mod n."""
    if n == 1:
        return counts[0]
    return sum(c for lam, c in enumerate(counts) if gcd(lam, n) == 1)


def _even_sign(k: int, p: int) -> int:
    # (-1)^(k(p-1)/4) for even k and odd p
    return -1 if (k // 2) * ((p - 1) // 2) % 2 else 1


def phi_k_prime_power(k: int, p: int, r: int) -> int:
    """The paper's prime-power values of phi_k."""
    if p == 2:
        return 2 ** (k * r - 1)
    if k % 2:
        return p ** (k * r - 1) * (p - 1)
    half = k // 2
    return p ** (k * r - half - 1) * (p - 1) * (p**half - _even_sign(k, p))


def phi_k(k: int, factors: dict[int, int]) -> int:
    """phi_k(n) from the prime factorisation {p: e} of n."""
    value = 1
    for p, e in factors.items():
        value *= phi_k_prime_power(k, p, e)
    return value


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a | p) for an odd prime p, by Euler's criterion."""
    t = pow(a % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def rho_odd_prime(k: int, lam: int, p: int) -> int:
    """Solutions of x_1^2 + ... + x_k^2 = lam mod p, lam a unit, p odd.

    k odd:  p^(k-1) + p^((k-1)/2) ((-1)^((k-1)/2) lam | p)
    k even: p^(k-1) - p^((k-2)/2) ((-1)^(k/2) | p)
    """
    if k % 2:
        return p ** (k - 1) + p ** ((k - 1) // 2) * legendre((-1) ** ((k - 1) // 2) * lam, p)
    return p ** (k - 1) - p ** ((k - 2) // 2) * legendre((-1) ** (k // 2), p)


def rho_local(k: int, lam: int, p: int, e: int) -> int:
    """rho(k, lam, p^e) for lam a unit mod p.

    Odd p lifts the prime count by p^((e-1)(k-1)); p = 2 reads the census
    mod 2^min(e, 3) and lifts by 2^((e-3)(k-1)) above modulus 8.
    """
    if p == 2:
        base = min(e, 3)
        value = census(k, 2**base)[lam % 2**base]
        return value * 2 ** (max(e - 3, 0) * (k - 1))
    return p ** ((e - 1) * (k - 1)) * rho_odd_prime(k, lam, p)


def rho_unit(k: int, lam: int, factors: dict[int, int]) -> int:
    """rho(k, lam, n) for lam a unit mod n, as the product of local counts."""
    value = 1
    for p, e in factors.items():
        value *= rho_local(k, lam, p, e)
    return value


def rho_by_census(k: int, lam: int, factors: dict[int, int]) -> int:
    """rho(k, lam, n) as a product of local census counts mod each p^e.

    Used for the deep-k operations: each local census is the squares'
    histogram raised to the k-th power by repeated squaring, so it needs
    no recursion and no formula.
    """
    value = 1
    for p, e in factors.items():
        q = p**e
        if p == 2 and e > 3:
            local = census(k, 8)[lam % 8] * 2 ** ((e - 3) * (k - 1))
        else:
            local = census(k, q)[lam % q]
        value *= local
    return value


def menon_lhs(k: int, n: int) -> int:
    """sum over units lam of census[lam] * gcd(lam - 1, n)."""
    if n == 1:
        return 1
    counts = census(k, n)
    return sum(c * gcd(lam - 1, n) for lam, c in enumerate(counts) if gcd(lam, n) == 1)


def totients(limit: int) -> np.ndarray:
    """Euler phi(n) for n <= limit by a multiplicative sieve (int64)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def odd_k_partial_sums(k: int, xs: list[int]) -> list[int]:
    """sum_{n <= x} n^(k-1) phi(n) for each x, exactly."""
    phi = totients(max(xs))
    out = []
    running = 0
    upto = 0
    for x in xs:
        running += sum(n ** (k - 1) * int(phi[n]) for n in range(upto + 1, x + 1))
        upto = x
        out.append(running)
    return out


def plain_euler_product(k: int, primes: list[int]) -> float:
    """C_k = 3/4 prod_{2 < p <= P} (1 - 1/p^2 - s_p (p-1)/p^(k/2+2)), in floats."""
    log_acc = 0.0
    for p in primes:
        if p == 2:
            continue
        s = _even_sign(k, p)
        log_acc += math.log1p(-1.0 / p**2 - s * (p - 1) / p ** (k // 2 + 2))
    return 0.75 * math.exp(log_acc)


def g_k_dirichlet_check(k: int, n: int, g: list[int], divisors: list[int], phi_value: int) -> bool:
    """sum_{d | n} g(d) (n/d)^k == phi_k(n)."""
    return sum(g[d] * (n // d) ** k for d in divisors) == phi_value
