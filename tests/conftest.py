"""Shared fixtures and independent reference implementations.

The reference census here is deliberately naive pure Python: itertools
visits every tuple. The library's census is a product-rule count
(cyclic-convolution powering of the square census), so both it and the
formula paths are checked against literal enumeration that shares no code
with them.
"""

from itertools import product
from math import gcd

import pytest


def naive_census(k: int, n: int) -> list[int]:
    counts = [0] * n
    for tup in product(range(n), repeat=k):
        counts[sum(x * x for x in tup) % n] += 1
    return counts


def naive_phi_k(k: int, n: int) -> int:
    return sum(
        1
        for tup in product(range(n), repeat=k)
        if gcd(sum(x * x for x in tup), n) == 1
    )


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
