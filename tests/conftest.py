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


@pytest.fixture
def price(monkeypatch):
    """price(module, call): the first (what, seconds, bytes) ``call`` passes to
    ``module._check_budget``. The call stops there, before any of the work
    it prices."""

    class Priced(Exception):
        pass

    def record(*cost):
        raise Priced(cost)

    def measure(module, call):
        with monkeypatch.context() as patch:
            patch.setattr(module, "_check_budget", record)
            with pytest.raises(Priced) as info:
                call()
        return info.value.args[0]

    return measure


@pytest.fixture
def admitted(price):
    """admitted(module, call): whether the budget admits the price of ``call``."""
    from sqtotient.core_arith import BudgetExceededError, _check_budget

    def check(module, call) -> bool:
        try:
            _check_budget(*price(module, call))
        except BudgetExceededError:
            return False
        return True

    return check
