"""Factorization, sieve, and classical totient checks."""

import math
import operator
import random
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime, prevprime
from sympy.ntheory.primetest import mr

import sqtotient.core_arith as core_arith
from sqtotient import BudgetExceededError, build_spf, factorize
from sqtotient.core_arith import (
    Factorization,
    divisor_count,
    euler_phi,
    is_prime,
    jordan_totient,
)
from conftest import naive_is_prime


class TestSpfTable:
    def test_examples(self):
        spf = build_spf(10)
        assert spf[9] == 3
        assert spf[7] == 7
        assert build_spf(100)[91] == 7  # 91 = 7 * 13 by trial division
        assert (len(spf), spf.dtype) == (11, np.int64)

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            build_spf(1)

    def test_size_guard(self, admitted):
        # 8 bytes an entry: 62.5 million entries fill the 500 MB budget
        assert admitted(core_arith, lambda: build_spf(62_500_000))
        assert not admitted(core_arith, lambda: build_spf(62_500_001))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=r"megabytes of build_spf\(62500001\) \(predicted") as info:
                build_spf(62_500_001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.required, info.value.budget) == (501, 500)
        assert "s of CPU and 500 MB" in str(info.value)
        assert peak < 10**7

    def test_invariants(self):
        spf = build_spf(2000)
        for i in range(2, 2001):
            p = int(spf[i])
            assert i % p == 0
            assert naive_is_prime(p)
            assert p * p <= i or p == i
            assert (p == i) == naive_is_prime(i)

    def test_primes_upto(self):
        from sqtotient.core_arith import primes_upto

        assert primes_upto(0) == primes_upto(1) == []
        assert primes_upto(2) == [2]
        primes = primes_upto(2000)
        assert primes == [n for n in range(2001) if naive_is_prime(n)]
        assert all(type(p) is int for p in primes)

    def test_primes_upto_size_guard(self, admitted):
        from sqtotient.core_arith import primes_upto

        # 4.3e-8 s an entry: the CPU limit of 4 s binds first, at 372 MB
        assert admitted(core_arith, lambda: primes_upto(93_023_255))
        assert not admitted(core_arith, lambda: primes_upto(93_023_256))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=r"CPU milliseconds of primes_upto\(93023256\) \(predicted 4 s") as info:
                primes_upto(93_023_256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.required, info.value.budget) == (4001, 4000)
        assert peak < 10**7


PRIME_ABOVE_1E6 = st.integers(min_value=10**6, max_value=2**40).map(nextprime)
PRIME_ABOVE_TRIAL = st.integers(min_value=1000, max_value=2**20).map(nextprime)


class TestFactorize:
    def test_examples(self):
        assert factorize(1).factors == ()
        assert factorize(12).factors == ((2, 2), (3, 1))
        # 104729 is prime (verified by the independent trial-division test below)
        big = 104729**2 * 3
        assert factorize(big).factors == ((3, 1), (104729, 2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_reconstruction_exhaustive_to_1e5(self):
        for n in range(1, 100_001):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.factors) == n

    def test_matches_sympy_exhaustive_below_2_16(self):
        # trial division over the primes below 1000 stops once d^2 > cofactor
        for n in range(1, 1 << 16):
            assert dict(factorize(n).factors) == factorint(n), n

    def test_rho_splitting_beyond_trial_division(self):
        # both primes are far above the trial-division bound of 1000, so the
        # composite cofactor fails Miller-Rabin and Brent's rho splits it
        p, q = 1000003, 1000033
        assert naive_is_prime(p) and naive_is_prime(q)
        assert factorize(p * q).factors == ((p, 1), (q, 1))
        assert factorize(p * p * q).factors == ((p, 2), (q, 1))

    def test_matches_sympy_on_hard_shapes(self):
        # the shapes that get past trial division: large primes, semiprimes
        # with both factors above the trial bound, prime powers just above
        # it, balanced 62-bit semiprimes and Carmichael numbers
        rng = random.Random(20141)
        shapes = [nextprime(rng.randrange(2**61, 2**62)) for _ in range(8)]
        shapes += [
            nextprime(rng.randrange(10**3, 10**6)) * nextprime(rng.randrange(10**3, 2**40))
            for _ in range(16)
        ]
        for p in (1009, 1013, 1019):
            shapes += [p**2, p**3, 2 * 3 * p**2, p**3 * 1000003]
        for _ in range(2):
            shapes.append(nextprime(rng.randrange(2**30, 2**31)) * nextprime(rng.randrange(2**30, 2**31)))
        shapes += [561, 41041, 9746347772161]  # Carmichael numbers
        # a trial prime squared, and cofactors above 10^6 holding trial primes
        shapes += [997**2, 3 * 997 * 1000003, 997 * 1009]
        for n in shapes:
            assert dict(factorize(n).factors) == factorint(n), n

    def test_result_passes_full_validation(self):
        # factorize skips re-certifying its primes; a checked rebuild agrees
        for n in (1, 2, 360, 1009**3, 1000003 * 1000033, 2**61 - 1, 561 * 1013**2):
            f = factorize(n)
            assert Factorization(f.n, f.factors) == f

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            Factorization(6, ((3, 1), (2, 1)))  # out of order
        with pytest.raises(ValueError):
            Factorization(8, ((2, 2),))  # wrong product
        with pytest.raises(ValueError):
            Factorization(4, ((4, 1),))  # not prime

    @given(
        st.sampled_from(core_arith._TRIAL_PRIMES),
        st.integers(min_value=1, max_value=3),
        PRIME_ABOVE_1E6 | st.builds(operator.mul, PRIME_ABOVE_TRIAL, PRIME_ABOVE_TRIAL),
    )
    @settings(max_examples=200, deadline=None)
    def test_trial_prime_power_times_large_cofactor(self, p, e, q):
        # n is odd and above 10^6, so trial division runs only up to the gcd
        # of n and the product of the trial primes
        n = p**e * q
        assert dict(factorize(n).factors) == factorint(n), n

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_property(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        assert all(e >= 1 for _, e in f.factors)
        assert list(f.primes) == sorted(set(f.primes))


# A014233(k), k = 1..12: the least odd n that is a strong pseudoprime to
# each of the first k primes as bases (k = 7, 8 and k = 9, 10, 11 share one)
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)
FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the tier bounds of is_prime: A014233(4), 2^64 and A014233(13)
TIER_BOUNDS = (3215031751, 2**64, 3317044064679887385961981)


def thirteen_prime_test(n):
    """sympy's Miller-Rabin with the first 13 primes, exact below A014233(13)."""
    return n in FIRST_13_PRIMES or (n > 41 and mr(n, FIRST_13_PRIMES))


class TestPrimality:
    def test_against_trial_division(self):
        for n in range(20000):
            assert is_prime(n) == naive_is_prime(n), n

    def test_known_larger_primes(self):
        assert is_prime(104729)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)

    def test_strong_pseudoprimes_to_the_first_primes_are_composite(self):
        for k, n in enumerate(A014233, start=1):
            assert mr(n, FIRST_13_PRIMES[:k]) and not isprime(n), n
            assert not is_prime(n), n

    def test_carmichael_numbers_are_composite(self):
        # Chernick's (6k+1)(12k+1)(18k+1), a Carmichael number whenever all
        # three factors are prime, from 1729 up past 2^64
        found = []
        for start in (1, 100, 10**4, 10**6, 10**7):
            k = start
            while not all(isprime(f) for f in (6 * k + 1, 12 * k + 1, 18 * k + 1)):
                k += 1
            found.append((6 * k + 1) * (12 * k + 1) * (18 * k + 1))
        assert found[0] == 1729 and found[-1] > 2**64
        for n in [561, 1105, 2465, 2821, 6601, 8911, 41041, 9746347772161, *found]:
            assert not is_prime(n), n

    def test_agrees_with_the_thirteen_prime_test_on_random_odd_n(self):
        rng = random.Random(1403)
        for bits in range(20, 65):
            for _ in range(40):
                n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                assert is_prime(n) == thirteen_prime_test(n), n
            p = nextprime(rng.getrandbits(bits) | 1 << (bits - 1))
            assert is_prime(p) and thirteen_prime_test(p), p

    def test_agrees_at_each_tier_bound(self):
        # semiprimes of primes near the square root of each bound, on both
        # sides of it, and the primes next to it
        for bound in TIER_BOUNDS:
            r = math.isqrt(bound)
            below, above = prevprime(r), nextprime(r)
            shapes = [below * prevprime(below), below * above, above * nextprime(above)]
            shapes += [prevprime(bound), nextprime(bound)]
            assert min(shapes) < bound < max(shapes)
            for n in shapes:
                assert is_prime(n) == thirteen_prime_test(n) == isprime(n), n


class TestGcd:
    def test_examples(self):
        assert gcd(0, 7) == 7
        assert gcd(12, 18) == 6
        assert gcd(2**40, 3**20) == 1
        assert gcd(0, 0) == 0

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_commutes_and_divides(self, a, b):
        g = gcd(a, b)
        assert g == gcd(b, a)
        if g:
            assert a % g == 0 and b % g == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=6)
    )
    @settings(max_examples=100, deadline=None)
    def test_fold_is_order_free(self, values):
        from functools import reduce

        forward = reduce(gcd, values)
        backward = reduce(gcd, reversed(values))
        assert forward == backward


class TestTotients:
    def test_euler_phi_examples(self):
        assert euler_phi(1) == 1
        assert euler_phi(10) == 4
        assert euler_phi(2**10) == 512

    def test_euler_phi_multiplicative_sampled(self):
        import random

        rng = random.Random(20260810)
        done = 0
        while done < 1000:
            m = rng.randint(1, 10**4)
            n = rng.randint(1, 10**4)
            if gcd(m, n) != 1:
                continue
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
            done += 1

    def test_jordan_examples(self):
        assert jordan_totient(2, 1) == 1
        assert jordan_totient(2, 3) == 8
        assert jordan_totient(2, 6) == 24  # 36 * (3/4) * (8/9)

    def test_jordan_first_order_is_euler(self):
        for n in range(1, 500):
            assert jordan_totient(1, n) == euler_phi(n)

    def test_euler_divides_jordan(self):
        for n in range(1, 1001):
            phi = euler_phi(n)
            for k in range(1, 5):
                assert jordan_totient(k, n) % phi == 0

    def test_divisor_count_examples(self):
        assert divisor_count(1) == 1
        assert divisor_count(12) == 6
        assert divisor_count(2**5) == 6
