"""Square-sum totient: closed form against both oracles, identity suite."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtotient import BudgetExceededError, phi_k
from sqtotient.core_arith import euler_phi, primes_upto
from sqtotient.phi import (
    _phi_k_at_primes,
    phi_k_brute,
    phi_k_prime_power,
    phi_k_via_jordan,
    phi_k_via_rho,
    phi_ratio_check,
)
from sqtotient.rho import even_k_sign
from conftest import naive_phi_k


class TestOracles:
    def test_first_order_is_euler_totient(self):
        for n in range(1, 51):
            assert phi_k_brute(1, n) == euler_phi(n)
            assert phi_k_via_rho(1, n) == euler_phi(n)
            assert phi_k(1, n) == euler_phi(n)

    def test_examples(self):
        assert phi_k_brute(2, 3) == 8
        assert phi_k_brute(2, 5) == 16
        assert phi_k_via_rho(2, 4) == 8
        assert phi_k_via_rho(1, 1) == 1
        assert phi_k_via_rho(3, 9) == phi_k_brute(3, 9) == 486

    def test_brute_matches_naive(self):
        for n in range(1, 13):
            for k in range(1, 4):
                assert phi_k_brute(k, n) == naive_phi_k(k, n)

    def test_via_rho_factors_once(self, monkeypatch):
        import sqtotient.core_arith as core_arith

        expected = phi_k(2, 97)
        calls = []
        factorize = core_arith.factorize

        def counting(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(core_arith, "factorize", counting)
        assert phi_k_via_rho(2, 97) == expected
        assert calls == [97]

    def test_query_invariants(self):
        with pytest.raises(ValueError):
            phi_k_brute(0, 5)
        with pytest.raises(ValueError):
            phi_k_brute(2, 0)

    def test_three_routes_agree(self):
        for n in range(1, 41):
            for k in range(1, 5):
                if n**k > 10**7:
                    continue
                expected = phi_k(k, n)
                assert phi_k_brute(k, n) == expected, (k, n)
                assert phi_k_via_rho(k, n) == expected, (k, n)

    def test_three_routes_agree_fifth_order(self):
        for n in range(1, 41):
            if n**5 > 10**8:
                break
            expected = phi_k(5, n)
            assert phi_k_brute(5, n) == expected, n
            assert phi_k_via_rho(5, n) == expected, n


class TestPrimePower:
    def test_examples(self):
        assert phi_k_prime_power(3, 2, 2) == 32
        assert phi_k_prime_power(2, 3, 1) == 8
        assert phi_k_prime_power(2, 5, 1) == 16

    def test_power_of_two_is_shifted_totient(self):
        for k in range(1, 6):
            for r in range(1, 5):
                assert phi_k_prime_power(k, 2, r) == euler_phi(2 ** (k * r))

    def test_matches_enumeration(self):
        for p, r in ((3, 1), (3, 2), (5, 1), (7, 1), (2, 1), (2, 2), (2, 3)):
            for k in range(1, 4):
                assert phi_k_prime_power(k, p, r) == naive_phi_k(k, p**r)

    def test_matches_the_displayed_formula(self):
        # the three cases of the module docstring, written out on their own
        for k in range(1, 40):
            for p in primes_upto(300):
                for r in (1, 2, 3):
                    if p == 2:
                        want = 2 ** (k * r - 1)
                    elif k % 2:
                        want = p ** (k * r - 1) * (p - 1)
                    else:
                        want = p ** (k * r - k // 2 - 1) * (p - 1) * (p ** (k // 2) - even_k_sign(k, p))
                    got = phi_k_prime_power(k, p, r)
                    assert type(got) is int and got == want, (k, p, r)

    def test_array_form_at_primes(self):
        # the array form serves the table walk in int64 (while p^k < 2^63)
        # and in Python ints; g_k(p) = phi_k(p) - p^k is the convolution
        # coefficient, written out here with its own sign
        primes = primes_upto(1 << 12)
        for k in range(1, 17):
            for dtype in (np.int64, object):
                ps = [p for p in primes if dtype is object or p**k < 2**63]
                got = _phi_k_at_primes(k, np.array(ps, dtype=dtype))
                assert got.dtype == dtype
                assert got.tolist() == [phi_k_prime_power(k, p, 1) for p in ps], (k, dtype)
                if k % 2 == 0:
                    g = (got - np.array(ps, dtype=dtype) ** k).tolist()
                    assert g == [
                        -(2 ** (k - 1)) if p == 2
                        else -(p ** (k - 1)) - even_k_sign(k, p) * p ** (k // 2 - 1) * (p - 1)
                        for p in ps
                    ], (k, dtype)


class TestClosedForm:
    def test_examples(self):
        assert phi_k(2, 15) == 128
        assert phi_k(4, 3) == 48
        assert phi_k(1, 1) == 1

    def test_output_size_guard(self):
        # phi_k(k, 3) has about 1.6 k bits; the guard estimates 2 k
        with pytest.raises(BudgetExceededError) as info:
            phi_k(2**63 - 1, 3)
        assert info.value.required == 2 * (2**63 - 1)
        with pytest.raises(BudgetExceededError):
            phi_k(2**19, 2**62)
        big = phi_k(1000, 10**9 + 7)
        assert big == phi_k_prime_power(1000, 10**9 + 7, 1)
        assert big >= 10**4300

    def test_odd_k_shape(self):
        # odd k collapses to n^(k-1) phi(n)
        for n in range(1, 60):
            for k in (1, 3, 5):
                assert phi_k(k, n) == n ** (k - 1) * euler_phi(n)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
    @settings(max_examples=150, deadline=None)
    def test_multiplicative(self, m, n):
        if gcd(m, n) != 1:
            return
        for k in range(1, 5):
            assert phi_k(k, m * n) == phi_k(k, m) * phi_k(k, n)


class TestIdentities:
    def test_divisibility(self):
        values = {k: [0] + [phi_k(k, n) for n in range(1, 501)] for k in range(1, 5)}
        for m in range(1, 501):
            for n in range(1, m + 1):
                if m % n:
                    continue
                for k in range(1, 5):
                    assert values[k][m] % values[k][n] == 0

    def test_gcd_identity_corrected_form(self):
        # phi_k(mn) phi_k(d) = d^k phi_k(m) phi_k(n) with d = gcd(m, n)
        cache: dict[tuple[int, int], int] = {}

        def value(k, n):
            key = (k, n)
            if key not in cache:
                cache[key] = phi_k(k, n)
            return cache[key]

        for m in range(1, 101):
            for n in range(1, 101):
                d = gcd(m, n)
                for k in range(1, 4):
                    assert value(k, m * n) * value(k, d) == d**k * value(k, m) * value(k, n)

    def test_power_identity(self):
        for n in range(1, 51):
            base = {k: phi_k(k, n) for k in range(1, 4)}
            for m in range(1, 5):
                for k in range(1, 4):
                    assert phi_k(k, n**m) == n ** (k * (m - 1)) * base[k]

    def test_parity(self):
        for n in range(3, 1001):
            for k in range(1, 5):
                assert phi_k(k, n) % 2 == 0


class TestJordanRoute:
    def test_examples(self):
        assert phi_k_via_jordan(4, 3) == 48
        assert phi_k_via_jordan(4, 2) == 8
        assert phi_k_via_jordan(8, 1) == 1

    def test_needs_multiple_of_four(self):
        with pytest.raises(ValueError):
            phi_k_via_jordan(2, 5)

    def test_agrees_with_closed_form(self):
        for k in (4, 8, 12):
            for n in range(1, 301):
                assert phi_k_via_jordan(k, n) == phi_k(k, n)


class TestRatioIdentity:
    def test_examples(self):
        assert phi_ratio_check(4, 3) == (Fraction(24), Fraction(24))
        assert phi_ratio_check(4, 2) == (Fraction(8), Fraction(8))
        assert phi_ratio_check(4, 1) == (Fraction(1), Fraction(1))

    def test_needs_four_mod_eight(self):
        with pytest.raises(ValueError):
            phi_ratio_check(8, 3)

    def test_holds_generally(self):
        for k in (4, 12):
            for n in range(1, 101):
                lhs, rhs = phi_ratio_check(k, n)
                assert lhs == rhs, (k, n)
