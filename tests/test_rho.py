"""Residue-class counting: formulas, census kernel, closed forms, oracle."""

import sys
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtotient import BudgetExceededError, rho, rho_base_vector, sum_of_squares_census
from sqtotient.menon import menon_lhs, menon_lhs_brute, psi_table
from sqtotient.phi import phi_k_brute
from sqtotient.rho import (
    closed_form_rho2,
    closed_form_rho4,
    rho_brute,
    rho_odd_prime,
    trig_closed_form_rho8,
)
from conftest import naive_census

RHO = sys.modules["sqtotient.rho"]


class TestCensusKernel:
    def test_matches_naive_enumeration(self):
        for n in range(1, 13):
            for k in range(1, 5):
                assert list(sum_of_squares_census(k, n)) == naive_census(k, n), (k, n)

    def test_powering_matches_naive(self):
        # odd and even k, up to three squarings (k = 8, 9)
        for n in range(1, 16):
            for k in range(1, 10):
                if n**k > 2 * 10**5:
                    break
                assert list(sum_of_squares_census(k, n)) == naive_census(k, n), (k, n)

    def test_exact_past_int64(self):
        census = sum_of_squares_census(64, 2)
        assert list(census) == [2**63, 2**63]
        assert all(type(c) is int for c in census)
        for value in (rho_brute(64, 0, 2), phi_k_brute(64, 2)):
            assert type(value) is int
            assert value == 2**63

    def test_budget_names_requirement(self):
        # 12 products of 64,000-digit integers, predicted over 4 s of CPU
        with pytest.raises(BudgetExceededError) as info:
            sum_of_squares_census(239, 1000)
        assert (info.value.required, info.value.budget) == (4313, 4000)
        assert str(info.value) == (
            "CPU milliseconds of the census at modulus 1000, k = 239 (predicted 4.31 s of CPU"
            " and 2.77 MB) needs a budget of 4313, over the limit of 4000"
        )

    def test_budget_refuses_huge_k_without_the_power(self):
        # entries of 2 (2^63 - 1) bits each: the budget refuses every oracle
        # from k and n alone, before any power is built
        oracles = (
            lambda k: sum_of_squares_census(k, 3),
            lambda k: rho_brute(k, 0, 3),
            lambda k: phi_k_brute(k, 3),
            lambda k: menon_lhs_brute(k, 3),
        )
        for oracle in oracles:
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceededError) as info:
                    oracle(2**63 - 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert f"the census at modulus 3, k = {2**63 - 1} (predicted" in str(info.value)
            assert type(info.value.required) is int
            assert peak < 10**7
        # at n = 1 every entry is 0 bits wide: the census stays one slot
        assert sum_of_squares_census(2**63 - 1, 1) == (1,)

    def test_census_modulus_cap(self, admitted):
        # k = 1: 4.4e-7 s a residue, so the CPU limit binds at 9,090,909
        # residues; 10^8 is refused before the census builds its 10^8-slot
        # integers
        assert admitted(RHO, lambda: sum_of_squares_census(1, 9_090_909))
        assert not admitted(RHO, lambda: sum_of_squares_census(1, 9_090_910))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as info:
                sum_of_squares_census(1, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "the census at modulus 100000000, k = 1 (predicted 44 s of CPU and 4.8e+03 MB)" in str(info.value)
        assert peak < 10**7

    def test_work_cap_refuses_before_allocating(self, admitted):
        # one product of 2^20-word integers: over a minute of CPU
        assert admitted(RHO, lambda: sum_of_squares_census(2, 180_531))
        assert not admitted(RHO, lambda: sum_of_squares_census(2, 180_532))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as info:
                sum_of_squares_census(2, 2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.required == 64190
        assert "the census at modulus 1048576, k = 2 (predicted 64.2 s of CPU" in str(info.value)
        assert peak < 10**7

    def test_work_cap_weighs_python_int_entries(self, admitted):
        # entries of 8 k bits, 256 residues: k = 1194 is the last one in
        # the budget, and k = 32000 (16 minutes predicted) is refused
        assert admitted(RHO, lambda: sum_of_squares_census(1194, 256))
        assert not admitted(RHO, lambda: sum_of_squares_census(1195, 256))
        with pytest.raises(BudgetExceededError) as info:
            sum_of_squares_census(32000, 256)
        assert info.value.required == 967581
        assert "the census at modulus 256, k = 32000 (predicted 968 s of CPU" in str(info.value)

    def test_census_estimate_weighs_the_modulus(self, price, admitted):
        # the largest k each modulus admits, and the price of two censuses
        # that the per-word work cap once priced the same: 0.1 s at n = 2
        # and 2.4-3.8 s at n = 1000
        for n, k in ((2, 17_580_886), (3, 1_006_742), (64, 6942), (1000, 238), (10007, 24)):
            assert admitted(RHO, lambda: sum_of_squares_census(k, n)), (n, k)
            assert not admitted(RHO, lambda: sum_of_squares_census(k + 1, n)), (n, k)
        _, cheap, _ = price(RHO, lambda: sum_of_squares_census(491_518, 2))
        _, dear, _ = price(RHO, lambda: sum_of_squares_census(187, 1000))
        assert dear > 10 * cheap

    def test_entries_wider_than_one_word(self):
        # k (n - 1).bit_length() > 64 packs each entry into two or more
        # words; Hensel descent in rho is an independent route
        kernel = sys.modules["sqtotient.rho"]._power_census
        for n in range(1, 41):
            for k in (23, 41, 64, 100):
                assert list(kernel(k, n)) == [rho(k, lam, n) for lam in range(n)], (k, n)

    def test_equals_the_numpy_convolution(self):
        # an independent reference: repeated squaring by np.convolve in
        # object dtype, folded modulo n
        def convolve(a, b):
            full = np.convolve(a, b)
            folded = full[: len(a)].copy()
            folded[: len(a) - 1] += full[len(a) :]
            return folded

        def reference(k, n):
            power = np.bincount([x * x % n for x in range(n)], minlength=n).astype(object)
            counts = None
            while k:
                if k & 1:
                    counts = power if counts is None else convolve(counts, power)
                k >>= 1
                if k:
                    power = convolve(power, power)
            return [int(c) for c in counts]

        kernel = sys.modules["sqtotient.rho"]._power_census
        grid = [(k, n) for n in range(1, 129) for k in range(1, 12) if n**k < 2**200]
        grid += [(k, n) for n in (2, 3, 4, 8, 12, 24, 40) for k in (63, 64, 65, 100, 400, 1000, 3000)]
        for k, n in grid:
            counts = kernel(k, n)
            assert type(counts) is tuple and all(type(c) is int for c in counts)
            assert list(counts) == reference(k, n), (k, n)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_census_totals(self, n, k):
        census = sum_of_squares_census(k, n)
        assert sum(census) == n**k
        assert min(census) >= 0


class TestBruteExamples:
    def test_small_power_of_two_values(self):
        assert rho_brute(1, 1, 4) == 2
        assert rho_brute(2, 1, 4) == 8
        assert rho_brute(3, 1, 4) == 24

    def test_any_residue_allowed(self):
        assert rho_brute(2, 0, 5) == 9
        assert rho_brute(2, 2, 4) == 4  # both coordinates odd
        assert rho_brute(2, 3, 4) == 0


class TestOddPrime:
    def test_examples(self):
        assert rho_odd_prime(1, 1, 5) == 2
        assert rho_odd_prime(2, 1, 3) == 4
        assert rho_odd_prime(2, 1, 5) == 4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rho_odd_prime(2, 3, 3)  # residue shares the prime
        with pytest.raises(ValueError):
            rho_odd_prime(2, 1, 2)  # prime must be odd
        with pytest.raises(ValueError):
            rho_odd_prime(2, 1, 9)  # not prime

    def test_matches_enumeration(self):
        for p in (3, 5, 7, 11, 13):
            for k in range(1, 5):
                census = naive_census(k, p)
                for lam in range(1, p):
                    assert rho_odd_prime(k, lam, p) == census[lam], (k, lam, p)

    def test_lebesgue_term_magnitudes(self):
        # the count is p^(k-1) plus a signed term of magnitude p^((k-1)/2)
        # for odd k and p^((k-2)/2) for even k
        for p in (3, 5, 7, 11):
            for k in range(1, 9):
                for lam in range(1, p):
                    assert abs(rho_odd_prime(k, lam, p) - p ** (k - 1)) == p ** ((k - 1) // 2), (k, lam, p)


class TestOddPrimePower:
    def test_examples(self):
        assert rho(1, 1, 9) == 2
        assert rho(2, 1, 9) == 12
        assert rho(2, 1, 5) == 4

    def test_shared_factor_descends(self):
        # mod 9: 6 is nonsingular only; 0 adds the 3^2 tuples of multiples of 3
        assert rho(2, 6, 9) == naive_census(2, 9)[6] == 0
        assert rho(2, 0, 9) == naive_census(2, 9)[0] == 9
        assert rho(3, 0, 27) == naive_census(3, 27)[0]

    def test_matches_enumeration(self):
        for p, s_max in ((3, 4), (5, 3), (7, 2)):
            for s in range(1, s_max + 1):
                modulus = p**s
                for k in range(1, 4):
                    census = naive_census(k, modulus)
                    for lam in range(modulus):
                        assert rho(k, lam, modulus) == census[lam], (k, lam, modulus)

    def test_single_lift_step(self):
        # one extra exponent multiplies every unit-class count by p^(k-1);
        # the census as reference (validated against naive above)
        for p in (3, 5):
            for s in (1, 2, 3):
                for k in (1, 2, 3):
                    low = sum_of_squares_census(k, p**s)
                    high = sum_of_squares_census(k, p ** (s + 1))
                    for lam in range(p ** (s + 1)):
                        if lam % p:
                            assert int(high[lam]) == p ** (k - 1) * int(low[lam % p**s])


class TestBaseVector:
    def test_square_census_mod4(self):
        assert rho_base_vector(1, 4) == (2, 2, 0, 0)

    def test_recurrence_values(self):
        assert rho_base_vector(2, 4)[1] == 8
        for k in range(1, 9):
            assert rho_base_vector(k, 2)[1] == 2 ** (k - 1)

    def test_only_the_two_adic_moduli(self):
        # the census gives the counts at every other modulus
        for n in (1, 3, 16):
            with pytest.raises(ValueError):
                rho_base_vector(1, n)

    def test_matches_enumeration(self):
        for n in (2, 3, 4, 6, 8, 12, 16):
            for k in range(1, 5):
                assert list(sum_of_squares_census(k, n)) == naive_census(k, n)

    def test_census_totals_large_k(self):
        for n in (2, 4, 8, 24, 64):
            for k in (1, 2, 4, 8):
                assert sum(sum_of_squares_census(k, n)) == n**k

    def test_gauss_sums_equal_the_census_kernel(self):
        # at 2, 4, 8 the vector comes from Gauss sums; the kernel stays the oracle
        kernel = sys.modules["sqtotient.rho"]._power_census
        for n in (2, 4, 8):
            for k in (*range(1, 400), 3000):
                assert rho_base_vector(k, n) == tuple(int(c) for c in kernel(k, n)), (k, n)

    def test_mod4_spectrum_powers(self):
        # convolution theorem: the DFT of the k-fold cyclic convolution is the
        # k-th power of the DFT of the square census (2, 2, 0, 0), whose
        # values {4, 2 - 2i, 0, 2 + 2i} are the mod-4 spectrum
        base = np.fft.fft([2, 2, 0, 0])
        assert np.allclose(base, [4, 2 - 2j, 0, 2 + 2j])
        for k in range(1, 9):
            got = np.fft.fft(np.array(rho_base_vector(k, 4), dtype=float))
            assert np.allclose(got, base**k), k


class TestCountMatrix:
    """The circulant count matrix M(n)[i][j] = census[(j - i) % n]; the first
    row of M(n)^k is the powered census sum_of_squares_census(k, n)."""

    @staticmethod
    def _entries(n):
        census = sum_of_squares_census(1, n)
        return [[census[(j - i) % n] for j in range(n)] for i in range(n)]

    def test_mod4_characteristic_polynomial(self):
        # det(xI - M(4)) = x (x - 4) (x^2 - 4x + 8), spectrum {4, 2 +/- 2i, 0}
        import sympy

        matrix = sympy.Matrix(self._entries(4))
        x = sympy.Symbol("x")
        charpoly = matrix.charpoly(x).as_expr()
        assert sympy.expand(charpoly - x * (x - 4) * (x**2 - 4 * x + 8)) == 0
        for k in range(1, 6):
            assert tuple(matrix**k)[:4] == rho_base_vector(k, 4)

    def test_mod4_spectrum_numeric(self):
        eigenvalues = np.linalg.eigvals(np.array(self._entries(4), dtype=float))
        expected = sorted([4 + 0j, 2 + 2j, 2 - 2j, 0 + 0j], key=lambda z: (z.real, z.imag))
        got = sorted(eigenvalues, key=lambda z: (z.real, z.imag))
        assert np.allclose(got, expected)


class TestPow2:
    def test_examples(self):
        assert rho(1, 1, 4) == 2
        assert rho(1, 1, 16) == 4  # x in {1, 7, 9, 15}
        assert rho(2, 1, 8) == rho_brute(2, 1, 8) == 16

    def test_even_residue_rejected(self):
        # the power-of-two closed forms are unit-only; rho descends instead
        with pytest.raises(ValueError):
            closed_form_rho4(2, 2)
        assert rho(2, 2, 4) == naive_census(2, 4)[2]

    def test_matches_enumeration(self):
        for s in range(1, 6):
            modulus = 2**s
            for k in range(1, 5):
                census = naive_census(k, modulus)
                for lam in range(modulus):
                    assert rho(k, lam, modulus) == census[lam], (k, lam, modulus)

    def test_single_lift_step_above_eight(self):
        for s in (3, 4):
            for k in (1, 2, 3):
                low = naive_census(k, 2**s)
                high = naive_census(k, 2 ** (s + 1))
                for lam in range(1, 2 ** (s + 1), 2):
                    assert high[lam] == 2 ** (k - 1) * low[lam % 2**s]


class TestCombined:
    def test_examples(self):
        assert rho(2, 1, 12) == 32
        assert rho(1, 1, 8) == 4
        for k in (1, 2, 5, 9):
            assert rho(k, 1, 1) == 1

    def test_formula_equals_enumeration(self):
        for n in range(1, 61):
            for k in range(1, 4):
                census = naive_census(k, n)
                for lam in range(n):
                    assert rho(k, lam, n) == census[lam], (k, lam, n)

    def test_formula_equals_census_to_200(self):
        # every modulus to 200, k up to 6 while n^k <= 10^8, which bounds the
        # run time here, not the census
        for n in range(1, 201):
            for k in range(1, 7):
                if n**k > 10**8:
                    break
                census = sum_of_squares_census(k, n)
                for lam in range(n):
                    assert rho(k, lam, n) == int(census[lam]), (k, lam, n)

    def test_equals_base_vector_at_every_residue(self):
        for n in range(1, 201):
            for k in range(1, 9):
                assert [rho(k, lam, n) for lam in range(n)] == list(sum_of_squares_census(k, n)), (k, n)

    def test_never_reads_the_census(self, monkeypatch):
        # the package attribute sqtotient.rho is the function, not the module
        rho_module = sys.modules["sqtotient.rho"]
        expected = {(k, n): sum_of_squares_census(k, n) for n in range(1, 101) for k in range(1, 5)}

        def refuse(*args, **kwargs):
            raise AssertionError("rho reached the census oracle")

        monkeypatch.setattr(rho_module, "rho_brute", refuse)
        monkeypatch.setattr(rho_module, "sum_of_squares_census", refuse)
        for (k, n), counts in expected.items():
            assert tuple(rho_module.rho(k, lam, n) for lam in range(n)) == counts, (k, n)

    def test_never_runs_the_census_kernel(self, monkeypatch):
        rho_module = sys.modules["sqtotient.rho"]
        expected = {(k, n): rho_module.rho_base_vector(k, n) for n in (2, 4, 8) for k in (1, 2, 3, 7, 64)}
        lhs = {(k, n): menon_lhs(k, n) for n in (8, 16, 24, 96, 100) for k in (1, 2, 3, 7, 64)}
        table = [(row.n, row.psi) for row in psi_table(3, 48)]

        def refuse(*args, **kwargs):
            raise AssertionError("reached the census kernel")

        monkeypatch.setattr(rho_module, "_power_census", refuse)
        rho_module.rho_base_vector.cache_clear()
        for (k, n), counts in expected.items():
            assert tuple(rho_module.rho(k, lam, n) for lam in range(n)) == counts, (k, n)
            assert rho_module.rho(k, 1, 3 * n) == rho_module.rho(k, 1, 3) * counts[1], (k, n)
        assert {(k, n): menon_lhs(k, n) for k, n in lhs} == lhs
        assert [(row.n, row.psi) for row in psi_table(3, 48)] == table

    def test_output_size_guard(self):
        # refused from the exponents alone, before any power is built
        with pytest.raises(BudgetExceededError) as info:
            rho(2**63 - 1, 1, 3)
        assert info.value.required == 2 * (2**63 - 1)
        with pytest.raises(BudgetExceededError):
            rho(2**62, 1, 8)
        assert rho(1000, 1, 10**9 + 7) == rho_odd_prime(1000, 1, 10**9 + 7)

    def test_non_unit_residues_match_the_oracle(self):
        assert rho(2, 0, 5) == 9
        assert rho(2, 2, 4) == 4
        # 50^6 tuples, counted by residue class and never one by one
        assert rho(6, 0, 50) == rho_brute(6, 0, 50)

    @given(
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_over_coprime_moduli(self, m, n, k):
        # census already validated against the naive oracle above, so it is
        # a fair reference here; every draw runs, 21 x 23 at k = 3 included
        if gcd(m, n) != 1:
            return
        census = sum_of_squares_census(k, m * n)
        for lam in range(m * n):
            if gcd(lam, m * n) == 1:
                assert int(census[lam]) == rho(k, lam % m, m) * rho(k, lam % n, n)


class TestClosedForms:
    def test_examples(self):
        assert trig_closed_form_rho8(1, 1) == 4
        assert trig_closed_form_rho8(2, 1) == rho_brute(2, 1, 8)

    def test_rejects_even_residue(self):
        with pytest.raises(ValueError):
            trig_closed_form_rho8(2, 4)

    @pytest.mark.parametrize(
        "m, entry, k, message",
        [(1, (1, 1), 1, "irrational part failed to cancel"), (2, (-5, 0), 2, "closed form is not a count")],
    )
    def test_exactness_guard(self, monkeypatch, m, entry, k, message):
        # a wrong doubled sine leaves a sqrt(2) part, or a negative sum
        module = sys.modules["sqtotient.rho"]
        table = list(module._SIN2)
        table[m] = entry
        monkeypatch.setattr(module, "_SIN2", tuple(table))
        with pytest.raises(ArithmeticError, match=message):
            closed_form_rho4(k, 1)
        with pytest.raises(ArithmeticError, match=message):
            trig_closed_form_rho8(k, 1)

    @pytest.mark.parametrize("k", [*range(1, 33), 1000, 3000])
    def test_equal_recurrence_all_moduli(self, k):
        rho_base_vector.cache_clear()
        assert closed_form_rho2(k) == rho_base_vector(k, 2)[1]
        for lam in (1, 3):
            assert closed_form_rho4(k, lam) == rho_base_vector(k, 4)[lam]
        for lam in (1, 3, 5, 7):
            assert trig_closed_form_rho8(k, lam) == rho_base_vector(k, 8)[lam]

    def test_equal_enumeration_small_k(self):
        for k in range(1, 7):
            census2 = naive_census(k, 2)
            census4 = naive_census(k, 4)
            census8 = naive_census(k, 8)
            assert closed_form_rho2(k) == census2[1]
            assert [closed_form_rho4(k, lam) for lam in (1, 3)] == [census4[1], census4[3]]
            assert [trig_closed_form_rho8(k, lam) for lam in (1, 3, 5, 7)] == [
                census8[lam] for lam in (1, 3, 5, 7)
            ]
