"""Gcd-sum identities and the candidate cofactor scans."""

import time
from fractions import Fraction
from math import gcd

import pytest

from sqtotient import (
    BudgetExceededError,
    divisor_count,
    euler_phi,
    menon_classic,
    menon_lhs,
    menon_lhs_brute,
    phi_k,
    psi_multiplicativity_scan,
    psi_table,
)


class TestClassicIdentity:
    def test_examples(self):
        assert menon_classic(5) == (8, 8)
        assert menon_classic(1) == (1, 1)
        assert menon_classic(12) == (24, 24)

    def test_holds_up_to_500(self):
        for n in range(1, 501):
            lhs, rhs = menon_classic(n)
            assert lhs == rhs == euler_phi(n) * divisor_count(n)

    def test_table_equals_literal_definition(self):
        # highly composite and prime-power moduli beside every n <= 600
        for n in (*range(1, 601), 720, 5040, 10080, 2**13, 3**8, 7**4):
            literal = sum(gcd(j - 1, n) for j in range(1, n + 1) if gcd(j, n) == 1)
            assert menon_classic(n)[0] == literal, n

    def test_modulus_cap_refuses_before_allocating(self):
        start = time.process_time()
        with pytest.raises(BudgetExceededError):
            menon_classic(2**24 + 1)
        with pytest.raises(BudgetExceededError):
            menon_classic(10**12)
        assert time.process_time() - start < 0.1


class TestTupleGcdSum:
    def test_examples(self):
        assert menon_lhs(2, 3) == 16
        assert menon_lhs(1, 5) == 12  # the j^2 - 1 unit gcd-sum
        assert menon_lhs(4, 1) == 1

    def test_shortcut_equals_enumeration(self):
        for k in range(1, 6):
            for n in range(1, 81):
                if n**k <= 3 * 10**6:
                    assert menon_lhs(k, n) == menon_lhs_brute(k, n), (k, n)

    def test_multiplicative_over_coprime_moduli(self):
        # the prime-power blocks make menon_lhs multiplicative by
        # construction, so the other side of each equation is enumerated
        for k in (1, 2, 3):
            for m, n in ((3, 4), (4, 5), (5, 8), (7, 9), (8, 9), (9, 10), (3, 25)):
                separate = menon_lhs_brute(k, m) * menon_lhs_brute(k, n)
                assert menon_lhs(k, m * n) == separate, (k, m, n)
                if (m * n) ** k <= 10**6:
                    assert menon_lhs_brute(k, m * n) == menon_lhs(k, m) * menon_lhs(k, n)

    def test_huge_k_is_refused_before_building(self):
        with pytest.raises(BudgetExceededError):
            menon_lhs(2**63 - 1, 3)
        with pytest.raises(BudgetExceededError):
            psi_table(2**63 - 1, 3)

    def test_first_order_reduces_to_square_gcd_sum(self):
        for n in range(1, 200):
            direct = sum(
                gcd(j * j - 1, n) for j in range(1, n + 1) if gcd(j, n) == 1
            )
            assert menon_lhs(1, n) == direct


class TestPsiTable:
    def test_examples(self):
        rows = psi_table(2, 3)
        assert rows[2].psi == Fraction(2) and rows[2].integral
        assert rows[0].psi == Fraction(1)

    def test_row_invariants(self):
        for row in psi_table(2, 40):
            assert row.lhs >= row.phi_k  # every gcd term is >= 1
            assert row.psi >= 1
            assert row.integral == (row.psi.denominator == 1)
            assert (row.psi == 1) == (row.lhs == row.phi_k)
            assert row.phi_k == phi_k(row.k, row.n)

    def test_bound_cap_refuses_before_any_work(self):
        for bound in (2**12 + 1, 2**63 - 1):
            with pytest.raises(BudgetExceededError):
                psi_table(2, bound)
            with pytest.raises(BudgetExceededError):
                psi_multiplicativity_scan(2, bound)

    def test_first_order_cofactor_is_not_asserted_closed_form(self):
        # k = 1 cofactors are computed, not asserted against any formula;
        # they are exact rationals and happen to be integral here
        for row in psi_table(1, 60):
            assert row.psi == Fraction(row.lhs, euler_phi(row.n))


class TestMultiplicativityScan:
    def test_classic_case_asserts(self):
        rows = psi_multiplicativity_scan(1, 60)
        assert all(row.equal for row in rows)

    def test_every_k_is_multiplicative(self):
        for k in (2, 3, 4, 5):
            rows = psi_multiplicativity_scan(k, 200)
            assert len(rows) == 401 and all(row.equal for row in rows)

    def test_trivial_pairs(self):
        rows = psi_multiplicativity_scan(2, 12)
        for row in rows:
            if row.m == 1:
                assert row.equal

    def test_deterministic_lexicographic_order(self):
        rows = psi_multiplicativity_scan(2, 30)
        keys = [(row.m, row.n) for row in rows]
        assert keys == sorted(keys)
        assert all(row.m <= row.n for row in rows)

    def test_emits_exact_rationals(self):
        for row in psi_multiplicativity_scan(2, 24):
            assert isinstance(row.separate, Fraction)
            assert isinstance(row.combined, Fraction)
            assert row.equal == (row.separate == row.combined)
