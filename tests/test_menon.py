"""Gcd-sum identities and the candidate cofactor scans."""

import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from sympy import primerange

from sqtotient import (
    BudgetExceededError,
    menon_classic,
    menon_lhs,
    phi_k,
    psi_multiplicativity_scan,
    psi_table,
    rho,
)
from sqtotient import verify
from sqtotient.core_arith import divisor_count, euler_phi
from sqtotient.menon import _gcd_sum_block, menon_lhs_brute

MENON = sys.modules["sqtotient.menon"]


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

    def test_block_sums_equal_literal_definition(self):
        # every n <= 600 in the suite's blocks, then two blocks side by side at its cap
        blocks = list(verify._gcd_blocks(600))
        assert len(blocks) > 2 and all(hi > lo for lo, hi in blocks)
        caps = list(verify._gcd_blocks(1 << 14))[-2:]
        for lo, hi in blocks + caps:
            sums = _gcd_sum_block(lo, hi)
            rows = range(lo, hi + 1) if hi <= 600 else (lo, hi)
            for n in rows:
                literal = sum(gcd(j - 1, n) for j in range(1, n + 1) if gcd(j, n) == 1)
                assert sums[n - lo] == literal, (lo, hi, n)

    def test_modulus_cap_refuses_before_allocating(self, admitted):
        # 15 bytes a residue: 33,333,333 residues fill the 500 MB budget
        assert admitted(MENON, lambda: menon_classic(33_333_333))
        assert not admitted(MENON, lambda: menon_classic(33_333_334))
        tracemalloc.start()
        try:
            for n in (33_333_334, 10**12):
                with pytest.raises(BudgetExceededError, match=rf"of menon_classic\({n}\) \(predicted"):
                    menon_classic(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


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

    def test_closed_form_block_equals_the_residue_sum(self):
        # one prime-power block, summed here literally over its units
        for k in (*range(1, 17), 31, 64, 100, 257):
            for p in primerange(2, 44):
                q = p
                while q <= 1500:
                    literal = sum(rho(k, lam, q) * gcd(lam - 1, q) for lam in range(1, q) if lam % p)
                    assert menon_lhs(k, q) == literal, (k, q)
                    q *= p

    def test_odd_prime_power_cofactor(self):
        # psi_k(p^e) = e + 1 for even k, 1 + e (1 + eps p^(-(k-1)/2)) for odd
        # k, with eps = (-1)^((p-1)(k-1)/4)
        for k in range(1, 10):
            for p in (3, 5, 7, 11, 13):
                for e in range(1, 5):
                    psi = Fraction(menon_lhs(k, p**e), phi_k(k, p**e))
                    if k % 2 == 0:
                        assert psi == e + 1, (k, p, e)
                    else:
                        eps = -1 if (p - 1) * (k - 1) // 4 % 2 else 1
                        assert psi == 1 + e * (1 + Fraction(eps, p ** ((k - 1) // 2))), (k, p, e)

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

    def test_bound_cap_refuses_before_any_work(self, admitted):
        # about 1.5e-5 s a modulus at k = 2, and 5e-6 s more a coprime pair
        assert admitted(MENON, lambda: psi_table(2, 265_832))
        assert not admitted(MENON, lambda: psi_table(2, 265_833))
        assert admitted(MENON, lambda: psi_multiplicativity_scan(2, 112_983))
        assert not admitted(MENON, lambda: psi_multiplicativity_scan(2, 112_984))
        for scan in (psi_table, psi_multiplicativity_scan):
            with pytest.raises(BudgetExceededError, match=rf"{scan.__name__}\(2, {2**63 - 1}\) \(predicted"):
                scan(2, 2**63 - 1)

    def test_work_cap_weighs_k(self, admitted):
        # a modulus costs 3.5e-10 s x B^1.4 more for B about k log2(n) bits
        for k, table, scan in ((64, 192_386, 98_905), (1000, 18_939, 17_684), (65536, 169, 169)):
            assert admitted(MENON, lambda: psi_table(k, table)), k
            assert not admitted(MENON, lambda: psi_table(k, table + 1)), k
            assert admitted(MENON, lambda: psi_multiplicativity_scan(k, scan)), k
            assert not admitted(MENON, lambda: psi_multiplicativity_scan(k, scan + 1)), k
        with pytest.raises(BudgetExceededError, match=r"CPU milliseconds of psi_table\(65536, 170\)"):
            psi_table(65536, 170)

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
