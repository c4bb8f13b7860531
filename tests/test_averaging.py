"""Bulk tables, asymptotic constants, convolution coefficients, scans."""

import math
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import sqtotient.averaging as averaging
from sqtotient import (
    BudgetExceededError,
    build_spf,
    corollary_constant,
    euler_constant,
    factorize,
    g_k_table,
    minimal_order_scan,
    phi_k,
    phi_k_table,
)
from sqtotient.averaging import (
    _BLOCK,
    _Family,
    _beta_fixed,
    _euler_family,
    _log_coefficients,
    averaging_report,
    convolution_check,
    partial_sum,
)
from sqtotient.core_arith import euler_phi, primes_upto


class TestPhiTable:
    def test_examples(self):
        assert phi_k_table(1, 10)[1:] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
        assert phi_k_table(2, 5)[5] == 16
        assert phi_k_table(3, 1) == [0, 1]
        assert phi_k_table(8, 1) == [0, 1]

    def test_matches_pointwise_evaluation(self):
        for k in range(1, 9):
            table = phi_k_table(k, 2000)
            for n in range(1, 2001):
                assert table[n] == phi_k(k, n), (k, n)

    def test_output_size_guard(self):
        with pytest.raises(BudgetExceededError):
            phi_k_table(2**63 - 1, 3)

    def test_partial_sum_examples(self):
        assert partial_sum(1, 10) == 32
        assert partial_sum(1, 1) == 1
        assert partial_sum(2, 3) == 11

    def test_partial_sum_equals_chunked_fold(self):
        values = phi_k_table(2, 3000)
        assert partial_sum(2, 3000) == sum(values)


class TestSieveWalk:
    """The chunked multiplicative walk against pointwise oracles."""

    @staticmethod
    def g_k_oracle(k, n):
        # multiplicative, g_k(p) = phi_k(p) - p^k at primes, 0 off squarefree n
        value = 1
        for p, e in factorize(n).factors:
            if e > 1:
                return 0
            value *= phi_k(k, p) - p**k
        return value

    @staticmethod
    def sample(limit):
        # every 97th n, plus the last 2000 entries
        return sorted(set(range(1, limit + 1, 97)) | set(range(max(1, limit - 1999), limit + 1)))

    def check_entries(self, k, limit, ns):
        phi = phi_k_table(k, limit)
        g = g_k_table(k, limit).values
        assert len(phi) == len(g) == limit + 1
        for n in sorted(n for n in set(ns) if 1 <= n <= limit):
            assert phi[n] == phi_k(k, n), (k, limit, n)
            assert g[n] == self.g_k_oracle(k, n), (k, limit, n)

    def test_limits_at_a_prime_square(self):
        # 997 is the largest prime <= sqrt(limit) only from 997^2 on, where
        # its one power q = 997^2 has no cofactor m > 1
        square = 997**2
        for limit in (square - 1, square, square + 1):
            near = [p * m for p in (991, 997) for m in range(limit // p - 40, limit // p + 1)]
            self.check_entries(2, limit, self.sample(limit)[::20] + near + [square, 991 * 997])

    def test_prime_powers_at_and_near_the_limit(self):
        # a limit that is a power of 2, 3 or 5, one either side of it, and
        # every prime power up to it (k = 6 is in Python ints here)
        for q in (2**16, 3**10, 5**7):
            powers = [p**e for p in primes_upto(math.isqrt(q + 1)) for e in range(2, 20) if p**e <= q + 1]
            for limit in (q - 1, q, q + 1):
                self.check_entries(6, limit, powers + list(range(limit - 40, limit + 1)))

    def test_cofactors_whose_smallest_prime_is_the_next_one(self):
        # n = p^e m with spf(m) the prime after p, read from the step of p'
        limit = 70_000
        primes = primes_upto(300)
        ns = [
            p**e * q**f * r
            for p, q in zip(primes, primes[1:])
            for e in range(1, 17)
            for f in range(1, 11)
            for r in (1, *primes[primes.index(q) + 1 :][:3])
            if p**e * q**f * r <= limit
        ]
        self.check_entries(2, limit, ns)

    def test_across_block_edges(self):
        # the primes are found in blocks of n from 2, and each power q = p^e
        # steps through its cofactors m in blocks from p + 1, _BLOCK entries
        # at a time
        limit = 70_000
        edges = [j * _BLOCK + d for j in range(1, limit // _BLOCK + 1) for d in range(-1, 5)]
        self.check_entries(2, limit, [q * m for q in (1, 2, 3, 4, 8) for m in edges])

    def test_both_sides_of_the_int64_switch(self):
        # 55108^4, 6208^5, 1448^6 and 234^8 are the last powers below 2^63
        def phi(k, n):
            return phi_k_table(k, n)

        def g(k, n):
            return list(g_k_table(k, n).values)

        cases = (
            (phi, phi_k, 4, 55_108), (phi, phi_k, 5, 6_208), (phi, phi_k, 8, 234),
            (g, self.g_k_oracle, 4, 55_108), (g, self.g_k_oracle, 6, 1_448), (g, self.g_k_oracle, 8, 234),
        )
        for table, oracle, k, limit in cases:
            assert limit**k < 2**63 <= (limit + 1) ** k
            narrow = table(k, limit)
            wide = table(k, limit + 1)
            assert wide[:-1] == narrow
            for n in self.sample(limit + 1):
                assert wide[n] == oracle(k, n), (table.__name__, k, n)

    def test_prime_powers_past_int64(self):
        # phi_6(2^11) = 2^65, and the walk reaches 61^2 = 3721 at k = 16 by
        # the ratio 61^16 > 2^94: both only in Python ints
        for k, ns in ((6, (1024, 2048, 4096)), (16, (3721, 4096))):
            table = phi_k_table(k, 4096)
            for n in ns:
                assert table[n] == phi_k(k, n), (k, n)

    def test_every_element_is_an_int(self):
        for k, limit in ((1, 3000), (4, 55_108), (4, 55_109), (9, 3000)):
            assert all(type(v) is int for v in phi_k_table(k, limit)), (k, limit)
        for k, limit in ((2, 3000), (4, 55_108), (4, 55_109), (10, 3000)):
            assert all(type(v) is int for v in g_k_table(k, limit).values), (k, limit)


class TestEulerConstant:
    def test_odd_k_is_exact(self):
        constant = euler_constant(1)
        assert constant.tail_bound == 0
        with mp.workdps(30):
            assert abs(constant.value - 6 / mp.pi**2) < mp.mpf("1e-25")
        assert float(constant.value) == pytest.approx(0.6079271018540267)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            euler_constant(2, 0)
        with pytest.raises(ValueError):
            euler_constant(2, -1e-9)

    def test_working_precision_guard(self):
        # tol 1e-200 needs 210 working digits, over the cap of 128
        for constant in (euler_constant, corollary_constant):
            with pytest.raises(BudgetExceededError, match="working precision") as info:
                constant(2, 1e-200)
            assert info.value.required == 210

    def test_monotone_refinement(self, monkeypatch):
        for k in (2, 4, 6):
            constant = euler_constant(k, 1e-9)
            with monkeypatch.context() as patch:
                patch.setattr(averaging, "_DEFAULT_PRIME_BOUND", 2 * constant.prime_bound)
                doubled = euler_constant(k, 1e-9)
            assert abs(doubled.value - constant.value) < constant.tail_bound

    def test_matches_plain_truncated_product(self):
        # the literal single-pass product with no rearrangement: an independent
        # route whose own truncation error at P=200000 is below ~4e-7
        from sqtotient.core_arith import primes_upto

        for k in (2, 4):
            acc = mp.mpf(0)
            with mp.workdps(30):
                for p in primes_upto(200_000):
                    if p == 2:
                        continue
                    sign = -1 if ((k // 2) * ((p - 1) // 2)) % 2 else 1
                    pm = mp.mpf(p)
                    acc += mp.log(1 - 1 / pm**2 - sign * (pm - 1) / pm ** (k // 2 + 2))
                plain = mp.mpf(3) / 4 * mp.exp(acc)
            assert abs(euler_constant(k, 1e-9).value - plain) < 4e-7

    def test_default_agrees_with_the_explicit_product_to_2_17(self, monkeypatch):
        # at P = 2^17 about 12,000 primes are multiplied explicitly and the
        # tail series adds little; at the default P = 64 the series carries it
        cases = [(euler_constant, k) for k in (2, 4, 6, 10)]
        cases += [(corollary_constant, k) for k in (2, 4)]
        with mp.workdps(40):
            for constant, k in cases:
                default = constant(k, 1e-9)
                with monkeypatch.context() as patch:
                    patch.setattr(averaging, "_DEFAULT_PRIME_BOUND", 2**17)
                    explicit = constant(k, 1e-9)
                assert (default.prime_bound, explicit.prime_bound) == (64, 2**17)
                gap = abs(default.value - explicit.value)
                assert gap <= default.tail_bound + explicit.tail_bound, (constant.__name__, k)

    def test_tighter_tolerances_refine_within_the_coarse_bound(self):
        with mp.workdps(40):
            for k in (2, 4, 6):
                coarse = euler_constant(k, 1e-9)
                for tol in (1e-15, 1e-18, 1e-30):
                    fine = euler_constant(k, tol)
                    assert fine.tail_bound <= tol
                    assert abs(fine.value - coarse.value) <= coarse.tail_bound, (k, tol)
            for k in (2, 4):
                coarse = corollary_constant(k, 1e-9)
                fine = corollary_constant(k, 1e-30)
                assert abs(fine.value - coarse.value) <= coarse.tail_bound

    def test_tail_bound_stays_near_tol(self):
        # the series stops at the first order that meets tol, so the bound is
        # not driven down to rounding level, where float comparisons fail
        for tol in (3e-10, 1e-9, 1e-15, 1e-30):
            for constant in (euler_constant(2, tol), euler_constant(4, tol), euler_constant(6, tol),
                             corollary_constant(2, tol), corollary_constant(4, tol)):
                assert tol / 1000 < constant.tail_bound <= tol, (constant.k, tol)

    def test_cvz_dirichlet_beta(self):
        # L(s, chi_4) * 2^bits within 3 units: Catalan's constant at s = 2
        bits = 200
        with mp.workprec(bits + 10):
            for s, exact in ((2, mp.catalan), (3, mp.pi**3 / 32), (1, mp.pi / 4)):
                assert abs(_beta_fixed(s, bits) - mp.ldexp(exact, bits)) <= 3, s

    def test_log_series_matches_taylor(self):
        # log h_p = sum (alpha_j + beta_j s) x^j for the k = 2 residual factor
        coefficients = _log_coefficients(_euler_family(2), 12)
        with mp.workdps(40):
            for s in (1, -1):

                def log_h(x, s=s):
                    num = 1 - x**2 - s * (x**2 - x**3)
                    return mp.log(num / ((1 - x**2) * (1 - s * x**2)))

                taylor = mp.taylor(log_h, 0, 12)
                for j, (alpha, beta) in enumerate(coefficients):
                    exact = alpha + beta * s
                    assert abs(taylor[j] - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf("1e-25"), (s, j)
        assert coefficients[3] == (0, 1) and coefficients[4][1] == -1

    def test_two_product_forms_agree(self):
        for k in (2, 4):
            direct = euler_constant(k, 1e-9)
            split_form = corollary_constant(k, 1e-9)
            difference = abs((k + 1) * split_form.value - direct.value)
            assert difference <= 1e-8
            assert difference <= 2 * (direct.tail_bound + (k + 1) * split_form.tail_bound)

    def test_corollary_families_are_the_residue_class_forms(self):
        # the residue-class product forms of the two corollaries, written out
        # with x = 1/p and s = chi_4(p). k = 2 splits over p mod 4:
        # (1 - 2x^2 + x^3)/(1 - x^2)^2 at p = 1 and (1 - x^3)/(1 - x^4) at
        # p = 3, one formula in s; k = 4 is
        # (1 - x^2 - x^3 + x^4)/((1 - x^2)(1 - x^3)) at every p
        forms = {
            2: _Family(Fraction(1, 4), ((2, -1, -1), (3, 0, 1)), ((2, 0), (2, 1)), 3),
            4: _Family(Fraction(3, 20), ((2, -1, 0), (3, -1, 0), (4, 1, 0)), ((2, 0), (3, 0)), 4),
        }
        for k, form in forms.items():
            family = _euler_family(k)
            assert replace(family, scale=family.scale / (k + 1)) == form, k

    def test_corollary_prefactors(self):
        # leading coefficients 1/4 and 3/20 of the two displayed asymptotics
        c2 = corollary_constant(2, 1e-9)
        c4 = corollary_constant(4, 1e-9)
        assert abs(c2.value - euler_constant(2, 1e-9).value / 3) < 1e-10
        assert abs(c4.value - euler_constant(4, 1e-9).value / 5) < 1e-10
        with pytest.raises(ValueError):
            corollary_constant(3)


class TestGkTable:
    def test_examples(self):
        table = g_k_table(2, 16)
        assert table.values[1] == 1
        assert table.values[2] == -2
        assert table.values[4] == 0
        assert g_k_table(2, 1).values == (0, 1)
        assert g_k_table(6, 1).values == (0, 1)

    def test_output_size_guard(self):
        with pytest.raises(BudgetExceededError, match="output bit length of g_k_table"):
            g_k_table(2**63 - 2, 3)

    def test_squarefree_support(self):
        from sqtotient import factorize

        table = g_k_table(4, 600)
        for n in range(1, 601):
            squarefree = all(e == 1 for _, e in factorize(n).factors)
            if not squarefree:
                assert table.values[n] == 0

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            g_k_table(3, 10)

    def test_prime_value_consistency(self):
        # at primes the convolution gives phi_k(p) = p^k + g_k(p)
        table = g_k_table(2, 100)
        for p in (2, 3, 5, 7, 11, 13, 97):
            assert p**2 + table.values[p] == phi_k(2, p)


class TestConvolution:
    def test_identity_holds(self):
        assert convolution_check(2, 500).ok
        assert convolution_check(4, 200).ok

    def test_trivial_case(self):
        report = convolution_check(2, 1)
        assert report.ok and report.first_mismatch is None

    def test_both_sides_of_the_int64_switch(self):
        # 6208^5 is the last fifth power below 2^63: int64 sums up to it,
        # Python ints above
        assert 6208**5 < 2**63 <= 6209**5
        for limit in (6208, 6209):
            report = convolution_check(4, limit)
            assert (report.ok, report.first_mismatch, report.limit) == (True, None, limit)

    def test_python_int_residual_is_priced(self, admitted):
        # past int64 the residual and its two operands are Python ints: (2, 2.5 10^6)
        # took 3.2-4.5 s and 336-364 MB; k = 4 at the verify suite's cap 2^20 took 1.4-1.7 s
        assert not admitted(averaging, lambda: convolution_check(2, 2_500_000))
        assert admitted(averaging, lambda: convolution_check(4, 1 << 20))
        assert admitted(averaging, lambda: convolution_check(2, 1 << 20))
        with pytest.raises(BudgetExceededError, match=r"CPU milliseconds of convolution_check\(2, 2500000\) \(predicted"):
            convolution_check(2, 2_500_000)

    @pytest.mark.parametrize(
        "k, limit, n",
        # 30 is reached from d <= isqrt(limit), 437 = 19 * 23 and 6205 = 5 * 17 * 73 from d above it
        [(2, 500, 30), (2, 500, 437), (4, 6209, 30), (4, 6209, 6205)],
    )
    def test_reports_the_first_mismatch(self, monkeypatch, k, limit, n):
        exact = averaging._g_k_values

        def corrupted(k, limit):
            g = exact(k, limit)
            g[n] += 1
            return g

        monkeypatch.setattr(averaging, "_g_k_values", corrupted)
        report = convolution_check(k, limit)
        want = phi_k(k, n)
        assert not report.ok
        assert report.first_mismatch == (n, want, want + 1)
        assert all(type(v) is int for v in report.first_mismatch)


class TestAveragingReport:
    def test_k1_x10_row(self):
        row = averaging_report(1, [10])[0]
        assert row.partial_sum == 32
        assert row.main_term == pytest.approx(30.39635509270133)
        assert row.rel_error == pytest.approx(0.052757802782865, abs=1e-12)

    def test_error_ratio_uses_log_scale(self):
        row = averaging_report(2, [100])[0]
        expected_scale = 100**2 * math.log(100)
        assert row.error_ratio == pytest.approx(
            (row.partial_sum - row.main_term) / expected_scale, rel=1e-9
        )

    def test_main_term_stays_a_float(self):
        # C_k x^(k+1) / (k+1) is a float column: x^(k+1) / (k+1) must stay below
        # 2^1024, and the error scale x^k R_k(x) is taken in mpmath
        for k, x in ((60, 120954), (400, 5)):
            row = averaging_report(k, [x])[0]
            assert all(math.isfinite(v) for v in (row.main_term, row.rel_error, row.error_ratio))
            with pytest.raises(ValueError, match="past the float range"):
                averaging_report(k, [x + 1])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            averaging_report(1, [])
        with pytest.raises(ValueError):
            averaging_report(1, [2])
        with pytest.raises(ValueError):
            averaging_report(1, [100, 10])

    def test_rows_share_exact_sums(self):
        rows = averaging_report(1, [100, 1000])
        assert rows[0].partial_sum == partial_sum(1, 100)
        assert rows[1].partial_sum == partial_sum(1, 1000)

    def test_sums_past_int64(self):
        # 55108^4 < 2^63 <= S_4(55108): each entry fits in int64, the sum does not
        assert 55108**4 < 2**63 <= sum(phi_k_table(4, 55108))
        for x in (55108, 55109):
            total = sum(phi_k_table(4, x))
            assert partial_sum(4, x) == total and type(partial_sum(4, x)) is int
            rows = averaging_report(4, [1000, x])
            assert rows[0].partial_sum == sum(phi_k_table(4, 1000))
            assert rows[1].partial_sum == total

    def test_int64_halves_past_int64(self):
        # S_3(200000) is about 2^68, summed over many blocks of int64 halves
        assert sum(phi_k_table(3, 200_000)) > 2**63
        assert partial_sum(3, 200_000) == sum(phi_k_table(3, 200_000))
        # entries at both ends of int64, across a block edge
        extremes = [2**63 - 1, -(2**63), -1, 2**32, 2**32 - 1] * 2000
        values = np.array(extremes, dtype=np.int64)
        assert averaging._exact_sum(values, 3, len(extremes)) == sum(extremes[3:])
        # an object table past int64, across a block edge
        huge = [2**100 + n for n in extremes]
        objects = np.array(huge, dtype=object)
        total = averaging._exact_sum(objects, 3, len(huge) - 1)
        assert total == sum(huge[3:-1]) and type(total) is int


class TestMinimalOrder:
    def test_first_values(self):
        rows = minimal_order_scan(1, 5)
        assert [n for n, _ in rows] == [30, 210, 2310]
        assert rows[0][1] == pytest.approx(0.3264, abs=2e-3)
        assert rows[1][1] == pytest.approx(0.3833, abs=2e-3)
        assert rows[2][1] == pytest.approx(0.4254, abs=2e-3)

    def test_matches_the_exact_product(self):
        # the scan's 30-digit product against phi_k(n)/n^k kept as an exact
        # Fraction, with log log n taken from the primorial itself
        primes = primes_upto(15 * 300)[:300]
        for k in (1, 2, 3):
            rows = minimal_order_scan(k, 300)
            scaled, primorial, expected = Fraction(1), 1, []
            with mp.workdps(30):
                for count, p in enumerate(primes, start=1):
                    primorial *= p
                    scaled *= Fraction(phi_k(k, p), p**k)
                    if count >= 3:
                        loglog = mp.log(mp.log(mp.mpf(primorial)))
                        expected.append((primorial, float(mp.mpf(scaled.numerator) / scaled.denominator * loglog)))
            assert [n for n, _ in rows] == [n for n, _ in expected], k
            for (n, got), (_, want) in zip(rows, expected):
                assert got == pytest.approx(want, rel=1e-15), (k, n)

    def test_ratio_is_scaled_totient(self):
        for n, ratio in minimal_order_scan(3, 6):
            expected = euler_phi(n) / n * math.log(math.log(n))
            assert ratio == pytest.approx(expected, rel=1e-9)

    def test_even_k_emits_data(self):
        # no limit is stated for even k, so the scan just emits its ratios
        rows = minimal_order_scan(2, 5)
        assert [n for n, _ in rows] == [30, 210, 2310]
        for n, ratio in rows:
            assert ratio == pytest.approx(phi_k(2, n) / n**2 * math.log(math.log(n)), rel=1e-12)

    def test_budget(self, admitted):
        # the rows hold every primorial: 22,097 of them fill the 500 MB budget
        assert admitted(averaging, lambda: minimal_order_scan(1, 22_097))
        assert not admitted(averaging, lambda: minimal_order_scan(1, 22_098))
        with pytest.raises(BudgetExceededError, match=r"of minimal_order_scan\(1, 100000\) \(predicted 23.1 s of CPU"):
            minimal_order_scan(1, 100000)

    def test_prime_bound_holds_every_allowed_count(self):
        # minimal_order_scan takes the first m primes from primes_upto(max(15 m, 30));
        # the budget admits m up to 22,097
        primes = primes_upto(15 * 22_097)
        for m in range(3, 22_097 + 1):
            assert bisect_right(primes, max(15 * m, 30)) >= m, m

    def test_output_size_guard(self):
        with pytest.raises(BudgetExceededError, match="output bit length of minimal_order_scan"):
            minimal_order_scan(2**63 - 1, 3)
        with pytest.raises(BudgetExceededError, match="output bit length of minimal_order_scan"):
            minimal_order_scan(2**63 - 2, 3)


class TestSpfCeiling:
    def test_rejects_limit_below_two(self):
        with pytest.raises(ValueError):
            build_spf(0)
