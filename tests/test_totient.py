from decimal import Decimal, localcontext
from fractions import Fraction as Rat
from itertools import accumulate
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fareysums import totient
from fareysums.errors import BudgetError, PreconditionError
from fareysums.totient import (
    PI_SQUARED,
    AsymptoticError,
    build_totient_table,
    error_term_rows,
    error_terms,
    farey_cardinality,
    lcm_range,
    mertens_upto,
    mobius_upto,
    scaled_phi_ratio_sum,
)

from oracles import brute_farey, brute_mobius, brute_phi


class TestSieve:
    def test_small_values(self):
        t = build_totient_table(6)
        assert [t.phi_of(k) for k in range(1, 7)] == [1, 1, 2, 2, 4, 2]
        assert t.summatory(6) == 12

    def test_limit_one(self):
        t = build_totient_table(1)
        assert t.phi_of(1) == 1
        assert t.summatory(1) == 1

    def test_matches_gcd_definition(self):
        t = build_totient_table(400)
        for n in range(1, 401):
            assert t.phi_of(n) == brute_phi(n)

    def test_divisor_sum_identity(self, table_10k):
        # sum of phi(d) over divisors d of n equals n, for every n <= 10^4
        limit = table_10k.limit
        acc = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, limit + 1):
            acc[d::d] += table_10k.phi[d]
        assert np.array_equal(acc[1:], np.arange(1, limit + 1))

    def test_prefix_sums_consistent(self, table_10k):
        diffs = table_10k.phi_sum[1:] - table_10k.phi_sum[:-1]
        assert np.array_equal(diffs[1:], table_10k.phi[2:])
        assert np.all(table_10k.phi_sum[1:] >= table_10k.phi_sum[:-1])

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            build_totient_table(1001, budget=1000)

    def test_bad_limit(self):
        with pytest.raises(PreconditionError):
            build_totient_table(0)


ORACLE_LIMIT = 3000


@pytest.fixture(scope="module")
def sieve_oracles():
    """phi, Phi and mu for 0 <= k <= ORACLE_LIMIT from gcd counting and trial division."""
    phi = [0] + [brute_phi(k) for k in range(1, ORACLE_LIMIT + 1)]
    return phi, list(accumulate(phi)), [brute_mobius(k) for k in range(ORACLE_LIMIT + 1)]


def _check_sieves(limit, oracles):
    phi, big_phi, mu = oracles
    # an empty mu cache, so that mobius_upto sieves at exactly this limit
    with mock.patch.dict(totient._mu_cache, clear=True):
        assert mobius_upto(limit).tolist() == mu[: limit + 1]
    if limit >= 1:
        table = build_totient_table(limit)
        assert table.phi.tolist() == phi[: limit + 1]
        assert table.phi_sum.tolist() == big_phi[: limit + 1]


class TestFactorSieve:
    """phi, Phi and mu from the smallest-prime-factor blocks, against the oracles."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, ORACLE_LIMIT), st.integers(1, 7))
    def test_any_block_length(self, sieve_oracles, limit, block):
        # short blocks put block edges everywhere, at every limit
        with mock.patch.object(totient, "_FACTOR_BLOCK", block):
            _check_sieves(limit, sieve_oracles)

    @pytest.mark.parametrize(
        "limit", [0, 1, 2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 2808, 2809, 2810]
    )
    def test_square_edges(self, sieve_oracles, limit):
        # p^2 - 1, p^2 and p^2 + 1 put a prime square at and next to the sieve's end
        _check_sieves(limit, sieve_oracles)


class TestCardinality:
    @pytest.mark.parametrize("n,expected", [(3, 5), (1, 2), (6, 13)])
    def test_spot_values(self, n, expected, table_10k):
        assert farey_cardinality(n, table_10k) == expected

    def test_matches_brute_enumeration_to_300(self, table_10k):
        counts = {}
        running = 1
        for d in range(1, 301):
            running += brute_phi(d)
            counts[d] = running
        for n in range(1, 301):
            assert farey_cardinality(n, table_10k) == counts[n]
        for n in (1, 2, 3, 10, 50, 127, 300):
            assert counts[n] == len(brute_farey(n))

    def test_out_of_range(self, table_10k):
        with pytest.raises(PreconditionError):
            farey_cardinality(table_10k.limit + 1, table_10k)


class TestLcmRange:
    @pytest.mark.parametrize("i,expected", [(3, 6), (4, 12), (12, 27720)])
    def test_spot_values(self, i, expected):
        assert lcm_range(i) == expected

    def test_matches_stdlib(self):
        for i in range(2, 40):
            assert lcm_range(i) == lcm(*range(2, i + 1))

    def test_rejects_small_i(self):
        with pytest.raises(PreconditionError):
            lcm_range(1)


class TestScaledRatioSum:
    @pytest.mark.parametrize("i,n,expected", [(3, 6, 13), (1, 6, 6), (4, 12, 32)])
    def test_spot_values(self, i, n, expected, table_10k):
        assert scaled_phi_ratio_sum(i, n, table_10k) == expected

    def test_matches_exact_rational_sum(self, table_10k):
        for i in range(2, 21):
            n = lcm_range(i)
            exact = sum(Rat(n) * table_10k.phi_of(j) / j for j in range(1, i + 1))
            assert exact.denominator == 1
            assert scaled_phi_ratio_sum(i, n, table_10k) == exact.numerator

    def test_divisibility_precondition(self, table_10k):
        with pytest.raises(PreconditionError):
            scaled_phi_ratio_sum(4, 6, table_10k)  # 6 is not a multiple of lcm(2..4)=12


class TestErrorTerms:
    def test_spot_values(self, table_10k):
        with localcontext() as ctx:
            ctx.prec = 50
            expected_e1 = float(1 - 3 / PI_SQUARED)
            expected_e6 = float(12 - 108 / PI_SQUARED)
        assert error_terms(1, table_10k).e_n == pytest.approx(expected_e1, rel=1e-12)
        assert error_terms(6, table_10k).e_n == pytest.approx(expected_e6, rel=1e-12)

    def test_h_matches_exact_rational(self, table_10k):
        # H(n) recomputed with stdlib rationals at a handful of n
        for n in (1, 6, 50, 300):
            hsum = sum(Rat(table_10k.phi_of(k), k) for k in range(1, n + 1))
            with localcontext() as ctx:
                ctx.prec = 50
                expected = float(
                    Decimal(hsum.numerator) / hsum.denominator - 6 * Decimal(n) / PI_SQUARED
                )
            assert error_terms(n, table_10k).h_n == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_diagnostic_bounds(self, table_10k):
        report = error_terms(10_000, table_10k)
        assert isinstance(report, AsymptoticError)
        assert abs(report.e_n) / 10_000 < 1
        for n in (1000, 2000, 5000, 10_000):
            assert abs(error_terms(n, table_10k).e_n) / n**2 < 1e-2

    def test_rows_match_single_calls(self, table_10k):
        rows = list(error_term_rows(40, table_10k))
        assert len(rows) == 40
        for n, phi_n, big_phi, e_n, h_n in rows[::7]:
            assert phi_n == table_10k.phi_of(n)
            assert big_phi == table_10k.summatory(n)
            single = error_terms(n, table_10k)
            assert e_n == single.e_n
            assert h_n == single.h_n


class TestMobius:
    def test_spot_values(self):
        mu = mobius_upto(30)
        expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 10: 1, 12: 0, 30: -1}
        for k, v in expected.items():
            assert mu[k] == v

    def test_matches_factorization(self):
        assert mobius_upto(500).tolist() == [brute_mobius(n) for n in range(501)]

    def test_cache_growth(self):
        small = mobius_upto(10)
        big = mobius_upto(1000)
        assert np.array_equal(big[:11], small)


class TestMertens:
    def test_spot_values(self):
        # M(1..10) = 1, 0, -1, -1, -2, -1, -2, -2, -2, -1
        assert mertens_upto(10).tolist() == [0, 1, 0, -1, -1, -2, -1, -2, -2, -2, -1]
        assert mertens_upto(10).dtype == np.int64

    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=4))
    def test_running_sum_of_mu_as_the_cache_grows(self, limits):
        # a private, empty cache, so the drawn limits decide every growth step
        with mock.patch.dict(totient._mu_cache, clear=True):
            for limit in limits:
                mertens = mertens_upto(limit)
                running = list(accumulate(int(v) for v in mobius_upto(limit)))
                assert mertens.tolist() == running
                mobius_upto(2 * limit + 1)  # grow mu alone; M must follow
