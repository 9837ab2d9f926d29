from math import gcd

import pytest

from fareysums import index
from fareysums.arith import Fraction, ONE, ZERO
from fareysums.errors import PreconditionError
from fareysums.farey import farey_neighbors, rank_fast, rank_oracle
from fareysums.index import (
    ERROR_EXACT,
    ERROR_ORDER_I2,
    asymptotic_index_half,
    asymptotic_index_zero,
    exact_index_unit_fraction,
    general_index_estimate,
)
from fareysums.mapping import MapParams
from fareysums.totient import build_totient_table, farey_cardinality, lcm_range


class TestExactUnitFraction:
    @pytest.mark.parametrize("q,expected", [(2, 7), (6, 2), (3, 5)])
    def test_spot_values(self, q, expected):
        est = exact_index_unit_fraction(3, q)
        assert est.value == expected
        assert est.error_order == ERROR_EXACT

    def test_matches_oracle_for_every_admissible_q(self):
        for i_max in range(2, 7):
            n = lcm_range(i_max)
            table = build_totient_table(i_max)
            for q in range(-(-n // i_max), n + 1):
                exact = exact_index_unit_fraction(i_max, q, table).value
                assert exact == rank_oracle(n, Fraction(1, q)).rank

    @pytest.mark.parametrize("i_max", range(9, 17))
    def test_matches_rank_past_the_oracle_orders(self, i_max):
        # N = lcm(2..i_max) reaches 720 720 at i_max = 16, too far for rank_oracle
        n = lcm_range(i_max)
        table = build_totient_table(i_max)
        for q in (-(-n // i_max), n // (i_max - 1), n // 3, n // 2, n - 1, n):
            exact = exact_index_unit_fraction(i_max, q, table).value
            assert exact == rank_fast(n, Fraction(1, q)).rank

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            exact_index_unit_fraction(3, 7)   # q > N
        with pytest.raises(PreconditionError):
            exact_index_unit_fraction(4, 2)   # q < N/i_max, outside the ambiguous band

    def test_small_q_is_refused_without_forming_n(self, monkeypatch):
        def refuse(i):
            raise AssertionError(f"lcm(2..{i}) was formed")

        monkeypatch.setattr(index, "lcm_range", refuse)
        # N = lcm(2..10) >= 2**9, and q*11 < 2**9 exactly for q <= 46
        with pytest.raises(PreconditionError, match=r"q=46 is below N/i_max for N = lcm\(2..10\)$"):
            exact_index_unit_fraction(10, 46)
        with pytest.raises(AssertionError, match="was formed"):
            exact_index_unit_fraction(10, 47)

    def test_flags_ambiguous_band(self):
        # i_max=5 gives N=60; q=11 has 60/6 < 11 < 60/5, valid under the per-i
        # window but not under the aggregate N/i_max bound, so it is refused
        # with an explicit message instead of silently picking a convention
        with pytest.raises(PreconditionError, match="ambiguous"):
            exact_index_unit_fraction(5, 11)


class TestGeneralEstimate:
    def test_minimal_case_is_exact(self):
        params = MapParams(Fraction(1, 2), ONE, 1, 2, 4)
        base = rank_fast(4, Fraction(1, 2)).rank
        est = general_index_estimate(params, base)
        assert est.error_order == ERROR_ORDER_I2
        assert est.value == rank_oracle(4, Fraction(2, 3)).rank

    def test_descending_side(self):
        params = MapParams(Fraction(1, 2), ZERO, 3, 2, 12)
        base = rank_fast(12, Fraction(1, 2)).rank
        est = general_index_estimate(params, base)
        true = rank_oracle(12, Fraction(3, 7)).rank
        assert abs(est.value - true) <= 4 * params.i**2

    def test_top_of_range_reduces_to_linear_shift(self):
        # i = 1: the scaled sum is N/eta and Phi(1) = 1, so the shift is N/eta - q
        params = MapParams(Fraction(1, 3), Fraction(1, 2), 20, 1, 60)
        base = rank_fast(60, Fraction(1, 3)).rank
        est = general_index_estimate(params, base)
        assert est.value == base + params.s * (60 // 3 - 20)

    def test_envelope_constant_across_sample(self):
        # eta in 2..5, every vertex and both neighbors, i <= 6, all q at
        # N = eta * lcm(2..6); the residual must stay within C * i^2 with C <= 4
        i_max = 6
        worst = 0.0
        table = build_totient_table(i_max)
        for eta in (2, 3, 4, 5):
            n = eta * lcm_range(i_max)
            for chi in range(1, eta):
                if gcd(chi, eta) != 1:
                    continue
                vertex = Fraction(chi, eta)
                base = rank_fast(n, vertex).rank
                left, right = farey_neighbors(eta, vertex)
                for co_vertex in (left, right):
                    if co_vertex is None:
                        continue
                    for i in range(1, i_max + 1):
                        for q in range(n // (eta * (i + 1)) + 1, n // (eta * i) + 1):
                            params = MapParams(vertex, co_vertex, q, i, n)
                            est = general_index_estimate(params, base, table)
                            target = Fraction(
                                chi * q + co_vertex.num, eta * q + co_vertex.den
                            )
                            true = rank_oracle(n, target).rank
                            worst = max(worst, abs(est.value - true) / i**2)
        print(f"general-estimate envelope constant: {worst:.3f}")
        assert worst <= 4.0

    def test_rejects_unit_denominator(self):
        params = MapParams(ZERO, Fraction(1, 0), 3, 2, 6)
        with pytest.raises(PreconditionError):
            general_index_estimate(params, 1)

    def test_rejects_misaligned_order(self):
        # N/eta = 9 is not a multiple of lcm(2..2) = 2
        params = MapParams(Fraction(1, 2), ONE, 4, 2, 18)
        with pytest.raises(PreconditionError, match=r"not a multiple of lcm\(2..2\)=2"):
            general_index_estimate(params, rank_fast(18, Fraction(1, 2)).rank)


class TestAsymptotics:
    def test_zero_vertex_values(self):
        assert asymptotic_index_zero(6, 6) == pytest.approx(1.8238, abs=1e-4)
        n = 240
        assert asymptotic_index_zero(n, n) == pytest.approx(3 * n / 9.8696044010893586, rel=1e-12)

    @pytest.mark.parametrize("n", [lcm_range(400), 2**2000], ids=["lcm(2..400)", "2**2000"])
    def test_zero_vertex_refuses_a_value_past_the_float_range(self, n):
        # at lcm(2..400) the float product overflows to inf; 2**2000 is no float at all
        with pytest.raises(PreconditionError, match="past the float range"):
            asymptotic_index_zero(n, 1)

    def test_zero_vertex_envelope(self):
        table = build_totient_table(12)
        n = lcm_range(8)
        worst = max(
            abs(exact_index_unit_fraction(8, q, table).value - asymptotic_index_zero(n, q))
            for q in range(n // 8, n + 1)
        )
        assert worst <= n  # O(N) residual with a small constant in practice

    def test_half_vertex_value(self, table_10k):
        m = farey_cardinality(12, table_10k)
        approx = asymptotic_index_half(12, 3, m)
        assert approx == pytest.approx(27.1476, abs=1e-4)
        true = rank_oracle(12, Fraction(4, 7)).rank
        assert abs(approx - true) <= 12  # within C * N

    def test_half_vertex_regime_check(self, table_10k):
        # (q+1)/(2q+1) with q=6 is 7/13, outside F_12; use the largest member below it
        from fareysums.farey import enumerate_window

        window = enumerate_window(12, ZERO, Fraction(7, 13))
        target = window.fractions[-1]
        m = farey_cardinality(12, table_10k)
        approx = asymptotic_index_half(12, 6, m)
        assert abs(approx - rank_oracle(12, target).rank) <= 12

    def test_half_rank_symmetry_exact(self, table_10k):
        for n in range(2, 41):
            m = farey_cardinality(n, table_10k)
            assert rank_oracle(n, Fraction(1, 2)).rank * 2 == m + 1
