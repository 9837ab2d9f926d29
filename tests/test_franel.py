from fractions import Fraction as Rat
from math import log
from random import Random

import pytest

from fareysums.arith import Fraction, INFINITY, ONE, ZERO
from fareysums.errors import BudgetError, PreconditionError
from fareysums.farey import farey_neighbors, rank_fast
from fareysums.franel import (
    dress_scan,
    dress_scan_sweep,
    full_franel_sum,
    growth_scan,
    kanemitsu_sum,
    partial_franel_sum_range,
    vertex_partial_sum,
)
from oracles import brute_deviation_sum, brute_farey


class TestFullSum:
    @pytest.mark.parametrize("n,expected", [(3, Rat(1, 2)), (1, Rat(1, 2)), (5, Rat(59, 110))])
    def test_exact_spot_values(self, n, expected):
        result = full_franel_sum(n)
        assert result.sum_exact == expected
        assert result.sum_float == pytest.approx(float(expected), rel=1e-12)

    def test_matches_brute_accumulation_to_40(self):
        for n in range(1, 41):
            result = full_franel_sum(n)
            assert result.sum_exact == brute_deviation_sum(n, Rat(0), Rat(1))

    def test_float_tracks_exact_to_100(self):
        for n in range(1, 101):
            result = full_franel_sum(n, exact_budget=10_000)
            assert result.sum_exact is not None
            rel = abs(result.sum_float - float(result.sum_exact)) / max(float(result.sum_exact), 1.0)
            assert rel <= 1e-9
            assert result.sum_float >= 0

    def test_max_term_and_argmax(self):
        result = full_franel_sum(5)
        seq = brute_farey(5)
        m = len(seq)
        devs = [abs(x - Rat(j, m)) for j, x in enumerate(seq, start=1)]
        top = max(devs)
        assert result.max_term == pytest.approx(float(top), rel=1e-12)
        assert devs[result.argmax_rank - 1] == top

    def test_term_count_and_ranks(self):
        result = full_franel_sum(6)
        assert result.term_count == 13
        assert (result.rank_lo, result.rank_hi) == (1, 13)

    def test_exact_mode_budget_cutoff(self):
        result = full_franel_sum(20, exact_budget=5)
        assert result.sum_exact is None
        assert result.sum_float > 0

    def test_term_budget(self):
        with pytest.raises(BudgetError):
            full_franel_sum(100, term_budget=100)


class TestPartialSums:
    def test_prefix_example(self):
        result = partial_franel_sum_range(6, ZERO, Fraction(1, 3), 1)
        assert result.term_count == 5
        assert result.sum_exact == brute_deviation_sum(6, Rat(0), Rat(1, 3))

    def test_whole_range_equals_full(self):
        full = full_franel_sum(3)
        part = partial_franel_sum_range(3, ZERO, ONE, 1)
        assert part.sum_exact == full.sum_exact == Rat(1, 2)

    def test_upper_half_by_rank_anchor(self):
        anchor = rank_fast(6, Fraction(1, 2)).rank
        result = partial_franel_sum_range(6, Fraction(1, 2), ONE, anchor)
        assert (result.rank_lo, result.rank_hi) == (7, 13)
        assert result.sum_exact == brute_deviation_sum(6, Rat(1, 2), Rat(1))

    def test_anchor_spot_check(self):
        with pytest.raises(PreconditionError):
            partial_franel_sum_range(6, Fraction(1, 2), ONE, 3)

    def test_anchor_checked_at_large_orders(self):
        n = 200_000
        half = Fraction(1, 2)
        anchor = rank_fast(n, half).rank
        result = partial_franel_sum_range(n, half, half, anchor)
        assert (result.rank_lo, result.term_count) == (anchor, 1)
        with pytest.raises(PreconditionError, match="anchor rank"):
            partial_franel_sum_range(n, half, half, anchor + 1)

    def test_rejects_anchor_not_in_sequence(self):
        with pytest.raises(PreconditionError):
            partial_franel_sum_range(6, Fraction(1, 7), ONE, 2)

    def test_whole_equals_sum_of_parts(self):
        rng = Random(314)
        for _ in range(20):
            n = rng.randint(2, 100)
            seq = brute_farey(n)
            split = rng.randrange(len(seq) - 1)
            x = seq[split]
            fx = Fraction(x.numerator, x.denominator)
            _, nxt = farey_neighbors(n, fx)
            left = partial_franel_sum_range(n, ZERO, fx, 1)
            anchor = split + 2  # rank of the successor
            right = partial_franel_sum_range(n, nxt, ONE, anchor)
            assert left.sum_exact + right.sum_exact == full_franel_sum(n).sum_exact

    def test_mirror_law(self):
        # reflecting about 1/2 sends the deviation at rank j against j/M to the
        # deviation against (j-1)/M, so halves agree only up to term_count/M
        for n in (5, 12, 37):
            seq = brute_farey(n)
            m = len(seq)
            lower = partial_franel_sum_range(n, ZERO, Fraction(1, 2), 1)
            anchor = rank_fast(n, Fraction(1, 2)).rank
            upper = partial_franel_sum_range(n, Fraction(1, 2), ONE, anchor)
            shifted = sum(
                (abs(x - Rat(j - 1, m)) for j, x in enumerate(seq, start=1) if 2 * x.numerator <= x.denominator),
                start=Rat(0),
            )
            assert upper.sum_exact == shifted
            assert abs(lower.sum_exact - upper.sum_exact) <= Rat(lower.term_count, m)


class TestVertexSections:
    def test_zero_vertex_section(self):
        section = vertex_partial_sum(ZERO, INFINITY, 6)
        assert section.order == 60
        assert (section.result.lo, section.result.hi) == (ZERO, Fraction(1, 10))
        assert section.result.rank_lo == 1
        assert section.predicted is None
        assert section.sum_over_log == pytest.approx(section.result.sum_float / log(60), rel=1e-12)
        assert section.result.sum_exact == brute_deviation_sum(60, Rat(0), Rat(1, 10))

    def test_half_vertex_section(self):
        section = vertex_partial_sum(Fraction(1, 2), ONE, 4)
        assert section.order == 24
        assert (section.result.lo, section.result.hi) == (Fraction(1, 2), Fraction(4, 7))
        assert section.result.sum_exact == brute_deviation_sum(24, Rat(1, 2), Rat(4, 7))

    def test_half_vertex_descending_side(self):
        section = vertex_partial_sum(Fraction(1, 2), ZERO, 4)
        assert (section.result.lo, section.result.hi) == (Fraction(3, 7), Fraction(1, 2))

    def test_eta_three_prediction(self):
        section = vertex_partial_sum(Fraction(1, 3), Fraction(1, 2), 4)
        assert section.order == 36
        assert section.predicted is not None and section.predicted > 0
        assert section.measured_over_predicted == pytest.approx(
            section.result.sum_float / section.predicted, rel=1e-12
        )
        assert section.result.sum_exact == brute_deviation_sum(36, Rat(1, 3), Rat(4, 11))

    def test_rejects_tiny_i(self):
        with pytest.raises(PreconditionError):
            vertex_partial_sum(ZERO, INFINITY, 1)

    def test_rejects_non_adjacent(self):
        with pytest.raises(PreconditionError):
            vertex_partial_sum(Fraction(1, 3), Fraction(2, 3), 4)


class TestGrowthScan:
    def test_single_row_matches_section(self):
        scan = growth_scan(ZERO, INFINITY, [4])
        section = vertex_partial_sum(ZERO, INFINITY, 4)
        assert scan.rows[0].order == section.order
        assert scan.rows[0].result.sum_float == section.result.sum_float

    def test_rows_ascend_and_dedupe(self):
        scan = growth_scan(ZERO, INFINITY, [6, 4, 6])
        assert [row.i for row in scan.rows] == [4, 6]
        assert scan.rows[0].order < scan.rows[1].order

    def test_ratio_is_bounded_for_small_sweep(self):
        scan = growth_scan(Fraction(1, 2), ONE, [4, 6, 8])
        col = [row.sum_over_log for row in scan.rows]
        assert max(col) / min(col) <= 10


class TestKanemitsu:
    def test_spot_values(self):
        assert kanemitsu_sum(5).sum_exact == Rat(9, 220)
        assert kanemitsu_sum(4).sum_exact == Rat(-1, 28)

    def test_matches_brute(self):
        for n in range(4, 60, 5):
            seq = brute_farey(n)
            m = len(seq)
            r = sum(1 for x in seq if x <= Rat(1, 4))
            expected = sum(
                (x - Rat(r, 2 * m) for x in seq[:r]),
                start=Rat(0),
            )
            got = kanemitsu_sum(n)
            assert got.sum_exact == expected
            assert got.prefix_rank == r
            assert got.cardinality == m

    def test_growth_is_visibly_sublinear(self):
        values = {n: abs(kanemitsu_sum(n).sum_float) for n in (50, 100, 200, 400)}
        assert values[400] / 400 < values[50] / 50

    def test_rejects_small_order(self):
        with pytest.raises(PreconditionError):
            kanemitsu_sum(3)


class TestDress:
    def test_order_six(self):
        report = dress_scan(6)
        assert report.bound_ok
        assert report.max_term <= 1 / 6
        assert report.rank2_term == pytest.approx(1 / 78, rel=1e-12)

    def test_order_two(self):
        report = dress_scan(2)
        assert report.max_term == pytest.approx(1 / 3, rel=1e-12)
        assert report.bound_ok

    def test_order_one(self):
        report = dress_scan(1)
        assert report.max_term == pytest.approx(1 / 2, rel=1e-12)
        assert report.bound_ok

    def test_matches_brute(self):
        for n in (3, 10, 33):
            seq = brute_farey(n)
            m = len(seq)
            devs = [abs(x - Rat(j, m)) for j, x in enumerate(seq, start=1)]
            report = dress_scan(n)
            assert report.max_term == pytest.approx(float(max(devs)), rel=1e-12)
            assert devs[report.argmax_rank - 1] == max(devs)
            assert report.bound_ok == (max(devs) <= Rat(1, n))

    def test_sweep_matches_single_scans(self):
        sweep = dress_scan_sweep(80)
        assert sweep.all_ok and not sweep.violations
        assert sweep.worst_ratio <= 1.0
        report = dress_scan(sweep.worst_order)
        assert report.max_term * sweep.worst_order == pytest.approx(sweep.worst_ratio, rel=1e-9)

    def test_sweep_budget(self):
        with pytest.raises(BudgetError):
            dress_scan_sweep(100_000)
