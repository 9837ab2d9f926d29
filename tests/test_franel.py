import tracemalloc
import weakref
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction as Rat
from itertools import islice
from math import isclose, lcm, log, prod
from random import Random
from unittest.mock import Mock, patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fareysums import franel
from fareysums.arith import Fraction, INFINITY, ONE, ZERO
from fareysums.errors import BudgetError, PreconditionError
from fareysums.farey import farey_neighbors, iter_window, rank_fast
from fareysums.franel import (
    EXACT_MODE_BUDGET,
    dress_scan,
    dress_scan_sweep,
    full_franel_sum,
    growth_scan,
    kanemitsu_sum,
    partial_franel_sum_range,
    vertex_partial_sum,
)
from fareysums.mapping import MapParams
from fareysums.totient import DEFAULT_TABLE_LIMIT, THREE_OVER_PI_SQ, build_totient_table, mobius_upto
from oracles import brute_deviation_sum, brute_farey, stream_deviations

# chunk sizes from a few terms, so that chunk boundaries (and exact ties of
# the maximum across them) fall inside the windows, up to the default
_slice_sizes = st.sampled_from([1, 2, 3, 7, 64, franel._SLICE_TERMS])
# the members by streaming, by value slices or by rows of the map
_PATHS = ["stream", "slices", "rows"]
_paths = st.sampled_from(_PATHS)


def _slice_size(size: int, count: int) -> int:
    """size, raised so that a window of count terms is cut into at most 64 slices."""
    return max(size, -(-count // 64))


def _is_prefix(lo: Fraction, hi: Fraction) -> bool:
    """Whether [lo, hi] is a window [0/1, 1/M] with M >= 2, the only kind rows enumerate."""
    return lo == ZERO and hi.num == 1 and hi.den >= 2


@contextmanager
def _enumeration(path: str, size: int):
    """Force the kernel's enumeration, with chunks of at most size terms.

    Rows are forced only on the windows they serve, [0/1, 1/M]; on any other
    window "rows" takes value slices.
    """
    def forced(n, lo, hi, count):
        return path if path != "rows" or _is_prefix(lo, hi) else "slices"

    with patch.object(franel, "_SLICE_TERMS", size), patch.object(franel, "_path", forced):
        yield


@contextmanager
def _grouping(dense: int, folded: bool = False):
    """Force the D_k into a dense array of `dense` entries, or into sorted groups when it is 0.

    folded starts each reduction's bound on sum|dev| at 2**63 - 1, so that
    its D_k are folded at the first nonzero deviation, and every later
    deviation enters as q*k + r.
    """
    reduction = franel._Reduction

    def forced(*args):
        red = reduction(*args[:-1], dense)
        if folded:
            red.dev_bound = (1 << 63) - 1
        return red

    with patch.object(franel, "_Reduction", side_effect=forced):
        yield


def _first_order(bound: int) -> int:
    """The least n with n*|F_n| >= bound, by binary search with rank_fast(n, 1/1) = |F_n|."""
    # |F_n| is about 3*n**2/pi**2, so 1.01 times the root of that estimate is past the answer
    below, above = 1, int(1.01 * (bound / THREE_OVER_PI_SQ) ** (1 / 3))
    assert above * rank_fast(above, ONE).rank >= bound
    while above - below > 1:
        mid = (below + above) // 2
        if mid * rank_fast(mid, ONE).rank >= bound:
            above = mid
        else:
            below = mid
    return above


# 10*c with c odd and 100*c % 42 < 21: 2**62 + 6, the scale of the tests in
# which h*scale and j*k pass 2**64 while the deviations fit int64
_WRAP_C = 461_168_601_842_738_791


def _python_int_reduction(chunks, scale: int, mirrored: bool) -> tuple:
    """((dev, den, rank) of the largest term, the earliest at a tie, term count, exact sum) by Python ints.

    chunks are (first rank, hs, ks); a mirrored chunk's members also stand
    for their mirrors (k-h)/k at rank scale+1-j, 1/2 only once.
    """
    terms = []
    for first, hs, ks in chunks:
        for j, h, k in zip(range(first, first + len(hs)), hs, ks):
            terms.append((abs(h * scale - j * k), k * scale, j))
            if mirrored and 2 * h != k:
                terms.append((abs((k - h) * scale - (scale + 1 - j) * k), k * scale, scale + 1 - j))
    best = max(terms, key=lambda t: (Rat(t[0], t[1]), -t[2]))
    return best, len(terms), sum((Rat(dev, den) for dev, den, _ in terms), start=Rat(0))


@st.composite
def _fraction(draw, max_den: int, at_least: Fraction = ZERO) -> Fraction:
    """A fraction in [at_least, 1] with denominator up to max_den (the constructor reduces)."""
    q = draw(st.integers(1, max_den))
    return Fraction(draw(st.integers(-(-at_least.num * q // at_least.den), q)), q)


def _assert_matches_stream(result, want: dict) -> None:
    """Every FranelResult field against the streaming oracle: exact, or max_term to 1e-12.

    Both sum_floats are the correctly rounded exact sum, so they are compared
    bit for bit on every path.
    """
    assert result.term_count == want["term_count"]
    assert result.rank_hi == want["rank_hi"] == result.rank_lo + result.term_count - 1
    assert result.sum_exact == want["sum_exact"]
    assert result.sum_float == want["sum_float"]
    assert isclose(result.max_term, want["max_term"], rel_tol=1e-12, abs_tol=0.0)
    assert result.argmax_rank == want["argmax_rank"]


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

    @pytest.mark.parametrize("scan,hi", [(full_franel_sum, ONE), (dress_scan, ONE)])
    def test_term_budget(self, scan, hi):
        count = rank_fast(100, hi).rank
        with patch.object(franel, "_members", side_effect=AssertionError("enumerated")):
            with pytest.raises(BudgetError, match=f"at order 100 needs {count} terms, over budget 100$"):
                scan(100, term_budget=100)

    def test_table_budget_refuses_the_order_before_any_rank(self):
        n = DEFAULT_TABLE_LIMIT + 1
        with patch.object(franel, "rank_fast", side_effect=AssertionError("ranked")):
            with pytest.raises(BudgetError, match=f"totient table needs {n} entries, over budget {DEFAULT_TABLE_LIMIT}$"):
                partial_franel_sum_range(n, ZERO, Fraction(1, n))

    def test_a_short_table_is_refused_before_any_rank(self):
        table = build_totient_table(100, budget=100)
        with patch.object(franel, "rank_fast", side_effect=AssertionError("ranked")), \
                patch.object(franel, "build_totient_table", side_effect=AssertionError("sieved")):
            with pytest.raises(BudgetError, match="table up to 100 is shorter than the order 840"):
                partial_franel_sum_range(840, Fraction(1, 3), Fraction(1, 2), None, table)


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

    def test_anchor_is_optional(self):
        for n, lo, hi in ((6, Fraction(1, 2), ONE), (37, Fraction(2, 7), Fraction(5, 9))):
            anchored = partial_franel_sum_range(n, lo, hi, rank_fast(n, lo).rank)
            assert partial_franel_sum_range(n, lo, hi) == anchored
            assert partial_franel_sum_range(n, lo, hi, None) == anchored
            with pytest.raises(PreconditionError, match="anchor rank"):
                partial_franel_sum_range(n, lo, hi, anchored.rank_lo - 1)

    def test_over_budget_refused_before_any_term(self):
        n, lo, hi = 1000, Fraction(1, 3), Fraction(1, 2)
        count = rank_fast(n, hi).rank - rank_fast(n, lo).rank + 1
        limit = count - 1
        with patch.object(franel, "_members", side_effect=AssertionError("enumerated")):
            with pytest.raises(BudgetError, match=f"at order {n} needs {count} terms, over budget {limit}$"):
                partial_franel_sum_range(n, lo, hi, term_budget=limit)
        assert partial_franel_sum_range(n, lo, hi, term_budget=count).term_count == count

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

    @pytest.mark.parametrize(
        "vertex,co_vertex",
        [
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(1, 3), Fraction(1, 5)),
            (Fraction(1, 2), INFINITY),
            (INFINITY, ZERO),
            (ZERO, ONE),  # vertex 0/1 takes the co-vertex 1/0
        ],
    )
    def test_refuses_the_pairs_map_params_refuses(self, vertex, co_vertex):
        with pytest.raises(PreconditionError) as by_params:
            MapParams(vertex, co_vertex, 3, 4, 12 * vertex.den)
        with pytest.raises(PreconditionError) as by_section:
            vertex_partial_sum(vertex, co_vertex, 4)
        assert str(by_section.value) == str(by_params.value)


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

    def test_sieves_one_table_at_the_largest_order(self):
        with patch.object(franel, "build_totient_table", wraps=build_totient_table) as sieve:
            scan = growth_scan(ZERO, INFINITY, [4, 6, 8, 10, 12])
        assert [call.args for call in sieve.call_args_list] == [(27720,)]
        assert [row.order for row in scan.rows] == [12, 60, 840, 2520, 27720]

    def test_ratio_is_bounded_for_small_sweep(self):
        scan = growth_scan(Fraction(1, 2), ONE, [4, 6, 8])
        col = [row.sum_over_log for row in scan.rows]
        assert max(col) / min(col) <= 10


class TestKanemitsu:
    def test_spot_values(self):
        assert kanemitsu_sum(5).sum_exact == Rat(9, 220)
        assert kanemitsu_sum(4).sum_exact == Rat(-1, 28)

    def test_a_handed_over_table_is_freed_before_the_sums(self, monkeypatch):
        # kanemitsu_sum reads only |F_n| from its table and then drops it
        refs, alive, sums = [], [], franel._prefix_sums

        def table(n):
            built = build_totient_table(n)
            refs.append(weakref.ref(built))
            return built

        def prefix_sums(n):
            alive.append(refs[-1]() is not None)
            return sums(n)

        monkeypatch.setattr(franel, "_prefix_sums", prefix_sums)
        kept = table(100)  # a table its caller still holds stays alive
        want = kanemitsu_sum(100, kept)
        got = kanemitsu_sum(100, table(100))  # not inside an assert, whose rewrite names the argument
        assert got == want and alive == [True, False]

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

    def test_enumerates_nothing(self):
        with patch.object(franel, "_members", side_effect=AssertionError("enumerated")), \
                patch.object(franel, "iter_window", side_effect=AssertionError("streamed")):
            got = kanemitsu_sum(2520)
        assert got.prefix_rank == 482_613

    def test_term_budget_counts_cells_before_any_sieve(self):
        # n*ln(n) cells: about 460.5 at n = 100
        with patch.object(franel, "build_totient_table", side_effect=AssertionError("sieved")), \
                patch.object(franel, "mobius_upto", side_effect=AssertionError("sieved mu")), \
                patch.object(franel, "rank_fast", side_effect=AssertionError("ranked")):
            with pytest.raises(BudgetError, match="order 100 needs about 461 cells, over budget 460$"):
                kanemitsu_sum(100, term_budget=460)
        assert kanemitsu_sum(100, term_budget=461).prefix_rank == rank_fast(100, Fraction(1, 4)).rank


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

    def test_sweep_reports_every_order_past_the_bound(self, monkeypatch):
        # orders 3 and 5 deviate past 1/N (3*1 > 2, 5*2 > 5); 5 by the most
        maxima = [(2, 1, 4), (3, 1, 2), (4, 1, 8), (5, 2, 5)]
        monkeypatch.setattr(franel, "_sweep_maxima", lambda n_max, table=None: iter(maxima))
        sweep = dress_scan_sweep(5)
        assert (sweep.all_ok, sweep.violations) == (False, [3, 5])
        assert (sweep.worst_ratio, sweep.worst_order) == (2.0, 5)

    def test_sweep_maxima_are_the_exact_per_order_maxima(self):
        orders, met_in_lower_half = [], set()
        for n, dev, den in franel._sweep_maxima(200):
            orders.append(n)
            m = rank_fast(n, ONE).rank
            # dress_scan's scan: the exact maximum over every rank, and its earliest rank
            red = franel._scan(n, ZERO, ONE, 1, m, m)
            assert (dev, den) == (red.best_dev, red.best_den)
            met_in_lower_half.add(2 * red.best_rank <= m + 1)
        assert orders == list(range(2, 201))
        # some orders reach their maximum in [0, 1/2], others only by the mirror past 1/2
        assert met_in_lower_half == {True, False}

    @pytest.mark.parametrize("block", [1, 10**9])
    def test_sweep_maxima_do_not_depend_on_the_block_size(self, block, monkeypatch):
        want = list(franel._sweep_maxima(300))
        # one member per block, and one block for all 13 700 members
        monkeypatch.setattr(franel, "_sweep_block", lambda n_max: block)
        assert list(franel._sweep_maxima(300)) == want

    @pytest.mark.parametrize("cells,passes", [(1, [1] * 299), (10**12, [299])])
    def test_sweep_maxima_do_not_depend_on_the_batch(self, cells, passes, monkeypatch):
        want = list(franel._sweep_maxima(300))
        # each of the 299 orders in a pass of its own, with one picked block a
        # gather, or all of them in one pass and one gather
        sizes = []
        reaching = franel._reaching_blocks

        def spy(orders, *args):
            sizes.append(orders.size)
            return reaching(orders, *args)

        monkeypatch.setattr(franel, "_SLICE_TERMS", cells)
        monkeypatch.setattr(franel, "_reaching_blocks", spy)
        assert list(franel._sweep_maxima(300)) == want
        assert sizes == passes

    @pytest.mark.parametrize("width", [1, 2, 5, 17])
    def test_reaching_blocks_hold_every_member_that_reaches_a_threshold(self, width):
        n_max = 40
        half = [x for x in brute_farey(n_max) if 2 * x <= 1]
        hs = np.array([x.numerator for x in half])
        ks = np.array([x.denominator for x in half])
        vals = hs / ks
        starts = list(range(0, len(half), width))
        v_lo, v_hi = vals[starts], vals[[min(b + width, len(half)) - 1 for b in starts]]
        orders = np.arange(2, n_max + 1)
        kept = ks <= orders[:, None]
        counts = np.add.reduceat(kept, starts, axis=1, dtype=np.int64)
        rows, blocks, before, ms = franel._reaching_blocks(orders, counts, v_lo, v_hi)
        picked = set(zip(rows.tolist(), blocks.tolist()))
        for i, n in enumerate(orders.tolist()):
            m = 2 * int(kept[i].sum()) - 1
            ranks = np.cumsum(kept[i])
            assert ms[i, 0] == m and before[i].tolist() == [int(ranks[b] - kept[i, b]) for b in starts]
            # the sweep's float terms and thresholds, and the exact ones of the candidate 1/n - 1/m
            terms = vals - ranks / m
            high, low = franel._reaching(n, m)
            c = Rat(1, n) - Rat(1, m)
            devs = {}
            for j in np.flatnonzero(kept[i]).tolist():
                d = half[j] - Rat(int(ranks[j]), m)
                devs[j] = max(abs(d), abs(d + Rat(1, m)))
                if d >= c - Rat(1, m) or d <= -c:
                    assert terms[j] >= high or terms[j] <= low
                if terms[j] >= high or terms[j] <= low:
                    assert (i, j // width) in picked
            # the maximum is at least c, and the members holding it pass the thresholds exactly
            top = max(devs.values())
            assert top >= c
            for j, dev in devs.items():
                if dev == top:
                    d = half[j] - Rat(int(ranks[j]), m)
                    assert d >= c - Rat(1, m) or d <= -c
        if width <= 5:
            # blocks of at most n_max//8 members prune: under a tenth of the live ones are picked
            assert 10 * len(picked) < np.count_nonzero(counts)


    @pytest.mark.parametrize("n_max,worst_ratio", [(1000, 0.9967126133737463), (2000, 0.9983560594416027)])
    def test_sweep_worst_ratio(self, n_max, worst_ratio):
        sweep = dress_scan_sweep(n_max)
        assert sweep.all_ok and sweep.violations == []
        assert (sweep.worst_ratio, sweep.worst_order) == (worst_ratio, n_max)

    def test_half_is_the_brute_half(self):
        # the sweep's members: F_n in [0, 1/2], reduced and ascending, as int32 (none at n = 0)
        upper = [(x.numerator, x.denominator) for x in brute_farey(120) if 2 * x <= 1]
        for n in range(121):
            hs, ks = franel._half(n)
            assert hs.dtype == ks.dtype == np.int32
            assert list(zip(hs.tolist(), ks.tolist())) == [(h, k) for h, k in upper if k <= n]

    def test_sweep_takes_its_half_from_rows_and_checks_its_count(self, monkeypatch):
        want = dress_scan_sweep(300)
        for name in ("_path", "_members"):
            monkeypatch.setattr(franel, name, Mock(side_effect=AssertionError(name)))
        assert dress_scan_sweep(300) == want
        # one member short at n_max only: `_rows` builds its preimage by `_half` too
        half = franel._half
        monkeypatch.setattr(franel, "_half", lambda n: tuple(a[1:] for a in half(n)) if n == 300 else half(n))
        with pytest.raises(PreconditionError, match=r"rows gave 13699 members .* the table gives 13700"):
            dress_scan_sweep(300)

    @pytest.mark.parametrize("path", _PATHS)
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_scan_checks_its_enumeration_against_the_ranks(self, path, extra, monkeypatch):
        # F_6 holds 7 members in [0, 1/2]; the last chunk loses its last member or gains a copy of its first
        members = franel._members

        def miscounted(*args):
            chunks = list(members(*args))
            position, hs, ks = chunks[-1]
            cut = hs.size + min(extra, 0)
            chunks[-1] = position, np.resize(hs, cut + max(extra, 0)), np.resize(ks, cut + max(extra, 0))
            yield from chunks

        monkeypatch.setattr(franel, "_members", miscounted)
        with _enumeration(path, franel._SLICE_TERMS):
            with pytest.raises(PreconditionError, match=f"enumerated {7 + extra} members .* the ranks give 7"):
                dress_scan(6)

    def test_the_sweep_budget_keeps_the_rows_within_their_cap(self):
        # the largest n_max whose half (|F_n| + 1)//2 is within the budget, by binary
        # search with rank_fast(n, 1/1) = |F_n|; its rows' preimage is F_{n_max//2} in [0, 1/2]
        def half(n: int) -> int:
            return (rank_fast(n, ONE).rank + 1) // 2

        below, above = 1, 2 * int((franel.SWEEP_MEMBER_BUDGET / THREE_OVER_PI_SQ) ** 0.5)
        assert half(above) > franel.SWEEP_MEMBER_BUDGET
        while above - below > 1:
            mid = (below + above) // 2
            if half(mid) > franel.SWEEP_MEMBER_BUDGET:
                above = mid
            else:
                below = mid
        assert below == 3627
        assert half(below // 2) <= franel._ROW_CAP

    def test_sweep_budget(self, monkeypatch):
        with pytest.raises(BudgetError):
            dress_scan_sweep(100_000)
        # a buffer holds the 13 700 members of F_300 in [0, 1/2], not all 27 399
        monkeypatch.setattr(franel, "SWEEP_MEMBER_BUDGET", 13_700)
        assert dress_scan_sweep(300).all_ok
        monkeypatch.setattr(franel, "SWEEP_MEMBER_BUDGET", 13_699)
        with pytest.raises(BudgetError, match=r"sweep to 300 needs 13700 members of F_300 in \[0, 1/2\], over budget 13699$"):
            dress_scan_sweep(300)

    def test_sweep_refuses_a_short_table(self):
        with pytest.raises(BudgetError, match="shorter than the order 300"):
            dress_scan_sweep(300, build_totient_table(299))
        assert dress_scan_sweep(300, build_totient_table(300)) == dress_scan_sweep(300)

    def test_sweep_matches_brute_force_to_60(self):
        violations: list[int] = []
        worst_ratio, worst_order = Rat(-1), 0
        for order in range(1, 61):
            seq = brute_farey(order)
            m = len(seq)
            top = max(abs(x - Rat(j, m)) for j, x in enumerate(seq, start=1))
            if top > Rat(1, order):
                violations.append(order)
            if order * top > worst_ratio:
                worst_ratio, worst_order = order * top, order
            sweep = dress_scan_sweep(order)
            assert sweep.violations == violations
            assert sweep.all_ok == (not violations)
            assert sweep.worst_ratio == float(worst_ratio)
            assert sweep.worst_order == worst_order


class TestOneAccumulator:
    """sum_float, from the per-denominator sums, is the correctly rounded exact sum on every path."""

    @staticmethod
    def _sums(n: int, kind: str, lo: Fraction, hi: Fraction, budget: int = 10**9) -> tuple:
        """(sum_exact, sum_float) of a window, a whole scan or a signed Kanemitsu prefix, at any count."""
        if kind == "window":
            result = partial_franel_sum_range(n, lo, hi, exact_budget=budget)
        elif kind == "whole":
            result = full_franel_sum(n, exact_budget=budget)
        else:
            with patch.object(franel, "EXACT_MODE_BUDGET", budget):
                result = kanemitsu_sum(n)
        return result.sum_exact, result.sum_float

    @settings(deadline=None, max_examples=100)
    @given(
        st.data(),
        st.integers(1, 300),
        st.sampled_from(["window", "whole", "kanemitsu"]),
        _slice_sizes,
        _paths,
        st.sampled_from(["dense", "sorted", "folded"]),
    )
    def test_sum_float_is_the_float_of_the_exact_sum(self, data, n, kind, size, path, grouping):
        lo = data.draw(_fraction(n))
        hi = data.draw(_fraction(n, at_least=lo))
        if kind == "kanemitsu":  # not a scan: no enumeration or grouping reaches its sums
            exact, got = self._sums(max(n, 4), kind, lo, hi)
        else:
            with _enumeration(path, _slice_size(size, rank_fast(n, ONE).rank)), \
                    _grouping(n + 1 if grouping == "dense" else 0, grouping == "folded"):
                exact, got = self._sums(n, kind, lo, hi)
        assert got == float(exact)

    @pytest.mark.parametrize("kind", ["window", "whole", "kanemitsu"])
    def test_the_exact_fallback_when_no_digit_is_added(self, kind):
        # with no digit the interval [W, W + G) is too wide to round to one
        # float, so the float of the exact sum decides, and it must agree: the
        # reported exact sum when the count is within the budget, else one of its own
        n, lo, hi = 150, Fraction(2, 7), Fraction(5, 8)
        calls = []
        for digits, budget in ((franel._DIGITS, 10**9), (0, 10**9), (franel._DIGITS, 0), (0, 0)):
            with patch.object(franel, "_DIGITS", digits), patch.object(
                franel._Reduction, "sum_exact", autospec=True, side_effect=franel._Reduction.sum_exact
            ) as exact:
                calls.append(self._sums(n, kind, lo, hi, budget) + (exact.call_count,))
        want_exact, want, _ = calls[0]
        assert [got_exact for got_exact, _, _ in calls] == [want_exact, want_exact, None, None]
        assert [got.hex() for _, got, _ in calls] == [float(want_exact).hex()] * 4
        assert [count for _, _, count in calls] == [1, 1, 0, 1]


class TestKernelAgainstStream:
    """The numpy kernel against the per-term loop of tests/oracles.py."""

    @settings(deadline=None, max_examples=60)
    @given(st.data(), _slice_sizes, _paths)
    def test_partial_sums(self, data, size, path):
        n = data.draw(st.integers(1, 300))
        if data.draw(st.booleans()):  # a prefix [0/1, 1/M], the windows rows serve
            lo, hi = ZERO, Fraction(1, data.draw(st.integers(2, 3 * n + 1)))
        else:
            lo = data.draw(_fraction(n))
            hi = data.draw(_fraction(3 * n, at_least=lo))
        count = rank_fast(n, hi).rank - rank_fast(n, lo).rank + 1
        with _enumeration(path, _slice_size(size, count)):
            result = partial_franel_sum_range(n, lo, hi)
        assert result.rank_lo == rank_fast(n, lo).rank
        m = rank_fast(n, ONE).rank
        want = stream_deviations(n, lo, hi, result.rank_lo, m, EXACT_MODE_BUDGET)
        _assert_matches_stream(result, want)

    @settings(deadline=None, max_examples=60)
    @given(st.data(), _slice_sizes, _paths)
    def test_windows_with_ends_between_members(self, data, size, path):
        n = data.draw(st.integers(1, 300))
        lo = data.draw(_fraction(3 * n))
        hi = data.draw(_fraction(3 * n, at_least=lo))
        m = rank_fast(n, ONE).rank
        rank_lo = rank_fast(n, lo).rank + (lo.den > n)  # the first member >= lo
        count = rank_fast(n, hi).rank - rank_lo + 1
        with _enumeration(path, _slice_size(size, count)):
            if count == 0:
                with pytest.raises(PreconditionError, match="no F_"):
                    franel._scan(n, lo, hi, rank_lo, count, m)
                return
            red = franel._scan(n, lo, hi, rank_lo, count, m)
        result = franel._franel_result(n, lo, hi, rank_lo, count, red, EXACT_MODE_BUDGET)
        _assert_matches_stream(result, stream_deviations(n, lo, hi, rank_lo, m, EXACT_MODE_BUDGET))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 200), _slice_sizes, _paths)
    def test_whole_sequence_scans(self, n, size, path):
        m = rank_fast(n, ONE).rank
        with _enumeration(path, _slice_size(size, m)):
            full = full_franel_sum(n)
            report = dress_scan(n)
        want = stream_deviations(n, ZERO, ONE, 1, m, EXACT_MODE_BUDGET)
        _assert_matches_stream(full, want)
        assert (report.max_term, report.argmax_rank) == (full.max_term, full.argmax_rank)
        dev, den = want["max_pair"]
        assert report.bound_ok == (dev * n <= den)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(4, 300))
    def test_prefix_sums(self, n):
        got = kanemitsu_sum(n)
        r, m = got.prefix_rank, got.cardinality
        assert (r, m) == (rank_fast(n, Fraction(1, 4)).rank, rank_fast(n, ONE).rank)
        want = stream_deviations(n, ZERO, Fraction(1, 4), 1, 2 * m, EXACT_MODE_BUDGET, fixed_rank=r)
        assert want["term_count"] == r
        assert got.sum_exact == want["sum_exact"]
        assert got.sum_float == want["sum_float"]

    @pytest.mark.parametrize("path", ["stream", "slices"])
    @pytest.mark.parametrize("size", [1, 2, 5, franel._SLICE_TERMS])
    @pytest.mark.parametrize(
        "n,lo,hi,ranks",
        [
            (10, (1, 9), (2, 9), (3, 8)),
            (14, (1, 13), (6, 13), (3, 32)),
            (39, (13, 38), (15, 38), (160, 190)),
        ],
    )
    def test_max_ties_go_to_the_earliest_rank(self, path, size, n, lo, hi, ranks):
        # the largest deviation of each window is attained exactly at both
        # ranks (no window [0/1, 1/M] below n = 400 has a tied maximum, so
        # rows meet ties only in the arrival-order test of TestMirroredScans)
        seq = brute_farey(n)
        devs = [abs(x - Rat(j, len(seq))) for j, x in enumerate(seq, start=1)]
        first, last = ranks
        assert devs[first - 1] == devs[last - 1] == max(devs[first - 1 : last])
        with _enumeration(path, size):
            result = partial_franel_sum_range(n, Fraction(*lo), Fraction(*hi))
        assert (result.rank_lo, result.rank_hi, result.argmax_rank) == (first, last, first)

    @pytest.mark.parametrize("path", _PATHS)
    def test_enumeration_is_checked_against_the_ranks(self, path):
        with _enumeration(path, franel._SLICE_TERMS):
            with pytest.raises(PreconditionError, match="enumerated 13 terms but the ranks give 12"):
                franel._scan(6, ZERO, ONE, 1, 12, 13)


class TestMirroredScans:
    """Scans of the whole of F_n enumerate F_n in [0, 1/2] and reduce each member twice."""

    @pytest.mark.parametrize("n", [1, 2, 12, 300])
    def test_only_the_lower_half_is_enumerated(self, n, monkeypatch):
        asked, enumerated = [], []
        members = franel._members

        def spy(order, lo, hi, count, path):
            asked.append((lo, hi, count))
            for position, hs, ks in members(order, lo, hi, count, path):
                enumerated.append(hs.size)
                yield position, hs, ks

        monkeypatch.setattr(franel, "_members", spy)
        m = rank_fast(n, ONE).rank
        full, report = full_franel_sum(n), dress_scan(n)
        half = (m + 1) // 2
        assert asked == [(ZERO, Fraction(1, 2), half)] * 2
        assert sum(enumerated) == 2 * half
        _assert_matches_stream(full, stream_deviations(n, ZERO, ONE, 1, m, EXACT_MODE_BUDGET))
        assert (report.max_term, report.argmax_rank) == (full.max_term, full.argmax_rank)

    def test_ranks_run_on_across_chunks(self):
        # the 151 324 members of F_997 in [0, 1/2] take three chunks, and the
        # largest deviation is at the mirrored rank |F_997| - 1
        assert 302_648 // 2 > 2 * franel._SLICE_TERMS
        full = full_franel_sum(997)
        assert (full.rank_lo, full.rank_hi, full.term_count, full.sum_exact) == (1, 302_647, 302_647, None)
        assert full.sum_float == float.fromhex("0x1.4abe8417edaa8p+2")
        assert full.max_term == float.fromhex("0x1.06110e813ab64p-10")
        assert full.argmax_rank == 302_646
        rank2_term = float.fromhex("0x1.053351224c574p-10")
        assert dress_scan(997) == franel.DressReport(997, full.max_term, 302_646, True, rank2_term)

    def test_max_ties_go_to_the_earliest_rank_in_any_arrival_order(self):
        # a chunk's mirrors arrive at descending ranks, before the next chunk's
        # members at lower ranks; no whole-sequence maximum ties below n = 1200
        red = franel._Reduction(1, 10, True)
        red._take(3, 10, 9)
        red._take(3, 10, 8)
        assert red.best_rank == 8
        red._take(3, 10, 4)
        red._take(2, 10, 5)
        assert (red.best_dev, red.best_den, red.best_rank) == (3, 10, 4)
        # rows hand whole chunks over from the top down: 3/10 at ranks 5 and
        # 6, then again at rank 2
        red = franel._Reduction(1, 10, False)
        red.add(5, np.array([8, 9]), np.array([10, 10]))
        assert (red.best_dev, red.best_den, red.best_rank) == (30, 100, 5)
        red.add(1, np.array([0, 5]), np.array([1, 10]))
        assert (red.best_dev, red.best_den, red.best_rank) == (30, 100, 2)

    @pytest.mark.parametrize("wrapping", [False, True])
    @pytest.mark.parametrize("rank,h,mirror_rank", [(3, 1, 8), (8, 3, 3)])
    def test_a_member_and_its_mirror_tie_in_one_chunk(self, wrapping, rank, h, mirror_rank):
        # at scale 10, h/4 at rank j and its mirror (4-h)/4 at rank 11-j both
        # deviate by exactly 2/40 (s = h*10 - 4*j = -2, |s + 4| = 2); the
        # earlier of the two ranks wins, whichever orientation holds it.
        # Wrapping: 4h/16 at rank (5*h*c + 1)/2 and scale 10*c (c = _WRAP_C)
        # tie at s = -8, while h*scale and j*k pass 2**64.
        c, t = (_WRAP_C, 4) if wrapping else (1, 1)
        scale, j = 10 * c, (5 * h * c + 1) // 2
        hs, ks = [t * h], [4 * t]
        assert wrapping == (hs[0] * scale >= 1 << 64 and j * ks[0] >= 1 << 64)
        red = franel._Reduction(1, scale, True)
        red.add(j, np.array(hs), np.array(ks))
        best, terms, total = _python_int_reduction([(j, hs, ks)], scale, True)
        assert (red.best_dev, red.best_den, red.best_rank) == best == (2 * t, 4 * t * scale, min(j, scale + 1 - j))
        assert best[2] == (j if rank < mirror_rank else scale + 1 - j)
        assert red.terms == terms == 2 and red.sum_exact() == total == Rat(1, scale)

    @pytest.mark.parametrize("wrapping", [False, True])
    def test_the_mirror_alone_can_hold_the_maximum(self, wrapping):
        # a/b at rank j and c/d at rank j + 1, with 2*j < scale*(a/b + c/d) <
        # 2*j + 1: a/b deviates by more than c/d, and the mirror of c/d at
        # rank scale - j by more than both (by 1/scale more than c/d).  At
        # scale 10: 1/7 by 4/70, 1/3 at rank 3 by 1/30 and 2/3 at rank 8 by
        # 4/30.  Wrapping: 5/16 and 6/17 at scale 10*_WRAP_C.
        scale, hs, ks = (10 * _WRAP_C, [5, 6], [16, 17]) if wrapping else (10, [1, 1], [7, 3])
        twice, den = scale * (hs[0] * ks[1] + hs[1] * ks[0]), ks[0] * ks[1]
        j = twice // (2 * den)
        assert 0 < twice - 2 * j * den < den
        assert wrapping == (min(hs) * scale >= 1 << 64 and j * min(ks) >= 1 << 64)
        red = franel._Reduction(1, scale, True)
        red.add(j, np.array(hs), np.array(ks))
        best, _, _ = _python_int_reduction([(j, hs, ks)], scale, True)
        assert (red.best_dev, red.best_den, red.best_rank) == best
        assert best[2] == scale - j
        assert wrapping or best == (4, 30, 8)

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_chunks_whose_products_wrap(self, mirrored):
        # members h/k within 1/(2k) of j/scale at scale 2**62 + 6, so each
        # |h*scale - j*k| <= scale/2 while h*scale and j*k pass 2**64; their
        # sum passes 2**63 in the first chunk, so the D_k are folded there
        scale, rng = 10 * _WRAP_C, Random(19)
        red = franel._Reduction(1, scale, mirrored)
        chunks = []
        for first, size in ((scale // 3, 40), (2 * scale // 7 - 50, 50), (scale // 3 + 40, 30)):
            ks = [rng.randint(12, 10_000) for _ in range(size)]
            hs = [(2 * k * j + scale) // (2 * scale) for j, k in zip(range(first, first + size), ks)]
            assert min(hs) * scale >= 1 << 64 and first * min(ks) >= 1 << 64
            assert all(2 * h < k and abs(h * scale - j * k) <= scale // 2 for j, h, k in zip(range(first, first + size), hs, ks))
            chunks.append((first, hs, ks))
            red.add(first, np.array(hs), np.array(ks))
        best, terms, total = _python_int_reduction(chunks, scale, mirrored)
        assert (red.best_dev, red.best_den, red.best_rank) == best
        assert red.terms == terms and red.dev_bound >= 1 << 63
        assert red.sum_exact() == total and red.sum_float() == float(total)

    @pytest.mark.parametrize("path", _PATHS)
    @pytest.mark.parametrize("n", [1, 2, 12, 60])
    def test_python_int_deviations(self, n, path):
        # the D_k folded from the first chunk, mirrored deviations too: each
        # enters as q*k + r, r into D_k and q into the Python-int whole part
        m = rank_fast(n, ONE).rank
        with _enumeration(path, 5), _grouping(n + 1, folded=True):
            full = full_franel_sum(n)
        _assert_matches_stream(full, stream_deviations(n, ZERO, ONE, 1, m, EXACT_MODE_BUDGET))

    def test_dress_scan_takes_no_float_sum(self):
        def refuse(red, ks, dev):
            raise AssertionError("dress_scan reports no sum")

        full = full_franel_sum(300)
        with patch.object(franel._Reduction, "_group", refuse):
            report = dress_scan(300)
        assert (report.max_term, report.argmax_rank) == (full.max_term, full.argmax_rank)


class TestExactSum:
    """The per-denominator exact sum, fed to _Reduction directly, against sum(Rat(d, k*scale))."""

    @staticmethod
    def _fed(chunks, scale=1, folded=False, dense=0):
        """A reduction keeping the D_k, fed (ks, devs) chunks, and the sum of its terms.

        folded starts its bound on sum|dev| at 2**63 - 1, as `_grouping` does.
        Both of its sums are checked against that sum on the way.
        """
        red = franel._Reduction(1, scale, False, dense)
        red.dev_bound = (1 << 63) - 1 if folded else 0
        for ks, devs in chunks:
            red._group(np.array(ks, dtype=np.int64), np.array(devs, dtype=np.int64))
        want = sum((Rat(d, k * scale) for ks, devs in chunks for k, d in zip(ks, devs)), start=Rat(0))
        assert red.sum_exact() == want
        assert red.sum_float() == float(want)
        return red, want

    @pytest.mark.parametrize("dense", [0, 8])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_int64_deviations_summing_past_two_to_the_63(self, chunked, dense):
        # D_3 = 2**64 + 24 would wrap in int64; the D_k must be folded first,
        # and each later deviation split, so that they stay int64 and exact.
        # Split in one chunk, 2**62 = 2**62*1 + 0 twice gives whole parts
        # whose sum, 2**63, would wrap in int64 too.
        for terms in (
            [(3, 2**62), (7, 2**62 - 1), (3, 2**62 + 5), (3, 11), (3, 2**62 + 1), (3, 2**62 + 7)],
            [(1, 2**62), (1, 2**62)],
        ):
            chunks = [([k], [d]) for k, d in terms] if chunked else [tuple(zip(*terms))]
            red, _ = self._fed(chunks, dense=dense)
            assert red.dev_bound >= 2**63 and red.sums.dtype == np.int64

    @pytest.mark.parametrize("dense", [0, 8])
    def test_int64_sums_up_to_their_edge(self, dense):
        # one term each: the bound on sum|dev| is exact, and 2**63 - 1 still fits
        terms = [([3], [2**62]), ([3], [2**62 - 2]), ([5], [1])]
        red, _ = self._fed(terms, dense=dense)
        assert red.dev_bound == 2**63 - 1
        assert red.sums.dtype == np.int64
        # one more passes 2**63, and D_3 = 2**63 would wrap: the D_k are folded
        # first, and stay int64 and exact
        red, _ = self._fed(terms + [([3], [2])], dense=dense)
        assert red.dev_bound == 2**63 + 1 and red.sums.dtype == np.int64

    def test_a_near_tie_falls_back_to_the_exact_sum(self):
        # r/p over four primes below 2**31 (r by the CRT) add up to 2 + 1/P,
        # P their product: the sum 2**53 + 1 + 1/P lies just above the
        # midpoint of 2**53 and 2**53 + 2, and its three-digit truncation 2
        # units of 2**-96 below that midpoint.  Only an interval of one unit
        # per remainder reaches past it, so the exact sum decides.
        primes = [2_147_483_647, 2_147_483_629, 2_147_483_587, 2_147_483_579]
        big = prod(primes)
        red, want = self._fed([([1, *primes], [2**53 - 1, *(pow(big // p, -1, p) for p in primes)])])
        assert want == 2**53 + 1 + Rat(1, big)
        assert red.sum_float() == 2.0**53 + 2

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(st.tuples(st.integers(1, 2**31 + 100), st.integers(0, 2**62)), min_size=1, max_size=30),
        st.integers(1, 2**62),
    )
    @example(terms=[(1, 2**62), (1, 2**62)], scale=1)  # folded whole parts summing to 2**63
    def test_a_given_exact_sum_gives_the_digits_float(self, terms, scale):
        # sum_float(exact) is float(exact), with no pass over the D_k: the same
        # bits as the digits give (or the exact sum, for k >= 2**31 or a near tie)
        red = franel._Reduction(1, scale, False)
        red._group(*(np.array(column, dtype=np.int64) for column in zip(*terms)))
        exact = red.sum_exact()
        assert exact == sum((Rat(d, k * scale) for k, d in terms), start=Rat(0))
        with patch.object(franel._Reduction, "_remainders", side_effect=AssertionError("read the D_k")):
            given = red.sum_float(exact)
        assert given == red.sum_float() == float(exact)

    @pytest.mark.parametrize(
        "primes",
        [
            # 2*p*q < 2**63: one int64 level adds p-1/p and q-1/q with a carry
            (2_147_483_629, 2_147_483_647),
            # p*q < 2**63 <= 2*p*q: an int64 level would wrap their numerator sum
            (3_037_000_453, 3_037_000_493),
            # 2*r**2 >= 2**63: every level is in Python ints
            (2_147_483_629, 2_147_483_647, 2_147_483_659),
        ],
    )
    def test_lcms_across_the_int64_level_bound(self, primes):
        assert franel._SMOOTH == lcm(*range(1, 41))
        ks = [3, 5, 7, 64, *primes]  # in the key's order: (3, 5), (7, 64), (p, q) pair first
        self._fed([(ks, [2 * k - 1 for k in ks])])

    @pytest.mark.parametrize("path", _PATHS)
    def test_one_term_chunks_sharing_a_few_denominators(self, path):
        n, m = 20, 129
        seq = brute_farey(n)
        want = sum((abs(x - Rat(j, m)) for j, x in enumerate(seq, start=1)), start=Rat(0))
        with _enumeration(path, 1):
            red = franel._scan(n, ZERO, ONE, 1, m, m)
        assert red.sum_exact() == want

    @pytest.mark.parametrize("path", _PATHS)
    def test_state_holds_one_entry_per_denominator(self, path, monkeypatch):
        n = 200
        m = rank_fast(n, ONE).rank
        assert m > EXACT_MODE_BUDGET
        seen, grouped, merges = set(), [], []
        group, merge = franel._Reduction._group, franel._Reduction._merge

        def spy_group(red, ks, dev):
            seen.update(ks.tolist())
            grouped.append(ks.size)
            group(red, ks, dev)

        def spy_merge(red):
            merged = red.keys.size + sum(ks.size for ks, _ in red.pending)
            merge(red)
            merges.append((merged, red.keys.size, red.sums.size, len(seen)))

        monkeypatch.setattr(franel._Reduction, "_group", spy_group)
        monkeypatch.setattr(franel._Reduction, "_merge", spy_merge)
        with _enumeration(path, 8), _grouping(0):
            result = full_franel_sum(n, exact_budget=m)
        # one grouping per chunk of about 8 members in [0, 1/2], each member's
        # deviation and its mirror's summed into one entry
        half = (m + 1) // 2
        assert sum(grouped) == half and len(grouped) > 700
        assert all(keys == sums == distinct for _, keys, sums, distinct in merges)
        assert merges[-1][1] <= n  # a value slice may stand for h/k by t*h/t*k
        # the chunks' groups wait until the D_k are read and merge once, so
        # the merge sorts each grouped entry once, not every denominator seen
        # for each chunk of 8
        assert len(merges) == 1 and sum(merged for merged, *_ in merges) <= 3 * sum(grouped)
        assert result.sum_exact == stream_deviations(n, ZERO, ONE, 1, m, m)["sum_exact"]

    def test_fold_reads_a_dense_state_a_block_at_a_time(self):
        # 10**6 nonzero D_k: a fold in one block would hold five int64 arrays of them (40 MB)
        n = 10**6
        red = franel._Reduction(1, 1, False, n + 1)
        red.sums[1:] = np.random.default_rng(1).integers(1, 1 << 62, n) * np.where(np.arange(n) % 3, 1, -1)
        want = np.frompyfunc(divmod, 2, 2)(red.sums[1:].astype(object), np.arange(1, n + 1).astype(object))
        tracemalloc.start()
        try:
            red._fold()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert (red.sums[1:] == want[1]).all() and red.sums[0] == 0
        assert red.whole == want[0].sum()

    def test_dense_from_an_eighth_of_n_plus_one_terms(self):
        # the dense array's n + 1 entries take at most 64 bytes a term, no
        # more than merging sorted groups holds at its peak
        n = 199
        fewest = (n + 1) // 8  # 25 terms: the fewest with 8*count >= n + 1, at equality
        ends = list(islice(iter_window(n, ZERO, ONE), fewest))
        made = []
        reduction = franel._Reduction

        def spy(*args):
            made.append(reduction(*args))
            return made[-1]

        with patch.object(franel, "_Reduction", side_effect=spy):
            for count in (fewest - 1, fewest):
                result = partial_franel_sum_range(n, ZERO, Fraction(*ends[count - 1]))
                assert result.term_count == count
                assert result.sum_float == float(result.sum_exact)
            full_franel_sum(n)
        assert [red.keys is None for red in made] == [False, True, True]
        assert made[0].keys.size == made[0].sums.size <= fewest - 1
        assert [red.sums.size for red in made[1:]] == [n + 1, n + 1]


class TestRows:
    """F_n in [0/1, 1/M] by rows of the paper's map, against the stream and pinned values."""

    @settings(deadline=None, max_examples=80)
    @given(st.data(), st.sampled_from([1, 2, 7, 64]))
    def test_chunks_against_the_stream(self, data, size):
        # every M from 2 to n + 1 (past n only 0/1 is left), and chunks of a
        # few members, so that bands, column pieces and empty rows all split
        n = data.draw(st.integers(1, 400))
        hi = Fraction(1, data.draw(st.integers(2, n + 1)))
        want = list(iter_window(n, ZERO, hi))
        # each band compressed by the cost model's choice, by its mask, or by flat indices
        for by_mask in (franel._by_mask, lambda kept: True, lambda kept: False):
            with _enumeration("rows", size), patch.object(franel, "_by_mask", by_mask):
                chunks = list(franel._members(n, ZERO, hi, len(want), "rows"))
            # from hi down, each chunk ascending and right below the one before
            end = len(want)
            for position, hs, ks in chunks:
                assert hs.dtype == ks.dtype == np.int32
                assert 1 <= hs.size <= size and position == end - hs.size
                assert list(zip(hs.tolist(), ks.tolist())) == want[position:end]
                end = position
            assert end == 0
            if hi == Fraction(1, 2) and n > 1:  # 1/2 ends the first chunk
                assert (chunks[0][1][-1], chunks[0][2][-1]) == (1, 2)

    @pytest.mark.parametrize(
        "n,count,sum_float,max_term,argmax_rank",
        [
            (2520, 1_930_455, "0x1.a786b2b4047e8p+2", "0x1.9f8ef41231b61p-12", 1_930_454),
            (5040, 7_721_657, "0x1.1d28676d3c0f8p+3", "0x1.9fd47a78f6817p-13", 7_721_656),
        ],
    )
    def test_whole_scans_keep_every_bit(self, n, count, sum_float, max_term, argmax_rank):
        # the values of the value slices, before rows served these scans
        with patch.object(franel, "_rows", wraps=franel._rows) as rows:
            full = full_franel_sum(n)
        assert rows.call_args_list[0].args == (n, 2)
        assert (full.term_count, full.argmax_rank) == (count, argmax_rank)
        assert (full.sum_float.hex(), full.max_term.hex()) == (sum_float, max_term)

    @pytest.mark.parametrize(
        "n,prefix_rank,sum_float",
        [
            (2520, 482_613, "0x1.3cf2a89c2abd7p-1"),
            (5040, 1_930_416, "0x1.6d574a8e75223p+0"),
            (20_000, 30_397_613, "0x1.8a119c8b11346p-3"),
            (50_000, 189_981_067, "0x1.9466efbc11b8bp-1"),
        ],
    )
    def test_kanemitsu_sums_keep_every_bit(self, n, prefix_rank, sum_float):
        # the correctly rounded exact sums, as the kernel's enumeration of the prefix gave them
        got = kanemitsu_sum(n)
        assert (got.prefix_rank, got.sum_float.hex()) == (prefix_rank, sum_float)

    def test_vertex_zero_section_keeps_every_bit(self):
        with patch.object(franel, "_rows", wraps=franel._rows) as rows:
            result = vertex_partial_sum(ZERO, INFINITY, 14).result
        assert rows.call_args_list[0].args == (360_360, 25_740)  # [0, 14/N] at N = lcm(2..14)
        assert (result.term_count, result.argmax_rank) == (1_530_254, 2)
        assert result.sum_float.hex() == "0x1.44a93a1182fb5p-1"
        assert result.max_term.hex() == "0x1.7472a0dd3b0c6p-19"

    def test_peak_memory_follows_the_cap(self):
        # F_2520 in [0, 1/2], 965 229 pairs, is the preimage half of a whole
        # scan at 5040, under the cap.  Building it holds its chunks and their
        # join (16 bytes a pair); the scan then holds the half (8 bytes a pair)
        # and one chunk's arrays, work arrays and band (well under 4 MiB).
        n = 5040
        m = rank_fast(n, ONE).rank
        assert franel._path(n, ZERO, Fraction(1, 2), (m + 1) // 2) == "rows"
        table = build_totient_table(n)
        tracemalloc.start()
        try:
            full_franel_sum(n, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * franel._ROW_CAP + (4 << 20)

    def test_orders_past_two_to_the_thirty_are_refused(self):
        # every denominator of a band is below 2n, so int32 holds them up to n = 2**30
        n = 1 << 30
        assert [(hs.tolist(), ks.tolist()) for hs, ks in franel._rows(n, n)] == [([0, 1], [1, n])]
        with pytest.raises(PreconditionError, match=r"must be at most 2\*\*30"):
            next(franel._rows(n + 1, n + 1))


class TestEnumerationChoice:
    def test_choice_follows_the_cost_model(self):
        # narrow windows and tiny orders stream; many terms per denominator slice
        assert franel._streams(12, 47)
        assert franel._streams(27_720, 1000)
        assert not franel._streams(5040, 4500)
        assert not franel._streams(27_720, rank_fast(27_720, ONE).rank)

    def test_rows_serve_prefixes_past_the_crossover_and_under_the_cap(self):
        def path(n, lo, hi):
            rank_lo = 1 if lo == ZERO else rank_fast(n, lo).rank
            return franel._path(n, lo, hi, rank_fast(n, hi).rank - rank_lo + 1)

        half = Fraction(1, 2)
        assert path(2520, ZERO, half) == "rows"  # a whole scan
        assert path(2520, ZERO, Fraction(1, 4)) == "rows"  # the prefix to 1/4
        assert path(27_720, ZERO, Fraction(1, 2310)) == "rows"  # the 0/1 section at i = 12
        assert path(12, ZERO, half) == "stream"  # full_franel_sum(12) stays streamed
        # at 300 the recursion's fixed cost outweighs what rows save per member
        assert path(300, ZERO, half) == "slices"
        # the cap: F_2626 in [0, 1/2] holds about 1 048 035 <= 2**20 members, F_2627 about 1 048 834
        assert path(5253, ZERO, half) == "rows"
        assert path(5254, ZERO, half) == "slices"
        assert path(6000, ZERO, half) == "slices"
        assert path(2520, Fraction(1, 5), half) == "slices"  # not a prefix

    def test_rows_ahead_of_the_stream_threshold(self):
        # the 0/1 sections at i = 17 and 18, [0, i/N] at N = lcm(2..18), past the
        # orders that ever slice: rows cost less than streaming their members
        n = 12_252_240
        for hi, count in ((Fraction(1, 720_720), 63_041_858), (Fraction(1, 680_680), 66_885_698)):
            assert franel._streams(n, count)
            assert franel._path(n, ZERO, hi, count) == "rows"
        # int32 rows stop at 2**30: past it the same kind of prefix streams
        hi = Fraction(1, 1 << 26)
        assert franel._path(1 << 30, ZERO, hi, 5 * 10**9) == "rows"
        assert franel._path((1 << 30) + 1, ZERO, hi, 5 * 10**9) == "stream"
        # whole scans at small orders still stream: full_franel_sum(12) makes one iter_window call
        assert franel._path(12, ZERO, Fraction(1, 2), 24) == "stream"

    @pytest.mark.parametrize("scan", [
        lambda: full_franel_sum(300),
        lambda: partial_franel_sum_range(300, Fraction(1, 5), Fraction(1, 2)),
        lambda: dress_scan(300),
    ], ids=["full", "partial", "dress"])
    def test_each_scan_picks_its_enumeration_once(self, scan, monkeypatch):
        path = Mock(wraps=franel._path)
        monkeypatch.setattr(franel, "_path", path)
        scan()
        assert path.call_count == 1

    def test_sliced_orders_stay_below_two_to_the_twenty(self):
        # the slices' float sort key is exact only there
        size = franel._SLICE_TERMS
        first_always_streamed = franel._STREAM_COST * size - franel._SLICE_OVERHEAD + 1
        assert first_always_streamed < 2**20
        for count in (1, size - 1, size, size + 1, 7 * size, 10**8):
            assert franel._streams(first_always_streamed, count)
        assert not franel._streams(first_always_streamed - 1, size)

    def test_tiny_window_at_a_large_order_costs_its_members(self):
        n = 1_000_000
        lo = Fraction(1, 3)
        hi = Fraction(*list(islice(iter_window(n, lo, ONE), 4))[-1])
        rank_lo, m = rank_fast(n, lo).rank, rank_fast(n, ONE).rank
        tracemalloc.start()
        try:
            with patch.object(franel, "_slices", side_effect=AssertionError("sliced")):
                red = franel._scan(n, lo, hi, rank_lo, 4, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one slice would hold several int64 arrays of n entries (8 MB each)
        assert peak < 1 << 16
        result = franel._franel_result(n, lo, hi, rank_lo, 4, red, EXACT_MODE_BUDGET)
        _assert_matches_stream(result, stream_deviations(n, lo, hi, rank_lo, m, EXACT_MODE_BUDGET))


class TestInt64Margin:
    @pytest.fixture(scope="class")
    def table(self):
        return build_totient_table(_first_order(1 << 63))

    def test_tiny_windows_either_side_of_two_to_the_63(self, table):
        # every h*|F_n| and j*k is below n*|F_n|; from the first order where
        # that reaches 2**63, those of the members next to 1/1 can pass int64,
        # while every deviation still fits it
        above = _first_order(1 << 63)
        for n in (above - 1, above):
            m = rank_fast(n, ONE).rank
            assert (n * m >= 1 << 63) == (n == above)
            for lo in (Fraction(1, 3), Fraction(n - 3, n - 2)):  # the top window: up to 1/1
                hi = Fraction(*list(islice(iter_window(n, lo, ONE), 4))[-1])
                result = partial_franel_sum_range(n, lo, hi, None, table)
                assert result.term_count == 4
                want = stream_deviations(n, lo, hi, result.rank_lo, m, EXACT_MODE_BUDGET)
                _assert_matches_stream(result, want)

    def test_kanemitsu_sum_refuses_orders_from_the_cap_before_any_sieve(self):
        cap = franel._ORDER_CAP
        with pytest.raises(BudgetError, match=f"totient table needs {cap - 1} entries, over budget {DEFAULT_TABLE_LIMIT}$"):
            kanemitsu_sum(cap - 1, term_budget=10**12)
        with patch.object(franel, "build_totient_table", side_effect=AssertionError("sieved")), \
                patch.object(franel, "mobius_upto", side_effect=AssertionError("sieved mu")), \
                pytest.raises(PreconditionError, match="int64 domain"):
            kanemitsu_sum(cap, term_budget=10**12)

    def test_signed_fold_from_the_first_order_past_int64_products(self):
        # from the first order where 2*|F_n|*max A_k reaches 2**63, the D_k =
        # 2*|F_n|*A_k - R*k*c_k can no longer be formed in int64; the fold must
        # still give their whole parts' sum and remainders mod k exactly
        top = 160_000
        sums = franel._prefix_sums(top)
        table = build_totient_table(top)
        peaks = np.maximum.accumulate(sums).tolist()
        n = bisect_left(range(top + 1), True, key=lambda n: 2 * (1 + int(table.phi_sum[n])) * peaks[n] >= 1 << 63)
        assert 0 < n < top
        m, r = 1 + int(table.phi_sum[n]), rank_fast(n, Fraction(1, 4)).rank
        # c_k and A_k by the Mobius sums over every e, one slice each
        mu = mobius_upto(n)
        counts, totals = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
        for e in np.flatnonzero(mu).tolist():
            quarters = np.arange(1, n // e + 1) // 4
            counts[e::e] += int(mu[e]) * (quarters + 1)
            totals[e::e] += int(mu[e]) * e * (quarters * (quarters + 1) // 2)
        assert np.array_equal(totals, sums[: n + 1]) and int(counts.sum()) == r
        whole, rems = 0, [0]
        for k, (c, a) in enumerate(zip(counts[1:].tolist(), totals[1:].tolist()), start=1):
            w, rem = divmod(2 * m * a - r * k * c, k)
            whole += w
            rems.append(rem)
        red = franel._signed_fold(sums[: n + 1], m, r)
        assert red.whole == whole and red.sums.tolist() == rems

    def test_signed_fold_sums_its_whole_parts_past_int64(self):
        # with |F_n| near 2**62, as near the cap, each floor(2*|F_n|*a/k) is
        # near 2**63, and a block of them adds up far past int64
        n, m, r = 70_000, (1 << 62) - 57, 12_345_678_901
        sums = np.random.default_rng(7).integers(0, np.arange(n + 1) ** 2 // 32 + 1)
        red = franel._signed_fold(sums, m, r)
        pairs = [divmod(2 * m * a, k) for k, a in enumerate(sums.tolist()) if k]
        assert red.whole == sum(w for w, _ in pairs) - r * r
        assert red.sums.tolist() == [0] + [rem for _, rem in pairs]

    def test_orders_from_the_cap_are_refused_before_any_table(self):
        # below the cap |F_n| <= 1 + n*(n + 1)/2 < 2**62 and a folded D_k < (k + 2)*k < 2**63
        cap = franel._ORDER_CAP
        assert 1 + cap * (cap + 1) // 2 < 2**62 and (cap + 2) * cap < 2**63
        with pytest.raises(BudgetError, match=f"totient table needs {cap - 1} entries, over budget {DEFAULT_TABLE_LIMIT}$"):
            full_franel_sum(cap - 1)
        with patch.object(franel, "build_totient_table", side_effect=AssertionError("sieved")), \
                pytest.raises(PreconditionError, match="int64 domain"):
            full_franel_sum(cap)
