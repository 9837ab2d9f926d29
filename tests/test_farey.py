from bisect import bisect_right
from fractions import Fraction as Rat
from functools import lru_cache
from math import gcd, log
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fareysums.arith import Fraction, INFINITY, ONE, ZERO, det2
from fareysums.errors import BudgetError, PreconditionError
from fareysums.farey import (
    METHOD_MOEBIUS,
    METHOD_ORACLE,
    _bracket,
    _floor_sums,
    _quotient_blocks,
    count_in_window,
    enumerate_window,
    farey_neighbors,
    iter_window,
    next_farey,
    rank_fast,
    rank_oracle,
)
from fareysums.totient import THREE_OVER_PI_SQ, build_totient_table

from oracles import brute_bracket, brute_farey, brute_rank, brute_window


def as_rat(f: Fraction) -> Rat:
    return Rat(f.num, f.den)


# denominators from 1 to 10^18, with small ones drawn often enough to land on
# members of the sequence as well as between them
_denominators = st.one_of(st.integers(1, 400), st.integers(1, 10**18))


@st.composite
def unit_interval_fractions(draw):
    q = draw(_denominators)
    return Fraction(draw(st.integers(0, q)), q)  # the constructor reduces


class TestNextFarey:
    @pytest.mark.parametrize(
        "n,prev,cur,expected",
        [
            (5, "0/1", "1/5", "1/4"),
            (5, "2/5", "1/2", "3/5"),
            (2, "0/1", "1/2", "1/1"),
        ],
    )
    def test_spot_values(self, n, prev, cur, expected):
        got = next_farey(n, Fraction.parse(prev), Fraction.parse(cur))
        assert got == Fraction.parse(expected)

    def test_walks_full_sequence(self):
        for n in (1, 2, 3, 7, 12):
            expected = brute_farey(n)
            walk = [ZERO, Fraction(1, n)]
            while walk[-1] != ONE:
                walk.append(next_farey(n, walk[-2], walk[-1]))
            assert [as_rat(f) for f in walk] == expected

    def test_no_successor_of_one(self):
        with pytest.raises(PreconditionError):
            next_farey(5, Fraction(4, 5), ONE)

    def test_rejects_non_consecutive(self):
        with pytest.raises(PreconditionError):
            next_farey(5, Fraction(1, 5), Fraction(1, 2))


class TestEnumerateWindow:
    @pytest.mark.parametrize(
        "n,lo,hi,expected",
        [
            (6, "1/3", "1/2", ["1/3", "2/5", "1/2"]),
            (1, "0/1", "1/1", ["0/1", "1/1"]),
        ],
    )
    def test_spot_values(self, n, lo, hi, expected):
        window = enumerate_window(n, Fraction.parse(lo), Fraction.parse(hi))
        assert [str(f) for f in window.fractions] == expected

    def test_f5_contents(self):
        window = enumerate_window(5, ZERO, ONE)
        assert len(window) == 11
        assert [str(f) for f in window.fractions[-2:]] == ["4/5", "1/1"]

    def test_matches_brute_for_varied_bounds(self):
        cases = [
            (6, Rat(1, 3), Rat(1, 2)),
            (10, Rat(1, 7), Rat(9, 10)),
            (10, Rat(2, 7), Rat(2, 7)),      # single element
            (10, Rat(22, 71), Rat(22, 71)),  # bound not in F_10: empty
            (10, Rat(5, 16), Rat(9, 13)),    # both bounds outside F_10
            (13, Rat(0, 1), Rat(1, 13)),
            (13, Rat(12, 13), Rat(1, 1)),
        ]
        for n, lo, hi in cases:
            window = enumerate_window(n, Fraction(lo.numerator, lo.denominator),
                                      Fraction(hi.numerator, hi.denominator))
            assert [as_rat(f) for f in window.fractions] == brute_window(n, lo, hi)

    def test_full_sequence_invariants_to_300(self, table_10k):
        for n in range(1, 301):
            length = 0
            prev = None
            for num, den in iter_window(n, ZERO, ONE):
                length += 1
                if prev is not None:
                    assert num * prev[1] - prev[0] * den == 1  # adjacent determinant
                prev = (num, den)
            assert length == 1 + table_10k.summatory(n)

    def test_exact_match_against_brute_to_60(self):
        for n in range(1, 61):
            got = [(num, den) for num, den in iter_window(n, ZERO, ONE)]
            assert got == [(x.numerator, x.denominator) for x in brute_farey(n)]

    def test_budget(self):
        with pytest.raises(BudgetError):
            enumerate_window(10_000, ZERO, ONE, budget=1000)

    def test_rejects_bad_range(self):
        with pytest.raises(PreconditionError):
            enumerate_window(5, ONE, ZERO)
        with pytest.raises(PreconditionError):
            enumerate_window(5, ZERO, INFINITY)


class TestRank:
    @pytest.mark.parametrize(
        "n,x,expected",
        [(6, "1/2", 7), (6, "1/6", 2), (5, "1/4", 3), (6, "1/3", 5), (1, "1/1", 2)],
    )
    def test_spot_values_both_methods(self, n, x, expected):
        frac = Fraction.parse(x)
        oracle = rank_oracle(n, frac)
        fast = rank_fast(n, frac)
        assert oracle.rank == fast.rank == expected
        assert oracle.method == METHOD_ORACLE
        assert fast.method == METHOD_MOEBIUS

    def test_rank_counts_elements_at_or_below(self):
        # targets that are not Farey fractions of the order
        for n, x in [(10, Rat(1, 11)), (10, Rat(3, 17)), (7, Rat(355, 452))]:
            expected = brute_rank(n, x)
            frac = Fraction(x.numerator, x.denominator)
            assert rank_oracle(n, frac).rank == expected
            assert rank_fast(n, frac).rank == expected

    def test_oracle_equals_fast_exhaustively_to_45(self):
        for n in range(1, 46):
            for j, x in enumerate(brute_farey(n), start=1):
                frac = Fraction(x.numerator, x.denominator)
                assert rank_fast(n, frac).rank == j
                assert rank_oracle(n, frac).rank == j

    @pytest.mark.parametrize("n", [100, 150, 200])
    def test_oracle_equals_fast_sampled(self, n):
        rng = Random(1234 + n)
        seq = brute_farey(n)
        for x in rng.sample(seq, 40):
            frac = Fraction(x.numerator, x.denominator)
            assert rank_oracle(n, frac).rank == rank_fast(n, frac).rank

    def test_fast_at_large_orders_against_structure(self):
        # at orders where the direct oracle is infeasible, probe the Mobius rank
        # with two independent identities: neighbors advance the rank by one,
        # and mirroring about 1/2 reflects it.
        rng = Random(99)
        table = build_totient_table(100_000)
        for _ in range(12):
            n = rng.randint(1000, 100_000)
            den = rng.randint(2, n)
            num = rng.randint(1, den - 1)
            while Rat(num, den).denominator != den:
                num = rng.randint(1, den - 1)
            x = Fraction(num, den)
            r = rank_fast(n, x).rank
            _, right = farey_neighbors(n, x)
            assert rank_fast(n, right).rank == r + 1
            mirror = Fraction(den - num, den)
            cardinality = 1 + table.summatory(n)
            assert rank_fast(n, mirror).rank == cardinality + 1 - r

    def test_small_targets_oracle_equivalence_at_large_orders(self):
        rng = Random(7)
        for _ in range(6):
            n = rng.randint(20_000, 60_000)
            q = rng.randint(n // 25, n)
            x = Fraction(1, q)
            assert rank_oracle(n, x).rank == rank_fast(n, x).rank

    def test_huge_denominator_target(self):
        # d*p overflows int64 here; the rank must still be exact
        x = Fraction(123456789012345677, 999999999999999998)
        assert rank_fast(50, x).rank == rank_oracle(50, x).rank == brute_rank(50, Rat(x.num, x.den))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_old_int64_edge(self, offset):
        # the former vectorized path switched to a big-int path at (n+1)*p = 2^62
        n = 1000
        p = 2**62 // (n + 1) + offset
        assert ((n + 1) * p < 2**62) == (offset < 1)
        for q in (2 * p + 1, 3 * p - 1):
            x = Fraction(p, q)
            assert x.num == p
            assert rank_fast(n, x).rank == rank_oracle(n, x).rank

    @settings(deadline=None)
    @given(st.integers(1, 400), unit_interval_fractions())
    def test_fast_equals_oracle_drawn(self, n, x):
        assert rank_fast(n, x).rank == rank_oracle(n, x).rank

    @settings(deadline=None)
    @given(st.integers(1, 60), unit_interval_fractions())
    def test_fast_equals_brute_drawn(self, n, x):
        assert rank_fast(n, x).rank == brute_rank(n, as_rat(x))

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=6), st.integers(0, 10**18), st.integers(1, 10**18))
    @example([500, 3], 10**18, 7)  # p > q: n*(n - 1)/2*(p//q) alone passes 2^63
    def test_floor_sum_matches_loop(self, ms, p, q):
        got = _floor_sums(np.array(ms), p, q)
        assert list(got) == [sum(d * p // q for d in range(1, m + 1)) for m in ms]

    @pytest.mark.parametrize("offset,exact_in_int64", [(-1, True), (0, False)])
    def test_floor_sums_int64_edge(self, offset, exact_in_int64):
        # int64 while q*(max m + 2) < 2^62 (q > max m here): 2^53 * 512 = 2^62 exactly
        ms = np.array([0, 1, 255, 509, 510])
        q = 2**53 + offset
        assert (q * (int(ms.max()) + 2) < 2**62) == exact_in_int64
        for p in (1, q // 3, q - 1, q):
            got = _floor_sums(ms, p, q)
            assert (got.dtype == np.int64) == exact_in_int64
            assert list(got) == [sum(d * p // q for d in range(1, m + 1)) for m in ms]

    @pytest.mark.parametrize("m,exact_in_int64", [(2**31 - 2, True), (2**31 - 1, False)])
    def test_floor_sums_int64_edge_in_m(self, m, exact_in_int64):
        # for q <= m the bound is (max m + 1)*(max m + 2) < 2^62; S has closed forms at q = 1, 2
        assert ((m + 1) * (m + 2) < 2**62) == exact_in_int64
        for p, q, expected in [(1, 1, m * (m + 1) // 2), (1, 2, m * m // 4), (0, 3, 0)]:
            got = _floor_sums(np.array([m, 1]), p, q)
            assert (got.dtype == np.int64) == exact_in_int64
            assert list(got) == [expected, p // q]

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 7, 10, 31, 100, 1000])
    def test_quotient_blocks_match_walk(self, r):
        for n in sorted({r * r, r * r - 1, r * (r + 1)} - {0}):
            walk = []
            lo = 1
            while lo <= n:
                v = n // lo
                hi = n // v
                walk.append((lo, hi, v))
                lo = hi + 1
            vs, ends = _quotient_blocks(n)
            assert ends[0] == 0
            assert [(int(ends[i]) + 1, int(ends[i + 1]), int(v)) for i, v in enumerate(vs)] == walk

    @settings(deadline=None)
    @given(st.integers(1, 2000), st.data())
    def test_non_member_has_its_lower_neighbours_rank(self, n, data):
        q = data.draw(st.one_of(st.integers(n + 1, 3 * n), st.integers(10**17, 10**18)))
        x = Fraction(data.draw(st.integers(1, q - 1)), q)
        assume(x.den > n)
        # the largest fraction with denominator <= n below x, found by trying every denominator
        h, k = max(((d * x.num // x.den, d) for d in range(1, n + 1)), key=lambda hk: Rat(*hk))
        assert rank_fast(n, x).rank == rank_fast(n, Fraction(h, k)).rank

    @pytest.mark.parametrize("n", range(1, 120))
    def test_fast_equals_brute_past_the_order(self, n):
        # every p/q with q <= n + 2: the members of F_n at their positions, then the non-members
        # with q = n + 1, n + 2, at the count of members below them
        seq = brute_farey(n)
        for j, x in enumerate(seq, start=1):
            assert rank_fast(n, Fraction(x.numerator, x.denominator)).rank == j
        for q in (n + 1, n + 2):
            for p in range(1, q):
                if gcd(p, q) == 1:
                    assert rank_fast(n, Fraction(p, q)).rank == bisect_right(seq, Rat(p, q))

    def test_symmetry(self):
        for n in (7, 30, 101):
            m = len(brute_farey(n))
            for x in brute_farey(n):
                frac = Fraction(x.numerator, x.denominator)
                mirror = Fraction(x.denominator - x.numerator, x.denominator)
                assert rank_fast(n, mirror).rank == m + 1 - rank_fast(n, frac).rank


class TestNeighbors:
    @pytest.mark.parametrize(
        "n,x,left,right",
        [
            (5, "1/2", "2/5", "3/5"),
            (2, "1/2", "0/1", "1/1"),
            (3, "1/3", "0/1", "1/2"),
        ],
    )
    def test_spot_values(self, n, x, left, right):
        got = farey_neighbors(n, Fraction.parse(x))
        assert got == (Fraction.parse(left), Fraction.parse(right))

    def test_boundaries(self):
        assert farey_neighbors(7, ZERO) == (None, Fraction(1, 7))
        assert farey_neighbors(7, ONE) == (Fraction(6, 7), None)
        assert farey_neighbors(1, ZERO) == (None, ONE)
        assert farey_neighbors(1, ONE) == (ZERO, None)

    def test_rejects_non_member(self):
        with pytest.raises(PreconditionError):
            farey_neighbors(5, Fraction(1, 6))

    def test_matches_brute_and_determinant(self):
        for n in (2, 5, 9, 17):
            seq = brute_farey(n)
            for j, x in enumerate(seq):
                frac = Fraction(x.numerator, x.denominator)
                left, right = farey_neighbors(n, frac)
                assert (left is None) == (j == 0)
                assert (right is None) == (j == len(seq) - 1)
                if left is not None:
                    assert as_rat(left) == seq[j - 1]
                    assert det2(frac, left) == 1
                if right is not None:
                    assert as_rat(right) == seq[j + 1]
                    assert det2(right, frac) == 1


_brute_farey = lru_cache(maxsize=None)(brute_farey)


class TestBracket:
    """The one mediant descent behind neighbors and window seeds."""

    @staticmethod
    def assert_matches_brute(n, x):
        (a, b), (c, d) = _bracket(n, x.num, x.den)
        assert (Rat(a, b), Rat(c, d)) == brute_bracket(n, as_rat(x))

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 60))
    def test_members(self, data, n):
        k = data.draw(st.integers(1, n))
        self.assert_matches_brute(n, Fraction(data.draw(st.integers(1, k)), k))

    @settings(deadline=None)
    @given(st.integers(1, 60), st.integers(61, 10**18), st.data())
    def test_non_members(self, n, q, data):
        x = Fraction(data.draw(st.integers(1, q)), q)
        assume(x.den > n)
        self.assert_matches_brute(n, x)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_one(self, n):
        self.assert_matches_brute(n, ONE)

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 80))
    def test_neighbors_match_brute(self, data, n):
        seq = _brute_farey(n)
        j = data.draw(st.integers(0, len(seq) - 1))
        left, right = farey_neighbors(n, Fraction(seq[j].numerator, seq[j].denominator))
        assert (left and as_rat(left)) == (seq[j - 1] if j else None)
        assert (right and as_rat(right)) == (seq[j + 1] if j + 1 < len(seq) else None)

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 80))
    def test_window_from_a_member(self, data, n):
        seq = _brute_farey(n)
        lo = data.draw(st.sampled_from(seq))
        hi = max(lo, as_rat(data.draw(unit_interval_fractions())))
        got = iter_window(n, Fraction(lo.numerator, lo.denominator), Fraction(hi.numerator, hi.denominator))
        assert [Rat(h, k) for h, k in got] == [x for x in seq if lo <= x <= hi]

    @given(st.integers(1, 80))
    def test_window_from_one(self, n):
        assert [Rat(h, k) for h, k in iter_window(n, ONE, ONE)] == brute_window(n, Rat(1), Rat(1))


class TestWindowCounts:
    def test_count_matches_brute(self):
        rng = Random(5)
        for _ in range(25):
            n = rng.randint(1, 40)
            a, b = sorted(rng.uniform(0, 1) for _ in range(2))
            lo, hi = Rat(a).limit_denominator(97), Rat(b).limit_denominator(97)
            if hi < lo:
                lo, hi = hi, lo
            got = count_in_window(n, Fraction(lo.numerator, lo.denominator),
                                  Fraction(hi.numerator, hi.denominator))
            assert got == len(brute_window(n, lo, hi))

    def test_density_envelope_at_large_orders(self):
        # |count - (3/pi^2) * width * N^2| <= C * N * log N over seeded random windows
        rng = Random(2718)
        worst = 0.0
        for n in (2520, 27720):
            for _ in range(20):
                a, b = sorted(rng.uniform(0, 1) for _ in range(2))
                lo, hi = Rat(a).limit_denominator(5000), Rat(b).limit_denominator(5000)
                count = count_in_window(n, Fraction(lo.numerator, lo.denominator),
                                        Fraction(hi.numerator, hi.denominator))
                width = float(hi - lo)
                dev = abs(count - THREE_OVER_PI_SQ * width * n * n)
                worst = max(worst, dev / (n * log(n)))
        print(f"window-count envelope constant: {worst:.4f}")
        assert worst < 5.0
