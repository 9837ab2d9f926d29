from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from fareysums.arith import (
    Fraction,
    INFINITY,
    ONE,
    ZERO,
    det2,
    gcd_triple,
    gcd_triples,
    mediant,
    neighbor_gcd_check,
    shear,
)
from fareysums.errors import PreconditionError


def reduced_fractions(limit: int) -> list[Fraction]:
    """All reduced num/den with 0 <= num, den <= limit (not both zero)."""
    out = []
    for den in range(limit + 1):
        for num in range(limit + 1):
            if (num or den) and gcd(num, den) == 1:
                out.append(Fraction(num, den))
    return out


class TestFractionType:
    def test_reduces_on_construction(self):
        assert Fraction(4, 6) == Fraction(2, 3)
        assert Fraction(0, 7) == ZERO
        assert Fraction(5, 0) == INFINITY
        assert Fraction(-3, -6) == Fraction(1, 2)

    def test_rejects_zero_over_zero(self):
        with pytest.raises(PreconditionError):
            Fraction(0, 0)

    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            Fraction(-1, 2)

    def test_immutable(self):
        f = Fraction(1, 2)
        with pytest.raises(AttributeError):
            f.num = 3

    def test_ordering_by_cross_multiplication(self):
        assert Fraction(1, 3) < Fraction(2, 5) < Fraction(1, 2)
        assert Fraction(2, 5) <= Fraction(2, 5)
        assert ONE < INFINITY
        assert not INFINITY < INFINITY
        assert Fraction(999999, 1000000) < ONE

    def test_sentinel_above_everything(self):
        for f in reduced_fractions(8):
            if f != INFINITY:
                assert f < INFINITY

    def test_parse_and_str_round_trip(self):
        for text in ("2/5", "1/0", "0/1", "17/23"):
            assert str(Fraction.parse(text)) == text

    @pytest.mark.parametrize("bad", ["", "3", "a/b", "1/2/3", "-1/2", "0/0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PreconditionError):
            Fraction.parse(bad)

    def test_hash_consistent_with_eq(self):
        assert len({Fraction(1, 2), Fraction(2, 4), Fraction(3, 6)}) == 1


class TestDet2:
    def test_spot_values(self):
        assert det2(Fraction(1, 2), Fraction(1, 3)) == 1
        assert det2(Fraction(4, 5), Fraction(1, 5)) == 15
        assert det2(INFINITY, ZERO) == 1

    @given(
        st.integers(0, 10**6), st.integers(0, 10**6),
        st.integers(0, 10**6), st.integers(0, 10**6),
    )
    def test_antisymmetry(self, a, b, c, d):
        if (a == 0 and b == 0) or (c == 0 and d == 0):
            return
        p, r = Fraction(a, b), Fraction(c, d)
        assert det2(p, r) == -det2(r, p)
        assert det2(p, p) == 0


class TestMediant:
    def test_spot_values(self):
        assert mediant(ZERO, INFINITY) == ONE
        assert mediant(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
        assert mediant(ZERO, ONE) == Fraction(1, 2)

    def test_rejects_non_adjacent(self):
        with pytest.raises(PreconditionError):
            mediant(Fraction(1, 5), Fraction(4, 5))

    def test_between_and_reduced_for_all_small_adjacent_pairs(self):
        fracs = reduced_fractions(30)
        for p in fracs:
            for r in fracs:
                if abs(det2(p, r)) == 1:
                    m = mediant(p, r)
                    assert gcd(m.num, m.den) == 1
                    assert gcd(p.num + r.num, p.den + r.den) == 1  # no hidden reduction
                    lo, hi = (p, r) if p < r else (r, p)
                    assert lo < m < hi


class TestShear:
    def test_spot_values(self):
        assert shear(ZERO) == ZERO
        assert shear(ONE) == Fraction(1, 2)
        assert shear(Fraction(2, 3)) == Fraction(2, 5)

    def test_rejects_sentinel(self):
        with pytest.raises(PreconditionError):
            shear(INFINITY)

    def test_preserves_order_and_determinants_exhaustively(self):
        # all reduced pairs with num, den <= 50, checked via vectorized outer products
        fracs = [f for f in reduced_fractions(50) if f.is_finite]
        n = np.array([f.num for f in fracs], dtype=np.int64)
        d = np.array([f.den for f in fracs], dtype=np.int64)
        dets = n[:, None] * d[None, :] - n[None, :] * d[:, None]
        sheared_d = n + d
        dets_after = n[:, None] * sheared_d[None, :] - n[None, :] * sheared_d[:, None]
        assert np.array_equal(dets, dets_after)
        order = n[:, None] * d[None, :] < n[None, :] * d[:, None]
        order_after = n[:, None] * sheared_d[None, :] < n[None, :] * sheared_d[:, None]
        assert np.array_equal(order, order_after)


class TestGcdTriple:
    def test_spot_values(self):
        assert gcd_triple(Fraction(1, 5), Fraction(2, 5), Fraction(4, 5)) == (5, 5, 5)
        assert gcd_triple(Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)) == (1, 1, 1)
        assert gcd_triple(ZERO, Fraction(1, 2), ONE) == (1, 1, 1)

    def test_rejects_unordered(self):
        with pytest.raises(PreconditionError):
            gcd_triple(Fraction(1, 2), Fraction(1, 2), ONE)
        with pytest.raises(PreconditionError):
            gcd_triple(ONE, Fraction(1, 2), ZERO)

    def test_identity_exhaustive_to_12(self):
        fracs = sorted(reduced_fractions(12))
        bad = 0
        for a in range(len(fracs)):
            for b in range(a + 1, len(fracs)):
                for c in range(b + 1, len(fracs)):
                    g1, g2, g3 = gcd_triple(fracs[a], fracs[b], fracs[c])
                    if not (g1 == g2 == g3):
                        bad += 1
        assert bad == 0


class TestGcdTriples:
    """The vectorised gcd_triples against gcd_triple, triple by triple."""

    @staticmethod
    def _gcds(triples):
        """gcd_triples of Fraction triples, from (count, 3) arrays of their numerators and denominators."""
        return gcd_triples([[f.num for f in t] for t in triples], [[f.den for f in t] for t in triples])

    @given(st.sampled_from([12, 10_000, 2**31 - 1, 2**31, 2**70]).flatmap(
        lambda cap: st.lists(
            st.lists(st.tuples(st.integers(0, cap), st.integers(0, cap)).filter(any), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        )
    ))
    def test_matches_gcd_triple(self, drawn):
        triples = [sorted(Fraction(*pair) for pair in triple) for triple in drawn]
        assume(all(lo < mid < hi for lo, mid, hi in triples))
        got = self._gcds(triples)
        small = max(max(f.num, f.den) for t in triples for f in t) < 2**31
        assert got.dtype == (np.int64 if small else object) and got.shape == (len(triples), 3)
        assert [tuple(row) for row in got.tolist()] == [gcd_triple(*triple) for triple in triples]

    @pytest.mark.parametrize("cap, dtype", [(2**31 - 1, np.int64), (2**31, object)])
    def test_int64_edge(self, cap, dtype):
        # every |det| is at most 2*cap**2, below 2**63 up to cap = 2**31 - 1
        triple = [Fraction(1, cap), Fraction(cap - 1, cap), Fraction(cap, 1)]
        got = self._gcds([triple])
        assert got.dtype == dtype and got.tolist() == [list(gcd_triple(*triple))]

    def test_rejects_what_gcd_triple_rejects(self):
        assert gcd_triples([], []).shape == (0, 3)
        with pytest.raises(PreconditionError, match="strictly ordered"):
            gcd_triples([[1, 1, 1], [1, 1, 1]], [[3, 2, 1], [2, 2, 1]])  # 1/2 twice in the second
        with pytest.raises(PreconditionError, match="strictly ordered"):
            gcd_triples([1, 1, 0], [1, 2, 1])
        with pytest.raises(PreconditionError, match="nonnegative"):
            gcd_triples([-1, 1, 1], [2, 2, 1])


class TestNeighborGcdCheck:
    def test_spot_values(self):
        assert neighbor_gcd_check(Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))
        assert neighbor_gcd_check(ZERO, Fraction(1, 2), ONE)
        assert neighbor_gcd_check(Fraction(1, 2), Fraction(3, 5), Fraction(2, 3))

    def test_rejects_non_adjacent_outer_pair(self):
        with pytest.raises(PreconditionError):
            neighbor_gcd_check(Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))

    def test_holds_for_all_small_cases(self):
        fracs = sorted(reduced_fractions(14))
        for i, lo in enumerate(fracs):
            for hi in fracs[i + 1 :]:
                if abs(det2(hi, lo)) != 1:
                    continue
                for mid in fracs:
                    if lo < mid < hi:
                        assert neighbor_gcd_check(lo, mid, hi)
