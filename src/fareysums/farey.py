"""Ground-truth enumeration of Farey sequences, rank computation, and neighbor search.

One mediant descent (`_bracket`) places any fraction between two consecutive
members: it seeds window enumeration and gives neighbors.  The enumeration
path (next-term recurrence) and the two rank paths (direct gcd counting,
Mobius identity grouped by Mertens sums) are deliberately independent of
each other so they can cross-check one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, log

import numpy as np

from .arith import Fraction, ONE, ZERO
from .errors import BudgetError, PreconditionError
from .totient import THREE_OVER_PI_SQ, mertens_upto

DEFAULT_WINDOW_BUDGET = 10_000_000

METHOD_ORACLE = "enumeration-oracle"
METHOD_MOEBIUS = "moebius-rank"


@dataclass
class FareyWindow:
    """All F_order fractions in [lo, hi], ascending; bounds are as requested."""

    order: int
    lo: Fraction
    hi: Fraction
    fractions: list[Fraction]

    def __len__(self) -> int:
        return len(self.fractions)


@dataclass
class RankReport:
    """1-based position of target within F_order (0/1 has rank 1), with provenance."""

    order: int
    target: Fraction
    rank: int
    method: str


def _check_unit_interval(x: Fraction, name: str = "x") -> None:
    if not x.is_finite or x.num > x.den:
        raise PreconditionError(f"{name}={x} is outside [0/1, 1/1]")


def next_farey(n: int, prev: Fraction, cur: Fraction) -> Fraction:
    """Successor of cur in F_n given its predecessor prev.

    Uses k = floor((n + prev.den)/cur.den); the successor is
    (k*cur.num - prev.num)/(k*cur.den - prev.den).  prev and cur must be
    consecutive in F_n, which for reduced fractions means |det2| = 1, both
    denominators <= n, and prev.den + cur.den > n.
    """
    if cur == ONE:
        raise PreconditionError("1/1 has no successor in F_n")
    if not prev < cur:
        raise PreconditionError(f"need prev < cur, got {prev}, {cur}")
    if prev.den > n or cur.den > n or prev.den + cur.den <= n or cur.num * prev.den - prev.num * cur.den != 1:
        raise PreconditionError(f"{prev} and {cur} are not consecutive in F_{n}")
    k = (n + prev.den) // cur.den
    return Fraction(k * cur.num - prev.num, k * cur.den - prev.den)


def _bracket(n: int, p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Consecutive F_n pair (a/b, c/d) with a/b < p/q <= c/d, for reduced p/q in (0, 1].

    Mediant descent with batched steps: at interval (a/b, c/d) the repeated
    mediants toward one side form (a+k*c)/(b+k*d), so the number of steps
    before the comparison flips is a single division.  Denominators are capped
    at n, which keeps both sides inside F_n; the loop ends when the next
    mediant would leave F_n, at which point the pair is consecutive.  Once c/d
    has reached a member p/q, only the cap stops a/b, which climbs to the
    predecessor of p/q.
    """
    a, b, c, d = 0, 1, 1, 1
    while b + d <= n:
        if p * (b + d) > (a + c) * q:
            k = (n - b) // d
            if q * c != p * d:
                k = min(k, (p * b - q * a - 1) // (q * c - p * d))
            a, b = a + k * c, b + k * d
        else:
            k = min((q * c - p * d) // (p * b - q * a), (n - d) // b)
            c, d = c + k * a, d + k * b
    return (a, b), (c, d)


def farey_neighbors(n: int, x: Fraction) -> tuple[Fraction | None, Fraction | None]:
    """Immediate left and right neighbors of x in F_n; None at the 0/1 / 1/1 ends.

    The left neighbor is the lower end of the mediant descent to x and the
    right one follows by the next-term recurrence, so the cost is O(log n).
    """
    _check_unit_interval(x)
    if x.den > n:
        raise PreconditionError(f"{x} is not in F_{n}")
    if x == ZERO:
        return None, Fraction(1, n)
    left = Fraction(*_bracket(n, x.num, x.den)[0])
    return left, (None if x == ONE else next_farey(n, left, x))


def _check_positive_order(n: int) -> None:
    """Refuse an order below 1, by name, before any work (and so before any sieve)."""
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")


def _check_window_args(n: int, lo: Fraction, hi: Fraction) -> None:
    _check_positive_order(n)
    _check_unit_interval(lo, "lo")
    _check_unit_interval(hi, "hi")
    if hi < lo:
        raise PreconditionError(f"empty range: lo={lo} > hi={hi}")


def iter_window(n: int, lo: Fraction, hi: Fraction):
    """Yield raw (num, den) pairs for every F_n element in [lo, hi], ascending.

    Streaming counterpart of enumerate_window: the loop is plain-int so large
    windows can be scanned without materializing Fraction objects.
    """
    _check_window_args(n, lo, hi)
    # -1/n precedes 0/1 in the recurrence, so the first step gives 1/n
    prev, cur = ((-1, n), (0, 1)) if lo == ZERO else _bracket(n, lo.num, lo.den)
    hn, hd = hi.num, hi.den
    while cur[0] * hd <= hn * cur[1]:
        yield cur
        k = (n + prev[1]) // cur[1]
        prev, cur = cur, (k * cur[0] - prev[0], k * cur[1] - prev[1])


def _size_estimate(n: int, width: float) -> float:
    """Upper estimate of the F_n members in a window of the given width, from their density."""
    return THREE_OVER_PI_SQ * width * n * n + 2 * n * log(n + 2) + 16


def _window_pairs(n: int, lo: Fraction, hi: Fraction, budget: int):
    """iter_window over [lo, hi], once the window's estimated size is within 1.25*budget."""
    _check_window_args(n, lo, hi)
    estimate = _size_estimate(n, float(hi) - float(lo))
    if estimate > 1.25 * budget:
        raise BudgetError(
            f"window [{lo}, {hi}] at order {n} holds about {estimate:.3g} fractions, over budget {budget}"
        )
    return iter_window(n, lo, hi)


def enumerate_window(
    n: int, lo: Fraction, hi: Fraction, budget: int = DEFAULT_WINDOW_BUDGET
) -> FareyWindow:
    """Materialize all F_n fractions in [lo, hi] (bounds included when they belong to F_n)."""
    out: list[Fraction] = []
    for num, den in _window_pairs(n, lo, hi, budget):
        out.append(Fraction(num, den))
        if len(out) > budget:
            raise BudgetError(f"window [{lo}, {hi}] at order {n} exceeded budget {budget}")
    return FareyWindow(n, lo, hi, out)


def rank_oracle(n: int, x: Fraction) -> RankReport:
    """Rank of x in F_n by direct per-denominator gcd counting.

    rank = 1 + sum over d <= n of #{h : 1 <= h <= floor(d*x), gcd(h, d) = 1}.
    This is the definitional count; it is slow (O(n^2) gcds for central x) and
    exists as the trusted reference for the faster paths.
    """
    _check_positive_order(n)
    _check_unit_interval(x)
    p, q = x.num, x.den
    count = 1
    for d in range(1, n + 1):
        m = d * p // q
        count += sum(1 for h in range(1, m + 1) if gcd(h, d) == 1)
    return RankReport(n, x, count, METHOD_ORACLE)


# np.divmod has no loop for dtype=object
_object_divmod = np.frompyfunc(divmod, 2, 2)


def _floor_sums(ms: np.ndarray, p: int, q: int) -> np.ndarray:
    """S(m) = sum of floor(d*p/q) for d = 1..m, for every m in ms at once.

    Euclid-like reduction of sum_{i<n} floor((a*i + b)/c): peel off the
    integer parts of a/c and b/c in closed form, then count the lattice points
    under the line by rows instead of columns, which swaps a and c so that the
    next pass reduces c mod a, as in Euclid's algorithm.  The (a, c) pairs are
    Euclid's on p/q whatever m is, so they are found first, and only n and b
    are arrays: each pass writes its n and floor(b/c) into preallocated rows
    with four array operations for all of ms, and the peeled terms
    n*(n - 1)/2*(a//c) + n*(b//c) of every row are summed in one go at the
    end.  An element whose n reaches 0 adds nothing more, so every element
    runs to Euclid's end.

    After its reduction, a*n + b never grows past its first value below
    q*(m + 2), and every other value is at most 2*S(m) <= m(m + 1) when
    p <= q, so the arrays are int64 while p <= q and
    max(q, m + 1)*(m + 2) < 2^62 for the largest m, and Python ints
    (dtype=object) otherwise: exact for any p, q.
    """
    m_max = int(ms.max(initial=0))
    exact_in_int64 = p <= q and max(q, m_max + 1) * (m_max + 2) < 1 << 62
    dtype = np.int64 if exact_in_int64 else object
    split = np.divmod if exact_in_int64 else _object_divmod
    k, a = divmod(p, q)
    c = q
    ks, passes = [k], []
    while a:  # at a = 0, a*n + b = b < c: no lattice point is left under the line
        passes.append((a, c))
        k, a, c = c // a, c % a, a
        ks.append(k)
    n = np.empty((len(ks), len(ms)), dtype)
    kb = np.empty_like(n)
    b = np.zeros_like(n[0])
    np.add(ms, 1, out=n[0])
    kb[0] = 0
    for i, (a, c) in enumerate(passes, start=1):
        np.multiply(n[i - 1], a, out=n[i])
        np.add(n[i], b, out=n[i])
        split(n[i], c, out=(n[i], b))
        split(b, a, out=(kb[i], b))
    k = np.array(ks, dtype)[:, None]
    return (n * ((n - 1) * k + 2 * kb)).sum(axis=0) // 2


def _heads_and_tail(n: int) -> tuple[int, int]:
    """(r, t): the distinct v = floor(n/e) for e <= n are the heads e = 1..r and the tail v = 1..t.

    r = isqrt(n).  Each head e has a quotient of its own, above t; the tail
    quotient v holds the block of e in (floor(n/(v+1)), floor(n/v)].  t is
    r - 1 when floor(n/r) = r already heads the list, and r otherwise.
    """
    r = isqrt(n)
    return r, r - 1 if n // r == r else r


# Up to this order one prefix sum over every quotient costs less than the Euclid
# passes' fixed numpy calls: about 4 ns a prefix entry against about 50 us a
# rank (they cross near n = 14 000 on a 2-core Xeon with numpy 2.4).
_ALL_PREFIX_ORDER = 12_000


def _reach(n: int) -> int:
    """V: `rank_fast` takes S(v) for v <= V from one prefix sum and runs Euclid's passes above it.

    n itself, so no Euclid pass at all, up to `_ALL_PREFIX_ORDER`; past it
    about n^(2/3), which leaves the passes to the heads e <= n^(1/3).  Any
    V >= isqrt(n), which covers the tail, gives the same rank: this is a
    cost choice only.
    """
    return n if n <= _ALL_PREFIX_ORDER else int(n ** (2 / 3))


def rank_fast(n: int, x: Fraction) -> RankReport:
    """Rank of x = p/q in F_n via the Mobius identity grouped by Mertens sums.

    #{h <= d*x : gcd(h, d) = 1} = sum over e | d of mu(e)*floor(d*x/e); summing
    over d <= n and writing d = e*d' gives

        rank = 1 + sum over e <= n of mu(e) * S(floor(n/e)),
        S(m) = sum of floor(d*p/q) for d <= m.

    floor(n/e) takes about 2*sqrt(n) distinct values (`_heads_and_tail`):
    the heads e = 1..r weigh mu(e) and the tail quotient v weighs
    M(floor(n/v)) - M(floor(n/(v+1))), both differences of the cached
    Mertens prefix sums M of mu, the tail's from one gather.  A target with
    q > n is first replaced by its lower F_n neighbour from `_bracket`
    (O(log q) steps): floor(d*x) is the same for both at every d <= n, so
    the rank is too, and q <= n after that.  S(v) for every quotient v up to
    the reach V (`_reach`) comes from one prefix sum of floor(d*p/q),
    d = 1..V, which covers the whole tail; only the heads above V,
    e <= n/(V + 1), go through `_floor_sums`' Euclid-like passes.  So a call
    costs O(log q) for the bracket plus V prefix entries plus n/(V + 1) array
    elements per step of Euclid's algorithm on p/q, after the O(n) sieve that
    the mu / Mertens cache shares across calls.

    With p <= q <= n, each floor(d*p/q) <= d, each product d*p <= V*q <= n^2
    and each prefix entry is at most V(V + 1)/2; every value in the Euclid
    passes is within `_floor_sums`' bound for m <= n.  A quotient's weight is
    at most the number of e in its block in magnitude, so every partial sum
    of the weighted dot products is at most sum over e of S(floor(n/e)) <= n^2
    in magnitude.  All of it is exact in int64 while (n + 1)(n + 2) < 2^62;
    past that the arrays hold Python ints.  Exact for any denominator q.
    """
    _check_positive_order(n)
    _check_unit_interval(x)
    p, q = x.num, x.den
    if q > n:
        p, q = _bracket(n, p, q)[0]
    r, t = _heads_and_tail(n)
    reach = _reach(n)
    h = n // (reach + 1)  # the heads e <= h have quotients above the reach
    mertens = mertens_upto(n)
    quotients = n // np.arange(1, r + 2)  # floor(n/e) for e = 1..r + 1
    ends = mertens[quotients[: t + 1]]
    tail = ends[:-1] - ends[1:]
    mu = mertens[1 : r + 1] - mertens[:r]
    dtype = np.int64 if (n + 1) * (n + 2) < 1 << 62 else object
    prefix = np.cumsum(np.arange(1, reach + 1, dtype=dtype) * p // q)  # S(v) at v - 1
    total = np.dot(tail, prefix[:t]) + np.dot(mu[h:], prefix[quotients[h:r] - 1])
    if h:
        total += np.dot(mu[:h], _floor_sums(quotients[:h], p, q))
    return RankReport(n, x, 1 + int(total), METHOD_MOEBIUS)


def count_in_window(n: int, lo: Fraction, hi: Fraction) -> int:
    """Number of F_n elements in [lo, hi], by rank difference (no enumeration)."""
    if hi < lo:
        raise PreconditionError(f"empty range: lo={lo} > hi={hi}")
    c_hi = rank_fast(n, hi).rank
    c_lo = rank_fast(n, lo).rank
    return c_hi - c_lo + (1 if lo.den <= n else 0)
