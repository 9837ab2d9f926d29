"""Ground-truth enumeration of Farey sequences, rank computation, and neighbor search.

One mediant descent (`_bracket`) places any fraction between two consecutive
members: it seeds window enumeration and gives neighbors.  The enumeration
path (next-term recurrence) and the two rank paths (direct gcd counting,
Mobius identity grouped by Mertens sums) are deliberately independent of
each other so they can cross-check one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log

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


def _check_window_args(n: int, lo: Fraction, hi: Fraction) -> None:
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
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
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    _check_unit_interval(x)
    p, q = x.num, x.den
    count = 1
    for d in range(1, n + 1):
        m = d * p // q
        count += sum(1 for h in range(1, m + 1) if gcd(h, d) == 1)
    return RankReport(n, x, count, METHOD_ORACLE)


def _floor_sum(m: int, p: int, q: int) -> int:
    """S(m) = sum of floor(d*p/q) for d = 1..m, in O(log q) plain-int steps.

    Euclid-like reduction of sum_{i<n} floor((a*i + b)/c): peel off the
    integer parts of a/c and b/c in closed form, then count the lattice points
    under the line by rows instead of columns, which swaps a and c so that the
    next pass reduces c mod a, as in Euclid's algorithm.  Python ints keep
    every step exact for any p, q.
    """
    n, a, b, c = m + 1, p, 0, q
    total = 0
    while True:
        if a >= c:
            total += n * (n - 1) // 2 * (a // c)
            a %= c
        if b >= c:
            total += n * (b // c)
            b %= c
        top = a * n + b
        if top < c:
            return total
        n, b = divmod(top, c)
        a, c = c, a


def rank_fast(n: int, x: Fraction) -> RankReport:
    """Rank of x = p/q in F_n via the Mobius identity grouped by Mertens sums.

    #{h <= d*x : gcd(h, d) = 1} = sum over e | d of mu(e)*floor(d*x/e); summing
    over d <= n and writing d = e*d' gives

        rank = 1 + sum over e <= n of mu(e) * S(floor(n/e)),
        S(m) = sum of floor(d*p/q) for d <= m.

    floor(n/e) takes O(sqrt(n)) distinct values, each on a block [l, r] of e,
    which contributes (M(r) - M(l-1)) * S(floor(n/l)) with M the Mertens
    prefix sum of mu.  Each S is one O(log q) floor sum, so a call costs
    O(sqrt(n) log q) after the O(n) sieve that the mu / Mertens cache shares
    across calls.  Exact for any denominator q.
    """
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    _check_unit_interval(x)
    p, q = x.num, x.den
    mertens = mertens_upto(n)
    total = 0
    lo = 1
    while lo <= n:
        v = n // lo
        hi = n // v
        weight = int(mertens[hi]) - int(mertens[lo - 1])
        if weight:
            total += weight * _floor_sum(v, p, q)
        lo = hi + 1
    return RankReport(n, x, 1 + total, METHOD_MOEBIUS)


def count_in_window(n: int, lo: Fraction, hi: Fraction) -> int:
    """Number of F_n elements in [lo, hi], by rank difference (no enumeration)."""
    if hi < lo:
        raise PreconditionError(f"empty range: lo={lo} > hi={hi}")
    c_hi = rank_fast(n, hi).rank
    c_lo = rank_fast(n, lo).rank
    return c_hi - c_lo + (1 if lo.den <= n else 0)
