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


# np.divmod has no loop for dtype=object
_object_divmod = np.frompyfunc(divmod, 2, 2)


def _floor_sums(ms: np.ndarray, p: int, q: int) -> np.ndarray:
    """S(m) = sum of floor(d*p/q) for d = 1..m, for every m in ms at once.

    Euclid-like reduction of sum_{i<n} floor((a*i + b)/c): peel off the
    integer parts of a/c and b/c in closed form, then count the lattice points
    under the line by rows instead of columns, which swaps a and c so that the
    next pass reduces c mod a, as in Euclid's algorithm.  The (a, c) pairs are
    Euclid's on p/q whatever m is, so only n and b are arrays, and a pass
    costs four array operations for all of ms; the peeled terms
    n*(n - 1)/2*(a//c) + n*(b//c) of every pass are summed in one go at the
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
    n = np.add(ms, 1, dtype=dtype)
    k, a = divmod(p, q)
    b, c = 0, q
    ns, ks, kbs = [n], [k], [np.zeros_like(n)]
    while a:  # at a = 0, a*n + b = b < c: no lattice point is left under the line
        n, b = split(a * n + b, c)
        a, c = c, a
        k, a = divmod(a, c)
        kb, b = split(b, c)
        ns.append(n)
        ks.append(k)
        kbs.append(kb)
    n, kb, k = np.array(ns), np.array(kbs), np.array(ks, dtype=dtype)[:, None]
    return (n * ((n - 1) * k + 2 * kb)).sum(axis=0) // 2


def _quotient_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct v = floor(n/e) for e <= n, and the block ends of e that share each v.

    Returns (vs, ends): e in (ends[i], ends[i + 1]] gives floor(n/e) = vs[i].
    The isqrt(n) = r heads e = 1..r have distinct quotients and blocks of one
    e each; the tail is v = t..1 on the blocks (floor(n/(v+1)), floor(n/v)],
    with t = r - 1 when floor(n/r) = r already heads the list, and t = r
    otherwise.
    """
    r = isqrt(n)
    t = r - 1 if n // r == r else r
    ends = np.concatenate((np.arange(r + 1), n // np.arange(t, 0, -1)))
    return n // ends[1:], ends


def rank_fast(n: int, x: Fraction) -> RankReport:
    """Rank of x = p/q in F_n via the Mobius identity grouped by Mertens sums.

    #{h <= d*x : gcd(h, d) = 1} = sum over e | d of mu(e)*floor(d*x/e); summing
    over d <= n and writing d = e*d' gives

        rank = 1 + sum over e <= n of mu(e) * S(floor(n/e)),
        S(m) = sum of floor(d*p/q) for d <= m.

    floor(n/e) takes about 2*sqrt(n) distinct values, each on a block of e
    (`_quotient_blocks`), which contributes (M(hi) - M(lo-1)) * S(floor(n/e))
    with M the Mertens prefix sum of mu, all gathered in one index.  A target
    with q > n is first replaced by its lower F_n neighbour from `_bracket`
    (O(log q) steps): floor(d*x) is the same for both at every d <= n, so
    the rank is too, and q <= n after that.  `_floor_sums` then runs one
    Euclid-like pass over all the blocks together, so a call costs O(log q)
    for the bracket plus about 2*sqrt(n) array elements per step of Euclid's
    algorithm on p/q, after the O(n) sieve that the mu / Mertens cache shares
    across calls.  Since sum over e of S(floor(n/e)) <= n^2, every step and
    the weighted sum are exact in int64 while (n + 1)(n + 2) < 2^62; past that
    the arrays hold Python ints.  Exact for any denominator q.
    """
    if n < 1:
        raise PreconditionError(f"order must be >= 1, got {n}")
    _check_unit_interval(x)
    p, q = x.num, x.den
    if q > n:
        p, q = _bracket(n, p, q)[0]
    vs, ends = _quotient_blocks(n)
    weights = np.diff(mertens_upto(n)[ends])
    return RankReport(n, x, 1 + int(np.dot(weights, _floor_sums(vs, p, q))), METHOD_MOEBIUS)


def count_in_window(n: int, lo: Fraction, hi: Fraction) -> int:
    """Number of F_n elements in [lo, hi], by rank difference (no enumeration)."""
    if hi < lo:
        raise PreconditionError(f"empty range: lo={lo} > hi={hi}")
    c_hi = rank_fast(n, hi).rank
    c_lo = rank_fast(n, lo).rank
    return c_hi - c_lo + (1 if lo.den <= n else 0)
