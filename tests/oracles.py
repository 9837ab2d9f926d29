"""Independent brute-force oracles used across the test suite.

Everything here is built from the stdlib only (math.gcd + fractions.Fraction)
so that it shares no code path with the package under test.  The one
exception is `stream_deviations`, which walks `iter_window` (the next-term
recurrence) as the reference for the vectorized deviation kernel.
"""

from fractions import Fraction as Rat
from math import gcd

from fareysums.farey import iter_window


def brute_farey(n: int) -> list[Rat]:
    """All reduced fractions in [0, 1] with denominator <= n, sorted exactly."""
    out = [Rat(0, 1), Rat(1, 1)]
    for d in range(2, n + 1):
        out.extend(Rat(h, d) for h in range(1, d) if gcd(h, d) == 1)
    return sorted(out)


def brute_window(n: int, lo: Rat, hi: Rat) -> list[Rat]:
    """Brute-force F_n restricted to [lo, hi]."""
    return [x for x in brute_farey(n) if lo <= x <= hi]


def brute_bracket(n: int, x: Rat) -> tuple[Rat, Rat]:
    """The largest F_n element below x and the smallest at or above it, for x in (0, 1]."""
    seq = brute_farey(n)
    return max(y for y in seq if y < x), min(y for y in seq if y >= x)


def brute_rank(n: int, x: Rat) -> int:
    """1-based count of F_n elements <= x, from the sorted brute-force list."""
    return sum(1 for y in brute_farey(n) if y <= x)


def brute_deviation_sum(n: int, lo: Rat, hi: Rat) -> Rat:
    """Exact sum of |F_n(j) - j/|F_n|| over the elements in [lo, hi]."""
    seq = brute_farey(n)
    m = len(seq)
    return sum(
        (abs(x - Rat(j, m)) for j, x in enumerate(seq, start=1) if lo <= x <= hi),
        start=Rat(0),
    )


def brute_phi(n: int) -> int:
    """Euler phi by definition (gcd counting)."""
    return sum(1 for h in range(1, n + 1) if gcd(h, n) == 1)


def brute_mobius(n: int) -> int:
    """Mobius mu(n) by trial division: 0 when a square divides n, else (-1)^(prime count)."""
    if n < 1:
        return 0
    value, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            value = -value
        d += 1
    return -value if n > 1 else value


def stream_deviations(n, lo, hi, rank_lo, scale, exact_budget, fixed_rank=None) -> dict:
    """The deviation scan one term at a time, in plain ints, over iter_window(n, lo, hi).

    The term at rank j (counted up from rank_lo) is |h*scale - j*k| / (k*scale),
    or the signed (h*scale - fixed_rank*k) / (k*scale) when fixed_rank is given.
    Returns the term count, the rank of the last term, the exact sum (None when
    the count passes exact_budget), the float of the exact sum (at any count:
    the deviations are summed per denominator first, so it costs one Rat per
    denominator), and the largest term with its earliest rank, compared
    exactly (absolute terms only).
    """
    j = rank_lo
    count = 0
    by_den: dict[int, int] = {}
    best_num, best_den, best_rank = 0, 1, rank_lo
    for h, k in iter_window(n, lo, hi):
        dev = h * scale - (j if fixed_rank is None else fixed_rank) * k
        if fixed_rank is None:
            dev = abs(dev)
        den = k * scale
        by_den[k] = by_den.get(k, 0) + dev
        if dev * best_den > best_num * den:
            best_num, best_den, best_rank = dev, den, j
        count += 1
        j += 1
    exact = sum((Rat(d, k) for k, d in by_den.items()), start=Rat(0)) / scale
    return {
        "term_count": count,
        "rank_hi": j - 1,
        "sum_exact": exact if count <= exact_budget else None,
        "sum_float": float(exact),
        "max_term": best_num / best_den,
        "max_pair": (best_num, best_den),
        "argmax_rank": best_rank,
    }
