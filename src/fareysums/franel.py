"""Full and partial deviation sums of Farey fractions from evenly spaced points.

The summand at rank j is |F_N(j) - j/|F_N||.  Each term is handled as the exact
integer pair (|num*M - j*den|, den*M), so the floating accumulation only ever
rounds a correctly-rounded quotient, and a Neumaier-compensated sum keeps the
drift around machine epsilon regardless of term count.  An exact rational sum
is carried alongside while the term count stays within the exact-mode budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat
from math import gcd, log

import numpy as np

from .arith import Fraction, ONE, ZERO
from .errors import BudgetError, PreconditionError
from .farey import iter_window, rank_fast
from .totient import (
    THREE_OVER_PI_SQ,
    TotientTable,
    build_totient_table,
    farey_cardinality,
    lcm_range,
)

DEFAULT_TERM_BUDGET = 100_000_000
EXACT_MODE_BUDGET = 10_000


class _NeumaierSum:
    """Compensated accumulator; relative drift stays near eps even over 1e8 terms."""

    __slots__ = ("total", "comp")

    def __init__(self) -> None:
        self.total = 0.0
        self.comp = 0.0

    def add(self, term: float) -> None:
        t = self.total + term
        if abs(self.total) >= abs(term):
            self.comp += (self.total - t) + term
        else:
            self.comp += (term - t) + self.total
        self.total = t

    def value(self) -> float:
        return self.total + self.comp


@dataclass
class FranelResult:
    """A deviation sum over a contiguous rank range of F_order.

    sum_exact is present only when the term count stayed within the exact-mode
    budget; sum_float is always present.  max_term / argmax_rank locate the
    largest single deviation in the range (ties resolved to the earliest rank,
    decided by exact cross-multiplication, not floats).
    """

    order: int
    lo: Fraction
    hi: Fraction
    rank_lo: int
    rank_hi: int
    term_count: int
    sum_exact: Rat | None
    sum_float: float
    max_term: float
    argmax_rank: int


def _table_for(n: int, table: TotientTable | None) -> TotientTable:
    # callers needing more than the default sieve budget must pass their own table
    if table is not None and table.limit >= n:
        return table
    return build_totient_table(n)


def _scan_deviation_range(
    n: int,
    lo: Fraction,
    hi: Fraction,
    rank_lo: int,
    cardinality: int,
    exact_budget: int,
    term_budget: int,
) -> FranelResult:
    m = cardinality
    j = rank_lo
    acc = _NeumaierSum()
    exact: Rat | None = Rat(0)
    best_num, best_den, best_rank = 0, 1, rank_lo
    count = 0
    for num, den in iter_window(n, lo, hi):
        count += 1
        if count > term_budget:
            raise BudgetError(
                f"deviation scan over [{lo}, {hi}] at order {n} exceeded the "
                f"term budget {term_budget}; use a smaller section"
            )
        dev = num * m - j * den
        if dev < 0:
            dev = -dev
        dm = den * m
        acc.add(dev / dm)
        if exact is not None:
            if count <= exact_budget:
                exact += Rat(dev, dm)
            else:
                exact = None
        if dev * best_den > best_num * dm:
            best_num, best_den, best_rank = dev, dm, j
        j += 1
    if count == 0:
        raise PreconditionError(f"no F_{n} fractions in [{lo}, {hi}]")
    return FranelResult(
        order=n,
        lo=lo,
        hi=hi,
        rank_lo=rank_lo,
        rank_hi=j - 1,
        term_count=count,
        sum_exact=exact,
        sum_float=acc.value(),
        max_term=best_num / best_den,
        argmax_rank=best_rank,
    )


def full_franel_sum(
    n: int,
    table: TotientTable | None = None,
    exact_budget: int = EXACT_MODE_BUDGET,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> FranelResult:
    """Deviation sum over the whole of F_n, ranks assigned by streaming from 0/1."""
    table = _table_for(n, table)
    m = farey_cardinality(n, table)
    if m > term_budget:
        raise BudgetError(f"|F_{n}| = {m} exceeds the term budget {term_budget}")
    return _scan_deviation_range(n, ZERO, ONE, 1, m, exact_budget, term_budget)


def partial_franel_sum_range(
    n: int,
    lo: Fraction,
    hi: Fraction,
    rank_of_lo: int,
    table: TotientTable | None = None,
    exact_budget: int = EXACT_MODE_BUDGET,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> FranelResult:
    """Deviation sum over the F_n fractions in [lo, hi], with ranks anchored at lo.

    lo must itself belong to F_n and rank_of_lo must be its rank; the anchor is
    checked against rank_fast at every order (O(sqrt(n) log q) per check).
    Ranks inside the window are then assigned incrementally.
    """
    if lo.den > n:
        raise PreconditionError(f"lo={lo} is not in F_{n}")
    expected = rank_fast(n, lo).rank
    if rank_of_lo != expected:
        raise PreconditionError(
            f"anchor rank {rank_of_lo} does not match the rank {expected} of {lo} in F_{n}"
        )
    table = _table_for(n, table)
    m = farey_cardinality(n, table)
    return _scan_deviation_range(n, lo, hi, rank_of_lo, m, exact_budget, term_budget)


@dataclass
class SectionSum:
    """A deviation sum over the section attached to a vertex, plus predictions.

    sum_over_log is sum_float / log(N) (natural log), the quantity whose
    boundedness is under test near 0/1 and 1/2.  For vertices with eta > 2 the
    predicted value log(N/eta)*(N/eta)*(3/pi^2)*|chi/eta - rank/|F_N|| is
    reported together with the measured/predicted ratio; no tolerance is
    asserted here since the prediction carries unquantified O(1/N) slack.
    """

    vertex: Fraction
    co_vertex: Fraction
    i: int
    order: int
    result: FranelResult
    sum_over_log: float
    predicted: float | None
    measured_over_predicted: float | None


def vertex_partial_sum(
    vertex: Fraction,
    co_vertex: Fraction,
    i: int,
    table: TotientTable | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> SectionSum:
    """Deviation sum over the section between a vertex and its i-th mediant endpoint.

    The order is N = eta * lcm(2..i); with q = N/(eta*i) the section runs from
    chi/eta to (chi*q+a)/(eta*q+b), oriented by the side the co-vertex lies on.
    """
    if i < 2:
        raise PreconditionError(f"section index i must be >= 2, got {i}")
    eta = vertex.den
    if not vertex.is_finite or vertex.num > eta:
        raise PreconditionError(f"vertex {vertex} is outside [0/1, 1/1]")
    if co_vertex.den > eta and co_vertex != Fraction(1, 0):
        raise PreconditionError(f"co-vertex {co_vertex} is not an F_{eta} neighbor of {vertex}")
    if abs(vertex.num * co_vertex.den - co_vertex.num * eta) != 1:
        raise PreconditionError(f"vertex {vertex} and co-vertex {co_vertex} are not adjacent")
    n = eta * lcm_range(i)
    q = n // (eta * i)
    endpoint = Fraction(vertex.num * q + co_vertex.num, eta * q + co_vertex.den)
    lo, hi = (vertex, endpoint) if vertex < endpoint else (endpoint, vertex)
    table = _table_for(n, table)
    rank_lo = rank_fast(n, lo).rank
    result = partial_franel_sum_range(n, lo, hi, rank_lo, table, term_budget=term_budget)
    sum_over_log = result.sum_float / log(n)
    predicted = None
    ratio = None
    if eta > 2:
        vertex_rank = rank_lo if lo == vertex else rank_fast(n, vertex).rank
        m = farey_cardinality(n, table)
        gap = abs(vertex.num / eta - vertex_rank / m)
        predicted = log(n / eta) * (n / eta) * THREE_OVER_PI_SQ * gap
        ratio = result.sum_float / predicted if predicted else None
    return SectionSum(vertex, co_vertex, i, n, result, sum_over_log, predicted, ratio)


@dataclass
class GrowthScan:
    """Vertex sections swept over increasing i; rows ascend in order N."""

    rows: list[SectionSum]


def growth_scan(
    vertex: Fraction,
    co_vertex: Fraction,
    i_list: list[int],
    table: TotientTable | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> GrowthScan:
    """vertex_partial_sum for each i, merged in ascending order of i (hence of N)."""
    rows = [
        vertex_partial_sum(vertex, co_vertex, i, table, term_budget)
        for i in sorted(set(i_list))
    ]
    return GrowthScan(rows)


@dataclass
class KanemitsuResult:
    """Signed prefix sum sum(F_N(j) - R/(2|F_N|), j <= R) with R = rank of 1/4."""

    order: int
    prefix_rank: int
    cardinality: int
    sum_exact: Rat | None
    sum_float: float


def kanemitsu_sum(
    n: int,
    table: TotientTable | None = None,
    exact_budget: int = EXACT_MODE_BUDGET,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> KanemitsuResult:
    """The signed deviation sum over the F_n prefix up to 1/4 (needs n >= 4)."""
    if n < 4:
        raise PreconditionError(f"the prefix sum needs n >= 4, got {n}")
    table = _table_for(n, table)
    m = farey_cardinality(n, table)
    prefix_rank = rank_fast(n, Fraction(1, 4)).rank
    acc = _NeumaierSum()
    exact: Rat | None = Rat(0)
    count = 0
    denom = 2 * m
    for num, den in iter_window(n, ZERO, Fraction(1, 4)):
        count += 1
        if count > term_budget:
            raise BudgetError(f"prefix scan at order {n} exceeded the term budget {term_budget}")
        dev = num * denom - prefix_rank * den
        dm = den * denom
        acc.add(dev / dm)
        if exact is not None:
            if count <= exact_budget:
                exact += Rat(dev, dm)
            else:
                exact = None
    if count != prefix_rank:
        raise PreconditionError(
            f"prefix scan counted {count} terms but the rank of 1/4 is {prefix_rank}"
        )
    return KanemitsuResult(n, prefix_rank, m, exact, acc.value())


@dataclass
class DressReport:
    """Largest single deviation in F_order and whether it respects the 1/order cap.

    bound_ok is decided by exact integer comparison per term.  rank2_term is
    the deviation at rank 2 (the fraction 1/order), reported for comparison
    with the maximum.
    """

    order: int
    max_term: float
    argmax_rank: int
    bound_ok: bool
    rank2_term: float


def dress_scan(
    n: int,
    table: TotientTable | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> DressReport:
    """Scan every term of F_n for the maximum deviation and the 1/n bound."""
    table = _table_for(n, table)
    m = farey_cardinality(n, table)
    if m > term_budget:
        raise BudgetError(f"|F_{n}| = {m} exceeds the term budget {term_budget}")
    best_num, best_den, best_rank = 0, 1, 1
    ok = True
    j = 1
    for num, den in iter_window(n, ZERO, ONE):
        dev = num * m - j * den
        if dev < 0:
            dev = -dev
        dm = den * m
        if dev * best_den > best_num * dm:
            best_num, best_den, best_rank = dev, dm, j
        if dev * n > dm:
            ok = False
        j += 1
    rank2_term = abs(m - 2 * n) / (n * m) if n >= 1 else 0.0
    return DressReport(n, best_num / best_den, best_rank, ok, rank2_term)


@dataclass
class DressSweep:
    """Exact bound checks for every order in [2, n_max] (order 1 is trivial)."""

    n_max: int
    all_ok: bool
    violations: list[int]
    worst_ratio: float
    worst_order: int


def dress_scan_sweep(n_max: int, element_budget: int = 2_000_000) -> DressSweep:
    """Check max_j |F_N(j) - j/|F_N|| <= 1/N for every N <= n_max in one pass.

    Maintains the sorted fraction arrays incrementally (denominator N inserts
    phi(N) new elements via one vectorized merge), so the whole sweep costs
    O(|F_N|) vector work per order instead of a fresh enumeration.  The bound
    test itself is exact int64 arithmetic; worst_ratio reports max over N of
    N * max_term as a float.
    """
    if n_max < 1:
        raise PreconditionError(f"n_max must be >= 1, got {n_max}")
    final_size = THREE_OVER_PI_SQ * n_max * n_max + 2 * n_max + 16
    if final_size > element_budget:
        raise BudgetError(
            f"sweep to {n_max} needs about {final_size:.3g} resident elements, "
            f"over budget {element_budget}"
        )
    vals = np.array([0.0, 1.0])
    nums = np.array([0, 1], dtype=np.int64)
    dens = np.array([1, 1], dtype=np.int64)
    violations: list[int] = []
    worst_ratio, worst_order = 0.5, 1  # order 1: terms 1/2 and 0 against the cap 1
    for n in range(2, n_max + 1):
        new_h = [h for h in range(1, n) if gcd(h, n) == 1]
        new_vals = np.array(new_h, dtype=np.float64) / n
        pos = np.searchsorted(vals, new_vals)
        vals = np.insert(vals, pos, new_vals)
        nums = np.insert(nums, pos, new_h)
        dens = np.insert(dens, pos, np.int64(n))
        m = nums.size
        ranks = np.arange(1, m + 1, dtype=np.int64)
        dev = np.abs(nums * m - ranks * dens)
        den_m = dens * m
        if np.any(dev * n > den_m):
            violations.append(n)
        idx = int(np.argmax(dev / dens))  # m and n are constant factors
        ratio = float(dev[idx]) * n / float(den_m[idx])
        if ratio > worst_ratio:
            worst_ratio, worst_order = ratio, n
    return DressSweep(n_max, not violations, violations, worst_ratio, worst_order)
