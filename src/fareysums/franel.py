"""Full and partial deviation sums of Farey fractions from evenly spaced points.

The summand at rank j is |F_N(j) - j/|F_N||.  Every scan runs through one
numpy kernel, `_scan`, over F_N in [lo, hi].  It takes the window's members
in ascending chunks of at most about `_SLICE_TERMS` terms, each with its
position in the window, by whichever of three enumerations costs less for
the window's order and term count (`_path`, one cost model):

- streaming by the next-term recurrence (`iter_window`), which costs time in
  the members alone: narrow windows, and every window at large orders that
  rows do not serve (`_streams`);
- value slices: per denominator k the numerators of a slice come from floor
  arithmetic on its end points, and one sort by value orders them and merges
  each h/k with its unreduced multiples.  A slice costs time and memory in
  every denominator up to N, so it pays off when the slice holds many terms
  per denominator;
- rows of the paper's map, for prefixes [0/1, 1/M] with M >= 2: whole
  mirrored scans (M = 2) and the vertex-0/1 sections (M = N/i).  For
  m >= 2, F_N in (1/(m+1), 1/m] is
  {k/(m*k + h) : h/k in F_{N//m} in [0, 1), m*k + h <= N}, so rows of m
  against one preimage, the half F_{N//M} in [0, 1/2] built by the same
  rows recursively and mirrored, give reduced pairs with no float and no
  sort (`_rows`).  A band of rows is compressed to its members by flat
  indices, or by its boolean mask when it keeps at least 9/10 of its cells.
  Their chunks come from 1/M down, so their ranks are counted down from the
  last.  The pairs are int32, as every denominator of a row is below 2N
  (N <= 2**30); the kernel widens them to int64 before any product with
  |F_N|.  Rows serve only windows whose preimage half holds at most about
  _ROW_CAP = 2**20 pairs (8 MB as int32), and are weighed against streams
  or slices, whichever `_streams` picks.

Ranks follow from the rank of lo, so each term is the exact integer pair
(|h*M - j*k|, k*M), int64 below _ORDER_CAP (see `_Reduction`).  The kernel
reduces the terms, chunk by chunk in any order and in work arrays, to:

- the exact maximum and its earliest rank: a float prefilter (3u, or 4u once
  M >= 2**53) keeps the terms near the largest, and Python ints recheck them
  (`_beats`, the one rule for every maximum of this module);
- one running int64 sum D_k of the integer deviations per denominator k:
  dense (np.add.at into n + 1 entries) when the scan holds at least
  (n + 1)/8 terms, else sorted groups, one per k seen, so a tiny window at
  a large order costs only its members.  The groups' chunks are merged
  once, when the D_k are read.

With D_k = W_k*k + r_k, 0 <= r_k < k and W the sum of the W_k (a Python
int, each block's whole parts summed exactly by 32-bit halves), the sum is
(W + sum_k r_k/k)/M.  The fold, sum_float and sum_exact all read the D_k
_SLICE_TERMS = 2**16 entries at a time (`_remainders`).  sum_float is the
sum correctly rounded: each r_k/k cut to three base-2**32 digits (in int64
while k < 2**31) puts it in [T, T + G*2**-96) for the digits' total T and
G nonzero r_k, and the float both ends round to is the answer; when they
differ, or some k >= 2**31, the exact sum decides.
sum_exact, within the exact-mode budget, adds the r_k/k pairwise over lcms,
the leaves ordered by k // gcd(k, lcm(1..40)) so that denominators sharing
a prime above 40 meet early: in int64 while 2*max(den)**2 < 2**63, carrying
whole parts out so every numerator stays below its denominator, then in
Python ints.

The term count is known from ranks before the scan starts, so budgets are
checked before any term is enumerated, and the enumeration is checked
against it afterwards.

F_N is symmetric about 1/2: F_N(m+1-j) = 1 - F_N(j) with m = |F_N|.  A scan
of the whole of F_N enumerates only its (m+1)//2 members in [0, 1/2] and
reduces each h/k at rank j as itself and as (k-h)/k at rank m+1-j (1/2
once), both in one pass over the chunk.  The mirror's integer pair is the
one a direct enumeration would give, so every term, and so every
reduction, is the same.

The largest deviation of F_N needs no sum: (N-1)/N at rank |F_N| - 1
deviates by exactly c = 1/N - 1/|F_N|, so only the members of [0, 1/2]
whose deviation d has d >= c - 1/|F_N| or d <= -c can hold it, as
themselves or mirrored.  A float filter against these two thresholds,
widened by the float slack, keeps them (`_reaching`, `_passing`), and
Python ints recheck them (`_rechecked`).  `dress_scan` filters the half
chunk by chunk.  The order sweep of the 1/N bound builds the members of
F_{n_max} in [0, 1/2] once, by rows, and cuts them into fixed blocks; a
pass over a batch of orders by all blocks takes every block's ranks from
its counts, hence float bounds on its members' terms, and only the few
blocks whose bounds pass a threshold are evaluated.

The signed prefix up to 1/4 (`kanemitsu_sum`) is no scan: Mobius sums give
each denominator's numerator sum, and their fold gives the reduction's D_k
directly, for the same readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat
from itertools import chain, islice
from math import ceil, gcd, isqrt, log

import numpy as np

from .arith import Fraction, ONE, ZERO
from .errors import BudgetError, PreconditionError, within_budget
from .farey import _check_positive_order, _check_window_args, iter_window, rank_fast
from .mapping import MapParams, make_params
from .totient import (
    THREE_OVER_PI_SQ,
    TotientTable,
    build_totient_table,
    farey_cardinality,
    lcm_range,
    mobius_upto,
)

DEFAULT_TERM_BUDGET = 100_000_000
EXACT_MODE_BUDGET = 10_000
# the most members of F_N in [0, 1/2] that the Dress sweep's buffers hold
SWEEP_MEMBER_BUDGET = 2_000_000

_SLICE_TERMS = 1 << 16
_ORDER_CAP = 3_000_000_000  # below it |F_n| < 2**62 and (n + 2)*n < 2**63, as `_Reduction` needs
_HALF = Fraction(1, 2)
# Streaming a member costs about as much as the floor arithmetic of 12
# denominators in a slice, and a slice's fixed numpy overhead about as much
# as 768 denominators (0.5 us, 40 ns and 30 us on a 2-core Xeon, Python
# 3.11, numpy 2.4).  A window is sliced only when that is cheaper, so never
# at n + 768 > 12*_SLICE_TERMS, and every sliced order is below 2**20.
_STREAM_COST = 12
_SLICE_OVERHEAD = 768
# In the same unit, a member costs a slice about 2 (80 ns: its share of the
# sort and run expansion) and the rows about 1 (40 ns, as does a member of
# their preimage), and each level of the rows' recursion about 2500 (0.1 ms:
# its bands, shrinks and joins), measured on the enumerations alone on the
# same machine.  Rows hold their preimage half as int32 pairs, and twice
# that while building it (its chunks and their join), so they serve only
# windows whose preimage half holds at most about _ROW_CAP pairs (8 MB).
_SLICE_MEMBER_COST = 2
_ROW_MEMBER_COST = 1
_ROW_LEVEL_COST = 2500
_ROW_CAP = 1 << 20
# One term dev/(k*float(scale)) is within 3u of exact, relatively (u = 2**-53):
# one rounding each for dev, k*float(scale) and the quotient; 4u once scale >=
# 2**53, where float(scale) rounds too.  Every exact maximum and tie is then
# within 8u (and a hair) of the largest float, so every float within 16u of it
# is rechecked in Python ints.  The Dress maxima's terms and thresholds are each
# within 4u absolutely, and they widen the thresholds by the same slack (`_reaching`).
_TERM_SLACK = 2.0**-49
# base-2**32 digits of each r_k/k that sum_float adds before its interval check
_DIGITS = 3
# lcm(1..40): k // gcd(k, _SMOOTH) is 1 when k divides it, and otherwise
# keeps k's primes above 40 (and its prime powers past 40).
_SMOOTH = 5_342_931_457_063_200


@dataclass
class FranelResult:
    """A deviation sum over a contiguous rank range of F_order.

    sum_exact is present only when the term count stayed within the exact-mode
    budget; sum_float, the exact sum correctly rounded, is always present,
    whatever the term count.  max_term / argmax_rank locate the
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
    """The caller's table, which must reach n, or one sieved to n under the default budget."""
    if table is None:
        return build_totient_table(n)
    if table.limit < n:
        raise BudgetError(f"totient table up to {table.limit} is shorter than the order {n}")
    return table


def _floors(n: int, num: int, den: int, shift: int = 0) -> np.ndarray:
    """floor((k*num + shift)/den) for k = 1..n as int64, exact for any num and den."""
    exact_in_int64 = max(n * num + abs(shift), den) < 1 << 63
    ks = np.arange(1, n + 1, dtype=np.int64 if exact_in_int64 else object)
    return ((ks * num + shift) // den).astype(np.int64, copy=False)


def _cuts(lo: Fraction, hi: Fraction, slices: int):
    """Upper ends (num, den) of `slices` value slices of [lo, hi]; the last is hi.

    The s-th inner cut is lo + s*(hi - lo)/slices rounded down to a multiple
    of 1/D, with D a power of two above 2*slices/(hi - lo): the cuts stay
    strictly increasing inside (lo, hi), and their floors stay small ints.
    """
    p, q, r, s = lo.num, lo.den, hi.num, hi.den
    width_num, width_den = r * q - p * s, q * s
    if slices > 1:
        grid = 1 << (2 * slices * width_den // width_num + 1).bit_length()
        for i in range(1, slices):
            yield grid * (p * s * slices + i * width_num) // (width_den * slices), grid
    yield r, s


def _streams(n: int, count: int) -> bool:
    """Whether streaming the count members of a window of F_n costs less than slicing it."""
    return _STREAM_COST * count < -(-count // _SLICE_TERMS) * (n + _SLICE_OVERHEAD)


def _path(n: int, lo: Fraction, hi: Fraction, count: int) -> str:
    """The enumeration of the count members of F_n in [lo, hi]: "stream", "slices" or "rows".

    `_streams` picks streams or slices.  Rows serve instead the windows
    [0/1, 1/M] with M >= 2 at n <= 2**30 whose preimage half F_{n//M} in
    [0, 1/2] holds at most about _ROW_CAP members (|F_K| is about
    3*K**2/pi**2), where they cost less than the pick: the members and the
    preimage's, plus a fixed cost per level of the recursion, against the
    streamed members, or the members' sort and each slice's floor arithmetic
    over every denominator.
    """
    streams = _streams(n, count)
    if lo == ZERO and hi.num == 1 and hi.den >= 2 and n <= 1 << 30:
        order = n // hi.den
        preimage = THREE_OVER_PI_SQ * order * order
        rows = _ROW_MEMBER_COST * (count + preimage) + _ROW_LEVEL_COST * order.bit_length()
        if streams:
            pick = _STREAM_COST * count
        else:
            pick = _SLICE_MEMBER_COST * count + -(-count // _SLICE_TERMS) * (n + _SLICE_OVERHEAD)
        if preimage / 2 <= _ROW_CAP and rows < pick:
            return "rows"
    return "stream" if streams else "slices"


def _members(n: int, lo: Fraction, hi: Fraction, count: int, path: str):
    """The count members of F_n in [lo, hi] by `_path`'s pick, as (position, h, k) chunks of at most about _SLICE_TERMS.

    Each chunk is ascending, and position is its first member's 0-based
    position in the window.  Streams and slices give int64 arrays, chunk
    after chunk from lo up; rows give reduced int32 arrays, chunk after chunk
    from hi down (see `_rows`).
    """
    if path == "rows":
        position = count
        for hs, ks in _rows(n, hi.den):
            position -= hs.size
            yield position, hs, ks
        return
    position = 0
    if path == "stream":
        pairs = iter_window(n, lo, hi)
        while chunk := list(islice(pairs, _SLICE_TERMS)):
            hs, ks = np.fromiter(chain.from_iterable(chunk), np.int64, 2 * len(chunk)).reshape(-1, 2).T
            del chunk  # its tuples would outweigh the arrays across the yield
            yield position, hs, ks
            position += hs.size
    else:
        for hs, ks in _slices(n, lo, hi, count):
            yield position, hs, ks
            position += hs.size


def _half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Int32 (h, k) of F_n in [0, 1/2], ascending, by `_rows` (none for n < 1)."""
    if n < 1:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    return _joined(list(_rows(n, 2)))


def _joined(pieces: list) -> tuple[np.ndarray, np.ndarray]:
    """One ascending int32 chunk from (h, k) pieces gathered from the top down."""
    pieces = pieces[::-1]
    return (
        np.concatenate([h for h, _ in pieces], dtype=np.int32),
        np.concatenate([k for _, k in pieces], dtype=np.int32),
    )


def _rows(n: int, top: int):
    """Reduced int32 (h, k) of F_n in [0, 1/top] (top >= 2) by rows of the paper's map.

    For m >= 2, F_n in (1/(m+1), 1/m] is {k/(m*k + h) : h/k in F_{n//m} in
    [0, 1), m*k + h <= n}, ascending as h/k descends; the filter alone
    implies k <= n//m.  The preimage is kept as its half F_{n//top} in
    [0, 1/2] (this function at order n//top, recursively), shrunk to
    F_{n//m} by k <= n//m as m grows.  Descending, F_{n//m} in [0, 1) is the
    mirrors (k-h)/k of the half's members strictly between 0/1 and 1/2,
    ascending, then the half descending; so a row is a mirror segment, with
    denominators (m+1)*k - h, below a half segment.

    A band of rows m..last, with last < 2*m and at most _SLICE_TERMS cells,
    is one 2-D block, its rows in descending m so that the row-major compress
    comes out ascending.  A row wider than _SLICE_TERMS // 2 is a band of its
    own, taken segment by segment in column pieces of at most _SLICE_TERMS.
    Every denominator is below last*k + k <= 2*m*(n//m) <= 2*n, so int32
    holds it while n <= 2**30.  No pair needs a gcd: the map keeps h/k
    reduced.

    The bands run in ascending m, so chunks come from 1/top down, each
    ascending and of at most _SLICE_TERMS members; 0/1 ends the last chunk.
    """
    if n > 1 << 30:
        raise PreconditionError(f"rows at order {n} would pass int32: the order must be at most 2**30")
    half_h, half_k = _half(n // top)
    pieces, held = [], 0
    m = top
    while m <= n and half_k.size:
        keep = half_k <= n // m
        if not keep.all():
            half_h, half_k = half_h[keep], half_k[keep]
        inner = slice(1, half_k.size - (half_k.size > 1))  # F_1 holds no 1/2
        segments = [(half_h[inner], half_k[inner], True), (half_h[::-1], half_k[::-1], False)]
        width = half_k[inner].size + half_k.size
        last = min(n, 2 * m - 1, m - 1 + max(1, _SLICE_TERMS // width))
        if last > m:  # whole rows of one block: the preimage in one segment
            segments = [(
                np.concatenate((half_k[inner] - half_h[inner], half_h[::-1])),
                np.concatenate((half_k[inner], half_k[::-1])),
                False,
            )]
        ms = np.arange(last, m - 1, -1, dtype=np.int32)[:, None]
        for pre_h, pre_k, mirrored in segments[::-1]:
            for stop in range(pre_k.size, 0, -_SLICE_TERMS):
                cols = slice(max(0, stop - _SLICE_TERMS), stop)
                dens = ms * pre_k[cols]
                dens += pre_k[cols] - pre_h[cols] if mirrored else pre_h[cols]
                piece = _kept_cells(dens <= n, np.broadcast_to(pre_k[cols], dens.shape), dens)
                del dens
                if piece[0].size:
                    if held + piece[0].size > _SLICE_TERMS:
                        chunk, pieces, held = _joined(pieces), [], 0
                        yield chunk
                        del chunk
                    pieces.append(piece)
                    held += piece[0].size
        m = last + 1
    if held + 1 > _SLICE_TERMS:
        chunk, pieces = _joined(pieces), []
        yield chunk
    pieces.append((np.zeros(1, dtype=np.int32), np.ones(1, dtype=np.int32)))
    yield _joined(pieces)


def _by_mask(kept: np.ndarray) -> bool:
    """Whether a band compresses faster by its boolean mask than by flat indices: at 9/10 of it kept or more.

    On irregular masks (about two thirds kept) a mask costs about 6.3 ns a
    cell, flatnonzero and take about 1.4 ns; on dense bands the mask wins.
    """
    return 10 * np.count_nonzero(kept) >= 9 * kept.size


def _kept_cells(kept: np.ndarray, *arrays: np.ndarray) -> tuple:
    """The cells of each array (of kept's shape) where kept holds, row-major."""
    if _by_mask(kept):
        return tuple(a[kept] for a in arrays)
    at = np.flatnonzero(kept)
    return tuple(a.take(at) for a in arrays)


def _slices(n: int, lo: Fraction, hi: Fraction, count: int):
    """The members of F_n in [lo, hi] by value slices of about _SLICE_TERMS terms.

    A pair need not be reduced: t*h/t*k stands for h/k.  Its deviation term
    |t*h*M - j*t*k| / (t*k*M) is the same rational, so every reduction that
    compares or adds terms as rationals is unchanged.  The sort key is the
    float h/k: equal values give equal floats (one correctly rounded
    division), and at the orders that are sliced (below 2**20) distinct
    members differ by at least 1/n**2 > 2**-40, far above float64 rounding,
    so the order and the ties of the keys are those of the values.
    """
    lower = _floors(n, lo.num, lo.den, -1)  # h <= lower[k-1] iff h/k < lo
    for num, den in _cuts(lo, hi, -(-count // _SLICE_TERMS)):
        upper = _floors(n, num, den)  # h <= upper[k-1] iff h/k <= num/den
        runs = upper - lower
        ks = np.flatnonzero(runs)
        runs = runs[ks]
        total = int(runs.sum())
        if total:
            starts = np.cumsum(runs) - runs
            hs = np.arange(total, dtype=np.int64) + np.repeat(lower[ks] + 1 - starts, runs)
            ks = np.repeat(ks + 1, runs)
            # t*h/t*k has the key of h/k, so after the sort each run of equal
            # keys is one member; the first pair of the run stands for it.
            key = hs / ks
            order = np.argsort(key)
            key = key[order]
            pick = order[np.concatenate(([True], key[1:] != key[:-1]))]
            hs, ks = hs[pick], ks[pick]
            del key, order, pick, starts  # only the chunk stays alive across the yield
            yield hs, ks
        lower = upper


def _total(a: np.ndarray) -> int:
    """The sum of an int64 array as a Python int, exact for up to 2**31 entries: its 32-bit halves are summed apart."""
    return (int((a >> 32).sum()) << 32) + int((a & 0xFFFFFFFF).sum())


def _beats(term: tuple[int, int, int], best: tuple[int, int, int]) -> bool:
    """Whether the term (dev, den, rank), dev/den exactly, is larger than best, or equal to it at an earlier rank.

    So exact ties go to the earliest rank, whatever order the ranks come in.
    """
    return (term[0] * best[1], best[2]) > (best[0] * term[1], term[2])


class _Reduction:
    """Running reductions of one scan, fed its chunks of members in rank order.

    A term is dev/den with dev = |h*scale - j*k| at rank j and den = k*scale.
    A mirrored scan is fed the members of F_n in [0, 1/2], with scale =
    |F_n|: each h/k at rank j also stands for its mirror (k-h)/k at rank
    scale+1-j, whose signed deviation (k-h)*scale - (scale+1-j)*k is
    -(h*scale - j*k) - k.  Below _ORDER_CAP, |h*|F_n| - j*k| <= k*|F_n|/n <=
    |F_n| < 2**62 by the 1/n bound (Dress), so h*scale - j*k is formed mod
    2**64 in uint64 and read back as int64.  The float term
    dev/(k*float(scale)) is within 3u of exact, or 4u once scale >= 2**53
    (see _TERM_SLACK).

    The deviations are summed per denominator k into the int64 D_k: with
    dense > 0 in `sums`, indexed by k, else in `keys` (the k seen,
    ascending) and their `sums`, which the chunks in `pending` join once,
    when the D_k are read (`_remainders`).  Once dev_bound (at least the sum
    of every |dev| grouped) reaches 2**63, each D_k = W_k*k + r_k keeps only
    r_k, W_k goes to `whole`, and so do those of each later dev: as a scan
    groups at most k + 1 terms of denominator k, D_k < (k + 2)*k < 2**63.
    """

    def __init__(self, rank_lo: int, scale: int, mirrored: bool, dense: int = 0):
        self.terms = 0
        self.scale = scale
        self.mirrored = mirrored
        self.sums = np.zeros(dense, dtype=np.int64)
        self.keys = None if dense else np.empty(0, dtype=np.int64)
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []  # (ks, dev) of chunks not merged yet
        self.whole = 0  # the whole parts W_k carried out of the D_k
        # uint64, int64 and float64 arrays that chunk after chunk is reduced in.  Rows
        # and streams free little between chunks, so fresh arrays per chunk
        # would be freed at the heap's top, trimmed, and faulted in again by
        # the next chunk.  A value slice frees several chunk-sized arrays of
        # its own just before each chunk, so `_scan` drops these after each
        # sliced chunk, and its fresh ones fit in that room.
        self.work: list[np.ndarray] = []
        self.dev_bound = 0
        self.best_dev, self.best_den, self.best_rank = 0, 1, rank_lo

    def add(self, first: int, hs: np.ndarray, ks: np.ndarray) -> None:
        """Reduce one ascending chunk of int64 members, ranked first.., and on a mirrored scan their mirrors.

        Chunks may come in any order.  A member with s = h*scale - j*k
        deviates by |s| and its mirror by |s + k|, over the one den = k*scale,
        so both orientations take one pass: the float prefilter on the larger
        of the two, a Python-int recheck of both, and one grouping of their
        sum.  1/2, which can only end a chunk (as h/k with 2*h == k, reduced
        or not), is its own mirror: both orientations give it the same term
        at the same rank, and it is counted and summed once.
        """
        size = hs.size
        if not self.work or self.work[0].size < size:
            # 0, 1, 2, ...; ranks, then j*k, then float denominators; signed
            # (then mirrored) and absolute deviations; float terms
            self.work = [np.arange(size, dtype=np.uint64)] + [
                np.empty(size, dtype=dtype) for dtype in (np.uint64, np.uint64, np.int64, float)
            ]
        steps, js, wrapped, dev, terms = (a[:size] for a in self.work)
        np.add(steps, first, out=js)
        # h*scale - j*k mod 2**64, exact as int64 (see the class docstring)
        np.multiply(hs.view(np.uint64), self.scale, out=wrapped)
        wrapped -= np.multiply(js, ks.view(np.uint64), out=js)
        signed = wrapped.view(np.int64)
        dev = np.abs(signed, out=dev)
        sides, top, half = [(dev, first, 1)], dev, 0  # (deviations, first rank, rank step) of each orientation
        if self.mirrored:
            signed += ks
            mirror = np.abs(signed, out=signed)
            sides.append((mirror, self.scale + 1 - first, -1))
            # rounding is monotone, so the larger deviation's float term is the larger one
            top = np.maximum(dev, mirror, out=terms)
            half = int(2 * hs[-1] == ks[-1])
        self.terms += len(sides) * size - half
        # js takes the float denominators once the products are used
        den = np.multiply(ks, float(self.scale), out=js.view(np.float64))
        for i in self._near_top(top, den, terms):
            q = int(ks[i]) * self.scale
            for devs, rank, step in sides:
                self._take(int(devs[i]), q, rank + step * i)
        if half:
            mirror[-1] = 0
        self._group(ks, np.add(dev, mirror, out=dev) if self.mirrored else dev)

    @staticmethod
    def _near_top(dev: np.ndarray, den: np.ndarray, out: np.ndarray) -> list[int]:
        """The indices whose float term dev/den is within _TERM_SLACK of the largest: every exact maximum."""
        terms = np.divide(dev, den, out=out)
        top = terms.max()
        return np.flatnonzero(terms >= top - top * _TERM_SLACK).tolist()

    def _take(self, dev: int, den: int, rank: int) -> None:
        """Keep dev/den at rank if it is the largest term so far, or ties it at an earlier rank."""
        if _beats((dev, den, rank), (self.best_dev, self.best_den, self.best_rank)):
            self.best_dev, self.best_den, self.best_rank = dev, den, rank

    def _group(self, ks: np.ndarray, dev: np.ndarray) -> None:
        """Add the terms into the D_k: by np.add.at, or kept for the sorted groups' merge (`_merge`)."""
        if self.dev_bound < 1 << 63:
            self.dev_bound += int(dev.max(initial=0)) * dev.size
            if self.dev_bound >= 1 << 63:
                self._fold()
        if self.dev_bound >= 1 << 63:  # folded: dev = q*k + r, 0 <= r < k, adds r to D_k and q to `whole`
            whole, dev = np.divmod(dev, ks)
            self.whole += _total(whole)
        if self.keys is None:
            np.add.at(self.sums, ks, dev)
        else:
            self.pending.append((ks.copy(), dev.copy()))  # dev may be a work array, ks a view of more

    def _merge(self) -> None:
        """Join the pending chunks to the sorted groups: one stable sort by k, one reduceat."""
        ks, devs = zip(*self.pending)
        ks, devs = np.concatenate((self.keys, *ks)), np.concatenate((self.sums, *devs))
        order = np.argsort(ks, kind="stable")
        ks, devs = ks[order], devs[order]
        starts = np.flatnonzero(np.diff(ks, prepend=-1))
        self.keys, self.sums, self.pending = ks[starts], np.add.reduceat(devs, starts), []

    def _fold(self) -> None:
        """Keep only the r_k of the D_k = W_k*k + r_k, and carry the W_k out to `whole`."""
        for _ in self._remainders():  # each block is folded as it is read, and dropped
            pass

    def _remainders(self):
        """(r, k) per _SLICE_TERMS entries of the state, folded on the way: its nonzero r_k and their k, ascending."""
        if self.pending:
            self._merge()
        for lo in range(0, max(self.sums.size, 1), _SLICE_TERMS):
            window = slice(lo, lo + _SLICE_TERMS)
            at = np.flatnonzero(self.sums[window]) + lo if self.keys is None else window
            ks = at if self.keys is None else self.keys[at]
            whole, rems = np.divmod(self.sums[at], ks)
            self.sums[at], self.whole = rems, self.whole + _total(whole)
            live = np.flatnonzero(rems)
            yield rems[live], ks[live]  # 0 <= r_k < k

    def sum_exact(self) -> Rat:
        """(W + sum_k r_k/k) / scale, added pairwise over lcms."""
        nums, dens = (np.concatenate(parts) for parts in zip(*self._remainders()))
        whole = self.whole
        order = np.argsort(dens // np.gcd(dens, _SMOOTH), kind="stable")
        nums, dens = nums[order], dens[order]
        # Each pair a/b + c/d becomes num/l with l = lcm(b, d) and num < 2*l,
        # exact in int64 while 2*l <= 2*max(den)**2 < 2**63; the carry keeps num < l.
        while dens.size > 1 and 2 * int(dens.max()) ** 2 < 1 << 63:
            a, b, c, d = nums[:-1:2], dens[:-1:2], nums[1::2], dens[1::2]
            g = np.gcd(b, d)
            num, den = a * (d // g) + c * (b // g), b // g * d
            carry = num >= den
            whole += int(np.count_nonzero(carry))
            num -= den * carry
            nums, dens = np.append(num, nums[2 * b.size:]), np.append(den, dens[2 * b.size:])
        parts = list(zip(nums.tolist(), dens.tolist()))
        while len(parts) > 1:
            paired = []
            for (a, b), (c, d) in zip(parts[::2], parts[1::2]):
                g = gcd(b, d)
                paired.append((a * (d // g) + c * (b // g), b // g * d))
            parts = paired + parts[2 * len(paired):]
        num, den = parts[0] if parts else (0, 1)
        return Rat(whole * den + num, den * self.scale)

    def sum_float(self, exact: Rat | None = None) -> float:
        """(W + sum_k r_k/k) / scale, correctly rounded, from _DIGITS base-2**32 digits of each r_k/k.

        A given `exact` is the answer at once: int / int rounds correctly, so
        its float is the same.  Where the digits cannot decide, sum_exact()
        does.
        """
        if exact is not None:
            return float(exact)
        total, live = 0, 0
        for rems, ks in self._remainders():
            if ks.size and int(ks[-1]) >= 1 << 31:
                break
            for shift in range(32 * (_DIGITS - 1), -1, -32):
                rems <<= 32  # r < k < 2**31, so r*2**32 < 2**63
                digits, rems = np.divmod(rems, ks)
                total += int(digits.sum()) << shift  # one digit below 2**32 per k < 2**31
            live += ks.size
        else:
            # each cut r_k/k loses less than 2**(-32*_DIGITS); int / int rounds correctly
            total += self.whole << 32 * _DIGITS
            den = self.scale << 32 * _DIGITS
            low, high = total / den, (total + live) / den
            if low == high:
                return low
        return float(self.sum_exact())


def _scan(
    n: int,
    lo: Fraction,
    hi: Fraction,
    rank_lo: int,
    count: int,
    scale: int,
) -> _Reduction:
    """The deviation kernel over the `count` members of F_n in [lo, hi], from rank rank_lo.

    Over the whole of F_n (then scale = count = |F_n|), only the (count+1)//2
    members in [0, 1/2] are enumerated, and each is reduced as itself and as
    its mirror.  The D_k are dense when 8*count >= n + 1: at most 64 bytes a
    term.
    """
    if count < 1:
        raise PreconditionError(f"no F_{n} fractions in [{lo}, {hi}]")
    mirrored = lo == ZERO and hi == ONE
    dense = n + 1 if n + 1 <= 8 * count else 0
    red = _Reduction(rank_lo, scale, mirrored, dense)
    top, members = (_HALF, (count + 1) // 2) if mirrored else (hi, count)
    path = _path(n, lo, top, members)
    for position, hs, ks in _members(n, lo, top, members, path):
        # rows come as int32, where hs * scale would wrap silently
        red.add(rank_lo + position, hs.astype(np.int64, copy=False), ks.astype(np.int64, copy=False))
        if path == "slices":  # the next slice's own arrays take the room of the work arrays
            red.work = []
    if red.terms != count:
        raise PreconditionError(
            f"scan over [{lo}, {hi}] at order {n} enumerated {red.terms} "
            f"terms but the ranks give {count}"
        )
    return red


def _franel_result(n: int, lo: Fraction, hi: Fraction, rank_lo: int, count: int, red: _Reduction, budget: int):
    exact = red.sum_exact() if count <= budget else None
    return FranelResult(
        order=n,
        lo=lo,
        hi=hi,
        rank_lo=rank_lo,
        rank_hi=rank_lo + count - 1,
        term_count=count,
        sum_exact=exact,
        sum_float=red.sum_float(exact),
        max_term=red.best_dev / red.best_den,
        argmax_rank=red.best_rank,
    )


def _check_order(n: int) -> None:
    """Refuse orders below 1, and from _ORDER_CAP, past the int64 domain of the deviation sums, before any table."""
    _check_positive_order(n)
    if n >= _ORDER_CAP:
        raise PreconditionError(f"order {n} is past the deviation kernel's int64 domain: it must be below {_ORDER_CAP}")


def _check_window(n: int, lo: Fraction, hi: Fraction) -> None:
    """Refuse a scan over F_n in [lo, hi] before any table: the order, then ends in [0/1, 1/1], lo <= hi, lo in F_n."""
    _check_order(n)
    _check_window_args(n, lo, hi)
    if lo.den > n:
        raise PreconditionError(f"lo={lo} is not in F_{n}")


def _window(n: int, lo: Fraction, hi: Fraction, table: TotientTable | None, term_budget: int):
    """(rank of lo, term count, |F_n|) of a scan over F_n in [lo, hi], checked before any term.

    `_check_window` comes first, then the table, so that its budget bounds n
    before rank_fast sieves mu up to n; then the count must be within
    term_budget.
    """
    _check_window(n, lo, hi)
    m = farey_cardinality(n, _table_for(n, table))
    rank_lo = 1 if lo == ZERO else rank_fast(n, lo).rank
    count = (m if hi == ONE else rank_fast(n, hi).rank) - rank_lo + 1
    within_budget(f"deviation scan over [{lo}, {hi}] at order {n}", count, "terms", term_budget)
    return rank_lo, count, m


def full_franel_sum(
    n: int,
    table: TotientTable | None = None,
    exact_budget: int = EXACT_MODE_BUDGET,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> FranelResult:
    """Deviation sum over the whole of F_n, ranks counted from 0/1."""
    rank_lo, count, m = _window(n, ZERO, ONE, table, term_budget)
    red = _scan(n, ZERO, ONE, rank_lo, count, m)
    return _franel_result(n, ZERO, ONE, rank_lo, count, red, exact_budget)


def partial_franel_sum_range(
    n: int,
    lo: Fraction,
    hi: Fraction,
    rank_of_lo: int | None = None,
    table: TotientTable | None = None,
    exact_budget: int = EXACT_MODE_BUDGET,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> FranelResult:
    """Deviation sum over the F_n fractions in [lo, hi], with ranks anchored at lo.

    lo must itself belong to F_n.  Its rank is computed once by rank_fast, at
    the cost its docstring states (a prefix sum of up to n entries, plus
    Euclid passes over the heads past its reach, after the shared mu sieve);
    a given rank_of_lo is checked against it.  The term count
    rank(hi) - rank(lo) + 1 is checked against term_budget before the scan
    starts.
    """
    rank_lo, count, m = _window(n, lo, hi, table, term_budget)
    if rank_of_lo is not None and rank_of_lo != rank_lo:
        raise PreconditionError(
            f"anchor rank {rank_of_lo} does not match the rank {rank_lo} of {lo} in F_{n}"
        )
    red = _scan(n, lo, hi, rank_lo, count, m)
    return _franel_result(n, lo, hi, rank_lo, count, red, exact_budget)


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


def _section(vertex: Fraction, co_vertex: Fraction, i: int) -> MapParams:
    """The checked MapParams of the i-th section: N = eta * lcm(2..i) and q = N/(eta*i)."""
    if i < 2:
        raise PreconditionError(f"section index i must be >= 2, got {i}")
    if i >= 64:  # lcm(2..i) >= 2**(i-1) >= 2**63
        raise BudgetError(f"section index i={i} puts the order at eta*lcm(2..{i}) >= 2**63, past any table")
    block = lcm_range(i)
    return make_params(vertex, co_vertex, block // i, vertex.den * block)


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
    The vertex and co-vertex are checked by MapParams, as in the bijection.
    """
    params = _section(vertex, co_vertex, i)
    n, eta = params.N, params.eta
    # the q-th mediant is the end of the interval next to the vertex
    left, right = params.interval()
    lo, hi = (vertex, left) if params.s == 1 else (right, vertex)
    table = _table_for(n, table)
    result = partial_franel_sum_range(n, lo, hi, None, table, term_budget=term_budget)
    sum_over_log = result.sum_float / log(n)
    predicted = None
    ratio = None
    if eta > 2:
        vertex_rank = result.rank_lo if lo == vertex else result.rank_hi
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
    """vertex_partial_sum for each i, merged in ascending order of i (hence of N).

    Without a table, one is sieved at the largest section order, after every
    section has been checked.
    """
    i_values = sorted(set(i_list))
    if table is None and i_values:
        table = build_totient_table(max(_section(vertex, co_vertex, i).N for i in i_values))
    rows = [vertex_partial_sum(vertex, co_vertex, i, table, term_budget) for i in i_values]
    return GrowthScan(rows)


@dataclass
class KanemitsuResult:
    """Signed prefix sum sum(F_N(j) - R/(2|F_N|), j <= R) with R = rank of 1/4."""

    order: int
    prefix_rank: int
    cardinality: int
    sum_exact: Rat | None
    sum_float: float


def _prefix_sums(n: int) -> np.ndarray:
    """A_k, the sum of the h coprime to k with h/k <= 1/4, for k = 0..n as int64 (A_0 = 0).

    The multiples of e in [0, k/4] add up to e*T(floor(k/(4e))), T(t) =
    t*(t+1)/2, so by Mobius inversion A_k is the sum over e | k of
    mu(e)*e*T(floor(k/(4e))).  At k = e*d, floor(k/(4e)) = floor(d/4): each
    squarefree e <= sqrt(n) adds its terms at every multiple e*d as one
    strided slice over d, and each d >= 4 (T vanishes below) adds them at
    every e*d with e > sqrt(n) as one slice over e.  That is about 2*sqrt(n)
    numpy steps over about n*ln(n) cells.  The terms of A_k add up in
    absolute value to at most k*sigma(k)/32 + k*d(k)/8 < k**2 < 2**63 below
    _ORDER_CAP, so every partial sum fits int64.
    """
    mu = mobius_upto(n)
    root = isqrt(n)
    tri = np.arange(n + 1, dtype=np.int64) // 4
    tri *= tri + 1
    tri //= 2  # T(floor(d/4)) at d
    sums = tri.copy()  # e = 1
    for e in (np.flatnonzero(mu[2 : root + 1]) + 2).tolist():
        sums[e::e] += int(mu[e]) * e * tri[1 : n // e + 1]
    weights = mu[root + 1 :] * np.arange(root + 1, n + 1)  # mu(e)*e for e > root
    for d in range(4, n // (root + 1) + 1):
        sums[(root + 1) * d :: d] += int(tri[d]) * weights[: n // d - root]
    return sums


def _signed_fold(sums: np.ndarray, m: int, prefix_rank: int) -> _Reduction:
    """The reduction of the signed prefix up to 1/4, from its A_k = sums[k], with scale 2m.

    Over denominator k the deviations h/k - R/(2m) (R = prefix_rank) add up
    to D_k/(2m*k), with D_k = 2m*A_k - R*k*c_k and c_k the count of the h.
    R*k*c_k is a multiple of k, and the c_k add up to R.  So with A_k = q*k +
    a and 2m = s*k + t (0 <= a, t < k), D_k = W_k*k + r_k where r_k = t*a
    mod k, and the W_k add up to W = 2m*sum(q) + sum(s*a + t*a // k) - R**2.
    Below _ORDER_CAP t*a < k**2 < 2**63, and s*a + t*a // k = floor(2m*a/k)
    < 2m < 2**63 is summed by 32-bit halves, a block of _SLICE_TERMS at a
    time, into the Python int W.  The r_k and W are the reduction's folded
    state, which its sum_exact and sum_float read.
    """
    red = _Reduction(1, 2 * m, False, sums.size)
    red.whole = -prefix_rank * prefix_rank
    for lo in range(1, sums.size, _SLICE_TERMS):
        block = slice(lo, lo + _SLICE_TERMS)
        ks = np.arange(lo, lo + sums[block].size, dtype=np.int64)
        q, a = np.divmod(sums[block], ks)
        s, t = np.divmod(2 * m, ks)
        spill, red.sums[block] = np.divmod(t * a, ks)
        spill += s * a
        red.whole += 2 * m * int(q.sum()) + _total(spill)
    return red


def _check_prefix(n: int, term_budget: int) -> None:
    """Refuse a signed prefix sum before any table: the order, then n >= 4, then the about n*ln(n) cells of `_prefix_sums`.

    Those are n/e cells for each squarefree e <= n, checked against term_budget.
    """
    _check_order(n)
    if n < 4:
        raise PreconditionError(f"the prefix sum needs n >= 4, got {n}")
    within_budget(f"signed prefix sum at order {n}", n * log(n), "cells", term_budget)


def kanemitsu_sum(
    n: int, table: TotientTable | None = None, term_budget: int = DEFAULT_TERM_BUDGET
) -> KanemitsuResult:
    """The signed deviation sum over the F_n prefix up to 1/4 (needs n >= 4), from per-denominator sums.

    No member is enumerated: `_prefix_sums` gives the numerators' sum A_k of
    each denominator, `rank_fast` the rank R of 1/4, and `_signed_fold` the
    folded D_k that a scan's reduction would hold, so sum_exact and sum_float
    mean what they mean for a scan.  `_check_prefix` comes before the table
    (see `_table_for`) and mu are sieved.
    """
    _check_prefix(n, term_budget)
    m = farey_cardinality(n, _table_for(n, table))
    del table  # only |F_n| is read: the sums below do not hold the table
    prefix_rank = rank_fast(n, Fraction(1, 4)).rank
    red = _signed_fold(_prefix_sums(n), m, prefix_rank)
    exact = red.sum_exact() if prefix_rank <= EXACT_MODE_BUDGET else None
    return KanemitsuResult(n, prefix_rank, m, exact, red.sum_float(exact))


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


def _reaching(n, m):
    """Float thresholds (high, low) of order n, |F_n| = m: a member whose float term t has low < t < high holds no maximum.

    (n-1)/n at rank m-1 deviates by exactly c = 1/n - 1/m, so the maximum
    of F_n is at least c.  A member of [0, 1/2] at rank r with d = h/k - r/m
    deviates by |d|, and its mirror at rank m+1-r by |d + 1/m|: the larger
    reaches c only if d >= c - 1/m or d <= -c.  t = fl(fl(h/k) - fl(r/m)) is
    within 4u of d (u = 2**-53), and each float threshold within 4u of its
    own, so widened by _TERM_SLACK = 16u they let every such member through.
    The bound c is a member's exact deviation: Dress's 1/n is never assumed.
    n and m may be arrays, which broadcast.
    """
    return 1 / n - 2 / m - _TERM_SLACK, 1 / m - 1 / n + _TERM_SLACK


def _passing(hs: np.ndarray, ks: np.ndarray, ranks: np.ndarray, n, m) -> np.ndarray:
    """Where the float term fl(fl(h/k) - fl(r/m)) of h/k at rank r of F_n (|F_n| = m) passes `_reaching`'s thresholds."""
    high, low = _reaching(n, m)
    terms = np.divide(hs, ks)
    terms -= ranks / m
    return (terms >= high) | (terms <= low)


def _rechecked(best: tuple[int, int, int], h: int, k: int, r: int, m: int) -> tuple[int, int, int]:
    """best (dev, den, rank), by `_beats` against h/k at rank r of F_N (|F_N| = m) and its mirror (k-h)/k at rank m+1-r."""
    for term in ((abs(h * m - r * k), k * m, r), (abs((k - h) * m - (m + 1 - r) * k), k * m, m + 1 - r)):
        if _beats(term, best):
            best = term
    return best


def dress_scan(
    n: int,
    table: TotientTable | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> DressReport:
    """Scan every term of F_n for the maximum deviation and the 1/n bound.

    The members of F_n in [0, 1/2] come in chunks by `_members` (rows where
    they serve), each member standing for itself and its mirror.  Only those
    whose float term passes `_reaching`'s thresholds can hold the maximum;
    they are rechecked in Python ints, as themselves and mirrored, and exact
    ties go to the earliest rank.
    """
    _, m, _ = _window(n, ZERO, ONE, table, term_budget)
    half = (m + 1) // 2
    best, enumerated = (0, 1, 1), 0
    for position, hs, ks in _members(n, ZERO, _HALF, half, _path(n, ZERO, _HALF, half)):
        enumerated += hs.size
        ranks = np.arange(position + 1, position + 1 + hs.size)
        for i in np.flatnonzero(_passing(hs, ks, ranks, n, m)).tolist():
            best = _rechecked(best, int(hs[i]), int(ks[i]), position + 1 + i, m)
    if enumerated != half:
        raise PreconditionError(f"dress scan at order {n} enumerated {enumerated} members of [0, 1/2] but the ranks give {half}")
    best_dev, best_den, best_rank = best
    ok = best_dev * n <= best_den  # the bound holds for every term iff for the largest
    rank2_term = abs(m - 2 * n) / (n * m)
    return DressReport(n, best_dev / best_den, best_rank, ok, rank2_term)


@dataclass
class DressSweep:
    """Exact bound checks for every order in [2, n_max] (order 1 is trivial)."""

    n_max: int
    all_ok: bool
    violations: list[int]
    worst_ratio: float
    worst_order: int


def _sweep_block(n_max: int) -> int:
    """Members per block of the Dress sweep to n_max: n_max//4.

    Against the candidate thresholds (`_reaching`), 1.7 to 1.9 blocks of
    n_max//4 members are picked at each order of the sweeps to 300, 1000,
    2000 and 3627, and about 125 blocks of n_max//2.  Narrower blocks add
    cells to every order's pass over all of them.
    """
    return max(1, n_max // 4)


def _sweep_batch(blocks: int) -> int:
    """Orders per pass of the Dress sweep over `blocks` blocks: at most _SLICE_TERMS cells, at least one order."""
    return max(1, _SLICE_TERMS // blocks)


def _sweep_cells(n_max: int) -> float:
    """About the cells of the Dress sweep to n_max: the members of F_{n_max} in [0, 1/2], plus its passes.

    It holds about 3n^2/(2pi^2) members, cut into blocks of `_sweep_block`,
    and each pass covers a whole batch of orders by all blocks.
    """
    held = THREE_OVER_PI_SQ * n_max * n_max / 2
    blocks = max(1, ceil(held / _sweep_block(n_max)))
    batch = _sweep_batch(blocks)
    return held + ceil((n_max - 1) / batch) * batch * blocks


def _reaching_blocks(orders: np.ndarray, counts: np.ndarray, v_lo: np.ndarray, v_hi: np.ndarray):
    """One pass of the sweep: the (row, block) pairs whose members can pass `_reaching`.

    counts[i, b] members of block b are kept at order orders[i]; they hold
    the ranks before[i, b]+1 .. after[i, b] and floats in [v_lo[b], v_hi[b]].
    Rounding is monotone, so each of their terms fl(fl(h/k) - fl(r/m)) lies
    in [fl(v_lo - fl(after/m)), fl(v_hi - fl(before/m))]: a block whose
    bounds pass neither threshold holds no term that does.  Returns the
    picked rows and blocks, before, and the column of each order's |F_N|.
    """
    after = np.cumsum(counts, axis=1)
    m = 2 * after[:, -1:] - 1  # 1/2 is the middle member, for N >= 2
    high, low = _reaching(orders[:, None], m)
    bound = np.divide(after, m)
    picked = np.subtract(v_lo, bound, out=bound) <= low
    before = np.subtract(after, counts, out=after)
    picked |= np.subtract(v_hi, np.divide(before, m, out=bound), out=bound) >= high
    picked &= counts > 0
    rows, blocks = np.nonzero(picked)
    return rows, blocks, before, m


def _sweep_maxima(n_max: int, table: TotientTable | None = None):
    """(N, dev, den) for N = 2..n_max: the largest deviation of F_N is exactly dev/den.

    As F_N(m+1-r) = 1 - F_N(r) with m = |F_N|, only the members in [0, 1/2]
    are kept; the member at rank r stands for itself and for its mirror at
    rank m+1-r.  Only members whose float term passes the thresholds of
    `_reaching` can hold the maximum, which is at least the exact deviation
    of (N-1)/N; they are rechecked in Python ints, as themselves and
    mirrored (`_rechecked`).

    The members of F_{n_max} in [0, 1/2] are built once by rows (`_half`), as
    reduced int32 (h, k): under SWEEP_MEMBER_BUDGET n_max is at most 3627, so
    their preimage half F_{n_max//2} in [0, 1/2] stays within _ROW_CAP.  They
    are padded with 0/(n_max+1), which no order keeps, and cut into fixed
    blocks of `_sweep_block(n_max)`.  A pass takes a batch of orders, at
    most _SLICE_TERMS cells of orders by blocks: one bincount of the members
    born in it gives each block's count at each of its orders, and their
    running sums the ranks, hence float bounds on the terms
    (`_reaching_blocks`).  The kept members of the picked blocks are ranked
    and filtered in gathers of at most _SLICE_TERMS cells (`_pass_maxima`).
    """
    capacity = (farey_cardinality(n_max, _table_for(n_max, table)) + 1) // 2
    within_budget(f"sweep to {n_max}", capacity, f"members of F_{n_max} in [0, 1/2]", SWEEP_MEMBER_BUDGET)
    hs, ks = _half(n_max)
    if hs.size != capacity:
        raise PreconditionError(f"rows gave {hs.size} members of F_{n_max} in [0, 1/2] but the table gives {capacity}")
    width = min(_sweep_block(n_max), capacity)
    pad = -capacity % width
    hs, ks = np.pad(hs, (0, pad)), np.pad(ks, (0, pad), constant_values=n_max + 1)
    # the floats of each block's first and last member
    v_lo = hs[::width] / ks[::width]
    ends = np.minimum(np.arange(width, hs.size + 1, width), capacity) - 1
    v_hi = hs[ends] / ks[ends]
    # the blocks of the members of denominator k are block_of[firsts[k-1]:firsts[k]]
    # (a stable sort of k below 2**16 is a radix sort)
    by_k = np.argsort(ks[:capacity].astype(np.min_scalar_type(n_max)), kind="stable")
    firsts = np.cumsum(np.bincount(ks[:capacity], minlength=n_max + 1))
    block_of = (by_k // width).astype(np.int32)
    del by_k
    hs, ks = hs.reshape(-1, width), ks.reshape(-1, width)
    blocks = v_lo.size
    count = np.bincount(block_of[:firsts[1]], minlength=blocks)  # F_1's 0/1
    batch = _sweep_batch(blocks)
    for first in range(2, n_max + 1, batch):
        orders = np.arange(first, min(first + batch, n_max + 1))
        last = int(orders[-1])
        born = np.repeat(np.arange(orders.size) * blocks, np.diff(firsts[first - 1 : last + 1]))
        born += block_of[firsts[first - 1] : firsts[last]]
        counts = np.bincount(born, minlength=orders.size * blocks).reshape(orders.size, blocks)
        del born
        np.cumsum(counts, axis=0, out=counts)
        counts += count
        count = counts[-1].copy()
        picked = _reaching_blocks(orders, counts, v_lo, v_hi)
        del counts
        yield from _pass_maxima(orders, *picked, hs, ks)


def _pass_maxima(orders, rows, picks, before, m, hs: np.ndarray, ks: np.ndarray):
    """(N, dev, den) for each order of a pass, from its picked (row, block) pairs.

    The kept members of at most _SLICE_TERMS // width picks at a time are
    ranked and filtered against `_reaching` in one gather (`_passing`);
    those that pass are rechecked in Python ints (`_rechecked`).
    """
    ns, ms = orders.tolist(), m.ravel().tolist()
    best = [(0, 1, 1)] * len(ns)
    step = max(1, _SLICE_TERMS // hs.shape[1])
    for at in range(0, picks.size, step):
        i, b = rows[at : at + step], picks[at : at + step]
        block_h, block_k = hs[b], ks[b]
        kept = block_k <= orders[i, None]
        ranks = np.cumsum(kept, axis=1)
        ranks += before[i, b][:, None]
        kept &= _passing(block_h, block_k, ranks, orders[i, None], m[i])
        cells = np.nonzero(kept)
        for j, h, k, r in zip(i[cells[0]].tolist(), block_h[cells].tolist(), block_k[cells].tolist(), ranks[cells].tolist()):
            best[j] = _rechecked(best[j], h, k, r, ms[j])
    for n, (dev, den, _) in zip(ns, best):
        yield n, dev, den


def dress_scan_sweep(n_max: int, table: TotientTable | None = None) -> DressSweep:
    """Check max_j |F_N(j) - j/|F_N|| <= 1/N for every N <= n_max in one pass.

    From `_sweep_maxima`'s integer pairs, the violations (N*dev > den),
    worst_ratio (max over N of N*dev/den, compared by `_beats` and rounded
    once by the int/int true division) and worst_order (its first order) are
    exact.  The order is checked first (`_check_order`); |F_{n_max}| comes
    from the table (see `_table_for`), and the half of it in [0, 1/2] must be
    within SWEEP_MEMBER_BUDGET before any buffer exists.
    """
    _check_order(n_max)
    worst = (1, 2, 1)  # (N*dev, den, N); order 1: terms 1/2 and 0 against the cap 1
    violations = []
    for n, dev, den in _sweep_maxima(n_max, table):
        if n * dev > den:
            violations.append(n)
        if _beats((n * dev, den, n), worst):
            worst = n * dev, den, n
    worst_num, worst_den, worst_order = worst
    return DressSweep(n_max, not violations, violations, worst_num / worst_den, worst_order)
