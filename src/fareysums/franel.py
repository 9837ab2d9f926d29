"""Full and partial deviation sums of Farey fractions from evenly spaced points.

The summand at rank j is |F_N(j) - j/|F_N||.  Every scan runs through one
numpy kernel, `_scan`, over F_N in [lo, hi].  It takes the window's members
in ascending chunks of at most about `_SLICE_TERMS` terms, each with its
position in the window, by whichever of three enumerations costs less for
the window's order and term count (`_path`, one cost model):

- streaming by the next-term recurrence (`iter_window`), which costs time in
  the members alone: narrow windows, and every window at large orders
  (`_streams`);
- value slices: per denominator k the numerators of a slice come from floor
  arithmetic on its end points, and one sort by value orders them and merges
  each h/k with its unreduced multiples.  A slice costs time and memory in
  every denominator up to N, so it pays off when the slice holds many terms
  per denominator;
- rows of the paper's map, for prefixes [0/1, 1/M] with M >= 2: whole
  mirrored scans (M = 2), the Kanemitsu prefix (M = 4) and the vertex-0/1
  sections (M = N/i).  For m >= 2, F_N in (1/(m+1), 1/m] is
  {k/(m*k + h) : h/k in F_{N//m} in [0, 1), m*k + h <= N}, so rows of m
  against one preimage, the half F_{N//M} in [0, 1/2] built by the same
  rows recursively and mirrored, give reduced pairs with no float and no
  sort (`_rows`).  Their chunks come from 1/M down, so their ranks are
  counted down from the last.  The pairs are int32, as every denominator of
  a row is below 2N; the kernel widens them to int64 before any product
  with |F_N|.  Rows serve only windows whose preimage half holds at most
  about _ROW_CAP = 2**20 pairs (8 MB as int32).

Ranks follow from the rank of lo, so each term is the exact integer pair
(|h*M - j*k|, k*M).  The kernel reduces the terms, chunk by chunk in any
order and in work arrays kept across chunks, to:

- the exact maximum and its earliest rank: a float prefilter keeps the terms
  near the largest float, and Python ints recheck them;
- for scans that report a sum, one running sum D_k of the integer deviations
  per denominator k: dense (np.add.at into n + 1 entries) when the scan
  holds at least (n + 1)/8 terms, else sorted groups, one per k seen, so a
  tiny window at a large order costs only its members (see `_Reduction`).

With D_k = W_k*k + r_k, 0 <= r_k < k and W the sum of the W_k, the sum is
(W + sum_k r_k/k)/M.  sum_float is it correctly rounded: each r_k/k cut to
three base-2**32 digits (in int64 while k < 2**31) puts it in
[T, T + G*2**-96) for the digits' total T and G nonzero r_k, and the float
both ends round to is the answer; when they differ, or some k >= 2**31, the
exact sum decides.
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
reduces each h/k at rank j twice, as itself and as (k-h)/k at rank m+1-j
(1/2 once).  The mirror's integer pair is the one a direct enumeration
would give, so every term, and so every reduction, is the same.  The order
sweep of the 1/N bound builds the members of F_{n_max} in [0, 1/2] once and
mirrors them too.  It cuts them into fixed blocks; at each order, per-block
counts give every block's ranks, hence float bounds on its members'
deviations, and only the few blocks whose bounds reach the extremes are
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat
from itertools import chain, islice
from math import gcd, log

import numpy as np

from .arith import Fraction, ONE, ZERO
from .errors import BudgetError, PreconditionError
from .farey import _check_window_args, _object_divmod, iter_window, rank_fast
from .mapping import MapParams, make_params
from .totient import (
    THREE_OVER_PI_SQ,
    TotientTable,
    build_totient_table,
    farey_cardinality,
    lcm_range,
)

DEFAULT_TERM_BUDGET = 100_000_000
EXACT_MODE_BUDGET = 10_000
# the most members of F_N in [0, 1/2] that the Dress sweep's buffers hold
SWEEP_MEMBER_BUDGET = 2_000_000

_SLICE_TERMS = 1 << 16
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
# Every product h*scale and j*k is below n*scale.  At or past this margin
# (n*|F_n| >= 2**62 at about n = 2.5e6) the deviations are Python ints
# (dtype=object); below it they are int64.
_INT64_MARGIN = 1 << 62
# One term dev/den is within 3u of exact, relatively (u = 2**-53): one
# rounding each for dev and den as float64 and one for the quotient.  The
# exact maximum, and every exact tie of it, is then within 6u of the largest
# float, so every float within 8u of it is rechecked in Python ints.  The
# sweep's terms are within 3u absolutely, and it uses 8u as an absolute slack,
# both for its members and for the float bounds of its blocks.
_TERM_SLACK = 2.0**-50
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

    A window streams when `_streams` says so.  Otherwise rows serve the
    windows [0/1, 1/M] with M >= 2 whose preimage half F_{n//M} in [0, 1/2]
    holds at most about _ROW_CAP members (|F_K| is about 3*K**2/pi**2), and
    where they cost less than slices: the members and the preimage's, plus
    a fixed cost per level of the recursion, against the members' sort and
    each slice's floor arithmetic over every denominator.
    """
    if _streams(n, count):
        return "stream"
    if lo == ZERO and hi.num == 1 and hi.den >= 2:
        order = n // hi.den
        preimage = THREE_OVER_PI_SQ * order * order
        rows = _ROW_MEMBER_COST * (count + preimage) + _ROW_LEVEL_COST * order.bit_length()
        slices = _SLICE_MEMBER_COST * count + -(-count // _SLICE_TERMS) * (n + _SLICE_OVERHEAD)
        if preimage / 2 <= _ROW_CAP and rows < slices:
            return "rows"
    return "slices"


def _members(n: int, lo: Fraction, hi: Fraction, count: int):
    """The members of F_n in [lo, hi], as (position, h, k) chunks of at most about _SLICE_TERMS.

    Each chunk is ascending, and position is its first member's 0-based
    position in the window.  Streams and slices give int64 arrays, chunk
    after chunk from lo up; rows give reduced int32 arrays, chunk after chunk
    from hi down (see `_rows`).
    """
    path = _path(n, lo, hi, count)
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
                kept = dens <= n
                piece = np.broadcast_to(pre_k[cols], dens.shape)[kept], dens[kept]
                del dens, kept
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


class _Reduction:
    """Running reductions of one scan, fed its chunks of members in rank order.

    A term is dev/den with dev = |h*scale - j*k| at rank j, or the signed
    h*scale - fixed_rank*k when a fixed rank is given (then no maximum is
    kept, and no float term is formed).  den is k*scale.  A mirrored scan is
    fed the members of F_n in [0, 1/2], with scale = |F_n|: each h/k at rank
    j also stands for its mirror (k-h)/k at rank scale+1-j, whose signed
    deviation (k-h)*scale - (scale+1-j)*k is -(h*scale - j*k) - k.

    With sums, the deviations are summed per denominator k into D_k: with
    dense > 0 in `sums`, indexed by k, else in `keys` (the k seen, ascending)
    and their `sums`, which the chunks in `pending` join once they hold as
    many terms.  Either is int64 while dev_bound (at least the sum of every
    |dev| grouped) is below 2**63, then Python ints (dtype=object).  A
    Python-int deviation q*k + r adds r to D_k and q to `whole`.
    """

    def __init__(
        self,
        rank_lo: int,
        scale: int,
        fixed_rank: int | None,
        wide: bool,
        mirrored: bool,
        sums: bool,
        dense: int = 0,
    ):
        self.terms = 0
        self.scale = scale
        self.fixed_rank = fixed_rank
        self.wide = wide
        self.mirrored = mirrored
        self.sums = np.zeros(dense, dtype=np.int64) if sums else None
        self.keys = np.empty(0, dtype=np.int64) if sums and not dense else None
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []  # (ks, dev) of chunks not merged yet
        self.pending_size = 0
        self.whole = 0  # the whole parts that Python-int deviations carry out
        # int64 and float64 arrays that chunk after chunk is reduced in.  Rows
        # and streams free little between chunks, so fresh arrays per chunk
        # would be freed at the heap's top, trimmed, and faulted in again by
        # the next chunk.  A value slice frees several chunk-sized arrays of
        # its own just before each chunk, so `_scan` drops these after each
        # sliced chunk, and its fresh ones fit in that room.
        self.work: list[np.ndarray] = []
        self.dev_bound = 0
        self.best_dev, self.best_den, self.best_rank = 0, 1, rank_lo

    def add(self, first: int, hs: np.ndarray, ks: np.ndarray) -> None:
        """Reduce one ascending chunk of int64 members, ranked first.., then their mirrors.

        Chunks may come in any order.  The mirrors are a second reduction of
        the chunk's size, not a concatenation: that would double the chunk's
        peak memory.  1/2, which can only end a chunk (as h/k with 2*h == k,
        reduced or not), is its own mirror and is reduced once.
        """
        size = hs.size
        if self.wide:  # Python ints, in fresh arrays
            hs, ks = hs.astype(object), ks.astype(object)
            js = np.arange(first, first + size, dtype=np.int64).astype(object)
            signed = dev = work = None
        else:
            if not self.work or self.work[0].size < size:
                # 0, 1, 2, ...; ranks, then denominators; signed and absolute
                # deviations; float terms
                self.work = [np.arange(size, dtype=np.int64)] + [
                    np.empty(size, dtype=dtype) for dtype in (np.int64,) * 3 + (float,)
                ]
            steps, js, signed, dev, terms = (a[:size] for a in self.work)
            np.add(steps, first, out=js)
            work = [js, terms]  # js takes the denominators once the ranks are used
        signed = np.multiply(hs, self.scale, out=signed)
        if self.fixed_rank is not None:
            signed -= np.multiply(ks, self.fixed_rank, out=js)
            self._reduce(ks, signed)
            return
        signed -= np.multiply(js, ks, out=js)
        self._reduce(ks, np.abs(signed, out=dev), first, 1, work)
        if self.mirrored:
            keep = size - int(2 * hs[-1] == ks[-1])
            if keep:
                signed += ks
                dev = np.abs(signed[:keep], out=None if dev is None else dev[:keep])
                self._reduce(ks[:keep], dev, self.scale + 1 - first, -1, work and [a[:keep] for a in work])

    def _reduce(
        self, ks: np.ndarray, dev: np.ndarray, first_rank: int = 0, step: int = 0, work: list | None = None
    ) -> None:
        """Fold the terms dev/(k*scale) in, the i-th at rank first_rank + step*i.

        work, when given, is an int64 and a float64 array of dev's size to
        compute the denominators and the float terms in.
        """
        self.terms += dev.size
        if self.fixed_rank is None:
            den_out, terms_out = work or (None, None)
            den = np.multiply(ks, self.scale, out=den_out)
            terms = np.divide(dev, den, out=terms_out).astype(np.float64, copy=False)
            top = terms.max()
            for i in np.flatnonzero(terms >= top - top * _TERM_SLACK).tolist():
                d, q, rank = int(dev[i]), int(den[i]), first_rank + step * i
                # exact ties go to the earliest rank, whatever order the ranks come in
                if (d * self.best_den, self.best_rank) > (self.best_dev * q, rank):
                    self.best_dev, self.best_den, self.best_rank = d, q, rank
        if self.sums is not None:
            self._group(ks, dev)

    def _group(self, ks: np.ndarray, dev: np.ndarray) -> None:
        """Add the terms into the D_k: by np.add.at, or grouped by k and merged into the sorted groups."""
        ks = ks.astype(np.int64)  # a copy, as the sorted groups may keep it; dtype=object when wide
        if dev.dtype == object:  # Python ints: only r of dev = q*k + r, 0 <= r < k, enters D_k
            fits = self.fixed_rank is None  # |dev| <= |F_n| by the 1/n bound; a signed dev may not fit
            whole, dev = np.divmod(dev.astype(np.int64), ks) if fits else _object_divmod(dev, ks)
            self.whole += int(whole.sum(dtype=object))  # the q, summed apart
        if self.sums.dtype != object:
            self.dev_bound += max(int(dev.max(initial=0)), -int(dev.min(initial=0))) * dev.size
            if self.dev_bound >= 1 << 63:
                self.sums = self.sums.astype(object)
        dev = dev.astype(self.sums.dtype)  # a copy: dev may be a work array
        if self.keys is None:
            np.add.at(self.sums, ks, dev)
            return
        self.pending.append((ks, dev))
        self.pending_size += ks.size
        if self.pending_size >= self.keys.size:  # so a term takes part in O(log) merges
            self._merge()

    def _merge(self) -> None:
        """Join the pending chunks to the sorted groups: one sort by k (a run merge), one reduceat."""
        ks, devs = zip(*self.pending)
        ks, devs = np.concatenate((self.keys, *ks)), np.concatenate((self.sums, *devs))
        order = np.argsort(ks, kind="stable")
        ks, devs = ks[order], devs[order]
        starts = np.flatnonzero(np.diff(ks, prepend=-1))
        self.keys, self.sums, self.pending, self.pending_size = ks[starts], np.add.reduceat(devs, starts), [], 0

    def _remainders(self, block: int):
        """(W, r, k) per block of the state: the int64 r_k and k of its nonzero r_k, ascending, and W."""
        if self.pending:
            self._merge()
        for lo in range(0, max(self.sums.size, 1), block):
            sums = self.sums[lo : lo + block]
            ks = np.flatnonzero(sums) + lo if self.keys is None else self.keys[lo : lo + block]
            sums = self.sums[ks] if self.keys is None else sums
            whole, rems = (_object_divmod if sums.dtype == object else np.divmod)(sums, ks)
            live = np.flatnonzero(rems)
            yield int(whole.sum()), rems[live].astype(np.int64), ks[live]  # 0 <= r_k < k

    def sum_exact(self) -> Rat:
        """(W + sum_k r_k/k) / scale, added pairwise over lcms."""
        ((whole, nums, dens),) = self._remainders(1 << 62)  # in one block
        whole += self.whole
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

        Where they cannot decide, `exact` does, or sum_exact() when not given.
        """
        total, live = self.whole << 32 * _DIGITS, 0
        for whole, rems, ks in self._remainders(_SLICE_TERMS):
            if ks.size and int(ks[-1]) >= 1 << 31:
                break
            for _ in range(_DIGITS):
                rems <<= 32  # r < k < 2**31, so r*2**32 < 2**63
                digits, rems = np.divmod(rems, ks)
                whole = (whole << 32) + int(digits.sum())  # one digit below 2**32 per k < 2**31
            total, live = total + whole, live + ks.size
        else:
            # each cut r_k/k loses less than 2**(-32*_DIGITS); int / int rounds correctly
            den = self.scale << 32 * _DIGITS
            low, high = total / den, (total + live) / den
            if low == high:
                return low
        return float(self.sum_exact() if exact is None else exact)


def _scan(
    n: int,
    lo: Fraction,
    hi: Fraction,
    rank_lo: int,
    count: int,
    scale: int,
    sums: bool = True,
    fixed_rank: int | None = None,
) -> _Reduction:
    """The deviation kernel over the `count` members of F_n in [lo, hi], from rank rank_lo.

    Over the whole of F_n without a fixed rank (then scale = count = |F_n|),
    only the (count+1)//2 members in [0, 1/2] are enumerated, and each is
    reduced as itself and as its mirror.  Without sums, only the maximum is
    kept.  The D_k are dense when 8*count >= n + 1: at most 64 bytes a term.
    """
    if count < 1:
        raise PreconditionError(f"no F_{n} fractions in [{lo}, {hi}]")
    mirrored = fixed_rank is None and lo == ZERO and hi == ONE
    dense = n + 1 if n + 1 <= 8 * count else 0
    red = _Reduction(rank_lo, scale, fixed_rank, n * scale >= _INT64_MARGIN, mirrored, sums, dense)
    top, members = (_HALF, (count + 1) // 2) if mirrored else (hi, count)
    sliced = _path(n, lo, top, members) == "slices"
    for position, hs, ks in _members(n, lo, top, members):
        # rows come as int32, where hs * scale would wrap silently
        red.add(rank_lo + position, hs.astype(np.int64, copy=False), ks.astype(np.int64, copy=False))
        if sliced:  # the next slice's own arrays take the room of the work arrays
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


def _window(n: int, lo: Fraction, hi: Fraction, table: TotientTable | None, term_budget: int):
    """(rank of lo, term count, |F_n|) of a scan over F_n in [lo, hi], checked before any term.

    The table comes first, so that its budget bounds n before rank_fast
    sieves mu up to n; then lo must be in F_n, and the count within term_budget.
    """
    m = farey_cardinality(n, _table_for(n, table))
    if lo.den > n:
        raise PreconditionError(f"lo={lo} is not in F_{n}")
    _check_window_args(n, lo, hi)
    rank_lo = 1 if lo == ZERO else rank_fast(n, lo).rank
    count = (m if hi == ONE else rank_fast(n, hi).rank) - rank_lo + 1
    if count > term_budget:
        raise BudgetError(
            f"deviation scan over [{lo}, {hi}] at order {n} holds {count} terms, "
            f"over the term budget {term_budget}"
        )
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

    lo must itself belong to F_n.  Its rank is computed once by rank_fast
    (O(log q) Euclid steps, each over about 2*sqrt(n) array elements); a
    given rank_of_lo is checked against it.  The term count
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


def kanemitsu_sum(
    n: int, table: TotientTable | None = None, term_budget: int = DEFAULT_TERM_BUDGET
) -> KanemitsuResult:
    """The signed deviation sum over the F_n prefix up to 1/4 (needs n >= 4)."""
    if n < 4:
        raise PreconditionError(f"the prefix sum needs n >= 4, got {n}")
    quarter = Fraction(1, 4)
    _, prefix_rank, m = _window(n, ZERO, quarter, table, term_budget)
    red = _scan(n, ZERO, quarter, 1, prefix_rank, 2 * m, fixed_rank=prefix_rank)
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


def dress_scan(
    n: int,
    table: TotientTable | None = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> DressReport:
    """Scan every term of F_n for the maximum deviation and the 1/n bound."""
    _, m, _ = _window(n, ZERO, ONE, table, term_budget)
    red = _scan(n, ZERO, ONE, 1, m, m, sums=False)
    ok = red.best_dev * n <= red.best_den  # the bound holds for every term iff for the largest
    rank2_term = abs(m - 2 * n) / (n * m)
    return DressReport(n, red.best_dev / red.best_den, red.best_rank, ok, rank2_term)


@dataclass
class DressSweep:
    """Exact bound checks for every order in [2, n_max] (order 1 is trivial)."""

    n_max: int
    all_ok: bool
    violations: list[int]
    worst_ratio: float
    worst_order: int


def _sweep_block(n_max: int) -> int:
    """Members per block of the Dress sweep to n_max.

    B consecutive members of F_{n_max} bound their deviations to within
    about 2B/|F_{n_max}|, which must stay well below the 1/n_max scale of
    the extremes for the bounds to prune: n_max//32 does, while at n_max//12
    the sweep to 2000 ran 13 times slower.
    """
    return max(1, n_max // 32)


def _half_members(n_max: int, count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced int32 (h, k) of the count members of F_{n_max} in [0, 1/2], ascending.

    Each chunk is written at its position, whichever order the chunks come
    in.  Rows and streams give reduced pairs, rows already as int32; only
    value slices, which may give t*h/t*k for h/k, are reduced here by a gcd.
    The arrays are padded to whole blocks of `width` with 0/(n_max+1), which
    no order keeps.
    """
    hs = np.zeros(-(-count // width) * width, dtype=np.int32)  # n_max < 2**31 under the budget
    ks = np.full(hs.size, n_max + 1, dtype=np.int32)
    sliced = _path(n_max, ZERO, _HALF, count) == "slices"
    for position, h, k in _members(n_max, ZERO, _HALF, count):
        if sliced:
            g = np.gcd(h, k)
            h, k = h // g, k // g
        hs[position:position + h.size] = h
        ks[position:position + h.size] = k
    return hs, ks


def _reaching_blocks(v_lo: np.ndarray, v_hi: np.ndarray, edges: np.ndarray, m: int) -> np.ndarray:
    """The blocks that can hold a term within _TERM_SLACK of the largest or smallest term.

    At |F_N| = m, the kept members of block b hold the ranks edges[b]+1 ..
    edges[b+1] and floats in [v_lo[b], v_hi[b]] (NaN when it holds none, so
    that no fmax, fmin or comparison picks it).  Rounding is monotone, so
    each of their terms fl(fl(h/k) - fl(r/m)) lies in
    [fl(v_lo - fl(edges[b+1]/m)), fl(v_hi - fl(edges[b]/m))].  The largest
    lower bound is then at most the largest term, and the smallest upper
    bound at least the smallest term: a block whose bounds come within the
    slack of neither holds no term the float filter keeps.
    """
    cuts = edges / m
    lower, upper = v_lo - cuts[1:], v_hi - cuts[:-1]
    top, bottom = np.fmax.reduce(lower), np.fmin.reduce(upper)
    return np.flatnonzero((upper >= top - _TERM_SLACK) | (lower <= bottom + _TERM_SLACK))


def _sweep_maxima(n_max: int, table: TotientTable | None = None):
    """(N, dev, den) for N = 2..n_max: the largest deviation of F_N is exactly dev/den.

    As F_N(m+1-r) = 1 - F_N(r) with m = |F_N|, only the members in [0, 1/2]
    are kept; with d_r = F_N(r) - r/m the mirrored rank m+1-r deviates by
    |d_r + 1/m|, so the maximum is max(max d_r + 1/m, -min d_r).  The float
    t_r = fl(fl(h/k) - fl(r/m)) is within 3u of d_r (u = 2**-53), so every
    largest or smallest d_r, ties included, is within 6u of the largest or
    smallest t_r, and every member within _TERM_SLACK = 8u of either is
    rechecked in Python ints, as itself and mirrored.

    The members of F_{n_max} in [0, 1/2] are built once, as exact (h, k), and
    cut into fixed blocks of `_sweep_block(n_max)`.  Order N counts each
    block's members with k <= N; the running counts rank them, and give
    float bounds on their terms (`_reaching_blocks`).  Only the kept members
    of the few blocks whose bounds reach an extreme are ranked and evaluated.
    """
    capacity = (farey_cardinality(n_max, _table_for(n_max, table)) + 1) // 2
    if capacity > SWEEP_MEMBER_BUDGET:
        raise BudgetError(
            f"sweep to {n_max} keeps {capacity} members of F_{n_max} in [0, 1/2], "
            f"over budget {SWEEP_MEMBER_BUDGET}"
        )
    width = min(_sweep_block(n_max), capacity)
    hs, ks = _half_members(n_max, capacity, width)
    vals = hs / ks
    # the floats of each block's first and last member
    v_lo = vals[::width]
    v_hi = vals[np.minimum(np.arange(width, hs.size + 1, width), capacity) - 1]
    # the slots of the members of denominator k are by_k[firsts[k-1]:firsts[k]]
    # (a stable sort of k below 2**16 is a radix sort)
    by_k = np.argsort(ks[:capacity].astype(np.min_scalar_type(n_max)), kind="stable")
    firsts = np.cumsum(np.bincount(ks[:capacity], minlength=n_max + 1))
    block_of = (by_k // width).astype(np.int32)
    del by_k
    hs, ks, vals = (a.reshape(-1, width) for a in (hs, ks, vals))
    count = np.zeros(v_lo.size, dtype=np.int64)
    edges = np.zeros(v_lo.size + 1, dtype=np.int64)
    # v_lo and v_hi of the blocks holding a member of F_n, NaN for the others
    live_lo, live_hi = np.full(v_lo.size, np.nan), np.full(v_lo.size, np.nan)
    for n in range(1, n_max + 1):
        born = block_of[firsts[n - 1]:firsts[n]]
        np.add.at(count, born, 1)
        live_lo[born], live_hi[born] = v_lo[born], v_hi[born]
        if n == 1:
            continue
        np.cumsum(count, out=edges[1:])
        m = 2 * int(edges[-1]) - 1  # 1/2 is the middle member, for n >= 2
        picks = _reaching_blocks(live_lo, live_hi, edges, m)
        kept = ks[picks] <= n
        ranks = edges[picks, None] + np.cumsum(kept, axis=1)
        terms = np.where(kept, vals[picks] - ranks / m, np.nan)
        least, most = np.fmin.reduce(terms, axis=None), np.fmax.reduce(terms, axis=None)
        rows, cols = np.nonzero((terms <= least + _TERM_SLACK) | (terms >= most - _TERM_SLACK))
        slots = picks[rows], cols
        best_dev, best_den = 0, 1
        for h, k, r in zip(hs[slots].tolist(), ks[slots].tolist(), ranks[rows, cols].tolist()):
            # rank r holds h/k, and the mirrored rank m+1-r holds (k-h)/k
            dev = max(abs(h * m - r * k), abs((k - h) * m - (m + 1 - r) * k))
            if dev * best_den > best_dev * k * m:
                best_dev, best_den = dev, k * m
        yield n, best_dev, best_den


def dress_scan_sweep(n_max: int, table: TotientTable | None = None) -> DressSweep:
    """Check max_j |F_N(j) - j/|F_N|| <= 1/N for every N <= n_max in one pass.

    From `_sweep_maxima`'s integer pairs, the violations (N*dev > den),
    worst_ratio (max over N of N*dev/den, compared by cross-multiplying and
    rounded once by the int/int true division) and worst_order (its first
    order) are exact.  |F_{n_max}| comes from the table (see `_table_for`),
    and the half of it in [0, 1/2] must be within SWEEP_MEMBER_BUDGET before
    any buffer exists.
    """
    if n_max < 1:
        raise PreconditionError(f"n_max must be >= 1, got {n_max}")
    worst_num, worst_den, worst_order = 1, 2, 1  # order 1: terms 1/2 and 0 against the cap 1
    violations = []
    for n, dev, den in _sweep_maxima(n_max, table):
        if n * dev > den:
            violations.append(n)
        if n * dev * worst_den > worst_num * den:
            worst_num, worst_den, worst_order = n * dev, den, n
    return DressSweep(n_max, not violations, violations, worst_num / worst_den, worst_order)
