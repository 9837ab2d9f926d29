"""Euler-phi sieves, summatory tables, exact scaled ratio sums, and deviation terms.

The sieve is exact integer arithmetic throughout (int64 is ample: the prefix
sums stay below 2^63 for any limit that fits in memory); values cross back
into Python ints at every public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from itertools import accumulate
from math import isqrt, lcm

import numpy as np

from .errors import BudgetError, PreconditionError

DEFAULT_TABLE_LIMIT = 10_000_000

# pi to 50 significant digits; squared on demand under a 50-digit context.
_PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def pi_squared() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 50
        return _PI_50 * _PI_50


PI_SQUARED = pi_squared()
#: Asymptotic density constant 3/pi^2 of reduced pairs, as a float.
THREE_OVER_PI_SQ = float(3 / PI_SQUARED)

# Fixed-point scale for the exact integer accumulation of sum(phi(k)/k).
_H_SCALE = 10**36
# E(n) and H(n) are evaluated in this 50-digit context, one rounding per operation.
_CTX = Context(prec=50)


# Longest block of _factor_blocks: bounds its temporaries to a few hundred kB.
_FACTOR_BLOCK = 1 << 14


def _smallest_factors(limit: int) -> np.ndarray:
    """spf(k), the smallest prime factor of k, for 0 <= k <= limit; 0 at 0, 1 and every prime.

    The primes up to sqrt(limit) come from the same sieve one level down.
    They are written largest first, so the smallest factor is the one left.
    A stored factor is at most sqrt(limit), so 16 bits hold it below 2^32.
    """
    spf = np.zeros(limit + 1, dtype=np.uint16 if limit < 2**32 else np.uint32)
    if limit >= 4:
        small = _smallest_factors(isqrt(limit))
        for p in (np.flatnonzero(small[2:] == 0)[::-1] + 2).tolist():
            spf[p * p :: p] = p
    return spf


def _factor_blocks(limit: int):
    """Yield (lo, hi, p, q) with p = spf(k) and q = k // p for k in [lo, hi), over [2, limit].

    A block is at most lo long, so every q is below lo: a recurrence that
    fills k from its value at q reads only earlier blocks.
    """
    spf = _smallest_factors(limit)
    lo = 2
    while lo <= limit:
        hi = min(lo + min(lo, _FACTOR_BLOCK), limit + 1)
        k = np.arange(lo, hi, dtype=np.int64)
        p = spf[lo:hi]
        p = np.where(p == 0, k, p)
        yield lo, hi, p, k // p
        lo = hi


class TotientTable:
    """phi(k) and its prefix sums Phi(k) for 1 <= k <= limit.

    Arrays are indexed directly by k (slot 0 is unused).  A built table is
    immutable and safe to share across threads.
    """

    def __init__(self, limit: int, phi: np.ndarray, phi_sum: np.ndarray) -> None:
        self.limit = limit
        self.phi = phi
        self.phi_sum = phi_sum

    def phi_of(self, k: int) -> int:
        if not 1 <= k <= self.limit:
            raise PreconditionError(f"k={k} outside table range [1, {self.limit}]")
        return int(self.phi[k])

    def summatory(self, k: int) -> int:
        """Phi(k) = sum of phi(j) for j <= k."""
        if not 1 <= k <= self.limit:
            raise PreconditionError(f"k={k} outside table range [1, {self.limit}]")
        return int(self.phi_sum[k])


def build_totient_table(limit: int, budget: int = DEFAULT_TABLE_LIMIT) -> TotientTable:
    """Sieve phi up to limit and attach running prefix sums.

    phi(k) follows from phi(k/p) for the smallest prime factor p of k:
    phi(k) = phi(k/p) * p when p also divides k/p, else phi(k/p) * (p - 1).
    _factor_blocks hands out the factors in blocks whose k/p all lie in
    earlier blocks, so each block is one exact int64 numpy step.
    """
    if limit < 1:
        raise PreconditionError(f"limit must be >= 1, got {limit}")
    if limit > budget:
        raise BudgetError(f"table limit {limit} exceeds budget {budget}")
    phi = np.empty(limit + 1, dtype=np.int64)
    phi[:2] = 0, 1
    for lo, hi, p, q in _factor_blocks(limit):
        phi[lo:hi] = phi[q] * (p - (q % p != 0))
    phi_sum = np.zeros(limit + 1, dtype=np.int64)
    np.cumsum(phi[1:], out=phi_sum[1:])
    return TotientTable(limit, phi, phi_sum)


def farey_cardinality(n: int, table: TotientTable) -> int:
    """|F_n| = 1 + Phi(n): the number of reduced fractions in [0,1] with den <= n."""
    return 1 + table.summatory(n)


def lcm_range(i: int) -> int:
    """lcm of {2, ..., i}."""
    if i < 2:
        raise PreconditionError(f"lcm_range needs i >= 2, got {i}")
    return lcm(*range(2, i + 1))


def scaled_phi_ratio_sum(i: int, n: int, table: TotientTable) -> int:
    """Exact integer sum of n*phi(j)/j for j = 1..i.

    Requires n to be a multiple of lcm(2..i) so that every term is an integer;
    each term is then evaluated as (n // j) * phi(j) with no rounding anywhere.
    """
    if i < 1:
        raise PreconditionError(f"i must be >= 1, got {i}")
    if i > table.limit:
        raise PreconditionError(f"i={i} outside table range [1, {table.limit}]")
    block = lcm(*range(2, i + 1))  # 1 at i = 1
    if n % block:
        raise PreconditionError(
            f"n={n} is not a multiple of lcm(2..{i})={block}; the scaled sum would not be an integer"
        )
    return sum((n // j) * int(table.phi[j]) for j in range(1, i + 1))


@dataclass(frozen=True)
class AsymptoticError:
    """Deviations of the two phi summatories from their leading terms at n.

    e_n = Phi(n) - 3n^2/pi^2 and h_n = sum(phi(k)/k, k<=n) - 6n/pi^2, both
    evaluated from exact integer accumulators against a 50-digit pi^2, so the
    stated values are reproducible bit for bit.
    """

    n: int
    e_n: float
    h_n: float


def _scaled_ratios(table: TotientTable, n: int):
    """Fixed-point terms floor(phi(k)*SCALE/k) of sum(phi(k)/k), for k = 1..n.

    Each floor loses < 1/SCALE, so a sum of them is within n * 1e-36 of exact.
    """
    return (p * _H_SCALE // k for k, p in enumerate(table.phi[1 : n + 1].tolist(), start=1))


def _deviations(table: TotientTable, n: int, h_scaled: int) -> tuple[float, float]:
    """E(n) and H(n) to 50 digits, from Phi(n) and SCALE * sum(phi(k)/k, k<=n)."""
    e_val = _CTX.subtract(table.summatory(n), _CTX.divide(3 * n * n, PI_SQUARED))
    h_val = _CTX.subtract(_CTX.divide(h_scaled, _H_SCALE), _CTX.divide(6 * n, PI_SQUARED))
    return float(e_val), float(h_val)


def error_terms(n: int, table: TotientTable) -> AsymptoticError:
    """E(n) and H(n), the quadratic and linear summatory deviations at n."""
    if not 1 <= n <= table.limit:
        raise PreconditionError(f"n={n} outside table range [1, {table.limit}]")
    return AsymptoticError(n, *_deviations(table, n, sum(_scaled_ratios(table, n))))


def error_term_rows(n_max: int, table: TotientTable):
    """Yield (n, phi(n), Phi(n), E(n), H(n)) for n = 1..n_max with one incremental pass."""
    if not 1 <= n_max <= table.limit:
        raise PreconditionError(f"n_max={n_max} outside table range [1, {table.limit}]")
    for n, h_scaled in enumerate(accumulate(_scaled_ratios(table, n_max)), start=1):
        yield n, int(table.phi[n]), table.summatory(n), *_deviations(table, n, h_scaled)


_mu_cache: dict[str, np.ndarray] = {}


def mobius_upto(limit: int) -> np.ndarray:
    """Mobius mu(k) for 0 <= k <= limit as an int8 array (mu(0) stored as 0).

    The array is cached and grown monotonically; callers must treat it as
    read-only.
    """
    if limit < 0:
        raise PreconditionError(f"limit must be >= 0, got {limit}")
    cached = _mu_cache.get("mu")
    if cached is not None and cached.size > limit:
        return cached[: limit + 1]
    mu = np.zeros(limit + 1, dtype=np.int8)
    mu[1:2] = 1
    # mu(k) = -mu(k/p) for the smallest prime factor p of k, or 0 when p^2 | k
    for lo, hi, p, q in _factor_blocks(limit):
        mu[lo:hi] = np.where(q % p == 0, 0, -mu[q])
    _mu_cache["mu"] = mu
    return mu


def mertens_upto(limit: int) -> np.ndarray:
    """Mertens M(k) = sum of mu(j) for j <= k, for 0 <= k <= limit, as int64.

    Cached next to the mu array and rebuilt from it whenever that array has
    grown past the cached prefix sums; callers must treat it as read-only.
    """
    mu = mobius_upto(limit)
    cached = _mu_cache.get("mertens")
    if cached is None or cached.size <= limit:
        # sum the whole array the view was cut from, so M grows with the mu
        # cache; mu is int8, so the accumulator width is stated, not inferred
        whole = mu if mu.base is None else mu.base
        cached = np.cumsum(whole, dtype=np.int64)
        _mu_cache["mertens"] = cached
    return cached[: limit + 1]
