"""Closed-form and asymptotic position formulas for fractions near a vertex.

For orders of the form N = lcm(2..i_max) the rank of 1/q in F_N has an exact
closed form; around a general vertex chi/eta at N = eta*lcm(2..i_max) the same
shape holds up to an O(i^2) correction, and both collapse to 3*N^2/(pi^2*q)
style asymptotics with an O(N) residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

from .errors import PreconditionError
from .mapping import MapParams
from .totient import (
    THREE_OVER_PI_SQ,
    TotientTable,
    build_totient_table,
    lcm_range,
    scaled_phi_ratio_sum,
)

ERROR_EXACT = "exact"
ERROR_ORDER_I2 = "O(i^2)"


@dataclass
class IndexEstimate:
    """A computed rank plus the order of its residual against the true rank."""

    value: int
    error_order: str
    params: MapParams | None = None


def exact_index_unit_fraction(
    i_max: int, q: int, table: TotientTable | None = None
) -> IndexEstimate:
    """Exact rank of 1/q in F_N for N = lcm(2..i_max) and N/i_max <= q <= N.

    With i = floor(N/q), the rank is 2 + sum(N*phi(j)/j, j<=i) - q*Phi(i),
    every term an exact integer.  q values strictly between N/(i_max+1) and
    N/i_max sit in a range where the per-i window and the aggregate bound
    disagree; they are rejected with a dedicated message rather than guessed
    at.
    """
    below = f"q={q} is below N/i_max for N = lcm(2..{i_max})"
    # N >= 2**(i_max-1), so q*(i_max+1) < 2**(i_max-1) puts q below N/(i_max+1) without forming N
    if q > 0 and (q * (i_max + 1)).bit_length() < i_max:
        raise PreconditionError(below)
    n = lcm_range(i_max)
    if not 1 <= q <= n:
        raise PreconditionError(f"q={q} is outside [1, N] for N = lcm(2..{i_max})")
    if q * i_max < n:
        if q * (i_max + 1) > n:
            raise PreconditionError(
                f"q={q} falls in the ambiguous band N/(i_max+1) < q < N/i_max "
                f"(N = lcm(2..{i_max})); pick q >= N/i_max or a larger i_max"
            )
        raise PreconditionError(below)
    i = n // q
    if table is None:
        table = build_totient_table(i_max)
    value = 2 + scaled_phi_ratio_sum(i, n, table) - q * table.summatory(i)
    return IndexEstimate(value, ERROR_EXACT)


def general_index_estimate(
    params: MapParams, base_rank: int, table: TotientTable | None = None
) -> IndexEstimate:
    """Rank estimate for (chi*q+a)/(eta*q+b) in F_N, exact up to O(i^2).

    value = base_rank + s*(sum((N/eta)*phi(j)/j, j<=i) - q*Phi(i)).  The caller
    supplies base_rank = rank of the vertex itself (no closed form exists for
    it), typically from rank_fast; N/eta must be a multiple of lcm(2..i) so
    the scaled sum is exact, which scaled_phi_ratio_sum checks.
    """
    eta = params.eta
    if eta < 2:
        raise PreconditionError("the general estimate needs eta > 1; use the unit-fraction form")
    if params.N % eta:
        raise PreconditionError(f"N={params.N} is not a multiple of eta={eta}")
    reduced_n = params.N // eta
    if table is None:
        table = build_totient_table(params.i)
    shift = scaled_phi_ratio_sum(params.i, reduced_n, table) - params.q * table.summatory(params.i)
    return IndexEstimate(base_rank + params.s * shift, ERROR_ORDER_I2, params)


def asymptotic_index_zero(n: int, q: int) -> float:
    """Leading asymptotic 3*N^2/(pi^2*q) for the rank of 1/q in F_N (residual O(N))."""
    if q < 1:
        raise PreconditionError(f"q must be >= 1, got {q}")
    try:
        value = THREE_OVER_PI_SQ * n * n / q
    except OverflowError:  # n itself is past the float range
        value = inf
    if not isfinite(value):
        raise PreconditionError(f"the asymptotic rank 3*N^2/(pi^2*q) at q={q} is past the float range")
    return value


def asymptotic_index_half(n: int, q: int, cardinality: int) -> float:
    """Leading asymptotic |F_N|/2 + 3*N^2/(4*pi^2*q) for the rank of (q+1)/(2q+1)."""
    if q < 1:
        raise PreconditionError(f"q must be >= 1, got {q}")
    return cardinality / 2 + THREE_OVER_PI_SQ * n * n / (4 * q)
