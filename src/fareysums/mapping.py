"""The bijection between a filtered low-order sequence and a Farey subinterval.

Given a vertex fraction chi/eta, an adjacent co-vertex a/b, a step count q and
an order N, the fractions h/k of F_i with k*(eta*q+b) - eta*h <= N map one to
one onto the F_N fractions between the two iterated mediants
(chi*q+a)/(eta*q+b) and (chi*(q-1)+a)/(eta*(q-1)+b).  The map is monotone:
ascending when the co-vertex lies above the vertex, descending otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .arith import Fraction, INFINITY, ONE, ZERO, det2
from .errors import PreconditionError, TheoremViolation
from .farey import FareyWindow, count_in_window, iter_window


@dataclass(frozen=True)
class MapParams:
    """Validated parameter tuple (vertex chi/eta, co-vertex a/b, q, i, N, s).

    All invariants are checked eagerly at construction:

    - vertex lies in [0/1, 1/1]; the co-vertex is adjacent (|det2| = 1) with
      denominator <= eta, or the 1/0 sentinel, which is reserved for vertex 0/1;
    - i = floor(N / (q*eta)), equivalently N/(eta*(i+1)) < q <= N/(eta*i);
    - s = +1 when co_vertex > vertex, -1 otherwise (derived, not supplied).

    Whether N is additionally a multiple of eta*i*(i+1) is recorded as
    `block_aligned`; the bijection operations require it, the index-formula
    consumers do not.
    """

    vertex: Fraction
    co_vertex: Fraction
    q: int
    i: int
    N: int
    s: int = field(init=False)

    def __post_init__(self) -> None:
        v, c = self.vertex, self.co_vertex
        if not v.is_finite or v.num > v.den:
            raise PreconditionError(f"vertex {v} is outside [0/1, 1/1]")
        if v == ZERO:
            if c != INFINITY:
                raise PreconditionError("vertex 0/1 takes the sentinel co-vertex 1/0")
        elif c == INFINITY:
            raise PreconditionError("co-vertex 1/0 is only valid with vertex 0/1")
        elif c.num > c.den or c.den > v.den:
            raise PreconditionError(f"co-vertex {c} is not an F_{v.den} neighbor of {v}")
        if abs(det2(v, c)) != 1:
            raise PreconditionError(f"vertex {v} and co-vertex {c} are not adjacent")
        if self.q < 1 or self.i < 1 or self.N < 1:
            raise PreconditionError("q, i, N must all be positive")
        eta = v.den
        if not (self.q * eta * self.i <= self.N < self.q * eta * (self.i + 1)):
            raise PreconditionError(
                f"q={self.q} is outside the window for i={self.i}: "
                f"need N/(eta*(i+1)) < q <= N/(eta*i) with N={self.N}, eta={eta}"
            )
        object.__setattr__(self, "s", 1 if c > v else -1)

    @property
    def eta(self) -> int:
        return self.vertex.den

    @property
    def block_aligned(self) -> bool:
        """True when N is a multiple of eta*i*(i+1), the bijection's alignment premise."""
        return self.N % (self.eta * self.i * (self.i + 1)) == 0

    def interval(self) -> tuple[Fraction, Fraction]:
        """The two iterated-mediant endpoints, returned as (lo, hi) with lo < hi.

        Orientation is handled by s alone, so there is a single window
        representation for both directions.
        """
        chi, eta = self.vertex.num, self.vertex.den
        a, b = self.co_vertex.num, self.co_vertex.den
        near = Fraction(chi * self.q + a, eta * self.q + b)
        far = Fraction(chi * (self.q - 1) + a, eta * (self.q - 1) + b)
        return (near, far) if near < far else (far, near)


def make_params(vertex: Fraction, co_vertex: Fraction, q: int, n: int) -> MapParams:
    """MapParams with i derived from q as floor(N/(q*eta)).

    MapParams checks every value; when q*eta is not positive (q < 1, or the
    vertex 1/0) there is no i to derive, and the 0 passed instead is refused.
    """
    step = q * vertex.den
    return MapParams(vertex, co_vertex, q, n // step if step > 0 else 0, n)


def _require_block_aligned(params: MapParams) -> None:
    if not params.block_aligned:
        raise PreconditionError(
            f"N={params.N} is not a multiple of eta*i*(i+1)="
            f"{params.eta * params.i * (params.i + 1)}; the bijection needs that alignment"
        )


@dataclass
class FPrimeSet:
    """The filtered subset of F_i whose images stay within order N, ascending."""

    params: MapParams
    members: list[Fraction]

    def __len__(self) -> int:
        return len(self.members)


def _in_filtered_set(params: MapParams, hk: Fraction) -> bool:
    if not hk.is_finite or hk.num > hk.den or hk.den > params.i:
        return False
    eta = params.eta
    b = params.co_vertex.den
    return hk.den * (eta * params.q + b) - eta * hk.num <= params.N


def build_f_prime(params: MapParams) -> FPrimeSet:
    """Enumerate F_i and keep the members h/k with k*(eta*q+b) - eta*h <= N."""
    _require_block_aligned(params)
    eta = params.eta
    factor = eta * params.q + params.co_vertex.den
    members = [
        Fraction(h, k)
        for h, k in iter_window(params.i, ZERO, ONE)
        if k * factor - eta * h <= params.N
    ]
    return FPrimeSet(params, members)


def forward_map(params: MapParams, hk: Fraction) -> Fraction:
    """Image of h/k: (k*(chi*q+a) - chi*h) / (k*(eta*q+b) - eta*h).

    The image is automatically reduced (the adjacency of vertex and co-vertex
    forces gcd 1); hitting a non-reduced pair would falsify that identity and
    raises TheoremViolation rather than silently reducing.
    """
    _require_block_aligned(params)
    if not _in_filtered_set(params, hk):
        raise PreconditionError(f"{hk} is not in the filtered set for {params}")
    chi, eta = params.vertex.num, params.vertex.den
    a, b = params.co_vertex.num, params.co_vertex.den
    h, k = hk.num, hk.den
    u = k * (chi * params.q + a) - chi * h
    l = k * (eta * params.q + b) - eta * h
    if gcd(u, l) != 1:
        raise TheoremViolation(f"image {u}/{l} of {hk} under {params} is not reduced")
    return Fraction(u, l)


def inverse_map(params: MapParams, ul: Fraction) -> Fraction:
    """Preimage of u/l: (q*(eta*u - l*chi) + u*b - l*a) / (eta*u - l*chi)."""
    _require_block_aligned(params)
    lo, hi = params.interval()
    if not ul.is_finite or ul.den > params.N:
        raise PreconditionError(f"{ul} is not in F_{params.N}")
    if ul < lo or hi < ul:
        raise PreconditionError(f"{ul} lies outside the image interval [{lo}, {hi}]")
    chi, eta = params.vertex.num, params.vertex.den
    a, b = params.co_vertex.num, params.co_vertex.den
    u, l = ul.num, ul.den
    k = eta * u - l * chi
    h = params.q * k + u * b - l * a
    if k < 0:
        h, k = -h, -k
    if not (0 <= h <= k) or gcd(h, k) != 1:
        raise TheoremViolation(f"preimage {h}/{k} of {ul} under {params} left F'_i")
    hk = Fraction(h, k)
    if not _in_filtered_set(params, hk):
        raise TheoremViolation(f"preimage {hk} of {ul} under {params} left F'_i")
    return hk


def map_window(params: MapParams) -> FareyWindow:
    """Full image of the filtered set, as an ascending FareyWindow over [lo, hi].

    Also verifies strict monotonicity in the direction given by s; a violation
    raises TheoremViolation.
    """
    fps = build_f_prime(params)
    images = [forward_map(params, f) for f in fps.members]
    oriented = images if params.s == 1 else images[::-1]
    for left, right in zip(oriented, oriented[1:]):
        if not left < right:
            raise TheoremViolation(
                f"images under {params} are not strictly monotone with direction s={params.s}"
            )
    lo, hi = params.interval()
    return FareyWindow(params.N, lo, hi, oriented)


@dataclass
class CardinalityReport:
    """Sizes of F_i, the filtered set, and the image window, plus the branch taken."""

    params: MapParams
    f_i: int
    f_prime: int
    window: int
    branch: str


def _boundary_dropped(params: MapParams) -> int:
    """How many members of F_i the filter drops at the boundary q = N/(eta*i).

    With N = q*eta*i the filter keeps every h/k with k < i (block alignment
    gives q >= i+1, so (i-k)*eta*q > k*b), and for k = i it reduces to
    eta*h >= i*b.  The dropped members are therefore the reduced h/i with
    0 <= h <= i and eta*h < i*b.
    """
    i, eta, b = params.i, params.eta, params.co_vertex.den
    return sum(1 for h in range(i + 1) if gcd(h, i) == 1 and eta * h < i * b)


def cardinality_relation(params: MapParams) -> CardinalityReport:
    """Check the size relations between F_i, the filtered set, and the window.

    Always |filtered| = |window|.  At the boundary q = N/(eta*i) with b > 0
    (branch "boundary"), |F_i| - |filtered| equals the number of reduced h/i
    with 0 <= h <= i and eta*h < i*b; this is 1 at i = 1 (the dropped member
    is 0/1) and at most phi(i) < i for i >= 2.  Otherwise (q < N/(eta*i) or
    b = 0, branch "full") |F_i| = |filtered|.  Violations raise
    TheoremViolation.
    """
    fps = build_f_prime(params)
    f_prime = len(fps)
    f_i = count_in_window(params.i, ZERO, ONE)
    lo, hi = params.interval()
    window = count_in_window(params.N, lo, hi)
    if f_prime != window:
        raise TheoremViolation(
            f"|filtered|={f_prime} but |window|={window} for {params}: bijection size mismatch"
        )
    at_boundary = params.q * params.eta * params.i == params.N
    branch = "boundary" if at_boundary and params.co_vertex.den != 0 else "full"
    dropped = _boundary_dropped(params) if branch == "boundary" else 0
    if f_i - f_prime != dropped:
        raise TheoremViolation(
            f"{branch} size relation failed: |F_i|={f_i}, |filtered|={f_prime}, "
            f"expected {dropped} dropped for {params}"
        )
    return CardinalityReport(params, f_i, f_prime, window, branch)
