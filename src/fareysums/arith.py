"""Exact reduced fractions, 2x2 determinants, mediants, and gcd-determinant identities.

Everything here is pure integer arithmetic on immutable values; Python ints are
arbitrary precision, so no operation can silently wrap or truncate.
"""

from __future__ import annotations

from math import gcd, inf

import numpy as np

from .errors import PreconditionError


class Fraction:
    """A reduced fraction num/den with num, den >= 0, ordered by cross-multiplication.

    The sentinel 1/0 is a valid value: it compares greater than every finite
    fraction and acts as the upper vertex of the extended mediant diagram.
    0/0 is rejected.  Construction always divides out gcd(num, den), using the
    convention gcd(x, 0) = |x|, so Fraction(4, 0) normalizes to 1/0 and
    Fraction(0, 7) to 0/1.  A negative numerator and denominator pair is
    normalized to positive; a genuinely negative value is an error.
    Instances are immutable and hashable.
    """

    __slots__ = ("num", "den")

    num: int
    den: int

    def __init__(self, num: int, den: int = 1) -> None:
        if den < 0:
            num, den = -num, -den
        if num < 0:
            raise PreconditionError(f"fraction {num}/{den} is negative")
        g = gcd(num, den)
        if g == 0:
            raise PreconditionError("0/0 is not a valid fraction")
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Fraction is immutable")

    @classmethod
    def parse(cls, text: str) -> Fraction:
        """Parse the canonical serialized form "num/den", e.g. "2/5" or "1/0"."""
        head, sep, tail = text.strip().partition("/")
        try:
            if not sep:
                raise ValueError(text)
            return cls(int(head), int(tail))
        except ValueError as exc:
            raise PreconditionError(f"expected a fraction 'num/den', got {text!r}") from exc

    @property
    def is_finite(self) -> bool:
        return self.den != 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Fraction({self.num}, {self.den})"

    def __float__(self) -> float:
        return self.num / self.den if self.den else inf

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fraction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other: Fraction) -> bool:
        return self.num * other.den < other.num * self.den

    def __le__(self, other: Fraction) -> bool:
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: Fraction) -> bool:
        return self.num * other.den > other.num * self.den

    def __ge__(self, other: Fraction) -> bool:
        return self.num * other.den >= other.num * self.den


ZERO = Fraction(0, 1)
ONE = Fraction(1, 1)
INFINITY = Fraction(1, 0)


def det2(p: Fraction, r: Fraction) -> int:
    """Determinant | p.num r.num ; p.den r.den | = p.num*r.den - r.num*p.den."""
    return p.num * r.den - r.num * p.den


def mediant(p: Fraction, r: Fraction) -> Fraction:
    """Mediant (p.num+r.num)/(p.den+r.den) of two adjacent fractions.

    Requires |det2(p, r)| = 1, which guarantees the result is already reduced
    and lies strictly between p and r; without that the construction would
    silently reduce and break both guarantees.
    """
    if abs(det2(p, r)) != 1:
        raise PreconditionError(f"mediant requires adjacent fractions, got {p} and {r}")
    return Fraction(p.num + r.num, p.den + r.den)


def shear(p: Fraction) -> Fraction:
    """Map num/den to num/(num+den).

    Order-preserving on fractions and it leaves every pairwise det2 unchanged,
    which is what makes it useful for reducing determinant arguments to the
    in-[0,1] case.  Not defined for the 1/0 sentinel.
    """
    if not p.is_finite:
        raise PreconditionError("shear is not defined for 1/0")
    return Fraction(p.num, p.num + p.den)


def gcd_triple(lo: Fraction, mid: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """The three pairwise gcds of determinants of a strictly ordered triple.

    Returns (gcd(d_hm, d_hl), gcd(d_hm, d_ml), gcd(d_hl, d_ml)) where d_xy =
    det2(x, y).  For reduced inputs the three values are always equal; the
    exhaustive tests assert exactly that.
    """
    if not (lo < mid < hi):
        raise PreconditionError(f"triple must be strictly ordered, got {lo}, {mid}, {hi}")
    d_hm = det2(hi, mid)
    d_hl = det2(hi, lo)
    d_ml = det2(mid, lo)
    return gcd(d_hm, d_hl), gcd(d_hm, d_ml), gcd(d_hl, d_ml)


def gcd_triples(nums, dens) -> np.ndarray:
    """gcd_triple for each triple, from its lo, mid, hi numerators and denominators: a (count, 3) array.

    nums and dens hold the triples one after another (as (count, 3) arrays
    or flat).  The determinants are int64 while every entry is below 2**31,
    so that |det| <= 2*cap**2 < 2**63 for the largest entry cap, and Python
    ints (object arrays) past that.  Negative entries and triples that are
    not strictly ordered are refused.
    """
    nums, dens = (np.asarray(a, dtype=object).reshape(-1, 3) for a in (nums, dens))
    if nums.size:
        if min(nums.min(), dens.min()) < 0:
            raise PreconditionError("triples need nonnegative numerators and denominators")
        if max(nums.max(), dens.max()) < 1 << 31:
            nums, dens = nums.astype(np.int64), dens.astype(np.int64)
    (p, r, t), (q, s, u) = nums.T, dens.T
    d_hm, d_hl, d_ml = t * s - r * u, t * q - p * u, r * q - p * s
    if not ((d_ml > 0) & (d_hm > 0)).all():
        raise PreconditionError("every triple must be strictly ordered")
    return np.stack((np.gcd(d_hm, d_hl), np.gcd(d_hm, d_ml), np.gcd(d_hl, d_ml)), axis=1)


def neighbor_gcd_check(lo: Fraction, mid: Fraction, hi: Fraction) -> bool:
    """Whether gcd(det2(hi, mid), det2(mid, lo)) = 1 for mid between adjacent lo, hi.

    With lo and hi adjacent (|det2(hi, lo)| = 1) this must always come out
    true; returning the boolean rather than asserting lets callers count
    counterexamples.
    """
    if abs(det2(hi, lo)) != 1:
        raise PreconditionError(f"{lo} and {hi} are not adjacent (|det2| != 1)")
    if not (lo < mid < hi):
        raise PreconditionError(f"mid must lie strictly between, got {lo}, {mid}, {hi}")
    return gcd(det2(hi, mid), det2(mid, lo)) == 1
