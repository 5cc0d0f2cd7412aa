"""Lambert-W depth selection as an exact integer floor.

W is increasing and W(y) >= a exactly when y >= a e^a, so
floor(W(y) / (2 ln p)) is the largest k >= 0 with y >= (2k ln p) p^(2k).
Each comparison is decided exactly with rational upper and lower bounds
for ln p (atanh series with an explicit tail bound); a comparison the
bounds leave open widens the series until it resolves (`decide_ge`, which
the rate inequality of `verification` shares). No float enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PrecisionError

Q = Fraction


@dataclass(frozen=True)
class Interval:
    """A closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @classmethod
    def point(cls, x: Fraction | int) -> Interval:
        x = Q(x)
        return cls(x, x)

    def __add__(self, other: Interval | Fraction | int) -> Interval:
        if not isinstance(other, Interval):
            other = Interval.point(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: Interval | Fraction | int) -> Interval:
        if not isinstance(other, Interval):
            other = Interval.point(other)
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return Interval(min(prods), max(prods))

    __radd__, __rmul__ = __add__, __mul__

    def certainly_ge(self, other: Interval) -> bool:
        return self.lo >= other.hi

    def certainly_lt(self, other: Interval) -> bool:
        return self.hi < other.lo


def ln_interval(x: Fraction | int, terms: int = 24) -> Interval:
    """Rational bounds for ln(x), x > 0: atanh series after binary reduction."""
    x = Q(x)
    if x <= 0:
        raise DomainError("ln needs a positive argument")
    if x == 1:
        return Interval.point(0)
    if x < 1:
        inner = ln_interval(1 / x, terms)
        return Interval(-inner.hi, -inner.lo)
    halvings = 0
    while x > 2:
        x /= 2
        halvings += 1
    out = _ln_series(x, terms)
    if halvings:
        out = out + _ln_series(Q(2), terms) * halvings
    return out


def _ln_series(x: Fraction, terms: int) -> Interval:
    """atanh-series bounds for ln(x) with 1 < x <= 2 (so z <= 1/3)."""
    z = (x - 1) / (x + 1)
    zsq = z * z
    power = z
    s = Q(0)
    for j in range(terms):
        s += power / (2 * j + 1)
        power *= zsq
    lo = 2 * s
    tail = 2 * power / ((2 * terms + 1) * (1 - zsq))
    return Interval(lo, lo + tail)


def decide_ge(sides, cap: int) -> bool | None:
    """Whether lhs >= rhs, for (lhs, rhs) = sides(ln) with ln(x) an Interval around ln x.

    The series behind ln starts at 24 terms and doubles until the bounds
    decide; None once the terms would pass cap.
    """
    terms = 24
    while terms <= cap:
        lhs, rhs = sides(lambda x: ln_interval(x, terms))
        if lhs.certainly_ge(rhs):
            return True
        if lhs.certainly_lt(rhs):
            return False
        terms *= 2
    return None


def ell_param(s: int, epsilon: Fraction, d_prime: int, r: int, p: int) -> int:
    """floor( W(y) / (2 ln p) ) with y = 2 s epsilon / (3 d' p^(r+2)), exactly.

    The largest k >= 0 with y >= (2k ln p) p^(2k): k steps up from 0 while
    the next comparison holds.
    """
    epsilon = Q(epsilon)
    if s < 1 or epsilon <= 0:
        raise DomainError("need s >= 1 and epsilon > 0")
    y = Interval.point(2 * s * epsilon / (3 * d_prime * Q(p) ** (r + 2)))
    k = 0
    while above := decide_ge(lambda ln: (y, 2 * (k + 1) * ln(p) * p ** (2 * k + 2)), 3100):
        k += 1
    if above is None:
        raise PrecisionError("log bounds did not converge")
    return k
