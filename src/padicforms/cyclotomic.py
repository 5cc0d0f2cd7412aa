"""Arithmetic in cyclotomic fields Q(zeta_m) over the power basis."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .arith import check_prime, is_prime, vp, vp_int
from .errors import DomainError, EmbeddingError, IntegralityError
from .padic import Padic, phi_qp, qp, teichmuller
from .polynomials import Poly, as_fraction, power

Q = Fraction


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise DomainError("need m >= 1")
    out, q, rest = 1, 2, m
    while q * q <= rest:
        if rest % q == 0:
            out *= q - 1
            rest //= q
            while rest % q == 0:
                out *= q
                rest //= q
        q += 1
    if rest > 1:
        out *= rest - 1
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> Poly:
    """The m-th cyclotomic polynomial, exact integer coefficients."""
    if m < 1:
        raise DomainError("need m >= 1")
    num = Poly([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = num.divmod(cyclotomic_polynomial(d))
            assert rem.is_zero()
    return num


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) over Q via the Euclidean algorithm."""
    sign = 1
    acc = Q(1)
    while True:
        if f.degree() < g.degree():
            if (f.degree() % 2 == 1 if f.degree() >= 0 else False) and g.degree() % 2 == 1:
                sign = -sign
            f, g = g, f
        if g.is_zero():
            return Q(0) if f.degree() > 0 else acc * sign
        if g.degree() == 0:
            return acc * sign * g.leading() ** f.degree()
        _, r = f.divmod(g)
        if f.degree() % 2 == 1 and g.degree() % 2 == 1:
            sign = -sign
        acc *= g.leading() ** (f.degree() - (r.degree() if not r.is_zero() else 0))
        f, g = g, r


class CyclotomicElement:
    """Element of Q(zeta_m) as a coordinate vector over 1, zeta, ..., zeta^(phi(m)-1)."""

    __slots__ = ("m", "coords")

    def __init__(self, m: int, coords: Iterable[Fraction | int]):
        cs = tuple(as_fraction(c) for c in coords)
        if m > 2 * len(cs) ** 2:  # phi(m) >= sqrt(m/2): refused before phi(m) is factored
            raise DomainError(f"need phi({m}) > {len(cs)} coordinates, got {len(cs)}")
        if len(cs) != euler_phi(m):
            raise DomainError(f"need phi({m}) = {euler_phi(m)} coordinates, got {len(cs)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coords", cs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rational(cls, q: Fraction | int, m: int = 1) -> CyclotomicElement:
        coords = [as_fraction(q)] + [Q(0)] * (euler_phi(m) - 1)
        return cls(m, coords)

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> CyclotomicElement:
        """zeta_m^k in the power basis."""
        return cls.reduced(m, Poly([0] * (k % m) + [1]))

    @classmethod
    def reduced(cls, m: int, poly: Poly) -> CyclotomicElement:
        """poly(zeta_m) in the power basis: the one reduction modulo Phi_m."""
        _, red = poly.divmod(cyclotomic_polynomial(m))
        return cls(m, [red[i] for i in range(euler_phi(m))])

    @classmethod
    def one(cls, m: int) -> CyclotomicElement:
        return cls.from_rational(1, m)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return self.coords[0]

    def is_integral(self) -> bool:
        """True when all power-basis coordinates are integers (Z[zeta_m])."""
        return all(c.denominator == 1 for c in self.coords)

    def as_poly(self) -> Poly:
        return Poly(self.coords)

    def __eq__(self, other) -> bool:
        # a rational element equals every element of its value, whatever
        # the field, so equality stays transitive through Fractions
        if isinstance(other, CyclotomicElement):
            if self.is_rational() and other.is_rational():
                return self.coords[0] == other.coords[0]
            return self.m == other.m and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        # a rational element equals its Fraction, so it hashes as one
        return hash(self.coords[0]) if self.is_rational() else hash((self.m, self.coords))

    def __repr__(self) -> str:
        return f"CyclotomicElement(m={self.m}, {list(self.coords)})"

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other) -> CyclotomicElement:
        if isinstance(other, CyclotomicElement):
            if other.m != self.m:
                raise DomainError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_rational(other, self.m)
        raise TypeError(f"cannot coerce {type(other).__name__}")

    def __add__(self, other) -> CyclotomicElement:
        o = self._coerce(other)
        return CyclotomicElement(self.m, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self) -> CyclotomicElement:
        return CyclotomicElement(self.m, [-a for a in self.coords])

    def __sub__(self, other) -> CyclotomicElement:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> CyclotomicElement:
        return self._coerce(other) - self

    def __mul__(self, other) -> CyclotomicElement:
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement(self.m, [a * other for a in self.coords])
        return CyclotomicElement.reduced(self.m, self.as_poly() * self._coerce(other).as_poly())

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicElement:
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        # extended Euclid against the cyclotomic polynomial
        r0, r1 = cyclotomic_polynomial(self.m), self.as_poly()
        s0, s1 = Poly(), Poly.const(1)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree() != 0:
            raise DomainError("element is a zero divisor (should be impossible)")
        return CyclotomicElement.reduced(self.m, s0.scale(1 / r0.leading()))

    def __truediv__(self, other) -> CyclotomicElement:
        return self * self._coerce(other).inverse()

    def __pow__(self, e: int) -> CyclotomicElement:
        base = self if e >= 0 else self.inverse()
        return power(base, abs(e), CyclotomicElement.one(self.m))

    # -- norm and embedding ---------------------------------------------------

    def norm(self) -> Fraction:
        """Field norm to Q, as the resultant with the cyclotomic polynomial."""
        if self.is_zero():
            return Q(0)
        return resultant(cyclotomic_polynomial(self.m), self.as_poly())

    def embed(self, p: int, prec: int) -> Padic:
        """Image modulo p^prec under the embedding sending zeta_m to zeta_image(p, m, prec)."""
        root = zeta_image(p, self.m, prec)
        acc = Padic.zero(p, prec)
        for c in reversed(self.coords):
            acc = acc * root
            if c != 0:
                acc = acc + Padic.from_fraction(c, p, prec)
            acc = acc.at_precision(min(acc.prec, prec))
        return acc


def zeta_image(p: int, m: int, prec: int) -> Padic:
    """The image of zeta_m in Q_p modulo p^prec, under the one embedding of Q(zeta_m).

    zeta_m goes to the Teichmuller lift of the least positive g of order m
    mod q_p (p, or 4 when p = 2): the root of unity fixed by its residue
    (Washington, Introduction to Cyclotomic Fields, Ch. 5), known to any
    precision. It exists only when m | phi(q_p). A shallower request
    truncates the deepest lift so far, so each (p, m) is lifted once per
    new depth.
    """
    lift = _LIFTS.get((p, m))
    if lift is None or lift.prec < prec:
        lift = _LIFTS[(p, m)] = teichmuller(_least_residue_of_order(p, m), p, prec)
    return lift.at_precision(prec)


@lru_cache(maxsize=None)
def _least_residue_of_order(p: int, m: int) -> int:
    """The least positive g of order m mod q_p."""
    check_prime(p)
    if m < 1 or phi_qp(p) % m != 0:
        raise EmbeddingError(f"no {m}-th roots of unity in Z_{p}: need m | {phi_qp(p)}")
    q = qp(p)
    # g has order exactly m when g^m = 1 and no g^(m/r) = 1 for a prime r | m
    primes = [r for r in range(2, m + 1) if m % r == 0 and is_prime(r)]
    return next(g for g in range(1, q) if pow(g, m, q) == 1
                and all(pow(g, m // r, q) != 1 for r in primes))


# (p, m) -> the deepest lift of zeta_image so far; a memo of a pure map,
# since the lift modulo p^k is the deeper lift truncated
_LIFTS: dict[tuple[int, int], Padic] = {}


def value_to_padic(v: CyclotomicElement | Fraction, p: int, prec: int) -> Padic:
    """v in Q_p modulo p^prec; an irrational v goes through zeta_image.

    The integral c v (see _clear_denominators) is embedded at prec + vp(c) and
    divided by c, so the result keeps all prec digits.
    """
    if isinstance(v, CyclotomicElement):
        if not v.is_rational():
            c, cv = _clear_denominators(v)
            extra = int(vp_int(c, p))
            image = cv.embed(p, prec + extra)
            return image.mul_fraction(Q(1, c))
        v = v.rational_value()
    return Padic.from_fraction(v, p, prec)


def padic_valuation(x: CyclotomicElement | Fraction, p: int) -> int | float:
    """vp of x in Q_p (math.inf at 0); an irrational x goes through zeta_image.

    The precision is read off in closed form: c x lies in Z[zeta_m], and p
    splits completely in Q(zeta_m) when m | p - 1 (Washington, Introduction
    to Cyclotomic Fields, Thm 2.13). So the images of c x under the phi(m)
    embeddings into Q_p are p-adic integers whose valuations add up to
    vp(N(c x)), and vp(c x) <= vp(N(c x)). One embedding at precision
    vp(N(c x)) + 1 therefore reads vp(c x) exactly.
    """
    if isinstance(x, CyclotomicElement):
        if x.is_rational():
            return vp(x.rational_value(), p)
    else:
        return vp(x, p)
    c, cx = _clear_denominators(x)
    prec = int(vp(cx.norm(), p)) + 1
    image = cx.embed(p, prec)
    return image.valuation() - vp_int(c, p)


def abs_norm(x: CyclotomicElement | Fraction, m: int) -> Fraction:
    """|N_(K/Q)(x)| for x in K = Q(zeta_m)."""
    if isinstance(x, CyclotomicElement):
        return abs(x.norm())
    return abs(x) ** euler_phi(m)


def _clear_denominators(x: CyclotomicElement) -> tuple[int, CyclotomicElement]:
    """(c, c x) with c the lcm of the coordinate denominators, so c x is in Z[zeta_m]."""
    c = math.lcm(*(q.denominator for q in x.coords))
    return c, x * c


def assert_integral(x: CyclotomicElement | Fraction, context: str) -> None:
    """Hard failure when a value that must be an algebraic integer is not."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise IntegralityError(f"{context}: denominator {x.denominator}")
    elif not x.is_integral():
        raise IntegralityError(f"{context}: non-integral coordinates {x.coords}")
