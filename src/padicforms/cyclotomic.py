"""Arithmetic in cyclotomic fields Q(zeta_m) over the power basis."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .arith import check_prime
from .errors import DomainError, EmbeddingError, IntegralityError
from .padic import Padic, teichmuller
from .polynomials import Poly, as_fraction

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
        phi = euler_phi(m)
        k %= m
        mono = Poly([0] * k + [1])
        _, red = mono.divmod(cyclotomic_polynomial(m))
        coords = [red[i] for i in range(phi)]
        return cls(m, coords)

    @classmethod
    def zero(cls, m: int) -> CyclotomicElement:
        return cls.from_rational(0, m)

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
        if isinstance(other, CyclotomicElement):
            return self.m == other.m and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.coords))

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
        o = self._coerce(other)
        prod = self.as_poly() * o.as_poly()
        _, red = prod.divmod(cyclotomic_polynomial(self.m))
        phi = euler_phi(self.m)
        return CyclotomicElement(self.m, [red[i] for i in range(phi)])

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicElement:
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        # extended Euclid against the cyclotomic polynomial
        phi_poly = cyclotomic_polynomial(self.m)
        r0, r1 = phi_poly, self.as_poly()
        s0, s1 = Poly(), Poly.const(1)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree() != 0:
            raise DomainError("element is a zero divisor (should be impossible)")
        inv = s0.scale(1 / r0.leading())
        _, red = inv.divmod(phi_poly)
        phi = euler_phi(self.m)
        return CyclotomicElement(self.m, [red[i] for i in range(phi)])

    def __truediv__(self, other) -> CyclotomicElement:
        return self * self._coerce(other).inverse()

    def __pow__(self, e: int) -> CyclotomicElement:
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = CyclotomicElement.one(self.m)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- norm and embeddings --------------------------------------------------

    def norm(self) -> Fraction:
        """Field norm to Q, as the resultant with the cyclotomic polynomial."""
        if self.is_zero():
            return Q(0)
        return resultant(cyclotomic_polynomial(self.m), self.as_poly())

    def embed(self, embedding: PadicEmbedding, prec: int) -> Padic:
        """Image under the embedding sending zeta_m to embedding.root."""
        if self.m != embedding.m:
            raise EmbeddingError(
                f"element lives in Q(zeta_{self.m}) but embedding fixes zeta_{embedding.m}")
        root = embedding.root.at_precision(min(prec, embedding.root.prec))
        acc = Padic.zero(embedding.p, prec)
        for c in reversed(self.coords):
            acc = acc * root
            if c != 0:
                acc = acc + Padic.from_fraction(c, embedding.p, prec)
            acc = acc.at_precision(min(acc.prec, prec))
        return acc


class PadicEmbedding:
    """An embedding Q(zeta_m) -> Q_p given by the image of zeta_m.

    Requires m | p - 1 (for odd p) or m | 2 (for p = 2), so the image
    is a Teichmuller root of unity in Z_p.
    """

    __slots__ = ("p", "m", "root")

    def __init__(self, p: int, m: int, root: Padic):
        check_prime(p)
        limit = 2 if p == 2 else p - 1
        if limit % m != 0:
            raise EmbeddingError(f"no {m}-th roots of unity in Z_{p}: need m | {limit}")
        if root.p != p:
            raise EmbeddingError("root image lives at the wrong prime")
        one = Padic.from_fraction(1, p, root.prec)
        if not (root ** m).agrees(one.at_precision(min(root.prec, (root ** m).prec))):
            raise EmbeddingError("root image is not an m-th root of unity at precision")
        for q in _prime_divisors(m):
            power = root ** (m // q)
            if power.agrees(one.at_precision(min(one.prec, power.prec))):
                raise EmbeddingError("root image is not primitive at precision")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "root", root)

    def __setattr__(self, name, value):
        raise AttributeError("PadicEmbedding is immutable")

    @classmethod
    def default(cls, p: int, m: int, prec: int) -> PadicEmbedding:
        """Teichmuller lift of the smallest positive primitive m-th root mod p."""
        check_prime(p)
        limit = 2 if p == 2 else p - 1
        if limit % m != 0:
            raise EmbeddingError(f"no {m}-th roots of unity in Z_{p}: need m | {limit}")
        if m == 1:
            return cls(p, 1, Padic.from_fraction(1, p, prec))
        g = None
        for cand in range(2, p) if p > 2 else [p - 1]:
            if _mult_order(cand, p) == m:
                g = cand
                break
        if p == 2 and m == 2:
            g = 3  # -1 mod 4
        if g is None:
            raise EmbeddingError(f"no element of order {m} mod {p}")
        return cls(p, m, teichmuller(g, p, prec))

    def __repr__(self) -> str:
        return f"PadicEmbedding(p={self.p}, m={self.m}, root={self.root!r})"


def value_to_padic(v: CyclotomicElement | Fraction, p: int, prec: int,
                   embedding: PadicEmbedding | None = None) -> Padic:
    """v in Q_p modulo p^prec; an irrational v goes through the embedding.

    The embedding defaults to PadicEmbedding.default(p, v.m, prec).
    """
    if isinstance(v, CyclotomicElement):
        if not v.is_rational():
            return v.embed(embedding or PadicEmbedding.default(p, v.m, prec), prec)
        v = v.rational_value()
    return Padic.from_fraction(v, p, prec)


def scale_by_value(x: Padic, c: CyclotomicElement | Fraction,
                   embedding: PadicEmbedding | None = None) -> Padic:
    """x * c, with c taken into Q_p two digits beyond x's relative precision."""
    if isinstance(c, Fraction):
        return x.mul_fraction(c)
    return x * value_to_padic(c, x.p, x.relative_precision() + 2, embedding)


def _mult_order(a: int, p: int) -> int:
    k, x = 1, a % p
    while x != 1:
        x = x * a % p
        k += 1
        if k > p:
            raise ArithmeticError("order computation ran away")
    return k


def _prime_divisors(m: int) -> list[int]:
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


def assert_integral(x: CyclotomicElement | Fraction, context: str) -> None:
    """Hard failure when a value that must be an algebraic integer is not."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise IntegralityError(f"{context}: denominator {x.denominator}")
    elif not x.is_integral():
        raise IntegralityError(f"{context}: non-integral coordinates {x.coords}")
