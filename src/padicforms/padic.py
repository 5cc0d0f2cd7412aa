"""Capped-precision p-adic numbers and the Teichmuller decomposition."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .arith import INF, check_prime, split, unit_residue, vp
from .errors import DomainError, PrecisionError

Q = Fraction


def qp(p: int) -> int:
    """4 for p = 2, otherwise p."""
    return 4 if p == 2 else p


def vp_qp(p: int) -> int:
    """vp(q_p): 2 for p = 2, else 1; the least level l with |j/p^l|_p >= q_p."""
    return 2 if p == 2 else 1


def phi_qp(p: int) -> int:
    """Size of the torsion part of the p-adic units: 2 for p = 2, else p - 1."""
    return 2 if p == 2 else p - 1


def fraction_mod_pk(x: Fraction | int, p: int, k: int) -> int:
    """x mod p^k for a rational x with vp(x) >= 0."""
    x = Fraction(x)
    mod = p ** k
    den = x.denominator
    if den % p == 0:
        raise DomainError(f"{x} is not a p-integer for p = {p}")
    return x.numerator * pow(den, -1, mod) % mod


class Padic:
    """A p-adic number known modulo p^prec.

    Stored as p^val * unit with unit coprime to p, reduced into
    [1, p^(prec - val)); val is None when the value is indistinguishable
    from zero at this precision. Instances are immutable.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: Optional[int], unit: int, prec: int):
        check_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "prec", prec)
        if val is not None:
            if val >= prec:
                raise ValueError("valuation must stay below the precision cap")
            if not (1 <= unit < p ** (prec - val)) or unit % p == 0:
                raise ValueError("unit out of range or divisible by p")

    def __setattr__(self, name, value):
        raise AttributeError("Padic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int) -> Padic:
        return cls(p, None, 0, prec)

    @classmethod
    def normalized(cls, p: int, val: int, raw: int, prec: int) -> Padic:
        """Value p^val * raw where raw is only known modulo p^(prec - val)."""
        if val >= prec:
            return cls.zero(p, prec)
        raw %= p ** (prec - val)
        if raw == 0:
            return cls.zero(p, prec)
        w, unit = split(raw, p)  # unit < p^(prec - val - w): already reduced
        return cls(p, val + w, unit, prec)

    @classmethod
    def from_fraction(cls, x: Fraction | int, p: int, prec: int) -> Padic:
        """Reduce an exact rational modulo p^prec (prec is absolute)."""
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, prec)
        v = vp(x, p)
        if v >= prec:
            return cls.zero(p, prec)
        return cls(p, v, unit_residue(x.numerator, x.denominator, p, prec - v)[1], prec)

    # -- structure ---------------------------------------------------------

    def is_zero_at_precision(self) -> bool:
        return self.val is None

    def valuation(self) -> int | float:
        return INF if self.val is None else self.val

    def relative_precision(self) -> int:
        return self.prec if self.val is None else self.prec - self.val

    def at_precision(self, prec: int) -> Padic:
        if prec > self.prec:
            raise PrecisionError(f"cannot raise precision {self.prec} to {prec}")
        if prec == self.prec:
            return self
        if self.val is None or self.val >= prec:
            return Padic.zero(self.p, prec)
        return Padic(self.p, self.val, self.unit % self.p ** (prec - self.val), prec)

    def __repr__(self) -> str:
        if self.val is None:
            return f"O({self.p}^{self.prec})"
        return f"{self.p}^{self.val}*{self.unit} + O({self.p}^{self.prec})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Padic) and self.p == other.p
                and self.val == other.val and self.unit == other.unit
                and self.prec == other.prec)

    def __hash__(self) -> int:
        return hash((self.p, self.val, self.unit, self.prec))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_p(self, other: Padic) -> None:
        if self.p != other.p:
            raise DomainError("mixed primes")

    def __add__(self, other: Padic) -> Padic:
        self._check_same_p(other)
        N = min(self.prec, other.prec)
        if self.val is None:
            return other.at_precision(N)
        if other.val is None:
            return self.at_precision(N)
        v0 = min(self.val, other.val)
        if v0 >= N:
            return Padic.zero(self.p, N)
        p = self.p
        raw = (self.unit * p ** (self.val - v0)
               + other.unit * p ** (other.val - v0))
        return Padic.normalized(p, v0, raw, N)

    def __neg__(self) -> Padic:
        if self.val is None:
            return self
        rel = self.prec - self.val
        return Padic(self.p, self.val, (-self.unit) % self.p ** rel, self.prec)

    def __sub__(self, other: Padic) -> Padic:
        return self + (-other)

    def __mul__(self, other: Padic) -> Padic:
        self._check_same_p(other)
        if self.val is None and other.val is None:
            return Padic.zero(self.p, self.prec + other.prec)
        if self.val is None:
            return Padic.zero(self.p, self.prec + other.val)
        if other.val is None:
            return Padic.zero(self.p, other.prec + self.val)
        rel = min(self.prec - self.val, other.prec - other.val)
        val = self.val + other.val
        unit = self.unit * other.unit % self.p ** rel
        return Padic(self.p, val, unit, val + rel)

    def invert(self) -> Padic:
        if self.val is None:
            raise PrecisionError("inverting a value indistinguishable from zero")
        rel = self.prec - self.val
        return Padic(self.p, -self.val, pow(self.unit, -1, self.p ** rel), rel - self.val)

    def __truediv__(self, other: Padic) -> Padic:
        return self * other.invert()

    def __pow__(self, e: int) -> Padic:
        if e == 0:
            return Padic(self.p, 0, 1, self.relative_precision())
        if self.val is None:
            return Padic.zero(self.p, self.prec * e) if e > 0 else self.invert()
        base = self if e > 0 else self.invert()
        e = abs(e)
        rel = base.prec - base.val
        unit = pow(base.unit, e, self.p ** rel)
        val = base.val * e
        return Padic(self.p, val, unit, val + rel)

    def mul_fraction(self, x: Fraction | int) -> Padic:
        """Multiply by an exact rational; only the valuation shifts precision."""
        x = Fraction(x)
        if x == 0:
            raise DomainError("scaling a p-adic by exact zero loses all content")
        if self.val is None:
            return Padic.zero(self.p, self.prec + vp(x, self.p))
        rel = self.prec - self.val
        v, u = unit_residue(x.numerator, x.denominator, self.p, rel)
        return Padic.normalized(self.p, self.val + v, self.unit * u, self.val + v + rel)

    # -- comparisons ---------------------------------------------------------

    def agrees(self, other: Padic, modulus_exp: Optional[int] = None) -> bool:
        """True if self == other modulo p^modulus_exp (default: shared precision)."""
        self._check_same_p(other)
        k = min(self.prec, other.prec) if modulus_exp is None else modulus_exp
        if k > min(self.prec, other.prec):
            raise PrecisionError("agreement requested beyond known precision")
        d = (self - other).at_precision(k)
        return d.val is None

    def to_json(self) -> dict:
        from .jsonio import int_to_str  # jsonio imports this module

        return {"p": self.p, "val": self.val, "unit": int_to_str(self.unit), "prec": self.prec}


# -- Teichmuller machinery ---------------------------------------------------


def teichmuller(x: Fraction | int, p: int, prec: int) -> Padic:
    """The torsion part of a p-adic unit x, modulo p^prec.

    Satisfies w^phi(q_p) = 1 and w = x mod q_p. For odd p it is
    y^(p^(prec-1)) mod p^prec, y = x mod p^prec: each power y -> y^p gains
    one digit. For p = 2 the value is the sign of x mod 4.
    """
    check_prime(p)
    x = Fraction(x)
    if prec < 1:
        raise DomainError("need precision >= 1")
    if vp(x, p) != 0:
        raise DomainError(f"{x} is not a unit at p = {p}")
    if p == 2:
        sign = 1 if x.numerator * x.denominator % 4 == 1 else -1
        return Padic.from_fraction(sign, 2, prec)
    y = fraction_mod_pk(x, p, prec)
    return Padic(p, 0, pow(y, p ** (prec - 1), p ** prec), prec)


def teichmuller_rational(x: Fraction | int, p: int) -> Optional[Fraction]:
    """Exact value of the extended Teichmuller map when it is rational.

    Returns +-p^v when the unit part of x is +-1 mod q_p, else None.
    """
    check_prime(p)
    x = Fraction(x)
    if x == 0:
        raise DomainError("Teichmuller of zero is undefined")
    v, r = unit_residue(x.numerator, x.denominator, p, vp_qp(p))
    m = qp(p)
    if r == 1:
        return Fraction(p) ** v
    if r == m - 1:
        return -(Fraction(p) ** v)
    return None


def teichmuller_ext(x: Fraction | int, p: int, prec: int) -> Padic:
    """Extended Teichmuller map p^v * teichmuller(unit part), prec relative."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("Teichmuller of zero is undefined")
    v, y = unit_residue(x.numerator, x.denominator, p, prec)
    t = teichmuller(y, p, prec)  # which reads its unit only mod p^prec
    return Padic(p, v, t.unit, v + prec)

