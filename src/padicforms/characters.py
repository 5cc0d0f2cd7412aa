"""Dirichlet characters with exact values, parity, conductor, and twisted Bernoulli numbers.

Values lie in K = Q(chi), as Fractions or CyclotomicElements (0 is the Fraction 0);
their norms, p-adic valuations and images in Q_p come from `cyclotomic`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .arith import bernoulli_poly, check_prime, vp_int
from .cyclotomic import CyclotomicElement, euler_phi, padic_valuation
from .errors import DomainError

Q = Fraction
CharValue = Union[Fraction, CyclotomicElement]


class DirichletCharacter:
    """A character modulo d, stored non-primitively and extended by zero.

    Values of rational-valued characters are Fractions; otherwise all values
    live in one cyclotomic field Q(zeta_field_m).
    """

    __slots__ = ("modulus", "order", "conductor", "delta", "field_m", "_values", "label")

    def __init__(self, modulus: int, values: dict[int, CharValue], label: str = ""):
        if modulus < 1:
            raise DomainError("modulus must be positive")
        units = [j for j in range(1, modulus + 1) if math.gcd(j, modulus) == 1]
        if modulus == 1:
            units = [1]
        table: dict[int, CharValue] = {}
        field_m = 1
        for j in units:
            key = j % modulus
            if key not in values and j not in values:
                raise DomainError(f"missing value at unit {j}")
            v = values.get(key, values.get(j))
            if isinstance(v, CyclotomicElement) and v.is_rational():
                v = v.rational_value()
            if isinstance(v, CyclotomicElement):
                field_m = math.lcm(field_m, v.m)
            table[key] = v
        if field_m > 1:
            table = {j: _into_field(v, field_m) for j, v in table.items()}
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "field_m", field_m)
        object.__setattr__(self, "_values", table)
        object.__setattr__(self, "label", label)
        self._validate()
        object.__setattr__(self, "order", self._compute_order())
        object.__setattr__(self, "conductor", self._compute_conductor())
        object.__setattr__(self, "delta", self._compute_delta())

    def __setattr__(self, name, value):
        raise AttributeError("DirichletCharacter is immutable")

    # -- construction helpers ------------------------------------------------

    def _validate(self) -> None:
        if self.value(1) != 1:
            raise DomainError("character must send 1 to 1")
        units = sorted(self._values)
        for a in units:
            va = self._values[a]
            if va == 0:
                raise DomainError(f"character vanishes at the unit {a}")
            for b in units:
                if va * self._values[b] != self.value(a * b):
                    raise DomainError(f"table is not multiplicative at ({a}, {b})")

    def _compute_order(self) -> int:
        order = 1
        for v in self._values.values():
            order = math.lcm(order, _root_of_unity_order(v))
        return order

    def _compute_conductor(self) -> int:
        # f = modulus always qualifies: only a = 1 is 1 mod the modulus
        return next(f for f in range(1, self.modulus + 1) if self.modulus % f == 0
                    and all(v == 1 for a, v in self._values.items() if a % f == 1 % f))

    def _compute_delta(self) -> int:
        return 0 if self.value(-1) == 1 else 1

    # -- evaluation -------------------------------------------------------------

    def is_rational_valued(self) -> bool:
        return self.field_m == 1

    def value(self, j: int) -> CharValue:
        """chi(j), zero when gcd(j, modulus) > 1."""
        if self.modulus == 1:
            return Q(1)
        j %= self.modulus
        if math.gcd(j, self.modulus) != 1:
            return Q(0)
        return self._values[j]

    def __call__(self, j: int) -> CharValue:
        return self.value(j)

    def __repr__(self) -> str:
        tag = self.label or f"mod {self.modulus}"
        return f"DirichletCharacter({tag}, order={self.order}, delta={self.delta})"


def chi_units(chi: DirichletCharacter, D: int, p: int) -> Iterator[tuple[int, CharValue]]:
    """(j, chi(j)) for 1 <= j <= D with gcd(j, p) = 1 and chi(j) != 0."""
    for j in range(1, D + 1):
        if math.gcd(j, p) == 1:
            c = chi.value(j)
            if c != 0:
                yield j, c


def _into_field(v: CharValue, m: int) -> CyclotomicElement:
    if isinstance(v, Fraction):
        return CyclotomicElement.from_rational(v, m)
    if v.m == m:
        return v
    if m % v.m == 0:
        # zeta_{v.m} = zeta_m^(m / v.m)
        lift = Q(0)
        step = CyclotomicElement.zeta(m, m // v.m)
        for k in reversed(range(len(v.coords))):
            lift = lift * step + v.coords[k]
        return lift
    raise DomainError(f"cannot lift Q(zeta_{v.m}) into Q(zeta_{m})")


def _root_of_unity_order(v: CharValue) -> int:
    if isinstance(v, Fraction):
        if v == 1:
            return 1
        if v == -1:
            return 2
        raise DomainError(f"{v} is not a root of unity")
    acc = v
    for e in range(1, 2 * euler_phi(v.m) * v.m + 1):
        if acc == 1:
            return e
        acc = acc * v
    raise DomainError("value is not a root of unity")


# -- builtins -----------------------------------------------------------------


def trivial_character() -> DirichletCharacter:
    return DirichletCharacter(1, {0: Q(1)}, label="trivial")


def quadratic_character(d: int) -> DirichletCharacter:
    """The quadratic character of conductor d for d an odd prime, 4, or 8."""
    if d == 4:
        values = {1: Q(1), 3: Q(-1)}
    elif d == 8:
        values = {1: Q(1), 3: Q(-1), 5: Q(-1), 7: Q(1)}
    elif d > 2 and d % 2 == 1:
        check_prime(d)
        values = {}
        for a in range(1, d):
            ls = pow(a, (d - 1) // 2, d)
            values[a] = Q(1) if ls == 1 else Q(-1)
    else:
        raise DomainError(f"no built-in quadratic character of modulus {d}")
    return DirichletCharacter(d, values, label=f"quadratic:{d}")


def char_make(modulus: int, values: dict[int, CharValue] | list) -> DirichletCharacter:
    """Validated character from an explicit value table."""
    if isinstance(values, list):
        if len(values) != modulus:
            raise DomainError("value list must have one entry per residue 1..modulus")
        values = {j % modulus: v for j, v in enumerate(values, start=1)
                  if v != 0}
    return DirichletCharacter(modulus, values)


def character_from_spec(spec) -> DirichletCharacter:
    """Accepts "trivial", "quadratic:d", or {"modulus": d, "values": [...]}.

    The dict may also arrive as its JSON text, as the CLI passes it.
    """
    if isinstance(spec, DirichletCharacter):
        return spec
    if isinstance(spec, str):
        if spec == "trivial":
            return trivial_character()
        if spec.startswith("quadratic:"):
            return quadratic_character(int(spec.split(":", 1)[1]))
        if spec.startswith("{"):
            try:
                obj = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise DomainError(f"malformed JSON character {spec!r}: {exc}") from exc
            return character_from_spec(obj)
        raise DomainError(f"unknown character tag {spec!r}")
    if isinstance(spec, dict):
        if "modulus" not in spec or "values" not in spec:
            raise DomainError("a character object needs \"modulus\" and \"values\"")
        modulus = int(spec["modulus"])
        raw = spec["values"]
        values = []
        for entry in raw:
            if isinstance(entry, dict):
                values.append(CyclotomicElement(int(entry["m"]),
                                                [Fraction(c) for c in entry["coords"]]))
            else:
                values.append(Fraction(entry))
        return char_make(modulus, values)
    raise DomainError(f"cannot build a character from {spec!r}")


# -- twisted Bernoulli numbers ---------------------------------------------------


def gen_bernoulli(k: int, chi: DirichletCharacter) -> CharValue:
    """Character-twisted Bernoulli number d^(k-1) sum_a chi(a) B_k(a/d).

    The sum runs over a = 0..d-1, so the modulus-1 character yields the plain
    Bernoulli numbers with B_1 = -1/2.
    """
    if k < 1:
        raise DomainError("need k >= 1")
    d = chi.modulus
    bk = bernoulli_poly(k)
    acc: CharValue = Q(0)
    for a in range(d):
        c = chi.value(a)
        if c != 0:
            acc = acc + c * bk(Q(a, d))
    return acc * Q(d) ** (k - 1)


@dataclass(frozen=True)
class ChiPadicData:
    """Conductor split d = d' p^l0, vp(B_(2+delta,chi)) and the offset r = that + 1."""

    d_prime: int
    l0: int
    r: int
    b_head: CharValue
    b_valuation: int


def chi_padic_data(chi: DirichletCharacter, p: int) -> ChiPadicData:
    """Split the conductor at p and read vp(B_(2+delta,chi)) under the default embedding."""
    check_prime(p)
    cond = chi.conductor
    l0 = int(vp_int(cond, p)) if cond > 1 else 0
    d_prime = cond // p ** l0
    b = gen_bernoulli(2 + chi.delta, chi)
    if b == 0:
        raise DomainError("B_(2+delta) vanishes; parity contract violated")
    nu = int(padic_valuation(b, p))
    return ChiPadicData(d_prime=d_prime, l0=l0, r=nu + 1, b_head=b, b_valuation=nu)
