"""Dense exact polynomials, truncated power series, and rational functions over Q."""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import DomainError, NonSplitDenominator, PrecisionError

Q = Fraction


def as_fraction(x: Fraction | int | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class Poly:
    """Polynomial over Q with dense ascending coefficients; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Poly is immutable")

    # -- basic structure -------------------------------------------------

    @classmethod
    def const(cls, c: Fraction | int) -> Poly:
        return cls([as_fraction(c)])

    @classmethod
    def x(cls) -> Poly:
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Q(0)
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Q(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        return Poly(series_mul(a, b, len(a) + len(b) - 1))

    def scale(self, c: Fraction | int) -> Poly:
        c = as_fraction(c)
        return Poly([c * a for a in self.coeffs])

    def __pow__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, e, Poly.const(1))

    def derivative(self) -> Poly:
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def shift(self, c: Fraction | int) -> Poly:
        """Compose with a translation: returns q with q(t) = self(t + c)."""
        c = as_fraction(c)
        out = Poly()
        lin = Poly([c, 1])
        for coeff in reversed(self.coeffs):
            out = out * lin + Poly.const(coeff)
        return out

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Q(0)
        for coeff in reversed(self.coeffs):
            acc = acc * x + coeff
        return acc

    def divmod(self, other: Poly) -> tuple[Poly, Poly]:
        """(quotient, remainder) by one pass of long division, top degree down."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d, dn = other.coeffs, other.degree()
        rem = list(self.coeffs)
        quot = [Q(0)] * max(0, len(rem) - dn)
        for k in reversed(range(len(quot))):
            if f := rem[k + dn] / d[-1]:
                quot[k] = f
                for j, c in enumerate(d[:-1]):
                    rem[k + j] -= f * c
        return Poly(quot), Poly(rem[:dn])

    def content_primitive(self) -> tuple[Fraction, list[int]]:
        """Write self = content * P with P a primitive integer polynomial."""
        if self.is_zero():
            return Q(0), []
        den = lcm(*[c.denominator for c in self.coeffs])
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        return Q(g, den), ints


def power(x, e: int, one):
    """x^e for an integer e >= 0 by square and multiply; one is the 1 of x's ring."""
    out = one
    while e:
        if e & 1:
            out = out * x
        e >>= 1
        if e:
            x = x * x
    return out


# -- truncated power series (lists of length L, ascending) ----------------


def series_trunc(coeffs: Sequence[Fraction], L: int) -> list[Fraction]:
    out = list(coeffs[:L])
    out.extend([Q(0)] * (L - len(out)))
    return out


def series_mul(a: Sequence, b: Sequence, L: int) -> list:
    """The product of two series truncated at length L; integers stay integers."""
    out = [0] * L
    for i, ai in enumerate(a[:L]):
        if ai:
            for j, bj in enumerate(b[:L - i]):
                out[i + j] += ai * bj
    return out


def series_inv(a: Sequence[Fraction], L: int) -> list[Fraction]:
    """Inverse of a series with a[0] != 0 to length L: series_pow(a, -1, L)."""
    return series_pow(a, -1, L)


def series_pow(a: Sequence[Fraction], e: int, L: int) -> list[Fraction]:
    """a^e to length L for any integer e, by one integer recurrence.

    Write a = u^v b with b[0] != 0 and c b = B with B an integer series.
    Then a^e is c^-e B^e shifted by v e, and B^e comes from
    power_numerators with d = B[0] when e < 0 and d = 1 otherwise. A
    negative power of a series with a[0] = 0 raises ZeroDivisionError.
    """
    if e < 0 and (not a or a[0] == 0):
        raise ZeroDivisionError("series has no inverse: constant term vanishes")
    v = next((k for k, c in enumerate(a[:L]) if c), None)
    if v is None:  # a vanishes to length L, and 0^0 = 1
        return series_trunc([Q(1)] if e == 0 else [], L)
    b, shift = a[v:v + L], min(v * e, L)
    c = lcm(*(x.denominator for x in b))
    B = [x.numerator * (c // x.denominator) for x in b]
    d = B[0] if e < 0 else 1
    top, bottom = c ** max(-e, 0), c ** max(e, 0) * d ** max(-e, 0)
    g = power_numerators([(B, e)], d, L - shift)[:L - shift]
    return [Q(0)] * shift + [Q(top * x, bottom * d ** m) for m, x in enumerate(g)]


def power_numerators(factors: Sequence[tuple[Sequence[int], int]], d: int,
                     L: int) -> list[int]:
    """Integers G with prod_j b_j^e_j = c sum_m G[m] (y/d)^m to length L.

    Each factor is an integer series b_j with b_j[0] != 0 and an integer
    exponent e_j, and c = prod_j b_j[0]^min(e_j, 0). With A = prod_j b_j and
    E = sum_j e_j b_j' prod_(i != j) b_i, the product g satisfies A g' = E g,
    so m A[0] g[m] = sum_(k=1..m) (E[k-1] - (m-k) A[k]) g[m-k] (for one
    factor E = e b', Knuth, TAOCP vol. 2, 4.7). With g[m] = c G[m] / d^m it
    reads

        m A[0] G[m] = sum_k (E[k-1] + k A[k] - m A[k]) d^k G[m-k],
        G[0] = prod_j b_j[0]^max(e_j, 0).

    The caller picks d so that every G[m] is an integer, which makes every
    division exact: d = 1 when every e_j >= 0, and d = b[0] serves one factor
    b with any e. The recurrence has order r = deg A, so its cost is about
    2 L r products, whatever the exponents; the sum is taken by Horner's rule
    in d, so that no product carries a power of d.
    """
    if L < 1:
        return []
    polys = [b[:1 + max(k for k, c in enumerate(b[:L]) if c)] for b, _ in factors]
    A, E = [1], [0]
    for (_, e), b in zip(factors, polys):  # (A, E) -> (A b, E b + e A b')
        db = [k * c for k, c in enumerate(b)][1:]
        E = [x + e * y for x, y in zip(series_mul(E, b, L), series_mul(A, db, L))]
        A = series_mul(A, b, L)
    top = max((k for k in range(1, L) if A[k] or E[k - 1]), default=0)  # the order
    U = [0] + [E[k - 1] + k * A[k] for k in range(1, top + 1)]
    g = [prod(b[0] ** max(e, 0) for (_, e), b in zip(factors, polys))]
    a0 = A[0]
    for m in range(1, L):
        acc = 0
        for k in range(min(m, top), 0, -1):
            acc = (acc + (U[k] - m * A[k]) * g[m - k]) * d
        g.append(acc // (m * a0))
    return g


# -- rational functions ----------------------------------------------------


class RationalFunction:
    """Quotient of two polynomials over Q; the denominator is nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly.const(1)):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def const(cls, c: Fraction | int) -> RationalFunction:
        return cls(Poly.const(c))

    def is_polynomial(self) -> bool:
        q, r = self.num.divmod(self.den)
        return r.is_zero()

    def degree(self) -> int | None:
        """deg(num) - deg(den); None for the zero function."""
        if self.num.is_zero():
            return None
        return self.num.degree() - self.den.degree()

    def __call__(self, x: Fraction | int) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {x}")
        return self.num(x) / d

    def residues(self, count: int, p: int, v_floor: int, rel: int) -> list[int]:
        """f(a) / p^v_floor mod p^rel for 0 <= a < count.

        The primitive integer numerator and denominator are evaluated
        exactly by Horner's rule, so every valuation is exact; a zero
        numerator gives 0. Raises DomainError at a pole and PrecisionError
        when some vp(f(a)) < v_floor.
        """
        from .arith import batch_invert, split, unit_residue  # arith imports this module

        mod = p ** rel
        scale_n, nums = self.num.content_primitive()
        scale_d, dens = self.den.content_primitive()
        scale = scale_n / scale_d if nums else Q(1)
        v_scale, scale_unit = unit_residue(scale.numerator, scale.denominator, p, rel)
        nums, dens = nums[::-1], dens[::-1]
        tops, bottoms = [], []
        for a in range(count):
            d = 0
            for c in dens:
                d = d * a + c
            if d == 0:
                raise DomainError(f"integrand has a pole at the integer {a}")
            n = 0
            for c in nums:
                n = n * a + c
            if n == 0:
                tops.append(0)
                bottoms.append(1)
                continue
            wn, un = split(n, p) if n % p == 0 else (0, n)  # no call for a unit, once a point
            wd, ud = split(d, p) if d % p == 0 else (0, d)
            v = v_scale + wn - wd
            if v < v_floor:
                raise PrecisionError("supplied coefficient floors are violated")
            top = un * scale_unit
            tops.append(top * p ** (v - v_floor) if v > v_floor else top)
            bottoms.append(ud)
        return [t * b % mod for t, b in zip(tops, batch_invert(bottoms, mod))]

    def __add__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: RationalFunction) -> RationalFunction:
        return self + (-other)

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> RationalFunction:
        if e >= 0:
            return RationalFunction(self.num ** e, self.den ** e)
        return RationalFunction(self.den ** (-e), self.num ** (-e))

    def shift(self, c: Fraction | int) -> RationalFunction:
        """Returns g with g(t) = self(t + c)."""
        return RationalFunction(self.num.shift(c), self.den.shift(c))

    def derivative(self) -> RationalFunction:
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    # -- pole structure ----------------------------------------------------

    def den_factorization(self) -> tuple[Fraction, dict[Fraction, int]]:
        """Factor the denominator as lc * prod (t - c)^e over rational roots.

        Roots are sought in the square-free part P / gcd(P, P'); each
        multiplicity is then read by dividing P. Raises NonSplitDenominator
        if an irreducible factor of degree > 1 remains after all rational
        roots are removed.
        """
        rest = self.den
        square_free = _primitive(rest.divmod(_monic_gcd(rest, rest.derivative()))[0])
        roots: dict[Fraction, int] = {}
        for root in _rational_roots(square_free):
            lin = Poly([-root, 1])
            roots[root] = 0
            while (division := rest.divmod(lin))[1].is_zero():
                rest = division[0]
                roots[root] += 1
        if rest.degree() > 0:
            raise NonSplitDenominator(
                "denominator has an irreducible factor of degree > 1 over Q")
        return self.den.leading(), roots

    def partial_fractions(self) -> tuple[Poly, dict[Fraction, list[Fraction]]]:
        """Exact partial fraction decomposition over Q.

        Returns (polynomial part, {root c: [a_1, ..., a_e]}) so that
        self(t) = poly(t) + sum over roots of sum_i a_i / (t - c)^i.
        Coefficients are obtained from a truncated power series expansion of
        self * (t - c)^e around each pole, never by symbolic differentiation.
        """
        lc, roots = self.den_factorization()
        poly_part, _ = self.num.divmod(self.den)
        terms: dict[Fraction, list[Fraction]] = {}
        for c, e in roots.items():
            # 1 / (lc * prod_{c' != c} (u + c - c')^{e'}), expanded in u = t - c
            L = e
            inv_cof = series_trunc([1 / lc], L)
            for c2, e2 in roots.items():
                if c2 != c:
                    inv_cof = series_mul(inv_cof, series_pow([c - c2, Q(1)], -e2, L), L)
            num_series = series_trunc(self.num.shift(c).coeffs, L)
            expansion = series_mul(num_series, inv_cof, L)
            # coefficient of u^(e-i) is the weight of (t-c)^(-i)
            terms[c] = [expansion[e - i] for i in range(1, e + 1)]
        return poly_part, terms


def _primitive(poly: Poly) -> Poly:
    return Poly(poly.content_primitive()[1])


def _monic_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a != 0 and b over Q, by Euclid's algorithm."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.scale(1 / a.leading())


def _rational_roots(prim: Poly) -> list[Fraction]:
    """The rational roots of a square-free primitive integer polynomial P.

    A root x = a/b in lowest terms has a | a0 and b | an, so y = an x is an
    integer with |y| <= |a0 an|. Take the least prime q that divides neither
    an nor P' at a root of P mod q, Hensel-lift each root r of P mod q to a
    modulus M > 2 |a0 an|, read y as the symmetric residue of an r, and
    confirm y/an exactly. Sorted by (|numerator|, denominator, sign).
    """
    from .arith import is_prime  # arith imports this module

    roots = []
    if prim[0] == 0:  # square-free, so t divides P once
        roots.append(Q(0))
        prim = Poly(prim.coeffs[1:])
    deriv = prim.derivative()
    a0, an = int(prim[0]), int(prim.leading())
    for q in filter(is_prime, count(2)):
        mod_roots = [r for r in range(q) if prim(r) % q == 0]
        if an % q and all(deriv(r) % q for r in mod_roots):
            break
    for r in mod_roots:
        mod = q
        while mod <= 2 * abs(a0 * an):
            mod *= mod
            r = (r - int(prim(r)) * pow(int(deriv(r)), -1, mod)) % mod
        y = an * r % mod
        x = Q(y - mod if 2 * y > mod else y, an)
        if prim(x) == 0:
            roots.append(x)
    return sorted(roots, key=lambda x: (abs(x.numerator), x.denominator, x < 0))


# -- expression parser -----------------------------------------------------

# bound on |e| max(1, deg base) for each power base^e, and on the numerator
# and denominator degrees of each sum, difference, product and quotient
MAX_POWER_DEGREE = 500
MAX_NESTING = 100  # bound on the depth of nested parentheses


def parse_rational_function(text: str) -> RationalFunction:
    """Parse expressions like "(1/5+t)^-2*(2/5+t)^-1 + 3*t^2" over Q(t)."""
    tokens = _tokenize(text)
    pos = depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"parse error at token {pos} in {text!r}")
        pos += 1
        return tok

    def parse_expr() -> RationalFunction:
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        node = parse_term()
        if sign < 0:
            node = -node
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            check_degree(node, op, rhs)
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> RationalFunction:
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            check_degree(node, op, rhs)
            node = node * rhs if op == "*" else node / rhs
        return node

    def check_degree(a: RationalFunction, op: str, b: RationalFunction) -> None:
        """Refuse a op b when its numerator or denominator would pass MAX_POWER_DEGREE."""
        (an, ad), (bn, bd) = ((f.num.degree(), f.den.degree()) for f in (a, b))
        if op == "/":
            bn, bd = bd, bn
        num = an + bn if op in "*/" else max(an + bd, bn + ad)
        if max(num, ad + bd) > MAX_POWER_DEGREE:
            raise ValueError(f"an operand of {op!r} would give degree above {MAX_POWER_DEGREE}")

    def parse_factor() -> RationalFunction:
        node = parse_base()
        if peek() == "^":
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            e = take()
            if not isinstance(e, int):
                raise ValueError("exponent must be an integer")
            if e * max(1, node.num.degree(), node.den.degree()) > MAX_POWER_DEGREE:
                raise ValueError(f"a power may have degree at most {MAX_POWER_DEGREE}")
            node = node ** (-e if neg else e)
        return node

    def parse_base() -> RationalFunction:
        nonlocal depth
        tok = peek()
        if tok == "(":
            if depth == MAX_NESTING:
                raise ValueError(f"parentheses may nest at most {MAX_NESTING} deep")
            take()
            depth += 1
            node = parse_expr()
            take(")")
            depth -= 1
            return node
        if tok == "t":
            take()
            return RationalFunction(Poly.x())
        if isinstance(tok, int):
            take()
            if peek() == "/" and pos + 1 < len(tokens) and isinstance(tokens[pos + 1], int):
                take()
                den = take()
                if den == 0:
                    raise ValueError(f"the literal {tok}/0 has a zero denominator")
                return RationalFunction.const(Q(tok, den))
            return RationalFunction.const(tok)
        raise ValueError(f"parse error near {tok!r} in {text!r}")

    node = parse_expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return node


def _tokenize(text: str) -> list:
    out: list = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch in "+-*/^()t":
            out.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r}")
    return out
