"""Volkenborn integration: Riemann sums, a certified Mahler engine, and
Bernoulli sums for polynomials and single poles.

The integral of f over Z_p is the limit of p^-n sum_{k < p^n} f(k). Three
engines compute it here:

* integral_riemann: the level-n partial sum (diagnostic; its error is
  certified only through the constant wavelet tail bound), read from the
  integrand's residues method at the floor vp(content) - vp(den_prim(0)).
* integral_mahler: the general path for rational functions without poles
  in Z_p. A polynomial sum a_k t^k integrates exactly to sum a_k B_k
  (Int t^k dt = B_k, with B_1 = -1/2). Otherwise it computes Mahler
  coefficients c_m = (forward differences at 0) from inputs mod p^rel with
  exact valuations (the integrand's residues method), sums
  c_m (-1)^m / (m+1), and certifies the truncation error from the pole
  structure: for a partial-fraction term a/(t - c)^i with
  h = -vp(c) >= 1, the m-th Mahler coefficient has valuation at least
  vp(a) + (m + i) h. With T(m) the least of these bounds, T rises by at
  least 1 per step and l(m) by at most 1, so the tail beyond M has
  valuation at least T(M+1) - l(M+1); M is the least value for which
  that meets the precision.
* integral_pole_power: the single pole (x+t)^-k, the integrand of every
  Hurwitz zeta and L-value at a positive integer. It sums the classical
  series Int (x+t)^-k dt = sum_j binom(-k, j) B_j x^(-k-j) (Washington,
  Introduction to Cyclotomic Fields, Thm 5.11). With h = -vp(x) and
  vp(B_j) >= -1 (von Staudt-Clausen), term j has valuation at least
  (k+j) h - 1, so stopping at the first J with (k+J) h - 1 >= precision
  leaves a tail divisible by p^precision.

The van der Put (wavelet) expansion stays as the exact form of a Riemann
sum: the level-n sum equals the depth-n wavelet partial integral.
rational_wavelet_tail_bound bounds every wavelet term by one constant,
(i+1) h - 1, whatever the depth, so it certifies the Riemann sums but
cannot drive an engine of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .arith import INF, batch_invert, bernoulli_number, check_prime, vp, vp_int
from .errors import DomainError, PrecisionError
from .padic import Padic, qp
from .polynomials import Poly, RationalFunction

Q = Fraction

Integrand = Union[RationalFunction, Callable[[int], Fraction]]


# -- van der Put basis ---------------------------------------------------------


def vdp_length(k: int, p: int) -> int:
    """l(k): number of base-p digits of k, with l(0) = 0."""
    if k < 0:
        raise DomainError("need k >= 0")
    n = 0
    while k:
        k //= p
        n += 1
    return n


def vdp_data(k: int, p: int) -> tuple[int, int]:
    """(l(k), k with its leading base-p digit removed); (0, 0) at k = 0."""
    check_prime(p)
    l = vdp_length(k, p)
    if l == 0:
        return 0, 0
    return l, k - (k // p ** (l - 1)) * p ** (l - 1)


def wavelet_indicator(k: int, p: int, t: int) -> int:
    """chi_k(t): indicator of the disc k + p^l(k) Z_p."""
    return 1 if (t - k) % p ** vdp_length(k, p) == 0 else 0


@dataclass(frozen=True)
class WaveletExpansion:
    """Coefficients a_k for 0 <= k < p^depth of a function on Z_p."""

    p: int
    depth: int
    coeffs: tuple[Fraction, ...]

    def reconstruct(self, t: int) -> Fraction:
        acc = Q(0)
        for k, a in enumerate(self.coeffs):
            if a and wavelet_indicator(k, self.p, t):
                acc += a
        return acc

    def integral_partial(self) -> Fraction:
        """sum a_k p^-l(k) over the stored range."""
        acc = Q(0)
        for k, a in enumerate(self.coeffs):
            if a:
                acc += a * Q(1, self.p ** vdp_length(k, self.p))
        return acc


def wavelet_coeffs(f: Callable[[int], Fraction], p: int, depth: int) -> WaveletExpansion:
    """Exact coefficients a_0 = f(0), a_k = f(k) - f(k_-) up to k < p^depth."""
    check_prime(p)
    values = [Q(f(k)) for k in range(p ** depth)]
    coeffs = [values[0]]
    for k in range(1, p ** depth):
        _, kminus = vdp_data(k, p)
        coeffs.append(values[k] - values[kminus])
    return WaveletExpansion(p=p, depth=depth, coeffs=tuple(coeffs))


# -- Riemann-sum engine ----------------------------------------------------------


def integral_riemann(f: Integrand, p: int, level: int,
                     precision: Optional[int] = None) -> Fraction | Padic:
    """The level-n Riemann sum p^-n sum_{k < p^n} f(k).

    With precision=None, the exact Fraction sum of any callable f. Otherwise
    f is a RationalFunction whose sum, exact modulo p^precision, is read from
    f.residues at the floor v_floor = vp(content of f) - vp(den_prim(0)),
    den_prim the primitive integer denominator; a summand below that floor
    raises DomainError. Convergence across levels is the caller's concern.
    """
    check_prime(p)
    count = p ** level
    if precision is None:
        total = Q(0)
        for k in range(count):
            total += _eval_integrand(f, k)
        return total / count
    if precision < 1:
        raise DomainError("need precision >= 1")
    if not isinstance(f, RationalFunction):
        raise DomainError("a Riemann sum at a precision needs a rational function")
    if f.num.is_zero():
        return Padic.zero(p, precision)
    scale_n, _ = f.num.content_primitive()
    scale_d, dens = f.den.content_primitive()
    if dens[0] == 0:
        raise DomainError("integrand has a pole at the integer 0")
    v_floor = int(vp(scale_n / scale_d, p) - vp_int(dens[0], p))
    rel = max(precision + level - v_floor, 1)
    try:
        values = f.residues(count, p, v_floor, rel)
    except PrecisionError as exc:
        raise DomainError("integrand has a pole in Z_p "
                          "(denominator valuation varies)") from exc
    return Padic.normalized(p, v_floor - level, sum(values), precision)


def _eval_integrand(f: Integrand, k: int) -> Fraction:
    try:
        return f(k)
    except ZeroDivisionError as exc:
        raise DomainError(f"integrand has a pole at the integer {k}") from exc


# -- Mahler-series engine ----------------------------------------------------------


@dataclass(frozen=True)
class PoleData:
    """One pole t = location of the integrand, with coefficient floors.

    floors[i-1] is a lower bound for vp of the coefficient of
    (t - location)^-i in the partial fraction decomposition.
    """

    location: Fraction
    order: int
    floors: tuple[Fraction | int, ...]

    def height(self, p: int) -> int:
        return check_hurwitz_domain(self.location, p)


def _tail_term_bound(poles: Sequence[PoleData], p: int) -> Callable[[int], Fraction | int]:
    branches = []
    for pd in poles:
        h = pd.height(p)
        for i, fl in enumerate(pd.floors, start=1):
            branches.append((fl + i * h, h))
    if not branches:
        raise DomainError("no pole data")

    def T(m: int):
        return min(base + m * h for base, h in branches)

    return T


def mahler_error_valuation(T: Callable[[int], Fraction | int], p: int, M: int) -> Fraction | int:
    """inf over m > M of T(m) - l(m), for T a min of lines of integer slope >= 1.

    T rises by at least 1 per step while l(m) rises by at most 1, so
    T - l is nondecreasing and the infimum is its value at M + 1.
    """
    return T(M + 1) - vdp_length(M + 1, p)


def _check_mahler_pole(c: Fraction, p: int) -> None:
    """Require |c|_p >= q_p of the pole t = c, naming the pole if not."""
    try:
        check_hurwitz_domain(c, p)
    except DomainError:
        where = "in Z_p" if c == 0 or vp(c, p) >= 0 else f"with |c|_p = {p ** -vp(c, p)}"
        raise DomainError(f"integrand has a pole at t = {c} {where}; the Mahler "
                          f"engine needs |c|_p >= q_p = {qp(p)} at every pole") from None


def integral_mahler(f, p: int, precision: Optional[int] = None,
                    pole_data: Optional[Sequence[PoleData]] = None) -> Fraction | Padic:
    """Volkenborn integral via the Mahler expansion.

    A polynomial sum a_k t^k integrates exactly to the Fraction sum a_k B_k
    (this is B_n(x) for (x+t)^n). For a proper rational function without
    poles in Z_p the result is a Padic correct modulo p^precision, with the
    truncation point chosen from the certified tail bound. pole_data may be
    supplied to avoid recomputing partial fractions (mandatory floors).

    Every other integrand f provides f.residues(count, p, v_floor, rel):
    the values f(a) / p^v_floor mod p^rel for a < count, raising
    PrecisionError when some vp(f(a)) < v_floor and DomainError at a pole.
    A RationalFunction does; so does RnFunction.shifted(x), which needs
    pole_data.
    """
    check_prime(p)
    if isinstance(f, RationalFunction):
        quotient, remainder = f.num.divmod(f.den)
        if remainder.is_zero():
            return _integral_polynomial(quotient)
    if isinstance(f, Poly):
        return _integral_polynomial(f)
    if not isinstance(f, RationalFunction) and pole_data is None:
        raise DomainError("certified integration needs a rational function "
                          "or an integrand with explicit pole data")
    if precision is None:
        raise DomainError("precision is required for integrands with poles")
    if precision < 1:
        raise DomainError("need precision >= 1")

    if pole_data is None:
        poly_part, terms = f.partial_fractions()
        for c in terms:
            _check_mahler_pole(c, p)
        poles = [PoleData(location=c, order=len(alphas),
                          floors=tuple(vp(a, p) for a in alphas))
                 for c, alphas in terms.items()]
        poly_deg = poly_part.degree()
        poly_floor = min((vp(c, p) for c in poly_part.coeffs if c != 0), default=INF)
    else:
        poles = list(pole_data)
        if isinstance(f, RationalFunction):
            deg = f.degree()
            if deg is not None and deg >= 0:
                raise DomainError("pole_data shortcut requires a proper rational function")
        poly_deg = -1
        poly_floor = INF

    T = _tail_term_bound(poles, p)
    v_floor = int(math.floor(min(T(0), poly_floor, 0)))

    # the least M meeting precision: the error valuation rises by at most
    # hmax per step of M, so these jumps never pass it
    hmax = max(pd.height(p) for pd in poles)
    M = max(1, poly_deg + 1)
    while (err := mahler_error_valuation(T, p, M)) < precision:
        M += math.ceil((precision - err) / hmax)

    maxw = vdp_length(M + 1, p) + 1
    rel = precision - v_floor + maxw + 2
    mod = p ** rel

    total = Padic.zero(p, precision + 1)
    row = f.residues(M + 1, p, v_floor, rel)
    for m in range(M + 1):
        c = row[0]
        if c:
            w = vp_int(m + 1, p)
            unit = (m + 1) // p ** w
            contrib = c * pow(unit, -1, mod) % mod
            if m % 2 == 1:
                contrib = (-contrib) % mod
            total = total + Padic.normalized(p, v_floor - w, contrib, v_floor - w + rel)
        # next difference row, in place
        for i in range(len(row) - 1):
            row[i] = (row[i + 1] - row[i]) % mod
        row.pop()
    return total.at_precision(min(total.prec, precision))


def _integral_polynomial(poly: Poly) -> Fraction:
    """Exact integral of a polynomial: Int t^k dt = B_k, so sum a_k B_k."""
    return sum((c * bernoulli_number(k) for k, c in enumerate(poly.coeffs)), Q(0))


def mahler_coefficients(f: Integrand, count: int) -> list[Fraction]:
    """Exact forward differences (Delta^m f)(0) for m < count (test oracle)."""
    row = [Q(_eval_integrand(f, a)) for a in range(count)]
    out = []
    for _ in range(count):
        out.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return out


# -- Bernoulli series of a single pole ----------------------------------------------


def check_hurwitz_domain(x: Fraction, p: int) -> int:
    """Require |x|_p >= q_p; returns h = -vp(x) >= 1 (>= 2 when p = 2)."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    v = vp(x, p)
    need = 2 if p == 2 else 1
    if v > -need:
        raise DomainError(
            f"|x|_p must be at least {qp(p)}: got vp({x}) = {v} at p = {p}")
    return -int(v)


def integral_pole_power(x: Fraction, k: int, p: int, precision: int) -> Padic:
    """Int (x+t)^-k dt over Z_p modulo p^precision, for |x|_p >= q_p and k >= 1.

    Sums binom(-k, j) B_j x^(-k-j) over j < J, the first J with
    (k+J) h - 1 >= precision, where h = -vp(x). Writing 1/x = p^h y with y a
    unit, term j is p^(kh-1) y^k * binom(-k, j) (p B_j) (p^h y)^j. The
    cofactors of p^(kh-1) y^k are p-adic integers, because p B_j is one, so
    summing them modulo p^(precision - kh + 1) makes the result exact modulo
    p^precision.
    """
    check_prime(p)
    if k < 1:
        raise DomainError("need k >= 1")
    if precision < 1:
        raise DomainError("need precision >= 1")
    h = check_hurwitz_domain(x, p)
    x = Fraction(x)
    rel = precision - (k * h - 1)
    if rel < 1:
        return Padic.zero(p, precision)
    mod = p ** rel
    y = x.denominator // p ** h * pow(x.numerator, -1, mod) % mod
    step = p ** h * y % mod
    power, binom = 1, 1  # (p^h y)^j mod p^rel and binom(k+j-1, j)
    terms, dens = [], []
    for j in range(-(-rel // h)):  # every j with j h < rel
        if j < 2 or j % 2 == 0:  # B_j = 0 for odd j >= 3
            b = bernoulli_number(j)
            num, den = b.numerator * p, b.denominator
            if den % p == 0:  # von Staudt-Clausen: p divides den at most once
                num, den = b.numerator, den // p
            terms.append((-1) ** j * binom * num % mod * power)
            dens.append(den)
        power = power * step % mod
        binom = binom * (k + j) // (j + 1)
    total = sum(t * d for t, d in zip(terms, batch_invert(dens, mod)))
    return Padic.normalized(p, k * h - 1, total * pow(y, k, mod), precision)


# -- translation formula ------------------------------------------------------------


@dataclass(frozen=True)
class TranslationReport:
    """Both sides of the translation identity, computed independently."""

    lhs: Fraction | Padic
    rhs: Fraction | Padic
    derivative_sum: Fraction
    modulus_exp: Optional[int]
    agrees: bool


def translate_integral(f: RationalFunction, m: int, p: int,
                       precision: Optional[int] = None) -> TranslationReport:
    """Check integral of f(u+m) = integral of f(u) + sum_{i<m} f'(i).

    The left side integrates the shifted function; the right side adds the
    exact derivative sum to the integral of f. Polynomial integrands
    compare exactly; otherwise both sides are certified mod p^precision.
    """
    if m < 0:
        raise DomainError("need m >= 0")
    fprime = f.derivative()
    dsum = Q(0)
    for i in range(m):
        try:
            dsum += fprime(i)
        except ZeroDivisionError as exc:
            raise DomainError(f"pole at the shift point {i}") from exc
    shifted = f.shift(m)
    if f.is_polynomial():
        lhs = integral_mahler(shifted, p)
        rhs = integral_mahler(f, p) + dsum
        return TranslationReport(lhs=lhs, rhs=rhs, derivative_sum=dsum,
                                 modulus_exp=None, agrees=lhs == rhs)
    if precision is None:
        raise DomainError("precision is required for integrands with poles")
    lhs = integral_mahler(shifted, p, precision)
    base = integral_mahler(f, p, precision)
    rhs = base + Padic.from_fraction(dsum, p, base.prec)
    k = min(lhs.prec, rhs.prec)
    return TranslationReport(lhs=lhs, rhs=rhs, derivative_sum=dsum,
                             modulus_exp=k, agrees=lhs.agrees(rhs, k))


# -- wavelet tail certificates for rational integrands ---------------------------


def rational_wavelet_tail_bound(poles: Sequence[PoleData], p: int,
                                poly_floor: Optional[Fraction] = None) -> Fraction | int:
    """A lower bound for vp(a_k) - l(k) over all k >= 1.

    For a partial fraction term a/(t-c)^i with h = -vp(c): a_k = f(k) - f(k_-)
    and vp(k - k_-) = l(k) - 1 give vp(a_k) - l(k) >= vp(a) + (i+1) h - 1.
    Polynomial parts contribute their coefficient floor minus 1.
    """
    bound = min(fl + (i + 1) * pd.height(p) - 1
                for pd in poles for i, fl in enumerate(pd.floors, start=1))
    if poly_floor is not None:
        bound = min(bound, poly_floor - 1)
    return bound
