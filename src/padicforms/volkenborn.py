"""Volkenborn integration: Riemann sums, a certified Mahler engine, and
Bernoulli sums for polynomials and single poles.

The integral of f over Z_p is the limit of p^-n sum_{k < p^n} f(k). Three
engines compute it here:

* integral_riemann: the level-n partial sum (diagnostic; its error is
  certified only through the constant wavelet tail bound), read from the
  integrand's residues method at the floor vp(content) - vp(den_prim(0)).
* integral_mahler: the general path for rational functions without poles
  in Z_p. A polynomial sum a_k t^k integrates exactly to sum a_k B_k
  (Int t^k dt = B_k, with B_1 = -1/2). Otherwise it reads f(0), ..., f(M)
  mod p^rel with exact valuations (the integrand's residues method). The
  Mahler sum sum_(m<=M) (-1)^m (Delta^m f)(0)/(m+1) is sum_a (-1)^a f(a) V_a,
  V_a = sum_(m=a..M) C(m, a)/(m+1), and V_a + V_(a+1) = C(M+1, a+1)/(a+1)
  with V_M = 1/(M+1), so one backward recurrence sums it in O(M) steps,
  where the difference triangle took O(M^2). It certifies the truncation
  error from the pole structure: for a partial-fraction term a/(t - c)^i with
  h = -vp(c) >= 1, the m-th Mahler coefficient has valuation at least
  vp(a) + (m + i) h. With T(m) the least of these bounds, T rises by at
  least 1 per step and l(m) by at most 1, so the tail beyond M has
  valuation at least T(M+1) - l(M+1); M is the least value for which
  that meets the precision.
* integral_pole_powers: the single pole (x+t)^-k, the integrand of every
  Hurwitz zeta and L-value at a positive integer, for every requested k at
  once. It sums the classical series Int (x+t)^-k dt = sum_j binom(-k, j)
  B_j x^(-k-j) (Washington, Introduction to Cyclotomic Fields, Thm 5.11):
  one series of J = ceil(R/h) terms, R = max_k rel_k, serves every k, and
  all k <= kmax cost kmax passes of J additions (pole_power_residues).

The level-n Riemann sum equals the depth-n partial integral of the van der
Put (wavelet) expansion. rational_wavelet_tail_bound bounds every wavelet
term by one constant, (i+1) h - 1, whatever the depth, so it certifies the
Riemann sums but cannot drive an engine of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, Optional, Sequence

from .arith import (INF, batch_invert, bernoulli_number, check_prime, digits_base_p, lcm_upto,
                    split, unit_residue, vp, vp_int)
from .errors import DomainError, PrecisionError
from .padic import Padic, qp, vp_qp
from .polynomials import Poly, RationalFunction

Q = Fraction


# -- van der Put basis ---------------------------------------------------------


def vdp_length(k: int, p: int) -> int:
    """l(k): number of base-p digits of k, with l(0) = 0."""
    return len(digits_base_p(k, p))


# -- Riemann-sum engine ----------------------------------------------------------


def integral_riemann(f: RationalFunction, p: int, level: int, precision: int) -> Padic:
    """The level-n Riemann sum p^-n sum_{k < p^n} f(k), exact modulo p^precision.

    The sum is read from f.residues at the floor v_floor = vp(content of f)
    - vp(den_prim(0)), den_prim the primitive integer denominator; a summand
    below that floor raises DomainError. Convergence across levels is the
    caller's concern.
    """
    check_prime(p)
    if precision < 1:
        raise DomainError("need precision >= 1")
    if not isinstance(f, RationalFunction):
        raise DomainError("a Riemann sum needs a rational function")
    if f.num.is_zero():
        return Padic.zero(p, precision)
    count = p ** level
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


# -- Mahler-series engine ----------------------------------------------------------


@dataclass(frozen=True)
class PoleData:
    """One pole t = location of the integrand, with coefficient floors.

    floors[i-1] is a lower bound for vp of the coefficient of
    (t - location)^-i in the partial fraction decomposition, so the pole
    has order len(floors).
    """

    location: Fraction
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

    The sum is sum_a (-1)^a f(a) V_a over a <= M, V_a = sum_(m=a..M)
    C(m, a)/(m+1), in O(M) steps: with L = lcm(1..M+1), the integers L V_a
    follow L V_a = L C(M+1, a+1)/(a+1) - L V_(a+1) down from L V_M = L/(M+1),
    and the sum of (-1)^a f(a) L V_a is divided once by the unit of L.

    Every other integrand f provides f.residues(count, p, v_floor, rel):
    the values f(a) / p^v_floor mod p^rel for a < count, raising
    PrecisionError when some vp(f(a)) < v_floor and DomainError at a pole.
    A RationalFunction does; so does forms.ShiftedRn, the weighted sum of
    shifts of R_n, which needs pole_data.
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
        poles = [PoleData(location=c, floors=tuple(vp(a, p) for a in alphas))
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

    # L = p^maxw L_unit, maxw = max vp(a + 1) over a <= M, so each p^maxw V_a is
    # p-integral: over p^(v_floor - maxw) the sum is known mod p^rel, the value mod p^precision
    L = lcm_upto(M + 1)
    maxw, L_unit = split(L, p)
    rel = precision - v_floor + maxw
    mod = p ** rel
    row = f.residues(M + 1, p, v_floor, rel)
    total, weight, term = 0, 0, L // (M + 1)  # term = L C(M+1, a+1)/(a+1)
    for a in range(M, -1, -1):
        weight = term - weight  # L V_a
        total += -row[a] * weight if a % 2 else row[a] * weight
        term = term * (a + 1) ** 2 // (a * (M + 1 - a)) if a else 0
    total = total % mod * pow(L_unit, -1, mod)
    return Padic.normalized(p, v_floor - maxw, total, precision)


def _integral_polynomial(poly: Poly) -> Fraction:
    """Exact integral of a polynomial: Int t^k dt = B_k, so sum a_k B_k."""
    return sum((c * bernoulli_number(k) for k, c in enumerate(poly.coeffs)), Q(0))


# -- Bernoulli series of a single pole ----------------------------------------------


def check_hurwitz_domain(x: Fraction, p: int) -> int:
    """Require |x|_p >= q_p; returns h = -vp(x) >= 1 (>= 2 when p = 2)."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    v = vp(x, p)
    if v > -vp_qp(p):
        raise DomainError(
            f"|x|_p must be at least {qp(p)}: got vp({x}) = {v} at p = {p}")
    return -int(v)


def integral_pole_powers(x: Fraction, p: int,
                         precisions: Mapping[int, int]) -> dict[int, Padic]:
    """Int (x+t)^-k dt over Z_p modulo p^precisions[k], for each requested k >= 1.

    Needs |x|_p >= q_p; every value comes from one series (pole_power_residues).
    """
    h, raws = pole_power_residues(x, p, precisions)
    return {k: Padic.normalized(p, k * h - 1, raw, precisions[k]) for k, raw in raws.items()}


def pole_power_residues(x: Fraction, p: int,
                        precisions: Mapping[int, int]) -> tuple[int, dict[int, int]]:
    """(h, raw) with Int (x+t)^-k dt = p^(kh-1) raw[k] mod p^precisions[k].

    h = -vp(x), and raw[k] is known modulo p^rel_k, rel_k = precisions[k]
    - kh + 1 (raw[k] = 0 when rel_k < 1). With 1/x = p^h y, the integral
    sum_j binom(-k, j) B_j x^(-k-j) is p^(kh-1) y^k sum_j binom(k+j-1, j) a_j,
    a_j = (-1)^j (p B_j) (p^h y)^j. Each a_j is a p-adic integer divisible by
    p^(jh), so the terms with jh >= rel_k vanish mod p^rel_k, and one series
    a_j, jh < R = max_k rel_k, taken mod p^R, serves every k. The p B_j come
    from a memo per p (_scaled_bernoulli), so their denominators are not
    inverted again on every call.

    k enters only through the binomial, so the k-th sum is entry 0 of the
    k-th iterated suffix sum of a. The requested k are taken in increasing
    order; up to each but the last, the suffix sums advance one pass per
    step, cut to the terms and the modulus that the k still to come need.
    The last k is read off the c-th sums S in one weighted sum,
    sum_j binom(k-c-1+j, j) S_j, so a lone k costs one sum however large it is.
    """
    check_prime(p)
    h = check_hurwitz_domain(x, p)
    raws, wanted, need = {}, [], []
    for k in sorted(precisions):
        precision = precisions[k]
        if k < 1:
            raise DomainError("need k >= 1")
        if precision < 1:
            raise DomainError("need precision >= 1")
        raws[k] = 0
        if precision > k * h - 1:
            wanted.append(k)
            need.append(precision - k * h + 1)
    if not wanted:
        return h, raws
    for m in range(len(need) - 2, -1, -1):  # need[m]: the largest rel_k of wanted[m:]
        need[m] = max(need[m], need[m + 1])
    R = need[0]
    mod = p ** R
    x = Fraction(x)
    y = unit_residue(x.denominator, x.numerator, p, R)[1]
    step = p ** h * y % mod
    J = -(-R // h)  # every j with j h < R
    last = wanted[-1] - wanted[-2] if len(wanted) > 1 else wanted[-1]
    # a_j up to a multiple of p^R: the first pass, or the last sum, reduces them
    scaled = _scaled_bernoulli(p, R, J)
    a = [0] * J
    power, step2 = 1, step * step % mod
    for j in range(0, J, 2):  # the even j; B_j = 0 at the odd j >= 3
        a[j] = scaled[j] % mod * power
        power = power * step2 % mod
    if J > 1:
        a[1] = -scaled[1] % mod * step
    weights, binom = [], 1  # binom(last-1+j, j), the last k's weights
    for j in range(J):
        weights.append(binom % mod)
        binom = binom * (last + j) // (j + 1)
    c = 0  # a holds the c-th iterated suffix sum
    for k, rel in zip(wanted, need):
        if rel < R:
            R, mod = rel, p ** rel
            del a[-(-R // h):]
        if k == wanted[-1]:
            break
        for _ in range(k - c):
            acc = 0
            for j in range(len(a) - 1, -1, -1):
                a[j] = acc = (acc + a[j]) % mod
        c = k
        raws[k] = a[0] * pow(y, k, mod) % mod
    raws[k] = sum(map(mul, weights, a)) * pow(y, k, mod) % mod
    return h, raws


# p -> (R, [p B_j mod p^R for j < J]) at the deepest R and longest J asked
# so far; a memo of a pure map, since the residues modulo p^r, r <= R, are
# these reduced
_SCALED_BERNOULLI: dict[int, tuple[int, list[int]]] = {}


def _scaled_bernoulli(p: int, R: int, J: int) -> list[int]:
    """p B_j for j < J at least, modulo p^R or a higher power of p.

    Each p B_j is a p-adic integer (von Staudt-Clausen), so its denominator
    is inverted modulo p^R, once per p and depth for every j.
    """
    depth, residues = _SCALED_BERNOULLI.get(p, (0, []))
    if depth < R or len(residues) < J:
        depth, count = max(depth, R), max(len(residues), J)
        mod = p ** depth
        nums, dens = [], []
        bernoulli_number(count - 1)  # the memo grows once, not once per doubling
        for j in range(count):
            b = bernoulli_number(j)
            v, den = split(b.denominator, p)  # p divides den at most once
            nums.append(b.numerator * p ** (1 - v))
            dens.append(den)
        residues = [n * d % mod for n, d in zip(nums, batch_invert(dens, mod))]
        _SCALED_BERNOULLI[p] = depth, residues
    return residues


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
