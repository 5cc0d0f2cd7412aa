"""p-adic Hurwitz zeta values at integers and L-values via the Hurwitz decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .arith import bernoulli_poly, check_prime, vp, vp_int
from .characters import DirichletCharacter, chi_units
from .cyclotomic import CyclotomicElement, scale_by_value, value_to_padic
from .errors import DomainError
from .padic import (Padic, angle, phi_qp, qp, teichmuller, teichmuller_ext,
                    teichmuller_rational)
from .polynomials import MAX_POWER_DEGREE
from .volkenborn import check_hurwitz_domain, integral_pole_power, pole_power_residues

Q = Fraction

LValue = Union[Fraction, CyclotomicElement, Padic]


@dataclass(frozen=True)
class OmegaSplit:
    """A value of the form omega(base)^exponent * rational, kept unevaluated."""

    p: int
    base: Fraction
    exponent: int
    rational: Fraction

    def padic(self, precision: int) -> Padic:
        """The value modulo p^precision (absolute)."""
        if self.rational == 0:
            return Padic.zero(self.p, precision)
        # omega(base)^exponent has valuation exponent * vp(base)
        rel = (precision - self.exponent * int(vp(self.base, self.p))
               - int(vp(self.rational, self.p)))
        if rel < 1:
            return Padic.zero(self.p, precision)
        w = teichmuller_ext(self.base, self.p, rel) ** self.exponent
        return w.mul_fraction(self.rational)

    def exact(self) -> Optional[Fraction]:
        """Exact rational value when the Teichmuller part is rational."""
        t = teichmuller_rational(self.base, self.p)
        if t is None:
            return None
        return t ** self.exponent * self.rational


def twisted_zeta(i: int, x: Fraction, p: int,
                 precision: Optional[int] = None) -> Fraction | Padic:
    """Z(i, x) = Int (x+t)^(1-i) dt / (i-1), so zeta_p(i, x) = omega(x)^(i-1) Z(i, x).

    For i <= 0 it is the exact B_(1-i)(x)/(i-1), with the Bernoulli index
    capped at MAX_POWER_DEGREE. For i >= 2 it is the Volkenborn integral of
    the pole power (x+t)^(1-i) over i-1, exact modulo p^precision; x must
    then satisfy |x|_p >= q_p.
    """
    if i == 1:
        raise DomainError("Z(i, x) has its pole at i = 1")
    order = i - 1
    if i <= 0:
        if 1 - i > MAX_POWER_DEGREE:
            raise DomainError(f"need i >= {1 - MAX_POWER_DEGREE}: the Bernoulli index "
                              f"1 - i is at most {MAX_POWER_DEGREE}, got {i}")
        return bernoulli_poly(1 - i)(Fraction(x)) / order
    if precision is None:
        raise DomainError("precision is required for i >= 2")
    integral = integral_pole_power(x, order, p, precision + int(vp(Q(order), p)))
    return integral.mul_fraction(Q(1, order))


@dataclass(frozen=True)
class ZetaPosValue:
    """zeta_p(s, x) together with its omega-twisted companion."""

    zeta: Padic
    twisted: Padic  # omega(x)^(1-s) zeta_p(s, x) = integral/(s-1)


def zeta_p_pos(s: int, x: Fraction, p: int, precision: int) -> ZetaPosValue:
    """zeta_p(s, x) for integer s >= 2 via the Volkenborn integral.

    twisted = integral of (x+t)^(1-s) divided by s-1; zeta multiplies back
    the Teichmuller power omega(x)^(s-1), of valuation -(s-1)h with
    h = -vp(x). So twisted is known modulo p^(precision + (s-1)h) and zeta
    modulo p^precision.
    """
    check_prime(p)
    if s < 2:
        raise DomainError("need s >= 2 on the positive branch")
    if precision < 1:
        raise DomainError("need precision >= 1")
    x = Fraction(x)
    order = s - 1
    h = check_hurwitz_domain(x, p)
    twisted = twisted_zeta(s, x, p, precision + order * h)
    omega_pow = teichmuller_ext(x, p, twisted.relative_precision() + 2) ** order
    zeta = omega_pow * twisted
    return ZetaPosValue(zeta=zeta, twisted=twisted)


def zeta_p_nonpos(one_minus_n: int, x: Fraction, p: int) -> OmegaSplit:
    """zeta_p(1-n, x) = -omega(x)^(-n) B_n(x)/n, kept as an exact split.

    The split rests on omega(x+t) = omega(x) for every t in Z_p, so x must
    satisfy |x|_p >= q_p, as on the positive branch.
    """
    check_prime(p)
    if one_minus_n > 0:
        raise DomainError("need an argument <= 0")
    x = Fraction(x)
    check_hurwitz_domain(x, p)
    return OmegaSplit(p=p, base=x, exponent=one_minus_n - 1,
                      rational=twisted_zeta(one_minus_n, x, p))


@dataclass(frozen=True)
class ShiftReport:
    """Both sides of zeta_p(i, x+1) - zeta_p(i, x) = -<x>^(1-i)/x."""

    lhs: OmegaSplit | Padic
    rhs: OmegaSplit | Padic
    agrees: bool
    modulus_exp: Optional[int]
    exact: bool


def zeta_p_shift(i: int, x: Fraction, p: int, precision: Optional[int] = None) -> ShiftReport:
    """Evaluate both sides of the shift identity independently."""
    check_prime(p)
    if i == 1:
        raise DomainError("the shift identity excludes i = 1")
    x = Fraction(x)
    check_hurwitz_domain(x, p)
    if i <= 0:
        n = 1 - i
        bn = bernoulli_poly(n)
        # omega(x+1) = omega(x) on the domain, so the split shares one base
        lhs = OmegaSplit(p=p, base=x, exponent=-n,
                         rational=-(bn(x + 1) - bn(x)) / n)
        rhs = OmegaSplit(p=p, base=x, exponent=-n, rational=-(x ** (n - 1)))
        return ShiftReport(lhs=lhs, rhs=rhs, agrees=lhs.rational == rhs.rational,
                           modulus_exp=None, exact=True)
    if precision is None:
        raise DomainError("precision is required for the positive branch")
    left = zeta_p_pos(i, x + 1, p, precision).zeta - zeta_p_pos(i, x, p, precision).zeta
    rel = precision + max(0, -int(vp(x, p)) * abs(1 - i)) + 4
    rhs = (angle(x, p, rel) ** (1 - i)).mul_fraction(-1 / x)
    k = min(left.prec, rhs.prec)
    return ShiftReport(lhs=left, rhs=rhs, agrees=left.agrees(rhs, k),
                       modulus_exp=k, exact=False)


def reduce_to_unit_interval(x: Fraction, p: int) -> tuple[Fraction, list[tuple[Fraction, int]]]:
    """Shift x into (0, 1] by integers, collecting correction terms.

    Returns (x0, corrections) with zeta_p(i, x) = zeta_p(i, x0)
    + sum over (y, sign) of sign * <y>^(1-i)/y, valid for all i != 1.
    """
    x = Fraction(x)
    check_hurwitz_domain(x, p)
    corrections: list[tuple[Fraction, int]] = []
    while x > 1:
        x -= 1
        corrections.append((x, -1))
    while x <= 0:
        corrections.append((x, 1))
        x += 1
    return x, corrections


# -- Kubota-Leopoldt values through the Hurwitz decomposition ---------------------


def lp_value(i: int, chi: DirichletCharacter, p: int, l: int,
             omega_exp: Optional[int] = None, precision: int = 20) -> LValue:
    """L_p(i, chi * omega^omega_exp) = D^(-i) sum_j chi(j) omega(j)^e Z(i, j/D).

    The sum runs over the p-units j <= D = d' p^m, with d' the prime-to-p
    part of the conductor and m = l_min whatever l is (see _sum_level),
    Z = twisted_zeta and e = omega_exp + i - 1 mod phi(q_p). The default
    twist omega_exp = 1 - i matches the interpolation branch. For i <= 0
    with every omega(j)^e = +-1 the value is exact (a Fraction, or a
    CyclotomicElement for irrational characters). Otherwise the sum is taken
    modulo p^A with A = precision + i m, since vp(D^(-i)) = -i m, and the
    Padic returned is known modulo p^precision. For i >= 2 it is the
    one-entry case of the unit sum behind lp_values.
    """
    check_prime(p)
    if i == 1:
        raise DomainError("L_p is not defined here at i = 1")
    if precision < 1:
        raise DomainError("need precision >= 1")
    if omega_exp is None:
        omega_exp = 1 - i
    D, m = _sum_level(chi, p, l, i >= 2)
    e = (omega_exp + i - 1) % phi_qp(p)
    if i >= 2:
        return _pole_sum(chi, p, D, m, e, {i: precision})[i]
    # omega(j)^e = omega(j^e), which is +-1 exactly when j^e = +-1 mod q_p
    units = [(j, c, teichmuller_rational(pow(j, e, qp(p)), p))
             for j, c in chi_units(chi, D, p)]
    if all(w is not None for _, _, w in units):
        total = Q(0)
        for j, c, w in units:
            total = total + c * (w * twisted_zeta(i, Q(j, D), p))
        out = total * Q(D) ** -i
        if isinstance(out, CyclotomicElement) and out.is_rational():
            return out.rational_value()
        return out
    A = precision + i * m
    acc = Padic.zero(p, A)
    for j, c, w in units:
        z = Padic.from_fraction(twisted_zeta(i, Q(j, D), p), p, A)
        if z.is_zero_at_precision():
            continue
        if w is None:
            z = z * teichmuller(j, p, z.relative_precision()) ** e
        elif w == -1:
            z = -z
        acc = acc + scale_by_value(z, c)
    return acc.mul_fraction(Q(D) ** -i)


def lp_values(chi: DirichletCharacter, p: int, l: int,
              precisions: Mapping[int, int]) -> dict[int, Padic]:
    """L_p(i, chi omega^(1-i)) modulo p^precisions[i], for each requested i >= 2.

    Every value is the lp_value one, read from one sum over the units j
    (see _pole_sum): the twist has e = 0, so chi(j) is the only weight.
    """
    check_prime(p)
    if any(i < 2 for i in precisions):
        raise DomainError("lp_values takes i >= 2")
    if any(N < 1 for N in precisions.values()):
        raise DomainError("need precision >= 1")
    D, m = _sum_level(chi, p, l, True)
    return _pole_sum(chi, p, D, m, 0, precisions)


def _sum_level(chi: DirichletCharacter, p: int, l: int, positive: bool) -> tuple[int, int]:
    """(D, l_min): the D = d' p^l_min every L-value sums at, once l is checked.

    The Hurwitz decomposition holds for every D that is a multiple of the
    conductor and of q_p (Washington, Introduction to Cyclotomic Fields,
    Thm 5.11), and L_p does not depend on which, so the sum runs at the
    least level l_min = max(l0, 1), or max(l0, 2) at p = 2, whatever level l
    it is asked at. l must be at least max(1, l0), and for i >= 2 at p = 2
    at least 2, where the parameters of the linear forms start too.
    """
    l0 = int(vp_int(chi.conductor, p))
    if l < max(1, l0):
        raise DomainError(f"need l >= max(1, l0) = {max(1, l0)}")
    if positive and p == 2 and l < 2:
        raise DomainError("p = 2 needs l >= 2 so that |j/D|_2 >= 4")
    l_min = max(l0, 2 if p == 2 else 1)
    return chi.conductor // p ** l0 * p ** l_min, l_min


def _pole_sum(chi: DirichletCharacter, p: int, D: int, h: int, e: int,
              precisions: Mapping[int, int]) -> dict[int, Padic]:
    """D^(-i) sum_j chi(j) omega(j)^e Z(i, j/D) mod p^precisions[i], for i >= 2.

    Z(i, x) = Int (x+t)^-k dt / k with k = i - 1, and every unit j has
    vp(j/D) = -h, so every integral is p^(kh-1) times the residue that
    pole_power_residues gives, known modulo p^rel_k. One kernel call per
    unit gives every k at once; the weights chi(j) omega(j)^e enter Q_p once
    per unit, and the sums stay integers modulo p^R, R the largest rel_k.
    The integrals are taken modulo p^(A_i + vp(k)), with A_i =
    precisions[i] + i h, so that dividing by k D^i leaves precisions[i].
    """
    kprec = {i - 1: N + i * h + int(vp_int(i - 1, p)) for i, N in precisions.items()}
    R = max((N - (k * h - 1) for k, N in kprec.items()), default=1)
    mod = p ** R
    sums = dict.fromkeys(kprec, 0)
    for j, c in chi_units(chi, D, p):
        weight = value_to_padic(c, p, R).unit  # chi(j) is a root of unity
        w = teichmuller_rational(pow(j, e, qp(p)), p)
        if w is None:
            weight = weight * pow(teichmuller(j, p, R).unit, e, mod) % mod
        elif w == -1:
            weight = -weight
        _, raws = pole_power_residues(Q(j, D), p, kprec)
        for k, raw in raws.items():
            sums[k] = (sums[k] + weight * raw) % mod
    return {k + 1: Padic.normalized(p, k * h - 1, total, kprec[k])
            .mul_fraction(Q(1, k) * Q(D) ** -(k + 1))
            for k, total in sums.items()}
