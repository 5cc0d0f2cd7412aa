"""p-adic Hurwitz zeta values at integers and L-values via the Hurwitz decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .arith import bernoulli_poly, check_prime, vp
from .characters import CharValue, DirichletCharacter, chi_padic_data, chi_units
from .cyclotomic import CyclotomicElement, PadicEmbedding, scale_by_value, value_to_padic
from .errors import DomainError
from .padic import Padic, angle, phi_qp, teichmuller, teichmuller_ext
from .volkenborn import check_hurwitz_domain, integral_pole_power

Q = Fraction

LValue = Union[Fraction, CyclotomicElement, Padic]


@dataclass(frozen=True)
class OmegaSplit:
    """A value of the form omega(base)^exponent * rational, kept unevaluated."""

    p: int
    base: Fraction
    exponent: int
    rational: Fraction

    def padic(self, rel_prec: int) -> Padic:
        w = teichmuller_ext(self.base, self.p, rel_prec)
        out = w ** self.exponent
        if self.rational == 0:
            return Padic.zero(self.p, out.prec)
        return out.mul_fraction(self.rational)

    def exact(self) -> Optional[Fraction]:
        """Exact rational value when the Teichmuller part is rational."""
        from .padic import teichmuller_rational

        t = teichmuller_rational(self.base, self.p)
        if t is None:
            return None
        return t ** self.exponent * self.rational


@dataclass(frozen=True)
class ZetaPosValue:
    """zeta_p(s, x) together with its omega-twisted companion."""

    zeta: Padic
    twisted: Padic  # omega(x)^(1-s) zeta_p(s, x) = integral/(s-1)


def zeta_p_pos(s: int, x: Fraction, p: int, precision: int) -> ZetaPosValue:
    """zeta_p(s, x) for integer s >= 2 via the Volkenborn integral.

    twisted = integral of (x+t)^(1-s) divided by s-1; zeta multiplies back
    the Teichmuller power omega(x)^(s-1). Both carry >= precision p-digits
    (absolute for twisted, relative accounting for the valuation of zeta).
    """
    check_prime(p)
    if s < 2:
        raise DomainError("need s >= 2 on the positive branch")
    if precision < 1:
        raise DomainError("need precision >= 1")
    x = Fraction(x)
    order = s - 1
    guard = int(vp(Q(order), p))
    integral = integral_pole_power(x, order, p, precision + guard)
    twisted = integral.mul_fraction(Q(1, order))
    omega_pow = teichmuller_ext(x, p, twisted.relative_precision() + 2) ** order
    zeta = omega_pow * twisted
    return ZetaPosValue(zeta=zeta, twisted=twisted)


def zeta_p_nonpos(one_minus_n: int, x: Fraction, p: int) -> OmegaSplit:
    """zeta_p(1-n, x) = -omega(x)^(-n) B_n(x)/n, kept as an exact split."""
    check_prime(p)
    if one_minus_n > 0:
        raise DomainError("need an argument <= 0")
    x = Fraction(x)
    if x == 0:
        raise DomainError("x must be nonzero")
    n = 1 - one_minus_n
    bn = bernoulli_poly(n)(x)
    return OmegaSplit(p=p, base=x, exponent=-n, rational=-bn / n)


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


def _omega_power_exact(j: int, e: int, p: int) -> Optional[int]:
    """omega(j)^e as +-1 when that power is rational, else None."""
    e %= phi_qp(p)
    if e == 0:
        return 1
    if p == 2:
        return 1 if j % 4 == 1 else -1
    r = pow(j, e, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    return None


def lp_value(i: int, chi: DirichletCharacter, p: int, l: int,
             omega_exp: Optional[int] = None, precision: int = 20) -> LValue:
    """L_p(i, chi * omega^omega_exp) from Hurwitz zeta values at j/D, D = d' p^l.

    The default twist omega_exp = 1 - i matches the interpolation branch.
    For i <= 0 the Teichmuller factors cancel against <D>^(1-i) and the
    value is exact (a Fraction, or a CyclotomicElement for irrational
    characters) whenever the residual omega powers are rational; otherwise
    a Padic at the requested precision is returned. For i >= 2 the value
    comes from certified Volkenborn integrals.
    """
    check_prime(p)
    if i == 1:
        raise DomainError("L_p is not defined here at i = 1")
    if precision < 1:
        raise DomainError("need precision >= 1")
    if omega_exp is None:
        omega_exp = 1 - i
    data = chi_padic_data(chi, p)
    if l < max(1, data.l0):
        raise DomainError(f"need l >= max(1, l0) = {max(1, data.l0)}")
    if i >= 2 and p == 2 and l < 2:
        raise DomainError("p = 2 needs l >= 2 so that |j/D|_2 >= 4")
    D = data.d_prime * p ** l

    if i <= 0:
        return _lp_nonpositive(i, chi, p, D, omega_exp, precision)
    return _lp_positive(i, chi, p, D, omega_exp, precision)


def _lp_nonpositive(i, chi, p, D, omega_exp, precision) -> LValue:
    n = 1 - i
    e_res = (omega_exp - n) % phi_qp(p)
    bn = bernoulli_poly(n)
    rational_total: CharValue = Q(0)
    padic_terms: list[tuple[CharValue, Fraction, int]] = []
    all_exact = True
    for j, c in chi_units(chi, D, p):
        b = bn(Q(j, D))
        w = _omega_power_exact(j, e_res, p)
        if w is None:
            all_exact = False
            padic_terms.append((c, b, j))
        else:
            rational_total = rational_total + c * (w * b)
    scale = -(Q(D) ** (n - 1)) / n
    if all_exact:
        out = rational_total * scale
        if isinstance(out, CyclotomicElement) and out.is_rational():
            return out.rational_value()
        return out
    # mixed path: assemble p-adically at the requested precision
    guard = precision + 6
    embedding = (None if chi.is_rational_valued()
                 else PadicEmbedding.default(p, chi.field_m, guard))
    acc = Padic.zero(p, guard)
    acc = acc + value_to_padic(rational_total, p, guard, embedding)
    for c, b, j in padic_terms:
        w = teichmuller(Q(j), p, guard) ** e_res
        term = w.mul_fraction(b)
        acc = acc + term * value_to_padic(c, p, guard, embedding)
    return acc.mul_fraction(scale).at_precision(
        min(precision, acc.prec + int(vp(scale, p))))


def _lp_positive(i, chi, p, D, omega_exp, precision) -> Padic:
    e_res = (omega_exp + i - 1) % phi_qp(p)
    order = i - 1
    v_shift = -i * int(vp(Q(D), p))  # valuation of D^-i
    target = precision - v_shift + int(vp(Q(order), p)) + 4
    # scale_by_value embeds c two digits beyond a term's relative precision,
    # which is at most target
    embedding = (None if chi.is_rational_valued()
                 else PadicEmbedding.default(p, chi.field_m, target + 2))
    acc = Padic.zero(p, precision - v_shift + 4)
    for j, c in chi_units(chi, D, p):
        x = Q(j, D)
        integral = integral_pole_power(x, order, p, target)
        term = integral.mul_fraction(Q(1, order))
        w = _omega_power_exact(j, e_res, p)
        if w is None:
            wp = teichmuller(Q(j), p, term.relative_precision() + 2) ** e_res
            term = term * wp
        elif w == -1:
            term = -term
        acc = acc + scale_by_value(term, c, embedding)
    out = acc.mul_fraction(Q(1, D) ** i)
    return out.at_precision(min(out.prec, precision))
