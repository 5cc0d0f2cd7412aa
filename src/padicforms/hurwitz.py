"""p-adic Hurwitz zeta values at integers and L-values via the Hurwitz decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Union

from .arith import bernoulli_poly, check_prime, split, unit_residue, vp, vp_int
from .characters import CharValue, DirichletCharacter, chi_units
from .cyclotomic import CyclotomicElement, value_to_padic
from .errors import DomainError
from .padic import (Padic, phi_qp, qp, teichmuller, teichmuller_ext, teichmuller_rational,
                    vp_qp)
from .polynomials import MAX_POWER_DEGREE
from .volkenborn import check_hurwitz_domain, integral_pole_powers, pole_power_residues

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
    integral = integral_pole_powers(x, p, {order: precision + int(vp(Q(order), p))})[order]
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
    omega_pow = teichmuller_ext(x, p, twisted.relative_precision()) ** order
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
    Padic returned is known modulo p^precision. For i <= 0 that is one
    integer sum: with F = min_j vp(Z_j), the weights of unit_weights times
    Z_j / p^F = p^(v_j - F) u_j, with (v_j, u_j) from arith.unit_residue,
    modulo p^(A-F). For i >= 2 it is the one-entry case of the unit sum
    behind lp_values.
    """
    check_prime(p)
    if i == 1:
        raise DomainError("L_p is not defined here at i = 1")
    if precision < 1:
        raise DomainError("need precision >= 1")
    if omega_exp is None:
        omega_exp = 1 - i
    D, m = _sum_level(chi, p, l)
    e = (omega_exp + i - 1) % phi_qp(p)
    if i >= 2:
        return _pole_sum(chi, p, D, m, e, {i: precision})[i]
    units = list(chi_units(chi, D, p))
    zetas = [twisted_zeta(i, Q(j, D), p) for j, _ in units]
    # omega(j)^e = omega(j^e), which is +-1 exactly when j^e = +-1 mod q_p
    signs = [teichmuller_rational(pow(j, e, qp(p)), p) for j, _ in units]
    if None not in signs:
        total = sum((c * (w * z) for (_, c), w, z in zip(units, signs, zetas)), Q(0))
        out = total * Q(D) ** -i
        if isinstance(out, CyclotomicElement) and out.is_rational():
            return out.rational_value()
        return out
    A = precision + i * m
    F = min((int(vp(z, p)) for z in zetas if z), default=A)
    R = max(A - F, 1)
    total = 0
    for (_, w), z in zip(unit_weights(units, p, e, R), zetas):
        if z:
            v, u = unit_residue(z.numerator, z.denominator, p, R)
            total += w * u * p ** (v - F)
    return Padic.normalized(p, F, total, A).mul_fraction(Q(D) ** -i)


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
    D, m = _sum_level(chi, p, l)
    return _pole_sum(chi, p, D, m, 0, precisions)


def _sum_level(chi: DirichletCharacter, p: int, l: int) -> tuple[int, int]:
    """(D, l_min): the D = d' p^l_min every L-value sums at, once l is checked.

    The Hurwitz decomposition holds for every D that is a multiple of the
    conductor and of q_p (Washington, Introduction to Cyclotomic Fields,
    Thm 5.11), and L_p does not depend on which, so the sum runs at the
    least level l_min = max(l0, 1), or max(l0, 2) at p = 2, whatever level l
    it is asked at. l must be at least max(1, l0).
    """
    l0, d_prime = split(chi.conductor, p)
    if l < max(1, l0):
        raise DomainError(f"need l >= max(1, l0) = {max(1, l0)}")
    l_min = max(l0, vp_qp(p))
    return d_prime * p ** l_min, l_min


def unit_weights(units: Iterable[tuple[int, CharValue]], p: int, e: int,
                 R: int) -> Iterator[tuple[int, int]]:
    """(j, chi(j) omega(j)^e mod p^R) for each (j, chi(j)) of units.

    chi(j), a root of unity, is taken into Q_p by the embedding of K;
    omega(j)^e is read exactly when it is +-1. Both sides of a linear-form
    identity weight their units here, and a chi(j) that is not a p-adic
    unit raises DomainError.
    """
    mod = p ** R
    for j, c in units:
        image = value_to_padic(c, p, R)
        if image.val != 0:
            raise DomainError(f"the weight {c} at j = {j} is not a p-adic unit")
        weight = image.unit
        w = teichmuller_rational(pow(j, e, qp(p)), p)
        if w is None:
            weight = weight * pow(teichmuller(j, p, R).unit, e, mod)
        elif w == -1:
            weight = -weight
        yield j, weight % mod


def _pole_sum(chi: DirichletCharacter, p: int, D: int, h: int, e: int,
              precisions: Mapping[int, int]) -> dict[int, Padic]:
    """D^(-i) sum_j chi(j) omega(j)^e Z(i, j/D) mod p^precisions[i], for i >= 2.

    Z(i, x) = Int (x+t)^-k dt / k with k = i - 1, and every unit j has
    vp(j/D) = -h, so every integral is p^(kh-1) times the residue that
    pole_power_residues gives, known modulo p^rel_k. One kernel call per
    unit gives every k at once; the weights (unit_weights) enter Q_p once
    per unit, and the sums stay integers modulo p^R, R the largest rel_k.
    The integrals are taken modulo p^(A_i + vp(k)), with A_i =
    precisions[i] + i h, so that dividing by k D^i leaves precisions[i].
    """
    kprec = {i - 1: N + i * h + int(vp_int(i - 1, p)) for i, N in precisions.items()}
    R = max((N - (k * h - 1) for k, N in kprec.items()), default=1)
    mod = p ** R
    sums = dict.fromkeys(kprec, 0)
    for j, weight in unit_weights(chi_units(chi, D, p), p, e, R):
        _, raws = pole_power_residues(Q(j, D), p, kprec)
        for k, raw in raws.items():
            sums[k] = (sums[k] + weight * raw) % mod
    return {k + 1: Padic.normalized(p, k * h - 1, total, kprec[k])
            .mul_fraction(Q(1, k) * Q(D) ** -(k + 1))
            for k, total in sums.items()}
