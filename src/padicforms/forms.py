"""Construction of the rational functions R_n and the integral linear forms they produce.

R_n(t) = n!^s * packedmultinomial(N, n)^Q * binom(Dt + N, N)^Q * (Dt)^(2+delta) / (t)_(n+1)^s

has poles of order s at 0, -1, ..., -n. Its partial fraction coefficients
r_(i,k) are extracted per pole from a truncated power series of
R_n(t) (t+k)^s: a polynomial shift, then each factor's power (negative for
the cofactor (t)_(n+1) / (t+k)) by one series_pow recurrence, never iterated
symbolic differentiation. The coefficients

    rho_i = i * sum_k r_(i,k)                (independent of any argument x)
    rho_(0,x) = -sum_(i,k) sum_(v<k) i r_(i,k) (v+x)^(-i-1)

assemble integral linear forms whose values at p-adic L-values and Hurwitz
zeta values are checked against direct Volkenborn integrals of R_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import (check_prime, factorial_valuation, lcm_upto,
                    multinomial_packed, rising_factorial, vp, vp_int)
from .characters import CharValue, DirichletCharacter, chi_padic_data, chi_units
from .cyclotomic import (CyclotomicElement, PadicEmbedding, assert_integral, euler_phi,
                         scale_by_value, value_to_padic)
from .errors import DegreeError, DomainError
from .hurwitz import check_hurwitz_domain, lp_value, reduce_to_unit_interval
from .lambertw import ell_param
from .padic import Padic, teichmuller_rational
from .polynomials import Poly, series_mul, series_pow, series_trunc
from .volkenborn import PoleData, integral_mahler, integral_pole_power, vdp_length

Q = Fraction


# -- parameters -----------------------------------------------------------------


@dataclass(frozen=True)
class FormParameters:
    """All derived quantities fixing one family R_n.

    delta is the character parity (0 or 1), or -2 in Hurwitz-variant mode
    where the monomial factor disappears and r is pinned to 0.
    """

    p: int
    s: int
    delta: int
    d_prime: int
    l0: int
    r: int
    l: int
    Q: int
    D: int
    epsilon: Optional[Fraction] = None
    ell: Optional[int] = None

    def digits_exp(self, n: int) -> int:
        """m(n) = floor(log_p(d' n)) + 1, the depth of the N(n) construction."""
        return vdp_length(self.d_prime * n, self.p)

    def N(self, n: int) -> int:
        """Least integer >= D n of the form p^l (p^m - 1)."""
        return self.p ** self.l * (self.p ** self.digits_exp(n) - 1)

    def rn_degree(self, n: int) -> int:
        """deg R_n = Q N(n) + 2 + delta - (n+1) s."""
        return self.Q * self.N(n) + 2 + self.delta - (n + 1) * self.s

    @property
    def stride(self) -> int:
        return self.p ** (self.l + self.r)

    def sigma(self, n: int) -> int:
        return self.stride * n - 1

    @property
    def pQD(self) -> int:
        return self.p * self.Q * self.D

    @property
    def parity_ok(self) -> bool:
        return self.s % (self.p - 1) == 0 if self.p > 2 else True

    @property
    def size_ok(self) -> bool:
        return self.s >= self.pQD

    @property
    def domain_ok(self) -> bool:
        """Whether j/D arguments lie in the Hurwitz domain for integrals."""
        return self.l >= (2 if self.p == 2 else 1)

    def hypotheses_hold(self, n: int) -> bool:
        return self.parity_ok and self.size_ok and (n + 1) % self.stride == 0

    def to_json(self) -> dict:
        return {
            "p": self.p, "s": self.s, "delta": self.delta,
            "d_prime": self.d_prime, "l0": self.l0, "r": self.r, "l": self.l,
            "Q": self.Q, "D": self.D,
            "ell": self.ell,
            "parity_ok": self.parity_ok, "size_ok": self.size_ok,
        }


def choose_params(chi: DirichletCharacter, p: int, s: int,
                  epsilon: Fraction | None = None,
                  l: Optional[int] = None) -> FormParameters:
    """Fix (r, l, Q, D) for the L-value family attached to chi at p.

    l defaults to the Lambert-W depth, floored at max(1, l0) and at 2 when
    p = 2 (the integral domain needs |j/D|_2 >= 4). Explicit l overrides
    the default; the size and parity hypotheses are reported as flags on
    the result, not enforced here.
    """
    check_prime(p)
    data = chi_padic_data(chi, p)
    ell = None
    if epsilon is not None:
        ell = ell_param(s, Q(epsilon), data.d_prime, data.r, p)
    if l is None:
        if ell is None:
            raise DomainError("either epsilon or an explicit l is required")
        l = max(ell, 1, data.l0, 2 if p == 2 else 1)
    if l < max(1, data.l0):
        raise DomainError(f"need l >= max(1, l0) = {max(1, data.l0)}")
    return FormParameters(
        p=p, s=s, delta=chi.delta, d_prime=data.d_prime, l0=data.l0,
        r=data.r, l=l, Q=p ** (data.r + l + 1), D=data.d_prime * p ** l,
        epsilon=None if epsilon is None else Q(epsilon), ell=ell)


def hurwitz_params(x: Fraction, p: int, s: int,
                   epsilon: Fraction | None = None,
                   l: Optional[int] = None) -> tuple[FormParameters, int]:
    """Parameters for the Hurwitz-variant family at x = j0/d in (0, 1].

    Returns (parameters, j0). delta = -2 and r = 0; Q = p^(l+1).
    """
    check_prime(p)
    x = Fraction(x)
    if not 0 < x <= 1:
        raise DomainError("reduce x into (0, 1] first")
    check_hurwitz_domain(x, p)
    j0, d = x.numerator, x.denominator
    l0 = int(vp_int(d, p))
    d_prime = d // p ** l0
    ell = None
    if epsilon is not None:
        ell = ell_param(s, Q(epsilon), d_prime, 0, p)
    if l is None:
        if ell is None:
            raise DomainError("either epsilon or an explicit l is required")
        l = max(ell, l0, 2 if p == 2 else 1)
    if l < l0:
        raise DomainError(f"need l >= l0 = {l0}")
    params = FormParameters(
        p=p, s=s, delta=-2, d_prime=d_prime, l0=l0, r=0, l=l,
        Q=p ** (l + 1), D=d_prime * p ** l,
        epsilon=None if epsilon is None else Q(epsilon), ell=ell)
    return params, j0


# -- the rational functions R_n ------------------------------------------------------


class RnFunction:
    """R_n in factored form; the denominator is never expanded."""

    __slots__ = ("params", "n", "N", "prefactor", "binom_poly", "mono_exp")

    def __init__(self, params: FormParameters, n: int):
        if n < 1:
            raise DomainError("need n >= 1")
        N = params.N(n)
        degree = params.rn_degree(n)
        if degree >= -1:
            raise DegreeError(
                f"R_n degree {degree} >= -1; the series at infinity does not decay")
        prefactor = (math.factorial(n) ** params.s
                     * multinomial_packed(N, n) ** params.Q)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "binom_poly", _binomial_shift_poly(params.D, N))
        object.__setattr__(self, "mono_exp", 2 + params.delta)

    def __setattr__(self, name, value):
        raise AttributeError("RnFunction is immutable")

    def degree(self) -> int:
        return self.params.rn_degree(self.n)

    def evaluate(self, t: Fraction) -> Fraction:
        """Exact value of R_n(t); raises at the poles."""
        pr = self.params
        rising = rising_factorial(t, self.n + 1)
        if rising == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        out = Q(self.prefactor) * self.binom_poly(t) ** pr.Q
        if self.mono_exp:
            out *= (pr.D * Q(t)) ** self.mono_exp
        return out / rising ** pr.s

    def shifted(self, x: Fraction):
        """The callable t -> R_n(t + x)."""
        x = Fraction(x)

        def f(a):
            return self.evaluate(x + a)

        return f

    def coeff_floor(self, i: int) -> int:
        """A priori lower bound for vp of every r_(i,k).

        (s-i)! d_n^(s-i) r_(i,k) is an integer for this family (checked by
        the integrality sweeps), so vp(r_(i,k)) is bounded below by
        -vp((s-i)!) - (s-i) vp(d_n). Exact per-coefficient valuations from
        a computed table supersede this bound wherever one is available.
        """
        pr = self.params
        return -(factorial_valuation(pr.s - i, pr.p)
                 + (pr.s - i) * int(vp_int(lcm_upto(self.n), pr.p)))

    def pole_data_shifted(self, x: Fraction,
                          table: Optional["PartialFractionTable"] = None) -> list[PoleData]:
        """Pole data of t -> R_n(t + x) for the Mahler engine.

        With a partial fraction table the floors are the exact coefficient
        valuations; otherwise the integrality bound is used.
        """
        pr = self.params
        if table is not None:
            return [PoleData(location=-(Fraction(x) + k), order=pr.s,
                             floors=tuple(vp(table.r(i, k), pr.p)
                                          for i in range(1, pr.s + 1)))
                    for k in range(self.n + 1)]
        floors = tuple(self.coeff_floor(i) for i in range(1, pr.s + 1))
        return [PoleData(location=-(Fraction(x) + k), order=pr.s, floors=floors)
                for k in range(self.n + 1)]

    def series_at_pole(self, k: int, length: int) -> list[Fraction]:
        """Power series of R_n(t) (t+k)^s in u = t + k, to the given length."""
        pr = self.params
        L = length
        out = series_trunc([Q(self.prefactor)], L)
        shifted_binom = self.binom_poly.shift(-k)
        out = series_mul(out, series_pow(shifted_binom.coeffs, pr.Q, L), L)
        if self.mono_exp:
            mono = Poly([-pr.D * k, pr.D]) ** self.mono_exp
            out = series_mul(out, series_trunc(mono.coeffs, L), L)
        cof = Poly.from_roots([k - j for j in range(self.n + 1) if j != k])
        out = series_mul(out, series_pow(cof.coeffs, -pr.s, L), L)
        return out


def _binomial_shift_poly(D: int, N: int) -> Poly:
    """binom(D t + N, N) as an exact polynomial in t."""
    out = Poly.const(1)
    for v in range(1, N + 1):
        out = out * Poly([Q(v), Q(D)])
    return out.scale(Q(1, math.factorial(N)))


def build_rn(params: FormParameters, n: int) -> RnFunction:
    return RnFunction(params, n)


# -- partial fractions and the rho coefficients -----------------------------------------


@dataclass(frozen=True)
class PartialFractionTable:
    """r_(i,k) for 1 <= i <= s, 0 <= k <= n: R_n = sum r_(i,k)/(t+k)^i."""

    n: int
    s: int
    rows: tuple[tuple[Fraction, ...], ...]  # rows[i-1][k]

    def r(self, i: int, k: int) -> Fraction:
        return self.rows[i - 1][k]

    def residue_sum(self) -> Fraction:
        return sum(self.rows[0], Q(0))

    def reconstruct(self, t: Fraction) -> Fraction:
        acc = Q(0)
        for i in range(1, self.s + 1):
            for k in range(self.n + 1):
                c = self.rows[i - 1][k]
                if c:
                    acc += c / (Q(t) + k) ** i
        return acc

    def max_abs(self) -> Fraction:
        return max(abs(c) for row in self.rows for c in row)


def partial_fractions(rn: RnFunction) -> PartialFractionTable:
    """Extract every r_(i,k) from truncated series expansions at the poles."""
    s = rn.params.s
    cols = []
    for k in range(rn.n + 1):
        series = rn.series_at_pole(k, s)
        cols.append([series[s - i] for i in range(1, s + 1)])
    rows = tuple(tuple(cols[k][i - 1] for k in range(rn.n + 1))
                 for i in range(1, s + 1))
    return PartialFractionTable(n=rn.n, s=s, rows=rows)


def rho_higher(table: PartialFractionTable, i: int) -> Fraction:
    """rho_i = i sum_k r_(i,k); independent of the Hurwitz argument."""
    if not 1 <= i <= table.s:
        raise DomainError(f"need 1 <= i <= {table.s}")
    return i * sum(table.rows[i - 1], Q(0))


def rho_zero(table: PartialFractionTable, x: Fraction) -> Fraction:
    """rho_(0,x) = -sum_(i,k) sum_(v=0..k-1) i r_(i,k) (v+x)^(-i-1)."""
    x = Fraction(x)
    acc = Q(0)
    for v in range(table.n):
        base = v + x
        if base == 0:
            raise DomainError(f"x = {x} hits the pole at v = {v}")
        inv = 1 / base
        power = inv * inv  # (v+x)^(-2) = i=1 term
        for i in range(1, table.s + 1):
            weight = Q(0)
            for k in range(v + 1, table.n + 1):
                weight += table.rows[i - 1][k]
            if weight:
                acc += i * weight * power
            power *= inv
    return -acc


# -- linear forms ------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFormOverK:
    """Integral linear form: coefficients lambda_0..lambda_s over K = Q(chi)."""

    coeffs: tuple[CharValue, ...]
    params: FormParameters
    n: int
    field_m: int

    @property
    def s(self) -> int:
        return len(self.coeffs) - 1

    def height(self) -> Fraction:
        """H_K: maximum absolute norm of the coefficients."""
        deg = euler_phi(self.field_m)
        best = Q(0)
        for c in self.coeffs:
            if isinstance(c, Fraction):
                val = abs(c) ** deg
            else:
                val = abs(c.norm())
            best = max(best, val)
        return best

    def log_height(self) -> float:
        h = self.height()
        return math.log(h.numerator) - math.log(h.denominator)


def form_scale(s: int, n: int) -> int:
    """C = (s-1)! d_n^(s-1), the factor that makes the forms integral."""
    return math.factorial(s - 1) * lcm_upto(n) ** (s - 1)


def lambda_form(params: FormParameters, table: PartialFractionTable,
                chi: DirichletCharacter) -> LinearFormOverK:
    """lambda_0 = C sum_j chi(j) rho_(0,j/D), lambda_i = C D^(i+1) rho_i.

    C = form_scale(s, n). Every coefficient must be an algebraic integer;
    violations raise IntegralityError (an implementation bug, not input).
    """
    pr = params
    C = form_scale(pr.s, table.n)
    lam0: CharValue
    if chi.is_rational_valued():
        lam0 = Q(0)
    else:
        lam0 = CyclotomicElement.zero(chi.field_m)
    for j, c in chi_units(chi, pr.D, pr.p):
        scaled = C * rho_zero(table, Q(j, pr.D))
        assert_integral(scaled, f"lambda_0 term at j = {j}")
        lam0 = lam0 + c * scaled
    assert_integral(lam0, "lambda_0")
    coeffs: list[CharValue] = [lam0]
    for i in range(1, pr.s + 1):
        lam = C * Q(pr.D) ** (i + 1) * rho_higher(table, i)
        assert_integral(lam, f"lambda_{i}")
        coeffs.append(lam)
    return LinearFormOverK(coeffs=tuple(coeffs), params=pr, n=table.n,
                           field_m=chi.field_m)


# -- direct integrals of R_n ----------------------------------------------------------


def integral_rn_shifted(rn: RnFunction, x: Fraction, precision: int,
                        table: Optional[PartialFractionTable] = None) -> Padic:
    """Volkenborn integral of t -> R_n(t + x), certified mod p^precision."""
    return integral_mahler(rn.shifted(x), rn.params.p, precision,
                           pole_data=rn.pole_data_shifted(x, table))


def chi_weighted_integral_sum(rn: RnFunction, chi: DirichletCharacter,
                              precision: int,
                              table: Optional[PartialFractionTable] = None) -> Padic:
    """sum over units j mod D of chi(j) * integral of R_n(t + j/D)."""
    pr = rn.params
    if not pr.domain_ok:
        raise DomainError("l too small for integral evaluation at p = 2")
    embedding = (None if chi.is_rational_valued()
                 else PadicEmbedding.default(pr.p, chi.field_m, precision + 4))
    acc = Padic.zero(pr.p, precision + 2)
    for j, c in chi_units(chi, pr.D, pr.p):
        term = integral_rn_shifted(rn, Q(j, pr.D), precision, table)
        acc = acc + scale_by_value(term, c, embedding)
    return acc.at_precision(min(acc.prec, precision))


# -- valuation prediction ---------------------------------------------------------------


def valuation_formula_rhs(params: FormParameters, n: int,
                          chi: DirichletCharacter) -> int:
    """Predicted vp of sum_j chi(j) * integral of R_n(t + j/D).

    s vp(n!) + Q vp(packed multinomial) + ((n+1)s + 1) l - m(n) + vp(B_(2+delta,chi)).
    """
    pr = params
    p = pr.p
    data = chi_padic_data(chi, p)
    b = data.b_head
    if isinstance(b, CyclotomicElement):
        if not b.is_rational():
            raise DomainError("irrational head Bernoulli: supply an embedding path")
        b = b.rational_value()
    return per_x_valuation_hint(pr, n) + pr.l + int(vp(b, p))


def hurwitz_valuation_rhs(params: FormParameters, n: int) -> int:
    """Predicted vp of sum_j integral of R_n(t + (j0 + d j)/D), delta = -2 mode."""
    return per_x_valuation_hint(params, n) + params.l - params.l0


def per_x_valuation_hint(params: FormParameters, n: int) -> int:
    """Predicted vp of a single integral of R_n(t + j/D), gcd(j, p) = 1."""
    pr = params
    p = pr.p
    return (pr.s * factorial_valuation(n, p)
            + pr.Q * int(vp_int(multinomial_packed(pr.N(n), n), p))
            + (n + 1) * pr.s * pr.l
            - pr.digits_exp(n))


# -- identity checks ---------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Two independently computed sides of a linear-form identity."""

    lhs: Padic
    rhs: Padic
    modulus_exp: int
    observed_valuation: float
    relative_digits: float
    agrees: bool

    def to_json(self) -> dict:
        return {
            "modulus_exp": self.modulus_exp,
            "observed_valuation": (None if self.observed_valuation == math.inf
                                   else int(self.observed_valuation)),
            "relative_digits": (None if self.relative_digits == math.inf
                                else int(self.relative_digits)),
            "agrees": self.agrees,
        }


def _identity_report(lhs: Padic, rhs: Padic) -> IdentityReport:
    k = min(lhs.prec, rhs.prec)
    nu = lhs.valuation()
    rel = k - nu if nu != math.inf else math.inf
    return IdentityReport(lhs=lhs, rhs=rhs, modulus_exp=k,
                          observed_valuation=nu, relative_digits=rel,
                          agrees=lhs.agrees(rhs, k))


def evaluate_form_identity(params: FormParameters, n: int,
                           chi: DirichletCharacter, digits: int = 20,
                           table: Optional[PartialFractionTable] = None,
                           rn: Optional[RnFunction] = None,
                           lhs_cache: Optional[Padic] = None) -> IdentityReport:
    """Check C sum_j chi(j) Int R_n(t+j/D) = Lambda(1, L_p(2), ..., L_p(s+1)).

    The left side integrates R_n directly; the right side goes through the
    partial fraction table, the lambda coefficients, and lp_value. Agreement
    is certified to `digits` significant p-digits beyond the observed
    valuation of the left side.
    """
    pr = params
    rn = rn or build_rn(pr, n)
    table = table or partial_fractions(rn)
    form = lambda_form(pr, table, chi)
    C = form_scale(pr.s, n)
    vC = int(vp(C, pr.p))

    if pr.hypotheses_hold(n):
        target = valuation_formula_rhs(pr, n, chi) + vC + digits + 4
    else:
        target = per_x_valuation_hint(pr, n) + vC + digits + 8

    for attempt in range(4):
        lhs_sum = lhs_cache if (lhs_cache is not None
                                and lhs_cache.prec >= target - vC) else None
        if lhs_sum is None:
            lhs_sum = chi_weighted_integral_sum(rn, chi, target - vC, table=table)
        lhs = lhs_sum.mul_fraction(C).at_precision(
            min(lhs_sum.prec + vC, target))
        if not lhs.is_zero_at_precision():
            needed = int(lhs.valuation()) + digits + 2
            if lhs.prec >= needed:
                break
            target = needed
        else:
            target *= 2
        lhs_cache = None
    rhs = _rhs_from_form(form, chi, target)
    return _identity_report(lhs, rhs.at_precision(min(rhs.prec, lhs.prec)))


def _rhs_from_form(form: LinearFormOverK, chi: DirichletCharacter,
                   target: int) -> Padic:
    """lambda_0 + sum_i lambda_i L_p(i+1, chi omega^-i); lambda_i is rational for i >= 1."""
    pr = form.params
    p = pr.p
    acc = value_to_padic(form.coeffs[0], p, target)
    for i, lam in enumerate(form.coeffs[1:], start=1):
        if lam == 0:
            continue
        need = max(2, target - int(vp(lam, p)))
        value = lp_value(i + 1, chi, p, pr.l, omega_exp=-i, precision=need)
        acc = acc + value.mul_fraction(lam)
    return acc


# -- Hurwitz-variant forms -----------------------------------------------------------------


@dataclass(frozen=True)
class HurwitzFormReport:
    """Tilde linear form in Hurwitz zeta values, plus its identity check."""

    params: FormParameters
    n: int
    j0: int
    x_reduced: Fraction
    corrections: tuple[tuple[Fraction, int], ...]
    coeffs_rational: tuple[Fraction, ...]  # lambda_i / omega(j0)^(-i)
    omega_rational: Optional[Fraction]     # omega(j0) when rational, else None
    identity: IdentityReport


def hurwitz_variant_form(p: int, x: Fraction, s: int,
                         epsilon: Fraction | None = None, n: int = 1,
                         l: Optional[int] = None, digits: int = 20) -> HurwitzFormReport:
    """Linear form in Hurwitz zeta values at x, with its integral identity.

    x is first shifted into (0, 1] (corrections recorded); the form lives
    at x0 = j0/d. Sums run over the p^(l-l0) translates (j0 + d j)/D. The
    identity is verified in the exact form

        C sum_j Int R_n(t + (j0+dj)/D)
            = tilde_lambda_0 + sum_i C rho_i P^(i+1) (1/i) Int (x0+t)^(-i),

    whose coefficients agree with tilde_lambda_i = C rho_i omega(j0)^(-i) D^i
    after the Teichmuller factor of x0 is folded back in.
    """
    x = Fraction(x)
    check_hurwitz_domain(x, p)
    x0, corrections = reduce_to_unit_interval(x, p)
    params, j0 = hurwitz_params(x0, p, s, epsilon, l)
    pr = params
    rn = build_rn(pr, n)
    table = partial_fractions(rn)
    C = form_scale(pr.s, n)
    vC = int(vp(C, p))
    d = x0.denominator
    P = p ** (pr.l - pr.l0)

    # reported coefficients: rational parts of tilde lambda_i
    coeffs = [Q(0)]
    lam0 = Q(0)
    for j in range(P):
        arg = Q(j0 + d * j, pr.D)
        scaled = C * rho_zero(table, arg)
        assert_integral(scaled, f"tilde lambda_0 term at j = {j}")
        lam0 += scaled
    coeffs[0] = lam0
    for i in range(1, pr.s + 1):
        lam = C * rho_higher(table, i) * Q(pr.D) ** i
        assert_integral(lam, f"tilde lambda_{i}")
        coeffs.append(lam)

    if pr.parity_ok and (n + 1) % pr.stride == 0:
        target = hurwitz_valuation_rhs(pr, n) + vC + digits + 4
    else:
        target = per_x_valuation_hint(pr, n) + vC + digits + 8

    acc = Padic.zero(p, target + 2)
    for j in range(P):
        arg = Q(j0 + d * j, pr.D)
        acc = acc + integral_rn_shifted(rn, arg, target - vC, table)
    lhs = acc.mul_fraction(C).at_precision(min(acc.prec + vC, target))

    rhs = Padic.from_fraction(lam0, p, target)
    for i in range(1, pr.s + 1):
        rho = rho_higher(table, i)
        if rho == 0:
            continue
        w = C * rho * Q(P) ** (i + 1) / i
        v_w = int(vp(w, p))
        need = max(2, target - v_w)
        integral = integral_pole_power(x0, i, p, need)
        rhs = rhs + integral.mul_fraction(w)

    report = _identity_report(lhs, rhs.at_precision(min(rhs.prec, lhs.prec)))
    return HurwitzFormReport(
        params=pr, n=n, j0=j0, x_reduced=x0, corrections=tuple(corrections),
        coeffs_rational=tuple(coeffs),
        omega_rational=teichmuller_rational(Q(j0), p),
        identity=report)
