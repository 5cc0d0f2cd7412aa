"""Construction of the rational functions R_n and the integral linear forms they produce.

R_n(t) = n!^s * packedmultinomial(N, n)^Q * binom(Dt + N, N)^Q * (Dt)^(2+delta) / (t)_(n+1)^s

has poles of order s at 0, -1, ..., -n. Its partial fraction coefficients
r_(i,k) are read off the truncated power series of R_n(t) (t+k)^s at each
pole, in integers: every linear factor of R_n at a pole is a prefix of the
products prod_(m<=M) (y + m), which one sweep gives for every pole at once,
and the series of their product of powers comes from one integer recurrence
per pole (polynomials.power_numerators). The table keeps every r_(i,k) as an
integer over one common denominator. The coefficients

    rho_i = i * sum_k r_(i,k)                (independent of any argument x)
    rho_(0,x) = -sum_(i,k) sum_(v<k) i r_(i,k) (v+x)^(-i-1)

assemble integral linear forms in p-adic L-values and Hurwitz zeta values.
They too are summed in integers, and a Fraction is formed only where a value
is returned: once per rho_i and lambda_i, and once per v in rho_(0,x). Each
form is checked against the left side of its identity, one Volkenborn
integral of sum_j w_j R_n(t + j/D) (ShiftedRn), whose unit weights enter
Z/p^rel as the right side's do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .arith import (batch_invert, factorial_valuation, lcm_upto, multinomial_packed,
                    rising_factorial, split, unit_residue, vp, vp_int)
from .characters import CharValue, DirichletCharacter, chi_padic_data, chi_units
from .cyclotomic import abs_norm, assert_integral, value_to_padic
from .errors import DegreeError, DomainError, PrecisionError
from .heights import log_fraction
from .hurwitz import check_hurwitz_domain, lp_values, reduce_to_unit_interval, unit_weights
from .lambertw import ell_param
from .padic import Padic, teichmuller_rational, vp_qp
from .polynomials import power_numerators, series_mul
from .volkenborn import PoleData, integral_mahler, integral_pole_powers, vdp_length

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
    ell: Optional[int] = None

    @property
    def Q(self) -> int:
        return self.p ** (self.r + self.l + 1)

    @property
    def D(self) -> int:
        return self.d_prime * self.p ** self.l

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
        return self.l >= vp_qp(self.p)

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
    """Parameters for the L-value family attached to chi at p."""
    data = chi_padic_data(chi, p)
    return form_params(p, s, chi.delta, data.d_prime, data.l0, data.r, epsilon, l)


def hurwitz_params(x: Fraction, p: int, s: int,
                   epsilon: Fraction | None = None,
                   l: Optional[int] = None) -> tuple[FormParameters, int]:
    """Parameters for the Hurwitz-variant family at x = j0/d in (0, 1].

    Returns (parameters, j0). delta = -2 and r = 0, so Q = p^(l+1); d' and
    l0 are read off d = d' p^l0, and l0 >= 1 in the Hurwitz domain.
    """
    x = Fraction(x)
    if not 0 < x <= 1:
        raise DomainError("reduce x into (0, 1] first")
    check_hurwitz_domain(x, p)
    l0, d_prime = split(x.denominator, p)
    return form_params(p, s, -2, d_prime, l0, 0, epsilon, l), x.numerator


def form_params(p: int, s: int, delta: int, d_prime: int, l0: int, r: int,
                epsilon: Fraction | None = None,
                l: Optional[int] = None) -> FormParameters:
    """Fix the depth l of the family with these data at p.

    l defaults to the Lambert-W depth, floored at max(1, l0) and at 2 when
    p = 2 (the integral domain needs |j/D|_2 >= 4). Explicit l overrides
    the default; the size and parity hypotheses are reported as flags on
    the result, not enforced here.
    """
    ell = None
    if epsilon is not None:
        ell = ell_param(s, Q(epsilon), d_prime, r, p)
    if l is None:
        if ell is None:
            raise DomainError("either epsilon or an explicit l is required")
        l = max(ell, l0, vp_qp(p))
    if l < max(1, l0):
        raise DomainError(f"need l >= max(1, l0) = {max(1, l0)}")
    return FormParameters(p=p, s=s, delta=delta, d_prime=d_prime, l0=l0, r=r, l=l,
                          ell=ell)


# -- the rational functions R_n ------------------------------------------------------


class RnFunction:
    """R_n in factored form; the denominator is never expanded."""

    __slots__ = ("params", "n", "N", "prefactor", "mono_exp")

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
        binom = rising_factorial(pr.D * Q(t) + 1, self.N) / math.factorial(self.N)
        out = Q(self.prefactor) * binom ** pr.Q
        if self.mono_exp:
            out *= (pr.D * Q(t)) ** self.mono_exp
        return out / rising ** pr.s


@dataclass(frozen=True)
class ShiftedRn:
    """t -> sum_j w_j R_n(t + j/D), evaluated from the integer factors of R_n.

    With x = j/D = u/w and m = u + w t for an integer t,

        R_n(x + t) = c prod_(v=1..N) (D m + v w)^Q (D m)^(2+delta) / prod_(i=0..n) (m + i w)^s,

    where c = n!^s packed^Q / N!^Q * w^((n+1)s - NQ - (2+delta)). Every
    factor is a small integer. The weights w_j are p-adic units, so the
    sum has the poles of every shift, each with the floors of R_n.
    """

    rn: RnFunction
    weights: tuple[tuple[int, CharValue], ...]

    def residues(self, count: int, p: int, v_floor: int, rel: int) -> list[int]:
        """sum_j w_j R_n(j/D + a) / p^v_floor mod p^rel for 0 <= a < count.

        Each w_j enters Z/p^rel through hurwitz.unit_weights, the rule of
        the right side, which refuses a weight that is not a p-adic unit.
        The bottoms of every shift are inverted in one batch.
        """
        mod, D = p ** rel, self.rn.params.D
        tops, bottoms = [], []
        for j, weight in unit_weights(self.weights, p, 0, rel):
            shift_tops, shift_bottoms = self._shift_fractions(Q(j, D), weight, count, p,
                                                              v_floor, rel)
            tops += shift_tops
            bottoms += shift_bottoms
        values = [t * b for t, b in zip(tops, batch_invert(bottoms, mod))]
        return [sum(values[a::count]) % mod for a in range(count)]

    def _shift_fractions(self, x: Fraction, weight: int, count: int, p: int, v_floor: int,
                         rel: int) -> tuple[list[int], list[int]]:
        """(tops, bottoms): weight R_n(x + a) / p^v_floor = top / bottom mod p^rel
        for 0 <= a < count, every bottom a unit.

        The n + 1 denominators and the N binomial factors are multiplied
        exactly, and each product, and D m, is split once into a power of p
        and a unit. Raises DomainError at a pole and PrecisionError when
        some vp(R_n(x + a)) < v_floor.
        """
        rn, pr = self.rn, self.rn.params
        u, w = x.numerator, x.denominator
        D, N, q, s, mono = pr.D, rn.N, pr.Q, pr.s, rn.mono_exp
        mod = p ** rel
        e = (rn.n + 1) * s - N * q - mono
        v_c, c_unit = unit_residue(weight * rn.prefactor * w ** max(e, 0),
                                   math.factorial(N) ** q * w ** max(-e, 0), p, rel)
        tops, bottoms = [], []
        for a in range(count):
            m = u + w * a
            den = math.prod(range(m, m + (rn.n + 1) * w, w))
            if den == 0:
                raise DomainError(f"integrand has a pole at the integer {a}")
            binom = math.prod(range(D * m + w, D * m + (N + 1) * w, w))
            if binom == 0:  # the factor D m + k w vanishes
                tops.append(0)
                bottoms.append(1)
                continue
            (v_bin, u_bin), (v_mono, u_mono) = split(binom, p), split(D * m, p)
            v_den, u_den = split(den, p)
            v = v_c + q * v_bin + mono * v_mono - s * v_den
            if v < v_floor:
                raise PrecisionError("supplied coefficient floors are violated")
            top = c_unit * pow(u_bin, q, mod) * u_mono ** mono
            if v > v_floor:
                top *= p ** (v - v_floor)
            tops.append(top % mod)
            bottoms.append(pow(u_den, s, mod))
        return tops, bottoms


def build_rn(params: FormParameters, n: int) -> RnFunction:
    return RnFunction(params, n)


# -- partial fractions and the rho coefficients -----------------------------------------


@dataclass(frozen=True)
class PartialFractionTable:
    """r_(i,k) for 1 <= i <= s, 0 <= k <= n: R_n = sum r_(i,k)/(t+k)^i.

    The table keeps integers: r_(i,k) = nums[i-1][k] / den, with one common
    denominator den > 0. rows, the same coefficients as Fractions, is built
    on first read and kept; so are the floors at each p and the weighted
    integral sums of weighted_integral_sum.
    """

    n: int
    s: int
    nums: tuple[tuple[int, ...], ...]  # nums[i-1][k]
    den: int
    _floors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:  # rows[i-1][k]
        return tuple(tuple(Q(c, self.den) for c in row) for row in self.nums)

    def floors(self, p: int) -> tuple[tuple[int | float, ...], ...]:
        """vp(r_(i,k)) for i = 1..s, one tuple per pole k; computed once per p."""
        if p not in self._floors:
            v_den = vp_int(self.den, p)
            self._floors[p] = tuple(tuple(vp_int(c, p) - v_den for c in col)
                                    for col in zip(*self.nums))
        return self._floors[p]

    def max_abs(self) -> Fraction:
        return Q(max(abs(c) for row in self.nums for c in row), self.den)


def partial_fractions(rn: RnFunction) -> PartialFractionTable:
    """Every r_(i,k), read off the series of R_n(t) (t+k)^s at each pole.

    At the pole -k put u = t + k and x = D u, and write f_M(y) and g_M(y) for
    the products of (y + m) and of (y - m) over m = 1..M, so that
    g_M(y) = (-1)^M f_M(-y). Then R_n(t) (t+k)^s is prefactor/N!^Q times

        x^z (x - Dk)^(2+delta) B(x)^Q cof(u)^(-s),
        B = f_(N-Dk) g_(Dk-1),  cof = f_(n-k) g_k,

    where z = Q for k >= 1 (the factor Dt + Dk = x of binom(Dt + N, N)),
    and z = 0 and g_(-1) = 1 at k = 0. One sweep of f_M, truncated at length
    s, serves every pole; r_(i,k) is the coefficient of u^(s-i).

    Every root of cof divides d_n, so the u^(z+j) coefficient is
    scale D^(z+2+delta) h[j] / (cof(0)^s d_n^j) with scale = prefactor/N!^Q
    and h an integer series, and the table keeps r_(i,k) over the one
    denominator scale.den n!^s d_n^(s-1). h, L = s - z terms long, comes from
    one polynomials.power_numerators recurrence for the whole product
    B(Du)^Q (u - k)^(2+delta) cof(u)^(-s); at k = 0 the monomial is u^(2+delta),
    a shift.
    """
    pr, n, N = rn.params, rn.n, rn.N
    s, D, q, mono = pr.s, pr.D, pr.Q, rn.mono_exp
    f = _prefix_products({M for k in range(n + 1)
                          for M in (N - D * k, max(D * k - 1, 0), n - k, k)}, s)

    def g(M: int) -> list[int]:
        return [(-1) ** (M + j) * c for j, c in enumerate(f[M])]

    scale = Q(rn.prefactor, math.factorial(N) ** q)
    dn, nfact = lcm_upto(n), math.factorial(n)
    cols = []
    for k in range(n + 1):
        z = q if k else 0
        L = s - z
        binom = series_mul(f[N - D * k], g(max(D * k - 1, 0)), L)
        cof = series_mul(f[n - k], g(k), L)
        factors = [([c * D ** j for j, c in enumerate(binom)], q), (cof, -s)]  # B(Du)
        if k and mono:  # (Du - Dk)^mono = D^mono (u - k)^mono
            factors.append(([-k, 1], mono))
        shift = 0 if k else mono  # (Du)^mono = D^mono u^mono
        h = [0] * shift + [c * dn ** shift for c in power_numerators(factors, dn, L - shift)]
        top = scale.numerator * D ** (z + mono) * (nfact // cof[0]) ** s
        col = [0] * s
        for j, c in enumerate(h):
            col[s - 1 - z - j] = top * c * dn ** (s - 1 - j)
        cols.append(col)
    return PartialFractionTable(n=n, s=s, nums=tuple(zip(*cols)),
                                den=scale.denominator * nfact ** s * dn ** (s - 1))


def _prefix_products(wanted: set[int], L: int) -> dict[int, list[int]]:
    """The coefficients of f_M(y) = prod_(m=1..M) (y + m) to length L, for each M in wanted."""
    f = [1] + [0] * (L - 1)
    out = {0: list(f)}
    for m in range(1, max(wanted) + 1):
        for j in range(min(m, L - 1), 0, -1):
            f[j] = m * f[j] + f[j - 1]
        f[0] *= m
        if m in wanted:
            out[m] = list(f)
    return out


def rho_higher(table: PartialFractionTable, i: int) -> Fraction:
    """rho_i = i sum_k r_(i,k); independent of the Hurwitz argument."""
    if not 1 <= i <= table.s:
        raise DomainError(f"need 1 <= i <= {table.s}")
    return Q(i * sum(table.nums[i - 1]), table.den)


def rho_zero(table: PartialFractionTable, x: Fraction) -> Fraction:
    """rho_(0,x) = -sum_(i,k) sum_(v=0..k-1) i r_(i,k) (v+x)^(-i-1).

    With x = u/w, b = v w + u and W_i = sum_(k>v) nums[i-1][k], the terms at
    one v sum to w^2 T / (den b^(s+1)) with T = sum_i i W_i w^(i-1) b^(s-i),
    an integer that one Horner pass over i gives; w^2/den is applied once.
    """
    x = Fraction(x)
    u, w, s = x.numerator, x.denominator, table.s
    w_pow = [w ** i for i in range(s)]
    acc = Q(0)
    weights = [0] * s  # weights[i-1] = sum_(k=v+1..n) nums[i-1][k]
    for v in range(table.n - 1, -1, -1):
        b = v * w + u
        if b == 0:
            raise DomainError(f"x = {x} hits the pole at v = {v}")
        T = 0
        for i, row in enumerate(table.nums, start=1):
            weights[i - 1] += row[v + 1]
            T = T * b + i * weights[i - 1] * w_pow[i - 1]
        if T:
            acc += Q(T, b ** (s + 1))
    return -acc * (w * w) / table.den


# -- the two families of linear forms -----------------------------------------------


@dataclass(frozen=True)
class FormFamily:
    """One family of linear forms in R_n at one n, and what sets it apart.

    With weights w_j on the arguments j/D and C = form_scale(s, n), the form
    is lambda_0 = C sum_j w_j rho_(0,j/D), lambda_i = C D^(i+shift) rho_i,
    and its identity reads C sum_j w_j Int R_n(t + j/D) = lambda_0
    + sum_i lambda_i f_i V_i with f_i = factor(i); values({i: N_i}) gives
    every requested V_i modulo p^N_i at once.
    predicted is the expected vp of the weighted integral sum, or None
    outside the hypotheses that make it exact.
    rn, table and form are each built on first read and kept; given hands
    in an R_n and a table already built, either of which may be None.
    """

    params: FormParameters
    n: int
    weights: tuple[tuple[int, CharValue], ...]
    field_m: int
    shift: int
    predicted: Optional[int]
    factor: Callable[[int], Fraction]
    values: Callable[[Mapping[int, int]], dict[int, Padic]]
    given: tuple = field(default=(None, None), repr=False, compare=False)

    @cached_property
    def rn(self) -> RnFunction:
        return self.given[0] or build_rn(self.params, self.n)

    @cached_property
    def table(self) -> PartialFractionTable:
        return self.given[1] or partial_fractions(self.rn)

    @cached_property
    def form(self) -> LinearFormOverK:
        return family_form(self)


def lvalue_family(params: FormParameters, chi: DirichletCharacter, n: int,
                  given: tuple = (None, None)) -> FormFamily:
    """chi(j) on the units j mod D; V_i = L_p(i+1, chi omega^-i) and f_i = 1."""
    pr = params
    return FormFamily(
        params=pr, n=n, weights=tuple(chi_units(chi, pr.D, pr.p)), field_m=chi.field_m,
        shift=1,
        predicted=valuation_formula_rhs(pr, n) if n >= 1 and pr.hypotheses_hold(n) else None,
        factor=lambda i: Q(1),
        values=lambda precisions: {
            i - 1: v for i, v in lp_values(
                chi, pr.p, pr.l, {i + 1: N for i, N in precisions.items()}).items()},
        given=given)


def hurwitz_family(params: FormParameters, x0: Fraction, n: int) -> FormFamily:
    """Weight 1 on the P = p^(l-l0) numerators j = j0 mod d, for x0 = j0/d.

    V_i = Int (x0+t)^(-i) and f_i = P/(i d^i), so that lambda_i f_i =
    C rho_i P^(i+1)/i. The predicted valuation exceeds the single-integral
    hint by l - l0; it needs the parity and stride hypotheses only.
    """
    pr = params
    d = x0.denominator
    P = pr.D // d
    return FormFamily(
        params=pr, n=n, weights=tuple((j, Q(1)) for j in range(x0.numerator, pr.D + 1, d)),
        field_m=1, shift=0,
        predicted=(per_x_valuation_hint(pr, n) + pr.l - pr.l0
                   if n >= 1 and pr.parity_ok and (n + 1) % pr.stride == 0 else None),
        factor=lambda i: Q(P, i * d ** i),
        values=lambda precisions: integral_pole_powers(x0, pr.p, precisions))


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
        return max(abs_norm(c, self.field_m) for c in self.coeffs)

    def log_height(self) -> float:
        return log_fraction(self.height())


def form_scale(s: int, n: int) -> int:
    """C = (s-1)! d_n^(s-1), the factor that makes the forms integral."""
    return math.factorial(s - 1) * lcm_upto(n) ** (s - 1)


def family_form(family: FormFamily) -> LinearFormOverK:
    """The family's form: lambda_0 = C sum_j w_j rho_(0,j/D), lambda_i = C D^(i+shift) rho_i.

    C = form_scale(s, n). The forms are integral by one lemma, asserted here
    for every table: C rho_(0,j/D) and (s-i)! d_n^(s-i) rho_i are integers.
    The second implies lambda_i is, since (s-i)! d_n^(s-i) divides C; it is
    checked on the table's integers, as den | (s-i)! d_n^(s-i) i sum_k nums.
    Violations raise IntegralityError (an implementation bug, not input).
    """
    pr, table = family.params, family.table
    C = form_scale(pr.s, table.n)
    dn = lcm_upto(table.n)
    lam0: CharValue = Q(0)
    for j, w in family.weights:
        scaled = C * rho_zero(table, Q(j, pr.D))
        assert_integral(scaled, f"lambda_0 term at j = {j}")
        lam0 = lam0 + w * scaled
    assert_integral(lam0, "lambda_0")
    coeffs: list[CharValue] = [lam0]
    scale = C * pr.s * dn  # s! d_n^s, divided down to (s-i)! d_n^(s-i)
    D_pow = pr.D ** family.shift
    for i, row in enumerate(table.nums, start=1):
        scale //= (pr.s - i + 1) * dn
        D_pow *= pr.D
        rho = i * sum(row)  # rho_i = rho / den
        if scale * rho % table.den:
            assert_integral(Q(scale * rho, table.den),
                            f"rho_{i} lemma: (s-{i})! d_n^(s-{i}) rho_{i}")
        coeffs.append(Q(C * rho // table.den * D_pow))
    return LinearFormOverK(coeffs=tuple(coeffs), params=pr, n=table.n,
                           field_m=family.field_m)


def lambda_form(params: FormParameters, table: PartialFractionTable,
                chi: DirichletCharacter) -> LinearFormOverK:
    """The L-value form: lambda_0 = C sum_j chi(j) rho_(0,j/D), lambda_i = C D^(i+1) rho_i."""
    return lvalue_family(params, chi, table.n, (None, table)).form


# -- direct integrals of R_n ----------------------------------------------------------


def weighted_integral_sum(rn: RnFunction, weights: tuple[tuple[int, CharValue], ...],
                          precision: int, table: PartialFractionTable) -> Padic:
    """sum_j w_j * integral of R_n(t + j/D), certified mod p^precision.

    One Mahler integral of ShiftedRn: its poles -(j/D + k) are those of
    every shift, with the floors vp(r_(i,k)) read once per table. The
    table keeps each sum at the deepest precision asked so far and
    answers a shallower request by truncation.
    """
    pr = rn.params
    if not pr.domain_ok:
        raise DomainError("l too small for integral evaluation at p = 2")
    kept = table._sums.get((pr.p, weights))
    if kept is None or kept.prec < precision:
        poles = [PoleData(location=-(Q(j, pr.D) + k), floors=fl)
                 for j, _ in weights for k, fl in enumerate(table.floors(pr.p))]
        kept = integral_mahler(ShiftedRn(rn, weights), pr.p, precision, pole_data=poles)
        table._sums[(pr.p, weights)] = kept
    return kept.at_precision(precision)


def chi_weighted_integral_sum(family: FormFamily, precision: int) -> Padic:
    """sum_j w_j * integral of R_n(t + j/D) over the family's weights: for
    an L-value family, chi(j) on the units j mod D."""
    return weighted_integral_sum(family.rn, family.weights, precision, family.table)


# -- valuation prediction ---------------------------------------------------------------


def valuation_formula_rhs(params: FormParameters, n: int) -> int:
    """Predicted vp of sum_j chi(j) * integral of R_n(t + j/D).

    s vp(n!) + Q vp(packed multinomial) + ((n+1)s + 1) l - m(n) + vp(B_(2+delta,chi)),
    the last read as params.r - 1 (chi_padic_data).
    """
    return per_x_valuation_hint(params, n) + params.l + params.r - 1


# the most vp(S) rose above per_x_valuation_hint over 1,104 identity shapes
# (p in {2, 3}, both families, s <= 89, n <= 3; reached at p = 2, s = 59,
# n = 2, quadratic:4); form_identity starts there when nothing is predicted
HINT_SPREAD = 8


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
    observed_valuation: int
    relative_digits: int
    agrees: bool

    def to_json(self) -> dict:
        return {"modulus_exp": self.modulus_exp, "observed_valuation": self.observed_valuation,
                "relative_digits": self.relative_digits, "agrees": self.agrees}


def form_identity(family: FormFamily, digits: int = 20) -> IdentityReport:
    """Check C sum_j w_j Int R_n(t+j/D) = lambda_0 + sum_i lambda_i f_i V_i.

    The left side integrates R_n directly; the right side goes through the
    partial fraction table and the family's values V_i. Agreement is
    certified to `digits` significant p-digits beyond the valuation of the
    left side: S = sum_j w_j Int R_n(t+j/D) is taken modulo p^(start + digits),
    start the family's prediction of vp(S) (exact under its hypotheses) or
    else the single-integral hint + HINT_SPREAD, and once more, modulo
    p^(vp(S) + digits), only if that left fewer than `digits` digits.
    """
    pr, n, form = family.params, family.n, family.form
    p = pr.p
    start = (family.predicted if family.predicted is not None
             else per_x_valuation_hint(pr, n) + HINT_SPREAD)
    S = weighted_integral_sum(family.rn, family.weights, start + digits, family.table)
    if S.is_zero_at_precision():
        raise PrecisionError(f"the left side vanishes modulo p^{S.prec}, p = {p}")
    if S.relative_precision() < digits:
        S = weighted_integral_sum(family.rn, family.weights, S.val + digits, family.table)
    lhs = S.mul_fraction(form_scale(pr.s, n))
    target = lhs.prec

    weights = {i: lam * family.factor(i)
               for i, lam in enumerate(form.coeffs[1:], start=1) if lam != 0}
    values = family.values({i: max(1, target - int(vp(w, p))) for i, w in weights.items()})
    rhs = value_to_padic(form.coeffs[0], p, target)
    for i, w in weights.items():
        rhs = rhs + values[i].mul_fraction(w)
    return IdentityReport(lhs=lhs, rhs=rhs.at_precision(target), modulus_exp=target,
                          observed_valuation=lhs.val,
                          relative_digits=target - lhs.val,
                          agrees=lhs.agrees(rhs, target))


def evaluate_form_identity(params: FormParameters, n: int,
                           chi: DirichletCharacter, digits: int = 20,
                           table: Optional[PartialFractionTable] = None,
                           rn: Optional[RnFunction] = None) -> IdentityReport:
    """Check C sum_j chi(j) Int R_n(t+j/D) = Lambda(1, L_p(2), ..., L_p(s+1))."""
    return form_identity(lvalue_family(params, chi, n, (rn, table)), digits)


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

    x is first shifted into (0, 1] (corrections recorded); the form is the
    hurwitz_family form at x0 = j0/d. Its coefficients agree with
    tilde_lambda_i = C rho_i omega(j0)^(-i) D^i once the Teichmuller factor
    of x0 is folded back in.
    """
    x0, corrections = reduce_to_unit_interval(x, p)
    params, j0 = hurwitz_params(x0, p, s, epsilon, l)
    family = hurwitz_family(params, x0, n)
    return HurwitzFormReport(
        params=params, n=n, j0=j0, x_reduced=x0, corrections=tuple(corrections),
        coeffs_rational=family.form.coeffs,
        omega_rational=teichmuller_rational(Q(j0), p),
        identity=form_identity(family, digits))
