"""Executable checks: congruences, the exact valuation identity, growth bounds, rate fits."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .arith import binom_padic_data, vp
from .characters import DirichletCharacter, p_units
from .errors import DomainError, PrecisionError
from .forms import (FormFamily, FormParameters, PartialFractionTable, RnFunction,
                    chi_weighted_integral_sum, choose_params, form_scale, lvalue_family,
                    rho_higher, rho_zero, valuation_formula_rhs, weighted_integral_sum)
from .heights import log_fraction
from .lambertw import decide_ge
from .padic import Padic

Q = Fraction


@dataclass(frozen=True)
class CheckReport:
    """One executed check: expected vs observed plus a verdict."""

    name: str
    params: dict
    expected: str
    observed: str
    verdict: bool
    runtime: float
    detail: dict = field(default_factory=dict)

    def to_json(self, include_runtime: bool = False) -> dict:
        out = {
            "check": self.name,
            "params": self.params,
            "expected": self.expected,
            "observed": self.observed,
            "verdict": "pass" if self.verdict else "fail",
        }
        if self.detail:
            out["detail"] = self.detail
        if include_runtime:
            out["runtime_s"] = round(self.runtime, 3)
        return out


def _report(name, params, expected, observed, verdict, t0, detail=None) -> CheckReport:
    return CheckReport(name=name, params=params, expected=str(expected),
                       observed=str(observed), verdict=bool(verdict),
                       runtime=time.monotonic() - t0, detail=detail or {})


# -- the mod-p binomial congruence ----------------------------------------------------


def characteristic_Xjn(params: FormParameters, n: int, j: int, x: int) -> int:
    """X_(j,n)(x): 1 iff x = -(d')^(-1) floor(j / p^l) mod p^m(n)."""
    pr = params
    mod = pr.p ** pr.digits_exp(n)
    target = (-pow(pr.d_prime, -1, mod) * (j // pr.p ** pr.l)) % mod
    return 1 if x % mod == target else 0


def check_chi_congruence(params: FormParameters, n: int, j: int,
                         xs: Sequence[int]) -> CheckReport:
    """binom(N(n) + D x + j, N(n)) = X_(j,n)(x) mod p on the given integers x."""
    t0 = time.monotonic()
    pr = params
    if j < 0:
        raise DomainError("need j >= 0")
    N = pr.N(n)
    failures = []
    for x in xs:
        lhs = binom_padic_data(N + pr.D * x + j, N, pr.p)[1]  # Lucas' theorem
        rhs = characteristic_Xjn(params, n, j, x)
        if lhs != rhs % pr.p:
            failures.append((x, lhs, rhs))
    return _report("chi-congruence",
                   {"p": pr.p, "l": pr.l, "d_prime": pr.d_prime, "n": n, "j": j,
                    "x_count": len(list(xs))},
                   "binomial = indicator mod p at every x",
                   "all match" if not failures else f"mismatches at {failures[:3]}",
                   not failures, t0)


def _require_parity_and_stride(pr: FormParameters, n: int) -> None:
    """Refuse s outside (p-1) | s and n outside p^(l+r) | n + 1."""
    if not pr.parity_ok:
        raise DomainError("(p-1) must divide s")
    if (n + 1) % pr.stride != 0:
        raise DomainError(f"p^(l+r) = {pr.stride} must divide n+1")


# -- the f_j integral congruence -------------------------------------------------------


def check_fj_integral(family: FormFamily, j: int) -> CheckReport:
    """integral of f_j = j^(2+delta) p^(-m) mod p^(-m+l+r), at the family's n.

    f_j(t) = binom(N+Dt+j, N)^Q (Dt+j)^(2+delta) / prod_i (D(t+i)+j)^s,
    which is R_n(t + j/D) divided by n!^s mp^Q D^(s(n+1)).
    """
    t0 = time.monotonic()
    pr, n = family.params, family.n
    _require_parity_and_stride(pr, n)
    if math.gcd(j, pr.p) != 1:
        raise DomainError("j must be prime to p")
    rn = family.rn
    scale = Q(rn.prefactor * pr.D ** (pr.s * (n + 1)))
    v_scale = int(vp(scale, pr.p))
    m = pr.digits_exp(n)
    modulus = -m + pr.l + pr.r
    target = modulus + 6
    integral = weighted_integral_sum(rn, ((j, Q(1)),), target + v_scale, family.table)
    fj_integral = integral.mul_fraction(1 / scale)
    expected = Q(j) ** (2 + pr.delta) * Q(1, pr.p ** m)
    diff = fj_integral - Padic.from_fraction(expected, pr.p, fj_integral.prec)
    ok = diff.is_zero_at_precision() or diff.valuation() >= modulus
    return _report("fj-integral",
                   {"p": pr.p, "l": pr.l, "r": pr.r, "s": pr.s, "n": n, "j": j},
                   f"congruent to j^(2+delta) p^-{m} mod p^{modulus}",
                   f"difference valuation {diff.valuation()}",
                   ok, t0,
                   {"modulus_exp": modulus})


# -- the exact valuation identity -------------------------------------------------------


def check_valuation_formula(params: FormParameters, n: int,
                            chi: DirichletCharacter,
                            rn: Optional[RnFunction] = None,
                            table: Optional[PartialFractionTable] = None) -> CheckReport:
    """vp of sum_j chi(j) Int R_n(t + j/D) equals the closed formula exactly.

    One sum modulo p^(predicted + 1) decides: a nonzero sum has its
    valuation read exactly, and a vanishing one fails as ">= predicted + 1".
    """
    t0 = time.monotonic()
    pr = params
    _require_parity_and_stride(pr, n)
    if not pr.size_ok:
        raise DomainError(f"s = {pr.s} below p Q D = {pr.pQD}")
    family = lvalue_family(pr, chi, n, (rn, table))
    family.rn  # R_n refuses n < 1 before the formula reads n
    predicted = valuation_formula_rhs(pr, n)
    S = chi_weighted_integral_sum(family, predicted + 1)
    observed = f">= {S.prec}" if S.is_zero_at_precision() else S.val
    return _report("valuation-formula",
                   {"p": pr.p, "s": pr.s, "l": pr.l, "n": n,
                    "chi": getattr(chi, "label", "") or f"mod {chi.modulus}"},
                   predicted, observed, observed == predicted, t0)


# -- the Archimedean growth bound ---------------------------------------------------------


def growth_bound(params: FormParameters, n: int) -> int:
    """(pD)^(pDQn) 2^(sn) (1 + pDn)^Q D^(3s+3) n^3, as an exact integer."""
    pr = params
    return ((pr.p * pr.D) ** (pr.p * pr.D * pr.Q * n)
            * 2 ** (pr.s * n)
            * (1 + pr.p * pr.D * n) ** pr.Q
            * pr.D ** (3 * pr.s + 3)
            * n ** 3)


# Each rate is one expression over ln: math.log gives the floats of the growth
# report, and the certified ln of decide_ge the Intervals of the Lambert check.
def tau_p(params: FormParameters, ln=math.log):
    pr = params
    return pr.s * ln(pr.p) * (pr.l + Q(1, pr.p - 1))


def asymptotic_rate(params: FormParameters, ln=math.log):
    pr = params
    return pr.s * ln(2) + pr.pQD * ln(pr.p * pr.D)


def tau_infinity(params: FormParameters, ln=math.log):
    return asymptotic_rate(params, ln) + params.s


def growth_bound_check(family: FormFamily) -> CheckReport:
    """Every |r_(i,k)| of the family's table sits below the explicit
    finite-n bound (exact comparison)."""
    t0 = time.monotonic()
    pr, n, table = family.params, family.n, family.table
    bound = growth_bound(pr, n)
    worst = table.max_abs()
    ok = worst <= bound

    rho_max = max((abs(rho_higher(table, i)) for i in range(1, pr.s + 1)), default=Q(0))
    for j in p_units(pr.D, pr.p):
        rho_max = max(rho_max, abs(rho_zero(table, Q(j, pr.D))))
    detail = {
        "log_max_rho_over_n": (log_fraction(rho_max) / n) if rho_max else None,
        "asymptotic_rate": asymptotic_rate(pr),
        "tau_p": tau_p(pr),
        "tau_infinity": tau_infinity(pr),
    }
    return _report("growth-bound",
                   {"p": pr.p, "s": pr.s, "l": pr.l, "n": n},
                   "max |r_(i,k)| within the explicit bound",
                   "holds" if ok else "violated",
                   ok, t0, detail)


# -- the Lambert-W rate inequality ---------------------------------------------------------


def lambert_inequality_check(chi: DirichletCharacter, p: int, s: int,
                             epsilon: Fraction) -> CheckReport:
    """Rational-interval test of tau_p/tau_inf >= (1-eps) log s / (2 (1+log 2)).

    tau_inf is taken over Q: a field degree [K:Q] would scale both sides
    alike and leave the verdict unchanged.
    The depth l is the certified Lambert floor for (s, eps). The verdict is
    True only when the inequality is certified; an uncertifiable comparison
    reports 'undecided' in the detail and verdict False. Needs eps < 1, else
    the threshold is at most 0 and any rates hold.
    """
    t0 = time.monotonic()
    epsilon = Q(epsilon)
    if epsilon >= 1:
        raise DomainError(f"need epsilon < 1, got {epsilon}")
    params = choose_params(chi, p, s, epsilon=epsilon, l=None)
    raw = replace(params, l=params.ell)
    holds = decide_ge(lambda ln: (tau_p(raw, ln) * (2 * (1 + ln(2))),
                                  (1 - epsilon) * ln(s) * tau_infinity(raw, ln)), 400)
    status = {True: "holds", False: "fails", None: "undecided"}[holds]
    return _report("lambert-inequality",
                   {"p": p, "s": s, "epsilon": str(epsilon), "ell": raw.l},
                   "tau_p/tau_inf above the (1-eps) log s threshold",
                   status, status == "holds", t0, {"certified": status})


# -- rate fitting across a sequence of forms --------------------------------------------------


@dataclass(frozen=True)
class SequencePoint:
    n: int
    sigma: int
    log_height: float
    nu_lambda: int


def form_sequence(params: FormParameters, chi: DirichletCharacter,
                  ns: Sequence[int]) -> list[SequencePoint]:
    """Heights and p-adic valuations of Lambda_n along a sequence of n.

    Each n must satisfy the valuation-formula hypotheses; the valuation of
    the weighted integral sum is the one check_valuation_formula verifies,
    and a failed check raises PrecisionError.
    """
    pr = params
    out = []
    for n in ns:
        if not pr.hypotheses_hold(n):
            raise DomainError(f"n = {n} breaks the valuation hypotheses")
        family = lvalue_family(pr, chi, n)
        report = check_valuation_formula(pr, n, chi, family.rn, family.table)
        if not report.verdict:
            raise PrecisionError(f"the valuation at n = {n} is not verified: "
                                 f"predicted {report.expected}, observed {report.observed}")
        out.append(SequencePoint(n=n, sigma=n,
                                 log_height=family.form.log_height(),
                                 nu_lambda=int(report.observed)
                                 + int(vp(form_scale(pr.s, n), pr.p))))
    return out
