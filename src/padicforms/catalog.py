"""The fixture catalog: desk-scale instances satisfying every hypothesis at minimal size."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .characters import DirichletCharacter, character_from_spec
from .errors import IntegralityError
from .forms import (FormParameters, build_rn, choose_params,
                    evaluate_form_identity, form_scale, hurwitz_params,
                    hurwitz_variant_form, lambda_form, partial_fractions,
                    rho_higher, rho_zero)
from .verification import (CheckReport, _report, check_chi_congruence,
                           check_fj_integral, check_valuation_formula,
                           growth_bound_check)

Q = Fraction


@dataclass(frozen=True)
class CatalogInstance:
    key: str
    character: str
    p: int
    l: int
    s: int
    n: int
    hurwitz_x: Optional[Fraction] = None

    def chi(self) -> DirichletCharacter:
        return character_from_spec(self.character)

    def params(self) -> FormParameters:
        if self.hurwitz_x is not None:
            return hurwitz_params(self.hurwitz_x, self.p, self.s, l=self.l)[0]
        return choose_params(self.chi(), self.p, self.s, l=self.l)


CATALOG: tuple[CatalogInstance, ...] = (
    CatalogInstance(key="p2-trivial", character="trivial", p=2, l=2, s=64, n=3),
    CatalogInstance(key="p3-trivial", character="trivial", p=3, l=1, s=82, n=2),
    CatalogInstance(key="p2-quad4", character="quadratic:4", p=2, l=2, s=64, n=3),
    CatalogInstance(key="p2-hurwitz", character="trivial", p=2, l=2, s=64, n=3,
                    hurwitz_x=Q(1, 4)),
)

MINI_DESK = CatalogInstance(key="p2-mini", character="trivial", p=2, l=1, s=16, n=1)


class InstanceWorkspace:
    """Shared R_n and partial fraction table for one catalog instance."""

    def __init__(self, inst: CatalogInstance):
        self.instance = inst
        self.chi = inst.chi()
        self.params = inst.params()
        self.rn = build_rn(self.params, inst.n)
        self.table = partial_fractions(self.rn)

    def form(self):
        return lambda_form(self.params, self.table, self.chi)


def run_catalog(digits: int = 20) -> Iterator[CheckReport]:
    """Execute every catalog check, sharing tables per instance."""
    for inst in CATALOG:
        ws = InstanceWorkspace(inst)
        pr, n = ws.params, inst.n
        if inst.hurwitz_x is not None:
            t0 = time.monotonic()
            rep = hurwitz_variant_form(inst.p, inst.hurwitz_x, inst.s,
                                       n=n, l=inst.l, digits=digits)
            yield _report("hurwitz-identity",
                          {"p": inst.p, "x": str(inst.hurwitz_x), "s": inst.s, "n": n},
                          f">= {digits} significant digits",
                          f"{rep.identity.relative_digits} digits, agrees: "
                          f"{rep.identity.agrees}",
                          rep.identity.agrees
                          and rep.identity.relative_digits >= digits, t0)
            yield growth_bound_check(pr, n, table=ws.table)
            yield integrality_check(ws)
            continue
        yield check_valuation_formula(pr, n, ws.chi, rn=ws.rn, table=ws.table)
        for j in range(1, pr.D + 1):
            if math.gcd(j, pr.p) == 1:
                yield check_fj_integral(pr, n, j, rn=ws.rn, table=ws.table)
        if inst.key == "p2-trivial":
            for j in (1, 3, 5):
                yield check_chi_congruence(pr, n, j, range(64))
        yield growth_bound_check(pr, n, table=ws.table)
        yield integrality_check(ws)
        t0 = time.monotonic()
        rep = evaluate_form_identity(pr, n, ws.chi, digits=digits,
                                     table=ws.table, rn=ws.rn)
        yield _report("form-identity",
                      {"key": inst.key, "p": inst.p, "s": inst.s, "n": n},
                      f">= {digits} significant digits",
                      f"{rep.relative_digits} digits, agrees: {rep.agrees}",
                      rep.agrees and rep.relative_digits >= digits, t0)
    mini = InstanceWorkspace(MINI_DESK)
    yield growth_bound_check(mini.params, MINI_DESK.n, table=mini.table)
    yield integrality_check(mini)


def integrality_check(ws: InstanceWorkspace) -> CheckReport:
    """lambda_form must build coefficients with unit denominators."""
    t0 = time.monotonic()
    try:
        ws.form()
        ok, observed = True, "all coefficients integral"
    except IntegralityError as exc:
        ok, observed = False, str(exc)
    return _report("integrality",
                   {"key": ws.instance.key, "p": ws.params.p,
                    "s": ws.params.s, "n": ws.instance.n},
                   "integral coefficients", observed, ok, t0)


@dataclass(frozen=True)
class RandomConfig:
    """One randomized small configuration for the integrality sweep."""

    params: FormParameters
    n: int
    mode: str  # "L" or "hurwitz"
    chi: Optional[DirichletCharacter] = None
    x0: Optional[Fraction] = None


def _round_up_multiple(value: int, step: int) -> int:
    return ((value + step - 1) // step) * step


def random_small_configurations(count: int = 50, seed: int = 20250808) -> list[RandomConfig]:
    """Small random configurations with decaying R_n, for integrality sweeps.

    s is raised until deg R_n <= -2. p = 5 only appears in the Hurwitz
    shape, where r = 0 keeps Q = p^2; the L-shape there would force
    Q = p^3 and tables far beyond desk scale.
    """
    rng = random.Random(seed)
    out: list[RandomConfig] = []
    while len(out) < count:
        mode = rng.choice(["L", "L", "L", "hurwitz"])
        if mode == "L":
            p = rng.choice([2, 2, 3])
            character = rng.choice(["trivial", "quadratic:3", "quadratic:4"])
            if character == "quadratic:4" and p == 2:
                l = 2
            else:
                l = rng.choice([1, 2]) if p == 2 else 1
            chi = character_from_spec(character)
            n = rng.randint(1, 3)
            try:
                probe = choose_params(chi, p, max(2, p - 1), l=l)
            except Exception:
                continue
            min_s = (probe.Q * probe.N(n) + 4 + probe.delta + n) // (n + 1) + 1
            step = max(1, p - 1)
            s = _round_up_multiple(min_s, step) + step * rng.randint(0, 1)
            if s * s * (n + 1) > 130_000:  # keep the table work at desk scale
                continue
            params = choose_params(chi, p, s, l=l)
            if params.rn_degree(n) >= -1:
                continue
            out.append(RandomConfig(params=params, n=n, mode="L", chi=chi))
        else:
            p = rng.choice([2, 2, 3, 3, 5])
            l0 = 2 if p == 2 else 1
            choices = [j for j in range(1, p ** l0) if math.gcd(j, p) == 1]
            x = Q(rng.choice(choices), p ** l0)
            n = 1 if p == 5 else rng.randint(1, 2)
            probe, _ = hurwitz_params(x, p, max(2, p - 1), l=l0)
            min_s = (probe.Q * probe.N(n) + 2 + n) // (n + 1) + 1
            step = max(1, p - 1)
            s = _round_up_multiple(min_s, step)
            if s * s * (n + 1) > 130_000:
                continue
            params, _ = hurwitz_params(x, p, s, l=l0)
            if params.rn_degree(n) >= -1:
                continue
            out.append(RandomConfig(params=params, n=n, mode="hurwitz", x0=x))
    return out


def check_config_integrality(cfg: RandomConfig) -> CheckReport:
    """prop-arith style integrality of the scaled rho coefficients of one config.

    rho_i is scaled by (s-i)! d_n^(s-i) = form_scale(s-i+1, n), rho_0 by C.
    """
    t0 = time.monotonic()
    pr, n = cfg.params, cfg.n
    table = partial_fractions(build_rn(pr, n))
    bad = []
    for i in range(1, pr.s + 1):
        if (form_scale(pr.s - i + 1, n) * rho_higher(table, i)).denominator != 1:
            bad.append(("rho", i))
    c_top = form_scale(pr.s, n)
    if cfg.mode == "L":
        xs = [Q(j, pr.D) for j in range(1, pr.D + 1) if math.gcd(j, pr.p) == 1]
    else:
        d = cfg.x0.denominator
        P = pr.p ** (pr.l - pr.l0)
        xs = [Q(cfg.x0.numerator + d * j, pr.D) for j in range(P)]
    for x in xs:
        if (c_top * rho_zero(table, x)).denominator != 1:
            bad.append(("rho0", str(x)))
    if cfg.mode == "L" and cfg.chi is not None:
        try:
            lambda_form(pr, table, cfg.chi)
        except IntegralityError as exc:
            bad.append(("lambda", str(exc)))
    return _report("integrality-random",
                   {"p": pr.p, "s": pr.s, "l": pr.l, "n": n, "mode": cfg.mode},
                   "scaled rho and lambda coefficients integral",
                   "ok" if not bad else f"violations: {bad[:3]}",
                   not bad, t0)
