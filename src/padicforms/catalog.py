"""The fixture catalog: desk-scale instances satisfying every hypothesis at minimal size."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .characters import DirichletCharacter, character_from_spec, p_units
from .errors import IntegralityError
from .forms import (FormFamily, FormParameters, choose_params, form_identity,
                    form_scale, hurwitz_family, hurwitz_params, lvalue_family, rho_zero)
from .padic import vp_qp
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
        return _config_params(self.chi(), self.hurwitz_x, self.p, self.s, self.l)

    def family(self) -> FormFamily:
        """The instance's family at its n: R_n, its table and its form, built on first read."""
        pr = self.params()
        return (lvalue_family(pr, self.chi(), self.n) if self.hurwitz_x is None
                else hurwitz_family(pr, self.hurwitz_x, self.n))


CATALOG: tuple[CatalogInstance, ...] = (
    CatalogInstance(key="p2-trivial", character="trivial", p=2, l=2, s=64, n=3),
    CatalogInstance(key="p3-trivial", character="trivial", p=3, l=1, s=82, n=2),
    CatalogInstance(key="p2-quad4", character="quadratic:4", p=2, l=2, s=64, n=3),
    CatalogInstance(key="p2-hurwitz", character="trivial", p=2, l=2, s=64, n=3,
                    hurwitz_x=Q(1, 4)),
)

MINI_DESK = CatalogInstance(key="p2-mini", character="trivial", p=2, l=1, s=16, n=1)


def run_catalog(digits: int = 20) -> Iterator[CheckReport]:
    """Execute every catalog check, one family per instance.

    The identity is certified before the checks that precede it in the
    output, so that the valuation check reads its sum from the table.
    """
    for inst in CATALOG:
        family = inst.family()
        pr, n = family.params, inst.n
        identity = identity_check(inst, family, digits)
        if inst.hurwitz_x is not None:
            yield identity
        else:
            yield check_valuation_formula(pr, n, inst.chi(), family.rn, family.table)
            for j in p_units(pr.D, pr.p):
                yield check_fj_integral(family, j)
            if inst.key == "p2-trivial":
                for j in (1, 3, 5):
                    yield check_chi_congruence(pr, n, j, range(64))
        yield growth_bound_check(family)
        yield integrality_check(inst, family)
        if inst.hurwitz_x is None:
            yield identity
    mini = MINI_DESK.family()
    yield growth_bound_check(mini)
    yield integrality_check(MINI_DESK, mini)


def identity_check(inst: CatalogInstance, family: FormFamily, digits: int) -> CheckReport:
    """The instance's linear-form identity, certified to `digits` significant digits."""
    t0 = time.monotonic()
    rep = form_identity(family, digits)
    name, head = (("form-identity", {"key": inst.key, "p": inst.p}) if inst.hurwitz_x is None
                  else ("hurwitz-identity", {"p": inst.p, "x": str(inst.hurwitz_x)}))
    return _report(name, {**head, "s": inst.s, "n": inst.n},
                   f">= {digits} significant digits",
                   f"{rep.relative_digits} digits, agrees: {rep.agrees}",
                   rep.agrees and rep.relative_digits >= digits, t0)


def integrality_check(inst: CatalogInstance, family: FormFamily) -> CheckReport:
    """The family must build the instance's form, which asserts its integrality."""
    t0 = time.monotonic()
    try:
        family.form
        ok, observed = True, "all coefficients integral"
    except IntegralityError as exc:
        ok, observed = False, str(exc)
    return _report("integrality",
                   {"key": inst.key, "p": inst.p, "s": inst.s, "n": inst.n},
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
        chi = x = None
        if mode == "L":
            p = rng.choice([2, 2, 3])
            character = rng.choice(["trivial", "quadratic:3", "quadratic:4"])
            if character == "quadratic:4" and p == 2:
                l = 2
            else:
                l = rng.choice([1, 2]) if p == 2 else 1
            chi = character_from_spec(character)
            n = rng.randint(1, 3)
        else:
            p = rng.choice([2, 2, 3, 3, 5])
            l = vp_qp(p)
            x = Q(rng.choice(list(p_units(p ** l, p))), p ** l)
            n = 1 if p == 5 else rng.randint(1, 2)
        probe = _config_params(chi, x, p, max(2, p - 1), l)
        min_s = (probe.Q * probe.N(n) + 4 + probe.delta + n) // (n + 1) + 1
        step = max(1, p - 1)
        s = _round_up_multiple(min_s, step) + (step * rng.randint(0, 1) if x is None else 0)
        if s * s * (n + 1) > 130_000:  # keep the table work at desk scale
            continue
        params = _config_params(chi, x, p, s, l)
        if params.rn_degree(n) >= -1:
            continue
        out.append(RandomConfig(params=params, n=n, mode=mode, chi=chi, x0=x))
    return out


def _config_params(chi: Optional[DirichletCharacter], x: Optional[Fraction], p: int,
                   s: int, l: int) -> FormParameters:
    """The L-value parameters of chi, or with chi None the Hurwitz ones at x."""
    return choose_params(chi, p, s, l=l) if x is None else hurwitz_params(x, p, s, l=l)[0]


def check_config_integrality(cfg: RandomConfig) -> CheckReport:
    """The integrality lemma that family_form asserts, on one config's table.

    In L mode C rho_(0,j/D) is also checked at the p-units j with chi(j) = 0,
    which carry no weight in the form.
    """
    t0 = time.monotonic()
    pr, n = cfg.params, cfg.n
    if cfg.mode == "L":
        family, C = lvalue_family(pr, cfg.chi, n), form_scale(pr.s, n)
        bad = [("rho0", f"{j}/{pr.D}") for j in p_units(pr.D, pr.p) if cfg.chi(j) == 0
               and (C * rho_zero(family.table, Q(j, pr.D))).denominator != 1]
    else:
        family, bad = hurwitz_family(pr, cfg.x0, n), []
    try:
        family.form
    except IntegralityError as exc:
        bad.append(("form", str(exc)))
    return _report("integrality-random",
                   {"p": pr.p, "s": pr.s, "l": pr.l, "n": n, "mode": cfg.mode},
                   "scaled rho and lambda coefficients integral",
                   "ok" if not bad else f"violations: {bad[:3]}",
                   not bad, t0)
