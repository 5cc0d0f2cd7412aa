"""The acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy desk-instance computations (R_n and its partial fraction tables) are
shared through the session-scoped `desk` fixture.
"""

import math
import random
import time
from fractions import Fraction as Q

import pytest

from padicforms.arith import bernoulli_poly, vp
from padicforms.catalog import (CATALOG, check_config_integrality,
                                integrality_check, random_small_configurations)
from padicforms.characters import (gen_bernoulli, quadratic_character,
                                   trivial_character)
from padicforms.cyclotomic import CyclotomicElement
from padicforms.forms import evaluate_form_identity, hurwitz_variant_form, lambda_form
from padicforms.heights import (HeightMatrix, delta_p_valuation, dimension_bound,
                                fit_rates, height_K, height_p_valuation)
from padicforms.hurwitz import lp_value
from padicforms.padic import Padic
from padicforms.polynomials import Poly, RationalFunction
from padicforms.verification import (check_chi_congruence, check_fj_integral,
                                     check_valuation_formula, form_sequence,
                                     growth_bound_check, tau_p)
from padicforms.volkenborn import (PoleData, integral_mahler, integral_riemann,
                                   rational_wavelet_tail_bound, translate_integral)


def _announce(number: int, name: str, ok: bool, elapsed: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s)")


def test_criterion_01_engine_agreement():
    t_total = time.monotonic()
    ok = True
    for x, p in ((Q(1, 5), 5), (Q(2, 25), 5), (Q(1, 4), 2)):
        t0 = time.monotonic()
        f = RationalFunction(Poly([1]), Poly([x, 1]))
        pole = [PoleData(location=-x, order=1, floors=(0,))]
        cert = rational_wavelet_tail_bound(pole, p)  # the weaker certificate
        mah = integral_mahler(f, p, 10, pole_data=pole)
        rie = integral_riemann(f, p, 8, precision=10)
        agree = mah.agrees(rie, min(int(cert), mah.prec, rie.prec))
        elapsed = time.monotonic() - t0
        ok = ok and agree and elapsed < 1.0
        assert agree, (x, p)
        assert elapsed < 1.0, (x, p, elapsed)
    _announce(1, "engine agreement mahler vs riemann", ok,
              time.monotonic() - t_total)


def test_criterion_02_polynomial_integrals():
    t0 = time.monotonic()
    for n in range(11):
        for x in (Q(1, 5), Q(3, 4), Q(7)):
            got = integral_mahler(RationalFunction(Poly([x, 1]) ** n), 5)
            assert got == bernoulli_poly(n)(x), (n, x)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _announce(2, "exact polynomial integrals = B_n(x)", True, elapsed)


def test_criterion_03_translation_formula():
    t0 = time.monotonic()
    rng = random.Random(20250808)
    checked = 0
    while checked < 50:
        p = rng.choice([2, 3, 5])
        hmin = 2 if p == 2 else 1
        den = Poly([1])
        while den.degree() < 2:
            h = rng.randint(hmin, hmin + 1)
            u = rng.choice([1, 3, 7, 9, 11])
            while u % p == 0:
                u += 2
            den = den * Poly.from_roots([Q(u, p ** h)]) ** rng.randint(1, 2)
        num = Poly([rng.randint(-9, 9) for _ in range(den.degree() - 1)])
        if num.is_zero():
            num = Poly([1])
        f = RationalFunction(num, den)
        assert f.degree() <= -2
        m = rng.randint(0, 5)
        rep = translate_integral(f, m, p, precision=12)
        assert rep.agrees, (p, m, checked)
        checked += 1
    _announce(3, "translation formula on 50 random integrands", True,
              time.monotonic() - t0)


def test_criterion_04_interpolation_identity():
    t0 = time.monotonic()
    assert lp_value(-1, trivial_character(), 5, l=1) == Q(1, 3)
    for chi in (trivial_character(), quadratic_character(3), quadratic_character(4)):
        for p in (2, 3, 5):
            l0 = int(vp(Q(chi.conductor), p))
            for i in (-1, -2, -3):
                n = 1 - i
                got = lp_value(i, chi, p, l=max(1, l0))
                want = (1 - chi.value(p) * Q(p) ** (-i)) * (-gen_bernoulli(n, chi) / n)
                assert got == want, (chi.label, p, i)
    _announce(4, "interpolation at negative integers, exact", True,
              time.monotonic() - t0)


def test_criterion_05_chi_congruence(desk):
    t0 = time.monotonic()
    pr = desk.workspace("p2-trivial").params
    for j in (1, 3, 5):
        rep = check_chi_congruence(pr, 3, j, range(64))
        assert rep.verdict, (j, rep.observed)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _announce(5, "mod-p binomial indicator congruence", True, elapsed)


def test_criterion_06_congruence_and_valuation(desk):
    t0 = time.monotonic()
    for key, n in (("p2-trivial", 3), ("p3-trivial", 2), ("p2-quad4", 3)):
        ws = desk.workspace(key)
        rep = check_valuation_formula(ws.params, n, ws.chi, rn=ws.rn, table=ws.table)
        assert rep.verdict, (key, rep.expected, rep.observed)
        for j in range(1, ws.params.D + 1):
            if math.gcd(j, ws.params.p) == 1:
                frep = check_fj_integral(ws.params, n, j, rn=ws.rn)
                assert frep.verdict, (key, j)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _announce(6, "f_j congruence and exact valuation identity", True, elapsed)


def test_criterion_07_linear_form_identities(desk):
    t0 = time.monotonic()
    for key, n in (("p2-trivial", 3), ("p3-trivial", 2), ("p2-quad4", 3)):
        ws = desk.workspace(key)
        rep = evaluate_form_identity(ws.params, n, ws.chi, digits=20,
                                     table=ws.table, rn=ws.rn)
        assert rep.agrees and rep.relative_digits >= 20, (key, rep.to_json())
    hw = desk.instance("p2-hurwitz")
    hrep = hurwitz_variant_form(hw.p, hw.hurwitz_x, hw.s, n=hw.n, l=hw.l, digits=20)
    assert hrep.identity.agrees and hrep.identity.relative_digits >= 20
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    _announce(7, "linear-form and Hurwitz-variant identities mod p^20+", True,
              elapsed)


def test_criterion_08_integrality(desk):
    t0 = time.monotonic()
    for key in ("p2-trivial", "p3-trivial", "p2-quad4", "p2-mini"):
        ws = desk.workspace(key)
        rep = integrality_check(ws)
        assert rep.verdict, key
    configs = random_small_configurations(count=50)
    assert len(configs) == 50
    for cfg in configs:
        rep = check_config_integrality(cfg)
        assert rep.verdict, (cfg.params.p, cfg.params.s, cfg.n, rep.observed)
    _announce(8, "integrality across catalog and 50 random configurations",
              True, time.monotonic() - t0)


def test_criterion_09_growth_bound(desk):
    t0 = time.monotonic()
    for key, n in (("p2-trivial", 3), ("p3-trivial", 2), ("p2-quad4", 3),
                   ("p2-mini", 1)):
        ws = desk.workspace(key)
        rep = growth_bound_check(ws.params, n, table=ws.table)
        assert rep.verdict, key
    _announce(9, "explicit growth bound on every r_(i,k)", True,
              time.monotonic() - t0)


def test_criterion_10_heights_and_rates(desk):
    t0 = time.monotonic()
    rng = random.Random(99)

    # lem_chan_1(c) on >= 200 random integer matrices (plain constant over Q)
    for _ in range(200):
        s_plus_1 = rng.randint(1, 3)
        r_plus_1 = rng.randint(s_plus_1 + 1, s_plus_1 + 3)
        M = HeightMatrix([[Q(rng.randint(-10, 10)) for _ in range(r_plus_1)]
                          for _ in range(s_plus_1)])
        L = [Q(rng.randint(-10, 10)) for _ in range(r_plus_1)]
        assert height_K(M.append_row(L)) <= \
            (s_plus_1 + 1) * height_K(M) * height_K(HeightMatrix([L]))

    # lem_chan_2(b): Delta_p != 0 forces H_p >= 1/H_K, 200 integral samples
    done = 0
    p = 5
    while done < 200:
        rows = rng.randint(1, 2)
        cols = rows + rng.randint(0, 2)
        M = HeightMatrix([[Q(rng.randint(-10, 10)) for _ in range(cols)]
                          for _ in range(rows)])
        xi = [Padic.from_fraction(Q(rng.randint(-50, 50) or 1), p, 30)
              for _ in range(cols)]
        dv = delta_p_valuation(M, xi, p)
        if dv == math.inf:
            continue
        hK = height_K(M)
        assert hK != 0 and hK >= Q(p) ** int(height_p_valuation(M, p))
        done += 1

    # lem_chan_2(c) second clause, filtered to its hypothesis
    done = 0
    p = 3
    while done < 200:
        cols = 3
        M = HeightMatrix([[Q(rng.randint(-10, 10)) for _ in range(cols)]])
        L = [Q(rng.randint(-10, 10)) for _ in range(cols)]
        LM = HeightMatrix([L])
        xi = [Padic.from_fraction(Q(rng.randint(-60, 60) or 1), p, 40)
              for _ in range(cols)]
        hpM, hpL = height_p_valuation(M, p), height_p_valuation(LM, p)
        dM, dL = delta_p_valuation(M, xi, p), delta_p_valuation(LM, xi, p)
        if math.inf in (hpM, hpL, dM, dL) or hpM + dL >= hpL + dM:
            continue
        assert delta_p_valuation(M.append_row(L), xi, p) == hpM + dL
        done += 1

    # exact rational ratio
    assert dimension_bound(1, 1, 0) == Q(1, 2)
    assert dimension_bound(Q(5, 2), Q(3), Q(3)) == Q(6, 5)

    # fitted tau_p within 15% of s log p (l + 1/(p-1)) on n in {3, 7, 11}
    ws = desk.workspace("p2-trivial")
    points = form_sequence(ws.params, ws.chi, (3, 7, 11))
    fit = fit_rates([(pt.sigma, pt.log_height, pt.nu_lambda) for pt in points], 2)
    target = tau_p(ws.params)
    assert abs(fit.tau_p_hat - target) / target < 0.15, (fit.tau_p_hat, target)
    _announce(10, "height lemmas, exact ratio, fitted tau_p within 15%", True,
              time.monotonic() - t0)
