import math
from fractions import Fraction as Q

import pytest

from padicforms.catalog import (MINI_DESK, InstanceWorkspace,
                                check_config_integrality, integrality_check,
                                random_small_configurations)
from padicforms.characters import quadratic_character, trivial_character
from padicforms.errors import DomainError
from padicforms.forms import choose_params
from padicforms.lambertw import Interval, ell_param, ln_interval
from padicforms.verification import (characteristic_Xjn, check_chi_congruence,
                                     check_fj_integral, check_valuation_formula,
                                     growth_bound, growth_bound_check,
                                     lambert_inequality_check, tau_p)


def test_chi_congruence_tiny_instance():
    # p = 2, l = 1, d' = 1, n = 1, j = 1: binom(2x+3, 2) mod 2 vs the indicator
    pr = choose_params(trivial_character(), 2, 16, l=1)
    assert characteristic_Xjn(pr, 1, 1, 0) == 1
    assert characteristic_Xjn(pr, 1, 1, 1) == 0
    rep = check_chi_congruence(pr, 1, 1, [0, 1, 2])
    assert rep.verdict
    assert math.comb(3, 2) % 2 == 1 and math.comb(5, 2) % 2 == 0 \
        and math.comb(7, 2) % 2 == 1


def test_chi_congruence_desk(desk):
    pr = desk.workspace("p2-trivial").params
    for j in (1, 3, 5):
        rep = check_chi_congruence(pr, 3, j, range(16))
        assert rep.verdict, rep


def test_fj_integral_desk(desk):
    ws = desk.workspace("p2-trivial")
    rep = check_fj_integral(ws.params, 3, 1, rn=ws.rn)
    assert rep.verdict and rep.detail["modulus_exp"] == 0
    rep3 = check_fj_integral(ws.params, 3, 3, rn=ws.rn)
    assert rep3.verdict
    with pytest.raises(DomainError):
        check_fj_integral(ws.params, 2, 1, rn=ws.rn)  # stride does not divide n+1
    with pytest.raises(DomainError):
        check_fj_integral(ws.params, 3, 2, rn=ws.rn)  # j not prime to p


def test_fj_integral_p3(desk):
    ws = desk.workspace("p3-trivial")
    for j in (1, 2):
        rep = check_fj_integral(ws.params, 2, j, rn=ws.rn)
        assert rep.verdict


def test_valuation_formula_desk_p3(desk):
    ws = desk.workspace("p3-trivial")
    rep = check_valuation_formula(ws.params, 2, ws.chi, rn=ws.rn, table=ws.table)
    assert rep.verdict and rep.expected == rep.observed == "263"


def test_valuation_formula_hypothesis_errors(desk):
    ws = desk.workspace("p2-trivial")
    with pytest.raises(DomainError):
        check_valuation_formula(ws.params, 2, ws.chi, rn=ws.rn)
    small = choose_params(trivial_character(), 2, 16, l=2)
    with pytest.raises(DomainError):
        check_valuation_formula(small, 3, trivial_character())  # s < pQD


def test_growth_bound_mini(desk):
    ws = desk.workspace("p2-mini")
    rep = growth_bound_check(ws.params, 1, table=ws.table)
    assert rep.verdict
    assert rep.detail["tau_p"] == pytest.approx(16 * math.log(2) * 2)
    b = growth_bound(ws.params, 1)
    assert b == 4 ** 16 * 2 ** 16 * 5 ** 4 * 2 ** (3 * 16 + 3)


def test_tau_p_formula(desk):
    pr = desk.workspace("p2-trivial").params
    assert tau_p(pr) == pytest.approx(192 * math.log(2))


def test_interval_arithmetic():
    two = ln_interval(2, 24)
    assert two.lo <= two.hi and two.hi - two.lo < Q(1, 10 ** 20)
    assert float(two.lo) == pytest.approx(math.log(2), abs=1e-13)
    assert (two + Interval.point(1)).lo == two.lo + 1
    prod = two * two
    assert float(prod.lo) == pytest.approx(math.log(2) ** 2, abs=1e-12)
    half = ln_interval(Q(1, 2), 24)
    assert half.hi < 0 and abs(half.lo + two.hi) < Q(1, 10 ** 6)
    big = ln_interval(10 ** 4, 24)
    assert big.hi - big.lo < Q(1, 10 ** 12)
    assert float(big.lo) == pytest.approx(math.log(10 ** 4), abs=1e-11)
    # a coarse series still brackets: 3 terms on ln 2
    coarse = ln_interval(2, 3)
    assert coarse.lo < Q(693147180559945, 10 ** 15) < coarse.hi


def test_lambert_inequality_large_s():
    triv = trivial_character()
    for s in (100, 1000, 10000):
        rep = lambert_inequality_check(triv, 2, s, Q(1, 2))
        assert rep.verdict and rep.detail["certified"] == "holds", (s, rep)


def test_lambert_inequality_below_threshold_reported():
    rep = lambert_inequality_check(trivial_character(), 2, 50, Q(1, 2))
    # below the threshold the check reports without certifying success
    assert rep.detail["certified"] in ("fails", "undecided")
    assert not rep.verdict


def test_integrality_check_catalog_mini():
    ws = InstanceWorkspace(MINI_DESK)
    rep = integrality_check(ws)
    assert rep.verdict


def test_random_configuration_shapes():
    cfgs = random_small_configurations(count=8, seed=7)
    assert len(cfgs) == 8
    for cfg in cfgs:
        deg = (cfg.params.Q * cfg.params.N(cfg.n) + 2 + cfg.params.delta
               - (cfg.n + 1) * cfg.params.s)
        assert deg <= -2
        rep = check_config_integrality(cfg)
        assert rep.verdict, (cfg, rep.observed)
