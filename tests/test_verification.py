import dataclasses
import json
import math
from fractions import Fraction as Q
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms import catalog
from padicforms import forms
from padicforms.catalog import (MINI_DESK, CatalogInstance, RandomConfig,
                                check_config_integrality, integrality_check,
                                random_small_configurations)
from padicforms.characters import character_from_spec, trivial_character
from padicforms.errors import DomainError, IntegralityError, PrecisionError
from padicforms.forms import FormParameters, choose_params, family_form, lvalue_family
from padicforms.lambertw import Interval, ln_interval
from padicforms.verification import (asymptotic_rate, characteristic_Xjn,
                                     check_chi_congruence, check_fj_integral,
                                     check_valuation_formula, form_sequence, growth_bound,
                                     growth_bound_check, lambert_inequality_check, tau_infinity,
                                     tau_p)
from test_cli import QUARTIC_JSON
from test_forms import table_from_rows


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
    pr = desk.family("p2-trivial").params
    for j in (1, 3, 5):
        rep = check_chi_congruence(pr, 3, j, range(16))
        assert rep.verdict, rep


def test_fj_integral_desk(desk):
    family = desk.family("p2-trivial")
    rep = check_fj_integral(family, 1)
    assert rep.verdict and rep.detail["modulus_exp"] == 0
    rep3 = check_fj_integral(family, 3)
    assert rep3.verdict
    # both preconditions are tested before R_n is built
    at_2 = lvalue_family(family.params, trivial_character(), 2)
    with pytest.raises(DomainError):
        check_fj_integral(at_2, 1)  # stride does not divide n+1
    at_3 = lvalue_family(family.params, trivial_character(), 3)
    with pytest.raises(DomainError):
        check_fj_integral(at_3, 2)  # j not prime to p
    assert "rn" not in vars(at_2) and "rn" not in vars(at_3)


def test_fj_integral_p3(desk):
    family = desk.family("p3-trivial")
    for j in (1, 2):
        rep = check_fj_integral(family, j)
        assert rep.verdict


def test_valuation_formula_desk_p3(desk):
    family = desk.family("p3-trivial")
    rep = check_valuation_formula(family.params, 2, trivial_character(), rn=family.rn,
                                  table=family.table)
    assert rep.verdict and rep.expected == rep.observed == "263"


def test_valuation_formula_decides_on_one_sum(desk, monkeypatch, capsys):
    from padicforms import cli, verification

    family = desk.family("p3-trivial")
    pr, chi, rn, table = family.params, trivial_character(), family.rn, family.table
    asked = []
    original = verification.chi_weighted_integral_sum

    def counting(family, precision):
        asked.append(precision)
        return original(family, precision)

    monkeypatch.setattr(verification, "chi_weighted_integral_sum", counting)
    rep = check_valuation_formula(pr, 2, chi, rn=rn, table=table)
    assert asked == [264] and rep.verdict and rep.observed == "263" and rep.detail == {}
    # a prediction above vp(S) = 263: the sum is nonzero and its valuation exact
    monkeypatch.setattr(verification, "valuation_formula_rhs", lambda pr, n: 270)
    rep = check_valuation_formula(pr, 2, chi, rn=rn, table=table)
    assert not rep.verdict and (rep.expected, rep.observed) == ("270", "263")
    # a prediction below it: the sum vanishes modulo p^259, and that fails too
    monkeypatch.setattr(verification, "valuation_formula_rhs", lambda pr, n: 258)
    rep = check_valuation_formula(pr, 2, chi, rn=rn, table=table)
    assert not rep.verdict and (rep.expected, rep.observed) == ("258", ">= 259")
    assert asked == [264, 271, 259]
    # the rate fit reads no valuation that its check did not verify
    with pytest.raises(PrecisionError, match="n = 2"):
        form_sequence(pr, chi, [2])
    # and the CLI reports the failed check with exit code 1
    code = cli.dispatch(["verify", "valuation", "--p", "3", "--s", "82", "--l", "1",
                         "--n", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verdict"] == "fail" and out["observed"] == ">= 259"


def test_valuation_formula_hypothesis_errors(desk):
    family = desk.family("p2-trivial")
    with pytest.raises(DomainError):
        check_valuation_formula(family.params, 2, trivial_character(), rn=family.rn)
    small = choose_params(trivial_character(), 2, 16, l=2)
    with pytest.raises(DomainError):
        check_valuation_formula(small, 3, trivial_character())  # s < pQD


# Oracles: the rates and the Lambert loop as each was written before the rates
# became one expression over ln and the ln series one widening loop
# (lambertw.decide_ge).

def tau_p_oracle(pr):
    return pr.s * math.log(pr.p) * (pr.l + Q(1, pr.p - 1))


def tau_infinity_oracle(pr):
    return (pr.s * math.log(2)
            + pr.d_prime * pr.p ** (pr.r + 2 + 2 * pr.l)
            * math.log(pr.d_prime * pr.p ** (1 + pr.l))
            + pr.s)


def asymptotic_rate_oracle(pr):
    return pr.p * pr.Q * pr.D * math.log(pr.p * pr.D) + pr.s * math.log(2)


def _scale(interval, c):
    a, b = interval.lo * c, interval.hi * c
    return Interval(min(a, b), max(a, b))


def tau_p_interval_oracle(pr, terms):
    return _scale(ln_interval(pr.p, terms), pr.s * (Q(pr.l) + Q(1, pr.p - 1)))


def tau_inf_interval_oracle(pr, terms):
    ln2 = ln_interval(2, terms)
    lnbig = ln_interval(pr.d_prime * pr.p ** (1 + pr.l), terms)
    big = _scale(lnbig, pr.d_prime * pr.p ** (pr.r + 2 + 2 * pr.l))
    return _scale(ln2, pr.s) + big + Interval.point(pr.s)


def lambert_status_oracle(chi, p, s, epsilon, degree=1):
    """The certified verdict, from 32 terms doubling up to 256, with both
    sides scaled by the field degree [K:Q]."""
    params = choose_params(chi, p, s, epsilon=epsilon)
    raw = dataclasses.replace(params, l=params.ell)
    terms = 32
    while terms <= 400:
        taup = tau_p_interval_oracle(raw, terms)
        tauinf = tau_inf_interval_oracle(raw, terms)
        ln2 = ln_interval(2, terms)
        lns = ln_interval(s, terms)
        lhs = _scale(taup * (Interval.point(2) * (Interval.point(1) + ln2)), degree)
        rhs = _scale(_scale(lns, 1 - epsilon) * tauinf, degree)
        if lhs.certainly_ge(rhs):
            return "holds"
        if lhs.certainly_lt(rhs):
            return "fails"
        terms *= 2
    return "undecided"


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 13, 97]), s=st.integers(1, 10 ** 8),
       l=st.integers(0, 5), r=st.integers(0, 3), d_prime=st.integers(1, 40),
       terms=st.sampled_from([3, 24, 48]))
def test_rates_equal_the_oracles(p, s, l, r, d_prime, terms):
    # math.log gives the very floats of the old expressions, and the
    # certified ln the very bounds of the old intervals
    pr = FormParameters(p=p, s=s, delta=0, d_prime=d_prime, l0=0, r=r, l=l)
    assert tau_p(pr) == tau_p_oracle(pr)
    assert tau_infinity(pr) == tau_infinity_oracle(pr)
    assert asymptotic_rate(pr) == asymptotic_rate_oracle(pr)
    ln = partial(ln_interval, terms=terms)
    assert tau_p(pr, ln) == tau_p_interval_oracle(pr, terms)
    assert tau_infinity(pr, ln) == tau_inf_interval_oracle(pr, terms)


def test_lambert_status_equals_the_oracle_on_a_grid():
    triv = trivial_character()
    seen = set()
    for p in (2, 3, 5):
        for s in (10, 50, 100, 1000, 5000, 10 ** 5, 10 ** 8):
            for epsilon in (Q(1, 4), Q(1, 2), Q(3, 4)):
                status = lambert_inequality_check(triv, p, s, epsilon).detail["certified"]
                assert status == lambert_status_oracle(triv, p, s, epsilon), (p, s, epsilon)
                seen.add(status)
    assert seen == {"holds", "fails"}


def test_lambert_over_q_i_equals_the_oracle_scaled_by_the_degree():
    # K = Q(i) has [K:Q] = 2, which scales both sides alike: the verdict over
    # Q is the oracle's with both sides doubled
    chi = character_from_spec(QUARTIC_JSON)
    for s, status, ell in ((1000, "fails", 0), (10 ** 8, "holds", 3)):
        rep = lambert_inequality_check(chi, 5, s, Q(1, 2))
        assert (rep.detail["certified"], rep.params["ell"]) == (status, ell)
        assert status == lambert_status_oracle(chi, 5, s, Q(1, 2), degree=2)


def test_growth_bound_mini(desk):
    family = desk.family("p2-mini")
    rep = growth_bound_check(family)
    assert rep.verdict
    assert rep.detail["tau_p"] == pytest.approx(16 * math.log(2) * 2)
    pr = family.params
    assert (rep.detail["tau_p"], rep.detail["tau_infinity"], rep.detail["asymptotic_rate"]) \
        == (tau_p_oracle(pr), tau_infinity_oracle(pr), asymptotic_rate_oracle(pr))
    b = growth_bound(family.params, 1)
    assert b == 4 ** 16 * 2 ** 16 * 5 ** 4 * 2 ** (3 * 16 + 3)


def test_tau_p_formula(desk):
    pr = desk.family("p2-trivial").params
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


def test_lambert_inequality_needs_epsilon_in_the_open_unit_interval():
    triv = trivial_character()
    for epsilon in (Q(1), Q(2), Q(5)):
        with pytest.raises(DomainError, match="need epsilon < 1"):
            lambert_inequality_check(triv, 2, 1000, epsilon)
    with pytest.raises(DomainError, match="epsilon > 0"):
        lambert_inequality_check(triv, 2, 1000, Q(0))
    rep = lambert_inequality_check(triv, 2, 1000, Q(99, 100))
    assert rep.detail["certified"] == lambert_status_oracle(triv, 2, 1000, Q(99, 100))


def test_lambert_inequality_below_threshold_reported():
    rep = lambert_inequality_check(trivial_character(), 2, 50, Q(1, 2))
    # below the threshold the check reports without certifying success
    assert rep.detail["certified"] in ("fails", "undecided")
    assert not rep.verdict


def test_integrality_check_catalog_mini():
    rep = integrality_check(MINI_DESK, MINI_DESK.family())
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


def _doctored(table, i, extra):
    """The table with extra added to r_(i,0): rho_i moves by i extra, and no
    rho_(0,x) moves, since r_(i,0) enters none of them."""
    rows = [list(row) for row in table.rows]
    rows[i - 1][0] += extra
    return table_from_rows(table.n, table.s, rows)


@pytest.mark.parametrize("x", [None, Q(1, 4)], ids=["L", "hurwitz"])
@pytest.mark.parametrize("i,extra", [(2, Q(1, 1_000_003)), (18, Q(1, 36))],
                         ids=["large-prime", "lemma-only"])
def test_doctored_table_fails_every_integrality_check(monkeypatch, x, i, extra):
    # 1/q for a large prime q breaks rho_2 and lambda_2 alike; 1/(2s) at i = s
    # moves rho_s by 1/2, which lambda_s = C D^(s+shift) rho_s absorbs (C is
    # even) but the lemma's scale 0! d_n^0 = 1 does not
    inst = CatalogInstance(key="doctored", character="trivial", p=2, l=2, s=18, n=1,
                           hurwitz_x=x)
    family = inst.family()
    cfg = RandomConfig(params=family.params, n=1, mode="L" if x is None else "hurwitz",
                       chi=inst.chi() if x is None else None, x0=x)
    assert integrality_check(inst, family).verdict and check_config_integrality(cfg).verdict
    bad = _doctored(family.table, i, extra)
    doctored = dataclasses.replace(family, given=(family.rn, bad))
    lemma = f"rho_{i} lemma"
    with pytest.raises(IntegralityError, match=lemma):
        family_form(doctored)
    rep = integrality_check(inst, doctored)
    assert not rep.verdict and lemma in rep.observed
    monkeypatch.setattr(forms, "partial_fractions", lambda rn: bad)
    rep = check_config_integrality(cfg)
    assert not rep.verdict and lemma in rep.observed


def test_config_integrality_checks_rho_zero_where_chi_vanishes(monkeypatch):
    # the p-units j <= D with chi(j) = 0 carry no weight in the form, so the
    # sweep checks C rho_(0,j/D) there itself
    cfg = next(c for c in random_small_configurations(count=50)
               if c.mode == "L" and c.chi.modulus == 3 and c.params.p == 2)
    assert check_config_integrality(cfg).verdict
    seen = []

    def fake_rho_zero(table, x):
        seen.append(x)
        return Q(1, 1_000_003)

    monkeypatch.setattr(catalog, "rho_zero", fake_rho_zero)
    rep = check_config_integrality(cfg)
    D = cfg.params.D
    assert seen == [Q(j, D) for j in range(3, D + 1, 6)]
    assert not rep.verdict and rep.observed.startswith("violations: [('rho0', '3/")


def test_the_catalog_takes_one_sum_per_identity_and_one_form_per_family(monkeypatch):
    # the valuation check reads the identity's sum from the table, and the
    # identity and the integrality check share the family's form; run_catalog
    # builds its own families, so no sum is kept from another test
    counts = {"integrals": 0, "forms": 0}
    integral, family_form = forms.integral_mahler, forms.family_form

    def counting_integral(f, *args, **kwargs):
        counts["integrals"] += isinstance(f, forms.ShiftedRn)
        return integral(f, *args, **kwargs)

    def counting_form(family):
        counts["forms"] += 1
        return family_form(family)

    monkeypatch.setattr(forms, "integral_mahler", counting_integral)
    monkeypatch.setattr(forms, "family_form", counting_form)
    reports = list(catalog.run_catalog())
    assert counts == {"integrals": 10, "forms": 5}
    assert all(rep.verdict for rep in reports)
    # the identity is certified first, yet reported where it always was
    L = ["valuation-formula", "fj-integral", "fj-integral"]
    tail = ["growth-bound", "integrality"]
    assert [rep.name for rep in reports] == (
        L + ["chi-congruence"] * 3 + tail + ["form-identity"]
        + L + tail + ["form-identity"] + L + tail + ["form-identity"]
        + ["hurwitz-identity"] + tail + tail)


def test_a_refused_fj_request_builds_no_table(monkeypatch, capsys):
    # the stride is tested before R_n is built: n = 62 would take seconds
    from padicforms import cli

    def unreachable(*args):
        raise AssertionError("R_n was built")

    monkeypatch.setattr(forms, "build_rn", unreachable)
    monkeypatch.setattr(forms, "partial_fractions", unreachable)
    code = cli.dispatch(["verify", "fj-integral", "--p", "2", "--s", "64", "--l", "2",
                         "--n", "62"])
    assert code == 3 and "p^(l+r) = 4 must divide n+1" in capsys.readouterr().err
