import dataclasses
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms.arith import lcm_upto
from padicforms.characters import (char_make, gen_bernoulli, quadratic_character,
                                   trivial_character)
from padicforms.cyclotomic import CyclotomicElement, PadicEmbedding
from padicforms.errors import DegreeError, DomainError, IntegralityError
from padicforms.forms import (build_rn, choose_params, family_form, form_scale,
                              hurwitz_family, hurwitz_params, hurwitz_variant_form,
                              lambda_form, partial_fractions, per_x_valuation_hint,
                              rho_higher, rho_zero, valuation_formula_rhs)
from padicforms.lambertw import ell_param, ln_interval
from padicforms.polynomials import Poly, RationalFunction


def test_ell_param_examples():
    assert ell_param(100, Q(1, 2), 1, 0, 2) == 1
    # certified floors agree with the defining inequalities for a spread of inputs
    import math as _m

    for s, eps, dp, r, p in ((100, Q(1, 2), 1, 0, 2), (1000, Q(1, 2), 1, 0, 2),
                             (5000, Q(1, 4), 3, 1, 3), (50, Q(1, 3), 1, 0, 5)):
        k = ell_param(s, eps, dp, r, p)
        y = 2 * s * eps / (3 * dp * Q(p) ** (r + 2))
        a_low, a_high = 2 * k * _m.log(p), 2 * (k + 1) * _m.log(p)
        assert a_low * _m.exp(a_low) <= float(y) < a_high * _m.exp(a_high) * 1.000001


@settings(max_examples=60, deadline=None)
@example(s=10 ** 400, epsilon=Q(1, 2), d_prime=1, r=0, p=2)
@given(s=st.integers(1, 10 ** 60),
       epsilon=st.fractions(min_value=Q(1, 100), max_value=1, max_denominator=100),
       d_prime=st.integers(1, 12), r=st.integers(0, 3),
       p=st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_ell_param_is_the_certified_floor(s, epsilon, d_prime, r, p):
    # (2k ln p) p^(2k) <= y < (2(k+1) ln p) p^(2(k+1)), with ln p bounded
    # from above on the left and from below on the right
    k = ell_param(s, epsilon, d_prime, r, p)
    y = 2 * s * epsilon / (3 * d_prime * Q(p) ** (r + 2))
    lnp = ln_interval(p, 200)
    assert k >= 0
    assert 2 * k * lnp.hi * Q(p) ** (2 * k) <= y
    assert y < 2 * (k + 1) * lnp.lo * Q(p) ** (2 * k + 2)


def test_choose_params_examples():
    triv = trivial_character()
    pr = choose_params(triv, 2, 16, l=1)
    assert (pr.Q, pr.D, pr.N(1), pr.N(3)) == (4, 2, 2, 6)
    assert pr.sigma(5) == 2 * 5 - 1
    pr4 = choose_params(quadratic_character(4), 2, 64, l=2)
    assert (pr4.Q, pr4.D, pr4.pQD) == (8, 4, 64)
    # default l for p = 2 is floored at 2
    auto = choose_params(triv, 2, 100, epsilon=Q(1, 2))
    assert auto.ell == 1 and auto.l == 2
    with pytest.raises(DomainError):
        choose_params(quadratic_character(4), 2, 64, l=1)  # l < l0


def test_form_parameters_derive_q_and_d():
    pr = choose_params(quadratic_character(4), 2, 64, l=2)
    assert not {"Q", "D"} & {f.name for f in dataclasses.fields(pr)}
    deeper = dataclasses.replace(pr, l=3)
    assert (deeper.Q, deeper.D) == (2 ** (pr.r + 4), pr.d_prime * 8)
    hw, _ = hurwitz_params(Q(1, 4), 2, 64, l=3)
    assert (hw.r, hw.Q, hw.D) == (0, 16, 8)


@pytest.mark.parametrize("x, p, l", [(Q(1, 4), 2, 2), (Q(3, 4), 2, 3), (Q(1, 3), 3, 1),
                                     (Q(2, 9), 3, 3), (Q(4, 5), 5, 2)])
def test_hurwitz_family_weights_the_translates_of_x0(x, p, l):
    # the numerators are the units j = j0 mod d up to D, each with weight 1
    pr, j0 = hurwitz_params(x, p, 30, l=l)
    d = x.denominator
    family = hurwitz_family(pr, x)
    assert [j for j, _ in family.weights] == [j0 + d * k for k in range(p ** (l - pr.l0))]
    assert [j for j, _ in family.weights] == [j for j in range(1, pr.D + 1)
                                              if math.gcd(j, p) == 1 and j % d == j0]
    assert all(w == 1 for _, w in family.weights)


def test_hurwitz_family_form_and_right_side_weights():
    # tilde lambda_i = C rho_i D^i, and lambda_i f_i = C rho_i P^(i+1)/i
    x = Q(3, 4)
    pr, j0 = hurwitz_params(x, 2, 66, l=3)
    table = partial_fractions(build_rn(pr, 1))
    family = hurwitz_family(pr, x)
    form = family_form(family, table)
    C, P = form_scale(pr.s, 1), 2 ** (pr.l - pr.l0)
    assert form.coeffs[0] == sum(C * rho_zero(table, Q(j0 + 4 * k, pr.D)) for k in range(P))
    for i in range(1, pr.s + 1):
        rho = rho_higher(table, i)
        assert form.coeffs[i] == C * rho * pr.D ** i
        assert form.coeffs[i] * family.factor(i) == C * rho * Q(P) ** (i + 1) / i


def test_build_rn_closed_form():
    pr = choose_params(trivial_character(), 2, 16, l=1)
    rn = build_rn(pr, 1)
    assert rn.degree() == -22
    for t in (Q(1, 3), Q(7, 5), Q(-5, 2)):
        assert rn.evaluate(t) == 64 * (2 * t + 1) ** 4 / (t ** 14 * (t + 1) ** 12)


def test_build_rn_degree_error():
    pr = choose_params(trivial_character(), 2, 4, l=2)
    with pytest.raises(DegreeError):
        build_rn(pr, 1)


def test_hurwitz_mode_monomial_absent():
    from padicforms.arith import multinomial_packed, rising_factorial

    pr, j0 = hurwitz_params(Q(1, 4), 2, 64, l=2)
    assert (pr.delta, pr.r, pr.Q, j0) == (-2, 0, 8, 1)
    rn = build_rn(pr, 1)
    t = Q(1, 3)
    want = (multinomial_packed(pr.N(1), 1) ** pr.Q
            * rn.binom_poly(t) ** pr.Q / rising_factorial(t, 2) ** 64)
    assert rn.evaluate(t) == want  # no (Dt)^(2+delta) factor


def test_partial_fractions_toy_cases():
    # 1/(t(t+1)) has r_(1,0) = 1, r_(1,1) = -1
    f = RationalFunction(Poly([1]), Poly([0, 1]) * Poly([1, 1]))
    poly_part, terms = f.partial_fractions()
    assert terms[Q(0)] == [Q(1)] and terms[Q(-1)] == [Q(-1)]
    # n!/(t)_(n+1) = sum (-1)^m binom(n, m)/(t+m)
    for n in range(1, 6):
        den = Poly.from_roots([-j for j in range(n + 1)])
        g = RationalFunction(Poly([math.factorial(n)]), den)
        _, gt = g.partial_fractions()
        for m in range(n + 1):
            assert gt[Q(-m)] == [Q((-1) ** m * math.comb(n, m))]


def test_partial_fractions_reconstruction_and_residues(desk):
    ws = desk.workspace("p2-mini")
    rn, table = ws.rn, ws.table
    assert table.residue_sum() == 0
    rng = random.Random(42)
    for _ in range(20):
        t = Q(rng.randint(1, 400), rng.randint(1, 60))
        assert table.reconstruct(t) == rn.evaluate(t)


def test_rho_toy_values():
    from padicforms.forms import PartialFractionTable

    toy = PartialFractionTable(n=1, s=1, rows=((Q(1), Q(-1)),))
    assert rho_higher(toy, 1) == 0
    assert rho_zero(toy, Q(1, 2)) == 4
    zero_row = PartialFractionTable(n=1, s=2, rows=((Q(1), Q(-1)), (Q(0), Q(0))))
    assert rho_higher(zero_row, 2) == 0
    n0 = PartialFractionTable(n=0, s=1, rows=((Q(5),),))
    assert rho_zero(n0, Q(7)) == 0  # empty inner range
    with pytest.raises(DomainError):
        rho_zero(toy, Q(0))


def test_rho_x_independence(desk):
    table = desk.workspace("p2-mini").table
    before = [rho_higher(table, i) for i in range(1, 17)]
    rho_zero(table, Q(1, 2))
    rho_zero(table, Q(7, 3))
    assert [rho_higher(table, i) for i in range(1, 17)] == before


def test_per_coefficient_integrality_bound(desk):
    # (s-i)! d_n^(s-i) r_(i,k) is an integer for every single coefficient;
    # the table-free Mahler tail floors rest on this
    for key, n in (("p2-mini", 1), ("p2-trivial", 3), ("p3-trivial", 2)):
        ws = desk.workspace(key)
        dn = lcm_upto(n)
        s = ws.params.s
        for i in range(1, s + 1):
            scale = math.factorial(s - i) * dn ** (s - i)
            for k in range(n + 1):
                assert (scale * ws.table.r(i, k)).denominator == 1, (key, i, k)


def test_mini_desk_integrality(desk):
    ws = desk.workspace("p2-mini")
    pr, table = ws.params, ws.table
    # (s-i)! d_n^(s-i) rho_i integral for every i; scale at i = 16 is 1
    assert rho_higher(table, 16).denominator == 1
    dn = lcm_upto(table.n)
    for i in range(1, pr.s + 1):
        scaled = math.factorial(pr.s - i) * dn ** (pr.s - i) * rho_higher(table, i)
        assert scaled.denominator == 1
    c = math.factorial(pr.s - 1) * dn ** (pr.s - 1)
    for j in (1,):
        assert (c * rho_zero(table, Q(j, pr.D))).denominator == 1
    form = lambda_form(pr, table, ws.chi)
    assert all(isinstance(x, Q) and x.denominator == 1 for x in form.coeffs)


def test_lambda_defining_ratios(desk):
    ws = desk.workspace("p2-mini")
    pr, table = ws.params, ws.table
    form = lambda_form(pr, table, ws.chi)
    C = Q(math.factorial(pr.s - 1) * lcm_upto(table.n) ** (pr.s - 1))
    for i in range(1, pr.s + 1):
        rho = rho_higher(table, i)
        if rho:
            assert form.coeffs[i] / rho == C * Q(pr.D) ** (i + 1)


def test_valuation_formula_rhs_frozen(desk):
    # each term assembled exactly; the desk values are pinned
    triv = trivial_character()
    pr2 = desk.workspace("p2-trivial").params
    assert valuation_formula_rhs(pr2, 3, triv) == 623
    pr3 = desk.workspace("p3-trivial").params
    assert valuation_formula_rhs(pr3, 2, triv) == 263
    assert per_x_valuation_hint(pr2, 3) == 622


@pytest.mark.parametrize("p, s, l, n, want", [(5, 628, 1, 4, 3239), (13, 24, 1, 1, 26412)])
def test_valuation_formula_rhs_quartic_character(p, s, l, n, want):
    # B_(3,chi) of the order-4 character mod 5 is irrational; its valuation
    # under the default embedding is read from a 200-digit image
    i = CyclotomicElement.zeta(4)
    chi = char_make(5, {1: CyclotomicElement.one(4), 2: i, 3: -i,
                        4: CyclotomicElement.from_rational(-1, 4)})
    head = gen_bernoulli(3, chi).embed(PadicEmbedding.default(p, 4, 200), 200)
    pr = choose_params(chi, p, s, l=l)
    assert valuation_formula_rhs(pr, n, chi) == \
        per_x_valuation_hint(pr, n) + l + head.valuation() == want


def test_hurwitz_variant_with_shift_reduction():
    # x = 9/4 reduces to 1/4 with two corrections; small s keeps this cheap
    rep = hurwitz_variant_form(2, Q(9, 4), 18, n=1, l=2, digits=8)
    assert rep.x_reduced == Q(1, 4) and len(rep.corrections) == 2
    assert rep.identity.agrees and rep.identity.relative_digits >= 8
    assert rep.omega_rational == 1
    assert all(c.denominator == 1 for c in rep.coeffs_rational)


def test_hurwitz_variant_rejects_small_norm():
    with pytest.raises(DomainError):
        hurwitz_variant_form(2, Q(1, 2), 18, n=1, l=1)


def _binom_poly(m):
    return Poly.from_roots(list(range(m))).scale(Q(1, math.factorial(m))) \
        if m else Poly([1])


@pytest.mark.parametrize("lam", [0, 1, 2, 3])
def test_integer_valued_binomial_products(lam):
    # d_n^lam * lam-th derivative of mp(m; n) binom(t, m) takes integer
    # values on the integers (sampled over t in -10..10, n <= 4, m <= 9)
    from padicforms.arith import multinomial_packed

    for n in range(1, 5):
        dn = lcm_upto(n)
        for m in range(1, 10):
            base = _binom_poly(m).scale(multinomial_packed(m, n))
            poly = base
            for _ in range(lam):
                poly = poly.derivative()
            for t in range(-10, 11):
                assert (dn ** lam * poly(t)).denominator == 1, (n, m, lam, t)


def test_pole_removed_binomial_product_counterexample():
    # mp(m; n) binom(t, m)/(t-k+1) is NOT integer-valued in general:
    # at (m, n, k) = (4, 2, 1) the product is (t-1)(t-2)(t-3)/4, which
    # takes the value -3/2 at t = 0. The packed multinomial does not
    # absorb the removed linear factor's denominator contribution.
    base = _binom_poly(4).scale(6)  # mp(4; 2) = 6
    quot, rem = base.divmod(Poly([0, 1]))
    assert rem.is_zero()
    assert quot(0) == Q(-3, 2)


@pytest.mark.parametrize("lam", [0, 1, 2, 3])
def test_integer_valued_split_binomial_products(lam):
    # the factored form behind the pole-removed products:
    # d_n^lam * derivatives of
    #   mp(k-1; n) binom(t, k-1) * mp(m-k; n) binom(t-k, m-k)
    # are integer-valued; this is the shape the rho_0 integrality uses
    from padicforms.arith import multinomial_packed

    for n in range(1, 5):
        dn = lcm_upto(n)
        for m in range(1, 10):
            for k in range(1, m + 1):
                left = _binom_poly(k - 1).scale(multinomial_packed(k - 1, n)) \
                    if k > 1 else Poly([1])
                right = _binom_poly(m - k).shift(-k) \
                    .scale(multinomial_packed(m - k, n)) if k < m else Poly([1])
                poly = left * right
                for _ in range(lam):
                    poly = poly.derivative()
                for t in range(-10, 11):
                    assert (dn ** lam * poly(t)).denominator == 1, (n, m, k, lam, t)
