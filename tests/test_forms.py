import dataclasses
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms.arith import batch_invert, lcm_upto, vp, vp_int
from padicforms.characters import (char_make, character_from_spec, gen_bernoulli,
                                   quadratic_character, trivial_character)
from padicforms.cyclotomic import CyclotomicElement, value_to_padic
from padicforms.errors import DegreeError, DomainError, PrecisionError
from padicforms.forms import (HINT_SPREAD, PartialFractionTable, ShiftedRn, build_rn,
                              choose_params, family_form, form_identity, form_scale,
                              hurwitz_family, hurwitz_params, hurwitz_variant_form, lambda_form,
                              lvalue_family, partial_fractions, per_x_valuation_hint, rho_higher,
                              rho_zero, valuation_formula_rhs, weighted_integral_sum)
from padicforms.hurwitz import unit_weights
from padicforms.lambertw import ell_param, ln_interval
from padicforms.padic import Padic
from padicforms.polynomials import Poly, RationalFunction
from padicforms.volkenborn import PoleData, integral_mahler
from test_cli import QUARTIC_JSON
from test_polynomials import poly_from_roots
from test_volkenborn import fraction_residues, residues_outcome


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
    family = hurwitz_family(pr, x, 1)
    assert [j for j, _ in family.weights] == [j0 + d * k for k in range(p ** (l - pr.l0))]
    assert [j for j, _ in family.weights] == [j for j in range(1, pr.D + 1)
                                              if math.gcd(j, p) == 1 and j % d == j0]
    assert all(w == 1 for _, w in family.weights)


def test_hurwitz_family_form_and_right_side_weights():
    # tilde lambda_i = C rho_i D^i, and lambda_i f_i = C rho_i P^(i+1)/i
    x = Q(3, 4)
    pr, j0 = hurwitz_params(x, 2, 66, l=3)
    family = hurwitz_family(pr, x, 1)
    table, form = family.table, family.form
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


# (a character spec, or x0 for the Hurwitz family; p; l)
_RN_FAMILIES = (("trivial", 2, 2), ("quadratic:4", 2, 2), ("trivial", 3, 1),
                (Q(1, 4), 2, 2), (Q(3, 4), 2, 2), (Q(2, 3), 3, 1), (Q(1, 9), 3, 2))


def _decaying_params(family, n, extra):
    """The parameters of family at s = extra above the least s with a decaying R_n."""
    head, p, l = family

    def params(s):
        if isinstance(head, str):
            return choose_params(character_from_spec(head), p, s, l=l)
        return hurwitz_params(head, p, s, l=l)[0]

    s = 2
    while params(s).rn_degree(n) >= -1:
        s += 1
    return params(s + extra)


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(_RN_FAMILIES), extra=st.integers(0, 24), n=st.integers(1, 2),
       j=st.integers(-40, 40), w=st.sampled_from((Q(1), Q(-1), Q(5, 7))),
       count=st.integers(1, 10), offset=st.integers(-3, 1), rel=st.integers(1, 200))
@example(family=("trivial", 2, 2), extra=2, n=1, j=0, w=Q(1), count=3, offset=0, rel=8)
@example(family=("trivial", 2, 2), extra=2, n=1, j=-3, w=Q(1), count=4, offset=0, rel=8)
@example(family=(Q(1, 4), 2, 2), extra=3, n=1, j=1, w=Q(1), count=4, offset=1, rel=8)
def test_shifted_rn_residues_match_fraction_values(family, extra, n, j, w, count, offset,
                                                   rel):
    # the one-weight integrand w R_n(t + j/D) at s = extra above the least s
    # with a decaying R_n, so every example builds; the examples (s = 20) hit
    # a pole at an integer (j = 0), zeros of binom(Dt + N, N) (j = -3) and a
    # violated floor (offset 1)
    p = family[1]
    pr = _decaying_params(family, n, extra)
    rn = build_rn(pr, n)
    f = ShiftedRn(rn, ((j, w),))

    def exact(a):
        return w * rn.evaluate(Q(j, pr.D) + a)

    values = []
    for a in range(count):
        try:
            values.append(exact(a))
        except ZeroDivisionError:
            break
    v_floor = min((vp(v, p) for v in values if v), default=0) + offset
    assert residues_outcome(lambda: f.residues(count, p, v_floor, rel)) \
        == residues_outcome(lambda: fraction_residues(exact, count, p, v_floor, rel))


def per_factor_residues(f, count, p, v_floor, rel):
    """f.residues by the retired kernel, the oracle for ShiftedRn.residues:
    every factor of R_n(j/D + a) is split into a power of p and a unit on its
    own, each shift's bottoms are inverted together, and the shifts are
    added one row at a time."""
    rn, pr = f.rn, f.rn.params
    D, N, q, s, mono = pr.D, rn.N, pr.Q, pr.s, rn.mono_exp
    mod = p ** rel

    def split(z):
        v = vp_int(z, p)
        return v, z // p ** v

    def shift_residues(x):
        u, w = x.numerator, x.denominator
        e = (rn.n + 1) * s - N * q - mono
        v_top, c_top = split(rn.prefactor * w ** max(e, 0))
        v_bot, c_bot = split(math.factorial(N) ** q * w ** max(-e, 0))
        v_c, c_unit = v_top - v_bot, c_top * pow(c_bot, -1, mod) % mod
        tops, bottoms = [], []
        for a in range(count):
            m = u + w * a
            v_den, u_den = 0, 1
            for i in range(rn.n + 1):
                if m + i * w == 0:
                    raise DomainError(f"integrand has a pole at the integer {a}")
                v, unit = split(m + i * w)
                v_den, u_den = v_den + v, u_den * unit
            k, r = divmod(-D * m, w)
            if r == 0 and 1 <= k <= N:  # the factor D m + k w vanishes
                tops.append(0)
                bottoms.append(1)
                continue
            v_bin, u_bin = 0, 1
            for k in range(1, N + 1):
                v, unit = split(D * m + k * w)
                v_bin, u_bin = v_bin + v, u_bin * unit
            v_mono, u_mono = split(D * m)
            v = v_c + q * v_bin + mono * v_mono - s * v_den
            if v < v_floor:
                raise PrecisionError("supplied coefficient floors are violated")
            tops.append(pow(p, v - v_floor, mod) * c_unit % mod * pow(u_bin, q, mod)
                        % mod * pow(u_mono, mono, mod) % mod)
            bottoms.append(pow(u_den, s, mod))
        return [t * b % mod for t, b in zip(tops, batch_invert(bottoms, mod))]

    total = [0] * count
    for j, weight in unit_weights(f.weights, p, 0, rel):
        row = shift_residues(Q(j, D))
        total = [(t + weight * r) % mod for t, r in zip(total, row)]
    return total


_WEIGHTS = st.lists(st.tuples(st.integers(-40, 40), st.sampled_from((Q(1), Q(-1), Q(5, 7)))),
                    min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(family=st.sampled_from(_RN_FAMILIES), extra=st.integers(0, 24), n=st.integers(1, 3),
       weights=_WEIGHTS, count=st.integers(1, 40), offset=st.integers(-3, 1),
       rel=st.integers(1, 300))
@example(family=("trivial", 2, 2), extra=2, n=1, weights=[(1, Q(1)), (-3, Q(-1))], count=4,
         offset=0, rel=8)
@example(family=("trivial", 2, 2), extra=2, n=1, weights=[(1, Q(1)), (0, Q(1))], count=3,
         offset=0, rel=8)
@example(family=(Q(1, 4), 2, 2), extra=3, n=1, weights=[(1, Q(1)), (3, Q(5, 7))], count=4,
         offset=1, rel=8)
@example(family=("trivial", 2, 2), extra=2, n=1, weights=[(1, Q(1)), (3, Q(-1))], count=5,
         offset=-1, rel=30)
def test_shifted_rn_residues_match_the_per_factor_kernel(family, extra, n, weights, count,
                                                         offset, rel):
    # the products split once against every factor split on its own, over
    # sums of shifts, at s = extra above the least s with a decaying R_n; the
    # examples hit a vanishing factor D m + k w (j = -3), a pole at an
    # integer (j = 0), a violated floor (offset 1) and values one power of p
    # above the floor (offset -1)
    p = family[1]
    pr = _decaying_params(family, n, extra)
    rn = build_rn(pr, n)
    f = ShiftedRn(rn, tuple(weights))
    values = []
    for j, _ in weights:
        for a in range(count):
            try:
                values.append(rn.evaluate(Q(j, pr.D) + a))
            except ZeroDivisionError:
                break
    v_floor = min((vp(v, p) for v in values if v), default=0) + offset
    assert residues_outcome(lambda: f.residues(count, p, v_floor, rel)) \
        == residues_outcome(lambda: per_factor_residues(f, count, p, v_floor, rel))


def per_unit_sum(rn, weights, precision, table):
    """sum_j w_j Int R_n(t + j/D) as one certified integral per unit, each
    multiplied by w_j in Q_p: the oracle for weighted_integral_sum."""
    pr = rn.params
    acc = Padic.zero(pr.p, precision)
    for j, w in weights:
        poles = [PoleData(location=-(Q(j, pr.D) + k), floors=floors)
                 for k, floors in enumerate(table.floors(pr.p))]
        I = integral_mahler(ShiftedRn(rn, ((j, Q(1)),)), pr.p, precision, pole_data=poles)
        acc = acc + I * value_to_padic(w, pr.p, I.relative_precision())
    return acc


# (a character spec, or x0 for the Hurwitz family; p; s; l; n)
_SUM_SHAPES = (("trivial", 2, 18, 2, 1), ("quadratic:4", 2, 70, 3, 1),
               ("quadratic:3", 3, 30, 1, 2), ("trivial", 3, 82, 1, 2),
               (Q(1, 4), 2, 25, 2, 3), (Q(3, 4), 2, 66, 3, 1), (Q(2, 3), 3, 19, 1, 2),
               (QUARTIC_JSON, 5, 128, 1, 3))


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(_SUM_SHAPES), extra=st.integers(-10, 30))
@example(shape=(QUARTIC_JSON, 5, 128, 1, 4), extra=HINT_SPREAD + 20)
def test_weighted_integral_sum_matches_one_integral_per_unit(shape, extra):
    # one integral of sum_j w_j R_n(t + j/D) is the sum of the per-unit
    # integrals, whether its weights are 1, +-1 or irrational in Q(i)
    head, p, s, l, n = shape
    if isinstance(head, str):
        chi = character_from_spec(head)
        pr = choose_params(chi, p, s, l=l)
        family = lvalue_family(pr, chi, n)
    else:
        pr = hurwitz_params(head, p, s, l=l)[0]
        family = hurwitz_family(pr, head, n)
    rn, table = family.rn, family.table
    precision = max(1, per_x_valuation_hint(pr, n) + extra)
    assert weighted_integral_sum(rn, family.weights, precision, table) \
        == per_unit_sum(rn, family.weights, precision, table)


# admissible shapes: a decaying R_n and the integral domain l >= vp(q_p);
# quadratic:3 at (3, 82, 1, 2) is one that no catalog entry covers
_KEPT_SHAPES = tuple(shape for shape in _SUM_SHAPES if shape[0] != QUARTIC_JSON) \
    + (("quadratic:3", 3, 82, 1, 2), ("quadratic:4", 2, 64, 2, 3))


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(_KEPT_SHAPES), extra=st.integers(-10, 30),
       deeper=st.integers(0, 25))
@example(shape=("quadratic:3", 3, 82, 1, 2), extra=HINT_SPREAD + 1, deeper=20)
def test_a_kept_sum_read_by_truncation_equals_a_fresh_sum(shape, extra, deeper):
    # the oracle is a fresh table per request, so nothing is kept between them
    head, p, s, l, n = shape
    if isinstance(head, str):
        chi = character_from_spec(head)
        family = lvalue_family(choose_params(chi, p, s, l=l), chi, n)
    else:
        family = hurwitz_family(hurwitz_params(head, p, s, l=l)[0], head, n)
    rn, table, weights = family.rn, family.table, family.weights
    shallow = max(1, per_x_valuation_hint(family.params, n) + extra)
    deep = weighted_integral_sum(rn, weights, shallow + deeper, table)
    kept = weighted_integral_sum(rn, weights, shallow, table)
    assert table._sums[(p, weights)] == deep  # the shallow request took no integral
    assert kept == weighted_integral_sum(rn, weights, shallow, partial_fractions(rn))
    assert kept == deep.at_precision(shallow) and kept.prec == shallow


def test_weighted_integral_sum_refuses_a_weight_that_is_not_a_unit():
    # the floors of R_n bound a sum of shifts only under unit weights
    pr = choose_params(trivial_character(), 3, 82, l=1)
    rn = build_rn(pr, 2)
    table = partial_fractions(rn)
    for weight in (Q(3), Q(1, 3), Q(0)):
        with pytest.raises(DomainError, match="not a p-adic unit"):
            weighted_integral_sum(rn, ((1, Q(1)), (2, weight)), 300, table)


def test_weighted_integral_sum_reads_rn_from_its_integer_factors(monkeypatch):
    # the catalog shape p = 2, s = 64, n = 3: no exact value of R_n and no
    # rational reduced mod p^k on the way to the certified sum
    import sys

    from padicforms import forms, padic

    calls = {"evaluate": 0, "fraction_mod_pk": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(forms.RnFunction, "evaluate",
                        counting("evaluate", forms.RnFunction.evaluate))
    original = padic.fraction_mod_pk
    for name, module in list(sys.modules.items()):
        if name.startswith("padicforms") and getattr(module, "fraction_mod_pk", None) is original:
            monkeypatch.setattr(module, "fraction_mod_pk", counting("fraction_mod_pk", original))
    chi = trivial_character()
    pr = choose_params(chi, 2, 64, l=2)
    rn = build_rn(pr, 3)
    total = weighted_integral_sum(rn, lvalue_family(pr, chi, 3).weights, 760,
                                  partial_fractions(rn))
    assert total.prec == 760 and total.valuation() == valuation_formula_rhs(pr, 3)
    assert calls == {"evaluate": 0, "fraction_mod_pk": 0}


@pytest.mark.parametrize("spec, p, s, l, n", [
    ("trivial", 2, 18, 2, 1), ("quadratic:4", 2, 70, 3, 1), (Q(3, 4), 2, 17, 2, 1),
    (Q(2, 3), 3, 19, 1, 2)])
def test_form_identity_asks_for_every_value_at_once(monkeypatch, spec, p, s, l, n):
    # one values() call covers every nonzero lambda_i; at l = 3 the L-values
    # still sum at D = 2^2, while the left side integrates at D = 2^3, in one
    # integral whose poles are those of every shift, at the floors vp(r_(i,k))
    from padicforms import forms

    if isinstance(spec, Q):
        pr, _ = hurwitz_params(spec, p, s, l=l)
        family = hurwitz_family(pr, spec, n)
    else:
        pr = choose_params(character_from_spec(spec), p, s, l=l)
        family = lvalue_family(pr, character_from_spec(spec), n)
    table, form = family.table, family.form
    asked, poles = [], []

    def values(precisions):
        asked.append(dict(precisions))
        return family.values(precisions)

    def integral(f, p, precision, pole_data):
        poles.append([(pd.location, pd.floors) for pd in pole_data])
        return integral_mahler(f, p, precision, pole_data=pole_data)

    monkeypatch.setattr(forms, "integral_mahler", integral)
    report = form_identity(dataclasses.replace(family, values=values,
                                               given=(family.rn, table)), 12)
    assert report.agrees and report.relative_digits >= 12
    assert len(asked) == 1
    assert asked[0].keys() == {i for i, c in enumerate(form.coeffs) if i and c != 0}
    assert table.floors(p) is table.floors(p)
    floors = [tuple(vp(table.rows[i - 1][k], p) for i in range(1, s + 1)) for k in range(n + 1)]
    assert 1 <= len(poles) <= 2
    assert all(data == [(-(Q(j, pr.D) + k), floors[k]) for j, _ in family.weights
                        for k in range(n + 1)] for data in poles)


def _sum_precisions(monkeypatch):
    """The precision of every weighted_integral_sum that form_identity takes."""
    from padicforms import forms

    asked = []
    original = forms.weighted_integral_sum

    def counting(rn, weights, precision, table):
        asked.append(precision)
        return original(rn, weights, precision, table)

    monkeypatch.setattr(forms, "weighted_integral_sum", counting)
    return asked


def _hurwitz_shape():
    # x0 = 1/4 at p = 2, s = 25, n = 3: the least s with a decaying R_n, and
    # the stride p^l = 4 divides n + 1, so vp(S) is predicted
    x0 = Q(1, 4)
    pr, _ = hurwitz_params(x0, 2, 25, l=2)
    return hurwitz_family(pr, x0, 3)


def test_form_identity_states_exactly_the_requested_digits(monkeypatch):
    # under its hypotheses the family predicts vp(S) exactly, so one sum
    # modulo p^(predicted + digits) leaves exactly `digits` digits
    family = _hurwitz_shape()
    predicted = family.predicted
    asked = _sum_precisions(monkeypatch)
    for digits in (1, 7, 20):
        report = form_identity(family, digits)
        assert report.agrees and report.relative_digits == digits
        assert report.observed_valuation == predicted + vp(form_scale(25, 3), 2)
        assert report.modulus_exp == report.observed_valuation + digits
    assert asked == [predicted + digits for digits in (1, 7, 20)]


def test_form_identity_takes_the_sum_at_most_twice(monkeypatch):
    family = _hurwitz_shape()
    true = family.predicted
    asked = _sum_precisions(monkeypatch)

    def starting_at(start):
        return dataclasses.replace(family, predicted=start,
                                   given=(family.rn, family.table))

    # a start 5 below vp(S) leaves 15 digits, so S is taken again at vp(S) + 20
    report = form_identity(starting_at(true - 5), 20)
    assert asked == [true + 15, true + 20]
    assert report.agrees and report.relative_digits == 20
    # a start above vp(S) only adds digits
    asked.clear()
    report = form_identity(starting_at(true + 3), 20)
    assert asked == [true + 23]
    assert report.agrees and report.relative_digits == 23
    # a left side that vanishes modulo p^(start + digits) names that modulus
    asked.clear()
    with pytest.raises(PrecisionError, match=rf"modulo p\^{true - 5}, p = 2"):
        form_identity(starting_at(true - 25), 20)
    assert asked == [true - 5]


def test_form_identity_without_a_prediction_starts_at_the_hint_spread(monkeypatch):
    # p = 2, s = 59, n = 2, quadratic:4 breaks the hypotheses (s < pQD), and
    # its vp(S) sits the full HINT_SPREAD above the single-integral hint
    chi = quadratic_character(4)
    pr = choose_params(chi, 2, 59, l=2)
    family = lvalue_family(pr, chi, 2)
    assert family.predicted is None
    asked = _sum_precisions(monkeypatch)
    report = form_identity(family, 20)
    hint = per_x_valuation_hint(pr, 2)
    assert asked == [hint + HINT_SPREAD + 20]
    assert report.observed_valuation - vp(form_scale(59, 2), 2) == hint + HINT_SPREAD
    assert report.agrees and report.relative_digits == 20


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
            * _binom_poly(rn.N)(pr.D * t + rn.N) ** pr.Q / rising_factorial(t, 2) ** 64)
    assert rn.evaluate(t) == want  # no (Dt)^(2+delta) factor


def test_partial_fractions_toy_cases():
    # 1/(t(t+1)) has r_(1,0) = 1, r_(1,1) = -1
    f = RationalFunction(Poly([1]), Poly([0, 1]) * Poly([1, 1]))
    poly_part, terms = f.partial_fractions()
    assert terms[Q(0)] == [Q(1)] and terms[Q(-1)] == [Q(-1)]
    # n!/(t)_(n+1) = sum (-1)^m binom(n, m)/(t+m)
    for n in range(1, 6):
        den = poly_from_roots([-j for j in range(n + 1)])
        g = RationalFunction(Poly([math.factorial(n)]), den)
        _, gt = g.partial_fractions()
        for m in range(n + 1):
            assert gt[Q(-m)] == [Q((-1) ** m * math.comb(n, m))]


def test_partial_fractions_reconstruction_and_residues(desk):
    family = desk.family("p2-mini")
    rn, table = family.rn, family.table
    assert rho_higher(table, 1) == 0  # the residues sum to 0
    rng = random.Random(42)
    for _ in range(20):
        t = Q(rng.randint(1, 400), rng.randint(1, 60))
        assert reconstruct(table, t) == rn.evaluate(t)


def reconstruct(table, t):
    """sum_(i,k) r_(i,k) / (t+k)^i, the rational function a table describes."""
    acc = Q(0)
    for i in range(1, table.s + 1):
        for k in range(table.n + 1):
            c = table.rows[i - 1][k]
            if c:
                acc += c / (Q(t) + k) ** i
    return acc


def table_from_rows(n, s, rows):
    """The table whose coefficients r_(i,k) are rows[i-1][k], any rationals."""
    rows = [[Q(c) for c in row] for row in rows]
    den = math.lcm(*(c.denominator for row in rows for c in row))
    return PartialFractionTable(n=n, s=s, den=den,
                                nums=tuple(tuple(c.numerator * (den // c.denominator)
                                                 for c in row) for row in rows))


def test_rho_toy_values():
    toy = table_from_rows(1, 1, ((Q(1), Q(-1)),))
    assert rho_higher(toy, 1) == 0
    assert rho_zero(toy, Q(1, 2)) == 4
    zero_row = table_from_rows(1, 2, ((Q(1), Q(-1)), (Q(0), Q(0))))
    assert rho_higher(zero_row, 2) == 0
    n0 = table_from_rows(0, 1, ((Q(5),),))
    assert rho_zero(n0, Q(7)) == 0  # empty inner range
    with pytest.raises(DomainError):
        rho_zero(toy, Q(0))


def _rho_zero_double_loop(table, x):
    """rho_(0,x) with each suffix sum over k > v summed afresh (reference)."""
    acc = Q(0)
    for v in range(table.n):
        base = v + x
        if base == 0:
            raise DomainError(f"x = {x} hits the pole at v = {v}")
        inv = 1 / base
        power = inv * inv
        for i in range(1, table.s + 1):
            weight = Q(0)
            for k in range(v + 1, table.n + 1):
                weight += table.rows[i - 1][k]
            if weight:
                acc += i * weight * power
            power *= inv
    return -acc


_small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 5), s=st.integers(1, 6), data=st.data(),
       x=st.one_of(_small_fractions, st.integers(-6, 1).map(Q)))
def test_rho_zero_matches_double_loop(n, s, data, x):
    rows = tuple(tuple(data.draw(st.lists(_small_fractions, min_size=n + 1, max_size=n + 1)))
                 for _ in range(s))
    table = table_from_rows(n, s, rows)
    try:
        want = _rho_zero_double_loop(table, x)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            rho_zero(table, x)
        assert str(got.value) == str(exc)
        return
    assert rho_zero(table, x) == want


def test_rho_zero_matches_double_loop_on_desk_tables(desk):
    for key in ("p2-mini", "p2-trivial", "p3-trivial"):
        family = desk.family(key)
        for j in (1, family.params.D - 1):
            x = Q(j, family.params.D)
            assert rho_zero(family.table, x) == _rho_zero_double_loop(family.table, x), (key, j)


def test_rho_x_independence(desk):
    table = desk.family("p2-mini").table
    before = [rho_higher(table, i) for i in range(1, 17)]
    rho_zero(table, Q(1, 2))
    rho_zero(table, Q(7, 3))
    assert [rho_higher(table, i) for i in range(1, 17)] == before


def test_per_coefficient_integrality_bound(desk):
    # (s-i)! d_n^(s-i) r_(i,k) is an integer for every single coefficient;
    # the table-free Mahler tail floors rest on this
    for key, n in (("p2-mini", 1), ("p2-trivial", 3), ("p3-trivial", 2)):
        family = desk.family(key)
        dn = lcm_upto(n)
        s = family.params.s
        for i in range(1, s + 1):
            scale = math.factorial(s - i) * dn ** (s - i)
            for k in range(n + 1):
                assert (scale * family.table.rows[i - 1][k]).denominator == 1, (key, i, k)


def test_mini_desk_integrality(desk):
    family = desk.family("p2-mini")
    pr, table = family.params, family.table
    # (s-i)! d_n^(s-i) rho_i integral for every i; scale at i = 16 is 1
    assert rho_higher(table, 16).denominator == 1
    dn = lcm_upto(table.n)
    for i in range(1, pr.s + 1):
        scaled = math.factorial(pr.s - i) * dn ** (pr.s - i) * rho_higher(table, i)
        assert scaled.denominator == 1
    c = math.factorial(pr.s - 1) * dn ** (pr.s - 1)
    for j in (1,):
        assert (c * rho_zero(table, Q(j, pr.D))).denominator == 1
    form = lambda_form(pr, table, desk.instance("p2-mini").chi())
    assert all(isinstance(x, Q) and x.denominator == 1 for x in form.coeffs)


# the catalog instances, and the forms build shapes of README and test_cli
LEMMA_SHAPES = [("p2-trivial", None), ("p3-trivial", None), ("p2-quad4", None),
                ("p2-hurwitz", None), ("p2-mini", None),
                ("trivial", (2, 18, 2, 1, None)), ("hurwitz", (2, 18, 2, 1, Q(1, 4)))]


@pytest.mark.parametrize("key,shape", LEMMA_SHAPES, ids=[k for k, _ in LEMMA_SHAPES])
def test_integrality_lemma_on_catalog_and_build_shapes(desk, key, shape):
    # (s-i)! d_n^(s-i) rho_i for every i and C rho_(0,j/D) at every p-unit j <= D
    # are integers, and family_form accepts the table
    if shape is None:
        family = desk.family(key)
    else:
        p, s, l, n, x = shape
        pr = (choose_params(trivial_character(), p, s, l=l) if x is None
              else hurwitz_params(x, p, s, l=l)[0])
        family = (lvalue_family(pr, trivial_character(), n) if x is None
                  else hurwitz_family(pr, x, n))
    pr, table, n = family.params, family.table, family.n
    for i in range(1, pr.s + 1):
        assert (form_scale(pr.s - i + 1, n) * rho_higher(table, i)).denominator == 1, i
    C = form_scale(pr.s, n)
    for j in range(1, pr.D + 1):
        if math.gcd(j, pr.p) == 1:
            assert (C * rho_zero(table, Q(j, pr.D))).denominator == 1, j
    family_form(family)


def test_lambda_defining_ratios(desk):
    family = desk.family("p2-mini")
    pr, table = family.params, family.table
    form = lambda_form(pr, table, desk.instance("p2-mini").chi())
    C = Q(math.factorial(pr.s - 1) * lcm_upto(table.n) ** (pr.s - 1))
    for i in range(1, pr.s + 1):
        rho = rho_higher(table, i)
        if rho:
            assert form.coeffs[i] / rho == C * Q(pr.D) ** (i + 1)


def test_valuation_formula_rhs_frozen(desk):
    # each term assembled exactly; the desk values are pinned
    pr2 = desk.family("p2-trivial").params
    assert valuation_formula_rhs(pr2, 3) == 623
    pr3 = desk.family("p3-trivial").params
    assert valuation_formula_rhs(pr3, 2) == 263
    assert per_x_valuation_hint(pr2, 3) == 622


@pytest.mark.parametrize("p, s, l, n, want", [(5, 628, 1, 4, 3239), (13, 24, 1, 1, 26412)])
def test_valuation_formula_rhs_quartic_character(p, s, l, n, want):
    # B_(3,chi) of the order-4 character mod 5 is irrational; its valuation
    # under the embedding of K is read from a 200-digit image
    i = CyclotomicElement.zeta(4)
    chi = char_make(5, {1: CyclotomicElement.one(4), 2: i, 3: -i,
                        4: CyclotomicElement.from_rational(-1, 4)})
    head = gen_bernoulli(3, chi).embed(p, 200)
    pr = choose_params(chi, p, s, l=l)
    assert valuation_formula_rhs(pr, n) == \
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
    return poly_from_roots(list(range(m))).scale(Q(1, math.factorial(m))) \
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
