import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicforms.arith import bernoulli_poly, vp
from padicforms.characters import (char_make, character_from_spec, chi_padic_data, chi_units,
                                   gen_bernoulli, quadratic_character, trivial_character)
from padicforms import cyclotomic
from padicforms.cyclotomic import CyclotomicElement, value_to_padic
from padicforms.errors import DomainError, EmbeddingError
from padicforms.heights import HeightMatrix, delta_p_valuation
from padicforms.hurwitz import (check_hurwitz_domain, lp_value, lp_values,
                                reduce_to_unit_interval, twisted_zeta, zeta_p_nonpos,
                                zeta_p_pos)
from padicforms.padic import Padic, phi_qp, qp, teichmuller
from padicforms.polynomials import MAX_POWER_DEGREE, Poly, RationalFunction
from padicforms.volkenborn import integral_pole_powers, integral_riemann
from test_padic import angle


def test_domain_validation():
    check_hurwitz_domain(Q(1, 5), 5)
    check_hurwitz_domain(Q(3, 4), 2)
    with pytest.raises(DomainError):
        check_hurwitz_domain(Q(1, 2), 2)  # |x|_2 = 2 < 4
    with pytest.raises(DomainError):
        check_hurwitz_domain(Q(2, 3), 5)  # |x|_5 = 1
    with pytest.raises(DomainError):
        zeta_p_pos(1, Q(1, 5), 5, 4)


def test_nonpositive_precision_rejected():
    for precision in (0, -1):
        with pytest.raises(DomainError):
            zeta_p_pos(2, Q(1, 5), 5, precision)
        with pytest.raises(DomainError):
            lp_value(2, trivial_character(), 5, 1, precision=precision)
        with pytest.raises(DomainError):
            lp_value(-1, trivial_character(), 5, 1, precision=precision)


def test_zeta_pos_base_value():
    out = zeta_p_pos(2, Q(1, 5), 5, 6)
    assert out.zeta.agrees(Padic.from_fraction(1, 5, 1))
    assert out.twisted.agrees(Padic.from_fraction(5, 5, 2))
    # untwisted = omega(x)^(s-1) * twisted; for x = 1/5, omega(x) = 1/5 exactly
    assert out.zeta.agrees(out.twisted.mul_fraction(Q(1, 5)), out.zeta.prec)
    # precision contract: >= the requested absolute precision
    for s, n_req in ((2, 6), (5, 9), (6, 7)):
        got = zeta_p_pos(s, Q(1, 5), 5, n_req)
        assert got.twisted.prec >= n_req


def test_zeta_pos_vs_riemann_oracle():
    # zeta_2(3, 1/4): the twisted integral against the level-10 Riemann sums
    x = Q(1, 4)
    out = zeta_p_pos(3, x, 2, 12)
    integral = out.twisted.mul_fraction(2)  # = Int (x+t)^(-2)
    f = RationalFunction(Poly([1]), Poly([x, 1]) ** 2)
    rie = integral_riemann(f, 2, 10, precision=10)
    diff = integral - rie
    assert diff.is_zero_at_precision() or diff.valuation() >= 6


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(2, 40), st.integers(1, 3),
       st.integers(0, 20), st.integers(1, 6), st.integers(1, 30))
def test_zeta_pos_keeps_the_requested_digits(p, s, h, a, r, precision):
    # omega(x)^(s-1) has valuation -(s-1)h, so twisted carries (s-1)h more digits
    h = max(h, 2) if p == 2 else h
    x = Q(a * p + 1 + r % (p - 1), p ** h)
    out = zeta_p_pos(s, x, p, precision)
    assert out.zeta.prec == precision and out.twisted.prec >= precision + (s - 1) * h
    assert out.zeta.agrees(zeta_p_pos(s, x, p, precision + 5).zeta, precision)
    # the Riemann sums match the integral within the wavelet bound s h - 1
    integral = out.twisted.mul_fraction(s - 1)
    f = RationalFunction(Poly([1]), Poly([x, 1]) ** (s - 1))
    cert = min(s * h - 1, integral.prec)
    assert integral.agrees(integral_riemann(f, p, 3, precision=cert), cert)


def test_zeta_nonpos_values():
    split = zeta_p_nonpos(0, Q(1, 5), 5)
    assert split.exact() == Q(3, 2)
    # formula instantiation at i = -1: -omega(x)^(-2) (x^2 - x + 1/6)/2
    split2 = zeta_p_nonpos(-1, Q(3, 4), 2)
    x = Q(3, 4)
    assert split2.rational == -(x * x - x + Q(1, 6)) / 2
    assert split2.exponent == -2
    out = split2.padic(8)
    # omega(3/4) = -1/4, so the value is exactly rational here too
    assert split2.exact() == -(Q(1, 16)) ** -1 * (x * x - x + Q(1, 6)) / 2


def _zeta_shift_sides(i, x, p, precision=None):
    """Both sides of the shift identity zeta_p(i, x+1) - zeta_p(i, x) = -<x>^(1-i)/x.

    The left side is the program's zeta_p at x + 1 and at x. For i <= 0
    both sides are omega(x)^(i-1) times a rational, since omega(x+1) =
    omega(x) on the Hurwitz domain, and the two rationals are returned;
    for i >= 2 both sides are Padics.
    """
    if i <= 0:
        n = 1 - i
        shifted, base = zeta_p_nonpos(i, x + 1, p), zeta_p_nonpos(i, x, p)
        assert shifted.exponent == base.exponent == -n
        return shifted.rational - base.rational, -x ** (n - 1)
    lhs = zeta_p_pos(i, x + 1, p, precision).zeta - zeta_p_pos(i, x, p, precision).zeta
    rel = precision + max(0, -int(vp(x, p)) * abs(1 - i)) + 4
    return lhs, (angle(x, p, rel) ** (1 - i)).mul_fraction(-1 / x)


def test_zeta_shift_exact_branch():
    for i in (0, -1, -4):
        lhs, rhs = _zeta_shift_sides(i, Q(1, 5), 5)
        assert lhs == rhs
    # both sides -omega(x)^(-2) x at i = -1
    assert _zeta_shift_sides(-1, Q(1, 4), 2) == (-Q(1, 4), -Q(1, 4))


def test_zeta_shift_positive_branch():
    lhs, rhs = _zeta_shift_sides(2, Q(1, 5), 5, precision=6)
    k = min(lhs.prec, rhs.prec)
    assert k >= 4 and lhs.agrees(rhs, k)
    with pytest.raises(DomainError):  # zeta_p_pos refuses the pole s = 1
        _zeta_shift_sides(1, Q(1, 5), 5, precision=6)


def test_reduce_to_unit_interval():
    x0, corr = reduce_to_unit_interval(Q(9, 4), 2)
    assert x0 == Q(1, 4)
    assert corr == [(Q(5, 4), -1), (Q(1, 4), -1)]
    x1, corr1 = reduce_to_unit_interval(Q(-3, 5), 5)
    assert x1 == Q(2, 5) and corr1 == [(Q(-3, 5), 1)]
    # correction identity: zeta(i, x) = zeta(i, x0) + sum sign <y>^(1-i)/y for i <= 0
    for i in (0, -2):
        n = 1 - i
        lhs = zeta_p_nonpos(i, Q(9, 4), 2)
        rhs = zeta_p_nonpos(i, x0, 2).rational
        for y, sign in corr:
            rhs += sign * y ** (n - 1)  # <y>^(1-i)/y = y^(n-1) omega(y)^(-n)
        assert lhs.rational == rhs


def test_lp_value_negative_exact():
    triv = trivial_character()
    assert lp_value(-1, triv, 5, l=1) == Q(1, 3)
    # interpolation against the twisted Bernoulli formula
    for chi in (triv, quadratic_character(3), quadratic_character(4)):
        for p in (2, 3, 5):
            for i in (-1, -2, -3):
                n = 1 - i
                got = lp_value(i, chi, p, l=max(1, _l0(chi, p)))
                want = (1 - chi.value(p) * Q(p) ** (-i)) * (-gen_bernoulli(n, chi) / n)
                assert got == want


def _l0(chi, p):
    return int(vp(Q(chi.conductor), p))


def test_lp_value_l_stability():
    triv = trivial_character()
    q3 = quadratic_character(3)
    for chi, p in ((triv, 3), (q3, 5), (q3, 2)):
        base = lp_value(-2, chi, p, l=max(1, _l0(chi, p)))
        for l in (2, 3):
            assert lp_value(-2, chi, p, l=l) == base
    # positive branch: stable mod p^4 when l grows
    a = lp_value(2, triv, 3, l=1, precision=6)
    b = lp_value(2, triv, 3, l=2, precision=6)
    assert a.agrees(b, 4)


def test_lp_value_positive_p2_l1_equals_l2():
    # at p = 2 every sum runs at D = d' 4, so l = 1 is read there too
    for chi in (trivial_character(), quadratic_character(3)):
        v = lp_value(2, chi, 2, l=1, precision=6)
        assert v.prec == 6 and v == lp_value(2, chi, 2, l=2, precision=6)


def test_lp_value_irrational_omega_power():
    # p = 5, residual odd omega exponent: value comes back as a Padic
    triv = trivial_character()
    v = lp_value(-1, triv, 5, l=1, omega_exp=1, precision=8)
    assert isinstance(v, Padic)
    # doubling the exponent lands back on the exact branch
    w = lp_value(-1, triv, 5, l=1, omega_exp=2)
    assert w == Q(1, 3)


def test_lp_value_rejects_i_one():
    with pytest.raises(DomainError):
        lp_value(1, trivial_character(), 5, l=1)


def _quartic_character():
    """The order-4 character mod 5 with chi(2) = i."""
    i = CyclotomicElement.zeta(4)
    return char_make(5, {1: CyclotomicElement.one(4), 2: i, 3: -i,
                         4: CyclotomicElement.from_rational(-1, 4)})


def test_lp_value_quartic_character_l_stability():
    # the embedding of K sends chi(2) = i to omega(2), so chi = omega there
    # and each value is also an L-value of the trivial character
    chi, triv = _quartic_character(), trivial_character()
    for i, omega_exp, triv_exp in ((2, None, 0), (3, 1, 2), (-1, 1, 2)):
        a, b, c = (value_to_padic(v, 5, 10) if not isinstance(v, Padic) else v
                   for v in (lp_value(i, chi, 5, 1, omega_exp=omega_exp, precision=10),
                             lp_value(i, chi, 5, 2, omega_exp=omega_exp, precision=10),
                             lp_value(i, triv, 5, 1, omega_exp=triv_exp, precision=10)))
        assert a.prec == 10 and a == b == c, (i, omega_exp)


def test_default_embedding_lifts_its_root_once_per_precision(monkeypatch):
    # the embedding of K is exact and shared, so a matrix over Q(i) lifts
    # its root of unity once, and an L-value never twice to one precision
    lifts = []

    def counting(x, p, prec):
        lifts.append(prec)
        return teichmuller(x, p, prec)

    monkeypatch.setattr(cyclotomic, "teichmuller", counting)
    monkeypatch.setattr(cyclotomic, "_LIFTS", {})
    i4 = CyclotomicElement.zeta(4)
    M = HeightMatrix([[2 - i4, 1 + i4, 3], [i4, Q(0), 2 + i4]], field_m=4)
    xi = [Padic.from_fraction(Q(k), 5, 20) for k in (1, 5, 7)]
    delta_p_valuation(M, xi, 5)
    assert len(lifts) == 1
    chi = _quartic_character()
    for i in (-1, 3):
        cyclotomic._LIFTS.clear()
        lifts.clear()
        lp_value(i, chi, 5, 3, omega_exp=1, precision=30)
        assert 1 <= len(lifts) == len(set(lifts)), (i, lifts)


def test_lp_value_quartic_character_interpolation():
    # L_p(1-n, chi omega^n) = -(1 - chi(p) p^(n-1)) B_(n,chi)/n, exact in K = Q(i)
    # also where K does not embed in Q_p (p = 2, 3, 7); chi(5) = 0 drops the factor
    chi = _quartic_character()
    for p in (2, 3, 5, 7):
        for i in (0, -1, -2, -3):
            n = 1 - i
            want = -(1 - chi.value(p) * Q(p) ** (n - 1)) * gen_bernoulli(n, chi) / n
            assert lp_value(i, chi, p, 1) == want, (p, i)
    # the positive branch goes through Q_p, so there it still needs the embedding
    with pytest.raises(EmbeddingError):
        lp_value(2, chi, 3, 1)


def test_twisted_zeta_caps_the_bernoulli_index():
    # B_(1-i) costs about (1-i)^3; the cap is the CLI's, MAX_POWER_DEGREE = 500
    cap = 1 - MAX_POWER_DEGREE
    assert cap == -499
    assert zeta_p_nonpos(cap, Q(1, 5), 5).rational == twisted_zeta(cap, Q(1, 5), 5)
    assert isinstance(lp_value(cap, trivial_character(), 5, 1), Q)
    with pytest.raises(DomainError, match="Bernoulli index"):
        zeta_p_nonpos(cap - 1, Q(1, 5), 5)
    with pytest.raises(DomainError, match="Bernoulli index"):
        lp_value(cap - 1, trivial_character(), 5, 1)


def test_lvalues_and_zeta_state_the_requested_precision():
    # asked at l = 6, the sum still runs at D = 5^l_min with l_min = 1, over
    # 4 units; vp(D^(-i)) = -i l_min, so it is taken modulo p^(N + i l_min),
    # and a term omega(j)^e B_n(j/D)/n of valuation -n l_min - vp(n) still
    # reaches p^N
    triv = trivial_character()
    v = lp_value(-4, triv, 5, 6, omega_exp=0, precision=12)
    assert v.prec == 12
    assert v.agrees(lp_value(-4, triv, 5, 6, omega_exp=0, precision=40), 12)
    assert lp_value(-24, triv, 5, 6, omega_exp=0, precision=12).prec == 12
    # zeta_3(-2, 2/9) = -omega(x)^(-3) B_3(x)/3 has valuation -vp(3) = -1
    split = zeta_p_nonpos(-2, Q(2, 9), 3)
    v = split.padic(10)
    assert v.prec == 10 and v.val == -1 and v.agrees(split.padic(30), 10)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(1, 12), st.integers(1, 3),
       st.integers(-40, 40), st.integers(0, 11), st.integers(1, 30))
def test_omega_split_padic_is_absolute(p, n, h, a, r, precision):
    h = max(h, 2) if p == 2 else h
    x = Q(a * p + 1 + r % (p - 1), p ** h)  # any unit residue, so omega(x) may be irrational
    split = zeta_p_nonpos(1 - n, x, p)
    v = split.padic(precision)
    assert v.prec == precision and v.agrees(split.padic(precision + 7), precision)
    if split.exact() is not None:
        assert v == Padic.from_fraction(split.exact(), p, precision)


# -- the L-value before it was one sum: two branches with guard digits, kept as an oracle


def _oracle_omega_power(j, e, p):
    """omega(j)^e as +-1 when that power is rational, else None."""
    e %= phi_qp(p)
    if e == 0:
        return 1
    if p == 2:
        return 1 if j % 4 == 1 else -1
    r = pow(j, e, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    return None


def _oracle_lp_value(i, chi, p, l, omega_exp=None, precision=20):
    if omega_exp is None:
        omega_exp = 1 - i
    data = chi_padic_data(chi, p)
    assert l >= max(1, data.l0)
    # the decomposition needs q_p | D, so at p = 2 the sum runs at l >= 2
    D = data.d_prime * p ** max(l, 2 if p == 2 else 1)
    if i <= 0:
        return _oracle_nonpositive(i, chi, p, D, omega_exp, precision)
    return _oracle_positive(i, chi, p, D, omega_exp, precision)


def _oracle_nonpositive(i, chi, p, D, omega_exp, precision):
    n = 1 - i
    e_res = (omega_exp - n) % phi_qp(p)
    bn = bernoulli_poly(n)
    rational_total = Q(0)
    padic_terms = []
    all_exact = True
    for j, c in chi_units(chi, D, p):
        b = bn(Q(j, D))
        w = _oracle_omega_power(j, e_res, p)
        if w is None:
            all_exact = False
            padic_terms.append((c, b, j))
        else:
            rational_total = rational_total + c * (w * b)
    scale = -(Q(D) ** (n - 1)) / n
    if all_exact:
        out = rational_total * scale
        if isinstance(out, CyclotomicElement) and out.is_rational():
            return out.rational_value()
        return out
    guard = precision + 6
    acc = Padic.zero(p, guard)
    acc = acc + value_to_padic(rational_total, p, guard)
    for c, b, j in padic_terms:
        w = teichmuller(Q(j), p, guard) ** e_res
        acc = acc + w.mul_fraction(b) * value_to_padic(c, p, guard)
    return acc.mul_fraction(scale).at_precision(
        min(precision, acc.prec + int(vp(scale, p))))


def _oracle_positive(i, chi, p, D, omega_exp, precision):
    e_res = (omega_exp + i - 1) % phi_qp(p)
    order = i - 1
    v_shift = -i * int(vp(Q(D), p))
    target = precision - v_shift + int(vp(Q(order), p)) + 4
    acc = Padic.zero(p, precision - v_shift + 4)
    for j, c in chi_units(chi, D, p):
        term = integral_pole_powers(Q(j, D), p, {order: target})[order].mul_fraction(Q(1, order))
        w = _oracle_omega_power(j, e_res, p)
        if w is None:
            term = term * teichmuller(Q(j), p, term.relative_precision() + 2) ** e_res
        elif w == -1:
            term = -term
        acc = acc + term * value_to_padic(c, p, term.relative_precision())
    out = acc.mul_fraction(Q(1, D) ** i)
    return out.at_precision(min(out.prec, precision))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["trivial", "quadratic:3", "quadratic:4", "quadratic:5",
                        "quadratic:8", "quartic"]),
       st.sampled_from([2, 3, 5, 7, 13]),
       st.integers(-8, 8).filter(lambda i: i != 1), st.integers(0, 2),
       st.one_of(st.none(), st.integers(-6, 6)), st.integers(1, 30))
@example("quadratic:4", 2, -1, 1, 1, 10)  # p = 2 with omega(j)^e = -1 at j = 3 mod 4
@example("trivial", 2, 3, 0, 1, 10)
@example("quartic", 13, -3, 2, 2, 12)  # omega(j)^e irrational, chi irrational
def test_lp_value_agrees_with_the_two_branch_oracle(spec, p, i, extra, omega_exp, precision):
    chi = _quartic_character() if spec == "quartic" else character_from_spec(spec)
    l = max(1, int(vp(Q(chi.conductor), p))) + extra  # l = 1 at p = 2 too
    while l > 1 and chi.conductor * p ** l > 3000:  # keep each sum small
        l -= 1
    try:
        want = _oracle_lp_value(i, chi, p, l, omega_exp, precision)
    except EmbeddingError:  # the oracle reads vp(B_(2+delta,chi)) through Q_p
        assume(False)
    got = lp_value(i, chi, p, l, omega_exp=omega_exp, precision=precision)
    if isinstance(want, Padic):
        assert isinstance(got, Padic) and got.prec == precision
        assert got.agrees(want, want.prec)
    else:
        assert not isinstance(got, Padic) and got == want


# -- the nonpositive branch against the Kubota-Leopoldt interpolation


def _omega(p):
    """(omega, g): omega the character mod q_p with omega(g^k) = zeta^k, zeta = zeta_phi(q_p).

    g is the residue that the embedding of Q(zeta) into Q_p sends zeta to,
    read back from value_to_padic, so omega(j) goes to the Teichmuller lift
    of j exactly when that image is the lift of g. For p = 2 and 3, zeta = -1
    and omega is the quadratic character of conductor q_p.
    """
    q, phi = qp(p), phi_qp(p)
    g = value_to_padic(CyclotomicElement.zeta(phi), p, 2).unit % q
    return char_make(q, {pow(g, k, q): CyclotomicElement.zeta(phi, k) for k in range(phi)}), g


def _interpolation_value(chi, p, i, omega_exp):
    """L_p(1-n, chi omega^k) = -(1 - psi(p) p^(n-1)) B_(n,psi)/n, n = 1 - i, k = omega_exp.

    psi is chi omega^(k-n) made primitive (Washington, Introduction to
    Cyclotomic Fields, Thm 5.11), with omega from _omega. So psi is a
    Dirichlet character of its own, and this value does not go through the
    Hurwitz decomposition. chi and omega must share a field or one be
    rational-valued.
    """
    n = 1 - i
    omega, _ = _omega(p)
    e = (omega_exp - n) % phi_qp(p)
    M = math.lcm(chi.modulus, omega.modulus)
    psi = char_make(M, {a: chi.value(a) * omega.value(a) ** e
                        for a in range(1, M + 1) if math.gcd(a, M) == 1})
    f = psi.conductor
    primitive = char_make(f, {a: psi.value(next(b for b in range(a, a + M * f, f)
                                                 if math.gcd(b, M) == 1))
                              for a in range(1, f + 1) if math.gcd(a, f) == 1})
    return -(1 - primitive.value(p) * Q(p) ** (n - 1)) * gen_bernoulli(n, primitive) / n


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["trivial", "quadratic:3", "quadratic:4", "quadratic:5",
                        "quadratic:8", "quartic"]),
       st.sampled_from([2, 3]), st.integers(-8, 0), st.integers(-6, 6),
       st.integers(0, 2), st.none())
@example("trivial", 2, -3, 3, 0, Q(0))
@example("quadratic:3", 2, -1, 1, 0, Q(-2))
@example("quadratic:5", 2, -7, 1, 0, Q(0))
@example("quadratic:5", 2, -5, 3, 0, Q(0))
@example("trivial", 2, -2, 0, 0, Q(-1, 2))
def test_lp_value_matches_the_interpolation_formula(spec, p, i, omega_exp, extra, want):
    # at p = 2 the sum needs 4 | D, whatever l it is asked at: l = 1 once gave
    # the five pinned cases wrong
    chi = _quartic_character() if spec == "quartic" else character_from_spec(spec)
    l = max(1, int(vp(Q(chi.conductor), p))) + extra
    got = lp_value(i, chi, p, l, omega_exp=omega_exp)
    assert got == _interpolation_value(chi, p, i, omega_exp)
    if want is not None:
        assert got == want


def test_lp_value_matches_the_interpolation_formula_at_p_from_5():
    # the whole grid, 924 cases: a fault in a few of them (one embedding at
    # p = 13, say) would slip past a random sample of it
    for p in (5, 7, 13):
        # here omega has values in Q(zeta_(p-1)) and meets lp_value's Teichmuller
        # weights only through the embedding, so pin that link first
        omega, g = _omega(p)
        assert omega.order == p - 1
        assert value_to_padic(CyclotomicElement.zeta(p - 1), p, 30) == teichmuller(g, p, 30)
        for spec in ("trivial", "quadratic:3", "quadratic:4"):
            chi = character_from_spec(spec)
            for n, k, extra in itertools.product(range(1, 8), range(p - 1), (0, 1)):
                l = max(1, int(vp(Q(chi.conductor), p))) + extra
                got = lp_value(1 - n, chi, p, l, omega_exp=k)
                want = _interpolation_value(chi, p, 1 - n, k)
                if isinstance(got, Padic):
                    assert got.prec == 20 and got.agrees(value_to_padic(want, p, 20)), \
                        (spec, p, n, k, extra)
                else:
                    assert got == want, (spec, p, n, k, extra)


@pytest.mark.parametrize("spec, p", [("trivial", 2), ("trivial", 5), ("quadratic:3", 3),
                                     ("quadratic:3", 7), ("quadratic:4", 2),
                                     ("quadratic:8", 3), ("quartic", 5), ("quartic", 13)])
def test_lp_values_is_lp_value_at_every_i(spec, p):
    # one sum over the units for every i, each at its own precision, against
    # the one-entry sum and the per-unit oracle
    chi = _quartic_character() if spec == "quartic" else character_from_spec(spec)
    l = max(2 if p == 2 else 1, int(vp(Q(chi.conductor), p))) + 1
    precisions = {2: 9, 3: 1, 5: 14, 6: 30, 9: 6}
    got = lp_values(chi, p, l, precisions)
    assert got.keys() == precisions.keys()
    for i, N in precisions.items():
        assert got[i].prec == N
        assert got[i] == lp_value(i, chi, p, l, precision=N), i
        assert got[i].agrees(_oracle_lp_value(i, chi, p, l, precision=N), N), i


def test_lp_values_refuses_what_lp_value_refuses():
    triv = trivial_character()
    assert lp_values(triv, 5, 1, {}) == {}
    for precisions in ({1: 5}, {0: 5}, {2: 0}, {2: 5, -1: 5}):
        with pytest.raises(DomainError):
            lp_values(triv, 5, 1, precisions)
    assert lp_values(triv, 2, 1, {2: 5}) == lp_values(triv, 2, 2, {2: 5})
    with pytest.raises(DomainError):
        lp_values(quadratic_character(5), 5, 0, {2: 5})


def test_nonpositive_zeta_refuses_x_outside_the_hurwitz_domain():
    # -omega(x)^(-n) B_n(x)/n needs omega(x+t) = omega(x) for t in Z_p
    for x, p in ((Q(1), 3), (Q(1, 2), 2), (Q(6), 2), (Q(2, 3), 5)):
        with pytest.raises(DomainError):
            zeta_p_nonpos(-1, x, p)
    assert zeta_p_nonpos(-1, Q(1, 3), 3).exact() is not None


# -- the positive branch against the Kubota-Leopoldt interpolation


def _agreement(v, w):
    """vp(v - w) for Padics known to the same precision, capped at it."""
    d = v - w
    return d.prec if d.val is None else d.val


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["trivial", "quadratic:3", "quadratic:4", "quadratic:5",
                        "quadratic:8", "quartic"]),
       st.sampled_from([2, 3, 5, 7]), st.integers(0, 2), st.integers(0, 1))
@example("quadratic:4", 2, 0, 0)
@example("trivial", 2, 1, 1)  # i = 5: at m = 1, vp(n_1) = 3 > vp(i - 1) = 2
@example("quartic", 5, 0, 1)
def test_lp_value_positive_rises_one_digit_per_congruence_level(spec, p, k, extra):
    # L_p(1-n, chi omega^(1-i)) = -(1 - chi(p) p^(n-1)) B_(n,chi)/n when
    # 1 - n = i mod phi(q_p), and L_p is p-adically continuous. With
    # n_m = 1 - i + phi(q_p) p^m u, u a unit, vp(i - (1 - n_m)) = vp(phi(q_p)) + m
    # exactly, so the agreement of L_p(i) with the exact value at 1 - n_m rises
    # by one digit per step of m. The steps are read from m = 1 (m = 0 may agree
    # by chance) and once vp(phi(q_p) p^m) > vp(i - 1): then vp(n_m) = vp(i - 1),
    # so the pole at s = 1 of a trivial twist shifts every agreement alike
    chi = _quartic_character() if spec == "quartic" else character_from_spec(spec)
    assume(spec != "quartic" or p == 5)  # Q(i) embeds in Q_5 only
    i = 3 + 2 * k - chi.delta  # chi omega^(1-i) even, else L_p vanishes
    N = 30
    value = lp_value(i, chi, p, max(1, int(vp(Q(chi.conductor), p))) + extra, precision=N)
    agreement = []
    m = max(1, int(vp(Q(i - 1), p) - vp(Q(phi_qp(p)), p)) + 1)
    while True:
        step, u = phi_qp(p) * p ** m, 1
        while 1 - i + step * u < 2 or u % p == 0:
            u += 1
        n = 1 - i + step * u
        if n > 500:  # gen_bernoulli stays at n <= 500
            break
        exact = -(1 - chi.value(p) * Q(p) ** (n - 1)) * gen_bernoulli(n, chi) / n
        agreement.append(_agreement(value, value_to_padic(exact, p, N)))
        m += 1
    assert len(agreement) >= 2 and max(agreement) < N, agreement
    assert all(b - a == 1 for a, b in zip(agreement, agreement[1:])), agreement
