import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.catalog import MINI_DESK, InstanceWorkspace
from padicforms.errors import NonSplitDenominator
from padicforms.forms import build_rn, hurwitz_params, partial_fractions
from padicforms.polynomials import (MAX_POWER_DEGREE, Poly, RationalFunction,
                                    _rational_roots, parse_rational_function, series_inv,
                                    series_mul, series_pow, series_trunc)


def test_poly_basics():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert (p + q).coeffs == (Q(1), Q(3), Q(3))
    assert (p * q).coeffs == (Q(0), Q(1), Q(2), Q(3))
    assert p(2) == 1 + 4 + 12
    assert p.derivative().coeffs == (Q(2), Q(6))
    assert Poly([0, 0]).is_zero() and Poly().degree() == -1


def test_poly_shift():
    p = Poly([0, 0, 1])  # t^2
    assert p.shift(3).coeffs == (Q(9), Q(6), Q(1))  # (t+3)^2
    rng = random.Random(0)
    for _ in range(10):
        p = Poly([rng.randint(-5, 5) for _ in range(6)])
        c = Q(rng.randint(-4, 4), rng.randint(1, 4))
        t = Q(rng.randint(-9, 9), rng.randint(1, 5))
        assert p.shift(c)(t) == p(t + c)


def test_poly_divmod_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        a = Poly([rng.randint(-6, 6) for _ in range(7)])
        b = Poly([rng.randint(-6, 6) for _ in range(4)] + [1])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree()


def test_from_roots_and_content():
    p = Poly.from_roots([1, Q(1, 2)])
    assert p(1) == 0 and p(Q(1, 2)) == 0
    content, prim = Poly([Q(2, 3), Q(4, 3)]).content_primitive()
    assert content == Q(2, 3) and prim == [1, 2]


def test_series_ops():
    L = 8
    a = series_trunc([Q(1), Q(2), Q(3)], L)
    inv = series_inv(a, L)
    assert series_mul(a, inv, L) == series_trunc([Q(1)], L)
    sq = series_pow(a, 2, L)
    assert sq[:3] == [Q(1), Q(4), Q(10)]
    assert series_pow(a, -1, L) == inv
    with pytest.raises(ZeroDivisionError):
        series_inv([Q(0), Q(1)], 4)


def _inv_oracle(a, L):
    """The inverse by its term-by-term recurrence (reference for series_pow)."""
    if not a or a[0] == 0:
        raise ZeroDivisionError("series has no inverse: constant term vanishes")
    inv0 = 1 / a[0]
    out = [Q(0)] * L
    out[0] = inv0
    for k in range(1, L):
        acc = Q(0)
        top = min(k, len(a) - 1)
        for j in range(1, top + 1):
            if a[j]:
                acc += a[j] * out[k - j]
        out[k] = -inv0 * acc
    return out


def _pow_oracle(a, e, L):
    """a^e by repeated squaring, through the inverse for e < 0 (reference)."""
    if e < 0:
        return _pow_oracle(_inv_oracle(a, L), -e, L)
    out = series_trunc([Q(1)], L)
    base = series_trunc(a, L)
    while e:
        if e & 1:
            out = series_mul(out, base, L)
        base = series_mul(base, base, L)
        e >>= 1
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=8),
       st.integers(-8, 12), st.integers(1, 16))
def test_series_pow_matches_squaring_oracle(zeros, tail, e, L):
    a = [Q(0)] * zeros + tail
    if e < 0 and (not a or a[0] == 0):
        with pytest.raises(ZeroDivisionError):
            _pow_oracle(a, e, L)
        with pytest.raises(ZeroDivisionError):
            series_pow(a, e, L)
        return
    assert series_pow(a, e, L) == _pow_oracle(a, e, L)
    if e == -1:
        assert series_inv(a, L) == _inv_oracle(a, L)


def _oracle_table_rows(rn):
    """r_(i,k) through the squaring oracle: the series of R_n(t) (t+k)^s per pole."""
    pr, s = rn.params, rn.params.s
    cols = []
    for k in range(rn.n + 1):
        out = series_trunc([Q(rn.prefactor)], s)
        out = series_mul(out, _pow_oracle(rn.binom_poly.shift(-k).coeffs, pr.Q, s), s)
        if rn.mono_exp:
            mono = Poly([-pr.D * k, pr.D]) ** rn.mono_exp
            out = series_mul(out, series_trunc(mono.coeffs, s), s)
        cof = Poly.from_roots([k - j for j in range(rn.n + 1) if j != k])
        inv = _inv_oracle(series_trunc(cof.coeffs, s), s)
        out = series_mul(out, _pow_oracle(inv, pr.s, s), s)
        cols.append([out[s - i] for i in range(1, s + 1)])
    return tuple(tuple(cols[k][i - 1] for k in range(rn.n + 1)) for i in range(1, s + 1))


def test_partial_fraction_tables_match_squaring_oracle():
    mini = InstanceWorkspace(MINI_DESK)
    hurwitz, _ = hurwitz_params(Q(2, 3), 3, 22, l=1)
    for rn in (mini.rn, build_rn(hurwitz, 2)):
        assert partial_fractions(rn).rows == _oracle_table_rows(rn)


def test_rational_function_eval_and_calc():
    f = RationalFunction(Poly([1]), Poly([0, 1]))  # 1/t
    assert f(2) == Q(1, 2)
    with pytest.raises(ZeroDivisionError):
        f(0)
    g = f.shift(3)  # 1/(t+3)
    assert g(1) == Q(1, 4)
    d = f.derivative()
    assert d(2) == Q(-1, 4)
    assert (f * g)(1) == Q(1, 4)
    assert f.degree() == -1 and RationalFunction(Poly([0])).degree() is None


def test_den_factorization():
    f = RationalFunction(Poly([1]), Poly.from_roots([Q(1, 2), Q(1, 2), -3]))
    lc, roots = f.den_factorization()
    assert roots == {Q(1, 2): 2, Q(-3): 1}
    with pytest.raises(NonSplitDenominator):
        RationalFunction(Poly([1]), Poly([1, 0, 1])).den_factorization()


def _derivative_pf_oracle(f: RationalFunction, c: Q, e: int):
    """[a_1..a_e] via a_i = (d/dt)^(e-i) [f (t-c)^e] / (e-i)! at t = c."""
    reduced_den, rem = f.den.divmod(Poly.from_roots([c]) ** e)
    assert rem.is_zero()
    g = RationalFunction(f.num, reduced_den)
    out = []
    for i in range(1, e + 1):
        k = e - i
        h = g
        for _ in range(k):
            h = h.derivative()
        out.append(h(c) / math.factorial(k))
    return out


def test_partial_fractions_against_derivative_oracle():
    rng = random.Random(5)
    for _ in range(8):
        roots = {Q(rng.randint(1, 4)): rng.randint(1, 3),
                 Q(-rng.randint(1, 3), 2): rng.randint(1, 2)}
        den = Poly([1])
        for c, e in roots.items():
            den = den * Poly.from_roots([c]) ** e
        num = Poly([rng.randint(-9, 9) for _ in range(den.degree() - 1)] or [1])
        f = RationalFunction(num, den)
        poly_part, terms = f.partial_fractions()
        assert poly_part.is_zero()
        for c, e in roots.items():
            assert terms[c] == _derivative_pf_oracle(f, c, e)


def test_partial_fractions_reconstruction():
    rng = random.Random(9)
    for _ in range(10):
        den = Poly.from_roots([1, 1, -2, Q(5, 2)])
        num = Poly([rng.randint(-9, 9) for _ in range(4)])
        f = RationalFunction(num, den)
        poly_part, terms = f.partial_fractions()
        for t in (Q(7, 3), Q(-13, 4), Q(11)):
            acc = poly_part(t)
            for c, alphas in terms.items():
                for i, a in enumerate(alphas, start=1):
                    acc += a / (t - c) ** i
            assert acc == f(t)


def test_parser():
    f = parse_rational_function("(1/5+t)^-1")
    assert f(0) == 5 and f(1) == Q(5, 6)
    g = parse_rational_function("3*t^2 - 1/2")
    assert g(2) == Q(23, 2)
    h = parse_rational_function("(1/4+t)^-2*(3/4+t)^-1 + t")
    assert h(1) == 1 / (Q(5, 4) ** 2 * Q(7, 4)) + 1
    assert parse_rational_function("-t")(3) == -3
    with pytest.raises(ValueError):
        parse_rational_function("t +")
    with pytest.raises(ValueError):
        parse_rational_function("u + 1")


def test_parser_caps_the_degree_of_a_power():
    assert parse_rational_function(f"t^{MAX_POWER_DEGREE}")(1) == 1
    assert parse_rational_function("(1/5+t)^-100")(0) == 5 ** 100
    for text in (f"t^{MAX_POWER_DEGREE + 1}", "t^5000000", "(t^2)^300",
                 "(1/5+t)^-501", "2^100000000000"):
        with pytest.raises(ValueError):
            parse_rational_function(text)


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, in increasing order."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _divisor_search_roots(prim):
    """Every rational root of a primitive integer polynomial, by trial of
    each num/den with num | a0 and den | an (the old search; the oracle)."""
    coeffs = [int(c) for c in prim.coeffs]
    roots = [Q(0)] if coeffs[0] == 0 else []
    while coeffs[0] == 0:
        coeffs = coeffs[1:]

    def vanishes(num, den):  # den^deg P(num/den) = 0, in integers
        return sum(c * num ** k * den ** (len(coeffs) - 1 - k)
                   for k, c in enumerate(coeffs)) == 0

    for num in divisors(abs(coeffs[0])):
        for den in divisors(abs(coeffs[-1])):
            if math.gcd(num, den) == 1:
                roots.extend(Q(a, den) for a in (num, -num) if vanishes(a, den))
    return roots


_small_rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 30))


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(_small_rationals, min_size=1, max_size=5, unique=True),
       mults=st.lists(st.integers(1, 3), min_size=5, max_size=5),
       quadratic=st.sampled_from([None, (2, 0, -1), (1, 1, 1), (5, 0, 3)]))
def test_rational_roots_match_divisor_search(roots, mults, quadratic):
    den = Poly.from_roots(roots)
    if quadratic is not None:
        den = den * Poly(list(reversed(quadratic)))
    prim = Poly(den.content_primitive()[1])
    assert _rational_roots(prim) == _divisor_search_roots(prim) \
        == sorted(roots, key=lambda x: (abs(x.numerator), x.denominator, x < 0))
    full = Poly.const(1)
    for root, m in zip(roots, mults):
        full = full * Poly.from_roots([root]) ** m
    if quadratic is None:
        _, found = RationalFunction(Poly([1]), full.scale(Q(3, 7))).den_factorization()
        assert found == dict(zip(roots, mults))
    else:
        with pytest.raises(NonSplitDenominator):
            RationalFunction(Poly([1]), full * Poly(list(reversed(quadratic)))) \
                .den_factorization()


def test_divisors_brute_force():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
