import math
import random
from fractions import Fraction as Q

import pytest

from padicforms.errors import NonSplitDenominator
from padicforms.polynomials import (Poly, RationalFunction, divisors,
                                    parse_rational_function, series_inv, series_mul,
                                    series_pow, series_trunc)


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


def test_divisors_brute_force():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
