import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.cyclotomic import (CyclotomicElement, PadicEmbedding, abs_norm,
                                   cyclotomic_polynomial, euler_phi, padic_valuation,
                                   resultant, scale_by_value, value_to_padic)
from padicforms.errors import EmbeddingError, IntegralityError, PrecisionError
from padicforms.cyclotomic import assert_integral
from padicforms.padic import Padic, teichmuller
from padicforms.polynomials import Poly


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 6, 8, 12)] == [1, 1, 2, 2, 2, 4, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == Poly([-1, 1])
    assert cyclotomic_polynomial(2) == Poly([1, 1])
    assert cyclotomic_polynomial(4) == Poly([1, 0, 1])
    assert cyclotomic_polynomial(6) == Poly([1, -1, 1])
    assert cyclotomic_polynomial(12) == Poly([1, 0, -1, 0, 1])


def test_resultant_small():
    # res(x^2+1, x+1) = (1+i)(1-i) = 2
    assert resultant(Poly([1, 0, 1]), Poly([1, 1])) == 2
    assert resultant(Poly([1, 0, 1]), Poly([5])) == 25


def test_norm_examples():
    one_plus_i = CyclotomicElement.from_rational(1, 4) + CyclotomicElement.zeta(4)
    assert one_plus_i.norm() == 2
    # rational element: norm = q^phi(m)
    for m in (3, 4, 8, 12):
        q = Q(-3, 7)
        assert CyclotomicElement.from_rational(q, m).norm() == q ** euler_phi(m)


def _random_element(rng, m):
    return CyclotomicElement(m, [Q(rng.randint(-5, 5), rng.randint(1, 4))
                                 for _ in range(euler_phi(m))])


@pytest.mark.parametrize("m", [3, 4, 5, 8, 12])
def test_norm_multiplicative(m):
    rng = random.Random(m)
    for _ in range(25):
        x, y = _random_element(rng, m), _random_element(rng, m)
        assert (x * y).norm() == x.norm() * y.norm()


@pytest.mark.parametrize("m", [3, 4, 8])
def test_inverse(m):
    rng = random.Random(m + 10)
    for _ in range(20):
        x = _random_element(rng, m)
        if x.is_zero():
            continue
        assert x * x.inverse() == 1


def test_zeta_powers():
    z = CyclotomicElement.zeta(12)
    assert z ** 12 == 1
    assert z ** 6 == -CyclotomicElement.one(12)
    assert CyclotomicElement.zeta(12, 5) == z ** 5


def test_embedding_default_and_embed():
    emb = PadicEmbedding.default(5, 4, 6)
    assert emb.root.agrees(teichmuller(2, 5, 6))  # omega(2) is a primitive 4th root
    i4 = CyclotomicElement.zeta(4)
    img = i4.embed(emb, 2)
    assert (img.val, img.unit % 25) == (0, 7)  # = 7 mod 25
    # ring homomorphism on samples
    rng = random.Random(3)
    for _ in range(10):
        x, y = _random_element(rng, 4), _random_element(rng, 4)
        lhs = (x * y).embed(emb, 4)
        rhs = x.embed(emb, 4) * y.embed(emb, 4)
        assert lhs.agrees(rhs, min(lhs.prec, rhs.prec))


def test_embedding_requires_roots_of_unity():
    with pytest.raises(EmbeddingError):
        PadicEmbedding.default(5, 3, 6)  # 3 does not divide 5 - 1
    with pytest.raises(EmbeddingError):
        PadicEmbedding(7, 3, Padic.from_fraction(2, 7, 6))  # 2 is not a cube root


def test_embedding_p2():
    emb = PadicEmbedding.default(2, 2, 5)
    assert emb.root.agrees(Padic.from_fraction(-1, 2, 5))


def test_assert_integral():
    assert_integral(Q(4), "ok")
    assert_integral(CyclotomicElement(4, [1, -2]), "ok")
    with pytest.raises(IntegralityError):
        assert_integral(Q(1, 2), "bad")
    with pytest.raises(IntegralityError):
        assert_integral(CyclotomicElement(4, [Q(1, 3), 0]), "bad")


def test_scale_by_value_paths():
    p = 5
    emb = PadicEmbedding.default(p, 4, 20)
    i = CyclotomicElement.zeta(4)
    for x in (Padic.from_fraction(Q(7, 25), p, 12), Padic.from_fraction(Q(3), p, 9),
              Padic.zero(p, 6)):
        assert scale_by_value(x, Q(1)) == x
        assert scale_by_value(x, Q(-1)) == -x
        assert scale_by_value(x, Q(2, 5)) == x.mul_fraction(Q(2, 5))
        # a rational element of Q(i) scales like its rational value
        assert scale_by_value(x, CyclotomicElement.from_rational(-1, 4)) == -x
        for c in (i, -i, i + 2):
            want = x * c.embed(emb, x.relative_precision() + 2)
            assert scale_by_value(x, c) == want
            assert scale_by_value(x, c, emb) == want
    assert value_to_padic(Q(3, 5), p, 4) == Padic.from_fraction(Q(3, 5), p, 4)
    assert value_to_padic(i, p, 8) == i.embed(emb, 8)


def test_value_to_padic_keeps_every_requested_digit():
    # p in the coordinate denominators used to cost two digits of precision
    x = CyclotomicElement(4, [Q(1, 5), Q(1, 25)])
    deep = x.embed(PadicEmbedding.default(5, 4, 60), 60)
    for prec in (5, 10, 20):
        got = value_to_padic(x, 5, prec)
        assert got.prec == prec and got == deep.at_precision(prec), prec


# (p, m) with m | p - 1, so that p splits completely in Q(zeta_m)
SPLIT_PAIRS = [(5, 4), (13, 4), (7, 3), (7, 6), (13, 12), (11, 5), (31, 10)]


@st.composite
def _split_elements(draw):
    """(p, x): x = y (g - zeta)^k / p^j with g = zeta's image mod p, so vp(x) varies."""
    p, m = draw(st.sampled_from(SPLIT_PAIRS))
    coord = st.builds(Q, st.integers(-60, 60), st.integers(1, 3 * p))
    y = CyclotomicElement(m, draw(st.lists(coord, min_size=euler_phi(m),
                                           max_size=euler_phi(m))))
    g = PadicEmbedding.default(p, m, 1).root.unit
    pi = CyclotomicElement.from_rational(g, m) - CyclotomicElement.zeta(m)
    x = y * pi ** draw(st.integers(0, 6)) * Q(1, p ** draw(st.integers(0, 2)))
    return p, x


@settings(max_examples=150, deadline=None)
@given(_split_elements())
def test_padic_valuation_matches_a_deep_embedding(case):
    p, x = case
    got = padic_valuation(x, p)
    if x.is_zero():
        assert got == math.inf
        return
    deep = x.embed(PadicEmbedding.default(p, x.m, 400), 400)
    assert not deep.is_zero_at_precision() and got == deep.valuation()


def test_padic_valuation_rational_and_coarse_embedding():
    assert padic_valuation(Q(50, 3), 5) == 2
    assert padic_valuation(CyclotomicElement.from_rational(Q(3, 25), 4), 5) == -2
    pi = 2 - CyclotomicElement.zeta(4)   # zeta -> omega(2) = 2 mod 5
    assert padic_valuation(pi ** 5, 5) == 5
    # reading vp((2 - i)^5) needs the root to p^6 (vp of the norm 5^5, plus 1)
    assert padic_valuation(pi ** 5, 5, PadicEmbedding.default(5, 4, 6)) == 5
    with pytest.raises(PrecisionError):
        padic_valuation(pi ** 5, 5, PadicEmbedding.default(5, 4, 5))


def test_abs_norm():
    i4 = CyclotomicElement.zeta(4)
    assert abs_norm(Q(-3, 2), 4) == Q(9, 4)
    assert abs_norm(Q(-3, 2), 1) == Q(3, 2)
    assert abs_norm(1 + i4, 4) == 2
    assert abs_norm(-(2 + i4), 4) == 5
