import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.cyclotomic import (CyclotomicElement, abs_norm, cyclotomic_polynomial,
                                   euler_phi, padic_valuation, resultant, value_to_padic,
                                   zeta_image)
from padicforms import cyclotomic
from padicforms.errors import DomainError, EmbeddingError, IntegralityError
from padicforms.cyclotomic import assert_integral
from padicforms.padic import Padic, teichmuller
from padicforms.polynomials import Poly


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 6, 8, 12)] == [1, 1, 2, 2, 2, 4, 4]


def test_a_modulus_too_large_for_its_coordinates_is_refused_before_phi(monkeypatch):
    # phi(m) >= sqrt(m/2), so L coordinates fit no m > 2 L^2; such an m is
    # refused without factoring it (trial division to 10^9 would take minutes)
    def unreachable(m):
        raise AssertionError(f"euler_phi({m}) was called")

    with monkeypatch.context() as patched:
        patched.setattr(cyclotomic, "euler_phi", unreachable)
        with pytest.raises(DomainError, match="got 1"):
            CyclotomicElement(10**18 + 3, [1])
        with pytest.raises(DomainError, match="got 3"):
            CyclotomicElement(19, [1, 0, 0])
    # the bound refuses no valid input: it is tight at m = 2
    assert all(euler_phi(m) ** 2 >= m / 2 for m in range(1, 20_001))
    assert CyclotomicElement(2, [5]) == 5
    for m in range(1, 300):
        assert CyclotomicElement(m, [0] * euler_phi(m)).is_zero()


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
    # omega(2) is the least primitive 4th root of unity mod 5
    assert zeta_image(5, 4, 6) == teichmuller(2, 5, 6)
    assert zeta_image(5, 4, 3) == teichmuller(2, 5, 3)
    i4 = CyclotomicElement.zeta(4)
    img = i4.embed(5, 2)
    assert (img.val, img.unit % 25) == (0, 7)  # = 7 mod 25
    # ring homomorphism on samples
    rng = random.Random(3)
    for _ in range(10):
        x, y = _random_element(rng, 4), _random_element(rng, 4)
        lhs = (x * y).embed(5, 4)
        rhs = x.embed(5, 4) * y.embed(5, 4)
        assert lhs.agrees(rhs, min(lhs.prec, rhs.prec))


def test_embedding_requires_roots_of_unity():
    with pytest.raises(EmbeddingError):
        zeta_image(5, 3, 4)  # 3 does not divide 5 - 1
    with pytest.raises(EmbeddingError):
        CyclotomicElement.zeta(3).embed(5, 4)
    with pytest.raises(EmbeddingError):
        zeta_image(2, 4, 4)  # phi(q_2) = 2


def test_embedding_p2():
    assert zeta_image(2, 2, 5) == Padic.from_fraction(-1, 2, 5)  # omega(3) = -1
    assert zeta_image(2, 1, 5) == Padic.from_fraction(1, 2, 5)


def test_a_rational_element_hashes_as_its_fraction():
    # equal values must hash alike, so a set holds a rational element once
    half = CyclotomicElement.from_rational(Q(1, 2), 4)
    assert half == Q(1, 2) and hash(half) == hash(Q(1, 2))
    assert len({half, Q(1, 2)}) == 1
    assert hash(CyclotomicElement.from_rational(3, 6)) == hash(3)
    i = CyclotomicElement.zeta(4)
    assert len({i, CyclotomicElement(4, [0, 1]), -i}) == 2


def test_rational_elements_are_equal_across_fields():
    # equality is transitive: a == 1/2 == b forces a == b, whatever the m,
    # so a set holds one element in every order of insertion
    a = CyclotomicElement.from_rational(Q(1, 2), 4)
    b = CyclotomicElement.from_rational(Q(1, 2), 1)
    assert a == b and b == a
    for order in itertools.permutations([a, Q(1, 2), b]):
        assert len(set(order)) == 1, order
    assert CyclotomicElement.from_rational(Q(1, 3), 4) != b


_ORDERS = (1, 3, 4, 5, 8, 12)


@st.composite
def _field_elements(draw):
    """An element of Q(zeta_m) for m in _ORDERS, often with zero coordinates,
    so that rational elements and zero occur."""
    m = draw(st.sampled_from(_ORDERS))
    coord = st.one_of(st.just(Q(0)), st.fractions(-6, 6, max_denominator=5))
    return CyclotomicElement(m, draw(st.lists(coord, min_size=euler_phi(m),
                                              max_size=euler_phi(m))))


@settings(max_examples=200, deadline=None)
@given(_field_elements(), st.integers(0, 6), st.integers(-30, 30), st.sampled_from(_ORDERS))
def test_powers_inverses_and_hashes_over_random_fields(x, e, k, other_m):
    m = x.m
    assert CyclotomicElement.zeta(m, k) == CyclotomicElement.zeta(m) ** k
    if not x.is_zero():
        one = x * x.inverse()
        assert one == 1 and one == CyclotomicElement.one(other_m)
        assert hash(one) == hash(CyclotomicElement.one(other_m)) == hash(1)
        assert x ** -e == x.inverse() ** e
    # equal elements hash equally; a rational one equals its value over any m
    equal = [CyclotomicElement(m, x.coords), x * 1, x + 0, x * CyclotomicElement.one(m)]
    if x.is_rational():
        equal += [CyclotomicElement.from_rational(x.coords[0], other_m), x.coords[0]]
    for y in equal:
        assert y == x and hash(y) == hash(x)


def test_assert_integral():
    assert_integral(Q(4), "ok")
    assert_integral(CyclotomicElement(4, [1, -2]), "ok")
    with pytest.raises(IntegralityError):
        assert_integral(Q(1, 2), "bad")
    with pytest.raises(IntegralityError):
        assert_integral(CyclotomicElement(4, [Q(1, 3), 0]), "bad")


def test_value_to_padic_paths():
    p = 5
    i = CyclotomicElement.zeta(4)
    assert value_to_padic(Q(3, 5), p, 4) == Padic.from_fraction(Q(3, 5), p, 4)
    # a rational element of Q(i) enters Q_p as its rational value
    assert value_to_padic(CyclotomicElement.from_rational(-1, 4), p, 9) == \
        Padic.from_fraction(-1, p, 9)
    assert value_to_padic(i, p, 8) == i.embed(p, 8)
    for x in (Padic.from_fraction(Q(7, 25), p, 12), Padic.from_fraction(Q(3), p, 9),
              Padic.zero(p, 6)):
        for c in (i, -i, i + 2):
            # c is a unit at p = 5 (i goes to 2 mod 5), so x times its image
            # at x's relative precision keeps x's precision
            y = x * value_to_padic(c, p, x.relative_precision())
            assert y == x * c.embed(p, x.relative_precision()) and y.prec == x.prec


def test_value_to_padic_keeps_every_requested_digit():
    # p in the coordinate denominators used to cost two digits of precision
    x = CyclotomicElement(4, [Q(1, 5), Q(1, 25)])
    deep = x.embed(5, 60)
    for prec in (5, 10, 20):
        got = value_to_padic(x, 5, prec)
        assert got.prec == prec and got == deep.at_precision(prec), prec


# (p, m) with m | p - 1, so that p splits completely in Q(zeta_m)
SPLIT_PAIRS = [(5, 4), (13, 4), (7, 3), (7, 6), (13, 12), (11, 5), (31, 10)]


def _horner(x, root):
    """x at zeta = root by Horner's rule over the power-basis coordinates."""
    acc = Padic.zero(root.p, root.prec)
    for c in reversed(x.coords):
        acc = acc * root + Padic.from_fraction(c, root.p, root.prec)
    return acc


def _order(g, p):
    return next((k for k in range(1, p) if pow(g, k, p) == 1), None)


def _least_root(p, m):
    """The least positive residue of order m mod p, which zeta_m goes to."""
    return next(g for g in range(1, p) if _order(g, p) == m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPLIT_PAIRS), st.integers(1, 40), st.randoms(use_true_random=False))
def test_the_embedding_is_a_ring_homomorphism_given_by_its_root(pair, prec, rng):
    # zeta_m goes to omega(g) for the least g of order m; teichmuller(g, p, prec)
    # lifts that root directly and is the oracle
    p, m = pair
    root = teichmuller(_least_root(p, m), p, prec)
    assert zeta_image(p, m, prec) == root
    x, y = _random_element(rng, m), _random_element(rng, m)
    ex, ey = x.embed(p, prec), y.embed(p, prec)
    assert ex == _horner(x, root)
    assert (x * y).embed(p, prec).agrees(ex * ey, prec)
    assert (x + y).embed(p, prec).agrees(ex + ey, prec)


@st.composite
def _split_elements(draw):
    """(p, x): x = y (g - zeta)^k / p^j with g = zeta's image mod p, so vp(x) varies."""
    p, m = draw(st.sampled_from(SPLIT_PAIRS))
    coord = st.builds(Q, st.integers(-60, 60), st.integers(1, 3 * p))
    y = CyclotomicElement(m, draw(st.lists(coord, min_size=euler_phi(m),
                                           max_size=euler_phi(m))))
    g = _least_root(p, m)
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
    deep = x.embed(p, 400)
    assert not deep.is_zero_at_precision() and got == deep.valuation()


def test_padic_valuation_rational_and_explicit_embedding():
    assert padic_valuation(Q(50, 3), 5) == 2
    assert padic_valuation(CyclotomicElement.from_rational(Q(3, 25), 4), 5) == -2
    pi = 2 - CyclotomicElement.zeta(4)   # zeta -> omega(2) = 2 mod 5
    assert padic_valuation(pi ** 5, 5) == 5
    # the other embedding, zeta -> omega(3) = -omega(2), sends 2 - i to 2 + i, a unit
    assert _horner(pi ** 5, teichmuller(3, 5, 6)).valuation() == 0


def test_abs_norm():
    i4 = CyclotomicElement.zeta(4)
    assert abs_norm(Q(-3, 2), 4) == Q(9, 4)
    assert abs_norm(Q(-3, 2), 1) == Q(3, 2)
    assert abs_norm(1 + i4, 4) == 2
    assert abs_norm(-(2 + i4), 4) == 5
