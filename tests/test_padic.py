import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.arith import unit_residue, vp
from padicforms.errors import DomainError, PrecisionError
from padicforms.padic import (Padic, phi_qp, qp, teichmuller, teichmuller_ext,
                              teichmuller_rational)


def fraction_mod_pk(x, p, k):
    """x mod p^k for a rational x with vp(x) >= 0: the reference for the
    residues the program takes through arith.unit_residue."""
    x = Q(x)
    mod = p ** k
    den = x.denominator
    if den % p == 0:
        raise DomainError(f"{x} is not a p-integer for p = {p}")
    return x.numerator * pow(den, -1, mod) % mod


def test_qp_conventions():
    assert qp(2) == 4 and qp(5) == 5
    assert phi_qp(2) == 2 and phi_qp(5) == 4


def test_from_fraction_and_repr():
    x = Padic.from_fraction(Q(35, 4), 5, 4)
    assert x.val == 1 and x.prec == 4
    z = Padic.from_fraction(Q(125), 5, 2)
    assert z.is_zero_at_precision() and z.valuation() == math.inf


def _random_nonzero(rng):
    return Q(rng.randint(-60, 60) or 3, rng.randint(1, 60))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_arithmetic_matches_exact_reduction(p):
    # reducing after exact arithmetic = arithmetic on reductions, at the
    # contracted precision
    rng = random.Random(p)
    for _ in range(120):
        a, b = _random_nonzero(rng), _random_nonzero(rng)
        na, nb = rng.randint(3, 9), rng.randint(3, 9)
        xa = Padic.from_fraction(a, p, na)
        xb = Padic.from_fraction(b, p, nb)
        cases = [("add", a + b, lambda: xa + xb), ("sub", a - b, lambda: xa - xb),
                 ("mul", a * b, lambda: xa * xb)]
        if not xb.is_zero_at_precision():
            cases.append(("div", a / b, lambda: xa / xb))
        for op, exact, compute in cases:
            got = compute()
            want = Padic.from_fraction(exact, p, got.prec)
            assert got.agrees(want), (op, a, b, got, want)



@st.composite
def _padics(draw, p):
    """A Padic at p: zero at a random precision, or p^val unit with a random
    valuation and between 1 and 12 digits."""
    if draw(st.integers(0, 7)) == 0:
        return Padic.zero(p, draw(st.integers(-4, 12)))
    val, rel = draw(st.integers(-4, 8)), draw(st.integers(1, 12))
    unit = draw(st.integers(1, p ** rel - 1).filter(lambda u: u % p))
    return Padic(p, val, unit, val + rel)


def _agree(x, y):
    return x.agrees(y, min(x.prec, y.prec))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(_padics(p), _padics(p),
                                                               _padics(p))))
def test_ring_laws_at_capped_precision(xyz):
    # each law holds modulo the least precision its two sides state
    x, y, z = xyz
    assert _agree(x + y, y + x) and _agree(x * y, y * x)
    assert _agree((x + y) + z, x + (y + z))
    assert _agree((x * y) * z, x * (y * z))
    assert _agree(x * (y + z), x * y + x * z)


def test_precision_contracts():
    p = 5
    x = Padic.from_fraction(Q(10), p, 6)   # val 1
    y = Padic.from_fraction(Q(1, 5), p, 3)  # val -1
    assert (x + y).prec == 3
    prod = x * y
    assert prod.prec == min(6 + y.val, 3 + x.val)
    assert (x ** 3).prec == 3 * x.val + (6 - x.val)


def test_zero_handling():
    p = 3
    z = Padic.zero(p, 4)
    x = Padic.from_fraction(Q(2), p, 6)
    assert (x + z).prec == 4
    assert (x * z).prec == 4 + 0 + x.val
    with pytest.raises(PrecisionError):
        z.invert()
    assert (z ** 2).prec == 8


def test_mul_fraction_exactness():
    x = Padic.from_fraction(Q(7, 3), 5, 6)
    y = x.mul_fraction(Q(3, 7))
    assert y.agrees(Padic.from_fraction(1, 5, y.prec))
    shifted = x.mul_fraction(Q(1, 25))
    assert shifted.val == x.val - 2 and shifted.prec == x.prec - 2


def test_teichmuller_fixed_points_and_examples():
    t = teichmuller(2, 5, 2)
    assert (t.val, t.unit) == (0, 7)  # 2^5 = 32 = 7, 7^5 = 7 mod 25
    assert teichmuller(1, 7, 5).agrees(Padic.from_fraction(1, 7, 5))
    t2 = teichmuller(3, 2, 4)
    assert t2.agrees(Padic.from_fraction(-1, 2, 4))  # mu(phi(4)) = {+-1}


@pytest.mark.parametrize("p,prec", [(5, 4), (7, 3)])
def test_teichmuller_uniqueness_oracle(p, prec):
    # the Teichmuller lift is the unique (p-1)-st root of unity = a mod p
    mod = p ** prec
    for a in range(1, p):
        roots = [r for r in range(a, mod, p) if pow(r, p - 1, mod) == 1]
        assert len(roots) == 1
        assert teichmuller(a, p, prec).unit == roots[0]


def _teichmuller_by_iteration(x, p, prec):
    """y -> y^p from x mod p^prec until it stops moving: the fixed point."""
    mod = p ** prec
    y = fraction_mod_pk(x, p, prec)
    while (z := pow(y, p, mod)) != y:
        y = z
    return y


@pytest.mark.parametrize("p", [3, 5, 7, 13, 97])
def test_teichmuller_is_the_fixed_point_of_the_p_th_power(p):
    for x in list(range(1, 63)) + [Q(3, 7), Q(-5, 11), Q(22, 9), Q(-1)]:
        if vp(Q(x), p) != 0:
            continue
        for prec in (1, 2, 5, 17, 60):
            assert teichmuller(x, p, prec) == Padic(p, 0, _teichmuller_by_iteration(x, p, prec),
                                                     prec), (x, prec)


def test_teichmuller_defining_congruences():
    for p in (2, 3, 5, 7):
        for a in (1, 2, 3, 5, 7, 11):
            if a % p == 0:
                continue
            t = teichmuller(a, p, 6)
            one = Padic.from_fraction(1, p, 6)
            assert (t ** phi_qp(p)).agrees(one, 6)
            diff = t - Padic.from_fraction(a, p, 6)
            assert diff.is_zero_at_precision() or diff.valuation() >= vp(Q(qp(p)), p)


def test_teichmuller_rejects_non_units():
    with pytest.raises(DomainError):
        teichmuller(Q(5), 5, 3)


def angle(x, p, prec):
    """<x> = x / omega(x), a principal unit (= 1 mod q_p); prec is relative."""
    x = Q(x)
    if x == 0:
        raise DomainError("angle of zero is undefined")
    u = x / Q(p) ** vp(x, p)
    return Padic.from_fraction(u, p, prec) / teichmuller(u, p, prec)


def test_teichmuller_ext_and_angle():
    w = teichmuller_ext(Q(10), 5, 2)
    assert (w.val, w.unit) == (1, 7)  # 5 * teichmuller(2)
    assert teichmuller_rational(Q(1, 5), 5) == Q(1, 5)
    assert teichmuller_rational(Q(3), 5) is None
    for p, x in ((5, Q(1, 5)), (2, Q(3, 4)), (3, Q(7, 9))):
        a = angle(x, p, 6)
        w = teichmuller_ext(x, p, 6)
        # defining identity: omega(x) * <x> = x at precision
        prod = w * a
        assert prod.agrees(Padic.from_fraction(x, p, prod.prec))
        # <x> = 1 mod q_p
        diff = a - Padic.from_fraction(1, p, a.prec)
        assert diff.is_zero_at_precision() or diff.valuation() >= vp(Q(qp(p)), p)


def test_angle_of_unit_part_one():
    assert angle(Q(1, 5), 5, 8).agrees(Padic.from_fraction(1, 5, 8))


def test_agrees_and_at_precision():
    x = Padic.from_fraction(Q(1, 3), 2, 10)
    y = Padic.from_fraction(Q(1, 3) + 2 ** 6, 2, 10)
    assert x.agrees(y, 6) and not x.agrees(y, 7)
    assert x.at_precision(4).prec == 4
    with pytest.raises(PrecisionError):
        x.at_precision(11)


def test_json_shape():
    x = Padic.from_fraction(Q(9, 5), 5, 4)
    assert x.to_json() == {"p": 5, "val": -1, "unit": str(x.unit), "prec": 4}


def test_fraction_mod_pk():
    assert fraction_mod_pk(Q(1, 3), 5, 3) == pow(3, -1, 125)
    with pytest.raises(DomainError):
        fraction_mod_pk(Q(1, 5), 5, 3)
    # on units the reference agrees with the one owner of the reduction
    for x in (Q(1, 3), Q(-7, 12), Q(22, 9), Q(-1), Q(123456789, 1024)):
        for p, k in ((5, 3), (7, 1), (11, 40)):
            if vp(x, p) == 0:
                want = (0, fraction_mod_pk(x, p, k))
                assert unit_residue(x.numerator, x.denominator, p, k) == want
