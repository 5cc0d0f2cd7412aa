import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms.arith import (PRIMALITY_BOUND, batch_invert, bernoulli_number, bernoulli_poly,
                              binom_padic_data, check_prime, digits_base_p, factorial_valuation,
                              is_prime, lcm_upto, multinomial_packed, rising_factorial, split,
                              unit_residue, vp, vp_int)
from padicforms.errors import DomainError
from padicforms.volkenborn import vdp_length


def test_vp_examples():
    assert vp(Q(1, 6), 2) == -1
    assert vp(Q(35, 4), 5) == 1
    assert vp(0, 7) == math.inf


def test_vp_rejects_composite():
    with pytest.raises(DomainError):
        vp(Q(1), 6)


def _vp_int_digit_loop(n, p):
    """One division per p-digit: the reference for vp_int."""
    if n == 0:
        return math.inf
    v, n = 0, abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(max_examples=400, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 11, 101)),
       unit=st.integers(-10 ** 40, 10 ** 40), e=st.integers(0, 400))
@example(p=3, unit=0, e=0)
@example(p=2, unit=-1, e=0)
@example(p=5, unit=1, e=2 ** 8 - 1)
def test_vp_int_matches_the_digit_loop(p, unit, e):
    n = unit * p ** e
    assert vp_int(n, p) == _vp_int_digit_loop(n, p)
    if n:
        v, u = split(n, p)
        assert u * p ** v == n and u % p != 0 and v == vp_int(n, p)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 101)), k=st.integers(1, 200),
       num=st.integers(-10 ** 40, 10 ** 40).filter(bool), den=st.integers(1, 10 ** 40),
       e=st.integers(-400, 400))
@example(p=2, k=1, num=-1, den=1, e=0)
@example(p=5, k=3, num=-2, den=3 * 5 ** 4, e=-400)
def test_unit_residue_is_the_unit_part_mod_pk(p, k, num, den, e):
    # num / den times p^e, with the power of p on top or below, handed over
    # unreduced: x = p^v y with y a p-adic unit, and u = y mod p^k
    top, bottom = num * p ** max(e, 0), den * p ** max(-e, 0)
    x = Q(top, bottom)
    v, u = unit_residue(top, bottom, p, k)
    y = x / Q(p) ** v
    assert v == vp(x, p) and vp(y, p) == 0
    assert 0 <= u < p ** k and (u * y.denominator - y.numerator) % p ** k == 0


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from((2, 3, 5)), rel=st.integers(1, 60),
       seeds=st.lists(st.integers(1, 10 ** 30), min_size=1, max_size=20))
def test_batch_invert_inverts_each_unit(p, rel, seeds):
    mod = p ** rel
    units = [u * p + 1 for u in seeds]
    assert batch_invert(units, mod) == [pow(u, -1, mod) for u in units]


def _is_prime_by_trial_division(n):
    """The oracle of is_prime."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_miller_rabin_matches_trial_division():
    disagree = [n for n in range(-3, 2 * 10 ** 5) if is_prime(n) != _is_prime_by_trial_division(n)]
    assert disagree == []
    rng = random.Random(12)
    for n in [rng.randrange(10 ** 12) for _ in range(300)] + [999999999989, 10 ** 12 - 1]:
        assert is_prime(n) == _is_prime_by_trial_division(n), n


def test_primality_is_decided_below_its_bound_and_refused_above():
    # the least strong pseudoprime to the first 12 prime bases (Sorenson and
    # Webster), and the one to the first 13 that sets PRIMALITY_BOUND
    assert not is_prime(318665857834031151167461)
    assert is_prime(10 ** 18 + 3)
    for p in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2):
        with pytest.raises(DomainError):
            check_prime(p)
    with pytest.raises(DomainError):
        vp(Q(1), PRIMALITY_BOUND)


def test_digit_helpers_refuse_a_negative_argument():
    for call in (lambda: digits_base_p(-1, 2), lambda: factorial_valuation(-1, 2),
                 lambda: vdp_length(-1, 3)):
        with pytest.raises(DomainError):
            call()
    assert digits_base_p(0, 5) == [] and vdp_length(0, 5) == 0 and vdp_length(25, 5) == 3


def test_vp_multiplicative_and_ultrametric():
    rng = random.Random(1)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            x = Q(rng.randint(-40, 40) or 1, rng.randint(1, 40))
            y = Q(rng.randint(-40, 40) or 1, rng.randint(1, 40))
            assert vp(x * y, p) == vp(x, p) + vp(y, p)
            if x + y != 0:
                assert vp(x + y, p) >= min(vp(x, p), vp(y, p))
                if vp(x, p) != vp(y, p):
                    assert vp(x + y, p) == min(vp(x, p), vp(y, p))


def test_binom_padic_examples():
    assert binom_padic_data(7, 3, 2) == (0, 1)
    assert binom_padic_data(4, 2, 2) == (1, 0)
    assert binom_padic_data(10, 5, 5) == (0, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_binom_padic_exhaustive_small_range(p):
    # carry count = vp(binom), residue = binom mod p, for all m <= 200
    for m in range(201):
        for n in range(m + 1):
            carries, residue = binom_padic_data(m, n, p)
            b = math.comb(m, n)
            assert carries == vp(b, p)
            assert residue == b % p


def test_multinomial_packed():
    assert multinomial_packed(5, 2) == 30
    assert multinomial_packed(2, 1) == 2
    assert multinomial_packed(6, 2) == 90
    for m in range(25):
        for n in range(1, 8):
            v = multinomial_packed(m, n)
            assert v >= 1
            assert (math.factorial(m) // math.factorial(m % n)) % v == 0


def test_lcm_upto():
    assert lcm_upto(1) == 1
    assert lcm_upto(6) == 60
    assert lcm_upto(10) == 2520


def test_lcm_upto_large_cold():
    # lcm(1..n) = product of q^floor(log_q n) over primes q <= n
    n = 1200
    lcm_upto.cache_clear()
    expected = 1
    for q in range(2, n + 1):
        if all(q % d for d in range(2, math.isqrt(q) + 1)):
            e = 1
            while q ** (e + 1) <= n:
                e += 1
            expected *= q ** e
    assert lcm_upto(n) == expected


def test_factorial_valuation_matches_direct():
    for p in (2, 3, 5):
        for n in (1, 7, 30, 64, 100):
            assert factorial_valuation(n, p) == vp(Q(math.factorial(n)), p)
    assert factorial_valuation(0, 2) == 0
    assert factorial_valuation(63, 2) == 57
    assert factorial_valuation(11, 2) == 8


def test_bernoulli_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Q(-1, 2)
    assert bernoulli_number(2) == Q(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Q(-691, 2730)


def _bernoulli_recurrence(count):
    """B_0..B_(count-1) from sum_(k<=m) binom(m+1, k) B_k = 0: the reference."""
    out = [Q(1)]
    while len(out) < count:
        m = len(out)
        out.append(-sum((math.comb(m + 1, k) * out[k] for k in range(m)), Q(0)) / (m + 1))
    return out


def test_bernoulli_number_matches_the_recurrence():
    assert [bernoulli_number(n) for n in range(301)] == _bernoulli_recurrence(301)


def test_bernoulli_poly_examples():
    assert bernoulli_poly(0).coeffs == (Q(1),)
    assert bernoulli_poly(1).coeffs == (Q(-1, 2), Q(1))
    assert bernoulli_poly(2).coeffs == (Q(1, 6), Q(-1), Q(1))


def test_bernoulli_poly_difference_identity():
    # B_n(x+1) - B_n(x) = n x^(n-1)
    for n in range(1, 9):
        b = bernoulli_poly(n)
        for x in (Q(0), Q(1, 3), Q(-7, 5), Q(4)):
            assert b(x + 1) - b(x) == n * x ** (n - 1)


def test_rising_factorial():
    assert rising_factorial(Q(1, 2), 3) == Q(1, 2) * Q(3, 2) * Q(5, 2)
    assert rising_factorial(Q(5), 0) == 1
