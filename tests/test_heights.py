import math
import random
from fractions import Fraction as Q

import pytest

from padicforms.cyclotomic import CyclotomicElement
from padicforms.errors import DomainError
from padicforms.heights import (HeightMatrix, delta_p_valuation, dimension_bound,
                                fit_rates, height_K, height_p_valuation)
from padicforms.padic import Padic


def test_height_row_and_square():
    assert height_K(HeightMatrix([[Q(3), Q(-5), Q(2)]])) == 5
    assert height_K(HeightMatrix([[1, 2], [3, 4]])) == 2
    # over Q(i): H_K of a row is the max complex norm
    i4 = CyclotomicElement.zeta(4)
    row = HeightMatrix([[CyclotomicElement.from_rational(1, 4) + i4, i4]], field_m=4)
    assert height_K(row) == 2


def test_identity_matrix_heights():
    I2 = HeightMatrix([[1, 0], [0, 1]])
    assert height_K(I2) == 1
    assert height_p_valuation(I2, 5) == 0
    xi = [Padic.from_fraction(Q(25), 5, 12), Padic.from_fraction(Q(1, 5), 5, 12)]
    assert delta_p_valuation(I2, xi, 5) == -1  # max |xi_i|_p = 5


def test_square_delta_p_factorization():
    # Delta_p(M) = |det M|_p max |xi|_p for square M
    rng = random.Random(2)
    p = 5
    for _ in range(30):
        M = HeightMatrix([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        det = _det3(M.entries)
        if det == 0:
            continue
        xi = [Padic.from_fraction(Q(rng.randint(1, 50)), p, 18) for _ in range(3)]
        got = delta_p_valuation(M, xi, p)
        from padicforms.arith import vp
        want = vp(Q(det), p) + min(x.valuation() for x in xi)
        assert got == want


def _det3(e):
    return (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))


def _random_matrix(rng, rows, cols, field_m=1):
    if field_m == 1:
        return HeightMatrix([[Q(rng.randint(-10, 10)) for _ in range(cols)]
                             for _ in range(rows)])
    return HeightMatrix([[CyclotomicElement(4, [rng.randint(-10, 10),
                                                rng.randint(-10, 10)])
                          for _ in range(cols)] for _ in range(rows)], field_m=4)


def test_append_row_height_inequality_over_Q():
    # H_K(M + row L) <= (s+2) H_K(M) H_K(L): the plain constant over Q
    rng = random.Random(1)
    for _ in range(60):
        s_plus_1 = rng.randint(1, 2)
        r_plus_1 = rng.randint(s_plus_1 + 1, s_plus_1 + 2)
        M = _random_matrix(rng, s_plus_1, r_plus_1)
        L = _random_matrix(rng, 1, r_plus_1)
        lhs = height_K(M.append_row(L.entries[0]))
        rhs = (s_plus_1 + 1) * height_K(M) * height_K(L)
        assert lhs <= rhs


def test_append_row_plain_constant_fails_over_Qi():
    # Over Q(i) the plain (s+2) constant is not a theorem: with
    # M = (1+i, 1+i) and L = (-1-i, 1+i) the appended determinant is 4i,
    # whose norm 16 exceeds 2 * H_K(M) * H_K(L) = 8. The triangle
    # inequality on the complex absolute value only yields (s+2)^[K:Q].
    i4 = CyclotomicElement.zeta(4)
    one = CyclotomicElement.one(4)
    M = HeightMatrix([[one + i4, one + i4]], field_m=4)
    L = [-(one + i4), one + i4]
    lhs = height_K(M.append_row(L))
    assert lhs == 16
    assert lhs > 2 * height_K(M) * height_K(HeightMatrix([L], field_m=4))
    assert lhs <= 2 ** 2 * height_K(M) * height_K(HeightMatrix([L], field_m=4))


def test_append_row_height_inequality_over_Qi_degree_constant():
    # the degree-corrected constant (s+2)^[K:Q] holds over Q(i)
    rng = random.Random(4)
    for _ in range(60):
        s_plus_1 = rng.randint(1, 2)
        r_plus_1 = rng.randint(s_plus_1 + 1, s_plus_1 + 2)
        M = _random_matrix(rng, s_plus_1, r_plus_1, 4)
        L = _random_matrix(rng, 1, r_plus_1, 4)
        lhs = height_K(M.append_row(L.entries[0]))
        rhs = (s_plus_1 + 1) ** 2 * height_K(M) * height_K(L)
        assert lhs <= rhs


def test_hp_lower_bound_from_height():
    # Delta_p != 0 forces H_p >= 1/H_K on integral matrices
    rng = random.Random(7)
    p = 5
    for _ in range(60):
        rows = rng.randint(1, 2)
        cols = rows + rng.randint(0, 2)
        M = _random_matrix(rng, rows, cols)
        xi = [Padic.from_fraction(Q(rng.randint(-40, 40) or 1), p, 24)
              for _ in range(cols)]
        dv = delta_p_valuation(M, xi, p)
        if dv == math.inf:
            continue
        hK = height_K(M)
        hp_val = height_p_valuation(M, p)
        assert hK != 0
        # p^(-hp_val) >= 1/hK  <=>  hK >= p^(hp_val)
        assert hK >= Q(p) ** int(hp_val)


def test_delta_p_append_product_rule():
    # when H_p(M) Delta_p(L) > H_p(L) Delta_p(M):
    #   Delta_p(M + L) = H_p(M) Delta_p(L)
    rng = random.Random(13)
    p = 3
    hits = 0
    while hits < 40:
        cols = 3
        M = _random_matrix(rng, 1, cols)
        L = _random_matrix(rng, 1, cols)
        xi = [Padic.from_fraction(Q(rng.randint(-60, 60) or 1), p, 30)
              for _ in range(cols)]
        hpM = height_p_valuation(M, p)
        hpL = height_p_valuation(L, p)
        dM = delta_p_valuation(M, xi, p)
        dL = delta_p_valuation(L, xi, p)
        if math.inf in (hpM, hpL, dM, dL):
            continue
        # hypothesis in valuations: hpM + dL < hpL + dM
        if hpM + dL >= hpL + dM:
            continue
        hits += 1
        combined = delta_p_valuation(M.append_row(L.entries[0]), xi, p)
        assert combined == hpM + dL


def test_height_p_valuation_over_Qi_default_embedding():
    # the embedding of K at p = 5 sends i to omega(2) = 2 mod 5, so 2 - i has
    # valuation 1 (its norm is 5) and 2 + i is a unit
    i4 = CyclotomicElement.zeta(4)
    pi, unit = 2 - i4, 2 + i4
    M = HeightMatrix([[pi ** 3 * unit, 0], [0, Q(1, 5)]], field_m=4)
    assert height_p_valuation(M, 5) == 2
    assert height_p_valuation(HeightMatrix([[pi, 25]], field_m=4), 5) == 1
    assert height_p_valuation(HeightMatrix([[unit, 25]], field_m=4), 5) == 0
    # Delta_p takes the same embedding as value_to_padic
    xi = [Padic.from_fraction(Q(1), 5, 20), Padic.from_fraction(Q(5), 5, 20)]
    assert delta_p_valuation(M, xi, 5) == 2


def test_dimension_bound():
    assert dimension_bound(1, 1, 0) == Q(1, 2)
    assert dimension_bound(Q(7), Q(3), Q(3)) == Q(3, 7)
    with pytest.raises(DomainError):
        dimension_bound(Q(1), Q(1), Q(3))


def test_matrix_validation():
    with pytest.raises(DomainError):
        HeightMatrix([[1, 2], [3, 4], [5, 6]])  # rows > cols
    with pytest.raises(DomainError):
        HeightMatrix([[1] * 9])  # beyond the width cap


def test_fit_rates_recovers_exact_slopes():
    pts = [(n, 3.5 * n + 1.0, 2 * n) for n in (3, 7, 11)]
    fit = fit_rates(pts, 2)
    assert abs(fit.tau_hat - 3.5) < 1e-9
    assert abs(fit.tau_p_hat - 2 * math.log(2)) < 1e-9
    with pytest.raises(DomainError):
        fit_rates(pts[:1], 2)
    # every sigma equal leaves the least-squares slope undefined
    with pytest.raises(DomainError, match="need at least two distinct sigma values"):
        fit_rates([(2, 1.0, 3), (2, 2.0, 5)], 3)
