import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicforms.arith import INF, batch_invert, bernoulli_number, bernoulli_poly, vp, vp_int
from padicforms.errors import DomainError, PrecisionError
from padicforms.padic import Padic
from padicforms.polynomials import Poly, RationalFunction, parse_rational_function
from padicforms import volkenborn
from padicforms.volkenborn import (PoleData, check_hurwitz_domain, integral_mahler,
                                   integral_pole_powers, integral_riemann,
                                   mahler_error_valuation, rational_wavelet_tail_bound,
                                   translate_integral, vdp_length)

from test_padic import fraction_mod_pk
from test_polynomials import poly_from_roots


# -- oracles: the van der Put expansion, exact Riemann sums and Mahler coefficients


def vdp_data(k, p):
    """(l(k), k with its leading base-p digit removed); (0, 0) at k = 0."""
    l = vdp_length(k, p)
    if l == 0:
        return 0, 0
    return l, k - (k // p ** (l - 1)) * p ** (l - 1)


def wavelet_indicator(k, p, t):
    """chi_k(t): indicator of the disc k + p^l(k) Z_p."""
    return 1 if (t - k) % p ** vdp_length(k, p) == 0 else 0


@dataclass(frozen=True)
class WaveletExpansion:
    """Coefficients a_k for 0 <= k < p^depth of a function on Z_p."""

    p: int
    depth: int
    coeffs: tuple

    def reconstruct(self, t):
        return sum((a for k, a in enumerate(self.coeffs)
                    if a and wavelet_indicator(k, self.p, t)), Q(0))

    def integral_partial(self):
        """sum a_k p^-l(k) over the stored range."""
        return sum((a * Q(1, self.p ** vdp_length(k, self.p))
                    for k, a in enumerate(self.coeffs) if a), Q(0))


def wavelet_coeffs(f, p, depth):
    """Exact coefficients a_0 = f(0), a_k = f(k) - f(k_-) up to k < p^depth."""
    values = [Q(f(k)) for k in range(p ** depth)]
    coeffs = [values[0]] + [values[k] - values[vdp_data(k, p)[1]]
                            for k in range(1, p ** depth)]
    return WaveletExpansion(p=p, depth=depth, coeffs=tuple(coeffs))


def riemann_sum(f, p, level):
    """The exact level-n Riemann sum p^-n sum_{k < p^n} f(k) of any callable f."""
    total = Q(0)
    for k in range(p ** level):
        try:
            total += f(k)
        except ZeroDivisionError as exc:
            raise DomainError(f"integrand has a pole at the integer {k}") from exc
    return total / p ** level


def mahler_coefficients(f, count):
    """Exact forward differences (Delta^m f)(0) for m < count."""
    row = [Q(f(a)) for a in range(count)]
    out = []
    for _ in range(count):
        out.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return out


def test_vdp_data_examples():
    assert vdp_data(0, 3) == (0, 0)
    assert vdp_data(5, 2) == (3, 1)
    assert vdp_data(5, 5) == (2, 0)


def test_vdp_length_shift_property():
    for p in (2, 3, 5):
        for k in range(1, 40):
            for l in range(0, 3):
                assert vdp_length(p ** l * k, p) == l + vdp_length(k, p)


def test_wavelet_coeffs_and_reconstruction():
    w = wavelet_coeffs(lambda t: Q(t), 2, 2)
    assert list(w.coeffs) == [0, 1, 2, 2]
    wc = wavelet_coeffs(lambda t: Q(7, 3), 3, 2)
    assert wc.coeffs[0] == Q(7, 3) and all(c == 0 for c in wc.coeffs[1:])
    # chi_1 at p = 2 is its own expansion
    wb = wavelet_coeffs(lambda t: Q(1 if t % 2 == 1 else 0), 2, 3)
    assert wb.coeffs[1] == 1 and all(c == 0 for k, c in enumerate(wb.coeffs) if k != 1)
    for p, depth in ((2, 4), (3, 2), (5, 2)):
        f = lambda t: Q(t ** 2 - 3 * t, 7)
        w = wavelet_coeffs(f, p, depth)
        for t in range(p ** depth):
            assert w.reconstruct(t) == f(t)


def test_integral_wavelet():
    w = wavelet_coeffs(lambda t: Q(5, 3), 7, 1)
    assert w.integral_partial() == Q(5, 3)
    # a single basis element chi_k integrates to p^-l(k)
    w5 = wavelet_coeffs(lambda t: Q(1 if t % 8 == 5 else 0), 2, 3)
    assert w5.integral_partial() == Q(1, 8)
    # truncations of binom(t, 1) = t approach -1/2
    for depth in (2, 4, 6):
        w = wavelet_coeffs(lambda t: Q(t), 2, depth)
        assert w.integral_partial() == Q(2 ** depth - 1, 2)  # = -1/2 + 2^depth/2


def test_integral_riemann_exact_examples():
    # each exact oracle value, and integral_riemann modulo p^8
    f = RationalFunction(Poly([0, 1]))
    assert riemann_sum(f, 3, 2) == 4  # (1/9) * 36
    assert integral_riemann(f, 3, 2, precision=8) == Padic.from_fraction(4, 3, 8)
    const = RationalFunction(Poly([Q(5, 7)]))
    for level in (0, 1, 3):
        assert riemann_sum(const, 3, level) == Q(5, 7)
        assert integral_riemann(const, 3, level, precision=8) \
            == Padic.from_fraction(Q(5, 7), 3, 8)
    # t^2 partial sums stabilize toward B_2 = 1/6
    fsq = RationalFunction(Poly([0, 0, 1]))
    for n in (2, 3, 4):
        assert vp(riemann_sum(fsq, 2, n) - Q(1, 6), 2) >= n - 1
        s = integral_riemann(fsq, 2, n, precision=8)
        assert (s - Padic.from_fraction(Q(1, 6), 2, 8)).valuation() >= n - 1


def test_integral_riemann_modular_matches_exact():
    f = parse_rational_function("(1/5+t)^-1")
    for level in (2, 3, 4):
        exact = riemann_sum(f, 5, level)
        modular = integral_riemann(f, 5, level, precision=8)
        assert modular.agrees(Padic.from_fraction(exact, 5, modular.prec))
    square = RationalFunction(Poly([0, 0, 1]))
    modc = integral_riemann(square, 3, 3, precision=6)
    assert modc.agrees(Padic.from_fraction(riemann_sum(square, 3, 3), 3, 6))


def test_integral_riemann_pole_detection():
    # pole at the summand 3
    pole = RationalFunction(Poly([1]), Poly([-3, 1]))
    with pytest.raises(DomainError):
        riemann_sum(pole, 2, 3)
    with pytest.raises(DomainError):
        integral_riemann(pole, 2, 3, precision=4)
    # pole at -3 lies in Z_3 even though no summand hits it
    with pytest.raises(DomainError):
        integral_riemann(parse_rational_function("(3+t)^-1"), 3, 2, precision=4)


def test_integral_riemann_at_a_precision_refuses_a_pole_at_0_and_callables():
    with pytest.raises(DomainError, match="pole at the integer 0"):
        integral_riemann(parse_rational_function("t^-1"), 3, 2, precision=4)
    with pytest.raises(DomainError):
        integral_riemann(lambda t: Q(t * t), 3, 3, precision=6)


def _riemann_floor(f, p):
    """vp(content of f) - vp(den_prim(0)): the floor the modular sum reads at."""
    (cn, _), (cd, dens) = f.num.content_primitive(), f.den.content_primitive()
    return vp(cn / cd, p) - vp(dens[0], p)


@settings(max_examples=150, deadline=None)
@example(p=2, level=3, precision=6, poles=[(1, 1, 1, 1)], poly=[], root=None)
@given(p=st.sampled_from((2, 3, 5, 7)), level=st.integers(0, 3),
       precision=st.integers(1, 12),
       poles=st.lists(st.tuples(st.integers(-40, 40).filter(bool), st.integers(0, 3),
                                st.integers(1, 3), st.integers(-9, 9).filter(bool)),
                      min_size=1, max_size=3),
       poly=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=3),
       root=st.none() | st.integers(0, 12))
def test_modular_riemann_matches_exact_sum_property(p, level, precision, poles, poly, root):
    # poles a/p^h with h = 0..3 (h = 1 at p = 2 is refused by Mahler), an
    # optional polynomial part, and a numerator that may vanish at a summand
    f = RationalFunction(Poly(poly))
    for a, h, order, coef in poles:
        f = f + RationalFunction(Poly([coef]), Poly([Q(a, p ** h), 1]) ** order)
    if root is not None:
        f = f * RationalFunction(Poly([-root, 1]))
    try:
        exact = riemann_sum(f, p, level)
    except DomainError:  # a pole at a summand
        with pytest.raises(DomainError):
            integral_riemann(f, p, level, precision=precision)
        return
    try:
        got = integral_riemann(f, p, level, precision=precision)
    except DomainError:  # refused only below the closed-form floor
        floor = _riemann_floor(f, p)
        assert any(vp(f(k), p) < floor for k in range(p ** level))
        return
    assert got == Padic.from_fraction(exact, p, precision)


def test_mahler_polynomial_exact():
    for n in range(11):
        for x in (Q(1, 5), Q(3, 4), Q(7)):
            poly = RationalFunction(Poly([x, 1]) ** n)
            assert integral_mahler(poly, 5) == bernoulli_poly(n)(x)


def test_mahler_binomial_integrals():
    # Int binom(t, m) = (-1)^m/(m+1) for m <= 12, exactly
    for m in range(13):
        b = Poly.const(Q(1, math.factorial(m)))
        b = b * poly_from_roots(list(range(m))) if m else Poly.const(1)
        for p in (2, 3):
            assert integral_mahler(RationalFunction(b), p) == Q((-1) ** m, m + 1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=13),
       st.sampled_from([2, 3, 5, 7]))
def test_polynomial_integral_matches_mahler_sum(coeffs, p):
    # sum a_k B_k against the finite Mahler sum sum c_m (-1)^m / (m+1)
    poly = Poly(coeffs)
    cs = mahler_coefficients(poly, poly.degree() + 1)
    expected = sum((c * Q((-1) ** m, m + 1) for m, c in enumerate(cs)), Q(0))
    assert integral_mahler(poly, p) == expected
    assert integral_mahler(RationalFunction(poly), p) == expected


def test_mahler_coefficients_oracle():
    # c_m of (x+t)^(-1) is (-1)^m m!/(x)_(m+1)
    x = Q(1, 3)
    f = parse_rational_function("(1/3+t)^-1")
    cs = mahler_coefficients(f, 6)
    for m, c in enumerate(cs):
        denom = Q(1)
        for j in range(m + 1):
            denom *= x + j
        assert c == Q((-1) ** m) * math.factorial(m) / denom


def test_mahler_simple_pole_value():
    out = integral_mahler(parse_rational_function("(1/5+t)^-1"), 5, 6)
    assert out.agrees(Padic.from_fraction(5, 5, 2))  # = 5 mod 25


def test_mahler_pole_domain_checks():
    with pytest.raises(DomainError):
        integral_mahler(parse_rational_function("(1/2+t)^-1"), 2, 6)
    with pytest.raises(DomainError):
        integral_mahler(parse_rational_function("(1/3+t)^-1"), 3, None)
    with pytest.raises(DomainError):
        integral_mahler(parse_rational_function("(3+t)^-1"), 3, 6)


def test_mahler_internal_consistency_across_precision():
    f = parse_rational_function("(3/25+t)^-2*(1/5+t)^-1")
    lo = integral_mahler(f, 5, 6)
    hi = integral_mahler(f, 5, 16)
    assert lo.agrees(hi, 6)


@pytest.mark.parametrize("p,h", [(2, 2), (3, 1), (5, 1)])
def test_engine_agreement_small_levels(p, h):
    # Riemann partial sums match the certified integral within the wavelet
    # tail bound (i+1)h - 1, for levels <= 8
    x = Q(1, p ** h)
    f = RationalFunction(Poly([1]), Poly([x, 1]))
    cert = 2 * h - 1
    pole = [PoleData(location=-x, floors=(0,))]
    assert rational_wavelet_tail_bound(pole, p) == cert
    mah = integral_mahler(f, p, cert + 6, pole_data=pole)
    for level in (2, 5, 8):
        rie = integral_riemann(f, p, level, precision=cert + 2)
        assert mah.agrees(rie, cert)


def test_riemann_sum_equals_wavelet_partial():
    # the level-n Riemann sum is exactly the depth-n truncated wavelet integral
    f = parse_rational_function("(1/3+t)^-1")
    for level in (1, 2, 3):
        partial = wavelet_coeffs(f, 3, level).integral_partial()
        assert partial == riemann_sum(f, 3, level)
        for precision in (1, 6, 20):
            assert integral_riemann(f, 3, level, precision=precision) \
                == Padic.from_fraction(partial, 3, precision)


def fraction_residues(f, count, p, v_floor, rel):
    """f(a) / p^v_floor mod p^rel from exact Fraction values: the reference for
    the residues that integral_mahler reads."""
    out = []
    for a in range(count):
        try:
            v = f(a)
        except ZeroDivisionError as exc:
            raise DomainError(f"integrand has a pole at the integer {a}") from exc
        if v != 0 and vp(v, p) < v_floor:
            raise PrecisionError("supplied coefficient floors are violated")
        out.append(fraction_mod_pk(v / Q(p) ** v_floor, p, rel))
    return out


def residues_outcome(compute):
    """The residues, or the type and message of the error they raise."""
    try:
        return compute()
    except (DomainError, PrecisionError) as exc:
        return type(exc), str(exc)


_FRACS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@st.composite
def _rational_functions(draw):
    """Up to three poles, at an integer when a root is 0, -1, ..., and
    maybe a zero at a small integer."""
    num = Poly(draw(st.lists(_FRACS, max_size=4)))
    if draw(st.booleans()):
        num = num * Poly([-draw(st.integers(0, 6)), 1])
    den = Poly.const(draw(_FRACS.filter(bool)))
    for c in draw(st.lists(st.one_of(_FRACS, st.integers(-6, 0)), min_size=1, max_size=3)):
        den = den * Poly([c, 1])
    return RationalFunction(num, den)


@settings(max_examples=200, deadline=None)
@given(f=_rational_functions(), p=st.sampled_from((2, 3, 5)), count=st.integers(1, 8),
       v_floor=st.integers(-12, 4), rel=st.integers(1, 40))
@example(f=parse_rational_function("(t-2)^-1"), p=5, count=4, v_floor=0, rel=6)
@example(f=parse_rational_function("(t-1)*(1/5+t)^-1"), p=5, count=4, v_floor=0, rel=6)
@example(f=parse_rational_function("1/25*(1/5+t)^-1"), p=5, count=4, v_floor=0, rel=6)
@example(f=parse_rational_function("0*(t+1)^-1"), p=3, count=3, v_floor=0, rel=2)
def test_rational_residues_match_fraction_values(f, p, count, v_floor, rel):
    # the examples: a pole at 2, a zero at 1, a violated floor, the zero function
    assert residues_outcome(lambda: f.residues(count, p, v_floor, rel)) \
        == residues_outcome(lambda: fraction_residues(f, count, p, v_floor, rel))


def test_rational_residues_report_zeros_floors_and_poles():
    assert parse_rational_function("(t-1)*(1/5+t)^-1").residues(3, 5, 0, 6)[1] == 0
    with pytest.raises(PrecisionError):
        parse_rational_function("1/25*(1/5+t)^-1").residues(3, 5, 0, 6)
    with pytest.raises(DomainError, match="pole at the integer 2"):
        parse_rational_function("(t-2)^-1").residues(4, 5, 0, 6)


# -- the Mahler sum against the difference triangle it replaced ---------------------


def difference_triangle(row, p, maxw, mod):
    """sum_m (-1)^m (Delta^m f)(0) p^maxw/(m+1) mod p^rel, the O(M^2) oracle:
    each forward-difference row is built from the one before, mod p^rel."""
    row, total = list(row), 0
    for m in range(len(row)):
        c = row[0]
        if c:
            w = vp_int(m + 1, p)
            term = c * pow((m + 1) // p ** w, -1, mod) * p ** (maxw - w)
            total += -term if m % 2 else term
        for i in range(len(row) - 1):
            row[i] = (row[i + 1] - row[i]) % mod
        row.pop()
    return total


@dataclass
class RandomResidues:
    """An integrand whose residues mod p^rel are drawn at random; calls keeps
    each row with its floor and rel."""

    seed: int
    calls: list

    def residues(self, count, p, v_floor, rel):
        rng = random.Random(self.seed)
        row = [rng.randrange(p ** rel) for _ in range(count)]
        self.calls.append((row, v_floor, rel))
        return list(row)


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), dh=st.integers(0, 2), floor=st.integers(-30, 5),
       precision=st.integers(1, 360), seed=st.integers(0, 2 ** 32))
@example(p=2, dh=0, floor=0, precision=1, seed=0)
@example(p=3, dh=0, floor=-30, precision=360, seed=1)
def test_mahler_sum_matches_the_difference_triangle(p, dh, floor, precision, seed):
    # the weighted sum over f(a) and the triangle over the Mahler coefficients
    # agree mod p^rel on random residues, M up to about 400 at h = 1
    h = (2 if p == 2 else 1) + dh
    f = RandomResidues(seed, [])
    got = integral_mahler(f, p, precision,
                          pole_data=[PoleData(location=Q(-1, p ** h), floors=(floor,))])
    [(row, v_floor, rel)] = f.calls
    M = len(row) - 1
    maxw = vdp_length(M + 1, p) - 1
    assert M <= 400 and rel == precision - v_floor + maxw
    want = Padic.normalized(p, v_floor - maxw, difference_triangle(row, p, maxw, p ** rel),
                            precision)
    assert (got.val, got.unit, got.prec) == (want.val, want.unit, want.prec)


def test_mahler_weights_satisfy_their_recurrence_exactly():
    # V_a = sum_(m=a..M) C(m, a)/(m+1) weighs f(a) in the sum:
    # sum_m (-1)^m (Delta^m f)(0)/(m+1) = sum_a (-1)^a f(a) V_a, V_M = 1/(M+1),
    # V_a + V_(a+1) = C(M+1, a+1)/(a+1), V_0 = H_(M+1), and p^maxw V_a is p-integral
    rng = random.Random(7)
    for M in range(61):
        V = [sum(Q(math.comb(m, a), m + 1) for m in range(a, M + 1)) for a in range(M + 1)]
        assert V[M] == Q(1, M + 1)
        assert V[0] == sum(Q(1, k) for k in range(1, M + 2))
        assert all(V[a] + V[a + 1] == Q(math.comb(M + 1, a + 1), a + 1) for a in range(M))
        for p in (2, 3, 5):
            maxw = vdp_length(M + 1, p) - 1
            assert all(vp(p ** maxw * v, p) >= 0 for v in V)
        values = [Q(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(M + 1)]
        row, mahler = list(values), Q(0)
        for m in range(M + 1):
            mahler += (-1) ** m * row[0] / (m + 1)
            row = [b - a for a, b in zip(row, row[1:])]
        assert mahler == sum((-1) ** a * f * v for a, (f, v) in enumerate(zip(values, V)))


@settings(max_examples=80, deadline=None)
@given(branches=st.lists(st.tuples(st.one_of(st.integers(-60, 60), st.just(INF)),
                                   st.integers(1, 5)), min_size=1, max_size=6),
       p=st.sampled_from((2, 3, 5, 7)), M=st.integers(0, 500))
@example(branches=[(-10, 2)], p=2, M=5)
def test_mahler_error_valuation_scan(branches, p, M):
    # T is a min of lines with integer slopes >= 1, so T - l is nondecreasing
    # and the closed form must equal the brute minimum over a wide window
    T = lambda m: min(base + m * h for base, h in branches)
    brute = min(T(m) - vdp_length(m, p) for m in range(M + 1, M + 2001))
    assert mahler_error_valuation(T, p, M) == brute


def test_translation_formula_examples():
    ft2 = RationalFunction(Poly([0, 0, 1]))
    rep = translate_integral(ft2, 2, 5)
    assert rep.lhs == rep.rhs == Q(13, 6) and rep.agrees
    ft3 = RationalFunction(Poly([0, 0, 0, 1]))
    rep3 = translate_integral(ft3, 1, 3)
    assert rep3.lhs == rep3.rhs == 0 and rep3.agrees
    rep0 = translate_integral(ft2, 0, 2)
    assert rep0.agrees and rep0.derivative_sum == 0


def test_translation_formula_random_rational():
    rng = random.Random(11)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        hmin = 2 if p == 2 else 1
        den = Poly([1])
        for _ in range(rng.randint(1, 2)):
            h = rng.randint(hmin, hmin + 1)
            u = rng.choice([1, 3, 7])
            if u % p == 0:
                u += 1
            den = den * poly_from_roots([Q(u, p ** h)]) ** rng.randint(1, 2)
        num = Poly([rng.randint(-9, 9) for _ in range(max(1, den.degree() - 1))])
        if num.is_zero():
            num = Poly([1])
        f = RationalFunction(num, den)
        m = rng.randint(0, 5)
        rep = translate_integral(f, m, p, precision=10)
        assert rep.agrees, (p, m, f)


# -- Bernoulli series of a single pole against the Mahler engine --------------------


def _mahler_pole_power(x, k, p, precision):
    """The Mahler engine on (x+t)^-k with single-pole floors: the oracle."""
    pole = [PoleData(location=-x, floors=(INF,) * (k - 1) + (0,))]
    f = RationalFunction(Poly([1]), Poly([x, 1]) ** k)
    return integral_mahler(f, p, precision, pole_data=pole)


def _pole_point(p, h, a, m):
    """x = a/p^h + m with a made a unit."""
    a = a % p ** h or 1
    if a % p == 0:
        a += 1
    return Q(a, p ** h) + m


def _assert_same_padic(x, k, p, precision):
    got = integral_pole_powers(x, p, {k: precision})[k]
    want = _mahler_pole_power(x, k, p, precision)
    assert (got.val, got.unit, got.prec) == (want.val, want.unit, want.prec), \
        (x, k, p, precision)


def test_pole_power_matches_mahler_random():
    rng = random.Random(2024)
    cases = [(2, 2, 1, 0, 1, 1), (3, 1, 1, 0, 1, 1), (7, 1, 3, 2, 60, 300),
             (2, 2, 3, -2, 60, 300), (5, 1, 2, -1, 1, 300), (3, 3, 5, 1, 60, 1)]
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7))
        hmin = 2 if p == 2 else 1
        cases.append((p, rng.randint(hmin, hmin + 3), rng.randint(1, 10 ** 4),
                      rng.randint(-2, 2), rng.randint(1, 60), rng.randint(1, 300)))
    for p, h, a, m, k, precision in cases:
        _assert_same_padic(_pole_point(p, h, a, m), k, p, precision)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), dh=st.integers(0, 4),
       a=st.integers(1, 10 ** 6), m=st.integers(-2, 2),
       k=st.integers(1, 60), precision=st.integers(1, 300))
def test_pole_power_matches_mahler_property(p, dh, a, m, k, precision):
    h = (2 if p == 2 else 1) + dh
    _assert_same_padic(_pole_point(p, h, a, m), k, p, precision)


# -- the pole series one k at a time, as it was before the one-pass kernel: an oracle


def _series_pole_power(x, k, p, precision):
    """Sum binom(-k, j) B_j x^(-k-j) over j < J, the first J with (k+J) h - 1 >= precision.

    With 1/x = p^h y, term j is p^(kh-1) y^k binom(k+j-1, j) (-1)^j (p B_j)
    (p^h y)^j, so the cofactors of p^(kh-1) y^k are summed mod p^rel,
    rel = precision - kh + 1.
    """
    h = check_hurwitz_domain(x, p)
    x = Q(x)
    rel = precision - (k * h - 1)
    if rel < 1:
        return Padic.zero(p, precision)
    mod = p ** rel
    y = x.denominator // p ** h * pow(x.numerator, -1, mod) % mod
    step = p ** h * y % mod
    power, binom = 1, 1  # (p^h y)^j mod p^rel and binom(k+j-1, j)
    terms, dens = [], []
    for j in range(-(-rel // h)):  # every j with j h < rel
        if j < 2 or j % 2 == 0:  # B_j = 0 for odd j >= 3
            b = bernoulli_number(j)
            num, den = b.numerator * p, b.denominator
            if den % p == 0:  # von Staudt-Clausen: p divides den at most once
                num, den = b.numerator, den // p
            terms.append((-1) ** j * binom * num % mod * power)
            dens.append(den)
        power = power * step % mod
        binom = binom * (k + j) // (j + 1)
    total = sum(t * d for t, d in zip(terms, batch_invert(dens, mod)))
    return Padic.normalized(p, k * h - 1, total * pow(y, k, mod), precision)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), dh=st.integers(0, 3),
       a=st.integers(1, 10 ** 6), m=st.integers(-2, 2),
       precisions=st.dictionaries(st.integers(1, 60), st.integers(1, 300),
                                  min_size=1, max_size=12),
       mahler_at=st.integers(0, 11))
@example(p=5, dh=0, a=1, m=0, precisions={k: 300 for k in range(1, 253)}, mahler_at=0)
@example(p=2, dh=0, a=1, m=0, precisions={1: 1, 60: 300, 3: 40}, mahler_at=2)
def test_pole_powers_match_the_series_and_mahler_oracles(p, dh, a, m, precisions, mahler_at):
    # every requested k of one call, each at its own precision, against the
    # per-k series; one of them also against the Mahler engine
    x = _pole_point(p, (2 if p == 2 else 1) + dh, a, m)
    got = integral_pole_powers(x, p, precisions)
    assert got.keys() == precisions.keys()
    for k, precision in precisions.items():
        want = _series_pole_power(x, k, p, precision)
        assert (got[k].val, got[k].unit, got[k].prec) == (want.val, want.unit, want.prec), \
            (x, k, p, precision)
        assert got[k] == integral_pole_powers(x, p, {k: precision})[k]
    k = sorted(precisions)[mahler_at % len(precisions)]
    if k * precisions[k] <= 3000:  # keeps the Mahler engine's M small
        _assert_same_padic(x, k, p, precisions[k])


def test_pole_series_memo_serves_every_later_request(monkeypatch):
    # the p B_j residues are kept per p at the deepest modulus and the most
    # terms asked so far; shallower, deeper and longer requests all read them
    monkeypatch.setattr(volkenborn, "_SCALED_BERNOULLI", {})
    for x, precisions in ((Q(1, 5), {3: 10}), (Q(1, 5), {1: 200, 2: 30}), (Q(1, 5), {3: 10}),
                          (Q(3, 25), {1: 200}), (Q(2, 5), {4: 220}), (Q(1, 5), {1: 1})):
        got = integral_pole_powers(x, 5, precisions)
        for k, precision in precisions.items():
            assert got[k] == _series_pole_power(x, k, 5, precision), (x, k, precision)


def test_scaled_bernoulli_grows_the_bernoulli_memo_once(monkeypatch):
    # on a cold memo, 3,100 terms take one run of the tangent numbers, not one
    # per doubling of the memo, and every p B_j is the reduced exact value
    from padicforms import arith

    runs = []

    def counting(K):
        runs.append(K)
        return tangent(K)

    tangent = arith._tangent_numbers
    monkeypatch.setattr(arith, "_BERNOULLI_CACHE", [Q(1), Q(-1, 2)])
    monkeypatch.setattr(arith, "_tangent_numbers", counting)
    monkeypatch.setattr(volkenborn, "_SCALED_BERNOULLI", {})
    got = volkenborn._scaled_bernoulli(2, 3, 3100)
    assert len(runs) == 1 and len(got) == 3100
    assert got == [fraction_mod_pk(2 * bernoulli_number(j), 2, 3) for j in range(3100)]


def test_pole_powers_of_one_large_order_cost_one_sum():
    # a lone k is read off the series in one weighted sum, not k passes
    x = Q(1, 5)
    k = 10 ** 12
    got = integral_pole_powers(x, 5, {k: k + 20})[k]
    assert got == _series_pole_power(x, k, 5, k + 20)
    assert got.prec == k + 20 and got.val == k  # the leading term x^-k


def test_pole_power_simple_value():
    # Int (1/5 + t)^-1 dt = 5 mod 25, as the Mahler engine reports
    assert integral_pole_powers(Q(1, 5), 5, {1: 6})[1].agrees(Padic.from_fraction(5, 5, 2))


def test_pole_power_domain_checks():
    for x, p in ((Q(0), 5), (Q(1, 2), 2), (Q(5, 2), 2), (Q(3), 3),
                 (Q(2, 5), 3), (Q(7, 3), 7)):
        with pytest.raises(DomainError):
            integral_pole_powers(x, p, {2: 10})
    f = parse_rational_function("(1/5+t)^-1")
    for precision in (0, -3):
        with pytest.raises(DomainError):
            integral_pole_powers(Q(1, 5), 5, {2: precision})
        with pytest.raises(DomainError):
            integral_mahler(f, 5, precision)
        with pytest.raises(DomainError):
            integral_riemann(f, 5, 3, precision=precision)
    for precisions in ({0: 10}, {1: 10, 2: 0}, {1: 10, -1: 10}):
        with pytest.raises(DomainError):
            integral_pole_powers(Q(1, 5), 5, precisions)
