import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicforms.arith import vp
from padicforms.characters import (DirichletCharacter, _into_field, char_make,
                                   character_from_spec, chi_padic_data, chi_units,
                                   gen_bernoulli, quadratic_character,
                                   trivial_character)
from padicforms.cyclotomic import CyclotomicElement, euler_phi
from padicforms.errors import DomainError


def _root_of_unity_order(v):
    """The least e >= 1 with v^e = 1, by powering in the field: the reference
    for the order the character reads off its own table."""
    if isinstance(v, Q):
        if v == 1:
            return 1
        if v == -1:
            return 2
        raise DomainError(f"{v} is not a root of unity")
    acc = v
    for e in range(1, 2 * euler_phi(v.m) * v.m + 1):
        if acc == 1:
            return e
        acc = acc * v
    raise DomainError("value is not a root of unity")


def _lift_by_horner(v, m):
    """v in Q(zeta_a) lifted into Q(zeta_m) as a Horner sum in
    zeta_a = zeta_m^(m/a), by field products: the reference for the one
    reduction that _into_field takes."""
    lift = Q(0)
    step = CyclotomicElement.zeta(m, m // v.m)
    for c in reversed(v.coords):
        lift = lift * step + c
    return lift


def test_trivial_character():
    chi = trivial_character()
    assert chi.modulus == 1 and chi.conductor == 1 and chi.delta == 0
    assert chi.value(0) == 1 and chi.value(17) == 1


def test_quadratic_characters():
    q4 = quadratic_character(4)
    assert (q4.delta, q4.conductor, q4.order) == (1, 4, 2)
    assert q4.value(3) == -1 and q4.value(2) == 0
    q3 = quadratic_character(3)
    assert (q3.delta, q3.conductor) == (1, 3)
    q5 = quadratic_character(5)
    assert q5.delta == 0 and q5.value(4) == 1 and q5.value(2) == -1


def test_char_make_rejects_bad_tables():
    with pytest.raises(DomainError):
        char_make(5, {1: Q(1), 2: Q(2), 3: Q(3), 4: Q(4)})  # not roots of unity
    with pytest.raises(DomainError):
        char_make(4, {1: Q(1), 3: Q(0)})  # vanishing at a unit


def _all_pairs_multiplicative(modulus, values):
    """chi(1) = 1, no zero at a unit and chi(a b) = chi(a) chi(b) on every
    pair of units: the reference for the generator check."""
    def chi(a):
        return values[a % modulus]
    return (chi(1) == 1 and all(v != 0 for v in values.values())
            and all(chi(a) * chi(b) == chi(a * b) for a in values for b in values))


def _legendre(q):
    return lambda a: Q(1) if pow(a, (q - 1) // 2, q) == 1 else Q(-1)


@st.composite
def _character_tables(draw):
    """(modulus, values) of a character, with maybe one value changed.

    Either a product of Legendre symbols and chi_4 or chi_8 (the unit group
    need not be cyclic), or at a prime q the character g^k -> zeta_m^(e k)
    for the least primitive root g and some m | q - 1.
    """
    if draw(st.booleans()):
        q = draw(st.sampled_from((5, 7, 11, 13)))
        m = draw(st.sampled_from([m for m in range(3, q) if (q - 1) % m == 0]))
        g = next(g for g in range(2, q) if all(pow(g, (q - 1) // f, q) != 1
                                               for f in (2, 3, 5) if (q - 1) % f == 0))
        e = draw(st.integers(0, m - 1))
        modulus = q
        values = {pow(g, k, q): CyclotomicElement.zeta(m, e * k) for k in range(q - 1)}
        others = [Q(0)] + [CyclotomicElement.zeta(m, r) for r in range(m)]
    else:
        odd = draw(st.lists(st.sampled_from((3, 5, 7)), unique=True, max_size=2))
        two = draw(st.sampled_from((1, 4, 8) if odd else (4, 8)))
        modulus = two * math.prod(odd)
        factors = [_legendre(q) for q in odd]
        if two > 1:
            factors.append(lambda a: Q(1) if a % 4 == 1 else Q(-1))
        if two == 8:
            factors.append(lambda a: Q(1) if a % 8 in (1, 7) else Q(-1))
        chosen = [f for f in factors if draw(st.booleans())]
        values = {a: math.prod((f(a) for f in chosen), start=Q(1))
                  for a in range(1, modulus) if math.gcd(a, modulus) == 1}
        others = [Q(0), Q(1), Q(-1)]
    if draw(st.booleans()):
        values[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from(others))
    return modulus, values


@settings(max_examples=200, deadline=None)
@given(table=_character_tables())
def test_generator_check_agrees_with_all_pairs(table):
    # a character's order, read at the generators, is the lcm of all orders
    modulus, values = table
    try:
        chi = DirichletCharacter(modulus, values)
    except DomainError:
        chi = None
    assert (chi is not None) == _all_pairs_multiplicative(modulus, values)
    if chi is not None:
        assert chi.order == math.lcm(*(_root_of_unity_order(chi(a)) for a in values))


@settings(max_examples=100, deadline=None)
@given(a=st.sampled_from((3, 4, 5, 7, 8, 9, 12)), k=st.integers(1, 4), data=st.data())
def test_lift_into_a_multiple_field_equals_the_horner_oracle(a, k, data):
    coords = data.draw(st.lists(st.fractions(-9, 9, max_denominator=9),
                                min_size=euler_phi(a), max_size=euler_phi(a)))
    v = CyclotomicElement(a, coords)
    lift = _into_field(v, a * k)
    assert lift.m == a * k and lift.coords == _lift_by_horner(v, a * k).coords


@pytest.mark.parametrize("e", range(12))
def test_values_from_several_fields_are_lifted_into_their_compositum(e):
    # g^k -> zeta_12^(e k) mod 13 has order o = 12 / gcd(e, 12); each value
    # written over the least Q(zeta_d) that holds it, or all over Q(zeta_o),
    # gives one character
    g, o = 2, 12 // math.gcd(e, 12)  # 2 is a primitive root mod 13
    wide, least = {}, {}
    for k in range(12):
        d = 12 // math.gcd(e * k, 12)
        wide[pow(g, k, 13)] = CyclotomicElement.zeta(o, e * k * o // 12)
        least[pow(g, k, 13)] = CyclotomicElement.zeta(d, e * k * d // 12)
    chi, psi = DirichletCharacter(13, wide), DirichletCharacter(13, least)
    assert chi.order == psi.order == o
    assert chi.field_m == psi.field_m == (o if o > 2 else 1)
    assert all(chi(a) == psi(a) for a in range(13))
    assert (chi.conductor, chi.delta) == (psi.conductor, psi.delta)


def test_conductor_detection_non_primitive():
    # the mod-4 character induced to modulus 8 keeps conductor 4
    chi = char_make(8, {1: Q(1), 3: Q(-1), 5: Q(1), 7: Q(-1)})
    assert chi.conductor == 4 and chi.delta == 1


def test_quartic_character_mod_5():
    i = CyclotomicElement.zeta(4)
    chi = char_make(5, {1: CyclotomicElement.one(4), 2: i, 3: -i,
                        4: CyclotomicElement.from_rational(-1, 4)})
    assert chi.order == 4 and chi.conductor == 5 and chi.delta == 1
    assert chi.field_m == 4
    b = gen_bernoulli(3, chi)
    assert isinstance(b, CyclotomicElement) and not b.is_zero()
    data = chi_padic_data(chi, 13)  # 4 | 13 - 1, embedding resolvable
    assert data.d_prime == 5 and data.l0 == 0
    # vp(B_(3,chi)) under the embedding of K, against a 200-digit image
    for p, d_prime, l0, nu in ((5, 1, 1, -1), (13, 5, 0, 0)):
        data = chi_padic_data(chi, p)
        deep = b.embed(p, 200)
        assert (data.d_prime, data.l0, data.r) == (d_prime, l0, deep.valuation() + 1) == \
            (d_prime, l0, nu + 1)


def test_chi_units_matches_explicit_loop():
    i = CyclotomicElement.zeta(4)
    quartic = char_make(5, {1: CyclotomicElement.one(4), 2: i, 3: -i,
                            4: CyclotomicElement.from_rational(-1, 4)})
    for chi in (trivial_character(), quadratic_character(4), quadratic_character(3),
                quartic):
        for D in (4, 8, 9, 15):
            for p in (2, 3):
                want = []
                for j in range(1, D + 1):
                    if math.gcd(j, p) != 1:
                        continue
                    c = chi.value(j)
                    if (isinstance(c, Q) and c == 0) or \
                       (isinstance(c, CyclotomicElement) and c.is_zero()):
                        continue
                    want.append((j, c))
                assert list(chi_units(chi, D, p)) == want, (chi, D, p)


def test_gen_bernoulli_examples():
    q4 = quadratic_character(4)
    assert gen_bernoulli(1, q4) == Q(-1, 2)
    assert gen_bernoulli(3, q4) == Q(3, 2)
    assert gen_bernoulli(2, trivial_character()) == Q(1, 6)
    # modulus-1 convention: B_1 = -1/2
    assert gen_bernoulli(1, trivial_character()) == Q(-1, 2)


def _unit_group(d):
    return [j for j in range(1, d + 1) if math.gcd(j, d) == 1] if d > 1 else [1]


def _generating_sets(d):
    """A minimal generating set of (Z/d)*, greedy (d <= 12 keeps this tiny)."""
    units = _unit_group(d)
    span = {1 % d}
    gens = []
    for u in sorted(units, key=lambda u: -_mult_order(u, d)):
        if u % d in span:
            continue
        gens.append(u)
        new = set(span)
        acc = u % d
        while acc not in new:
            new.update((acc * s) % d for s in span)
            acc = acc * u % d
        span = new
        if len(span) == len(units):
            break
    return gens


def _mult_order(u, d):
    k, acc = 1, u % d
    while acc != 1 % d:
        acc = acc * u % d
        k += 1
    return k


def _all_characters(d):
    """Every Dirichlet character of modulus d, built from generator images."""
    if d == 1:
        return [trivial_character()]
    units = _unit_group(d)
    gens = _generating_sets(d)
    orders = [_mult_order(g, d) for g in gens]
    exponent = math.lcm(*orders)
    out = []
    import itertools

    for images in itertools.product(*[range(o) for o in orders]):
        table = {}
        ok = True
        for j in units:
            # write j as a product of generator powers by brute force
            exps = _decompose(j, gens, orders, d)
            if exps is None:
                ok = False
                break
            k = sum(img * e * (exponent // o)
                    for img, e, o in zip(images, exps, orders)) % exponent
            table[j % d] = _zeta_power(exponent, k)
        if not ok:
            continue
        try:
            out.append(char_make(d, table))
        except DomainError:
            pass
    return out


def _decompose(j, gens, orders, d):
    import itertools

    for exps in itertools.product(*[range(o) for o in orders]):
        acc = 1
        for g, e in zip(gens, exps):
            acc = acc * pow(g, e, d) % d
        if acc == j % d:
            return exps
    return None


def _zeta_power(m, k):
    if m == 1:
        return Q(1)
    if m == 2:
        return Q(1) if k % 2 == 0 else Q(-1)
    return CyclotomicElement.zeta(m, k)


@pytest.mark.parametrize("d", [1, 3, 4, 5, 7, 8, 9, 11, 12])
def test_twisted_bernoulli_nonvanishing(d):
    # B_(k,chi) != 0 whenever k = delta(chi) mod 2, for k <= 8
    characters = _all_characters(d)
    assert len(characters) == len(_unit_group(d))
    for chi in characters:
        for k in range(1, 9):
            if k % 2 != chi.delta % 2:
                continue
            b = gen_bernoulli(k, chi)
            if isinstance(b, Q):
                assert b != 0, (d, chi.label, k)
            else:
                assert not b.is_zero(), (d, k)


@pytest.mark.parametrize("p,l", [(3, 2), (5, 1), (5, 2)])
def test_twisted_bernoulli_congruence(p, l):
    # (1 - chi(p) p^(k-1)) B_(k,chi) = (1/D) sum chi(j) j^k mod p^(l-1)
    for chi in (trivial_character(), quadratic_character(3), quadratic_character(4)):
        D = (chi.conductor // p ** int(vp(Q(chi.conductor), p))) * p ** l
        for k in range(1, 5):
            rhs = Q(0)
            for j in range(1, D + 1):
                if math.gcd(j, p) != 1:
                    continue
                c = chi.value(j)
                if c:
                    rhs += c * j ** k
            rhs /= D
            lhs = (1 - chi.value(p) * Q(p) ** (k - 1)) * gen_bernoulli(k, chi)
            diff = lhs - rhs
            assert diff == 0 or vp(diff, p) >= l - 1, (chi.label, p, l, k)


def test_chi_padic_data_examples():
    assert chi_padic_data(trivial_character(), 2).r == 0
    assert chi_padic_data(trivial_character(), 5).r == 1
    data = chi_padic_data(quadratic_character(4), 2)
    assert (data.d_prime, data.l0, data.r, data.b_head) == (1, 2, 0, Q(3, 2))


def test_character_from_spec():
    assert character_from_spec("trivial").modulus == 1
    assert character_from_spec("quadratic:4").conductor == 4
    chi = character_from_spec({"modulus": 3, "values": ["1", "-1", "0"]})
    assert chi.conductor == 3 and chi.delta == 1
    with pytest.raises(DomainError):
        character_from_spec("unknown:9")
