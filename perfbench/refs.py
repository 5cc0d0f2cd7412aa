"""Reference computations for the benchmark's output checks.

Everything here is written apart from the program: it imports nothing from
`padicforms`, and where the program has an algorithm of its own this module
uses a different one.

* Bernoulli numbers come from the Akiyama-Tanigawa algorithm (the program
  uses the binomial recurrence).
* Generalized Bernoulli numbers B_(n,chi) use the standard sum over
  a = 1..f with the character table built here from Euler's criterion.
* Volkenborn integrals of (x+t)^(-k) come from the Bernoulli series
  sum_j binom(-k, j) B_j x^(-k-j), truncated where the terms' valuation
  passes the requested precision (the program sums Mahler series).
* R_n is evaluated from its product formula, never from a table.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction


# -- valuations --------------------------------------------------------------


def vp(x: Fraction | int, p: int) -> int | float:
    """p-adic valuation of a rational; math.inf at 0."""
    x = Q(x)
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_part(x: Fraction, p: int) -> tuple[int, Fraction]:
    """(v, u) with x = p^v u and u a p-adic unit."""
    v = vp(x, p)
    return v, Q(x) / Q(p) ** v


# -- Bernoulli numbers ---------------------------------------------------------


class Bernoulli:
    """B_0, B_1, ... with B_1 = -1/2, by the Akiyama-Tanigawa algorithm.

    The working row is kept, so asking for a larger index extends the table
    instead of starting again.
    """

    def __init__(self):
        self._row: list[Fraction] = []
        self._values: list[Fraction] = []

    def __call__(self, n: int) -> Fraction:
        while len(self._values) <= n:
            m = len(self._row)
            self._row.append(Q(1, m + 1))
            for j in range(m, 0, -1):
                self._row[j - 1] = j * (self._row[j - 1] - self._row[j])
            # the algorithm yields B_1 = +1/2; every other index agrees
            self._values.append(-self._row[0] if m == 1 else self._row[0])
        return self._values[n]

    def poly_value(self, n: int, x: Fraction) -> Fraction:
        """B_n(x) = sum_k binom(n, k) B_k x^(n-k)."""
        x = Q(x)
        return sum((math.comb(n, k) * self(k) * x ** (n - k) for k in range(n + 1)), Q(0))


# -- characters ------------------------------------------------------------------


def character_table(spec: str) -> tuple[int, dict[int, int]]:
    """(modulus f, {a: chi(a)} for 1 <= a <= f) for "trivial" or "quadratic:d".

    Quadratic characters are Kronecker symbols: Euler's criterion for an odd
    prime d, the fixed tables for d = 4 and d = 8. Residues not coprime to
    f map to 0.
    """
    if spec == "trivial":
        return 1, {1: 1}
    tag, _, d_text = spec.partition(":")
    d = int(d_text)
    if tag != "quadratic":
        raise ValueError(f"no reference character for {spec!r}")
    if d == 4:
        table = {1: 1, 3: -1}
    elif d == 8:
        table = {1: 1, 7: 1, 3: -1, 5: -1}
    else:
        table = {a: (1 if pow(a, (d - 1) // 2, d) == 1 else -1) for a in range(1, d)}
    return d, {a: table.get(a, 0) for a in range(1, d + 1)}


def chi_value(table: tuple[int, dict[int, int]], a: int) -> int:
    f, values = table
    return values[(a - 1) % f + 1]


def character_parity(table: tuple[int, dict[int, int]]) -> int:
    """0 for an even character, 1 for an odd one."""
    return 0 if chi_value(table, -1) == 1 else 1


def conductor(table: tuple[int, dict[int, int]]) -> int:
    """Least divisor f0 of f such that chi is trivial on units = 1 mod f0."""
    f, values = table
    for f0 in range(1, f + 1):
        if f % f0:
            continue
        if all(values[a] == 1 for a in values if values[a] and (a - 1) % f0 == 0):
            return f0
    return f


def gen_bernoulli(n: int, table: tuple[int, dict[int, int]], bern: Bernoulli) -> Fraction:
    """B_(n,chi) = f^(n-1) sum_(a=1..f) chi(a) B_n(a/f)."""
    f, values = table
    acc = Q(0)
    for a in range(1, f + 1):
        if values[a]:
            acc += values[a] * bern.poly_value(n, Q(a, f))
    return acc * Q(f) ** (n - 1)


# -- Volkenborn integrals ------------------------------------------------------------


def pole_integral(k: int, x: Fraction, p: int, prec: int, bern: Bernoulli) -> Fraction:
    """A rational congruent to the integral of (x+t)^(-k) dt modulo p^prec.

    Sums binom(-k, j) B_j x^(-k-j) for |x|_p > 1. With h = -vp(x) >= 1 the
    j-th term has valuation at least (k+j) h - 1 (von Staudt-Clausen), so
    the terms from the first j with (k+j) h - 1 >= prec on are dropped.
    """
    x = Q(x)
    h = -vp(x, p)
    if h < 1:
        raise ValueError(f"|{x}|_{p} must exceed 1")
    stop = max(0, -((-(prec + 1)) // h) - k)
    inv = 1 / x
    power = inv ** k
    coef = 1  # binom(-k, j)
    acc = Q(0)
    for j in range(stop):
        bj = bern(j)
        if bj:
            acc += coef * bj * power
        coef = coef * (-k - j) // (j + 1)
        power *= inv
    return acc


def teichmuller_unit(u: Fraction, p: int, prec: int) -> int:
    """An integer congruent to the Teichmuller lift of the unit u modulo p^prec."""
    mod = p ** prec
    if p == 2:
        return 1 if u.numerator * u.denominator % 4 == 1 else mod - 1
    y = u.numerator * pow(u.denominator, -1, mod) % mod
    # y^(p^k) = omega(u) mod p^(k+1)
    for _ in range(prec):
        y = pow(y, p, mod)
    return y


def omega_ext(x: Fraction, p: int, prec: int) -> Fraction:
    """p^v omega(u) for x = p^v u, to relative precision prec."""
    v, u = unit_part(Q(x), p)
    return Q(p) ** v * teichmuller_unit(u, p, prec)


def lvalue_positive(i: int, spec: str, p: int, l: int, prec: int, bern: Bernoulli) -> Fraction:
    """L_p(i, chi omega^(1-i)) for i >= 2, modulo p^prec.

    Uses L_p(i, chi omega^(1-i)) = D^(-i)/(i-1) sum_(j unit mod D) chi(j)
    integral (j/D + t)^(1-i) dt with D = f' p^l, f' the prime-to-p part
    of the conductor.
    """
    table = character_table(spec)
    f0 = conductor(table)
    l0 = vp(f0, p) if f0 > 1 else 0
    D = (f0 // p ** l0) * p ** l
    scale = Q(1, D) ** i / (i - 1)
    need = prec - vp(scale, p)
    acc = Q(0)
    for j in range(1, D + 1):
        if j % p == 0:
            continue
        c = chi_value(table, j)
        if c:
            acc += c * pole_integral(i - 1, Q(j, D), p, need, bern)
    return acc * scale


def lvalue_nonpositive(i: int, spec: str, p: int, bern: Bernoulli) -> Fraction:
    """L_p(1-n, chi omega^n) = -(1 - chi(p) p^(n-1)) B_(n,chi)/n, n = 1 - i."""
    n = 1 - i
    table = character_table(spec)
    f0 = conductor(table)
    primitive = (f0, {a: chi_value(table, a) for a in range(1, f0 + 1)})
    chi_p = chi_value(primitive, p) if math.gcd(p, f0) == 1 else 0
    return -(1 - chi_p * Q(p) ** (n - 1)) * gen_bernoulli(n, primitive, bern) / n


# -- the rational functions R_n -----------------------------------------------------


def packed_multinomial(m: int, n: int) -> int:
    """m! / (n!^(m // n) (m mod n)!), built as a product of binomials."""
    out = 1
    left = m
    while left >= n:
        out *= math.comb(left, n)
        left -= n
    return out


def digit_count(k: int, p: int) -> int:
    out = 0
    while k:
        k //= p
        out += 1
    return out


class RnShape:
    """The parameters of one family R_n, derived here from (chi or x, p, l, s).

    L mode: delta = parity of chi, r = floor(vp(B_(2+delta,chi))) + 1,
    Q = p^(r+l+1), D = d' p^l. Hurwitz mode at x = j0/d: delta = -2, r = 0,
    Q = p^(l+1), D = d' p^l, where d' is the prime-to-p part of d.
    """

    def __init__(self, p: int, s: int, l: int, n: int, spec: str | None = None,
                 x: Fraction | None = None, bern: Bernoulli | None = None):
        self.p, self.s, self.l, self.n = p, s, l, n
        if x is None:
            table = character_table(spec)
            f0 = conductor(table)
            self.delta = character_parity(table)
            primitive = (f0, {a: chi_value(table, a) for a in range(1, f0 + 1)})
            self.b_head = gen_bernoulli(2 + self.delta, primitive, bern or Bernoulli())
            self.r = math.floor(vp(self.b_head, p)) + 1
            d = f0
        else:
            self.delta, self.r, self.b_head = -2, 0, None
            d = Q(x).denominator
        self.l0 = vp(d, p) if d > 1 else 0
        self.d_prime = d // p ** self.l0
        self.Q = p ** (self.r + l + 1)
        self.D = self.d_prime * p ** l
        self.m = digit_count(self.d_prime * n, p)
        self.N = p ** l * (p ** self.m - 1)

    def value(self, t: Fraction) -> Fraction:
        """R_n(t) from the product formula."""
        t = Q(t)
        rising = Q(1)
        for j in range(self.n + 1):
            rising *= t + j
        binom = Q(1)
        for v in range(1, self.N + 1):
            binom *= (self.D * t + v) / v
        out = (Q(math.factorial(self.n)) ** self.s
               * Q(packed_multinomial(self.N, self.n)) ** self.Q
               * binom ** self.Q / rising ** self.s)
        if self.delta != -2:
            out *= (self.D * t) ** (2 + self.delta)
        return out

    def valuation_formula(self) -> int:
        """s vp(n!) + Q vp(packed) + ((n+1)s + 1) l - m(n) + vp(B_(2+delta,chi))."""
        p, n = self.p, self.n
        return (self.s * vp(math.factorial(n), p)
                + self.Q * vp(packed_multinomial(self.N, n), p)
                + ((n + 1) * self.s + 1) * self.l
                - self.m
                + vp(self.b_head, p))


def reconstruct(rows, t: Fraction) -> Fraction:
    """sum over i, k of rows[i-1][k] / (t+k)^i."""
    t = Q(t)
    acc = Q(0)
    for i, row in enumerate(rows, start=1):
        for k, c in enumerate(row):
            if c:
                acc += c / (t + k) ** i
    return acc


# -- heights -----------------------------------------------------------------------


def dimension_ratio(tau: Fraction, tau1: Fraction, tau2: Fraction) -> Fraction:
    """tau1 / (tau + tau1 - tau2)."""
    return Q(tau1) / (Q(tau) + Q(tau1) - Q(tau2))
