"""Valuations, binomial digit arithmetic, and Bernoulli polynomials, all exact."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DomainError
from .polynomials import Poly

INF = math.inf
Q = Fraction


# the first 13 primes: as Miller-Rabin bases they decide primality below
# PRIMALITY_BOUND (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=128)
def is_prime(n: int) -> bool:
    """Primality of n < PRIMALITY_BOUND, by Miller-Rabin over SMALL_PRIMES.

    n <= 41 is answered at once, and n >= PRIMALITY_BOUND is refused with
    DomainError, since these bases no longer decide it. The cache keeps
    check_prime, which vp calls every time, at a lookup for any p.
    """
    if n <= SMALL_PRIMES[-1]:
        return n in SMALL_PRIMES
    if n >= PRIMALITY_BOUND:
        raise DomainError(f"primality of {n} is decided only below {PRIMALITY_BOUND}")
    if any(n % q == 0 for q in SMALL_PRIMES):
        return False
    s = vp_int(n - 1, 2)  # n - 1 = 2^s d with d odd
    for a in SMALL_PRIMES:
        x = pow(a, (n - 1) >> s, n)
        if x not in (1, n - 1):
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return p


def vp_int(n: int, p: int) -> int | float:
    """p-adic valuation of an integer; math.inf for 0.

    Returns at once on n % p, reads the lowest set bit at p = 2, and
    otherwise splits by the squares p, p^2, p^4, ... that divide n.
    """
    if n == 0:
        return INF
    if n % p:
        return 0
    if p == 2:
        return (n & -n).bit_length() - 1
    powers = [p]
    while n % (square := powers[-1] * powers[-1]) == 0:
        powers.append(square)
    v = 0
    for k in reversed(range(len(powers))):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v


def split(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v u and p not dividing u, for an integer n != 0."""
    if n % p:
        return 0, n
    v = vp_int(n, p)
    return v, n // p ** v


def unit_residue(num: int, den: int, p: int, k: int) -> tuple[int, int]:
    """(v, u) with num/den = p^v y, y a p-adic unit and u = y mod p^k, for num, den != 0.

    With split, the one place a number is split into p^v times a unit and
    reduced mod p^k.
    """
    (vn, un), (vd, ud) = split(num, p), split(den, p)
    mod = p ** k
    return vn - vd, un * pow(ud, -1, mod) % mod


def batch_invert(units: Sequence[int], mod: int) -> list[int]:
    """Montgomery batch inversion of units modulo mod: one pow(., -1, mod) in all."""
    partials = [1]
    for u in units:
        partials.append(partials[-1] * u % mod)
    inv = pow(partials[-1], -1, mod)
    out = [0] * len(units)
    for i in range(len(units), 0, -1):
        out[i - 1] = partials[i - 1] * inv % mod
        inv = inv * units[i - 1] % mod
    return out


def vp(x: Fraction | int, p: int) -> int | float:
    """p-adic valuation of a rational, normalized by vp(p) = 1; inf at 0."""
    check_prime(p)
    x = Fraction(x)
    if x == 0:
        return INF
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def digits_base_p(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first; [] for 0."""
    if n < 0:
        raise DomainError("need n >= 0")
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def binom_padic_data(m: int, n: int, p: int) -> tuple[int, int]:
    """(carry count, residue mod p) for binom(m, n), computed digitwise.

    The carry count when adding n and m - n in base p equals vp(binom(m, n));
    the residue is the digitwise product binom(m_i, n_i) mod p.
    """
    check_prime(p)
    if not 0 <= n <= m:
        raise DomainError("need 0 <= n <= m")
    dm = digits_base_p(m, p)
    dn = digits_base_p(n, p)
    dk = digits_base_p(m - n, p)
    dn += [0] * (len(dm) - len(dn))
    dk += [0] * (len(dm) - len(dk))
    carries = 0
    carry = 0
    residue = 1
    for i in range(len(dm)):
        s = dn[i] + dk[i] + carry
        carry = 1 if s >= p else 0
        carries += carry
        residue = (residue * math.comb(dm[i], dn[i])) % p
    return carries, residue


def multinomial_packed(m: int, n: int) -> int:
    """m! / (n!^(m // n) * (m mod n)!), the multinomial with maximal n-blocks."""
    if m < 0 or n < 1:
        raise DomainError("need m >= 0 and n >= 1")
    return math.factorial(m) // (math.factorial(n) ** (m // n) * math.factorial(m % n))


@lru_cache(maxsize=None)
def lcm_upto(n: int) -> int:
    """lcm(1, ..., n)."""
    if n < 1:
        raise DomainError("need n >= 1")
    return math.lcm(*range(1, n + 1))


def factorial_valuation(n: int, p: int) -> int:
    """vp(n!) by Legendre's digit-sum formula."""
    check_prime(p)
    s = sum(digits_base_p(n, p))
    return (n - s) // (p - 1)


_BERNOULLI_CACHE: list[Fraction] = [Q(1), Q(-1, 2)]


def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention, memoized.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) with T_k the tangent
    numbers, computed in integers (Brent and Harvey, "Fast computation of
    Bernoulli, Tangent and Secant numbers", 2011). The memo at least
    doubles whenever it grows.
    """
    if n < 0:
        raise DomainError("need n >= 0")
    if n >= len(_BERNOULLI_CACHE):
        size = max(n + 1, 2 * len(_BERNOULLI_CACHE))
        tangent = _tangent_numbers(size // 2)
        for m in range(len(_BERNOULLI_CACHE), size):
            if m % 2:
                _BERNOULLI_CACHE.append(Q(0))
            else:
                k = m // 2
                b = Q(2 * k * tangent[k], 4 ** k * (4 ** k - 1))
                _BERNOULLI_CACHE.append(b if k % 2 else -b)
    return _BERNOULLI_CACHE[n]


def _tangent_numbers(K: int) -> list[int]:
    """T_0 = 0 and the tangent numbers T_1 = 1, T_2 = 2, T_3 = 16, ... up to T_K, K >= 1."""
    T = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> Poly:
    """B_n(x) = sum_k binom(n, k) B_k x^(n-k), exact."""
    if n < 0:
        raise DomainError("need n >= 0")
    coeffs = [Q(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = math.comb(n, k) * bernoulli_number(k)
    return Poly(coeffs)


def rising_factorial(t: Fraction | int, n: int) -> Fraction:
    """t (t+1) ... (t+n-1); equals 1 for n = 0."""
    acc = Q(1)
    for j in range(n):
        acc *= t + j
    return acc
