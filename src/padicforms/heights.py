"""Heights of matrices over a cyclotomic field, p-adic variants, and the dimension ratio.

Norms, p-adic valuations and images in Q_p of the entries come from `cyclotomic`,
through its one embedding of K into Q_p. That embedding is exact and shared, so
a matrix lifts its root of unity once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Union

from .cyclotomic import CyclotomicElement, abs_norm, padic_valuation, value_to_padic
from .errors import DomainError
from .padic import Padic

Q = Fraction
Entry = Union[Fraction, CyclotomicElement]

MAX_WIDTH = 8  # minor enumeration is exponential in the width


class HeightMatrix:
    """A matrix over K = Q(zeta_field_m) with rows <= cols."""

    __slots__ = ("entries", "field_m")

    def __init__(self, entries: Sequence[Sequence[Entry]], field_m: int = 1):
        rows = tuple(tuple(e if isinstance(e, (Fraction, CyclotomicElement)) else Q(e)
                           for e in row) for row in entries)
        if not rows:
            raise DomainError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DomainError("ragged matrix")
        if len(rows) > width:
            raise DomainError("need rows <= cols")
        if width > MAX_WIDTH:
            raise DomainError(f"width {width} beyond the minor-enumeration cap {MAX_WIDTH}")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "field_m", field_m)

    def __setattr__(self, name, value):
        raise AttributeError("HeightMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def append_row(self, row: Sequence[Entry]) -> HeightMatrix:
        """The matrix with one extra bottom row (the oplus operation)."""
        return HeightMatrix(tuple(self.entries) + (tuple(row),), self.field_m)

    def minor(self, cols: Sequence[int]) -> list[list[Entry]]:
        return [[row[j] for j in cols] for row in self.entries]


def _det_field(rows: list[list[Entry]]) -> Entry:
    """Determinant by Gaussian elimination over the field K."""
    n = len(rows)
    a = [list(r) for r in rows]
    det: Entry = Q(1)
    sign = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Q(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        pe = a[col][col]
        det = det * pe
        inv = 1 / pe if isinstance(pe, Fraction) else pe.inverse()
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det if sign == 1 else -det


def height_K(M: HeightMatrix) -> Fraction:
    """H_K(M): the maximum absolute norm over all maximal minors."""
    best = Q(0)
    for cols in combinations(range(M.ncols), M.nrows):
        det = _det_field(M.minor(cols))
        best = max(best, abs_norm(det, M.field_m))
    return best


def height_p_valuation(M: HeightMatrix, p: int) -> Fraction | float:
    """min over maximal minors of vp(det); H_p(M) = p^(-result)."""
    best = math.inf
    for cols in combinations(range(M.ncols), M.nrows):
        det = _det_field(M.minor(cols))
        if det == 0:
            continue
        best = min(best, padic_valuation(det, p))
    return best


def _padic_det(rows: list[list[Padic]], p: int) -> Padic:
    """Determinant of a p-adic matrix by min-valuation-pivot elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    acc: Optional[Padic] = None
    sign = 1
    for col in range(n):
        pivot, pivot_val = None, None
        for r in range(col, n):
            e = a[r][col]
            if e.is_zero_at_precision():
                continue
            if pivot is None or e.val < pivot_val:
                pivot, pivot_val = r, e.val
        if pivot is None:
            floor = min(e.prec for row in a[col:] for e in row[col:])
            if acc is not None and not acc.is_zero_at_precision():
                floor += acc.val
            return Padic.zero(p, floor)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        pe = a[col][col]
        acc = pe if acc is None else acc * pe
        for r in range(col + 1, n):
            e = a[r][col]
            if e.is_zero_at_precision():
                continue
            factor = e / pe
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    assert acc is not None
    return (-acc) if sign < 0 else acc


def delta_p_valuation(M: HeightMatrix, xi: Sequence[Padic], p: int,
                      prec: int = 48) -> Fraction | float:
    """min over J' (|J'| = rows-1... rows) of vp det(M_J' | M xi).

    J' runs over column subsets of size rows-1 plus the appended column
    M xi, giving square matrices of size rows; Delta_p = p^(-result).
    """
    if len(xi) != M.ncols:
        raise DomainError("xi must have one entry per column")
    emb_rows = [[value_to_padic(e, p, prec) for e in row] for row in M.entries]
    prod = []
    for row in emb_rows:
        acc = Padic.zero(p, prec)
        for e, x in zip(row, xi):
            acc = acc + e * x
        prod.append(acc)
    best = math.inf
    found = False
    for cols in combinations(range(M.ncols), M.nrows - 1):
        rows = [[emb_rows[r][j] for j in cols] + [prod[r]] for r in range(M.nrows)]
        det = _padic_det(rows, p)
        if det.is_zero_at_precision():
            continue
        found = True
        best = min(best, det.valuation())
    return best if found else math.inf


def dimension_bound(tau: Fraction, tau1: Fraction, tau2: Fraction) -> Fraction:
    """The linear-independence ratio tau1 / (tau + tau1 - tau2)."""
    tau, tau1, tau2 = Q(tau), Q(tau1), Q(tau2)
    den = tau + tau1 - tau2
    if den <= 0:
        raise DomainError("need tau + tau1 - tau2 > 0")
    return tau1 / den


@dataclass(frozen=True)
class RateFit:
    """Least-squares growth/decay rates fitted from a sequence of forms."""

    tau_hat: float        # slope of log H_K against sigma(n)
    tau_p_hat: float      # slope of -log |Lambda(1, theta)|_p against sigma(n)


def fit_rates(points: Sequence[tuple[int, float, float]], p: int) -> RateFit:
    """points: (sigma, log H_K, vp of Lambda(1, theta)).

    Fits both rates by ordinary least squares; the p-adic rate converts the
    valuation to -log |.|_p = vp * log p.
    """
    if len(points) < 2:
        raise DomainError("need at least two points to fit a rate")
    xs = [float(sig) for sig, _, _ in points]
    if len(set(xs)) < 2:
        raise DomainError("need at least two distinct sigma values to fit a rate")
    mean_x = sum(xs) / len(xs)
    denom = sum((x - mean_x) ** 2 for x in xs)

    def slope(ys):
        mean_y = sum(ys) / len(ys)
        return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom

    tau_hat = slope([h for _, h, _ in points])
    tau_p_hat = slope([nu * math.log(p) for _, _, nu in points])
    return RateFit(tau_hat=tau_hat, tau_p_hat=tau_p_hat)
