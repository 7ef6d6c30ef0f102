"""Exact rational arithmetic: Dedekind sums, circle exponents, integer rank.

Rational values are plain ``fractions.Fraction`` everywhere (arbitrary
precision, always reduced, denominator positive).  Values on the unit circle
are carried as their exponents in [0, 1) by ``CircleExponent``; no floating
point appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import kernels


def _check_dedekind_args(h: int, k: int) -> None:
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if math.gcd(h, k) != 1:
        raise ValueError(f"h and k must be coprime, got ({h}, {k})")


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) by direct summation of the defining sum.

    Requires gcd(h, k) == 1 and k >= 1; s(h, 1) == 0 (empty sum) and
    s(h, k) == s(h mod k, k).  O(k) time; kept as the oracle for
    ``dedekind_sum_fast``.
    """
    _check_dedekind_args(h, k)
    return Fraction(*kernels.dedekind_naive(h, k))


def dedekind_sum_fast(h: int, k: int) -> Fraction:
    """s(h, k) from the continued-fraction walk of h/k; O(log k) integer steps.

    Same domain and same values as ``dedekind_sum`` on every input.
    """
    _check_dedekind_args(h, k)
    return Fraction(*kernels.dedekind_fast(h, k))


def gcd_all(xs) -> int:
    """gcd of the absolute values; 0 for an empty or all-zero collection."""
    return math.gcd(*xs)


def integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free elimination.

    ``rows`` is a sequence of equal-length integer sequences; the empty matrix
    has rank 0.  Bareiss pivoting keeps every intermediate an exact integer.
    """
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return 0
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    rank = 0
    prev = 1
    col = 0
    while rank < len(m) and col < ncols:
        pivot_row = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot_row is None:
            col += 1
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, len(m)):
            factor = m[i][col]
            for j in range(col, ncols):
                m[i][j] = (pivot * m[i][j] - factor * m[rank][j]) // prev
        prev = pivot
        rank += 1
        col += 1
    return rank


def fraction_to_str(x: Fraction) -> str:
    """Serialize as "p/q" (denominator always present, never a float)."""
    return f"{x.numerator}/{x.denominator}"


def fraction_from_str(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


@dataclass(frozen=True)
class CircleExponent:
    """A point of the unit circle stored as its rational exponent mod 1.

    ``CircleExponent(x)`` stands for exp(2*pi*i*x); the group law is addition
    of exponents mod 1, so equality of values is equality of the reduced
    fractions.
    """

    value: Fraction

    def __init__(self, value) -> None:
        object.__setattr__(self, "value", Fraction(value) % 1)

    def __add__(self, other: "CircleExponent") -> "CircleExponent":
        return CircleExponent(self.value + other.value)

    def __neg__(self) -> "CircleExponent":
        return CircleExponent(-self.value)

    def __sub__(self, other: "CircleExponent") -> "CircleExponent":
        return CircleExponent(self.value - other.value)

    def __mul__(self, n: int) -> "CircleExponent":
        return CircleExponent(self.value * n)

    def __str__(self) -> str:
        return fraction_to_str(self.value)

    @classmethod
    def zero(cls) -> "CircleExponent":
        return cls(Fraction(0))

    @classmethod
    def from_str(cls, s: str) -> "CircleExponent":
        return cls(fraction_from_str(s))
