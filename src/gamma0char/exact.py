"""Exact rational arithmetic: Dedekind sums, circle exponents, integer rank.

Rationals enter as ``fractions.Fraction`` or int; floats and other inexact
numbers are rejected with ``ValueError``.  A point of the unit circle is a
``CircleExponent``, its exponent mod 1 held as a reduced integer pair, so hot
loops add integers over an explicit modulus.  No floating point appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

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
    ncols = len(m[0]) if m else 0
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


def as_fraction(x) -> Fraction:
    """x as a Fraction; ValueError unless x is an exact rational (no floats)."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, Rational):
        raise ValueError(f"{x!r} is not an exact rational")
    return Fraction(x)


def as_int(x) -> int:
    """x as an int; ValueError unless x is an exact rational with denominator 1."""
    if isinstance(x, Rational) and x.denominator == 1:
        return int(x.numerator)
    raise ValueError(f"{x!r} is not an integer")


@dataclass(frozen=True)
class CircleExponent:
    """A point of the unit circle stored as its rational exponent mod 1.

    ``CircleExponent(x)`` stands for exp(2*pi*i*x), stored as the reduced pair
    num/den with 0 <= num < den; ``from_residue(x, m)`` builds x/m, and the group
    law (addition mod 1) is integer cross-multiplication through it.  Equal
    values have equal pairs; ``value`` returns the exponent as a Fraction.
    """

    num: int
    den: int

    def __init__(self, value) -> None:
        q = as_fraction(value)
        object.__setattr__(self, "num", q.numerator % q.denominator)
        object.__setattr__(self, "den", q.denominator)

    @classmethod
    def from_residue(cls, x: int, m: int) -> "CircleExponent":
        """exp(2*pi*i*x/m) for integers x and m > 0."""
        g = math.gcd(x, m)
        self = object.__new__(cls)
        object.__setattr__(self, "num", x % m // g)
        object.__setattr__(self, "den", m // g)
        return self

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: "CircleExponent") -> "CircleExponent":
        return self.from_residue(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "CircleExponent":
        return self.from_residue(-self.num, self.den)

    def __sub__(self, other: "CircleExponent") -> "CircleExponent":
        return self + -other

    def __mul__(self, n: int) -> "CircleExponent":
        return self.from_residue(self.num * n, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def zero(cls) -> "CircleExponent":
        return cls.from_residue(0, 1)
