"""Exact rational arithmetic: Dedekind sums, circle exponents, integer rank.

Both Dedekind sum routes return a ``Fraction``: ``dedekind_sum`` sums the
definition, ``dedekind_sum_fast`` reads the Euclid walk of ``kernels.psi4``.
Rationals enter as ``fractions.Fraction`` or int; floats and other inexact
numbers are rejected with ``ValueError``.  A point of the unit circle is a
``CircleExponent``, built only from an integer residue over an explicit
modulus and held as its exponent mod 1, a reduced integer pair, so hot loops
add integers.  No floating point appears anywhere.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from . import kernels


def _check_dedekind_args(h: int, k: int) -> None:
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if math.gcd(h, k) != 1:
        raise ValueError(f"h and k must be coprime, got ({h}, {k})")


# Up to this size the vectorised int64 path of the naive sum cannot overflow:
# its largest int64 value is the dot product sum(r*(h*r mod k)) < k**3/2,
# 5*10**17 at k = 10**6 (the numerator built from it is a Python int).
_NAIVE_VECTOR_LIMIT = 10**6


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) by direct summation of the defining sum.

    The sum over r = 1..k-1 of (r/k)*(hr/k - floor(hr/k) - 1/2), cleared to the
    integer 12*k^2*s(h,k) = 12*sum(r*(h*r mod k)) - 3*k^2*(k-1).  Requires
    gcd(h, k) == 1 and k >= 1; s(h, 1) == 0 (empty sum) and
    s(h, k) == s(h mod k, k).  O(k) time; kept as the oracle for
    ``dedekind_sum_fast``.
    """
    _check_dedekind_args(h, k)
    h %= k
    if k <= _NAIVE_VECTOR_LIMIT:
        import numpy as np

        r = np.arange(1, k, dtype=np.int64)
        x = int(r.dot(h * r % k))
    else:
        x = sum(r * (h * r % k) for r in range(1, k))
    return Fraction(12 * x - 3 * k * k * (k - 1), 12 * k * k)


def dedekind_sum_fast(h: int, k: int) -> Fraction:
    """s(h, k) from the partial quotients of h/k; O(log k) integer steps.

    s(h, k) = (k*W + h + h*)/(12k), h* = h^-1 mod k in [0, k), with W read
    off ``kernels.psi4``'s walk (Barkan, Hickerson, Knuth 1977): the matrix
    (h*, (h*h - 1)/k; k, h) has determinant 1 and h*//k == 0, so
    W = -3 - psi4(h*, (h*h - 1)/k, k, h).  Same domain and same values as
    ``dedekind_sum`` on every input.
    """
    _check_dedekind_args(h, k)
    inv = pow(h, -1, k)
    return Fraction(h + inv - k * (3 + kernels.psi4(inv, (inv * h - 1) // k, k, h)), 12 * k)


class EchelonBasis:
    """A fraction-free echelon basis of integer rows, grown one row at a time.

    ``add(row)`` reduces the row against the basis rows in the order they were
    added: at basis row b's pivot column j, row becomes b[j] * row - row[j] * b,
    so every intermediate stays an exact integer.  The reduced row is divided
    by the gcd of its entries, which keeps entries from growing row after row,
    and joins the basis, pivoting at its first nonzero column, unless it is
    zero.  The basis spans the rows added so far, so its size, which ``add``
    returns, is their rank over the rationals.
    """

    __slots__ = ("basis",)

    def __init__(self) -> None:
        self.basis: list[tuple[int, Sequence[int]]] = []  # (pivot column, row)

    def add(self, row: Sequence[int]) -> int:
        """Add one row; return the rank of the rows added so far."""
        for j, b in self.basis:
            x = row[j]
            if x:
                p = b[j]
                row = [p * u - x * v for u, v in zip(row, b)]
        g = math.gcd(*row)
        if g:
            if g > 1:
                row = [u // g for u in row]
            self.basis.append((next(j for j, u in enumerate(row) if u), row))
        return len(self.basis)


def integer_rank(rows) -> int:
    """Rank over the rationals of an integer matrix, through ``EchelonBasis``.

    ``rows`` is a sequence of equal-length integer sequences; the empty matrix
    has rank 0, and a ragged one raises ``ValueError`` (every row is checked
    before any is reduced).  Rows enter the basis one at a time, and the walk
    stops as soon as the rank reaches min(rows, columns).
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    full = min(len(rows), ncols)
    echelon = EchelonBasis()
    rank = 0
    for row in rows:
        if rank == full:
            break
        rank = echelon.add(row)
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


@dataclass(frozen=True, slots=True, init=False)
class CircleExponent:
    """A point of the unit circle stored as its rational exponent mod 1.

    The value num/den stands for exp(2*pi*i*num/den), stored as the reduced
    pair with 0 <= num < den.  ``from_residue(x, m)``, the one constructor,
    builds x/m from integers, and the group law (addition mod 1) is integer
    cross-multiplication through it.  Equal values have equal pairs; ``value``
    returns the exponent as a Fraction.  Frozen and slotted like
    ``sl2.UniModular``: the constructor stores the pair through the slot
    descriptors.
    """

    num: int
    den: int

    @classmethod
    def from_residue(cls, x: int, m: int) -> "CircleExponent":
        """exp(2*pi*i*x/m) for integers x and m >= 1; ValueError for m < 1."""
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        g = math.gcd(x, m)
        self = object.__new__(cls)
        _set_num(self, x % m // g)
        _set_den(self, m // g)
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


_set_num, _set_den = (CircleExponent.__dict__[f].__set__ for f in ("num", "den"))
