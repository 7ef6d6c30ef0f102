"""The explicit character formula on Gamma0(N) and the objects built from it.

A parameter triple (Dirichlet character, twelfth-root exponent r1, rational
weights r_l on the divisors l > 1) evaluates on any element of Gamma0(N)
without decomposing it into generators.  The sigma matrix collects the values
of the difference homomorphisms on the free generators; its gcd per column is
the positive generator beta(N, l) of the image, and its rank drives the
surjectivity analysis in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dirichlet import DirichletCharacter, divisors, evaluate
from .exact import CircleExponent, gcd_all
from .farey import decompose, exponent_sum, generators
from .sl2 import Gamma0Element, UniModular, psi, psi_conjugate, sigma


class TheoremViolation(ArithmeticError):
    """A verified identity failed on concrete data; carries the witness."""


@dataclass(frozen=True)
class CharacterParams:
    """Parameters (chi, r1, (r_l)) of a character of Gamma0(N).

    ``r_l`` maps every divisor l of N with l > 1 to a rational weight; r1 is
    kept in {0, ..., 11}.  Componentwise composition of parameter triples
    matches pointwise multiplication of the induced characters.
    """

    chi: DirichletCharacter
    r1: int
    r_l: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        n = self.chi.modulus
        expected = [l for l in divisors(n) if l > 1]
        if [l for l, _ in self.r_l] != expected:
            raise ValueError(f"r_l keys must be the divisors of {n} above 1: {expected}")
        object.__setattr__(self, "r1", self.r1 % 12)
        object.__setattr__(
            self, "r_l", tuple((l, Fraction(r)) for l, r in self.r_l)
        )

    @classmethod
    def from_map(cls, chi: DirichletCharacter, r1: int, r_l: dict) -> "CharacterParams":
        items = tuple(sorted((int(l), Fraction(r)) for l, r in r_l.items()))
        return cls(chi, r1, items)

    def compose(self, other: "CharacterParams") -> "CharacterParams":
        if self.chi.modulus != other.chi.modulus:
            raise ValueError("modulus mismatch")
        merged = tuple(
            (l, r + s) for (l, r), (_, s) in zip(self.r_l, other.r_l)
        )
        return CharacterParams(self.chi * other.chi, self.r1 + other.r1, merged)


def eval_character(params: CharacterParams, gamma: Gamma0Element) -> CircleExponent:
    """Value of the parametrized character at gamma, as a circle exponent.

    exponent(chi(d)) + r1 * psi(gamma) / 12 + sum over l of r_l * sigma_l(gamma),
    all mod 1.
    """
    n = params.chi.modulus
    if gamma.level != n:
        raise ValueError(f"level {gamma.level} does not match modulus {n}")
    m = gamma.matrix
    psi_m = psi(m)
    total = evaluate(params.chi, m.d).value + Fraction(params.r1 * psi_m, 12)
    for l, r in params.r_l:
        if r:
            total += r * (psi_m - psi_conjugate(m, l))
    return CircleExponent(total)


@dataclass(frozen=True)
class SigmaMatrix:
    """Values of the difference homomorphisms on the free generators.

    One row per infinite-order generator, one column per divisor l > 1 of the
    level; torsion generators are omitted since every homomorphism to the
    integers kills them.
    """

    level: int
    cols: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]

    def column(self, l: int) -> tuple[int, ...]:
        return tuple(row[self.cols.index(l)] for row in self.entries)


@lru_cache(maxsize=None)
def sigma_matrix(n: int) -> SigmaMatrix:
    """The r x (t-1) integer matrix of sigma values at level n >= 2."""
    if n < 2:
        raise ValueError(f"level must be at least 2, got {n}")
    # every free generator lies in Gamma0(n), so each column l divides its c
    cols = tuple(l for l in divisors(n) if l > 1)
    rows = []
    for g in generators(n).free:
        psi_g = psi(g)
        rows.append(tuple(psi_g - psi_conjugate(g, l) for l in cols))
    return SigmaMatrix(n, cols, tuple(rows))


def beta(n: int, l: int) -> int:
    """The positive generator of the image of sigma_l on Gamma0(N).

    The image is generated by the values on the free generators, so beta is
    their gcd; it is strictly positive because sigma_l(T) = 1 - l != 0.
    """
    if n < 2:
        raise ValueError(f"level must be at least 2, got {n}")
    if l <= 1 or n % l != 0:
        raise ValueError(f"l must be a divisor of {n} above 1, got {l}")
    value = gcd_all(sigma_matrix(n).column(l))
    if value <= 0:
        raise TheoremViolation(f"image of sigma_{n},{l} is trivial")
    return value


# levels where exactly one free generator has a nonzero bottom-divisor sigma,
# so that membership in the kernel is read off a single exponent sum
KERNEL_LEVELS = (2, 3, 4, 5, 7, 9, 13, 25)


@lru_cache(maxsize=None)
def _distinguished_generator(n: int) -> tuple[str, int]:
    column = sigma_matrix(n).column(n)
    nonzero = [j for j, value in enumerate(column) if value]
    if len(nonzero) != 1:
        raise TheoremViolation(
            f"level {n}: expected exactly one free generator with nonzero "
            f"sigma, found {len(nonzero)}"
        )
    return ("free", nonzero[0])


def kernel_exponent_check(gamma: Gamma0Element) -> tuple[int, bool]:
    """Exponent sum of the distinguished generator, and whether it vanishes.

    Only valid for the levels in KERNEL_LEVELS.  The vanishing of the sum is
    equivalent to gamma lying in the kernel of the bottom-divisor
    homomorphism; a mismatch raises TheoremViolation.
    """
    n = gamma.level
    if n not in KERNEL_LEVELS:
        raise ValueError(f"level {n} is not in {KERNEL_LEVELS}")
    ref = _distinguished_generator(n)
    word = decompose(gamma, generators(n))
    total = exponent_sum(word, ref)
    in_kernel = total == 0
    if in_kernel != (sigma(gamma, n) == 0):
        raise TheoremViolation(
            f"exponent sum {total} contradicts sigma value at {gamma.matrix}"
        )
    return total, in_kernel


def dedekind_identity_quotient(n: int, c: int, d: int) -> int:
    """The integer quotient in the two-level Dedekind sum identity.

    For the admissible levels, with N | c, c > 0, gcd(c, d) = 1 and a the
    inverse of d mod c, the quantity
    ((a+d)/c - 12 s(d,c)) - ((a+d)/(c/N) - 12 s(d, c/N)) is an integer
    multiple of N - 1; the multiplier is returned.  The quantity is
    sigma_N(gamma) for gamma = (a, (ad-1)/c; c, d), of determinant 1 by
    construction; a failure of divisibility raises TheoremViolation.
    """
    if n not in KERNEL_LEVELS:
        raise ValueError(f"level {n} is not in {KERNEL_LEVELS}")
    if c <= 0 or c % n != 0:
        raise ValueError(f"c must be a positive multiple of {n}, got {c}")
    if math.gcd(c, d) != 1:
        raise ValueError(f"c and d must be coprime, got ({c}, {d})")
    a = pow(d, -1, c)
    gamma = UniModular(a, (a * d - 1) // c, c, d)
    value = psi(gamma) - psi_conjugate(gamma, n)
    if value % (n - 1) != 0:
        raise TheoremViolation(
            f"quotient {value} not divisible by {n - 1} at (n, c, d) = ({n}, {c}, {d})"
        )
    return value // (n - 1)
