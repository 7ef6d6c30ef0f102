"""Integer matrices of determinant one and the invariants living on them.

``psi`` is the integer-valued four-case invariant, ``omega`` the {-12, 0, 12}
correction term making it additive, ``chi_t`` the twelve induced
circle-valued characters of SL2(Z), and ``sigma`` the level-lowering
difference homomorphisms on Gamma0(N).  ``mul4``, ``pow4`` and ``omega4``
work on plain entry tuples (a, b, c, d); the seeded composition-law check
runs on them and on ``kernels.psi4`` without building a ``UniModular``.
``psi_conjugate`` takes the entries unpacked, so every sigma value is read
from a matrix's four entries once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .exact import CircleExponent


Entries = tuple[int, int, int, int]


def mul4(u: Entries, v: Entries) -> Entries:
    """The product of two matrices given as entry tuples (a, b, c, d)."""
    a, b, c, d = u
    e, f, g, h = v
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def pow4(u: Entries, n: int) -> Entries:
    """u**n by square-and-multiply on entry tuples; u must have determinant 1
    when n < 0, since the inverse is taken as the adjugate."""
    if n < 0:
        a, b, c, d = u
        u, n = (d, -b, -c, a), -n
    result = (1, 0, 0, 1)
    while n:
        if n & 1:
            result = mul4(result, u)
        n >>= 1
        if n:
            u = mul4(u, u)
    return result


@dataclass(frozen=True, slots=True, init=False)
class UniModular:
    """A 2x2 integer matrix with determinant 1.

    Frozen and slotted: ``__init__`` checks the entries and the determinant
    and stores the entries through the slot descriptors, which a frozen
    class's own ``__setattr__`` would refuse.  A float or ``Fraction`` entry
    makes the determinant one too, so one type test on it rejects them.
    """

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        det = a * d - b * c
        if type(det) is not int:
            raise ValueError(f"entries are not all integers: {(a, b, c, d)}")
        if det != 1:
            raise ValueError(f"determinant is not 1: {(a, b, c, d)}")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def entries(self) -> Entries:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "UniModular") -> "UniModular":
        return UniModular(*mul4(self.entries(), other.entries()))

    def inv(self) -> "UniModular":
        return UniModular(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "UniModular":
        return UniModular(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, n: int) -> "UniModular":
        return UniModular(*pow4(self.entries(), n))

    def __str__(self) -> str:
        return f"({self.a},{self.b};{self.c},{self.d})"


_set_a, _set_b, _set_c, _set_d = (UniModular.__dict__[f].__set__ for f in "abcd")

T = UniModular(1, 1, 0, 1)
S = UniModular(0, -1, 1, 0)
I = UniModular(1, 0, 0, 1)
NEG_I = UniModular(-1, 0, 0, -1)


@dataclass(frozen=True, slots=True, init=False)
class Gamma0Element:
    """An element of Gamma0(N): determinant-1 matrix with N dividing c.

    Built like ``UniModular``: checks first, then the slot descriptors.
    """

    matrix: UniModular
    level: int

    def __init__(self, matrix: UniModular, level: int) -> None:
        if type(level) is not int:
            raise ValueError(f"level is not an integer: {level!r}")
        if level < 1:
            raise ValueError(f"level must be positive, got {level}")
        if matrix.c % level != 0:
            raise ValueError(
                f"matrix {matrix} is not in Gamma0({level}): {level} does not divide {matrix.c}"
            )
        _set_matrix(self, matrix)
        _set_level(self, level)

    def __mul__(self, other: "Gamma0Element") -> "Gamma0Element":
        if self.level != other.level:
            raise ValueError("level mismatch")
        return Gamma0Element(self.matrix * other.matrix, self.level)


_set_matrix, _set_level = (Gamma0Element.__dict__[f].__set__ for f in ("matrix", "level"))


def psi(m: UniModular) -> int:
    """Integer invariant of m, computed case by case from the c entry."""
    return kernels.psi4(m.a, m.b, m.c, m.d)


def omega4(x: Entries, y: Entries) -> int:
    """Correction term in {-12, 0, 12} with psi(xy) = psi(x) + psi(y) + omega(x, y),
    for x and y given as entry tuples (a, b, c, d).

    Decided purely from the signs of the lower-left entries of x, y and xy
    (and of the d entries when x and y are both upper triangular); never
    evaluated through psi itself.
    """
    _, _, c1, d1 = x
    a2, _, c2, d2 = y
    c3 = c1 * a2 + d1 * c2
    if c1 == 0 and c2 == 0 and d1 < 0 and d2 < 0:
        return 12
    if c1 >= 0 and c2 >= 0 and c3 < 0:
        return 12
    if c1 < 0 and c2 < 0 and c3 >= 0:
        return -12
    return 0


def omega(x: UniModular, y: UniModular) -> int:
    """``omega4`` on the entries of two ``UniModular`` matrices."""
    return omega4(x.entries(), y.entries())


def chi_t(t: int, m: UniModular) -> CircleExponent:
    """The character of SL2(Z) with exponent t*psi(m)/12; t is taken mod 12."""
    return CircleExponent.from_residue(t * psi(m), 12)


def psi_conjugate(a: int, b: int, c: int, d: int, l: int) -> int:
    """psi of the conjugate (a, b*l, c/l, d) of the matrix (a, b; c, d).

    The package's one place that forms this conjugate.  It takes the entries
    unpacked, so callers read a matrix once and evaluate psi of it once with
    ``kernels.psi4``: sigma_l = psi4(a, b, c, d) - psi_conjugate(a, b, c, d, l).
    Caller guarantees that l is positive and divides c; ``psi4`` still checks
    the determinant.
    """
    return kernels.psi4(a, b * l, c // l, d)


def sigma(gamma: Gamma0Element, l: int) -> int:
    """The difference homomorphism at divisor l: psi(gamma) - psi(conjugate).

    Requires l | N for the element's level N.  Additive in gamma, vanishes on
    every finite-order element, and takes T to 1 - l.
    """
    if type(l) is not int:
        raise ValueError(f"divisor is not an integer: {l!r}")
    if l < 1 or gamma.level % l != 0:
        raise ValueError(f"{l} does not divide the level {gamma.level}")
    m = gamma.matrix
    a, b, c, d = m.a, m.b, m.c, m.d
    return kernels.psi4(a, b, c, d) - psi_conjugate(a, b, c, d, l)
