"""The explicit character formula on Gamma0(N) and the objects built from it.

A parameter triple (Dirichlet character, twelfth-root exponent r1, rational
weights r_l on the divisors l > 1) evaluates on any element of Gamma0(N)
without decomposing it into generators.  The sigma matrix collects the values
of the difference homomorphisms on the free generators; its gcd per column is
the positive generator beta(N, l) of the image, and its rank enters
the surjectivity analysis in ``verify``.

Both run on plain integers.  ``CharacterParams`` compiles each triple once
into integers over one modulus M; chi(d) stays in the character's own table,
scaled to M by one integer, so an evaluation is one table read and one
integer sum.  Every sigma value is taken from unpacked entries:
``kernels.psi4`` of the matrix minus ``sl2.psi_conjugate``, the one routine
that forms the conjugate.

``sigma_matrix`` reads each column of a level only until its gcd is
decided, and leaves the matrix itself to be filled on first read of
``SigmaMatrix.entries``.  The beta floor decides a column early: for l | N
with l < N, Gamma0(N) lies in Gamma0(l) and sigma_l is the same function on
both, so beta(l, l) divides beta(N, l); and beta(N, l) divides the gcd G of
sigma_l over any elements of Gamma0(N).  Once G over a prefix of column l
equals beta(l, l), beta(N, l) = beta(l, l) is proved and column l is read no
further.  beta(l, l) is taken from the table only: level l's own matrix read
its column l over every row.

Column N has no floor and is read over every row.  A level whose floors are
not all reached (a counterexample to conjecture 1, or a level visited with
no smaller level in the table) reads every column over every row, which is
the exact path.  The rank of the matrix is decided by ``verify.sigma_rank``,
which proves it from the cusp parabolics and falls back to
``exact.integer_rank`` of ``SigmaMatrix.entries`` only on a short rank.

A scan visits each level once, so ``sigma_matrix`` keeps no matrix.  The
sigma layer's one per-process memo is ``_beta_table``, the column gcds
beta(N, l) that ``beta`` reads and later levels take their floors from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .dirichlet import DirichletCharacter, divisors
from .exact import CircleExponent, as_fraction, as_int
from .farey import decompose, exponent_sum, generators
from .kernels import psi4
from .sl2 import Gamma0Element, UniModular, psi_conjugate, sigma


class TheoremViolation(ArithmeticError):
    """A verified identity failed on concrete data; carries the witness."""


@dataclass(frozen=True)
class CharacterParams:
    """Parameters (chi, r1, (r_l)) of a character of Gamma0(N).

    ``r_l`` maps every divisor l of N with l > 1 to a rational weight; r1 is
    kept in {0, ..., 11}.  Componentwise composition of parameter triples
    matches pointwise multiplication of the induced characters.  Every value
    is an integer over M = lcm(12, chi.value_modulus, denominators of the r_l).
    With sigma_l = psi - psi_l (psi_l: psi of the l-conjugate) the formula
    reads chi(d) + (r1/12 + sum of the r_l) * psi - sum of r_l * psi_l, so
    construction compiles, all scaled to M:

    - ``chi_scale``: M / ``chi.value_modulus``, so chi(d) over M is
      ``chi.table[d % N] * chi_scale``;
    - ``psi_weight``: r1 * M / 12 plus the sum of the r_l * M;
    - ``rl_weights``: (l, r_l * M) for each nonzero r_l.
    """

    chi: DirichletCharacter
    r1: int
    r_l: tuple[tuple[int, Fraction], ...]
    value_modulus: int = field(init=False, repr=False, compare=False)
    chi_scale: int = field(init=False, repr=False, compare=False)
    psi_weight: int = field(init=False, repr=False, compare=False)
    rl_weights: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.chi.modulus
        r_l = tuple((as_int(l), as_fraction(r)) for l, r in self.r_l)
        expected = [l for l in divisors(n) if l > 1]
        if [l for l, _ in r_l] != expected:
            raise ValueError(f"r_l keys must be the divisors of {n} above 1: {expected}")
        r1 = as_int(self.r1) % 12
        big = math.lcm(12, self.chi.value_modulus, *(r.denominator for _, r in r_l))
        rl = tuple((l, r.numerator * (big // r.denominator)) for l, r in r_l if r)
        put = object.__setattr__
        put(self, "r1", r1)
        put(self, "r_l", r_l)
        put(self, "value_modulus", big)
        put(self, "chi_scale", big // self.chi.value_modulus)
        put(self, "psi_weight", r1 * (big // 12) + sum(w for _, w in rl))
        put(self, "rl_weights", rl)

    @classmethod
    def from_map(cls, chi: DirichletCharacter, r1: int, r_l: dict) -> "CharacterParams":
        return cls(chi, r1, tuple(sorted(r_l.items())))

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
    all mod 1: one integer sum over the modulus M of ``params``, reduced once.
    chi(d) is one read of the character's table, times ``chi_scale``: N | c
    and ad - bc = 1 give ad = 1 mod N, so d is a unit mod N and its entry is
    never None.  The entries are unpacked once; psi(gamma) comes from
    ``kernels.psi4`` and enters once, with the compiled ``psi_weight``, and
    psi of each l-conjugate from ``psi_conjugate``.
    """
    n = params.chi.modulus
    if gamma.level != n:
        raise ValueError(f"level {gamma.level} does not match modulus {n}")
    m = gamma.matrix
    a, b, c, d = m.a, m.b, m.c, m.d
    total = params.chi.table[d % n] * params.chi_scale + params.psi_weight * psi4(a, b, c, d)
    for l, w in params.rl_weights:
        total -= w * psi_conjugate(a, b, c, d, l)
    return CircleExponent.from_residue(total, params.value_modulus)


@dataclass(frozen=True)
class SigmaMatrix:
    """Values of the difference homomorphisms on the free generators.

    One row per infinite-order generator in ``free``, one column per divisor
    l > 1 of the level in ``cols``; torsion generators are omitted since
    every homomorphism to the integers kills them.  ``entries``, the
    r x (t - 1) tuple of rows, is computed on its first read.
    """

    level: int
    cols: tuple[int, ...]
    free: tuple[UniModular, ...] = field(repr=False)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for g in self.free:
            a, b, c, d = g.a, g.b, g.c, g.d
            psi_g = psi4(a, b, c, d)
            rows.append(tuple([psi_g - psi_conjugate(a, b, c, d, l) for l in self.cols]))
        return tuple(rows)


# beta(N, l) for every level whose sigma matrix was computed: {N: {l: beta}}
_beta_table: dict[int, dict[int, int]] = {}


def sigma_matrix(n: int) -> SigmaMatrix:
    """The r x (t-1) integer matrix of sigma values at level n >= 2.

    Each call reads the level's columns afresh and records their gcds, the
    beta(n, l), for ``beta``.  Each row reads only the columns still open.
    Column l < n closes when its gcd so far equals its floor beta(l, l), read
    from ``_beta_table`` when level l is there with a positive value; column
    n never closes, so once every column below n is closed a row costs two
    psi4 calls.  Every beta equals the gcd of the full column (see the module
    docstring); ``entries`` reads the whole matrix.
    """
    if n < 2:
        raise ValueError(f"level must be at least 2, got {n}")
    # every free generator lies in Gamma0(n), so each column l divides its c
    cols = tuple(l for l in divisors(n) if l > 1)
    free = generators(n).free
    # beta(l, l) for each column l < n where the table has a positive one;
    # None, which no gcd equals, keeps a column open
    floors = [_beta_table.get(l, {}).get(l, 0) for l in cols[:-1]]
    floors = [f if f > 0 else None for f in floors] + [None]
    gcds = [0] * len(cols)
    open_cols = list(range(len(cols)))
    for g in free:
        a, b, c, d = g.a, g.b, g.c, g.d
        psi_g = psi4(a, b, c, d)
        for j in open_cols:
            gcds[j] = math.gcd(gcds[j], psi_g - psi_conjugate(a, b, c, d, cols[j]))
        if len(open_cols) > 1:  # column n, the last, never closes
            open_cols = [j for j in open_cols if gcds[j] != floors[j]]
    _beta_table[n] = dict(zip(cols, gcds))
    return SigmaMatrix(n, cols, free)


def beta(n: int, l: int) -> int:
    """The positive generator of the image of sigma_l on Gamma0(N).

    The image is generated by the values on the free generators, so beta is
    their gcd; it is strictly positive because sigma_l(T) = 1 - l != 0.  It
    is read from the table ``sigma_matrix`` fills, which reads the level's
    rows only on a miss.  For l < N that entry may be the floor beta(l, l),
    reached by a prefix of the column and so proved equal to the gcd of the
    whole column; beta(N, N) is always the gcd of the whole column.
    """
    if n < 2:
        raise ValueError(f"level must be at least 2, got {n}")
    if l <= 1 or n % l != 0:
        raise ValueError(f"l must be a divisor of {n} above 1, got {l}")
    if n not in _beta_table:
        sigma_matrix(n)
    value = _beta_table[n][l]
    if value <= 0:
        raise TheoremViolation(f"image of sigma_{n},{l} is trivial")
    return value


# levels where T is the only free generator with a nonzero bottom-divisor
# sigma, so that membership in the kernel is read off T's exponent sum
KERNEL_LEVELS = (2, 3, 4, 5, 7, 9, 13, 25)


def check_kernel_level(n: int) -> None:
    """Raise ValueError unless n is one of KERNEL_LEVELS."""
    if n not in KERNEL_LEVELS:
        raise ValueError(f"level {n} is not in {KERNEL_LEVELS}")


def kernel_exponent_check(gamma: Gamma0Element) -> tuple[int, bool]:
    """Exponent sum e_T of T in gamma's word, and whether it vanishes.

    Only valid for the levels in KERNEL_LEVELS.  sigma_N is a homomorphism
    to the integers, so it kills -I and the elliptic generators; for the
    word w of gamma, sigma_N(gamma) is the sum over the free generators of
    e_i(w) * sigma_N(free_i).  At these levels T is the one free generator
    with sigma_N != 0, and sigma_N(T) = 1 - N, so the identity
    sigma_N(gamma) = (1 - N) * e_T(gamma) holds; gamma lies in the kernel
    exactly when e_T vanishes.  A mismatch raises TheoremViolation.

    Words grow linearly with the entries of gamma, so the tested inputs keep
    the lower-left entry within 1000 * N.
    """
    n = gamma.level
    check_kernel_level(n)
    word = decompose(gamma, generators(n))
    total = exponent_sum(word, ("free", 0))  # T is the first free generator
    if sigma(gamma, n) != (1 - n) * total:
        raise TheoremViolation(
            f"exponent sum {total} contradicts sigma value at {gamma.matrix}"
        )
    return total, total == 0


def dedekind_identity_quotient(n: int, c: int, d: int) -> int:
    """The integer quotient in the two-level Dedekind sum identity.

    For the admissible levels, with N | c, c > 0, gcd(c, d) = 1 and a the
    inverse of d mod c, the quantity
    ((a+d)/c - 12 s(d,c)) - ((a+d)/(c/N) - 12 s(d, c/N)) is an integer
    multiple of N - 1; the multiplier is returned.  The quantity is
    sigma_N(gamma) for gamma = (a, (ad-1)/c; c, d), of determinant 1 by
    construction (``psi4`` checks it), read from its entries without
    building a matrix; a failure of divisibility raises TheoremViolation.
    """
    check_kernel_level(n)
    if c <= 0 or c % n != 0:
        raise ValueError(f"c must be a positive multiple of {n}, got {c}")
    if math.gcd(c, d) != 1:
        raise ValueError(f"c and d must be coprime, got ({c}, {d})")
    a = pow(d, -1, c)
    b = (a * d - 1) // c
    value = psi4(a, b, c, d) - psi_conjugate(a, b, c, d, n)
    if value % (n - 1) != 0:
        raise TheoremViolation(
            f"quotient {value} not divisible by {n - 1} at (n, c, d) = ({n}, {c}, {d})"
        )
    return value // (n - 1)
