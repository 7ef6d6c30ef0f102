"""Dedekind sums, circle exponents, integer rank."""

import random
from fractions import Fraction
from math import gcd

import pytest

from gamma0char.charformula import sigma_matrix
from gamma0char.exact import (
    CircleExponent,
    dedekind_sum,
    dedekind_sum_fast,
    fraction_from_str,
    fraction_to_str,
    integer_rank,
)


def oracle_dedekind(h, k):
    """Literal defining sum, kept independent of both library routes."""
    return sum(
        Fraction(r, k) * (Fraction(h * r, k) - (h * r) // k - Fraction(1, 2))
        for r in range(1, k)
    )


def test_dedekind_examples():
    assert dedekind_sum(0, 1) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 7) == Fraction(1, 14)
    # cross-check the frozen values against the defining sum
    assert oracle_dedekind(1, 3) == Fraction(1, 18)
    assert oracle_dedekind(2, 7) == Fraction(1, 14)


def test_dedekind_fast_matches_naive_examples():
    assert dedekind_sum_fast(1, 3) == Fraction(1, 18)
    assert dedekind_sum_fast(0, 1) == 0
    assert dedekind_sum_fast(5, 12) == dedekind_sum(5, 12) == oracle_dedekind(5, 12)
    # either side of the naive sum's vectorised limit k <= 10**6
    for k in (10**6, 10**6 + 3):
        assert dedekind_sum_fast(999999, k) == dedekind_sum(999999, k)


def test_dedekind_domain_errors():
    with pytest.raises(ValueError):
        dedekind_sum(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)
    with pytest.raises(ValueError):
        dedekind_sum_fast(3, -6)


def test_dedekind_matches_oracle_small():
    for k in range(1, 40):
        for h in range(k):
            if gcd(h, k) != 1:
                continue
            expected = oracle_dedekind(h, k)
            assert dedekind_sum(h, k) == expected
            assert dedekind_sum_fast(h, k) == expected


def test_fast_equals_naive_exhaustive_small():
    for k in range(1, 300):
        for h in range(k):
            if gcd(h, k) == 1:
                assert dedekind_sum_fast(h, k) == dedekind_sum(h, k)


def test_fast_equals_naive_random_to_5000():
    rng = random.Random(20240801)
    count = 0
    while count < 400:
        k = rng.randrange(300, 5001)
        h = rng.randrange(k)
        if gcd(h, k) != 1:
            continue
        assert dedekind_sum_fast(h, k) == dedekind_sum(h, k)
        count += 1


def test_reciprocity_random():
    rng = random.Random(7)
    count = 0
    while count < 500:
        k = rng.randrange(1, 10**6)
        h = rng.randrange(1, k + 1)
        if gcd(h, k) != 1:
            continue
        lhs = dedekind_sum_fast(h, k) + dedekind_sum_fast(k, h)
        rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12
        assert lhs == rhs
        count += 1


def test_parity_and_periodicity():
    rng = random.Random(11)
    count = 0
    while count < 300:
        k = rng.randrange(1, 4000)
        h = rng.randrange(-(10**6), 10**6)
        if gcd(h, k) != 1:
            continue
        assert dedekind_sum_fast(-h, k) == -dedekind_sum_fast(h, k)
        assert dedekind_sum_fast(h, k) == dedekind_sum_fast(h % k, k)
        count += 1


def test_denominator_divides_6k():
    for k in range(1, 200):
        for h in range(k):
            if gcd(h, k) == 1:
                assert (6 * k) % dedekind_sum_fast(h, k).denominator == 0


def test_big_k_fast_path():
    # far past the naive sum's range: only the continued-fraction walk is practical here
    k = 10**7 + 19
    h = 12345677
    assert gcd(h, k) == 1
    s1 = dedekind_sum_fast(h, k)
    s2 = dedekind_sum_fast(k, h)
    assert s1 + s2 == Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12


def test_circle_exponent_group_laws():
    xs = [CircleExponent.from_residue(a, b) for a, b in [(0, 1), (1, 2), (2, 3), (7, 12), (5, 6)]]
    zero = CircleExponent.zero()
    for x in xs:
        assert x + zero == x
        assert x + (-x) == zero
        assert (-x).value == (1 - x.value) % 1
        for y in xs:
            assert x + y == y + x
            for z in xs:
                assert (x + y) + z == x + (y + z)


def test_circle_exponent_reduction_is_canonical():
    assert CircleExponent.from_residue(5, 4) == CircleExponent.from_residue(1, 4)
    assert CircleExponent.from_residue(-1, 3) == CircleExponent.from_residue(2, 3)
    assert CircleExponent.from_residue(3, 3) == CircleExponent.zero()
    assert CircleExponent.from_residue(-10, 24) == CircleExponent.from_residue(7, 12)
    assert hash(CircleExponent.from_residue(9, 12)) == hash(CircleExponent.from_residue(-1, 4))
    assert str(CircleExponent.from_residue(36, 12)) == "0/1"
    # integer residues are the one way in: no constructor takes a value, and
    # inexact input is rejected, not rounded to the nearest binary fraction
    for bad in (0.1, 0.5, "1/2", None, Fraction(1, 2)):
        with pytest.raises(TypeError):
            CircleExponent(bad)
        with pytest.raises(TypeError):
            CircleExponent.from_residue(bad, 2)
    # a modulus below 1 is rejected: m = -2 would give the pair -1/-2, unequal
    # to 1/2 with the same value, and m = 0 would divide by zero
    with pytest.raises(ValueError, match=r"^modulus must be positive, got -2$"):
        CircleExponent.from_residue(1, -2)
    with pytest.raises(ValueError, match=r"^modulus must be positive, got 0$"):
        CircleExponent.from_residue(3, 0)


def test_circle_exponent_matches_fraction_arithmetic():
    rng = random.Random(13)
    dens = (1, 2, 3, 12, 840, 10**9 + 7, 2**61 - 1, 12 * 10**6)
    for _ in range(2000):
        p = Fraction(rng.randrange(-(10**20), 10**20), rng.choice(dens))
        q = Fraction(rng.randrange(-(10**20), 10**20), rng.choice(dens))
        n = rng.randrange(-50, 51)
        x = CircleExponent.from_residue(p.numerator, p.denominator)
        y = CircleExponent.from_residue(q.numerator, q.denominator)
        assert (x.num, x.den) == ((p % 1).numerator, (p % 1).denominator)
        assert (x + y).value == (p + q) % 1
        assert (x - y).value == (p - q) % 1
        assert (-x).value == -p % 1
        assert (x * n).value == (p * n) % 1
        assert str(x) == fraction_to_str(p % 1)
        m = rng.choice(dens) * rng.randrange(1, 13)
        r = rng.randrange(-(10**25), 10**25)
        assert CircleExponent.from_residue(r, m).value == Fraction(r, m) % 1


def test_integer_rank_examples():
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[0, 0], [0, 0], [0, 0]]) == 0
    assert integer_rank([[2, 4], [1, 2]]) == 1
    assert integer_rank([]) == 0
    assert integer_rank([[], []]) == 0
    # the last row is ragged, and full rank is reached before it
    for ragged in ([[], [1, 2]], [[1, 2], [3]], [[1, 0], [0, 1], [1]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="ragged matrix"):
            integer_rank(ragged)


def test_integer_rank_against_fraction_gauss():
    def rank_fractions(rows):
        m = [[Fraction(v) for v in row] for row in rows]
        rank = 0
        for col in range(len(m[0]) if m else 0):
            piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            m[rank] = [v / m[rank][col] for v in m[rank]]
            for i in range(len(m)):
                if i != rank and m[i][col]:
                    f = m[i][col]
                    m[i] = [v - f * w for v, w in zip(m[i], m[rank])]
            rank += 1
        return rank

    rng = random.Random(3)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(m) == rank_fractions(m)


def _frozen_bareiss_rank(rows):
    """Bareiss elimination over every row, as ``integer_rank`` ran it before
    the echelon basis; kept as a frozen oracle."""
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


def test_integer_rank_matches_frozen_bareiss():
    rng = random.Random(10)
    seen = set()
    for trial in range(1500):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        bound = rng.choice((1, 5, 10**6, 10**30))
        if trial % 2:
            # rank deficient: every row an integer combination of k basis rows
            k = rng.randrange(min(nrows, ncols))
            basis = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(k)]
            coeffs = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nrows)]
            m = [[sum(x * b[j] for x, b in zip(cs, basis)) for j in range(ncols)] for cs in coeffs]
        else:
            k = None
            m = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            m[rng.randrange(nrows)] = [0] * ncols
        if rng.random() < 0.3:
            j = rng.randrange(ncols)
            for row in m:
                row[j] = 0
        rank = integer_rank(m)
        assert rank == _frozen_bareiss_rank(m), m
        if k is not None:
            assert rank <= k
        shape = "tall" if nrows > ncols else "wide" if nrows < ncols else "square"
        seen.add((shape, rank < min(nrows, ncols), bound))
        seen.add("zero row" if not all(map(any, m)) else "no zero row")
        seen.add("zero column" if not all(map(any, zip(*m))) else "no zero column")
    shapes = ("tall", "wide", "square")
    assert {(s, d, b) for s in shapes for d in (False, True) for b in (1, 10**30)} <= seen
    assert {"zero row", "zero column"} <= seen


def test_integer_rank_matches_frozen_bareiss_on_sigma_matrices():
    for n in range(2, 601):
        m = sigma_matrix(n).entries
        rank = integer_rank(m)
        assert rank == _frozen_bareiss_rank(m), n
        assert rank <= len(m[0])


def test_fraction_serialization():
    for frac in [Fraction(0), Fraction(1, 18), Fraction(-7, 3)]:
        assert fraction_from_str(fraction_to_str(frac)) == frac
    assert fraction_to_str(Fraction(1, 18)) == "1/18"
