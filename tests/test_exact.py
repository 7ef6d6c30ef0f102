"""Dedekind sums, circle exponents, integer rank, gcd."""

import random
from fractions import Fraction
from math import gcd

import pytest

from gamma0char.exact import (
    CircleExponent,
    dedekind_sum,
    dedekind_sum_fast,
    fraction_from_str,
    fraction_to_str,
    gcd_all,
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
    xs = [CircleExponent(Fraction(a, b)) for a, b in [(0, 1), (1, 2), (2, 3), (7, 12), (5, 6)]]
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
    assert CircleExponent(Fraction(5, 4)) == CircleExponent(Fraction(1, 4))
    assert CircleExponent(Fraction(-1, 3)) == CircleExponent(Fraction(2, 3))
    assert CircleExponent(Fraction(3, 3)) == CircleExponent.zero()
    assert CircleExponent.from_residue(-10, 24) == CircleExponent(Fraction(7, 12))
    assert hash(CircleExponent.from_residue(9, 12)) == hash(CircleExponent(Fraction(-1, 4)))
    assert str(CircleExponent.from_residue(36, 12)) == "0/1"
    # inexact input is rejected, not rounded to the nearest binary fraction
    for bad in (0.1, 0.5, "1/2", None):
        with pytest.raises(ValueError):
            CircleExponent(bad)


def test_circle_exponent_matches_fraction_arithmetic():
    rng = random.Random(13)
    dens = (1, 2, 3, 12, 840, 10**9 + 7, 2**61 - 1, 12 * 10**6)
    for _ in range(2000):
        p = Fraction(rng.randrange(-(10**20), 10**20), rng.choice(dens))
        q = Fraction(rng.randrange(-(10**20), 10**20), rng.choice(dens))
        n = rng.randrange(-50, 51)
        x, y = CircleExponent(p), CircleExponent(q)
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
    for ragged in ([[], [1, 2]], [[1, 2], [3]]):
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


def test_gcd_all():
    assert gcd_all([6, -4]) == 2
    assert gcd_all([]) == 0
    assert gcd_all([0, 5]) == 5
    assert gcd_all([0, 0]) == 0


def test_fraction_serialization():
    for frac in [Fraction(0), Fraction(1, 18), Fraction(-7, 3)]:
        assert fraction_from_str(fraction_to_str(frac)) == frac
    assert fraction_to_str(Fraction(1, 18)) == "1/18"
