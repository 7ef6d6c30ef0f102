"""Unit group structure and Dirichlet character evaluation."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from gamma0char.dirichlet import (
    DirichletCharacter,
    character_from_id,
    enumerate_characters,
    euler_phi,
    evaluate,
    unit_group_structure,
)


def test_structure_examples():
    assert unit_group_structure(7).factors == ((3, 6),)
    assert unit_group_structure(8).factors == ((7, 2), (5, 2))
    assert unit_group_structure(1).factors == ()


def test_structure_orders_multiply_to_phi():
    for n in range(1, 200):
        structure = unit_group_structure(n)
        product = 1
        for gen, order in structure.factors:
            assert math.gcd(gen, n) == 1
            assert pow(gen, order, n) == 1 % n
            product *= order
        assert product == euler_phi(n)


def test_structure_generators_have_stated_orders():
    for n in (5, 8, 9, 12, 16, 21, 24, 45, 56, 100):
        for gen, order in unit_group_structure(n).factors:
            for p in {p for p, _ in _factor(order)}:
                assert pow(gen, order // p, n) != 1


def _factor(n):
    from gamma0char.dirichlet import factorize

    return factorize(n)


def test_enumeration_counts():
    assert len(enumerate_characters(7)) == 6
    assert len(enumerate_characters(12)) == 4
    assert len(enumerate_characters(1)) == 1
    for n in (2, 9, 16, 40):
        chars = enumerate_characters(n)
        assert len(chars) == euler_phi(n)
        assert len(set(chars)) == len(chars)
        assert chars[0].is_principal()
        assert [c.id() for c in chars] == list(range(len(chars)))


def test_character_ids_roundtrip():
    for n in (7, 8, 24):
        for chi in enumerate_characters(n):
            assert character_from_id(n, chi.id()) == chi
    # exponents are reduced mod their factor orders, as r1 is mod 12
    assert DirichletCharacter(7, (7,)) == DirichletCharacter(7, (1,))
    assert hash(DirichletCharacter(7, (-5,))) == hash(DirichletCharacter(7, (1,)))
    assert DirichletCharacter(7, (7,)).id() == 1
    assert DirichletCharacter(8, (3, -1)).id() == 3
    for bad in (Fraction(1, 2), 1.0, "1"):
        with pytest.raises(ValueError):
            DirichletCharacter(7, (bad,))


def test_principal_character_is_trivial():
    chi0 = enumerate_characters(14)[0]
    for d in (1, 3, 5, 9, 11, 13):
        assert evaluate(chi0, d).value == 0


def test_paper_value_mod_7():
    chosen = [
        chi for chi in enumerate_characters(7) if evaluate(chi, 3).value == Fraction(1, 3)
    ]
    assert len(chosen) == 1
    assert evaluate(chosen[0], 5).value == Fraction(2, 3)


def test_evaluate_rejects_nonunits():
    chi = enumerate_characters(6)[0]
    with pytest.raises(ValueError):
        evaluate(chi, 3)


def test_multiplicativity_exhaustive():
    for n in range(1, 51):
        units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1] or [1]
        for chi in enumerate_characters(n):
            for u in units:
                for v in units:
                    assert (
                        evaluate(chi, u * v).value
                        == (evaluate(chi, u) + evaluate(chi, v)).value
                    )


def _multiplicative_order(d, n):
    order = 1
    value = d % n
    while value != 1 % n:
        value = value * d % n
        order += 1
    return order


def test_column_orthogonality():
    # the multiset of values chi(d) over all chi consists of the m-th roots of
    # unity, each phi(N)/m times, where m is the order of d; their sum is 0
    # exactly when d is not 1 mod N
    for n in range(2, 101):
        chars = enumerate_characters(n)
        for d in range(2, n):
            if math.gcd(d, n) != 1:
                continue
            counts = Counter(evaluate(chi, d).value for chi in chars)
            m = _multiplicative_order(d, n)
            assert m > 1
            expected = {Fraction(k, m): len(chars) // m for k in range(m)}
            assert counts == expected


def test_character_product_matches_pointwise():
    for n in (5, 8, 12):
        chars = enumerate_characters(n)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for a in chars:
            for b in chars:
                ab = a * b
                for u in units:
                    assert evaluate(ab, u).value == (evaluate(a, u) + evaluate(b, u)).value


def test_d_entry_character_is_multiplicative_on_gamma0():
    # gamma -> chi(d) respects products because d(xy) = c1*b2 + d1*d2 = d1*d2 mod N
    import random

    from gamma0char.farey import generators
    from gamma0char.sampling import random_gamma0

    rng = random.Random(83)
    for n in (5, 8, 12, 21):
        gens = generators(n)
        for chi in enumerate_characters(n):
            for _ in range(40):
                x = random_gamma0(rng, gens, letters=5)
                y = random_gamma0(rng, gens, letters=5)
                lhs = evaluate(chi, (x * y).matrix.d)
                rhs = evaluate(chi, x.matrix.d) + evaluate(chi, y.matrix.d)
                assert lhs == rhs
