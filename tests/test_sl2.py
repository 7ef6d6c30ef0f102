"""Matrix invariants: psi, the omega correction, chi_t, sigma."""

import random
from fractions import Fraction
from math import gcd

import pytest

from gamma0char.exact import dedekind_sum_fast
from gamma0char.farey import generators
from gamma0char.sampling import random_sl2
from gamma0char.sl2 import (
    I,
    NEG_I,
    S,
    T,
    Gamma0Element,
    UniModular,
    chi_t,
    omega,
    psi,
    sigma,
)


def test_unimodular_validation():
    with pytest.raises(ValueError):
        UniModular(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Gamma0Element(UniModular(1, 0, 1, 1), 2)


def test_multiply_invert():
    assert T * T == UniModular(1, 2, 0, 1)
    assert S * S == NEG_I
    assert S.inv() == UniModular(0, 1, -1, 0)
    assert T.inv() == UniModular(1, -1, 0, 1)
    assert NEG_I.inv() == NEG_I
    rng = random.Random(5)
    for _ in range(50):
        g = random_sl2(rng)
        assert g * g.inv() == I


def test_psi_examples():
    assert psi(T) == 1
    assert psi(S) == -3
    assert psi(UniModular(-2, 1, -7, 3)) == 2
    assert psi(UniModular(-4, 3, -7, 5)) == 2
    assert psi(NEG_I) == -6
    # closed form psi(1, 0, c, 1) = -c, at an argument far past machine words
    c = 10**12 + 39
    assert psi(UniModular(1, 0, c, 1)) == -c


def test_omega_examples():
    assert omega(S, S) == 0
    assert psi(NEG_I) == psi(S) + psi(S) + omega(S, S)
    assert omega(NEG_I, NEG_I) == 12
    assert psi(I) == psi(NEG_I) + psi(NEG_I) + omega(NEG_I, NEG_I)
    s_inv = S.inv()
    assert omega(s_inv, s_inv) == -12
    assert psi(NEG_I) == psi(s_inv) + psi(s_inv) + omega(s_inv, s_inv)


def test_cocycle_identity_random():
    rng = random.Random(101)
    for _ in range(10000):
        x = random_sl2(rng)
        y = random_sl2(rng)
        assert psi(x * y) == psi(x) + psi(y) + omega(x, y)


def test_psi_mod_12_homomorphism():
    rng = random.Random(13)
    for _ in range(2000):
        x = random_sl2(rng)
        y = random_sl2(rng)
        assert (psi(x * y) - psi(x) - psi(y)) % 12 == 0


def test_chi_t_examples():
    rng = random.Random(17)
    for _ in range(20):
        assert chi_t(0, random_sl2(rng)).value == 0
    assert chi_t(1, T).value == Fraction(1, 12)
    assert chi_t(6, S).value == Fraction(1, 2)


def test_chi_t_multiplicative_and_distinct():
    rng = random.Random(19)
    for t in range(12):
        for _ in range(200):
            x = random_sl2(rng)
            y = random_sl2(rng)
            assert chi_t(t, x * y) == chi_t(t, x) + chi_t(t, y)
    values_at_t = {chi_t(t, T).value for t in range(12)}
    assert len(values_at_t) == 12


def test_sigma_examples():
    for n, l in [(2, 2), (6, 2), (6, 3), (6, 6), (7, 7), (12, 4)]:
        assert sigma(Gamma0Element(T, n), l) == 1 - l
    assert sigma(Gamma0Element(UniModular(-2, 1, -7, 3), 7), 7) == 0
    assert sigma(Gamma0Element(UniModular(-4, 3, -7, 5), 7), 7) == 0
    for n in (2, 6, 30):
        for l in (2, n):
            if n % l == 0:
                assert sigma(Gamma0Element(NEG_I, n), l) == 0


def test_sigma_domain_error():
    with pytest.raises(ValueError):
        sigma(Gamma0Element(T, 6), 4)


def _random_gamma0_matrix(rng, gens):
    m = I
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(len(gens.free))
        m = m * gens.free[kind] ** rng.choice([-2, -1, 1, 2])
    return m


def test_sigma_homomorphism_random():
    rng = random.Random(23)
    for n, l in [(2, 2), (6, 2), (6, 3), (6, 6), (12, 4), (10, 5)]:
        gens = generators(n)
        for _ in range(10000):
            x = _random_gamma0_matrix(rng, gens)
            y = _random_gamma0_matrix(rng, gens)
            lhs = sigma(Gamma0Element(x * y, n), l)
            rhs = sigma(Gamma0Element(x, n), l) + sigma(Gamma0Element(y, n), l)
            assert lhs == rhs


def test_sigma_vanishes_on_torsion():
    for n in (2, 3, 5, 7, 10, 13, 25, 50):
        gens = generators(n)
        for h in gens.elliptic2 + gens.elliptic3:
            for l in [l for l in range(2, n + 1) if n % l == 0]:
                assert sigma(Gamma0Element(h, n), l) == 0


def test_elliptic_special_value_small():
    # s(d, c) = (c-1)/(12c) whenever d^2 + d + 1 == 0 mod c
    found = 0
    for c in range(1, 301):
        for d in range(c):
            if (d * d + d + 1) % c == 0 and gcd(d, c) == 1:
                assert dedekind_sum_fast(d, c) == Fraction(c - 1, 12 * c)
                found += 1
    assert found > 50


def test_psi_matches_direct_formula():
    # the four-case formula recomputed here with Fractions, as an oracle
    rng = random.Random(29)
    for _ in range(500):
        m = random_sl2(rng)
        a, b, c, d = m.entries()
        if c == 0:
            expected = b if a > 0 else -b - 6
        elif c > 0:
            expected = Fraction(a + d, c) + 12 * dedekind_sum_fast(-d, c) - 3
        else:
            expected = Fraction(a + d, c) + 12 * dedekind_sum_fast(d, -c) + 3
        assert psi(m) == expected
