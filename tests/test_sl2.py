"""Matrix invariants: psi, the omega correction, chi_t, sigma."""

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from gamma0char import kernels
from gamma0char.charformula import KERNEL_LEVELS
from gamma0char.dirichlet import divisors
from gamma0char.exact import CircleExponent, dedekind_sum, dedekind_sum_fast
from gamma0char.farey import generators
from gamma0char.sampling import random_coprime_pair, random_sl2, random_sl2_entries
from gamma0char.sl2 import (
    I,
    NEG_I,
    S,
    T,
    Gamma0Element,
    UniModular,
    chi_t,
    mul4,
    omega,
    omega4,
    pow4,
    psi,
    sigma,
)
from gamma0char.verify import cusp_parabolics


def test_unimodular_validation():
    with pytest.raises(ValueError):
        UniModular(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Gamma0Element(UniModular(1, 0, 1, 1), 2)


def test_unimodular_rejects_inexact_entries():
    # (2.0, 1; 1, 1) has determinant 1.0, which passes a value test
    with pytest.raises(ValueError, match=r"^entries are not all integers: \(2\.0, 1, 1, 1\)$"):
        UniModular(2.0, 1, 1, 1)
    with pytest.raises(
        ValueError, match=r"^entries are not all integers: \(1, 0, Fraction\(6, 1\), 1\)$"
    ):
        UniModular(1, 0, Fraction(6), 1)


def test_gamma0_element_rejects_a_non_integer_level():
    with pytest.raises(ValueError, match=r"^level is not an integer: 6\.0$"):
        Gamma0Element(UniModular(1, 0, 6, 1), 6.0)


def test_value_type_contract():
    gamma = Gamma0Element(T, 3)
    half = CircleExponent.from_residue(1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.a = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        gamma.level = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        half.num = 0
    for value in (T, gamma, half):
        assert not hasattr(value, "__dict__")
    assert repr(T) == "UniModular(a=1, b=1, c=0, d=1)"
    assert repr(gamma) == "Gamma0Element(matrix=UniModular(a=1, b=1, c=0, d=1), level=3)"
    assert repr(half) == "CircleExponent(num=1, den=2)" and str(half) == "1/2"
    # residues of one value give equal, equally hashed values
    twins = (CircleExponent.from_residue(1, 2), CircleExponent.from_residue(-7, 2))
    for twin in (*twins, CircleExponent.from_residue(-5, 10)):
        assert twin == half and hash(twin) == hash(half) and twin is not half
    assert half.value == Fraction(1, 2)
    assert half != CircleExponent.from_residue(1, 3) and half != (1, 2)
    assert str(T) == "(1,1;0,1)"
    twin = UniModular(1, 1, 0, 1)
    assert twin == T and hash(twin) == hash(T) and twin is not T
    assert Gamma0Element(twin, 3) == gamma and hash(Gamma0Element(twin, 3)) == hash(gamma)
    assert UniModular(a=1, b=1, c=0, d=1) == T and Gamma0Element(matrix=T, level=3) == gamma
    assert T != (1, 1, 0, 1) and T != UniModular(1, 2, 0, 1) and gamma != Gamma0Element(T, 6)
    for value in (T, gamma, half):
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == value and type(copied) is type(value) and repr(copied) == repr(value)
    with pytest.raises(ValueError, match=r"^determinant is not 1: \(1, 0, 0, 2\)$"):
        UniModular(1, 0, 0, 2)
    with pytest.raises(ValueError, match=r"^level must be positive, got 0$"):
        Gamma0Element(T, 0)
    with pytest.raises(ValueError, match=r"^matrix \(1,0;1,1\) is not in Gamma0\(2\): 2 does not divide 1$"):
        Gamma0Element(UniModular(1, 0, 1, 1), 2)
    with pytest.raises(ValueError, match=r"^level mismatch$"):
        Gamma0Element(T, 3) * Gamma0Element(T, 6)


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


def test_sigma_rejects_a_non_integer_divisor():
    # 2.0 divides 6 as a float, and psi4 would take the conjugate by it
    with pytest.raises(ValueError, match=r"^divisor is not an integer: 2\.0$"):
        sigma(Gamma0Element(UniModular(1, 0, 6, 1), 6), 2.0)


def test_sigma_on_cusp_parabolics_closed_form():
    # cusp_parabolics(N) yields, for each c | N in order, the parabolic
    # element P_c of Gamma0(N) fixing the cusp 1/c, with w = N / gcd(N, c^2);
    # sigma_l(P_c) = w * (l - gcd(c, l)^2) / l for every l | N
    checked = 0
    for n in range(2, 1001):
        divs = divisors(n)
        parabolics = list(cusp_parabolics(n))
        assert len(parabolics) == len(divs), n
        for c, p in zip(divs, parabolics):
            w = n // gcd(n, c * c)
            a, b, lower, d = p
            assert a * d - b * lower == 1 and lower % n == 0, (n, c)
            # trace 2, top-right entry w, and (a + b*c) / (lower + d*c) = 1/c
            assert a + d == 2 and b == w and c * (a + b * c) == lower + d * c, (n, c)
            gamma = Gamma0Element(UniModular(*p), n)
            for l in divs:
                g = gcd(c, l)
                assert sigma(gamma, l) * l == w * (l - g * g), (n, c, l)
                checked += 1
    assert checked == 75_082


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


def _descent_dedekind(h, k):
    # the reciprocity descent that computed s(h, k) before the
    # continued-fraction walk, frozen here as an oracle for large entries
    h %= k
    num, den = 0, 1
    sign = 1
    while h:
        hk12 = 12 * h * k
        t_num = 4 * (h * h + k * k + 1) - hk12
        t_den = 4 * hk12
        num = num * t_den + sign * t_num * den
        den = den * t_den
        g = gcd(num, den)
        num //= g
        den //= g
        sign = -sign
        h, k = k % h, h
    return num, den


def _descent_psi4(a, b, c, d):
    # psi4 as it was computed through that descent
    if c == 0:
        return b if a > 0 else -b - 6
    if c > 0:
        num, den = _descent_dedekind(-d, c)
        off = -3
    else:
        num, den = _descent_dedekind(d, -c)
        off = 3
    total = (a + d) * den + 12 * num * c + off * c * den
    q, r = divmod(total, c * den)
    assert r == 0
    return q


def _naive_psi4(a, b, c, d):
    # the four-case formula with Fractions and naive Dedekind sums
    if c == 0:
        return b if a > 0 else -b - 6
    if c > 0:
        return Fraction(a + d, c) + 12 * dedekind_sum(-d, c) - 3
    return Fraction(a + d, c) + 12 * dedekind_sum(d, -c) + 3


def _matrices_with_lower_row(rng, c, shifts):
    # (a + t*c, b; c, d) of determinant 1 for each t in shifts; c != 0, d sampled
    d = rng.randint(-3 * abs(c), 3 * abs(c))
    while gcd(c, d) != 1:
        d += 1
    a = pow(d, -1, abs(c))
    return [(a + t * c, (a * d - 1) // c + t * d, c, d) for t in shifts]


def test_psi_matches_direct_formula():
    # naive Dedekind sums where they are cheap (|c| <= 2000), the frozen
    # descent beyond; neither shares code with psi4's walk
    def expected(a, b, c, d):
        if abs(c) <= 2000:
            return _naive_psi4(a, b, c, d)
        return _descent_psi4(a, b, c, d)

    rng = random.Random(29)
    cases = [m.entries() for m in (random_sl2(rng) for _ in range(500))]
    cases += [(s, b, 0, s) for s in (1, -1) for b in range(-5, 6)]
    # every 1 <= |c| <= 2000 with a sampled d
    for c in range(-2000, 2001):
        if c:
            cases += _matrices_with_lower_row(rng, c, [rng.randint(-2, 2)])
    # |c| from 1 to 1e12, both signs, a shifted by t*c for t in -2..2
    for _ in range(2000):
        c = rng.choice([1, -1]) * rng.randint(1, 10 ** rng.randint(0, 12))
        cases += _matrices_with_lower_row(rng, c, range(-2, 3))
    for a, b, c, d in cases:
        assert psi(UniModular(a, b, c, d)) == expected(a, b, c, d)


def test_psi4_rejects_determinant_other_than_one():
    # all but (2, 0, 5, 4) have c == 0 or a*d == 1 (mod c), so a test of
    # integrality alone would let them through
    for entries in [(2, 5, 0, 7), (1, 0, 5, 6), (6, 0, 5, 1), (2, 0, 5, 4), (3, 1, -5, 2)]:
        a, b, c, d = entries
        message = f"determinant of ({a},{b},{c},{d}) is {a * d - b * c}, not 1"
        with pytest.raises(ArithmeticError, match=rf"^{re.escape(message)}$"):
            kernels.psi4(*entries)


def _frozen_walk(x, y):
    # the divmod walk psi4 and the fast Dedekind sum called before psi4 inlined it,
    # frozen verbatim as an oracle
    q, x = divmod(x, y)
    w = -q
    if not x:
        return w
    while True:
        q, y = divmod(y, x)
        w += q
        if not y:
            return w - 3
        q, x = divmod(x, y)
        w -= q
        if not x:
            return w - 1


def _frozen_psi4(a, b, c, d):
    if a * d - b * c != 1:
        raise ArithmeticError(f"determinant of ({a},{b},{c},{d}) is {a * d - b * c}, not 1")
    if c > 0:
        return a // c - 3 - _frozen_walk(d, c)
    if c < 0:
        return a // c + 3 - _frozen_walk(-d, -c)
    return b if a > 0 else -b - 6


def _frozen_psi4_cases(rng):
    """Entry tuples on which psi4 is compared with the frozen walk."""
    cases = [(s, b, 0, s) for s in (1, -1) for b in range(-5, 6)]
    # every 1 <= |c| <= 2000, a shifted by t*c
    for c in range(-2000, 2001):
        if c:
            cases += _matrices_with_lower_row(rng, c, range(-2, 3))
    # around the 30-bit digit of CPython ints, past two digits, and far beyond
    for size in (2**30 - 1, 2**30, 2**30 + 1, 2**60 - 1, 2**60 + 1, 10**40):
        for c in (size, -size):
            for _ in range(20):
                cases += _matrices_with_lower_row(rng, c, range(-2, 3))
    return cases


def test_psi4_matches_frozen_walk():
    for a, b, c, d in _frozen_psi4_cases(random.Random(31)):
        assert kernels.psi4(a, b, c, d) == _frozen_psi4(a, b, c, d), (a, b, c, d)


def test_dedekind_fast_takes_any_numerator():
    # psi4 reduces h itself, so h need not lie in [0, k)
    for h in (-7, 0, 5):
        assert dedekind_sum_fast(h, 1) == dedekind_sum(h, 1) == 0
    rng = random.Random(37)
    for k in range(2, 201):
        for h in rng.sample(range(-3 * k, 3 * k), 12) + [-1, -k - 1, k + 1, 2 * k + 1]:
            if (h < 0 or h >= k) and gcd(h, k) == 1:
                assert dedekind_sum_fast(h, k) == dedekind_sum(h, k), (h, k)


def _randint_random_sl2(rng, max_len=40):
    """``random_sl2`` as it drew through ``randint``/``randrange`` before it
    read ``getrandbits`` directly; the oracle for its stream."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, max_len)):
        choice = rng.randrange(3)
        if choice == 0:
            b, d = a + b, c + d
        elif choice == 1:
            b, d = b - a, d - c
        else:
            a, b, c, d = b, -a, d, -c
    return UniModular(a, b, c, d)


def test_random_sl2_draws_the_randint_stream():
    # 31, 32, 33 and 64 sit at the edges of the length draw's bit width
    for max_len in (1, 2, 3, 25, 31, 32, 33, 40, 64):
        for seed in range(300):
            new, tup, old = random.Random(seed), random.Random(seed), random.Random(seed)
            for _ in range(3):
                expected = _randint_random_sl2(old, max_len)
                assert random_sl2(new, max_len) == expected
                entries = random_sl2_entries(tup, max_len)
                assert type(entries) is tuple and entries == expected.entries()
            assert new.random() == tup.random() == old.random(), (max_len, seed)
    new, old = random.Random(11), random.Random(11)
    assert [random_sl2(new) for _ in range(50)] == [_randint_random_sl2(old) for _ in range(50)]
    assert new.random() == old.random()


def test_random_sl2_rejects_lengths_below_one():
    for max_len in (0, -1):
        with pytest.raises(ValueError):
            random_sl2(random.Random(0), max_len)
        with pytest.raises(ValueError):
            random_sl2_entries(random.Random(0), max_len)


def _unimodular_omega(x, y):
    """``omega`` as it read the ``UniModular`` fields before the rule moved to
    ``omega4`` on entry tuples; the oracle."""
    c1, d1 = x.c, x.d
    c2 = y.c
    c3 = c1 * y.a + d1 * c2
    if c1 == 0 and c2 == 0 and d1 < 0 and y.d < 0:
        return 12
    if c1 >= 0 and c2 >= 0 and c3 < 0:
        return 12
    if c1 < 0 and c2 < 0 and c3 >= 0:
        return -12
    return 0


def test_omega4_matches_the_unimodular_rule():
    rng = random.Random(53)
    corners = [I, NEG_I, S, S.inv(), T, T.inv(), -T, -T.inv()]
    pairs = [(x, y) for x in corners for y in corners]
    pairs += [(random_sl2(rng, rng.randint(1, 8)), random_sl2(rng)) for _ in range(3000)]
    seen = set()
    for x, y in pairs:
        expected = _unimodular_omega(x, y)
        assert omega4(x.entries(), y.entries()) == omega(x, y) == expected, (x, y)
        seen.add(expected)
    assert seen == {-12, 0, 12}


def _randint_random_coprime_pair(rng, n, cmax):
    """``random_coprime_pair`` as it drew through ``randint`` before it read
    ``getrandbits`` directly; the oracle for its stream."""
    while True:
        c = n * rng.randint(1, cmax // n)
        d = rng.randint(-3 * cmax, 3 * cmax)
        if gcd(c, d) == 1:
            return c, d


def test_random_coprime_pair_draws_the_randint_stream():
    for n in KERNEL_LEVELS:
        for cmax in (n, n + 1, 10**4, 10**6, 10**13):
            for seed in range(40):
                new, old = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    pair = random_coprime_pair(new, n, cmax)
                    assert pair == _randint_random_coprime_pair(old, n, cmax), (n, cmax, seed)
                    c, d = pair
                    assert c % n == 0 and 0 < c <= cmax and abs(d) <= 3 * cmax
                assert new.random() == old.random(), (n, cmax, seed)


def test_random_coprime_pair_at_its_edge():
    # cmax = n leaves c = n as the only choice
    for n in KERNEL_LEVELS:
        rng = random.Random(n)
        assert {random_coprime_pair(rng, n, n)[0] for _ in range(20)} == {n}
    for n, cmax in ((5, 4), (2, 1), (0, 10), (-3, 10)):
        with pytest.raises(ValueError, match="n <= cmax"):
            random_coprime_pair(random.Random(0), n, cmax)


def test_pow4_matches_repeated_products():
    rng = random.Random(17)
    for _ in range(200):
        x = random_sl2(rng)
        n = rng.randint(-40, 40)
        step = x.entries() if n > 0 else x.inv().entries()
        expected = I.entries()
        for _ in range(abs(n)):
            expected = mul4(expected, step)
        assert pow4(x.entries(), n) == expected
        assert x**n == UniModular(*expected)
