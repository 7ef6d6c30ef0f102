"""The character formula, sigma matrix, beta, kernel tools, sum identity."""

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest

from gamma0char import charformula
from gamma0char import verify as verify_mod
from gamma0char.charformula import (
    KERNEL_LEVELS,
    CharacterParams,
    TheoremViolation,
    beta,
    dedekind_identity_quotient,
    eval_character,
    kernel_exponent_check,
    sigma_matrix,
)
from gamma0char.dirichlet import (
    DirichletCharacter,
    divisors,
    enumerate_characters,
    euler_phi,
    evaluate,
    unit_group_structure,
)
from gamma0char.exact import CircleExponent, as_fraction, as_int, dedekind_sum
from gamma0char.farey import generators
from gamma0char.kernels import psi4
from gamma0char.sampling import random_gamma0
from gamma0char.sl2 import NEG_I, T, Gamma0Element, UniModular, psi, psi_conjugate, sigma
from gamma0char.verify import predicted_beta, verify_surjectivity


def _params(n, chi_index=0, r1=0, **weights):
    chi = enumerate_characters(n)[chi_index]
    r_l = {l: Fraction(0) for l in divisors(n) if l > 1}
    for key, value in weights.items():
        r_l[int(key[1:])] = Fraction(value)
    return CharacterParams.from_map(chi, r1, r_l)


@lru_cache(maxsize=None)
def _exponent_vectors(n):
    """Unit d mod n -> its exponent vector e, d = prod of g_i^e_i over the
    cyclic factors, found by trying every vector with pow rather than by the
    library's table walk."""
    factors = unit_group_structure(n)
    vectors = {}
    for exps in itertools.product(*(range(order) for _, order in factors)):
        vectors[math.prod(pow(g, e, n) for (g, _), e in zip(factors, exps)) % n] = exps
    assert len(vectors) == euler_phi(n)
    return vectors


def _oracle_evaluate(chi, d):
    """chi(d) mod 1 summed term by term in Fractions over the brute-force
    exponent vector of d."""
    exps = _exponent_vectors(chi.modulus)[d % chi.modulus]
    total = Fraction(0)
    for k, e, (_, order) in zip(chi.exponents, exps, unit_group_structure(chi.modulus)):
        total += Fraction(k * e, order)
    return total % 1


def _oracle_eval_character(params, gamma):
    """The character formula summed in Fractions mod 1: the former library code.

    It forms each conjugate (a, b*l, c/l, d) itself, as a checked matrix,
    rather than through ``sl2.psi_conjugate``, the routine under test.
    """
    m = gamma.matrix
    a, b, c, d = m.entries()
    psi_m = psi(m)
    total = _oracle_evaluate(params.chi, d) + Fraction(params.r1 * psi_m, 12)
    for l, r in params.r_l:
        if r:
            total += r * (psi_m - psi(UniModular(a, b * l, c // l, d)))
    return total % 1


def _lower_row_element(rng, n):
    """An element of Gamma0(n) from a seeded lower row (c, d), c of either sign or 0."""
    if rng.randrange(20) == 0:
        s = rng.choice((1, -1))
        return Gamma0Element(UniModular(s, rng.randrange(-99, 100), 0, s), n)
    c = n * rng.randrange(1, 10**6) * rng.choice((1, -1))
    d = rng.randrange(-(10**6), 10**6)
    while math.gcd(c, d) != 1:
        d += 1
    a = pow(d, -1, abs(c))
    return Gamma0Element(UniModular(a, (a * d - 1) // c, c, d), n)


def test_eval_character_matches_fraction_oracle():
    rng = random.Random(71)
    dens = (1, 2, 7, 12, 10**9 + 7, 2**61 - 1, 12 * 10**6)
    widest = 0
    for n in (*range(2, 41), 60, 210, 840):
        divs = [l for l in divisors(n) if l > 1]
        for chi in enumerate_characters(n):
            r_l = {
                l: Fraction(rng.randrange(-(10**12), 10**12), rng.choice(dens))
                if rng.randrange(4)
                else Fraction(0)
                for l in divs
            }
            params = CharacterParams.from_map(chi, rng.randrange(-40, 40), r_l)
            widest = max(widest, len(str(params.value_modulus)))
            for _ in range(2):
                gamma = _lower_row_element(rng, n)
                assert eval_character(params, gamma).value == _oracle_eval_character(
                    params, gamma
                )
    assert widest >= 30


def _value_error(fn, *args):
    """The message of the ValueError that fn(*args) raises; None if it returns."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_chi_table_matches_the_dlog_dot_product():
    for n in (*range(1, 61), 210, 840):
        vectors = _exponent_vectors(n)
        orders = [order for _, order in unit_group_structure(n)]
        # weights over 5 make M a proper multiple of the character's modulus
        r_l = {l: Fraction(1, 5) for l in divisors(n) if l > 1}
        for chi in enumerate_characters(n):
            m = chi.value_modulus
            params = CharacterParams.from_map(chi, 1, r_l)
            scale = math.lcm(12, m, 5 if r_l else 1) // m
            assert params.chi_scale == scale and params.value_modulus == scale * m
            weights = [k * (m // order) for k, order in zip(chi.exponents, orders)]
            assert len(chi.table) == n
            for d in range(n):
                if math.gcd(d, n) == 1:
                    expected = scale * sum(map(mul, weights, vectors[d]))
                    assert chi.table[d] * params.chi_scale == expected
                    assert evaluate(chi, d + 5 * n).value == _oracle_evaluate(chi, d)
                else:
                    assert chi.table[d] is None
                    message = f"{d} is not a unit modulo {n}"
                    assert _value_error(evaluate, chi, d - 4 * n) == message
                    assert _value_error(evaluate, chi, d + 2 * n) == message


@dataclass(frozen=True)
class _ParentCharacterParams:
    """``CharacterParams`` as its parent compiled it, frozen: each triple
    scaled chi into an N-entry table of its own, ``chi_table``, read through
    ``chi_exponent``."""

    chi: DirichletCharacter
    r1: int
    r_l: tuple[tuple[int, Fraction], ...]
    value_modulus: int = field(init=False, repr=False, compare=False)
    chi_table: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
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
        scale = big // self.chi.value_modulus
        rl = tuple((l, r.numerator * (big // r.denominator)) for l, r in r_l if r)
        table = tuple(None if v is None else v * scale for v in self.chi.table)
        put = object.__setattr__
        put(self, "r1", r1)
        put(self, "r_l", r_l)
        put(self, "value_modulus", big)
        put(self, "chi_table", table)
        put(self, "psi_weight", r1 * (big // 12) + sum(w for _, w in rl))
        put(self, "rl_weights", rl)

    def chi_exponent(self, d: int) -> int:
        n = self.chi.modulus
        d %= n
        value = self.chi_table[d]
        if value is None:
            raise ValueError(f"{d} is not a unit modulo {n}")
        return value

    @classmethod
    def from_map(cls, chi, r1, r_l):
        return cls(chi, r1, tuple(sorted(r_l.items())))


def _parent_eval_character(params, gamma):
    """``eval_character`` as its parent read chi(d), frozen."""
    n = params.chi.modulus
    if gamma.level != n:
        raise ValueError(f"level {gamma.level} does not match modulus {n}")
    m = gamma.matrix
    a, b, c, d = m.a, m.b, m.c, m.d
    total = params.chi_exponent(d) + params.psi_weight * psi4(a, b, c, d)
    for l, w in params.rl_weights:
        total -= w * psi_conjugate(a, b, c, d, l)
    return CircleExponent.from_residue(total, params.value_modulus)


def test_eval_character_matches_the_frozen_parent(benchmark_shaped_element):
    rng = random.Random(73)
    for n in (*range(1, 61), 210, 840):
        divs = [l for l in divisors(n) if l > 1]
        for chi in enumerate_characters(n):
            for r1, den in itertools.product((0, 5, 11), (5, 7)):
                r_l = {l: Fraction(rng.randrange(-3 * den, 3 * den), den) for l in divs}
                params = CharacterParams.from_map(chi, r1, r_l)
                parent = _ParentCharacterParams.from_map(chi, r1, r_l)
                assert (params.value_modulus, params.psi_weight, params.rl_weights) == (
                    parent.value_modulus,
                    parent.psi_weight,
                    parent.rl_weights,
                )
                for _ in range(2):
                    gamma = benchmark_shaped_element(rng, n)
                    assert eval_character(params, gamma) == _parent_eval_character(
                        parent, gamma
                    ), (n, chi.id(), r1, gamma)


def test_surjectivity_reports_match_the_frozen_parent(monkeypatch):
    reports = [verify_surjectivity(n) for n in range(1, 61)]
    images = [verify_mod._torsion_image(n, generators(n)) for n in range(2, 61)]
    monkeypatch.setattr(verify_mod, "CharacterParams", _ParentCharacterParams)
    monkeypatch.setattr(verify_mod, "eval_character", _parent_eval_character)
    assert reports == [verify_surjectivity(n) for n in range(1, 61)]
    assert images == [verify_mod._torsion_image(n, generators(n)) for n in range(2, 61)]


def test_eval_character_trivial_params():
    rng = random.Random(47)
    for n in (2, 7, 12):
        params = _params(n)
        gens = generators(n)
        for _ in range(30):
            gamma = random_gamma0(rng, gens)
            assert eval_character(params, gamma).value == 0


def test_eval_character_examples():
    gamma = Gamma0Element(UniModular(-2, 1, -7, 3), 7)
    assert eval_character(_params(7, r1=1), gamma).value == Fraction(1, 6)
    gamma2 = Gamma0Element(T, 2)
    assert eval_character(_params(2, r2=Fraction(1, 2)), gamma2).value == Fraction(1, 2)


def test_eval_character_level_mismatch():
    with pytest.raises(ValueError):
        eval_character(_params(7), Gamma0Element(T, 14))


def test_eval_character_is_homomorphism():
    rng = random.Random(53)
    for n in (2, 6, 7, 12, 18):
        gens = generators(n)
        chars = enumerate_characters(n)
        for trial in range(3):
            params = CharacterParams.from_map(
                chars[rng.randrange(len(chars))],
                rng.randrange(12),
                {
                    l: Fraction(rng.randrange(-6, 7), rng.randrange(1, 9))
                    for l in divisors(n)
                    if l > 1
                },
            )
            for _ in range(200):
                x = random_gamma0(rng, gens, letters=5)
                y = random_gamma0(rng, gens, letters=5)
                assert (
                    eval_character(params, x * y)
                    == eval_character(params, x) + eval_character(params, y)
                )


def test_parameter_composition_matches_pointwise_product():
    rng = random.Random(59)
    n = 12
    gens = generators(n)
    chars = enumerate_characters(n)
    divs = [l for l in divisors(n) if l > 1]
    for _ in range(10):
        p1 = CharacterParams.from_map(
            chars[rng.randrange(len(chars))],
            rng.randrange(12),
            {l: Fraction(rng.randrange(-4, 5), rng.randrange(1, 7)) for l in divs},
        )
        p2 = CharacterParams.from_map(
            chars[rng.randrange(len(chars))],
            rng.randrange(12),
            {l: Fraction(rng.randrange(-4, 5), rng.randrange(1, 7)) for l in divs},
        )
        composed = p1.compose(p2)
        for _ in range(50):
            gamma = random_gamma0(rng, gens, letters=5)
            assert eval_character(composed, gamma) == eval_character(
                p1, gamma
            ) + eval_character(p2, gamma)


def test_params_validation():
    chi = enumerate_characters(6)[0]
    with pytest.raises(ValueError):
        CharacterParams.from_map(chi, 0, {2: Fraction(1)})  # missing divisors 3, 6
    params = _params(6, r1=25)
    assert params.r1 == 1
    # inexact or non-integral input is rejected, not rounded or kept
    full = {2: Fraction(0), 3: Fraction(0), 6: Fraction(0)}
    for bad in ({**full, 3: 0.1}, {**full, 6: "1/2"}):
        with pytest.raises(ValueError):
            CharacterParams.from_map(chi, 0, bad)
    for r1 in (1.5, Fraction(3, 2), 2.0):
        with pytest.raises(ValueError):
            CharacterParams.from_map(chi, r1, full)
    assert CharacterParams.from_map(chi, Fraction(14, 1), full).r1 == 2
    with pytest.raises(ValueError, match=r"^modulus mismatch$"):
        params.compose(_params(12))


def test_params_reject_a_float_divisor_key():
    # 2.0 == 2 passes the comparison with the divisors, so a float key is
    # caught by its type; an integral Fraction key is taken as its int
    chi = enumerate_characters(6)[0]
    weights = ((2.0, Fraction(1, 3)), (3, Fraction(0)), (6, Fraction(1, 2)))
    with pytest.raises(ValueError, match=r"^2\.0 is not an integer$"):
        CharacterParams(chi, 1, weights)
    with pytest.raises(ValueError, match=r"^2\.0 is not an integer$"):
        CharacterParams.from_map(chi, 1, dict(weights))
    assert CharacterParams(chi, 1, ((Fraction(2), Fraction(1, 3)), *weights[1:])) == (
        CharacterParams.from_map(chi, 1, {2: Fraction(1, 3), 3: 0, 6: Fraction(1, 2)})
    )


def test_sigma_matrix_examples():
    m7 = sigma_matrix(7)
    assert m7.cols == (7,)
    assert m7.entries == ((-6,),)
    m4 = sigma_matrix(4)
    assert m4.cols == (2, 4)
    assert m4.entries[0] == (-1, -3)
    assert len(m4.entries) == 2
    assert len(m4.entries[0]) == 2
    for p in (11, 23, 97):
        mp = sigma_matrix(p)
        assert mp.cols == (p,)
        assert mp.entries[0] == (1 - p,)


def test_sigma_matrix_recomputes_from_sigma():
    # levels with many divisors share one psi(g) across the most columns
    for n in (*range(2, 61), 120, 210, 240):
        mat = sigma_matrix(n)
        gens = generators(n)
        for row, g in zip(mat.entries, gens.free):
            for value, l in zip(row, mat.cols):
                assert value == sigma(Gamma0Element(g, n), l)


def test_beta_table_matches_full_matrix_oracle(monkeypatch):
    # oracle: math.gcd over the whole sigma column of the free generators
    for n in range(2, 301):
        gens = generators(n)
        for l in divisors(n)[1:]:
            column = [sigma(Gamma0Element(g, n), l) for g in gens.free]
            assert beta(n, l) == math.gcd(*column), (n, l)
    assert set(range(2, 301)) <= set(charformula._beta_table)
    # a table hit builds no matrix
    def build(n):
        raise AssertionError(f"built the sigma matrix of level {n}")

    monkeypatch.setattr(charformula, "sigma_matrix", build)
    assert beta(12, 12) == 1 and beta(288, 2) == 1


def test_beta_table_values():
    assert beta(2, 2) == 1
    assert beta(5, 5) == 4
    assert beta(7, 7) == 6
    assert beta(13, 13) == 12
    assert beta(10, 2) == 1
    assert beta(26, 13) == 12
    # conjecture-backed perfect-square rows
    assert beta(25, 25) == 24
    assert beta(9, 9) == 8


def test_beta_domain_errors(monkeypatch):
    with pytest.raises(ValueError):
        beta(10, 3)
    with pytest.raises(ValueError):
        beta(10, 1)
    with pytest.raises(ValueError):
        beta(1, 1)
    # a zero column gcd in the table is a theorem violation, not a value
    monkeypatch.setitem(charformula._beta_table, 7, {7: 0})
    with pytest.raises(TheoremViolation, match=r"^image of sigma_7,7 is trivial$"):
        beta(7, 7)


def test_beta_independent_of_generator_set():
    # W g W^-1 with W = [[0, -1], [n, 0]] normalises Gamma0(n), so conjugating
    # the free generators by it gives a second generating set of the image
    for n in (6, 9, 10, 12, 24, 36, 60, 210):
        free = generators(n).free
        fricke = [UniModular(g.d, -(g.c // n), -n * g.b, g.a) for g in free]
        assert fricke != list(free)
        for l in [l for l in divisors(n) if l > 1]:
            alt = math.gcd(*[sigma(Gamma0Element(g, n), l) for g in fricke])
            assert alt == beta(n, l)


def test_kernel_exponent_check_examples():
    assert kernel_exponent_check(Gamma0Element(T, 7)) == (1, False)
    assert kernel_exponent_check(Gamma0Element(NEG_I, 7)) == (0, True)
    gens = generators(7)
    h1, h2 = gens.elliptic3
    gamma = Gamma0Element(h1 * T * h2 * T.inv(), 7)
    assert kernel_exponent_check(gamma) == (0, True)


def test_kernel_exponent_check_rejects_other_levels():
    with pytest.raises(ValueError):
        kernel_exponent_check(Gamma0Element(T, 6))


def _parent_kernel_exponent_check(gamma):
    """The former library check, frozen: it finds the one free generator with
    a nonzero sigma_N in the level's sigma matrix, and compares only whether
    its exponent sum and sigma_N(gamma) vanish.  Looks up ``sigma_matrix``
    and ``sigma`` on the module, as the library did, so patches reach it."""
    n = gamma.level
    charformula.check_kernel_level(n)
    mat = charformula.sigma_matrix(n)
    j = mat.cols.index(n)
    nonzero = [i for i, row in enumerate(mat.entries) if row[j]]
    if len(nonzero) != 1:
        raise TheoremViolation(
            f"level {n}: expected exactly one free generator with nonzero "
            f"sigma, found {len(nonzero)}"
        )
    word = charformula.decompose(gamma, generators(n))
    total = charformula.exponent_sum(word, ("free", nonzero[0]))
    in_kernel = total == 0
    if in_kernel != (charformula.sigma(gamma, n) == 0):
        raise TheoremViolation(
            f"exponent sum {total} contradicts sigma value at {gamma.matrix}"
        )
    return total, in_kernel


def test_kernel_exponent_check_matches_the_parent_oracle(benchmark_shaped_element):
    rng = random.Random(71)
    for n in KERNEL_LEVELS:
        gens = generators(n)
        elements = [random_gamma0(rng, gens) for _ in range(60)]
        elements += [benchmark_shaped_element(rng, n) for _ in range(30)]
        for gamma in elements:
            assert kernel_exponent_check(gamma) == _parent_kernel_exponent_check(gamma), gamma


def test_kernel_levels_are_the_one_nonzero_sigma_levels():
    # the levels whose sigma column N is zero except in T's row are exactly
    # KERNEL_LEVELS, and exactly the levels whose beta(N, N) = N - 1 by the
    # residue table; there sigma_N(T) = 1 - N
    one_nonzero = set()
    for n in range(2, 301):
        assert generators(n).free[0] == T
        mat = sigma_matrix(n)
        j = mat.cols.index(n)
        if [i for i, row in enumerate(mat.entries) if row[j]] == [0]:
            assert mat.entries[0][j] == 1 - n
            one_nonzero.add(n)
    assert one_nonzero == set(KERNEL_LEVELS)
    assert {n for n in range(2, 301) if predicted_beta(n) == n - 1} == set(KERNEL_LEVELS)


def test_kernel_tools_raise_theorem_violations(monkeypatch):
    # -I has exponent sum 0, so a nonzero sigma contradicts it
    monkeypatch.setattr(charformula, "sigma", lambda gamma, l: 1)
    message = r"^exponent sum 0 contradicts sigma value at \(-1,0;0,-1\)$"
    with pytest.raises(TheoremViolation, match=message):
        kernel_exponent_check(Gamma0Element(NEG_I, 9))
    # a sigma off by one multiple of 1 - N at T**2 (e_T = 2) is nonzero where
    # e_T is nonzero, so the parent's zero-ness check passes; the identity
    # sigma_N = (1 - N) * e_T does not
    gamma = Gamma0Element(T * T, 9)
    monkeypatch.setattr(charformula, "sigma", lambda gamma, l: (1 - l) * (2 + 1))
    assert _parent_kernel_exponent_check(gamma) == (2, False)
    message = r"^exponent sum 2 contradicts sigma value at \(1,2;0,1\)$"
    with pytest.raises(TheoremViolation, match=message):
        kernel_exponent_check(gamma)


def test_kernel_biconditional_random():
    rng = random.Random(61)
    for n in (2, 3, 4, 5, 7, 9, 13, 25):
        gens = generators(n)
        for _ in range(150):
            gamma = random_gamma0(rng, gens)
            total, in_kernel = kernel_exponent_check(gamma)
            assert in_kernel == (total == 0)
            assert in_kernel == (sigma(gamma, n) == 0)


def test_dedekind_identity_examples():
    assert dedekind_identity_quotient(2, 2, 1) == -1
    assert dedekind_identity_quotient(3, 3, 1) == -1


def test_dedekind_identity_bulk_random():
    rng = random.Random(67)
    from gamma0char.sampling import random_coprime_pair

    def literal_quotient(n, c, d):
        # the paper's expression in naive Dedekind sums, an oracle that
        # shares no code with psi4's continued-fraction walk
        a = pow(d, -1, c)
        q = (
            Fraction(a + d, c)
            - 12 * dedekind_sum(d, c)
            - Fraction(a + d, c // n)
            + 12 * dedekind_sum(d, c // n)
        )
        assert q.denominator == 1 and q % (n - 1) == 0
        return int(q) // (n - 1)

    for n in KERNEL_LEVELS:
        for _ in range(120):
            c, d = random_coprime_pair(rng, n, 10**4)
            assert dedekind_identity_quotient(n, c, d) == literal_quotient(n, c, d)


def test_dedekind_identity_domain_errors(monkeypatch):
    with pytest.raises(ValueError):
        dedekind_identity_quotient(6, 6, 1)
    with pytest.raises(ValueError):
        dedekind_identity_quotient(2, 3, 1)
    with pytest.raises(ValueError):
        dedekind_identity_quotient(2, 4, 2)
    # sigma_3 of (1, 0; 3, 1) is -2; one more in the conjugate's psi makes -3
    monkeypatch.setattr(charformula, "psi_conjugate", lambda *abcdl: psi_conjugate(*abcdl) + 1)
    message = r"^quotient -3 not divisible by 2 at \(n, c, d\) = \(3, 3, 1\)$"
    with pytest.raises(TheoremViolation, match=message):
        dedekind_identity_quotient(3, 3, 1)
