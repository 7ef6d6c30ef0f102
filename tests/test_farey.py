"""Farey symbols, generator sets, the measure formula, word decomposition."""

import json
import math
import random
from fractions import Fraction

import pytest

from gamma0char import farey
from gamma0char.dirichlet import factorize
from gamma0char.farey import (
    EVEN,
    ODD,
    FareySymbol,
    Word,
    build_generators,
    decompose,
    exponent_sum,
    farey_symbol,
    generator_set_from_json,
    generator_set_to_json,
    generators,
    index_gamma0,
    load_cached_generators,
    reconstruct,
    save_cached_generators,
)
from gamma0char.sampling import random_gamma0, random_sl2
from gamma0char.sl2 import I, NEG_I, S, T, Gamma0Element, UniModular, sigma

TABLE1_COUNTS = {
    2: (1, 1, 0),
    3: (1, 0, 1),
    4: (2, 0, 0),
    5: (1, 2, 0),
    6: (3, 0, 0),
    7: (1, 0, 2),
    8: (3, 0, 0),
    10: (3, 2, 0),
    12: (5, 0, 0),
    13: (1, 2, 2),
}

TABLE1_MATRICES = {
    2: [(1, 1, 0, 1), (1, -1, 2, -1)],
    3: [(1, 1, 0, 1), (-1, 1, -3, 2)],
    4: [(1, 1, 0, 1), (3, -1, 4, -1)],
    5: [(1, 1, 0, 1), (2, -1, 5, -2), (3, -2, 5, -3)],
    6: [(1, 1, 0, 1), (5, -1, 6, -1), (7, -3, 12, -5)],
    7: [(1, 1, 0, 1), (-2, 1, -7, 3), (-4, 3, -7, 5)],
    8: [(1, 1, 0, 1), (5, -1, 16, -3), (5, -2, 8, -3)],
    10: [
        (1, 1, 0, 1),
        (19, -7, 30, -11),
        (11, -5, 20, -9),
        (3, -1, 10, -3),
        (7, -5, 10, -7),
    ],
    12: [
        (1, 1, 0, 1),
        (7, -1, 36, -5),
        (19, -4, 24, -5),
        (17, -5, 24, -7),
        (7, -3, 12, -5),
    ],
    13: [
        (1, 1, 0, 1),
        (5, -2, 13, -5),
        (8, -5, 13, -8),
        (-3, 1, -13, 4),
        (-9, 7, -13, 10),
    ],
}


def test_index_examples():
    assert index_gamma0(1) == 1
    assert index_gamma0(6) == 12
    assert index_gamma0(13) == 14
    with pytest.raises(ValueError):
        index_gamma0(0)


def test_symbol_structure_small_levels():
    s2 = farey_symbol(2)
    assert s2.pairings.count(EVEN) == 1 and s2.pairings.count(ODD) == 0
    s3 = farey_symbol(3)
    assert s3.pairings.count(ODD) == 1 and s3.pairings.count(EVEN) == 0
    s4 = farey_symbol(4)
    r, e2, e3 = s4.counts()
    assert (r, e2, e3) == (2, 0, 0)
    assert s4.vertices[1:-1] == ((0, 1), (1, 2), (1, 1))


def test_symbol_invariants_reject_bad_data():
    with pytest.raises(ValueError):
        FareySymbol(4, ((-1, 0), (0, 1), (2, 3), (1, 0)), (("free", 0),) * 3)
    with pytest.raises(ValueError):
        FareySymbol(2, ((-1, 0), (0, 1), (1, 1), (1, 0)), (("free", 0), EVEN, ("free", 1)))


def test_boundary_pairing_is_translation():
    for n in (2, 5, 12, 30):
        v = farey_symbol(n).vertices
        left, right = farey._side_matrix(v[0], v[1]), farey._side_matrix(v[-2], v[-1])
        assert right * S * left.inv() == T


def test_generator_counts_match_published_table():
    for n, expected in TABLE1_COUNTS.items():
        assert generators(n).counts() == expected


def test_generator_set_membership_and_orders():
    for n in range(2, 81):
        gens = generators(n)
        for m in gens.free + gens.elliptic2 + gens.elliptic3:
            assert m.c % n == 0
            assert m.a * m.d - m.b * m.c == 1
        for h in gens.elliptic2:
            assert h * h == NEG_I
        for h in gens.elliptic3:
            assert h * h * h == NEG_I
        assert gens.free[0] == T


def test_measure_formula_small():
    for n in range(2, 101):
        r, e2, e3 = generators(n).counts()
        rhs = Fraction(index_gamma0(n), 6) + 1 - Fraction(e2, 2) - Fraction(2 * e3, 3)
        assert rhs.denominator == 1
        assert r == rhs


def test_level_one_generators():
    gens = generators(1)
    assert gens.counts() == (0, 1, 1)
    assert gens.elliptic2 == (S,)
    assert gens.elliptic3 == (S * T,)


def test_decompose_trivial_cases():
    gens = generators(7)
    assert decompose(Gamma0Element(T, 7), gens) == Word(1, ((("free", 0), 1),))
    assert decompose(Gamma0Element(NEG_I, 7), gens) == Word(-1, ())
    assert decompose(Gamma0Element(I, 7), gens) == Word(1, ())


def test_decompose_level_mismatch():
    with pytest.raises(ValueError):
        decompose(Gamma0Element(T, 6), generators(7))


def test_table1_matrices_decompose():
    for n, mats in TABLE1_MATRICES.items():
        gens = generators(n)
        for entries in mats:
            gamma = Gamma0Element(UniModular(*entries), n)
            word = decompose(gamma, gens)
            assert reconstruct(word, gens) == gamma.matrix


def test_decompose_normal_form_constraints():
    rng = random.Random(31)
    for n in (2, 3, 7, 10, 13, 24):
        gens = generators(n)
        for _ in range(200):
            gamma = random_gamma0(rng, gens, letters=10)
            word = decompose(gamma, gens)
            assert word.sign in (1, -1)
            for (ref, exp), (ref2, _) in zip(word.letters, word.letters[1:]):
                assert ref != ref2
            for ref, exp in word.letters:
                kind = ref[0]
                if kind == "free":
                    assert exp != 0
                elif kind == "e2":
                    assert exp == 1
                else:
                    assert exp in (1, 2)
            # determinism
            assert decompose(gamma, gens) == word


_ORACLE_TORSION_ORDER = {"e2": 2, "e3": 3}


def _oracle_push_letter(stack, ref, exp):
    stack.append([ref, exp])
    while len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
        _, merged = stack.pop()
        stack[-1][1] += merged
    while stack:
        kind = stack[-1][0][0]
        exp = stack[-1][1]
        if kind in _ORACLE_TORSION_ORDER:
            stack[-1][1] = exp = exp % _ORACLE_TORSION_ORDER[kind]
        if exp != 0:
            break
        stack.pop()
        if len(stack) >= 2 and stack[-1][0] == stack[-2][0]:
            _, merged = stack.pop()
            stack[-1][1] += merged
        else:
            break


def _oracle_normal_form(raw):
    """Normal form by an earlier two-pass reduction, kept as an oracle."""
    stack = []
    for ref, exp in raw:
        if exp:
            _oracle_push_letter(stack, ref, exp)
    return [tuple(letter) for letter in stack]


def test_normal_form_matches_oracle():
    x, y, e2, e3 = ("free", 1), ("free", 2), ("e2", 0), ("e3", 0)
    assert farey._normal_form([(x, 1), (y, 1), (y, -1), (x, -1)]) == []
    assert farey._normal_form([(e3, 1), (e3, 1), (e3, 1)]) == []
    assert farey._normal_form([(x, 1), (e2, 1), (e2, 1), (x, 1)]) == [(x, 2)]
    refs = [x, y, e2, e3, ("e3", 1)]
    rng = random.Random(47)
    for _ in range(20000):
        raw = [
            (rng.choice(refs), rng.randint(-4, 4)) for _ in range(rng.randint(0, 30))
        ]
        assert farey._normal_form(raw) == _oracle_normal_form(raw), raw


def test_decompose_roundtrip_many_levels():
    rng = random.Random(37)
    for n in range(2, 51):
        gens = generators(n)
        for _ in range(1000):
            gamma = random_gamma0(rng, gens, letters=10)
            word = decompose(gamma, gens)
            assert reconstruct(word, gens) == gamma.matrix


def test_decompose_level_one_roundtrip():
    gens = generators(1)
    rng = random.Random(41)
    for _ in range(300):
        m = random_sl2(rng, 30)
        word = decompose(Gamma0Element(m, 1), gens)
        assert reconstruct(word, gens) == m


def test_exponent_sum_examples():
    gens = generators(7)
    word_t = decompose(Gamma0Element(T, 7), gens)
    assert exponent_sum(word_t, ("free", 0)) == 1
    word_neg = decompose(Gamma0Element(NEG_I, 7), gens)
    assert exponent_sum(word_neg, ("free", 0)) == 0
    h = gens.elliptic3[0]
    conj = T * h * T.inv()
    word = decompose(Gamma0Element(conj, 7), gens)
    assert exponent_sum(word, ("free", 0)) == 0


def test_sigma_additivity_through_words():
    rng = random.Random(43)
    for n in (6, 10, 12, 18):
        gens = generators(n)
        divs = [l for l in range(2, n + 1) if n % l == 0]
        sig_of_gen = {
            ref: {l: sigma(Gamma0Element(g, n), l) for l in divs}
            for ref, g in gens.all_generators()
        }
        for _ in range(100):
            gamma = random_gamma0(rng, gens, letters=8)
            word = decompose(gamma, gens)
            for l in divs:
                total = sum(exp * sig_of_gen[ref][l] for ref, exp in word.letters)
                assert total == sigma(gamma, l)


def fricke_conjugate(g: UniModular, n: int) -> UniModular:
    """W g W^-1 for the Fricke matrix W = [[0, -1], [n, 0]], which normalises Gamma0(n)."""
    return UniModular(g.d, -(g.c // n), -n * g.b, g.a)


def test_fricke_conjugate_set_is_a_generator_set():
    for n in range(2, 41):
        gens = generators(n)
        conj = [
            [fricke_conjugate(g, n) for g in mats]
            for mats in (gens.free, gens.elliptic2, gens.elliptic3)
        ]
        assert tuple(map(len, conj)) == gens.counts()
        for m in conj[0] + conj[1] + conj[2]:
            assert m.c % n == 0
            assert m.a * m.d - m.b * m.c == 1
        for h in conj[1]:
            assert h * h == NEG_I
        for h in conj[2]:
            assert h * h * h == NEG_I


def test_vertex_denominators_bounded_by_level():
    for n in range(2, 1001):
        gens = build_generators(n)
        assert max(q for _, q in gens.symbol.vertices) <= n, n
        r, e2, e3 = gens.counts()
        assert r == Fraction(index_gamma0(n), 6) + 1 - Fraction(e2, 2) - Fraction(2 * e3, 3)
        # closed forms (Shimura, Prop. 1.43), independent of the symbol:
        # e2 = prod (1 + (-1/p)) unless 4 | N, e3 = prod (1 + (-3/p)) unless 9 | N,
        # a factor 2 for p split, 0 for p inert, 1 for p = 2 (e2) or p = 3 (e3)
        primes = [p for p, _ in factorize(n)]
        e2_closed = 0 if n % 4 == 0 else math.prod({1: 2, 2: 1, 3: 0}[p % 4] for p in primes)
        e3_closed = 0 if n % 9 == 0 else math.prod({1: 2, 0: 1, 2: 0}[p % 3] for p in primes)
        assert (e2, e3) == (e2_closed, e3_closed), n
        assert 6 * r == index_gamma0(n) + 6 - 3 * e2_closed - 4 * e3_closed, n
        if n in TABLE1_COUNTS:
            assert gens.counts() == TABLE1_COUNTS[n]


def test_cache_roundtrip(tmp_path):
    gens = generators(13)
    save_cached_generators(gens, str(tmp_path))
    loaded = load_cached_generators(13, str(tmp_path))
    assert loaded is not None
    assert loaded.free == gens.free
    assert loaded.elliptic2 == gens.elliptic2
    assert loaded.elliptic3 == gens.elliptic3
    assert loaded.symbol == gens.symbol


def test_cache_json_schema():
    doc = generator_set_to_json(generators(10))
    assert set(doc) == {"construction", "level", "free", "elliptic2", "elliptic3", "farey"}
    assert doc["construction"] == farey.CONSTRUCTION
    assert doc["level"] == 10
    assert all(len(m) == 4 for m in doc["free"])
    assert {"vertices", "pairings"} <= set(doc["farey"])
    # documents round-trip through plain JSON text
    again = generator_set_from_json(json.loads(json.dumps(doc)))
    assert again.free == generators(10).free


def test_cache_rejects_corruption(tmp_path):
    doc = generator_set_to_json(generators(6))
    doc["free"][1] = [1, 0, 0, 1]
    with pytest.raises(ValueError):
        generator_set_from_json(doc)


def test_corrupt_cache_file_is_rebuilt(tmp_path):
    expected = generator_set_to_json(build_generators(11))
    bad_pairings = json.loads(json.dumps(expected))
    bad_pairings["farey"]["pairings"][1] = ["free", 99]
    float_vertices = json.loads(json.dumps(expected))
    float_vertices["farey"]["vertices"][1] = [0.0, 1]
    assert expected["farey"]["pairings"][1] == ["free", 1]
    bad_labels = []
    for label in (["free", 1, 2], ["free", 1.0], ["free", True]):
        doc = json.loads(json.dumps(expected))
        doc["farey"]["pairings"][1] = label
        bad_labels.append(json.dumps(doc))
    untagged = json.loads(json.dumps(expected))
    del untagged["construction"]
    corruptions = [
        "{\"level\": 11}",
        "not json",
        "[]",
        json.dumps(bad_pairings),
        json.dumps(float_vertices),
        json.dumps(untagged),
        json.dumps(dict(expected, construction=1)),
        *bad_labels,
        json.dumps(generator_set_to_json(build_generators(13))),
    ]
    path = tmp_path / "gamma0-generators-11.json"
    for text in corruptions:
        path.write_text(text)
        assert load_cached_generators(11, str(tmp_path)) is None
        farey._memo.pop(11, None)  # as in a fresh process
        gens = generators(11, str(tmp_path))
        assert generator_set_to_json(gens) == expected
        assert json.loads(path.read_text()) == expected
