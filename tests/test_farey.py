"""Farey symbols, generator sets, the measure formula, word decomposition."""

import heapq
import json
import os
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from math import gcd

import pytest

from gamma0char import farey
from gamma0char.charformula import KERNEL_LEVELS
from gamma0char.dirichlet import unit_group_structure
from gamma0char.farey import (
    EVEN,
    ODD,
    FareySymbol,
    GeneratorSet,
    Word,
    build_generators,
    closed_form_counts,
    decompose,
    exponent_sum,
    farey_symbol,
    generator_set_to_json,
    generators,
    index_gamma0,
    load_cached_generators,
    reconstruct,
    save_cached_generators,
)
from gamma0char.sampling import random_gamma0, random_sl2
from gamma0char.sl2 import I, NEG_I, S, T, Gamma0Element, UniModular, mul4, pow4, sigma

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


_BOUNDARY_MESSAGE = r"^the two boundary sides must carry the pair label \('free', 0\)$"
_CHAIN_MESSAGE = r"^the vertex chain must run -1/0, 0/1, \.\.\., 1/1, 1/0$"


def test_symbol_invariants_reject_bad_data():
    with pytest.raises(ValueError, match=r"^vertices 0/1, 2/3 are not adjacent$"):
        FareySymbol(4, ((-1, 0), (0, 1), (2, 3), (1, 0)), (("free", 0),) * 3)
    # every other check passes on this chain, so only adjacency rejects it
    with pytest.raises(ValueError, match=r"^vertices 1/3, 1/1 are not adjacent$"):
        FareySymbol(
            4, ((-1, 0), (0, 1), (1, 3), (1, 1), (1, 0)), (("free", 0), EVEN, EVEN, ("free", 0))
        )
    with pytest.raises(ValueError, match=_BOUNDARY_MESSAGE):
        FareySymbol(2, ((-1, 0), (0, 1), (1, 1), (1, 0)), (("free", 0), EVEN, ("free", 1)))
    # the boundary pair must be id 0, and id 0 must stay off interior sides
    v11 = farey_symbol(11).vertices
    assert farey_symbol(11).pairings == tuple(("free", i) for i in (0, 1, 2, 1, 2, 0))
    twice = r"^every free pair id must occur exactly twice$"
    for ids, message in [
        ((1, 0, 2, 0, 2, 1), _BOUNDARY_MESSAGE),
        ((0, 0, 2, 0, 2, 0), twice),
        ((0, 1, 2, 1, 2, 2), _BOUNDARY_MESSAGE),
        ((2, 1, 0, 1, 0, 2), _BOUNDARY_MESSAGE),
    ]:
        with pytest.raises(ValueError, match=message):
            FareySymbol(11, v11, tuple(("free", i) for i in ids))
    # a free label holds the exact int id: 1.0 and True equal 1, and False
    # equals 0, so each is caught as the first or as the second of its pair
    for side, label in [
        (1, ("free", 1, 2)),
        (1, ("free", 1.0)),
        (1, ("free", True)),
        (3, ("free", 1.0)),
        (3, ("free", True)),
        (5, ("free", False)),
    ]:
        labels = [("free", i) for i in (0, 1, 2, 1, 2, 0)]
        labels[side] = label
        with pytest.raises(ValueError, match=r"^malformed pairing label "):
            FareySymbol(11, v11, tuple(labels))
    # a chain without finite vertices has no sides to label
    with pytest.raises(ValueError, match=_CHAIN_MESSAGE):
        FareySymbol(2, ((-1, 0),), ())
    with pytest.raises(ValueError, match=r"^one pairing label required per side$"):
        FareySymbol(2, ((-1, 0), (0, 1), (1, 1), (1, 0)), (("free", 0), EVEN))


def test_symbol_chain_must_run_from_0_to_1(tmp_path):
    # adjacent throughout and correctly labelled, but the finite chain runs
    # 1/1, 2/1: on it the cusp walk's bisection finds no side below a cusp in
    # [0, 1), and the walk never reaches oo
    vertices = ((-1, 0), (1, 1), (2, 1), (1, 0))
    pairings = (("free", 0), EVEN, ("free", 0))
    with pytest.raises(ValueError, match=_CHAIN_MESSAGE):
        FareySymbol(2, vertices, pairings)
    for bad in (((-1, 0), (0, 1), (1, 1), (2, 1)), ((-1, 1), (0, 1), (1, 1), (1, 0))):
        with pytest.raises(ValueError, match=_CHAIN_MESSAGE):
            FareySymbol(2, bad, pairings)
    # a cache file cannot start the chain elsewhere: its numerators are
    # rebuilt from 0/1, so it can only carry on past 1/1, to 2/1
    doc = dict(farey._cache_doc(build_generators(2)), denominators=[1, 1, 1], labels=[0, -1, -1, 0])
    with pytest.raises(ValueError, match=_CHAIN_MESSAGE):
        farey._symbol_from_cache_doc(doc, 2)
    path = tmp_path / "gamma0-generators-2.json"
    path.write_text(json.dumps(doc))
    assert load_cached_generators(2, str(tmp_path)) is None
    farey._memo.pop(2, None)  # as in a fresh process
    gens = generators(2, str(tmp_path))
    assert gens == build_generators(2)
    assert json.loads(path.read_text()) == farey._cache_doc(gens)


def test_symbol_vertex_denominators_stay_below_the_level():
    vertices = ((-1, 0), (0, 1), (1, 2), (1, 1), (1, 0))
    pairings = (("free", 0), EVEN, ODD, ("free", 0))
    assert FareySymbol(3, vertices, pairings).vertices == vertices  # q = level - 1
    with pytest.raises(ValueError, match="denominator"):
        FareySymbol(2, vertices, pairings)  # q = level


def test_built_symbols_carry_the_boundary_pair():
    for n in range(2, 289):
        pairings = farey_symbol(n).pairings  # validated on construction
        assert pairings[0] == pairings[-1] == ("free", 0), n
        assert ("free", 0) not in pairings[1:-1], n


def _side_matrix(v_left, v_right):
    """The matrix taking 0 to the left vertex of a side and oo to its right one."""
    (p1, q1), (p2, q2) = v_left, v_right
    return UniModular(p2, p1, q2, q1)


def test_boundary_pairing_is_translation():
    for n in (2, 5, 12, 30):
        v = farey_symbol(n).vertices
        left, right = _side_matrix(v[0], v[1]), _side_matrix(v[-2], v[-1])
        assert right * S * left.inv() == T


def _frozen_extract_generators(symbol):
    """``_extract_generators`` as it formed every generator from checked
    ``UniModular`` products before it worked on entry tuples; the oracle."""
    n = symbol.level
    v = symbol.vertices
    ts = T * S
    free, elliptic2, elliptic3 = [T], [], []
    rules = [None] * len(symbol.pairings)
    open_left = {}
    for i in range(1, len(symbol.pairings) - 1):
        label = symbol.pairings[i]
        m = _side_matrix(v[i], v[i + 1])
        if label == EVEN:
            elliptic2.append(m * S * m.inv())
            rules[i] = ("e2", len(elliptic2) - 1, 1)
        elif label == ODD:
            elliptic3.append(m * ts * m.inv())
            rules[i] = ("e3", len(elliptic3) - 1, 1)
        elif label[1] in open_left:
            left, m_left = open_left.pop(label[1])
            free.append(m * S * m_left.inv())
            rules[left] = ("free", len(free) - 1, 1)
            rules[i] = ("free", len(free) - 1, -1)
        else:
            open_left[label[1]] = (i, m)
    for ms in free + elliptic2 + elliptic3:
        if ms.c % n != 0:
            raise RuntimeError(f"generator {ms} escapes level {n}")
    for h in elliptic2:
        if h * h != NEG_I:
            raise RuntimeError(f"even generator {h} does not square to -I")
    for h in elliptic3:
        if h * h * h != NEG_I:
            raise RuntimeError(f"odd generator {h} does not cube to -I")
    measure6 = index_gamma0(n) + 6 - 3 * len(elliptic2) - 4 * len(elliptic3)
    if measure6 != 6 * len(free):
        raise RuntimeError(f"level {n}: {len(free)} free generators against measure")
    return GeneratorSet(n, tuple(free), tuple(elliptic2), tuple(elliptic3), symbol, tuple(rules))


def test_extract_generators_matches_frozen_oracle():
    for n in range(2, 401):
        symbol = farey_symbol(n)
        expected = _frozen_extract_generators(symbol)
        gens = farey._extract_generators(symbol)
        # dataclass equality compares generators, symbol and side rules
        assert gens == expected, n


def _frozen_p1_point(c: int, d: int, n: int, units: bytes) -> tuple[int, int]:
    """Normalised representative of (c : d) in P^1(Z/nZ), for gcd(c, d) = 1.

    A unit scales c to g = gcd(c, n); the units fixing g are those congruent
    to 1 mod n/g, and the least residue they make of d is taken (Cremona,
    *Algorithms for Modular Elliptic Curves*, section 2.2).  ``units[t]`` is
    true when t is a unit mod n.
    """
    c %= n
    if c == 0:
        return 0, 1
    g = gcd(c, n)
    step = n // g
    s = pow(c // g, -1, step)
    while not units[s]:
        s += step
    d = d * s % n
    best, shift = d, d * step % n
    for t in range(1 + step, n, step):
        d = (d + shift) % n
        if d < best and units[t]:
            best = d
    return g, best


def _frozen_farey_symbol(n: int) -> FareySymbol:
    """``farey_symbol`` as it kept open sides in a heap and keyed every P^1
    point by ``_p1_point``, before the O(1) unit keys; the oracle."""
    if n < 2:
        raise ValueError("levels below 2 have no Farey symbol here; see generators()")
    units = bytes(gcd(t, n) == 1 for t in range(n))
    # side s joins ends[s]; a subdivided side has its two halves in
    # children[s], a final one its label in labels[s]
    ends: list[tuple[tuple[int, int], tuple[int, int]]] = []
    labels: list[tuple | None] = []
    children: dict[int, tuple[int, int]] = {}
    waiting: dict[tuple[int, int], list[int]] = {}  # partner point -> open sides
    open_at: dict[int, tuple[int, int]] = {}  # open side -> its key in waiting
    heap: list[tuple[int, int, int]] = []
    next_pair = 1

    def new_side(v_left: tuple[int, int], v_right: tuple[int, int]) -> int:
        nonlocal next_pair
        s = len(labels)
        ends.append((v_left, v_right))
        labels.append(None)
        b, d = v_left[1], v_right[1]
        if (b * b + d * d) % n == 0:
            labels[s] = EVEN
        elif (b * b + b * d + d * d) % n == 0:
            labels[s] = ODD
        else:
            partners = waiting.get(_frozen_p1_point(b, d, n, units))
            if partners:
                t = partners.pop(0)
                del open_at[t]
                labels[s] = labels[t] = ("free", next_pair)
                next_pair += 1
            else:
                key = _frozen_p1_point(d, -b, n, units)
                waiting.setdefault(key, []).append(s)
                open_at[s] = key
                heapq.heappush(heap, (b + d, v_left[0] + v_right[0], s))
        return s

    new_side((0, 1), (1, 1))
    while heap:
        q, p, s = heapq.heappop(heap)
        key = open_at.pop(s, None)
        if key is None:
            continue  # paired after it was queued
        if q > n:
            raise RuntimeError(f"level {n}: vertex denominator {q} exceeds the level")
        waiting[key].remove(s)
        v_left, v_right = ends[s]
        children[s] = (new_side(v_left, (p, q)), new_side((p, q), v_right))
    verts: list[tuple[int, int]] = [(-1, 0)]
    pairings: list[tuple] = [("free", 0)]  # the boundary pair, realised by T
    stack = [0]
    while stack:
        s = stack.pop()
        if s in children:
            stack.extend(reversed(children[s]))
        else:
            verts.append(ends[s][0])
            pairings.append(labels[s])
    verts += [(1, 1), (1, 0)]
    pairings.append(("free", 0))
    return FareySymbol(n, tuple(verts), tuple(pairings))


def test_farey_symbol_matches_frozen_oracle():
    levels = [*range(2, 601), 720, 997, 1000, 1024, 1155, 1260, 1331, 1680, 1849, 1890, 1999, 2000]
    for n in levels:
        assert farey_symbol(n) == _frozen_farey_symbol(n), n


def _coprime_lift(c: int, d: int, n: int) -> tuple[int, int]:
    """Coprime integers congruent to (c, d) mod n, for gcd(c, d, n) = 1."""
    c = c % n or n
    return c, next(d + j * n for j in range(c) if gcd(c, d + j * n) == 1)


def test_p1_keys_are_a_complete_invariant():
    for n in [*range(2, 121), 128, 169, 210, 243, 343, 360]:
        key = farey._p1_keys(n)
        units = [u for u, _ in unit_group_structure(n)]
        keys = set()
        for c in range(n):
            for d in range(n):
                if gcd(c, d, n) != 1:
                    continue
                k = key(*_coprime_lift(c, d, n))
                for u in units:
                    assert key(*_coprime_lift(c * u, d * u, n)) == k, (n, c, d, u)
                keys.add(k)
        assert len(keys) == index_gamma0(n), n


def test_generators_memo_returns_one_object_per_level():
    gens = generators(14)
    assert generators(14) is gens
    generators(15)
    assert list(farey._memo) == [15]


def test_generators_memo_hit_makes_no_file_system_call(tmp_path, monkeypatch):
    touched = []

    class CountingOs:
        def __getattr__(self, name):
            touched.append(name)
            return getattr(os, name)

    monkeypatch.setattr(farey, "_default_cache_dir", str(tmp_path))
    farey._memo.clear()
    gens = generators(17)  # built and written
    farey._memo.clear()
    loaded = generators(17)  # read from the cache
    monkeypatch.setattr(farey, "os", CountingOs())
    for _ in range(3):
        assert generators(17) is loaded
        assert generators(17, str(tmp_path)) is loaded
    assert touched == []
    assert loaded.free == gens.free


def test_level_memoised_without_a_directory_is_written_with_one(tmp_path):
    gens = generators(19)
    assert farey._memo[19] is gens
    assert generators(19, str(tmp_path)) is gens
    path = tmp_path / "gamma0-generators-19.json"
    assert json.loads(path.read_text()) == farey._cache_doc(gens)


def _relabelled(symbol, labels):
    """The symbol with the sides in ``labels`` (side -> label) relabelled."""
    pairings = tuple(labels.get(i, label) for i, label in enumerate(symbol.pairings))
    return FareySymbol(symbol.level, symbol.vertices, pairings)


def test_extract_rejects_relabelled_sides():
    symbol = farey_symbol(13)
    assert symbol.counts() == (1, 2, 2)
    even = [i for i, label in enumerate(symbol.pairings) if label == EVEN]
    odd = [i for i, label in enumerate(symbol.pairings) if label == ODD]
    for side, label in ((even[0], ODD), (odd[0], EVEN)):
        with pytest.raises(RuntimeError, match="closed forms"):
            farey._extract_generators(_relabelled(symbol, {side: label}))
    # two Even sides as one free pair keep the measure, not the closed forms
    both = _relabelled(symbol, {even[0]: ("free", 9), even[1]: ("free", 9)})
    assert both.counts() == (2, 0, 2)
    with pytest.raises(RuntimeError, match="closed forms"):
        farey._extract_generators(both)


def test_extract_rejects_swapped_free_partners():
    symbol = farey_symbol(11)
    assert symbol.pairings == tuple(("free", i) for i in (0, 1, 2, 1, 2, 0))
    swapped = FareySymbol(11, symbol.vertices, tuple(("free", i) for i in (0, 1, 2, 2, 1, 0)))
    with pytest.raises(RuntimeError, match="escapes level 11"):
        farey._extract_generators(swapped)


def _unvalidated_symbol(level, vertices, pairings):
    """A FareySymbol that skipped ``__post_init__``, as corrupted state would."""
    symbol = object.__new__(FareySymbol)
    for name, value in (("level", level), ("vertices", vertices), ("pairings", pairings)):
        object.__setattr__(symbol, name, value)
    return symbol


def test_extract_order_checks_catch_a_side_of_determinant_four():
    # vertices 0/2 and 2/2 give the side matrix (2, 0, 2, 2), twice a matrix
    # of determinant 1: each elliptic generator is 4 times an element of
    # Gamma0(N) and lies in the level, so only the order checks can see it
    vertices = ((-1, 0), (0, 2), (2, 2), (1, 0))
    boundary = ("free", 0)
    for n, label, order in ((2, EVEN, "square"), (3, ODD, "cube")):
        symbol = _unvalidated_symbol(n, vertices, (boundary, label, boundary))
        with pytest.raises(RuntimeError, match=f"does not {order} to -I"):
            farey._extract_generators(symbol)


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
    with pytest.raises(ValueError, match=r"^level must be positive, got 0$"):
        build_generators(0)
    message = r"^levels below 2 have no Farey symbol here; see generators\(\)$"
    with pytest.raises(ValueError, match=message):
        farey_symbol(1)


def test_decompose_trivial_cases():
    gens = generators(7)
    assert decompose(Gamma0Element(T, 7), gens) == Word(1, ((("free", 0), 1),))
    assert decompose(Gamma0Element(NEG_I, 7), gens) == Word(-1, ())
    assert decompose(Gamma0Element(I, 7), gens) == Word(1, ())


def test_decompose_level_mismatch():
    with pytest.raises(ValueError):
        decompose(Gamma0Element(T, 6), generators(7))


def test_decompose_never_sees_a_float_entry():
    # a float entry reaching the walk would give a float exponent of T
    with pytest.raises(ValueError, match=r"^entries are not all integers: \(1\.0, 0, 6, 1\)$"):
        decompose(Gamma0Element(UniModular(1.0, 0, 6, 1), 6), generators(6))


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


def _frozen_decompose_level_one(mat):
    """Raw level-1 letters from the Euclidean algorithm in T and S, as a
    second reduction beside the cusp walk computed them before level 1 moved
    onto the walk; the oracle."""
    a, b, c, d = mat.entries()
    ts_letters = []
    while c != 0:
        m = a // c
        if m:
            a, b = a - m * c, b - m * d
            ts_letters.append(("T", m))
        a, b, c, d = c, d, -a, -b
        ts_letters.append(("S", 1))
    if a * b:
        ts_letters.append(("T", a * b))
    raw = []
    for name, exp in ts_letters:
        if name == "S":
            raw.append((("e2", 0), exp))
        elif exp > 0:
            # T = -S * (ST); the sign is recovered from the final product
            raw.extend(((("e2", 0), -1), (("e3", 0), 1)) * exp)
        else:
            raw.extend(((("e3", 0), -1), (("e2", 0), 1)) * (-exp))
    return raw


def _frozen_level_one_word(mat, gens):
    word = Word(1, tuple(_oracle_normal_form(_frozen_decompose_level_one(mat))))
    return word if _frozen_reconstruct(word, gens) == mat else Word(-1, word.letters)


def test_level_one_words_match_the_frozen_euclid_oracle():
    gens = generators(1)
    rng = random.Random(67)
    mats = [random_sl2(rng, 40) for _ in range(20000)]
    for k in list(range(51)) + [997, 4321]:
        for j in (k, -k):
            for m in (UniModular(1, j, 0, 1), UniModular(1, 0, j, 1)):
                mats += [m, -m]
    for m in mats:
        assert decompose(Gamma0Element(m, 1), gens) == _frozen_level_one_word(m, gens), m


def _frozen_random_gamma0(rng, gens, letters=8, max_exp=3):
    """``random_gamma0`` as it multiplied ``UniModular`` powers in its own
    loop before it built its element with ``reconstruct``; the oracle."""
    refs = gens.all_generators()
    m = UniModular(1, 0, 0, 1) if rng.random() < 0.5 else UniModular(-1, 0, 0, -1)
    for _ in range(rng.randint(0, letters)):
        _, g = refs[rng.randrange(len(refs))]
        exp = rng.choice([e for e in range(-max_exp, max_exp + 1) if e])
        m = m * g**exp
    return Gamma0Element(m, gens.level)


def test_random_gamma0_matches_frozen_oracle():
    for n in (1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 25, 30, 60):
        gens = generators(n)
        for seed in range(300):
            for letters, max_exp in ((8, 3), (10, 3), (3, 2), (0, 1), (5, 6)):
                ours, theirs = random.Random(seed), random.Random(seed)
                gamma = random_gamma0(ours, gens, letters, max_exp)
                assert gamma == _frozen_random_gamma0(theirs, gens, letters, max_exp), (n, seed)
                # the same draws: the generators are left in the same state
                assert ours.random() == theirs.random(), (n, seed)


def _frozen_mul(x, y):
    return UniModular(
        x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d, x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d
    )


def _frozen_reconstruct(word, gens):
    """``reconstruct`` as it multiplied ``UniModular`` values (checking every
    intermediate determinant) before it folded entry tuples; the oracle."""
    m = I if word.sign == 1 else NEG_I
    for ref, exp in word.letters:
        base = dict(gens.all_generators())[ref]
        if exp < 0:
            base, exp = UniModular(base.d, -base.b, -base.c, base.a), -exp
        power = I
        while exp:
            if exp & 1:
                power = _frozen_mul(power, base)
            base = _frozen_mul(base, base)
            exp >>= 1
        m = _frozen_mul(m, power)
    return m


def test_reconstruct_matches_frozen_oracle():
    rng = random.Random(23)
    huge = (10**6, -(10**6), 10**6 - 1, -(10**6) + 3)
    used = set()  # (kind, exponent) pairs met, to show the words cover every case
    for n in (1, 2, 3, 11, 12, 13, 25, 37):
        gens = generators(n)
        refs = [ref for ref, _ in gens.all_generators()]
        for trial in range(150):
            letters = []
            for _ in range(rng.randint(0, 12)):
                ref = rng.choice(refs)
                g = dict(gens.all_generators())[ref]
                if ref[0] != "free":
                    exp = rng.choice((1, 2, -1))
                elif abs(g.a + g.d) == 2:  # parabolic: entries grow linearly
                    exp = rng.choice(huge + (1, -1, 7, -12))
                else:
                    exp = rng.choice((1, -1, 2, -3, 25, -40))
                letters.append((ref, exp))
                used.add((ref[0], exp))
            word = Word(-1 if trial % 2 else 1, tuple(letters))
            assert reconstruct(word, gens) == _frozen_reconstruct(word, gens), (n, word)
    assert {("e2", 1), ("e3", 2), ("e3", -1), ("free", -40)} <= used
    assert {("free", e) for e in huge} <= used


def _closure_walk_to_translation(mat, gens):
    """``_walk_to_translation`` as it looked each crossing up through
    ``side_rules`` and a per-walk closure, before the per-set side table; the
    oracle for its raw letters."""
    symbol = gens.symbol
    floor = symbol.vertices[1:-1]
    rules = gens.side_rules
    cur = mat.entries()
    letters = []
    seen = set()

    def crossing(side, num, den):
        kind, idx, orient = rules[side]
        if kind == "free":
            g = gens.free[idx]
            if orient > 0:
                return g.entries(), (("free", idx), -1)
            return pow4(g.entries(), -1), (("free", idx), 1)
        if kind == "e2":
            return gens.elliptic2[idx].entries(), (("e2", idx), -1)
        g = gens.elliptic3[idx]
        (p1, q1), (p2, q2) = symbol.vertices[side], symbol.vertices[side + 1]
        if num * (q1 + q2) < (p1 + p2) * den:
            return g.entries(), (("e3", idx), 2)
        return pow4(g.entries(), -1), (("e3", idx), 1)

    while cur[2] != 0:
        a, b, c, d = cur
        m = a // c
        if m:
            a, b = a - m * c, b - m * d
            cur = (a, b, c, d)
            letters.append((("free", 0), m))
        num, den = (a, c) if c > 0 else (-a, -c)
        pos = bisect_right(floor, 0, key=lambda v: v[0] * den - num * v[1]) - 1
        u, letter = crossing(pos + 1, num, den)
        cur = mul4(u, cur)
        letters.append(letter)
        state = cur if cur[2] > 0 or (cur[2] == 0 and cur[0] > 0) else tuple(-t for t in cur)
        if state in seen:
            raise RuntimeError("side-crossing walk entered a cycle")
        seen.add(state)
    a, b = cur[0], cur[1]
    if a * b:
        letters.append((("free", 0), a * b))
    return letters


def _matrix_for_reconstruct(word, gens):
    """``reconstruct`` as it looked each letter up with the former
    ``GeneratorSet.matrix_for`` (here its ``all_generators`` equivalent) and
    took every exponent other than 1 through ``pow4``; the oracle."""
    m = (1, 0, 0, 1) if word.sign == 1 else (-1, 0, 0, -1)
    for ref, exp in word.letters:
        g = dict(gens.all_generators())[ref].entries()
        m = mul4(m, g if exp == 1 else pow4(g, exp))
    return UniModular(*m)


def _assert_walk_and_rebuild_match(gamma, gens):
    raw = farey._walk_to_translation(gamma.matrix, gens)
    assert raw == _closure_walk_to_translation(gamma.matrix, gens), gamma
    for sign in (1, -1):
        for word in (Word(sign, tuple(raw)), Word(sign, tuple(farey._normal_form(raw)))):
            assert reconstruct(word, gens) == _matrix_for_reconstruct(word, gens), gamma


def test_walk_and_reconstruct_match_oracles_on_benchmark_elements(benchmark_shaped_element):
    rng = random.Random(59)
    for n in KERNEL_LEVELS:
        gens = generators(n)
        for _ in range(150):
            _assert_walk_and_rebuild_match(benchmark_shaped_element(rng, n), gens)


def test_walk_and_reconstruct_match_oracles_on_generator_words():
    rng = random.Random(61)
    crossed = set()  # (kind, exponent) of the crossing letters met
    for n in range(2, 61):
        gens = generators(n)
        for _ in range(40):
            gamma = random_gamma0(rng, gens, letters=10)
            _assert_walk_and_rebuild_match(gamma, gens)
            raw = farey._walk_to_translation(gamma.matrix, gens)
            crossed.update((ref[0], exp) for ref, exp in raw if ref != ("free", 0))
    # both members of a free pair, even sides, and both halves of odd sides
    assert crossed == {("free", 1), ("free", -1), ("e2", -1), ("e3", 1), ("e3", 2)}


def test_walk_tables_are_built_on_first_use():
    symbol = farey_symbol(13)
    gens = farey._extract_generators(symbol)
    assert "walk_table" not in vars(gens) and "letter_table" not in vars(gens)
    decompose(Gamma0Element(T * gens.elliptic3[0] * gens.elliptic2[1], 13), gens)
    assert "walk_table" in vars(gens) and "letter_table" in vars(gens)
    # the tables are not fields: equality and the cache document ignore them
    assert gens == farey._extract_generators(symbol)


def test_walk_table_entries_are_half_side_pairs():
    # the floor is strictly increasing and holds no cusp of Gamma0(N): its
    # denominators are vertices' (0 < q < N) or Odd mediants', none divisible
    # by N; each entry's crossing matrix times the power its letter records
    # is +-I, so every crossing is undone by its letter
    for n in range(1, 61):
        gens = generators(n)
        floor, sides = gens.walk_table
        assert len(floor) == len(sides) + 1, n
        for (p1, q1), (p2, q2) in zip(floor, floor[1:]):
            assert p1 * q2 < p2 * q1, n
        if n > 1:
            assert all(q % n for _, q in floor), n
        for u, (ref, e) in sides:
            g, _ = gens.letter_table[ref]
            assert mul4(u, pow4(g, e)) in (I.entries(), NEG_I.entries()), (n, ref, e)


def test_walk_raises_on_a_corrupted_walk_table():
    # identity crossings leave the walk where it was; negated letters still
    # reach oo but spell another element
    cases = [
        (lambda u, letter: ((1, 0, 0, 1), letter), "side-crossing walk entered a cycle"),
        (lambda u, letter: (u, (letter[0], -letter[1])), "decomposition of {} failed to close up"),
    ]
    for corrupt, message in cases:
        gens = build_generators(11)  # not memoised: the corruption stays here
        floor, sides = gens.walk_table
        vars(gens)["walk_table"] = (floor, tuple(corrupt(u, letter) for u, letter in sides))
        with pytest.raises(RuntimeError) as info:
            decompose(Gamma0Element(gens.free[1], 11), gens)
        assert str(info.value) == message.format(gens.free[1])


def test_walk_memory_stays_near_its_letter_list():
    # the cycle guard keeps one saved state, not every state it has visited
    gens = generators(5)
    gens.walk_table
    k = 20_000
    tracemalloc.start()
    try:
        letters = farey._walk_to_translation(UniModular(1, 0, 5 * k, 1), gens)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(letters) == 3 * k
    assert peak < 3 * held


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
        # closed forms (Shimura, Prop. 1.43), independent of the symbol
        assert (r, e2, e3) == closed_form_counts(n), n
        if n in TABLE1_COUNTS:
            assert gens.counts() == TABLE1_COUNTS[n]


def test_closed_form_counts_by_hand():
    assert closed_form_counts(1) == build_generators(1).counts() == (0, 1, 1)
    for n, expected in TABLE1_COUNTS.items():
        assert closed_form_counts(n) == expected, n
    # 9: index 12, 3 inert for e2 and 9 | N; 65 = 5 * 13: both split for e2,
    # 5 inert for e3; 91 = 7 * 13: 7 inert for e2, both split for e3
    assert closed_form_counts(9) == (3, 0, 0)
    assert closed_form_counts(65) == (13, 4, 0)
    assert closed_form_counts(91) == (17, 0, 4)
    assert closed_form_counts(4 * 9 * 5) == (index_gamma0(180) // 6 + 1, 0, 0)


def test_closed_form_measure_is_integral():
    for n in range(1, 5001):
        r, e2, e3 = closed_form_counts(n)
        assert 6 * r == index_gamma0(n) + 6 - 3 * e2 - 4 * e3, n


def test_cache_roundtrip(tmp_path):
    gens = generators(13)
    save_cached_generators(gens, str(tmp_path))
    loaded = load_cached_generators(13, str(tmp_path))
    assert loaded is not None
    assert loaded.free == gens.free
    assert loaded.elliptic2 == gens.elliptic2
    assert loaded.elliptic3 == gens.elliptic3
    assert loaded.symbol == gens.symbol


def _construction2_generator_set(doc):
    """The construction-2 cache loader, frozen as it read a whole-set
    document: the symbol checked and extracted, then the three stored
    generator lists compared with the extracted ones."""
    if not isinstance(doc, dict) or doc.get("construction") != 2:
        raise ValueError("cache document is not from construction 2")
    n = doc["level"]
    if type(n) is not int:
        raise ValueError(f"cache level must be an integer, got {n!r}")
    if doc.get("farey") is None:
        if n != 1:
            raise ValueError(f"cache for level {n} has no Farey symbol")
        gens = build_generators(1)
    else:
        vertices = tuple(tuple(v) for v in doc["farey"]["vertices"])
        if not all(type(x) is int for v in vertices for x in v):
            raise ValueError(f"cache for level {n} has non-integer vertices")
        symbol = FareySymbol(
            n,
            vertices,
            tuple(tuple(label) for label in doc["farey"]["pairings"]),
        )
        gens = farey._extract_generators(symbol)
    for kind in ("free", "elliptic2", "elliptic3"):
        if [g.entries() for g in getattr(gens, kind)] != [tuple(m) for m in doc[kind]]:
            raise ValueError(f"cache for level {n} disagrees with its Farey symbol")
    return gens


def test_symbol_only_cache_agrees_with_a_build_and_the_construction2_loader(tmp_path):
    for n in range(2, 301):
        built = build_generators(n)
        save_cached_generators(built, str(tmp_path))
        loaded = load_cached_generators(n, str(tmp_path))
        # dataclass equality compares every field, symbol and side_rules too
        assert loaded == built, n
        whole = json.loads(json.dumps(generator_set_to_json(built)))
        assert _construction2_generator_set(whole) == loaded, n


def test_cache_json_schema():
    doc = farey._cache_doc(generators(10))
    assert set(doc) == {"construction", "level", "denominators", "labels"}
    assert doc["construction"] == farey.CONSTRUCTION == 3
    assert doc["level"] == 10
    # 0/1, 1/3, 2/5, 1/2, 3/5, 2/3, 1/1 with sides Even, 2, 1, 1, 2, Even
    # between the boundary pair 0
    symbol = generators(10).symbol
    assert doc["denominators"] == [q for _, q in symbol.vertices[1:-1]] == [1, 3, 5, 2, 5, 3, 1]
    assert symbol.pairings[1] == EVEN
    assert doc["labels"] == [0, -1, 2, 1, 1, 2, -1, 0]
    assert farey._cache_doc(generators(1)) == {"construction": 3, "level": 1}
    # documents round-trip through plain JSON text
    again = farey._symbol_from_cache_doc(json.loads(json.dumps(doc)), 10)
    assert again == symbol
    # the document ``generators`` prints keeps the construction-2 shape
    whole = generator_set_to_json(generators(10))
    assert set(whole) == {"construction", "level", "free", "elliptic2", "elliptic3", "farey"}
    assert whole["construction"] == 2


def test_cache_rejects_corruption(tmp_path):
    doc = farey._cache_doc(generators(13))
    assert doc["denominators"] == [1, 3, 2, 3, 1]
    assert doc["labels"] == [0, -2, -1, -1, -2, 0]
    # 0/1, 1/3, then (1 + 1 * 4) / 3 does not divide
    with pytest.raises(ValueError, match=r"^cache for level 13 has non-adjacent denominators$"):
        farey._symbol_from_cache_doc(dict(doc, denominators=[1, 3, 4, 3, 1]), 13)
    # 0 is rejected before the next step divides by it, and True would pass
    # every other check as the first denominator
    for denominators in (
        [1, 3, 0, 3, 1],
        [1, 3, -2, 3, 1],
        [True, 3, 2, 3, 1],
        [1.0, 3, 2, 3, 1],
        [1, 3, "2", 3, 1],
    ):
        with pytest.raises(ValueError, match=r"has a denominator that is not a positive integer$"):
            farey._symbol_from_cache_doc(dict(doc, denominators=denominators), 13)
    for bad in (-3, -1.0, True, "0"):
        with pytest.raises(ValueError, match=r"^cache for level 13 has a malformed label code$"):
            farey._symbol_from_cache_doc(dict(doc, labels=[0, bad, -1, -1, -2, 0]), 13)
    path = tmp_path / "gamma0-generators-13.json"
    for bad in ("13", 13.0):
        path.write_text(json.dumps(dict(doc, level=bad)))
        assert load_cached_generators(13, str(tmp_path)) is None
    # True == 1, so only the level's type tells this from level 1's document
    level_one = {"construction": farey.CONSTRUCTION, "level": True}
    (tmp_path / "gamma0-generators-1.json").write_text(json.dumps(level_one))
    assert load_cached_generators(1, str(tmp_path)) is None


def test_cache_with_swapped_boundary_id_is_rebuilt(tmp_path):
    expected = farey._cache_doc(build_generators(11))
    assert expected["labels"] == [0, 1, 2, 1, 2, 0]
    swapped = dict(expected, labels=[1, 0, 2, 0, 2, 1])
    path = tmp_path / "gamma0-generators-11.json"
    path.write_text(json.dumps(swapped))
    assert load_cached_generators(11, str(tmp_path)) is None
    farey._memo.pop(11, None)  # as in a fresh process
    gens = generators(11, str(tmp_path))
    assert gens == build_generators(11)
    assert json.loads(path.read_text()) == expected


def _assert_each_file_is_rebuilt(tmp_path, n, texts):
    """Each text, as level n's cache file, is a miss: the set is rebuilt and
    the file rewritten as a construction-3 document."""
    expected = farey._cache_doc(build_generators(n))
    path = tmp_path / f"gamma0-generators-{n}.json"
    for text in texts:
        path.write_text(text)
        assert load_cached_generators(n, str(tmp_path)) is None, text
        farey._memo.pop(n, None)  # as in a fresh process
        gens = generators(n, str(tmp_path))
        assert gens == build_generators(n)
        rewritten = json.loads(path.read_text())
        assert rewritten == expected
        assert rewritten["construction"] == 3 and "free" not in rewritten


def test_corrupt_cache_file_is_rebuilt(tmp_path):
    expected = farey._cache_doc(build_generators(13))
    text = json.dumps(expected)
    untagged = dict(expected)
    del untagged["construction"]
    other = farey._cache_doc(build_generators(17))
    corruptions = [
        "{\"level\": 13}",
        "not json",
        "[]",
        text[: len(text) // 2],  # truncated
        json.dumps({"construction": 3, "level": 13}),  # no symbol
        json.dumps(untagged),
        json.dumps(dict(expected, construction=1)),
        json.dumps(generator_set_to_json(build_generators(13))),  # construction 2
        json.dumps(other),  # level 17's file
        json.dumps(dict(other, level=13)),  # level 17's symbol tagged 13
        json.dumps(dict(expected, denominators=[])),
        json.dumps(dict(expected, denominators=[1, 3, 4, 3, 1])),  # does not divide
        json.dumps(dict(expected, labels=[0, -2, 7, -1, -2, 0])),  # id 7 occurs once
    ]
    for bad in (0, -2, True, 1.5, "2"):
        corruptions.append(json.dumps(dict(expected, denominators=[1, 3, bad, 3, 1])))
    corruptions.append(json.dumps(dict(expected, denominators=[True, 3, 2, 3, 1])))
    for bad in (-3, -1.0, True, [0], None):
        corruptions.append(json.dumps(dict(expected, labels=[0, -2, bad, -1, -2, 0])))
    _assert_each_file_is_rebuilt(tmp_path, 13, corruptions)


def test_cache_with_corrupt_elliptic_lists_is_rebuilt(tmp_path):
    expected = farey._cache_doc(build_generators(13))
    assert expected["labels"] == [0, -2, -1, -1, -2, 0]
    # swapping an Even and an Odd label keeps the counts, and every check
    # but the generators' level rejects the symbol
    swapped = [0, -1, -2, -1, -2, 0]
    with pytest.raises(RuntimeError, match=r"^generator \(3, -1, 10, -3\) escapes level 13$"):
        farey._extract_generators(farey._symbol_from_cache_doc(dict(expected, labels=swapped), 13))
    relabelled = [swapped, [0, -1, -1, -1, -1, 0], [0, -2, -2, -2, -2, 0]]
    texts = [json.dumps(dict(expected, labels=labels)) for labels in relabelled]
    _assert_each_file_is_rebuilt(tmp_path, 13, texts)


def test_cache_writes_make_the_directory_only_when_missing(tmp_path, monkeypatch):
    made = []

    class CountingOs:
        def __getattr__(self, name):
            if name == "makedirs":
                made.append(name)
            return getattr(os, name)

    monkeypatch.setattr(farey, "os", CountingOs())
    for n in range(2, 30):
        save_cached_generators(build_generators(n), str(tmp_path))
    assert made == []
    assert len(list(tmp_path.iterdir())) == 28
    nested = tmp_path / "a" / "b"
    save_cached_generators(build_generators(13), str(nested))
    assert made == ["makedirs"]
    assert load_cached_generators(13, str(nested)).free == build_generators(13).free
    assert [p.name for p in nested.iterdir()] == ["gamma0-generators-13.json"]


def test_cache_loader_never_builds(tmp_path, monkeypatch):
    def refuse_to_build(n):
        raise AssertionError(f"the cache loader built level {n}")

    other_level = dict(farey._cache_doc(build_generators(11)), level=3000)
    (tmp_path / "gamma0-generators-11.json").write_text(json.dumps(other_level))
    expected13 = farey._cache_doc(build_generators(13))
    path13 = tmp_path / "gamma0-generators-13.json"
    path13.write_text(json.dumps({"construction": farey.CONSTRUCTION, "level": 13}))
    level_one = build_generators(1)
    save_cached_generators(level_one, str(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(farey, "build_generators", refuse_to_build)
        assert load_cached_generators(11, str(tmp_path)) is None
        assert load_cached_generators(13, str(tmp_path)) is None
        loaded = load_cached_generators(1, str(tmp_path))
    assert loaded is level_one
    farey._memo.pop(13, None)  # as in a fresh process
    gens = generators(13, str(tmp_path))
    assert gens == build_generators(13)
    assert json.loads(path13.read_text()) == expected13
