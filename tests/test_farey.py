"""Farey symbols, generator sets, the measure formula, word decomposition."""

import heapq
import json
import os
import random
from fractions import Fraction
from math import gcd

import pytest

from gamma0char import farey
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
    # the boundary pair must be id 0, and id 0 must stay off interior sides
    v11 = farey_symbol(11).vertices
    assert farey_symbol(11).pairings == tuple(("free", i) for i in (0, 1, 2, 1, 2, 0))
    for ids in [(1, 0, 2, 0, 2, 1), (0, 0, 2, 0, 2, 0), (0, 1, 2, 1, 2, 2), (2, 1, 0, 1, 0, 2)]:
        with pytest.raises(ValueError):
            FareySymbol(11, v11, tuple(("free", i) for i in ids))
    with pytest.raises(ValueError):
        FareySymbol(2, ((-1, 0),), ())


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
        units = [u for u, _ in unit_group_structure(n).factors]
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
    assert json.loads(path.read_text()) == generator_set_to_json(gens)


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
        with pytest.raises(RuntimeError, match="measure"):
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


def _frozen_mul(x, y):
    return UniModular(
        x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d, x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d
    )


def _frozen_reconstruct(word, gens):
    """``reconstruct`` as it multiplied ``UniModular`` values (checking every
    intermediate determinant) before it folded entry tuples; the oracle."""
    m = I if word.sign == 1 else NEG_I
    for ref, exp in word.letters:
        base = gens.matrix_for(ref)
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
                g = gens.matrix_for(ref)
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


def test_cache_with_swapped_boundary_id_is_rebuilt(tmp_path):
    expected = generator_set_to_json(build_generators(11))
    swapped = json.loads(json.dumps(expected))
    swap = {0: 1, 1: 0}
    swapped["farey"]["pairings"] = [[k, swap.get(i, i)] for k, i in expected["farey"]["pairings"]]
    assert swapped["farey"]["pairings"][0] == ["free", 1]
    assert swapped["farey"]["pairings"][1] == ["free", 0]
    path = tmp_path / "gamma0-generators-11.json"
    path.write_text(json.dumps(swapped))
    assert load_cached_generators(11, str(tmp_path)) is None
    farey._memo.pop(11, None)  # as in a fresh process
    gens = generators(11, str(tmp_path))
    assert generator_set_to_json(gens) == expected
    assert json.loads(path.read_text()) == expected


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


def test_cache_with_corrupt_elliptic_lists_is_rebuilt(tmp_path):
    expected = generator_set_to_json(build_generators(13))
    assert expected["elliptic2"] and expected["elliptic3"]
    path = tmp_path / "gamma0-generators-13.json"
    corruptions = [{"elliptic2": [[1, 0, 0, 1]] + expected["elliptic2"][1:]}, {"elliptic3": []}]
    corruptions.append({**corruptions[0], **corruptions[1]})
    for change in corruptions:
        path.write_text(json.dumps(dict(expected, **change)))
        assert load_cached_generators(13, str(tmp_path)) is None
        farey._memo.pop(13, None)  # as in a fresh process
        gens = generators(13, str(tmp_path))
        assert generator_set_to_json(gens) == expected
        assert json.loads(path.read_text()) == expected


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

    other_level = dict(generator_set_to_json(build_generators(11)), level=3000, farey=None)
    (tmp_path / "gamma0-generators-11.json").write_text(json.dumps(other_level))
    expected13 = generator_set_to_json(build_generators(13))
    path13 = tmp_path / "gamma0-generators-13.json"
    path13.write_text(json.dumps(dict(expected13, farey=None)))
    level_one = build_generators(1)
    save_cached_generators(level_one, str(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(farey, "build_generators", refuse_to_build)
        assert load_cached_generators(11, str(tmp_path)) is None
        assert load_cached_generators(13, str(tmp_path)) is None
        loaded = load_cached_generators(1, str(tmp_path))
    assert generator_set_to_json(loaded) == generator_set_to_json(level_one)
    farey._memo.pop(13, None)  # as in a fresh process
    gens = generators(13, str(tmp_path))
    assert generator_set_to_json(gens) == expected13
    assert json.loads(path13.read_text()) == expected13
