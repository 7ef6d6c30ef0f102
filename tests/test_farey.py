"""Farey symbols, generator sets, the measure formula, word decomposition."""

import hashlib
import heapq
import json
import os
import random
import shutil
import sys
import threading
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from math import gcd

import pytest

from gamma0char import farey
from gamma0char.charformula import KERNEL_LEVELS
from gamma0char.cli import main
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


_CHAIN_MESSAGE = r"^the vertex chain must run -1/0, 0/1, \.\.\., 1/1, 1/0$"


def test_symbol_invariants_reject_bad_data():
    # 0/1, 1/3, then (1 + 1 * 1) / 3 does not divide
    with pytest.raises(ValueError, match=r"^denominators 3, 1 are not adjacent$"):
        FareySymbol(4, (1, 3, 1), (0, EVEN, EVEN, 0))
    with pytest.raises(ValueError, match=r"^malformed pairing label 1 on side 2$"):
        FareySymbol(2, (1, 1), (0, EVEN, 1))
    # the boundary pair must be id 0, and id 0 must stay off interior sides
    s11 = farey_symbol(11)
    assert s11.denominators == (1, 3, 2, 3, 1)
    assert s11.pairings == (0, 1, 2, 1, 2, 0)
    twice = r"^every free pair id must occur exactly twice$"
    for ids, message in [
        ((1, 0, 2, 0, 2, 1), r"^malformed pairing label 1 on side 0$"),
        ((0, 0, 2, 0, 2, 0), r"^malformed pairing label 0 on side 1$"),
        ((0, 1, 2, 1, 2, 2), r"^malformed pairing label 2 on side 5$"),
        ((2, 1, 0, 1, 0, 2), r"^malformed pairing label 2 on side 0$"),
        ((0, 1, 2, 1, 3, 0), twice),
        ((0, 1, 1, 1, 1, 0), twice),
    ]:
        with pytest.raises(ValueError, match=message):
            FareySymbol(11, s11.denominators, ids)
    # a label is an exact int of at least ODD: 1.0 and True equal 1, and
    # False equals 0, so only the type tells them from ids
    for side, label in [(1, -3), (1, 1.0), (1, True), (3, 1.0), (3, True), (5, False), (2, "2")]:
        labels = [0, 1, 2, 1, 2, 0]
        labels[side] = label
        with pytest.raises(ValueError, match=r"^malformed pairing label "):
            FareySymbol(11, s11.denominators, tuple(labels))
    # a chain without finite vertices has no sides to label
    with pytest.raises(ValueError, match=_CHAIN_MESSAGE):
        FareySymbol(2, (), (0,))
    with pytest.raises(ValueError, match=r"^one pairing label required per side"):
        FareySymbol(2, (1, 1), (0, EVEN))


def test_symbol_chain_must_run_from_0_to_1(tmp_path):
    # numerators are rebuilt, so a chain can only start off 0/1 with a first
    # denominator other than 1 (2, 1 gives -1/2, 0/1), or stop short of 1/1; with
    # denominators 1, 1, 1 it carries on past 1/1 to 2/1, where the cusp
    # walk's bisection would find no side below a cusp in [0, 1), and the
    # walk would never reach oo
    for denominators, labels in (
        ((2, 1), (0, ODD, 0)),
        ((2,), (0, 0)),
        ((1, 2), (0, EVEN, 0)),
        ((1, 1, 1), (0, EVEN, EVEN, 0)),
    ):
        with pytest.raises(ValueError, match=_CHAIN_MESSAGE):
            FareySymbol(3, denominators, labels)
    # a cache record carrying on past 1/1 is a miss, and is rebuilt
    doc = dict(farey._cache_doc(build_generators(2)), denominators=[1, 1, 1], labels=[0, -1, -1, 0])
    with pytest.raises(ValueError, match=_CHAIN_MESSAGE):
        FareySymbol(2, tuple(doc["denominators"]), tuple(doc["labels"]))
    _append_record(tmp_path, 2, json.dumps(doc))
    assert load_cached_generators(2, str(tmp_path)) is None
    _as_in_a_fresh_process()
    gens = generators(2, str(tmp_path))
    assert gens == build_generators(2)
    assert _log_records(tmp_path)[-1] == ("2", _record_text(gens))


def test_symbol_vertex_denominators_stay_below_the_level():
    vertices = ((-1, 0), (0, 1), (1, 2), (1, 1), (1, 0))
    assert FareySymbol(3, (1, 2, 1), (0, EVEN, ODD, 0)).vertices == vertices  # q = level - 1
    with pytest.raises(ValueError, match="denominator"):
        FareySymbol(2, (1, 2, 1), (0, EVEN, ODD, 0))  # q = level


def test_symbol_constructor_rejects_bad_denominators_without_dividing_by_them():
    good = farey_symbol(13)
    assert good.denominators == (1, 3, 2, 3, 1)
    labels = good.pairings
    message = r"^denominator .* is not an int in \(0, 13\)$"
    for bad in (0, -2, True, 1.0, 13, "2", None):
        for position in range(5):
            denominators = list(good.denominators)
            denominators[position] = bad
            with pytest.raises(ValueError, match=message):
                FareySymbol(13, tuple(denominators), labels)
    # not a tuple: a list (unhashable in a frozen symbol), an int, None, a str
    for bad in (list(good.denominators), 13231, None, "13231"):
        with pytest.raises(ValueError, match=r"^one pairing label required per side"):
            FareySymbol(13, bad, labels)
        with pytest.raises(ValueError, match=r"^one pairing label required per side"):
            FareySymbol(13, good.denominators, bad)
    for empty_labels in ((), (0,)):
        with pytest.raises(ValueError):
            FareySymbol(13, (), empty_labels)


def test_symbol_round_trips_through_its_fields():
    for n in range(2, 301):
        symbol = farey_symbol(n)
        again = FareySymbol(n, symbol.denominators, symbol.pairings)
        assert again == symbol and again.vertices == symbol.vertices, n
        assert symbol.denominators == tuple(q for _, q in symbol.vertices[1:-1]), n


def test_built_symbols_carry_the_boundary_pair():
    for n in range(2, 289):
        pairings = farey_symbol(n).pairings  # validated on construction
        assert pairings[0] == pairings[-1] == 0, n
        assert 0 not in pairings[1:-1], n


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
        elif label in open_left:
            left, m_left = open_left.pop(label)
            free.append(m * S * m_left.inv())
            rules[left] = ("free", len(free) - 1, 1)
            rules[i] = ("free", len(free) - 1, -1)
        else:
            open_left[label] = (i, m)
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
    point by ``_p1_point``, before the O(1) unit keys; the oracle.  Its own
    vertex chain must be the one the symbol rebuilds from the denominators."""
    if n < 2:
        raise ValueError("levels below 2 have no Farey symbol here; see generators()")
    units = bytes(gcd(t, n) == 1 for t in range(n))
    # side s joins ends[s]; a subdivided side has its two halves in
    # children[s], a final one its label in labels[s]
    ends: list[tuple[tuple[int, int], tuple[int, int]]] = []
    labels: list[int | None] = []
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
                labels[s] = labels[t] = next_pair
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
    pairings: list[int] = [0]  # the boundary pair, realised by T
    stack = [0]
    while stack:
        s = stack.pop()
        if s in children:
            stack.extend(reversed(children[s]))
        else:
            verts.append(ends[s][0])
            pairings.append(labels[s])
    verts += [(1, 1), (1, 0)]
    pairings.append(0)
    symbol = FareySymbol(n, tuple(q for _, q in verts[1:-1]), tuple(pairings))
    assert symbol.vertices == tuple(verts), n
    return symbol


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


def test_level_below_one_makes_no_file_system_call(tmp_path, monkeypatch, capsys):
    # a log of several records, none of which a level below 1 may index
    for n in (5, 6, 7):
        farey._memo.clear()
        generators(n, str(tmp_path))
    log = tmp_path / "gamma0-generators.log"
    before = log.read_bytes()
    touched = []

    class CountingOs:
        def __getattr__(self, name):
            touched.append(name)
            return getattr(os, name)

    monkeypatch.setattr(farey, "os", CountingOs())
    monkeypatch.setattr(farey, "_log_index", {})
    for n in (0, -5):
        with pytest.raises(ValueError, match=rf"^level must be positive, got {n}$"):
            generators(n, str(tmp_path))
    assert touched == [] and farey._log_index == {}
    assert main(["--cache-dir", str(tmp_path), "generators", "--level", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: level must be positive, got 0\n"
    assert touched == [] and farey._log_index == {} and log.read_bytes() == before


def test_level_memoised_without_a_directory_is_written_with_one(tmp_path):
    gens = generators(19)
    assert farey._memo[19] is gens
    assert generators(19, str(tmp_path)) is gens
    assert _log_records(tmp_path) == [("19", _record_text(gens))]


def _relabelled(symbol, labels):
    """The symbol with the sides in ``labels`` (side -> label) relabelled."""
    pairings = tuple(labels.get(i, label) for i, label in enumerate(symbol.pairings))
    return FareySymbol(symbol.level, symbol.denominators, pairings)


def test_extract_rejects_relabelled_sides():
    symbol = farey_symbol(13)
    assert symbol.counts() == (1, 2, 2)
    even = [i for i, label in enumerate(symbol.pairings) if label == EVEN]
    odd = [i for i, label in enumerate(symbol.pairings) if label == ODD]
    for side, label in ((even[0], ODD), (odd[0], EVEN)):
        with pytest.raises(RuntimeError, match="closed forms"):
            farey._extract_generators(_relabelled(symbol, {side: label}))
    # two Even sides as one free pair keep the measure, not the closed forms
    both = _relabelled(symbol, {even[0]: 9, even[1]: 9})
    assert both.counts() == (2, 0, 2)
    with pytest.raises(RuntimeError, match="closed forms"):
        farey._extract_generators(both)


def test_extract_rejects_swapped_free_partners():
    symbol = farey_symbol(11)
    assert symbol.pairings == (0, 1, 2, 1, 2, 0)
    swapped = FareySymbol(11, symbol.denominators, (0, 1, 2, 2, 1, 0))
    with pytest.raises(RuntimeError, match="escapes level 11"):
        farey._extract_generators(swapped)


def _unvalidated_symbol(level, vertices, pairings):
    """A FareySymbol that skipped ``__post_init__``, as corrupted state would."""
    symbol = object.__new__(FareySymbol)
    denominators = tuple(q for _, q in vertices[1:-1])
    for name, value in (
        ("level", level),
        ("denominators", denominators),
        ("pairings", pairings),
        ("vertices", vertices),
    ):
        object.__setattr__(symbol, name, value)
    return symbol


def test_extract_order_checks_catch_a_side_of_determinant_four():
    # vertices 0/2 and 2/2 give the side matrix (2, 0, 2, 2), twice a matrix
    # of determinant 1: each elliptic generator is 4 times an element of
    # Gamma0(N) and lies in the level, so only the order checks can see it
    vertices = ((-1, 0), (0, 2), (2, 2), (1, 0))
    for n, label, order in ((2, EVEN, "square"), (3, ODD, "cube")):
        symbol = _unvalidated_symbol(n, vertices, (0, label, 0))
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


LOG_NAME = "gamma0-generators.log"


def _record_text(gens):
    """The JSON text of a set's cache record."""
    return json.dumps(farey._cache_doc(gens), sort_keys=True)


def _append_record(cache_dir, n, text):
    """Append a record with header n and JSON text ``text`` to the log, as
    another process, or a damaged write, would leave it."""
    with open(cache_dir / LOG_NAME, "ab") as log:
        log.write(f"\n{n} {text}".encode())


def _log_records(cache_dir):
    """(header, text) of each record in the directory's log, in order."""
    lines = (cache_dir / LOG_NAME).read_bytes().decode().split("\n")
    assert lines[0] == "", lines[0]  # every record starts with a newline
    return [line.partition(" ")[::2] for line in lines[1:]]


def _log_bytes(levels):
    """A log holding a good record of each level, in order."""
    return "".join(f"\n{n} {_record_text(build_generators(n))}" for n in levels).encode()


def _as_in_a_fresh_process():
    """Forget the memo and every log index."""
    farey._memo.clear()
    farey._log_index.clear()


def _symbol_of(doc, n):
    """The level-n symbol a cache document codes, as the loader reads it."""
    return FareySymbol(n, tuple(doc["denominators"]), tuple(doc["labels"]))


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
        codes = {("even",): EVEN, ("odd",): ODD}
        labels = tuple(tuple(label) for label in doc["farey"]["pairings"])
        symbol = FareySymbol(
            n,
            tuple(q for _, q in vertices[1:-1]),
            tuple(codes.get(label, label[-1]) for label in labels),
        )
        # the chain rebuilt from the denominators is the stored one, so the
        # stored vertices pass the adjacency check
        if symbol.vertices != vertices:
            raise ValueError(f"cache for level {n} has non-adjacent vertices")
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


def test_cache_json_schema(tmp_path):
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
    # level 1 has no symbol, and no record
    with pytest.raises(ValueError, match=r"^the level-1 set has no Farey symbol to cache$"):
        farey._cache_doc(generators(1))
    with pytest.raises(ValueError):
        save_cached_generators(generators(1), str(tmp_path))
    assert list(tmp_path.iterdir()) == []
    # documents round-trip through plain JSON text
    again = json.loads(json.dumps(doc))
    again = FareySymbol(10, tuple(again["denominators"]), tuple(again["labels"]))
    assert again == symbol and again.vertices == symbol.vertices
    # the document ``generators`` prints keeps the construction-2 shape
    whole = generator_set_to_json(generators(10))
    assert set(whole) == {"construction", "level", "free", "elliptic2", "elliptic3", "farey"}
    assert whole["construction"] == 2


def test_cache_rejects_corruption(tmp_path):
    doc = farey._cache_doc(generators(13))
    assert doc["denominators"] == [1, 3, 2, 3, 1]
    assert doc["labels"] == [0, -2, -1, -1, -2, 0]
    # 0/1, 1/3, then (1 + 1 * 4) / 3 does not divide
    with pytest.raises(ValueError, match=r"^denominators 3, 4 are not adjacent$"):
        _symbol_of(dict(doc, denominators=[1, 3, 4, 3, 1]), 13)
    # 0 is rejected before the next step divides by it, and True would pass
    # every other check as the first denominator
    for denominators in (
        [1, 3, 0, 3, 1],
        [1, 3, -2, 3, 1],
        [True, 3, 2, 3, 1],
        [1.0, 3, 2, 3, 1],
        [1, 3, "2", 3, 1],
    ):
        with pytest.raises(ValueError, match=r"^denominator .* is not an int in \(0, 13\)$"):
            _symbol_of(dict(doc, denominators=denominators), 13)
    for bad in (-3, -1.0, True, "0"):
        with pytest.raises(ValueError, match=r"^malformed pairing label .* on side 1$"):
            _symbol_of(dict(doc, labels=[0, bad, -1, -1, -2, 0]), 13)
    for bad in ("13", 13.0):
        _append_record(tmp_path, 13, json.dumps(dict(doc, level=bad)))
        assert load_cached_generators(13, str(tmp_path)) is None
    # level 1 is a constant: an old level-1 record reads as a miss, and
    # generators(1, dir) returns the set without making a log
    _append_record(tmp_path, 1, json.dumps({"construction": farey.CONSTRUCTION, "level": 1}))
    assert load_cached_generators(1, str(tmp_path)) is None
    empty = tmp_path / "empty"
    assert generators(1, str(empty)) is build_generators(1)
    assert not empty.exists()


def _frozen_symbol_checks(level, vertices, pairings):
    """``FareySymbol.__post_init__`` as it checked a vertex chain with tuple
    labels, before the symbol held denominators and int labels; frozen."""
    v = vertices
    if len(pairings) != len(v) - 1:
        raise ValueError("one pairing label required per side")
    for p, q in v[1:-1]:
        if not 0 < q < level:
            raise ValueError(f"vertex {p}/{q} has a denominator outside (0, {level})")
    for (p1, q1), (p2, q2) in zip(v, v[1:]):
        if p2 * q1 - p1 * q2 != 1:
            raise ValueError(f"vertices {p1}/{q1}, {p2}/{q2} are not adjacent")
    if v[:2] != ((-1, 0), (0, 1)) or v[-2:] != ((1, 1), (1, 0)):
        raise ValueError("the vertex chain must run -1/0, 0/1, ..., 1/1, 1/0")
    boundary = ("free", 0)
    if boundary != pairings[0] or boundary != pairings[-1]:
        raise ValueError("the two boundary sides must carry the pair label ('free', 0)")
    seen = {}
    for label in pairings:
        if label not in (("even",), ("odd",)):
            if len(label) != 2 or label[0] != "free" or type(label[1]) is not int:
                raise ValueError(f"malformed pairing label {label!r}")
            seen[label[1]] = seen.get(label[1], 0) + 1
    if any(count != 2 for count in seen.values()):
        raise ValueError("every free pair id must occur exactly twice")


def _frozen_symbol_from_cache_doc(doc, n):
    """The vertex chain of the level-n symbol a cache document codes, through
    the two checks a read ran before the symbol had one form: the codec's
    own (``_symbol_from_cache_doc``) and then the symbol's; frozen."""
    denominators, codes = doc["denominators"], doc["labels"]
    if {*map(type, denominators)} != {int} or min(denominators) < 1:
        raise ValueError(f"cache for level {n} has a denominator that is not a positive integer")
    if {*map(type, codes)} != {int} or min(codes) < -2:
        raise ValueError(f"cache for level {n} has a malformed label code")
    p, q = 0, denominators[0]
    vertices = [(-1, 0), (p, q)]
    for q_next in denominators[1:]:
        p, rest = divmod(1 + p * q_next, q)
        if rest:
            raise ValueError(f"cache for level {n} has non-adjacent denominators")
        q = q_next
        vertices.append((p, q))
    vertices.append((1, 0))
    labels = [{-1: ("even",), -2: ("odd",)}[c] if c < 0 else ("free", c) for c in codes]
    _frozen_symbol_checks(n, tuple(vertices), tuple(labels))
    return tuple(vertices)


def _mutated_docs(doc, rng):
    """Cache documents one corruption away from ``doc``."""
    qs, labels = doc["denominators"], doc["labels"]

    def with_(key, values):
        return dict(doc, **{key: values})

    for i in range(len(qs)):
        for delta in (1, -1):
            yield with_("denominators", qs[:i] + [qs[i] + delta] + qs[i + 1 :])
    pairs = [(i, i + 1) for i in range(len(qs) - 1)]
    pairs += [tuple(sorted(rng.sample(range(len(qs)), 2))) for _ in range(5) if len(qs) > 1]
    for i, j in pairs:
        swapped = list(qs)
        swapped[i], swapped[j] = qs[j], qs[i]
        yield with_("denominators", swapped)
    yield with_("denominators", [2] + qs[1:])
    yield with_("denominators", qs[:-1])
    yield with_("labels", labels[:-1])
    ids = sorted({c for c in labels if c > 0}) or [1]
    for side in range(len(labels)):
        other = next((c for c in ids if c != labels[side]), ids[0] + 1)
        for bad in (-3, True, 1.0, other, 0, EVEN, ODD):
            yield with_("labels", labels[:side] + [bad] + labels[side + 1 :])
    for side in range(len(labels) - 1):
        swapped = list(labels)
        swapped[side], swapped[side + 1] = labels[side + 1], labels[side]
        yield with_("labels", swapped)


def test_symbol_check_matches_the_frozen_pair_of_checks():
    # the one constructor accepts exactly the documents the codec's check
    # and the old symbol check accepted together, with the same vertices
    rng = random.Random(67)
    accepted = rejected = 0
    for n in range(2, 121):
        doc = json.loads(json.dumps(farey._cache_doc(build_generators(n))))
        for mutated in _mutated_docs(doc, rng):
            try:
                expected = _frozen_symbol_from_cache_doc(mutated, n)
            except (ValueError, LookupError, TypeError):
                expected = None
            try:
                symbol = _symbol_of(mutated, n)
            except ValueError:
                assert expected is None, (n, mutated)
                rejected += 1
            else:
                assert symbol.vertices == expected, (n, mutated)
                accepted += 1
    assert accepted > 1000 and rejected > 1000, (accepted, rejected)


def test_cache_with_swapped_boundary_id_is_rebuilt(tmp_path):
    expected = farey._cache_doc(build_generators(11))
    assert expected["labels"] == [0, 1, 2, 1, 2, 0]
    swapped = dict(expected, labels=[1, 0, 2, 0, 2, 1])
    _append_record(tmp_path, 11, json.dumps(swapped))
    assert load_cached_generators(11, str(tmp_path)) is None
    _as_in_a_fresh_process()
    gens = generators(11, str(tmp_path))
    assert gens == build_generators(11)
    assert _log_records(tmp_path)[-1] == ("11", json.dumps(expected, sort_keys=True))


def _assert_each_record_is_rebuilt(tmp_path, n, texts):
    """Each text, as level n's one record, is a miss: the set is rebuilt
    and one construction-3 record appended, which a fresh process reads
    back past the bad one.  After a good record of n, the text is never
    read, and nothing is appended."""
    built = build_generators(n)
    expected = _record_text(built)
    for i, text in enumerate(texts):
        cache_dir = tmp_path / str(i)
        cache_dir.mkdir()
        _append_record(cache_dir, n, text)
        _as_in_a_fresh_process()
        assert load_cached_generators(n, str(cache_dir)) is None, text
        assert generators(n, str(cache_dir)) == built
        assert _log_records(cache_dir) == [(str(n), text), (str(n), expected)]
        rewritten = json.loads(_log_records(cache_dir)[-1][1])
        assert rewritten["construction"] == 3 and "free" not in rewritten
        _as_in_a_fresh_process()
        assert load_cached_generators(n, str(cache_dir)) == built
        # the bad record again, after the good one
        _append_record(cache_dir, n, text)
        _as_in_a_fresh_process()
        assert generators(n, str(cache_dir)) == built, text
        assert len(_log_records(cache_dir)) == 3


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
        json.dumps(other),  # level 17's record
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
    _assert_each_record_is_rebuilt(tmp_path, 13, corruptions)


def test_cache_with_corrupt_elliptic_lists_is_rebuilt(tmp_path):
    expected = farey._cache_doc(build_generators(13))
    assert expected["labels"] == [0, -2, -1, -1, -2, 0]
    # swapping an Even and an Odd label keeps the counts, and every check
    # but the generators' level rejects the symbol
    swapped = [0, -1, -2, -1, -2, 0]
    with pytest.raises(RuntimeError, match=r"^generator \(3, -1, 10, -3\) escapes level 13$"):
        farey._extract_generators(_symbol_of(dict(expected, labels=swapped), 13))
    relabelled = [swapped, [0, -1, -1, -1, -1, 0], [0, -2, -2, -2, -2, 0]]
    texts = [json.dumps(dict(expected, labels=labels)) for labels in relabelled]
    _assert_each_record_is_rebuilt(tmp_path, 13, texts)


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
    assert [p.name for p in tmp_path.iterdir()] == [LOG_NAME]
    assert [level for level, _ in _log_records(tmp_path)] == [str(n) for n in range(2, 30)]
    nested = tmp_path / "a" / "b"
    save_cached_generators(build_generators(13), str(nested))
    assert made == ["makedirs"]
    assert load_cached_generators(13, str(nested)).free == build_generators(13).free
    assert [p.name for p in nested.iterdir()] == [LOG_NAME]


def test_cache_loader_never_builds(tmp_path, monkeypatch):
    def refuse_to_build(n):
        raise AssertionError(f"the cache loader built level {n}")

    other_level = dict(farey._cache_doc(build_generators(11)), level=3000)
    _append_record(tmp_path, 11, json.dumps(other_level))
    expected13 = _record_text(build_generators(13))
    _append_record(tmp_path, 13, json.dumps({"construction": farey.CONSTRUCTION, "level": 13}))
    level_one_dir = tmp_path / "one"
    with monkeypatch.context() as patch:
        patch.setattr(farey, "build_generators", refuse_to_build)
        assert load_cached_generators(11, str(tmp_path)) is None
        assert load_cached_generators(13, str(tmp_path)) is None
        # level 1 is a constant: neither built, nor loaded, nor written
        assert generators(1, str(level_one_dir)) is farey._LEVEL_ONE
        assert generators(1, str(tmp_path)) is farey._LEVEL_ONE
    assert not level_one_dir.exists()
    assert [header for header, _ in _log_records(tmp_path)] == ["11", "13"]
    _as_in_a_fresh_process()
    gens = generators(13, str(tmp_path))
    assert gens == build_generators(13)
    assert _log_records(tmp_path)[-1] == ("13", expected13)


def _frozen_per_level_file_text(gens):
    """The text of level N's file ``gamma0-generators-N.json`` as the
    one-file-per-level cache wrote it, frozen: the oracle for the JSON text
    of each log record."""
    doc = {"construction": 3, "level": gens.level}
    if gens.symbol is not None:
        doc["denominators"] = [q for _, q in gens.symbol.vertices[1:-1]]
        # the labels as ``generators`` prints them, coded as the files coded them
        codes = {("even",): -1, ("odd",): -2}
        printed = generator_set_to_json(gens)["farey"]["pairings"]
        doc["labels"] = [codes.get(tuple(label), label[-1]) for label in printed]
    return json.dumps(doc, sort_keys=True)


# sha256 of the texts of the files gamma0-generators-N.json, 2 <= N <= 300,
# joined by newlines, as the one-file-per-level cache wrote them
PER_LEVEL_FILES_SHA256 = "81bc2b4ea03d351908a85a64531a7b7889f07614dcc66b80ff29df1928ab6d80"


def test_log_records_match_the_per_level_files_and_reload_without_a_build(tmp_path, monkeypatch):
    levels = range(2, 301)
    _as_in_a_fresh_process()
    built = {n: generators(n, str(tmp_path)) for n in levels}
    assert [p.name for p in tmp_path.iterdir()] == [LOG_NAME]
    records = _log_records(tmp_path)
    assert [header for header, _ in records] == [str(n) for n in levels]
    texts = [text for _, text in records]
    for n, text in zip(levels, texts):
        assert text == _frozen_per_level_file_text(built[n]), n
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == PER_LEVEL_FILES_SHA256

    def refuse_to_build(n):
        raise AssertionError(f"level {n} was built")

    _as_in_a_fresh_process()
    monkeypatch.setattr(farey, "farey_symbol", refuse_to_build)
    for n in levels:
        assert load_cached_generators(n, str(tmp_path)) == built[n], n
    index = farey._log_index[str(tmp_path)]
    assert sorted(index.offsets) == list(levels)
    numbers = [*index.file, *index.offsets, *index.offsets.values(), index.scanned, index.end]
    assert {*map(type, numbers)} == {int}
    # the scan counts up to the start of the last line, which no newline ends
    size = (tmp_path / LOG_NAME).stat().st_size
    assert index.scanned == index.offsets[300] == size - len(texts[-1]) - 4
    assert index.end == size


def test_torn_record_then_a_good_append_loads_the_good_one(tmp_path):
    d = str(tmp_path)
    built = build_generators(13)
    text = _record_text(built)
    # a write cut short: no newline ends it, and the next record's leading
    # newline keeps it on a line of its own
    _append_record(tmp_path, 13, text[: len(text) // 2])
    _as_in_a_fresh_process()
    assert load_cached_generators(13, d) is None
    save_cached_generators(built, d)
    assert load_cached_generators(13, d) == built  # read on past the torn record
    _as_in_a_fresh_process()
    assert load_cached_generators(13, d) == built
    # a write cut inside its header indexes nothing
    with open(tmp_path / LOG_NAME, "ab") as log:
        log.write(b"\n1")
    save_cached_generators(build_generators(17), d)
    _as_in_a_fresh_process()
    assert load_cached_generators(17, d) == build_generators(17)
    assert _log_records(tmp_path)[-2:] == [("1", ""), ("17", _record_text(build_generators(17)))]


def test_record_without_a_numeric_header_is_skipped(tmp_path):
    d = str(tmp_path)
    text = _record_text(build_generators(13))
    for header in ("x13", "-13", "+13", "13.0", "", "1_3", "١٣", "013", "9" * 5000):
        _append_record(tmp_path, header, text)
    _as_in_a_fresh_process()
    assert load_cached_generators(13, d) is None
    size = (tmp_path / LOG_NAME).stat().st_size
    index = farey._log_index[d]
    # nothing is indexed, and the last line, which no newline ends, is
    # read again from its start when the log grows
    assert (index.offsets, index.scanned, index.end) == ({}, size - len(text) - 5001, size)
    save_cached_generators(build_generators(13), d)
    assert load_cached_generators(13, d) == build_generators(13)


def test_header_over_another_levels_document_is_a_miss(tmp_path):
    d = str(tmp_path)
    _append_record(tmp_path, 13, _record_text(build_generators(17)))
    _append_record(tmp_path, 17, _record_text(build_generators(13)))
    _as_in_a_fresh_process()
    assert load_cached_generators(13, d) is None
    assert load_cached_generators(17, d) is None
    assert generators(13, d) == build_generators(13)
    assert _log_records(tmp_path)[-1] == ("13", _record_text(build_generators(13)))


@pytest.mark.parametrize("replace", ["unlink", "overwrite"])
def test_log_replaced_by_a_shorter_file_is_rebuilt(tmp_path, replace):
    d = str(tmp_path)
    for n in range(2, 40):
        save_cached_generators(build_generators(n), d)
    _as_in_a_fresh_process()
    assert load_cached_generators(39, d) == build_generators(39)  # indexes every record
    log = tmp_path / LOG_NAME
    end = farey._log_index[d].end
    text = _log_bytes((41, 17, 13))
    if replace == "unlink":
        log.unlink()
    log.write_bytes(text)
    assert len(text) < end
    # the index is made afresh: the new log's records load, level 41's too,
    # which the old index never held, and a level with none is a miss
    assert load_cached_generators(41, d) == build_generators(41)
    assert load_cached_generators(13, d) == build_generators(13)
    assert load_cached_generators(17, d) == build_generators(17)
    assert load_cached_generators(30, d) is None
    farey._memo.clear()
    assert generators(30, d) == build_generators(30)
    assert [header for header, _ in _log_records(tmp_path)] == ["41", "17", "13", "30"]
    assert load_cached_generators(30, d) == build_generators(30)


@pytest.mark.parametrize("replace", ["unlink", "overwrite"])
def test_log_replaced_by_a_file_as_long_is_indexed_afresh(tmp_path, replace):
    # the same records in the other order, in a new file, whose inode number
    # may be the old one's, or written over the old file; no size or file
    # identity tells this log from the one indexed
    d = str(tmp_path)
    levels = range(2, 40)
    for n in levels:
        save_cached_generators(build_generators(n), d)
    _as_in_a_fresh_process()
    assert load_cached_generators(39, d) == build_generators(39)  # indexes every record
    log = tmp_path / LOG_NAME
    text = _log_bytes(levels[::-1])
    assert len(text) == log.stat().st_size
    if replace == "unlink":
        log.unlink()
        log.write_bytes(text)
    else:
        with open(log, "r+b") as f:
            f.write(text)
    for n in levels:
        farey._memo.clear()
        assert generators(n, d) == build_generators(n), n
    assert log.read_bytes() == text  # every level loaded, nothing appended


def test_log_replaced_by_a_file_of_the_same_size_is_read_afresh(tmp_path):
    # level 13 missed on a record of another construction; its good record
    # then comes in another file, renamed over the log, of the same size:
    # only the file identity shows that the log is not the one read
    d = str(tmp_path)
    good = _record_text(build_generators(13))
    other = good.replace('"construction": 3', '"construction": 4')
    log = tmp_path / LOG_NAME
    log.write_text(f"\n13 {other}")
    _as_in_a_fresh_process()
    assert load_cached_generators(13, d) is None
    (tmp_path / "new").write_text(f"\n13 {good}")
    os.replace(tmp_path / "new", log)
    assert load_cached_generators(13, d) == build_generators(13)


def test_scans_after_the_directory_is_removed_append_each_level_once(tmp_path):
    d = str(tmp_path / "cache")
    levels = range(2, 40)
    _as_in_a_fresh_process()
    for _ in range(2):
        for n in levels:
            generators(n, d)
        shutil.rmtree(d)
    for _ in range(2):
        for n in levels:
            assert generators(n, d) == build_generators(n)
    assert [header for header, _ in _log_records(tmp_path / "cache")] == [str(n) for n in levels]


def test_switching_directories_appends_each_level_once(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _as_in_a_fresh_process()
    gens = generators(19, str(a))
    for _ in range(3):
        assert generators(19, str(b)) is gens
        assert generators(19, str(a)) is gens
    assert _log_records(a) == _log_records(b) == [("19", _record_text(gens))]


def test_a_cold_fill_reads_back_no_record_it_wrote(tmp_path, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    d = str(tmp_path)
    monkeypatch.setattr(farey, "open", counting_open, raising=False)
    _as_in_a_fresh_process()
    for n in range(2, 40):
        generators(n, d)
    # level 2 finds no log, and level 3 reads level 2's record, written
    # before this process had an index of the log; from then on each record
    # is indexed as it is appended, and a miss with nothing appended since
    # reads nothing
    assert opened == [os.path.join(d, LOG_NAME)]
    assert sorted(farey._log_index[d].offsets) == list(range(2, 40))
    _as_in_a_fresh_process()
    assert all(load_cached_generators(n, d) == build_generators(n) for n in range(2, 40))


def test_a_load_reads_the_log_only_up_to_the_levels_record(tmp_path):
    d = str(tmp_path)
    for n in range(2, 40):
        save_cached_generators(build_generators(n), d)
    _as_in_a_fresh_process()
    assert load_cached_generators(13, d) == build_generators(13)
    index = farey._log_index[d]
    assert sorted(index.offsets) == list(range(2, 14))
    line_13 = len(b"\n13 ") + len(_record_text(build_generators(13)))
    assert index.scanned == index.end == index.offsets[13] + line_13
    # the first good record of a level is read; a bad one is passed over
    good17, bad17 = _record_text(build_generators(17)), "not json"
    for i, texts in enumerate(([good17, bad17], [bad17, good17], [bad17, bad17, good17, good17])):
        cache_dir = tmp_path / str(i)
        cache_dir.mkdir()
        for text in texts:
            _append_record(cache_dir, 17, text)
        _as_in_a_fresh_process()
        assert load_cached_generators(17, str(cache_dir)) == build_generators(17), texts
        first_good = 1 + sum(len(f"\n17 {text}") for text in texts[: texts.index(good17)])
        assert farey._log_index[str(cache_dir)].offsets == {17: first_good}
    # a read past good17 and bad17 keeps the first, good one
    cache_dir = tmp_path / "0"
    _append_record(cache_dir, 19, _record_text(build_generators(19)))
    _as_in_a_fresh_process()
    assert load_cached_generators(19, str(cache_dir)) == build_generators(19)
    assert load_cached_generators(17, str(cache_dir)) == build_generators(17)


def test_record_appended_by_another_process_is_found_on_the_next_miss(tmp_path):
    d = str(tmp_path)
    save_cached_generators(build_generators(13), d)
    _as_in_a_fresh_process()
    assert load_cached_generators(13, d) == build_generators(13)
    size = (tmp_path / LOG_NAME).stat().st_size
    index = farey._log_index[d]
    assert (index.offsets, index.scanned, index.end) == ({13: 1}, 1, size)
    _append_record(tmp_path, 17, _record_text(build_generators(17)))
    assert load_cached_generators(17, d) == build_generators(17)
    grown = (tmp_path / LOG_NAME).stat().st_size
    assert farey._log_index[d] is index
    assert (index.offsets, index.scanned, index.end) == ({13: 1, 17: size + 1}, size + 1, grown)


def test_threads_sharing_the_log_index_load_right_sets(tmp_path):
    # the index is shared by every thread of a process; the log only grows
    # and each scan starts at a line, so a race can lose no offset and make
    # no entry wrong: every load is a hit
    d = str(tmp_path)
    for n in range(2, 41):
        save_cached_generators(build_generators(n), d)
    _as_in_a_fresh_process()
    built = {n: build_generators(n) for n in range(2, 61)}
    wrong, misses = [], []

    def load_all(levels):
        for n in levels:
            loaded = load_cached_generators(n, d)
            if loaded is None:
                misses.append(n)
            elif loaded != built[n]:
                wrong.append(n)

    def append_more():
        for n in range(41, 61):
            save_cached_generators(built[n], d)
            load_all([n])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        orders = [random.Random(i).sample(range(2, 41), 39) for i in range(4)]
        threads = [threading.Thread(target=load_all, args=(order,)) for order in orders]
        threads.append(threading.Thread(target=append_more))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and misses == []
    _as_in_a_fresh_process()
    assert all(load_cached_generators(n, d) == built[n] for n in range(2, 61))
