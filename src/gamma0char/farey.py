"""Generator sets for Gamma0(N) from Farey symbols, and word decomposition.

A Farey symbol is a chain of unimodularly adjacent fractions spanning [0, 1],
bracketed by two infinite endpoints, with one pairing label per side.  The
side pairings read off the symbol are an independent set of generators: one
infinite-order generator per Free pair (the two vertical boundary sides are
always a Free pair realised by the translation T), one generator squaring to
-I per Even side, one cubing to -I per Odd side, plus -I itself.

Construction subdivides sides at their mediants, breadth first: of the sides
still open, the one whose mediant has the smallest denominator is split next.
Each new side is labelled once, when it is created: Even or Odd by a
congruence on its two denominators, otherwise Free with an open side at the
partner point of P^1(Z/NZ).  Points are keyed by their images in the
P^1(Z/qZ) over the prime powers q exactly dividing N, each by one O(1)
formula (``_p1_keys``).  Two invariants of the result are relied on:

1. every finite vertex denominator q satisfies 0 < q < N (``FareySymbol``
   checks it), so no cusp of a matrix in Gamma0(N) other than oo is a vertex;
2. at most one open side waits at a point of P^1(Z/NZ): two would be
   Gamma0(N)-equivalent boundary edges with the same orientation, and the
   polygon would hold two equivalent tiles.

Word decomposition, at every level, walks an element's image of the
infinite cusp back into the base polygon, crossing the one paired side above
it at each step.  The walk reads a side table of the generator set
(``GeneratorSet.walk_table``): per interior side, and per half of an Odd
side split at its mediant, the crossing matrix as an entry tuple and the
letter it records, with inverses taken as adjugates.
Level 1 has no Farey symbol; its table has one side, from 0 to 1, crossed
by S^-1, so the walk is the Euclidean algorithm in T and S.  ``reconstruct``
reads a second table, ref -> (generator, inverse).  Both are built on first
use and kept on the set; extraction alone, which is all the scans need,
builds neither.

The disk cache keeps one file per level holding only the symbol: the finite
vertex denominators and the labels coded as ints.  A read rebuilds the
numerators by adjacency and extracts the generators again, through every
check a fresh build runs; only the construction is skipped.
"""

from __future__ import annotations

import json
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .dirichlet import factorize
from .sl2 import NEG_I, S, T, Entries, Gamma0Element, UniModular, mul4, pow4

EVEN = ("even",)
ODD = ("odd",)


def index_gamma0(n: int) -> int:
    """Index of Gamma0(N) in SL2(Z): N times the product of (1 + 1/p)."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    ix = n
    for p, _ in factorize(n):
        ix = ix // p * (p + 1)
    return ix


def closed_form_counts(n: int) -> tuple[int, int, int]:
    """(r, e2, e3) for Gamma0(n) from the factorisation of n alone.

    e2 = prod over p | n of (1 + (-1/p)) unless 4 | n, else 0;
    e3 = prod over p | n of (1 + (-3/p)) unless 9 | n, else 0;
    6r = index + 6 - 3*e2 - 4*e3 (Shimura, *Introduction to the Arithmetic
    Theory of Automorphic Functions*, Prop. 1.43).  A Legendre factor is 2 for
    a split prime, 0 for an inert one and 1 for p = 2 (e2) or p = 3 (e3).
    Level 1 gives (0, 1, 1), the counts of {S, ST}.
    """
    primes = [p for p, _ in factorize(n)]
    e2 = 0 if n % 4 == 0 else prod({1: 2, 2: 1, 3: 0}[p % 4] for p in primes)
    e3 = 0 if n % 9 == 0 else prod({1: 2, 0: 1, 2: 0}[p % 3] for p in primes)
    return (index_gamma0(n) + 6 - 3 * e2 - 4 * e3) // 6, e2, e3


@dataclass(frozen=True)
class FareySymbol:
    """Vertex chain and side pairing labels for a level.

    ``vertices`` runs from the left infinite endpoint (-1, 0) through the
    reduced fractions of [0, 1] to the right infinite endpoint (1, 0); side i
    joins vertices i and i+1.  Labels are ("even",), ("odd",) or
    ("free", pair_id); pair id 0 is the boundary pair realised by T.
    """

    level: int
    vertices: tuple[tuple[int, int], ...]
    pairings: tuple[tuple, ...]

    def __post_init__(self) -> None:
        v = self.vertices
        if len(self.pairings) != len(v) - 1:
            raise ValueError("one pairing label required per side")
        for p, q in v[1:-1]:
            if not 0 < q < self.level:
                raise ValueError(f"vertex {p}/{q} has a denominator outside (0, {self.level})")
        for (p1, q1), (p2, q2) in zip(v, v[1:]):
            if p2 * q1 - p1 * q2 != 1:
                raise ValueError(f"vertices {p1}/{q1}, {p2}/{q2} are not adjacent")
        # the cusp walk bisects the finite chain for a cusp in [0, 1)
        if v[:2] != ((-1, 0), (0, 1)) or v[-2:] != ((1, 1), (1, 0)):
            raise ValueError("the vertex chain must run -1/0, 0/1, ..., 1/1, 1/0")
        boundary = ("free", 0)
        if boundary != self.pairings[0] or boundary != self.pairings[-1]:
            raise ValueError("the two boundary sides must carry the pair label ('free', 0)")
        seen: dict[int, int] = {}
        for label in self.pairings:
            if label not in (EVEN, ODD):
                if len(label) != 2 or label[0] != "free" or type(label[1]) is not int:
                    raise ValueError(f"malformed pairing label {label!r}")
                seen[label[1]] = seen.get(label[1], 0) + 1
        if any(count != 2 for count in seen.values()):
            # with the boundary check this also keeps id 0 off interior sides
            raise ValueError("every free pair id must occur exactly twice")

    def counts(self) -> tuple[int, int, int]:
        """(free pairs, even sides, odd sides) = (r, e2, e3)."""
        e2 = self.pairings.count(EVEN)
        e3 = self.pairings.count(ODD)
        return (len(self.pairings) - e2 - e3) // 2, e2, e3


def _p1_keys(n: int):
    """The key function of P^1(Z/nZ): equal keys exactly for equal points.

    P^1(Z/nZ) is the product of the P^1(Z/qZ) over the prime powers q = p^e
    exactly dividing n.  There (c : d) is (x : 1) with x = c/d mod q when p
    does not divide d, else (1 : y) with y = d/c mod q; the local key is x or
    q + y in [0, 2q), and the key of (c : d), for gcd(c, d) = 1, reads the
    local keys in mixed radix with base 2q.
    """
    local = []  # (q, t^-1 mod q for a unit t and 0 for a non-unit)
    for p, e in factorize(n):
        q = p**e
        local.append((q, [pow(t, -1, q) if t % p else 0 for t in range(q)]))

    def key(c: int, d: int) -> int:
        k = 0
        for q, inverse in local:
            s = inverse[d % q]
            k = k * 2 * q + (c * s % q if s else q + d * inverse[c % q] % q)
        return k

    return key


def farey_symbol(n: int) -> FareySymbol:
    """Build a Farey symbol for level n >= 2 by breadth-first mediant subdivision.

    Open sides wait in buckets by mediant denominator; the buckets are taken
    in increasing order, each by mediant numerator, so the smallest mediant
    is subdivided next.  The two sides a subdivision creates are labelled at
    once: a side with denominators (b, d) is Even iff b^2 + d^2 = 0 and Odd
    iff b^2 + bd + d^2 = 0 (mod n); otherwise it pairs freely with the open
    side waiting at its point (b : d) of P^1(Z/nZ), or waits at the point
    (d : -b) itself; at most one side waits at a point, and points are
    looked up by the integer key ``_p1_keys(n)`` gives them.  A side is named
    by its left vertex, with its right vertex and its label (None while open)
    in two dicts; a subdivision relinks them, and the vertex chain is read by
    following right vertices from 0/1.  Only mediants of denominator below n
    are made: raises RuntimeError if a vertex denominator would reach n.
    """
    if n < 2:
        raise ValueError("levels below 2 have no Farey symbol here; see generators()")
    point = _p1_keys(n)
    # a side is named by its left vertex v: right[v] is its right vertex and
    # labels[v] its label, None while the side is open
    right: dict[tuple[int, int], tuple[int, int]] = {}
    labels: dict[tuple[int, int], tuple | None] = {}
    waiting: dict[int, tuple[int, int]] = {}  # point key -> the open side waiting there
    # mediant denominator -> (mediant numerator, open side, its waiting point)
    buckets: dict[int, list[tuple[int, tuple[int, int], int]]] = {}
    next_pair = 1

    def add_side(v_left: tuple[int, int], v_right: tuple[int, int]) -> None:
        nonlocal next_pair
        b, d = v_left[1], v_right[1]
        if (b * b + d * d) % n == 0:
            label = EVEN
        elif (b * b + b * d + d * d) % n == 0:
            label = ODD
        else:
            partner = waiting.pop(point(b, d), None)
            if partner is not None:
                label = labels[partner] = ("free", next_pair)
                next_pair += 1
            else:
                # wait at the partner point (d : -b)
                key = point(d, -b)
                waiting[key] = v_left
                buckets.setdefault(b + d, []).append((v_left[0] + v_right[0], v_left, key))
                label = None
        right[v_left] = v_right
        labels[v_left] = label

    add_side((0, 1), (1, 1))
    # a subdivision only makes mediants of larger denominator, so bucket q is
    # complete when it is reached
    for q in range(2, n):
        for p, v_left, key in sorted(buckets.pop(q, ())):
            if labels[v_left] is not None:
                continue  # paired after it was queued
            del waiting[key]
            v_right = right[v_left]
            add_side(v_left, (p, q))
            add_side((p, q), v_right)
    if waiting:
        raise RuntimeError(f"level {n}: a vertex denominator would reach the level")
    verts: list[tuple[int, int]] = [(-1, 0)]
    pairings: list[tuple] = [("free", 0)]  # the boundary pair, realised by T
    v = (0, 1)
    while v != (1, 1):
        verts.append(v)
        pairings.append(labels[v])
        v = right[v]
    verts += [(1, 1), (1, 0)]
    pairings.append(("free", 0))
    return FareySymbol(n, tuple(verts), tuple(pairings))


@dataclass(frozen=True)
class GeneratorSet:
    """Independent generators of Gamma0(N) classified by order.

    ``free`` holds the infinite-order generators (T always first), ``elliptic2``
    the matrices squaring to -I, ``elliptic3`` those cubing to -I; together
    with -I they generate the group.  ``symbol`` is the Farey symbol the set
    was read from (absent for level 1, which uses {S, ST}).

    ``side_rules[i]`` is (kind, index, orient) for the generator pairing side
    i, orient -1 only on the right member of a free pair.  Only interior
    sides have a rule: the two boundary entries, realised by T, are None.

    ``walk_table`` and ``letter_table`` are what decompose() and
    reconstruct() read.  Each is built from the fields above on its first
    use and then kept on the set, so a scan that only extracts generators
    never pays for them.
    """

    level: int
    free: tuple[UniModular, ...]
    elliptic2: tuple[UniModular, ...]
    elliptic3: tuple[UniModular, ...]
    symbol: FareySymbol | None = None
    side_rules: tuple[tuple[str, int, int] | None, ...] = field(default=(), repr=False)

    def counts(self) -> tuple[int, int, int]:
        return len(self.free), len(self.elliptic2), len(self.elliptic3)

    def all_generators(self) -> list[tuple[tuple[str, int], UniModular]]:
        refs = [(("free", i), g) for i, g in enumerate(self.free)]
        refs += [(("e2", i), g) for i, g in enumerate(self.elliptic2)]
        refs += [(("e3", i), g) for i, g in enumerate(self.elliptic3)]
        return refs

    @cached_property
    def letter_table(self) -> dict[tuple[str, int], tuple[Entries, Entries]]:
        """ref -> (entries of the generator, entries of its inverse)."""
        table = {}
        for ref, g in self.all_generators():
            a, b, c, d = g.entries()
            table[ref] = ((a, b, c, d), (d, -b, -c, a))
        return table

    @cached_property
    def walk_table(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple, ...]]:
        """(floor, sides) for the cusp walk in decompose().

        ``floor`` is the finite vertex chain with each Odd side's mediant put
        in; the walk bisects it for the side above a cusp.  ``sides[j]``, for
        the stretch from floor[j] to floor[j + 1], is (u, letter): the matrix
        carrying the tile across it back into the base polygon, and the
        inverse letter the crossing records.  An Odd side's g crosses left of
        its mediant (letter g^2) and g^-1 right of it (letter g).  No cusp is
        a mediant (p1 + p2)/(q1 + q2): N divides the cusp's denominator, and
        N | q1 + q2 with N | q1^2 + q1 q2 + q2^2 would put every prime of N
        into both q1 and q2, which are coprime.  Level 1 has no symbol: its
        one side, from 0 to 1, is crossed by S^-1, which records S.
        """
        if self.symbol is None:
            _, s_inv = self.letter_table[("e2", 0)]
            return ((0, 1), (1, 1)), ((s_inv, (("e2", 0), 1)),)
        vertices = self.symbol.vertices
        floor, sides = [vertices[1]], []
        for side in range(1, len(vertices) - 2):
            kind, idx, orient = self.side_rules[side]
            ref = (kind, idx)
            g, g_inv = self.letter_table[ref]
            if kind == "e3":
                (p1, q1), (p2, q2) = vertices[side], vertices[side + 1]
                floor.append((p1 + p2, q1 + q2))
                sides += ((g, (ref, 2)), (g_inv, (ref, 1)))
            else:
                sides.append((g, (ref, -1)) if orient > 0 else (g_inv, (ref, 1)))
            floor.append(vertices[side + 1])
        return tuple(floor), tuple(sides)


def _extract_generators(symbol: FareySymbol) -> GeneratorSet:
    """Generators from the side pairings: an Even side conjugates S by its side
    matrix, an Odd side conjugates TS, a Free pair maps its left member onto
    its right one (T for the boundary pair).

    The label counts are checked against the closed forms first, which
    satisfy the measure formula, so the check implies it.  The products run on
    entry tuples, with the adjugate of a side matrix as its inverse; each
    generator is checked (level, h^2 or h^3 = -I) and then built as one
    ``UniModular``.
    """
    n = symbol.level
    counts = symbol.counts()
    if counts != closed_form_counts(n):
        raise RuntimeError(
            f"level {n}: counts {counts} against closed forms {closed_form_counts(n)}"
        )
    v = symbol.vertices
    free: list[Entries] = [T.entries()]
    elliptic2: list[Entries] = []
    elliptic3: list[Entries] = []
    rules: list[tuple[str, int, int] | None] = [None] * len(symbol.pairings)
    open_left: dict[int, tuple[int, Entries]] = {}  # pair id -> left side, its inverse
    for i in range(1, len(symbol.pairings) - 1):
        label = symbol.pairings[i]
        # side i has the matrix m = (p2, p1, q2, q1) taking 0 to its left
        # vertex and oo to its right one; m S = (p1, -p2, q1, -q2),
        # m TS = (p1 + p2, -p2, q1 + q2, -q2), and m^-1 is the adjugate
        (p1, q1), (p2, q2) = v[i], v[i + 1]
        inv = (q1, -p1, -q2, p2)
        if label == EVEN:
            elliptic2.append(mul4((p1, -p2, q1, -q2), inv))  # m S m^-1
            rules[i] = ("e2", len(elliptic2) - 1, 1)
        elif label == ODD:
            elliptic3.append(mul4((p1 + p2, -p2, q1 + q2, -q2), inv))  # m TS m^-1
            rules[i] = ("e3", len(elliptic3) - 1, 1)
        elif label[1] in open_left:
            left, inv_left = open_left.pop(label[1])
            free.append(mul4((p1, -p2, q1, -q2), inv_left))  # m S m_left^-1
            rules[left] = ("free", len(free) - 1, 1)
            rules[i] = ("free", len(free) - 1, -1)
        else:
            open_left[label[1]] = (i, inv)
    for h in free + elliptic2 + elliptic3:
        if h[2] % n != 0:
            raise RuntimeError(f"generator {h} escapes level {n}")
    neg_i = NEG_I.entries()
    for h in elliptic2:
        if mul4(h, h) != neg_i:
            raise RuntimeError(f"even generator {h} does not square to -I")
    for h in elliptic3:
        if mul4(mul4(h, h), h) != neg_i:
            raise RuntimeError(f"odd generator {h} does not cube to -I")
    return GeneratorSet(
        n,
        tuple([UniModular(*h) for h in free]),
        tuple([UniModular(*h) for h in elliptic2]),
        tuple([UniModular(*h) for h in elliptic3]),
        symbol,
        tuple(rules),
    )


_memo: dict[int, GeneratorSet] = {}  # the most recent level only
_memo_dir: str | None = None  # the cache directory _memo's set was read from or written to
_default_cache_dir: str | None = None
_LEVEL_ONE = GeneratorSet(1, (), (S,), (S * T,))


def set_default_cache_dir(path: str | None) -> None:
    """Install a process-wide cache directory used when none is passed."""
    global _default_cache_dir
    _default_cache_dir = path


def build_generators(n: int) -> GeneratorSet:
    """Construct the generator set from scratch (no caches consulted)."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    if n == 1:
        return _LEVEL_ONE
    return _extract_generators(farey_symbol(n))


def generators(n: int, cache_dir: str | None = None) -> GeneratorSet:
    """Generator set for Gamma0(N): from the memo, else the disk cache, else built.

    The in-process memo holds one level, the most recent: repeated calls at
    one level return the same object, and a scan over levels keeps one set
    in memory.  The memo also holds the cache directory its set was read
    from or written to, so a hit makes no file-system call.  Asked for with
    any other cache directory, the set is written there once, which also
    replaces a missing or corrupt file.
    """
    global _memo_dir
    cache_dir = cache_dir or _default_cache_dir
    gens = _memo.get(n)
    if gens is None:
        loaded = load_cached_generators(n, cache_dir) if cache_dir else None
        gens = build_generators(n) if loaded is None else loaded
        _memo.clear()
        _memo[n] = gens
        _memo_dir = None if loaded is None else cache_dir
    if cache_dir and cache_dir != _memo_dir:
        save_cached_generators(gens, cache_dir)
        _memo_dir = cache_dir
    return gens


# ---------------------------------------------------------------------------
# disk cache (whole-file JSON per level, last-writer-wins)

# Version of the Farey construction, and of the cache document, a cache file
# was written by; a file from any other is a miss, so one cache never mixes
# two of them.
CONSTRUCTION = 3

# pairing label -> its code in a cache file; a Free label is coded by its pair id
_LABEL_CODES = {EVEN: -1, ODD: -2}
_CODE_LABELS = {code: label for label, code in _LABEL_CODES.items()}


def _cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"gamma0-generators-{n}.json")


def _cache_doc(gens: GeneratorSet) -> dict:
    """The symbol of a set as a cache document: its finite vertex
    denominators and its labels coded as ints.  Level 1 has no symbol."""
    doc = {"construction": CONSTRUCTION, "level": gens.level}
    if gens.symbol is not None:
        doc["denominators"] = [q for _, q in gens.symbol.vertices[1:-1]]
        doc["labels"] = [_LABEL_CODES.get(label, label[-1]) for label in gens.symbol.pairings]
    return doc


def _symbol_from_cache_doc(doc: dict, n: int) -> FareySymbol:
    """The level-n symbol a cache document codes, with all of its checks.

    The first finite vertex has numerator 0, and each next numerator follows
    by adjacency, p' = (1 + p q') / q, which must divide exactly.  Every
    denominator is checked to be a positive int before any division, so no
    ZeroDivisionError, which the loader does not catch, can arise.  Raises
    ValueError, LookupError or TypeError on a document ``_cache_doc`` cannot
    have written.
    """
    denominators, codes = doc["denominators"], doc["labels"]
    # each list holds ints and nothing else (bool is a subclass of int)
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
    labels = [_CODE_LABELS[c] if c < 0 else ("free", c) for c in codes]
    return FareySymbol(n, tuple(vertices), tuple(labels))


def generator_set_to_json(gens: GeneratorSet) -> dict:
    """The whole set as the JSON document ``generators`` prints.

    This is the construction-2 cache document, kept byte for byte: the three
    generator lists and the symbol's vertices and labels, tagged 2.
    """
    doc = {
        "construction": 2,
        "level": gens.level,
        "free": [list(g.entries()) for g in gens.free],
        "elliptic2": [list(g.entries()) for g in gens.elliptic2],
        "elliptic3": [list(g.entries()) for g in gens.elliptic3],
        "farey": None,
    }
    if gens.symbol is not None:
        doc["farey"] = {
            "vertices": [list(v) for v in gens.symbol.vertices],
            "pairings": [list(label) for label in gens.symbol.pairings],
        }
    return doc


def save_cached_generators(gens: GeneratorSet, cache_dir: str) -> None:
    """Write the level's file through a temporary one; the directory is
    made only when it is missing.

    The file holds the level and, for N >= 2, only the Farey symbol: its
    finite vertex denominators and its labels coded as ints (-1 Even,
    -2 Odd, the pair id for a Free side).  The generators are rebuilt from
    it on every read.
    """
    payload = json.dumps(_cache_doc(gens), sort_keys=True)
    try:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except FileNotFoundError:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, _cache_path(cache_dir, gens.level))
    except BaseException:
        os.unlink(tmp)
        raise


def load_cached_generators(n: int, cache_dir: str) -> GeneratorSet | None:
    """The cached generator set for level n, or None for a miss.

    A miss is a missing or unreadable file, a document from another
    construction or for another level, or a symbol that fails a check: the
    numerators rebuilt from the denominators (``_symbol_from_cache_doc``),
    ``FareySymbol``'s checks and those of ``_extract_generators``.  Level 1
    must hold exactly the document with no symbol.  It never builds a Farey
    symbol.
    """
    path = _cache_path(cache_dir, n)
    try:
        with open(path) as handle:
            doc = json.load(handle)
        if type(doc) is not dict or doc.get("construction") != CONSTRUCTION:
            return None
        if type(doc.get("level")) is not int or doc["level"] != n:
            return None
        if n == 1:
            return _LEVEL_ONE if doc == _cache_doc(_LEVEL_ONE) else None
        return _extract_generators(_symbol_from_cache_doc(doc, n))
    except (OSError, ValueError, LookupError, TypeError, RuntimeError):
        return None


# ---------------------------------------------------------------------------
# words and decomposition

@dataclass(frozen=True)
class Word:
    """(sign * I) * product of generator powers.

    Letters are ((kind, index), exponent); ``decompose`` returns words in
    normal form, ``reconstruct`` multiplies any word out.
    """

    sign: int
    letters: tuple[tuple[tuple[str, int], int], ...]


def exponent_sum(word: Word, ref: tuple[str, int]) -> int:
    """Sum of the exponents of the letters referencing ``ref``."""
    return sum(exp for r, exp in word.letters if r == ref)


def reconstruct(word: Word, gens: GeneratorSet) -> UniModular:
    """The product sign * I * g1**e1 * g2**e2 * ... that ``word`` spells."""
    table = gens.letter_table
    m = (1, 0, 0, 1) if word.sign == 1 else (-1, 0, 0, -1)
    for ref, exp in word.letters:
        g, g_inv = table[ref]
        m = mul4(m, g if exp == 1 else g_inv if exp == -1 else pow4(g, exp))
    return UniModular(*m)


_TORSION_ORDER = {"e2": 2, "e3": 3}


def _normal_form(raw: list[tuple[tuple[str, int], int]]) -> list:
    stack: list = []
    for ref, exp in raw:
        if stack and stack[-1][0] == ref:
            ref, top = stack.pop()
            exp += top
        if ref[0] in _TORSION_ORDER:
            exp %= _TORSION_ORDER[ref[0]]
        if exp:
            stack.append((ref, exp))
    return stack


def _walk_to_translation(mat: UniModular, gens: GeneratorSet):
    """Cross paired sides until the image of oo is oo; returns raw letters.

    Each crossing multiplies on the left by the matrix carrying the tile that
    currently holds the cusp a/c back into the base polygon, and records the
    inverse letter; both come from the set's ``walk_table``.  The matrix
    stays in Gamma0(N) (only powers of T and generators multiply it), so by
    invariant 1 the cusp is no vertex for N >= 2, nor an Odd side's mediant
    (see ``walk_table``); at level 1 it may be 0, which the bisection puts
    on the one side.  A cycle would indicate a broken symbol; Brent's
    detection finds every one in constant memory, comparing each state with
    the one saved at the last power-of-two step.
    """
    floor, sides = gens.walk_table
    a, b, c, d = mat.entries()
    letters: list[tuple[tuple[str, int], int]] = []
    saved, steps = None, 0
    while c != 0:
        m = a // c
        if m:
            a, b = a - m * c, b - m * d
            letters.append((("free", 0), m))
        # the cusp is num/den in lowest terms (gcd(a, c) = 1) with
        # 0 <= num < den: the remainder of a by c lies in [0, c) or (c, 0]
        num, den = (a, c) if c > 0 else (-a, -c)
        # last floor point p/q <= num/den; p*den - num*q grows along the floor
        j = bisect_right(floor, 0, key=lambda v: v[0] * den - num * v[1]) - 1
        (e, f, g, h), letter = sides[j]
        a, b, c, d = e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d
        letters.append(letter)
        state = (a, b, c, d) if c > 0 or (c == 0 and a > 0) else (-a, -b, -c, -d)
        if state == saved:
            raise RuntimeError("side-crossing walk entered a cycle")
        steps += 1
        if steps & (steps - 1) == 0:
            saved = state
    if a * b:
        letters.append((("free", 0), a * b))
    return letters


def decompose(gamma: Gamma0Element, gens: GeneratorSet) -> Word:
    """Normal form of gamma over the generator set; verified by rebuilding.

    In normal form adjacent letters reference distinct generators, and the
    exponents are nonzero integers for free generators, 1 for order-four
    elliptic ones and 1 or 2 for order-six ones.  Level 1 has no free
    generator, so each power of T the walk records is spelled over {S, ST}
    as T = S^-1 (ST).  The result is deterministic and multiplies back to
    exactly the input matrix.
    """
    if gamma.level != gens.level:
        raise ValueError(
            f"element of level {gamma.level} against generators of level {gens.level}"
        )
    raw = _walk_to_translation(gamma.matrix, gens)
    if gens.level == 1:
        # T^-1 = (ST)^-1 S; the sign of S^-1 = -S is recovered from the product
        spelled = []
        for ref, exp in raw:
            if ref != ("free", 0):
                spelled.append((ref, exp))
            elif exp > 0:
                spelled += ((("e2", 0), -1), (("e3", 0), 1)) * exp
            else:
                spelled += ((("e3", 0), -1), (("e2", 0), 1)) * -exp
        raw = spelled
    word = Word(1, tuple(_normal_form(raw)))
    product = reconstruct(word, gens)
    if product == gamma.matrix:
        return word
    if -product == gamma.matrix:
        return Word(-1, word.letters)
    raise RuntimeError(f"decomposition of {gamma.matrix} failed to close up")
