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

The disk cache is one append-only log per directory, one record per level
written, holding only the symbol in the one form it has in memory too: the
finite vertex denominators and one int label per side.  Level 1, a constant
with no symbol, is never cached.  A process keeps an index of the log, each
level's first record by byte offset, and reads the log on, up to the level's
next record, only when a level is not in it; the records it appends go into
the index as they are written.  A read builds the symbol, through the one
check a built symbol passes, and extracts the generators again; only the
construction is skipped.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .dirichlet import factorize
from .sl2 import NEG_I, S, T, Entries, Gamma0Element, UniModular, mul4, pow4

EVEN = -1  # the pairing label of an Even side
ODD = -2  # the pairing label of an Odd side


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
    """Finite vertex denominators and side pairing labels for a level, the
    form a cache record stores too, checked once on construction.

    ``denominators`` run from 0/1 to 1/1; each numerator follows by
    adjacency, p' = (1 + p q') / q.  ``pairings`` has one label per side:
    ``EVEN``, ``ODD`` or a Free side's pair id, 0 for the boundary pair
    realised by T.  ``vertices`` runs from the infinite endpoint (-1, 0)
    through the finite vertices to (1, 0); side i joins vertices i and i+1.
    """

    level: int
    denominators: tuple[int, ...]
    pairings: tuple[int, ...]
    vertices: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, qs, labels = self.level, self.denominators, self.pairings
        if type(qs) is not tuple or type(labels) is not tuple or len(labels) != len(qs) + 1:
            raise ValueError("one pairing label required per side, both given as tuples")
        vertices = [(-1, 0)]
        seen: dict[int, int] = {}
        # from -1/1, the step to denominator 1 gives 0/1 and any other a
        # numerator the chain check rejects
        p, q = -1, 1
        for side, label in enumerate(labels):
            # bool is a subclass of int; pair id 0 is on the boundary sides only
            if type(label) is not int or label < ODD or (label == 0) != (side in (0, len(qs))):
                raise ValueError(f"malformed pairing label {label!r} on side {side}")
            seen[label] = seen.get(label, 0) + 1
            if side < len(qs):
                q_next = qs[side]  # checked before it divides anything
                if type(q_next) is not int or not 0 < q_next < n:
                    raise ValueError(f"denominator {q_next!r} is not an int in (0, {n})")
                p, rest = divmod(1 + p * q_next, q)
                if rest:
                    raise ValueError(f"denominators {q}, {q_next} are not adjacent")
                q = q_next
                vertices.append((p, q))
        # the cusp walk bisects the finite chain for a cusp in [0, 1)
        if vertices[1:2] != [(0, 1)] or vertices[-1] != (1, 1):
            raise ValueError("the vertex chain must run -1/0, 0/1, ..., 1/1, 1/0")
        if any(count != 2 for label, count in seen.items() if label >= 0):
            raise ValueError("every free pair id must occur exactly twice")
        vertices.append((1, 0))
        object.__setattr__(self, "vertices", tuple(vertices))

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
    in two dicts; a subdivision relinks them, and the symbol is read by
    following right vertices from 0/1.  Only mediants of denominator below n
    are made: raises RuntimeError if a vertex denominator would reach n.
    """
    if n < 2:
        raise ValueError("levels below 2 have no Farey symbol here; see generators()")
    point = _p1_keys(n)
    # a side is named by its left vertex v: right[v] is its right vertex and
    # labels[v] its label, None while the side is open
    right: dict[tuple[int, int], tuple[int, int]] = {}
    labels: dict[tuple[int, int], int | None] = {}
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
                label = labels[partner] = next_pair
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
        bucket = buckets.pop(q, None)
        if bucket is None:
            continue
        for p, v_left, key in sorted(bucket):
            if labels[v_left] is not None:
                continue  # paired after it was queued
            del waiting[key]
            v_right = right[v_left]
            add_side(v_left, (p, q))
            add_side((p, q), v_right)
    if waiting:
        raise RuntimeError(f"level {n}: a vertex denominator would reach the level")
    denominators, pairings, v = [1], [0], (0, 1)  # 0 labels the boundary pair, realised by T
    while v != (1, 1):
        pairings.append(labels[v])
        v = right[v]
        denominators.append(v[1])
    return FareySymbol(n, tuple(denominators), (*pairings, 0))


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
        elif label in open_left:
            left, inv_left = open_left.pop(label)
            free.append(mul4((p1, -p2, q1, -q2), inv_left))  # m S m_left^-1
            rules[left] = ("free", len(free) - 1, 1)
            rules[i] = ("free", len(free) - 1, -1)
        else:
            open_left[label] = (i, inv)
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
    any other cache directory, it looks for the set's record in that
    directory's log and appends one only if none loads.  A level whose
    record is missing or corrupt is rebuilt and gets a fresh record, which
    later reads find.  Level 1's set {S, ST} is a constant, returned before
    the memo and the cache: it has no Farey symbol and no record.
    """
    global _memo_dir
    if n == 1:
        return _LEVEL_ONE
    cache_dir = cache_dir or _default_cache_dir
    gens = _memo.get(n)
    if gens is not None and cache_dir in (None, _memo_dir):
        return gens
    loaded = load_cached_generators(n, cache_dir) if cache_dir else None
    if gens is None:
        gens = build_generators(n) if loaded is None else loaded
        _memo.clear()
        _memo[n] = gens
    if cache_dir and loaded is None:
        save_cached_generators(gens, cache_dir)
    _memo_dir = cache_dir
    return gens


# ---------------------------------------------------------------------------
# disk cache (one append-only log per directory, a level's first good record is read)

# Version of the Farey construction, and of the cache document, a cache
# record was written by; a record from any other is a miss, so one cache
# never mixes two of them.
CONSTRUCTION = 3


def _cache_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, "gamma0-generators.log")


@dataclass
class _LogIndex:
    """What a process has read of one directory's log: integers only, never
    record text."""

    file: tuple[int, int]  # (st_dev, st_ino) of the log read
    offsets: dict[int, int] = field(default_factory=dict)  # level -> offset of its record
    scanned: int = 0  # bytes of the lines read that a newline ends
    end: int = 0  # bytes read, the unended last line included


# cache directory -> the index of its log
_log_index: dict[str, _LogIndex] = {}


def _cache_doc(gens: GeneratorSet) -> dict:
    """The symbol of a set as a cache document: the symbol's own fields.
    Level 1 has no symbol and raises ValueError: it is never cached."""
    if gens.symbol is None:
        raise ValueError(f"the level-{gens.level} set has no Farey symbol to cache")
    return {
        "construction": CONSTRUCTION,
        "level": gens.level,
        "denominators": list(gens.symbol.denominators),
        "labels": list(gens.symbol.pairings),
    }


def generator_set_to_json(gens: GeneratorSet) -> dict:
    """The whole set as the JSON document ``generators`` prints.

    This is the construction-2 cache document, kept byte for byte: the three
    generator lists and the symbol's vertices and labels, tagged 2, with
    each label printed as ["even"], ["odd"] or ["free", pair id].
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
            "pairings": [
                ["even"] if c == EVEN else ["odd"] if c == ODD else ["free", c]
                for c in gens.symbol.pairings
            ],
        }
    return doc


def save_cached_generators(gens: GeneratorSet, cache_dir: str) -> None:
    """Append the level's record to the directory's log with one write; the
    directory is made only when it is missing.

    The record is a newline, the level and a space, then the level's cache
    document as one line of JSON: the level and only the Farey symbol, as
    its finite vertex denominators and its int labels (-1 Even, -2 Odd, the
    pair id for a Free side).  The generators are rebuilt from it on every
    read.  Level 1, with no symbol, raises ValueError.  The leading newline
    keeps a record torn by a failed write on a line of its own, where it
    reads as a miss.  When nothing was appended since this process last read
    the log, the record goes into the directory's index, so no load reads it
    back.
    """
    record = f"\n{gens.level} {json.dumps(_cache_doc(gens), sort_keys=True)}".encode()
    path = _cache_path(cache_dir)
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(cache_dir, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        if os.write(fd, record) != len(record):
            raise OSError(f"short write to {path}")
        end = os.lseek(fd, 0, os.SEEK_CUR)
        stat = os.fstat(fd)
    finally:
        os.close(fd)
    index = _log_index.get(cache_dir)
    start = end - len(record)
    if index is not None and index.file == (stat.st_dev, stat.st_ino) and index.end == start:
        # the leading newline ends the line before, and the record's line
        # is now the unended last one
        index.offsets.setdefault(gens.level, start + 1)
        index.scanned, index.end = start + 1, end


def _index_log(log, index: _LogIndex, n: int, start: int) -> int | None:
    """Read the open log on from line start ``start`` up to level n's next
    record, and return its offset; None when the log ends first.

    Each line that starts with a level, digits with no leading zero, and a
    space is indexed under that level at its offset, unless the level has an
    entry: the first record of a level is the one read.  Only lines a
    newline ends count as scanned, so the last line, which may still be
    being written, is read again from its start next time, and no read
    starts inside a line.
    """
    log.seek(start)
    position = start
    header = b"%d" % n
    for line in log:
        # a header within 20 bytes: no level written here has 19 digits
        space = line.find(b" ", 0, 20)
        level = line[:space] if space > 0 else b""
        if level.isdigit() and level[0] != 48:  # no leading b"0"
            index.offsets.setdefault(int(level), position)
        line_start = position
        position += len(line)
        if position > index.end:
            index.end = position
            if line.endswith(b"\n"):
                index.scanned = position
        if level == header:
            return line_start
    return None


def _generators_from_record(text: bytes, n: int) -> GeneratorSet | None:
    """The set the JSON text of a level-n record codes, None if it codes none."""
    try:
        doc = json.loads(text)
        if type(doc) is not dict or doc.get("construction") != CONSTRUCTION:
            return None
        if type(doc.get("level")) is not int or doc["level"] != n:
            return None
        return _extract_generators(FareySymbol(n, tuple(doc["denominators"]), tuple(doc["labels"])))
    except (ValueError, LookupError, TypeError, RuntimeError):
        return None


def load_cached_generators(n: int, cache_dir: str) -> GeneratorSet | None:
    """The cached generator set for level n, or None for a miss.

    The level's record is found through the directory's index.  A level not
    in it is looked for in the log from where the last read stopped, up to
    its next record, so a load reads no further than it must, and nothing
    when the log has not grown since.  A miss is a missing or unreadable
    log, no record for n, or only records whose text is not JSON, whose
    document is from another construction or for another level, or whose
    symbol fails a check: ``FareySymbol``'s, which rebuild the numerators
    from the denominators, and those of ``_extract_generators``.  Level 1
    has no record: every one reads as a miss.  A record that fails leaves
    the index, and the search goes on past it.  A log with another file
    identity, shorter than what was read, or with another level's header
    where the index has n's, was replaced, and is indexed afresh.  It never
    builds a Farey symbol.
    """
    path = _cache_path(cache_dir)
    try:
        stat = os.stat(path)
    except OSError:
        return None
    file = stat.st_dev, stat.st_ino
    index = _log_index.get(cache_dir)
    if index is None or index.file != file or stat.st_size < index.end:
        index = _log_index[cache_dir] = _LogIndex(file)
    # every line before these was indexed when they were set, so read
    # them before the offsets: a thread may be indexing the log
    scanned, end = index.scanned, index.end
    offset = index.offsets.get(n)
    if offset is None and stat.st_size == end:
        return None  # nothing appended since the last read
    header = b"%d " % n
    fresh = end == 0
    try:
        with open(path, "rb") as log:
            if offset is None:
                offset = _index_log(log, index, n, scanned)
            while offset is not None:
                log.seek(offset)
                record = log.readline()
                if not record.startswith(header):
                    # records are never rewritten, and inode numbers are
                    # reused: the log was replaced after it was indexed
                    if fresh:
                        return None
                    fresh = True
                    index = _log_index[cache_dir] = _LogIndex(file)
                    offset = _index_log(log, index, n, 0)
                    continue
                gens = _generators_from_record(record[len(header) :], n)
                if gens is not None:
                    return gens
                index.offsets.pop(n, None)
                offset = _index_log(log, index, n, log.tell())
    except OSError:
        pass
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
