"""Generator sets for Gamma0(N) from Farey symbols, and word decomposition.

A Farey symbol is a chain of unimodularly adjacent fractions spanning [0, 1],
bracketed by two infinite endpoints, with one pairing label per side.  The
side pairings read off the symbol are an independent set of generators: one
infinite-order generator per Free pair (the two vertical boundary sides are
always a Free pair realised by the translation T), one generator squaring to
-I per Even side, one cubing to -I per Odd side, plus -I itself.

Construction subdivides sides at their mediants, breadth first: of the sides
still open, the one whose mediant has the smallest denominator is split next,
so no vertex denominator exceeds the level.  Each new side is labelled once,
when it is created: Even or Odd by a congruence on its two denominators,
otherwise Free with an open side at the partner point of P^1(Z/NZ).  Word
decomposition walks an element's image of the infinite cusp back into the
base polygon, crossing one paired side at a time.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .dirichlet import factorize
from .sl2 import I, NEG_I, S, T, Gamma0Element, UniModular

_TS = T * S  # order six; conjugates of it are the Odd pairing matrices

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


def _side_matrix(v_left: tuple[int, int], v_right: tuple[int, int]) -> UniModular:
    """Matrix taking the imaginary axis to the side: 0 -> left, oo -> right."""
    (p1, q1), (p2, q2) = v_left, v_right
    return UniModular(p2, p1, q2, q1)


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
        for (p1, q1), (p2, q2) in zip(v, v[1:]):
            if p2 * q1 - p1 * q2 != 1:
                raise ValueError(f"vertices {p1}/{q1}, {p2}/{q2} are not adjacent")
        seen: dict[int, int] = {}
        for label in self.pairings:
            if label not in (EVEN, ODD):
                if len(label) != 2 or label[0] != "free" or type(label[1]) is not int:
                    raise ValueError(f"malformed pairing label {label!r}")
                seen[label[1]] = seen.get(label[1], 0) + 1
        if any(count != 2 for count in seen.values()):
            raise ValueError("every free pair id must occur exactly twice")

    def counts(self) -> tuple[int, int, int]:
        """(free pairs, even sides, odd sides) = (r, e2, e3)."""
        e2 = sum(1 for label in self.pairings if label == EVEN)
        e3 = sum(1 for label in self.pairings if label == ODD)
        r = sum(1 for label in self.pairings if label[0] == "free") // 2
        return r, e2, e3


def _p1_point(c: int, d: int, n: int, units: bytes) -> tuple[int, int]:
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


def farey_symbol(n: int) -> FareySymbol:
    """Build a Farey symbol for level n >= 2 by breadth-first mediant subdivision.

    Open sides wait in a heap keyed by their mediant (denominator, then
    numerator), and the smallest is subdivided next.  The two sides a
    subdivision creates are labelled at once: a side with denominators
    (b, d) is Even iff b^2 + d^2 = 0 and Odd iff b^2 + bd + d^2 = 0 (mod n);
    otherwise it pairs freely with an open side at the point (d : -b) of
    P^1(Z/nZ), looked up by normalised point, or stays open.  The vertex chain
    is read off the subdivision tree in order.  Raises RuntimeError if a
    vertex denominator would exceed n.
    """
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
            partners = waiting.get(_p1_point(b, d, n, units))
            if partners:
                t = partners.pop(0)
                del open_at[t]
                labels[s] = labels[t] = ("free", next_pair)
                next_pair += 1
            else:
                key = _p1_point(d, -b, n, units)
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


@dataclass(frozen=True)
class GeneratorSet:
    """Independent generators of Gamma0(N) classified by order.

    ``free`` holds the infinite-order generators (T always first), ``elliptic2``
    the matrices squaring to -I, ``elliptic3`` those cubing to -I; together
    with -I they generate the group.  ``symbol`` is the Farey symbol the set
    was read from (absent for level 1, which uses {S, ST}).

    ``side_rules[i]`` is (kind, index, orient) for the generator pairing side
    i, orient -1 only on the right member of a free pair; the cusp walk in
    decompose() reads it.  Only interior sides have a rule: the two boundary
    entries, realised by T, are None.
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

    def matrix_for(self, ref: tuple[str, int]) -> UniModular:
        kind, idx = ref
        return {"free": self.free, "e2": self.elliptic2, "e3": self.elliptic3}[kind][idx]


def _extract_generators(symbol: FareySymbol) -> GeneratorSet:
    """Generators from the side pairings: an Even side conjugates S by its side
    matrix, an Odd side conjugates TS, a Free pair maps its left member onto
    its right one (T for the boundary pair)."""
    n = symbol.level
    v = symbol.vertices
    free: list[UniModular] = [T]
    elliptic2: list[UniModular] = []
    elliptic3: list[UniModular] = []
    rules: list[tuple[str, int, int] | None] = [None] * len(symbol.pairings)
    open_left: dict[int, tuple[int, UniModular]] = {}  # pair id -> left side, its matrix
    for i in range(1, len(symbol.pairings) - 1):
        label = symbol.pairings[i]
        m = _side_matrix(v[i], v[i + 1])
        if label == EVEN:
            elliptic2.append(m * S * m.inv())
            rules[i] = ("e2", len(elliptic2) - 1, 1)
        elif label == ODD:
            elliptic3.append(m * _TS * m.inv())
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
    # the measure r = index/6 + 1 - e2/2 - 2*e3/3, cleared of denominators
    measure6 = index_gamma0(n) + 6 - 3 * len(elliptic2) - 4 * len(elliptic3)
    if measure6 != 6 * len(free):
        expected_r = Fraction(measure6, 6)
        raise RuntimeError(
            f"level {n}: {len(free)} free generators against measure {expected_r}"
        )
    return GeneratorSet(
        n, tuple(free), tuple(elliptic2), tuple(elliptic3), symbol, tuple(rules)
    )


_memo: dict[int, GeneratorSet] = {}
_default_cache_dir: str | None = None


def set_default_cache_dir(path: str | None) -> None:
    """Install a process-wide cache directory used when none is passed."""
    global _default_cache_dir
    _default_cache_dir = path


def build_generators(n: int) -> GeneratorSet:
    """Construct the generator set from scratch (no caches consulted)."""
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    if n == 1:
        return GeneratorSet(1, (), (S,), (S * T,), None, ())
    return _extract_generators(farey_symbol(n))


def generators(n: int, cache_dir: str | None = None) -> GeneratorSet:
    """Generator set for Gamma0(N), memoized in process and optionally on disk."""
    cache_dir = cache_dir or _default_cache_dir
    gens = _memo.get(n)
    if gens is not None:
        if cache_dir and not os.path.exists(_cache_path(cache_dir, n)):
            save_cached_generators(gens, cache_dir)
        return gens
    if cache_dir:
        gens = load_cached_generators(n, cache_dir)
    if gens is None:
        # a missing or corrupt cache file is a miss: rebuild and rewrite it
        gens = build_generators(n)
        if cache_dir:
            save_cached_generators(gens, cache_dir)
    _memo[n] = gens
    return gens


# ---------------------------------------------------------------------------
# disk cache (whole-file JSON per level, last-writer-wins)

# Version of the Farey construction a cache file was written by; a file from
# any other construction is a miss, so one cache never mixes two of them.
CONSTRUCTION = 2


def _cache_path(cache_dir: str, n: int) -> str:
    return os.path.join(cache_dir, f"gamma0-generators-{n}.json")


def generator_set_to_json(gens: GeneratorSet) -> dict:
    doc = {
        "construction": CONSTRUCTION,
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


def generator_set_from_json(doc: dict) -> GeneratorSet:
    if not isinstance(doc, dict) or doc.get("construction") != CONSTRUCTION:
        raise ValueError(f"cache document is not from construction {CONSTRUCTION}")
    n = doc["level"]
    if type(n) is not int:
        raise ValueError(f"cache level must be an integer, got {n!r}")
    if doc.get("farey") is None:
        gens = build_generators(n)
    else:
        vertices = tuple(tuple(v) for v in doc["farey"]["vertices"])
        if not all(type(x) is int for v in vertices for x in v):
            raise ValueError(f"cache for level {n} has non-integer vertices")
        symbol = FareySymbol(
            n,
            vertices,
            tuple(tuple(label) for label in doc["farey"]["pairings"]),
        )
        gens = _extract_generators(symbol)
    if [g.entries() for g in gens.free] != [tuple(m) for m in doc["free"]]:
        raise ValueError(f"cache for level {n} disagrees with its Farey symbol")
    return gens


def save_cached_generators(gens: GeneratorSet, cache_dir: str) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    payload = json.dumps(generator_set_to_json(gens), sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        handle.write(payload)
    os.replace(tmp, _cache_path(cache_dir, gens.level))


def load_cached_generators(n: int, cache_dir: str) -> GeneratorSet | None:
    """The cached generator set for level n, or None when the file is missing
    or fails any of the checks in ``generator_set_from_json``."""
    path = _cache_path(cache_dir, n)
    try:
        with open(path) as handle:
            gens = generator_set_from_json(json.load(handle))
    except (OSError, ValueError, LookupError, TypeError, RuntimeError):
        return None
    return gens if gens.level == n else None


# ---------------------------------------------------------------------------
# words and decomposition

@dataclass(frozen=True)
class Word:
    """Normal form (sign * I) * product of generator powers.

    Letters are ((kind, index), exponent) with adjacent letters referencing
    distinct generators; exponents are nonzero integers for free generators,
    1 for order-four elliptic ones and 1 or 2 for order-six ones.
    """

    sign: int
    letters: tuple[tuple[tuple[str, int], int], ...]


def exponent_sum(word: Word, ref: tuple[str, int]) -> int:
    """Sum of the exponents of the letters referencing ``ref``."""
    return sum(exp for r, exp in word.letters if r == ref)


def reconstruct(word: Word, gens: GeneratorSet) -> UniModular:
    m = I if word.sign == 1 else NEG_I
    for ref, exp in word.letters:
        m = m * gens.matrix_for(ref) ** exp
    return m


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


def _mul4(u: tuple[int, int, int, int], v: tuple[int, int, int, int]):
    a, b, c, d = u
    e, f, g, h = v
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _walk_to_translation(mat: UniModular, gens: GeneratorSet):
    """Cross paired sides until the image of oo is oo; returns raw letters.

    Each crossing multiplies on the left by the matrix carrying the tile that
    currently holds the cusp a/c back into the base polygon, and records the
    inverse letter.  A per-walk set of visited states guards against cycling,
    which would indicate a broken symbol.
    """
    symbol = gens.symbol
    floor = symbol.vertices[1:-1]
    rules = gens.side_rules
    cur = mat.entries()
    letters: list[tuple[tuple[str, int], int]] = []
    seen: set = set()

    def crossing(side: int, num: int, den: int):
        kind, idx, orient = rules[side]
        if kind == "free":
            g = gens.free[idx]
            if orient > 0:
                return g.entries(), (("free", idx), -1)
            return g.inv().entries(), (("free", idx), 1)
        if kind == "e2":
            return gens.elliptic2[idx].entries(), (("e2", idx), -1)
        g = gens.elliptic3[idx]
        (p1, q1), (p2, q2) = symbol.vertices[side], symbol.vertices[side + 1]
        if num * (q1 + q2) < (p1 + p2) * den:
            return g.entries(), (("e3", idx), 2)
        return g.inv().entries(), (("e3", idx), 1)

    while cur[2] != 0:
        a, b, c, d = cur
        m = a // c
        if m:
            a, b = a - m * c, b - m * d
            cur = (a, b, c, d)
            letters.append((("free", 0), m))
        # the cusp is num/den in lowest terms (gcd(a, c) = 1), den > 0
        num, den = (a, c) if c > 0 else (-a, -c)
        if not 0 <= num < den:
            raise RuntimeError(f"translation landed outside [0, 1): {num}/{den}")
        # last vertex p/q <= num/den; p*den - num*q grows along the vertices
        pos = bisect_right(floor, 0, key=lambda v: v[0] * den - num * v[1]) - 1
        p, q = floor[pos]
        if p * den == num * q:
            # cusp sits on an interior vertex: cross whichever neighbouring
            # side shrinks the denominator
            candidates = []
            for side in (pos, pos + 1):
                if 1 <= side <= len(rules) - 2:
                    u, letter = crossing(side, num, den)
                    nxt = _mul4(u, cur)
                    candidates.append((abs(nxt[2]), nxt, letter))
            candidates.sort(key=lambda item: item[0])
            if not candidates or candidates[0][0] >= den:
                raise RuntimeError(f"reduction stalled at vertex {num}/{den}")
            _, cur, letter = candidates[0]
            letters.append(letter)
        else:
            u, letter = crossing(pos + 1, num, den)
            cur = _mul4(u, cur)
            letters.append(letter)
        state = cur if cur[2] > 0 or (cur[2] == 0 and cur[0] > 0) else tuple(-t for t in cur)
        if state in seen:
            raise RuntimeError("side-crossing walk entered a cycle")
        seen.add(state)
    a, b = cur[0], cur[1]
    if a * b:
        letters.append((("free", 0), a * b))
    return letters


def _decompose_level_one(mat: UniModular, gens: GeneratorSet):
    """Words over {S, ST}: reduce by the Euclidean algorithm in T and S."""
    a, b, c, d = mat.entries()
    ts_letters: list[tuple[str, int]] = []
    while c != 0:
        m = a // c
        if m:
            a, b = a - m * c, b - m * d
            ts_letters.append(("T", m))
        a, b, c, d = c, d, -a, -b
        ts_letters.append(("S", 1))
    if a * b:
        ts_letters.append(("T", a * b))
    raw: list[tuple[tuple[str, int], int]] = []
    for name, exp in ts_letters:
        if name == "S":
            raw.append((("e2", 0), exp))
        elif exp > 0:
            # T = -S * (ST); the sign is recovered from the final product
            raw.extend(((("e2", 0), -1), (("e3", 0), 1)) * exp)
        else:
            raw.extend(((("e3", 0), -1), (("e2", 0), 1)) * (-exp))
    return raw


def decompose(gamma: Gamma0Element, gens: GeneratorSet) -> Word:
    """Normal form of gamma over the generator set; verified by rebuilding.

    The result is deterministic, satisfies the normal-form exponent
    constraints, and multiplies back to exactly the input matrix.
    """
    if gamma.level != gens.level:
        raise ValueError(
            f"element of level {gamma.level} against generators of level {gens.level}"
        )
    if gens.level == 1:
        raw = _decompose_level_one(gamma.matrix, gens)
    else:
        raw = _walk_to_translation(gamma.matrix, gens)
    word = Word(1, tuple(_normal_form(raw)))
    product = reconstruct(word, gens)
    if product == gamma.matrix:
        return word
    if -product == gamma.matrix:
        return Word(-1, word.letters)
    raise RuntimeError(f"decomposition of {gamma.matrix} failed to close up")
