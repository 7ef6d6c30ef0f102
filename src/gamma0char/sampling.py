"""Seeded random elements for property checks and batch verifiers.

Everything takes an explicit ``random.Random`` so that a seed pins down a
whole report bit for bit.  The word sampler ``random_sl2_entries`` returns a
plain entry tuple (a, b, c, d), which ``verify_prop21`` multiplies with
``mul4`` and hands to ``kernels.psi4``; ``random_sl2`` wraps the same loop in
a ``UniModular``.  ``random_sl2_entries`` and ``random_coprime_pair`` draw
straight from ``getrandbits`` exactly as CPython's ``randint`` and
``randrange`` do, so a seed gives the values those calls would give and
leaves the generator in the same state.  ``random_gamma0`` draws a word in
a generator set and builds its element with ``farey.reconstruct``, the
product that ``decompose`` checks its words by.
"""

from __future__ import annotations

import math
from random import Random

from .farey import GeneratorSet, Word, reconstruct
from .sl2 import Entries, Gamma0Element, UniModular


def _randbelow(getrandbits, n: int) -> int:
    """A draw from [0, n), n >= 1, as ``randrange(n)`` makes it: getrandbits
    of n's bit length, rejected until it falls below n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_sl2_entries(rng: Random, max_len: int = 40) -> Entries:
    """The entries of a random word of length <= max_len in T, T^-1 and S.

    Long enough words reach every sign pattern of the lower row, which the
    cocycle checks need.  The length and the letters are rejection-sampled
    from ``getrandbits`` as ``randint(1, max_len)`` and ``randrange(3)``
    draw them.  The product of the letters has determinant 1 by construction.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    getrandbits = rng.getrandbits
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_randbelow(getrandbits, max_len) + 1):
        # randrange(3), inlined: this loop is the sampler's hot path
        choice = getrandbits(2)
        while choice == 3:
            choice = getrandbits(2)
        if choice == 0:  # right-multiply by T
            b, d = a + b, c + d
        elif choice == 1:  # right-multiply by T^-1
            b, d = b - a, d - c
        else:  # right-multiply by S
            a, b, c, d = b, -a, d, -c
    return a, b, c, d


def random_sl2(rng: Random, max_len: int = 40) -> UniModular:
    """``random_sl2_entries`` as a ``UniModular``: the same draws and state."""
    return UniModular(*random_sl2_entries(rng, max_len))


def random_gamma0(
    rng: Random, gens: GeneratorSet, letters: int = 8, max_exp: int = 3
) -> Gamma0Element:
    """A random product of generator powers (and a random sign) in Gamma0(N):
    a word of up to ``letters`` letters with nonzero exponents |e| <= max_exp,
    not necessarily in normal form, multiplied out by ``farey.reconstruct``."""
    refs = gens.all_generators()
    exps = [e for e in range(-max_exp, max_exp + 1) if e]
    sign = 1 if rng.random() < 0.5 else -1
    drawn = []
    for _ in range(rng.randint(0, letters)):
        ref, _ = refs[rng.randrange(len(refs))]
        drawn.append((ref, rng.choice(exps)))
    return Gamma0Element(reconstruct(Word(sign, tuple(drawn)), gens), gens.level)


def random_coprime_pair(rng: Random, n: int, cmax: int) -> tuple[int, int]:
    """(c, d) with N | c, 0 < c <= cmax, |d| <= 3 cmax and gcd(c, d) = 1.

    c / N and d are drawn as ``randint(1, cmax // N)`` and
    ``randint(-3 cmax, 3 cmax)`` would draw them, until the pair is coprime.
    Requires 1 <= N <= cmax, so that c = N is always possible; a zero-width
    draw would otherwise ask ``getrandbits(0)`` forever.
    """
    if n < 1 or cmax < n:
        raise ValueError(f"need 1 <= n <= cmax, got n = {n}, cmax = {cmax}")
    getrandbits = rng.getrandbits
    kmax, width = cmax // n, 6 * cmax + 1
    while True:
        c = n * (_randbelow(getrandbits, kmax) + 1)
        d = _randbelow(getrandbits, width) - 3 * cmax
        if math.gcd(c, d) == 1:
            return c, d
