"""Seeded random elements for property checks and batch verifiers.

Everything takes an explicit ``random.Random`` so that a seed pins down a
whole report bit for bit.
"""

from __future__ import annotations

import math
from random import Random

from .farey import GeneratorSet
from .sl2 import Gamma0Element, UniModular


def random_sl2(rng: Random, max_len: int = 40) -> UniModular:
    """A random word of length <= max_len in T, T^-1 and S, multiplied out.

    Long enough words reach every sign pattern of the lower row, which the
    cocycle checks need.  The length and the letters are rejection-sampled
    from ``getrandbits`` exactly as CPython's ``randint(1, max_len)`` and
    ``randrange(3)`` draw them, so a seed gives the same words and leaves
    the generator in the same state as those calls would.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    getrandbits = rng.getrandbits
    k = max_len.bit_length()
    r = getrandbits(k)  # the word has r + 1 letters
    while r >= max_len:
        r = getrandbits(k)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(r + 1):
        choice = getrandbits(2)
        while choice == 3:
            choice = getrandbits(2)
        if choice == 0:  # right-multiply by T
            b, d = a + b, c + d
        elif choice == 1:  # right-multiply by T^-1
            b, d = b - a, d - c
        else:  # right-multiply by S
            a, b, c, d = b, -a, d, -c
    return UniModular(a, b, c, d)


def random_gamma0(
    rng: Random, gens: GeneratorSet, letters: int = 8, max_exp: int = 3
) -> Gamma0Element:
    """A random product of generator powers (and a random sign) in Gamma0(N)."""
    refs = gens.all_generators()
    m = UniModular(1, 0, 0, 1) if rng.random() < 0.5 else UniModular(-1, 0, 0, -1)
    for _ in range(rng.randint(0, letters)):
        _, g = refs[rng.randrange(len(refs))]
        exp = rng.choice([e for e in range(-max_exp, max_exp + 1) if e])
        m = m * g**exp
    return Gamma0Element(m, gens.level)


def random_coprime_pair(rng: Random, n: int, cmax: int) -> tuple[int, int]:
    """(c, d) with N | c, 0 < c <= cmax and gcd(c, d) = 1."""
    while True:
        c = n * rng.randint(1, cmax // n)
        d = rng.randint(-3 * cmax, 3 * cmax)
        if math.gcd(c, d) == 1:
            return c, d
