import random
from math import gcd

import pytest

from gamma0char.sl2 import Gamma0Element, UniModular


def _benchmark_shaped_element(rng: random.Random, n: int) -> Gamma0Element:
    """An element of Gamma0(n) built as the seeded-checks benchmark builds
    its inputs: c = +-n*k with k <= 1000, |d| <= 10**5, a = d^-1 mod c,
    shifted by a random power of T."""
    while True:
        c = n * rng.randint(1, 1000) * rng.choice((1, -1))
        d = rng.randint(-(10**5), 10**5)
        if gcd(c, d) == 1:
            break
    a = pow(d, -1, c)
    b = (a * d - 1) // c
    t = rng.randint(-2, 2)
    return Gamma0Element(UniModular(a + t * c, b + t * d, c, d), n)


@pytest.fixture
def benchmark_shaped_element():
    """The builder of benchmark-shaped elements, shared by the test modules."""
    return _benchmark_shaped_element
