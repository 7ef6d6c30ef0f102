"""The group of Dirichlet characters modulo N, evaluated as circle exponents.

The unit group (Z/NZ)^x is decomposed into cyclic factors by the Chinese
remainder theorem: the smallest primitive root for each odd prime power, and
the pair {-1, 5} for powers of two above 4.  ``unit_group_structure`` returns
the factors as a tuple of (generator, order) pairs, memoized per modulus.
Each character holds chi(d) over m, the lcm of the factor orders, for every
residue d mod N in one table, ``DirichletCharacter.table``, filled on first
use by walking every exponent vector of the factors.

``evaluate`` reads that table for one-off values and refuses a non-unit.
The character formula's hot loop reads the same table directly, times one
integer scale from m to its own modulus: the d of a Gamma0(N) element is
always a unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add

from .exact import CircleExponent, as_int


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n: int) -> list[int]:
    """All positive divisors, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _smallest_primitive_root(q: int, phi: int) -> int:
    prime_parts = [p for p, _ in factorize(phi)]
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in prime_parts):
            return g
    raise ValueError(f"no primitive root modulo {q}")


def _crt_lift(residue: int, q: int, n: int) -> int:
    """The unit mod n that is `residue` mod q and 1 mod n/q (gcd(q, n/q) = 1)."""
    m = n // q  # for m == 1 this gives residue % n, as pow(q, -1, 1) == 0
    inv_m = pow(m, -1, q)
    inv_q = pow(q, -1, m)
    return (residue * m * inv_m + 1 * q * inv_q) % n


@lru_cache(maxsize=None)
def unit_group_structure(n: int) -> tuple[tuple[int, int], ...]:
    """Deterministic cyclic decomposition of (Z/NZ)^x (smallest generators) as
    (generator, order) pairs; the orders multiply to phi(N), () for N <= 2."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    factors: list[tuple[int, int]] = []
    for p, e in factorize(n):
        q = p**e
        if p == 2:
            if e == 2:
                factors.append((_crt_lift(3, 4, n), 2))
            elif e >= 3:
                factors.append((_crt_lift(q - 1, q, n), 2))
                factors.append((_crt_lift(5, q, n), 2 ** (e - 2)))
            # e == 1 contributes the trivial group
        else:
            phi = (p - 1) * p ** (e - 1)
            g = _smallest_primitive_root(q, phi)
            factors.append((_crt_lift(g, q, n), phi))
    return tuple(factors)


@dataclass(frozen=True)
class DirichletCharacter:
    """A character of (Z/NZ)^x, encoded by exponents on the cyclic factors.

    Exponents k_i are reduced mod their orders; chi(d) is the sum of
    k_i * e_i * m / order_i over m = ``value_modulus``, the lcm of the
    orders, where d = prod of g_i^e_i over the factors.
    """

    modulus: int
    exponents: tuple[int, ...]
    value_modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        factors = unit_group_structure(self.modulus)
        if len(self.exponents) != len(factors):
            raise ValueError("exponent vector length does not match the unit group")
        orders = [order for _, order in factors]
        exps = tuple(as_int(k) % order for k, order in zip(self.exponents, orders))
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "value_modulus", math.lcm(*orders))

    @cached_property
    def table(self) -> tuple[int | None, ...]:
        """chi(d) over ``value_modulus``, unreduced, per residue d mod N; None at a non-unit."""
        n = self.modulus
        # each unit so far times every power of the next factor's generator,
        # its value growing by that factor's weight k * m / order at each step
        values = {1 % n: 0}
        for (gen, order), k in zip(unit_group_structure(n), self.exponents):
            weight = k * (self.value_modulus // order)
            grown = {}
            for unit, value in values.items():
                for _ in range(order):
                    grown[unit] = value
                    unit = unit * gen % n
                    value += weight
            values = grown
        return tuple(map(values.get, range(n)))

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        # construction reduces each sum mod its factor order
        return DirichletCharacter(self.modulus, tuple(map(add, self.exponents, other.exponents)))

    def is_principal(self) -> bool:
        return not any(self.exponents)

    def id(self) -> int:
        """Mixed-radix rank of the exponent vector (principal character is 0)."""
        rank = 0
        for exp, (_, order) in zip(self.exponents, unit_group_structure(self.modulus)):
            rank = rank * order + exp
        return rank


def character_from_id(n: int, rank: int) -> DirichletCharacter:
    exps = []
    for _, order in reversed(unit_group_structure(n)):
        exps.append(rank % order)
        rank //= order
    if rank:
        raise ValueError("character id out of range")
    return DirichletCharacter(n, tuple(reversed(exps)))


def enumerate_characters(n: int) -> list[DirichletCharacter]:
    """All phi(N) characters, ordered by id; the principal character first."""
    return [character_from_id(n, k) for k in range(euler_phi(n))]


def evaluate(chi: DirichletCharacter, d: int) -> CircleExponent:
    """chi(d) as a circle exponent, read from ``chi.table``; d must be a unit mod N."""
    d %= chi.modulus
    value = chi.table[d]
    if value is None:
        raise ValueError(f"{d} is not a unit modulo {chi.modulus}")
    return CircleExponent.from_residue(value, chi.value_modulus)
