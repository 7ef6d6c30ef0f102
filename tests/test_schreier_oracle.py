"""An oracle for beta and the sigma rank that shares no code with the Farey layer.

Gamma0(N) is the stabiliser of the point (0 : 1) of P^1(Z/NZ) under the
right action of SL2(Z) on bottom rows, so its right cosets are the points of
P^1(Z/NZ) (W. Stein, *Modular Forms: A Computational Approach*, 2007, the
chapter on congruence subgroups).  A breadth-first search from (0 : 1) under
S, T and T^-1 picks a representative r_x of each coset x, and the Schreier
generators r_x * s * r_{x.s}^-1, for s in {S, T}, generate Gamma0(N)
(W. Magnus, A. Karrass, D. Solitar, *Combinatorial Group Theory*, 1966,
section 2.3).  beta(N, l) is the gcd of sigma_l over any generating set, and
the sigma rank is the rank over any generating set, so both are compared
with the values the Farey symbol's generators give.

The test covers 2 <= N <= 300; ``python tests/test_schreier_oracle.py MAX``
runs the same comparison at every level up to MAX.
"""

import math

from gamma0char.charformula import beta, sigma_matrix
from gamma0char.dirichlet import divisors
from gamma0char.exact import integer_rank
from gamma0char.farey import index_gamma0
from gamma0char.kernels import psi4
from gamma0char.sl2 import mul4

S = (0, -1, 1, 0)
T = (1, 1, 0, 1)
T_INV = (1, -1, 0, 1)


def _brute_normal_form(n, c, d):
    """The point (c : d) of P^1(Z/nZ) as the minimum over units u of
    (u*c mod n, u*d mod n)."""
    return min((u * c % n, u * d % n) for u in range(1, n + 1) if math.gcd(u, n) == 1)


def _normal_form(n):
    """``_brute_normal_form`` at level n, from a table of multipliers per c mod n.

    The unit multiples of c are the residues x with gcd(x, n) = g = gcd(c, n),
    so the minimum's first entry is g mod n.  The units taking c to g are one
    such unit u0 times the units fixing g, those that are 1 mod n/g, and the
    second entry is the least of v * d mod n over the products v = u * u0.
    """
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
    fixing = {m: [u for u in units if u % m == 1 % m] for m in divisors(n)}
    table = []
    for c in range(n):
        g = math.gcd(c, n)
        m = n // g
        u0 = pow(c // g, -1, m)  # c/g is a unit mod n/g; lift its inverse to one mod n
        while math.gcd(u0, n) != 1:
            u0 += m
        table.append((g % n, [u * u0 % n for u in fixing[m]]))

    def form(c, d):
        first, multipliers = table[c % n]
        return first, min([v * d % n for v in multipliers])

    return form


def _schreier_generators(n):
    """The number of cosets the search reaches, and the Schreier generators
    r_x * s * r_{x.s}^-1 for s in {S, T} as entry tuples, leaving out the
    identities r_x * s = r_{x.s} of the search's own steps."""
    form = _normal_form(n)
    reps = {form(0, 1): (1, 0, 0, 1)}
    queue = list(reps)
    gens = []
    for x in queue:  # grows as the search finds cosets
        r = reps[x]
        for s in (S, T, T_INV):
            g = mul4(r, s)
            y = form(g[2], g[3])
            if y not in reps:
                reps[y] = g
                queue.append(y)
            elif s is not T_INV:
                a, b, c, d = reps[y]
                gens.append(mul4(g, (d, -b, -c, a)))
    return len(reps), gens


def test_normal_form_is_the_minimum_over_units():
    for n in range(1, 41):
        form = _normal_form(n)
        for c in range(n):
            for d in range(n):
                if math.gcd(c, d, n) == 1:
                    assert form(c, d) == _brute_normal_form(n, c, d), (n, c, d)


def _compare_with_the_farey_layer(levels):
    """Assert, at each level, that the Schreier generators give the index,
    every beta(N, l) and the sigma rank that the Farey generators give."""
    for n in levels:
        count, gens = _schreier_generators(n)
        assert count == index_gamma0(n), n
        cols = [l for l in divisors(n) if l > 1]
        rows = []
        for a, b, c, d in gens:
            assert c % n == 0, (n, (a, b, c, d))
            # sigma_l is psi less psi of the conjugate (a, b*l; c/l, d)
            psi_h = psi4(a, b, c, d)  # checks the determinant
            rows.append([psi_h - psi4(a, b * l, c // l, d) for l in cols])
        for l, column in zip(cols, zip(*rows)):
            assert math.gcd(*column) == beta(n, l), (n, l)
        assert integer_rank(rows) == integer_rank(sigma_matrix(n).entries), n


def test_schreier_generators_give_beta_and_the_sigma_rank():
    _compare_with_the_farey_layer(range(2, 301))


if __name__ == "__main__":
    import argparse
    import time

    parser = argparse.ArgumentParser(
        description="Compare the Schreier oracle with the Farey layer at every level 2..MAX."
    )
    parser.add_argument("max_level", metavar="MAX", type=int)
    top = parser.parse_args().max_level
    start = time.perf_counter()
    _compare_with_the_farey_layer(range(2, top + 1))
    print(f"levels 2..{top} agree ({time.perf_counter() - start:.1f} s)")
