"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  Every assertion is exact (integer or reduced-fraction
equality); the stated runtime budgets are asserted too.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from gamma0char.charformula import (
    beta,
    dedekind_identity_quotient,
    eval_character,
    kernel_exponent_check,
    CharacterParams,
    sigma_matrix,
)
from gamma0char.dirichlet import divisors, enumerate_characters
from gamma0char.exact import dedekind_sum, dedekind_sum_fast, integer_rank
from gamma0char.farey import decompose, generators, index_gamma0, reconstruct
from gamma0char.sampling import random_coprime_pair, random_gamma0, random_sl2
from gamma0char.sl2 import Gamma0Element, UniModular, chi_t, omega, psi, sigma, T
from gamma0char.verify import (
    SURJECTIVE_LEVELS,
    predicted_beta,
    verify_surjectivity,
)

KERNEL_LEVELS = (2, 3, 4, 5, 7, 9, 13, 25)


def scan_fast_vs_naive(kmax: int) -> int:
    """Compare the two public Dedekind sum routes on every coprime pair with k <= kmax.

    Returns the number of pairs checked; raises AssertionError on the first
    disagreement.
    """
    checked = 0
    for k in range(1, kmax + 1):
        for h in range(k):  # h = 0 is coprime to k only at k = 1
            if gcd(h, k) != 1:
                continue
            if dedekind_sum_fast(h, k) != dedekind_sum(h, k):
                raise AssertionError(f"dedekind mismatch at (h, k) = ({h}, {k})")
            checked += 1
    return checked

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


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:>2} PASS ({elapsed:6.1f}s / {budget_seconds}s) {description}")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: {elapsed:.1f}s"
    )


def test_criterion_01_composition_law():
    with criterion(1, "composition law on 10^5 random pairs, all omega cases", 10):
        rng = random.Random(20250801)
        hits = {12: 0, 0: 0, -12: 0}
        for _ in range(100000):
            x = random_sl2(rng, 40)
            y = random_sl2(rng, 40)
            w = omega(x, y)
            hits[w] += 1
            assert psi(x * y) == psi(x) + psi(y) + w
        assert all(count >= 100 for count in hits.values()), hits


def test_criterion_02_dedekind_oracle_equivalence():
    with criterion(2, "fast == naive exhaustively to k=2000; reciprocity to k=10^6", 60):
        checked = scan_fast_vs_naive(2000)
        assert checked == 1 + sum(
            len([h for h in range(1, k) if gcd(h, k) == 1]) for k in range(2, 2001)
        )
        rng = random.Random(20250802)
        count = 0
        while count < 10000:
            k = rng.randrange(1, 10**6)
            h = rng.randrange(1, k + 1)
            if gcd(h, k) != 1:
                continue
            lhs = dedekind_sum_fast(h, k) + dedekind_sum_fast(k, h)
            rhs = Fraction(-1, 4) + (
                Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
            ) / 12
            assert lhs == rhs
            count += 1


def test_criterion_03_table1_structure():
    with criterion(3, "Table-1 counts and matrices; measure formula to N=300", 120):
        for n, expected in TABLE1_COUNTS.items():
            gens = generators(n)
            assert gens.counts() == expected, (n, gens.counts())
            for entries in TABLE1_MATRICES[n]:
                gamma = Gamma0Element(UniModular(*entries), n)
                word = decompose(gamma, gens)
                assert reconstruct(word, gens) == gamma.matrix
        for n in range(2, 301):
            r, e2, e3 = generators(n).counts()
            rhs = Fraction(index_gamma0(n), 6) + 1 - Fraction(e2, 2) - Fraction(2 * e3, 3)
            assert rhs.denominator == 1 and r == rhs, n


def test_criterion_04_surjectivity_classification():
    with criterion(4, "surjective exactly for the eleven listed levels, N<=240", 300):
        for n in range(1, 241):
            report = verify_surjectivity(n)
            expected = "Surjective" if n in SURJECTIVE_LEVELS else "NotSurjective"
            assert report["verdict"] == expected, (n, report["verdict"], report["evidence"])
            if n in (9, 11) or 14 <= n <= 236:
                assert report["evidence"]["r_exceeds_t_minus_1"] is True, (
                    n,
                    report["evidence"],
                )


def test_criterion_05_beta_residue_table():
    with criterion(5, "beta(N, N) matches the residue-24 table for 2<=N<=240", 300):
        for n in range(2, 241):
            assert beta(n, n) == predicted_beta(n), (n, beta(n, n), predicted_beta(n))


def test_criterion_06_beta_divisor_reduction():
    with criterion(6, "beta(N, l) == beta(l, l) for all 1 < l | N, N<=240", 180):
        for n in range(2, 241):
            for l in divisors(n):
                if l > 1:
                    assert beta(n, l) == beta(l, l), (n, l)


def test_criterion_07_sigma_rank():
    with criterion(7, "rank of the sigma matrix equals t-1 for 2<=N<=240", 180):
        for n in range(2, 241):
            mat = sigma_matrix(n)
            expected = len(divisors(n)) - 1
            assert integer_rank(mat.entries) == expected, n
            if len(divisors(n)) == 2:  # prime level: single nonzero column
                assert mat.entries[0] == (1 - n,)


def test_criterion_08_two_level_sum_identity():
    with criterion(8, "two-level Dedekind identity, 10^3 random (c, d) per level", 30):
        rng = random.Random(20250803)
        for n in KERNEL_LEVELS:
            for _ in range(1000):
                c, d = random_coprime_pair(rng, n, 10**4)
                dedekind_identity_quotient(n, c, d)  # raises on any failure


def test_criterion_09_kernel_biconditional():
    with criterion(9, "exponent-sum-zero iff sigma zero, 10^3 elements per level", 60):
        rng = random.Random(20250804)
        for n in KERNEL_LEVELS:
            gens = generators(n)
            for _ in range(1000):
                gamma = random_gamma0(rng, gens)
                total, in_kernel = kernel_exponent_check(gamma)
                assert in_kernel == (total == 0)
                assert in_kernel == (sigma(gamma, n) == 0)


def test_criterion_10_elliptic_special_value():
    with criterion(10, "s(d, c) = (c-1)/(12c) at roots of d^2+d+1 mod c, c<=2000", 30):
        found = 0
        for c in range(1, 2001):
            for d in range(c):
                if (d * d + d + 1) % c == 0:
                    assert gcd(d, c) == 1
                    assert dedekind_sum_fast(d, c) == Fraction(c - 1, 12 * c), (d, c)
                    found += 1
        assert found > 500


def test_criterion_11_character_group_of_the_full_group():
    with criterion(11, "the twelve characters of the full modular group", 1):
        values_at_t = {chi_t(t, T).value for t in range(12)}
        assert len(values_at_t) == 12
        rng = random.Random(20250805)
        for t in range(12):
            for _ in range(30):
                x = random_sl2(rng, 25)
                y = random_sl2(rng, 25)
                assert chi_t(t, x * y) == chi_t(t, x) + chi_t(t, y)
        report = verify_surjectivity(1)
        assert report["verdict"] == "Surjective"
        assert report["evidence"]["characters"] == 12


def test_criterion_12_character_formula_homomorphism():
    with criterion(12, "exact additivity of the formula, N<=30, 5 triples each", 60):
        rng = random.Random(20250806)
        for n in range(2, 31):
            gens = generators(n)
            chars = enumerate_characters(n)
            divs = [l for l in divisors(n) if l > 1]
            for _ in range(5):
                params = CharacterParams.from_map(
                    chars[rng.randrange(len(chars))],
                    rng.randrange(12),
                    {
                        l: Fraction(rng.randrange(-12, 13), rng.randrange(1, 13))
                        for l in divs
                    },
                )
                for _ in range(1000):
                    x = random_gamma0(rng, gens, letters=3, max_exp=2)
                    y = random_gamma0(rng, gens, letters=3, max_exp=2)
                    assert eval_character(params, x * y) == eval_character(
                        params, x
                    ) + eval_character(params, y)
