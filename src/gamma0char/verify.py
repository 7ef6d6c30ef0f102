"""Batch verifiers: surjectivity of the parametrization, beta tables, ranks.

Every verifier returns a JSON-ready dict with a top-level "ok" flag and
enough evidence to audit the verdict.  Conjecture scans report mismatches as
findings rather than raising.
"""

from __future__ import annotations

import math
from random import Random

from .charformula import (
    KERNEL_LEVELS,
    CharacterParams,
    TheoremViolation,
    beta,
    check_kernel_level,
    dedekind_identity_quotient,
    eval_character,
    kernel_exponent_check,
    sigma_matrix,
)
from .dirichlet import divisors, enumerate_characters
from .exact import CircleExponent, integer_rank
from .farey import GeneratorSet, closed_form_counts, generators
from .kernels import psi4
from .sampling import random_coprime_pair, random_gamma0, random_sl2_entries
from .sl2 import NEG_I, T, Gamma0Element, chi_t, mul4, omega4, psi_conjugate

SURJECTIVE_LEVELS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13)

# beta(N, N) by the residue of N mod 24; residues 1 and 9 split on
# squareness (second value for perfect squares)
BETA_BY_RESIDUE = {
    1: (12, 24),
    2: (1,),
    3: (2,),
    4: (3,),
    5: (4,),
    6: (1,),
    7: (6,),
    8: (1,),
    9: (4, 8),
    10: (3,),
    11: (2,),
    12: (1,),
    13: (12,),
    14: (1,),
    15: (2,),
    16: (3,),
    17: (4,),
    18: (1,),
    19: (6,),
    20: (1,),
    21: (4,),
    22: (3,),
    23: (2,),
    24: (1,),
}


def predicted_beta(n: int) -> int:
    """Table prediction for beta(N, N), with the square rule at residues 1, 9."""
    r = n % 24 or 24
    values = BETA_BY_RESIDUE[r]
    if len(values) == 1:
        return values[0]
    return values[1] if math.isqrt(n) ** 2 == n else values[0]


def _torsion_image(n: int, gens: GeneratorSet) -> set[tuple[CircleExponent, ...]]:
    """Values at (-I, each elliptic generator) over every (chi, r1) pair.

    Each value is ``eval_character`` of the triple (chi, r1, every r_l zero),
    so the image is read off the formula whose surjectivity it certifies.
    Every tuple must lie in the target group: an elliptic generator h of order
    2 or 3 satisfies h**order = -I, so its value x has order * x == value(-I).
    A tuple outside it raises TheoremViolation.
    """
    elliptic = [(h, 2) for h in gens.elliptic2] + [(h, 3) for h in gens.elliptic3]
    points = [Gamma0Element(m, n) for m in (NEG_I, *(h for h, _ in elliptic))]
    no_weights = {l: 0 for l in divisors(n)[1:]}
    image = set()
    for chi in enumerate_characters(n):
        for r1 in range(12):
            params = CharacterParams.from_map(chi, r1, no_weights)
            minus, *values = [eval_character(params, g) for g in points]
            for (h, order), x in zip(elliptic, values):
                if x * order != minus:
                    raise TheoremViolation(
                        f"value {x} at {h} breaks {order}x = {minus} mod 1"
                        f" (chi {chi.id()}, r1 {r1})"
                    )
            image.add((minus, *values))
    return image


def verify_surjectivity(n: int) -> dict:
    """Decide whether the parameter triples realise every character of Gamma0(N).

    Surjective iff (i) the sigma matrix has full row rank, so the divisor
    weights can steer the free generators to any rational targets, and (ii)
    the (Dirichlet character, r1) pairs reach every admissible assignment of
    values at -I and the elliptic generators, a group of order
    2**(e2 + 1) * 3**e3.  (r, e2, e3) are ``closed_form_counts``, the rank
    ``sigma_rank``; generators are built for (ii) only, after a full rank.
    At level 1 the twelve characters of SL2(Z) are fixed by their values at
    T, so it is surjective iff those twelve values are distinct.  The
    report's "verdict" is "Surjective" or "NotSurjective"; either is a
    completed check, so its "ok" is true.
    """
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    if n == 1:
        values = sorted((chi_t(t, T) for t in range(12)), key=lambda v: v.value)
        evidence = {"characters": 12, "distinct_values_at_T": [str(v) for v in values]}
        verdict = "Surjective" if len(set(values)) == 12 else "NotSurjective"
        return {"ok": True, "level": 1, "verdict": verdict, "evidence": evidence}
    r, e2, e3 = closed_form_counts(n)
    t_minus_1 = len(divisors(n)) - 1
    rank = sigma_rank(n)
    evidence = {"r": r, "e2": e2, "e3": e3, "t_minus_1": t_minus_1, "rank": rank}
    evidence["r_exceeds_t_minus_1"] = r > t_minus_1
    if rank < r:
        return {"ok": True, "level": n, "verdict": "NotSurjective", "evidence": evidence}
    image_size = len(_torsion_image(n, generators(n)))
    evidence["torsion_tuples_matched"] = image_size
    verdict = "Surjective" if image_size == 2 ** (e2 + 1) * 3**e3 else "NotSurjective"
    return {"ok": True, "level": n, "verdict": verdict, "evidence": evidence}


def _check_max_n(max_n: int) -> None:
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")


def _scan(max_n: int, check) -> dict:
    """Report of check over the levels 2 <= N <= max_n.

    check(N) yields one item per comparison: None on agreement, otherwise the
    mismatch record.
    """
    _check_max_n(max_n)
    found = [item for n in range(2, max_n + 1) for item in check(n)]
    mismatches = [item for item in found if item]
    return {
        "ok": not mismatches,
        "max_n": max_n,
        "checked": len(found),
        "mismatches": mismatches,
    }


def verify_conjecture1(max_n: int) -> dict:
    """beta(N, l) == beta(l, l) for every 1 < l | N up to max_n."""

    def check(n):
        for l in divisors(n)[1:]:
            left, right = beta(n, l), beta(l, l)
            if left == right:
                yield None
            else:
                yield {"N": n, "l": l, "beta_N_l": left, "beta_l_l": right}

    return _scan(max_n, check)


def verify_conjecture2(max_n: int) -> dict:
    """beta(N, N) equals the residue-24 table prediction for 2 <= N <= max_n."""

    def check(n):
        actual, expected = beta(n, n), predicted_beta(n)
        yield None if actual == expected else {"N": n, "beta": actual, "predicted": expected}

    return _scan(max_n, check)


def verify_table2(max_n: int) -> dict:
    """Reproduce the residue table: observed beta values per residue class."""
    _check_max_n(max_n)
    observed: dict[int, set[int]] = {r: set() for r in range(1, 25)}
    for n in range(2, max_n + 1):
        observed[n % 24 or 24].add(beta(n, n))
    rows = []
    ok = True
    for r in range(1, 25):
        expected = set(BETA_BY_RESIDUE[r])
        seen = observed[r]
        consistent = seen <= expected
        ok = ok and consistent
        rows.append(
            {
                "residue": r,
                "expected": sorted(expected),
                "observed": sorted(seen),
                "consistent": consistent,
            }
        )
    return {"ok": ok, "max_n": max_n, "rows": rows}


def cusp_parabolics(n: int):
    """Entry tuples of P_c = (1 - c*w, w; -c^2*w, 1 + c*w), one per c | n.

    w = n / gcd(n, c^2), so n divides c^2*w and P_c lies in Gamma0(n); it has
    trace 2 and fixes the cusp 1/c.  Its sigma values have the closed form
    sigma_l(P_c) = w * (l - gcd(c, l)^2) / l (Rademacher-Grosswald, *Dedekind
    Sums*, ch. 4: psi is Rademacher's Psi on trace-2 matrices).
    """
    for c in divisors(n):
        w = n // math.gcd(n, c * c)
        yield 1 - c * w, w, -c * c * w, 1 + c * w


def sigma_rank(n: int) -> int:
    """Rank of the sigma matrix of Gamma0(n), n >= 2: t - 1, t = d(n).

    sigma = (sigma_l) for 1 < l | n is a homomorphism Gamma0(n) -> Z^(t-1)
    that kills -I and the elliptic generators, so the sigma values of any
    elements of Gamma0(n) lie in the row lattice of the sigma matrix, of
    rank at most t - 1.  The rows of ``cusp_parabolics(n)`` have rank t - 1:
    psi is Rademacher's class invariant Psi on trace-2 matrices, so
    sigma_l(P_c) = w_c * (1 - G[c, l]) with G = [gcd(c, l)^2 / l], whose
    column 1 is all ones; G is the Kronecker product over p^e || n of blocks
    [p^(2 min(i, j) - j)] of determinant (p^2 - 1)^e * p^((e^2 - 3e) / 2).
    Each P_c is checked to lie in Gamma0(n) before any sigma is read: n | c
    here, the determinant by psi4; ArithmeticError otherwise.  Short rows,
    which only a fault in psi4, psi_conjugate or cusp_parabolics can give,
    fall back to ``integer_rank`` of the full ``sigma_matrix``.
    """
    if n < 2:
        raise ValueError(f"level must be at least 2, got {n}")
    heads = []
    for a, b, c, d in cusp_parabolics(n):
        if c % n:
            raise ArithmeticError(
                f"({a},{b},{c},{d}) is not in Gamma0({n}): {n} does not divide {c}"
            )
        heads.append((a, b, c, d, psi4(a, b, c, d)))
    cols = divisors(n)[1:]
    rows = [[p - psi_conjugate(a, b, c, d, l) for l in cols] for a, b, c, d, p in heads]
    rank = integer_rank(rows)
    return rank if rank == len(cols) else integer_rank(sigma_matrix(n).entries)


def verify_conjecture3(max_n: int) -> dict:
    """rank of the sigma matrix == t - 1 for 2 <= N <= max_n, by ``sigma_rank``."""

    def check(n):
        expected = len(divisors(n)) - 1
        rank = sigma_rank(n)
        yield None if rank == expected else {"N": n, "rank": rank, "t_minus_1": expected}

    return _scan(max_n, check)


def _seeded_rng(trials: int, seed: int) -> Random:
    """Random(seed) for a seeded verifier, after checking trials and seed."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # Random(-s) seeds like Random(s), so a negative seed would report
    # another seed's run under its own name
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return Random(seed)


def verify_prop21(trials: int, seed: int) -> dict:
    """The composition law psi(xy) = psi(x) + psi(y) + omega(x, y) on random words.

    Runs on entry tuples: x and y come from ``random_sl2_entries``, xy from
    ``mul4``, and ``psi4`` checks the determinant of all three.
    """
    rng = _seeded_rng(trials, seed)
    case_hits = {12: 0, 0: 0, -12: 0}
    for _ in range(trials):
        x = random_sl2_entries(rng)
        y = random_sl2_entries(rng)
        w = omega4(x, y)
        case_hits[w] += 1
        if psi4(*mul4(x, y)) != psi4(*x) + psi4(*y) + w:
            return {
                "ok": False,
                "trials": trials,
                "seed": seed,
                "counterexample": {"x": list(x), "y": list(y)},
            }
    return {
        "ok": True,
        "trials": trials,
        "seed": seed,
        "case_hits": {str(k): v for k, v in case_hits.items()},
    }


def verify_dedekind_identity(trials: int, seed: int, cmax: int = 10**4) -> dict:
    """Bulk run of the two-level Dedekind sum identity on random (c, d)."""
    rng = _seeded_rng(trials, seed)
    checked = 0
    for n in KERNEL_LEVELS:
        for _ in range(trials):
            c, d = random_coprime_pair(rng, n, max(cmax, n))
            dedekind_identity_quotient(n, c, d)  # raises on failure
            checked += 1
    return {"ok": True, "trials_per_level": trials, "seed": seed, "checked": checked}


def verify_kernel(level: int, trials: int, seed: int) -> dict:
    """Exponent-sum criterion for the kernel at a level of KERNEL_LEVELS."""
    check_kernel_level(level)  # before any Farey work
    rng = _seeded_rng(trials, seed)
    gens = generators(level)
    checked = 0
    for _ in range(trials):
        gamma = random_gamma0(rng, gens)
        kernel_exponent_check(gamma)  # raises TheoremViolation on mismatch
        checked += 1
    return {"ok": True, "level": level, "trials": trials, "seed": seed, "checked": checked}
