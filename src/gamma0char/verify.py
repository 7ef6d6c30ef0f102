"""Batch verifiers: surjectivity of the parametrization, beta tables, ranks.

Every verifier but ``verify_surjectivity`` returns a JSON-ready dict with a
top-level "ok" flag and enough evidence to audit the verdict.
``verify_surjectivity`` returns a ``SurjectivityReport``, whose verdict is
either answer; the command line adds ``"ok": true`` to its JSON.  Conjecture
scans report mismatches as findings rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from .charformula import (
    KERNEL_LEVELS,
    TheoremViolation,
    beta,
    dedekind_identity_quotient,
    kernel_exponent_check,
    sigma_matrix,
)
from .dirichlet import divisors, enumerate_characters, evaluate
from .exact import integer_rank
from .farey import GeneratorSet, generators
from .sampling import random_coprime_pair, random_gamma0, random_sl2
from .sl2 import NEG_I, T, chi_t, omega, psi

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


@dataclass(frozen=True)
class SurjectivityReport:
    level: int
    verdict: str  # "Surjective" | "NotSurjective"
    evidence: dict

    def to_json(self) -> dict:
        return {"level": self.level, "verdict": self.verdict, "evidence": self.evidence}


def _torsion_image(n: int, gens: GeneratorSet) -> set[tuple[int, ...]]:
    """Values at (-I, each elliptic generator) over every (chi, r1) pair.

    Values are integer residues over M = lcm(12, value modulus at level n).
    Every tuple must lie in the target group: an elliptic generator h of order
    2 or 3 satisfies h**order = -I, so its value x has order * x == value(-I)
    mod M.  A tuple outside it raises TheoremViolation.
    """
    elliptic = [(h, 2) for h in gens.elliptic2] + [(h, 3) for h in gens.elliptic3]
    points = [NEG_I] + [h for h, _ in elliptic]
    chars = enumerate_characters(n)
    big = math.lcm(12, chars[0].value_modulus)
    psi_values = [psi(m) * (big // 12) for m in points]
    image = set()
    for chi in chars:
        chi_values = [v.num * (big // v.den) for v in (evaluate(chi, m.d) for m in points)]
        for r1 in range(12):
            minus, *values = [(c + r1 * p) % big for c, p in zip(chi_values, psi_values)]
            for (h, order), x in zip(elliptic, values):
                if (order * x - minus) % big:
                    raise TheoremViolation(
                        f"value {x}/{big} at {h} breaks {order}x = {minus}/{big} mod 1"
                        f" (chi {chi.id()}, r1 {r1})"
                    )
            image.add((minus, *values))
    return image


def verify_surjectivity(n: int) -> SurjectivityReport:
    """Decide whether the parameter triples realise every character of Gamma0(N).

    Surjective iff (i) the sigma matrix has full row rank, so the divisor
    weights can steer the free generators to any rational targets, and (ii)
    the (Dirichlet character, r1) pairs reach every admissible assignment of
    values at -I and the elliptic generators, a group of order
    2**(e2 + 1) * 3**e3.
    """
    if n < 1:
        raise ValueError(f"level must be positive, got {n}")
    if n == 1:
        values = sorted((chi_t(t, T) for t in range(12)), key=lambda v: v.value)
        return SurjectivityReport(
            1,
            "Surjective",
            {"characters": 12, "distinct_values_at_T": [str(v) for v in values]},
        )
    gens = generators(n)
    r, e2, e3 = gens.counts()
    t_count = len(divisors(n))
    rank = integer_rank(sigma_matrix(n).entries)
    evidence: dict = {
        "r": r,
        "e2": e2,
        "e3": e3,
        "t_minus_1": t_count - 1,
        "rank": rank,
        "r_exceeds_t_minus_1": r > t_count - 1,
    }
    if rank < r:
        return SurjectivityReport(n, "NotSurjective", evidence)
    image_size = len(_torsion_image(n, gens))
    evidence["torsion_tuples_matched"] = image_size
    surjective = image_size == 2 ** (e2 + 1) * 3**e3
    return SurjectivityReport(n, "Surjective" if surjective else "NotSurjective", evidence)


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


def verify_conjecture3(max_n: int) -> dict:
    """rank of the sigma matrix == t - 1 for 2 <= N <= max_n."""

    def check(n):
        # one lookup of the module-level name per level, so callers may patch it
        rank = integer_rank(sigma_matrix(n).entries)
        expected = len(divisors(n)) - 1
        yield None if rank == expected else {"N": n, "rank": rank, "t_minus_1": expected}

    return _scan(max_n, check)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def verify_prop21(trials: int, seed: int) -> dict:
    """The composition law psi(xy) = psi(x) + psi(y) + omega(x, y) on random words."""
    _check_trials(trials)
    rng = Random(seed)
    case_hits = {12: 0, 0: 0, -12: 0}
    for _ in range(trials):
        x = random_sl2(rng)
        y = random_sl2(rng)
        w = omega(x, y)
        case_hits[w] += 1
        if psi(x * y) != psi(x) + psi(y) + w:
            return {
                "ok": False,
                "trials": trials,
                "seed": seed,
                "counterexample": {"x": list(x.entries()), "y": list(y.entries())},
            }
    return {
        "ok": True,
        "trials": trials,
        "seed": seed,
        "case_hits": {str(k): v for k, v in case_hits.items()},
    }


def verify_dedekind_identity(trials: int, seed: int, cmax: int = 10**4) -> dict:
    """Bulk run of the two-level Dedekind sum identity on random (c, d)."""
    _check_trials(trials)
    rng = Random(seed)
    checked = 0
    for n in KERNEL_LEVELS:
        for _ in range(trials):
            c, d = random_coprime_pair(rng, n, max(cmax, n))
            dedekind_identity_quotient(n, c, d)  # raises on failure
            checked += 1
    return {"ok": True, "trials_per_level": trials, "seed": seed, "checked": checked}


def verify_kernel(level: int, trials: int, seed: int) -> dict:
    """Exponent-sum criterion for the kernel at a distinguished-generator level."""
    _check_trials(trials)
    rng = Random(seed)
    gens = generators(level)
    checked = 0
    for _ in range(trials):
        gamma = random_gamma0(rng, gens)
        kernel_exponent_check(gamma)  # raises TheoremViolation on mismatch
        checked += 1
    return {"ok": True, "level": level, "trials": trials, "seed": seed, "checked": checked}
