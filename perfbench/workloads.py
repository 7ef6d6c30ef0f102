"""The benchmark's workloads: inputs from a seed, the timed batch, the result gate.

Every workload is three functions of the imported package ``gc`` (a namespace
holding the gamma0char modules):

* ``make_inputs(gc, seed, scale)`` builds everything the batch needs; it runs
  during set-up and never inside the timed region;
* ``run(gc, inputs, mark)`` is the timed batch; it calls the library only
  through module attributes (``gc.verify.verify_conjecture3``), so that the
  tracer's patches see every call.  It calls ``mark()`` between chunks of
  its work (a level, a parameter triple, a block of trials), where worker.py
  probes the host's speed;
* ``check(gc, inputs, outputs)`` returns (attempted, failed, record).  The
  record holds only answers that do not depend on the generator set, so a
  different Farey construction gives the same record and the same digest.

Inputs never come from ``gamma0char.sampling`` or from a generator set:
elements of Gamma0(N) are built directly from c = N*k, a d coprime to c, and
a, b solving a*d - b*c = 1.

Run ``python3 perfbench/workloads.py --record 0-63`` to recompute the table
of expected digests after changing a workload's inputs or sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"

SCAN_WORKLOADS = ("scan-cold", "scan-warm")

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps the
# self-tests fast.  The scan range is chosen so that the levels whose
# generator entries pass 1e9 (bignum psi) dominate the batch.
SCALES = {
    "full": {
        "n_max": 288,
        "cf_levels": (2, 30),
        "cf_triples": 4,
        "cf_pairs": 120,
        "prop21_trials": 3000,
        "prop21_blocks": 10,
        "dedekind_trials": 250,
        "dedekind_blocks": 8,
        "dedekind_cmax": 10**6,
        "kernel_elements": 250,
    },
    "tiny": {
        "n_max": 14,
        "cf_levels": (2, 6),
        "cf_triples": 1,
        "cf_pairs": 5,
        "prop21_trials": 200,
        "prop21_blocks": 2,
        "dedekind_trials": 5,
        "dedekind_blocks": 1,
        "dedekind_cmax": 10**4,
        "kernel_elements": 3,
    },
}

# The compiled psi kernel's entry bound when this benchmark was written; a
# fixed yardstick for how many psi calls carry bignum entries.
PSI_ENTRY_BOUND = 10**9

# The levels where kernel_exponent_check applies (charformula.KERNEL_LEVELS).
KERNEL_LEVELS = (2, 3, 4, 5, 7, 9, 13, 25)

# beta(N, N) as predicted by the residue-24 table of the paper; a copy kept
# here so that the gate does not trust the table it is checking.
_BETA_BY_RESIDUE = {
    1: (12, 24), 2: (1,), 3: (2,), 4: (3,), 5: (4,), 6: (1,), 7: (6,), 8: (1,),
    9: (4, 8), 10: (3,), 11: (2,), 12: (1,), 13: (12,), 14: (1,), 15: (2,),
    16: (3,), 17: (4,), 18: (1,), 19: (6,), 20: (1,), 21: (4,), 22: (3,),
    23: (2,), 24: (1,),
}


def import_package() -> types.SimpleNamespace:
    """Import gamma0char from this checkout's src/, refusing any other copy."""
    if not (SRC / "gamma0char" / "__init__.py").is_file():
        raise ImportError(f"no gamma0char sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gamma0char
    from gamma0char import charformula, dirichlet, exact, farey, kernels, sl2, verify

    if Path(gamma0char.__file__).resolve().parent != (SRC / "gamma0char").resolve():
        raise ImportError(f"imported gamma0char from {gamma0char.__file__}, not {SRC}")
    return types.SimpleNamespace(
        package=gamma0char,
        charformula=charformula,
        dirichlet=dirichlet,
        exact=exact,
        farey=farey,
        kernels=kernels,
        sl2=sl2,
        verify=verify,
    )


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def predicted_beta(n: int) -> int:
    values = _BETA_BY_RESIDUE[n % 24 or 24]
    if len(values) == 1:
        return values[0]
    return values[1] if math.isqrt(n) ** 2 == n else values[0]


def gamma0_entries(rng: random.Random, n: int, kmax: int, dmax: int):
    """Entries (a, b, c, d) of a random element of Gamma0(n) with N | c, c != 0."""
    while True:
        c = n * rng.randint(1, kmax) * rng.choice((1, -1))
        d = rng.randint(-dmax, dmax)
        if math.gcd(c, d) == 1:
            break
    a = pow(d, -1, c)  # extended Euclid: a*d = 1 (mod c)
    b = (a * d - 1) // c
    t = rng.randint(-2, 2)
    return a + t * c, b + t * d, c, d


def gamma0_element(gc, rng: random.Random, n: int, kmax: int, dmax: int):
    a, b, c, d = gamma0_entries(rng, n, kmax, dmax)
    return gc.sl2.Gamma0Element(gc.sl2.UniModular(a, b, c, d), n)


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# scan-cold / scan-warm: the conjecture scans over levels 2..n_max


def scan_inputs(gc, seed: int, scale: str) -> dict:
    # the scans have no random inputs: the level range is the whole input
    return {"n_max": SCALES[scale]["n_max"]}


def scan_planned(inputs: dict) -> int:
    n_max = inputs["n_max"]
    return 2 * (n_max - 1) + _conjecture1_count(n_max) + 2 * (n_max - 1)


def _conjecture1_count(n_max: int) -> int:
    return sum(len(divisors(n)) - 1 for n in range(2, n_max + 1))


def scan_run(gc, inputs: dict, mark) -> list[dict]:
    n_max = inputs["n_max"]
    sigma_matrix = gc.verify.sigma_matrix

    def marked_sigma_matrix(n):  # verify_conjecture3 calls it once per level
        mark()
        return sigma_matrix(n)

    gc.verify.sigma_matrix = marked_sigma_matrix
    try:
        conjecture3 = gc.verify.verify_conjecture3(n_max)
    finally:
        gc.verify.sigma_matrix = sigma_matrix
    mark()
    conjecture1 = gc.verify.verify_conjecture1(n_max)
    mark()
    return [conjecture3, conjecture1, gc.verify.verify_conjecture2(n_max)]


def scan_check(gc, inputs: dict, outputs: list[dict]):
    n_max = inputs["n_max"]
    expected_checked = (n_max - 1, _conjecture1_count(n_max), n_max - 1)
    attempted = failed = 0
    reports = []
    for report, checked in zip(outputs, expected_checked):
        attempted += checked
        if not (report["ok"] and report["checked"] == checked):
            failed += max(1, len(report["mismatches"]))
        reports.append([report["ok"], report["checked"], report["mismatches"]])
    levels = []
    for n in range(2, n_max + 1):
        divs = divisors(n)[1:]
        rank = gc.exact.integer_rank(gc.charformula.sigma_matrix(n).entries)
        betas = [gc.charformula.beta(n, l) for l in divs]
        attempted += 2
        failed += rank != len(divs)
        failed += betas[-1] != predicted_beta(n)
        levels.append([n, rank, betas])
    return attempted, failed, {"reports": reports, "levels": levels}


def fill_cache(gc, inputs: dict, cache_dir: str, mark) -> None:
    """Fill the on-disk generator cache through the code under test."""
    for n in range(2, inputs["n_max"] + 1):
        mark()
        gc.farey.generators(n, cache_dir)


# ---------------------------------------------------------------------------
# charformula: additivity of the explicit character formula (criterion 12)


def charformula_inputs(gc, seed: int, scale: str) -> list:
    size = SCALES[scale]
    rng = random.Random(seed)
    lo, hi = size["cf_levels"]
    cases = []
    for n in range(lo, hi + 1):
        chars = gc.dirichlet.enumerate_characters(n)
        divs = divisors(n)[1:]
        for _ in range(size["cf_triples"]):
            params = gc.charformula.CharacterParams.from_map(
                chars[rng.randrange(len(chars))],
                rng.randrange(12),
                {l: Fraction(rng.randrange(-12, 13), rng.randrange(1, 13)) for l in divs},
            )
            pairs = [
                (gamma0_element(gc, rng, n, 40, 2000), gamma0_element(gc, rng, n, 40, 2000))
                for _ in range(size["cf_pairs"])
            ]
            cases.append((params, pairs))
    return cases


def charformula_planned(inputs: list) -> int:
    return sum(len(pairs) for _, pairs in inputs)


def charformula_run(gc, inputs: list, mark) -> list:
    cf = gc.charformula
    out = []
    for params, pairs in inputs:
        mark()
        for x, y in pairs:
            try:
                out.append(
                    (cf.eval_character(params, x * y), cf.eval_character(params, x), cf.eval_character(params, y))
                )
            except Exception as exc:  # counted as a failed operation by the gate
                out.append(exc)
    return out


def charformula_check(gc, inputs: list, outputs: list):
    failed = 0
    values = []
    for item in outputs:
        if isinstance(item, Exception):
            failed += 1
            values.append(f"error: {type(item).__name__}")
            continue
        xy, x, y = item
        failed += xy != x + y
        values.append(str(xy))
    return len(outputs), failed, {"values": values}


# ---------------------------------------------------------------------------
# seeded-checks: the randomized verifiers a CLI user runs at a given seed


def seeded_inputs(gc, seed: int, scale: str) -> dict:
    size = SCALES[scale]
    rng = random.Random(seed)
    elements = [
        gamma0_element(gc, rng, n, 1000, 10**5)
        for n in KERNEL_LEVELS
        for _ in range(size["kernel_elements"])
    ]
    # each verifier runs in blocks, one seed per block derived from the run's seed
    return {
        "prop21_seeds": [seed * 100 + i for i in range(size["prop21_blocks"])],
        "prop21_trials": size["prop21_trials"],
        "dedekind_seeds": [seed * 100 + i for i in range(size["dedekind_blocks"])],
        "dedekind_trials": size["dedekind_trials"],
        "dedekind_cmax": size["dedekind_cmax"],
        "elements": elements,
    }


def seeded_planned(inputs: dict) -> int:
    return (
        inputs["prop21_trials"] * len(inputs["prop21_seeds"])
        + inputs["dedekind_trials"] * len(KERNEL_LEVELS) * len(inputs["dedekind_seeds"])
        + 2 * len(inputs["elements"])
    )


def seeded_run(gc, inputs: dict, mark) -> dict:
    prop21 = []
    for seed in inputs["prop21_seeds"]:
        mark()
        prop21.append(gc.verify.verify_prop21(inputs["prop21_trials"], seed))
    dedekind = []
    for seed in inputs["dedekind_seeds"]:
        mark()
        dedekind.append(
            gc.verify.verify_dedekind_identity(inputs["dedekind_trials"], seed, inputs["dedekind_cmax"])
        )
    kernel = []
    level = None
    for gamma in inputs["elements"]:
        if gamma.level != level:
            level = gamma.level
            mark()
        try:
            kernel.append(gc.charformula.kernel_exponent_check(gamma)[1])
        except Exception as exc:  # counted as a failed operation by the gate
            kernel.append(exc)
    return {"prop21": prop21, "dedekind": dedekind, "kernel": kernel}


def seeded_check(gc, inputs: dict, outputs: dict):
    prop21_trials = inputs["prop21_trials"]
    dedekind_checked = inputs["dedekind_trials"] * len(KERNEL_LEVELS)
    attempted = failed = 0
    for report in outputs["prop21"]:
        attempted += prop21_trials
        failed += not (report["ok"] and report["trials"] == prop21_trials)
    for report in outputs["dedekind"]:
        attempted += dedekind_checked
        failed += not (report["ok"] and report["checked"] == dedekind_checked)
    kernel = []
    for gamma, in_kernel in zip(inputs["elements"], outputs["kernel"]):
        attempted += 2
        if isinstance(in_kernel, Exception):
            failed += 2
            kernel.append(f"error: {type(in_kernel).__name__}")
            continue
        sigma = gc.sl2.sigma(gamma, gamma.level)
        failed += in_kernel != (sigma == 0)
        try:
            gens = gc.farey.generators(gamma.level)
            failed += gc.farey.reconstruct(gc.farey.decompose(gamma, gens), gens) != gamma.matrix
        except Exception:
            failed += 1
        kernel.append([gamma.level, sigma, in_kernel])
    record = {
        "prop21": [[r["ok"], r.get("case_hits")] for r in outputs["prop21"]],
        "dedekind": [[r["ok"], r["checked"]] for r in outputs["dedekind"]],
        "kernel": kernel,
    }
    return attempted, failed, record


# ---------------------------------------------------------------------------


_SCAN = types.SimpleNamespace(
    make_inputs=scan_inputs, planned=scan_planned, run=scan_run, check=scan_check
)
# scan-warm differs from scan-cold only in the cache run.py fills before it
WORKLOADS = {
    "scan-cold": _SCAN,
    "scan-warm": _SCAN,
    "charformula": types.SimpleNamespace(
        make_inputs=charformula_inputs,
        planned=charformula_planned,
        run=charformula_run,
        check=charformula_check,
    ),
    "seeded-checks": types.SimpleNamespace(
        make_inputs=seeded_inputs, planned=seeded_planned, run=seeded_run, check=seeded_check
    ),
}


def digest_key(workload: str, scale: str, seed: int) -> str:
    """Key of the expected digest; the scans do not depend on the seed."""
    if workload in SCAN_WORKLOADS:
        return f"scan:{scale}"
    return f"{workload}:{scale}:seed={seed}"


def _parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_digests(seeds: list[int], scale: str) -> None:
    """Recompute the expected digests in-process and write them out."""
    gc = import_package()
    table = json.loads(EXPECTED_DIGESTS.read_text()) if EXPECTED_DIGESTS.exists() else {}
    jobs = [("scan-cold", 0)] + [
        (name, seed) for name in ("charformula", "seeded-checks") for seed in seeds
    ]
    for name, seed in jobs:
        wl = WORKLOADS[name]
        inputs = wl.make_inputs(gc, seed, scale)
        attempted, failed, record = wl.check(gc, inputs, wl.run(gc, inputs, lambda: None))
        if failed:
            raise SystemExit(f"{name} seed {seed}: {failed} of {attempted} checks failed")
        table[digest_key(name, scale, seed)] = digest(record)
    EXPECTED_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Recompute the expected digests.")
    parser.add_argument("--record", required=True, help="seed range, e.g. 0-63")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args()
    record_digests(_parse_seeds(args.record), args.scale)
