"""Verdicts and reports from the batch verifiers."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from gamma0char import farey
from gamma0char import verify as verify_mod

from gamma0char.charformula import (
    CharacterParams,
    SigmaMatrix,
    TheoremViolation,
    eval_character,
    sigma_matrix,
)
from gamma0char.cli import main
from gamma0char.dirichlet import divisors, enumerate_characters, evaluate
from gamma0char.exact import CircleExponent, integer_rank
from gamma0char.farey import closed_form_counts, generators, index_gamma0
from gamma0char.kernels import psi4
from gamma0char.sampling import random_sl2
from gamma0char.sl2 import Gamma0Element, NEG_I, T, mul4, omega, pow4, psi, psi_conjugate
from gamma0char.verify import (
    BETA_BY_RESIDUE,
    SURJECTIVE_LEVELS,
    _torsion_image,
    cusp_parabolics,
    predicted_beta,
    verify_conjecture1,
    verify_conjecture2,
    verify_conjecture3,
    verify_dedekind_identity,
    verify_kernel,
    verify_prop21,
    verify_surjectivity,
    verify_table2,
)


def test_surjectivity_examples():
    assert verify_surjectivity(13)["verdict"] == "Surjective"
    report9 = verify_surjectivity(9)
    assert report9["verdict"] == "NotSurjective"
    assert report9["evidence"]["r_exceeds_t_minus_1"] is True
    report1 = verify_surjectivity(1)
    assert report1["verdict"] == "Surjective"
    assert report1["evidence"]["characters"] == 12
    with pytest.raises(ValueError, match=r"^level must be positive, got 0$"):
        verify_surjectivity(0)


def test_level_one_verdict_reads_the_values_at_t(monkeypatch):
    # twelve equal values at T would leave characters unrealised
    monkeypatch.setattr(verify_mod, "chi_t", lambda t, g: CircleExponent.from_residue(0, 1))
    report = verify_surjectivity(1)
    assert report["verdict"] == "NotSurjective"
    assert report["evidence"]["distinct_values_at_T"] == ["0/1"] * 12


def test_surjectivity_sweep_small():
    for n in range(1, 61):
        report = verify_surjectivity(n)
        expected = "Surjective" if n in SURJECTIVE_LEVELS else "NotSurjective"
        assert report["verdict"] == expected, (n, report["evidence"])


def test_surjective_levels_have_square_full_rank_sigma():
    for n in SURJECTIVE_LEVELS[1:]:
        evidence = verify_surjectivity(n)["evidence"]
        assert evidence["r"] == evidence["t_minus_1"]
        assert evidence["rank"] == evidence["r"]
        assert evidence["torsion_tuples_matched"] == 2 ** (evidence["e2"] + 1) * 3 ** evidence["e3"]


def test_torsion_image_size():
    # images short of the target group; verify_surjectivity stops at the
    # short sigma rank of these levels before it counts the image
    for n, size, target in ((65, 16, 32), (85, 16, 32), (91, 54, 162)):
        gens = generators(n)
        _, e2, e3 = gens.counts()
        assert 2 ** (e2 + 1) * 3**e3 == target
        assert len(_torsion_image(n, gens)) == size
    for n in SURJECTIVE_LEVELS[1:]:
        gens = generators(n)
        _, e2, e3 = gens.counts()
        assert len(_torsion_image(n, gens)) == 2 ** (e2 + 1) * 3**e3


def _frozen_torsion_image(n, gens):
    """``_torsion_image`` as it computed chi(d) + r1 * psi / 12 itself, as
    integer residues over M = lcm(12, value modulus), through ``evaluate`` and
    ``psi``; the oracle, each residue x read as the circle value x/M."""
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
                assert (order * x - minus) % big == 0
            image.add((minus, *values))
    return {tuple(CircleExponent.from_residue(x, big) for x in t) for t in image}


def test_torsion_image_matches_frozen_oracle():
    for n in SURJECTIVE_LEVELS[1:] + (65, 85, 91):
        gens = generators(n)
        assert _torsion_image(n, gens) == _frozen_torsion_image(n, gens), n


def test_torsion_image_rejects_values_outside_the_target_group(monkeypatch):
    # a value at an elliptic generator shifted by 1/7 breaks order * x == value(-I)
    def shifted(params, gamma):
        value = eval_character(params, gamma)
        return value if gamma.matrix == NEG_I else value + CircleExponent.from_residue(1, 7)

    monkeypatch.setattr(verify_mod, "eval_character", shifted)
    for n in (2, 3, 13):
        with pytest.raises(TheoremViolation, match="breaks"):
            _torsion_image(n, generators(n))


def test_predicted_beta_rules():
    assert predicted_beta(33) == 4  # residue 9, not a square
    assert predicted_beta(9) == 8  # residue 9, square
    assert predicted_beta(26) == 1  # residue 2
    assert predicted_beta(25) == 24  # residue 1, square
    assert predicted_beta(49) == 24
    assert predicted_beta(73) == 12  # residue 1, not a square
    assert predicted_beta(24) == 1  # residue 24 row


def _g(n):
    """gcd(N - 1, 12), or gcd(N - 1, 24) when N is a perfect square."""
    return math.gcd(n - 1, 24 if math.isqrt(n) ** 2 == n else 12)


def test_beta_table_is_the_gcd_rule():
    # both sides depend on N only through N mod 24, so one N per residue
    # class and branch decides; the paper's table stays what verifiers print
    squares = {k * k % 24 for k in range(24)}
    for r in range(1, 25):
        values = BETA_BY_RESIDUE[r]
        assert len(values) == (2 if r in (1, 9) else 1), r
        assert values[0] == math.gcd(r - 1, 12), r  # non-square N
        if r % 24 in squares:
            assert values[-1] == math.gcd(r - 1, 24), r  # square N
    for n in range(2, 20_001):
        assert predicted_beta(n) == _g(n), n


def test_count_bound_of_the_classification():
    # r <= d(N) - 1 = t - 1, needed for a full-rank sigma matrix, holds below
    # 676 exactly at the surjective levels
    small = [n for n in range(2, 676) if closed_form_counts(n)[0] <= len(divisors(n)) - 1]
    assert small == [2, 3, 4, 5, 6, 7, 8, 10, 12, 13] == list(SURJECTIVE_LEVELS[1:])
    # index >= N + 1 and e2, e3 <= d(N) give 6r >= N + 7 - 7 d(N), so
    # r > d(N) - 1 once N + 13 > 13 d(N); with d(N) <= 2 sqrt(N) that follows
    # from 26 sqrt(N) <= N, that is 676 N <= N^2, true from N = 676 on
    assert 676 * 676 <= 676**2 and not 676 * 675 <= 675**2
    for n in range(2, 3000):
        r, e2, e3 = closed_form_counts(n)
        t = len(divisors(n))
        assert index_gamma0(n) >= n + 1 and max(e2, e3) <= t and t * t <= 4 * n
        assert 6 * r >= n + 7 - 7 * t
        if n >= 676:
            assert n + 13 > 13 * t and r > t - 1, n


def test_conjecture1_report():
    report = verify_conjecture1(50)
    assert report["ok"] is True
    assert report["checked"] > 0
    assert report["mismatches"] == []


def test_conjecture2_report():
    report = verify_conjecture2(60)
    assert report["ok"] is True


def test_conjecture3_report():
    report = verify_conjecture3(60)
    assert report["ok"] is True
    from gamma0char.charformula import sigma_matrix
    from gamma0char.exact import integer_rank

    assert integer_rank(sigma_matrix(12).entries) == 5
    assert integer_rank(sigma_matrix(11).entries) == 1
    assert integer_rank(sigma_matrix(36).entries) == 8


def test_cusp_parabolics_certify_the_sigma_rank():
    # each P_c of cusp_parabolics(N) lies in Gamma0(N); its sigma row, read
    # through psi4 (which checks the determinant), is
    # sigma_l(P_c) = w * (l - gcd(c, l)^2) / l with w = N / gcd(N, c^2), and
    # the t rows have rank t - 1: a certificate for conjecture 3 at each level
    for n in range(2, 2001):
        divs = divisors(n)
        cols = divs[1:]
        rows = []
        for c, (a, b, lower, d) in zip(divs, cusp_parabolics(n), strict=True):
            w = n // math.gcd(n, c * c)
            assert lower % n == 0, (n, c)
            psi_p = psi4(a, b, lower, d)
            row = [psi_p - psi_conjugate(a, b, lower, d, l) for l in cols]
            closed = [w * (l - math.gcd(c, l) ** 2) for l in cols]
            assert [x * l for x, l in zip(row, cols)] == closed, (n, c)
            rows.append(row)
        assert integer_rank(rows) == len(cols), n


def parent_verify_conjecture3(max_n, ranks):
    """``verify_conjecture3`` before the cusp-parabolic certificate, frozen:
    the rank of each level's sigma matrix over every free generator, stored
    in ``ranks``."""
    found = []
    for n in range(2, max_n + 1):
        cols = divisors(n)[1:]
        rows = []
        for g in generators(n).free:
            a, b, c, d = g.a, g.b, g.c, g.d
            psi_g = psi4(a, b, c, d)
            rows.append([psi_g - psi_conjugate(a, b, c, d, l) for l in cols])
        rank = ranks[n] = integer_rank(rows)
        expected = len(cols)
        found.append(None if rank == expected else {"N": n, "rank": rank, "t_minus_1": expected})
    mismatches = [item for item in found if item]
    return {"ok": not mismatches, "max_n": max_n, "checked": len(found), "mismatches": mismatches}


def test_conjecture3_certificate_matches_the_frozen_full_matrix_scan(monkeypatch):
    ranks = {}
    expected = parent_verify_conjecture3(600, ranks)
    for n in range(2, 601):
        assert verify_mod.sigma_rank(n) == ranks[n] == len(divisors(n)) - 1, n

    # no level falls back, so the scan builds no sigma matrix and no Farey symbol
    def build(n):
        raise AssertionError(f"built level {n}")

    monkeypatch.setattr(verify_mod, "sigma_matrix", build)
    monkeypatch.setattr(farey, "_memo", {})
    monkeypatch.setattr(farey, "build_generators", build)
    assert verify_conjecture3(600) == expected


def t_conjugates(n):
    """One conjugate U^k T U^-k of T per divisor of n, U = (1, 0; n, 1):
    every row of sigma is sigma(T), so the rows have rank 1."""
    u = (1, 0, n, 1)
    for k in range(len(divisors(n))):
        yield mul4(mul4(pow4(u, k), T.entries()), pow4(u, -k))


def test_conjecture3_falls_back_to_the_full_matrix(monkeypatch):
    fallbacks = []

    def counted(n):
        fallbacks.append(n)
        return sigma_matrix(n)

    monkeypatch.setattr(verify_mod, "cusp_parabolics", t_conjugates)
    monkeypatch.setattr(verify_mod, "sigma_matrix", counted)
    assert verify_conjecture3(60) == parent_verify_conjecture3(60, {})
    # a prime level has t - 1 = 1, which rank 1 proves
    assert fallbacks == [n for n in range(2, 61) if len(divisors(n)) > 2]


def test_conjecture3_reports_a_short_rank_after_the_fallback(monkeypatch):
    def one_row(n):
        return SigmaMatrix(n, tuple(divisors(n)[1:]), (T,))

    monkeypatch.setattr(verify_mod, "cusp_parabolics", t_conjugates)
    monkeypatch.setattr(verify_mod, "sigma_matrix", one_row)
    report = verify_conjecture3(6)
    assert report == {
        "ok": False,
        "max_n": 6,
        "checked": 5,
        "mismatches": [
            {"N": 4, "rank": 1, "t_minus_1": 2},
            {"N": 6, "rank": 1, "t_minus_1": 3},
        ],
    }


# stdout of rank and surjectivity as the full sigma matrix gave it, recorded
# before sigma_rank
FULL_MATRIX_STDOUT = [
    ("rank --level 12", '{"level": 12, "rank": 5, "rows": 5, "t_minus_1": 5}\n'),
    ("rank --level 36", '{"level": 36, "rank": 8, "rows": 13, "t_minus_1": 8}\n'),
    (
        "verify surjectivity --level 9",
        '{"evidence": {"e2": 0, "e3": 0, "r": 3, "r_exceeds_t_minus_1": true, "rank": 2,'
        ' "t_minus_1": 2}, "level": 9, "ok": true, "verdict": "NotSurjective"}\n',
    ),
    (
        "verify surjectivity --level 12",
        '{"evidence": {"e2": 0, "e3": 0, "r": 5, "r_exceeds_t_minus_1": false, "rank": 5,'
        ' "t_minus_1": 5, "torsion_tuples_matched": 2}, "level": 12, "ok": true,'
        ' "verdict": "Surjective"}\n',
    ),
    (
        "verify surjectivity --level 60",
        '{"evidence": {"e2": 0, "e3": 0, "r": 25, "r_exceeds_t_minus_1": true, "rank": 11,'
        ' "t_minus_1": 11}, "level": 60, "ok": true, "verdict": "NotSurjective"}\n',
    ),
]


def test_rank_and_surjectivity_fall_back_to_the_full_matrix(monkeypatch, capsys):
    fallbacks = []

    def counted(n):
        fallbacks.append(n)
        return sigma_matrix(n)

    monkeypatch.setattr(verify_mod, "cusp_parabolics", t_conjugates)
    monkeypatch.setattr(verify_mod, "sigma_matrix", counted)
    for argv, expected in FULL_MATRIX_STDOUT:
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == expected, argv
    assert fallbacks == [12, 36, 9, 12, 60]


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda n: (1, 0, 1, 1), r"^\(1,0,1,1\) is not in Gamma0\(2\): 2 does not divide 1$"),
        (lambda n: (1, 1, n, 2), r"^determinant of \(1,1,2,2\) is 0, not 1$"),
    ],
    ids=["c not a multiple of N", "determinant not 1"],
)
def test_conjecture3_rejects_an_element_outside_gamma0(monkeypatch, capsys, bad, message):
    # the bad element comes last, after valid ones, and no sigma is read
    reads = []

    def family(n):
        yield from cusp_parabolics(n)
        yield bad(n)

    def counted(a, b, c, d, l):
        reads.append(l)
        return psi_conjugate(a, b, c, d, l)

    monkeypatch.setattr(verify_mod, "cusp_parabolics", family)
    monkeypatch.setattr(verify_mod, "psi_conjugate", counted)
    with pytest.raises(ArithmeticError, match=message) as info:
        verify_conjecture3(10)
    assert type(info.value) is ArithmeticError and reads == []
    assert main(["verify", "conjecture3", "--max", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and reads == []
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ArithmeticError: "), lines


def _fraction_determinant(rows):
    """Determinant of a square matrix by Gaussian elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for j in range(len(rows)):
        pivot = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            rows[j], rows[pivot] = rows[pivot], rows[j]
            det = -det
        det *= rows[j][j]
        for i in range(j + 1, len(rows)):
            f = rows[i][j] / rows[j][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
    return det


def test_gcd_square_matrix_per_prime_block_determinant():
    # G = [gcd(c, l)^2 / l] over c, l | N is the Kronecker product of the
    # blocks [p^(2 min(i, j) - j)], 0 <= i, j <= e, one per p^e exactly
    # dividing N; column 1 of G is all ones and the sigma columns are
    # G_1 - G_l with row c scaled by w_c > 0, so an invertible G gives the
    # certificate rank t - 1.  A block is the min-matrix [p^(2 min(i, j))],
    # of determinant (p^2 - 1)^e * p^(e^2 - e), times diag(p^-j)
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(7):
            span = range(e + 1)
            block = [[Fraction(p) ** (2 * min(i, j) - j) for j in span] for i in span]
            expected = (p * p - 1) ** e * Fraction(p) ** ((e * e - 3 * e) // 2)
            assert _fraction_determinant(block) == expected, (p, e)


def test_translation_number_of_each_parabolic_conjugate():
    # the l-conjugate (a, b*l; c/l, d) of P_c is I + w*(-c, l; -c^2/l, c),
    # conjugate to T^k with k = gcd(w*l, c^2*w/l) = w*gcd(c, l)^2/l, so
    # psi of it is k and sigma_l(P_c) = w - k
    for n in range(2, 2001):
        divs = divisors(n)
        for c in divs:
            w = n // math.gcd(n, c * c)
            for l in divs:
                assert c * c * w % l == 0, (n, c, l)
                assert math.gcd(w * l, c * c * w // l) * l == w * math.gcd(c, l) ** 2, (n, c, l)


def test_sigma_rank_rejects_levels_below_two(monkeypatch):
    def build(n):
        raise AssertionError(f"read level {n}")

    monkeypatch.setattr(verify_mod, "cusp_parabolics", build)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match=rf"^level must be at least 2, got {n}$"):
            verify_mod.sigma_rank(n)


@pytest.mark.parametrize("n", [12, 13])
def test_full_rank_surjectivity_builds_one_generator_set(monkeypatch, n):
    # r = t - 1 here, so the torsion image is counted, from one generator set
    built = []
    build = farey.build_generators

    def counted(level):
        built.append(level)
        return build(level)

    def refuse(level):
        raise AssertionError(f"read the sigma matrix of level {level}")

    monkeypatch.setattr(farey, "_memo", {})
    monkeypatch.setattr(farey, "build_generators", counted)
    monkeypatch.setattr(verify_mod, "sigma_matrix", refuse)
    report = verify_surjectivity(n)
    assert report["verdict"] == "Surjective" and built == [n]


def test_table2_report():
    report = verify_table2(120)
    assert report["ok"] is True
    rows = {row["residue"]: row for row in report["rows"]}
    assert rows[2]["observed"] == [1]
    assert rows[7]["observed"] == [6]


def test_prop21_report_covers_cases():
    report = verify_prop21(20000, seed=5)
    assert report["ok"] is True
    assert all(count > 0 for count in report["case_hits"].values())


def _unimodular_verify_prop21(trials, seed, omega=omega):
    """``verify_prop21`` as it multiplied ``UniModular`` words and called
    ``psi`` and ``omega`` on them, before it ran on entry tuples; the oracle."""
    rng = random.Random(seed)
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


def test_prop21_matches_the_unimodular_oracle(monkeypatch):
    from gamma0char import verify

    for seed in range(200):
        trials = 1 + seed % 7 * 50
        assert verify_prop21(trials, seed) == _unimodular_verify_prop21(trials, seed), seed
    # with the rule broken, both stop at the same first counterexample
    monkeypatch.setattr(verify, "omega4", lambda x, y: 0)
    for seed in range(50):
        expected = _unimodular_verify_prop21(300, seed, omega=lambda x, y: 0)
        assert expected["ok"] is False
        assert verify_prop21(300, seed) == expected, seed


def test_seeded_verifiers_reject_negative_seeds():
    # Random(-s) seeds like Random(s), so the report would carry another seed's run;
    # trials are checked before the seed, and verify_kernel checks its level first
    for run, trials in (
        (verify_prop21, 10),
        (verify_dedekind_identity, 5),
        (lambda trials, seed: verify_kernel(7, trials, seed), 5),
    ):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -7$"):
            run(trials, -7)
        with pytest.raises(ValueError, match=r"^trials must be at least 1, got 0$"):
            run(0, -7)
        assert run(trials, 0)["ok"] is True
    with pytest.raises(ValueError, match=r"^level 6 is not in \(2, 3, 4, 5, 7, 9, 13, 25\)$"):
        verify_kernel(6, 0, -7)


def test_dedekind_identity_report():
    report = verify_dedekind_identity(100, seed=5)
    assert report["ok"] is True
    assert report["checked"] == 800


def test_kernel_report():
    for level in (2, 7, 25):
        report = verify_kernel(level, 100, seed=5)
        assert report["ok"] is True
        assert report["checked"] == 100


def test_kernel_rejects_a_level_before_building(monkeypatch):
    def build(n):
        raise AssertionError(f"built the generator set of level {n}")

    monkeypatch.setattr(farey, "_memo", {})
    monkeypatch.setattr(farey, "build_generators", build)
    with pytest.raises(ValueError, match=r"^level 6 is not in \(2, 3, 4, 5, 7, 9, 13, 25\)$"):
        verify_kernel(6, 1, 0)


def test_scans_hold_one_level():
    for scan in (verify_conjecture1, verify_conjecture2, verify_conjecture3):
        assert scan(120)["ok"] is True
        assert len(farey._memo) <= 1


def test_conjecture3_scan_memory_is_bounded():
    # memos that keep every level's generator set and sigma matrix make this
    # scan peak near 5.3 MB; memos of one level, near 0.9 MB
    farey._memo.clear()
    tracemalloc.start()
    try:
        assert verify_conjecture3(240)["ok"] is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_run_paths_never_import_numpy():
    # numpy serves only the naive Dedekind oracle; importing it costs every
    # run its start-up time and resident memory
    script = """
import sys
from fractions import Fraction
from gamma0char.charformula import (
    CharacterParams,
    SigmaMatrix,
    TheoremViolation,
    eval_character,
    sigma_matrix,
)
from gamma0char.dirichlet import character_from_id
from gamma0char.sl2 import Gamma0Element, UniModular
from gamma0char.verify import (
    verify_conjecture1, verify_conjecture2, verify_conjecture3, verify_dedekind_identity,
    verify_kernel, verify_prop21, verify_surjectivity,
)
for scan in (verify_conjecture1, verify_conjecture2, verify_conjecture3):
    assert scan(60)["ok"]
verify_kernel(13, 50, 1)
verify_prop21(20, 1)
verify_dedekind_identity(20, 1)
verify_surjectivity(13)
params = CharacterParams.from_map(character_from_id(7, 1), 1, {7: Fraction(1, 3)})
eval_character(params, Gamma0Element(UniModular(-2, 1, -7, 3), 7))
assert "numpy" not in sys.modules, "numpy was imported"
"""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("GAMMA0_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
