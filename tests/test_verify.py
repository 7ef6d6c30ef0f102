"""Verdicts and reports from the batch verifiers."""

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

from gamma0char import farey

from gamma0char.charformula import CharacterParams, eval_character, sigma_matrix
from gamma0char.dirichlet import divisors, enumerate_characters, evaluate
from gamma0char.exact import CircleExponent
from gamma0char.farey import generators
from gamma0char.sl2 import Gamma0Element, NEG_I, psi
from gamma0char.verify import (
    SURJECTIVE_LEVELS,
    _torsion_image,
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
    assert verify_surjectivity(13).verdict == "Surjective"
    report9 = verify_surjectivity(9)
    assert report9.verdict == "NotSurjective"
    assert report9.evidence["r_exceeds_t_minus_1"] is True
    report1 = verify_surjectivity(1)
    assert report1.verdict == "Surjective"
    assert report1.evidence["characters"] == 12


def test_surjectivity_sweep_small():
    for n in range(1, 61):
        report = verify_surjectivity(n)
        expected = "Surjective" if n in SURJECTIVE_LEVELS else "NotSurjective"
        assert report.verdict == expected, (n, report.evidence)


def test_surjective_levels_have_square_full_rank_sigma():
    for n in SURJECTIVE_LEVELS[1:]:
        report = verify_surjectivity(n)
        assert report.evidence["r"] == report.evidence["t_minus_1"]
        assert report.evidence["rank"] == report.evidence["r"]
        assert report.evidence["torsion_tuples_matched"] == 2 ** (
            report.evidence["e2"] + 1
        ) * 3 ** report.evidence["e3"]


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


def test_predicted_beta_rules():
    assert predicted_beta(33) == 4  # residue 9, not a square
    assert predicted_beta(9) == 8  # residue 9, square
    assert predicted_beta(26) == 1  # residue 2
    assert predicted_beta(25) == 24  # residue 1, square
    assert predicted_beta(49) == 24
    assert predicted_beta(73) == 12  # residue 1, not a square
    assert predicted_beta(24) == 1  # residue 24 row


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


def test_dedekind_identity_report():
    report = verify_dedekind_identity(100, seed=5)
    assert report["ok"] is True
    assert report["checked"] == 800


def test_kernel_report():
    for level in (2, 7, 25):
        report = verify_kernel(level, 100, seed=5)
        assert report["ok"] is True
        assert report["checked"] == 100


def test_scans_hold_one_level():
    for scan in (verify_conjecture1, verify_conjecture2, verify_conjecture3):
        assert scan(120)["ok"] is True
        assert len(farey._memo) <= 1
        assert sigma_matrix.cache_info().currsize <= 1


def test_conjecture3_scan_memory_is_bounded():
    # memos that keep every level's generator set and sigma matrix make this
    # scan peak near 5.3 MB; memos of one level, near 0.9 MB
    farey._memo.clear()
    sigma_matrix.cache_clear()
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
from gamma0char.charformula import CharacterParams, eval_character
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
