"""Command line interface: subcommands, output formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gamma0char.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_psi_paper_value(capsys):
    code, out = run_cli(capsys, "psi", "--matrix", "-2,1,-7,3")
    assert code == 0
    assert json.loads(out) == {"psi": 2}


def test_dedekind(capsys):
    code, out = run_cli(capsys, "dedekind", "--h", "1", "--k", "3")
    assert code == 0
    assert json.loads(out) == {"s": "1/18"}
    code, out = run_cli(capsys, "dedekind", "--h", "1", "--k", "3", "--naive")
    assert json.loads(out) == {"s": "1/18"}


def test_sigma_command(capsys):
    code, out = run_cli(capsys, "sigma", "--level", "7", "--l", "7", "--matrix", "-2,1,-7,3")
    assert code == 0
    assert json.loads(out) == {"sigma": 0}


def test_generators_command(capsys):
    code, out = run_cli(capsys, "generators", "--level", "13")
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 13
    assert len(doc["free"]) == 1
    assert len(doc["elliptic2"]) == 2
    assert len(doc["elliptic3"]) == 2
    assert doc["farey"]["vertices"][0] == [-1, 0]


def test_characters_command(capsys):
    code, out = run_cli(capsys, "characters", "--level", "7")
    doc = json.loads(out)
    assert code == 0
    assert doc["factors"] == [[3, 6]]
    assert len(doc["characters"]) == 6


def test_eval_char_command(capsys):
    matrix = ("--matrix", "-2,1,-7,3")
    # every r_l left out of --rl is zero, so no --rl at all is --rl 7=0 here
    for rl in (("--rl", "7=0"), ()):
        argv = ("eval-char", "--level", "7", "--chi", "0", "--r1", "1", *rl, *matrix)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {"value": "1/6"}, rl


def test_beta_and_rank_commands(capsys):
    code, out = run_cli(capsys, "beta", "--level", "7")
    assert code == 0 and json.loads(out)["beta"] == {"7": 6}
    code, out = run_cli(capsys, "beta", "--level", "26", "--l", "13")
    assert json.loads(out)["beta"] == 12
    code, out = run_cli(capsys, "rank", "--level", "12")
    doc = json.loads(out)
    assert doc["rank"] == 5 and doc["t_minus_1"] == 5


def test_verify_commands_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "table2", "--max", "40")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run_cli(capsys, "verify", "conjecture3", "--max", "30")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run_cli(capsys, "verify", "surjectivity", "--level", "9")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "NotSurjective"
    code, out = run_cli(capsys, "verify", "surjectivity", "--level", "13")
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True and doc["verdict"] == "Surjective"
    assert "free_target_solutions" not in doc["evidence"]
    code, out = run_cli(capsys, "verify", "prop21", "--trials", "2000")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run_cli(capsys, "verify", "kernel", "--level", "7", "--trials", "50")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run_cli(capsys, "verify", "dedekind-identity", "--trials", "20")
    assert code == 0 and json.loads(out)["ok"] is True


def test_seed_determinism(capsys):
    _, first = run_cli(capsys, "--seed", "9", "verify", "prop21", "--trials", "3000")
    _, second = run_cli(capsys, "--seed", "9", "verify", "prop21", "--trials", "3000")
    assert first == second
    _, third = run_cli(capsys, "--seed", "10", "verify", "prop21", "--trials", "3000")
    assert json.loads(third)["ok"] is True


# stdout bytes of seeded and exact reports, recorded once; a faster kernel or
# value type must leave every byte as it is
PINNED_STDOUT = [
    (
        "--seed 7 verify prop21 --trials 3000",
        '{"case_hits": {"-12": 254, "0": 2267, "12": 479}, "ok": true, "seed": 7, "trials": 3000}\n',
    ),
    (
        "--seed 7 verify dedekind-identity --trials 200",
        '{"checked": 1600, "ok": true, "seed": 7, "trials_per_level": 200}\n',
    ),
    (
        "--seed 7 verify kernel --level 13 --trials 200",
        '{"checked": 200, "level": 13, "ok": true, "seed": 7, "trials": 200}\n',
    ),
    (
        "--seed 7 verify kernel --level 25 --trials 200",
        '{"checked": 200, "level": 25, "ok": true, "seed": 7, "trials": 200}\n',
    ),
    ("verify conjecture3 --max 60", '{"checked": 59, "max_n": 60, "mismatches": [], "ok": true}\n'),
    # beta, rank and the beta scans, whose sigma matrices stop reading rows
    # once floors and a full rank decide the level: the bytes the full
    # matrices gave
    ("verify conjecture1 --max 120", '{"checked": 482, "max_n": 120, "mismatches": [], "ok": true}\n'),
    ("verify conjecture2 --max 120", '{"checked": 119, "max_n": 120, "mismatches": [], "ok": true}\n'),
    (
        "verify table2 --max 120",
        '{"max_n": 120, "ok": true, "rows": [{"consistent": true, "expected": [12, 24], '
        '"observed": [12, 24], "residue": 1}, {"consistent": true, "expected": [1], '
        '"observed": [1], "residue": 2}, {"consistent": true, "expected": [2], "observed": '
        '[2], "residue": 3}, {"consistent": true, "expected": [3], "observed": [3], '
        '"residue": 4}, {"consistent": true, "expected": [4], "observed": [4], "residue": '
        '5}, {"consistent": true, "expected": [1], "observed": [1], "residue": 6}, '
        '{"consistent": true, "expected": [6], "observed": [6], "residue": 7}, '
        '{"consistent": true, "expected": [1], "observed": [1], "residue": 8}, '
        '{"consistent": true, "expected": [4, 8], "observed": [4, 8], "residue": 9}, '
        '{"consistent": true, "expected": [3], "observed": [3], "residue": 10}, '
        '{"consistent": true, "expected": [2], "observed": [2], "residue": 11}, '
        '{"consistent": true, "expected": [1], "observed": [1], "residue": 12}, '
        '{"consistent": true, "expected": [12], "observed": [12], "residue": 13}, '
        '{"consistent": true, "expected": [1], "observed": [1], "residue": 14}, '
        '{"consistent": true, "expected": [2], "observed": [2], "residue": 15}, '
        '{"consistent": true, "expected": [3], "observed": [3], "residue": 16}, '
        '{"consistent": true, "expected": [4], "observed": [4], "residue": 17}, '
        '{"consistent": true, "expected": [1], "observed": [1], "residue": 18}, '
        '{"consistent": true, "expected": [6], "observed": [6], "residue": 19}, '
        '{"consistent": true, "expected": [1], "observed": [1], "residue": 20}, '
        '{"consistent": true, "expected": [4], "observed": [4], "residue": 21}, '
        '{"consistent": true, "expected": [3], "observed": [3], "residue": 22}, '
        '{"consistent": true, "expected": [2], "observed": [2], "residue": 23}, '
        '{"consistent": true, "expected": [1], "observed": [1], "residue": 24}]}\n',
    ),
    (
        "beta --level 36",
        '{"beta": {"12": 1, "18": 1, "2": 1, "3": 2, "36": 1, "4": 3, "6": 1, "9": 8}, '
        '"level": 36}\n',
    ),
    ("rank --level 36", '{"level": 36, "rank": 8, "rows": 13, "t_minus_1": 8}\n'),
    (
        "eval-char --level 12 --chi 3 --r1 5 --rl 2=1/3,3=-1/4,4=2/5,6=1/6,12=-7/12 --matrix 5,2,12,5",
        '{"value": "43/60"}\n',
    ),
    ("dedekind --h 999999 --k 1000003", '{"s": "-41666666667/2000006"}\n'),
    # the unit group's (generator, order) factors: none at level 1, the pair
    # {-1, 5} at 8, and at 12 the lifts 7 = (3 mod 4, 1 mod 3), 5 = (1 mod 4, 2 mod 3)
    (
        "characters --level 1",
        '{"characters": [{"exponents": [], "id": 0, "modulus": 1}], "factors": [], "modulus": 1}\n',
    ),
    (
        "characters --level 8",
        '{"characters": [{"exponents": [0, 0], "id": 0, "modulus": 8}, {"exponents": [0, 1],'
        ' "id": 1, "modulus": 8}, {"exponents": [1, 0], "id": 2, "modulus": 8}, {"exponents":'
        ' [1, 1], "id": 3, "modulus": 8}], "factors": [[7, 2], [5, 2]], "modulus": 8}\n',
    ),
    (
        "characters --level 12",
        '{"characters": [{"exponents": [0, 0], "id": 0, "modulus": 12}, {"exponents": [0, 1],'
        ' "id": 1, "modulus": 12}, {"exponents": [1, 0], "id": 2, "modulus": 12}, {"exponents":'
        ' [1, 1], "id": 3, "modulus": 12}], "factors": [[7, 2], [5, 2]], "modulus": 12}\n',
    ),
    # the naive sum's vectorised path at its limit k = 10**6, and its
    # pure-Python loop above it
    ("dedekind --h 7 --k 1000000 --naive", '{"s": "952332381/80000"}\n'),
    ("dedekind --h 999999 --k 1000003 --naive", '{"s": "-41666666667/2000006"}\n'),
    (
        "verify surjectivity --level 1",
        '{"evidence": {"characters": 12, "distinct_values_at_T": ["0/1", "1/12", "1/6", "1/4",'
        ' "1/3", "5/12", "1/2", "7/12", "2/3", "3/4", "5/6", "11/12"]}, "level": 1, "ok": true,'
        ' "verdict": "Surjective"}\n',
    ),
    (
        "verify surjectivity --level 9",
        '{"evidence": {"e2": 0, "e3": 0, "r": 3, "r_exceeds_t_minus_1": true, "rank": 2,'
        ' "t_minus_1": 2}, "level": 9, "ok": true, "verdict": "NotSurjective"}\n',
    ),
    (
        "verify surjectivity --level 13",
        '{"evidence": {"e2": 2, "e3": 2, "r": 1, "r_exceeds_t_minus_1": false, "rank": 1,'
        ' "t_minus_1": 1, "torsion_tuples_matched": 72}, "level": 13, "ok": true,'
        ' "verdict": "Surjective"}\n',
    ),
    # level 37: free pairs 0-4 and two Even and two Odd sides, printed as
    # ["free", id], ["even"] and ["odd"]
    (
        "generators --level 37",
        '{"construction": 2, "elliptic2": [[6, -1, 37, -6], [31, -26, 37, -31]], '
        '"elliptic3": [[11, -3, 37, -10], [27, -19, 37, -26]], '
        '"farey": {"pairings": [["free", 0], ["even"], ["free", 3], ["free", 1], ["odd"], '
        '["free", 2], ["free", 4], ["free", 3], ["free", 1], ["odd"], ["free", 2], '
        '["free", 4], ["even"], ["free", 0]], "vertices": [[-1, 0], [0, 1], [1, 6], [1, '
        '5], [1, 4], [1, 3], [2, 5], [1, 2], [3, 5], [2, 3], [3, 4], [4, 5], [5, 6], [1, '
        '1], [1, 0]]}, "free": [[1, 1, 0, 1], [21, -4, 37, -7], [23, -5, 37, -8], [29, '
        '-11, 37, -14], [30, -13, 37, -16]], "level": 37}\n',
    ),
    (
        "--output plain verify surjectivity --level 12",
        "evidence.e2=0\nevidence.e3=0\nevidence.r=5\nevidence.r_exceeds_t_minus_1=False\n"
        "evidence.rank=5\nevidence.t_minus_1=5\nevidence.torsion_tuples_matched=2\n"
        "level=12\nok=True\nverdict=Surjective\n",
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED_STDOUT, ids=[a for a, _ in PINNED_STDOUT])
def test_pinned_stdout_bytes(capsys, argv, expected):
    code, out = run_cli(capsys, *argv.split())
    assert (code, out) == (0, expected)


def test_check_seed_overrides_the_global_seed(capsys):
    trials = ("verify", "prop21", "--trials", "300")
    for argv, seed in [
        (trials, 0),
        (("--seed", "5", *trials), 5),
        ((*trials, "--seed", "6"), 6),
        (("--seed", "5", *trials, "--seed", "6"), 6),
    ]:
        code, out = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["seed"] == seed, argv


def test_level_one_values_at_t_print_as_fractions(capsys):
    code, out = run_cli(capsys, "verify", "surjectivity", "--level", "1")
    values = json.loads(out)["evidence"]["distinct_values_at_T"]
    assert code == 0
    assert values == [
        "0/1", "1/12", "1/6", "1/4", "1/3", "5/12",
        "1/2", "7/12", "2/3", "3/4", "5/6", "11/12",
    ]


def test_csv_json_same_fields(capsys):
    # the conjecture1 report holds a list, which csv prints as its JSON
    for argv in (("rank", "--level", "10"), ("verify", "conjecture1", "--max", "4")):
        _, as_json = run_cli(capsys, *argv)
        _, as_csv = run_cli(capsys, "--output", "csv", *argv)
        doc = json.loads(as_json)
        rows = list(csv.reader(io.StringIO(as_csv)))
        header, values = rows
        assert set(header) == set(doc)
        as_map = dict(zip(header, values))
        for key, value in doc.items():
            expected = json.dumps(value, sort_keys=True) if isinstance(value, list) else str(value)
            assert as_map[key] == expected, (argv, key)


def test_plain_output(capsys):
    _, out = run_cli(capsys, "--output", "plain", "psi", "--matrix", "1,1,0,1")
    assert out.strip() == "psi=1"


def _assert_usage_error(capsys, argv):
    """argv exits 2 with nothing on stdout and one ``error:`` line on stderr."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_usage_error_exit_code(capsys):
    _assert_usage_error(capsys, ["psi"])  # missing --matrix
    # JSON is the default output
    _assert_usage_error(capsys, ["generators", "--level", "5", "--json"])
    _assert_usage_error(capsys, ["no-such-command"])
    _assert_usage_error(capsys, ["verify", "no-such-check"])


def test_invalid_matrix_exit_code(capsys):
    # determinant != 1, three entries, an entry that is not an integer
    for matrix in ("1,2,3,4", "1,2,3", "a,1,0,1", "1,0,0,2"):
        _assert_usage_error(capsys, ["psi", "--matrix", matrix])


def test_bad_input_exits_two_with_one_line(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for argv in (
        ["eval-char", "--level", "7", "--rl", "7=1/0", "--matrix", "-2,1,-7,3"],
        ["eval-char", "--level", "7", "--rl", "7=1/4,7=1/5", "--matrix", "1,1,0,1"],
        ["beta", "--level", "1"],
        ["rank", "--level", "1"],
        ["--cache-dir", str(not_a_dir), "generators", "--level", "5"],
        ["verify", "prop21", "--trials", "-1"],
        ["verify", "dedekind-identity", "--trials", "0"],
        ["verify", "kernel", "--level", "7", "--trials", "0"],
        ["verify", "conjecture1", "--max", "1"],
        ["verify", "conjecture2", "--max", "0"],
        ["verify", "conjecture3", "--max", "-5"],
        ["verify", "table2", "--max", "1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_character_id_out_of_range_exits_two(capsys):
    assert main(["eval-char", "--level", "7", "--chi", "99", "--matrix", "1,1,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: character id out of range"]


def test_failed_check_exits_one(capsys, monkeypatch):
    from gamma0char import cli

    monkeypatch.setattr(
        cli.verify_mod, "verify_table2", lambda max_n: {"ok": False, "rows": []}
    )
    code, out = run_cli(capsys, "verify", "table2", "--max", "10")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_conjecture1_mismatch_exits_one(capsys, monkeypatch):
    from gamma0char import verify

    monkeypatch.setattr(verify, "beta", lambda n, l: n)  # beta(N, l) != beta(l, l) for l < N
    code, out = run_cli(capsys, "verify", "conjecture1", "--max", "12")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert {"N": 12, "l": 6, "beta_N_l": 12, "beta_l_l": 6} in doc["mismatches"]
    assert all(set(item) == {"N", "l", "beta_N_l", "beta_l_l"} for item in doc["mismatches"])


def test_prop21_counterexample_exits_one(capsys, monkeypatch):
    from gamma0char import verify

    monkeypatch.setattr(verify, "omega4", lambda x, y: 0)
    code, out = run_cli(capsys, "verify", "prop21", "--trials", "200")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert set(doc["counterexample"]) == {"x", "y"}
    assert all(len(doc["counterexample"][k]) == 4 for k in ("x", "y"))


# stdout of prop21 with the omega rule patched to 0, recorded while the check
# still ran on UniModular values and sl2.omega; the tuple path must find the
# same first counterexample
PINNED_COUNTEREXAMPLES = [
    (
        "verify prop21 --trials 200",
        '{"counterexample": {"x": [-3, 8, 1, -3], "y": [2, 3, 3, 5]}, "ok": false,'
        ' "seed": 0, "trials": 200}\n',
    ),
    (
        "--seed 7 verify prop21 --trials 3000",
        '{"counterexample": {"x": [-5, 4, 1, -1], "y": [-1, 1, 0, -1]}, "ok": false,'
        ' "seed": 7, "trials": 3000}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, expected", PINNED_COUNTEREXAMPLES, ids=[a for a, _ in PINNED_COUNTEREXAMPLES]
)
def test_prop21_counterexample_bytes_are_pinned(capsys, monkeypatch, argv, expected):
    from gamma0char import verify

    monkeypatch.setattr(verify, "omega4", lambda x, y: 0)
    code, out = run_cli(capsys, *argv.split())
    assert (code, out) == (1, expected)


@pytest.mark.parametrize(
    "argv",
    [
        "--seed -7 verify prop21 --trials 3000",
        "verify prop21 --trials 10 --seed -1",
        "--seed -7 verify dedekind-identity --trials 5",
        "verify kernel --level 7 --trials 5 --seed -3",
    ],
)
def test_negative_seed_exits_two_with_one_line(capsys, argv):
    # Random(-7) seeds like Random(7): the report would carry another seed's run
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: seed must be non-negative")


def test_theorem_violation_exits_one(capsys, monkeypatch):
    from gamma0char import cli
    from gamma0char.charformula import TheoremViolation

    def explode(trials, seed):
        raise TheoremViolation("witness: (n, c, d) = (2, 4, 3)")

    monkeypatch.setattr(cli.verify_mod, "verify_dedekind_identity", explode)
    code, out = run_cli(capsys, "verify", "dedekind-identity", "--trials", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "theorem-violation"
    assert "witness" in doc


@pytest.mark.parametrize(
    "exc",
    [RuntimeError("decomposition of (1,0;0,1) failed to close up"), ArithmeticError("x\ny")],
)
def test_internal_error_exits_three_with_one_line(capsys, monkeypatch, exc):
    from gamma0char import cli

    def explode(level, trials, seed):
        raise exc

    monkeypatch.setattr(cli.verify_mod, "verify_kernel", explode)
    code = main(["verify", "kernel", "--level", "7", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0] == f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}"


def _log_levels(cache_dir):
    """The header of each record in the directory's generator-cache log."""
    lines = (cache_dir / "gamma0-generators.log").read_text().split("\n")
    assert lines[0] == ""  # every record starts with a newline
    return [line.partition(" ")[0] for line in lines[1:]]


def test_cache_dir_used(tmp_path, capsys):
    code, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "generators", "--level", "17")
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["gamma0-generators.log"]
    assert _log_levels(tmp_path) == ["17"]


def test_failed_cache_write_exits_two_and_leaves_no_temp_file(tmp_path, capsys):
    # a directory in place of the log: the load misses, the append fails
    (tmp_path / "gamma0-generators.log").mkdir()
    assert main(["--cache-dir", str(tmp_path), "generators", "--level", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["gamma0-generators.log"]
    assert list((tmp_path / "gamma0-generators.log").iterdir()) == []


def test_cache_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAMMA0_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "generators", "--level", "19")
    assert code == 0
    assert _log_levels(tmp_path) == ["19"]


def test_module_entry_point():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("GAMMA0_CACHE_DIR", None)

    def cli(*argv):
        cmd = [sys.executable, "-m", "gamma0char.cli", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    done = cli("psi", "--matrix", "-2,1,-7,3")
    assert (done.returncode, json.loads(done.stdout), done.stderr) == (0, {"psi": 2}, "")
    done = cli("verify", "conjecture2", "--max", "0")
    assert (done.returncode, done.stdout) == (2, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
