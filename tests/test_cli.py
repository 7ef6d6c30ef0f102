"""Command line interface: subcommands, output formats, exit codes."""

import csv
import io
import json

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
    code, out = run_cli(
        capsys,
        "eval-char",
        "--level", "7",
        "--chi", "0",
        "--r1", "1",
        "--rl", "7=0",
        "--matrix", "-2,1,-7,3",
    )
    assert code == 0
    assert json.loads(out) == {"value": "1/6"}


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
    _, as_json = run_cli(capsys, "rank", "--level", "10")
    _, as_csv = run_cli(capsys, "--output", "csv", "rank", "--level", "10")
    doc = json.loads(as_json)
    rows = list(csv.reader(io.StringIO(as_csv)))
    header, values = rows
    assert set(header) == set(doc)
    as_map = dict(zip(header, values))
    for key, value in doc.items():
        assert as_map[key] == str(value)


def test_plain_output(capsys):
    _, out = run_cli(capsys, "--output", "plain", "psi", "--matrix", "1,1,0,1")
    assert out.strip() == "psi=1"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["psi"])  # missing --matrix
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["generators", "--level", "5", "--json"])  # JSON is the default output
    assert info.value.code == 2


def test_invalid_matrix_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["psi", "--matrix", "1,2,3,4"])  # determinant != 1
    assert info.value.code == 2


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


def test_cache_dir_used(tmp_path, capsys):
    code, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "generators", "--level", "17")
    assert code == 0
    assert (tmp_path / "gamma0-generators-17.json").exists()


def test_failed_cache_write_exits_two_and_leaves_no_temp_file(tmp_path, capsys):
    (tmp_path / "gamma0-generators-17.json").mkdir()
    assert main(["--cache-dir", str(tmp_path), "generators", "--level", "17"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["gamma0-generators-17.json"]


def test_cache_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GAMMA0_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "generators", "--level", "19")
    assert code == 0
    assert (tmp_path / "gamma0-generators-19.json").exists()
