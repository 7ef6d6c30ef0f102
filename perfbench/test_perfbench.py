"""Self-tests of the benchmark; run with ``python3 -m pytest -q perfbench``.

They run every workload at the tiny scale, so they take about half a minute.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def run_bench(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, section):
    report, result = last_lines(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    assert report["backend"] and report["environment"]["python"]


def copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))


@pytest.mark.parametrize("workload", ["scan-warm", "seeded-checks"])
def test_expected_digest_is_enforced(workload, tmp_path):
    report, _ = last_lines(run_bench(workload, 0))
    key = workloads.digest_key(workload, "tiny", 3)
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    table_path = tmp_path / "perfbench" / "expected_digests.json"
    table = json.loads(table_path.read_text())

    table[key] = report["digest"]
    table_path.write_text(json.dumps(table))
    report, result = last_lines(run_bench(workload, 0, cwd=tmp_path))
    assert report["digest_checked"] and result["correct"] and result["failed"] == 0

    table[key] = ("0" if report["digest"][0] != "0" else "1") + report["digest"][1:]
    table_path.write_text(json.dumps(table))
    report, result = last_lines(run_bench(workload, 0, cwd=tmp_path))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("scan-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_generated_elements_lie_in_gamma0():
    for seed in range(5):
        first = [workloads.gamma0_entries(random.Random(seed), n, 50, 1000) for n in (2, 7, 30)]
        again = [workloads.gamma0_entries(random.Random(seed), n, 50, 1000) for n in (2, 7, 30)]
        assert first == again
        for n, (a, b, c, d) in zip((2, 7, 30), first):
            assert a * d - b * c == 1 and c % n == 0 and c != 0


def test_stopwatch_scales_each_stretch_by_its_probes(monkeypatch):
    import worker

    ref = worker.PROBE_REF_S
    # the host is three times slower at the end of the stretch than at its start
    probes = iter([ref, 3 * ref])
    clock = iter([14.0, 15.0])
    monkeypatch.setattr(worker, "speed_probe", lambda: next(probes))
    monkeypatch.setattr(worker.time, "perf_counter", lambda: next(clock))
    watch = worker.Stopwatch(since=10.0 - ref)
    raw, scaled, _ = watch.split()
    assert raw == pytest.approx(4.0)
    assert scaled == pytest.approx(4.0 * 2 * ref / (ref + 3 * ref))
