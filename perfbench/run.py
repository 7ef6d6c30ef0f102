#!/usr/bin/env python3
"""Benchmark for gamma0char: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload scan-cold --seed 1 --seconds 20 --trace 0

Each repeat of the workload's fixed batch runs in a fresh worker process
(worker.py) with a private, initially empty generator cache, until the run has
used its --seconds.  For scan-warm, a fill process fills that cache before
each repeat.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
medians over the repeats.  The times are scaled to a reference host speed
that a probe measures between chunks of the batch (worker.Stopwatch), since
the host's own speed changes within seconds.  With --trace 1 untraced and
traced repeats alternate and the metrics are the per-layer ones, medians
over the traced repeats.  The line before it describes the environment and
every repeat; the same description is kept under perfbench/_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
MIN_REPEATS = 3  # untraced repeats, so that every end-to-end time is a median
MIN_TRACED_ROUNDS = 2  # rounds of one untraced and one traced repeat
RUN_LIMIT_S = 170  # a run ends well inside the 180 s a caller allows it
CLEARED_ENV = ("GAMMA0_CACHE_DIR", "GAMMA0CHAR_PURE")
# numpy's OpenBLAS threads spin on the second core after import; the package
# never calls BLAS, so one thread removes that noise without changing results
WORKER_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}
# what the report keeps of each repeat
REPEAT_KEYS = (
    "setup_s", "setup_raw_s", "fill_s", "fill_raw_s", "wall_s", "wall_raw_s", "cpu_s", "peak_rss_mb"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", choices=sorted(workloads.SCALES), default="full", help="tiny is for the self-tests"
    )
    return parser.parse_args(argv)


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "git_commit": commit,
        "cleared_env": {name: os.environ.get(name) for name in CLEARED_ENV},
        "worker_env": WORKER_ENV,
    }


class Runner:
    def __init__(self, args, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.start = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        self.env.update(WORKER_ENV)
        self.spans_written = False

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def job(self, mode: str, cache_dir: Path, trace: bool = False) -> dict:
        spans = None
        if trace and not self.spans_written:
            # the spans of the first traced repeat are kept; the rest agree in shape
            spans = OUT / "spans" / f"{self.args.workload}-seed{self.args.seed}.tsv.gz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            self.spans_written = True
        spec = {
            "mode": mode,
            "workload": self.args.workload,
            "seed": self.args.seed,
            "scale": self.args.scale,
            "cache_dir": str(cache_dir),
            "trace": trace,
            "spans_out": str(spans) if spans else None,
        }
        remaining = RUN_LIMIT_S - self.elapsed()
        if remaining <= 0:
            raise BenchError(f"out of time after {self.elapsed():.1f} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} job did not finish within {remaining:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} job exited {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(lines[-1])

    def repeat(self, trace: bool) -> dict:
        """One repeat in a fresh, private cache; scan-warm fills it first."""
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        try:
            fill = {"fill_raw_s": 0.0, "fill_s": 0.0}
            if self.args.workload == "scan-warm":
                fill = self.job("fill", cache_dir)
            result = self.job("batch", cache_dir, trace)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        result.update(fill)
        result["setup_raw_s"] += fill["fill_raw_s"]
        result["setup_s"] += fill["fill_s"]
        return result

    def batches(self, kinds: tuple[bool, ...]) -> dict[bool, list[dict]]:
        """Run rounds of one repeat per kind (False: untraced, True: traced).

        A new round starts while fewer than min_rounds rounds are done, or
        while the last round's duration still fits in --seconds.
        """
        results: dict[bool, list[dict]] = {kind: [] for kind in kinds}
        min_rounds = MIN_REPEATS if len(kinds) == 1 else MIN_TRACED_ROUNDS
        rounds = 0
        last = 0.0
        while rounds < min_rounds or self.elapsed() + last <= self.args.seconds:
            began = time.perf_counter()
            for kind in kinds:
                results[kind].append(self.repeat(kind))
            last = time.perf_counter() - began
            rounds += 1
        return results


def run(args) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(args, workdir)
        results = runner.batches((False, True) if args.trace else (False,))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = results[False]
    everything = [r for rs in results.values() for r in rs]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    digests = sorted({r["digest"] for r in everything if r["digest"]})
    errors = [r["error"] for r in everything if r["error"]]
    correct = failed == 0 and not errors and len(digests) == 1

    values: dict = {}
    if args.trace:
        traced = results[True]
        for name in traced[0]["layers"]:
            values[name] = statistics.median([r["layers"][name] for r in traced])
        untraced_wall = statistics.median([r["wall_s"] for r in plain])
        values["trace.overhead_ratio"] = statistics.median([r["wall_s"] for r in traced]) / untraced_wall - 1
        values["run.wall_raw_s"] = statistics.median([r["wall_raw_s"] for r in plain])
        values["run.cpu_s"] = statistics.median([r["cpu_s"] for r in plain])
        values["run.wait_s"] = statistics.median([r["wall_raw_s"] - r["cpu_s"] for r in plain])
        values["run.attempted"] = attempted
        values["fail_ratio"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        values["wall_s"] = statistics.median([r["wall_s"] for r in plain])
        values["setup_s"] = statistics.median([r["setup_s"] for r in plain])
        values["peak_rss_mb"] = statistics.median([r["peak_rss_mb"] for r in plain])
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "backend": sorted({r["backend"] for r in everything}),
        "environment": environment(),
        "digest": digests[0] if len(digests) == 1 else digests,
        "digest_checked": all(r["digest_checked"] for r in everything),
        "errors": errors,
        "repeats": {
            "untraced": [{k: r[k] for k in REPEAT_KEYS} for r in plain],
            "traced": [{k: r[k] for k in REPEAT_KEYS} for r in results.get(True, [])],
        },
        "run_s": runner.elapsed(),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "gamma0char" / "__init__.py").is_file():
        print(f"error: no gamma0char sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(report | {"result": result}, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
