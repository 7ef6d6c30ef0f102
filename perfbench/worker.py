"""One repeat of a workload in a fresh process.

The package keeps process-wide memo tables (``farey._memo`` and the
``lru_cache`` tables of ``sigma_matrix``, ``unit_group_structure`` and
``_dlog_table``), so every repeat runs in its own interpreter.  ``run.py``
starts this script with one JSON job as its argument; it prints one JSON
result line.

Jobs:
  {"mode": "fill", "workload", "seed", "scale", "cache_dir"}
      fill the generator cache for scan-warm through the code under test;
  {"mode": "batch", "workload", "seed", "scale", "cache_dir", "trace", "spans_out"}
      set up, run the timed batch, gate its outputs.

Every time is reported twice: as measured (``*_raw_s``) and scaled to the
reference host speed (see ``Stopwatch``).
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402

# The speed probe's time on the host where the benchmark was written, in its
# fast stretches (Intel Xeon, 2 vCPUs, Python 3.11).
PROBE_REF_S = 0.00125


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python Fraction and bignum work.

    The mix follows the package's: Fraction sums with small entries, and
    products and remainders of integers with hundreds of digits.
    """
    t = time.perf_counter()
    x, f, m = 0, Fraction(0), 10**40 + 7
    for i in range(1, 300):
        x = (x * 31 + i * 10**25) % m
        f += Fraction(i % 97, i % 13 + 1)
    y, z = 7**250, 3**300
    m = y * y + 1
    for i in range(150):
        z = (z * y + i) % m
        x = divmod(z, y + i)
    return time.perf_counter() - t


class Stopwatch:
    """Times stretches of work and scales each to the reference host speed.

    The host's speed changes by up to a factor of two within seconds (other
    tenants on the same cores).  ``lap()`` ends a stretch and runs the speed
    probe; a stretch's scaled time is its measured time times PROBE_REF_S
    over the mean of the probes at its two ends.  Probe time is not part of
    any stretch.
    """

    def __init__(self, since: float) -> None:
        self.probe = speed_probe()
        self.since = since + self.probe  # the probe is not part of the stretch
        self.cpu_since = time.process_time()
        self.raw = self.scaled = self.cpu = 0.0

    def lap(self) -> None:
        now, cpu_now = time.perf_counter(), time.process_time()
        probe = speed_probe()
        self.raw += now - self.since
        self.scaled += (now - self.since) * 2 * PROBE_REF_S / (self.probe + probe)
        self.cpu += cpu_now - self.cpu_since
        self.probe = probe
        self.since, self.cpu_since = time.perf_counter(), time.process_time()

    def split(self) -> tuple[float, float, float]:
        """(raw, scaled, CPU) seconds since the last split; starts the next one."""
        self.lap()
        out = self.raw, self.scaled, self.cpu
        self.raw = self.scaled = self.cpu = 0.0
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fill(job: dict) -> dict:
    watch = Stopwatch(START)
    gc = workloads.import_package()
    wl = workloads.WORKLOADS[job["workload"]]
    workloads.fill_cache(gc, wl.make_inputs(gc, job["seed"], job["scale"]), job["cache_dir"], watch.lap)
    raw, scaled, _ = watch.split()
    return {"fill_raw_s": raw, "fill_s": scaled}


def batch(job: dict) -> dict:
    watch = Stopwatch(START)
    gc = workloads.import_package()
    gc.farey.set_default_cache_dir(job["cache_dir"])
    wl = workloads.WORKLOADS[job["workload"]]
    inputs = wl.make_inputs(gc, job["seed"], job["scale"])
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(gc)
        tracer.install()
    setup_raw, setup, _ = watch.split()
    error = None
    try:
        outputs = wl.run(gc, inputs, watch.lap)
    except Exception:  # a failed batch is a result, counted by the gate below
        outputs, error = None, traceback.format_exc(limit=4)
    wall_raw, wall, cpu = watch.split()
    if tracer is not None:
        tracer.uninstall()

    if outputs is None:
        attempted = failed = wl.planned(inputs)
        record = None
    else:
        attempted, failed, record = wl.check(gc, inputs, outputs)
    result = {
        "setup_raw_s": setup_raw,
        "setup_s": setup,
        "wall_raw_s": wall_raw,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "backend": gc.kernels.backend_name(),
        "error": error,
        "digest": None,
        "digest_checked": False,
    }
    if record is not None:
        key = workloads.digest_key(job["workload"], job["scale"], job["seed"])
        expected = json.loads(workloads.EXPECTED_DIGESTS.read_text()).get(key)
        result["digest"] = workloads.digest(record)
        if expected is not None:
            result["digest_checked"] = True
            attempted += 1
            failed += expected != result["digest"]
    result["attempted"] = attempted
    result["failed"] = failed
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if job.get("spans_out"):
            tracer.write(job["spans_out"])
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    result = fill(job) if job["mode"] == "fill" else batch(job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
