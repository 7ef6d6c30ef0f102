"""Per-layer tracing of gamma0char from outside the package.

The tracer wraps public functions of the library and patches each wrapper in
every gamma0char module that holds the original, so that callers which did
``from .farey import generators`` see it as well.  Each call records a span
(name, start, end, parent) in flat arrays; derived counters (cache hits,
entry sizes, letters per word) are taken from the arguments and results at
the same boundary.  Spans stay in memory and are written out after the timed
batch; ``metrics()`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

from workloads import PSI_ENTRY_BOUND

# (module, function) pairs that get a span; the first group are the layers the
# benchmark reports, the verify entry points only give the spans a root.
WRAPPED = (
    ("farey", "farey_symbol"),
    ("farey", "build_generators"),
    ("farey", "generators"),
    ("farey", "load_cached_generators"),
    ("farey", "save_cached_generators"),
    ("farey", "decompose"),
    ("kernels", "psi4"),
    ("charformula", "sigma_matrix"),
    ("charformula", "eval_character"),
    ("charformula", "kernel_exponent_check"),
    ("charformula", "dedekind_identity_quotient"),
    ("exact", "integer_rank"),
    ("exact", "dedekind_sum_fast"),
    ("dirichlet", "evaluate"),
    ("sl2", "psi"),
    ("sl2", "omega"),
    ("verify", "verify_conjecture1"),
    ("verify", "verify_conjecture2"),
    ("verify", "verify_conjecture3"),
    ("verify", "verify_prop21"),
    ("verify", "verify_dedekind_identity"),
)

# layers whose call count and self time are reported
TIMED_LAYERS = (
    "farey.farey_symbol",
    "kernels.psi4",
    "exact.integer_rank",
    "charformula.eval_character",
    "dirichlet.evaluate",
    "sl2.psi",
    "farey.decompose",
    "sl2.omega",
    "exact.dedekind_sum_fast",
)
# layers whose self time alone is reported
SELF_TIME_LAYERS = (
    "farey.build_generators",
    "charformula.sigma_matrix",
    "farey.load_cached_generators",
    "farey.save_cached_generators",
    "charformula.dedekind_identity_quotient",
)


def _digits(x: int) -> int:
    return len(str(abs(x)))


def level_percentiles(times_ms: list[float]) -> dict:
    """Median and tail of per-level times.

    The tail is the highest of the 99th, 95th, 90th and 75th percentiles that
    has at least ten levels beyond it; the median stands in when none has.
    """
    if not times_ms:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 50}
    ordered = sorted(times_ms)
    p50 = statistics.median(ordered)
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
            return {"p50": p50, "tail": cut, "tail_pct": pct}
    return {"p50": p50, "tail": p50, "tail_pct": 50}


class Tracer:
    def __init__(self, gc) -> None:
        self.gc = gc
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.level_span: dict[int, int] = {}
        self.seen_levels: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items() if name == "gamma0char" or name.startswith("gamma0char.")
        ]
        hooks = {
            "kernels.psi4": self._after_psi4,
            "farey.generators": self._after_generators,
            "farey.load_cached_generators": self._after_load,
            "farey.decompose": self._after_decompose,
            "charformula.sigma_matrix": self._after_sigma_matrix,
        }
        for module_name, attr in WRAPPED:
            name = f"{module_name}.{attr}"
            original = getattr(getattr(self.gc, module_name), attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn, after):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, errors = self.stack, self.errors

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, idx)
            return result

        return wrapper

    # -- counters taken at the boundaries -----------------------------------

    def _after_psi4(self, args, result, idx) -> None:
        m = max(abs(args[0]), abs(args[1]), abs(args[2]), abs(args[3]))
        if m > PSI_ENTRY_BOUND:
            self.counts["psi4.over_bound"] += 1
        if m > self.maxima["psi4.entry"]:
            self.maxima["psi4.entry"] = m

    def _after_generators(self, args, gens, idx) -> None:
        if gens.level in self.seen_levels:
            return
        self.seen_levels.add(gens.level)
        if gens.symbol is not None:
            self.counts["farey.vertices"] += len(gens.symbol.vertices)
            q = max(abs(v[1]) for v in gens.symbol.vertices)
            self.maxima["farey.denominator"] = max(self.maxima["farey.denominator"], q)
        entry = max(max(abs(x) for x in g.entries()) for _, g in gens.all_generators())
        self.maxima["farey.generator_entry"] = max(self.maxima["farey.generator_entry"], entry)

    def _after_load(self, args, gens, idx) -> None:
        self.counts["cache.misses" if gens is None else "cache.hits"] += 1

    def _after_decompose(self, args, word, idx) -> None:
        self.counts["decompose.letters"] += len(word.letters)

    def _after_sigma_matrix(self, args, result, idx) -> None:
        self.level_span.setdefault(result.level, idx)

    # -- reduction ------------------------------------------------------------

    def metrics(self) -> dict:
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        generators_in = Counter()  # time in farey.generators under each span
        gen_id = self.names.index("farey.generators")
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
                if self.span_name[i] == gen_id:
                    generators_in[p] += dur[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]

        out: dict = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["farey.vertices.total"] = self.counts["farey.vertices"]
        out["farey.denominator.max_digits"] = _digits(self.maxima["farey.denominator"])
        out["farey.generator_entry.max_digits"] = _digits(self.maxima["farey.generator_entry"])
        psi_calls = calls["kernels.psi4"]
        out["kernels.psi4.max_entry_digits"] = _digits(self.maxima["psi4.entry"])
        out["kernels.psi4.over_bound_ratio"] = (
            self.counts["psi4.over_bound"] / psi_calls if psi_calls else 0.0
        )
        level_ms = [
            (dur[i] - generators_in[i]) * 1000.0 for i in self.level_span.values()
        ]
        pct = level_percentiles(level_ms)
        out["charformula.sigma_matrix.level_p50_ms"] = pct["p50"]
        out["charformula.sigma_matrix.level_tail_ms"] = pct["tail"]
        out["charformula.sigma_matrix.level_tail_pct"] = pct["tail_pct"]
        out["charformula.sigma_matrix.levels"] = len(level_ms)
        out["farey.cache.hits"] = self.counts["cache.hits"]
        out["farey.cache.misses"] = self.counts["cache.misses"]
        out["farey.cache.writes"] = calls["farey.save_cached_generators"]
        out["farey.decompose.letters_total"] = self.counts["decompose.letters"]
        for module_name, attr in WRAPPED:
            name = f"{module_name}.{attr}"
            out[f"{name}.errors"] = self.errors[name]
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """Write the spans as gzip'd TSV: index, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )
