"""Property tests drawn by Hypothesis.

``derandomize=True`` makes every run draw the same examples, so these tests
are as reproducible as the seeded ones; no example database is kept.
"""

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from random import Random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamma0char import farey
from gamma0char.charformula import KERNEL_LEVELS
from gamma0char.exact import dedekind_sum, dedekind_sum_fast, integer_rank
from gamma0char.farey import (
    build_generators,
    decompose,
    generators,
    load_cached_generators,
    reconstruct,
    save_cached_generators,
)
from gamma0char.kernels import psi4
from gamma0char.sampling import random_sl2, random_sl2_entries
from gamma0char.sl2 import I, NEG_I, T, Gamma0Element, UniModular, mul4, omega, pow4, psi, sigma

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

ROUNDTRIP_LEVELS = sorted(set(KERNEL_LEVELS) | {1, 6, 12, 30})


@st.composite
def generator_words(draw):
    """A level and a product of generator powers at that level."""
    n = draw(st.sampled_from(ROUNDTRIP_LEVELS))
    gens = generators(n)
    matrices = [g for _, g in gens.all_generators()]
    m = draw(st.sampled_from([I, NEG_I]))
    for g in draw(st.lists(st.sampled_from(matrices), max_size=10)):
        m = m * g ** draw(st.integers(-6, 6))
    return Gamma0Element(m, n)


@st.composite
def lower_rows(draw):
    """A level and an element built from a lower row (c, d) with N | c.

    Normal-form words grow linearly in the entries: the word of
    (1, 0, N*k, 1) has 3k letters at level 5 and 8k at level 30, and at
    level 1, where each T^j is spelled as 2|j| letters over {S, ST}, these
    rows reach about 50,000 letters.  So c stays at the sizes the benchmark
    draws (N * k, k <= 1000).
    """
    n = draw(st.sampled_from(ROUNDTRIP_LEVELS))
    c = n * draw(st.integers(1, 1000))
    d = draw(st.integers(-(10**5), 10**5))
    assume(gcd(c, d) == 1)
    a = pow(d, -1, c) + c * draw(st.integers(-3, 3))
    m = UniModular(a, (a * d - 1) // c, c, d)
    return Gamma0Element(-m if draw(st.booleans()) else m, n)


@PROPERTY
@given(st.one_of(generator_words(), lower_rows()))
def test_decompose_reconstruct_roundtrip(gamma):
    gens = generators(gamma.level)
    assert reconstruct(decompose(gamma, gens), gens) == gamma.matrix


@PROPERTY
@given(st.integers(0, 2**64), st.integers(1, 64), st.integers(1, 64))
def test_composition_law_on_random_words(seed, len_x, len_y):
    rng = Random(seed)
    x, y = random_sl2(rng, len_x), random_sl2(rng, len_y)
    assert psi(x * y) == psi(x) + psi(y) + omega(x, y)


@PROPERTY
@given(st.integers(0, 2**64), st.integers(-50, 50))
def test_psi4_of_a_conjugate_of_t_power_is_the_power(seed, k):
    # psi is a class invariant on trace-2 matrices, with psi(T^k) = k: the
    # lemma behind sigma_l(P_c) = w - w*gcd(c, l)^2/l in verify.sigma_rank
    a, b, c, d = m = random_sl2_entries(Random(seed))
    assert psi4(*mul4(mul4(m, pow4(T.entries(), k)), (d, -b, -c, a))) == k


# small entries make rank-deficient matrices common; huge ones test growth
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))


@st.composite
def integer_matrices(draw):
    """Up to 7 rows of 1 to 6 integer columns each."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(ENTRIES, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, max_size=7))


@PROPERTY
@given(integer_matrices())
def test_rank_of_transpose(m):
    rank = integer_rank(m)
    assert rank == integer_rank([list(col) for col in zip(*m)])
    assert rank <= min(len(m), len(m[0]) if m else 0)


@PROPERTY
@given(integer_matrices(), st.data())
def test_rank_under_row_permutation_and_scaling(m, data):
    rank = integer_rank(m)
    assert integer_rank(data.draw(st.permutations(m))) == rank
    if m:
        i = data.draw(st.integers(0, len(m) - 1))
        scale = data.draw(st.integers(-(10**12), 10**12).filter(bool))
        assert integer_rank(m[:i] + [[scale * x for x in m[i]]] + m[i + 1 :]) == rank


@PROPERTY
@given(integer_matrices(), st.data())
def test_rank_with_an_appended_combination(m, data):
    rank = integer_rank(m)
    if m:
        coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(m), max_size=len(m)))
        combination = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(len(m[0]))]
        position = data.draw(st.integers(0, len(m)))
        assert integer_rank(m[:position] + [combination] + m[position:]) == rank


@st.composite
def coprime_pairs(draw):
    h = draw(st.integers(1, 10**12))
    k = draw(st.integers(1, 10**12))
    assume(gcd(h, k) == 1)
    return h, k


@PROPERTY
@given(coprime_pairs())
def test_dedekind_reciprocity(pair):
    h, k = pair
    # s(h, k) + s(k, h) = -1/4 + (h/k + k/h + 1/(hk)) / 12
    rhs = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12
    assert dedekind_sum_fast(h, k) + dedekind_sum_fast(k, h) == rhs


@st.composite
def small_unimodular(draw):
    """Entries (a, b, c, d) of determinant 1 with |c| <= 10^4."""
    c = draw(st.integers(-(10**4), 10**4))
    if c == 0:
        a = d = draw(st.sampled_from((1, -1)))
        return a, draw(st.integers(-(10**6), 10**6)), 0, d
    d = draw(st.integers(-(10**6), 10**6))
    assume(gcd(c, d) == 1)
    a = pow(d, -1, abs(c)) + c * draw(st.integers(-50, 50))
    return a, (a * d - 1) // c, c, d


@PROPERTY
@given(small_unimodular())
def test_psi4_matches_four_case_formula_on_naive_sums(m):
    a, b, c, d = m
    if c > 0:
        expected = Fraction(a + d, c) - 12 * dedekind_sum(d, c) - 3
    elif c < 0:
        expected = Fraction(a + d, c) + 12 * dedekind_sum(d, -c) + 3
    else:
        expected = b if a > 0 else -b - 6
    assert psi4(a, b, c, d) == expected


@st.composite
def _wide_integers(draw):
    """An integer of k digits, k from 1 to 200, of either sign."""
    k = draw(st.integers(1, 200))
    return draw(st.integers(10 ** (k - 1), 10**k - 1)) * draw(st.sampled_from((1, -1)))


@st.composite
def wide_unimodular(draw):
    """Entries (a, b, c, d) of determinant 1 with c and d of up to 200 digits,
    each of either sign; c = 0 in about one draw in sixteen."""
    if draw(st.integers(0, 15)) == 0:
        a = d = draw(st.sampled_from((1, -1)))
        return a, draw(_wide_integers()), 0, d
    c = draw(_wide_integers())
    d = draw(_wide_integers())
    while gcd(c, d) != 1:
        d += 1
    a = pow(d, -1, abs(c)) + c * draw(st.integers(-50, 50))
    return a, (a * d - 1) // c, c, d


def _jacobi(x, n):
    """The Jacobi symbol (x/n) for odd n > 0, by quadratic reciprocity."""
    x %= n
    sign = 1
    while x:
        while x % 2 == 0:
            x //= 2
            if n % 8 in (3, 5):
                sign = -sign
        x, n = n, x
        if x % 4 == 3 and n % 4 == 3:
            sign = -sign
        x %= n
    return sign if n == 1 else 0


def _psi_mod_24(a, b, c, d):
    """psi(gamma) mod 24 from the closed form of the eta multiplier.

    In this package's normalisation (Petersson; M. Knopp, *Modular Functions
    in Analytic Number Theory*, 1970, ch. 4, Thm. 2; Rademacher-Grosswald,
    *Dedekind Sums*, 1972, ch. 4), for c > 0:
    c odd:  (a + d)c - bd(c^2 - 1) - 3c + 12 [(d/c) = -1];
    c even: (a - 2d)c - bd(c^2 - 1) + 3d - 3 + 12 [(c/|d|) = -1].
    For c < 0, psi(gamma) = psi(-gamma) + 6; for c = 0 the four-case formula.
    No step is a continued-fraction walk.
    """
    if c < 0:
        return (_psi_mod_24(-a, -b, -c, -d) + 6) % 24
    if c == 0:
        return (b if a > 0 else -b - 6) % 24
    if c % 2:
        value = (a + d) * c - b * d * (c * c - 1) - 3 * c + 12 * (_jacobi(d, c) == -1)
    else:
        value = (a - 2 * d) * c - b * d * (c * c - 1) + 3 * d - 3 + 12 * (_jacobi(c, abs(d)) == -1)
    return value % 24


@PROPERTY
@given(wide_unimodular())
def test_psi4_mod_24_matches_the_eta_multiplier_closed_form(m):
    # the naive-sum property above stops at |c| <= 10**4, and the frozen
    # walks in test_sl2 are Euclid walks like psi4's; this oracle is neither
    # and reaches 200-digit entries
    assert psi4(*m) % 24 == _psi_mod_24(*m)


@st.composite
def top_level_elements(draw):
    """A level l and an element of Gamma0(l) with |c| up to about 10^12."""
    l = draw(st.integers(2, 1000))
    c = l * draw(st.integers(1, 10**9)) * draw(st.sampled_from((1, -1)))
    d = draw(st.integers(-(10**12), 10**12))
    assume(gcd(c, d) == 1)
    a = pow(d, -1, abs(c))
    return Gamma0Element(UniModular(a, (a * d - 1) // c, c, d), l)


@PROPERTY
@given(top_level_elements())
def test_sigma_at_the_level_is_divisible_by_the_gcd_rule(gamma):
    # g(l) = gcd(l - 1, 12), or gcd(l - 1, 24) for square l, is
    # predicted_beta(l) (test_beta_table_is_the_gcd_rule), which equals
    # beta(l, l), the gcd of sigma_l over Gamma0(l), so it divides sigma_l at
    # entries far beyond those of the generators
    l = gamma.level
    g = gcd(l - 1, 24 if isqrt(l) ** 2 == l else 12)
    assert sigma(gamma, l) % g == 0


@PROPERTY
@given(st.integers(2, 400))  # level 1 has no symbol and is never cached
def test_cache_save_then_load_roundtrip(n):
    gens = build_generators(n)
    with tempfile.TemporaryDirectory() as cache_dir:
        save_cached_generators(gens, cache_dir)
        log = Path(cache_dir, "gamma0-generators.log")
        assert os.listdir(cache_dir) == [log.name]
        assert log.read_text() == f"\n{n} {json.dumps(farey._cache_doc(gens), sort_keys=True)}"
        loaded = load_cached_generators(n, cache_dir)
        del farey._log_index[cache_dir]  # the directory goes with the example
    assert loaded is not None
    assert loaded.counts() == gens.counts()
    assert (loaded.free, loaded.elliptic2, loaded.elliptic3) == (
        gens.free,
        gens.elliptic2,
        gens.elliptic3,
    )
    assert loaded.symbol == gens.symbol


LOG_LEVELS = (2, 3, 5, 11, 13)  # level 1 has no record


@st.composite
def cache_logs(draw):
    """Appends to a generator-cache log as writers and damage leave them:
    (level, kind, cut) with kind "good" (a level's record), "torn" (a good
    record cut after its header), "foreign" (another level's document under
    the level's header) or "junk" (a line with no numeric header)."""
    kinds = st.sampled_from(("good", "torn", "foreign", "junk"))
    entry = st.tuples(st.sampled_from(LOG_LEVELS), kinds, st.integers(0, 10**6))
    return draw(st.lists(entry, max_size=12))


def _record(n, kind, cut):
    text = json.dumps(farey._cache_doc(build_generators(n)), sort_keys=True)
    if kind == "torn":
        return f"\n{n} {text[: cut % len(text)]}"
    if kind == "foreign":
        other = LOG_LEVELS[(LOG_LEVELS.index(n) + 1) % len(LOG_LEVELS)]
        return f"\n{n} {json.dumps(farey._cache_doc(build_generators(other)), sort_keys=True)}"
    if kind == "junk":
        return ("\n-{n} {text}", "\nx{n} {text}", "\n {text}")[cut % 3].format(n=n, text=text)
    return f"\n{n} {text}"


@PROPERTY
@given(cache_logs(), st.lists(st.sampled_from(LOG_LEVELS), min_size=12, max_size=12))
def test_cache_log_loads_a_good_record_of_each_level_or_misses(appends, probes):
    # a load between appends, through the live index, finds a right set or
    # misses; a fresh index finds exactly the levels with a good record
    with tempfile.TemporaryDirectory() as cache_dir:
        good = set()
        for (n, kind, cut), probe in zip(appends, probes):
            with open(os.path.join(cache_dir, "gamma0-generators.log"), "a") as log:
                log.write(_record(n, kind, cut))
            if kind == "good":
                good.add(n)
            loaded = load_cached_generators(probe, cache_dir)
            assert loaded is None or loaded == build_generators(probe)
            # the live index misses only a level with no good record
            assert (loaded is None) == (probe not in good), probe
        farey._log_index.pop(cache_dir, None)
        for n in LOG_LEVELS:
            loaded = load_cached_generators(n, cache_dir)
            assert loaded == (build_generators(n) if n in good else None), n
        farey._log_index.pop(cache_dir, None)


def test_a_failing_property_is_reported_as_one_failure(tmp_path):
    # run under this repository's pytest settings, where warnings are errors:
    # Hypothesis's report of a failure must not end the run in INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n > 0\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
