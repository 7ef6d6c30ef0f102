"""The sigma matrix read only until its level is decided, against the full matrix.

``sigma_matrix`` stops reading a column l < N once the gcd of its prefix
equals the floor beta(l, l) from ``_beta_table``, and stops reading full rows
once their rank is t - 1.  The oracle is the former ``sigma_matrix``, frozen
below, which reads every row over every column.
"""

import math
from collections import Counter
from dataclasses import dataclass

import pytest

from gamma0char import charformula
from gamma0char.charformula import beta, sigma_matrix
from gamma0char.dirichlet import divisors
from gamma0char.exact import EchelonBasis, integer_rank
from gamma0char.farey import generators
from gamma0char.kernels import psi4
from gamma0char.sl2 import psi_conjugate


@dataclass(frozen=True)
class ParentSigmaMatrix:
    level: int
    cols: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]


# the frozen oracle's own beta table, so that it never feeds the floors
_parent_beta_table: dict[int, dict[int, int]] = {}


def parent_sigma_matrix(n: int) -> ParentSigmaMatrix:
    """The r x (t-1) integer matrix of sigma values at level n >= 2.

    Each call builds the matrix afresh and records its column gcds, the
    beta(n, l), for ``beta``.
    """
    if n < 2:
        raise ValueError(f"level must be at least 2, got {n}")
    # every free generator lies in Gamma0(n), so each column l divides its c
    cols = tuple(l for l in divisors(n) if l > 1)
    rows = []
    for g in generators(n).free:
        a, b, c, d = g.a, g.b, g.c, g.d
        psi_g = psi4(a, b, c, d)
        rows.append(tuple([psi_g - psi_conjugate(a, b, c, d, l) for l in cols]))
    _parent_beta_table[n] = {l: math.gcd(*col) for l, col in zip(cols, zip(*rows))}
    return ParentSigmaMatrix(n, cols, tuple(rows))


@pytest.fixture
def empty_table(monkeypatch):
    """A fresh, empty ``_beta_table`` for the test; the module's is restored."""
    table: dict[int, dict[int, int]] = {}
    monkeypatch.setattr(charformula, "_beta_table", table)
    return table


def counted_sigma_matrix(monkeypatch, n):
    """sigma_matrix(n) with its psi4 calls counted: the matrix, the number of
    psi_conjugate calls per column l, and the total number of psi4 calls."""
    direct = Counter()
    per_column = Counter()

    def count_psi4(a, b, c, d):
        direct["psi4"] += 1
        return psi4(a, b, c, d)

    def count_conjugate(a, b, c, d, l):
        per_column[l] += 1
        return psi_conjugate(a, b, c, d, l)

    with monkeypatch.context() as patch:
        patch.setattr(charformula, "psi4", count_psi4)
        patch.setattr(charformula, "psi_conjugate", count_conjugate)
        mat = sigma_matrix(n)
    return mat, per_column, direct["psi4"] + sum(per_column.values())


def fill_floors(n):
    """Visit every divisor 1 < l < n, so the table holds each floor beta(l, l)."""
    for l in divisors(n)[1:-1]:
        sigma_matrix(l)


def test_scan_order_matches_the_full_matrix_oracle(empty_table):
    early = 0
    for n in range(2, 601):
        mat = sigma_matrix(n)
        unread = len(mat.unread)
        old = parent_sigma_matrix(n)
        assert mat.level == n and mat.cols == old.cols, n
        assert mat.rank == integer_rank(old.entries), n
        assert empty_table[n] == _parent_beta_table[n], n
        assert [beta(n, l) for l in mat.cols] == [_parent_beta_table[n][l] for l in old.cols]
        assert mat.entries == old.entries, n
        early += unread > 0
    # most levels stop reading full rows early
    assert early > 400


def test_fewer_psi4_calls_than_the_full_matrix(empty_table, monkeypatch):
    n = 288
    fill_floors(n)
    mat, per_column, calls = counted_sigma_matrix(monkeypatch, n)
    r, t = len(generators(n).free), len(divisors(n))
    assert calls < r * t // 2
    # column n is read over every row; every other column stops early
    assert per_column[n] == r
    assert all(per_column[l] < r for l in mat.cols[:-1])
    assert mat.rank == t - 1 and len(mat.read) < r
    old = parent_sigma_matrix(n)
    assert empty_table[n] == _parent_beta_table[n]
    assert mat.entries == old.entries


@pytest.mark.parametrize("floor", ["unreachable", 0, -1])
def test_a_floor_that_is_not_met_reads_the_whole_column(empty_table, monkeypatch, floor):
    n, l = 288, 4
    fill_floors(n)
    # sigma_l(T) = 1 - l, so every prefix gcd divides l - 1 and never equals l;
    # a zero or negative floor is ignored
    value = l if floor == "unreachable" else floor
    monkeypatch.setitem(empty_table, l, {l: value})
    mat, per_column, _ = counted_sigma_matrix(monkeypatch, n)
    r = len(generators(n).free)
    assert per_column[l] == r
    assert all(per_column[k] < r for k in mat.cols[:-1] if k != l)
    parent_sigma_matrix(n)
    assert empty_table[n] == _parent_beta_table[n]
    assert beta(n, l) == _parent_beta_table[n][l] == 3  # beta(4, 4)


def test_a_standalone_level_reads_every_row(empty_table, monkeypatch):
    n = 288
    mat, per_column, calls = counted_sigma_matrix(monkeypatch, n)
    r, t = len(generators(n).free), len(divisors(n))
    assert calls == r * t
    assert all(per_column[l] == r for l in mat.cols)
    assert len(mat.read) == r and not mat.unread
    assert mat.entries == parent_sigma_matrix(n).entries
    assert empty_table == {n: _parent_beta_table[n]}


def test_echelon_basis_reports_the_rank_of_each_prefix():
    mat = parent_sigma_matrix(60)
    echelon = EchelonBasis()
    for i, row in enumerate(mat.entries, 1):
        assert echelon.add(row) == integer_rank(mat.entries[:i])
    assert echelon.add([0] * len(mat.cols)) == integer_rank(mat.entries)
