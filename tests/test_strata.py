"""Strata of the pole divisor space and the cell-complex identities."""

from __future__ import annotations

import pytest

from rmfchi.strata import (
    MAX_CHAIN,
    MAX_DEGREE,
    CellKind,
    Relation,
    StratumSignature,
    cells_lambda,
    cells_real,
    chi_cover,
    chi_w_lambda,
    chi_w_real,
    enumerate_strata,
)


def _partition_count(m: int) -> int:
    # classic dynamic program, independent of the enumeration code
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]


def _expected_stratum_count(m: int) -> int:
    # choose sum(P) = a and sum(Q) = b with a + 2b = m, independently
    return sum(_partition_count(m - 2 * b) * _partition_count(b)
               for b in range(m // 2 + 1))


def test_degree_two_strata():
    found = enumerate_strata(2)
    assert [(s.real_mults, s.pair_mults) for s in found] == [
        ((), (1,)),
        ((2,), ()),
        ((1, 1), ()),
    ]
    assert sorted(s.dim for s in found) == [1, 2, 2]


def test_degree_one_and_zero():
    assert [(s.real_mults, s.pair_mults, s.dim)
            for s in enumerate_strata(1)] == [((1,), (), 1)]
    assert [(s.real_mults, s.pair_mults) for s in enumerate_strata(0)] \
        == [((), ())]


def test_stratum_weight_and_dim():
    s = StratumSignature((1, 2), (1,))
    assert s.weight == 5
    assert s.dim == 4


def test_counts_match_partition_oracle_up_to_20():
    for m in range(21):
        found = enumerate_strata(m)
        assert len(found) == _expected_stratum_count(m)
        assert all(s.weight == m for s in found)
        # order: coarser strata first, then lexicographic
        keys = [(len(s.real_mults) + len(s.pair_mults), s.real_mults,
                 s.pair_mults) for s in found]
        assert keys == sorted(keys)


def test_dim_bounded_by_weight():
    for m in range(13):
        for s in enumerate_strata(m):
            assert s.dim <= m
            if s.dim == m:
                assert all(x == 1 for x in s.real_mults + s.pair_mults)


def test_cells_real_shape():
    assert [(c.kind, c.dim) for c in cells_real(0)] == [(CellKind.REAL_FINITE, 0)]
    assert [(c.kind, c.dim) for c in cells_real(3)] == [
        (CellKind.REAL_FINITE, 3),
        (CellKind.REAL_INFINITY, 2),
    ]


def test_cells_lambda_shape():
    assert [c.dim for c in cells_lambda(1)] == [2]
    assert sorted(c.dim for c in cells_lambda(3)) == [4, 5, 5, 6]
    top = max(cells_lambda(3), key=lambda c: c.dim)
    assert top.relations == (Relation.STRICT, Relation.STRICT)
    for s in range(1, 9):
        assert len(cells_lambda(s)) == 1 << (s - 1)


def test_cells_lambda_order():
    # Cell number `mask` has link j weak exactly when bit j of mask is
    # set, and its dimension is 2 + 2 #strict + #weak.
    for s in range(1, 13):
        expected = []
        for mask in range(1 << (s - 1)):
            links = tuple(Relation.WEAK if mask >> j & 1 else Relation.STRICT
                          for j in range(s - 1))
            weak = links.count(Relation.WEAK)
            expected.append((CellKind.LAMBDA, 2 + 2 * (s - 1 - weak) + weak,
                             links))
        assert [(c.kind, c.dim, c.relations)
                for c in cells_lambda(s)] == expected


def test_exponential_inputs_are_capped():
    assert len(cells_lambda(MAX_CHAIN)) == 1 << (MAX_CHAIN - 1)
    for bad in (0, MAX_CHAIN + 1):
        with pytest.raises(ValueError):
            cells_lambda(bad)
    for bad in (-1, MAX_DEGREE + 1):
        with pytest.raises(ValueError):
            enumerate_strata(bad)


def test_chi_identities_exhaustive():
    for k in range(13):
        assert chi_w_real(k) == (1 if k == 0 else 0)
    for s in range(1, 13):
        assert chi_w_lambda(s) == (1 if s == 1 else 0)
    for r in range(13):
        for s in range(13):
            assert chi_cover(r, s) == (1 if r == 0 and s <= 1 else 0)


@pytest.mark.parametrize("build, message", [
    (lambda: StratumSignature((0, 1), ()), "multiplicities must be positive"),
    (lambda: StratumSignature((), (-1,)), "multiplicities must be positive"),
    (lambda: StratumSignature((2, 1), ()),
     "multiplicities must be non-decreasing"),
    (lambda: StratumSignature((1,), (3, 2)),
     "multiplicities must be non-decreasing"),
    (lambda: cells_real(-1), "k must be >= 0"),
    (lambda: chi_cover(-1, 0), "r and s must be >= 0"),
    (lambda: chi_cover(0, -1), "r and s must be >= 0"),
    # Non-integers once gave cells of dimension 1.5 and a complex chi.
    (lambda: cells_real(1.5), "k must be an integer"),
    (lambda: chi_w_real(1.5), "k must be an integer"),
    (lambda: cells_lambda(True), "s must be an integer"),
    (lambda: chi_w_lambda(2.0), "s must be an integer"),
    (lambda: chi_cover(1.5, 0), "r and s must be integers"),
    (lambda: chi_cover(0, True), "r and s must be integers"),
    (lambda: enumerate_strata(2.0), "m must be an integer"),
    (lambda: enumerate_strata(True), "m must be an integer"),
])
def test_bad_arguments_are_named(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
