"""Graph enumeration: frozen counts, guards, and the brute-force oracle."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace
from itertools import product

import pytest
from test_acceptance import _graph_model_types

from rmfchi import enumerator
from rmfchi.decograph import (
    Color,
    DecoratedGraph,
    Edge,
    Vertex,
    ZeroIndexError,
    canonical_key,
    check_nonsep,
    check_sep,
    find_gammas,
    strip_gamma,
)
from rmfchi.enumerator import (
    DEFAULT_WORK_LIMIT,
    EnumerationBounds,
    FullDegreeError,
    GammaMode,
    WorkLimitExceeded,
    WorkMeter,
    bounds_for,
    enum_nonsep,
    enum_nonsep_naive,
    enum_sep,
    enum_sep_naive,
)
from rmfchi.topotype import (
    NonExistentTypeError,
    Variant,
    nonsep,
    parse_type,
    sep,
    sepext,
)


def test_frozen_nonsep_counts():
    assert len(enum_nonsep(nonsep(1, 3, (1,)))) == 1
    assert len(enum_nonsep(nonsep(0, 4, ()))) == 2
    assert len(enum_nonsep(nonsep(1, 4, ()))) == 2
    assert len(enum_nonsep(nonsep(1, 4, ()), involution=False)) == 3
    assert len(enum_nonsep(nonsep(1, 5, (1,)))) == 3
    assert len(enum_nonsep(nonsep(2, 5, (1,)))) == 3
    assert len(enum_nonsep(nonsep(2, 5, (3,)))) == 1


def test_frozen_sep_counts():
    assert len(enum_sep(sep(3, 6, (1, -1)))) == 9
    assert len(enum_sep(sep(1, 3, (1, 2)), allow_full_degree=True)) == 1
    assert len(enum_sep(sep(1, 5, (1, 2)))) == 1
    assert len(enum_sep(sep(1, 5, (-1, 2)))) == 1
    assert len(enum_sep(sep(1, 2, (1, 1)), allow_full_degree=True)) == 1


def test_outputs_are_sorted_valid_and_distinct():
    t = nonsep(2, 5, (1,))
    graphs = enum_nonsep(t)
    keys = [canonical_key(g) for g in graphs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for g in graphs:
        assert check_nonsep(g, t).ok

    t = sep(3, 6, (1, -1))
    graphs = enum_sep(t)
    keys = [canonical_key(g) for g in graphs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for g in graphs:
        assert check_sep(g, t).ok


def test_gamma_modes():
    t = nonsep(1, 4, ())
    as_data = enum_nonsep(t, gamma_mode=GammaMode.AS_DATA)
    existence = enum_nonsep(t, gamma_mode=GammaMode.EXISTENCE)
    assert len(existence) <= len(as_data)
    # underlying graphs agree: same plain canonical keys either way
    from rmfchi.decograph import strip_gamma
    plain = lambda gs: sorted(canonical_key(strip_gamma(g)) for g in gs)
    assert sorted(set(plain(as_data))) == plain(existence)
    for g in as_data + existence:
        assert g.gamma is not None


def test_enumeration_guards():
    with pytest.raises(FullDegreeError):
        enum_sep(sep(1, 3, (1, 2)))
    with pytest.raises(ZeroIndexError):
        enum_sep(sep(1, 2, (0, 0)), allow_full_degree=True)
    with pytest.raises(ZeroIndexError):
        enum_nonsep(nonsep(2, 4, (0, 2)))
    with pytest.raises(NonExistentTypeError):
        enum_nonsep(nonsep(0, 3, (3,)))
    with pytest.raises(ValueError):
        enum_nonsep(sep(1, 3, (1, 2)))
    with pytest.raises(ValueError):
        enum_sep(nonsep(1, 3, (1,)))
    with pytest.raises(ValueError):
        bounds_for(sepext(3, 4, (-1, 1), 0))


def test_bounds():
    b = bounds_for(nonsep(2, 5, (1,)))
    assert b.edge_weight_sum == 6
    assert b.genus_budget == 1
    assert b.white_root_weights == (1,) and b.black_root_weights == (1,)
    assert b.balanced and b.max_edges == 6

    b = bounds_for(sep(3, 6, (1, -1)))
    assert b.edge_weight_sum == 4
    assert b.genus_budget == 1
    assert b.white_root_weights == (1,) and b.black_root_weights == (1,)
    assert not b.balanced

    # each root edge carries its whole index, every other edge weighs 1+
    b = bounds_for(nonsep(3, 6, (2, 2)))
    assert b.edge_weight_sum == 10 and b.max_edges == 6

    b = bounds_for(sep(3, 8, (3, 3)))
    assert b.edge_weight_sum == 7 and b.max_edges == 3
    assert b.white_root_weights == () and b.black_root_weights == (3, 3)


def test_tight_edge_bound_loses_nothing(monkeypatch):
    # Under the loose bound (every edge weighs at least 1) the census
    # must return the same graphs, representatives and order.
    types = _graph_model_types(2, 5, 3)
    assert len(types) == 44
    assert any(bounds_for(t).max_edges < bounds_for(t).edge_weight_sum
               for t in types)

    def censuses():
        return [enum_nonsep(t) if t.variant is Variant.NONSEP
                else enum_sep(t, allow_full_degree=True) for t in types]

    tight = censuses()
    monkeypatch.setattr(EnumerationBounds, "max_edges",
                        property(lambda b: b.edge_weight_sum))
    assert censuses() == tight


def test_bounded_compositions_are_the_filtered_ones():
    for total in range(7):
        for slots in range(5):
            rows = list(enumerator._compositions(total, slots))
            for cap in product(range(total + 1), repeat=slots):
                for ties in product((False, True), repeat=max(slots - 1, 0)):
                    assert list(enumerator._compositions_upto(
                        total, cap, ties)) == [
                        row for row in rows if row <= cap
                        and all(row[j] >= row[j + 1]
                                for j in range(slots - 1) if ties[j])]


def _connected(mat) -> bool:
    # the matrix as a bipartite graph, one unit edge per multiplicity
    n_w = len(mat)
    vertices = ((Vertex(Color.WHITE),) * n_w
                + (Vertex(Color.BLACK),) * len(mat[0]))
    edges = tuple(Edge(i, n_w + j, 1) for i, row in enumerate(mat)
                  for j, m in enumerate(row) for _ in range(m))
    return DecoratedGraph(vertices, edges).is_connected()


def _reference_shapes(n_w: int, n_b: int, total: int):
    # Every matrix with its rows sorted descending and every column
    # covered, kept when connected and canonical, in the order the
    # shape search yields them: by row sum, then row, row by row.
    rows = sorted((row for row in product(range(total + 1), repeat=n_b)
                   if 0 < sum(row) <= total), reverse=True)
    found = []

    def extend(mat, remaining: int, start: int):
        if len(mat) == n_w:
            if (remaining == 0 and all(map(any, zip(*mat)))
                    and _connected(mat)
                    and enumerator._is_canonical(mat, n_b)):
                found.append(mat)
            return
        for k in range(start, len(rows)):
            if sum(rows[k]) <= remaining:
                extend(mat + (rows[k],), remaining - sum(rows[k]), k)

    extend((), total, 0)
    return sorted(found, key=lambda mat: [(sum(row), row) for row in mat])


def test_pruned_shapes_are_the_filtered_ones():
    # Pruning partial matrices by column order and root demand must
    # keep exactly the shapes with enough degree-1 rows and columns.
    for n_w in range(1, 5):
        for n_b in range(1, 5):
            for total in range(1, 9):
                shapes = _reference_shapes(n_w, n_b, total)
                for white_roots, black_roots in product(range(3), repeat=2):
                    expected = [
                        mat for mat in shapes
                        if sum(sum(row) == 1 for row in mat) >= white_roots
                        and sum(sum(col) == 1 for col in zip(*mat))
                        >= black_roots]
                    assert list(enumerator._shapes(
                        n_w, n_b, total, white_roots, black_roots,
                        WorkMeter())) == expected


def test_shape_search_stays_pruned():
    # Before rows were pruned by column order and root demand this
    # census completed 152,311 matrices, and it took 7,310 ticks before
    # connectivity was decided row by row.  The limit is work, not
    # time, so a slide back to wasteful generation fails on any machine.
    meter = WorkMeter(limit=2_211)
    graphs = enum_nonsep(nonsep(2, 8, (1, 1)), meter=meter)
    assert len(graphs) == 17
    assert meter.used == 2_211


def _unfiltered_nonsep(t, gamma_mode, involution):
    # The census as it ran before decorations were filtered by vertex
    # invariants: every plain class is keyed and asked for its gammas.
    found = {}
    for _, plain in enumerator._plain_classes(bounds_for(t), WorkMeter()):
        for gam in find_gammas(plain, involution):
            g = replace(plain, gamma=gam)
            found.setdefault(canonical_key(g), g)
    graphs = [g for _, g in sorted(found.items())]
    if gamma_mode is GammaMode.EXISTENCE:
        graphs = enumerator._existence_projection(graphs)
    return graphs


def test_swap_filter_changes_nothing():
    # Dropping color-asymmetric decorations before keying must keep the
    # same representatives, byte for byte, in the same order.
    conventions = ((GammaMode.AS_DATA, True), (GammaMode.EXISTENCE, True),
                   (GammaMode.AS_DATA, False))
    for text in ("1,4,0|", "2,5,0|1", "2,6,0|2", "3,6,0|"):
        t = parse_type(text)
        for gamma_mode, involution in conventions:
            want = _unfiltered_nonsep(t, gamma_mode, involution)
            got = enum_nonsep(t, gamma_mode=gamma_mode,
                              involution=involution)
            assert want
            assert [g.to_json_dict() for g in got] \
                == [g.to_json_dict() for g in want]


def test_nonsep_keys_only_swappable_decorations(monkeypatch):
    # Before decorations were filtered by vertex invariants this census
    # keyed 8,397 decorations; the count is work, not time, so a slide
    # back to keying every decoration fails on any machine.
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_key(g)

    monkeypatch.setattr(enumerator, "canonical_key", counted)
    assert len(enum_nonsep(nonsep(3, 7, (1,)))) == 31
    assert len(calls) == 227


def test_work_meter(monkeypatch):
    meter = WorkMeter()
    assert meter.limit == DEFAULT_WORK_LIMIT
    monkeypatch.setenv("RMF_WORK_LIMIT", "17")
    assert WorkMeter().limit == 17
    with pytest.raises(WorkLimitExceeded):
        enum_nonsep(nonsep(2, 5, (1,)), meter=WorkMeter(limit=20))
    # The oracle charges one tick per core and one per candidate: the
    # limit binds at exactly the work an unlimited run reports.
    t = sep(1, 5, (1, 2))
    meter = WorkMeter(limit=DEFAULT_WORK_LIMIT)
    graphs = enum_sep_naive(t, meter=meter)
    used = meter.used
    assert used >= 2
    with pytest.raises(WorkLimitExceeded):
        enum_sep_naive(t, meter=WorkMeter(limit=used - 1))
    assert enum_sep_naive(t, meter=WorkMeter(limit=used)) == graphs


def test_deterministic():
    t = nonsep(1, 5, (1,))
    assert enum_nonsep(t) == enum_nonsep(t)
    s = sep(1, 5, (1, 2))
    assert enum_sep(s) == enum_sep(s)


def _same_census(fast, naive):
    assert len(fast) == len(naive)
    assert sorted(canonical_key(g) for g in fast) \
        == sorted(canonical_key(g) for g in naive)


NAIVE_NONSEP_TYPES = (nonsep(0, 4, ()), nonsep(1, 3, (1,)),
                      nonsep(1, 4, ()), nonsep(2, 4, (2,)))
NAIVE_SEP_TYPES = (sep(1, 3, (1, 2)), sep(1, 2, (1, 1)), sep(1, 5, (1, 2)),
                   sep(1, 5, (-1, 2)))


def test_naive_agrees_on_nonsep():
    for t in NAIVE_NONSEP_TYPES:
        for mode in (GammaMode.AS_DATA, GammaMode.EXISTENCE):
            _same_census(enum_nonsep(t, gamma_mode=mode),
                         enum_nonsep_naive(t, gamma_mode=mode))
        _same_census(enum_nonsep(t, involution=False),
                     enum_nonsep_naive(t, involution=False))
        # The two routes keep different gammas for EXISTENCE, so only
        # the underlying graphs are compared.
        fast, naive = (census(t, gamma_mode=GammaMode.EXISTENCE,
                              involution=False)
                       for census in (enum_nonsep, enum_nonsep_naive))
        assert len(fast) == len(naive)
        assert sorted(canonical_key(strip_gamma(g)) for g in fast) \
            == sorted(canonical_key(strip_gamma(g)) for g in naive)


def test_naive_agrees_on_sep():
    for t in NAIVE_SEP_TYPES:
        _same_census(enum_sep(t, allow_full_degree=True),
                     enum_sep_naive(t, allow_full_degree=True))


def test_naive_agrees_on_larger_sep():
    t = sep(3, 6, (1, -1))
    _same_census(enum_sep(t), enum_sep_naive(t))


FAST_PATH_NAMES = (
    "bounds_for", "_splits", "_shapes", "_decorations", "_compositions",
    "_compositions_upto",
    "_partitions_exact", "_weight_splits", "_cells_of", "_assemble",
    "_root_choices", "_vertex_invariant", "canonical_key", "find_gammas",
)


def test_naive_census_shares_nothing_with_the_fast_path(monkeypatch):
    # Agreement with the fast path is evidence only if the oracle runs
    # none of its code: with every fast-path helper made to raise, the
    # oracle must still return the same graphs.
    runs = [(enum_nonsep_naive, t, kwargs) for t in NAIVE_NONSEP_TYPES
            for kwargs in ({"gamma_mode": GammaMode.AS_DATA},
                           {"gamma_mode": GammaMode.EXISTENCE},
                           {"involution": False})]
    runs += [(enum_sep_naive, t, {"allow_full_degree": True})
             for t in NAIVE_SEP_TYPES]
    expected = [census(t, **kwargs) for census, t, kwargs in runs]

    def fast_path(*args, **kwargs):
        raise AssertionError("the naive census ran fast-path code")

    for name in FAST_PATH_NAMES:
        monkeypatch.setattr(enumerator, name, fast_path)
    assert [census(t, **kwargs) for census, t, kwargs in runs] == expected
    with pytest.raises(FullDegreeError):
        enum_sep_naive(sep(1, 3, (1, 2)))
    with pytest.raises(ZeroIndexError):
        enum_nonsep_naive(nonsep(2, 4, (0, 2)))


def test_output_check_survives_optimize():
    # A checker that rejects everything must stop both censuses, also
    # when python -O strips assert statements.
    code = """
from rmfchi import enumerator
from rmfchi.decograph import Violation, ViolationList
from rmfchi.topotype import nonsep, sep
assert False, "assert statements must be stripped here"
bad = ViolationList((Violation("planted", "rejects everything"),))
enumerator.check_nonsep = lambda g, t, involution=True: bad
enumerator.check_sep = lambda g, t: bad
for run in (lambda: enumerator.enum_nonsep(nonsep(1, 3, (1,))),
            lambda: enumerator.enum_sep(sep(1, 5, (1, 2)))):
    try:
        run()
    except RuntimeError as exc:
        print(exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "census of 1,3,0|1 produced a graph violating planted",
        "census of 1,5,1|1,2 produced a graph violating planted",
    ]
