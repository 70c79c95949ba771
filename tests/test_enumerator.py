"""Graph enumeration: frozen counts, guards, and the brute-force oracle."""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path
from types import BuiltinFunctionType, FunctionType

import pytest
from oracle_keys import criterion_8_types, digest_lines
from test_acceptance import _graph_model_types

from rmfchi import decograph, enumerator, oracle
from rmfchi.cli import build_parser, main
from rmfchi.decograph import (
    DEFAULT_WORK_LIMIT,
    Color,
    DecoratedGraph,
    Edge,
    FullDegreeError,
    GammaMode,
    Vertex,
    WorkLimitExceeded,
    WorkMeter,
    ZeroIndexError,
    canonical_key,
    check_nonsep,
    check_sep,
    find_gammas,
    strip_gamma,
)
from rmfchi.enumerator import (
    EnumerationBounds,
    bounds_for,
    enum_nonsep,
    enum_sep,
)
from rmfchi.euler import chi_compactification
from rmfchi.oracle import enum_nonsep_naive, enum_sep_naive
from rmfchi.topotype import (
    NonExistentTypeError,
    Variant,
    format_type,
    nonsep,
    parse_type,
    require_exists,
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


@pytest.mark.parametrize("mode", ["existence", "bogus"])
def test_a_gamma_mode_is_a_gamma_mode_on_every_route(mode):
    # Each route once tested the mode by identity on its own: on this
    # type "existence" gave 6 graphs on the fast route (read as as-data)
    # and 5 on the oracle, and "bogus" was accepted the same way.
    t = nonsep(0, 6, ())
    for census in (enum_nonsep, enum_nonsep_naive):
        with pytest.raises(ValueError, match="gamma_mode must be a GammaMode"):
            census(t, gamma_mode=mode, involution=False)
    # The query checks the mode before it routes, so a closed form is
    # no way round the rule.
    for query in (t, sep(0, 2, (2,))):
        with pytest.raises(ValueError, match="gamma_mode must be a GammaMode"):
            chi_compactification(query, gamma_mode=mode, involution=False)


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


def _graphs_command(t):
    args = build_parser().parse_args(["graphs", format_type(t)])
    return args.func(args)


def test_one_guard_answers_every_graph_model_entry_point():
    # Every entry point that needs a graph model answers each type
    # outside its domain with the same exception class.  bounds_for and
    # `rmfchi graphs` take either variant, so they have no wrong one.
    nonsep_graph = enum_nonsep(nonsep(1, 3, (1,)))[0]
    sep_graph = enum_sep(sep(3, 6, (1, -1)))[0]
    extended = sepext(3, 4, (-1, 1), 0)
    nonsep_side = {"other": sep(1, 3, (1, 2)), "missing": nonsep(0, 3, (3,)),
                   "zero": nonsep(2, 4, (0, 2))}
    sep_side = {"other": nonsep(1, 3, (1,)), "missing": sep(0, 4, (1,)),
                "zero": sep(1, 2, (0, 0))}
    entry_points = [
        (enum_nonsep, nonsep_side),
        (enum_nonsep_naive, nonsep_side),
        (lambda t: check_nonsep(nonsep_graph, t), nonsep_side),
        (enum_sep, sep_side),
        (enum_sep_naive, sep_side),
        (lambda t: check_sep(sep_graph, t), sep_side),
        (bounds_for, nonsep_side),
        (bounds_for, sep_side),
        (_graphs_command, nonsep_side),
        (_graphs_command, sep_side),
    ]
    expected = {"extended": ValueError, "other": ValueError,
                "missing": NonExistentTypeError, "zero": ZeroIndexError}
    for call, side in entry_points:
        either_variant = call in (bounds_for, _graphs_command)
        for case, t in [("extended", extended), *side.items()]:
            if case == "other" and either_variant:
                continue
            with pytest.raises(ValueError) as info:
                call(t)
            assert type(info.value) is expected[case], (call, case)
            if case == "extended":
                assert "no graph model" in str(info.value), call


def test_a_census_validates_its_type_once(monkeypatch):
    # Its guard once ran again in bounds_for and in the checker of every
    # graph: enum_sep(3,6,1|-1,1) validated its type 11 times for 9
    # graphs.  The public entry points keep their guard.
    calls = []

    def counted(t):
        calls.append(t)
        return require_exists(t)

    monkeypatch.setattr(decograph, "require_exists", counted)
    for census, t, graphs in ((enum_sep, sep(3, 6, (1, -1)), 9),
                              (enum_nonsep, nonsep(2, 5, (1,)), 3),
                              (enum_nonsep_naive, nonsep(1, 5, (1,)), 3),
                              (enum_sep_naive, sep(1, 4, (1, 1)), 1)):
        calls.clear()
        assert len(census(t)) == graphs
        assert calls == [t]
    t = sep(3, 6, (1, -1))
    g = enum_sep(t)[0]
    for guarded in (bounds_for, lambda t: check_sep(g, t)):
        calls.clear()
        guarded(t)
        assert calls == [t]


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


def test_paired_compositions_are_the_filtered_ones():
    # Every pattern of up to three white and three black slots over two
    # groups, the empty and single-slot ones included: the compositions
    # whose two colors agree as multisets in every group, in the order
    # _compositions yields them.
    def paired(comp, white_groups, black_groups) -> bool:
        balance = Counter(zip(white_groups, comp))
        balance.subtract(zip(black_groups, comp[len(white_groups):]))
        return not any(balance.values())

    patterns = [groups for n in range(4)
                for groups in product(range(2), repeat=n)]
    kept = 0
    for white_groups, black_groups in product(patterns, repeat=2):
        slots = len(white_groups) + len(black_groups)
        for total in range(-1, 7):
            got = list(enumerator._paired_compositions(
                total, white_groups, black_groups))
            assert got == [
                comp for comp in enumerator._compositions(total, slots)
                if paired(comp, white_groups, black_groups)]
            kept += len(got)
    assert kept


def _canonical_by_column_orders(mat, n_b: int) -> bool:
    # The definition: no column order, with the rows sorted again,
    # gives a larger matrix.
    for colp in permutations(range(n_b)):
        rows = sorted((tuple(row[j] for j in colp) for row in mat),
                      reverse=True)
        if tuple(rows) > mat:
            return False
    return True


def test_canonicity_matches_column_orders():
    # Every matrix up to 4 x 4 with entries <= 2, rows sorted descending
    # and entry sum <= 8, canonical or not.
    checked = 0
    for n_b in range(1, 5):
        rows = sorted(product(range(3), repeat=n_b), reverse=True)
        for n_w in range(1, 5):
            for mat in combinations_with_replacement(rows, n_w):
                if sum(map(sum, mat)) <= 8:
                    checked += 1
                    assert enumerator._is_canonical(mat) \
                        == _canonical_by_column_orders(mat, n_b), mat
    assert checked == 39_897


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
                    and _canonical_by_column_orders(mat, n_b)):
                found.append(mat)
            return
        for k in range(start, len(rows)):
            if sum(rows[k]) <= remaining:
                extend(mat + (rows[k],), remaining - sum(rows[k]), k)

    extend((), total, 0)
    return sorted(found, key=lambda mat: [(sum(row), row) for row in mat])


def test_pruned_shapes_are_the_filtered_ones():
    # Pruning partial matrices by column order and root demand must
    # keep exactly the shapes with enough degree-1 rows and columns;
    # with balanced bounds, exactly those whose row and column sums
    # agree as multisets, in the same order (the census asks it of
    # square shapes only, since non-separating splits are even).  Only
    # the root counts and the balance of the bounds are read.
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
                    for balanced in (False, True) if n_w == n_b else (False,):
                        bounds = EnumerationBounds(0, 0, (1,) * white_roots,
                                                   (1,) * black_roots,
                                                   balanced)
                        assert list(enumerator._shapes(
                            n_w, n_b, total, bounds, WorkMeter())) == [
                            mat for mat in expected if not balanced
                            or sorted(map(sum, mat))
                            == sorted(map(sum, zip(*mat)))]


def test_shape_search_stays_pruned(monkeypatch):
    # Before rows were pruned by column order and root demand this
    # census completed 152,311 matrices; it took 7,310 ticks before
    # connectivity was decided row by row, and 2,211 before shapes and
    # genus compositions were generated only when their two colors can
    # be swapped, 1,020 before twin rows and columns were decorated in
    # order, and 913 before weight splits were cut by root demand, twin
    # order and color pairing, and 248 before a row whose parts sorted
    # descending beat the first row was cut as it was placed.  The limit
    # is work, not time, so a slide back to wasteful generation fails on
    # any machine.
    monkeypatch.setenv("RMF_WORK_LIMIT", "188")
    meter = WorkMeter()
    graphs = enum_nonsep(nonsep(2, 8, (1, 1)), meter=meter)
    assert len(graphs) == 17
    assert meter.used == 188


def test_shapes_stay_within_the_cycle_rank(monkeypatch):
    # A row that takes the parallel-edge excess of the placed rows past
    # the cycle rank leaves a matrix that can never be connected, so it
    # is skipped.  That took the separating 4,9,1|1,1,3 from 47 ticks to
    # 27 and 4,9,1|-1,2,2 from 36 to 22, and 2,8,0|1,1 from 1,461 degree
    # pairing tests to 581.  Cutting a row whose parts sorted descending
    # beat the first row then took 4,9,1|1,1,3 to 26 ticks and
    # 2,8,0|1,1 to 379 pairing tests.  The counts are work, not time, so
    # a cut that stops biting fails on any machine.
    for text, count, ticks in (("4,9,1|1,1,3", 14, 26),
                               ("4,9,1|-1,2,2", 11, 22)):
        meter = WorkMeter()
        graphs = enum_sep(parse_type(text), allow_full_degree=True,
                          meter=meter)
        assert (len(graphs), meter.used) == (count, ticks), text
    calls = []
    can_pair = enumerator._degrees_can_pair

    def counted(*args):
        calls.append(args)
        return can_pair(*args)

    monkeypatch.setattr(enumerator, "_degrees_can_pair", counted)
    assert len(enum_nonsep(nonsep(2, 8, (1, 1)))) == 17
    assert len(calls) == 379


def test_odd_spare_genus_builds_no_shape(monkeypatch):
    # 3,7,0|1 has a genus budget of 2, so cycle rank 1 leaves its
    # non-root vertexes an odd genus, which no color-swapping gamma can
    # pair.  Skipping that cycle rank keeps the same 31 graphs and takes
    # the census from 274 ticks to 176: from 341 to 185 before a row
    # whose parts sorted descending beat the first row was cut as it
    # was placed, and the 341 was 613 before weight splits were cut by
    # root demand, twin order and color pairing.
    meter = WorkMeter()
    graphs = enum_nonsep(nonsep(3, 7, (1,)), meter=meter)
    assert len(graphs) == 31 and meter.used == 176
    monkeypatch.setattr(enumerator, "_genus_pairs", lambda spare: True)
    meter = WorkMeter()
    assert enum_nonsep(nonsep(3, 7, (1,)), meter=meter) == graphs
    assert meter.used == 274


def _shapes_without_row_cut(n_w: int, n_b: int, total: int, bounds,
                            meter):
    # The shape generator before a row whose parts sorted descending
    # beat the first row was cut as it was placed: such a matrix was
    # completed and then rejected by _is_canonical.
    white_roots = len(bounds.white_root_weights)
    black_roots = len(bounds.black_root_weights)
    cycle_rank = total - (n_w + n_b) + 1

    def rows_from(i, remaining, prev, ties, colsums, row_sums, excess, acc):
        if i == n_w:
            meter.tick()
            if all(colsums) and enumerator._is_canonical(tuple(acc)):
                yield tuple(acc)
            return
        left_after = n_w - i - 1
        lowest = remaining if left_after == 0 else 1
        used = sum(map(bool, colsums))
        for s in range(lowest, remaining - left_after + 1):
            if row_sums.count(1) + (s == 1) + left_after < white_roots:
                continue
            for row in enumerator._compositions_upto(s, prev, ties):
                with_row = excess + s - n_b + row.count(0)
                if with_row > cycle_rank or i and not any(row[:used]):
                    continue
                sums = tuple(a + b for a, b in zip(colsums, row))
                if sum(c <= 1 for c in sums) < black_roots:
                    continue
                if bounds.balanced and not enumerator._degrees_can_pair(
                        row_sums + (s,), sums, remaining - s):
                    continue
                still_tied = tuple(t and a == b
                                   for t, a, b in zip(ties, row, row[1:]))
                yield from rows_from(i + 1, remaining - s, row, still_tied,
                                     sums, row_sums + (s,), with_row,
                                     acc + [row])

    yield from rows_from(0, total, (total,) * n_b, (True,) * (n_b - 1),
                         (0,) * n_b, (), 0, [])


def test_row_cut_rejects_only_non_canonical_matrices():
    # A row below the first whose parts sorted descending beat the
    # first row shows a larger matrix.  Over every matrix of the box of
    # test_canonicity_matches_column_orders, each such matrix fails the
    # definition: 23,533 of the 39,897.
    cut = 0
    for n_b in range(1, 5):
        rows = sorted(product(range(3), repeat=n_b), reverse=True)
        for n_w in range(2, 5):
            for mat in combinations_with_replacement(rows, n_w):
                if sum(map(sum, mat)) <= 8 and any(
                        tuple(sorted(row, reverse=True)) > mat[0]
                        for row in mat[1:]):
                    cut += 1
                    assert not _canonical_by_column_orders(mat, n_b), mat
    assert cut == 23_533


def test_row_cut_keeps_every_shape_in_order():
    # On every shape call of the six ladder types and of the graph-model
    # types of g <= 3, n <= 7, |i| <= 3, the cut generator yields what
    # the uncut one does, in the same order: 734 completed matrices
    # instead of 1,013 over the 671 calls.
    ladder = [parse_type(text) for text in (
        "2,5,0|1", "3,7,0|1", "2,8,0|1,1", "3,8,1|3,3", "4,9,1|-1,2,2",
        "4,9,1|1,1,3")]
    calls = set()
    for t in ladder + _graph_model_types(3, 7, 3):
        bounds = bounds_for(t)
        for n_edges in range(1, bounds.max_edges + 1):
            for cycle_rank in range(bounds.genus_budget + 1):
                for n_w, n_b in enumerator._splits(n_edges + 1 - cycle_rank,
                                                   bounds):
                    calls.add((n_w, n_b, n_edges, bounds))
    completed = [0, 0]
    for n_w, n_b, total, bounds in calls:
        cut, uncut = WorkMeter(), WorkMeter()
        assert list(enumerator._shapes(n_w, n_b, total, bounds, cut)) \
            == list(_shapes_without_row_cut(n_w, n_b, total, bounds, uncut))
        completed[0] += cut.used
        completed[1] += uncut.used
    assert completed == [734, 1_013]


def test_row_cut_bites_as_rows_are_placed():
    # The 9-edge 5 x 5 shapes of 2,8,0|1,1: 20 are canonical.  Before a
    # row whose parts sorted descending beat the first row was cut as
    # it was placed, 96 matrices were completed for them.  A count is
    # work, not time, so a cut that stops biting fails on any machine.
    meter = WorkMeter()
    shapes = list(enumerator._shapes(5, 5, 9, bounds_for(nonsep(2, 8, (1, 1))),
                                     meter))
    assert (len(shapes), meter.used) == (20, 42)


def _uncut_weight_splits(mults, total: int):
    # The generator before it was cut: per-cell sorted weight tuples
    # with the given global sum, in the census's order.
    def rec(idx: int, remaining: int, acc):
        if idx == len(mults):
            if remaining == 0:
                yield tuple(acc)
            return
        m = mults[idx]
        tail_min = sum(mults[idx + 1:])
        for s in range(m, remaining - tail_min + 1):
            for part in enumerator._partitions_exact(s, m):
                yield from rec(idx + 1, remaining - s, acc + [part])

    yield from rec(0, total, [])


def _census_shapes(bounds):
    # Every shape of every cycle rank (the census skips the ranks that
    # _genus_pairs rejects), with the cell multiplicities and the cells
    # at each vertex (white rows, then black columns).
    for n_edges in range(1, bounds.max_edges + 1):
        for cycle_rank in range(bounds.genus_budget + 1):
            for n_w, n_b in enumerator._splits(n_edges + 1 - cycle_rank,
                                               bounds):
                for mat in enumerator._shapes(n_w, n_b, n_edges, bounds,
                                              WorkMeter()):
                    cells = [(i, j, m) for i, row in enumerate(mat)
                             for j, m in enumerate(row) if m]
                    cells_at = [[] for _ in range(n_w + n_b)]
                    for idx, (i, j, _) in enumerate(cells):
                        cells_at[i].append(idx)
                        cells_at[n_w + j].append(idx)
                    yield mat, [m for _, _, m in cells], cells_at


def _twin_key(weights, cells_at):
    # A vertex's (sum, weights) per cell, the key twins are ordered by.
    return lambda v: [(sum(weights[idx]), weights[idx]) for idx in cells_at[v]]


def _usable(weights, mat, cells_at, bounds) -> bool:
    # What the decoration loop asks of a split: a root choice of each
    # color among its vertexes with one incident weight, no twin pair
    # out of order, and with balanced bounds white and black vertexes
    # whose incident weights agree as multisets.
    n_w = len(mat)
    incident = [[w for idx in at for w in weights[idx]] for at in cells_at]
    whites, blacks = range(n_w), range(n_w, len(cells_at))
    kinds = [sorted(tuple(sorted(incident[v])) for v in vertexes)
             for vertexes in (whites, blacks)]
    return bool(
        all(enumerator._root_choices(
            [v for v in vertexes if len(incident[v]) == 1], incident, needed)
            for vertexes, needed in ((whites, bounds.white_root_weights),
                                     (blacks, bounds.black_root_weights)))
        and enumerator._twin_ties(enumerator._shape_twins(mat),
                                  _twin_key(weights, cells_at)) is not None
        and (not bounds.balanced or kinds[0] == kinds[1]))


def _split_facts(weights, mat, cells_at):
    # What _weight_splits yields with a split: each vertex's sorted
    # incident weights, and the twin pairs whose (sum, weights) per cell
    # tie.
    key = _twin_key(weights, cells_at)
    kinds = [tuple(sorted(w for idx in at for w in weights[idx]))
             for at in cells_at]
    return kinds, [(a, b) for a, b in enumerator._shape_twins(mat)
                   if key(a) == key(b)]


def _split_inputs(mat, mults, cells_at):
    # The twin pairs and the per-color degree-1 vertexes of a shape.
    n_w = len(mat)
    candidates = [[v for v in vertexes
                   if len(cells_at[v]) == 1 and mults[cells_at[v][0]] == 1]
                  for vertexes in (range(n_w), range(n_w, len(cells_at)))]
    return enumerator._shape_twins(mat), candidates


def test_weight_splits_are_the_usable_ones():
    # On every shape of the 206 graph-model types of g <= 3, n <= 8,
    # |i| <= 3, the cut generator must yield exactly the uncut splits
    # that the decoration loop can use, in the same order: 1,847 of
    # 44,112.  Each comes with its vertexes' kinds and its tied twins.
    kept = dropped = 0
    for t in _graph_model_types(3, 8, 3):
        bounds = bounds_for(t)
        for mat, mults, cells_at in _census_shapes(bounds):
            want = [weights for weights in _uncut_weight_splits(
                mults, bounds.edge_weight_sum)
                if _usable(weights, mat, cells_at, bounds)]
            twins, candidates = _split_inputs(mat, mults, cells_at)
            got = list(enumerator._weight_splits(
                mults, cells_at, len(mat), bounds, twins, candidates))
            assert [weights for weights, _, _ in got] == want, (
                format_type(t), mat)
            for weights, kinds, ties in got:
                assert (kinds, ties) == _split_facts(weights, mat, cells_at)
            kept += len(got)
            dropped += sum(1 for _ in _uncut_weight_splits(
                mults, bounds.edge_weight_sum)) - len(got)
    assert (kept, dropped) == (1_847, 42_265)


def test_each_weight_split_cut_stays_pinned():
    # The splits of 2,8,0|1,1's shapes, one census tick each: 726 uncut,
    # 211 with root demand alone, 473 with twin order alone, 98 with
    # color pairing alone and 61 with all three.  Each cut is switched
    # off through its input: no roots, no twins, unbalanced bounds.  A
    # count is work, not time, so a cut that stops biting fails on any
    # machine.
    bounds = bounds_for(nonsep(2, 8, (1, 1)))
    rootless = replace(bounds, white_root_weights=(), black_root_weights=())
    runs = {"uncut": (rootless, False, False), "root": (bounds, False, False),
            "twin": (rootless, True, False), "pair": (rootless, False, True),
            "all": (bounds, True, True)}
    splits = dict.fromkeys(runs, 0)
    for mat, mults, cells_at in _census_shapes(bounds):
        twins, candidates = _split_inputs(mat, mults, cells_at)
        for name, (cut_bounds, use_twins, balanced) in runs.items():
            splits[name] += sum(1 for _ in enumerator._weight_splits(
                mults, cells_at, len(mat),
                replace(cut_bounds, balanced=balanced),
                twins if use_twins else [], candidates))
    assert splits == {"uncut": 726, "root": 211, "twin": 473, "pair": 98,
                      "all": 61}


def _unfiltered_nonsep(t, gamma_mode, involution, swap_cuts_off):
    # The census as it ran before shapes and decorations were filtered
    # by the swap tests: with both cuts off, every plain class is keyed
    # and asked for its gammas, and every gamma is keyed on its own.
    found = {}
    with swap_cuts_off():
        for _, view in enumerator._plain_classes(bounds_for(t),
                                                 WorkMeter()):
            plain = decograph._graph(view)
            for gam in find_gammas(plain, involution):
                g = replace(plain, gamma=gam)
                found.setdefault(canonical_key(g), g)
    graphs = [g for _, g in sorted(found.items())]
    if gamma_mode is GammaMode.EXISTENCE:
        graphs = decograph._existence_projection(graphs)
    return graphs


def test_swap_cuts_off_lists_every_plain_class(swap_cuts_off):
    # With the swap cuts off, a balanced census must list the plain
    # classes of the same bounds read as unbalanced, less those with
    # more vertexes of one color.  A swap cut the fixture missed would
    # quietly drop classes from every test that uses it.
    for text in ("1,4,0|", "2,5,0|1", "2,6,0|2"):
        bounds = bounds_for(parse_type(text))
        want = [decograph._graph(view)
                for _, view in enumerator._plain_classes(
                    replace(bounds, balanced=False), WorkMeter())]
        want = [plain for plain in want if len(plain.ids_of(Color.WHITE))
                == len(plain.ids_of(Color.BLACK))]
        with swap_cuts_off():
            got = [decograph._graph(view)
                   for _, view in enumerator._plain_classes(
                       bounds, WorkMeter())]
        assert got == want


def test_swap_filter_changes_nothing(swap_cuts_off):
    # Dropping color-asymmetric shapes and decorations before keying,
    # and keying one gamma per conjugacy class, must keep the same
    # representatives, byte for byte, in the same order.
    conventions = ((GammaMode.AS_DATA, True), (GammaMode.EXISTENCE, True),
                   (GammaMode.AS_DATA, False))
    for text in ("1,4,0|", "2,5,0|1", "2,6,0|2", "3,6,0|", "3,7,0|1,1,1"):
        t = parse_type(text)
        for gamma_mode, involution in conventions:
            want = _unfiltered_nonsep(t, gamma_mode, involution,
                                      swap_cuts_off)
            got = enum_nonsep(t, gamma_mode=gamma_mode,
                              involution=involution)
            assert want
            assert [g.to_json_dict() for g in got] \
                == [g.to_json_dict() for g in want]


def test_twin_order_changes_nothing(monkeypatch):
    # Skipping the decorations whose twin rows or columns are out of
    # order must keep the same representatives, byte for byte, in the
    # same order, in every convention.  Every type has twin roots.
    nonsep_runs = [(text, {"gamma_mode": gamma_mode, "involution": involution})
                   for text in ("3,7,0|1,1,1", "2,8,0|1,1", "3,6,0|1,1")
                   for gamma_mode, involution in (
                       (GammaMode.AS_DATA, True), (GammaMode.EXISTENCE, True),
                       (GammaMode.AS_DATA, False))]
    sep_runs = [(text, {"allow_full_degree": True})
                for text in ("4,9,1|1,1,3", "4,9,1|1,1,1", "3,8,1|-1,1")]

    def censuses():
        return [[g.to_json_dict() for g in census(parse_type(text), **kwargs)]
                for census, runs in ((enum_nonsep, nonsep_runs),
                                     (enum_sep, sep_runs))
                for text, kwargs in runs]

    got = censuses()
    monkeypatch.setattr(enumerator, "_shape_twins", lambda mat: [])
    assert all(got)
    assert got == censuses()


def test_nonsep_keys_only_swappable_decorations(monkeypatch):
    # Before decorations were filtered by vertex invariants this census
    # keyed 8,397 decorations, and 195 before twin rows and columns were
    # decorated in order; the count is work, not time, so a slide back
    # to keying every decoration fails on any machine.  The
    # enumerator searches decorations only, with no target: graphs with
    # gamma are keyed inside decograph, from the search that keyed their
    # plain class.
    calls = []
    search = decograph._search

    def counted(view, *target):
        calls.append(target)
        return search(view, *target)

    monkeypatch.setattr(enumerator, "_search", counted)
    assert len(enum_nonsep(nonsep(3, 7, (1,)))) == 31
    assert len(calls) == 104
    assert all(target == () for target in calls)


def test_nonsep_searches_each_class_a_fixed_number_of_times(monkeypatch):
    # Each swappable plain class is searched twice: once to key it, and
    # the same search then finds all its gammas with one search of its
    # color-swapped copy and keys them.  When every gamma was keyed by a
    # search of its own, the first census (up to 36 gammas per class)
    # ran 164 searches; when the class was searched again to find its
    # gammas, the two ran 48 and 403; before twin rows and columns were
    # decorated in order, 37 and 299.
    # Only the plain search refines: the search of the copy reads the
    # copy's classes off it, so the second census refines 104 times,
    # not 208.  The census hands each search its decoration's neighbor
    # map, so no cells() table is built before the output check, and it
    # builds only the graphs it returns and one plain graph per class
    # with a gamma; it once built every decoration, 269 graphs per pass
    # of the benchmark's ladder.
    calls, refined, built = [], [], []
    search = decograph._search
    refine = decograph._refined_classes
    validate = DecoratedGraph.__post_init__

    def counted(view, *target):
        calls.append(view)
        return search(view, *target)

    def counted_refine(*args):
        refined.append(args)
        return refine(*args)

    def counted_build(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(decograph, "_search", counted)
    monkeypatch.setattr(enumerator, "_search", counted)
    monkeypatch.setattr(decograph, "_refined_classes", counted_refine)
    assert len(enum_nonsep(nonsep(3, 7, (1, 1, 1)), involution=False)) \
        == 13
    assert len(calls) == 22
    assert len(refined) == 11
    calls.clear()
    refined.clear()
    monkeypatch.setattr(DecoratedGraph, "__post_init__", counted_build)
    got = enum_nonsep(nonsep(3, 7, (1,)))
    monkeypatch.undo()
    assert len(got) == 31
    assert len(calls) == 208
    assert len(refined) == 104
    returned = {id(g) for g in got}
    plain = [g for g in built if id(g) not in returned]
    assert len(built) == len(plain) + len(got)
    assert len(set(plain)) == len(plain)
    assert set(plain) == {strip_gamma(g) for g in got}

    def unread(self):
        raise AssertionError("cells() was built")

    monkeypatch.setattr(DecoratedGraph, "cells", unread)
    for searched, view in enumerator._plain_classes(
            bounds_for(nonsep(3, 7, (1,))), WorkMeter()):
        decograph._gamma_classes(view, searched, True)


def test_twin_order_keys_one_decoration_per_class(monkeypatch):
    # Four interchangeable roots of each color: decorating twin rows and
    # columns in order leaves one decoration per plain class to search,
    # besides the search of its color-swapped copy.  Before, this census
    # searched 38 decorations, 52 searches in all.
    t = nonsep(4, 8, (1, 1, 1, 1))
    classes = list(enumerator._plain_classes(bounds_for(t), WorkMeter()))
    assert len(classes) == 14
    decorations, copies = [], []
    search = decograph._search

    def counted(calls):
        def run(g, *target):
            calls.append(g)
            return search(g, *target)
        return run

    monkeypatch.setattr(enumerator, "_search", counted(decorations))
    monkeypatch.setattr(decograph, "_search", counted(copies))
    assert len(enum_nonsep(t)) == 6
    assert len(decorations) == 14
    assert len(decorations) + len(copies) == 28


def test_graphs_command_adds_no_searches(monkeypatch, capsys):
    # ``rmfchi graphs`` reads the other convention's count off the census
    # it printed without searching again.  It once keyed every as-data
    # graph a second time to find its underlying graph.
    calls = []
    search = decograph._search

    def counted(g, *target):
        calls.append(g)
        return search(g, *target)

    monkeypatch.setattr(decograph, "_search", counted)
    monkeypatch.setattr(enumerator, "_search", counted)
    for text in ("3,7,0|1", "4,8,0|1,1,1,1"):
        t = parse_type(text)
        for flag, mode, involution in (
                (None, GammaMode.AS_DATA, True),
                ("--gamma-existence", GammaMode.EXISTENCE, True),
                ("--gamma-any-order", GammaMode.AS_DATA, False)):
            calls.clear()
            enum_nonsep(t, gamma_mode=mode, involution=involution)
            census_calls = len(calls)
            calls.clear()
            assert main(["graphs", *([flag] if flag else []), text]) == 0
            capsys.readouterr()
            assert len(calls) == census_calls, (text, flag)


def test_nonsep_keys_one_gamma_per_class(monkeypatch):
    # A gamma whose conjugate was already keyed is skipped, so each
    # returned graph's gamma is keyed once.  When every admissible gamma
    # was keyed and a dict merged the conjugates, this census keyed 116.
    calls = []
    encode = decograph._encode

    def counted(searched, reading):
        if reading is not None:
            calls.append(reading)
        return encode(searched, reading)

    monkeypatch.setattr(decograph, "_encode", counted)
    assert len(enum_nonsep(nonsep(3, 7, (1, 1, 1)), involution=False)) \
        == 13
    assert len(calls) == 13


def test_work_meter(monkeypatch):
    meter = WorkMeter()
    assert meter.limit == DEFAULT_WORK_LIMIT
    monkeypatch.setenv("RMF_WORK_LIMIT", "17")
    assert WorkMeter().limit == 17
    monkeypatch.setenv("RMF_WORK_LIMIT", "20")
    with pytest.raises(WorkLimitExceeded):
        enum_nonsep(nonsep(2, 5, (1,)), meter=WorkMeter())
    # The oracle charges one tick per core and one per candidate: the
    # limit binds at exactly the work an unlimited run reports.
    t = sep(1, 5, (1, 2))
    monkeypatch.setenv("RMF_WORK_LIMIT", str(DEFAULT_WORK_LIMIT))
    meter = WorkMeter()
    graphs = enum_sep_naive(t, meter=meter)
    used = meter.used
    assert used >= 2
    monkeypatch.setenv("RMF_WORK_LIMIT", str(used - 1))
    with pytest.raises(WorkLimitExceeded):
        enum_sep_naive(t, meter=WorkMeter())
    monkeypatch.setenv("RMF_WORK_LIMIT", str(used))
    assert enum_sep_naive(t, meter=WorkMeter()) == graphs


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


ORACLE_GOLDEN = Path(__file__).parent / "golden" / "oracle_g2_n5_i3.sha256"


def test_oracle_outputs_match_golden():
    # Criterion 8 compares sorted keys only.  This pins the oracle's own
    # output on its 44 types in every convention: the graphs in order,
    # each with the gamma it keeps (in EXISTENCE mode, the first one
    # admitted).
    lines = [line + "\n" for line in digest_lines(criterion_8_types())]
    assert "".join(lines) == ORACLE_GOLDEN.read_text()


def test_oracle_skips_what_a_checker_clause_rejects(monkeypatch):
    # The oracle lists only cores whose cycle rank fits the genus budget
    # (genus-equation) and, for a non-separating type, whose two colors
    # have as many vertexes (color-balance), and tries as gamma only the
    # bijections that keep each vertex's genus and root flag
    # (gamma-vertex-data).  When it built every core and tried every
    # color-swapping bijection, this census used 3,055 units of work
    # and ran gamma_violations 1,732 times.
    calls = []
    violations = oracle.gamma_violations

    def counted(g, gamma, involution=True):
        calls.append(gamma)
        return violations(g, gamma, involution)

    monkeypatch.setattr(oracle, "gamma_violations", counted)
    meter = WorkMeter()
    assert len(enum_nonsep_naive(nonsep(1, 5, (1,)), meter=meter)) == 3
    assert meter.used == 313
    assert len(calls) == 193


def test_minimal_orders_count_the_automorphisms():
    # Two minimal orders of a search differ by an automorphism, so
    # |Aut(G)| is the number of orders _search returns.  The oracle's
    # relabelings count the automorphisms directly: the color-preserving
    # bijections that keep the vertex data and every pair's weights.
    classes = symmetric = 0
    for t in _graph_model_types(3, 6, 3):
        for searched, view in enumerator._plain_classes(bounds_for(t),
                                                        WorkMeter()):
            plain = decograph._graph(view)
            form = (plain.vertices, plain.cells())
            automorphisms = sum(1 for h in oracle._relabelings(plain)
                                if (h.vertices, h.cells()) == form)
            assert automorphisms == len(searched[2]), (format_type(t), plain)
            classes += 1
            symmetric += automorphisms > 1
    assert (classes, symmetric) == (303, 79)


# What the oracle shares with the fast census besides the data classes
# and the integer and permutation rules they check (_integral,
# _is_permutation, which relabel and gamma_violations run too): its
# imports (the checker cores with gamma_violations, relabel, the input
# guards with the gamma-mode rule and dataclasses.replace), the helpers
# those run, and what ``rmfchi graphs`` applies to its output
# (_existence_projection with strip_gamma).
SHARED_NAMES = frozenset({
    "_integral", "_is_permutation", "relabel", "gamma_violations",
    "_parity_ok",
    "_nonsep_violations", "_sep_violations", "_common_root_violations",
    "_incidence", "_connected", "_require_graph_model", "require_exists",
    "_require_sep_census", "_require_gamma_mode", "has_full_degree",
    "replace",
    "_existence_projection", "strip_gamma",
})


def _foreign_functions(module) -> list[str]:
    # The functions in a module's namespace that the oracle neither
    # defines nor shares.
    return [name for name, obj in vars(module).items()
            if isinstance(obj, (FunctionType, BuiltinFunctionType))
            and obj.__module__ != oracle.__name__
            and name not in SHARED_NAMES]


# In enumerator and decograph, these are fast-path code, including the
# names only censusbench/tracer.py rebinds; the oracle's entry points
# that enumerator re-exports are the oracle's own.
FAST_PATH_NAMES = [(module, name) for module in (enumerator, decograph)
                   for name in _foreign_functions(module)]


def test_oracle_holds_no_function_but_its_own_and_the_shared_ones():
    # A fast-path helper imported into the oracle would be looked up in
    # the oracle's namespace, out of reach of the patches below.
    assert _foreign_functions(oracle) == []
    patched = {name for _, name in FAST_PATH_NAMES}
    assert {"_plain_classes", "_search", "canonical_key", "find_gammas",
            "_gamma_classes"} <= patched


def test_naive_census_shares_nothing_with_the_fast_path(monkeypatch,
                                                       capsys):
    # Agreement with the fast path is evidence only if the oracle runs
    # none of its code: with every fast-path helper made to raise, the
    # oracle must still return the same graphs, and ``rmfchi graphs
    # --naive`` must print the same output.  The command once keyed
    # every as-data graph with canonical_key to find its underlying
    # graph.
    runs = [(enum_nonsep_naive, t, kwargs) for t in NAIVE_NONSEP_TYPES
            for kwargs in ({"gamma_mode": GammaMode.AS_DATA},
                           {"gamma_mode": GammaMode.EXISTENCE},
                           {"involution": False})]
    runs += [(enum_sep_naive, t, {"allow_full_degree": True})
             for t in NAIVE_SEP_TYPES]
    expected = [census(t, **kwargs) for census, t, kwargs in runs]
    commands = [["graphs", "--naive", *flags, format_type(t)]
                for t in NAIVE_NONSEP_TYPES
                for flags in ((), ("--gamma-existence",),
                              ("--gamma-any-order",))]

    def printed():
        out = []
        for argv in commands:
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    expected_out = printed()

    def fast_path(*args, **kwargs):
        raise AssertionError("the naive census ran fast-path code")

    for module, name in FAST_PATH_NAMES:
        monkeypatch.setattr(module, name, fast_path)
    assert [census(t, **kwargs) for census, t, kwargs in runs] == expected
    assert printed() == expected_out
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
enumerator._nonsep_violations = lambda g, t, involution=True: bad
enumerator._sep_violations = lambda g, t: bad
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
