"""Catalog sweeps: type iteration, record flags, and stable output."""

from __future__ import annotations

import io
import json
import pathlib
from itertools import product

import pytest

from rmfchi import census
from rmfchi.census import (
    CSV_COLUMNS,
    SweepBounds,
    iter_types,
    record_for,
    sweep,
    type_sort_key,
    write_csv,
    write_jsonl,
)
from rmfchi.topotype import (
    MAX_GENUS,
    MAX_SHEETS,
    Variant,
    admits_extension,
    exists,
    format_type,
    is_normal,
    nonsep,
    parse_type,
    sep,
    sepext,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "catalog_g1_n3_i2.jsonl"
LARGER_GOLDEN = GOLDEN_DIR / "catalog_g3_n6_i3.jsonl"


def _jsonl(records) -> str:
    buf = io.StringIO()
    write_jsonl(records, buf)
    return buf.getvalue()


def test_small_catalog_matches_golden_file():
    records = sweep(SweepBounds(g_max=1, n_max=3, abs_i_max=2))
    assert _jsonl(records) == GOLDEN.read_text()


def test_larger_catalog_matches_golden_file():
    records = sweep(SweepBounds(g_max=3, n_max=6, abs_i_max=3), workers=2)
    assert _jsonl(records).encode() == LARGER_GOLDEN.read_bytes()


def test_chi_n_is_one_when_the_core_carries_weight_two():
    """Every non-separating type with no zero index and sum(i) = n - 2
    has chi(N) = 1.

    Each root edge carries its whole index, so the roots take 2 sum(i)
    of the edge weight n + sum(i) and the core (the graph without its
    roots) carries weight 2.  gamma swaps the colors and the roots come
    in equal numbers per color, so the core is balanced; connected, with
    at most two edges, it is a single white-black pair, joined by one
    edge of weight 2 or by a double edge (1, 1).  gamma swaps the pair,
    so its two genera are equal, and the parity of g - k fixes the edge:
    one edge when g - k is even, two when it is odd.  Every root hangs
    off the one core vertex of the other color, so the graph is unique.
    An admissible involution swaps the pair and pairs each white root
    with a black root of the same index; two such pairings differ by a
    permutation of the black roots of equal index, an automorphism, so
    all admissible involutions are conjugate and the census is one
    graph.
    """
    for name, family in (("catalog_g4_n8_i3", 51), ("catalog_g20_n3_i3", 41),
                         ("catalog_g5_n9_i3", 85)):
        chi_n = {}
        for line in (GOLDEN_DIR / f"{name}.jsonl").read_text().splitlines():
            record = json.loads(line)
            t = parse_type(record["type"])
            if (t.variant is Variant.NONSEP and 0 not in t.indices
                    and sum(t.indices) == t.n - 2):
                chi_n[record["type"]] = record["chi_n"]
        assert len(chi_n) == family
        assert set(chi_n.values()) == {1}, chi_n
        if name == "catalog_g4_n8_i3":
            assert all(record_for(parse_type(text)).chi_n == 1
                       for text in chi_n)


def test_worker_count_does_not_change_output():
    bounds = SweepBounds(g_max=1, n_max=3, abs_i_max=2)
    sequential = _jsonl(sweep(bounds))
    parallel = _jsonl(sweep(bounds, workers=2))
    assert parallel == sequential


def test_worker_count_is_capped(monkeypatch):
    # The pool forks all its workers up front, so its size is checked
    # with a stand-in that records it and runs the jobs inline.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(census, "ProcessPoolExecutor", InlinePool)
    bounds = SweepBounds(g_max=1, n_max=3, abs_i_max=2)
    golden = GOLDEN.read_text()
    assert len(golden.splitlines()) == 12
    for cpus, workers in ((4, 10**9), (64, 10**9), (64, 3), (None, 8)):
        monkeypatch.setattr(census.os, "cpu_count", lambda n=cpus: n)
        assert _jsonl(sweep(bounds, workers=workers)) == golden
    # 4 CPUs, 12 types, 3 asked; one CPU (or an unknown count) runs
    # without a pool
    assert sizes == [4, 12, 3]


def test_iter_types_is_sorted_and_existing():
    types = list(iter_types(SweepBounds(2, 4, 2)))
    keys = [type_sort_key(t) for t in types]
    assert keys == sorted(keys)
    assert len(set(types)) == len(types)
    assert all(is_normal(t) for t in types)


def _types_by_set_and_sort(bounds: SweepBounds) -> list:
    # The reference listing: every sign-orbit twin normalized, folded in
    # a set, and the set sorted.
    out = set()
    for g in range(bounds.g_max + 1):
        for n in range(1, bounds.n_max + 1):
            cap = min(bounds.abs_i_max, n)
            if bounds.eps in (None, "0"):
                for k in range(g + 1):
                    for idx in census._bounded_indices(range(cap + 1), k, n):
                        if exists(nonsep(g, n, idx)):
                            out.add(nonsep(g, n, idx))
            for k in range(1 + g % 2, g + 2, 2):
                for idx in census._bounded_indices(range(-cap, cap + 1),
                                                   k, n):
                    t = sep(g, n, idx)
                    if not exists(t):
                        continue
                    if not admits_extension(t):
                        if bounds.eps in (None, "1"):
                            out.add(t)
                    elif bounds.eps in (None, "ext"):
                        for xi in range((g - k + 1) // 2 + 1):
                            if exists(sepext(g, n, idx, xi)):
                                out.add(sepext(g, n, idx, xi))
    return sorted(out, key=type_sort_key)


def test_iter_types_matches_the_set_and_sort_listing():
    # The high-genus, low-degree boxes are where the listing bounds k
    # and the index budget more tightly than the reference does.
    high_g_low_n = [(40, n, i) for n in (1, 2) for i in (0, 1, 2)]
    boxes = 0
    for eps in (None, "0", "1", "ext"):
        for bounds in [*product(range(4), range(1, 7), range(4)),
                       *high_g_low_n]:
            box = SweepBounds(*bounds, eps=eps)
            assert list(iter_types(box)) == _types_by_set_and_sort(box), box
            boxes += 1
    assert boxes == 408


def test_sweep_streams_its_records(monkeypatch):
    # A box with about 2e9 candidate types: the first record must come
    # out long before the listing is done.
    calls = []

    def exists_for_a_while(t):
        calls.append(t)
        if len(calls) > 100:
            raise AssertionError("the listing ran ahead of the records")
        return exists(t)

    monkeypatch.setattr(census, "exists", exists_for_a_while)
    first = next(sweep(SweepBounds(MAX_GENUS, 2, 0, eps="0")))
    assert format_type(first.type) == "0,2,0|"


def test_listing_tests_only_types_within_the_existence_bounds(monkeypatch):
    # With n = 1 no non-separating type exists, a separating one has
    # k <= 1, and with |i| <= 0 the box holds no type at all; a listing
    # that gives every k <= g a budget of n tests about 1.2e5 types.
    calls = []

    def counted_exists(t):
        calls.append(t)
        return exists(t)

    monkeypatch.setattr(census, "exists", counted_exists)
    assert list(iter_types(SweepBounds(400, 1, 0))) == []
    assert len(calls) < 1000


def test_index_listing_recursion_does_not_grow_with_the_length():
    # The listing once recursed once per index, so a type of genus
    # about 1,000 overflowed the interpreter's stack while being listed.
    assert list(census._bounded_indices((0, 1), 1500, 1)) \
        == [(0,) * 1500, (0,) * 1499 + (1,)]


def test_extension_refinements_replace_their_base():
    names = [format_type(t) for t in iter_types(SweepBounds(3, 4, 1))]
    assert "3,4,1|-1,1;0" in names
    assert "3,4,1|-1,1" not in names
    # the two xi values of a sign-symmetric degree list are identified
    assert "3,4,1|-1,1;1" not in names
    ext_only = [format_type(t) for t in iter_types(SweepBounds(3, 4, 1,
                                                               eps="ext"))]
    assert ext_only == ["1,4,1|-1,1;0", "2,4,1|-1,0,1;0", "3,4,1|-1,1;0",
                       "3,4,1|-1,0,0,1;0"]


def test_eps_filter():
    box = SweepBounds(1, 3, 2)
    nonseps = list(iter_types(SweepBounds(1, 3, 2, eps="0")))
    seps = list(iter_types(SweepBounds(1, 3, 2, eps="1")))
    assert all(t.variant is Variant.NONSEP for t in nonseps)
    assert all(t.variant is Variant.SEP for t in seps)
    assert sorted(nonseps + seps, key=type_sort_key) \
        == list(iter_types(box))


def test_bounds_validation():
    with pytest.raises(ValueError):
        SweepBounds(-1, 3, 2)
    with pytest.raises(ValueError):
        SweepBounds(1, 0, 2)
    with pytest.raises(ValueError):
        SweepBounds(1, 3, 2, eps="2")
    # A box beyond the type caps once listed about 2e9 candidate types
    # before the first type past MAX_GENUS failed to build.
    SweepBounds(MAX_GENUS, MAX_SHEETS, 0)
    with pytest.raises(ValueError, match=f"g_max must be <= {MAX_GENUS}"):
        SweepBounds(MAX_GENUS + 1, 1, 0)
    with pytest.raises(ValueError, match=f"n_max must be <= {MAX_SHEETS}"):
        SweepBounds(0, MAX_SHEETS + 1, 0)


def test_work_limit_flags_the_record(monkeypatch):
    monkeypatch.setenv("RMF_WORK_LIMIT", "20")
    rec = record_for(nonsep(2, 5, (1,)))
    assert rec.chi_n is None and rec.graph_count is None and rec.route is None
    assert "work limit" in rec.error
    assert rec.chi_h == 0 and rec.dim == 12
    data = rec.to_json_dict()
    assert data["type"] == "2,5,0|1" and data["error"] == rec.error


def test_csv_projection():
    records = list(sweep(SweepBounds(g_max=1, n_max=2, abs_i_max=1)))
    buf = io.StringIO()
    count = write_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert count == len(records) == len(lines) - 1
    # commas inside the type field get quoted; nulls become empty cells
    assert '"1,2,1|0,0",True,4,0,0,,ZERO_INDEX,' in lines


def test_sweep_respects_work_limit(monkeypatch):
    monkeypatch.setenv("RMF_WORK_LIMIT", "50")
    records = list(sweep(SweepBounds(2, 5, 1, eps="0")))
    flagged = [r for r in records if r.error]
    fine = [r for r in records if not r.error]
    assert flagged and fine
    assert all(r.chi_n is None for r in flagged)
