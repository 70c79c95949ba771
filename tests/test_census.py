"""Catalog sweeps: type iteration, record flags, and stable output."""

from __future__ import annotations

import io
import json
import os
import pathlib
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations_with_replacement, product

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
    TopType,
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


class StandInPool:
    """Threads in place of the sweep's worker processes, watched.

    Each job first sleeps ``delays.get(type, 0)`` seconds, so jobs can
    be made to finish out of order, and a type in ``failing`` raises.
    ``peak`` is the most jobs unfinished at once and ``finished_types``
    the types in the order their jobs ended.
    """

    def __init__(self, size, delays=None, failing=()):
        self.size = size
        self.threads = ThreadPoolExecutor(size)
        self.delays = delays or {}
        self.failing = failing
        self.outcomes = queue.SimpleQueue()
        self.lock = threading.Lock()
        self.unfinished = self.peak = 0
        self.finished_types = []
        self.shut_down = False

    def submit(self, job, t):
        with self.lock:
            self.unfinished += 1
            self.peak = max(self.peak, self.unfinished)

        def run():
            time.sleep(self.delays.get(format_type(t), 0))
            try:
                if format_type(t) in self.failing:
                    raise RuntimeError(f"planted failure at {format_type(t)}")
                outcome = census.record_for(t)
            except Exception as exc:
                outcome = exc
            with self.lock:
                self.unfinished -= 1
                self.finished_types.append(format_type(t))
            self.outcomes.put((job, outcome))

        self.threads.submit(run)

    def finished(self, block):
        out = [self.outcomes.get()] if block else []
        while not self.outcomes.empty():
            out.append(self.outcomes.get())
        return out

    def shutdown(self):
        self.shut_down = True
        self.threads.shutdown(cancel_futures=True)


@pytest.fixture
def stand_in(monkeypatch):
    """Patch the one place a sweep builds its pool; returns a function
    that takes the stand-in's options and returns the pools built."""
    pools = []

    def use(**options):
        monkeypatch.setattr(census, "_Pool", lambda size: pools.append(
            StandInPool(size, **options)) or pools[-1])
        return pools

    return use


# The small golden box's four graph counts, in list order.
GOLDEN_GRAPH_COUNTS = ("0,2,0|", "1,2,0|", "1,3,0|1", "0,3,1|1")


def test_worker_count_is_capped(monkeypatch, stand_in):
    # The pool is the size asked for, capped by the CPUs.
    pools = stand_in()
    bounds = SweepBounds(g_max=1, n_max=3, abs_i_max=2)
    golden = GOLDEN.read_text()
    assert len(golden.splitlines()) == 12
    assert [json.loads(line)["type"] for line in golden.splitlines()
            if json.loads(line)["graph_count"] is not None] \
        == list(GOLDEN_GRAPH_COUNTS)
    for cpus, workers in ((4, 10**9), (64, 10**9), (64, 3), (None, 8),
                          (2, 10**9)):
        monkeypatch.setattr(census.os, "cpu_count", lambda n=cpus: n)
        assert _jsonl(sweep(bounds, workers=workers)) == golden
    # 4 CPUs; 64 CPUs; 3 asked; one CPU (or an unknown count) runs
    # without a pool; 2 CPUs
    assert [pool.size for pool in pools] == [4, 64, 3, 2]
    assert all(pool.shut_down for pool in pools)


def test_a_box_of_closed_forms_never_starts_a_pool(monkeypatch):
    def no_pool(size):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(census, "_Pool", no_pool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
    for bounds in (SweepBounds(3, 4, 1, eps="ext"), SweepBounds(400, 1, 1),
                   SweepBounds(6, 2, 0, eps="1")):
        records = list(sweep(bounds, workers=2))
        assert records and all(r.graph_count is None for r in records)
        assert records == list(sweep(bounds))


@pytest.mark.parametrize("queue_limit", [1024, 2])
def test_jobs_that_finish_out_of_order_give_the_golden_bytes(
        monkeypatch, stand_in, queue_limit):
    # Each job sleeps less than the one before it, and the four run at
    # once, so they finish in reverse; with a queue of two the sweep
    # also waits for its head before reading on.
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(census, "_QUEUE_LIMIT", queue_limit)
    delays = {t: 0.1 * (3 - pos) for pos, t in enumerate(GOLDEN_GRAPH_COUNTS)}
    pools = stand_in(delays=delays)
    records = sweep(SweepBounds(g_max=1, n_max=3, abs_i_max=2), workers=4)
    assert _jsonl(records) == GOLDEN.read_text()
    assert pools[0].finished_types != list(GOLDEN_GRAPH_COUNTS)
    # The queue holds every job unfinished at once.
    assert pools[0].peak == min(4, queue_limit)
    if queue_limit == 1024:
        assert pools[0].finished_types == list(reversed(GOLDEN_GRAPH_COUNTS))


def test_a_failing_job_stops_the_sweep_after_the_records_before_it(
        monkeypatch, stand_in):
    # 1,3,0|1 fails at once while 0,2,0| is still running: the records
    # before it come out first, then its error, and the pool is shut.
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
    pools = stand_in(delays={"0,2,0|": 0.2}, failing={"1,3,0|1"})
    handed_out = []
    with pytest.raises(RuntimeError, match="planted failure at 1,3,0[|]1"):
        for record in sweep(SweepBounds(g_max=1, n_max=3, abs_i_max=2),
                            workers=2):
            handed_out.append(record)
    assert _jsonl(handed_out) == "".join(
        GOLDEN.read_text().splitlines(keepends=True)[:3])
    assert pools[0].shut_down


def test_jobs_in_flight_never_exceed_the_window(monkeypatch, stand_in):
    # Jobs outlast the time it takes to list and submit several, so
    # the sweep keeps its window full.
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
    pools = stand_in(delays={format_type(t): 0.01 for t in iter_types(
        SweepBounds(g_max=3, n_max=6, abs_i_max=3))})
    records = sweep(SweepBounds(g_max=3, n_max=6, abs_i_max=3), workers=2)
    assert _jsonl(records).encode() == LARGER_GOLDEN.read_bytes()
    assert pools[0].size == 2
    assert pools[0].peak == census._IN_FLIGHT_PER_WORKER * 2


def test_worker_processes_send_back_records_and_failures():
    # A type that does not exist makes record_for raise; its error comes
    # back as a RuntimeError that names it and carries the original.
    # A worker that exits is reported instead of waited for.
    types = [nonsep(2, 5, (1,)), nonsep(0, 3, (3,)), sep(0, 3, (1,))]
    pool = census._Pool(2)
    try:
        for job, t in enumerate(types):
            pool.submit(job, t)
        outcomes = {}
        while len(outcomes) < len(types):
            outcomes.update(pool.finished(block=True))
        assert outcomes[0] == record_for(types[0])
        assert outcomes[2] == record_for(types[2])
        assert isinstance(outcomes[1], RuntimeError)
        assert str(outcomes[1]).startswith(
            "the record of 0,3,0|3 failed in a worker:")
        assert "NonExistentTypeError: type 0,3,0|3 labels no component" \
            in str(outcomes[1])
        pool.workers[0].terminate()
        with pytest.raises(RuntimeError, match="worker process exited"):
            pool.finished(block=True)
        pids = [worker.pid for worker in pool.workers]
    finally:
        pool.shutdown()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_iter_types_is_sorted_and_existing():
    types = list(iter_types(SweepBounds(2, 4, 2)))
    keys = [type_sort_key(t) for t in types]
    assert keys == sorted(keys)
    assert len(set(types)) == len(types)
    assert all(is_normal(t) for t in types)


def _index_tuples(values, k: int, n: int):
    # Every sorted k-tuple over ``values`` with at most n nonzero
    # entries, which an existing type of degree n never exceeds since
    # sum(|i|) <= n; listed without the census's own index lister.
    nonzero = [v for v in values if v]
    for m in range(min(k, n) + 1):
        for picked in combinations_with_replacement(nonzero, m):
            yield tuple(sorted(picked + (0,) * (k - m)))


def _types_by_set_and_sort(bounds: SweepBounds) -> list:
    # The reference listing: every sign-orbit twin normalized, folded in
    # a set, and the set sorted.
    out = set()
    for g in range(bounds.g_max + 1):
        for n in range(1, bounds.n_max + 1):
            cap = min(bounds.abs_i_max, n)
            if bounds.eps in (None, "0"):
                for k in range(g + 1):
                    for idx in _index_tuples(range(cap + 1), k, n):
                        if exists(nonsep(g, n, idx)):
                            out.add(nonsep(g, n, idx))
            for k in range(1 + g % 2, g + 2, 2):
                for idx in _index_tuples(range(-cap, cap + 1), k, n):
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


def test_index_listing_opens_no_tail_that_cannot_be_completed(monkeypatch):
    # The box of the long CI catalog lists k zeros for each k <= g <=
    # 300: one call per (g, k), and for k > 0 one more for the tuple.
    # Opening a tail for every shorter run of zeros made 4,590,551.
    # Each listed type is built once: a normal type is not rebuilt.
    calls = []
    builds = []
    lister = census._bounded_indices
    validate = TopType.__post_init__

    def counted(*args):
        calls.append(args)
        return lister(*args)

    def built(t):
        builds.append(None)
        validate(t)

    monkeypatch.setattr(census, "_bounded_indices", counted)
    monkeypatch.setattr(TopType, "__post_init__", built)
    types = sum(1 for _ in iter_types(SweepBounds(300, 2, 0, eps="0")))
    assert types == 45_451
    assert len(calls) == 90_601
    assert len(builds) == 45_451


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
    # A float bound was built and then failed in sweep with a bare
    # TypeError; a bool one was accepted.
    for bad in ((1.5, 2, 1), (True, 2, 1), (1, 2.0, 1), (1, 2, False)):
        with pytest.raises(ValueError, match="bounds must be integers"):
            SweepBounds(*bad)
    # A box beyond the type caps once listed about 2e9 candidate types
    # before the first type past MAX_GENUS failed to build.
    SweepBounds(MAX_GENUS, MAX_SHEETS, 0)
    with pytest.raises(ValueError, match=f"g_max must be <= {MAX_GENUS}"):
        SweepBounds(MAX_GENUS + 1, 1, 0)
    with pytest.raises(ValueError, match=f"n_max must be <= {MAX_SHEETS}"):
        SweepBounds(0, MAX_SHEETS + 1, 0)


@pytest.mark.parametrize("workers", [0, -3, True, 1.5, "2", None])
def test_sweep_checks_its_worker_count_when_called(workers):
    # A float once died in the pool with a bare TypeError, and 0, -3 and
    # True ran sequentially without a word.  The call itself raises,
    # before any record is asked for.
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        sweep(SweepBounds(g_max=1, n_max=3, abs_i_max=2), workers=workers)


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
    # The costliest record of the box, 2,5,0|1, takes 26 ticks and the
    # next one 16, so one tick less than its cost flags it alone.  It
    # took 62 ticks, and the limit was 50, before weight splits were
    # cut by root demand, twin order and color pairing, and 30 ticks,
    # with a limit of 29, before a row whose parts sorted descending
    # beat the first row was cut as it was placed.
    monkeypatch.setenv("RMF_WORK_LIMIT", "25")
    records = list(sweep(SweepBounds(2, 5, 1, eps="0")))
    flagged = [r for r in records if r.error]
    fine = [r for r in records if not r.error]
    assert [format_type(r.type) for r in flagged] == ["2,5,0|1"]
    assert fine
    assert all(r.chi_n is None for r in flagged)
