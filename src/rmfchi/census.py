"""Census sweeps: every existing type in a box, with its invariants.

A sweep walks all normalized types with g, n and |i| entries below the
given bounds, keeps those that exist, replaces extension-admitting
separating types by their extended refinements, and computes dimension
and both Euler characteristics per record.  Records are emitted in a
fixed total order and serialize byte-identically regardless of worker
count, so catalog files diff cleanly.

The worker pool and the CSV writer import their modules only when they
run, so a sequential sweep never loads ``multiprocessing``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate

from .decograph import WorkLimitExceeded
from .euler import chi_compactification, chi_component, closed_form
from .topotype import (
    MAX_GENUS,
    MAX_SHEETS,
    TopType,
    Variant,
    _extends,
    _integral,
    _normal_fields,
    _violated,
    dimension,
    exists,  # not called here: censusbench/tracer.py rebinds census.exists
    format_type,
)

# The ``--eps`` name of each variant, in sort order.
EPS_VARIANTS = {"0": Variant.NONSEP, "1": Variant.SEP, "ext": Variant.SEP_EXT}

# Graph counts a pooled sweep keeps in flight per worker process: enough
# that a worker finds its next job queued when it finishes one.
_IN_FLIGHT_PER_WORKER = 4
# Types a pooled sweep lets wait behind the next one to hand out, as
# finished records (about 400 bytes each) or unfinished jobs.
_QUEUE_LIMIT = 4096
# What json.dumps(..., separators=(",", ":")) would build per record.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class SweepBounds:
    """Search box: g <= g_max, n <= n_max, every |i| <= abs_i_max.

    g_max and n_max may not exceed the type caps ``MAX_GENUS`` and
    ``MAX_SHEETS``, since no type beyond them can be built.

    ``eps`` restricts the variants to one, named by its key in
    ``EPS_VARIANTS``; None keeps all of them.
    """

    g_max: int
    n_max: int
    abs_i_max: int
    eps: str | None = None

    def __post_init__(self):
        if not all(_integral(type(b))
                   for b in (self.g_max, self.n_max, self.abs_i_max)):
            raise ValueError("bounds must be integers")
        if self.g_max < 0 or self.n_max < 1 or self.abs_i_max < 0:
            raise ValueError("bounds must cover at least one type")
        if self.g_max > MAX_GENUS:
            raise ValueError(f"g_max must be <= {MAX_GENUS}")
        if self.n_max > MAX_SHEETS:
            raise ValueError(f"n_max must be <= {MAX_SHEETS}")
        if self.eps not in (None, *EPS_VARIANTS):
            raise ValueError("eps must be one of "
                             + ", ".join(map(repr, EPS_VARIANTS)))


@dataclass(frozen=True)
class CensusRecord:
    """One existing type with its invariants.

    ``graph_count`` is set only when chi(N) was obtained by counting
    graphs; ``error`` is set (and the chi(N) fields cleared) when the
    per-record work limit was exhausted.
    """

    type: TopType
    dim: int
    chi_h: int
    chi_n: int | None
    graph_count: int | None
    route: str | None
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "type": format_type(self.type),
            "exists": True,
            "dim": self.dim,
            "chi_h": self.chi_h,
            "chi_n": self.chi_n,
            "graph_count": self.graph_count,
            "route": self.route,
            "error": self.error,
        }


def type_sort_key(t: TopType):
    return (list(EPS_VARIANTS.values()).index(t.variant), t.g, t.n, t.k,
            t.indices, -1 if t.xi is None else t.xi)


def _bounded_indices(values: Sequence[int], k: int, budget: int,
                     start: int = 0, floors: Sequence[int] | None = None):
    """Non-decreasing k-tuples from sorted ``values[start:]`` with
    sum(|i|) <= budget, in increasing order.

    Every existing type of degree n has sum(|i|) <= n, and n - 2 if it
    is non-separating (see :func:`~rmfchi.topotype.exists`), so with
    that budget this lists every candidate that can exist, and only
    polynomially many tuples where all combinations would be
    exponentially many in k.  It recurses once per distinct value a
    tuple uses, so neither k nor the values that take no part deepen
    the recursion.  It opens a tail only when the tail can be completed:
    the places left, times the least |value| after the current one, fit
    in the budget left.  ``floors[j]`` is that least |value| from
    ``values[j]`` on, computed once per listing; past the last value it
    exceeds any budget, so there the tuple takes all the places left.
    """
    if k == 0:
        yield ()
        return
    if floors is None:
        floors = [*accumulate(map(abs, reversed(values)), min)][::-1]
        floors.append(budget + 1)
    for j in range(start, len(values)):
        v, floor = values[j], floors[j + 1]
        # count copies of v and a completable tail cost at most the budget:
        # count * (|v| - floor) <= budget - k * floor
        slope, room = abs(v) - floor, budget - k * floor
        most, least = k, 1
        if slope > 0:
            most = min(k, room // slope)
        elif slope < 0:
            least = max(1, -(room // -slope))
        elif room < 0:
            continue
        for count in range(most, least - 1, -1):
            for rest in _bounded_indices(values, k - count,
                                         budget - count * abs(v), j + 1,
                                         floors):
                yield (v,) * count + rest


def _index_counts(g: int, n: int, separating: bool):
    """The k an existing type can have, in increasing order: k <= g, or
    k = g + 1 mod 2 for a separating type, whose indices are all nonzero
    (so k <= n) for n <= 2 but in the all-zero type with n = 2, k = g + 1.
    """
    if not separating:
        return range(g + 1)
    ks = range(1 + g % 2, (g + 1 if n > 2 else min(g + 1, n)) + 1, 2)
    return [*ks, g + 1] if n == 2 and g > 1 else ks


def iter_types(bounds: SweepBounds) -> Iterator[TopType]:
    """All existing normalized types in the box, lazily, in sort order.

    Separating types that admit the extension are replaced by their
    extended refinements (those are the actual component labels).

    Invariant: the loops nest in :func:`type_sort_key`'s order (variant,
    g, n, k, index tuple, xi) and :func:`_bounded_indices` lists each
    k's tuples in increasing order, so types come out sorted.  Each
    candidate is decided on its raw fields by the rules of
    :mod:`~rmfchi.topotype`: the extension, existence, and the normal
    form, of which a sign orbit has one member.  A
    :class:`~rmfchi.topotype.TopType` is built only for a type yielded.
    """
    for eps, variant in EPS_VARIANTS.items():
        if bounds.eps not in (None, eps):
            continue
        separating = variant is not Variant.NONSEP
        extended = variant is Variant.SEP_EXT
        for g in range(bounds.g_max + 1):
            # a non-separating type has sum(i) <= n - 2, so n >= 2
            for n in range(1 if separating else 2, bounds.n_max + 1):
                budget = n if separating else n - 2
                cap = min(bounds.abs_i_max, budget)
                values = range(-cap if separating else 0, cap + 1)
                for k in _index_counts(g, n, separating):
                    xis = range((g - k + 1) // 2 + 1) if extended else (None,)
                    for idx in _bounded_indices(values, k, budget):
                        # the extension does not depend on xi
                        if _extends(n, idx) is not extended:
                            continue
                        for xi in xis:
                            if _violated(variant, g, n, idx, xi):
                                continue
                            normal = _normal_fields(variant, g, idx, xi)
                            if normal == (idx, xi):
                                yield TopType(variant, g, n, idx, xi)


def record_for(t: TopType) -> CensusRecord:
    """Compute one census record; work-limit failures flag the record."""
    dim = dimension(t)
    chi_h = chi_component(t).value
    try:
        result = chi_compactification(t)
        return CensusRecord(t, dim, chi_h, result.value,
                            result.graph_count, result.route.value)
    except WorkLimitExceeded as exc:
        return CensusRecord(t, dim, chi_h, None, None, None, str(exc))


def sweep(bounds: SweepBounds, *, workers: int = 1) -> Iterator[CensusRecord]:
    """Census of the box, in sort order, one record per existing type.

    ``workers`` must be an integer >= 1; that is checked by the call,
    before any record is asked for.  Each record is handed out once it
    and those before it are done, so a sweep that fails partway has
    already handed out the earlier ones.  With more than one worker (and
    CPU), graph counts run in worker processes and closed forms in this
    one.
    """
    if not _integral(type(workers)) or workers < 1:
        raise ValueError("workers must be an integer >= 1")
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        return map(record_for, iter_types(bounds))
    return _pooled(iter_types(bounds), workers)


def _pooled(types: Iterator[TopType],
            workers: int) -> Iterator[CensusRecord]:
    """Records of ``types`` in order, graph counts run by a :class:`_Pool`.

    Each type is numbered by its place in the list.  A type whose chi(N)
    has a closed form is recorded here at once, under its number; a
    graph count is sent out as the job with its number, with at most
    ``_IN_FLIGHT_PER_WORKER`` jobs per worker unfinished.  Records are
    handed out in number order as soon as the next number is done, and
    a job's exception is raised there.  The pool of ``workers``
    processes starts at the first graph count, and it is shut down
    however the sweep ends.
    """
    done: dict[int, CensusRecord | Exception] = {}
    next_out = unfinished = 0
    window = _IN_FLIGHT_PER_WORKER * workers
    pool = None

    def receive(block: bool) -> None:
        nonlocal unfinished
        for job, outcome in pool.finished(block):
            done[job] = outcome
            unfinished -= 1

    def head() -> CensusRecord:
        nonlocal next_out
        while next_out not in done:
            receive(block=True)
        outcome = done.pop(next_out)
        next_out += 1
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    try:
        for job, t in enumerate(types):
            if job - next_out >= _QUEUE_LIMIT:
                yield head()
            if closed_form(t) is not None:
                done[job] = record_for(t)
            else:
                if pool is None:
                    pool = _Pool(workers)
                while unfinished >= window:
                    receive(block=True)
                pool.submit(job, t)
                unfinished += 1
            if unfinished:
                receive(block=False)
            while next_out in done:
                yield head()
        while done or unfinished:
            yield head()
    finally:
        if pool is not None:
            pool.shutdown()


class _Pool:
    """Worker processes that compute records, fed and drained by the
    thread that owns them, with no helper thread.

    Numbered jobs go out on one shared queue, which an idle worker takes
    from, and each worker sends ``(job, record or exception)`` back on
    its own pipe.  The pools of ``concurrent.futures`` and
    ``multiprocessing.Pool`` run helper threads in this process, which
    take the interpreter lock from the thread that lists types and
    writes records for every job they pass on; that made two workers
    slower than one on boxes of cheap records.  Waiting uses
    ``select.poll``, so the pool needs a POSIX host.
    """

    def __init__(self, size: int):
        import multiprocessing
        import select

        # The platform's start method, as concurrent.futures would use.
        # Forking is unsafe only in a process that runs threads, and the
        # pool runs none; "spawn" re-runs the caller's main module in each
        # worker, which fails for a script read from stdin.
        context = multiprocessing.get_context()
        self.tasks = context.SimpleQueue()
        self.workers = []
        self.pipes = {}
        self.poller = select.poll()
        self.readable = select.POLLIN
        try:
            for _ in range(size):
                pipe, worker_end = context.Pipe(duplex=False)
                self.pipes[pipe.fileno()] = pipe
                worker = context.Process(target=_serve, daemon=True,
                                         args=(self.tasks, worker_end))
                worker.start()
                worker_end.close()
                self.workers.append(worker)
                self.poller.register(pipe, self.readable)
                self.poller.register(worker.sentinel, self.readable)
        except BaseException:
            self.shutdown()
            raise

    def submit(self, job: int, t: TopType) -> None:
        self.tasks.put((job, t))

    def finished(self, block: bool) -> list[tuple]:
        """The ``(job, outcome)`` pairs sent back so far; with
        ``block``, at least one."""
        out = []
        timeout = None if block else 0
        while ready := self.poller.poll(timeout):
            for fd, event in ready:
                # a worker's sentinel, or its pipe closed with nothing left
                if fd not in self.pipes or not event & self.readable:
                    raise RuntimeError("a census worker process exited")
                out.append(self.pipes[fd].recv())
            timeout = 0
        return out

    def shutdown(self) -> None:
        for worker in self.workers:
            worker.terminate()
        for worker in self.workers:
            worker.join()
            worker.close()
        for pipe in self.pipes.values():
            pipe.close()
        self.tasks.close()


def _serve(tasks, results) -> None:
    """A worker's loop: the record of each ``(job, type)`` it takes, sent
    back with the job number.  A failure goes back as a RuntimeError
    that carries the worker's traceback, since not every exception
    survives pickling."""
    while True:
        job, t = tasks.get()
        try:
            outcome = record_for(t)
        except Exception:
            import traceback
            outcome = RuntimeError(f"the record of {format_type(t)} failed "
                                   f"in a worker:\n{traceback.format_exc()}")
        results.send((job, outcome))


def write_jsonl(records, stream) -> int:
    """One compact JSON object per line; returns the record count."""
    count = 0
    for rec in records:
        stream.write(_COMPACT_JSON.encode(rec.to_json_dict()) + "\n")
        count += 1
    return count


CSV_COLUMNS = ("type", "exists", "dim", "chi_h", "chi_n", "graph_count",
               "route", "error")


def write_csv(records, stream) -> int:
    """CSV projection of the same fields; empty cells for nulls."""
    import csv
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for rec in records:
        data = rec.to_json_dict()
        writer.writerow(["" if data[c] is None else data[c]
                         for c in CSV_COLUMNS])
        count += 1
    return count
