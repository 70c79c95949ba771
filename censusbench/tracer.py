"""Per-layer tracing for the census benchmark, from outside the program.

The tracer wraps the public functions of each rmfchi module by
rebinding the module attribute that the calling layer looks up: census
finds ``chi_compactification`` in its own namespace, euler finds
``enum_nonsep`` in its own, the enumerator finds ``canonical_key`` in
its own, and so on.  No file of the program changes, and ``uninstall``
restores every attribute.

A span records name, start, end, parent id and an optional label (the
query, for the harness's query spans).  Calls into decograph and
topotype are frequent leaves (hundreds of thousands on the oracle);
they are aggregated per parent span as a call count and summed
seconds, so memory stays bounded.  A span's self time is its duration minus the
time covered by its child spans and leaf calls.  Spans are held in
memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from rmfchi import census, cli, enumerator, euler, strata

FAST = ("enumerator.enum_nonsep", "enumerator.enum_sep")
NAIVE = ("enumerator.enum_nonsep_naive", "enumerator.enum_sep_naive")
CHECKS = ("decograph.check_nonsep", "decograph.check_sep")
STRATA = ("cells_real", "cells_lambda", "chi_w_real", "chi_w_lambda",
          "chi_cover")

# Per-layer metrics in report order, with units.  Times are seconds per
# pass; counts and ratios are deterministic work and repeat exactly.
UNITS = {
    "enumerator.fast_self_s": "s",
    "enumerator.work_ticks": "count",
    "enumerator.fast_calls": "count",
    "enumerator.graphs_out": "count",
    "enumerator.keep_ratio": "ratio",
    "enumerator.naive_calls": "count",
    "enumerator.naive_self_s": "s",
    "enumerator.naive_ticks": "count",
    "decograph.key_calls": "count",
    "decograph.key_s": "s",
    "decograph.gamma_calls": "count",
    "decograph.gamma_s": "s",
    "decograph.check_calls": "count",
    "decograph.check_s": "s",
    "decograph.check_ok_ratio": "ratio",
    "topotype.exists_calls": "count",
    "topotype.exists_s": "s",
    "topotype.parse_calls": "count",
    "euler.chi_n_calls": "count",
    "euler.graph_routes": "count",
    "euler.closed_routes": "count",
    "euler.self_s": "s",
    "census.records": "count",
    "census.iter_types_s": "s",
    "census.record_s": "s",
    "census.write_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "strata.cells": "count",
    "strata.s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("id", "name", "label", "start", "end", "parent",
                 "child_s", "leaves")

    def __init__(self, span_id: int, name: str, parent: int | None,
                 label: str | None = None):
        self.id = span_id
        self.name = name
        self.label = label
        self.parent = parent
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}
        self.start = perf_counter()
        self.end = self.start

    def as_row(self, origin: float) -> list:
        return [self.id, self.name, self.label, self.start - origin,
                self.end - origin, self.parent, self.leaves]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._saved: list = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------

    def open(self, name: str, label: str | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, name, parent, label)
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def reset(self) -> None:
        """Start a new pass: forget spans and counters, keep span ids."""
        self.spans = []
        self.counts = Counter()

    # -- wrappers ------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _enum(self, name, fn, kind):
        # Pass the meter the enumerator would otherwise create itself,
        # so its ticks can be read after the call.
        work_meter = enumerator.WorkMeter

        @functools.wraps(fn)
        def wrapper(t, **kwargs):
            meter = kwargs.get("meter") or work_meter()
            kwargs["meter"] = meter
            before = meter.used
            span = self.open(name)
            try:
                result = fn(t, **kwargs)
            finally:
                self.close(span)
                self.counts[f"{kind}_ticks"] += meter.used - before
            self.counts[f"{kind}_graphs"] += len(result)
            return result
        return wrapper

    def _leaf(self, name, fn, ok=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                parent = self._stack[-1]
                parent.child_s += elapsed
                agg = parent.leaves.get(name)
                if agg is None:
                    agg = parent.leaves[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
            if ok is not None and ok(result):
                self.counts[name + ".ok"] += 1
            return result
        return wrapper

    def _count_route(self, result) -> None:
        graph = result.route.value.startswith("GRAPH_COUNT")
        self.counts["graph_routes" if graph else "closed_routes"] += 1

    def _count_cells(self, result) -> None:
        self.counts["strata_cells"] += len(result)

    def install(self) -> None:
        """Rebind every traced attribute; callers must ``uninstall``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        chi_n = "euler.chi_compactification"
        table = [
            (cli, "main", self._span("cli.main", cli.main)),
            (cli, "parse_type", self._leaf("topotype.parse_type",
                                           cli.parse_type)),
            (cli, "chi_compactification",
             self._span(chi_n, cli.chi_compactification,
                        self._count_route)),
            (census, "sweep", self._span("census.sweep", census.sweep)),
            (census, "iter_types", self._span("census.iter_types",
                                              census.iter_types)),
            (census, "exists", self._leaf("topotype.exists",
                                          census.exists)),
            (census, "record_for", self._span("census.record_for",
                                              census.record_for)),
            (census, "chi_compactification",
             self._span(chi_n, census.chi_compactification,
                        self._count_route)),
            (census, "chi_component", self._span("euler.chi_component",
                                                 census.chi_component)),
            (census, "write_jsonl", self._span("census.write_jsonl",
                                               census.write_jsonl)),
            (euler, "enum_nonsep", self._enum(FAST[0], euler.enum_nonsep,
                                              "fast")),
            (euler, "enum_sep", self._enum(FAST[1], euler.enum_sep, "fast")),
            (enumerator, "enum_nonsep",
             self._enum(FAST[0], enumerator.enum_nonsep, "fast")),
            (enumerator, "enum_sep",
             self._enum(FAST[1], enumerator.enum_sep, "fast")),
            (enumerator, "enum_nonsep_naive",
             self._enum(NAIVE[0], enumerator.enum_nonsep_naive, "naive")),
            (enumerator, "enum_sep_naive",
             self._enum(NAIVE[1], enumerator.enum_sep_naive, "naive")),
            (enumerator, "canonical_key",
             self._leaf("decograph.canonical_key",
                        enumerator.canonical_key)),
            (enumerator, "find_gammas",
             self._leaf("decograph.find_gammas", enumerator.find_gammas)),
            (enumerator, "check_nonsep",
             self._leaf(CHECKS[0], enumerator.check_nonsep,
                        lambda r: r.ok)),
            (enumerator, "check_sep",
             self._leaf(CHECKS[1], enumerator.check_sep, lambda r: r.ok)),
        ]
        for attr in STRATA:
            after = self._count_cells if attr.startswith("cells") else None
            table.append((strata, attr, self._span(
                f"strata.{attr}", getattr(strata, attr), after)))
        for module, attr, wrapper in table:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- metrics -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters of one pass.

        ``trace.*`` metrics other than ``trace.spans`` are left to the
        caller, which times the passes.
        """
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        leaf_n: Counter = Counter()
        leaf_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            calls[span.name] += 1
            total_s[span.name] += duration
            self_s[span.name] += duration - span.child_s
            for name, (n, secs) in span.leaves.items():
                leaf_n[name] += n
                leaf_s[name] += secs
        c = self.counts
        checks = sum(leaf_n[n] for n in CHECKS)
        checks_ok = sum(c[n + ".ok"] for n in CHECKS)
        chi_n = "euler.chi_compactification"
        return {
            "enumerator.fast_self_s": sum(self_s[n] for n in FAST),
            "enumerator.work_ticks": c["fast_ticks"],
            "enumerator.fast_calls": sum(calls[n] for n in FAST),
            "enumerator.graphs_out": c["fast_graphs"],
            "enumerator.keep_ratio": (c["fast_graphs"] / c["fast_ticks"]
                                      if c["fast_ticks"] else 0.0),
            "enumerator.naive_calls": sum(calls[n] for n in NAIVE),
            "enumerator.naive_self_s": sum(self_s[n] for n in NAIVE),
            "enumerator.naive_ticks": c["naive_ticks"],
            "decograph.key_calls": leaf_n["decograph.canonical_key"],
            "decograph.key_s": leaf_s["decograph.canonical_key"],
            "decograph.gamma_calls": leaf_n["decograph.find_gammas"],
            "decograph.gamma_s": leaf_s["decograph.find_gammas"],
            "decograph.check_calls": checks,
            "decograph.check_s": sum(leaf_s[n] for n in CHECKS),
            "decograph.check_ok_ratio": checks_ok / checks if checks else 0.0,
            "topotype.exists_calls": leaf_n["topotype.exists"],
            "topotype.exists_s": leaf_s["topotype.exists"],
            "topotype.parse_calls": leaf_n["topotype.parse_type"],
            "euler.chi_n_calls": calls[chi_n],
            "euler.graph_routes": c["graph_routes"],
            "euler.closed_routes": c["closed_routes"],
            "euler.self_s": self_s[chi_n] + self_s["euler.chi_component"],
            "census.records": calls["census.record_for"],
            "census.iter_types_s": total_s["census.iter_types"],
            "census.record_s": total_s["census.record_for"],
            "census.write_s": total_s["census.write_jsonl"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
            "strata.cells": c["strata_cells"],
            "strata.s": sum(self_s[f"strata.{a}"] for a in STRATA),
            "trace.spans": len(self.spans),
        }
