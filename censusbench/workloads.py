"""Workloads of the census benchmark: queries, frozen answers and checks.

Every query goes through a public entry point of rmfchi: ``cli.main``
for the command-line workloads, the enumerator functions for the
oracle.  Entry points are looked up on their module at call time, so
the tracer's rebinding of module attributes applies to them.

A check returns None when the query's output equals the answer frozen
in ``expected/`` from unmodified main (see ``freeze.py``), and a reason
otherwise.  The harness counts a reason or an exception as one failed
query; no check is ever skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable

from rmfchi import cli, decograph, enumerator, topotype

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = BENCH_DIR / "out"

# Each setting maps smoke=False (the measured workload) and smoke=True
# (tiny inputs for the benchmark's own tests) to its inputs.

# (g_max, n_max, abs_i_max).  The full box keeps the g = 2 twins
# 2,6,0|2,2 and 2,6,0|1,3 of the two loose-bound records that dominate
# the g <= 3, n <= 6 box, so the shape-generation cost still dominates
# a pass, while a pass stays short enough to repeat within one run.
CATALOG_BOX = {False: (2, 6, 3), True: (1, 3, 2)}

# Hard single queries outside the catalog box, one per stressed layer:
# 3,7,0|1 canonical keys and gamma search, 2,8,0|1,1 shape generation,
# the three separating rungs separating enumeration.
LADDER = {
    False: ("2,5,0|1", "3,7,0|1", "2,8,0|1,1", "3,8,1|3,3",
            "4,9,1|-1,2,2", "4,9,1|1,1,3"),
    True: ("1,3,0|1", "2,5,0|1"),
}

# Criterion 8 (fast census equals brute-force census) on g <= 1.
ORACLE_BOX = {False: (1, 5, 3), True: (1, 3, 3)}

# verify-cells --max-s values; the cost doubles with each step.
CELLS_MAX_S = {False: (12, 13, 14), True: (3, 4)}

# Gamma conventions of criterion 8, as keyword arguments of the
# non-separating enumerators.  Separating types have one convention.
CONVENTIONS = {
    "as-data": {},
    "existence": {"gamma_mode": enumerator.GammaMode.EXISTENCE},
    "any-order": {"involution": False},
}
SEP_CONVENTION = "sep"


@dataclass
class Workload:
    """Queries in their default order, frozen answers and the check.

    ``check`` takes one query and the frozen answers.
    """

    name: str
    queries: list
    expected: object
    check: Callable[[object, object], str | None]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``rmfchi.cli.main`` in-process; exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def catalog_argv(box, out: Path) -> list[str]:
    g, n, i = box
    return ["catalog", "--g-max", str(g), "--n-max", str(n),
            "--abs-i-max", str(i), "--workers", "1", "--out", str(out)]


def catalog_file(box) -> str:
    g, n, i = box
    return f"catalog_g{g}_n{n}_i{i}.jsonl"


def oracle_types(g_max: int, n_max: int, abs_max: int) -> list[str]:
    """Existing graph-model types of the box: no zero index, any sign."""
    types = set()
    for g in range(g_max + 1):
        for n in range(1, n_max + 1):
            for k in range(0, g + 1):
                for idx in combinations_with_replacement(
                        range(1, abs_max + 1), k):
                    t = topotype.nonsep(g, n, idx)
                    if topotype.exists(t):
                        types.add(t)
            for k in range(1, g + 2):
                if (k - (g + 1)) % 2:
                    continue
                values = [v for v in range(-abs_max, abs_max + 1) if v]
                for idx in combinations_with_replacement(values, k):
                    t = topotype.sep(g, n, idx)
                    if topotype.exists(t):
                        types.add(t)
    return sorted(topotype.format_type(t) for t in types)


def oracle_queries(box) -> list[tuple[str, str]]:
    queries = []
    for text in oracle_types(*box):
        if topotype.parse_type(text).variant is topotype.Variant.NONSEP:
            queries.extend((text, conv) for conv in CONVENTIONS)
        else:
            queries.append((text, SEP_CONVENTION))
    return queries


def oracle_keys(text: str, conv: str) -> tuple[list[bytes], list[bytes]]:
    """Sorted canonical keys of the fast and of the naive census."""
    t = topotype.parse_type(text)
    if conv == SEP_CONVENTION:
        fast, naive = enumerator.enum_sep, enumerator.enum_sep_naive
        kwargs = {"allow_full_degree": True}
    else:
        fast, naive = enumerator.enum_nonsep, enumerator.enum_nonsep_naive
        kwargs = CONVENTIONS[conv]
    fast_keys = sorted(decograph.canonical_key(g) for g in fast(t, **kwargs))
    naive_keys = sorted(decograph.canonical_key(g)
                        for g in naive(t, **kwargs))
    return fast_keys, naive_keys


def oracle_label(query) -> str:
    text, conv = query
    return f"{text} {conv}"


def _check_catalog(argv, expected: bytes) -> str | None:
    out = Path(argv[-1])
    out.unlink(missing_ok=True)
    code, _ = call_cli(argv)
    if code != 0:
        return f"exit code {code}"
    got = out.read_bytes()
    if got != expected:
        got_lines = got.splitlines()
        want_lines = expected.splitlines()
        differ = sum(a != b for a, b in zip(got_lines, want_lines))
        differ += abs(len(got_lines) - len(want_lines))
        return f"{differ} of {len(want_lines)} records differ"
    return None


def _check_ladder(rung: str, expected: dict) -> str | None:
    code, out = call_cli(["chi-n", "--json", rung])
    if code != 0:
        return f"exit code {code}"
    got = json.loads(out)
    want = expected[rung]
    if got != want:
        return (f"value={got.get('value')} graphs={got.get('graph_count')}"
                f", expected value={want['value']} "
                f"graphs={want['graph_count']}")
    return None


def _check_oracle(query, expected: dict) -> str | None:
    fast_keys, naive_keys = oracle_keys(*query)
    if fast_keys != naive_keys:
        return (f"fast keys ({len(fast_keys)}) differ from naive keys "
                f"({len(naive_keys)})")
    want = expected[oracle_label(query)]
    if len(fast_keys) != want:
        return f"{len(fast_keys)} graphs, expected {want}"
    return None


def _check_cells(max_s: int, expected: dict) -> str | None:
    code, out = call_cli(["verify-cells", "--json", "--max-s", str(max_s)])
    if code != 0:
        return f"exit code {code}"
    got = json.loads(out)
    failing = [c for c in got["checks"]
               if c["cells"] != c["cells_expected"]
               or c["chi"] != c["chi_expected"]]
    if not got["ok"] or not got["cover_ok"] or failing:
        return f"{len(failing)} checks fail, cover_ok={got['cover_ok']}"
    if got != expected[str(max_s)]:
        return "checks differ from the frozen output"
    return None


def load(name: str, smoke: bool = False,
         expected_dir: Path = EXPECTED_DIR) -> Workload:
    """Build a workload's query list and load its frozen answers."""

    def load_json(file: str):
        return json.loads((expected_dir / file).read_text(encoding="utf-8"))

    if name == "catalog":
        box = CATALOG_BOX[smoke]
        OUT_DIR.mkdir(exist_ok=True)
        argv = catalog_argv(box, OUT_DIR / catalog_file(box))
        expected = (expected_dir / catalog_file(box)).read_bytes()
        return Workload(name, [argv], expected, _check_catalog)
    if name == "ladder":
        return Workload(name, list(LADDER[smoke]), load_json("ladder.json"),
                        _check_ladder)
    if name == "oracle":
        return Workload(name, oracle_queries(ORACLE_BOX[smoke]),
                        load_json("oracle.json"), _check_oracle)
    if name == "cells":
        return Workload(name, list(CELLS_MAX_S[smoke]),
                        load_json("cells.json"), _check_cells)
    raise ValueError(f"unknown workload {name!r}")


def run_query(workload: Workload, query) -> str | None:
    """Issue one query and check it; None when correct, else a reason.

    Any exception the query raises, ``WorkLimitExceeded`` included, is a
    failed query: it is recorded and the run goes on.
    """
    try:
        reason = workload.check(query, workload.expected)
    except Exception as exc:  # noqa: BLE001 - counted, never hidden
        reason = f"{type(exc).__name__}: {exc}"
    return None if reason is None else f"{query!r}: {reason}"

