"""Acceptance gate: one criterion per test, one visible PASS/FAIL line each.

Every numbered test prints its verdict with the elapsed time and the
budget it must stay inside, then asserts.  Run with plain ``pytest``;
the lines bypass output capture.
"""

from __future__ import annotations

import random
import time
from itertools import combinations_with_replacement

from rmfchi.census import SweepBounds, iter_types
from rmfchi.decograph import (
    DecoratedGraph,
    Edge,
    Vertex,
    Color,
    GammaMode,
    are_isomorphic,
    canonical_key,
    relabel,
    strip_gamma,
)
from rmfchi.enumerator import enum_nonsep, enum_sep
from rmfchi.euler import Route, chi_compactification, chi_component
from rmfchi.oracle import enum_nonsep_naive, enum_sep_naive
from rmfchi.strata import (
    cells_lambda,
    cells_real,
    chi_cover,
    chi_w_lambda,
    chi_w_real,
    enumerate_strata,
)
from rmfchi.topotype import (
    Variant,
    dimension,
    exists,
    format_type,
    nonsep,
    sep,
)

W, B = Color.WHITE, Color.BLACK


def _finish(capsys, num, desc, t0, budget, problems):
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < budget
    with capsys.disabled():
        print(f"\ncriterion {num:2d} {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s/{budget:.0f}s) {desc}")
    assert not problems, f"criterion {num}: {problems[:5]}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s over budget"


def _graph_model_types(g_max, n_max, abs_max):
    """Existing types the graph model covers: no zero index, any sign."""
    types = set()
    for g in range(g_max + 1):
        for n in range(1, n_max + 1):
            for k in range(0, g + 1):
                for idx in combinations_with_replacement(
                        range(1, abs_max + 1), k):
                    t = nonsep(g, n, idx)
                    if exists(t):
                        types.add(t)
            for k in range(1, g + 2):
                if (k - (g + 1)) % 2:
                    continue
                vals = [v for v in range(-abs_max, abs_max + 1) if v != 0]
                for idx in combinations_with_replacement(vals, k):
                    t = sep(g, n, idx)
                    if exists(t):
                        types.add(t)
    return sorted(types, key=format_type)


def test_criterion_01_smallest_full_degree_type(capsys):
    t0 = time.perf_counter()
    problems = []
    t = sep(0, 2, (2,))
    r = chi_component(t)
    if (r.value, r.route) != (1, Route.COMPONENT_G0):
        problems.append(f"chi_h {r}")
    r = chi_compactification(t)
    if (r.value, r.route) != (1, Route.SEP_FULL_DEGREE):
        problems.append(f"chi_n {r}")
    r = chi_compactification(t, short_circuit=False)
    if (r.value, r.route, r.graph_count) != (1, Route.GRAPH_COUNT_SEP, 1):
        problems.append(f"forced chi_n {r}")
    if dimension(t) != 2:
        problems.append(f"dim {dimension(t)}")
    _finish(capsys, 1, "closed forms and forced census for 0,2,1|2",
            t0, 1.0, problems)


def test_criterion_02_unique_nonsep_graph(capsys):
    t0 = time.perf_counter()
    problems = []
    graphs = enum_nonsep(nonsep(1, 3, (1,)))
    expected = DecoratedGraph(
        (Vertex(W, 0, True), Vertex(B), Vertex(W), Vertex(B, 0, True)),
        (Edge(0, 1, 1), Edge(1, 2, 2), Edge(2, 3, 1)),
        (3, 2, 1, 0))
    if len(graphs) != 1:
        problems.append(f"count {len(graphs)}")
    elif not are_isomorphic(graphs[0], expected):
        problems.append("graph differs from the hand-built path")
    _finish(capsys, 2, "unique graph of 1,3,0|1 is the weighted path",
            t0, 1.0, problems)


def test_criterion_03_unique_sep_graph(capsys):
    t0 = time.perf_counter()
    problems = []
    t = sep(1, 3, (1, 2))
    graphs = enum_sep(t, allow_full_degree=True)
    expected = DecoratedGraph(
        (Vertex(B, 0, True), Vertex(W), Vertex(B, 0, True)),
        (Edge(0, 1, 1), Edge(1, 2, 2)))
    if len(graphs) != 1:
        problems.append(f"count {len(graphs)}")
    elif not are_isomorphic(graphs[0], expected):
        problems.append("graph differs from the hand-built path")
    r = chi_compactification(t)
    if (r.value, r.route) != (1, Route.SEP_FULL_DEGREE):
        problems.append(f"chi_n {r}")
    _finish(capsys, 3, "unique graph of 1,3,1|1,2 and its closed form",
            t0, 1.0, problems)


def test_criterion_04_full_degree_censuses_are_units(capsys):
    t0 = time.perf_counter()
    problems = []
    checked = 0
    for g in range(4):
        for n in range(1, 7):
            for k in range(1, min(g + 1, n) + 1):
                if (k - (g + 1)) % 2:
                    continue
                for parts in combinations_with_replacement(
                        range(1, n + 1), k):
                    if sum(parts) != n:
                        continue
                    t = sep(g, n, parts)
                    if not exists(t):
                        continue
                    checked += 1
                    count = len(enum_sep(t, allow_full_degree=True))
                    if count != 1:
                        problems.append(f"{format_type(t)}: {count}")
    if checked != 40:
        problems.append(f"checked {checked} types, expected 40")
    _finish(capsys, 4,
            "all 40 full-degree separating types in g<=3, n<=6 "
            "have a one-graph census", t0, 60.0, problems)


def test_criterion_05_vanishing_index_kills_chi(capsys):
    t0 = time.perf_counter()
    problems = []
    types = [t for t in iter_types(SweepBounds(4, 4, 2)) if 0 in t.indices]
    chains = [t for t in types
              if t.variant is Variant.SEP and t.n == 2
              and all(i == 0 for i in t.indices)]
    if len(types) != 69:
        problems.append(f"{len(types)} zero-index types, expected 69")
    if len(chains) != 5:
        problems.append(f"{len(chains)} all-zero chains, expected 5")
    for t in types:
        r = chi_compactification(t)
        if (r.value, r.route) != (0, Route.ZERO_INDEX):
            problems.append(f"{format_type(t)}: {r}")
    _finish(capsys, 5,
            "chi(N) = 0 for all 69 zero-index types in g<=4, n<=4, |i|<=2",
            t0, 10.0, problems)


def test_criterion_06_component_chi_classification(capsys):
    t0 = time.perf_counter()
    problems = []
    types = list(iter_types(SweepBounds(3, 5, 3)))
    ones = []
    for t in types:
        r = chi_component(t)
        if t.variant is Variant.NONSEP:
            want = 1 if t.g == 0 else 0
        elif t.variant is Variant.SEP:
            total = sum(abs(i) for i in t.indices)
            want = 1 if (t.g == 0 and total == t.n) else 0
        else:
            want = 0
        route = Route.COMPONENT_G0 if want else Route.COMPONENT_ZERO
        if (r.value, r.route) != (want, route):
            problems.append(f"{format_type(t)}: {r}")
        if dimension(t) != 2 * (t.g + t.n - 1):
            problems.append(f"{format_type(t)}: dim {dimension(t)}")
        if r.value == 1:
            ones.append(format_type(t))
    if len(types) != 127:
        problems.append(f"{len(types)} labels, expected 127")
    if ones != ["0,2,0|", "0,4,0|", "0,1,1|1", "0,2,1|2", "0,3,1|3"]:
        problems.append(f"contractible set {ones}")
    _finish(capsys, 6,
            "chi(H) classification and dim over all 127 labels in "
            "g<=3, n<=5, |i|<=3", t0, 10.0, problems)


def test_criterion_07_cell_identities(capsys):
    t0 = time.perf_counter()
    problems = []
    for k in range(13):
        cells = cells_real(k)
        if len(cells) != (1 if k == 0 else 2):
            problems.append(f"real k={k}: {len(cells)} cells")
        if chi_w_real(k) != (1 if k == 0 else 0):
            problems.append(f"real k={k}: chi {chi_w_real(k)}")
    for s in range(1, 13):
        if len(cells_lambda(s)) != 1 << (s - 1):
            problems.append(f"lambda s={s}: {len(cells_lambda(s))} cells")
        if chi_w_lambda(s) != (1 if s == 1 else 0):
            problems.append(f"lambda s={s}: chi {chi_w_lambda(s)}")
    for r in range(13):
        for s in range(13):
            if chi_cover(r, s) != (1 if r == 0 and s <= 1 else 0):
                problems.append(f"cover ({r},{s})")
    _finish(capsys, 7, "boundary cell identities for k, s, r <= 12",
            t0, 1.0, problems)


def test_criterion_08_fast_census_equals_brute_force(capsys):
    t0 = time.perf_counter()
    problems = []
    types = _graph_model_types(2, 5, 3)
    if len(types) != 44:
        problems.append(f"{len(types)} types, expected 44")

    def keys(graphs, key=canonical_key):
        return sorted(key(g) for g in graphs)

    def plain_key(g):
        return canonical_key(strip_gamma(g))

    existence_any = {"gamma_mode": GammaMode.EXISTENCE, "involution": False}
    for t in types:
        if t.variant is Variant.NONSEP:
            runs = [
                ("as-data", keys(enum_nonsep(t)),
                 keys(enum_nonsep_naive(t))),
                ("existence",
                 keys(enum_nonsep(t, gamma_mode=GammaMode.EXISTENCE)),
                 keys(enum_nonsep_naive(t, gamma_mode=GammaMode.EXISTENCE))),
                ("any-order", keys(enum_nonsep(t, involution=False)),
                 keys(enum_nonsep_naive(t, involution=False))),
                # the two routes keep different gammas here, so only
                # the underlying graphs are compared
                ("existence-any-order",
                 keys(enum_nonsep(t, **existence_any), plain_key),
                 keys(enum_nonsep_naive(t, **existence_any), plain_key)),
            ]
        else:
            runs = [("sep", keys(enum_sep(t, allow_full_degree=True)),
                     keys(enum_sep_naive(t, allow_full_degree=True)))]
        for label, fast, slow in runs:
            if fast != slow:
                problems.append(
                    f"{format_type(t)} [{label}]: {len(fast)} vs {len(slow)}")
    _finish(capsys, 8,
            "shape-based and brute-force censuses agree on all 44 "
            "types in g<=2, n<=5, |i|<=3 (four gamma conventions)",
            t0, 600.0, problems)


def test_criterion_09_strata_against_partition_oracle(capsys):
    t0 = time.perf_counter()
    problems = []
    found = enumerate_strata(2)
    if [(s.real_mults, s.pair_mults, s.dim) for s in found] != [
            ((), (1,), 2), ((2,), (), 1), ((1, 1), (), 2)]:
        problems.append(f"m=2 strata {found}")

    table = [1] + [0] * 20
    for part in range(1, 21):
        for total in range(part, 21):
            table[total] += table[total - part]

    def oracle(m):
        return sum(table[m - 2 * b] * table[b] for b in range(m // 2 + 1))

    for m in range(21):
        strata = enumerate_strata(m)
        if len(strata) != oracle(m):
            problems.append(f"m={m}: {len(strata)} != {oracle(m)}")
        if any(s.weight != m for s in strata):
            problems.append(f"m={m}: weight drift")
    _finish(capsys, 9,
            "divisor strata match the independent partition-pair count "
            "for m <= 20", t0, 5.0, problems)


def test_criterion_10_canonical_form_invariance(capsys):
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(8128)
    types = _graph_model_types(3, 5, 3)
    if len(types) != 64:
        problems.append(f"{len(types)} types, expected 64")
    total_graphs = 0
    for t in types:
        if t.variant is Variant.NONSEP:
            graphs = enum_nonsep(t)
            again = enum_nonsep(t)
        else:
            graphs = enum_sep(t, allow_full_degree=True)
            again = enum_sep(t, allow_full_degree=True)
        if graphs != again:
            problems.append(f"{format_type(t)}: unstable output")
        total_graphs += len(graphs)
        for g in graphs:
            key = canonical_key(g)
            n_v = len(g.vertices)
            for _ in range(100):
                perm = list(range(n_v))
                rng.shuffle(perm)
                if canonical_key(relabel(g, tuple(perm))) != key:
                    problems.append(f"{format_type(t)}: key moved")
                    break
    if total_graphs != 97:
        problems.append(f"{total_graphs} graphs, expected 97")
    _finish(capsys, 10,
            "canonical keys of all 97 graphs in g<=3, n<=5, |i|<=3 "
            "survive 100 random relabelings each", t0, 60.0, problems)
