"""Exact enumeration of decorated graphs for a topological type.

Two paths compute the same census.  The fast path builds bipartite
multigraph shapes in a canonical form (maximal matrix under row and
column permutations), decorates them, and deduplicates with
:func:`rmfchi.decograph.canonical_key`; one loop serves both variants,
and non-separating graphs then get their symmetries from
:func:`rmfchi.decograph.find_gammas`.  The naive path generates every
labeled candidate inside the same bounds, keeps those the checkers
accept, and buckets them by brute-force isomorphism; it exists so the
fast path can be cross-validated and should only be used on small types.
It has its own candidate loop, but shares the bounds and the low-level
generators with the fast path.

Both paths charge every generated object against a work meter so
runaway inputs fail fast instead of hanging.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations, permutations

from .decograph import (
    Color,
    DecoratedGraph,
    Edge,
    Vertex,
    _require_graph_model,
    canonical_key,
    check_nonsep,
    check_sep,
    find_gammas,
    strip_gamma,
)
from .topotype import TopType, Variant, format_type

DEFAULT_WORK_LIMIT = 100_000_000
WORK_LIMIT_ENV = "RMF_WORK_LIMIT"


class WorkLimitExceeded(RuntimeError):
    """The enumeration touched more objects than the configured budget."""


class FullDegreeError(ValueError):
    """Separating full-degree types short-circuit to a closed form."""


class WorkMeter:
    """Counts generated objects and aborts past the limit."""

    def __init__(self, limit: int | None = None):
        if limit is None:
            text = os.environ.get(WORK_LIMIT_ENV, str(DEFAULT_WORK_LIMIT))
            try:
                limit = int(text)
            except ValueError:
                raise ValueError(f"{WORK_LIMIT_ENV} must be an integer, "
                                 f"got {text!r}") from None
        if limit < 1:
            raise ValueError("work limit must be >= 1")
        self.limit = limit
        self.used = 0

    def tick(self, amount: int = 1):
        self.used += amount
        if self.used > self.limit:
            raise WorkLimitExceeded(
                f"work limit {self.limit} exceeded; raise {WORK_LIMIT_ENV} "
                "or narrow the input")


class GammaMode(str, Enum):
    """How non-separating graphs are counted.

    AS_DATA counts pairs (graph, gamma) up to isomorphism conjugating
    gamma; EXISTENCE counts underlying graphs that admit at least one
    admissible gamma.
    """

    AS_DATA = "as-data"
    EXISTENCE = "existence"


@dataclass(frozen=True)
class EnumerationBounds:
    """Finite search region implied by the genus and degree equations.

    Every valid graph has edge weights summing to ``edge_weight_sum``
    (so at most that many edges), and its cycle rank plus total vertex
    weight equals ``genus_budget``.  Root edge weights are forced, one
    multiset per color.
    """

    edge_weight_sum: int
    genus_budget: int
    white_root_weights: tuple[int, ...]
    black_root_weights: tuple[int, ...]
    balanced: bool

    @property
    def max_edges(self) -> int:
        return self.edge_weight_sum

    @property
    def max_vertices(self) -> int:
        return self.edge_weight_sum + 1


def bounds_for(t: TopType) -> EnumerationBounds:
    """Search bounds for an existing type with a graph model."""
    _require_graph_model(t)
    if t.variant is Variant.NONSEP:
        roots = tuple(sorted(t.indices))
        return EnumerationBounds(
            edge_weight_sum=t.n + sum(t.indices),
            genus_budget=t.g - t.k,
            white_root_weights=roots,
            black_root_weights=roots,
            balanced=True,
        )
    if t.variant is Variant.SEP:
        total_abs = sum(abs(i) for i in t.indices)
        return EnumerationBounds(
            edge_weight_sum=(t.n + total_abs) // 2,
            genus_budget=(t.g - t.k + 1) // 2,
            white_root_weights=tuple(sorted(-i for i in t.indices if i < 0)),
            black_root_weights=tuple(sorted(i for i in t.indices if i > 0)),
            balanced=False,
        )
    raise ValueError("extended types have no graph model")


# ---------------------------------------------------------------------------
# shared generators


def _compositions(total: int, slots: int):
    """Tuples of ``slots`` integers >= 0 summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _partitions_exact(total: int, parts: int, minimum: int = 1):
    """Non-decreasing tuples of ``parts`` integers >= minimum summing up."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _partitions_exact(total - first, parts - 1, first):
            yield (first,) + rest


def _matrix_connected(mat) -> bool:
    n_w = len(mat)
    n_b = len(mat[0]) if mat else 0
    seen_w, seen_b = {0}, set()
    frontier = [(0, True)]
    while frontier:
        v, is_white = frontier.pop()
        if is_white:
            for j in range(n_b):
                if mat[v][j] and j not in seen_b:
                    seen_b.add(j)
                    frontier.append((j, False))
        else:
            for i in range(n_w):
                if mat[i][v] and i not in seen_w:
                    seen_w.add(i)
                    frontier.append((i, True))
    return len(seen_w) == n_w and len(seen_b) == n_b


def _is_canonical(mat, n_b: int) -> bool:
    # Canonical shape: maximal tuple-of-rows over column permutations
    # with rows sorted descending.
    for colp in permutations(range(n_b)):
        rows = sorted((tuple(row[j] for j in colp) for row in mat),
                      reverse=True)
        if tuple(rows) > mat:
            return False
    return True


def _shapes(n_w: int, n_b: int, total: int, meter: WorkMeter):
    """Canonical connected multigraph shapes as multiplicity matrices."""

    def rows_from(i: int, remaining: int, prev, acc):
        if i == n_w:
            if remaining == 0:
                mat = tuple(acc)
                meter.tick()
                if (all(any(row[j] for row in mat) for j in range(n_b))
                        and _matrix_connected(mat)
                        and _is_canonical(mat, n_b)):
                    yield mat
            return
        left_after = n_w - i - 1
        for s in range(1, remaining - left_after + 1):
            for row in _compositions(s, n_b):
                if prev is not None and row > prev:
                    continue
                yield from rows_from(i + 1, remaining - s, row, acc + [row])

    yield from rows_from(0, total, None, [])


def _all_matrices(n_w: int, n_b: int, total: int, meter: WorkMeter):
    """Every multiplicity matrix with no empty row or column."""

    def rows_from(i: int, remaining: int, acc):
        if i == n_w:
            if remaining == 0:
                mat = tuple(acc)
                meter.tick()
                if all(any(row[j] for row in mat) for j in range(n_b)):
                    yield mat
            return
        left_after = n_w - i - 1
        for s in range(1, remaining - left_after + 1):
            for row in _compositions(s, n_b):
                yield from rows_from(i + 1, remaining - s, acc + [row])

    yield from rows_from(0, total, [])


def _cells_of(mat):
    return [(i, j, m) for i, row in enumerate(mat)
            for j, m in enumerate(row) if m]


def _weight_splits(mults, total: int):
    """Per-cell sorted weight tuples with the given global sum."""

    def rec(idx: int, remaining: int, acc):
        if idx == len(mults):
            if remaining == 0:
                yield tuple(acc)
            return
        m = mults[idx]
        tail_min = sum(mults[idx + 1:])
        for s in range(m, remaining - tail_min + 1):
            for part in _partitions_exact(s, m):
                yield from rec(idx + 1, remaining - s, acc + [part])

    yield from rec(0, total, [])


def _root_choices(candidates, weight_of, needed):
    need = tuple(sorted(needed))
    out = []
    for combo in combinations(candidates, len(need)):
        if tuple(sorted(weight_of[v] for v in combo)) == need:
            out.append(combo)
    return out


def _assemble(n_w, n_b, cells, weights, white_roots, black_roots,
              vertex_weights) -> DecoratedGraph:
    vertices = []
    for i in range(n_w):
        vertices.append(Vertex(Color.WHITE, vertex_weights.get(i, 0),
                               i in white_roots))
    for j in range(n_b):
        v = n_w + j
        vertices.append(Vertex(Color.BLACK, vertex_weights.get(v, 0),
                               v in black_roots))
    edges = []
    for (i, j, _), ws in zip(cells, weights):
        for w in ws:
            edges.append(Edge(i, n_w + j, w))
    return DecoratedGraph(tuple(vertices), tuple(edges))


def _decorations(mat, n_w, n_b, bounds: EnumerationBounds, cycle_rank: int,
                 meter: WorkMeter):
    """All decorated graphs (without gamma) on one shape."""
    cells = _cells_of(mat)
    mults = [m for _, _, m in cells]
    deg1_w = [i for i in range(n_w) if sum(mat[i]) == 1]
    deg1_b = [j for j in range(n_b)
              if sum(mat[i][j] for i in range(n_w)) == 1]
    if (len(deg1_w) < len(bounds.white_root_weights)
            or len(deg1_b) < len(bounds.black_root_weights)):
        return
    cell_index = {}
    for idx, (i, j, m) in enumerate(cells):
        if m == 1:
            cell_index[(i, j)] = idx
    vweight_total = bounds.genus_budget - cycle_rank

    for weights in _weight_splits(mults, bounds.edge_weight_sum):
        meter.tick()
        w_edge = {}
        for i in deg1_w:
            j = next(j for j in range(n_b) if mat[i][j])
            w_edge[i] = weights[cell_index[(i, j)]][0]
        for j in deg1_b:
            i = next(i for i in range(n_w) if mat[i][j])
            w_edge[n_w + j] = weights[cell_index[(i, j)]][0]
        white_opts = _root_choices(deg1_w, w_edge,
                                   bounds.white_root_weights)
        if not white_opts:
            continue
        black_opts = _root_choices([n_w + j for j in deg1_b], w_edge,
                                   bounds.black_root_weights)
        if not black_opts:
            continue
        for white_roots in white_opts:
            for black_roots in black_opts:
                roots = set(white_roots) | set(black_roots)
                free = [v for v in range(n_w + n_b) if v not in roots]
                for comp in _compositions(vweight_total, len(free)):
                    meter.tick()
                    vw = dict(zip(free, comp))
                    yield _assemble(n_w, n_b, cells, weights,
                                    set(white_roots), set(black_roots), vw)


def _splits(total_vertices: int, bounds: EnumerationBounds, min_w: int,
            min_b: int):
    if bounds.balanced:
        if total_vertices % 2 == 0:
            half = total_vertices // 2
            if half >= max(1, min_w) and half >= max(1, min_b):
                yield half, half
        return
    for n_w in range(max(1, min_w), total_vertices):
        n_b = total_vertices - n_w
        if n_b >= max(1, min_b):
            yield n_w, n_b


# ---------------------------------------------------------------------------
# fast path


def _plain_classes(bounds: EnumerationBounds, meter: WorkMeter):
    """(canonical key, gamma-less graph), once per isomorphism class."""
    seen: set[bytes] = set()
    for n_edges in range(1, bounds.max_edges + 1):
        for cycle_rank in range(0, bounds.genus_budget + 1):
            total_v = n_edges + 1 - cycle_rank
            if total_v < 2:
                continue
            for n_w, n_b in _splits(total_v, bounds,
                                    len(bounds.white_root_weights),
                                    len(bounds.black_root_weights)):
                for mat in _shapes(n_w, n_b, n_edges, meter):
                    for plain in _decorations(mat, n_w, n_b, bounds,
                                              cycle_rank, meter):
                        key = canonical_key(plain)
                        if key not in seen:
                            seen.add(key)
                            yield key, plain


def _checked(t: TopType, graphs: list[DecoratedGraph],
             involution: bool = True) -> list[DecoratedGraph]:
    """The census output, once every graph has passed its checker."""
    for g in graphs:
        report = (check_nonsep(g, t, involution)
                  if t.variant is Variant.NONSEP else check_sep(g, t))
        if not report.ok:
            raise RuntimeError(
                f"census of {format_type(t)} produced a graph violating "
                + ", ".join(report.clauses))
    return graphs


def _existence_projection(as_data: list[DecoratedGraph]
                          ) -> list[DecoratedGraph]:
    """Per underlying graph, the as-data graph with the smallest key.

    The result is sorted by canonical key, as every census is.
    """
    chosen: dict[bytes, DecoratedGraph] = {}
    for g in sorted(as_data, key=canonical_key):
        chosen.setdefault(canonical_key(strip_gamma(g)), g)
    return list(chosen.values())


def _sep_bounds(t: TopType, allow_full_degree: bool) -> EnumerationBounds:
    """Bounds for a separating census; full degree only when asked."""
    bounds = bounds_for(t)
    if sum(abs(i) for i in t.indices) == t.n and not allow_full_degree:
        raise FullDegreeError(
            "full-degree separating types are a closed form; "
            "pass allow_full_degree=True to enumerate anyway")
    return bounds


def enum_nonsep(t: TopType, *, gamma_mode: GammaMode = GammaMode.AS_DATA,
                involution: bool = True,
                meter: WorkMeter | None = None) -> list[DecoratedGraph]:
    """All non-separating graphs for the type, sorted by canonical key.

    In AS_DATA mode every returned graph carries one admissible gamma
    and two graphs differing only by non-conjugate gammas are distinct;
    in EXISTENCE mode each underlying graph appears once, carrying the
    gamma that gives the smallest canonical form.
    """
    if t.variant is not Variant.NONSEP:
        raise ValueError("enum_nonsep needs a non-separating type")
    meter = meter or WorkMeter()
    bounds = bounds_for(t)
    found: dict[bytes, DecoratedGraph] = {}
    for _, plain in _plain_classes(bounds, meter):
        for gam in find_gammas(plain, involution):
            g = replace(plain, gamma=gam)
            found.setdefault(canonical_key(g), g)
    graphs = [g for _, g in sorted(found.items())]
    if gamma_mode is GammaMode.EXISTENCE:
        graphs = _existence_projection(graphs)
    return _checked(t, graphs, involution)


def enum_sep(t: TopType, *, allow_full_degree: bool = False,
             meter: WorkMeter | None = None) -> list[DecoratedGraph]:
    """All separating graphs for the type, sorted by canonical key.

    Full-degree types (sum |i| = n) have a closed-form answer and are
    rejected unless ``allow_full_degree`` asks for the actual census.
    """
    if t.variant is not Variant.SEP:
        raise ValueError("enum_sep needs a separating type")
    bounds = _sep_bounds(t, allow_full_degree)
    meter = meter or WorkMeter()
    found = dict(_plain_classes(bounds, meter))
    return _checked(t, [g for _, g in sorted(found.items())])


# ---------------------------------------------------------------------------
# naive oracle


def _brute_equivalent(a: DecoratedGraph, b: DecoratedGraph,
                      use_gamma: bool) -> bool:
    """Isomorphism by exhausting color-preserving vertex bijections."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    wa = a.ids_of(Color.WHITE)
    wb = b.ids_of(Color.WHITE)
    ba = a.ids_of(Color.BLACK)
    bb = b.ids_of(Color.BLACK)
    if len(wa) != len(wb):
        return False
    cells_a = a.cells()
    cells_b = b.cells()

    def attrs(g, v):
        return (g.vertices[v].weight, g.vertices[v].root)

    for wp in permutations(wb):
        if any(attrs(a, x) != attrs(b, y) for x, y in zip(wa, wp)):
            continue
        for bp in permutations(bb):
            if any(attrs(a, x) != attrs(b, y) for x, y in zip(ba, bp)):
                continue
            image = {}
            for x, y in zip(wa, wp):
                image[x] = y
            for x, y in zip(ba, bp):
                image[x] = y
            ok = True
            for (u, v), ws in cells_a.items():
                iu, iv = image[u], image[v]
                pair = (iu, iv) if iu < iv else (iv, iu)
                if cells_b.get(pair, ()) != ws:
                    ok = False
                    break
            if ok and len(cells_a) != len(cells_b):
                ok = False
            if ok and use_gamma:
                for v in range(len(a.vertices)):
                    if image[a.gamma[v]] != b.gamma[image[v]]:
                        ok = False
                        break
            if ok:
                return True
    return False


def _bucket(candidates, use_gamma: bool) -> list[DecoratedGraph]:
    reps: list[DecoratedGraph] = []
    for g in candidates:
        if not any(_brute_equivalent(g, r, use_gamma) for r in reps):
            reps.append(g)
    return reps


def _naive_plain_graphs(t: TopType, bounds: EnumerationBounds, min_w: int,
                        min_b: int, checker, meter: WorkMeter):
    """Labeled decorated graphs (gamma-less) the checker accepts.

    The only pruning is sound by construction: no empty rows or columns
    (degree-0 vertexes cannot occur in a valid graph) and roots placed
    on degree-1 vertexes only (roots have degree 1 by definition).
    """
    for n_edges in range(1, bounds.max_edges + 1):
        for cycle_rank in range(0, bounds.genus_budget + 1):
            total_v = n_edges + 1 - cycle_rank
            if total_v < 2:
                continue
            for n_w, n_b in _splits(total_v, bounds, min_w, min_b):
                n_white_roots = len(bounds.white_root_weights)
                n_black_roots = len(bounds.black_root_weights)
                for mat in _all_matrices(n_w, n_b, n_edges, meter):
                    if not _matrix_connected(mat):
                        continue
                    cells = _cells_of(mat)
                    mults = [m for _, _, m in cells]
                    deg1_w = [i for i in range(n_w) if sum(mat[i]) == 1]
                    deg1_b = [j for j in range(n_b)
                              if sum(mat[i][j] for i in range(n_w)) == 1]
                    if (len(deg1_w) < n_white_roots
                            or len(deg1_b) < n_black_roots):
                        continue
                    vweight_total = bounds.genus_budget - cycle_rank
                    for weights in _weight_splits(mults,
                                                  bounds.edge_weight_sum):
                        for white_roots in combinations(deg1_w,
                                                        n_white_roots):
                            for black_roots in combinations(
                                    [n_w + j for j in deg1_b],
                                    n_black_roots):
                                roots = set(white_roots) | set(black_roots)
                                free = [v for v in range(n_w + n_b)
                                        if v not in roots]
                                for comp in _compositions(vweight_total,
                                                          len(free)):
                                    meter.tick()
                                    vw = dict(zip(free, comp))
                                    g = _assemble(n_w, n_b, cells, weights,
                                                  set(white_roots),
                                                  set(black_roots), vw)
                                    if checker(g):
                                        yield g


def enum_nonsep_naive(t: TopType, *,
                      gamma_mode: GammaMode = GammaMode.AS_DATA,
                      involution: bool = True,
                      meter: WorkMeter | None = None
                      ) -> list[DecoratedGraph]:
    """Brute-force census of non-separating graphs; small types only."""
    if t.variant is not Variant.NONSEP:
        raise ValueError("enum_nonsep_naive needs a non-separating type")
    meter = meter or WorkMeter()
    bounds = bounds_for(t)

    def structural_ok(g: DecoratedGraph) -> bool:
        report = check_nonsep(g, t, involution)
        return all(v.clause == "gamma-missing" for v in report.items)

    candidates = []
    for plain in _naive_plain_graphs(t, bounds, t.k, t.k, structural_ok,
                                     meter):
        whites = plain.ids_of(Color.WHITE)
        blacks = plain.ids_of(Color.BLACK)
        admitted = []
        for bij in permutations(blacks):
            perm = list(range(len(plain.vertices)))
            for w, b in zip(whites, bij):
                perm[w] = b
            if involution:
                for w, b in zip(whites, bij):
                    perm[b] = w
                taus = [None]
            else:
                taus = list(permutations(whites))
            for tau in taus:
                if tau is not None:
                    for b, w in zip(blacks, tau):
                        perm[b] = w
                meter.tick()
                g = replace(plain, gamma=tuple(perm))
                if check_nonsep(g, t, involution).ok:
                    admitted.append(g)
        if gamma_mode is GammaMode.EXISTENCE:
            if admitted:
                candidates.append(admitted[0])
        else:
            candidates.extend(admitted)
    return _bucket(candidates, gamma_mode is GammaMode.AS_DATA)


def enum_sep_naive(t: TopType, *, allow_full_degree: bool = False,
                   meter: WorkMeter | None = None) -> list[DecoratedGraph]:
    """Brute-force census of separating graphs; small types only."""
    if t.variant is not Variant.SEP:
        raise ValueError("enum_sep_naive needs a separating type")
    bounds = _sep_bounds(t, allow_full_degree)
    meter = meter or WorkMeter()
    n_neg = len(bounds.white_root_weights)
    n_pos = len(bounds.black_root_weights)

    def ok(g: DecoratedGraph) -> bool:
        return check_sep(g, t).ok

    candidates = list(_naive_plain_graphs(t, bounds, n_neg, n_pos, ok,
                                          meter))
    return _bucket(candidates, False)
