"""Exact enumeration of decorated graphs for a topological type.

Two paths compute the same census.  The fast path builds bipartite
multigraph shapes in a canonical form (maximal matrix under row and
column permutations), decorates them, and deduplicates with
:func:`rmfchi.decograph.canonical_key`; one loop serves both variants,
and non-separating graphs then get their symmetries from
:func:`rmfchi.decograph.find_gammas`.  The naive path works from the
definitions: it lists labeled cores, hangs the roots off them in every
way, tries every color-swapping bijection as gamma, keeps what the
checkers accept, and buckets the survivors by exhausting relabelings.
It exists so the fast path can be cross-validated and should only be
used on small types.  The two paths share only the graph data classes,
``relabel``/``strip_gamma``, the checkers (with their gamma clauses,
:func:`rmfchi.decograph.gamma_violations`) and the input guards.

Both paths charge every generated object against a work meter so
runaway inputs fail fast instead of hanging.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations, permutations, product
from operator import add

from .decograph import (
    Color,
    DecoratedGraph,
    Edge,
    Vertex,
    _require_graph_model,
    _vertex_invariant,
    canonical_key,
    check_nonsep,
    check_sep,
    find_gammas,
    gamma_violations,
    relabel,
    strip_gamma,
)
from .topotype import TopType, Variant, format_type, has_full_degree

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

    Every valid graph has edge weights summing to ``edge_weight_sum``,
    and its cycle rank plus total vertex weight equals ``genus_budget``.
    Root edge weights are forced, one multiset per color.  Each root
    edge is a single edge carrying its whole index and every other edge
    weighs at least 1, so a graph has at most ``max_edges`` edges: the
    edge weight sum less the root weights, plus one edge per root.
    """

    edge_weight_sum: int
    genus_budget: int
    white_root_weights: tuple[int, ...]
    black_root_weights: tuple[int, ...]
    balanced: bool

    @property
    def max_edges(self) -> int:
        roots = self.white_root_weights + self.black_root_weights
        return self.edge_weight_sum - sum(roots) + len(roots)


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
# fast path: shapes and decorations


def _compositions(total: int, slots: int):
    """Tuples of ``slots`` integers >= 0 summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _compositions_upto(total: int, cap: tuple[int, ...],
                       ties: tuple[bool, ...]):
    """Compositions of ``total`` into ``len(cap)`` parts for one shape row.

    A row is at most ``cap`` (the row above it), and where two adjacent
    columns j, j + 1 are equal in every row above (``ties[j]``), part j
    is at least part j + 1.  The rows come in the order
    :func:`_compositions` yields them, so this is that generator
    filtered by both conditions, without building the rows they drop.
    """
    slots = len(cap)
    # parts j, j + 1, ... never rise when every tie from j on holds
    falling = [all(ties[j:]) for j in range(slots)]

    def rec(j: int, left: int, above: int, tight: bool, prefix):
        top = min(left, above, cap[j]) if tight else min(left, above)
        if j == slots - 1:
            if left <= top:
                yield prefix + (left,)
            return
        low = -(-left // (slots - j)) if falling[j] else 0
        for part in range(low, top + 1):
            yield from rec(j + 1, left - part, part if ties[j] else total,
                           tight and part == cap[j], prefix + (part,))

    if slots:
        yield from rec(0, total, total, True, ())
    elif total == 0:
        yield ()


def _partitions_exact(total: int, parts: int, minimum: int = 1):
    """Non-decreasing tuples of ``parts`` integers >= minimum summing up."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _partitions_exact(total - first, parts - 1, first):
            yield (first,) + rest


def _is_canonical(mat, n_b: int) -> bool:
    # Canonical shape: maximal tuple-of-rows over column permutations
    # with rows sorted descending.
    for colp in permutations(range(n_b)):
        rows = sorted((tuple(row[j] for j in colp) for row in mat),
                      reverse=True)
        if tuple(rows) > mat:
            return False
    return True


def _shapes(n_w: int, n_b: int, total: int, white_roots: int,
            black_roots: int, meter: WorkMeter):
    """Canonical connected multigraph shapes as multiplicity matrices.

    Only shapes with room for the roots are kept: every root is a
    vertex of degree 1, so ``white_roots`` rows and ``black_roots``
    columns must have sum 1.  Partial matrices are cut as soon as they
    cannot become such a shape: column sums only grow, and a row's sum
    is final.
    They are also cut when they cannot become canonical: if column j
    read top-down were below column j + 1, swapping the two would raise
    the first row where they differ, and the row-sorted result would be
    larger.  :func:`_is_canonical` stays the final judge.

    Connectivity is decided row by row.  The column cut keeps the used
    columns a prefix and rows never rise, so a row after the first with
    nothing in that prefix cuts itself and every row below it off from
    the rows above; it is skipped.  A shape whose later rows each meet
    the columns used above them, with no column left unused, is connected.
    """

    def rows_from(i: int, remaining: int, prev, ties, colsums, unit_rows,
                  acc):
        if i == n_w:
            mat = tuple(acc)
            meter.tick()
            if all(colsums) and _is_canonical(mat, n_b):
                yield mat
            return
        # Rows come in non-increasing order, and the last row takes all
        # that remains.
        left_after = n_w - i - 1
        lowest = remaining if left_after == 0 else 1
        used = sum(map(bool, colsums))
        for s in range(lowest, remaining - left_after + 1):
            units = unit_rows + (s == 1)
            if units + left_after < white_roots:
                continue
            for row in _compositions_upto(s, prev, ties):
                if i and not any(row[:used]):
                    continue
                sums = tuple(map(add, colsums, row))
                if sum(c <= 1 for c in sums) < black_roots:
                    continue
                still_tied = tuple(t and a == b
                                   for t, a, b in zip(ties, row, row[1:]))
                yield from rows_from(i + 1, remaining - s, row, still_tied,
                                     sums, units, acc + [row])

    # The first row has no row above it: a cap of ``total`` in every
    # column admits any row, and every column pair starts tied.
    yield from rows_from(0, total, (total,) * n_b, (True,) * (n_b - 1),
                         (0,) * n_b, 0, [])


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


def _root_choices(vertexes, incident, needed):
    """Sets of vertexes that can carry the roots of one color.

    A root candidate has exactly one incident weight, its root weight;
    a set qualifies when its root weights are ``needed`` as a multiset.
    """
    need = tuple(sorted(needed))
    candidates = [v for v in vertexes if len(incident[v]) == 1]
    return [set(combo) for combo in combinations(candidates, len(need))
            if tuple(sorted(incident[v][0] for v in combo)) == need]


def _assemble(n_w, n_b, cells, weights, roots, genus) -> DecoratedGraph:
    vertices = tuple(Vertex(Color.WHITE if v < n_w else Color.BLACK,
                            genus.get(v, 0), v in roots)
                     for v in range(n_w + n_b))
    edges = tuple(Edge(i, n_w + j, w)
                  for (i, j, _), ws in zip(cells, weights) for w in ws)
    return DecoratedGraph(vertices, edges)


def _decorations(mat, bounds: EnumerationBounds, meter: WorkMeter,
                 swappable: bool = False):
    """All decorated graphs (without gamma) on one shape.

    With ``swappable``, only those whose white and black vertex
    invariants agree as multisets, the graphs that can carry a
    color-swapping gamma.  The test runs at three depths: the shape is
    dropped when its row and column sums, the degrees of the two colors,
    differ as multisets; a weight split and root choice when the
    invariants already differ with every genus read as 0; and a genus
    composition when the full invariants differ.  Each test is an
    isomorphism invariant, so it drops whole classes, and every kept
    class is still first reached by the same decoration.
    """
    if swappable and sorted(map(sum, mat)) != sorted(map(sum, zip(*mat))):
        return
    n_w, n_b = len(mat), len(mat[0])
    whites, blacks = range(n_w), range(n_w, n_w + n_b)
    cells = _cells_of(mat)
    mults = [m for _, _, m in cells]
    cycle_rank = sum(mults) - n_w - n_b + 1
    cells_at = [[] for _ in range(n_w + n_b)]
    for idx, (i, j, _) in enumerate(cells):
        cells_at[i].append(idx)
        cells_at[n_w + j].append(idx)

    for weights in _weight_splits(mults, bounds.edge_weight_sum):
        meter.tick()
        incident = [[w for idx in at for w in weights[idx]]
                    for at in cells_at]

        def sides_agree(roots, genus) -> bool:
            def side(vertexes) -> list[tuple]:
                return sorted(_vertex_invariant(v in roots, genus.get(v, 0),
                                                incident[v])
                              for v in vertexes)
            return side(whites) == side(blacks)

        for white_roots, black_roots in product(
                _root_choices(whites, incident, bounds.white_root_weights),
                _root_choices(blacks, incident, bounds.black_root_weights)):
            roots = white_roots | black_roots
            if swappable and not sides_agree(roots, {}):
                continue
            free = [v for v in range(n_w + n_b) if v not in roots]
            for comp in _compositions(bounds.genus_budget - cycle_rank,
                                      len(free)):
                meter.tick()
                genus = dict(zip(free, comp))
                if swappable and not sides_agree(roots, genus):
                    continue
                yield _assemble(n_w, n_b, cells, weights, roots, genus)


def _splits(total_vertices: int, bounds: EnumerationBounds):
    """(white, black) vertex counts with room for the roots of each color.

    A balanced type splits only evenly.
    """
    min_w = max(1, len(bounds.white_root_weights))
    min_b = max(1, len(bounds.black_root_weights))
    for n_w in range(min_w, total_vertices - min_b + 1):
        n_b = total_vertices - n_w
        if n_w == n_b or not bounds.balanced:
            yield n_w, n_b


# ---------------------------------------------------------------------------
# fast path: the census loop


def _plain_classes(bounds: EnumerationBounds, meter: WorkMeter,
                   swappable: bool = False):
    """(canonical key, gamma-less graph), once per isomorphism class.

    With ``swappable``, only the classes that can carry a
    color-swapping gamma (see :func:`_decorations`).
    """
    seen: set[bytes] = set()
    for n_edges in range(1, bounds.max_edges + 1):
        for cycle_rank in range(0, bounds.genus_budget + 1):
            for n_w, n_b in _splits(n_edges + 1 - cycle_rank, bounds):
                for mat in _shapes(n_w, n_b, n_edges,
                                   len(bounds.white_root_weights),
                                   len(bounds.black_root_weights), meter):
                    for plain in _decorations(mat, bounds, meter, swappable):
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


def _require_sep_census(t: TopType, allow_full_degree: bool):
    """Raise unless a separating census of the type may run.

    The type needs a graph model; a full-degree type has a closed form
    and is enumerated only when the caller asks for it.
    """
    _require_graph_model(t)
    if has_full_degree(t) and not allow_full_degree:
        raise FullDegreeError(
            "full-degree separating types are a closed form; "
            "pass allow_full_degree=True to enumerate anyway")


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
    for _, plain in _plain_classes(bounds, meter, swappable=True):
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
    _require_sep_census(t, allow_full_degree)
    meter = meter or WorkMeter()
    found = dict(_plain_classes(bounds_for(t), meter))
    return _checked(t, [g for _, g in sorted(found.items())])


# ---------------------------------------------------------------------------
# naive oracle: built from the definitions alone


def _root_budgets(t: TopType):
    """Root weights by color, then the core's edge weight sum and genus.

    A root is a genus-0, degree-1 vertex whose edge weight is its
    index, so the roots take their share of the degree equation; the
    rest of the graph (the core) carries the remaining edge weight, and
    its cycle rank plus vertex genus is what the genus equation leaves.
    The separating halvings are exact for every existing type.
    """
    if t.variant is Variant.NONSEP:
        roots = tuple(sorted(t.indices))
        return roots, roots, t.n - sum(t.indices), t.g - t.k
    abs_sum = sum(abs(i) for i in t.indices)
    return (tuple(sorted(-i for i in t.indices if i < 0)),
            tuple(sorted(i for i in t.indices if i > 0)),
            (t.n + abs_sum) // 2 - abs_sum, (t.g - t.k + 1) // 2)


def _edge_multisets(slots, total: int, start: int = 0):
    """Sorted tuples of slots, repeats allowed, whose weights sum up."""
    if total == 0:
        yield ()
        return
    for idx in range(start, len(slots)):
        if slots[idx][2] <= total:
            for rest in _edge_multisets(slots, total - slots[idx][2], idx):
                yield (slots[idx],) + rest


def _spreads(total: int, slots: int):
    """Tuples of ``slots`` integers >= 0 summing to ``total``."""
    for cuts in combinations(range(total + slots - 1), slots - 1):
        ends = (-1,) + cuts + (total + slots - 1,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def _naive_plain_graphs(t: TopType, checker, meter: WorkMeter):
    """Labeled gamma-less graphs of the type that the checker accepts.

    Two roots are never adjacent (that edge would be the whole graph,
    forcing n = 0), so every graph is a connected core of non-root
    vertexes with each root hung off a core vertex of the other color.
    Cores are labeled: white vertexes first, edges as sorted multisets.
    """
    white_roots, black_roots, weight_sum, genus = _root_budgets(t)
    roots = ([(Color.WHITE, w) for w in white_roots]
             + [(Color.BLACK, w) for w in black_roots])
    root_vertices = tuple(Vertex(color, 0, True) for color, _ in roots)
    for n_core in range(1, weight_sum + 2):
        for n_w in range(n_core + 1):
            colors = [Color.WHITE] * n_w + [Color.BLACK] * (n_core - n_w)
            whites = range(n_w)
            blacks = range(n_w, n_core)
            slots = [(u, v, w) for u in whites for v in blacks
                     for w in range(1, weight_sum + 1)]
            hosts_of = [blacks if color is Color.WHITE else whites
                        for color, _ in roots]
            for core in _edge_multisets(slots, weight_sum):
                meter.tick()
                edges = tuple(Edge(u, v, w) for u, v, w in core)
                cycle_rank = len(edges) - n_core + 1
                if not (0 <= cycle_rank <= genus and DecoratedGraph(
                        tuple(map(Vertex, colors)), edges).is_connected()):
                    continue
                for genera in _spreads(genus - cycle_rank, n_core):
                    vertices = tuple(map(Vertex, colors, genera))
                    for hosts in product(*hosts_of):
                        meter.tick()
                        root_edges = tuple(
                            Edge(n_core + r, host, w)
                            for r, (host, (_, w)) in enumerate(zip(hosts,
                                                                   roots)))
                        g = DecoratedGraph(vertices + root_vertices,
                                           edges + root_edges)
                        if checker(g):
                            yield g


def _relabelings(g: DecoratedGraph):
    """g under every color-preserving bijection of its vertexes."""
    whites = g.ids_of(Color.WHITE)
    blacks = g.ids_of(Color.BLACK)
    for wp in permutations(whites):
        for bp in permutations(blacks):
            perm = [0] * len(g.vertices)
            for old, new in zip(whites + blacks, wp + bp):
                perm[old] = new
            yield relabel(g, perm)


def _bucket(candidates, use_gamma: bool) -> list[DecoratedGraph]:
    """One graph per isomorphism class, by exhausting relabelings.

    Two graphs are isomorphic when a relabeling of one has the other's
    vertex data, parallel edge weights and (when ``use_gamma``) gamma.
    """

    def form(g: DecoratedGraph):
        return (g.vertices, tuple(sorted(g.cells().items())),
                g.gamma if use_gamma else None)

    seen = set()
    reps: list[DecoratedGraph] = []
    for g in candidates:
        if not any(form(h) in seen for h in _relabelings(g)):
            seen.add(form(g))
            reps.append(g)
    return reps


def enum_nonsep_naive(t: TopType, *,
                      gamma_mode: GammaMode = GammaMode.AS_DATA,
                      involution: bool = True,
                      meter: WorkMeter | None = None
                      ) -> list[DecoratedGraph]:
    """Brute-force census of non-separating graphs; small types only.

    Every color-swapping bijection of every accepted labeled graph is
    tried as gamma.  A plain graph is accepted when ``gamma-missing`` is
    the only clause it fails, and no other clause reads gamma, so the
    checker accepts the graph with gamma exactly when
    :func:`gamma_violations` finds nothing; that is what each trial asks.
    In EXISTENCE mode a graph keeps the first gamma admitted, where
    :func:`enum_nonsep` keeps the one with the smallest canonical key.
    """
    if t.variant is not Variant.NONSEP:
        raise ValueError("enum_nonsep_naive needs a non-separating type")
    _require_graph_model(t)
    meter = meter or WorkMeter()

    def structural_ok(g: DecoratedGraph) -> bool:
        report = check_nonsep(g, t, involution)
        return report.clauses == ("gamma-missing",)

    candidates = []
    for plain in _naive_plain_graphs(t, structural_ok, meter):
        whites = plain.ids_of(Color.WHITE)
        blacks = plain.ids_of(Color.BLACK)
        admitted = []
        for to_black in permutations(blacks):
            for to_white in permutations(whites):
                meter.tick()
                gamma = [0] * len(plain.vertices)
                for old, new in zip(whites + blacks, to_black + to_white):
                    gamma[old] = new
                if not gamma_violations(plain, gamma, involution):
                    admitted.append(replace(plain, gamma=tuple(gamma)))
        if gamma_mode is GammaMode.EXISTENCE:
            admitted = admitted[:1]
        candidates.extend(admitted)
    return _bucket(candidates, gamma_mode is GammaMode.AS_DATA)


def enum_sep_naive(t: TopType, *, allow_full_degree: bool = False,
                   meter: WorkMeter | None = None) -> list[DecoratedGraph]:
    """Brute-force census of separating graphs; small types only."""
    if t.variant is not Variant.SEP:
        raise ValueError("enum_sep_naive needs a separating type")
    _require_sep_census(t, allow_full_degree)
    meter = meter or WorkMeter()
    return _bucket(_naive_plain_graphs(t, lambda g: check_sep(g, t).ok,
                                       meter), False)
