"""Brute-force census of decorated graphs, built from the definitions.

It lists labeled cores, hangs the roots off them in every way, tries
color-swapping bijections as gamma, keeps what the checkers accept, and
buckets the survivors by exhausting relabelings.  It skips only what a
checker clause rejects anyway: cores whose cycle rank exceeds the genus
budget (``genus-equation``), non-separating cores with more vertexes of
one color (``color-balance``), and bijections that change a vertex's
genus or root flag (``gamma-vertex-data``).  It exists so the fast
census of :mod:`rmfchi.enumerator` can be cross-validated and should
only be used on small types.

The imports below are all it shares with the fast census, and all come
from :mod:`rmfchi.decograph` and :mod:`rmfchi.topotype`, none from
:mod:`rmfchi.enumerator`: the graph data classes, ``relabel``, the
checker cores with their gamma clauses
(:func:`rmfchi.decograph.gamma_violations`), the input guards, the work
meter and the gamma modes.  It charges every generated object against
the meter so runaway inputs fail fast instead of hanging.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, permutations, product

from .decograph import (
    Color,
    DecoratedGraph,
    Edge,
    GammaMode,
    Vertex,
    WorkMeter,
    _nonsep_violations,
    _require_gamma_mode,
    _require_graph_model,
    _require_sep_census,
    _sep_violations,
    gamma_violations,
    relabel,
)
from .topotype import TopType, Variant


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


def _edge_multisets(slots, total: int, room: int, start: int = 0):
    """Sorted tuples of at most ``room`` slots, repeats allowed, whose
    weights sum up."""
    if total == 0:
        yield ()
        return
    if room == 0:
        return
    for idx in range(start, len(slots)):
        if slots[idx][2] <= total:
            for rest in _edge_multisets(slots, total - slots[idx][2],
                                        room - 1, idx):
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

    Two checker clauses are applied before a graph is built; the checker
    stays the final judge.  A core's cycle rank must fit the genus
    budget (``genus-equation``), so its edges are listed only up to
    n_core - 1 + genus of them, and the rank is tested before any edge
    is built.  A non-separating type has k roots of each color, so only
    cores with as many white as black vertexes are listed
    (``color-balance``).
    """
    white_roots, black_roots, weight_sum, genus = _root_budgets(t)
    balanced = t.variant is Variant.NONSEP
    roots = ([(Color.WHITE, w) for w in white_roots]
             + [(Color.BLACK, w) for w in black_roots])
    root_vertices = tuple(Vertex(color, 0, True) for color, _ in roots)
    for n_core in range(1, weight_sum + 2):
        for n_w in range(n_core + 1):
            if balanced and 2 * n_w != n_core:
                continue
            colors = [Color.WHITE] * n_w + [Color.BLACK] * (n_core - n_w)
            whites = range(n_w)
            blacks = range(n_w, n_core)
            slots = [(u, v, w) for u in whites for v in blacks
                     for w in range(1, weight_sum + 1)]
            hosts_of = [blacks if color is Color.WHITE else whites
                        for color, _ in roots]
            for core in _edge_multisets(slots, weight_sum,
                                        n_core - 1 + genus):
                meter.tick()
                cycle_rank = len(core) - n_core + 1
                if cycle_rank < 0:
                    continue
                edges = tuple(Edge(u, v, w) for u, v, w in core)
                if not DecoratedGraph(tuple(map(Vertex, colors)),
                                      edges).is_connected():
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

    Every color-swapping bijection of every accepted labeled graph that
    sends each vertex to one of the same genus and root flag is tried as
    gamma.  The others fail ``gamma-vertex-data``; they are skipped
    inside the loops over all of them, so the trials come in the order
    of the full loops, and the first gamma admitted is theirs.  A plain
    graph is accepted when ``gamma-missing`` is the only clause it
    fails, and no other clause reads gamma, so the checker accepts the
    graph with gamma exactly when :func:`gamma_violations` finds
    nothing; that is what each trial asks.
    In EXISTENCE mode a graph keeps the first gamma admitted, where
    :func:`rmfchi.enumerator.enum_nonsep` keeps the one with the
    smallest canonical key.
    """
    _require_graph_model(t, Variant.NONSEP)
    _require_gamma_mode(gamma_mode)
    meter = meter or WorkMeter()

    def structural_ok(g: DecoratedGraph) -> bool:
        report = _nonsep_violations(g, t, involution)
        return report.clauses == ("gamma-missing",)

    candidates = []
    for plain in _naive_plain_graphs(t, structural_ok, meter):
        whites = plain.ids_of(Color.WHITE)
        blacks = plain.ids_of(Color.BLACK)
        data = [(v.weight, v.root) for v in plain.vertices]
        admitted = []
        for to_black in permutations(blacks):
            if any(data[u] != data[v] for u, v in zip(whites, to_black)):
                continue
            for to_white in permutations(whites):
                if any(data[u] != data[v] for u, v in zip(blacks, to_white)):
                    continue
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
    _require_sep_census(t, allow_full_degree)
    meter = meter or WorkMeter()
    return _bucket(_naive_plain_graphs(
        t, lambda g: _sep_violations(g, t).ok, meter), False)
