"""Decorated bipartite graphs encoding degenerate real functions.

A point of the compactified component boundary is a function on a nodal
curve; its combinatorics is a connected bipartite multigraph.  White and
black vertexes are the surface pieces on the two sides of the real
contour, edges are the contours themselves, an edge weight is the sheet
number over that contour, a vertex weight is the genus of the piece, and
degree-one root vertexes mark the pieces containing the distinguished
poles.  For non-separating types the graph additionally carries a
color-swapping symmetry gamma, recorded as a vertex permutation.

The checkers validate a graph against a topological type clause by
clause, and :func:`canonical_key` gives a complete isomorphism invariant
used for deduplication.  :func:`find_gammas` reads the symmetries off
the same canonical search, run on the graph and then on the graph
again against its own header and rows, in its own refinement read with
the two colors exchanged: no color-swapped copy is built, and the
second search does not refine and stops at its first isomorphism.  The
others are that one composed with the automorphisms, which the first
search lists as its minimal orders.  ``_gamma_classes`` keys them from
the graph's own search.  The search reads a view, each vertex's
refinement key (:func:`_vertex_key`) and a per-vertex
``{neighbor: weights}`` map, the keys to start its refinement and the
map to refine and to read its rows: :func:`_view` reads it off a
graph, and the fast census hands over each decoration's keys and map,
so that it builds vertexes and a graph (:func:`_graph`) only for a
class it returns.  The checkers read :func:`_incidence`.

The last section is the contract both censuses work under, the fast
one of :mod:`rmfchi.enumerator` and the oracle of :mod:`rmfchi.oracle`:
the work meter that every generated object is charged against so
runaway inputs fail fast instead of hanging, the gamma modes with their
one check, the separating-census guard and the existence projection.
Holding it here, below both, is what lets the oracle import nothing of
the fast path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum

from .topotype import (TopType, Variant, _integral, has_full_degree,
                       require_exists)


class Color(str, Enum):
    WHITE = "w"
    BLACK = "b"


class ZeroIndexError(ValueError):
    """The graph model is undefined for types with a zero index."""


@dataclass(frozen=True)
class Vertex:
    """A surface piece: its side of the contour, genus, and root flag."""

    color: Color
    weight: int = 0
    root: bool = False

    def __post_init__(self):
        if not isinstance(self.color, Color):
            raise ValueError("color must be a Color")
        if not _integral(type(self.weight)) or self.weight < 0:
            raise ValueError("vertex weight must be an integer >= 0")
        if type(self.root) is not bool:
            raise ValueError("root must be a bool")


@dataclass(frozen=True)
class Edge:
    """A real contour between pieces u and v covered with `weight` sheets."""

    u: int
    v: int
    weight: int

    def __post_init__(self):
        if not (_integral(type(self.u)) and _integral(type(self.v))):
            raise ValueError("edge endpoints must be integers")
        if not _integral(type(self.weight)) or self.weight < 1:
            raise ValueError("edge weight must be an integer >= 1")


@dataclass(frozen=True)
class Violation:
    clause: str
    detail: str


@dataclass(frozen=True)
class ViolationList:
    items: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.items

    @property
    def clauses(self) -> tuple[str, ...]:
        return tuple(v.clause for v in self.items)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class DecoratedGraph:
    """Vertexes are identified with their positions in ``vertices``.

    ``gamma`` is either None or a vertex permutation given as a tuple
    with gamma[v] the image of v.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    gamma: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.vertices)
        for e in self.edges:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"edge {e} has an endpoint out of range")
            if self.vertices[e.u].color is self.vertices[e.v].color:
                raise ValueError(f"edge {e} joins two same-colored vertexes")
        if self.gamma is not None and not _is_permutation(self.gamma, n):
            raise ValueError("gamma must be a permutation of the vertexes")

    def degrees(self) -> list[int]:
        return [len(at) for at in _incidence(self)]

    def cells(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Map (u, v) with u < v to the sorted weights of parallel edges."""
        grouped: dict[tuple[int, int], list[int]] = {}
        for e in self.edges:
            pair = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            grouped.setdefault(pair, []).append(e.weight)
        return {pair: tuple(sorted(ws)) for pair, ws in grouped.items()}

    def ids_of(self, color: Color) -> list[int]:
        return [i for i, v in enumerate(self.vertices) if v.color is color]

    def root_ids(self, color: Color) -> list[int]:
        return [i for i, v in enumerate(self.vertices)
                if v.color is color and v.root]

    def is_connected(self) -> bool:
        return _connected(_incidence(self))

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"id": i, "color": v.color.value, "weight": v.weight,
                 "root": v.root}
                for i, v in enumerate(self.vertices)
            ],
            "edges": [
                {"id": j, "u": e.u, "v": e.v, "weight": e.weight}
                for j, e in enumerate(self.edges)
            ],
            "gamma": list(self.gamma) if self.gamma is not None else None,
        }

    @staticmethod
    def from_json_dict(data: dict) -> DecoratedGraph:
        vertices = []
        for i, item in enumerate(data["vertices"]):
            if item["id"] != i:
                raise ValueError("vertex ids must be 0..n-1 in order")
            vertices.append(Vertex(Color(item["color"]), item["weight"],
                                   item["root"]))
        edges = [Edge(item["u"], item["v"], item["weight"])
                 for item in data["edges"]]
        gamma = data.get("gamma")
        return DecoratedGraph(tuple(vertices), tuple(edges),
                              tuple(gamma) if gamma is not None else None)

    def to_dot(self, name: str = "g") -> str:
        lines = [f"graph {name} {{"]
        if self.gamma is not None:
            lines.append(f"  // gamma = {list(self.gamma)}")
        for i, v in enumerate(self.vertices):
            shape = "doublecircle" if v.root else "circle"
            style = ("style=filled,fillcolor=black,fontcolor=white"
                     if v.color is Color.BLACK else "style=solid")
            lines.append(
                f'  v{i} [label="{v.weight}" shape={shape} {style}];'
            )
        for e in self.edges:
            lines.append(f'  v{e.u} -- v{e.v} [label="{e.weight}"];')
        lines.append("}")
        return "\n".join(lines)


def _incidence(g: DecoratedGraph) -> list[list[tuple[int, int]]]:
    """(neighbor, edge weight) per incident edge: the per-vertex view
    that the checkers, ``degrees`` and ``is_connected`` read."""
    incident: list[list[tuple[int, int]]] = [[] for _ in g.vertices]
    for e in g.edges:
        incident[e.u].append((e.v, e.weight))
        incident[e.v].append((e.u, e.weight))
    return incident


def _connected(incident: list[list[tuple[int, int]]]) -> bool:
    """The one graph search for connectivity, over a built incidence."""
    if not incident:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        for u, _ in incident[frontier.pop()]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == len(incident)


def _is_permutation(perm, n: int) -> bool:
    """Whether ``perm`` lists each of 0..n-1 once, in integers (no bools).

    The entry types are tested first: sorting mixed types can raise.
    """
    return (all(map(_integral, set(map(type, perm))))
            and sorted(perm) == list(range(n)))


def strip_gamma(g: DecoratedGraph) -> DecoratedGraph:
    return replace(g, gamma=None) if g.gamma is not None else g


def relabel(g: DecoratedGraph, perm) -> DecoratedGraph:
    """Apply a vertex relabeling, perm[old] = new."""
    n = len(g.vertices)
    if not _is_permutation(perm, n):
        raise ValueError("perm must be a permutation of the vertexes")
    vertices = [None] * n
    for old, vert in enumerate(g.vertices):
        vertices[perm[old]] = vert
    edges = tuple(Edge(perm[e.u], perm[e.v], e.weight) for e in g.edges)
    gamma = None
    if g.gamma is not None:
        gamma = [0] * n
        for old in range(n):
            gamma[perm[old]] = perm[g.gamma[old]]
        gamma = tuple(gamma)
    return DecoratedGraph(tuple(vertices), edges, gamma)


# ---------------------------------------------------------------------------
# gamma: color-swapping symmetries


def _parity_ok(weights: tuple[int, ...], involution: bool) -> bool:
    # Edges of a self-paired parallel class can avoid being fixed by the
    # symmetry only in pairs, so each odd weight must occur evenly (for
    # an involution) or at least not exactly once (general symmetry).
    counts: dict[int, int] = {}
    for w in weights:
        if w % 2 == 1:
            counts[w] = counts.get(w, 0) + 1
    if involution:
        return all(c % 2 == 0 for c in counts.values())
    return all(c != 1 for c in counts.values())


def gamma_violations(g: DecoratedGraph, gamma: tuple[int, ...],
                     involution: bool = True) -> list[Violation]:
    """Clause-by-clause test that gamma is an admissible symmetry."""
    n = len(g.vertices)
    out = []
    if not _is_permutation(gamma, n):
        return [Violation("gamma-permutation",
                          "gamma is not a permutation of the vertexes")]
    if involution:
        bad = [v for v in range(n) if gamma[gamma[v]] != v]
        if bad:
            out.append(Violation("gamma-involution",
                                 f"gamma^2 moves vertexes {bad}"))
    bad = [v for v in range(n)
           if g.vertices[v].color is g.vertices[gamma[v]].color]
    if bad:
        out.append(Violation("gamma-color-swap",
                             f"gamma preserves the color of {bad}"))
    bad = [v for v in range(n)
           if (g.vertices[v].weight, g.vertices[v].root)
           != (g.vertices[gamma[v]].weight, g.vertices[gamma[v]].root)]
    if bad:
        out.append(Violation("gamma-vertex-data",
                             f"gamma changes weight or root flag of {bad}"))
    cells = g.cells()
    for (u, v), weights in sorted(cells.items()):
        iu, iv = gamma[u], gamma[v]
        image = (iu, iv) if iu < iv else (iv, iu)
        if cells.get(image, ()) != weights:
            out.append(Violation(
                "gamma-edge-weights",
                f"edge weights between {u},{v} and their images differ"))
        elif image == (u, v) and gamma[u] != u:
            # Pair swapped onto itself: the induced edge map lives inside
            # this parallel class, so odd weights must pair up.
            if not _parity_ok(weights, involution):
                out.append(Violation(
                    "gamma-parity",
                    f"odd edge weights between {u},{v} cannot avoid "
                    "a fixed edge"))
    return out


def _vertex_key(color: str, root: bool, genus: int,
                weights: tuple[int, ...]) -> tuple:
    """A vertex's initial refinement key: its color's value, root flag,
    genus, degree and sorted incident edge weights.

    The fast census builds these keys from its decorations, and
    :func:`_view` from a graph's cells; both go through this rule, so a
    class's header is the same bytes either way.
    """
    return color, int(root), genus, len(weights), weights


def _view(g: DecoratedGraph):
    """The search's view of g: each vertex's :func:`_vertex_key` and a
    per-vertex ``{neighbor: weights}`` map, read from ``g.cells()``."""
    near: list[dict[int, tuple[int, ...]]] = [{} for _ in g.vertices]
    for (u, v), weights in g.cells().items():
        near[u][v] = near[v][u] = weights
    keys = tuple(_vertex_key(vert.color._value_, vert.root, vert.weight,
                             tuple(sorted([w for ws in at.values()
                                           for w in ws])))
                 for vert, at in zip(g.vertices, near))
    return keys, near


def _graph(view) -> DecoratedGraph:
    """The gamma-less graph of a view: a vertex per key, with the key's
    color, genus and root flag, and the white vertexes' edges by id,
    each with its neighbors in the map's order and their weights.

    The census's map lists a white's neighbors in cell order, so these
    are the edges of the shape's cells in cell order, weight by weight.
    The census builds a graph only for a class it returns.
    """
    keys, near = view
    return DecoratedGraph(
        tuple(Vertex(Color(key[0]), key[2], bool(key[1])) for key in keys),
        tuple(Edge(u, v, w) for u, key in enumerate(keys)
              if key[0] == Color.WHITE._value_
              for v, weights in near[u].items() for w in weights))


def _matches(view, searched):
    """Every isomorphism from a graph onto its color-swapped copy, given
    its view and the result of ``_search(view)``; none when the copy is
    not isomorphic.

    No copy is built: the graph is searched against its own header and
    rows, in the classes of its own refinement read with the two colors
    exchanged, so a branch of the search ends at the first row that
    differs from the graph's, and the search stops at the first order
    that reaches the graph's rows.  That order, matched position by
    position with each minimal order of the graph, gives each
    isomorphism once: the isomorphisms onto the copy are one of them
    composed with each automorphism (McKay & Piperno 2014), and the
    minimal orders are the automorphisms applied to the first one.
    """
    for match in _search(view, searched)[2]:
        for order in searched[2]:
            perm = [0] * len(order)
            for v, image in zip(order, match):
                perm[v] = image
            yield perm


def _match_admissible(near, gamma, involution: bool) -> bool:
    """``gamma-involution`` and ``gamma-parity`` of
    :func:`gamma_violations`, for one of :func:`_matches` of the graph
    whose ``{neighbor: weights}`` map is given: the only clauses such a
    map can fail.

    A pair's parity is tested when gamma swaps its two ends, which is
    when it maps the pair onto itself, since it fixes no vertex.
    """
    if involution and any(gamma[gamma[v]] != v for v in range(len(gamma))):
        return False
    return all(_parity_ok(near[u][v], involution)
               for u, v in enumerate(gamma)
               if u < v and gamma[v] == u and v in near[u])


def _matched_gammas(view, searched,
                    involution: bool) -> list[tuple[int, ...]]:
    """:func:`find_gammas`, given the view and its ``_search``."""
    near = view[1]
    return sorted(tuple(perm) for perm in _matches(view, searched)
                  if _match_admissible(near, perm, involution))


def find_gammas(g: DecoratedGraph,
                involution: bool = True) -> list[tuple[int, ...]]:
    """All admissible color-swapping symmetries, sorted.

    A gamma is an isomorphism from the graph onto its color-swapped
    copy, so two searches of the graph read them off: its canonical
    search, and a search against its own header and rows in the
    copy's refinement, which prunes every branch at its first row that
    differs from them.  No copy is built, and the second search does
    not refine: the copy's refinement is the graph's own with the two
    colors exchanged (see :func:`_search`).  The copy is isomorphic to
    the graph exactly when some order of that second search reaches the
    graph's header and rows, and the search stops at the first.  That
    order, matched position by position with each of the graph's
    minimal orders, gives one isomorphism per automorphism, and each
    isomorphism arises once: the isomorphisms onto the copy are one of
    them composed with each automorphism, and two minimal orders of one
    graph differ by an automorphism (:func:`_matches`).  The
    permutations are kept when :func:`gamma_violations` would find
    nothing, so with ``involution`` (the default) only order-two
    symmetries survive.
    Only two of its clauses are tested (:func:`_match_admissible`): an
    isomorphism onto the copy is a permutation that swaps colors, keeps
    each vertex's genus and root flag (the headers hold them) and maps
    every pair's edge weights onto its image's, so ``gamma-involution``
    and ``gamma-parity`` are the only clauses it can fail.

    No separate color-swap test is needed: equal headers mean that the
    white and the black vertexes of the graph have equal multisets of
    (root flag, genus, degree, sorted edge weights).
    """
    view = _view(g)
    return _matched_gammas(view, _search(view), involution)


def _gamma_classes(view, searched,
                   involution: bool) -> dict[bytes, DecoratedGraph]:
    """The admissible gammas of a gamma-less graph, up to conjugacy.

    Maps each class's canonical key to the graph of ``view`` carrying
    its smallest gamma; that plain graph is built once, and only when a
    gamma is found.  ``searched``, the ``_search(view)`` that keyed the
    graph, finds the gammas and keys them, one per class: the
    :func:`_readings` of a keyed gamma are its conjugates read in the
    first order, and the smallest keys it, so a later gamma whose first
    reading is among them is skipped.
    """
    orders = searched[2]
    seen: set[tuple[int, ...]] = set()
    classes: dict[bytes, DecoratedGraph] = {}
    plain = None
    for gamma in _matched_gammas(view, searched, involution):
        if next(_readings(orders, gamma)) not in seen:
            readings = set(_readings(orders, gamma))
            seen |= readings
            plain = plain or _graph(view)
            classes.setdefault(_encode(searched, min(readings)),
                               replace(plain, gamma=gamma))
    return classes


# ---------------------------------------------------------------------------
# checkers


def _common_root_violations(g: DecoratedGraph, degs: list[int]
                            ) -> list[Violation]:
    out = []
    bad = [v for v in range(len(g.vertices))
           if g.vertices[v].root and degs[v] != 1]
    if bad:
        out.append(Violation("root-degree-one",
                             f"root vertexes {bad} do not have degree 1"))
    bad = [v for v in range(len(g.vertices))
           if g.vertices[v].root and g.vertices[v].weight != 0]
    if bad:
        out.append(Violation("root-zero-weight",
                             f"root vertexes {bad} carry nonzero genus"))
    return out


def _require_graph_model(t: TopType, variant: Variant):
    """Raise unless the type has a graph model of the given variant.

    Every graph census and checker calls this one guard, a census once
    for all the graphs it builds and checks.  In order: an extended
    type has no graph model, a type of the other variant is refused, a
    non-existent type raises :class:`NonExistentTypeError`, and a zero
    index :class:`ZeroIndexError`, since the graph model says nothing
    about zero indices.
    """
    if t.variant is Variant.SEP_EXT:
        raise ValueError("extended separating types have no graph model")
    if t.variant is not variant:
        needed = "separating" if variant is Variant.SEP else "non-separating"
        raise ValueError(f"this graph model needs a {needed} type")
    require_exists(t)
    if any(i == 0 for i in t.indices):
        raise ZeroIndexError(f"graph model undefined for {t.indices}")


def check_nonsep(g: DecoratedGraph, t: TopType,
                 involution: bool = True) -> ViolationList:
    """Validate a graph against a non-separating type, clause by clause.

    Requires an existing type with every index at least 1.
    """
    _require_graph_model(t, Variant.NONSEP)
    return _nonsep_violations(g, t, involution)


def _nonsep_violations(g: DecoratedGraph, t: TopType,
                       involution: bool = True) -> ViolationList:
    """:func:`check_nonsep` after its guard, for a census that has run
    the guard once for all its graphs."""
    incident = _incidence(g)
    degs = [len(at) for at in incident]
    out = []
    if not _connected(incident):
        out.append(Violation("connected", "the graph is not connected"))
    whites = g.ids_of(Color.WHITE)
    blacks = g.ids_of(Color.BLACK)
    if len(whites) != len(blacks):
        out.append(Violation(
            "color-balance",
            f"{len(whites)} white vs {len(blacks)} black vertexes"))
    out.extend(_common_root_violations(g, degs))

    want = tuple(sorted(t.indices))
    for color, clause in ((Color.WHITE, "white"), (Color.BLACK, "black")):
        roots = g.root_ids(color)
        if len(roots) != t.k:
            out.append(Violation(
                f"root-count-{clause}",
                f"expected {t.k} {clause} roots, found {len(roots)}"))
        elif all(degs[v] == 1 for v in roots):
            got = tuple(sorted(incident[v][0][1] for v in roots))
            if got != want:
                out.append(Violation(
                    f"root-weights-{clause}",
                    f"root edge weights {got} != indices {want}"))

    total_vw = sum(v.weight for v in g.vertices)
    genus = t.k + len(g.edges) - len(g.vertices) + 1 + total_vw
    if genus != t.g:
        out.append(Violation("genus-equation",
                             f"k + #E - #V + 1 + sum(zeta_V) = {genus} != g"))
    sheets = sum(e.weight for e in g.edges) - sum(t.indices)
    if sheets != t.n:
        out.append(Violation("degree-equation",
                             f"sum(zeta_E) - sum(i) = {sheets} != n"))

    if g.gamma is None:
        out.append(Violation("gamma-missing",
                             "non-separating graphs need a symmetry gamma"))
    else:
        out.extend(gamma_violations(g, g.gamma, involution))
    return ViolationList(tuple(out))


def check_sep(g: DecoratedGraph, t: TopType) -> ViolationList:
    """Validate a graph against a separating type, clause by clause.

    Requires an existing type with every degree nonzero.  Root degrees
    are signed: a white root represents -zeta_E of its edge, a black
    root +zeta_E.
    """
    _require_graph_model(t, Variant.SEP)
    return _sep_violations(g, t)


def _sep_violations(g: DecoratedGraph, t: TopType) -> ViolationList:
    """:func:`check_sep` after its guard, for a census that has run the
    guard once for all its graphs."""
    incident = _incidence(g)
    degs = [len(at) for at in incident]
    out = []
    if not _connected(incident):
        out.append(Violation("connected", "the graph is not connected"))
    out.extend(_common_root_violations(g, degs))

    n_neg = sum(1 for i in t.indices if i < 0)
    n_pos = sum(1 for i in t.indices if i > 0)
    white_roots = g.root_ids(Color.WHITE)
    black_roots = g.root_ids(Color.BLACK)
    if len(white_roots) != n_neg:
        out.append(Violation(
            "root-count-white",
            f"expected {n_neg} white roots, found {len(white_roots)}"))
    if len(black_roots) != n_pos:
        out.append(Violation(
            "root-count-black",
            f"expected {n_pos} black roots, found {len(black_roots)}"))
    counts_ok = len(white_roots) == n_neg and len(black_roots) == n_pos
    if counts_ok and all(degs[v] == 1
                         for v in white_roots + black_roots):
        got = sorted([-incident[v][0][1] for v in white_roots]
                     + [incident[v][0][1] for v in black_roots])
        if tuple(got) != tuple(sorted(t.indices)):
            out.append(Violation(
                "root-weights-signed",
                f"signed root weights {got} != degrees "
                f"{sorted(t.indices)}"))

    total_vw = sum(v.weight for v in g.vertices)
    genus = (t.k - 1) + 2 * (len(g.edges) - len(g.vertices) + 1
                             + total_vw)
    if genus != t.g:
        out.append(Violation(
            "genus-equation",
            f"(k-1) + 2(#E - #V + 1 + sum(zeta_V)) = {genus} != g"))
    sheets = 2 * sum(e.weight for e in g.edges) - sum(abs(i)
                                                      for i in t.indices)
    if sheets != t.n:
        out.append(Violation("degree-equation",
                             f"2 sum(zeta_E) - sum|i| = {sheets} != n"))

    if g.gamma is not None:
        out.append(Violation("gamma-forbidden",
                             "separating graphs carry no symmetry"))
    return ViolationList(tuple(out))


# ---------------------------------------------------------------------------
# canonical form


def _refined_classes(keys, near):
    """Partition vertexes into ordered classes by iterated refinement.

    ``keys`` are the vertexes' initial keys (:func:`_vertex_key`) and
    ``near`` the search's per-vertex ``{neighbor: weights}`` map, the
    two halves of a view.  The refinement adds the sorted
    (edge weight, neighbor rank) pairs, to the vertexes of classes with
    more than one member: a lone vertex's key is its rank, which no
    other key shares, so every rank comes out the same.  It stops when
    a round splits no class, or when every class is a single vertex.

    The class order is derived from structural keys only, so it is
    identical for isomorphic graphs.  Returns (classes, class_keys)
    where class_keys[i] is the shared attribute key of classes[i].
    """
    index = {key: r for r, key in enumerate(sorted(set(keys)))}
    rank = [index[key] for key in keys]
    pairs = [[(w, u) for u, ws in at.items() for w in ws] for at in near]
    while len(index) < len(rank):
        size = [0] * len(index)
        for r in rank:
            size[r] += 1
        refined = [(r, tuple(sorted([(w, rank[u]) for w, u in pairs[v]])))
                   if size[r] > 1 else (r,) for v, r in enumerate(rank)]
        split = {key: r for r, key in enumerate(sorted(set(refined)))}
        if len(split) == len(index):
            break
        index = split
        rank = [index[key] for key in refined]

    ordered: list[list[int]] = [[] for _ in index]
    for v, r in enumerate(rank):  # the ranks are 0, 1, ... in class order
        ordered[r].append(v)
    return ordered, [keys[cls[0]] for cls in ordered]


def _color_swapped_classes(searched):
    """The header and refined classes of the color-swapped copy of the
    graph whose ``_search`` is given, read off that search.

    An order lists the refined classes one after another, so each class
    is a run of the first minimal order.  A key begins with the color,
    so the black classes (``"b" < "w"``) come before the white ones.
    The copy's refinement is the graph's with the white block first and
    the color of every key exchanged: a refinement key lists neighbors
    of the other color only, whose ranks the exchange shifts by one
    constant, which keeps the order of the sorted (weight, rank) lists;
    and two classes never merge, since the old rank leads the key.  So
    every round refines the copy as it refines the graph, and stops on
    the same round.
    """
    header, _, orders = searched
    classes, start = [], 0
    for _, size in header:
        classes.append(sorted(orders[0][start:start + size]))
        start += size
    k = sum(key[0] == "b" for key, _ in header)
    other = {"b": "w", "w": "b"}
    swapped = tuple(((other[key[0]],) + key[1:], size)
                    for key, size in header[k:] + header[:k])
    return swapped, classes[k:] + classes[:k]


def _search(view, target=None):
    """The backtracking search over the vertex orders the refinement admits.

    ``view`` is (initial key per vertex, ``{neighbor: weights}`` map per
    vertex), as :func:`_view` or the census builds it; the keys are read
    only to refine.  An order lists the refined
    classes one after another.  Its rows are, per position, the edge
    weights to every earlier position.  Returns (header, rows, orders):
    the class header, the minimal rows and every order that achieves
    them, in the order the search reaches them.

    Each node compares one row.  While its prefix equals the best rows
    found so far, the new row is compared with the best's row at that
    depth, and a larger one is pruned; below a smaller prefix nothing is
    compared, since the first leaf there is a new best.  A leaf that
    replaces the best makes every open ancestor's prefix equal to the
    new best's, so each of them is marked equal again.

    With ``target``, the graph's own ``_search``, the search tests for
    an isomorphism from the graph onto its color-swapped copy: it reads
    the copy's refinement off the target, without refining
    (:func:`_color_swapped_classes`), and then searches the graph
    itself, since the copy has the graph's vertexes and edges and only
    the initial keys read a color.  On a header other than the target's
    it returns no orders; that is when the black and white blocks of
    the target's header differ somewhere other than in the color.
    Otherwise it prunes at the first row that differs from the
    target's and returns the first order that reaches the target rows,
    if any: a leaf returns whether the search has a target, and a node
    returns True as soon as a child does.  Header and rows fix a graph
    on its positions, so there is such an order exactly when the copy
    is isomorphic to the graph, and then it is the copy's first minimal
    order.
    """
    keys, near = view
    if target is None:
        classes, class_keys = _refined_classes(keys, near)
        header = tuple(zip(class_keys, map(len, classes)))
        best = None
    else:
        header, classes = _color_swapped_classes(target)
        if header != target[0]:
            return header, None, []
        best = list(target[1])
    slots = [list(cls) for cls in classes]
    order: list[int] = []
    rows: list[tuple] = []
    orders: list[tuple[int, ...]] = []

    def rec(ci: int, equal: bool):
        # ``equal``: the prefix ``rows`` equals best's; else it is smaller.
        nonlocal best, orders
        if ci == len(slots):
            if not equal:
                best, orders = list(rows), []
            orders.append(tuple(order))
            return target is not None
        depth = len(rows)
        for v in list(slots[ci]):
            at = near[v]
            row = tuple([at.get(u, ()) for u in order])
            child_equal = equal
            if equal and row != best[depth]:
                if target is not None or row > best[depth]:
                    continue
                child_equal = False
            slots[ci].remove(v)
            order.append(v)
            rows.append(row)
            reached = best
            if rec(ci if slots[ci] else ci + 1, child_equal):
                return True
            if best is not reached:
                equal = True
            rows.pop()
            order.pop()
            slots[ci].append(v)
            slots[ci].sort()

    rec(0, best is not None)
    return header, best, orders


def _readings(orders, gamma):
    """Gamma read in the positions of each minimal order, in turn.

    Two minimal orders differ by an automorphism a, so these are the
    readings of the conjugates a^-1 gamma a in the first order, one per
    automorphism.
    """
    for cand in orders:
        pos = [0] * len(cand)
        for i, v in enumerate(cand):
            pos[v] = i
        yield tuple([pos[gamma[v]] for v in cand])


def _encode(searched, reading) -> bytes:
    """The canonical key of a graph from its ``_search`` and the
    smallest of its gamma's :func:`_readings` (None without a gamma)."""
    header, rows, _ = searched
    return repr((header, tuple(rows), reading)).encode()


def canonical_key(g: DecoratedGraph) -> bytes:
    """Complete isomorphism invariant of a decorated graph.

    Equal keys exactly characterize isomorphism: a color-, weight-,
    root- and gamma-preserving relabeling (gamma conjugates).  The key
    is the minimal serialized encoding over all admissible vertex
    orders, with gamma folded in as a tie-break after the adjacency.
    """
    searched = _search(_view(g))
    # the empty graph's gamma () encodes as None
    return _encode(searched, min(_readings(searched[2], g.gamma))
                   if g.gamma else None)


def are_isomorphic(a: DecoratedGraph, b: DecoratedGraph) -> bool:
    """Isomorphism with matching decorations and conjugate gamma."""
    if (a.gamma is None) != (b.gamma is None):
        return False
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# the census contract: what the fast census and the oracle both use


DEFAULT_WORK_LIMIT = 100_000_000
WORK_LIMIT_ENV = "RMF_WORK_LIMIT"


class WorkLimitExceeded(RuntimeError):
    """The enumeration touched more objects than the configured budget."""


class FullDegreeError(ValueError):
    """Separating full-degree types short-circuit to a closed form."""


class WorkMeter:
    """Counts generated objects and aborts past ``RMF_WORK_LIMIT``."""

    def __init__(self):
        text = os.environ.get(WORK_LIMIT_ENV, str(DEFAULT_WORK_LIMIT))
        try:
            limit = int(text)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ValueError(f"{WORK_LIMIT_ENV} must be an integer >= 1, "
                             f"got {text!r}")
        self.limit = limit
        self.used = 0

    def tick(self):
        self.used += 1
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


def _require_gamma_mode(gamma_mode) -> None:
    """Raise unless ``gamma_mode`` is a :class:`GammaMode`.

    A mode's value is a string, but a string is not a mode: the
    censuses test the mode by identity, and the two routes would read
    a string as two different modes.
    """
    if not isinstance(gamma_mode, GammaMode):
        raise ValueError("gamma_mode must be a GammaMode")


def _existence_projection(as_data: list[DecoratedGraph]
                          ) -> list[DecoratedGraph]:
    """Per underlying graph, the first of a route's as-data graphs: on
    the fast census, sorted by key, the one with the smallest key; on
    the oracle's, the one :func:`rmfchi.oracle.enum_nonsep_naive` keeps
    in EXISTENCE mode.

    It groups on the labelled graph ``strip_gamma(g)``, with no search.
    That is exact because each route puts all the as-data graphs of one
    underlying graph on one labelling.  The fast route's are ``plain``
    with a gamma, for one ``plain`` per plain class, and no two plain
    classes are isomorphic.  The oracle's are bucketed in the order the
    labelled graphs are reached, and every gamma class of an underlying
    graph has a member on the first of them, so the bucket keeps them
    all there.  Canonical relabelling must keep this, or group by key.
    """
    chosen: dict[DecoratedGraph, DecoratedGraph] = {}
    for g in as_data:
        chosen.setdefault(strip_gamma(g), g)
    return list(chosen.values())


def _require_sep_census(t: TopType, allow_full_degree: bool):
    """Raise unless a separating census of the type may run.

    The type must have a separating graph model; a full-degree type has
    a closed form and is enumerated only when the caller asks for it.
    """
    _require_graph_model(t, Variant.SEP)
    if has_full_degree(t) and not allow_full_degree:
        raise FullDegreeError(
            "full-degree separating types are a closed form; "
            "pass allow_full_degree=True to enumerate anyway")
