"""Exact enumeration of decorated graphs for a topological type.

The fast census builds bipartite multigraph shapes in a canonical form
(maximal matrix under row and column permutations), decorates them, and
deduplicates each shape's decorations by the canonical form of one
search each.  A decoration reaches the search as its view, each
vertex's refinement key and a ``{neighbor: weights}`` map, and vertexes
and a graph are built only for a class the census returns.  Equal rows,
and equal columns, of a shape are decorated in order: a decoration that
swapping two of them maps to an earlier one is skipped, since it is
never the first of its class (the proof is in :func:`_decorations`).
One loop serves both variants, and non-separating classes then get one
gamma per conjugacy class from :func:`rmfchi.decograph._gamma_classes`,
which reuses that search.

This module holds only that fast path.  :mod:`rmfchi.oracle` computes
the same census from the definitions, to cross-validate this one.  What
the two share (the work meter, the gamma modes, the census guards and
the existence projection from which the fast census takes its
EXISTENCE graphs) lives in :mod:`rmfchi.decograph`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, product
from operator import add

from .decograph import (
    Color,
    DecoratedGraph,
    GammaMode,
    WorkMeter,
    _encode,
    _existence_projection,
    _gamma_classes,
    _graph,
    _nonsep_violations,
    _require_gamma_mode,
    _require_graph_model,
    _require_sep_census,
    _search,
    _sep_violations,
    _vertex_key,
    canonical_key,  # not called here; censusbench/tracer.py rebinds it
    check_nonsep,  # not called here; censusbench/tracer.py rebinds it
    check_sep,  # not called here; censusbench/tracer.py rebinds it
    find_gammas,  # not called here; censusbench/tracer.py rebinds it
)
# not called here; censusbench/workloads.py calls them and
# censusbench/tracer.py rebinds them
from .oracle import enum_nonsep_naive, enum_sep_naive
from .topotype import TopType, Variant, format_type


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
    _require_graph_model(t, t.variant)
    return _bounds(t)


def _bounds(t: TopType) -> EnumerationBounds:
    """:func:`bounds_for` after its guard."""
    if t.variant is Variant.NONSEP:
        roots = tuple(sorted(t.indices))
        return EnumerationBounds(
            edge_weight_sum=t.n + sum(t.indices),
            genus_budget=t.g - t.k,
            white_root_weights=roots,
            black_root_weights=roots,
            balanced=True,
        )
    total_abs = sum(abs(i) for i in t.indices)
    return EnumerationBounds(
        edge_weight_sum=(t.n + total_abs) // 2,
        genus_budget=(t.g - t.k + 1) // 2,
        white_root_weights=tuple(sorted(-i for i in t.indices if i < 0)),
        black_root_weights=tuple(sorted(i for i in t.indices if i > 0)),
        balanced=False,
    )


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


def _paired_compositions(total: int, white_groups, black_groups):
    """Compositions of ``total`` whose two colors agree group by group.

    The parts fill the white slots, then the black ones, and each slot
    belongs to a group.  A composition is kept when, in every group,
    the white and black parts agree as multisets.  Then the whites take
    half the total, and every white composition of that half is kept
    with each distinct way to lay its parts on the black slots of the
    same groups.  Taking both in increasing order gives the order of
    :func:`_compositions`.
    """
    if total % 2 or sorted(white_groups) != sorted(black_groups):
        return
    pool: dict = {}  # group -> white parts not yet laid on a black slot

    def black(j: int):
        if j == len(black_groups):
            yield ()
            return
        parts = pool[black_groups[j]]
        for part in sorted(set(parts)):
            parts.remove(part)
            for rest in black(j + 1):
                yield (part,) + rest
            parts.append(part)

    for white in _compositions(total // 2, len(white_groups)):
        pool.clear()
        for group, part in zip(white_groups, white):
            pool.setdefault(group, []).append(part)
        for rest in black(0):
            yield white + rest


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


def _is_canonical(mat) -> bool:
    """Whether no row and column order makes the matrix larger.

    ``mat`` has its rows sorted descending.  Rows are placed one at a
    time.  The column orders that keep every placed row equal to the
    matrix's own row form an ordered partition of the columns into
    blocks, and the largest row they allow sorts each block descending.
    A remaining row whose largest form beats the next row of the matrix
    shows a larger matrix; one that falls short is dropped; one that
    ties splits each block by its values and the search goes on.  Equal
    rows give equal branches, so each is tried once.  At the first
    level there is one block, so a row beats the first row exactly when
    its parts sorted descending do; :func:`_shapes` has already cut
    such a row, and that level only re-checks the cut.
    """

    def rec(r: int, rest, blocks) -> bool:
        target = mat[r]
        for k, row in enumerate(rest):
            if k and row == rest[k - 1]:
                continue
            best = tuple(v for block in blocks
                         for v in sorted([row[c] for c in block],
                                         reverse=True))
            if best > target:
                return False
            if best == target and r + 1 < len(mat):
                split = [[c for c in block if row[c] == v]
                         for block in blocks
                         for v in sorted({row[c] for c in block},
                                         reverse=True)]
                if not rec(r + 1, rest[:k] + rest[k + 1:], split):
                    return False
        return True

    return rec(0, mat, [list(range(len(mat[0])))])


def _degrees_can_pair(row_sums, colsums, spare: int) -> bool:
    """Whether the column sums can still end up equal to the row sums.

    A placed row's sum is final, and column sums only grow, by ``spare``
    in all.  So every row sum must have a column of its own whose sum is
    no larger now, and the shortfalls must fit in ``spare``.  Taking the
    rows largest first, each with the largest column sum it allows,
    leaves the smallest shortfall.  When every row of a square matrix
    is placed and nothing is spare, this is the test that the two
    multisets are equal.
    """
    free = sorted(colsums)
    short = 0
    for r in sorted(row_sums, reverse=True):
        k = bisect_right(free, r) - 1
        if k < 0:
            return False
        short += r - free.pop(k)
    return short <= spare


def _shapes(n_w: int, n_b: int, total: int, bounds: EnumerationBounds,
            meter: WorkMeter):
    """Canonical connected multigraph shapes as multiplicity matrices.

    Only shapes with room for the roots are kept: every root is a
    vertex of degree 1, so a row per white root and a column per black
    root of ``bounds`` must have sum 1.  Partial matrices are cut as
    soon as they cannot become such a shape: column sums only grow, and
    a row's sum is final.
    They are also cut when they cannot become canonical: if column j
    read top-down were below column j + 1, swapping the two would raise
    the first row where they differ, and the row-sorted result would be
    larger.  A row below the first is cut too when its parts, sorted
    descending, beat the first row: ordering the columns to sort that
    row descending, then sorting the rows, puts a row at least that
    large on top, so the matrix is larger.  A placed row is final, so
    no completion of the prefix is canonical either (orderly
    generation, as in Read 1978 and McKay 1998).
    :func:`_is_canonical` stays the final judge.

    Connectivity is decided row by row.  The column cut keeps the used
    columns a prefix and rows never rise, so a row after the first with
    nothing in that prefix cuts itself and every row below it off from
    the rows above; it is skipped.  A shape whose later rows each meet
    the columns used above them, with no column left unused, is connected.
    A connected multigraph's parallel-edge excess, the sum of m - 1 over
    its nonzero cells, is at most its cycle rank
    ``total - (n_w + n_b) + 1``: its simple graph is connected, so it
    has at least n_w + n_b - 1 cells.  A row's cells are final, so a
    row that takes the excess of the placed rows past the cycle rank
    leaves a matrix that can never be connected, and it is skipped.

    With balanced bounds, only shapes whose row sums and column sums,
    the degrees of the two colors, agree as multisets: the shapes that
    can carry a color-swapping gamma.  Such a shape is square, and each
    partial matrix is cut by :func:`_degrees_can_pair`, which at the
    last row is that test; a matrix that fails is not counted or tested
    for canonicity.
    """
    white_roots = len(bounds.white_root_weights)
    black_roots = len(bounds.black_root_weights)
    cycle_rank = total - (n_w + n_b) + 1

    def rows_from(i: int, remaining: int, prev, ties, colsums, row_sums,
                  excess, acc):
        if i == n_w:
            mat = tuple(acc)
            meter.tick()
            if all(colsums) and _is_canonical(mat):
                yield mat
            return
        # Rows come in non-increasing order, and the last row takes all
        # that remains.
        left_after = n_w - i - 1
        lowest = remaining if left_after == 0 else 1
        used = sum(map(bool, colsums))
        for s in range(lowest, remaining - left_after + 1):
            if row_sums.count(1) + (s == 1) + left_after < white_roots:
                continue
            for row in _compositions_upto(s, prev, ties):
                # s - (n_b - zeros) is the row's own excess
                with_row = excess + s - n_b + row.count(0)
                if with_row > cycle_rank or i and (
                        not any(row[:used])
                        or tuple(sorted(row, reverse=True)) > acc[0]):
                    continue
                sums = tuple(map(add, colsums, row))
                if sum(c <= 1 for c in sums) < black_roots:
                    continue
                if bounds.balanced and not _degrees_can_pair(
                        row_sums + (s,), sums, remaining - s):
                    continue
                still_tied = tuple(t and a == b
                                   for t, a, b in zip(ties, row, row[1:]))
                yield from rows_from(i + 1, remaining - s, row, still_tied,
                                     sums, row_sums + (s,), with_row,
                                     acc + [row])

    # The first row has no row above it: a cap of ``total`` in every
    # column admits any row, and every column pair starts tied.
    yield from rows_from(0, total, (total,) * n_b, (True,) * (n_b - 1),
                         (0,) * n_b, (), 0, [])


def _cells_of(mat):
    return [(i, j, m) for i, row in enumerate(mat)
            for j, m in enumerate(row) if m]


def _kinds_pair(white, black) -> bool:
    """Whether the white and black vertexes' kinds agree as multisets.

    A kind is a vertex's sorted incident weights.  A color-swapping
    gamma maps each vertex to one of the other color and the same kind.
    """
    return sorted(white) == sorted(black)


def _genus_pairs(spare: int) -> bool:
    """Whether the genus left to the non-root vertexes can be paired.

    A color-swapping gamma fixes no vertex and maps each one to a vertex
    of the other color and the same genus, so the non-root genera sum
    to an even number.  :func:`_paired_compositions` of an odd total is
    empty.
    """
    return spare % 2 == 0


def _without(items: tuple, item) -> tuple:
    k = items.index(item)
    return items[:k] + items[k + 1:]


def _weight_splits(mults, cells_at, n_w: int, bounds: EnumerationBounds,
                   twins, candidates):
    """The weight splits of a shape that :func:`_decorations` can use.

    A split gives each cell a sorted tuple of its multiplicity's weights,
    and all cells together the bounds' edge weight sum.  Cells are filled
    in order, each with every sum it allows and every sorted tuple of
    that sum, so splits come in the order of the uncut generator.  A
    partial split is cut as soon as it fails one of these:

    - root demand: for each color, the root weights that no filled cell
      of its ``candidates`` has matched must not outnumber its candidate
      cells still to fill;
    - twin order: at the last cell of a pair (a, b) of ``twins``, b's
      (sum, weights) per cell must not be smaller than a's.

    A complete split must also, with balanced bounds, give the two
    colors the same kinds (:func:`_kinds_pair`).  That pairing test is
    made once the split is complete: tested as each vertex finished, it
    cut only 2 to 4 cells before the end and cost more than it saved.
    Each test is one :func:`_decorations` would fail the split on: no
    root choice of a color, twins out of order, or, the roots of both
    colors carrying the same weights, no way for the non-root vertexes
    to pair by kind in :func:`_paired_compositions`.

    Yields (split, kinds, ties): each vertex's kind, and the twin pairs
    whose (sum, weights) per cell tie.
    """
    n = len(mults)
    tail = [0] * (n + 1)  # the least weight of the cells from idx on
    for idx in range(n - 1, -1, -1):
        tail[idx] = tail[idx + 1] + mults[idx]
    rooted = [()] * n  # the colors whose root a cell can carry
    for c, vertexes in enumerate(candidates):
        for v in vertexes:
            rooted[cells_at[v][0]] += (c,)
    left = [()] * n  # per color, the candidate cells after idx
    counts = [0, 0]
    for idx in range(n - 1, -1, -1):
        left[idx] = tuple(counts)
        for c in rooted[idx]:
            counts[c] += 1
    twins_at = [()] * n
    for a, b in twins:
        twins_at[max(cells_at[a][-1], cells_at[b][-1])] += ((a, b),)
    acc = [()] * n
    parts_of: dict = {}  # (sum, multiplicity) -> its sorted tuples

    def key(v):
        return [(sum(acc[j]), acc[j]) for j in cells_at[v]]

    def rec(idx: int, remaining: int, need):
        if idx == n:
            kinds = [acc[at[0]] if len(at) == 1
                     else tuple(sorted([w for j in at for w in acc[j]]))
                     for at in cells_at]
            if not bounds.balanced or _kinds_pair(kinds[:n_w], kinds[n_w:]):
                yield (tuple(acc), kinds,
                       [(a, b) for a, b in twins if key(a) == key(b)])
            return
        m = mults[idx]
        low = m if idx + 1 < n else remaining  # the last cell takes the rest
        for s in range(low, remaining - tail[idx + 1] + 1):
            unmatched = need
            if rooted[idx]:
                unmatched = list(need)
                for c in rooted[idx]:
                    if s in unmatched[c]:
                        unmatched[c] = _without(unmatched[c], s)
                if any(len(unmatched[c]) > left[idx][c] for c in rooted[idx]):
                    continue
            parts = parts_of.get((s, m))
            if parts is None:
                parts = parts_of[s, m] = tuple(_partitions_exact(s, m))
            for part in parts:
                acc[idx] = part
                if twins_at[idx] and any(key(a) > key(b)
                                         for a, b in twins_at[idx]):
                    continue
                yield from rec(idx + 1, remaining - s, unmatched)

    yield from rec(0, bounds.edge_weight_sum,
                   [bounds.white_root_weights, bounds.black_root_weights])


def _root_choices(candidates, kinds, needed):
    """Sets of ``candidates`` that can carry the roots of one color.

    A candidate's kind is its one weight, its root weight; a set
    qualifies when its root weights are ``needed`` as a multiset.
    """
    need = tuple(sorted(needed))
    return [set(combo) for combo in combinations(candidates, len(need))
            if tuple(sorted(kinds[v][0] for v in combo)) == need]


def _shape_twins(mat):
    """Pairs (v, v + 1) of vertexes whose rows, or columns, are equal.

    A canonical shape has its rows sorted and its columns not rising
    from left to right, so equal rows, and equal columns, are adjacent.
    """
    n_w = len(mat)
    cols = list(zip(*mat))
    return ([(i, i + 1) for i in range(n_w - 1) if mat[i] == mat[i + 1]]
            + [(n_w + j, n_w + j + 1) for j in range(len(cols) - 1)
               if cols[j] == cols[j + 1]])


def _twin_ties(twins, key):
    """The pairs (a, b) of ``twins`` on which ``key`` ties, or None when
    key(b) < key(a) for one of them."""
    tied = []
    for a, b in twins:
        ka, kb = key(a), key(b)
        if kb < ka:
            return None
        if ka == kb:
            tied.append((a, b))
    return tied


def _decorations(mat, bounds: EnumerationBounds, spare: int,
                 meter: WorkMeter):
    """All decorations (without gamma) of one shape, up to twin order.

    Each is yielded as the view :func:`rmfchi.decograph._search` reads:
    each vertex's refinement key (``decograph._vertex_key``), built from
    its color, root flag, genus and kind, the sorted weights that
    :func:`_weight_splits` gives it, so no vertex object is built; and a
    ``{neighbor: weights}`` map built once per weight split from the
    shape's cells and the split's weights, which the split's
    decorations share and nothing changes after.  A white's neighbors
    come in cell order, so ``decograph._graph`` lists the edges of the
    cells in cell order, weight by weight.

    ``spare`` is the genus that the shape's cycle rank leaves to the
    non-root vertexes.  With balanced bounds, only the graphs whose
    white and black vertex invariants agree as multisets, those that
    can carry a color-swapping gamma; :func:`_shapes` has already
    dropped the shapes whose two colors have different degrees.  The
    roots of the two colors carry the same weights, and the genus
    compositions generated are those that give the non-root vertexes of
    the two colors of each kind the same genera (there are none when
    one color has more of them).
    Each test is an isomorphism invariant, so it drops whole classes,
    and every kept class is first reached by the same decoration as
    without the tests.

    Twin order.  Two vertexes a, a + 1 are twins when their rows, or
    their columns, of the shape are equal (:func:`_shape_twins`).  A
    vertex's key is the (sum, weights) of its cells in cell order, then
    whether it is not a root, then its genus.  A decoration in which the
    second of two twins has the smaller key is skipped; each part of the
    key is compared as soon as it is known: after the weight split,
    per root choice and per genus composition.
    Why nothing changes: on one shape, decorations come in the
    lexicographic order of the (sum, weights) of every cell in cell
    order, then the sorted white roots, the sorted black roots, and the
    genus vector.  Swapping twins a and a + 1 maps the shape onto
    itself, so it maps a skipped decoration to an isomorphic one.  The
    cells of twin rows are adjacent runs of the cell order, and those
    of twin columns interleave pairwise, so the image is smaller at the
    first place where the two differ: in the weights of a's first
    differing cell, in the sorted roots (a + 1 trades for a) or in a's
    genus.  It passes the same invariant tests, so it came earlier, and
    a skipped decoration is never the first of its class.  The census
    then keeps the same graph of every class, in the same order.  Any
    reordering of these loops must keep this order.

    Weight splits.  Each color's root candidates, its vertexes of degree
    1, are found once per shape.  :func:`_weight_splits` cuts by them
    and yields only the splits this loop can use, each with the kinds of
    its vertexes and its twin pairs that tie on their cells; the root
    choices, the groups of :func:`_paired_compositions` and the flag and
    genus stages of twin order read those.
    """
    n_w, n_b = len(mat), len(mat[0])
    cells = _cells_of(mat)
    mults = [m for _, _, m in cells]
    cells_at = [[] for _ in range(n_w + n_b)]
    for idx, (i, j, _) in enumerate(cells):
        cells_at[i].append(idx)
        cells_at[n_w + j].append(idx)
    candidates = [[v for v in vertexes
                   if len(cells_at[v]) == 1 and mults[cells_at[v][0]] == 1]
                  for vertexes in (range(n_w), range(n_w, n_w + n_b))]
    colors = [Color.WHITE.value] * n_w + [Color.BLACK.value] * n_b

    for weights, kinds, ties in _weight_splits(
            mults, cells_at, n_w, bounds, _shape_twins(mat), candidates):
        meter.tick()
        near = [{} for _ in range(n_w + n_b)]
        for (i, j, _), ws in zip(cells, weights):
            near[i][n_w + j] = near[n_w + j][i] = ws
        for white_roots, black_roots in product(
                _root_choices(candidates[0], kinds, bounds.white_root_weights),
                _root_choices(candidates[1], kinds, bounds.black_root_weights)):
            roots = white_roots | black_roots
            by_flag = _twin_ties(ties, lambda v: v not in roots)
            if by_flag is None:
                continue
            free = [v for v in range(n_w + n_b) if v not in roots]
            if bounds.balanced:
                split = n_w - len(white_roots)
                comps = _paired_compositions(
                    spare, [kinds[v] for v in free[:split]],
                    [kinds[v] for v in free[split:]])
            else:
                comps = _compositions(spare, len(free))
            for comp in comps:
                genus = dict(zip(free, comp))
                if _twin_ties(by_flag, lambda v: genus.get(v, 0)) is None:
                    continue
                meter.tick()
                yield tuple(_vertex_key(colors[v], v in roots,
                                        genus.get(v, 0), kinds[v])
                            for v in range(n_w + n_b)), near


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


def _plain_classes(bounds: EnumerationBounds, meter: WorkMeter):
    """(search, view) per isomorphism class.

    Classes are told apart by the search's (header, rows) as a tuple,
    which :func:`rmfchi.decograph._encode` serializes into the canonical
    key of a gamma-less graph; the census encodes only the classes it
    returns.  They are compared within one shape: an isomorphism maps
    the multigraph beneath a graph onto that of the other, so two
    graphs of different canonical shapes are never isomorphic.  The
    view is the (vertex keys, ``{neighbor: weights}`` map) of the first
    decoration of the class (:func:`_decorations`); no vertex or graph
    is built.

    With balanced bounds, only the classes that can carry a
    color-swapping gamma (see :func:`_decorations`).  No shape is built
    at a cycle rank that leaves the non-root vertexes a genus
    :func:`_genus_pairs` rejects, since none of its decorations has a
    genus composition.
    """
    for n_edges in range(1, bounds.max_edges + 1):
        for cycle_rank in range(0, bounds.genus_budget + 1):
            spare = bounds.genus_budget - cycle_rank
            if bounds.balanced and not _genus_pairs(spare):
                continue
            for n_w, n_b in _splits(n_edges + 1 - cycle_rank, bounds):
                for mat in _shapes(n_w, n_b, n_edges, bounds, meter):
                    seen: set[tuple] = set()
                    for view in _decorations(mat, bounds, spare, meter):
                        searched = _search(view)
                        key = searched[0], tuple(searched[1])
                        if key not in seen:
                            seen.add(key)
                            yield searched, view


def _checked(t: TopType, graphs: list[DecoratedGraph],
             involution: bool = True) -> list[DecoratedGraph]:
    """The census output, once every graph has passed its checker.

    The census has run the type guard, so the checkers' cores run here.
    """
    for g in graphs:
        report = (_nonsep_violations(g, t, involution)
                  if t.variant is Variant.NONSEP else _sep_violations(g, t))
        if not report.ok:
            raise RuntimeError(
                f"census of {format_type(t)} produced a graph violating "
                + ", ".join(report.clauses))
    return graphs


def enum_nonsep(t: TopType, *, gamma_mode: GammaMode = GammaMode.AS_DATA,
                involution: bool = True,
                meter: WorkMeter | None = None) -> list[DecoratedGraph]:
    """All non-separating graphs for the type, sorted by canonical key.

    In AS_DATA mode every returned graph carries one admissible gamma
    and two graphs differing only by non-conjugate gammas are distinct;
    in EXISTENCE mode each underlying graph appears once, carrying the
    gamma that gives the smallest canonical form: the
    :func:`_existence_projection` of the AS_DATA list, whose graphs of
    one underlying graph all share its one labelled plain graph.
    """
    _require_graph_model(t, Variant.NONSEP)
    _require_gamma_mode(gamma_mode)
    meter = meter or WorkMeter()
    bounds = _bounds(t)
    found: dict[bytes, DecoratedGraph] = {}
    for searched, view in _plain_classes(bounds, meter):
        found.update(_gamma_classes(view, searched, involution))
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
    _require_sep_census(t, allow_full_degree)
    meter = meter or WorkMeter()
    found = {_encode(searched, None): _graph(view)
             for searched, view in _plain_classes(_bounds(t), meter)}
    return _checked(t, [g for _, g in sorted(found.items())])
