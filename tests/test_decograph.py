"""Decorated bipartite graphs: validation, symmetries, canonical form."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from itertools import permutations

import pytest
from test_acceptance import _graph_model_types

from rmfchi import decograph
from rmfchi.decograph import (
    Color,
    DecoratedGraph,
    Edge,
    Vertex,
    WorkMeter,
    ZeroIndexError,
    are_isomorphic,
    canonical_key,
    check_nonsep,
    check_sep,
    find_gammas,
    gamma_violations,
    relabel,
    strip_gamma,
)
from rmfchi.enumerator import _plain_classes, bounds_for
from rmfchi.topotype import (NonExistentTypeError, Variant, nonsep,
                             parse_type, sep)

W, B = Color.WHITE, Color.BLACK


def _nonsep_path():
    # the unique graph of the non-separating type g=1, n=3, index 1
    vs = (Vertex(W, 0, True), Vertex(B), Vertex(W), Vertex(B, 0, True))
    es = (Edge(0, 1, 1), Edge(1, 2, 2), Edge(2, 3, 1))
    return DecoratedGraph(vs, es, (3, 2, 1, 0))


def _sep_path():
    # the unique graph of the separating type g=1, n=3, degrees (1, 2)
    vs = (Vertex(B, 0, True), Vertex(W), Vertex(B, 0, True))
    es = (Edge(0, 1, 1), Edge(1, 2, 2))
    return DecoratedGraph(vs, es)


def _heavy_edge():
    # g=0, n=4, no roots: one contour covered by four sheets
    return DecoratedGraph((Vertex(W), Vertex(B)), (Edge(0, 1, 4),), (1, 0))


def _symmetric_path():
    # g=0, n=4, no roots: the other graph of that type
    vs = (Vertex(W), Vertex(B), Vertex(W), Vertex(B))
    es = (Edge(0, 1, 1), Edge(1, 2, 2), Edge(2, 3, 1))
    return DecoratedGraph(vs, es, (3, 2, 1, 0))


def _four_cycle():
    vs = (Vertex(W), Vertex(W), Vertex(B), Vertex(B))
    es = (Edge(0, 2, 1), Edge(1, 2, 1), Edge(1, 3, 1), Edge(0, 3, 1))
    return DecoratedGraph(vs, es)


def test_fixtures_pass_their_checkers():
    # a report is true when it is ok, unlike gamma_violations' list
    assert check_nonsep(_nonsep_path(), nonsep(1, 3, (1,)))
    assert check_sep(_sep_path(), sep(1, 3, (1, 2)))
    assert check_nonsep(_nonsep_path(), nonsep(1, 3, (1,))).clauses == ()
    assert check_sep(_sep_path(), sep(1, 3, (1, 2))).clauses == ()
    assert check_nonsep(_heavy_edge(), nonsep(0, 4, ())).clauses == ()
    assert check_nonsep(_symmetric_path(), nonsep(0, 4, ())).clauses == ()


def test_constructor_validation():
    with pytest.raises(ValueError):
        Vertex(W, -1)
    with pytest.raises(ValueError):
        Edge(0, 1, 0)
    with pytest.raises(ValueError):
        DecoratedGraph((Vertex(W), Vertex(W)), (Edge(0, 1, 1),))
    with pytest.raises(ValueError):
        DecoratedGraph((Vertex(W), Vertex(B)), (Edge(0, 2, 1),))
    with pytest.raises(ValueError):
        DecoratedGraph((Vertex(W), Vertex(B)), (Edge(0, 1, 1),), (0, 0))


def test_gamma_missing_and_forbidden():
    bad = strip_gamma(_nonsep_path())
    assert not check_nonsep(bad, nonsep(1, 3, (1,)))
    assert check_nonsep(bad, nonsep(1, 3, (1,))).clauses == ("gamma-missing",)
    g = _sep_path()
    bad = DecoratedGraph(g.vertices, g.edges, (0, 1, 2))
    assert not check_sep(bad, sep(1, 3, (1, 2)))
    assert "gamma-forbidden" in check_sep(bad, sep(1, 3, (1, 2))).clauses


def test_gamma_clause_names():
    g = _nonsep_path()
    assert [v.clause for v in gamma_violations(g, (0, 0, 1, 2))] \
        == ["gamma-permutation"]
    # the identity preserves colors
    assert [v.clause for v in gamma_violations(g, (0, 1, 2, 3))] \
        == ["gamma-color-swap"]
    # swapping within the edges mangles roots, weights, and parity
    clauses = set(v.clause for v in gamma_violations(g, (1, 0, 3, 2)))
    assert clauses == {"gamma-vertex-data", "gamma-edge-weights",
                       "gamma-parity"}
    # a 4-cycle of vertexes is only legal when order two is not required
    rot = (2, 3, 1, 0)
    assert [v.clause for v in gamma_violations(_four_cycle(), rot)] \
        == ["gamma-involution"]
    assert gamma_violations(_four_cycle(), rot, involution=False) == []


def test_find_gammas_basics():
    assert find_gammas(_heavy_edge()) == [(1, 0)]
    odd = DecoratedGraph((Vertex(W), Vertex(B)), (Edge(0, 1, 3),))
    assert find_gammas(odd) == []
    assert find_gammas(odd, involution=False) == []
    assert find_gammas(_symmetric_path()) == [(3, 2, 1, 0)]
    lop = DecoratedGraph((Vertex(W), Vertex(B), Vertex(W), Vertex(B)),
                         (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 2)))
    assert find_gammas(lop) == []


def test_find_gammas_of_a_single_order():
    # A match is paired with each minimal order; the degenerate searches
    # have one.  The empty graph's one order is empty, and its one gamma
    # is the empty permutation, which its key encodes as no gamma.  A
    # single edge has one order, and its one match swaps the two ends:
    # admissible on an even weight, not on an odd one.
    empty = DecoratedGraph((), ())
    assert decograph._search(decograph._view(empty)) == ((), [], [()])
    assert find_gammas(empty) == find_gammas(empty, False) == [()]
    assert canonical_key(empty) == b"((), (), None)"
    assert canonical_key(replace(empty, gamma=())) == canonical_key(empty)
    for weight, want in ((2, [(1, 0)]), (1, [])):
        edge = DecoratedGraph((Vertex(W), Vertex(B)), (Edge(0, 1, weight),))
        view = decograph._view(edge)
        searched = decograph._search(view)
        assert searched[2] == [(1, 0)]
        assert list(decograph._matches(view, searched)) == [[1, 0]]
        assert find_gammas(edge) == find_gammas(edge, False) == want


def test_find_gammas_four_cycle_rotations():
    g = _four_cycle()
    assert find_gammas(g) == []
    assert find_gammas(g, involution=False) == [(2, 3, 1, 0), (3, 2, 0, 1)]


def _gammas_by_brute_force(g, involution):
    # every bijection sending whites to blacks and blacks to whites
    whites, blacks = g.ids_of(W), g.ids_of(B)
    found = []
    for to_black in permutations(blacks):
        for to_white in permutations(whites):
            gamma = [0] * len(g.vertices)
            for old, new in zip(whites + blacks, to_black + to_white):
                gamma[old] = new
            if not gamma_violations(g, gamma, involution):
                found.append(tuple(gamma))
    return sorted(found)


def _color_swapped(g):
    other = {W: B, B: W}
    return DecoratedGraph(
        tuple(replace(v, color=other[v.color]) for v in g.vertices), g.edges)


def test_find_gammas_equals_brute_force(monkeypatch, swap_cuts_off):
    # Every plain class of a few small types, with and without gammas,
    # in both conventions: the canonical search must find every
    # admissible gamma, not just the first.  A graph that is not
    # isomorphic to its color-swapped copy is rejected on the search
    # headers and rows, before any candidate permutation is tested.
    # The census's swap cuts are off, so those graphs are listed too.
    # The permutations tested are counted where find_gammas tests them.
    tested = []
    admissible = decograph._match_admissible

    def counting(near, gamma, involution):
        tested.append(gamma)
        return admissible(near, gamma, involution)

    monkeypatch.setattr(decograph, "_match_admissible", counting)
    nonempty = empty = unmirrored = probed = 0
    for text in ("1,4,0|", "2,5,0|1", "2,6,0|2"):
        with swap_cuts_off():
            plains = list(_plain_classes(bounds_for(parse_type(text)),
                                         WorkMeter()))
        for _, view in plains:
            g = decograph._graph(view)
            mirrored = canonical_key(_color_swapped(g)) == canonical_key(g)
            unmirrored += not mirrored
            for involution in (True, False):
                want = _gammas_by_brute_force(g, involution)
                tested.clear()
                assert find_gammas(g, involution) == want
                assert mirrored or not tested
                probed += bool(tested)
                nonempty += bool(want)
                empty += not want
    assert nonempty > 0 and empty > 0 and unmirrored > 0 and probed > 0


def _isomorphisms_onto_the_swapped_copy(g):
    # every bijection that swaps colors, keeps each vertex's genus and
    # root flag and maps every pair's cells onto its image's
    whites, blacks = g.ids_of(W), g.ids_of(B)
    cells = g.cells()
    found = set()
    for to_black in permutations(blacks):
        for to_white in permutations(whites):
            perm = [0] * len(g.vertices)
            for old, new in zip(whites + blacks, to_black + to_white):
                perm[old] = new
            if any((g.vertices[v].weight, g.vertices[v].root)
                   != (g.vertices[image].weight, g.vertices[image].root)
                   for v, image in enumerate(perm)):
                continue
            if {tuple(sorted((perm[u], perm[v]))): weights
                    for (u, v), weights in cells.items()} == cells:
                found.add(tuple(perm))
    return found


def test_matches_are_the_isomorphisms_onto_the_swapped_copy(swap_cuts_off):
    # Before any gamma clause is tested, the matches, one match paired
    # with each minimal order, must be every isomorphism onto the
    # color-swapped copy, each once: as many as the automorphisms, or
    # none.  The census's swap cuts are off, so graphs with no such
    # isomorphism are listed too.  The last type has interchangeable
    # roots, so |Aut| reaches 36.
    outcomes = Counter()
    for text in ("1,4,0|", "2,5,0|1", "2,6,0|2", "3,7,0|1,1,1"):
        with swap_cuts_off():
            plains = list(_plain_classes(bounds_for(parse_type(text)),
                                         WorkMeter()))
        for searched, view in plains:
            g = decograph._graph(view)
            matches = [tuple(perm)
                       for perm in decograph._matches(view, searched)]
            assert set(matches) == _isomorphisms_onto_the_swapped_copy(g)
            assert len(set(matches)) == len(matches)
            assert len(matches) in (0, len(searched[2]))
            outcomes[len(matches), len(searched[2])] += 1
    # (matches, |Aut|): 13 classes with one match, 6 with more, and 180
    # with none, 44 of those with |Aut| > 1
    assert outcomes == {(0, 1): 136, (1, 1): 13, (4, 4): 3, (36, 36): 3,
                        (0, 4): 10, (0, 12): 24, (0, 36): 10}


def test_match_test_agrees_with_the_full_checker(swap_cuts_off):
    # A match is an isomorphism onto the color-swapped copy, so it swaps
    # colors and keeps vertex data and cells: find_gammas tests only
    # gamma-involution and gamma-parity.  On every match of every plain
    # class of a few small types, in both conventions, that test must
    # give the full checker's verdict.
    verdicts = Counter()
    for text in ("1,4,0|", "2,5,0|1", "2,6,0|2", "3,6,0|", "3,7,0|1,1,1"):
        with swap_cuts_off():
            plains = list(_plain_classes(bounds_for(parse_type(text)),
                                         WorkMeter()))
        for searched, view in plains:
            g = decograph._graph(view)
            for perm in decograph._matches(view, searched):
                for involution in (True, False):
                    clauses = tuple(v.clause for v in gamma_violations(
                        g, perm, involution))
                    assert decograph._match_admissible(
                        view[1], perm, involution) == (not clauses)
                    verdicts[clauses] += 1
    # matches that pass, and matches that fail each of the two clauses
    assert () in verdicts
    assert set().union(*verdicts) == {"gamma-involution", "gamma-parity"}


def _whole_prefix_search(g):
    # _search as it was before each node compared one row: every node
    # compares its whole prefix with the best rows', reading each row
    # from the pair-keyed cells, and refines g itself, even when g is a
    # color-swapped copy.  Also returns whether a later leaf replaced
    # the first leaf's rows.
    cells = g.cells()
    near = [{} for _ in g.vertices]
    for (u, v), weights in cells.items():
        near[u][v] = near[v][u] = weights
    classes, class_keys = decograph._refined_classes(decograph._view(g)[0],
                                                     near)
    header = tuple((key, len(cls)) for key, cls in zip(class_keys, classes))
    slots = [list(cls) for cls in classes]
    order, rows, orders = [], [], []
    best = None
    replaced = -1

    def rec(ci):
        nonlocal best, orders, replaced
        if ci == len(slots):
            if best is None or rows < best:
                best, orders = list(rows), []
                replaced += 1
            orders.append(tuple(order))
            return
        for v in list(slots[ci]):
            row = tuple(cells.get((v, u) if v < u else (u, v), ())
                        for u in order)
            if best is not None and rows + [row] > best[: len(rows) + 1]:
                continue
            slots[ci].remove(v)
            order.append(v)
            rows.append(row)
            rec(ci if slots[ci] else ci + 1)
            rows.pop()
            order.pop()
            slots[ci].append(v)
            slots[ci].sort()

    rec(0)
    return (header, best, orders), replaced > 0


def test_search_equals_the_whole_prefix_search(monkeypatch):
    # Comparing one row per node, and none below a smaller prefix, must
    # give the same header, rows and orders, in order, as comparing whole
    # prefixes, on every plain class of a small box and on its
    # color-swapped copy.  Searched against its own search, in its own
    # refinement read with the colors exchanged, a class must return
    # the first order of its copy's whole-prefix search, which refines
    # the copy, when that search reaches it, and none otherwise; and
    # its matches, that order paired with each of its own minimal
    # orders, must be the isomorphisms that pairing its first minimal
    # order with each of the copy's minimal orders gives.  The
    # searches whose first leaf is not minimal are the ones that test
    # that every open node compares again after a new best.  The census
    # hands the search the view that the graph's cells give.  The search
    # reads its own neighbor map, never the checkers' incidence, and
    # find_gammas builds no graph: there is no color-swapped copy in the
    # library.
    def unread(g):
        raise AssertionError("_incidence was read")

    built = []
    validate = DecoratedGraph.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(decograph, "_incidence", unread)
    monkeypatch.setattr(DecoratedGraph, "__post_init__", counted)
    late = gammas = 0
    targets = Counter()
    for t in _graph_model_types(3, 7, 3):
        for searched, view in _plain_classes(bounds_for(t), WorkMeter()):
            g = decograph._graph(view)
            assert decograph._view(g) == view
            for h in (g, _color_swapped(g)):
                want, replaced = _whole_prefix_search(h)
                assert decograph._search(decograph._view(h)) == want
                late += replaced
            header, rows, orders = want  # the copy's
            got = decograph._search(view, searched)[2]
            if header != searched[0]:
                targets["header"] += 1
                assert got == []
            elif rows != searched[1]:
                targets["rows"] += 1
                assert got == []
            else:
                targets["match"] += 1
                assert got == orders[:1]
                first = searched[2][0]
                paired = set()
                for match in orders:
                    perm = [0] * len(first)
                    for v, image in zip(first, match):
                        perm[v] = image
                    paired.add(tuple(perm))
                assert set(map(tuple, decograph._matches(view,
                                                         searched))) == paired
            if t.variant is Variant.NONSEP:
                built.clear()
                gammas += len(find_gammas(g)) + len(find_gammas(g, False))
                assert built == []
    # 658 plain classes: 16 searches replace their first leaf's rows, and
    # the swapped searches end on each of the three outcomes; the 440
    # non-separating classes carry 648 gammas in the two conventions
    assert late == 16
    assert targets == {"header": 231, "rows": 178, "match": 249}
    assert gammas == 648


def test_gamma_classes_key_each_class_by_its_smallest_gamma():
    # One gamma is keyed per conjugacy class, yet the classes must be
    # exactly those that keying every admissible gamma with
    # canonical_key finds, each carrying its smallest gamma.
    for text in ("1,4,0|", "3,7,0|1,1,1", "2,8,0|1,1"):
        for searched, view in _plain_classes(
                bounds_for(parse_type(text)), WorkMeter()):
            g = decograph._graph(view)
            for involution in (True, False):
                want = {}
                for gamma in find_gammas(g, involution):
                    want.setdefault(canonical_key(replace(g, gamma=gamma)),
                                    gamma)
                got = decograph._gamma_classes(view, searched, involution)
                assert {key: h.gamma for key, h in got.items()} == want


def test_search_does_not_depend_on_the_labelling():
    # Census graphs number their whites first and put twins on
    # consecutive ids; a random relabelling does neither, so it also
    # tests that the search of the color-swapped copy reorders its
    # classes by color, not by id.  On the plain classes of a small box,
    # and of two types with large twin groups, a relabelled class must
    # give the same header and rows and as many minimal orders, its
    # gammas conjugated in both conventions, the same gamma classes,
    # and on each graph with a gamma the same canonical key.
    rng = random.Random(31)
    types = _graph_model_types(3, 6, 3) + [parse_type("4,8,0|1,1,1,1"),
                                           parse_type("5,9,0|1,1,1,1,1")]
    relabelled = gammas = 0
    for t in types:
        for searched, view in _plain_classes(bounds_for(t), WorkMeter()):
            g = decograph._graph(view)
            perm = list(range(len(g.vertices)))
            rng.shuffle(perm)
            inverse = sorted(range(len(perm)), key=perm.__getitem__)
            h = relabel(g, perm)
            h_view = decograph._view(h)
            h_searched = decograph._search(h_view)
            assert h_searched[:2] == searched[:2]
            assert len(h_searched[2]) == len(searched[2])
            relabelled += 1
            if t.variant is not Variant.NONSEP:
                continue
            keyed = {}
            conjugates = sorted(tuple([perm[gamma[v]] for v in inverse])
                                for gamma in find_gammas(g, False))
            for involution in (True, False):
                want = [gamma for gamma in conjugates if not involution
                        or all(gamma[gamma[v]] == v for v in gamma)]
                assert find_gammas(h, involution) == want
                gammas += len(want)
                classes = decograph._gamma_classes(view, searched,
                                                   involution)
                assert decograph._gamma_classes(
                    h_view, h_searched, involution).keys() == classes.keys()
                keyed.update(classes)
            for key, with_gamma in keyed.items():
                assert canonical_key(relabel(with_gamma, perm)) == key
    assert relabelled > 100 and gammas > 1000


def test_tampered_graphs_name_their_violations():
    t = nonsep(1, 3, (1,))
    g = _nonsep_path()

    heavier = DecoratedGraph(g.vertices,
                             (Edge(0, 1, 1), Edge(1, 2, 3), Edge(2, 3, 1)),
                             g.gamma)
    assert "degree-equation" in check_nonsep(heavier, t).clauses

    looped = DecoratedGraph(g.vertices, g.edges + (Edge(0, 3, 1),), g.gamma)
    report = check_nonsep(looped, t)
    assert "root-degree-one" in report.clauses
    assert "genus-equation" in report.clauses

    weighted_root = DecoratedGraph((Vertex(W, 1, True),) + g.vertices[1:],
                                   g.edges, g.gamma)
    assert "root-zero-weight" in check_nonsep(weighted_root, t).clauses

    unrooted = DecoratedGraph(g.vertices[:3] + (Vertex(B),), g.edges, g.gamma)
    assert "root-count-black" in check_nonsep(unrooted, t).clauses

    reweighted = DecoratedGraph(g.vertices,
                                (Edge(0, 1, 2), Edge(1, 2, 2), Edge(2, 3, 1)),
                                g.gamma)
    assert "root-weights-white" in check_nonsep(reweighted, t).clauses

    reweighted = DecoratedGraph(g.vertices,
                                (Edge(0, 1, 1), Edge(1, 2, 2), Edge(2, 3, 2)),
                                g.gamma)
    report = check_nonsep(reweighted, t)
    assert "root-weights-black" in report.clauses
    assert "root-weights-white" not in report.clauses

    split = DecoratedGraph((Vertex(W), Vertex(B), Vertex(W), Vertex(B)),
                           (Edge(0, 1, 2), Edge(2, 3, 2)), (1, 0, 3, 2))
    assert "connected" in check_nonsep(split, nonsep(0, 4, ())).clauses

    lopsided = DecoratedGraph((Vertex(W), Vertex(B), Vertex(B)),
                              (Edge(0, 1, 2), Edge(0, 2, 2)))
    report = check_nonsep(lopsided, nonsep(0, 4, ()))
    assert "color-balance" in report.clauses
    assert not report.ok


def test_sep_tampering():
    t = sep(1, 3, (1, 2))
    g = _sep_path()
    swapped = DecoratedGraph((Vertex(W, 0, True), Vertex(B),
                              Vertex(W, 0, True)),
                             g.edges)
    report = check_sep(swapped, t)
    assert "root-count-white" in report.clauses
    assert "root-count-black" in report.clauses

    reweighted = DecoratedGraph(g.vertices, (Edge(0, 1, 1), Edge(1, 2, 1)))
    report = check_sep(reweighted, t)
    assert "root-weights-signed" in report.clauses
    assert "degree-equation" in report.clauses


def test_checkers_guard_their_domain():
    with pytest.raises(ValueError):
        check_nonsep(_sep_path(), sep(1, 3, (1, 2)))
    with pytest.raises(ZeroIndexError):
        check_nonsep(_nonsep_path(), nonsep(2, 4, (0, 2)))
    with pytest.raises(ZeroIndexError):
        check_sep(_sep_path(), sep(1, 2, (0, 0)))
    with pytest.raises(NonExistentTypeError):
        check_nonsep(_nonsep_path(), nonsep(0, 3, (3,)))


def _disconnected_sep():
    # the degrees of _sep_path on two components
    vs = (Vertex(B, 0, True), Vertex(W), Vertex(B, 0, True), Vertex(W))
    return DecoratedGraph(vs, (Edge(0, 1, 1), Edge(2, 3, 2)))


def _sep_path_with_a_handle():
    g = _sep_path()
    return DecoratedGraph((g.vertices[0], Vertex(W, 1), g.vertices[2]),
                          g.edges)


@pytest.mark.parametrize("build, expected", [
    (lambda: Vertex("w"), (ValueError, "color must be a Color")),
    (lambda: DecoratedGraph.from_json_dict(
        {"vertices": [{"id": 1, "color": "w", "weight": 0, "root": False}],
         "edges": []}),
     (ValueError, "vertex ids must be 0..n-1 in order")),
    (lambda: DecoratedGraph.from_json_dict(
        {"vertices": [{"id": 0, "color": "w", "weight": 0, "root": "no"}],
         "edges": []}),
     (ValueError, "root must be a bool")),
    (lambda: DecoratedGraph.from_json_dict(
        {"vertices": [{"id": 0, "color": "w", "weight": True, "root": False}],
         "edges": []}),
     (ValueError, "vertex weight must be an integer >= 0")),
    (lambda: check_sep(_disconnected_sep(), sep(1, 3, (1, 2))), "connected"),
    (lambda: check_sep(_sep_path_with_a_handle(), sep(1, 3, (1, 2))),
     "genus-equation"),
    (lambda: Vertex(W, True),
     (ValueError, "vertex weight must be an integer >= 0")),
    (lambda: Vertex(W, 0, 1), (ValueError, "root must be a bool")),
    (lambda: Edge(0, 1, True),
     (ValueError, "edge weight must be an integer >= 1")),
    (lambda: Edge(True, 0, 1), (ValueError, "edge endpoints must be integers")),
    (lambda: DecoratedGraph((Vertex(W), Vertex(B)), (Edge(0, 1.0, 1),)),
     (ValueError, "edge endpoints must be integers")),
    (lambda: DecoratedGraph((Vertex(W), Vertex(B)), (Edge(0, 1, 1),),
                            (1.0, 0)),
     (ValueError, "gamma must be a permutation of the vertexes")),
])
def test_bad_input_is_named(build, expected):
    if isinstance(expected, str):
        assert expected in build().clauses
        return
    cls, message = expected
    with pytest.raises(cls) as err:
        build()
    assert type(err.value) is cls and str(err.value) == message


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(90125)
    for g in (_nonsep_path(), _sep_path(), _heavy_edge(),
              _symmetric_path()):
        key = canonical_key(g)
        gammas = {inv: find_gammas(g, inv) for inv in (True, False)}
        n = len(g.vertices)
        for _ in range(50):
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, tuple(perm))
            assert canonical_key(h) == key
            # the symmetries of the relabeled graph are the conjugates
            for inv, found in gammas.items():
                conjugated = [tuple(perm[gam[perm.index(v)]]
                                    for v in range(n)) for gam in found]
                assert find_gammas(h, inv) == sorted(conjugated)


def test_canonical_key_separates_fixtures():
    keys = {canonical_key(g) for g in (_nonsep_path(), _sep_path(),
                                       _heavy_edge(), _symmetric_path())}
    assert len(keys) == 4


def test_are_isomorphic():
    g = _nonsep_path()
    # the same surface glued up in a different vertex order
    h = DecoratedGraph(
        (Vertex(B, 0, True), Vertex(W, 0, True), Vertex(W), Vertex(B)),
        (Edge(1, 3, 1), Edge(2, 3, 2), Edge(0, 2, 1)),
        (1, 0, 3, 2))
    assert are_isomorphic(g, h)
    assert not are_isomorphic(g, strip_gamma(g))
    assert not are_isomorphic(_heavy_edge(), _symmetric_path())


def test_relabel_moves_decorations():
    g = _nonsep_path()
    perm = (2, 0, 3, 1)
    h = relabel(g, perm)
    for old in range(4):
        assert h.vertices[perm[old]] == g.vertices[old]
        assert h.degrees()[perm[old]] == g.degrees()[old]
    assert check_nonsep(h, nonsep(1, 3, (1,))).ok
    with pytest.raises(ValueError):
        relabel(g, (0, 0, 1, 2))


@pytest.mark.parametrize("perm", [(True, False), (1.0, 0), ("a", 0)])
def test_a_permutation_has_integer_entries(perm):
    # relabel and gamma_violations once checked only sorted(perm), which
    # admits bools, and raised a bare TypeError for floats and strings.
    g = DecoratedGraph((Vertex(W), Vertex(B)), (Edge(0, 1, 2),))
    with pytest.raises(ValueError) as err:
        relabel(g, perm)
    assert str(err.value) == "perm must be a permutation of the vertexes"
    assert [v.clause for v in gamma_violations(g, perm)] \
        == ["gamma-permutation"]
    with pytest.raises(ValueError,
                       match="gamma must be a permutation of the vertexes"):
        DecoratedGraph(g.vertices, g.edges, perm)


def test_json_round_trip():
    for g in (_nonsep_path(), _sep_path(), _heavy_edge(), _four_cycle()):
        data = g.to_json_dict()
        assert DecoratedGraph.from_json_dict(data) == g
    data = _nonsep_path().to_json_dict()
    assert {v["color"] for v in data["vertices"]} == {"w", "b"}
    assert all(set(e) == {"id", "u", "v", "weight"} for e in data["edges"])


def test_dot_output_smoke():
    text = _nonsep_path().to_dot()
    assert text.startswith("graph g {")
    assert text.rstrip().endswith("}")
    assert text.count(" -- ") == 3


def test_cells_and_roots():
    g = _nonsep_path()
    assert g.cells() == {(0, 1): (1,), (1, 2): (2,), (2, 3): (1,)}
    assert g.root_ids(W) == [0]
    assert g.root_ids(B) == [3]
    assert g.degrees() == [1, 2, 2, 1]
    assert g.is_connected()


def test_empty_and_isolated_graphs_are_not_connected():
    assert not DecoratedGraph((), ()).is_connected()
    isolated = DecoratedGraph((Vertex(W), Vertex(B), Vertex(W)),
                              (Edge(0, 1, 2),))
    assert isolated.degrees() == [1, 1, 0]
    assert not isolated.is_connected()
    assert DecoratedGraph((Vertex(W),), ()).is_connected()


def test_multi_edge_cells_sorted():
    g = DecoratedGraph((Vertex(W), Vertex(B)),
                       (Edge(0, 1, 3), Edge(1, 0, 1), Edge(0, 1, 3)))
    assert g.cells() == {(0, 1): (1, 3, 3)}
    assert g.degrees() == [3, 3]
    # two odd threes pair up under the swap; the single one cannot
    assert find_gammas(g) == []
    even = DecoratedGraph((Vertex(W), Vertex(B)),
                          (Edge(0, 1, 3), Edge(1, 0, 2), Edge(0, 1, 3)))
    assert find_gammas(even) == [(1, 0)]
