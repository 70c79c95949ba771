"""Closed forms and graph-count routes for both Euler characteristics."""

from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

from rmfchi.census import SweepBounds, iter_types
from rmfchi.decograph import GammaMode, WorkLimitExceeded
from rmfchi.euler import (
    AdmitsExtensionError,
    Route,
    chi_compactification,
    chi_component,
    closed_form,
)
from rmfchi.topotype import (
    NonExistentTypeError,
    TopType,
    Variant,
    exists,
    has_full_degree,
    nonsep,
    sep,
    sepext,
)


def test_component_closed_form():
    r = chi_component(sep(0, 2, (2,)))
    assert (r.value, r.route) == (1, Route.COMPONENT_G0)
    r = chi_component(nonsep(0, 4, ()))
    assert (r.value, r.route) == (1, Route.COMPONENT_G0)
    r = chi_component(nonsep(1, 3, (1,)))
    assert (r.value, r.route) == (0, Route.COMPONENT_ZERO)
    r = chi_component(sep(1, 2, (0, 0)))
    assert (r.value, r.route) == (0, Route.COMPONENT_ZERO)
    r = chi_component(sepext(3, 4, (-1, 1), 0))
    assert (r.value, r.route) == (0, Route.COMPONENT_ZERO)
    assert r.graph_count is None


def test_full_degree_types_have_no_zero_degree():
    # chi_compactification routes a zero degree before full degree; the
    # order is safe only because no existing separating type has both.
    full = 0
    for g in range(5):
        for n in range(1, 9):
            for k in range(1, g + 2):
                for idx in combinations_with_replacement(range(-4, 5), k):
                    t = TopType(Variant.SEP, g, n, idx)
                    if exists(t) and has_full_degree(t):
                        full += 1
                        assert 0 not in idx, t
    assert full == 148


def test_compactification_full_degree():
    r = chi_compactification(sep(0, 2, (2,)))
    assert (r.value, r.route, r.graph_count) \
        == (1, Route.SEP_FULL_DEGREE, None)
    # forcing the enumerator must reproduce the closed form
    r = chi_compactification(sep(0, 2, (2,)), short_circuit=False)
    assert (r.value, r.route, r.graph_count) \
        == (1, Route.GRAPH_COUNT_SEP, 1)
    r = chi_compactification(sep(1, 3, (1, 2)), short_circuit=False)
    assert (r.value, r.route, r.graph_count) \
        == (1, Route.GRAPH_COUNT_SEP, 1)


def test_compactification_zero_index():
    r = chi_compactification(nonsep(2, 4, (0, 2)))
    assert (r.value, r.route) == (0, Route.ZERO_INDEX)
    r = chi_compactification(sep(1, 2, (0, 0)))
    assert (r.value, r.route) == (0, Route.ZERO_INDEX)
    r = chi_compactification(sepext(2, 4, (0, 1, -1), 0))
    assert (r.value, r.route) == (0, Route.ZERO_INDEX)


def test_compactification_graph_counts():
    r = chi_compactification(nonsep(0, 4, ()))
    assert (r.value, r.route, r.graph_count) \
        == (2, Route.GRAPH_COUNT_NONSEP, 2)
    r = chi_compactification(nonsep(1, 3, (1,)))
    assert (r.value, r.route, r.graph_count) \
        == (1, Route.GRAPH_COUNT_NONSEP, 1)
    r = chi_compactification(sep(3, 6, (1, -1)))
    assert (r.value, r.route, r.graph_count) \
        == (9, Route.GRAPH_COUNT_SEP, 9)


def test_compactification_extended():
    r = chi_compactification(sepext(3, 4, (-1, 1), 0))
    assert (r.value, r.route, r.graph_count) == (1, Route.EXT_ONE, None)
    r = chi_compactification(sepext(3, 4, (-1, 1), 1))
    assert (r.value, r.route) == (1, Route.EXT_ONE)


def test_closed_form_decides_the_route():
    # The sweep routes by closed_form alone, so it must agree with
    # chi_compactification on every type of a box: a result exactly
    # when no graph is counted, and then the same one.
    types = list(iter_types(SweepBounds(3, 6, 3)))
    assert len(types) == 205
    for t in types:
        closed, full = closed_form(t), chi_compactification(t)
        assert closed == (full if full.graph_count is None else None), t
    assert closed_form(sep(0, 2, (2,)), short_circuit=False) is None


def test_gamma_conventions_flow_through():
    t = nonsep(1, 4, ())
    assert chi_compactification(t).value == 2
    assert chi_compactification(t, involution=False).value == 3
    assert chi_compactification(t, gamma_mode=GammaMode.EXISTENCE).value == 2


def test_extension_must_be_spelled_out():
    with pytest.raises(AdmitsExtensionError):
        chi_component(sep(3, 4, (-1, 1)))
    with pytest.raises(AdmitsExtensionError):
        chi_compactification(sep(2, 4, (0, 1, -1)))
    # the refined form is accepted
    assert chi_compactification(sepext(2, 4, (0, 1, -1), 0)).value == 0


def test_errors_propagate(monkeypatch):
    with pytest.raises(NonExistentTypeError):
        chi_component(nonsep(0, 3, (3,)))
    with pytest.raises(NonExistentTypeError):
        chi_compactification(nonsep(0, 3, (3,)))
    monkeypatch.setenv("RMF_WORK_LIMIT", "20")
    with pytest.raises(WorkLimitExceeded):
        chi_compactification(nonsep(2, 5, (1,)))


def test_every_query_reads_the_work_limit(monkeypatch):
    # The query makes its own meter first, so a bad limit is named even
    # for a closed form, as the chi-n command always did.
    monkeypatch.setenv("RMF_WORK_LIMIT", "lots")
    for t in (sep(0, 2, (2,)), nonsep(2, 4, (0, 2)), nonsep(0, 3, (3,))):
        with pytest.raises(ValueError, match="RMF_WORK_LIMIT must be"):
            chi_compactification(t)
