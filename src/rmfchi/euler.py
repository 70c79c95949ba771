"""Euler characteristics of components and their compactifications.

For the open component H the answer is a closed form: chi is 1 for the
contractible genus-zero cases and 0 everywhere else.  For the
compactification N the cell contributions of the boundary cancel
against each other except for one unit per decorated graph, so chi(N)
is a graph count; the cases outside the graph model (a vanishing index,
full degree, or an extended type) again have closed forms.
Every result carries a route tag naming the rule that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .decograph import GammaMode, WorkMeter, _require_gamma_mode
from .enumerator import enum_nonsep, enum_sep
from .topotype import (TopType, Variant, admits_extension, has_full_degree,
                       require_exists)


class Route(str, Enum):
    """Which rule produced a chi value."""

    COMPONENT_G0 = "COMPONENT_G0"            # contractible genus-0 component
    COMPONENT_ZERO = "COMPONENT_ZERO"        # free symmetry action, chi = 0
    SEP_FULL_DEGREE = "SEP_FULL_DEGREE"      # |sum i| = n closed form
    ZERO_INDEX = "ZERO_INDEX"                # some index 0, chi(N) = 0
    GRAPH_COUNT_NONSEP = "GRAPH_COUNT_NONSEP"
    GRAPH_COUNT_SEP = "GRAPH_COUNT_SEP"
    EXT_ONE = "EXT_ONE"                      # extended types, chi(N) = 1


@dataclass(frozen=True)
class ChiResult:
    value: int
    route: Route
    graph_count: int | None = None


class AdmitsExtensionError(ValueError):
    """The components of this type are labelled by extended types."""

    def __init__(self, t: TopType):
        super().__init__(
            "this separating type admits the extension; its components "
            "are labelled by the section genus, append ;<xi>")
        self.type = t


def _reject_unextended(t: TopType):
    if t.variant is Variant.SEP and admits_extension(t):
        raise AdmitsExtensionError(t)


def chi_component(t: TopType) -> ChiResult:
    """chi of the open component H labelled by the type.

    Equals 1 in exactly two situations: any non-separating type with
    g = 0, and a separating type with g = 0 and |i_1| = n (then the
    component is contractible).  Extended types always give 0.
    """
    require_exists(t)
    _reject_unextended(t)
    if t.variant is Variant.NONSEP:
        if t.g == 0:
            return ChiResult(1, Route.COMPONENT_G0)
        return ChiResult(0, Route.COMPONENT_ZERO)
    if t.variant is Variant.SEP and t.g == 0 and has_full_degree(t):
        return ChiResult(1, Route.COMPONENT_G0)
    return ChiResult(0, Route.COMPONENT_ZERO)


def chi_compactification(t: TopType, *,
                         gamma_mode: GammaMode = GammaMode.AS_DATA,
                         involution: bool = True,
                         short_circuit: bool = True) -> ChiResult:
    """chi of the compactification N of the component.

    0 when some index or degree vanishes.  Otherwise: 1 for an extended
    type; the number of decorated graphs for a non-separating type; for
    a separating type, 1 when sum |i| = n, else the number of graphs.
    No existing separating type has both full degree and a zero degree.

    ``short_circuit=False`` forces the full-degree separating branch
    through the enumerator instead of the closed form; the route then
    records how the value was actually obtained.

    The query makes its own work meter first, so a bad
    ``RMF_WORK_LIMIT`` is an error before any other, and then checks
    ``gamma_mode``, also for a type with a closed form.
    """
    meter = WorkMeter()
    _require_gamma_mode(gamma_mode)
    require_exists(t)
    _reject_unextended(t)
    closed = closed_form(t, short_circuit)
    if closed is not None:
        return closed
    if t.variant is Variant.NONSEP:
        graphs = enum_nonsep(t, gamma_mode=gamma_mode,
                             involution=involution, meter=meter)
        return ChiResult(len(graphs), Route.GRAPH_COUNT_NONSEP, len(graphs))
    graphs = enum_sep(t, allow_full_degree=True, meter=meter)
    return ChiResult(len(graphs), Route.GRAPH_COUNT_SEP, len(graphs))


def closed_form(t: TopType, short_circuit: bool = True) -> ChiResult | None:
    """chi(N) of an existing type when a closed form gives it, else None.

    A zero index gives 0, an extended type 1 and, unless
    ``short_circuit`` is false, a full-degree separating type 1.  Every
    other type needs a graph count.  This is the one routing rule: a
    sweep reads it to send only graph counts to its worker processes.
    """
    if any(i == 0 for i in t.indices):
        return ChiResult(0, Route.ZERO_INDEX)
    if t.variant is Variant.SEP_EXT:
        return ChiResult(1, Route.EXT_ONE)
    if short_circuit and t.variant is Variant.SEP and has_full_degree(t):
        return ChiResult(1, Route.SEP_FULL_DEGREE)
    return None
