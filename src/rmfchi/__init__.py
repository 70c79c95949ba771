"""Topological invariants of spaces of real meromorphic functions.

The package computes, exactly, three things about a connected component
of the space of real meromorphic functions with a given topological
type: whether the type exists at all, the dimension of the component,
and the Euler characteristics of the component and of its
compactification, the latter by enumerating decorated bipartite graphs
up to isomorphism.
"""

from __future__ import annotations

from .census import CensusRecord, SweepBounds, iter_types, record_for, sweep
from .decograph import (
    Color,
    DecoratedGraph,
    Edge,
    FullDegreeError,
    GammaMode,
    Vertex,
    Violation,
    ViolationList,
    WorkLimitExceeded,
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
from .enumerator import EnumerationBounds, bounds_for, enum_nonsep, enum_sep
from .euler import (
    AdmitsExtensionError,
    ChiResult,
    Route,
    chi_compactification,
    chi_component,
)
from .oracle import enum_nonsep_naive, enum_sep_naive
from .strata import (
    CellDescriptor,
    CellKind,
    Relation,
    StratumSignature,
    alternating_sum,
    cells_lambda,
    cells_real,
    chi_cover,
    chi_w_lambda,
    chi_w_real,
    enumerate_strata,
)
from .topotype import (
    ExistenceReport,
    NonExistentTypeError,
    NormalizationError,
    TopType,
    TypeSyntaxError,
    Variant,
    admits_extension,
    dimension,
    exists,
    format_type,
    is_normal,
    nonsep,
    normalize,
    parse_type,
    require_exists,
    sep,
    sepext,
    sign_flipped,
)

__version__ = "0.1.0"
