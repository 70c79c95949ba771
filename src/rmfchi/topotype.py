"""Topological types of real meromorphic functions.

A connected component of the space of real meromorphic functions of
degree n on a real curve of genus g is labelled by a discrete invariant:
the pair (g, n), a flag telling whether the real curve separates its
complexification, and a list I attached to the ovals of the real part.
For a non-separating curve the entries of I are non-negative indices;
for a separating curve they are signed local degrees, determined only up
to a global sign change.  When the separating type has small total
degree the component splits further and picks up one more invariant,
the section genus xi.

This module defines the value type, its normal form, the existence
test for every variant, the component dimension, and a compact text
format used by the command line tools.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

# Hard caps on g and n.  They keep every derived quantity (edge weight
# sums, dimensions) small enough for exact arithmetic everywhere and are
# enforced with an error, never by silent truncation.
MAX_GENUS = 1 << 16
MAX_SHEETS = 1 << 16


class Variant(str, Enum):
    """Which family of components a type labels."""

    NONSEP = "nonsep"   # eps = 0: non-separating real curve, indices >= 0
    SEP = "sep"         # eps = 1: separating real curve, signed degrees
    SEP_EXT = "sepext"  # eps = 1 together with the section genus xi


class TypeSyntaxError(ValueError):
    """Malformed type text; ``position`` is the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class NormalizationError(ValueError):
    """Raised for component values on which no type is defined at all."""


@dataclass(frozen=True)
class ExistenceReport:
    """Outcome of the existence test.

    ``violated`` names every failed clause, so an impossible type is
    reported rather than thrown.
    """

    exists: bool
    violated: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.exists


def _integral(cls: type) -> bool:
    """Whether values of ``cls`` are integers; ``bool`` does not count."""
    return issubclass(cls, int) and cls is not bool


@dataclass(frozen=True)
class TopType:
    """A (possibly non-normalized) topological type.

    ``indices`` is the tuple I.  For ``SEP``/``SEP_EXT`` it is defined
    only up to a global sign change; use :func:`normalize` to obtain the
    canonical representative.  ``xi`` is present exactly for ``SEP_EXT``.
    """

    variant: Variant
    g: int
    n: int
    indices: tuple[int, ...] = ()
    xi: int | None = None

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise NormalizationError("variant must be a Variant")
        for name in ("g", "n"):
            if not _integral(type(getattr(self, name))):
                raise NormalizationError(f"{name} must be an integer")
        if not 0 <= self.g <= MAX_GENUS:
            raise NormalizationError(f"g must satisfy 0 <= g <= {MAX_GENUS}")
        if not 1 <= self.n <= MAX_SHEETS:
            raise NormalizationError(f"n must satisfy 1 <= n <= {MAX_SHEETS}")
        if not isinstance(self.indices, tuple):
            raise NormalizationError("indices must be a tuple")
        # one test per distinct class: an index tuple is mostly zeros
        if not all(map(_integral, set(map(type, self.indices)))):
            raise NormalizationError("indices must be integers")
        if self.variant is Variant.NONSEP and min(self.indices, default=0) < 0:
            raise NormalizationError("non-separating indices must be >= 0")
        if self.variant is not Variant.SEP_EXT:
            if self.xi is not None:
                raise NormalizationError("xi is defined only for sepext types")
        else:
            if not _integral(type(self.xi)):
                raise NormalizationError("sepext types need an integer xi")
            # xi counts handles on one side of a splitting of the
            # complement; it is well defined only when g - k + 1 is even.
            if (self.g - len(self.indices) + 1) % 2 != 0:
                raise NormalizationError(
                    "sepext requires g - k + 1 even; "
                    f"got g={self.g}, k={len(self.indices)}"
                )

    @property
    def k(self) -> int:
        """Number of ovals carrying an index/degree."""
        return len(self.indices)

    @property
    def eps(self) -> int:
        return 0 if self.variant is Variant.NONSEP else 1


def nonsep(g: int, n: int, indices=()) -> TopType:
    """Normalized non-separating type (g, n, 0 | I)."""
    return normalize(TopType(Variant.NONSEP, g, n, tuple(indices)))


def sep(g: int, n: int, indices=()) -> TopType:
    """Normalized separating type (g, n, 1 | I)."""
    return normalize(TopType(Variant.SEP, g, n, tuple(indices)))


def sepext(g: int, n: int, indices, xi: int) -> TopType:
    """Normalized extended separating type (g, n, 1 | I, xi)."""
    return normalize(TopType(Variant.SEP_EXT, g, n, tuple(indices), xi))


def sign_flipped(t: TopType) -> TopType:
    """The other representative of the sign orbit (not normalized).

    Separating degrees are defined only up to a global sign change; for
    extended types the flip also replaces xi by (g - k + 1)/2 - xi.
    Non-separating types are returned unchanged.
    """
    if t.variant is Variant.NONSEP:
        return t
    xi = None if t.xi is None else (t.g - t.k + 1) // 2 - t.xi
    return replace(t, indices=tuple(-i for i in t.indices), xi=xi)


def _orbit_rank(t: TopType) -> tuple:
    # xi is None for nonsep and sep types, which rank by indices alone
    return tuple(sorted(t.indices)), -(t.xi or 0)


def normalize(t: TopType) -> TopType:
    """Canonical representative of the type; ``t`` itself if it is one.

    The representative is the larger of ``t`` and :func:`sign_flipped`
    ``(t)`` by (sorted indices, -xi), with its indices sorted ascending:
    an all-negative degree list comes out positive, and of two members
    with the same sorted indices the one with the smaller xi is kept.
    """
    best = max(t, sign_flipped(t), key=_orbit_rank)
    indices = tuple(sorted(best.indices))
    return best if best.indices == indices else replace(best, indices=indices)


def is_normal(t: TopType) -> bool:
    return normalize(t) is t


def admits_extension(t: TopType) -> bool:
    """Whether a separating type splits further by the section genus.

    True exactly when |sum(I)| < sum(|I|) = n - 2: then the divisor of
    real poles and zeros leaves a two-point budget that frees the
    complement to split in several topologically distinct ways.
    """
    if t.variant is Variant.NONSEP:
        return False
    total = sum(t.indices)
    total_abs = sum(abs(i) for i in t.indices)
    return abs(total) < total_abs == t.n - 2


def has_full_degree(t: TopType) -> bool:
    """Whether the degrees use up the whole divisor: sum(|I|) = n.

    A separating type of full degree has a closed-form chi(N), and at
    g = 0 a contractible component.
    """
    return sum(abs(i) for i in t.indices) == t.n


def exists(t: TopType) -> ExistenceReport:
    """Existence test: does the type label a non-empty component?

    Non-separating (g, n, 0 | I) exists iff
        0 <= k <= g,  sum(I) <= n - 2,  sum(I) = n (mod 2).
    Separating (g, n, 1 | I) exists iff
        1 <= k <= g + 1,  k = g + 1 (mod 2),  sum(I) = n (mod 2),
    and the degrees match one of four patterns: a single degree +-1 with
    n = 1 and g = 0; all degrees zero with n = 2 and k = g + 1; full
    degree |sum(I)| = sum(|I|) = n with every entry nonzero; or n >= 3
    with sum(|I|) <= n - 2.
    Extended (g, n, 1 | I, xi) exists iff the underlying separating type
    exists, admits the extension, and 0 <= xi <= (g - k + 1)/2.
    """
    g, n, k, indices = t.g, t.n, t.k, t.indices
    total = sum(indices)
    separating = t.variant is not Variant.NONSEP
    bad = []
    if not separating:
        if not k <= g:
            bad.append("k<=g")
        if not total <= n - 2:
            bad.append("sum(i)<=n-2")
    else:
        if not 1 <= k <= g + 1:
            bad.append("1<=k<=g+1")
        if (k - (g + 1)) % 2 != 0:
            bad.append("k=g+1 mod 2")
    if (total - n) % 2 != 0:
        bad.append("sum(i)=n mod 2")
    if separating:
        # One of four admissible degree patterns must hold.
        total_abs = sum(abs(i) for i in indices)
        unit = n == 1 and g == 0 and k == 1 and abs(indices[0]) == 1
        all_zero = n == 2 and k == g + 1 and all(i == 0 for i in indices)
        full = (n >= 2 and abs(total) == total_abs == n
                and all(i != 0 for i in indices))
        slack = n >= 3 and total_abs <= n - 2
        if not (unit or all_zero or full or slack):
            bad.append("degree-pattern")
    if t.variant is Variant.SEP_EXT:
        if not admits_extension(t):
            bad.append("admits-extension")
        if not 0 <= t.xi <= (g - k + 1) // 2:
            bad.append("0<=xi<=(g-k+1)/2")
    return ExistenceReport(not bad, tuple(bad))


class NonExistentTypeError(ValueError):
    """Raised when an operation requires an existing type and got none."""

    def __init__(self, t: TopType, report: ExistenceReport):
        super().__init__(
            f"type {format_type(t)} labels no component; violated: "
            + ", ".join(report.violated)
        )
        self.type = t
        self.report = report


def require_exists(t: TopType) -> TopType:
    report = exists(t)
    if not report:
        raise NonExistentTypeError(t, report)
    return t


def dimension(t: TopType) -> int:
    """Real dimension of the component, 2(g + n - 1).

    The same formula covers all three variants; raises
    :class:`NonExistentTypeError` for types that label no component.
    """
    require_exists(t)
    return 2 * (t.g + t.n - 1)


def format_type(t: TopType) -> str:
    """Render as ``<g>,<n>,<eps>|<i1>,...,<ik>`` plus ``;<xi>`` if extended."""
    body = ",".join(str(i) for i in t.indices)
    text = f"{t.g},{t.n},{t.eps}|{body}"
    if t.variant is Variant.SEP_EXT:
        text += f";{t.xi}"
    return text


def parse_type(text: str) -> TopType:
    """Parse the text format and return the normalized type.

    Grammar: ``<g>,<n>,<eps>|<i1>,...,<ik>[;<xi>]`` where eps is 0 or 1,
    the index list may be empty (``1,4,0|``), signs are permitted only
    when eps = 1, and ``;<xi>`` is permitted only when eps = 1.  Syntax
    errors carry the offset of the offending character.
    """
    pos = 0

    def fail(message: str):
        raise TypeSyntaxError(message, pos)

    def read_uint() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            fail("expected a digit")
        try:
            return int(text[start:pos])
        except ValueError:  # more digits than int() converts
            pos = start
            fail("number too long")

    def expect(ch: str):
        nonlocal pos
        if pos >= len(text) or text[pos] != ch:
            fail(f"expected '{ch}'")
        pos += 1

    g = read_uint()
    expect(",")
    n = read_uint()
    expect(",")
    if pos >= len(text) or text[pos] not in "01":
        fail("expected eps, 0 or 1")
    eps = int(text[pos])
    pos += 1
    expect("|")

    indices: list[int] = []
    at_list_end = pos == len(text) or text[pos] == ";"
    while not at_list_end:
        sign = 1
        if pos < len(text) and text[pos] == "-":
            if eps == 0:
                fail("signed index is only allowed when eps = 1")
            sign = -1
            pos += 1
        indices.append(sign * read_uint())
        if pos < len(text) and text[pos] == ",":
            pos += 1
        else:
            at_list_end = True

    xi: int | None = None
    if pos < len(text) and text[pos] == ";":
        if eps == 0:
            fail("xi is only allowed when eps = 1")
        pos += 1
        xi = read_uint()
    if pos != len(text):
        fail("unexpected trailing text")

    if eps == 0:
        return nonsep(g, n, indices)
    if xi is None:
        return sep(g, n, indices)
    return sepext(g, n, indices, xi)
