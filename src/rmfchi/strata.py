"""Pole strata and the small cell complexes used in Euler counts.

The auxiliary space of degree-m real pole divisors splits into strata
indexed by a pair of multiplicity lists: P for poles on the real
contour, Q for complex-conjugate pairs, with sum(P) + 2 sum(Q) = m.
Each pole cluster contributes an ordered factor: a cluster of k real
points merging at a real centre carries a complex of two cells, and a
cluster of s conjugate pairs governed by an ordering chain carries
2^(s-1) cells.  The alternating sums of those cell counts are what the
compactification formulas consume, so everything here is exact integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

from .topotype import _integral

# Hard caps on the two inputs whose output grows exponentially.  The
# degree-m divisor space has 46,092 strata at m = 30, and a chain of s
# conjugate-pair clusters has 2^(s-1) cells (32,768 at s = 16); past
# the caps the work and memory run away, so larger inputs are an
# error, never a silent truncation.
MAX_DEGREE = 30
MAX_CHAIN = 16


@dataclass(frozen=True)
class StratumSignature:
    """One stratum: real multiplicities P and pair multiplicities Q.

    Both lists are non-decreasing with positive entries; the stratum
    consists of divisors with len(P) real points and len(Q) conjugate
    pairs of the given multiplicities.
    """

    real_mults: tuple[int, ...]
    pair_mults: tuple[int, ...]

    def __post_init__(self):
        for mults in (self.real_mults, self.pair_mults):
            if any(m < 1 for m in mults):
                raise ValueError("multiplicities must be positive")
            if any(a > b for a, b in zip(mults, mults[1:])):
                raise ValueError("multiplicities must be non-decreasing")

    @property
    def weight(self) -> int:
        """Total divisor degree sum(P) + 2 sum(Q)."""
        return sum(self.real_mults) + 2 * sum(self.pair_mults)

    @property
    def dim(self) -> int:
        """Stratum dimension: one real parameter per point, two per pair."""
        return len(self.real_mults) + 2 * len(self.pair_mults)


def _partitions(total: int):
    """Non-decreasing positive integer lists summing to ``total``."""

    def rec(remaining: int, minimum: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(minimum, remaining + 1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(total, 1, ())


def enumerate_strata(m: int) -> list[StratumSignature]:
    """All strata of the degree-m divisor space.

    Ordered by (len(P) + len(Q), P, Q) so coarser strata come first.
    """
    if not _integral(type(m)):
        raise ValueError("m must be an integer")
    if not 0 <= m <= MAX_DEGREE:
        raise ValueError(f"m must satisfy 0 <= m <= {MAX_DEGREE}")
    found = []
    for pair_total in range(m // 2 + 1):
        real_total = m - 2 * pair_total
        for p in _partitions(real_total):
            for q in _partitions(pair_total):
                found.append(StratumSignature(p, q))
    found.sort(key=lambda s: (len(s.real_mults) + len(s.pair_mults),
                              s.real_mults, s.pair_mults))
    return found


class CellKind(str, Enum):
    REAL_FINITE = "real-finite"      # cluster centre on the real line
    REAL_INFINITY = "real-infinity"  # cluster centre at the real infinity
    LAMBDA = "lambda"                # ordering chain of conjugate pairs


class Relation(str, Enum):
    """One link of the ordering chain on conjugate-pair clusters."""

    STRICT = "<"
    WEAK = "<="


@dataclass(frozen=True)
class CellDescriptor:
    kind: CellKind
    dim: int
    relations: tuple[Relation, ...] = ()


def cells_real(k: int) -> list[CellDescriptor]:
    """Cells of the compactified cluster of k real points.

    For k >= 1 there are two cells: the finite-centre cell of dimension
    k and the centre-at-infinity cell of dimension k - 1.  For k = 0 the
    space is the one-point configuration, a single 0-cell.
    """
    if not _integral(type(k)):
        raise ValueError("k must be an integer")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return [CellDescriptor(CellKind.REAL_FINITE, 0)]
    return [
        CellDescriptor(CellKind.REAL_FINITE, k),
        CellDescriptor(CellKind.REAL_INFINITY, k - 1),
    ]


def cells_lambda(s: int) -> list[CellDescriptor]:
    """Cells of the ordering complex of s conjugate-pair clusters.

    Each of the s - 1 chain links is strict or weak, giving 2^(s-1)
    cells; a cell has dimension 2 + 2 #strict + #weak.  Ordered with
    strict links first so the top cell leads.
    """
    if not _integral(type(s)):
        raise ValueError("s must be an integer")
    if not 1 <= s <= MAX_CHAIN:
        raise ValueError(f"s must satisfy 1 <= s <= {MAX_CHAIN}")
    # Link j is weak when bit j of the cell's index is set: product()
    # runs its last entry fastest, so each tuple is read reversed.
    return [CellDescriptor(CellKind.LAMBDA,
                           2 * s - links.count(Relation.WEAK), links[::-1])
            for links in product((Relation.STRICT, Relation.WEAK),
                                 repeat=s - 1)]


def alternating_sum(cells: list[CellDescriptor]) -> int:
    """Sum of (-1)^dim over the cells: the complex's Euler characteristic."""
    return sum((-1) ** c.dim for c in cells)


def chi_w_real(k: int) -> int:
    """Alternating cell-count sum for the real cluster: 1 if k = 0 else 0.

    The two cells have dimensions k and k - 1 of opposite parity, so
    they cancel whenever k >= 1.
    """
    return alternating_sum(cells_real(k))


def chi_w_lambda(s: int) -> int:
    """Alternating cell-count sum for the pair cluster complex.

    Equals 1 for s = 1.  A cell's sign is (-1)^(#weak links), so for
    s >= 2 the choices factor into (1 - 1)^(s-1) = 0.
    """
    return alternating_sum(cells_lambda(s))


def chi_cover(r: int, s: int) -> int:
    """Product of cluster contributions for r real points and s pairs.

    Equals chi_w_real(r) * chi_w_lambda(s) with the s = 0 factor read as
    1, hence nonzero (= 1) exactly when r = 0 and s <= 1.
    """
    if not (_integral(type(r)) and _integral(type(s))):
        raise ValueError("r and s must be integers")
    if r < 0 or s < 0:
        raise ValueError("r and s must be >= 0")
    value = chi_w_real(r)
    if s >= 1:
        value *= chi_w_lambda(s)
    return value
