"""Exhaustive-enumeration solvers for the utilitarian and static-fair objectives,
plus the group-by-cut payoff matrix that feeds the maximin LP.

Cuts are enumerated canonically with vertex 0 excluded (every objective here
is invariant under complementing the cut, so half the subsets suffice).  Every
pass scores cuts with ``utility.group_kernel``, the one model-agnostic kernel
over the integer edge-weight table of ``utility.group_weights``: the inner
loops work on integer numerators over fixed per-group denominators and only
materialize ``Fraction`` values at the end, which keeps desk-scale
enumeration fast without leaving exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .errors import TooLargeError
from .graphs import Cut, Graph, GroupPartition
from .utility import UtilityModel, ground_set_size, group_kernel, require_compatible

DEFAULT_ENUMERATION_LIMIT = 24


class Mode(Enum):
    VALUE = "value"
    PROPORTION = "proportion"


@dataclass(frozen=True)
class StaticSolution:
    objective: Fraction
    witness_cut: Cut


@dataclass(frozen=True)
class PayoffMatrix:
    """Group-by-cut table of exact utilities (value mode) or per-capita
    utilities (proportion mode).  Row order follows the partition's group
    order; column order follows canonical cut order."""

    mode: Mode
    entries: tuple[tuple[Fraction, ...], ...]
    col_cuts: tuple[Cut, ...]
    group_sizes: tuple[int, ...]

    @property
    def group_count(self) -> int:
        return len(self.entries)

    @property
    def column_count(self) -> int:
        return len(self.col_cuts)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i][j] for i in range(self.group_count))


def check_enumeration_limit(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> None:
    if g.vertex_count > limit:
        raise TooLargeError(
            f"graph has {g.vertex_count} vertices; exact enumeration is capped at {limit}"
        )


def canonical_cut_count(vertex_count: int) -> int:
    return 1 if vertex_count == 0 else 1 << (vertex_count - 1)


def _canonical_masks(vertex_count: int) -> Iterator[int]:
    # canonical index c maps to the member mask c << 1 (vertex 0 stays out)
    for c in range(canonical_cut_count(vertex_count)):
        yield c << 1


def enumerate_canonical_cuts(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Cut]:
    """All cuts with vertex 0 excluded, in increasing bitmask order."""
    check_enumeration_limit(g, limit)
    return [Cut.from_mask(mask) for mask in _canonical_masks(g.vertex_count)]


def max_value(
    g: Graph, model: UtilityModel, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> tuple[Fraction, Cut]:
    """Maximum ground-set utility over all cuts, with the first canonical
    maximizer as witness.  For the edge model this is the Max-Cut value."""
    require_compatible(g, model)
    check_enumeration_limit(g, limit)
    denoms, numerators = group_kernel(g, model, (range(ground_set_size(g, model)),))
    best_num = -1
    best_mask = 0
    for mask in _canonical_masks(g.vertex_count):
        num = numerators(mask)[0]
        if num > best_num:
            best_num = num
            best_mask = mask
    return Fraction(best_num, denoms[0]), Cut.from_mask(best_mask)


def max_proportion(
    g: Graph, model: UtilityModel, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> tuple[Fraction, Cut]:
    """Maximum per-capita ground-set utility; shares its witness with
    max_value because the two objectives differ by the constant |ground set|."""
    value, witness = max_value(g, model, limit)
    size = ground_set_size(g, model)
    if size == 0:
        return Fraction(0), witness
    return value / size, witness


def static_fair(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    mode: Mode = Mode.PROPORTION,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> StaticSolution:
    """Best single cut for the worst-off group (value or per-capita mode).
    Ties break toward the first canonical cut."""
    require_compatible(g, model, partition)
    check_enumeration_limit(g, limit)
    denoms, numerators = group_kernel(g, model, partition.groups)
    scale = [len(gr) for gr in partition.groups] if mode is Mode.PROPORTION else [1] * partition.group_count
    full_den = [d * s for d, s in zip(denoms, scale)]

    best_num, best_den = -1, 1
    best_mask = 0
    for mask in _canonical_masks(g.vertex_count):
        nums = numerators(mask)
        # running minimum of nums[i]/full_den[i], compared by cross-multiplication
        mn, md = nums[0], full_den[0]
        for i in range(1, len(nums)):
            if nums[i] * md < mn * full_den[i]:
                mn, md = nums[i], full_den[i]
        if mn * best_den > best_num * md:
            best_num, best_den = mn, md
            best_mask = mask
    return StaticSolution(Fraction(best_num, best_den), Cut.from_mask(best_mask))


def build_payoff_matrix(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    mode: Mode = Mode.PROPORTION,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> PayoffMatrix:
    """Dense group-by-cut payoff table over all canonical cuts."""
    require_compatible(g, model, partition)
    check_enumeration_limit(g, limit)
    denoms, numerators = group_kernel(g, model, partition.groups)
    sizes = [len(gr) for gr in partition.groups]
    scale = sizes if mode is Mode.PROPORTION else [1] * len(sizes)
    full_den = [d * s for d, s in zip(denoms, scale)]

    rows: list[list[Fraction]] = [[] for _ in partition.groups]
    cuts: list[Cut] = []
    for mask in _canonical_masks(g.vertex_count):
        nums = numerators(mask)
        for i, num in enumerate(nums):
            rows[i].append(Fraction(num, full_den[i]))
        cuts.append(Cut.from_mask(mask))
    return PayoffMatrix(
        mode=mode,
        entries=tuple(tuple(row) for row in rows),
        col_cuts=tuple(cuts),
        group_sizes=tuple(sizes),
    )


def static_from_matrix(matrix: PayoffMatrix) -> StaticSolution:
    """Static-fair optimum read off a payoff matrix (max over columns of the
    column minimum), with the same first-column tie-breaking."""
    best: Fraction | None = None
    best_j = 0
    for j in range(matrix.column_count):
        col_min = min(matrix.entries[i][j] for i in range(matrix.group_count))
        if best is None or col_min > best:
            best = col_min
            best_j = j
    assert best is not None
    return StaticSolution(best, matrix.col_cuts[best_j])


def max_from_matrix(matrix: PayoffMatrix) -> tuple[Fraction, Cut]:
    """Utilitarian optimum read off a payoff matrix.  In proportion mode the
    group entries are re-weighted by group size and normalized by the ground
    set size, matching the ground-set per-capita utility exactly."""
    total_size = sum(matrix.group_sizes)
    best: Fraction | None = None
    best_j = 0
    for j in range(matrix.column_count):
        if matrix.mode is Mode.VALUE:
            val = sum(matrix.entries[i][j] for i in range(matrix.group_count))
        else:
            val = (
                sum(
                    matrix.entries[i][j] * matrix.group_sizes[i]
                    for i in range(matrix.group_count)
                )
                / total_size
            )
        if best is None or val > best:
            best = val
            best_j = j
    assert best is not None
    return best, matrix.col_cuts[best_j]
