"""An independent oracle for the enumeration pass: the per-cut Python loop
that ``exact.build_payoff_matrix`` replaced, scoring each canonical cut with
``utility.group_kernel`` and keeping each distinct column with its first cut.
"""

from __future__ import annotations

from fairmaxcut.exact import (
    DEFAULT_ENUMERATION_LIMIT,
    PayoffMatrix,
    _canonical_masks,
    check_enumeration_limit,
)
from fairmaxcut.graphs import Cut, Graph, GroupPartition
from fairmaxcut.utility import UtilityModel, group_kernel, require_compatible


def python_payoff_matrix(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> PayoffMatrix:
    require_compatible(g, model, partition)
    check_enumeration_limit(g, limit)
    dens, numerators = group_kernel(g, model, partition.groups)
    first: dict[tuple[int, ...], int] = {}
    for mask in _canonical_masks(g.vertex_count):
        first.setdefault(tuple(numerators(mask)), mask)
    return PayoffMatrix(
        entries=tuple(zip(*first)),
        dens=tuple(dens),
        group_sizes=tuple(len(gr) for gr in partition.groups),
        col_masks=tuple(first.values()),
    )


def column_cuts(matrix: PayoffMatrix) -> tuple[Cut, ...]:
    """Every column's cut, in column order."""
    return tuple(map(matrix.cut, range(matrix.column_count)))
