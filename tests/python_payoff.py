"""Independent oracles for the enumeration pass: the canonical cuts; the
per-cut Python loop that ``exact.build_payoff_matrix`` replaced, scoring
each canonical cut with ``group_kernel`` (the one-cut Python-int evaluator
that the library's block scorer replaced) and keeping each distinct column
with its first cut; the one-key-per-column lexsort that
``exact._first_rows`` replaced; and ``distinct_columns``, which checks the
builder's contract that a matrix's columns are pairwise distinct.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from fairmaxcut.exact import (
    DEFAULT_ENUMERATION_LIMIT,
    PayoffMatrix,
    canonical_cut_count,
    check_enumeration_limit,
)
from fairmaxcut.graphs import Cut, Graph, GroupPartition
from fairmaxcut.utility import (
    UtilityModel,
    group_weights,
    incident_masks,
    require_compatible,
)


def weight_terms(weights: Sequence[dict[int, int]]) -> list[tuple[int, int, int]]:
    """The weight classes of a ``group_weights`` table as terms ``(group,
    weight, edge bitmask)``, one per distinct weight of each row, in group
    order; a row without edges gets the zero term ``(i, 0, 0)``.  Group i's
    numerator under a cut is the sum of ``weight`` times the number of
    crossing edges in ``edge bitmask`` over its terms."""
    terms: list[tuple[int, int, int]] = []
    for i, row in enumerate(weights):
        by_weight: dict[int, int] = {}
        for e, w in row.items():
            by_weight[w] = by_weight.get(w, 0) | 1 << e
        terms += [(i, w, edge_bits) for w, edge_bits in (by_weight or {0: 0}).items()]
    return terms


def group_kernel(
    g: Graph, model: UtilityModel, groups: Sequence[Iterable[int]]
) -> tuple[list[int], Callable[[int], list[int]]]:
    """Integer numerator evaluator for any model: ``numerators(mask)[i] /
    dens[i]`` is group i's exact utility under the cut whose member bitmask
    is ``mask``.  The mask must name vertices of g only; callers validate.

    An edge crosses iff exactly one endpoint is a member, so the crossing
    edges are the XOR of the members' incident-edge masks, read from one
    lookup table per 8 vertices.  A group's numerator is then one popcount
    per term of ``weight_terms``.
    """
    weights, dens = group_weights(g, model, groups)
    incident = incident_masks(g)
    tables = []
    for start in range(0, g.vertex_count, 8):
        table = [0]
        for edge_bits in incident[start:start + 8]:
            table += [x ^ edge_bits for x in table]
        tables.append(table)
    terms = weight_terms(weights)
    zeros = [0] * len(dens)

    def numerators(mask: int) -> list[int]:
        cross = 0
        for table in tables:
            cross ^= table[mask & 255]
            mask >>= 8
        out = zeros[:]
        for i, w, edge_bits in terms:
            out[i] += w * (cross & edge_bits).bit_count()
        return out

    return dens, numerators


def canonical_cuts(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Cut]:
    """All cuts with vertex 0 excluded, in increasing bitmask order."""
    check_enumeration_limit(g, limit)
    return [Cut.from_mask(c << 1) for c in range(canonical_cut_count(g.vertex_count))]


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
    for c in range(canonical_cut_count(g.vertex_count)):
        first.setdefault(tuple(numerators(c << 1)), c << 1)
    return distinct_columns(PayoffMatrix(
        entries=tuple(zip(*first)),
        dens=tuple(dens),
        group_sizes=tuple(len(gr) for gr in partition.groups),
        col_masks=tuple(first.values()),
    ))


def column_cuts(matrix: PayoffMatrix) -> tuple[Cut, ...]:
    """Every column's cut, in column order."""
    return tuple(map(matrix.cut, range(matrix.column_count)))


def lexsort_first_rows(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows equal to no earlier row: a stable
    lexsort with one key per column, so the first index of each run of
    equal rows is the earliest."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    firsts = order[new]
    return firsts[np.lexsort((firsts,))]


def distinct_columns(matrix: PayoffMatrix) -> PayoffMatrix:
    """The matrix, once its columns are checked to be pairwise distinct, as
    ``build_payoff_matrix`` makes them; ValueError otherwise.  Zero groups
    make every column the same empty one."""
    k = matrix.column_count
    if k > 1 and (not matrix.group_count or len(lexsort_first_rows(matrix.entries.T)) != k):
        raise ValueError("payoff columns must be distinct")
    return matrix
