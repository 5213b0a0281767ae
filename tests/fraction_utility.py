"""An independent oracle for group utilities: the per-vertex ``Fraction``
evaluator written from the definitions, which ``utility.block_scorer``
replaced in the library.  Tests hold the integer scorer to it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from fairmaxcut.graphs import Cut, Graph, GroupPartition, crossing_degree, max_degree
from fairmaxcut.utility import UtilityModel, require_compatible

ZERO = Fraction(0)


def group_utility(g: Graph, model: UtilityModel, cut: Cut, group: Iterable[int]) -> Fraction:
    """Total utility of one group under the cut, as an exact rational.

    Edge model: count of group edges crossing.  Node models: crossing
    degrees scaled by 1/max_degree or 1/deg(v); an isolated vertex
    contributes 0 under the own-degree model.
    """
    require_compatible(g, model)
    cut.validate_for(g)
    members = cut.members
    if model is UtilityModel.EDGE:
        count = 0
        for idx in group:
            u, v = g.edges[idx]
            if (u in members) != (v in members):
                count += 1
        return Fraction(count)
    if model is UtilityModel.NODE_MAXDEG:
        total = sum(crossing_degree(g, members, v) for v in group)
        return Fraction(total, max_degree(g))
    total = ZERO
    for v in group:
        deg = g.degree(v)
        if deg == 0:
            continue
        total += Fraction(crossing_degree(g, members, v), deg)
    return total


def group_proportion(g: Graph, model: UtilityModel, cut: Cut, group) -> Fraction:
    """Per-capita group utility: group_utility / |group|."""
    group = frozenset(group)
    return group_utility(g, model, cut, group) / len(group)


def min_group_proportion(
    g: Graph, model: UtilityModel, cut: Cut, partition: GroupPartition
) -> Fraction:
    """Worst per-capita utility across the partition's groups."""
    require_compatible(g, model, partition)
    return min(group_proportion(g, model, cut, gr) for gr in partition.groups)


def ground_utility(g: Graph, model: UtilityModel, cut: Cut) -> Fraction:
    """Utility of the whole ground set (the sum over any partition's groups)."""
    if model is UtilityModel.EDGE:
        return group_utility(g, model, cut, range(g.edge_count))
    return group_utility(g, model, cut, range(g.vertex_count))
