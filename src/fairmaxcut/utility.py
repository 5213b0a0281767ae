"""Exact group utilities for the three utility models.

Edge utilities count group edges crossing the cut.  Node utilities credit
each vertex with its crossing incident edges, scaled either by the global
maximum degree (so per-vertex utility sits in [0, 1]) or by the vertex's
own degree.  Each model is one integer edge-weight table over per-group
denominators (``group_weights``), and ``block_scorer`` is its one
evaluator: integer numerators for cuts given as crossing words.  No floats.
"""

from __future__ import annotations

from enum import Enum
from math import lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegreeZeroError, ModelMismatchError
from .graphs import Graph, GroupPartition, PartitionKind, max_degree


class UtilityModel(Enum):
    EDGE = "edge"
    NODE_MAXDEG = "node-maxdeg"
    NODE_OWNDEG = "node-owndeg"

    @property
    def partition_kind(self) -> PartitionKind:
        return PartitionKind.EDGES if self is UtilityModel.EDGE else PartitionKind.NODES

    @property
    def is_node_model(self) -> bool:
        return self is not UtilityModel.EDGE

    @staticmethod
    def parse(name: str) -> "UtilityModel":
        for model in UtilityModel:
            if model.value == name:
                return model
        raise ValueError(f"unknown utility model {name!r}")


def require_compatible(g: Graph, model: UtilityModel, partition: GroupPartition | None = None) -> None:
    if partition is not None and partition.kind is not model.partition_kind:
        raise ModelMismatchError(
            f"model {model.value} requires a {model.partition_kind.value} partition, "
            f"got {partition.kind.value}"
        )
    if model.is_node_model and max_degree(g) == 0:
        raise DegreeZeroError(f"model {model.value} needs at least one edge")


def group_weights(
    g: Graph, model: UtilityModel, groups: Sequence[Iterable[int]]
) -> tuple[list[dict[int, int]], list[int]]:
    """Integer edge weights ``W[i]`` (edge index -> weight, zero weights
    omitted) and a denominator ``dens[i]`` per group, such that under every
    cut group i's utility is the sum of ``W[i][e]`` over crossing edges e,
    divided by ``dens[i]``.

    Edge model: weight 1 on the group's edges, denominator 1.  Max-degree
    model: the number of the edge's endpoints in the group, denominator
    max_degree.  Own-degree model: den/deg(v) summed over the edge's
    endpoints v in the group, where den is the lcm of the group's positive
    degrees; isolated vertices have no edges and so contribute nothing.
    """
    require_compatible(g, model)
    if model is UtilityModel.EDGE:
        return [dict.fromkeys(gr, 1) for gr in groups], [1] * len(groups)
    degs = g.degrees
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append(e)
        incident[v].append(e)
    by_max_degree = model is UtilityModel.NODE_MAXDEG
    weights, dens = [], []
    for gr in groups:
        den = max_degree(g) if by_max_degree else lcm(*(degs[v] for v in gr if degs[v]))
        row: dict[int, int] = {}
        for v in gr:
            for e in incident[v]:
                row[e] = row.get(e, 0) + (1 if by_max_degree else den // degs[v])
        weights.append(row)
        dens.append(den)
    return weights, dens


def incident_masks(g: Graph) -> list[int]:
    """Bitmask of the edges at each vertex (bit e for edge index e)."""
    incident = [0] * g.vertex_count
    for e, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << e
        incident[v] |= 1 << e
    return incident


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


def edge_words(masks: Sequence[int], count: int) -> np.ndarray:
    """Python-int edge bitmasks as a (len(masks), count) uint64 array, word k
    holding edges 64k..64k+63."""
    packed = b"".join(x.to_bytes(8 * count, "little") for x in masks)
    return np.frombuffer(packed, dtype="<u8").reshape(len(masks), count)


def xor_table(incident: np.ndarray) -> np.ndarray:
    """Row c is the XOR of the rows of ``incident`` picked by the bits of c:
    the crossing words of every subset of those vertices, by doubling."""
    table = np.zeros((1 << len(incident), incident.shape[1]), dtype=np.uint64)
    for k, edge_bits in enumerate(incident):
        np.bitwise_xor(table[: 1 << k], edge_bits, out=table[1 << k : 2 << k])
    return table


def block_scorer(
    g: Graph, model: UtilityModel, groups: Sequence[Iterable[int]]
) -> tuple[list[int], int, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The integer evaluator of ``group_weights`` for a block of cuts:
    ``(dens, bound, incident, numerators)``.  A cut's crossing edges are a
    row of uint64 words (edge e is bit e % 64 of word e // 64); an edge
    crosses iff exactly one endpoint is a member, so they are the XOR of its
    members' ``incident`` rows (callers check that the members are vertices
    of g).  ``numerators(cross)[c, i] / dens[i]`` is group i's utility under
    the cut with crossing words ``cross[c]``: per ``weight_terms`` term, the
    popcounts under the term's edge mask, added up one word at a time in
    int32 (a count stays below the edge count), times the term's weight.
    ``bound``, a group's largest numerator, decides the dtype: int64 below
    2**63, else Python ints."""
    weights, dens = group_weights(g, model, groups)
    bound = max(sum(row.values()) for row in weights)
    terms = weight_terms(weights)
    words = (g.edge_count + 63) // 64
    by_word = []  # per word: the terms with edges in it, and those edges as a column
    for column in edge_words([bits for _, _, bits in terms], words).T:
        used = np.flatnonzero(column)
        by_word.append((used, column[used, None]))
    term_weights = np.array([[w] for _, w, _ in terms], dtype=np.int64 if bound < 2**63 else object)
    starts = [k for k, t in enumerate(terms) if k == 0 or terms[k - 1][0] != t[0]]

    def numerators(cross: np.ndarray) -> np.ndarray:
        hits = np.zeros((len(terms), len(cross)), dtype=np.int32)
        for k, (used, edge_bits) in enumerate(by_word):
            hits[used] += np.bitwise_count(edge_bits & cross[:, k])
        return np.add.reduceat(hits * term_weights, starts, axis=0).T

    return dens, bound, edge_words(incident_masks(g), words), numerators


def ground_set_size(g: Graph, model: UtilityModel) -> int:
    return g.edge_count if model is UtilityModel.EDGE else g.vertex_count

