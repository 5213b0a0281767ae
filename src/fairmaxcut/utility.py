"""Exact group utilities for the three utility models.

Edge utilities count group edges crossing the cut.  Node utilities credit
each vertex with its crossing incident edges, scaled either by the global
maximum degree (so per-vertex utility sits in [0, 1]) or by the vertex's
own degree.  Each model is one integer edge-weight table over per-group
denominators (``group_weights``), and ``block_scorer`` is its per-cut
evaluator: integer numerators for cuts given as crossing words.  Its one
weighted product per chunk of cuts runs in float64 while a group's largest
numerator stays below 2**53, which is exact: every product and partial sum
is a non-negative integer no larger than that numerator, whatever the
summation order, with or without fused multiply-adds.  The numerators it
returns are integers.
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
    degs, incident = g.degrees, g.incident_edges
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


def incident_masks(g: Graph, bits: Sequence[int] | None = None) -> list[int]:
    """Bitmask of the edges at each vertex: edge e is bit ``bits[e]`` (one
    bit per edge), or bit e when no ``bits`` are given."""
    order = range(g.edge_count) if bits is None else bits
    return [sum(1 << order[e] for e in edges) for edges in g.incident_edges]


def edge_words(masks: Sequence[int], count: int) -> np.ndarray:
    """Python-int edge bitmasks as a (len(masks), count) uint64 array, word k
    holding bits 64k..64k+63."""
    packed = b"".join(x.to_bytes(8 * count, "little") for x in masks)
    return np.frombuffer(packed, dtype="<u8").reshape(len(masks), count)


def xor_table(incident: np.ndarray) -> np.ndarray:
    """Row c is the XOR of the rows of ``incident`` picked by the bits of c:
    the crossing words of every subset of those vertices, by doubling."""
    table = np.zeros((1 << len(incident), incident.shape[1]), dtype=np.uint64)
    for k, edge_bits in enumerate(incident):
        np.bitwise_xor(table[: 1 << k], edge_bits, out=table[1 << k : 2 << k])
    return table


def int_dtype(bound: int) -> type:
    """The package's one exact-integer rule: ``np.int64`` when ``bound`` is
    below 2**63, else ``object`` (Python ints).  Callers pass a proven bound
    on every magnitude their integer sums and products can reach, partial
    sums included.  int64 holds every such integer, so it never wraps, and
    Python ints never overflow: the values are exact either way, and only
    the dtype follows the bound."""
    return np.int64 if bound < 2**63 else object


# rows times pairs per chunk of ``block_scorer``'s product, so that a chunk's
# popcounts stay small however many pairs a model has
_CHUNK_ENTRIES = 2**15


def block_scorer(
    g: Graph, model: UtilityModel, groups: Sequence[Iterable[int]]
) -> tuple[list[int], int, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The integer evaluator of ``group_weights`` for a block of cuts:
    ``(dens, bound, incident, numerators)``.

    Edges take bit positions sorted by their weight column (``W[0][e]``, ...,
    ``W[γ-1][e]``; ties in edge order), so each column is one run of bits,
    and the runs, split at word boundaries, are P (word, mask, column)
    pairs.  A cut's crossing edges are a row of uint64 words, position b in
    bit b % 64 of word b // 64: the XOR of its members' ``incident`` rows,
    since an edge crosses iff exactly one endpoint is a member (callers
    check that the members are vertices of g).  ``numerators(cross)[c, i] /
    dens[i]`` is group i's utility under the cut with crossing words
    ``cross[c]``: per chunk of rows, one gather of the pair words, one AND,
    one popcount and one product with the P x γ weights.  ``bound``, a
    group's largest numerator, bounds every partial sum of the product, and
    ``int_dtype(bound)`` is the result's dtype and the product's, which
    runs in float64 instead while ``bound`` is below 2**53 (exact: see the
    module docstring).  The result is the transpose of a (γ, rows) array."""
    weights, dens = group_weights(g, model, groups)
    bound = max(sum(row.values()) for row in weights)
    dtype = np.float64 if bound < 2**53 else int_dtype(bound)
    m = g.edge_count
    columns = list(zip(*([row.get(e, 0) for e in range(m)] for row in weights)))
    order = sorted(range(m), key=columns.__getitem__)  # ties in edge order
    bits = sorted(range(m), key=order.__getitem__)  # edge e sits at bit bits[e]
    runs = [columns[e] for e in order]
    # a pair starts with each run and each word
    starts = [b for b in range(m) if not b % 64 or runs[b] != runs[b - 1]]
    pair_words = np.array(starts, dtype=np.intp) // 64
    pair_masks = np.array(
        [(1 << end - b) - 1 << b % 64 for b, end in zip(starts, starts[1:] + [m])], dtype=np.uint64
    )
    pair_weights = np.array([runs[b] for b in starts], dtype=dtype)
    pair_weights = pair_weights.reshape(len(starts), len(dens)).T
    chunk = max(1, _CHUNK_ENTRIES // max(1, len(pair_masks)))

    def numerators(cross: np.ndarray) -> np.ndarray:
        out = np.empty((len(dens), len(cross)), dtype=int_dtype(bound))
        for start in range(0, len(cross), chunk):
            hits = cross[start : start + chunk, pair_words]
            hits &= pair_masks
            counts = np.bitwise_count(hits).astype(dtype)
            out[:, start : start + chunk] = pair_weights @ counts.T
        return out.T

    return dens, bound, edge_words(incident_masks(g, bits), (m + 63) // 64), numerators


def ground_set_size(g: Graph, model: UtilityModel) -> int:
    return g.edge_count if model is UtilityModel.EDGE else g.vertex_count

