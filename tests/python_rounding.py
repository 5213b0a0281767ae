"""An independent oracle for ``heuristics.gw_round``: the per-sample loop
that the block rounding replaced.  It builds a new Philox generator for
every sample with ``derive_rng``, walks each sample's crossing edges one
sample at a time, and packs the side vectors into side bytes with one
``np.packbits`` at the end.
"""

from __future__ import annotations

import numpy as np

from fairmaxcut.graphs import Graph
from fairmaxcut.heuristics import (
    _STREAM_GW,
    GwRounding,
    UnitVectorEmbedding,
    derive_rng,
    gw_cut_probability,
)


def python_gw_round(
    g: Graph, embedding: UnitVectorEmbedding, seed: int, samples: int
) -> GwRounding:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if embedding.vertex_count != g.vertex_count:
        raise ValueError("embedding size does not match the graph")
    vec = embedding.vectors
    sides = np.zeros((samples, g.vertex_count), dtype=bool)
    values = []
    crossing_counts = np.zeros(g.edge_count, dtype=np.int64)
    heads = np.array([e[0] for e in g.edges], dtype=int)
    tails = np.array([e[1] for e in g.edges], dtype=int)
    for s in range(samples):
        rng = derive_rng(seed, _STREAM_GW + s)
        normal = rng.standard_normal(embedding.dimension)
        side = sides[s] = (vec @ normal) >= 0.0
        crossing = side[heads] != side[tails]
        crossing_counts += crossing
        values.append(int(np.count_nonzero(crossing)))
    probabilities = tuple(
        gw_cut_probability(float(vec[u] @ vec[v])) for u, v in g.edges
    )
    return GwRounding(
        graph=g,
        side_bytes=np.packbits(sides, axis=1, bitorder="little"),
        cut_values=tuple(values),
        edge_cut_probabilities=probabilities,
        edge_cut_counts=tuple(int(c) for c in crossing_counts),
    )
