"""An independent oracle for ``heuristics.gw_sdp_solve``: the row-by-row
coordinate-ascent loop that the lean sweep replaced, with fancy indexing,
``np.linalg.norm`` and a per-vertex ``np.array_equal``.  ``python_sweeps``
runs that loop from a given start, so a test can pick the start vectors.
It visits the vertices by (colour, index), the colours from its own
first-fit greedy colouring in index order (``first_fit_colours``), which is
the order of the batched sweep's levels.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from fairmaxcut.graphs import Graph
from fairmaxcut.heuristics import (
    _STREAM_SDP,
    UnitVectorEmbedding,
    default_sdp_rank,
    derive_rng,
)


def python_sdp_solve(
    g: Graph,
    rank: Optional[int] = None,
    iterations: int = 200,
    seed: int = 0,
) -> UnitVectorEmbedding:
    n = g.vertex_count
    if rank is None:
        rank = max(2, default_sdp_rank(n))
    if n == 0:
        return UnitVectorEmbedding(np.zeros((0, rank)))
    rng = derive_rng(seed, _STREAM_SDP)
    vec = rng.standard_normal((n, rank))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    python_sweeps(g, vec, iterations)
    return UnitVectorEmbedding(vec)


def first_fit_colours(g: Graph) -> list[int]:
    """Each vertex's first-fit greedy colour in index order: the smallest
    colour that no lower-index neighbor holds."""
    colours: list[int] = []
    for v in range(g.vertex_count):
        used = {colours[u] for u in g.neighbors[v] if u < v}
        colours.append(min(set(range(len(used) + 1)) - used))
    return colours


def python_sweeps(g: Graph, vec: np.ndarray, iterations: int) -> None:
    n = g.vertex_count
    neighbor_lists = [sorted(g.neighbors[v]) for v in range(n)]
    colours = first_fit_colours(g)
    sweep_order = sorted(range(n), key=lambda v: (colours[v], v))
    for _ in range(iterations):
        moved = False
        for v in sweep_order:
            if not neighbor_lists[v]:
                continue
            grad = vec[neighbor_lists[v]].sum(axis=0)
            norm = np.linalg.norm(grad)
            if norm == 0.0:
                continue
            new = -grad / norm
            if not np.array_equal(new, vec[v]):
                vec[v] = new
                moved = True
        if not moved:
            break
