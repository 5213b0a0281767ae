"""An independent oracle for ``heuristics.naive_random_sample``: the sampler
that the crossing-word scorer replaced.  It unpacks each trial's side bits
one byte per vertex, gathers each edge's endpoint bits, and multiplies the
trials-by-edges crossing matrix with the edges-by-groups weight table in
float64 (object dtype once a numerator reaches 2**53).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import numpy as np

from fairmaxcut.graphs import Graph, GroupPartition
from fairmaxcut.heuristics import _MASK64, _STREAM_NAIVE, SampleStats, derive_rng
from fairmaxcut.utility import UtilityModel, group_weights, require_compatible

# trials per block: about 2**17 crossing entries, so that a block stays in cache
_BLOCK_ENTRIES = 2**17


def _trial_side_bits(g: Graph, seed: int, trials: int) -> Iterator[np.ndarray]:
    """Uniform side assignment per (trial, vertex), yielded as consecutive
    (block, n) uint8 blocks of about ``_BLOCK_ENTRIES / m`` trials.

    Trial t reads the fixed 64-bit words [t*W, (t+1)*W) of the Philox stream
    keyed (seed, naive-cut stream), bit v of its words being vertex v's side,
    so each trial's cut depends only on the seed and its own index.  Full-range
    draws consume the stream one word each, so drawing block by block reads
    the same words as one draw of all trials."""
    n = g.vertex_count
    words_per_trial = max(1, (n + 63) // 64)
    block = max(1, _BLOCK_ENTRIES // max(1, g.edge_count))
    rng = derive_rng(seed, _STREAM_NAIVE)
    for start in range(0, trials, block):
        count = min(block, trials - start)
        raw = rng.integers(
            0, _MASK64, size=(count, words_per_trial), dtype=np.uint64, endpoint=True
        )
        yield np.unpackbits(raw.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, :n]


def python_naive_random_sample(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    seed: int,
    trials: int,
) -> list[SampleStats]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_compatible(g, model, partition)
    weights, dens = group_weights(g, model, partition.groups)
    heads = np.array([u for u, _ in g.edges], dtype=np.intp)
    tails = np.array([v for _, v in g.edges], dtype=np.intp)
    max_num = max(sum(row.values()) for row in weights)
    exact_float = max_num < 2**53
    table = np.zeros((g.edge_count, len(weights)), dtype=np.float64 if exact_float else object)
    for i, row in enumerate(weights):
        for e, w in row.items():
            table[e, i] = w

    totals = [0] * len(weights)
    squares = [0] * len(weights)
    for bits in _trial_side_bits(g, seed, trials):
        crossings = bits[:, heads] ^ bits[:, tails]
        if exact_float:
            nums = (crossings @ table).astype(np.int64)
        else:
            nums = crossings.astype(object) @ table
        if len(nums) * max_num * max_num < 2**62:
            block_totals = nums.sum(axis=0).tolist()
            block_squares = (nums * nums).sum(axis=0).tolist()
        else:
            columns = nums.T.tolist()
            block_totals = [sum(col) for col in columns]
            block_squares = [sum(x * x for x in col) for col in columns]
        totals = [a + b for a, b in zip(totals, block_totals)]
        squares = [a + b for a, b in zip(squares, block_squares)]

    stats = []
    for total, total_sq, den, gr in zip(totals, squares, dens, partition.groups):
        denom = den * len(gr)
        mean = Fraction(total, trials * denom)
        second_moment = Fraction(total_sq, trials * denom * denom)
        stats.append(SampleStats(mean=mean, variance=second_moment - mean * mean))
    return stats
