"""Non-exact algorithms: per-group separate-solve, the naive uniform random
cut (analytic and Monte Carlo), flip local search, and Goemans-Williamson
hyperplane rounding over a low-rank coordinate-ascent SDP relaxation.

Randomness is counter-based and splittable: every randomized operation takes
an explicit 64-bit seed, and independent units of work (Monte Carlo trials,
rounding samples) draw from Philox streams keyed by (seed, unit index), so
results are bit-reproducible regardless of execution order.  Floating point
appears only in the embedding/rounding code and in the Monte Carlo product,
where it holds integers below 2**53 exactly; everything else is rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DegreeZeroError
from .graphs import Cut, Graph, GroupPartition, max_degree
from .maximin import CutDistribution
from .utility import (
    UtilityModel,
    group_kernel,
    group_proportion,
    group_weights,
    require_compatible,
)

_MASK64 = (1 << 64) - 1

# stream tags for (seed, stream)-keyed Philox generators
_STREAM_NAIVE = 0x6E61697665
_STREAM_GW = 0x67772D726E64
_STREAM_SDP = 0x7364702D6273


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); independent across streams."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# local search


def local_search_cut(
    g: Graph,
    initial: Optional[Cut] = None,
    vertex_order: Optional[Sequence[int]] = None,
) -> Cut:
    """First-improvement flip search: move any vertex with fewer than half of
    its edges crossing until none remains.  Each flip strictly increases the
    cut value, so the sweep terminates; afterwards every vertex has crossing
    degree >= deg(v)/2."""
    members = set(initial.members) if initial is not None else set()
    order = list(vertex_order) if vertex_order is not None else list(range(g.vertex_count))
    improved = True
    while improved:
        improved = False
        for v in order:
            inside = v in members
            crossing = sum(1 for u in g.neighbors[v] if (u in members) != inside)
            if 2 * crossing < g.degree(v):
                if inside:
                    members.discard(v)
                else:
                    members.add(v)
                improved = True
    return Cut(frozenset(members))


# ---------------------------------------------------------------------------
# separate-solve

GroupOracle = Callable[[Graph, UtilityModel, frozenset, int], Cut]


@dataclass(frozen=True)
class OracleResult:
    per_group_cuts: tuple[Cut, ...]
    alpha: Fraction


def default_group_oracle(g: Graph, model: UtilityModel, group: frozenset, seed: int = 0) -> Cut:
    """Local-search cut on the subgraph a group spans (edge groups) or induces
    (node groups), extended to the whole graph with absent vertices outside."""
    if model is UtilityModel.EDGE:
        sub_edges = [g.edges[idx] for idx in sorted(group)]
        verts = sorted({v for e in sub_edges for v in e})
    else:
        verts = sorted(group)
        vert_set = set(verts)
        sub_edges = [e for e in g.edges if e[0] in vert_set and e[1] in vert_set]
    index = {v: i for i, v in enumerate(verts)}
    sub = Graph(len(verts), tuple((index[u], index[v]) for u, v in sub_edges))
    sub_cut = local_search_cut(sub)
    return Cut(frozenset(verts[i] for i in sub_cut.members))


def separate_solve(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    oracle: GroupOracle = default_group_oracle,
    seed: int = 0,
) -> tuple[CutDistribution, OracleResult]:
    """Uniform lottery over one oracle cut per group.

    The worst measured per-group quality alpha = min_i proportion(x_i, U_i)
    certifies the floor alpha/gamma on the lottery's worst expected group
    proportion."""
    require_compatible(g, model, partition)
    cuts = tuple(oracle(g, model, gr, seed) for gr in partition.groups)
    alpha = min(
        group_proportion(g, model, cut, gr) for cut, gr in zip(cuts, partition.groups)
    )
    gamma = partition.group_count
    dist = CutDistribution.from_pairs((cut, Fraction(1, gamma)) for cut in cuts)
    return dist, OracleResult(per_group_cuts=cuts, alpha=alpha)


# ---------------------------------------------------------------------------
# distribution scoring


@dataclass(frozen=True)
class DistributionScore:
    per_group: tuple[Fraction, ...]
    minimum: Fraction


def evaluate_distribution(
    g: Graph, model: UtilityModel, partition: GroupPartition, dist: CutDistribution
) -> DistributionScore:
    """Exact expected per-capita utility of every group under a distribution."""
    require_compatible(g, model, partition)
    dens, numerators = group_kernel(g, model, partition.groups)
    expected = [Fraction(0)] * len(dens)
    for cut, prob in dist.entries:
        cut.validate_for(g)
        for i, num in enumerate(numerators(cut.mask())):
            expected[i] += prob * num
    per_group = tuple(
        total / (den * len(gr)) for total, den, gr in zip(expected, dens, partition.groups)
    )
    return DistributionScore(per_group=per_group, minimum=min(per_group))


# ---------------------------------------------------------------------------
# naive uniform random cut


@dataclass(frozen=True)
class GroupRandomStats:
    """Analytic statistics of a group's proportion under the uniform random cut."""

    mean: Fraction
    variance: Optional[Fraction] = None
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None


def naive_random_stats(
    g: Graph, model: UtilityModel, partition: GroupPartition
) -> list[GroupRandomStats]:
    """Closed-form mean (and, for edge groups, variance) of each group's
    proportion when every vertex picks a side uniformly at random.

    Edge groups: mean 1/2 and variance 1/(4|E_i|).  Max-degree node groups:
    exact mean plus the induced-degree / full-degree sandwich.  Own-degree
    node groups: mean is the fraction of non-isolated members over 2."""
    require_compatible(g, model, partition)
    stats = []
    if model is UtilityModel.EDGE:
        for gr in partition.groups:
            stats.append(GroupRandomStats(mean=Fraction(1, 2), variance=Fraction(1, 4 * len(gr))))
        return stats
    if model is UtilityModel.NODE_MAXDEG:
        delta = max_degree(g)
        if delta == 0:
            raise DegreeZeroError("node utility needs at least one edge")
        for gr in partition.groups:
            members = sorted(gr)
            deg_sum = sum(g.degree(v) for v in members)
            induced_sum = sum(len(g.neighbors[v] & gr) for v in members)
            denom = 2 * len(gr) * delta
            stats.append(
                GroupRandomStats(
                    mean=Fraction(deg_sum, denom),
                    lower=Fraction(induced_sum, denom),
                    upper=Fraction(deg_sum, denom),
                )
            )
        return stats
    for gr in partition.groups:
        non_isolated = sum(1 for v in gr if g.degree(v) > 0)
        stats.append(GroupRandomStats(mean=Fraction(non_isolated, 2 * len(gr))))
    return stats


@dataclass(frozen=True)
class SampleStats:
    """Empirical mean and (population) variance of a group's proportion."""

    mean: Fraction
    variance: Fraction


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


def naive_random_sample(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    seed: int,
    trials: int,
) -> list[SampleStats]:
    """Seed-reproducible Monte Carlo estimate of every group's proportion
    under the uniform random cut.  Statistics are exact rationals computed
    from integer crossing counts.

    Trials stream in blocks of ``_trial_side_bits``, so memory stays bounded
    by one block whatever the trial count.  A block's numerators are one
    float64 product of its crossing matrix with the edges-by-groups weight
    table; it is exact because every partial sum is a non-negative integer
    no larger than the greatest numerator, below 2**53.  Otherwise (a large
    lcm of own degrees) the product runs over Python ints.  Each block's sums
    of numerators and of their squares are added up as Python ints."""
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


# ---------------------------------------------------------------------------
# Goemans-Williamson rounding


@dataclass(frozen=True, eq=False)
class UnitVectorEmbedding:
    """One unit vector per vertex, dimension >= 1."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValueError("embedding must be a 2-D array with dimension >= 1")
        norms = np.linalg.norm(arr, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("all embedding vectors must have unit norm (tolerance 1e-9)")
        object.__setattr__(self, "vectors", arr)

    @property
    def vertex_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def sdp_objective(g: Graph, embedding: UnitVectorEmbedding) -> float:
    """Relaxation objective sum over edges of (1 - x_u . x_v) / 2."""
    vec = embedding.vectors
    return sum((1.0 - float(vec[u] @ vec[v])) / 2.0 for u, v in g.edges)


def default_sdp_rank(vertex_count: int) -> int:
    return min(vertex_count, math.isqrt(2 * vertex_count) + 1) if vertex_count else 1


def gw_sdp_solve(
    g: Graph,
    rank: Optional[int] = None,
    iterations: int = 200,
    seed: int = 0,
) -> UnitVectorEmbedding:
    """Low-rank coordinate ascent on the cut relaxation.

    Each update replaces a vertex's vector with the unit vector opposing the
    sum of its neighbors' vectors, which maximizes that coordinate block, so
    the objective never decreases.  Returns after `iterations` full sweeps
    (earlier if a sweep moves nothing)."""
    n = g.vertex_count
    if rank is None:
        rank = max(2, default_sdp_rank(n))
    if rank < 2:
        raise ValueError("rank must be >= 2")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if n == 0:
        return UnitVectorEmbedding(np.zeros((0, rank)))
    rng = derive_rng(seed, _STREAM_SDP)
    vec = rng.standard_normal((n, rank))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    neighbor_lists = [sorted(g.neighbors[v]) for v in range(n)]
    for _ in range(iterations):
        moved = False
        for v in range(n):
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
    return UnitVectorEmbedding(vec)


@dataclass(frozen=True, eq=False)
class GwRounding:
    cuts: tuple[Cut, ...]
    edge_cut_probabilities: tuple[float, ...]
    edge_cut_frequencies: tuple[float, ...]

    def distribution(self) -> CutDistribution:
        """Empirical distribution: each sampled cut with weight 1/samples."""
        weight = Fraction(1, len(self.cuts))
        return CutDistribution.from_pairs((cut, weight) for cut in self.cuts)


def gw_cut_probability(dot: float) -> float:
    """Analytic crossing probability arccos(x_u . x_v) / pi, exact at the
    endpoints: inner product 1 gives exactly 0, inner product -1 exactly 1."""
    if dot >= 1.0:
        return 0.0
    if dot <= -1.0:
        return 1.0
    return math.acos(dot) / math.pi


def gw_round(
    g: Graph, embedding: UnitVectorEmbedding, seed: int, samples: int
) -> GwRounding:
    """Random-hyperplane rounding of the embedding.

    Sample s splits vertices by the sign of the inner product with a standard
    Gaussian normal drawn from the Philox stream keyed (seed, s); a zero inner
    product counts as the positive side.  Also reports the analytic per-edge
    crossing probabilities for comparison with the empirical frequencies."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if embedding.vertex_count != g.vertex_count:
        raise ValueError("embedding size does not match the graph")
    vec = embedding.vectors
    cuts = []
    crossing_counts = np.zeros(g.edge_count, dtype=np.int64)
    heads = np.array([e[0] for e in g.edges], dtype=int) if g.edge_count else np.zeros(0, dtype=int)
    tails = np.array([e[1] for e in g.edges], dtype=int) if g.edge_count else np.zeros(0, dtype=int)
    for s in range(samples):
        rng = derive_rng(seed, _STREAM_GW + s)
        normal = rng.standard_normal(embedding.dimension)
        side = (vec @ normal) >= 0.0
        cuts.append(Cut(frozenset(int(v) for v in np.nonzero(side)[0])))
        if g.edge_count:
            crossing_counts += (side[heads] != side[tails]).astype(np.int64)
    probabilities = tuple(
        gw_cut_probability(float(vec[u] @ vec[v])) for u, v in g.edges
    )
    frequencies = tuple(float(c) / samples for c in crossing_counts)
    return GwRounding(
        cuts=tuple(cuts),
        edge_cut_probabilities=probabilities,
        edge_cut_frequencies=frequencies,
    )
