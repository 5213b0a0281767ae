"""Non-exact algorithms: per-group separate-solve, the naive uniform random
cut (analytic and Monte Carlo), flip local search, and Goemans-Williamson
hyperplane rounding over a low-rank coordinate-ascent SDP relaxation.

The relaxation's Gauss-Seidel sweep is multicolour: a first-fit greedy
colouring in index order splits the vertices into levels that share no
edge, the sweep visits them by (level, index), and each level is updated in
one batch.  Per row the batch runs the same float64 steps, in the same
order, as the row-by-row reference loop kept in the tests, so its
embeddings match it bit for bit.  The rounding keeps one generator per
call, re-keyed to each sample's own stream, and takes a chunk of samples'
inner products with one matrix product.  A forward-error bound certifies
each side read off it as that of the sample's own matrix-vector product,
and a sample with an uncertified side re-takes it from that product.  Each
sample's side vector is kept packed eight vertices to a byte.

Both samplers read crossing words off side bytes with one kernel: byte b
of a cut's sides indexes a 256-row XOR table of vertices 8b..8b+7, and the
XOR of those rows over its bytes is the cut's crossing words.  The Monte
Carlo trials read their side bytes off the random words, and
``utility.block_scorer`` scores their crossing words; the rounding packs its
samples' sides, and reads their cut values and per-edge crossing counts off
the same words.

Every lottery is scored off its crossing tally: each utility model is
linear in the edge-crossing vector (``utility.group_weights``), so group i's
expectation is sum_e W[i][e] tally[e] over total * dens[i] * |group i|,
where tally[e] is the integer weight of the lottery's cuts that cross edge
e and total the weights' sum.  The rounding's tally is its per-edge counts,
and the uniform random cut's is 1/2 on every edge.

Randomness is counter-based and splittable: every randomized operation takes
an explicit 64-bit seed, and independent units of work (Monte Carlo trials,
rounding samples) draw from Philox streams keyed by (seed, unit index), so
results are bit-reproducible regardless of execution order.  Floating point
appears only in the embedding/rounding code, and in ``utility.block_scorer``'s
weighted product for the Monte Carlo trials, which is exact below 2**53.
Everything else is rational.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import TooLargeError
from .graphs import Cut, Graph, GroupPartition, crossing_degree, max_degree
from .maximin import CutDistribution
from .utility import (
    UtilityModel,
    block_scorer,
    edge_words,
    group_weights,
    incident_masks,
    int_dtype,
    require_compatible,
    xor_table,
)

_MASK64 = (1 << 64) - 1

# stream tags for (seed, stream)-keyed Philox generators
_STREAM_NAIVE = 0x6E61697665
_STREAM_GW = 0x67772D726E64
_STREAM_SDP = 0x7364702D6273


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """The Philox key of stream (seed, stream): both words masked to 64 bits."""
    return np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream); independent across streams."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


def _rekeyed_rngs(seed: int, first: int) -> Iterator[np.random.Generator]:
    """One generator, yielded once per stream (seed, first), (seed, first + 1),
    ...: before each yield its bit generator is reset to the stream's fresh
    state (counter 0, empty buffer), so it draws what ``derive_rng`` would."""
    bitgen = np.random.Philox(key=_philox_key(seed, first))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    # the state setter reads lists of Python ints faster than numpy arrays
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    seed &= _MASK64
    for stream in itertools.count(first):
        fresh["state"]["key"] = [seed, stream & _MASK64]
        bitgen.state = fresh
        yield rng


# ---------------------------------------------------------------------------
# local search


def local_search_cut(g: Graph) -> Cut:
    """First-improvement flip search from the empty cut: move any vertex with
    fewer than half of its edges crossing until none remains.  Each flip
    strictly increases the cut value, so the sweep terminates; afterwards
    every vertex has crossing degree >= deg(v)/2."""
    members = set()
    improved = True
    while improved:
        improved = False
        for v in range(g.vertex_count):
            if 2 * crossing_degree(g, members, v) < g.degree(v):
                if v in members:
                    members.discard(v)
                else:
                    members.add(v)
                improved = True
    return Cut(frozenset(members))


# ---------------------------------------------------------------------------
# separate-solve

# (graph, model, one group of the partition) -> that group's cut
GroupOracle = Callable[[Graph, UtilityModel, frozenset], Cut]


@dataclass(frozen=True)
class OracleResult:
    """The oracle's cuts, their worst per-group quality alpha, and the exact
    score of their uniform lottery."""

    per_group_cuts: tuple[Cut, ...]
    alpha: Fraction
    score: DistributionScore


def default_group_oracle(g: Graph, model: UtilityModel, group: frozenset) -> Cut:
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
) -> tuple[CutDistribution, OracleResult]:
    """Uniform lottery over one oracle cut per group: ``oracle(g, model, group)``
    is called once per group, in partition order, and takes no seed.

    The worst measured per-group quality alpha = min_i proportion(x_i, U_i)
    certifies the floor alpha/gamma on the lottery's worst expected group
    proportion.  Alpha and the result's ``score``, the lottery's as
    ``evaluate_distribution`` gives it, are read off the same crossings:
    group i is scored on cut i's row for alpha, and on their tally, weight
    1 per cut, for the lottery."""
    require_compatible(g, model, partition)
    groups = partition.groups
    cuts = tuple(oracle(g, model, gr) for gr in groups)
    crossings = _crossings(g, cuts)
    alpha = _score(g, model, groups, crossings.tolist(), 1).minimum
    share = Fraction(1, partition.group_count)
    dist = CutDistribution.from_pairs((cut, share) for cut in cuts)
    score = _score(g, model, groups, [crossings.sum(axis=0).tolist()] * len(groups), len(cuts))
    return dist, OracleResult(per_group_cuts=cuts, alpha=alpha, score=score)


# ---------------------------------------------------------------------------
# distribution scoring


@dataclass(frozen=True)
class DistributionScore:
    per_group: tuple[Fraction, ...]
    minimum: Fraction


def _crossings(g: Graph, cuts: Sequence[Cut]) -> np.ndarray:
    """(cuts, edges) bool array: row c marks the edges that ``cuts[c]``
    crosses.  Each cut is checked against g before it indexes anything."""
    sides = np.zeros((len(cuts), g.vertex_count), dtype=bool)
    for row, cut in zip(sides, cuts):
        cut.validate_for(g)
        row[list(cut.members)] = True
    ends = g.endpoints
    return sides[:, ends[:, 0]] != sides[:, ends[:, 1]]


def _score(
    g: Graph,
    model: UtilityModel,
    groups: Sequence[frozenset],
    tallies: Sequence[Sequence[int]],
    total: int,
) -> DistributionScore:
    """Group i's expectation under a lottery whose cuts, weighted by
    integers summing to ``total``, cross edge e with weight ``tallies[i][e]``
    in all: sum_e W[i][e] tallies[i][e] over total * dens[i] * |group i|,
    for ``group_weights``' W and dens, in Python ints.  A lottery gives
    every group its one tally."""
    weights, dens = group_weights(g, model, groups)
    per_group = tuple(
        Fraction(sum(w * tally[e] for e, w in row.items()), total * den * len(gr))
        for row, tally, den, gr in zip(weights, tallies, dens, groups)
    )
    return DistributionScore(per_group=per_group, minimum=min(per_group))


def evaluate_distribution(
    g: Graph, model: UtilityModel, partition: GroupPartition, dist: CutDistribution
) -> DistributionScore:
    """Exact expected per-capita utility of every group under a distribution,
    read off its crossing tally: the probabilities over the lcm of their
    denominators are integer weights, and their product with the support's
    crossings is the tally, in ``int_dtype`` of the lcm (every partial sum
    is at most the weights' sum, the lcm).  One ``Fraction`` per group."""
    require_compatible(g, model, partition)
    crossings = _crossings(g, dist.support)
    scale = math.lcm(*(prob.denominator for _, prob in dist.entries))
    weights = [prob.numerator * (scale // prob.denominator) for _, prob in dist.entries]
    tally = (np.array(weights, dtype=int_dtype(scale)) @ crossings).tolist()
    return _score(g, model, partition.groups, [tally] * partition.group_count, scale)


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

    The uniform cut crosses every edge with probability 1/2, so the means
    are the score of the tally of all ones over 2.  Edge groups: variance
    1/(4|E_i|).  Max-degree node groups: the induced-degree / full-degree
    sandwich, whose upper end is the mean."""
    require_compatible(g, model, partition)
    ones = [[1] * g.edge_count] * partition.group_count
    means = _score(g, model, partition.groups, ones, 2).per_group
    stats = []
    for mean, gr in zip(means, partition.groups):
        if model is UtilityModel.EDGE:
            stats.append(GroupRandomStats(mean, variance=Fraction(1, 4 * len(gr))))
        elif model is UtilityModel.NODE_MAXDEG:
            induced = sum(len(g.neighbors[v] & gr) for v in gr)
            # max_degree is positive: require_compatible refused edgeless graphs
            lower = Fraction(induced, 2 * len(gr) * max_degree(g))
            stats.append(GroupRandomStats(mean, lower=lower, upper=mean))
        else:
            stats.append(GroupRandomStats(mean))
    return stats


@dataclass(frozen=True)
class SampleStats:
    """Empirical mean and (population) variance of a group's proportion."""

    mean: Fraction
    variance: Fraction


# Monte Carlo trials or rounding samples per block, so that memory stays
# bounded whatever their count
_BLOCK_TRIALS = 2**12


def _crossing_words(incident: np.ndarray, rows: int) -> Callable[[np.ndarray], np.ndarray]:
    """The crossing words of up to ``rows`` cuts at a time, from their side
    bytes: bit v % 8 of byte v // 8 is vertex v's side (bytes past the
    last vertex's are not read).  ``incident`` holds each vertex's
    incident-edge words, in the bit order the caller reads.

    Byte b indexes the 256-row ``xor_table`` of vertices 8b..8b+7 (zero rows
    for vertices >= n, so padding bits add nothing), and the rows gathered
    for a cut's bytes are XORed into its crossing words.  The gathers write
    into two buffers made here, so the returned words are a view that the
    next call overwrites."""
    n, words = incident.shape
    incident = np.pad(incident, ((0, -n % 8), (0, 0)))
    tables = [xor_table(incident[b : b + 8]) for b in range(0, n, 8)]
    out = np.zeros((rows, words), dtype=np.uint64)  # stays zero without vertices
    part = np.empty_like(out)

    def crossing(side_bytes: np.ndarray) -> np.ndarray:
        cross, gathered = out[: len(side_bytes)], part[: len(side_bytes)]
        for b, table in enumerate(tables):
            # a byte is always a row of the table, so no index is clipped
            np.take(table, side_bytes[:, b], axis=0, out=gathered if b else cross, mode="clip")
            if b:
                cross ^= gathered
        return cross

    return crossing


def naive_random_sample(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    seed: int,
    trials: int,
) -> list[SampleStats]:
    """Seed-reproducible Monte Carlo estimate of every group's proportion
    under the uniform random cut.  Statistics are exact rationals computed
    from integer group numerators.

    Trial t reads the fixed 64-bit words [t*W, (t+1)*W) of the Philox stream
    keyed (seed, naive-cut stream), bit v of its words being vertex v's side,
    so each trial's cut depends only on the seed and its own index.  Trials
    are drawn and scored in blocks of ``_BLOCK_TRIALS``; full-range draws
    consume the stream one word each, so the blocks read the same words as
    one draw of all trials.  A trial's words, read as little-endian bytes,
    are its side bytes, and ``_crossing_words`` turns them into the crossing
    words that ``block_scorer`` scores.  The sums of numerators and of their
    squares are kept as Python ints.  More than ``MAX_TRIALS`` trials, or
    crossing tables past ``MAX_TABLE_BYTES``, are refused before any draw."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_trial_count(trials)
    require_compatible(g, model, partition)
    _check_table_size(g, min(trials, _BLOCK_TRIALS))
    dens, bound, incident, numerators = block_scorer(g, model, partition.groups)
    crossing = _crossing_words(incident, min(trials, _BLOCK_TRIALS))
    rng = derive_rng(seed, _STREAM_NAIVE)
    totals = squares = [0] * len(dens)
    for start in range(0, trials, _BLOCK_TRIALS):
        count = min(_BLOCK_TRIALS, trials - start)
        shape = (count, (g.vertex_count + 63) // 64)
        raw = rng.integers(0, _MASK64, shape, dtype=np.uint64, endpoint=True)
        nums = numerators(crossing(raw.astype("<u8", copy=False).view(np.uint8)))
        nums = nums.astype(int_dtype(count * bound * bound), copy=False)  # the squares' sums
        totals = [a + b for a, b in zip(totals, nums.sum(axis=0).tolist())]
        squares = [a + b for a, b in zip(squares, (nums * nums).sum(axis=0).tolist())]

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


def _edge_dots(g: Graph, vec: np.ndarray) -> np.ndarray:
    """x_u . x_v for every edge (u, v), in edge order: one ``np.vecdot`` over
    the gathered endpoint rows, whose per-row BLAS ddot gives the doubles
    of ``vec[u] @ vec[v]`` bit for bit."""
    ends = g.endpoints
    return np.vecdot(vec[ends[:, 0]], vec[ends[:, 1]])


def sdp_objective(g: Graph, embedding: UnitVectorEmbedding) -> float:
    """Relaxation objective sum over edges of (1 - x_u . x_v) / 2: the terms
    are taken elementwise, then summed one by one in edge order."""
    return sum(((1.0 - _edge_dots(g, embedding.vectors)) / 2.0).tolist())


def default_sdp_rank(vertex_count: int) -> int:
    return min(vertex_count, math.isqrt(2 * vertex_count) + 1) if vertex_count else 1


def gw_sdp_solve(
    g: Graph,
    rank: Optional[int] = None,
    iterations: int = 200,
    seed: int = 0,
) -> UnitVectorEmbedding:
    """Low-rank coordinate ascent on the cut relaxation (the mixing method of
    Wang, Chang & Kolter, 2017).

    Each update replaces a vertex's vector with the unit vector opposing the
    sum of its neighbors' vectors, which maximizes that coordinate block, so
    the objective never decreases.  Returns after `iterations` full sweeps
    (earlier if a sweep moves nothing).

    A sweep is a multicolour Gauss-Seidel sweep (Adams & Jordan, 1986): the
    vertices are coloured first-fit in index order (``_sweep_levels``), and
    a sweep updates them by (colour, index), each update reading the latest
    vector of every neighbor.  A colour class shares no edge, so it is
    updated in one batch that reads exactly those vectors: the new ones of
    the earlier classes and the old ones of the later ones.  Each update is
    the neighbor rows' ufunc sum, the BLAS dot of that sum with itself and
    one division, so the vectors are bit-for-bit those of the row-by-row
    reference loop in the same order."""
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
    _coordinate_ascent(g, vec, iterations)
    return UnitVectorEmbedding(vec)


def _sweep_levels(g: Graph) -> tuple[list[int], list[tuple[int, int, np.ndarray]]]:
    """The colour classes of the sweep: ``(order, levels)``.

    Vertex v's level is its first-fit greedy colour in index order: the
    smallest level that none of its neighbors u < v holds.  So no two
    neighbors share a level, and there are at most max degree + 1 levels.
    Vertices without neighbors get none.  ``order`` lists the other
    vertices by (level, index), and level ``order[lo:hi]`` comes
    with a (slots, hi - lo) index array whose column r holds the positions
    in ``order`` of vertex ``order[lo + r]``'s neighbors, sorted by vertex
    index, then the padding position ``len(order)`` up to the level's
    largest degree."""
    level = [-1] * g.vertex_count
    for v, nbrs in enumerate(g.neighbors):
        if nbrs:
            taken = {level[u] for u in nbrs if u < v}
            level[v] = next(c for c in itertools.count() if c not in taken)
    order = sorted((v for v in range(g.vertex_count) if level[v] >= 0), key=level.__getitem__)
    position = {v: k for k, v in enumerate(order)}
    levels = []
    for _, members in itertools.groupby(order, key=level.__getitem__):
        members = list(members)
        lo = position[members[0]]
        slots = max(len(g.neighbors[v]) for v in members)
        idx = np.full((slots, len(members)), len(order), dtype=np.intp)
        for r, v in enumerate(members):
            nbrs = sorted(g.neighbors[v])
            idx[: len(nbrs), r] = [position[u] for u in nbrs]
        levels.append((lo, lo + len(members), idx))
    return order, levels


def _coordinate_ascent(g: Graph, vec: np.ndarray, iterations: int) -> None:
    """Run up to `iterations` sweeps of `gw_sdp_solve` on `vec` in place.

    A sweep runs level by level (``_sweep_levels``, the colour classes of a
    multicolour Gauss-Seidel ordering) on a copy of the rows in (level,
    index) order with one extra row of -0.0.  A level's vertices share no
    edge; their neighbors on earlier levels already hold their new vectors,
    those on later levels still hold their old ones, as in a row-by-row
    sweep in (level, index) order.  Each level takes six calls: the gather
    of the neighbor rows, their sum one slot after another (the padding
    adds -0.0, which changes no value and no zero's sign), each sum's BLAS
    dot with itself (the ddot of ``ndarray.dot``), its root, the negation
    and the division into the level's rows.

    A vector whose update equals it numerically (0.0 == -0.0) is left as it
    is, so a stored zero keeps its sign, and one whose neighbors sum to
    norm 0 is not updated.  A sweep first writes every update without
    comparing, then checks the rows against a copy of its start with two
    whole-array compares: one of the floats, one of their bits.  The fast
    sweep differs from the careful one only if a norm was 0 or an unmoved
    row got a zero's sign flipped.  So the sweep is redone from its start
    with the comparison when a norm was 0 or any element, in a moved row
    or not, is equal as a float but differs in its bits: a wider trigger,
    and a redo gives the careful sweep's bits.  The first sweep after
    which every element compares equal is the last."""
    order, levels = _sweep_levels(g)
    work = np.empty((len(order) + 1, vec.shape[1]))
    work[:-1] = vec[order]
    work[-1] = -0.0
    norms = np.empty(len(order))
    steps = [(idx, work[lo:hi], norms[lo:hi]) for lo, hi, idx in levels]

    def sweep(keep_equal: bool) -> None:
        for idx, rows, norm in steps:
            grad = np.add.reduce(work.take(idx, 0), 0)
            np.vecdot(grad, grad, out=norm)
            np.sqrt(norm, out=norm)
            np.negative(norm, out=norm)
            if not keep_equal:
                np.divide(grad, norm[:, None], out=rows)
                continue
            new = np.divide(grad, norm[:, None])
            moved = (norm != 0.0) & (new != rows).any(axis=1)
            rows[moved] = new[moved]

    before = np.empty_like(work)
    same = np.empty(work.shape, dtype=bool)
    work_bits, before_bits = work.view(np.int64), before.view(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(iterations):
            np.copyto(before, work)
            sweep(keep_equal=False)
            equal = np.count_nonzero(np.equal(work, before, out=same))
            # with no zero norm no row holds a NaN, so equal bits are equal
            # floats, and the counts differ iff an element is equal but not
            # in its bits
            if not norms.all() or equal != np.count_nonzero(
                np.equal(work_bits, before_bits, out=same)
            ):
                np.copyto(work, before)
                sweep(keep_equal=True)
                equal = np.count_nonzero(np.equal(work, before, out=same))
            if equal == same.size:
                break
    vec[order] = work[:-1]


@dataclass(frozen=True, eq=False)
class GwRounding:
    """The sampled sides of a rounding of ``graph``, each sample's cut value,
    and per-edge crossing probabilities (analytic) and counts (over the
    samples, as Python ints).

    ``side_bytes`` is a read-only (samples, ceil(n / 8)) uint8 array: row s
    is sample s's side vector, vertex v in bit v % 8 of byte v // 8 and the
    padding bits zero, the byte layout that Monte Carlo reads off its random
    words.  A vertex on the positive side is a member of the sample's cut."""

    graph: Graph
    side_bytes: np.ndarray
    cut_values: tuple[int, ...]
    edge_cut_probabilities: tuple[float, ...]
    edge_cut_counts: tuple[int, ...]

    @cached_property
    def edge_cut_frequencies(self) -> tuple[float, ...]:
        """Each edge's count over the samples, as a float, made when first read."""
        return tuple(count / len(self.cut_values) for count in self.edge_cut_counts)

    @cached_property
    def cuts(self) -> tuple[Cut, ...]:
        """Each sample's cut, made from its side bytes when first read."""
        members = np.unpackbits(self.side_bytes, axis=1, bitorder="little")
        return tuple(Cut(frozenset(np.flatnonzero(row).tolist())) for row in members)

    def distribution(self) -> CutDistribution:
        """Empirical distribution: each distinct sampled cut with probability
        (times sampled) / samples, in order of first sampling."""
        samples = len(self.cuts)
        return CutDistribution(
            tuple((cut, Fraction(k, samples)) for cut, k in Counter(self.cuts).items())
        )

    def score(
        self, g: Graph, model: UtilityModel, partition: GroupPartition
    ) -> DistributionScore:
        """``evaluate_distribution(g, model, partition, self.distribution())``,
        read off the per-edge counts: the empirical lottery's tally, over the
        sample count.  No ``Cut`` is made.  The counts are those of the
        rounded ``graph``'s edges, so a g not equal to it is refused."""
        if g != self.graph:
            raise ValueError("the rounding was made on another graph")
        require_compatible(g, model, partition)
        tallies = [self.edge_cut_counts] * partition.group_count
        return _score(g, model, partition.groups, tallies, len(self.cut_values))


def gw_cut_probability(dot: float) -> float:
    """Analytic crossing probability arccos(x_u . x_v) / pi, exact at the
    endpoints: inner product 1 gives exactly 0, inner product -1 exactly 1."""
    if dot >= 1.0:
        return 0.0
    if dot <= -1.0:
        return 1.0
    return math.acos(dot) / math.pi


# the most bytes a rounding may keep: each sample's side bytes, plus its cut
# value (a tuple slot and an int object)
MAX_ROUNDING_BYTES = 2**30
_CUT_VALUE_BYTES = 40
# the most bytes one call's crossing tables and buffers may take
MAX_TABLE_BYTES = 2**30
# the most Monte Carlo trials one call may draw: memory stays one block
# whatever the count, so the limit is on time (about 30 s for edge groups
# on an 80-vertex, 619-edge graph; 2**40 trials would take days)
MAX_TRIALS = 2**27


def check_trial_count(trials: int) -> None:
    """Raise ``TooLargeError`` if ``naive_random_sample`` would draw more
    than ``MAX_TRIALS`` trials."""
    if trials > MAX_TRIALS:
        raise TooLargeError(f"{trials} Monte Carlo trials; the limit is {MAX_TRIALS}")


def _check_table_size(g: Graph, rows: int) -> None:
    """Raise ``TooLargeError`` if ``_crossing_words`` would allocate more than
    ``MAX_TABLE_BYTES`` for g and ``rows`` cuts a call: ceil(n / 8) tables of
    256 rows and two buffers of ``rows`` rows, each row ceil(m / 64) words."""
    words = (g.edge_count + 63) // 64
    tables = ((g.vertex_count + 7) // 8 * 256 + 2 * rows) * words * 8
    if tables > MAX_TABLE_BYTES:
        raise TooLargeError(
            f"the crossing tables of {g.vertex_count} vertices and {g.edge_count} edges "
            f"would take {tables} bytes; the limit is {MAX_TABLE_BYTES}"
        )


def check_rounding_size(g: Graph, samples: int) -> None:
    """Raise ``TooLargeError`` if ``gw_round`` would keep more than
    ``MAX_ROUNDING_BYTES`` for that many samples of g, or if its crossing
    tables would take more than ``MAX_TABLE_BYTES``."""
    kept = samples * ((g.vertex_count + 7) // 8 + _CUT_VALUE_BYTES)
    if kept > MAX_ROUNDING_BYTES:
        raise TooLargeError(
            f"{samples} rounding samples of {g.vertex_count} vertices would keep {kept} "
            f"bytes of sides and cut values; the limit is {MAX_ROUNDING_BYTES}"
        )
    _check_table_size(g, min(samples, _BLOCK_TRIALS))


# the most entries of each float buffer of the rounding's block product, so
# that its memory stays the same whatever the vertex count, and the fewest
# samples of a chunk (while samples last), so that each read of a vertex's
# row serves many samples
_PRODUCT_ENTRIES = 2**14
_PRODUCT_ROWS = 2**6


def _product_sides(vec: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """One sample's side bytes from its own matrix-vector product."""
    return np.packbits(vec @ normal >= 0.0, bitorder="little")


def _side_writer(
    vec: np.ndarray, rngs: Iterator[np.random.Generator], samples: int
) -> Callable[[np.ndarray], None]:
    """A function that writes the side bytes of the next samples of ``rngs``
    into the rows of the array it is given: vertex v is on sample s's
    positive side iff ``(vec @ normal)[v] >= 0.0`` for s's normal, as
    ``_product_sides`` takes it.

    A chunk of samples draws its normals N into the rows of one buffer
    (``standard_normal(out=row)``, the doubles of a new array) and takes all
    its inner products D = N X^T with one ``np.matmul``.  D's sign is kept
    only where it is provably that of the per-sample product.  Let r be the
    rank, u = 2**-53 and gamma_r = r u / (1 - r u).  Whatever the order of
    the r products and sums, with or without fused multiply-adds, a
    binary64 inner product of n and x is within gamma_r B + e of the exact
    one t, where B = sum |n_k| |x_k| and e is what underflow adds (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1);
    both BLAS gemm and gemv evaluate each entry so.  So if |D_sv| > 2
    (gamma_r B + e), then t lies on D_sv's side more than gamma_r B + e
    from zero, and the per-sample product is nonzero with t's sign.

    The band is read off a second product |N| |X|^T, whose entries are at
    least (1 - gamma_r) B: scaled by (r + 2) 2**-51, more than 2 gamma_r /
    ((1 - gamma_r) (1 - u)**2) for the band's own rounding, plus (r + 1)
    2**-1020, more than the 2 e of both products (at most 2**-1022 per
    operation, even where results flush to zero).  A sample with any entry
    on or inside the band takes its whole row from ``_product_sides``, so a
    zero product counts as the positive side and every side is the
    per-sample product's.

    The float buffers hold at most ``_PRODUCT_ENTRIES`` entries each (or one
    normal, past that rank).  A chunk is that many entries over the vertex
    count (or the rank) of samples, but at least ``_PRODUCT_ROWS`` of them;
    where its vertices would not fit, they are split into spans of whole
    bytes of the sides."""
    n, rank = vec.shape
    widest = max(rank, min(n, _PRODUCT_ENTRIES // _PRODUCT_ROWS))
    rows = max(1, min(samples, _PRODUCT_ENTRIES // widest))
    span = max(1, n) if rows * n <= _PRODUCT_ENTRIES else _PRODUCT_ENTRIES // rows // 8 * 8
    normals = np.empty((rows, rank))
    magnitudes = np.empty_like(normals)
    dots = np.empty((rows, span))
    band = np.empty_like(dots)
    flags = np.empty(dots.shape, dtype=bool)
    transposed, abs_transposed = vec.T, np.abs(vec).T
    scale, floor = (rank + 2) * 2.0**-51, (rank + 1) * 2.0**-1020

    def write(packed: np.ndarray) -> None:
        for first in range(0, len(packed), rows):
            out = packed[first : first + rows]
            drawn, size = normals[: len(out)], magnitudes[: len(out)]
            for normal, rng in zip(drawn, rngs):
                rng.standard_normal(out=normal)
            np.abs(drawn, out=size)
            unsure = set()
            for lo in range(0, n, span):
                hi = min(n, lo + span)
                dot = np.matmul(drawn, transposed[:, lo:hi], out=dots[: len(out), : hi - lo])
                bound = np.matmul(size, abs_transposed[:, lo:hi], out=band[: len(out), : hi - lo])
                bound *= scale
                bound += floor
                side = np.greater_equal(dot, 0.0, out=flags[: len(out), : hi - lo])
                out[:, lo // 8 : (hi + 7) // 8] = np.packbits(side, axis=1, bitorder="little")
                if np.less_equal(np.abs(dot, out=dot), bound, out=side).any():
                    unsure.update(np.flatnonzero(side.any(axis=1)).tolist())
            for s in sorted(unsure):  # each normal a new array, as drawn alone
                out[s] = _product_sides(vec, drawn[s].copy())

    return write


def gw_round(
    g: Graph, embedding: UnitVectorEmbedding, seed: int, samples: int
) -> GwRounding:
    """Random-hyperplane rounding of the embedding.

    Sample s splits vertices by the sign of the inner product with a standard
    Gaussian normal drawn from the Philox stream keyed (seed, s); a zero inner
    product counts as the positive side.  Each sample's cut value is the
    number of edges its side vector separates.  Also reports the analytic
    per-edge crossing probabilities for comparison with the empirical
    frequencies.

    One generator serves the whole call: before each sample its bit
    generator is re-keyed to the fresh state of stream (seed, s), counter 0
    and empty buffer, so the normals are those of ``derive_rng``.  A side is
    the sign of the sample's own matrix-vector product ``vec @ normal``.
    One matrix product over stacked normals rounds differently, but
    ``_side_writer`` takes a sign from it only where its error bound proves
    it the same, and re-takes the rest from ``vec @ normal``.  The sides of
    each block of ``_BLOCK_TRIALS`` samples are written eight vertices to a
    byte into the kept ``side_bytes``.  ``_crossing_words`` turns a block's
    side bytes into its crossing words, whose popcounts are the samples'
    cut values and whose bits, summed over the samples, the per-edge
    counts.  ``check_rounding_size`` refuses a rounding that would not fit
    before anything is allocated."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if embedding.vertex_count != g.vertex_count:
        raise ValueError("embedding size does not match the graph")
    check_rounding_size(g, samples)
    vec = embedding.vectors
    write_sides = _side_writer(vec, _rekeyed_rngs(seed, _STREAM_GW), samples)
    words = (g.edge_count + 63) // 64
    crossing = _crossing_words(edge_words(incident_masks(g), words), min(samples, _BLOCK_TRIALS))
    side_bytes = np.empty((samples, (g.vertex_count + 7) // 8), dtype=np.uint8)
    values = []
    crossing_counts = np.zeros(g.edge_count, dtype=np.int64)
    for start in range(0, samples, _BLOCK_TRIALS):
        packed = side_bytes[start : start + _BLOCK_TRIALS]
        write_sides(packed)
        cross = crossing(packed)
        values += np.bitwise_count(cross).sum(axis=1).tolist()
        # edge e is bit e % 8 of byte e // 8 of the little-endian words
        edge_bits = cross.astype("<u8", copy=False).view(np.uint8)
        edge_bits = np.unpackbits(edge_bits, axis=1, count=g.edge_count, bitorder="little")
        crossing_counts += edge_bits.sum(axis=0, dtype=np.int64)
    side_bytes.flags.writeable = False
    probabilities = tuple(gw_cut_probability(dot) for dot in _edge_dots(g, vec).tolist())
    return GwRounding(
        graph=g,
        side_bytes=side_bytes,
        cut_values=tuple(values),
        edge_cut_probabilities=probabilities,
        edge_cut_counts=tuple(crossing_counts.tolist()),
    )
