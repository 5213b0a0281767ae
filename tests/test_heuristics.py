"""Heuristic algorithms: local search, separate-solve, naive random cut,
and hyperplane rounding."""

import contextlib
import io
import math
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmaxcut import cli, heuristics
from fairmaxcut.errors import DegreeZeroError, TooLargeError
from fairmaxcut.exact import max_value
from fairmaxcut.families import (
    NamedInstance,
    make_complete_bipartite,
    make_cycle,
    make_diamond_embedding,
    make_diamond_instance,
    make_paw_instance,
    random_instance,
    singleton_partition,
)
from fairmaxcut.graphs import (
    Cut,
    Graph,
    PartitionKind,
    cut_value,
    edge_groups,
    max_degree,
    node_groups,
)
from fairmaxcut.heuristics import (
    _BLOCK_TRIALS,
    _STREAM_GW,
    _STREAM_NAIVE,
    MAX_ROUNDING_BYTES,
    MAX_TRIALS,
    DistributionScore,
    GwRounding,
    _coordinate_ascent,
    _rekeyed_rngs,
    _sweep_levels,
    UnitVectorEmbedding,
    default_group_oracle,
    derive_rng,
    evaluate_distribution,
    gw_cut_probability,
    gw_round,
    gw_sdp_solve,
    local_search_cut,
    naive_random_sample,
    naive_random_stats,
    sdp_objective,
    separate_solve,
)
from fairmaxcut.instances import load_instance, save_instance
from fairmaxcut.maximin import CutDistribution
from fairmaxcut.reports import parse_report
from fairmaxcut.utility import UtilityModel, block_scorer, group_weights

from .fraction_utility import group_proportion, min_group_proportion
from .python_rounding import python_gw_round
from .python_sampler import _BLOCK_ENTRIES, _trial_side_bits, python_naive_random_sample
from .python_sdp import python_sdp_solve, python_sweeps
from .strategies import edge_instances, graphs, node_instances, partitions_for, prime_hubs


GOLDENS = Path(__file__).parent / "goldens"


def crossing_degree(g: Graph, cut: Cut, v: int) -> int:
    inside = v in cut.members
    return sum(1 for u in g.neighbors[v] if (u in cut.members) != inside)


class TestLocalSearch:
    def test_bipartition_found_from_empty(self):
        # each of 0, 1, 2 joins the empty cut in turn, and then every edge crosses
        assert local_search_cut(make_complete_bipartite(3, 3)) == Cut.of({0, 1, 2})

    def test_c5_from_empty(self):
        g = make_cycle(5)
        cut = local_search_cut(g)
        assert cut == Cut.of({0, 2})
        assert cut_value(g, cut) >= 3

    @given(graphs(max_vertices=8))
    @settings(max_examples=60)
    def test_every_vertex_satisfies_half_degree(self, g):
        cut = local_search_cut(g)
        for v in range(g.vertex_count):
            assert 2 * crossing_degree(g, cut, v) >= g.degree(v)

    @given(node_instances())
    @settings(max_examples=25)
    def test_cut_meets_node_group_degree_floor(self, inst):
        from fairmaxcut.graphs import max_degree

        g, partition = inst
        cut = local_search_cut(g)
        delta = max_degree(g)
        for gr in partition.groups:
            floor = Fraction(sum(g.degree(v) for v in gr), 2 * len(gr) * delta)
            assert group_proportion(g, UtilityModel.NODE_MAXDEG, cut, gr) >= floor


class TestDefaultOracle:
    def test_single_edge_group_separates_endpoints(self):
        g = make_cycle(5)
        cut = default_group_oracle(g, UtilityModel.EDGE, frozenset({2}))
        assert group_proportion(g, UtilityModel.EDGE, cut, {2}) == 1

    def test_odd_cycle_group_meets_local_condition(self):
        g = make_cycle(7)
        group = frozenset(range(7))
        cut = default_group_oracle(g, UtilityModel.EDGE, group)
        assert cut_value(g, cut) >= 4  # ceil(7/2)

    def test_clique_group_balanced_split(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        cut = default_group_oracle(g, UtilityModel.EDGE, frozenset(range(6)))
        assert cut_value(g, cut) == 4

    def test_node_group_uses_induced_subgraph(self):
        g = make_cycle(6)
        cut = default_group_oracle(g, UtilityModel.NODE_MAXDEG, frozenset({0, 1, 2}))
        assert cut.members <= {0, 1, 2}


class TestSeparateSolve:
    def test_single_group_point_mass(self):
        g = make_cycle(4)
        partition = edge_groups(g, [frozenset(range(4))])
        dist, result = separate_solve(g, UtilityModel.EDGE, partition)
        assert len(dist.entries) == 1
        assert dist.entries[0][1] == 1
        assert result.alpha == 1  # even cycle fully cut

    def test_bipartite_all_groups_fully_served(self):
        g = make_complete_bipartite(2, 2)
        partition = edge_groups(g, [frozenset({0, 1}), frozenset({2, 3})])
        side = Cut.of({0, 1})
        dist, result = separate_solve(
            g, UtilityModel.EDGE, partition, oracle=lambda *_: side
        )
        assert result.alpha == 1
        score = evaluate_distribution(g, UtilityModel.EDGE, partition, dist)
        assert score.minimum == 1

    def test_c5_singleton_edges_floor_met_exactly(self):
        g = make_cycle(5)
        partition = singleton_partition(g, PartitionKind.EDGES)
        dist, result = separate_solve(g, UtilityModel.EDGE, partition)
        assert result.alpha == 1
        score = evaluate_distribution(g, UtilityModel.EDGE, partition, dist)
        assert score.minimum >= Fraction(result.alpha, 5)
        # the wrap-around edge's expectation sits exactly on the floor here
        assert score.minimum == Fraction(1, 5)

    @given(edge_instances())
    @settings(max_examples=30, deadline=None)
    def test_floor_guarantee(self, inst):
        g, partition = inst
        dist, result = separate_solve(g, UtilityModel.EDGE, partition)
        score = evaluate_distribution(g, UtilityModel.EDGE, partition, dist)
        assert score.minimum >= result.alpha / partition.group_count
        assert result.score == score


class TestNaiveRandomStats:
    def test_edge_groups(self):
        inst = make_diamond_instance()
        stats = naive_random_stats(inst.graph, inst.model, inst.partition)
        assert stats[0].mean == Fraction(1, 2) and stats[0].variance == Fraction(1, 16)
        assert stats[1].mean == Fraction(1, 2) and stats[1].variance == Fraction(1, 4)

    def test_regular_graph_node_mean_half(self):
        g = make_cycle(6)
        partition = singleton_partition(g, PartitionKind.NODES)
        for st in naive_random_stats(g, UtilityModel.NODE_MAXDEG, partition):
            assert st.mean == Fraction(1, 2)
            assert st.upper == st.mean

    def test_node_sandwich_bounds(self):
        # path 0-1-2 plus leaf 3 on vertex 1: group {0,1} has induced degree sum 2
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        from fairmaxcut.graphs import node_groups

        partition = node_groups(g, [frozenset({0, 1}), frozenset({2, 3})])
        stats = naive_random_stats(g, UtilityModel.NODE_MAXDEG, partition)
        assert stats[0].mean == Fraction(1 + 3, 2 * 2 * 3)
        assert stats[0].lower == Fraction(2, 2 * 2 * 3)
        assert stats[0].lower <= stats[0].mean <= stats[0].upper

    def test_own_degree_mean_counts_non_isolated(self):
        g = Graph(3, ((0, 1),))
        from fairmaxcut.graphs import node_groups

        partition = node_groups(g, [frozenset({0, 2}), frozenset({1})])
        stats = naive_random_stats(g, UtilityModel.NODE_OWNDEG, partition)
        assert stats[0].mean == Fraction(1, 4)
        assert stats[1].mean == Fraction(1, 2)


def closed_form_means(g: Graph, model: UtilityModel, partition) -> list[Fraction]:
    """The uniform cut's means, written per model: 1/2 for edge groups, the
    degree sum over 2 |group| max degree for max-degree groups, and the share
    of non-isolated members over 2 for own-degree groups."""
    if model is UtilityModel.EDGE:
        return [Fraction(1, 2)] * partition.group_count
    if model is UtilityModel.NODE_MAXDEG:
        delta = max_degree(g)
        return [
            Fraction(sum(g.degree(v) for v in gr), 2 * len(gr) * delta) for gr in partition.groups
        ]
    return [
        Fraction(sum(1 for v in gr if g.degree(v) > 0), 2 * len(gr)) for gr in partition.groups
    ]


class TestNaiveRandomMeans:
    """``naive_random_stats``' means, the tally of all ones over 2, against
    the closed forms."""

    @given(edge_instances(max_vertices=8), node_instances(max_vertices=8))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, edge_inst, node_inst):
        cases = [(UtilityModel.EDGE, *edge_inst)] + [
            (model, *node_inst) for model in (UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG)
        ]
        for model, g, partition in cases:
            stats = naive_random_stats(g, model, partition)
            assert [st.mean for st in stats] == closed_form_means(g, model, partition)

    def test_own_degree_groups_with_an_isolated_vertex(self):
        inst = load_instance(str(GOLDENS / "owndeg_isolated.inst"))
        assert 0 in inst.graph.degrees
        stats = naive_random_stats(inst.graph, inst.model, inst.partition)
        assert [st.mean for st in stats] == closed_form_means(
            inst.graph, inst.model, inst.partition
        )


class TestNaiveRandomSample:
    def test_single_trial_equals_that_cut(self):
        inst = make_paw_instance()
        samples = naive_random_sample(inst.graph, inst.model, inst.partition, seed=3, trials=1)
        for st in samples:
            assert st.mean in (Fraction(0), Fraction(1))
            assert st.variance == 0

    @given(edge_instances(), node_instances(), st.integers(0, 2**64 - 1))
    @settings(max_examples=40)
    def test_single_trial_matches_direct_definition(self, edge_inst, node_inst, seed):
        # every model's sampler weights against group_proportion on the sampled cut
        cases = [(UtilityModel.EDGE, *edge_inst)] + [
            (model, *node_inst) for model in (UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG)
        ]
        for model, g, partition in cases:
            side = next(_trial_side_bits(g, seed, 1))[0]
            cut = Cut.of(v for v in range(g.vertex_count) if side[v])
            samples = naive_random_sample(g, model, partition, seed=seed, trials=1)
            for sample, gr in zip(samples, partition.groups):
                assert sample.mean == group_proportion(g, model, cut, gr)
                assert sample.variance == 0

    def test_seeded_golden_values(self):
        # frozen from the first run at this seed; breaks if the stream changes
        inst = make_paw_instance()
        samples = naive_random_sample(
            inst.graph, inst.model, inst.partition, seed=20260809, trials=50_000
        )
        assert samples[0].mean == Fraction(5021, 10000)
        assert samples[0].variance == Fraction(24999559, 100000000)

    def test_means_within_three_sigma_on_fixed_seed(self):
        from fairmaxcut.families import make_clique_with_tail

        inst = make_clique_with_tail(2, 10)
        trials = 100_000
        samples = naive_random_sample(
            inst.graph, inst.model, inst.partition, seed=20260809, trials=trials
        )
        for gr, st in zip(inst.partition.groups, samples):
            sigma = Fraction(1, 2) / math.sqrt(len(gr) * trials)
            assert abs(st.mean - Fraction(1, 2)) <= 3 * sigma

    def test_reproducible_and_trial_extension_consistent(self):
        # same seed, same prefix: trial t depends only on (seed, t)
        inst = make_paw_instance()
        a = naive_random_sample(inst.graph, inst.model, inst.partition, seed=9, trials=64)
        b = naive_random_sample(inst.graph, inst.model, inst.partition, seed=9, trials=64)
        assert a == b


def direct_sample(g, model, partition, seed, trials):
    """Reference sampler: one draw of all trials' words, side bits read vertex
    by vertex, and group_proportion summed over each trial's cut."""
    words = max(1, (g.vertex_count + 63) // 64)
    raw = derive_rng(seed, _STREAM_NAIVE).integers(
        0, 2**64 - 1, size=trials * words, dtype=np.uint64, endpoint=True
    )
    sums = [Fraction(0)] * partition.group_count
    squares = [Fraction(0)] * partition.group_count
    for t in range(trials):
        cut = Cut.of(
            v for v in range(g.vertex_count) if (int(raw[t * words + v // 64]) >> (v % 64)) & 1
        )
        for i, gr in enumerate(partition.groups):
            p = group_proportion(g, model, cut, gr)
            sums[i] += p
            squares[i] += p * p
    means = [total / trials for total in sums]
    return [(mean, sq / trials - mean * mean) for mean, sq in zip(means, squares)]


class TestStreamedSampler:
    def test_refuses_trials_past_the_limit_before_any_draw(self, monkeypatch):
        g = make_cycle(5)
        partition = singleton_partition(g, PartitionKind.EDGES)
        monkeypatch.setattr(heuristics, "derive_rng", None)  # a draw would fail
        message = f"^{MAX_TRIALS + 1} Monte Carlo trials; the limit is {MAX_TRIALS}$"
        with pytest.raises(TooLargeError, match=message):
            naive_random_sample(g, UtilityModel.EDGE, partition, seed=0, trials=MAX_TRIALS + 1)

    @pytest.mark.parametrize("model", list(UtilityModel), ids=lambda m: m.value)
    def test_matches_direct_reference_across_blocks(self, model):
        kind = PartitionKind.EDGES if model is UtilityModel.EDGE else PartitionKind.NODES
        inst = random_instance(24, 0.6, 3, kind, seed=2, model=model)
        g = inst.graph
        block = _BLOCK_ENTRIES // g.edge_count
        trials = 2 * block + 1  # two full blocks and a one-trial last block
        assert [len(bits) for bits in _trial_side_bits(g, 5, trials)] == [block, block, 1]
        samples = naive_random_sample(g, model, inst.partition, seed=5, trials=trials)
        assert [(s.mean, s.variance) for s in samples] == direct_sample(
            g, model, inst.partition, 5, trials
        )
        assert samples == python_naive_random_sample(g, model, inst.partition, 5, trials)

    @pytest.mark.parametrize("largest, past_float", [(23, False), (47, True)])
    def test_large_numerators_stay_exact(self, largest, past_float):
        # hubs of distinct prime degrees into a shared pool: the hubs'
        # own-degree denominator is the product of the primes.  Up to 23 the
        # sums of 64 squares can pass 2**63 (Python-int sums); up to 47 the
        # numerators pass 2**53 but stay int64
        g, partition = prime_hubs(largest)
        model = UtilityModel.NODE_OWNDEG
        weights, _ = group_weights(g, model, partition.groups)
        max_num = max(sum(row.values()) for row in weights)
        assert 64 * max_num * max_num >= 2**63 and (max_num >= 2**53) == past_float
        samples = naive_random_sample(g, model, partition, seed=3, trials=64)
        assert [(s.mean, s.variance) for s in samples] == direct_sample(g, model, partition, 3, 64)

    def test_numerators_past_int64_take_object_weights(self):
        # primes up to 53: the hubs' own-degree numerators reach 2**63, so
        # the scorer's term weights, and the numerators, are Python ints
        g, partition = prime_hubs(53)
        model = UtilityModel.NODE_OWNDEG
        _, bound, _, _ = block_scorer(g, model, partition.groups)
        assert bound >= 2**63
        samples = naive_random_sample(g, model, partition, seed=3, trials=64)
        assert [(s.mean, s.variance) for s in samples] == direct_sample(g, model, partition, 3, 64)
        assert samples == python_naive_random_sample(g, model, partition, 3, 64)

    @given(
        st.one_of(st.sampled_from([2, 7, 8, 9, 63, 64, 65, 129]), st.integers(2, 130)),
        st.sampled_from(list(UtilityModel)),
        st.sampled_from([1, 3, 6]),
        st.integers(1, 3),
        st.sampled_from([1, 2, _BLOCK_TRIALS - 1, _BLOCK_TRIALS, _BLOCK_TRIALS + 1]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_python_sampler(self, n, model, degree, gamma, trials, graph_seed, seed):
        # n crosses the 8-vertex byte and 64-vertex word boundaries of the
        # side bits, and the trial counts the sampler's block size
        inst = random_instance(
            n, min(1.0, degree / (n - 1)), min(gamma, n - 1), model.partition_kind,
            graph_seed, model=model,
        )
        g, partition = inst.graph, inst.partition
        assert naive_random_sample(g, model, partition, seed, trials) == (
            python_naive_random_sample(g, model, partition, seed, trials)
        )

    def test_memory_stays_bounded_by_one_block(self):
        inst = random_instance(80, 0.2, 4, PartitionKind.EDGES, seed=1)
        assert 600 <= inst.graph.edge_count <= 660
        tracemalloc.start()
        try:
            naive_random_sample(inst.graph, inst.model, inst.partition, seed=5, trials=100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole trials-by-edges crossing matrix would be about 60 MB as uint8
        assert peak < 4 * 2**20


class TestGwRounding:
    def test_pinned_embedding_never_cuts_chord(self):
        inst = make_diamond_instance()
        embedding = make_diamond_embedding()
        rounding = gw_round(inst.graph, embedding, seed=0, samples=200)
        assert rounding.edge_cut_probabilities[4] == 0.0
        assert rounding.edge_cut_frequencies[4] == 0.0
        score = evaluate_distribution(
            inst.graph, inst.model, inst.partition, rounding.distribution()
        )
        assert score.minimum == 0

    def test_antipodal_pair_probability_one(self):
        assert gw_cut_probability(-1.0) == 1.0
        assert gw_cut_probability(1.0) == 0.0
        assert 0.0 < gw_cut_probability(0.0) < 1.0

    def test_identical_vectors_trivial_cuts(self):
        g = make_cycle(4)
        embedding = UnitVectorEmbedding(np.tile([1.0, 0.0], (4, 1)))
        rounding = gw_round(g, embedding, seed=1, samples=50)
        for cut in rounding.cuts:
            assert cut.members in (frozenset(), frozenset(range(4)))
        assert all(f == 0.0 for f in rounding.edge_cut_frequencies)

    def test_edgeless_graph_has_no_edge_statistics(self):
        embedding = UnitVectorEmbedding(np.tile([1.0, 0.0], (3, 1)))
        rounding = gw_round(Graph(3, ()), embedding, seed=2, samples=5)
        assert rounding.edge_cut_frequencies == ()
        assert rounding.edge_cut_probabilities == ()
        assert len(rounding.cuts) == 5

    def test_frequencies_track_probabilities(self):
        g = make_cycle(5)
        embedding = gw_sdp_solve(g, seed=4)
        samples = 4000
        rounding = gw_round(g, embedding, seed=11, samples=samples)
        for p, f in zip(rounding.edge_cut_probabilities, rounding.edge_cut_frequencies):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / samples)
            assert abs(p - f) <= max(3 * sigma, 5e-3)

    def test_probabilities_in_unit_interval(self):
        g = make_cycle(6)
        embedding = gw_sdp_solve(g, seed=2)
        rounding = gw_round(g, embedding, seed=3, samples=10)
        assert all(0.0 <= p <= 1.0 for p in rounding.edge_cut_probabilities)

    @pytest.mark.parametrize(
        "g, embedding, values",
        [
            # antipodal pinned vectors: every sample cuts the four rim edges
            (make_diamond_instance().graph, make_diamond_embedding(), {4}),
            # one sweep from random vectors: samples cut 4 or 6 edges
            (make_cycle(7), gw_sdp_solve(make_cycle(7), iterations=1, seed=3), {4, 6}),
        ],
        ids=["diamond-pinned", "cycle-7"],
    )
    def test_cut_values_recount(self, g, embedding, values):
        rounding = gw_round(g, embedding, seed=5, samples=300)
        assert rounding.cut_values == tuple(cut_value(g, cut) for cut in rounding.cuts)
        assert set(rounding.cut_values) == values

    def test_edgeless_cut_values_are_zero(self):
        embedding = UnitVectorEmbedding(np.tile([0.6, 0.8], (3, 1)))
        rounding = gw_round(Graph(3, ()), embedding, seed=2, samples=5)
        assert rounding.cut_values == (0,) * 5

    def test_distribution_counts_repeated_cuts(self):
        # two distinct cuts over 50 samples: each weighs its count / 50,
        # exactly the sum of one 1/50 per sample
        embedding = UnitVectorEmbedding(np.tile([1.0, 0.0], (4, 1)))
        rounding = gw_round(make_cycle(4), embedding, seed=1, samples=50)
        dist = rounding.distribution()
        assert len(dist.entries) == 2
        assert dist == CutDistribution.from_pairs(
            (cut, Fraction(1, 50)) for cut in rounding.cuts
        )

    def test_cuts_are_the_positive_sides(self):
        # sample s's members are the vertices with a non-negative inner
        # product with the normal of stream (seed, s)
        g = make_cycle(11)
        embedding = gw_sdp_solve(g, seed=2, iterations=3)
        rounding = gw_round(g, embedding, seed=9, samples=20)
        for s, cut in enumerate(rounding.cuts):
            normal = derive_rng(9, _STREAM_GW + s).standard_normal(embedding.dimension)
            assert cut.members == frozenset(np.flatnonzero(embedding.vectors @ normal >= 0.0))
        assert rounding.side_bytes.shape == (20, 2)
        assert not rounding.side_bytes.flags.writeable

    @pytest.mark.parametrize("n", [0, 8, 80])
    def test_refuses_samples_it_cannot_keep_before_allocating(self, n):
        g = Graph(n, ())
        embedding = UnitVectorEmbedding(np.ones((n, 1)))
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError, match=f"limit is {MAX_ROUNDING_BYTES}$"):
                gw_round(g, embedding, seed=0, samples=MAX_ROUNDING_BYTES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16


@st.composite
def gw_embeddings(draw, n: int):
    """Unit rows for n vertices: random, or a few random rows repeated and
    negated (identical and antipodal rows), or signed axis vectors, whose
    inner products with each other are 1.0, -1.0, 0.0 or -0.0."""
    kind = draw(st.sampled_from(["random", "repeated", "axes"]))
    dim = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "axes":
        axes = rng.integers(0, dim, n)
        vectors = np.zeros((n, dim))
        vectors[np.arange(n), axes] = 1.0
        vectors *= rng.choice([1.0, -1.0], (n, dim))  # signs the zeros too
    else:
        pool = rng.standard_normal((n if kind == "random" else 2, dim))
        vectors = pool[rng.integers(0, len(pool), n)] if kind == "repeated" else pool
        vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        if kind == "repeated":
            vectors *= rng.choice([1.0, -1.0], (n, 1))
    return UnitVectorEmbedding(vectors)


def same_rounding(got: GwRounding, want: GwRounding) -> bool:
    """The same graph, equal side bytes and cuts, cut values and per-edge
    counts as Python ints, and the same float bits."""
    return (
        got.graph == want.graph
        and got.side_bytes.dtype == want.side_bytes.dtype == np.uint8
        and got.side_bytes.shape == want.side_bytes.shape
        and got.side_bytes.tobytes() == want.side_bytes.tobytes()
        and got.cuts == want.cuts
        and got.cut_values == want.cut_values
        and all(type(value) is int for value in got.cut_values)
        and got.edge_cut_counts == want.edge_cut_counts
        and all(type(count) is int for count in got.edge_cut_counts)
        and np.array(got.edge_cut_probabilities).tobytes()
        == np.array(want.edge_cut_probabilities).tobytes()
        and np.array(got.edge_cut_frequencies).tobytes()
        == np.array(want.edge_cut_frequencies).tobytes()
    )


class TestGwRoundMatchesReferenceLoop:
    """The block rounding against the per-sample loop in
    tests/python_rounding.py, exactly."""

    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(graphs(min_vertices=n, max_vertices=n), gw_embeddings(n))
        ),
        st.sampled_from([1, 2, 7, _BLOCK_TRIALS, _BLOCK_TRIALS + 1]),
        st.integers(0, 2**64 - 1),
    )
    @example((Graph(0, ()), UnitVectorEmbedding(np.zeros((0, 2)))), 3, 0)
    @example((Graph(1, ()), UnitVectorEmbedding(np.ones((1, 1)))), 1, 2**64 - 1)
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, case, samples, seed):
        g, embedding = case
        got = gw_round(g, embedding, seed, samples)
        assert same_rounding(got, python_gw_round(g, embedding, seed, samples))

    @pytest.mark.parametrize("n", [40, 80])
    def test_benchmark_sized_graphs(self, n):
        g = random_instance(n, 0.2, 4, PartitionKind.EDGES, seed=n).graph
        embedding = gw_sdp_solve(g, seed=n)
        for seed in (0, 12345, 2**63 + 5):
            got = gw_round(g, embedding, seed, 1000)
            assert same_rounding(got, python_gw_round(g, embedding, seed, 1000))

    def test_memory_stays_bounded_by_one_block(self):
        # the transient memory (the peak less the returned rounding) is one
        # block's whatever the sample count; a samples-by-edges crossing
        # array at 4 blocks would add about 10 MB
        g = random_instance(80, 0.2, 4, PartitionKind.EDGES, seed=1).graph
        assert 600 <= g.edge_count <= 660
        embedding = gw_sdp_solve(g, seed=1, iterations=5)

        def transient(samples: int) -> int:
            tracemalloc.start()
            try:
                rounding = gw_round(g, embedding, seed=5, samples=samples)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(rounding.cuts) == samples
            return peak - kept

        assert transient(4 * _BLOCK_TRIALS) <= transient(_BLOCK_TRIALS) + 2**20

    def test_transient_memory_at_8192_vertices(self):
        # a path with rank-2 axis vectors and no SDP.  One matrix-vector
        # product per sample took 287,088,680 bytes of transient memory
        # here, most of it the crossing tables; the block product may add at
        # most 1 MiB to that.  An unchunked samples-by-vertices product and
        # its band would add about 125 MiB
        n = 8192
        g = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
        vectors = np.zeros((n, 2))
        vectors[np.arange(n), np.arange(n) % 2] = 1.0
        embedding = UnitVectorEmbedding(vectors)
        tracemalloc.start()
        try:
            rounding = gw_round(g, embedding, seed=5, samples=1000)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rounding.cut_values) == 1000
        assert peak - kept <= 287_088_680 + 2**20

    @given(
        st.integers(1, 12).flatmap(lambda n: graphs(min_vertices=n, max_vertices=n)),
        st.integers(2, 5),
        st.sampled_from([1, 7, 300, _BLOCK_TRIALS + 1]),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_vertices_on_a_sample_hyperplane(self, g, rank, samples, seed, vector_seed):
        # vertex vectors within a few ulps of one sample's hyperplane: their
        # block products fall in the band, so those samples take the
        # per-sample product, and the sides are still the reference's
        vectors = near_hyperplane_vectors(g.vertex_count, rank, seed, samples, vector_seed)
        embedding = UnitVectorEmbedding(vectors)
        with counted_fallbacks() as fallbacks:
            got = gw_round(g, embedding, seed, samples)
        assert fallbacks
        assert same_rounding(got, python_gw_round(g, embedding, seed, samples))

    @pytest.mark.parametrize("n", [257, 1000, 2**14 + 13])
    def test_vertex_spans_of_the_block_product(self, n):
        # past 256 vertices a chunk's product is split into spans of
        # vertices; 70 samples make two chunks
        g = Graph(n, ())
        embedding = UnitVectorEmbedding(near_hyperplane_vectors(n, 3, 11, 70, n))
        with counted_fallbacks() as fallbacks:
            got = gw_round(g, embedding, 11, 70)
        assert fallbacks
        assert same_rounding(got, python_gw_round(g, embedding, 11, 70))


def near_hyperplane_vectors(n, rank, seed, samples, vector_seed):
    """n unit rows, at least one of them, and about half of the rest,
    orthogonal to the normal of a random sample s < samples (drawn from
    ``derive_rng(seed, _STREAM_GW + s)``) up to the rounding of two of its
    coordinates, which are then moved by up to 3 ulps; the others random."""
    rng = np.random.default_rng(vector_seed)
    vectors = rng.standard_normal((n, rank))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    for v in range(n):
        if v and rng.random() < 0.5:
            continue
        s = int(rng.integers(samples))
        normal = derive_rng(seed, _STREAM_GW + s).standard_normal(rank)
        i, j = rng.choice(rank, 2, replace=False)
        row = np.zeros(rank)
        row[i], row[j] = -normal[j], normal[i]
        row /= math.hypot(normal[i], normal[j])
        for _ in range(int(rng.integers(4))):
            row[i] = np.nextafter(row[i], rng.choice([-np.inf, np.inf]))
        vectors[v] = row * rng.choice([1.0, -1.0])
    return vectors


@contextlib.contextmanager
def counted_fallbacks():
    """The samples whose sides ``gw_round`` re-takes from their own
    matrix-vector product, as a list that grows while the context is open."""
    calls = []
    product_sides = heuristics._product_sides

    def counted(vec, normal):
        calls.append(normal)
        return product_sides(vec, normal)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heuristics, "_product_sides", counted)
        yield calls


@st.composite
def rounded_instances(draw):
    """A graph of 0..10 vertices, an embedding, a model, and a partition of
    the model's kind, or None when the graph has no edge (or no vertex) to
    group."""
    n = draw(st.integers(0, 10))
    g = draw(graphs(min_vertices=n, max_vertices=n))
    model = draw(st.sampled_from(list(UtilityModel)))
    ground = g.edge_count if model is UtilityModel.EDGE else g.vertex_count
    partition = draw(partitions_for(g, model.partition_kind)) if ground else None
    return g, draw(gw_embeddings(n)), model, partition


def assert_score_is_evaluated_distribution(g, embedding, model, partition, seed, samples):
    """The rounding's score is ``evaluate_distribution`` of its empirical
    distribution, or both raise DegreeZeroError on an edgeless graph."""
    rounding = gw_round(g, embedding, seed, samples)
    if model.is_node_model and g.edge_count == 0:
        with pytest.raises(DegreeZeroError):
            rounding.score(g, model, partition)
        with pytest.raises(DegreeZeroError):
            evaluate_distribution(g, model, partition, rounding.distribution())
        return
    want = evaluate_distribution(g, model, partition, rounding.distribution())
    assert rounding.score(g, model, partition) == want


class TestGwRoundingScore:
    """``GwRounding.score`` against ``evaluate_distribution`` on the
    rounding's empirical distribution, exactly."""

    @given(
        rounded_instances(),
        st.sampled_from([1, 7, _BLOCK_TRIALS, _BLOCK_TRIALS + 1]),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_instances(self, case, samples, seed):
        g, embedding, model, partition = case
        if partition is None:  # no group to score; the sides are still counted
            assert gw_round(g, embedding, seed, samples).cut_values == (0,) * samples
            return
        assert_score_is_evaluated_distribution(g, embedding, model, partition, seed, samples)

    @pytest.mark.parametrize("samples", [1, 7, _BLOCK_TRIALS, _BLOCK_TRIALS + 1])
    def test_own_degree_groups_with_an_isolated_vertex(self, samples):
        inst = load_instance(str(GOLDENS / "owndeg_isolated.inst"))
        assert 0 in inst.graph.degrees
        embedding = gw_sdp_solve(inst.graph, seed=1, iterations=2)
        assert_score_is_evaluated_distribution(
            inst.graph, embedding, inst.model, inst.partition, 4, samples
        )

    @pytest.mark.parametrize("model", [UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG])
    def test_edgeless_graph_is_refused_as_by_evaluate_distribution(self, model):
        g = Graph(5, ())
        embedding = UnitVectorEmbedding(np.tile([0.6, 0.8], (5, 1)))
        partition = node_groups(g, [{0, 1}, {2, 3, 4}])
        assert_score_is_evaluated_distribution(g, embedding, model, partition, 2, 7)

    @pytest.mark.parametrize("largest", [47, 53])
    def test_sums_past_int64_stay_exact(self, largest):
        # 64 samples of numerators past 2**53 (47) or 2**63 (53) sum past int64
        g, partition = prime_hubs(largest)
        embedding = gw_sdp_solve(g, seed=3, iterations=1)
        assert_score_is_evaluated_distribution(
            g, embedding, UtilityModel.NODE_OWNDEG, partition, 8, 64
        )

    @pytest.mark.parametrize(
        "other",
        [
            make_cycle(9),
            make_cycle(7),
            # the same vertex and edge counts, so sides of the same width
            Graph(8, ((0, 2), *make_cycle(8).edges[1:])),
        ],
        ids=["9-vertices", "7-vertices", "8-vertices-other-edges"],
    )
    def test_rejects_another_graph(self, other):
        g = make_cycle(8)
        rounding = gw_round(g, gw_sdp_solve(g, seed=0), seed=0, samples=16)
        partition = singleton_partition(other, PartitionKind.EDGES)
        with pytest.raises(ValueError, match="^the rounding was made on another graph$"):
            rounding.score(other, UtilityModel.EDGE, partition)
        # an equal graph made anew is the rounded graph
        partition = singleton_partition(g, PartitionKind.EDGES)
        want = rounding.score(g, UtilityModel.EDGE, partition)
        assert rounding.score(make_cycle(8), UtilityModel.EDGE, partition) == want


class TestRunCrossingTables:
    """The crossing tables (``_crossing_words``) and block scorers that one
    ``run`` op builds: every lottery is scored off its crossing tally, so
    only the samplers build a table, and only Monte Carlo a scorer."""

    @pytest.mark.parametrize(
        "algorithm, count, tables, scorers",
        [
            ("gw", ["--embedding", str(GOLDENS / "owndeg_isolated.emb")], 1, 0),
            ("naive-random", ["--trials", "64"], 1, 1),
            ("separate-solve", [], 0, 0),
            ("local-search", [], 0, 0),
        ],
        ids=["gw", "naive-random", "separate-solve", "local-search"],
    )
    def test_builds(self, monkeypatch, algorithm, count, tables, scorers):
        calls = Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for attr, name in (("_crossing_words", "tables"), ("block_scorer", "scorers")):
            monkeypatch.setattr(heuristics, attr, counted(name, getattr(heuristics, attr)))
        args = ["run", str(GOLDENS / "owndeg_isolated.inst"), "--algorithm", algorithm, *count]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*args, "--no-timestamp"]) == 0
        assert (calls["tables"], calls["scorers"]) == (tables, scorers)


class TestUnitVectorEmbedding:
    @pytest.mark.parametrize("vectors", [[[np.nan]], [[1.0], [np.nan]], [[0.6, 0.6]]])
    def test_rejects_non_unit_and_nan_vectors(self, vectors):
        with pytest.raises(ValueError, match="unit norm"):
            UnitVectorEmbedding(np.array(vectors))

    def test_accepts_no_vertices(self):
        assert UnitVectorEmbedding(np.zeros((0, 2))).vertex_count == 0


class TestGwSdpSolve:
    def test_single_edge_antipodal(self):
        g = Graph(2, ((0, 1),))
        embedding = gw_sdp_solve(g, seed=0, iterations=500)
        assert sdp_objective(g, embedding) == pytest.approx(1.0, abs=1e-9)

    def test_c4_reaches_max_cut(self):
        g = make_cycle(4)
        embedding = gw_sdp_solve(g, seed=1, iterations=500)
        assert sdp_objective(g, embedding) == pytest.approx(4.0, abs=1e-6)

    def test_relaxation_dominates_best_rounded_cut(self):
        for seed, g in ((0, make_diamond_instance().graph), (1, make_cycle(5))):
            embedding = gw_sdp_solve(g, seed=seed, iterations=500)
            objective = sdp_objective(g, embedding)
            mc, _ = max_value(g, UtilityModel.EDGE)
            assert objective >= float(mc) - 1e-6
            rounding = gw_round(g, embedding, seed=7, samples=100)
            best = max(cut_value(g, c) for c in rounding.cuts)
            assert objective >= best - 1e-6

    def test_objective_monotone_across_sweeps(self):
        # the 7-cycle, and a graph whose colour classes hold several vertices
        for g in (make_cycle(7), random_instance(40, 0.2, 4, PartitionKind.EDGES, seed=5).graph):
            values = []
            for sweeps in (1, 2, 4, 8, 16, 32):
                emb = gw_sdp_solve(g, seed=5, iterations=sweeps)
                values.append(sdp_objective(g, emb))
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(graphs(min_vertices=n, max_vertices=n), gw_embeddings(n))
        )
    )
    @example((Graph(0, ()), UnitVectorEmbedding(np.zeros((0, 2)))))
    @settings(max_examples=60, deadline=None)
    def test_objective_matches_one_dot_per_edge(self, case):
        # bit for bit, zero signs included, against the per-edge loop
        g, embedding = case
        vec = embedding.vectors
        want = sum((1.0 - float(vec[u] @ vec[v])) / 2.0 for u, v in g.edges)
        got = sdp_objective(g, embedding)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError):
            gw_sdp_solve(make_cycle(3), rank=1)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            gw_sdp_solve(make_cycle(3), iterations=-5)


@st.composite
def graphs_with_isolated_vertices(draw):
    """A random graph with up to 6 isolated vertices added, the vertices
    relabelled at random so the isolated ones fall anywhere in index order."""
    core = draw(graphs(min_vertices=0, max_vertices=24))
    n = core.vertex_count + draw(st.integers(0, 6))
    label = draw(st.permutations(range(n)))
    return Graph(n, tuple((label[u], label[v]) for u, v in core.edges))


class TestSweepLevels:
    """The colour classes of the sweep: a first-fit greedy colouring."""

    @given(graphs_with_isolated_vertices())
    @example(Graph(0, ()))
    @example(Graph(3, ()))
    @settings(max_examples=200, deadline=None)
    def test_first_fit_colouring(self, g):
        order, levels = _sweep_levels(g)
        level = {}
        for c, (lo, hi, _) in enumerate(levels):
            level.update((v, c) for v in order[lo:hi])
        assert sorted(order) == [v for v in range(g.vertex_count) if g.neighbors[v]]
        assert order == sorted(order, key=lambda v: (level[v], v))
        bounds = [0] + [hi for _, hi, _ in levels]
        assert [lo for lo, _, _ in levels] == bounds[:-1] and bounds[-1] == len(order)
        assert len(levels) <= max(g.degrees, default=0) + 1
        for u, v in g.edges:
            assert level[u] != level[v]
        for v, c in level.items():
            assert set(range(c)) <= {level[u] for u in g.neighbors[v] if u < v}
        for lo, hi, idx in levels:
            assert idx.shape == (max(g.degree(v) for v in order[lo:hi]), hi - lo)
            for r, v in enumerate(order[lo:hi]):
                column = idx[:, r].tolist()
                nbrs = sorted(g.neighbors[v])
                assert column[: len(nbrs)] == [order.index(u) for u in nbrs]
                assert column[len(nbrs) :] == [len(order)] * (len(column) - len(nbrs))

    def test_levels_of_a_path_alternate(self):
        # index order on the path 0-1-2-3-4 would chain five levels
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        order, levels = _sweep_levels(g)
        assert order == [0, 2, 4, 1, 3]
        assert [(lo, hi) for lo, hi, _ in levels] == [(0, 3), (3, 5)]


def same_bits(got: UnitVectorEmbedding, want: UnitVectorEmbedding) -> bool:
    return (got.vectors.shape, got.vectors.tobytes()) == (
        want.vectors.shape,
        want.vectors.tobytes(),
    )


class TestGwSdpSolveMatchesReferenceLoop:
    """The colour-class sweep against the row-by-row loop in tests/python_sdp.py,
    bit for bit: same update order, same reductions, same zero signs."""

    @given(
        graphs(min_vertices=0, max_vertices=30),
        st.sampled_from([None, 2, 3, 7]),
        st.sampled_from([0, 1, 5, 200]),
        st.integers(0, 2**63 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, g, rank, iterations, seed):
        got = gw_sdp_solve(g, rank=rank, iterations=iterations, seed=seed)
        assert same_bits(got, python_sdp_solve(g, rank=rank, iterations=iterations, seed=seed))

    @pytest.mark.parametrize("n", range(3, 12))
    def test_cycles_to_convergence(self, n):
        g = make_cycle(n)
        got = gw_sdp_solve(g, iterations=500, seed=n)
        assert same_bits(got, python_sdp_solve(g, iterations=500, seed=n))

    def test_stops_at_a_fixed_point(self):
        # the 4-cycle settles within 500 sweeps: more sweeps change nothing
        g = make_cycle(4)
        settled = gw_sdp_solve(g, iterations=500, seed=4)
        assert same_bits(gw_sdp_solve(g, iterations=10_000, seed=4), settled)
        assert same_bits(python_sdp_solve(g, iterations=10_000, seed=4), settled)

    @pytest.mark.parametrize("n", [40, 80])
    def test_benchmark_sized_graphs(self, n):
        g = random_instance(n, 0.2, 4, PartitionKind.EDGES, seed=n).graph
        assert same_bits(gw_sdp_solve(g), python_sdp_solve(g))

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_unmoved_row_keeps_its_zero_sign(self, iterations):
        # on the path 0-1-2, vertex 1's update is (-0.0, -1.0), equal to its
        # (0.0, -1.0) but for the zero's sign: the row stays as it is, and
        # vertex 2 then reads 0.0, not -0.0
        g = Graph(3, ((0, 1), (1, 2)))
        start = np.array([[1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
        got, want = start.copy(), start.copy()
        _coordinate_ascent(g, got, iterations)
        python_sweeps(g, want, iterations)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[1:, 0]).any()

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_moved_row_with_a_flipped_zero_redoes_the_sweep(self, iterations):
        # on one edge, vertex 0 moves to (-0.0, 1.0, -0.0): its first element
        # stays equal as a float, 0.0 == -0.0, but not in its bits.  Vertex
        # 1's update is its row bit for bit, so no unmoved row flips a zero's
        # sign; the check still redoes the first sweep, and the bits are the
        # reference's
        g = Graph(2, ((0, 1),))
        start = np.array([[0.0, 0.0, 1.0], [-0.0, -1.0, -0.0]])
        once = start.copy()
        python_sweeps(g, once, 1)
        assert once[1].tobytes() == start[1].tobytes()
        assert once[0, 0] == start[0, 0] and np.signbit(once[0, 0]) != np.signbit(start[0, 0])
        assert (once[0] != start[0]).any()
        counting = CountingCopies()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heuristics, "np", counting)
            _coordinate_ascent(g, start.copy(), 1)
        assert counting.copies == 2  # the sweep's start, and its redo
        got, want = start.copy(), start.copy()
        _coordinate_ascent(g, got, iterations)
        python_sweeps(g, want, iterations)
        assert got.tobytes() == want.tobytes()

    @given(
        st.integers(1, 24),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.integers(2, 13),
        st.integers(0, 6),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_level_sweep_matches_reference_from_any_start(
        self, n, edge_prob, graph_seed, rank, iterations, data
    ):
        # G(n, p) of any density, isolated vertices included; start rows of
        # signed zeros and units, whose neighbor sums can cancel to norm 0,
        # or Gaussian
        rng = np.random.default_rng(graph_seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, tuple(e for e, r in zip(pairs, rng.random(len(pairs))) if r < edge_prob))
        signed = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=rank, max_size=rank)
        gaussian = st.integers(0, 2**32 - 1).map(
            lambda s: np.random.default_rng(s).standard_normal(rank).tolist()
        )
        start = np.array(data.draw(st.lists(st.one_of(signed, gaussian), min_size=n, max_size=n)))
        got, want = start.copy(), start.copy()
        _coordinate_ascent(g, got, iterations)
        python_sweeps(g, want, iterations)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_cancelling_neighbors_skip_one_vertex_of_a_level(self, iterations):
        # vertices 0 and 3 share level 0; vertex 0's neighbors 1 and 2 are
        # still at their opposite start rows, so its sum has norm 0 and it
        # keeps its row, while vertex 3 moves.  No update flips a zero's sign
        g = Graph(5, ((0, 1), (0, 2), (3, 4)))
        start = np.array([[0.6, 0.8], [1.0, 0.0], [-1.0, 0.0], [0.6, 0.8], [0.8, 0.6]])
        _, levels = _sweep_levels(g)
        assert [hi - lo for lo, hi, _ in levels] == [2, 3]
        got, want = start.copy(), start.copy()
        _coordinate_ascent(g, got, iterations)
        python_sweeps(g, want, iterations)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all()
        once = start.copy()
        _coordinate_ascent(g, once, 1)
        assert once[0].tobytes() == start[0].tobytes()
        assert once[3].tolist() == [-0.8, -0.6]


class CountingCopies:
    """numpy, but counting ``np.copyto`` calls: ``_coordinate_ascent`` makes
    one per sweep, and one more for each sweep it redoes."""

    def __init__(self):
        self.copies = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def copyto(self, *args, **kwargs):
        self.copies += 1
        return np.copyto(*args, **kwargs)


class TestDeriveRng:
    def test_streams_are_stable_and_distinct(self):
        a = derive_rng(1, 2).integers(0, 2**32)
        b = derive_rng(1, 2).integers(0, 2**32)
        c = derive_rng(1, 3).integers(0, 2**32)
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "seed, first",
        [(0, _STREAM_GW), (7, 0), (2**64 - 1, _STREAM_GW), (3, 2**64 - 2)],
        ids=["seed-0", "stream-0", "seed-max", "streams-wrap"],
    )
    def test_rekeyed_streams_draw_what_derive_rng_draws(self, seed, first):
        # the odd-length draws leave half a 64-bit word, or part of Philox's
        # four-word output block, that the next stream must not read
        draws = [
            lambda rng: rng.standard_normal(13).tobytes(),
            lambda rng: rng.integers(0, 2**32, 3, dtype=np.uint32).tobytes(),
            lambda rng: rng.bytes(5),
            lambda rng: rng.random(1).tobytes(),
            lambda rng: rng.integers(0, 2**64, 5, dtype=np.uint64).tobytes(),
        ]
        for k, rng in zip(range(3 * len(draws)), _rekeyed_rngs(seed, first)):
            fresh = derive_rng(seed, first + k)
            for draw in draws[k % len(draws) :] + draws[: k % len(draws)]:
                assert draw(rng) == draw(fresh)


class TestEvaluateDistribution:
    def test_rejects_foreign_vertex(self):
        # on 8 vertices the kernel's lookup tables would silently drop vertex 8
        g = make_cycle(8)
        partition = singleton_partition(g, PartitionKind.EDGES)
        dist = CutDistribution.point_mass(Cut.of({0, 8}))
        with pytest.raises(ValueError, match="not a vertex"):
            evaluate_distribution(g, UtilityModel.EDGE, partition, dist)

    @pytest.mark.parametrize("member", [8, -1])
    def test_names_the_foreign_member(self, member):
        # the foreign member sits in the lottery's second cut
        g = make_cycle(8)
        partition = singleton_partition(g, PartitionKind.EDGES)
        half = Fraction(1, 2)
        dist = CutDistribution.from_pairs([(Cut.of({1}), half), (Cut.of({2, member}), half)])
        message = f"^cut member {member} is not a vertex of the graph$"
        with pytest.raises(ValueError, match=message):
            evaluate_distribution(g, UtilityModel.EDGE, partition, dist)

    def test_point_mass_equals_proportions(self):
        inst = make_diamond_instance()
        cut = Cut.of({3})
        dist = CutDistribution.point_mass(cut)
        score = evaluate_distribution(inst.graph, inst.model, inst.partition, dist)
        for got, gr in zip(score.per_group, inst.partition.groups):
            assert got == group_proportion(inst.graph, inst.model, cut, gr)

    def test_pinned_diamond_lottery(self):
        inst = make_diamond_instance()
        dist = CutDistribution.from_pairs(
            [(Cut.of({3}), Fraction(2, 3)), (Cut.of({0, 3}), Fraction(1, 3))]
        )
        score = evaluate_distribution(inst.graph, inst.model, inst.partition, dist)
        assert score.per_group == (Fraction(2, 3), Fraction(2, 3))
        assert score.minimum == Fraction(2, 3)


def local_search_score_min(inst) -> Fraction:
    """The ``score-min`` line of ``run --algorithm local-search`` on the instance."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "inst")
        save_instance(inst, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["run", path, "--algorithm", "local-search", "--no-timestamp"]) == 0
    (line,) = [l for l in parse_report(out.getvalue()).other if l.startswith("score-min ")]
    return Fraction(line.split()[1])


def assert_matches_fraction_oracle(inst, pairs) -> None:
    """evaluate_distribution on the merged pairs, separate_solve's alpha with
    the pairs' cuts as (cyclic) oracle cuts and with the default oracle, and
    the local-search score-min, each against tests/fraction_utility.py."""
    g, model, partition = inst.graph, inst.model, inst.partition
    dist = CutDistribution.from_pairs(pairs)
    want = tuple(
        sum(prob * group_proportion(g, model, cut, gr) for cut, prob in dist.entries)
        for gr in partition.groups
    )
    score = evaluate_distribution(g, model, partition, dist)
    assert score == DistributionScore(per_group=want, minimum=min(want))
    assert all(type(value.numerator) is int for value in score.per_group)

    cuts = [cut for cut, _ in pairs]
    index = {gr: i for i, gr in enumerate(partition.groups)}
    for oracle in (lambda g, model, gr: cuts[index[gr] % len(cuts)], default_group_oracle):
        lottery, result = separate_solve(g, model, partition, oracle=oracle)
        assert result.alpha == min(
            group_proportion(g, model, cut, gr)
            for cut, gr in zip(result.per_group_cuts, partition.groups)
        )
        assert type(result.alpha.numerator) is int
        # repeated oracle cuts are merged in the lottery, not in its score
        want = tuple(
            sum(prob * group_proportion(g, model, cut, gr) for cut, prob in lottery.entries)
            for gr in partition.groups
        )
        assert result.score == DistributionScore(per_group=want, minimum=min(want))

    assert local_search_score_min(inst) == min_group_proportion(
        g, model, local_search_cut(g), partition
    )


class TestAgainstFractionOracle:
    """The block-scorer paths against the per-vertex Fraction evaluator."""

    @given(
        st.sampled_from(list(UtilityModel)),
        st.integers(2, 24),
        st.sampled_from([0.3, 0.7, 1.0]),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.sets(st.integers(0, 23)), st.integers(1, 10**6)),
            min_size=1,
            max_size=6,
        ),
    )
    # 120 edges: two crossing words
    @example(UtilityModel.NODE_OWNDEG, 16, 1.0, 3, 7, [({0, 3, 9}, 2), ({0}, 5), (set(), 1)])
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, model, n, edge_prob, gamma, graph_seed, specs):
        # cuts may hold vertex 0; repeated cuts merge, probabilities are random
        inst = random_instance(
            n, edge_prob, min(gamma, n - 1), model.partition_kind, graph_seed, model=model
        )
        total = sum(weight for _, weight in specs)
        pairs = [
            (Cut.of(v % n for v in members), Fraction(weight, total)) for members, weight in specs
        ]
        assert_matches_fraction_oracle(inst, pairs)

    @pytest.mark.parametrize("model", list(UtilityModel))
    def test_probabilities_past_int64(self, model):
        # the probabilities' lcm 2**70 + 1 passes 2**63: an object-dtype tally
        inst = random_instance(8, 0.6, 3, model.partition_kind, 5, model=model)
        rare = Fraction(1, 2**70 + 1)
        pairs = [(Cut.of({0, 2, 5}), rare), (Cut.of({1, 3}), 1 - rare)]
        assert_matches_fraction_oracle(inst, pairs)

    def test_numerators_past_int64(self):
        # the prime-degree hubs up to 53: object-dtype numerators
        g, partition = prime_hubs(53)
        model = UtilityModel.NODE_OWNDEG
        _, bound, _, _ = block_scorer(g, model, partition.groups)
        assert bound >= 2**63 and g.edge_count > 64
        hubs = g.vertex_count - 53
        inst = NamedInstance(g, partition, model, "prime-hubs-53")
        pairs = [
            (Cut.of(range(0, hubs, 2)), Fraction(1, 3)),
            (Cut.of({0, *range(hubs, hubs + 20)}), Fraction(1, 2)),
            (Cut.of(range(hubs, g.vertex_count, 3)), Fraction(1, 6)),
        ]
        assert_matches_fraction_oracle(inst, pairs)
