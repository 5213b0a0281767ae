"""Heuristic algorithms: local search, separate-solve, naive random cut,
and hyperplane rounding."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmaxcut.exact import max_value
from fairmaxcut.families import (
    make_complete_bipartite,
    make_cycle,
    make_diamond_embedding,
    make_diamond_instance,
    make_paw_instance,
    random_instance,
    singleton_partition,
)
from fairmaxcut.graphs import Cut, Graph, PartitionKind, cut_value, edge_groups, node_groups
from fairmaxcut.heuristics import (
    _BLOCK_ENTRIES,
    _STREAM_NAIVE,
    GwRounding,
    _trial_side_bits,
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
from fairmaxcut.maximin import CutDistribution
from fairmaxcut.utility import UtilityModel, group_proportion, group_weights

from .strategies import edge_instances, graphs, node_instances


def crossing_degree(g: Graph, cut: Cut, v: int) -> int:
    inside = v in cut.members
    return sum(1 for u in g.neighbors[v] if (u in cut.members) != inside)


class TestLocalSearch:
    def test_bipartition_returned_unchanged(self):
        g = make_complete_bipartite(3, 3)
        start = Cut.of({0, 1, 2})
        assert local_search_cut(g, start) == start

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

    @pytest.mark.parametrize("largest, past_float", [(23, False), (47, True)])
    def test_large_numerators_stay_exact(self, largest, past_float):
        # hubs of distinct prime degrees into a shared pool: the hubs'
        # own-degree denominator is the product of the primes.  Up to 23 the
        # float64 product is exact but squares overflow int64 (Python-int
        # sums); up to 47 the numerators pass 2**53 (object-dtype product)
        primes = [p for p in range(2, largest + 1) if all(p % q for q in range(2, p))]
        hubs = len(primes)
        edges = tuple((h, hubs + j) for h, p in enumerate(primes) for j in range(p))
        g = Graph(hubs + largest, edges)
        partition = node_groups(g, [frozenset(range(hubs)), frozenset(range(hubs, g.vertex_count))])
        model = UtilityModel.NODE_OWNDEG
        weights, _ = group_weights(g, model, partition.groups)
        max_num = max(sum(row.values()) for row in weights)
        assert 64 * max_num * max_num >= 2**62 and (max_num >= 2**53) == past_float
        samples = naive_random_sample(g, model, partition, seed=3, trials=64)
        assert [(s.mean, s.variance) for s in samples] == direct_sample(g, model, partition, 3, 64)

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
        g = make_cycle(7)
        values = []
        for sweeps in (1, 2, 4, 8, 16):
            emb = gw_sdp_solve(g, seed=5, iterations=sweeps)
            values.append(sdp_objective(g, emb))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError):
            gw_sdp_solve(make_cycle(3), rank=1)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            gw_sdp_solve(make_cycle(3), iterations=-5)


class TestDeriveRng:
    def test_streams_are_stable_and_distinct(self):
        a = derive_rng(1, 2).integers(0, 2**32)
        b = derive_rng(1, 2).integers(0, 2**32)
        c = derive_rng(1, 3).integers(0, 2**32)
        assert a == b
        assert a != c


class TestEvaluateDistribution:
    def test_rejects_foreign_vertex(self):
        # on 8 vertices the kernel's lookup tables would silently drop vertex 8
        g = make_cycle(8)
        partition = singleton_partition(g, PartitionKind.EDGES)
        dist = CutDistribution.point_mass(Cut.of({0, 8}))
        with pytest.raises(ValueError, match="not a vertex"):
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
