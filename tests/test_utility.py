"""Group utility models: exactness, complement invariance, additivity."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmaxcut.errors import DegreeZeroError, ModelMismatchError
from fairmaxcut.families import (
    make_complete_bipartite,
    make_cycle,
    make_diamond_instance,
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
from fairmaxcut.heuristics import evaluate_distribution
from fairmaxcut.maximin import CutDistribution
from fairmaxcut.utility import (
    _CHUNK_ENTRIES,
    UtilityModel,
    block_scorer,
    edge_words,
    ground_set_size,
    group_weights,
    int_dtype,
)

from .fraction_utility import (
    ground_utility,
    group_proportion,
    group_utility,
    min_group_proportion,
)
from .python_payoff import group_kernel
from .strategies import graph_and_cut, node_instances, prime_hubs


class TestEdgeUtility:
    def test_diamond_bipartition_misses_chord(self):
        # cut {0, 3} is a bipartition of the square but leaves the chord uncut
        inst = make_diamond_instance()
        chord_group = inst.partition.groups[1]
        assert group_utility(inst.graph, inst.model, Cut.of({0, 3}), chord_group) == 0

    def test_empty_cut_zero(self):
        g = make_cycle(5)
        assert group_utility(g, UtilityModel.EDGE, Cut.of(set()), {0, 1, 2}) == 0

    def test_counts_group_crossings_only(self):
        g = make_cycle(4)
        assert group_utility(g, UtilityModel.EDGE, Cut.of({0, 2}), {0, 1}) == Fraction(2)


class TestNodeUtility:
    def test_c5_single_vertex_both_edges_cut(self):
        g = make_cycle(5)
        got = group_utility(g, UtilityModel.NODE_MAXDEG, Cut.of({0, 2}), {1})
        assert got == Fraction(1)  # 2 crossing edges / max degree 2

    def test_own_degree_isolated_vertex_contributes_zero(self):
        g = Graph(3, ((0, 1),))
        got = group_utility(g, UtilityModel.NODE_OWNDEG, Cut.of({0}), {0, 2})
        assert got == Fraction(1)  # vertex 0 fully cut, isolated vertex 2 adds 0

    def test_edgeless_graph_raises(self):
        # each node model: the scorer and the lottery evaluator give the same
        # refusal, and message, as every other entry point
        g = Graph(3, ())
        partition = node_groups(g, [{0}, {1, 2}])
        dist = CutDistribution.point_mass(Cut.of({0}))
        for model in (UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG):
            for score in (
                lambda: block_scorer(g, model, partition.groups),
                lambda: evaluate_distribution(g, model, partition, dist),
            ):
                with pytest.raises(DegreeZeroError) as info:
                    score()
                assert str(info.value) == f"model {model.value} needs at least one edge"

    def test_kind_mismatch_is_usage_error(self):
        g = make_cycle(4)
        partition = singleton_partition(g, PartitionKind.EDGES)
        with pytest.raises(ModelMismatchError):
            min_group_proportion(g, UtilityModel.NODE_MAXDEG, Cut.of({0}), partition)


class TestProportion:
    def test_bipartition_gives_one_per_edge_group(self):
        g = make_complete_bipartite(3, 3)
        side = Cut.of({0, 1, 2})
        assert group_proportion(g, UtilityModel.EDGE, side, {0, 4, 8}) == 1

    def test_regular_bipartite_node_groups(self):
        g = make_complete_bipartite(3, 3)
        side = Cut.of({0, 1, 2})
        assert group_proportion(g, UtilityModel.NODE_MAXDEG, side, {0, 3}) == 1

    def test_empty_cut_zero(self):
        g = make_cycle(4)
        assert group_proportion(g, UtilityModel.EDGE, Cut.of(set()), {0, 1}) == 0


class TestMinGroupProportion:
    def test_nonbipartite_singleton_edges_always_zero(self):
        g = make_cycle(5)
        partition = singleton_partition(g, PartitionKind.EDGES)
        for members in ({0}, {1, 3}, {0, 2, 4}):
            assert min_group_proportion(g, UtilityModel.EDGE, Cut.of(members), partition) == 0

    def test_odd_cycle_best_single_vertex_half(self):
        g = make_cycle(5)
        partition = singleton_partition(g, PartitionKind.NODES)
        got = min_group_proportion(g, UtilityModel.NODE_MAXDEG, Cut.of({0, 2}), partition)
        assert got == Fraction(1, 2)

    def test_bipartition_gives_one(self):
        g = make_complete_bipartite(2, 3)
        partition = edge_groups(g, [frozenset({0, 1, 2}), frozenset({3, 4, 5})])
        got = min_group_proportion(g, UtilityModel.EDGE, Cut.of({0, 1}), partition)
        assert got == 1


@given(graph_and_cut(min_edges=1))
def test_complement_invariance_all_models(gc):
    g, cut = gc
    comp = cut.complement(g.vertex_count)
    ground = frozenset(range(g.edge_count))
    assert group_utility(g, UtilityModel.EDGE, cut, ground) == group_utility(
        g, UtilityModel.EDGE, comp, ground
    )
    verts = frozenset(range(g.vertex_count))
    for model in (UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG):
        assert group_utility(g, model, cut, verts) == group_utility(g, model, comp, verts)


@given(node_instances())
def test_additivity_over_groups(inst):
    g, partition = inst
    cut = Cut.of({0})
    for model in (UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG):
        total = sum(group_utility(g, model, cut, gr) for gr in partition.groups)
        assert total == ground_utility(g, model, cut)


@given(graph_and_cut(min_edges=1))
def test_edge_ground_utility_equals_cut_value(gc):
    g, cut = gc
    assert ground_utility(g, UtilityModel.EDGE, cut) == cut_value(g, cut)


@given(graph_and_cut(min_edges=1))
def test_node_ground_utility_handshake(gc):
    g, cut = gc
    got = ground_utility(g, UtilityModel.NODE_MAXDEG, cut)
    assert got == Fraction(2 * cut_value(g, cut), max_degree(g))


@given(node_instances())
def test_proportions_within_unit_interval(inst):
    g, partition = inst
    cut = Cut.of(set(range(0, g.vertex_count, 2)))
    for model in (UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG):
        for gr in partition.groups:
            assert 0 <= group_proportion(g, model, cut, gr) <= 1


@given(graph_and_cut(min_edges=1))
def test_regular_graph_models_agree(gc):
    g, cut = gc
    degs = set(g.degrees)
    if len(degs) != 1:
        return
    verts = frozenset(range(g.vertex_count))
    assert group_utility(g, UtilityModel.NODE_MAXDEG, cut, verts) == group_utility(
        g, UtilityModel.NODE_OWNDEG, cut, verts
    )


@given(graph_and_cut(min_edges=1, max_vertices=20), st.sampled_from(list(UtilityModel)))
def test_group_kernel_matches_group_utility(gc, model):
    # any cut (vertex 0 included), several 8-vertex lookup tables, every model
    g, cut = gc
    ground = range(ground_set_size(g, model))
    groups = (ground, ground[::2], ground[1::3])
    dens, numerators = group_kernel(g, model, groups)
    for num, den, gr in zip(numerators(cut.mask()), dens, groups):
        assert Fraction(num, den) == group_utility(g, model, cut, gr)


def pair_count(g: Graph, model: UtilityModel, groups) -> int:
    """The number of (word, mask, weight column) pairs of ``block_scorer``,
    counted from its definition: the edges' weight columns in sorted order,
    a new pair wherever the column changes or a word begins."""
    weights, _ = group_weights(g, model, groups)
    runs = sorted(tuple(row.get(e, 0) for row in weights) for e in range(g.edge_count))
    return sum(1 for b, column in enumerate(runs) if b % 64 == 0 or column != runs[b - 1])


def assert_block_scores(g: Graph, model: UtilityModel, groups, masks: list[int]) -> list:
    """``block_scorer``'s numerators of the cuts with member bitmasks
    ``masks`` are int64 (object dtype once ``bound`` reaches 2**63, never
    float), equal ``group_kernel``'s on every row, and over ``dens`` equal
    the ``Fraction`` oracle's on the first two rows and the last.  Returns
    them as Python ints."""
    dens, bound, incident, numerators = block_scorer(g, model, groups)
    rows = [int.from_bytes(row.tobytes(), "little") for row in incident]
    crossing = []
    for mask in masks:
        cross = 0
        for v, edge_bits in enumerate(rows):
            if mask >> v & 1:
                cross ^= edge_bits
        crossing.append(cross)
    nums = numerators(edge_words(crossing, incident.shape[1]))
    assert nums.shape == (len(masks), len(dens))
    assert nums.dtype == (np.int64 if bound < 2**63 else object)
    got = nums.tolist()
    oracle_dens, oracle = group_kernel(g, model, groups)
    assert dens == oracle_dens
    assert got == [oracle(mask) for mask in masks]
    for k in sorted({0, 1, len(masks) - 1} & set(range(len(masks)))):
        cut = Cut.from_mask(masks[k])
        utilities = [Fraction(num, den) for num, den in zip(got[k], dens)]
        assert utilities == [group_utility(g, model, cut, gr) for gr in groups]
    return got


@st.composite
def scorer_cases(draw):
    """A graph with m edges among its first n - 2 vertices (the last two are
    isolated), groups over its ground set, perhaps with a group without
    edges, and a row count: 0, 1, one of the chunk size +-1 or a block."""
    m = draw(st.one_of(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 129)))
    model = draw(st.sampled_from(list(UtilityModel)))
    n = draw(st.integers(19, 26))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = Graph(n, tuple(rng.sample(list(combinations(range(n - 2), 2)), m)))
    ground = list(range(ground_set_size(g, model)))
    edgeless = draw(st.booleans())
    if edgeless and model.is_node_model:
        ground = ground[:-2]
    groups = [set() for _ in range(draw(st.integers(1, 4)))]
    for element in ground:
        groups[rng.randrange(len(groups))].add(element)
    if edgeless:
        groups.append(set() if model is UtilityModel.EDGE else {n - 2, n - 1})
    chunk = max(1, _CHUNK_ENTRIES // max(1, pair_count(g, model, groups)))
    rows = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1, 4096]))
    return g, model, groups, [rng.getrandbits(n) for _ in range(rows)]


def test_int_dtype_at_the_threshold():
    assert int_dtype(2**63 - 1) is np.int64
    assert int_dtype(2**63) is object


class TestBlockScorer:
    @given(scorer_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_group_kernel_and_fractions(self, case):
        assert_block_scores(*case)

    @pytest.mark.parametrize("m", [65, 129])
    @pytest.mark.parametrize("rows", [1, 4096])
    def test_run_across_word_boundaries(self, m, rows):
        # one edge group: a single weight column, so one run of m bits that
        # the word boundaries split into two or three pairs
        n = 18
        g = Graph(n, tuple(combinations(range(n), 2))[:m])
        rng = random.Random(m)
        masks = [rng.getrandbits(n) for _ in range(rows)]
        assert_block_scores(g, UtilityModel.EDGE, [range(m)], masks)

    @pytest.mark.parametrize("largest", [41, 43, 47, 53])
    @pytest.mark.parametrize("rows", [0, 1, 4096])
    def test_bounds_around_float_and_int64(self, largest, rows):
        # own-degree numerators of the prime-degree hubs: their bound is below
        # 2**53 up to 41, below 2**63 up to 47, and past 2**63 at 53.  The
        # first row cuts every edge, so the hubs' numerator is the bound
        g, partition = prime_hubs(largest)
        model = UtilityModel.NODE_OWNDEG
        _, bound, _, _ = block_scorer(g, model, partition.groups)
        assert (bound < 2**53, bound < 2**63) == (largest <= 41, largest <= 47)
        hubs = g.vertex_count - largest
        rng = random.Random(largest)
        masks = [(1 << hubs) - 1, *(rng.getrandbits(g.vertex_count) for _ in range(rows))][:rows]
        got = assert_block_scores(g, model, partition.groups, masks)
        assert not rows or got[0][0] == bound
