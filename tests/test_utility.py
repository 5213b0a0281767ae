"""Group utility models: exactness, complement invariance, additivity."""

from fractions import Fraction

import pytest
from hypothesis import given
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
from fairmaxcut.utility import UtilityModel, block_scorer, ground_set_size

from .fraction_utility import (
    ground_utility,
    group_proportion,
    group_utility,
    min_group_proportion,
)
from .python_payoff import group_kernel
from .strategies import graph_and_cut, node_instances


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
