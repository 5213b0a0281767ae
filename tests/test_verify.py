"""Claim checkers: chains, subproblem bounds, triangle groups, gap tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmaxcut.errors import GeneratorParameterError
from fairmaxcut.exact import Mode, build_payoff_matrix, max_proportion, max_value, static_fair
from fairmaxcut.families import (
    NamedInstance,
    make_clique_with_tail,
    make_complete_bipartite,
    make_cycle,
    make_cycle_plus_biclique,
    make_diamond_instance,
    make_paw_instance,
    singleton_partition,
)
from fairmaxcut.graphs import Graph, PartitionKind, edge_groups, node_groups
from fairmaxcut.maximin import df_fair
from fairmaxcut.utility import UtilityModel
from fairmaxcut.verify import (
    check_bipartite_props,
    check_chain,
    check_diamond_strict_gap,
    check_dfmp_node_bounds,
    check_gap_table,
    check_nonbipartite_node_bound,
    check_subproblem_bound,
    check_triangle_bound,
    curated_suite,
    edge_subinstance,
    make_check,
    node_subinstance,
    random_suite,
    read_off,
)

from .strategies import edge_instances, node_instances


class TestBoundCheck:
    def test_relations(self):
        third = Fraction(1, 3)
        assert make_check("x", "", third, "<=", Fraction(1, 2)).passed
        assert not make_check("x", "", third, ">=", Fraction(1, 2)).passed
        assert make_check("x", "", third, "in", (third, Fraction(1))).passed
        half = Fraction(1, 2)
        assert make_check("x", "", half, "<", Fraction(2, 3)).passed


# n <= 8 under each of the three utility models
_MODEL_INSTANCES = st.one_of(
    edge_instances(max_vertices=8).map(lambda inst: (*inst, UtilityModel.EDGE)),
    node_instances(max_vertices=8).map(lambda inst: (*inst, UtilityModel.NODE_MAXDEG)),
    node_instances(max_vertices=8).map(lambda inst: (*inst, UtilityModel.NODE_OWNDEG)),
)


class TestReadOff:
    @given(_MODEL_INSTANCES)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_solvers(self, case):
        g, partition, model = case
        matrix = build_payoff_matrix(g, model, partition)
        assert read_off(matrix, "MV") == max_value(g, model)
        assert read_off(matrix, "MP") == max_proportion(g, model)
        for mode, suffix in ((Mode.VALUE, "MV"), (Mode.PROPORTION, "MP")):
            sf = static_fair(g, model, partition, mode)
            assert read_off(matrix, f"SF-{suffix}") == (sf.objective, sf.witness_cut)
            assert read_off(matrix, f"DF-{suffix}")[0] == df_fair(g, model, partition, mode).value

    def test_rejects_unknown_objective(self):
        inst = make_paw_instance()
        with pytest.raises(ValueError):
            read_off(build_payoff_matrix(inst.graph, inst.model, inst.partition), "SF-XX")


class TestCheckChain:
    def test_paw(self):
        inst = make_paw_instance()
        checks = check_chain(inst.graph, inst.model, inst.partition)
        assert len(checks) == 4
        assert all(c.passed for c in checks)

    def test_bipartite_equalities(self):
        g = make_complete_bipartite(2, 2)
        partition = singleton_partition(g, PartitionKind.EDGES)
        checks = check_chain(g, UtilityModel.EDGE, partition)
        assert all(c.passed for c in checks)

    @given(edge_instances(max_vertices=6))
    @settings(max_examples=25, deadline=None)
    def test_random_edge_instances(self, inst):
        g, partition = inst
        assert all(c.passed for c in check_chain(g, UtilityModel.EDGE, partition))

    @given(node_instances(max_vertices=6))
    @settings(max_examples=15, deadline=None)
    def test_random_node_instances_own_degree(self, inst):
        g, partition = inst
        assert all(c.passed for c in check_chain(g, UtilityModel.NODE_OWNDEG, partition))


class TestSubproblemBound:
    def test_diamond_kept_square_group(self):
        inst = make_diamond_instance()
        sub, deltas = edge_subinstance(inst, (0,))
        checks = check_subproblem_bound(inst, sub, deltas)
        assert all(c.passed for c in checks)

    def test_full_problem_reduces_to_chain(self):
        inst = make_paw_instance()
        sub, deltas = edge_subinstance(inst, range(inst.partition.group_count))
        checks = check_subproblem_bound(inst, sub, deltas)
        assert all(c.passed for c in checks)

    def test_cycle_biclique_cycle_part_with_boundary_slack(self):
        inst = make_cycle_plus_biclique(2, 3)
        sub, deltas = node_subinstance(inst, (0,))
        assert deltas == (Fraction(1),)  # exactly the bridge edge
        assert sub.graph.vertex_count == 4 and sub.graph.edge_count == 4
        checks = check_subproblem_bound(inst, sub, deltas)
        assert all(c.passed for c in checks)

    def test_rejects_foreign_subcollection(self):
        inst = make_paw_instance()
        other = make_diamond_instance()
        with pytest.raises(GeneratorParameterError):
            check_subproblem_bound(inst, other, (Fraction(0), Fraction(0)))

    def test_rejects_wrong_delta_count(self):
        inst = make_paw_instance()
        sub, _ = edge_subinstance(inst, (0, 1))
        with pytest.raises(GeneratorParameterError):
            check_subproblem_bound(inst, sub, (Fraction(0),))

    @given(edge_instances(max_vertices=6))
    @settings(max_examples=20, deadline=None)
    def test_zero_slack_edge_subproblems(self, inst):
        g, partition = inst
        named = NamedInstance(g, partition, UtilityModel.EDGE, "prop")
        sub, deltas = edge_subinstance(named, (0,))
        assert all(c.passed for c in check_subproblem_bound(named, sub, deltas))

    @given(node_instances(max_vertices=6))
    @settings(max_examples=15, deadline=None)
    def test_boundary_slack_node_subproblems(self, inst):
        g, partition = inst
        named = NamedInstance(g, partition, UtilityModel.NODE_MAXDEG, "prop")
        sub, deltas = node_subinstance(named, (0,))
        if sub.graph.edge_count == 0:
            return  # induced subgraph has no edges; node utility undefined there
        assert all(c.passed for c in check_subproblem_bound(named, sub, deltas))


class TestTriangleBound:
    def test_triangle_single_group(self):
        g = make_cycle(3)
        check = check_triangle_bound(g, edge_groups(g, [frozenset({0, 1, 2})]))
        assert not check.skipped and check.passed
        assert check.lhs == Fraction(2, 3)

    def test_paw_regrouped(self):
        inst = make_paw_instance()
        partition = edge_groups(inst.graph, [frozenset({0, 1, 2}), frozenset({3})])
        check = check_triangle_bound(inst.graph, partition)
        assert not check.skipped and check.passed

    def test_k4_single_group_skipped(self):
        # K4's six edges do not split into two edge-disjoint triangles (any
        # two of its triangles share an edge), so the precondition fails even
        # though the 2/3 value itself holds for K4
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        check = check_triangle_bound(g, edge_groups(g, [frozenset(range(6))]))
        assert check.skipped
        value = df_fair(g, UtilityModel.EDGE, edge_groups(g, [frozenset(range(6))])).value
        assert value == Fraction(2, 3)

    def test_two_disjoint_triangles_detected(self):
        g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
        check = check_triangle_bound(g, edge_groups(g, [frozenset(range(6))]))
        assert not check.skipped and check.passed

    def test_no_triangle_group_skips(self):
        g = make_cycle(4)
        check = check_triangle_bound(g, singleton_partition(g, PartitionKind.EDGES))
        assert check.skipped


class TestBipartiteProps:
    def test_k33_edges(self):
        g = make_complete_bipartite(3, 3)
        checks = check_bipartite_props(g, singleton_partition(g, PartitionKind.EDGES), UtilityModel.EDGE)
        assert len(checks) == 3 and all(c.passed and not c.skipped for c in checks)

    def test_k33_nodes_regular(self):
        g = make_complete_bipartite(3, 3)
        checks = check_bipartite_props(
            g, singleton_partition(g, PartitionKind.NODES), UtilityModel.NODE_MAXDEG
        )
        assert all(c.passed and not c.skipped for c in checks)

    def test_irregular_bipartite_node_model_skips(self):
        g = make_complete_bipartite(2, 3)
        checks = check_bipartite_props(
            g, singleton_partition(g, PartitionKind.NODES), UtilityModel.NODE_MAXDEG
        )
        assert checks[0].skipped

    def test_odd_cycle_skips(self):
        g = make_cycle(5)
        checks = check_bipartite_props(g, singleton_partition(g, PartitionKind.EDGES), UtilityModel.EDGE)
        assert checks[0].skipped


class TestNodeBounds:
    def test_c5_static_cap(self):
        check = check_nonbipartite_node_bound(make_cycle(5))
        assert not check.skipped and check.passed
        assert check.lhs == Fraction(1, 2) and check.rhs == Fraction(1, 2)

    def test_triangle_and_c7(self):
        for n in (3, 7):
            check = check_nonbipartite_node_bound(make_cycle(n))
            assert check.passed and not check.skipped

    def test_bipartite_skips(self):
        assert check_nonbipartite_node_bound(make_cycle(4)).skipped

    def test_c5_envelopes(self):
        g = make_cycle(5)
        checks = check_dfmp_node_bounds(g, singleton_partition(g, PartitionKind.NODES))
        by_claim = {c.claim: c for c in checks}
        assert by_claim["node-dynamic-degree-cap"].rhs == 1
        assert by_claim["node-static-degree-floor"].rhs == Fraction(1, 2)
        assert all(c.passed for c in checks)

    def test_cycle_biclique_envelopes(self):
        inst = make_cycle_plus_biclique(2, 3)
        checks = check_dfmp_node_bounds(inst.graph, inst.partition)
        by_claim = {c.claim: c for c in checks}
        # cycle group: degrees 2,2,2,3 over max degree 4
        assert by_claim["node-dynamic-degree-cap"].rhs == Fraction(9, 16)
        assert all(c.passed for c in checks)


class TestDiamondStrictGap:
    def test_all_pass(self):
        checks = check_diamond_strict_gap()
        assert all(c.passed for c in checks)
        strict = [c for c in checks if c.claim == "diamond-strict-gap"][0]
        assert strict.lhs == Fraction(2, 3) and strict.rhs == Fraction(4, 5)


class TestGapTable:
    def test_edges(self):
        checks = check_gap_table(PartitionKind.EDGES)
        assert all(c.passed for c in checks)
        trends = [c for c in checks if c.claim == "edge-best-dynamic-gap-trend"]
        assert len(trends) == 2

    def test_nodes(self):
        checks = check_gap_table(PartitionKind.NODES)
        assert all(c.passed for c in checks)


class TestSuites:
    def test_curated_suite_green(self):
        checks = curated_suite()
        failed = [c for c in checks if not c.passed]
        assert not failed, failed

    def test_random_suite_small_green(self):
        checks = random_suite(seed=11, count=12)
        assert checks and all(c.passed for c in checks)
