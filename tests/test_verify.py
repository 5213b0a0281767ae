"""Claim checkers: chains, subproblem bounds, triangle groups, gap tables."""

import contextlib
import io
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmaxcut.cli import main
from fairmaxcut.errors import GeneratorParameterError
from fairmaxcut.exact import (
    Mode,
    build_payoff_matrix,
    max_from_matrix,
    max_proportion,
    max_value,
    static_fair,
    static_from_matrix,
)
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
from fairmaxcut.graphs import Cut, Graph, PartitionKind, edge_groups, node_groups
from fairmaxcut.instances import OBJECTIVE_NAMES
from fairmaxcut.maximin import CutDistribution, df_fair, solve_maximin
from fairmaxcut.reports import parse_report
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
    read_offs,
)

from .strategies import edge_instances, graphs, node_instances, partitions_for


class TestBoundCheck:
    def test_relations(self):
        third = Fraction(1, 3)
        assert make_check("x", "", third, "<=", Fraction(1, 2)).passed
        assert not make_check("x", "", third, ">=", Fraction(1, 2)).passed
        with pytest.raises(ValueError, match="unknown relation"):
            make_check("x", "", third, "in", Fraction(1))
        half = Fraction(1, 2)
        assert make_check("x", "", half, "<", Fraction(2, 3)).passed


# n <= 8 under each of the three utility models
_MODEL_INSTANCES = st.one_of(
    edge_instances(max_vertices=8).map(lambda inst: (*inst, UtilityModel.EDGE)),
    node_instances(max_vertices=8).map(lambda inst: (*inst, UtilityModel.NODE_MAXDEG)),
    node_instances(max_vertices=8).map(lambda inst: (*inst, UtilityModel.NODE_OWNDEG)),
)


_EQUAL_SHAPES = ("singletons", "one group", "equal")


@st.composite
def _partitioned_matrices(draw, shapes=(*_EQUAL_SHAPES, "random")):
    """The payoff matrix of a graph with n <= 8 under any model, with
    singleton groups, one group, equal groups of a size s >= 2, or random
    groups (mostly of unequal sizes), as ``shapes`` allows."""
    model = draw(st.sampled_from(list(UtilityModel)))
    kind = model.partition_kind
    g = draw(graphs(min_vertices=2, max_vertices=8, min_edges=1))
    ground = g.edge_count if kind is PartitionKind.EDGES else g.vertex_count
    shape = draw(st.sampled_from(shapes))
    if shape == "random":
        partition = draw(partitions_for(g, kind))
    else:
        # several groups of a size s >= 2 where the ground set's size allows
        divisors = [s for s in range(2, ground) if ground % s == 0] or [ground]
        size = {"singletons": 1, "one group": ground}.get(shape) or draw(st.sampled_from(divisors))
        order = draw(st.permutations(range(ground)))
        groups = [frozenset(order[i : i + size]) for i in range(0, ground, size)]
        partition = (edge_groups if kind is PartitionKind.EDGES else node_groups)(g, groups)
    return build_payoff_matrix(g, model, partition)


class TestReadOff:
    @given(_MODEL_INSTANCES)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_solvers(self, case):
        g, partition, model = case
        matrix = build_payoff_matrix(g, model, partition)
        found = read_offs(matrix, OBJECTIVE_NAMES)
        # a witness is its first best column, and no Cut is made for it
        assert all(type(found[name][1]) is int for name in ("MV", "MP", "SF-MV", "SF-MP"))
        witnessed = {name: (value, matrix.cut(j)) for name, (value, j) in found.items()
                     if not name.startswith("DF-")}
        assert witnessed["MV"] == max_value(g, model)
        assert witnessed["MP"] == max_proportion(g, model)
        for mode, suffix in ((Mode.VALUE, "MV"), (Mode.PROPORTION, "MP")):
            assert witnessed[f"SF-{suffix}"] == static_fair(g, model, partition, mode)
            assert found[f"DF-{suffix}"][0] == df_fair(g, model, partition, mode).value

    @given(_partitioned_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_each_objective_read_alone(self, matrix, data):
        # every objective, and a random selection in a random order
        picked = data.draw(st.lists(st.sampled_from(OBJECTIVE_NAMES), unique=True))
        for names in (OBJECTIVE_NAMES, picked):
            found = read_offs(matrix, names)
            assert list(found) == list(names)
            for mode, suffix in ((Mode.VALUE, "MV"), (Mode.PROPORTION, "MP")):
                if suffix in found:
                    assert found[suffix] == max_from_matrix(matrix, mode)
                if f"SF-{suffix}" in found:
                    assert found[f"SF-{suffix}"] == static_from_matrix(matrix, mode)
                if f"DF-{suffix}" in found:
                    value, sol = found[f"DF-{suffix}"]
                    alone = solve_maximin(matrix, mode)
                    assert value == sol.value == alone.value
                    assert sol.distribution == alone.distribution
                    assert sol.dual_weights == alone.dual_weights
                    assert sol.support == alone.support
        # DF-MV and DF-MP share one LP outcome exactly when every group has
        # one size, and then DF-MP carries the counters of the LP that found it
        found = read_offs(matrix, OBJECTIVE_NAMES)
        equal = len(set(matrix.group_sizes)) == 1
        assert len(matrix._solved) == (1 if equal else 2)
        if equal:
            value, proportion = found["DF-MV"][1], found["DF-MP"][1]
            assert replace(proportion, value=value.value) == value

    @given(_partitioned_matrices(shapes=_EQUAL_SHAPES))
    @settings(max_examples=40, deadline=None)
    def test_equal_sizes_read_proportions_as_scaled_values(self, matrix):
        # MP and SF-MP are read in proportion mode, not derived from their
        # value-mode twins: over groups of one size s they are MV over the
        # ground set's size and SF-MV over s, at the same first best column
        found = read_offs(matrix, OBJECTIVE_NAMES)
        (size,) = set(matrix.group_sizes)
        mv, j = found["MV"]
        assert found["MP"] == (mv / sum(matrix.group_sizes), j)
        sf, j = found["SF-MV"]
        assert found["SF-MP"] == (sf / size, j)

    def test_rejects_unknown_objective(self):
        inst = make_paw_instance()
        with pytest.raises(ValueError):
            read_offs(build_payoff_matrix(inst.graph, inst.model, inst.partition), ["SF-XX"])


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

    @pytest.mark.parametrize("groups", [
        pytest.param([{0, 1, 2}], id="a size the full partition lacks"),
        pytest.param([{0}, {1}, {2}], id="a size more often than in the full partition"),
    ])
    def test_rejects_sizes_off_the_full_partition(self, groups):
        # the paw with edge groups of sizes 1, 1 and 2, against triangles
        # with edge groups of sizes 3, or 1, 1 and 1
        paw = make_paw_instance()
        inst = replace(paw, partition=edge_groups(paw.graph, [{0}, {1}, {2, 3}]))
        triangle = make_cycle(3)
        sub = NamedInstance(triangle, edge_groups(triangle, groups), UtilityModel.EDGE, "triangle")
        with pytest.raises(GeneratorParameterError, match="not a sub-collection"):
            check_subproblem_bound(inst, sub, (Fraction(0),) * len(groups))

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


class TestMadeOnRead:
    """A DF read-off keeps its lottery and its duals as certified integers:
    a ``Cut`` and a ``CutDistribution`` are made only where one is read, as
    ``solve`` reads them to print them."""

    @staticmethod
    def spy(monkeypatch) -> Counter:
        made = Counter()
        from_mask, post_init = Cut.from_mask, CutDistribution.__post_init__

        def spy_from_mask(mask):
            made["cuts"] += 1
            return from_mask(mask)

        def spy_post_init(self):
            made["distributions"] += 1
            post_init(self)

        monkeypatch.setattr(Cut, "from_mask", staticmethod(spy_from_mask))
        monkeypatch.setattr(CutDistribution, "__post_init__", spy_post_init)
        return made

    def test_check_chain_makes_no_cut_and_no_distribution(self, monkeypatch):
        # 40 instances over verify.random_suite's ranges, 80 DF read-offs
        made = self.spy(monkeypatch)
        checks = random_suite(seed=0, count=40)
        assert len(checks) == 160 and all(c.passed for c in checks)
        assert made == Counter()

    def test_solve_makes_one_distribution_per_printed_lottery(self, monkeypatch):
        # the paw's singleton edge groups: DF-MV and DF-MP share one LP
        # outcome, and each prints its lottery; the four witnesses and the six
        # support entries are the report's cuts
        made = self.spy(monkeypatch)
        out = io.StringIO()
        path = Path(__file__).parent / "goldens" / "paw.inst"
        with contextlib.redirect_stdout(out):
            assert main(["solve", str(path), "--no-timestamp"]) == 0
        counts = dict(made)
        report = parse_report(out.getvalue())
        assert sorted(report.supports) == ["DF-MP", "DF-MV"]
        assert counts == {
            "distributions": len(report.supports),
            "cuts": len(report.witnesses) + sum(map(len, report.supports.values())),
        }
