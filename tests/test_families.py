"""Family generators: structure, closed-form expectations, determinism."""

from fractions import Fraction
from pathlib import Path

import pytest

from fairmaxcut.errors import GeneratorParameterError
from fairmaxcut.exact import Mode, max_proportion, max_value, static_fair
from fairmaxcut.families import (
    make_clique_with_tail,
    make_complete_bipartite,
    make_cycle,
    make_cycle_plus_biclique,
    make_diamond_instance,
    make_diamond_embedding,
    make_odd_cycle_instance,
    make_paw_instance,
    one_left_out_cycle_distribution,
    random_instance,
    random_partition,
    singleton_partition,
)
from fairmaxcut.graphs import PartitionKind, cut_value, is_bipartite, max_degree
from fairmaxcut.instances import serialize_instance
from fairmaxcut.maximin import CutDistribution, df_fair
from fairmaxcut.utility import UtilityModel
from fairmaxcut.verify import check_expected

GOLDENS = Path(__file__).parent / "goldens"


def confirm_expected(inst, limit=24):
    """Every expected value must match the exact solvers."""
    for exp in inst.expected:
        if exp.objective == "MV":
            got, _ = max_value(inst.graph, inst.model, limit)
        elif exp.objective == "MP":
            got, _ = max_proportion(inst.graph, inst.model, limit)
        elif exp.objective == "SF-MP":
            got = static_fair(inst.graph, inst.model, inst.partition, Mode.PROPORTION, limit).objective
        elif exp.objective == "DF-MP":
            got = df_fair(inst.graph, inst.model, inst.partition, Mode.PROPORTION, limit).value
        else:
            raise AssertionError(exp.objective)
        assert got == exp.value, f"{inst.label}: {exp.objective} = {got}, expected {exp.value}"


class TestMakeCycle:
    def test_structure(self):
        g = make_cycle(5)
        assert g.vertex_count == 5 and g.edge_count == 5
        assert set(g.degrees) == {2}

    def test_parity(self):
        assert is_bipartite(make_cycle(4))[0]
        assert not is_bipartite(make_cycle(7))[0]

    def test_rejects_small(self):
        with pytest.raises(GeneratorParameterError):
            make_cycle(2)


class TestMakeCompleteBipartite:
    @pytest.mark.parametrize("a,b,m", [(2, 2, 4), (3, 3, 9), (1, 1, 1)])
    def test_edge_counts(self, a, b, m):
        g = make_complete_bipartite(a, b)
        assert g.edge_count == m
        assert is_bipartite(g)[0]


class TestCliqueWithTail:
    def test_k2_n10_shape(self):
        inst = make_clique_with_tail(2, 10)
        assert inst.graph.vertex_count == 10
        assert inst.graph.edge_count == 6 + 6
        assert inst.partition.group_count == 2

    def test_edge_count_formula(self):
        for k, n in ((1, 2), (2, 6), (3, 7), (2, 12)):
            inst = make_clique_with_tail(k, n)
            assert inst.graph.vertex_count == n
            assert inst.graph.edge_count == k * (2 * k - 1) + n - 2 * k

    def test_degenerate_tail_single_group(self):
        inst = make_clique_with_tail(3, 6)
        assert inst.partition.group_count == 1

    def test_single_edge_case(self):
        inst = make_clique_with_tail(1, 2)
        assert inst.graph.edge_count == 1
        assert inst.expected_map()["MP"] == 1

    @pytest.mark.parametrize("k,n", [(2, 6), (2, 10), (2, 14), (3, 6), (1, 4)])
    def test_expected_values_confirmed(self, k, n):
        confirm_expected(make_clique_with_tail(k, n))


class TestCyclePlusBiclique:
    def test_k2_r3_shape(self):
        inst = make_cycle_plus_biclique(2, 3)
        g = inst.graph
        assert g.vertex_count == 10 and g.edge_count == 14
        assert max_degree(g) == 4
        assert inst.partition.groups[0] == frozenset({0, 1, 2, 3})

    def test_always_bipartite(self):
        for k, r in ((2, 1), (2, 4), (3, 2)):
            assert is_bipartite(make_cycle_plus_biclique(k, r).graph)[0]

    def test_max_cut_formula_verified_by_enumeration(self):
        for k, r in ((2, 2), (2, 3), (3, 2)):
            inst = make_cycle_plus_biclique(k, r)
            mc, _ = max_value(inst.graph, UtilityModel.EDGE)
            assert mc == r * r + 2 * k + 1

    @pytest.mark.parametrize("k,r", [(2, 2), (2, 3), (2, 4), (3, 2)])
    def test_expected_values_confirmed(self, k, r):
        confirm_expected(make_cycle_plus_biclique(k, r))

    def test_dynamic_fair_cap(self):
        # the cycle group's utility is throttled by the biclique's degrees
        for r in (2, 3, 4):
            inst = make_cycle_plus_biclique(2, r)
            df = df_fair(inst.graph, inst.model, inst.partition).value
            assert df <= Fraction(3, r + 1)


class TestWorkedInstances:
    def test_diamond_confirmed(self):
        confirm_expected(make_diamond_instance())

    def test_paw_confirmed(self):
        confirm_expected(make_paw_instance())

    def test_diamond_embedding_is_unit_and_chord_aligned(self):
        emb = make_diamond_embedding()
        assert emb.vertex_count == 4 and emb.dimension == 4
        assert float(emb.vectors[0] @ emb.vectors[3]) == 1.0


class TestSingletonPartition:
    def test_counts(self):
        g = make_cycle(5)
        assert singleton_partition(g, PartitionKind.EDGES).group_count == 5
        assert singleton_partition(g, PartitionKind.NODES).group_count == 5

    def test_rejects_empty_ground(self):
        from fairmaxcut.graphs import Graph

        with pytest.raises(GeneratorParameterError):
            singleton_partition(Graph(3, ()), PartitionKind.EDGES)


class TestRandomInstance:
    def test_deterministic_from_seed(self):
        a = random_instance(8, 0.5, 3, PartitionKind.EDGES, seed=42)
        b = random_instance(8, 0.5, 3, PartitionKind.EDGES, seed=42)
        assert a.graph == b.graph
        assert a.partition == b.partition

    def test_golden_instance_frozen(self):
        inst = random_instance(8, 0.5, 3, PartitionKind.EDGES, seed=42)
        golden = (GOLDENS / "random_n8_p05_g3_seed42.inst").read_text()
        assert serialize_instance(inst) == golden

    def test_single_group_collapses_objectives(self):
        inst = random_instance(6, 0.5, 1, PartitionKind.EDGES, seed=7)
        sf = static_fair(inst.graph, inst.model, inst.partition).objective
        df = df_fair(inst.graph, inst.model, inst.partition).value
        mp, _ = max_proportion(inst.graph, inst.model)
        assert sf == df == mp

    def test_node_kind_never_edgeless(self):
        for seed in range(5):
            inst = random_instance(5, 0.2, 2, PartitionKind.NODES, seed=seed)
            assert inst.graph.edge_count >= 1

    def test_impossible_parameters_raise(self):
        with pytest.raises(GeneratorParameterError):
            random_instance(3, 0.0, 2, PartitionKind.EDGES, seed=0)


class TestRandomPartition:
    def test_groups_nonempty_and_seeded(self):
        g = make_complete_bipartite(3, 3)
        p1 = random_partition(g, PartitionKind.EDGES, 4, seed=1)
        p2 = random_partition(g, PartitionKind.EDGES, 4, seed=1)
        assert p1 == p2
        assert all(len(gr) >= 1 for gr in p1.groups)

    def test_gamma_bounds(self):
        g = make_cycle(3)
        with pytest.raises(GeneratorParameterError):
            random_partition(g, PartitionKind.EDGES, 4, seed=0)


class TestOddCycleInstance:
    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("n", range(3, 12, 2))
    def test_expected_static_value_holds(self, n, kind):
        inst = make_odd_cycle_instance(n, kind)
        assert inst.label == f"cycle-{n}-{kind.value}"
        checks = check_expected(inst)
        assert [c.claim for c in checks] == ["expected-SF-MP"]
        assert all(c.passed for c in checks)

    @pytest.mark.parametrize("kind", list(PartitionKind))
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 4, 10])
    def test_rejects_even_or_short_lengths(self, n, kind):
        with pytest.raises(GeneratorParameterError):
            make_odd_cycle_instance(n, kind)


class TestOneLeftOutDistribution:
    def test_c5_support_cuts_are_near_maximum(self):
        g, pairs = one_left_out_cycle_distribution(5)
        dist = CutDistribution.from_pairs(pairs)
        assert len(dist.entries) == 5
        for cut, _ in dist.entries:
            assert cut_value(g, cut) == 4

    def test_rejects_even_length(self):
        with pytest.raises(GeneratorParameterError):
            one_left_out_cycle_distribution(6)
