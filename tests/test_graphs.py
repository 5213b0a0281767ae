"""Graph, cut, and partition primitives."""

import signal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairmaxcut.graphs import (
    Cut,
    Graph,
    GroupPartition,
    PartitionKind,
    crossing_degree,
    cut_value,
    edge_groups,
    is_bipartite,
    max_degree,
    node_groups,
)
from fairmaxcut.families import make_clique_with_tail, make_complete_bipartite, make_cycle
from fairmaxcut.errors import GeneratorParameterError

from .strategies import graph_and_cut, graphs


def brute_force_bipartite(g: Graph) -> bool:
    """Oracle: try all 2^n two-colorings."""
    n = g.vertex_count
    for mask in range(1 << n):
        if all(((mask >> u) ^ (mask >> v)) & 1 for u, v in g.edges):
            return True
    return not g.edges


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, ((0, 0),))

    def test_rejects_duplicate_even_reversed(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2),))

    def test_adjacency_consistent_with_edges(self):
        g = Graph(4, ((0, 1), (1, 2), (0, 3)))
        assert g.neighbors[0] == {1, 3}
        assert g.neighbors[1] == {0, 2}
        assert g.neighbors[2] == {1}
        assert g.degrees == (2, 2, 1, 1)


@given(graphs())
def test_incident_edges_and_endpoints_are_made_once(g):
    # each vertex's incident edges, ascending, and the (edges, 2) endpoint
    # array: made once per graph, the array read-only
    assert g.incident_edges == tuple(
        tuple(e for e, edge in enumerate(g.edges) if v in edge) for v in range(g.vertex_count)
    )
    ends = g.endpoints
    assert ends.shape == (g.edge_count, 2) and ends.tolist() == [list(e) for e in g.edges]
    assert not ends.flags.writeable
    assert g.endpoints is ends and g.incident_edges is g.incident_edges


class TestMaxDegree:
    def test_cycle_is_two_regular(self):
        assert max_degree(make_cycle(5)) == 2

    def test_edgeless(self):
        assert max_degree(Graph(3, ())) == 0

    def test_clique_tail_attachment_vertex(self):
        # K4 with a 6-edge tail: the attachment vertex has 3 clique + 1 tail edges
        inst = make_clique_with_tail(2, 10)
        assert max_degree(inst.graph) == 4
        assert max(range(10), key=inst.graph.degree) == 3


class TestCutValue:
    def test_bipartition_cuts_everything(self):
        g = make_complete_bipartite(2, 2)
        assert cut_value(g, Cut.of({0, 1})) == 4

    def test_cycle_hand_count(self):
        # C5 with S = {0, 2}: edges (0,1),(1,2),(2,3),(4,0) cross, (3,4) does not
        assert cut_value(make_cycle(5), Cut.of({0, 2})) == 4

    def test_empty_cut_is_zero(self):
        assert cut_value(make_cycle(6), Cut.of(set())) == 0

    def test_rejects_foreign_vertex(self):
        with pytest.raises(ValueError):
            cut_value(make_cycle(3), Cut.of({7}))

    @pytest.mark.parametrize("member", [3, -1])
    def test_names_the_foreign_member(self, member):
        message = f"^cut member {member} is not a vertex of the graph$"
        with pytest.raises(ValueError, match=message):
            cut_value(make_cycle(3), Cut.of({0, 2, member}))


class TestCutMembers:
    def test_frozenset_is_kept_as_given(self):
        fs = frozenset({1, 3})
        assert Cut(fs).members is fs

    @pytest.mark.parametrize("cut", [Cut([2, 1]), Cut({1, 2}), Cut.of(range(1, 3))])
    def test_other_iterables_are_frozen(self, cut):
        assert type(cut.members) is frozenset
        assert cut.members == {1, 2}
        assert cut == Cut(frozenset({1, 2}))
        assert hash(cut) == hash(Cut(frozenset({1, 2})))


class TestIsBipartite:
    def test_odd_cycle(self):
        ok, witness = is_bipartite(make_cycle(5))
        assert not ok and witness is None

    def test_complete_bipartite_witness_sides(self):
        ok, witness = is_bipartite(make_complete_bipartite(3, 3))
        assert ok
        assert len(witness.members) == 3

    def test_diamond_is_not_bipartite(self):
        from fairmaxcut.families import make_diamond_instance

        ok, _ = is_bipartite(make_diamond_instance().graph)
        assert not ok

    @given(graphs(max_vertices=6))
    def test_matches_two_coloring_oracle(self, g):
        ok, witness = is_bipartite(g)
        assert ok == brute_force_bipartite(g)
        if ok:
            # a witness must cut every edge
            assert cut_value(g, witness) == g.edge_count


@given(graph_and_cut())
def test_cut_value_complement_invariant(gc):
    g, cut = gc
    assert cut_value(g, cut) == cut_value(g, cut.complement(g.vertex_count))


@given(graph_and_cut())
def test_crossing_degree_complement_invariant(gc):
    g, cut = gc
    comp = cut.complement(g.vertex_count)
    for v in range(g.vertex_count):
        assert crossing_degree(g, cut.members, v) == crossing_degree(g, comp.members, v)


class TestGroupPartition:
    def test_rejects_empty_group(self):
        g = make_cycle(3)
        with pytest.raises(ValueError, match="empty"):
            edge_groups(g, [frozenset({0, 1, 2}), frozenset()])

    def test_rejects_overlap(self):
        g = make_cycle(3)
        with pytest.raises(ValueError, match="overlap"):
            edge_groups(g, [frozenset({0, 1}), frozenset({1, 2})])

    def test_rejects_non_covering(self):
        g = make_cycle(3)
        with pytest.raises(ValueError, match="cover"):
            edge_groups(g, [frozenset({0, 1})])

    def test_rejects_huge_ground_set_without_building_it(self):
        with pytest.raises(ValueError, match="cover"):
            GroupPartition(PartitionKind.NODES, (frozenset({0}),), 10**12)

    def test_rejects_zero_groups(self):
        with pytest.raises(ValueError):
            GroupPartition(PartitionKind.EDGES, (), 0)

    def test_node_groups_cover_vertices(self):
        g = make_cycle(4)
        p = node_groups(g, [frozenset({0, 1}), frozenset({2, 3})])
        assert p.group_count == 2
        assert p.ground_size == 4


def bit_by_bit_members(mask: int) -> frozenset[int]:
    """The bit-at-a-time loop that ``Cut.from_mask`` replaced."""
    members = set()
    v = 0
    while mask:
        if mask & 1:
            members.add(v)
        mask >>= 1
        v += 1
    return frozenset(members)


@given(st.integers(0, 2**70))
def test_from_mask_matches_bit_by_bit_loop(mask):
    cut = Cut.from_mask(mask)
    assert cut.members == bit_by_bit_members(mask)
    assert cut.mask() == mask


@pytest.mark.parametrize("mask", [-1, -2, -(2**63), -(2**70)])
def test_from_mask_refuses_a_negative_mask(mask):
    # its lowest-bit loop would never reach 0, so a timer turns a missing
    # refusal into a failure instead of a hang
    def expire(signum, frame):
        raise TimeoutError(f"Cut.from_mask({mask}) did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        with pytest.raises(ValueError, match="non-negative"):
            Cut.from_mask(mask)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
