"""Enumeration solvers against independent brute-force oracles."""

from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmaxcut.errors import DegreeZeroError, ModelMismatchError, TooLargeError
from fairmaxcut.exact import (
    _BLOCK_BITS,
    MAX_SOLVE_BYTES,
    _first_rows,
    Mode,
    PayoffMatrix,
    build_payoff_matrix,
    canonical_cut_count,
    max_from_matrix,
    max_proportion,
    max_value,
    static_fair,
    static_from_matrix,
)
from fairmaxcut.families import (
    make_clique_with_tail,
    make_complete_bipartite,
    make_cycle,
    make_cycle_plus_biclique,
    make_diamond_instance,
    make_paw_instance,
    random_instance,
    singleton_partition,
)
from fairmaxcut.graphs import (
    Cut,
    Graph,
    GroupPartition,
    PartitionKind,
    edge_groups,
    is_bipartite,
    node_groups,
)
from fairmaxcut.utility import UtilityModel, ground_set_size, group_weights

from .fraction_simplex import fraction_column
from .fraction_utility import (
    ground_utility,
    group_proportion,
    group_utility,
    min_group_proportion,
)
from .python_payoff import (
    canonical_cuts,
    column_cuts,
    distinct_columns,
    lexsort_first_rows,
    python_payoff_matrix,
)
from .strategies import edge_instances, graphs, node_instances, partitions_for

# path 0-1-2 plus the isolated vertex 3: degrees 1, 2, 1, 0
PATH_AND_ISOLATED = Graph(4, ((0, 1), (1, 2)))


def brute_force_max_cut(g: Graph) -> int:
    """Oracle: scan all 2^n subsets with a direct edge loop."""
    best = 0
    for mask in range(1 << g.vertex_count):
        value = sum(1 for u, v in g.edges if ((mask >> u) ^ (mask >> v)) & 1)
        best = max(best, value)
    return best


class TestEnumerateCanonicalCuts:
    """The test-side canonical cuts that the brute-force oracles scan."""

    def test_single_vertex(self):
        assert canonical_cuts(Graph(1, ())) == [Cut.of(set())]

    def test_no_vertices(self):
        assert canonical_cuts(Graph(0, ())) == [Cut.of(set())]

    def test_three_vertices_order(self):
        cuts = canonical_cuts(Graph(3, ()))
        assert [sorted(c.members) for c in cuts] == [[], [1], [2], [1, 2]]

    def test_four_vertices_count_and_canonicality(self):
        cuts = canonical_cuts(make_paw_instance().graph)
        assert len(cuts) == 8
        assert all(0 not in c.members for c in cuts)
        assert len({frozenset(c.members) for c in cuts}) == 8

    def test_limit_enforced(self):
        with pytest.raises(TooLargeError):
            canonical_cuts(Graph(7, ()), limit=6)


class TestMaxValue:
    def test_complete_bipartite(self):
        g = make_complete_bipartite(3, 3)
        value, witness = max_value(g, UtilityModel.EDGE)
        assert value == 9
        assert sorted(witness.members) in ([3, 4, 5], [0, 1, 2])

    def test_paw(self):
        value, _ = max_value(make_paw_instance().graph, UtilityModel.EDGE)
        assert value == 3

    def test_c5_node_model(self):
        value, _ = max_value(make_cycle(5), UtilityModel.NODE_MAXDEG)
        assert value == 4  # 2 * MC / max degree = 2*4/2

    @given(edge_instances())
    @settings(max_examples=40)
    def test_matches_brute_force(self, inst):
        g, _ = inst
        value, witness = max_value(g, UtilityModel.EDGE)
        assert value == brute_force_max_cut(g)
        # the witness achieves the optimum
        from fairmaxcut.graphs import cut_value

        assert cut_value(g, witness) == value


class TestDegenerateGraphs:
    def test_edgeless_edge_model_zero(self):
        g = Graph(3, ())
        assert max_value(g, UtilityModel.EDGE)[0] == 0
        assert max_proportion(g, UtilityModel.EDGE)[0] == 0

    def test_empty_graph(self):
        g = Graph(0, ())
        assert max_value(g, UtilityModel.EDGE)[0] == 0
        assert max_proportion(g, UtilityModel.EDGE)[0] == 0

    def test_edgeless_node_model_refuses(self):
        from fairmaxcut.errors import DegreeZeroError

        with pytest.raises(DegreeZeroError):
            max_value(Graph(3, ()), UtilityModel.NODE_MAXDEG)


class TestMaxProportion:
    def test_clique_tail(self):
        inst = make_clique_with_tail(2, 10)
        assert max_proportion(inst.graph, inst.model)[0] == Fraction(5, 6)

    def test_bipartite_edge(self):
        assert max_proportion(make_complete_bipartite(2, 3), UtilityModel.EDGE)[0] == 1

    def test_cycle_plus_biclique_nodes(self):
        inst = make_cycle_plus_biclique(2, 3)
        assert max_proportion(inst.graph, inst.model)[0] == Fraction(7, 10)

    @given(edge_instances())
    @settings(max_examples=30)
    def test_value_ratio_and_shared_witness(self, inst):
        g, _ = inst
        value, wit_v = max_value(g, UtilityModel.EDGE)
        prop, wit_p = max_proportion(g, UtilityModel.EDGE)
        assert prop == value / g.edge_count
        assert wit_v == wit_p


class TestStaticFair:
    def test_nonbipartite_singleton_edges_zero(self):
        g = make_paw_instance().graph
        partition = singleton_partition(g, PartitionKind.EDGES)
        assert static_fair(g, UtilityModel.EDGE, partition)[0] == 0

    def test_c5_singleton_nodes_half(self):
        g = make_cycle(5)
        partition = singleton_partition(g, PartitionKind.NODES)
        value, _ = static_fair(g, UtilityModel.NODE_MAXDEG, partition)
        assert value == Fraction(1, 2)

    def test_bipartite_always_one(self):
        g = make_complete_bipartite(2, 2)
        partition = singleton_partition(g, PartitionKind.EDGES)
        assert static_fair(g, UtilityModel.EDGE, partition)[0] == 1

    def test_witness_achieves_objective(self):
        inst = make_diamond_instance()
        value, witness = static_fair(inst.graph, inst.model, inst.partition)
        assert value == Fraction(1, 2)
        assert min_group_proportion(inst.graph, inst.model, witness, inst.partition) == value

    @given(edge_instances())
    @settings(max_examples=30)
    def test_brute_force_over_all_cuts(self, inst):
        g, partition = inst
        value, _ = static_fair(g, UtilityModel.EDGE, partition)
        best = max(
            min_group_proportion(g, UtilityModel.EDGE, Cut.from_mask(mask), partition)
            for mask in range(1 << g.vertex_count)
        )
        assert value == best

    @given(edge_instances())
    @settings(max_examples=30)
    def test_single_edge_dichotomy(self, inst):
        g, _ = inst
        partition = singleton_partition(g, PartitionKind.EDGES)
        value, _ = static_fair(g, UtilityModel.EDGE, partition)
        bipartite, _ = is_bipartite(g)
        assert value == (1 if bipartite else 0)

    @given(node_instances(max_vertices=5))
    @settings(max_examples=20)
    def test_value_mode_brute_force(self, inst):
        g, partition = inst
        value, _ = static_fair(g, UtilityModel.NODE_MAXDEG, partition, Mode.VALUE)
        best = max(
            min(
                group_utility(g, UtilityModel.NODE_MAXDEG, Cut.from_mask(mask), gr)
                for gr in partition.groups
            )
            for mask in range(1 << g.vertex_count)
        )
        assert value == best


class TestPayoffMatrix:
    def test_paw_matrix_shape_and_pinned_column(self):
        inst = make_paw_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        assert matrix.group_count == 4 and matrix.column_count == 8
        # the column for the cut complementary to {0} carries (1, 0, 1, 1)
        j = column_cuts(matrix).index(Cut.of({1, 2, 3}))
        assert fraction_column(matrix, j, Mode.PROPORTION) == (1, 0, 1, 1)

    def test_diamond_rows_match_cut_table(self):
        inst = make_diamond_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        by_cut = {
            frozenset(c.members): fraction_column(matrix, j, Mode.PROPORTION)
            for j, c in enumerate(column_cuts(matrix))
        }
        half = Fraction(1, 2)
        assert by_cut[frozenset({3})] == (half, 1)
        assert by_cut[frozenset({1, 2})] == (1, 0)  # complement of {0, 3}
        assert by_cut[frozenset({1})] == (half, 0)
        assert by_cut[frozenset()] == (0, 0)

    def test_single_group_row_is_ground_proportion(self):
        g = make_cycle(4)
        from fairmaxcut.graphs import edge_groups

        partition = edge_groups(g, [frozenset(range(4))])
        matrix = build_payoff_matrix(g, UtilityModel.EDGE, partition)
        assert matrix.group_count == 1
        for j, cut in enumerate(column_cuts(matrix)):
            (entry,) = fraction_column(matrix, j, Mode.PROPORTION)
            assert entry == ground_utility(g, UtilityModel.EDGE, cut) / 4

    @given(edge_instances(max_vertices=5), node_instances(max_vertices=5))
    @example(
        (PATH_AND_ISOLATED, edge_groups(PATH_AND_ISOLATED, [{0}, {1}])),
        (PATH_AND_ISOLATED, node_groups(PATH_AND_ISOLATED, [{0, 1, 3}, {2}])),
    )
    @settings(max_examples=20)
    def test_columns_reproducible_from_stored_cuts(self, edge_inst, node_inst):
        # every model against the direct definition, isolated vertices included
        cases = [(UtilityModel.EDGE, *edge_inst)] + [
            (model, *node_inst) for model in (UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG)
        ]
        for model, g, partition in cases:
            matrix = build_payoff_matrix(g, model, partition)
            for j, cut in enumerate(column_cuts(matrix)):
                column = fraction_column(matrix, j, Mode.PROPORTION)
                for i, gr in enumerate(partition.groups):
                    assert column[i] == group_proportion(g, model, cut, gr)

    def test_value_mode_entries_bounded_by_group_size(self):
        inst = make_cycle_plus_biclique(2, 2)
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        for j in range(matrix.column_count):
            column = fraction_column(matrix, j, Mode.VALUE)
            assert all(0 <= entry <= size for entry, size in zip(column, matrix.group_sizes))

    @given(edge_instances(max_vertices=5))
    @settings(max_examples=20)
    def test_matrix_readoffs_match_direct_solvers(self, inst):
        g, partition = inst
        matrix = build_payoff_matrix(g, UtilityModel.EDGE, partition)
        for mode, max_direct in ((Mode.VALUE, max_value), (Mode.PROPORTION, max_proportion)):
            value, j = static_from_matrix(matrix, mode)
            assert static_fair(g, UtilityModel.EDGE, partition, mode) == (value, matrix.cut(j))
            value, j = max_from_matrix(matrix, mode)
            assert max_direct(g, UtilityModel.EDGE) == (value, matrix.cut(j))


@st.composite
def model_instances(draw, max_vertices=8):
    model = draw(st.sampled_from(list(UtilityModel)))
    instances = edge_instances if model is UtilityModel.EDGE else node_instances
    g, partition = draw(instances(max_vertices=max_vertices))
    return g, model, partition


def first_maximizer(cuts, score):
    """Brute force: the best score over the cuts and the first cut reaching it."""
    scores = [score(cut) for cut in cuts]
    best = max(scores)
    return best, cuts[scores.index(best)]


class TestOnePassMatrix:
    """The deduplicated integer matrix against the direct definitions."""

    @given(model_instances())
    @settings(max_examples=60, deadline=None)
    def test_distinct_columns_in_first_occurrence_order(self, case):
        g, model, partition = case
        first = {}
        for cut in canonical_cuts(g):
            column = tuple(group_utility(g, model, cut, gr) for gr in partition.groups)
            first.setdefault(column, cut)
        matrix = build_payoff_matrix(g, model, partition)
        assert [
            fraction_column(matrix, j, Mode.VALUE) for j in range(matrix.column_count)
        ] == list(first)
        assert column_cuts(matrix) == tuple(first.values())

    @given(model_instances())
    @settings(max_examples=60, deadline=None)
    def test_readoffs_match_brute_force(self, case):
        g, model, partition = case
        cuts = canonical_cuts(g)
        size = ground_set_size(g, model)
        mv, witness = first_maximizer(cuts, lambda cut: ground_utility(g, model, cut))
        matrix = build_payoff_matrix(g, model, partition)

        def with_cut(read_off):
            value, j = read_off
            return value, matrix.cut(j)

        assert max_value(g, model) == with_cut(max_from_matrix(matrix, Mode.VALUE)) == (mv, witness)
        assert max_proportion(g, model) == with_cut(max_from_matrix(matrix, Mode.PROPORTION)) == (
            mv / size,
            witness,
        )
        for mode, utility in ((Mode.VALUE, group_utility), (Mode.PROPORTION, group_proportion)):
            expected = first_maximizer(
                cuts, lambda cut: min(utility(g, model, cut, gr) for gr in partition.groups)
            )
            assert static_fair(g, model, partition, mode) == expected
            assert with_cut(static_from_matrix(matrix, mode)) == expected

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            PayoffMatrix(entries=((1, -1),), dens=(1,), group_sizes=(1,), col_masks=(0, 2))

    @pytest.mark.parametrize("masks", [(0, -2), (-1, 2), (2, -(2**63))])
    def test_rejects_negative_masks(self, masks):
        # a negative mask names no cut: Cut.from_mask refuses it too
        with pytest.raises(ValueError, match="cut masks must be non-negative"):
            PayoffMatrix(entries=((1, 0),), dens=(1,), group_sizes=(1,), col_masks=masks)

    @pytest.mark.parametrize("masks, refused", [
        ((0, 2, 4), False),  # increasing, as build_payoff_matrix makes them
        ((4, 0, 2), False),  # not increasing, and sorted to be checked
        ((0, 2, 2), True),
        ((4, 2, 4), True),  # the repeat is not adjacent
        ((2, 0, 0), True),
    ])
    def test_rejects_repeated_masks(self, masks, refused):
        # two columns of one cut would put that cut twice in a distribution
        entries = ((1, 0, 2), (0, 1, 2))
        if refused:
            with pytest.raises(ValueError, match="cut masks must be pairwise distinct"):
                PayoffMatrix(entries=entries, dens=(1, 1), group_sizes=(1, 1), col_masks=masks)
        else:
            matrix = PayoffMatrix(entries=entries, dens=(1, 1), group_sizes=(1, 1), col_masks=masks)
            assert matrix.col_masks.tolist() == list(masks)

    def test_entries_are_a_read_only_int64_array(self):
        matrix = PayoffMatrix(
            entries=[[1, 0, 2], [0, 1, 2]], dens=(1, 1), group_sizes=(1, 1), col_masks=(0, 2, 4)
        )
        for array, shape in ((matrix.entries, (2, 3)), (matrix.col_masks, (3,))):
            assert array.dtype == np.int64 and array.shape == shape
            assert array.flags.c_contiguous and not array.flags.writeable
        assert (matrix.cut(0), matrix.cut(2)) == (Cut.of(()), Cut.of({2}))

    @pytest.mark.parametrize("entries, masks", [
        (((1, 0, 1), (0, 1, 0)), (0, 2, 4)),  # columns 0 and 2 repeat
        (((1, 0), (0, 1)), (0, 2, 4)),  # one mask too many
        ((1, 0, 2), (0, 2, 4)),  # not group-by-column
    ])
    def test_rejects_repeated_or_unpaired_columns(self, entries, masks):
        # the constructor refuses unpaired columns; repeated ones break
        # build_payoff_matrix's contract, which the test-side validator checks
        with pytest.raises(ValueError):
            distinct_columns(
                PayoffMatrix(entries=entries, dens=(1, 1), group_sizes=(1, 1), col_masks=masks)
            )

    @pytest.mark.parametrize("entries, masks, distinct", [
        (((1, 0, 1), (0, 1, 1)), (0, 2, 4), True),
        (((), ()), (), True),  # no column
        (((5,), (0,)), (0,), True),  # one column
        (((3, 3),), (0, 2), False),  # one group
        (np.zeros((0, 2), dtype=np.int64), (0, 2), False),  # no group: two empty columns
        (np.zeros((0, 1), dtype=np.int64), (0,), True),  # no group, one column
    ])
    def test_distinct_columns_validator_edges(self, entries, masks, distinct):
        # distinct_columns at the edges of the matrix shape
        matrix = PayoffMatrix(
            entries=entries, dens=(1,) * len(entries), group_sizes=(1,) * len(entries),
            col_masks=masks,
        )
        if distinct:
            assert distinct_columns(matrix) is matrix
        else:
            with pytest.raises(ValueError, match="distinct"):
                distinct_columns(matrix)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _outcome(build, g, model, partition):
    """A build's matrix, or the type and message of what it raised."""
    try:
        return build(g, model, partition)
    except (DegreeZeroError, ModelMismatchError) as exc:
        return type(exc), str(exc)


@st.composite
def any_partition_cases(draw):
    """n = 1..10, edgeless graphs included, any model, random groups.  When the
    model's ground set is empty (an edge model without edges, every n = 1
    graph among them) a node partition stands in, which both builds refuse;
    n = 0 has no partition of either kind."""
    g = draw(graphs(min_vertices=1, max_vertices=10))
    model = draw(st.sampled_from(list(UtilityModel)))
    kind = model.partition_kind
    if ground_set_size(g, model) == 0:
        kind = PartitionKind.NODES
    return g, model, draw(partitions_for(g, kind))


# column kinds for the deduplication tests: the values a column draws from
FIRST_ROWS_COLUMNS = {
    "bit": st.integers(0, 1),
    "small": st.integers(0, 60),
    "zero": st.just(0),
    "near 2**62": st.sampled_from([0, 2**62 - 1, 2**62, 2**62 + 1]),
    "any": st.integers(0, 2**63 - 1),
}


@st.composite
def first_rows_cases(draw):
    """Non-negative int64 arrays of 1..40 rows drawn from a few distinct
    template rows, so rows repeat, with 1..140 columns of mixed kinds (more
    than 63 bit columns span several words), in C or Fortran order (the
    enumeration pass hands over Fortran-ordered blocks)."""
    kinds = draw(st.lists(st.sampled_from(sorted(FIRST_ROWS_COLUMNS)), min_size=1, max_size=140))
    templates = draw(st.lists(
        st.tuples(*(FIRST_ROWS_COLUMNS[kind] for kind in kinds)), min_size=1, max_size=5
    ))
    picks = draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=40))
    order = draw(st.sampled_from("CF"))
    return np.array([templates[i] for i in picks], dtype=np.int64, order=order)


def _bits_differing_in_last_column(columns: int) -> np.ndarray:
    rows = np.ones((4, columns), dtype=np.int64)
    rows[1::2, -1] = 0
    return rows


class TestFirstRowsAgainstOracle:
    """``_first_rows`` (packed words) against the per-column lexsort it replaced."""

    @given(first_rows_cases())
    @example(_bits_differing_in_last_column(64))  # the last column is a word's only digit
    @example(_bits_differing_in_last_column(130))  # three words
    @example(np.array([[2**62, 2**62 + 1], [2**62, 2**62], [2**62, 2**62 + 1]], dtype=np.int64))
    @example(np.array([[2**63 - 1, 0, 1], [2**63 - 1, 0, 0], [0, 0, 1]], dtype=np.int64))
    # one word of span 257 * 256, just past 16 bits: row 1's word is 2**16
    @example(np.array([[0, 0], [1, 255], [256, 255], [0, 0]], dtype=np.int64))
    @example(np.zeros((5, 3), dtype=np.int64))  # all-zero columns
    @example(np.array([[7, 0, 2**62]], dtype=np.int64))  # a single row
    @example(np.tile(np.array([1, 2**62, 0, 1], dtype=np.int64), (6, 1)))  # all rows equal
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, rows):
        assert_same_array(_first_rows(rows), lexsort_first_rows(rows))


class TestEnumerationColumnsDistinct:
    """Pairwise distinct columns are ``build_payoff_matrix``'s contract, which
    the constructor does not check, so they are checked against the
    per-column lexsort oracle here, past one block of canonical cuts too."""

    @given(
        st.sampled_from(list(UtilityModel)),
        st.integers(2, 15),
        st.sampled_from([0.3, 0.5, 0.7, 1.0]),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_are_pairwise_distinct(self, model, n, edge_prob, gamma, seed):
        inst = random_instance(
            n, edge_prob, min(gamma, n - 1), model.partition_kind, seed, model=model
        )
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        assert len(lexsort_first_rows(matrix.entries.T)) == matrix.column_count


class TestBlockPassAgainstOracle:
    """``build_payoff_matrix`` against the per-cut Python loop it replaced."""

    @given(any_partition_cases())
    @example((Graph(1, ()), UtilityModel.NODE_OWNDEG, node_groups(Graph(1, ()), [{0}])))
    @example((Graph(1, ()), UtilityModel.EDGE, node_groups(Graph(1, ()), [{0}])))
    @example((Graph(3, ()), UtilityModel.NODE_MAXDEG, node_groups(Graph(3, ()), [{0, 2}, {1}])))
    @example((PATH_AND_ISOLATED, UtilityModel.NODE_OWNDEG,
              node_groups(PATH_AND_ISOLATED, [{3}, {0, 1, 2}])))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, case):
        g, model, partition = case
        got = _outcome(build_payoff_matrix, g, model, partition)
        want = _outcome(python_payoff_matrix, g, model, partition)
        if isinstance(want, PayoffMatrix):
            assert_same_array(got.entries, want.entries)
            assert got.dens == want.dens
            assert got.group_sizes == want.group_sizes
            assert_same_array(got.col_masks, want.col_masks)
            assert column_cuts(got) == column_cuts(want)
        else:
            assert got == want

    def test_own_degree_weights_past_a_byte(self):
        # degrees 9, 8, 7 and 5 in one group: lcm 2520, so edge weights
        # 2520/deg reach 504 and a popcount times a weight overflows uint8
        g = Graph(10, tuple(
            [(0, v) for v in range(1, 10)]
            + [(1, v) for v in range(2, 9)]
            + [(2, v) for v in range(3, 8)]
            + [(3, v) for v in (4, 5)]
        ))
        assert [g.degree(v) for v in range(4)] == [9, 8, 7, 5]
        partition = node_groups(g, [{0, 1, 2, 3}, set(range(4, 10))])
        weights, _ = group_weights(g, UtilityModel.NODE_OWNDEG, partition.groups)
        assert max(weights[0].values()) >= 256
        assert build_payoff_matrix(g, UtilityModel.NODE_OWNDEG, partition) == python_payoff_matrix(
            g, UtilityModel.NODE_OWNDEG, partition
        )

    @pytest.mark.parametrize("groups", [3, 66])
    def test_more_than_64_edges(self, groups):
        # K_12 has 66 edges: the crossing set spans two uint64 words
        g = Graph(12, tuple(combinations(range(12), 2)))
        partition = edge_groups(g, [range(i, 66, groups) for i in range(groups)])
        matrix = build_payoff_matrix(g, UtilityModel.EDGE, partition)
        assert matrix == python_payoff_matrix(g, UtilityModel.EDGE, partition)
        if groups == g.edge_count:  # singleton groups: a column is the crossing set
            assert matrix.column_count == canonical_cut_count(g.vertex_count)

    @pytest.mark.parametrize(
        "model, kind", [(UtilityModel.EDGE, PartitionKind.EDGES),
                        (UtilityModel.NODE_OWNDEG, PartitionKind.NODES)]
    )
    def test_columns_repeat_across_blocks(self, model, kind):
        # n = 15: four blocks of 2**12 canonical cuts
        g = make_cycle(15)
        ground = ground_set_size(g, model)
        partition = GroupPartition(kind, (range(0, ground, 2), range(1, ground, 2)), ground)
        matrix = build_payoff_matrix(g, model, partition)
        assert matrix == python_payoff_matrix(g, model, partition)
        block = 1 << _BLOCK_BITS
        firsts = [c.mask() >> 1 for c in column_cuts(matrix)]
        assert canonical_cut_count(g.vertex_count) == 4 * block
        # some columns first appear in block 1, and far fewer columns than cuts
        # means most repeat in later blocks
        assert any(block <= c < 2 * block for c in firsts)
        assert matrix.column_count < block

    def test_numerator_bound_refused_before_enumeration(self):
        # own-degree hubs of every prime degree up to 53 over 53 leaves: the
        # hub group's denominator is the primes' product (above 2**64), and
        # its largest numerator is 16 times that; enumerating 2**68 cuts
        # would not fit in memory, so the refusal must come first
        primes = [p for p in range(2, 54) if all(p % q for q in range(2, p))]
        hubs = range(53, 53 + len(primes))
        g = Graph(53 + len(primes), tuple((leaf, hub) for hub, p in zip(hubs, primes)
                                         for leaf in range(p)))
        partition = node_groups(g, [range(53), hubs])
        bound = len(primes) * prod(primes)
        with pytest.raises(TooLargeError) as info:
            build_payoff_matrix(g, UtilityModel.NODE_OWNDEG, partition, limit=g.vertex_count)
        assert str(info.value) == (
            f"group utility numerators reach {bound}; exact enumeration needs them below 2**63"
        )

    def test_memory_budget_refused_before_enumeration(self):
        # the 23-cycle with singleton edge groups is within the default
        # limit, but its pass could keep more than MAX_SOLVE_BYTES
        g = make_cycle(23)
        with pytest.raises(TooLargeError) as info:
            build_payoff_matrix(g, UtilityModel.EDGE, singleton_partition(g, PartitionKind.EDGES))
        assert str(info.value) == (
            f"solving 23 vertices and 23 groups could keep {3 * 8 * 23 << 22} bytes of payoff "
            f"columns; the limit is {MAX_SOLVE_BYTES}"
        )
