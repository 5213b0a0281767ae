"""Exact maximin LP: worked values, certificates, and structural properties."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmaxcut.exact import Mode, PayoffMatrix, build_payoff_matrix
from fairmaxcut.families import (
    make_clique_with_tail,
    make_complete_bipartite,
    make_cycle,
    make_diamond_instance,
    make_odd_cycle_instance,
    make_paw_instance,
    singleton_partition,
)
from fairmaxcut.graphs import Cut, PartitionKind, edge_groups
from fairmaxcut.heuristics import evaluate_distribution
from fairmaxcut.maximin import (
    CutDistribution,
    _CertificateError,
    _check_certificate,
    _Master,
    _simplex_maximin,
    df_fair,
    solve_maximin,
)
from fairmaxcut.utility import UtilityModel

from .strategies import edge_instances, node_instances


def matrix_from_rows(rows, group_sizes=None) -> PayoffMatrix:
    """Ad-hoc integer payoff matrix over dummy cuts for pure LP tests; every
    denominator is 1.  So is every group size unless given, and then both
    modes read the same entries."""
    k = len(rows[0])
    return PayoffMatrix(
        entries=tuple(tuple(row) for row in rows),
        dens=tuple(1 for _ in rows),
        group_sizes=group_sizes or tuple(1 for _ in rows),
        col_cuts=tuple(Cut.of({j + 1}) for j in range(k)),
    )


def simplex_grid_best(rows, denominator: int) -> Fraction:
    """Oracle: best min-row payoff over all grid distributions p with the
    given denominator.  A lower bound on the LP optimum."""
    k = len(rows[0])
    best = Fraction(-1)
    for combo in combinations_with_replacement(range(k), denominator):
        counts = [0] * k
        for j in combo:
            counts[j] += 1
        value = min(
            sum(Fraction(row[j]) * counts[j] for j in range(k)) / denominator for row in rows
        )
        best = max(best, value)
    return best


def mode_columns(matrix: PayoffMatrix, mode: Mode) -> dict[tuple[Fraction, ...], int]:
    """Each payoff column over the mode's denominators mapped to its index."""
    return {matrix.column(j, mode): j for j in range(matrix.column_count)}


def assert_matches_dense_oracle(matrix: PayoffMatrix, sol, mode: Mode = Mode.PROPORTION) -> None:
    """The solution against Bland's simplex over every column, and its
    support against Bland's simplex over the columns tight at its duals."""
    gamma = matrix.group_count
    first = mode_columns(matrix, mode)
    dense_value, _, _ = _simplex_maximin(list(first), gamma)
    assert sol.value == dense_value
    assert len(sol.support) <= gamma + 1

    tight = [
        col for col in first if sum(q * c for q, c in zip(sol.dual_weights, col)) == sol.value
    ]
    tight_value, probs, _ = _simplex_maximin(tight, gamma)
    assert tight_value == sol.value
    expected = [(first[col], p) for col, p in zip(tight, probs) if p > 0]
    assert sol.support == tuple(j for j, _ in expected)
    assert sol.distribution.entries == tuple((matrix.col_cuts[j], p) for j, p in expected)


@st.composite
def maximin_instances(draw, max_vertices=8):
    if draw(st.booleans()):
        g, partition = draw(edge_instances(max_vertices=max_vertices))
        model = UtilityModel.EDGE
    else:
        g, partition = draw(node_instances(max_vertices=max_vertices))
        model = draw(st.sampled_from([UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG]))
    return g, model, partition, draw(st.sampled_from(list(Mode)))


class TestSolveMaximin:
    def test_paw_value(self):
        inst = make_paw_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        assert solve_maximin(matrix).value == Fraction(2, 3)

    def test_diamond_value_and_feasibility(self):
        inst = make_diamond_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        sol = solve_maximin(matrix)
        assert sol.value == Fraction(2, 3)
        assert sum(p for _, p in sol.distribution.entries) == 1
        score = evaluate_distribution(inst.graph, inst.model, inst.partition, sol.distribution)
        assert score.minimum == sol.value

    def test_identity_matrix_uniform(self):
        for gamma in (2, 3, 4):
            rows = [[1 if i == j else 0 for j in range(gamma)] for i in range(gamma)]
            sol = solve_maximin(matrix_from_rows(rows))
            assert sol.value == Fraction(1, gamma)
            assert all(p == Fraction(1, gamma) for _, p in sol.distribution.entries)

    def test_identity_matrix_beats_simplex_grid_oracle(self):
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        sol = solve_maximin(matrix_from_rows(rows))
        grid = simplex_grid_best(rows, denominator=6)
        assert grid <= sol.value
        assert grid == sol.value  # the uniform point lies on the grid

    def test_zero_row_gives_zero_value(self):
        sol = solve_maximin(matrix_from_rows([[0, 0], [1, 2]]))
        assert sol.value == 0
        # certificate still exact: all dual mass on the zero row
        assert sol.dual_weights[0] == 1

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            solve_maximin(matrix_from_rows([[1, -1]]))

    def test_column_permutation_preserves_value(self):
        inst = make_paw_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        k = matrix.column_count
        perm = list(reversed(range(k)))
        permuted = PayoffMatrix(
            entries=tuple(tuple(row[j] for j in perm) for row in matrix.entries),
            dens=matrix.dens,
            group_sizes=matrix.group_sizes,
            col_cuts=tuple(matrix.col_cuts[j] for j in perm),
        )
        a, b = solve_maximin(matrix), solve_maximin(permuted)
        assert a.value == b.value

    @given(edge_instances(max_vertices=6))
    @settings(max_examples=25, deadline=None)
    def test_support_size_and_certificate(self, inst):
        g, partition = inst
        matrix = build_payoff_matrix(g, UtilityModel.EDGE, partition)
        sol = solve_maximin(matrix)  # raises internally if the certificate fails
        assert len(sol.support) <= partition.group_count + 1
        assert sum(sol.dual_weights) == 1
        # primal tightness: some group sits exactly at the optimum
        score = evaluate_distribution(g, UtilityModel.EDGE, partition, sol.distribution)
        assert score.minimum == sol.value
        assert all(v >= sol.value for v in score.per_group)

    @given(maximin_instances())
    @settings(max_examples=100, deadline=None)
    def test_column_generation_matches_dense_oracle(self, case):
        g, model, partition, mode = case
        matrix = build_payoff_matrix(g, model, partition)
        sol = solve_maximin(matrix, mode)
        assert_matches_dense_oracle(matrix, sol, mode)
        score = evaluate_distribution(g, model, partition, sol.distribution)
        per_group = [
            s * (len(gr) if mode is Mode.VALUE else 1)
            for s, gr in zip(score.per_group, partition.groups)
        ]
        assert min(per_group) == sol.value

    @pytest.mark.parametrize(
        "rows, value",
        [
            ([[1], [2], [3]], 1),  # one column
            ([[1, 3, 2]], 3),  # one group
            ([[1, 0], [0, 1]], Fraction(1, 2)),  # two pure strategies mix evenly
            ([[0, 0, 0], [1, 2, 3]], 0),  # zero row: every column is tight
        ],
    )
    def test_fixed_cases_match_dense_oracle(self, rows, value):
        matrix = matrix_from_rows(rows)
        sol = solve_maximin(matrix)
        assert sol.value == value
        assert_matches_dense_oracle(matrix, sol)

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError):
            matrix_from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])

    def test_modes_share_one_matrix(self):
        # value-mode and proportion-mode solves read the same integer entries
        inst = make_diamond_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        for mode in Mode:
            direct = df_fair(inst.graph, inst.model, inst.partition, mode)
            assert solve_maximin(matrix, mode) == direct

    @pytest.mark.parametrize("kind, solves, pivots", [
        (PartitionKind.EDGES, 29, 49),
        (PartitionKind.NODES, 18, 35),
    ])
    def test_work_counters_on_the_9_cycle(self, kind, solves, pivots):
        inst = make_odd_cycle_instance(9, kind)
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        for mode in Mode:
            sol = solve_maximin(matrix, mode)
            assert (sol.master_solves, sol.pivots) == (solves, pivots)

    def test_degenerate_dual_keeps_value_and_support(self):
        # verify-small-387-s1 (edge model, proportion mode): its optimal dual
        # is not unique, and a master re-solved from scratch at every step
        # ends at cold_duals while the warm-started one ends elsewhere
        rows = [
            [0, 1, 1, 2, 0, 1, 1, 2, 3, 2, 1, 3, 2, 2, 1, 2, 2, 3, 1, 2, 2, 3, 1, 1, 0, 2, 1, 0],
            [0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            [0, 1, 0, 1, 1, 2, 1, 2, 1, 2, 2, 0, 1, 0, 0, 1, 0, 1, 1, 2, 1, 2, 2, 1, 2, 0, 0, 1],
            [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1],
        ]
        cold_duals = (Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(1, 6))
        matrix = matrix_from_rows(rows, group_sizes=(3, 2, 2, 1))
        sol = solve_maximin(matrix, Mode.PROPORTION)
        assert sol.value == Fraction(5, 6)
        assert sol.support == (7, 11, 21)
        for duals in (sol.dual_weights, cold_duals):
            assert_matches_dense_oracle(matrix, replace(sol, dual_weights=duals))
            _check_certificate(
                matrix, Mode.PROPORTION, sol.value, sol.distribution, duals, sol.support
            )


@st.composite
def integer_columns(draw):
    gamma = draw(st.integers(1, 5))
    column = st.tuples(*[st.integers(0, 6)] * gamma)
    return gamma, draw(st.lists(column, min_size=1, max_size=40))


@given(integer_columns())
@settings(max_examples=100, deadline=None)
def test_warm_master_matches_cold_master(case):
    """Columns added one at a time to the warm master: after each
    re-optimization its value is the cold master's over the same columns,
    and its duals are a probability vector pricing every column at or below
    that value."""
    gamma, int_cols = case
    cols = [tuple(map(Fraction, col)) for col in int_cols]
    master = _Master(cols[0], gamma)
    for k in range(1, len(cols) + 1):
        if k > 1:
            master.add(cols[k - 1])
        value, duals = master.value(), master.duals()
        assert value == _simplex_maximin(cols[:k], gamma)[0]
        assert all(q >= 0 for q in duals) and sum(duals) == 1
        assert all(sum(map(mul, duals, col)) <= value for col in cols[:k])
    assert master.solves == len(cols)


class TestCertificate:
    """The certificate recheck rejects a dual or a distribution that is off."""

    @staticmethod
    def paw():
        inst = make_paw_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        return matrix, solve_maximin(matrix)

    def test_accepts_the_solution(self):
        matrix, sol = self.paw()
        _check_certificate(
            matrix, Mode.PROPORTION, sol.value, sol.distribution, sol.dual_weights, sol.support
        )

    def test_rejects_shifted_dual(self):
        # the point mass on (1, 1) is optimal with value 1; the shifted dual
        # still prices that support column at 1 but prices column 0 above it
        matrix = matrix_from_rows([[2, 0, 1], [0, 2, 1]])
        dist = CutDistribution.point_mass(matrix.col_cuts[2])
        half, shift = Fraction(1, 2), Fraction(1, 1000)
        _check_certificate(matrix, Mode.PROPORTION, Fraction(1), dist, (half, half), (2,))
        with pytest.raises(_CertificateError):
            _check_certificate(
                matrix, Mode.PROPORTION, Fraction(1), dist, (half + shift, half - shift), (2,)
            )

    def test_rejects_probability_moved_off_its_cut(self):
        matrix, sol = self.paw()
        (_, p), *rest = sol.distribution.entries
        outside = next(c for c in matrix.col_cuts if c not in sol.distribution.support)
        moved = CutDistribution(((outside, p), *rest))
        with pytest.raises(_CertificateError):
            _check_certificate(
                matrix, Mode.PROPORTION, sol.value, moved, sol.dual_weights, sol.support
            )

    def test_rejects_probability_moved_between_support_cuts(self):
        matrix, sol = self.paw()
        shift = Fraction(1, 1000)
        (a, p), (b, q), *rest = sol.distribution.entries
        moved = CutDistribution(((a, p + shift), (b, q - shift), *rest))
        with pytest.raises(_CertificateError):
            _check_certificate(
                matrix, Mode.PROPORTION, sol.value, moved, sol.dual_weights, sol.support
            )


class TestDfFair:
    def test_c5_singleton_edges(self):
        g = make_cycle(5)
        partition = singleton_partition(g, PartitionKind.EDGES)
        assert df_fair(g, UtilityModel.EDGE, partition).value == Fraction(4, 5)

    def test_c11_singleton_edges(self):
        g = make_cycle(11)
        partition = singleton_partition(g, PartitionKind.EDGES)
        assert df_fair(g, UtilityModel.EDGE, partition).value == Fraction(10, 11)

    def test_clique_tail_families(self):
        for n in (6, 10, 14):
            inst = make_clique_with_tail(2, n)
            assert df_fair(inst.graph, inst.model, inst.partition).value == Fraction(2, 3)

    def test_bipartite_edge_partitions_reach_one(self):
        g = make_complete_bipartite(2, 2)
        partition = edge_groups(g, [frozenset({0, 3}), frozenset({1, 2})])
        assert df_fair(g, UtilityModel.EDGE, partition).value == 1

    def test_distribution_is_over_real_cuts(self):
        inst = make_diamond_instance()
        sol = df_fair(inst.graph, inst.model, inst.partition)
        for cut, _ in sol.distribution.entries:
            cut.validate_for(inst.graph)
            assert 0 not in cut.members  # canonical columns

    @given(node_instances(max_vertices=6))
    @settings(max_examples=20, deadline=None)
    def test_node_degree_cap(self, inst):
        from fairmaxcut.graphs import max_degree

        g, partition = inst
        sol = df_fair(g, UtilityModel.NODE_MAXDEG, partition)
        delta = max_degree(g)
        cap = min(
            Fraction(sum(g.degree(v) for v in gr), len(gr) * delta) for gr in partition.groups
        )
        assert sol.value <= cap


def test_df_fair_propagates_enumeration_limit():
    import pytest as _pytest

    from fairmaxcut.errors import TooLargeError

    g = make_cycle(6)
    partition = singleton_partition(g, PartitionKind.EDGES)
    with _pytest.raises(TooLargeError):
        df_fair(g, UtilityModel.EDGE, partition, limit=5)


class TestCutDistribution:
    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            CutDistribution(((Cut.of({0}), Fraction(1, 2)),))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CutDistribution(
                ((Cut.of({0}), Fraction(3, 2)), (Cut.of({1}), Fraction(-1, 2)))
            )

    def test_merges_duplicates(self):
        dist = CutDistribution.from_pairs(
            [(Cut.of({0}), Fraction(1, 2)), (Cut.of({0}), Fraction(1, 2))]
        )
        assert dist.entries == ((Cut.of({0}), Fraction(1)),)
