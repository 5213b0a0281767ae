"""Exact maximin LP: worked values, certificates, and structural properties."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

import pytest
from hypothesis import example, given, settings
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
    _Tableau,
    df_fair,
    proportion_from_value,
    solve_maximin,
)
from fairmaxcut.utility import UtilityModel

from .fraction_certificate import _check_certificate as fraction_check_certificate
from .fraction_simplex import _bland, _simplex_maximin, _tableau, fraction_column
from .python_payoff import column_cuts
from .python_readoff import python_solve_maximin, tableau_primal
from .strategies import edge_instances, node_instances


def matrix_from_rows(rows, group_sizes=None) -> PayoffMatrix:
    """Ad-hoc integer payoff matrix over dummy cuts for pure LP tests; every
    denominator is 1.  So is every group size unless given, and then both
    modes read the same entries."""
    k = len(rows[0])
    return PayoffMatrix(
        entries=rows,
        dens=tuple(1 for _ in rows),
        group_sizes=group_sizes or tuple(1 for _ in rows),
        col_masks=[1 << (j + 1) for j in range(k)],
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
    return {fraction_column(matrix, j, mode): j for j in range(matrix.column_count)}


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
    assert sol.distribution.entries == tuple((matrix.cut(j), p) for j, p in expected)


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
            entries=matrix.entries[:, perm],
            dens=matrix.dens,
            group_sizes=matrix.group_sizes,
            col_masks=matrix.col_masks[perm],
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


class TestNoGrowth:
    """When no column enters the master, ``solve_maximin`` skips the cold
    re-solve over the tight columns and reports the point mass on the start
    column; ``python_solve_maximin`` still runs that re-solve."""

    @pytest.mark.parametrize("rows, value, start, tight", [
        pytest.param([[1, 3, 2]], 3, 1, (1,), id="one group"),
        pytest.param([[2, 2, 2, 1], [5, 3, 4, 9]], 2, 0, (0, 1, 2), id="tie in the binding row"),
        pytest.param([[2, 1], [2, 5]], 2, 0, (0,), id="tie for the binding row"),
        pytest.param([[3, 3], [1, 4]], 3, 1, (0, 1), id="start after the first tight column"),
    ])
    def test_point_mass_on_the_start_column(self, rows, value, start, tight):
        matrix = matrix_from_rows(rows)
        sol = solve_maximin(matrix)
        assert sol.master_solves == 1  # no column entered
        assert sol.value == value
        assert tuple(
            j for j, col in enumerate(zip(*rows))
            if sum(q * c for q, c in zip(sol.dual_weights, col)) == value
        ) == tight
        assert sol.support == (start,)
        assert sol.distribution == CutDistribution.point_mass(matrix.cut(start))
        assert_matches_dense_oracle(matrix, sol)
        assert sol == python_solve_maximin(matrix)


@st.composite
def integer_columns(draw, max_columns=40):
    gamma = draw(st.integers(1, 5))
    column = st.tuples(*[st.integers(0, 6)] * gamma)
    return gamma, draw(st.lists(column, min_size=1, max_size=max_columns))


@given(integer_columns())
@settings(max_examples=100, deadline=None)
def test_warm_master_matches_cold_master(case):
    """Columns added one at a time to the warm master: after each
    re-optimization its value is the Fraction oracle's over the same
    columns, and its duals are a probability vector pricing every column at
    or below that value."""
    gamma, int_cols = case
    cols = [tuple(map(Fraction, col)) for col in int_cols]
    master = _Tableau(int_cols[:1], 1)
    for k in range(1, len(cols) + 1):
        if k > 1:
            master.add(int_cols[k - 1])
        value, duals = tableau_primal(master)[0], master.duals()
        assert value == _simplex_maximin(cols[:k], gamma)[0]
        assert all(q >= 0 for q in duals) and sum(duals) == 1
        assert all(sum(map(mul, duals, col)) <= value for col in cols[:k])
    assert master.solves == len(cols)


def assert_matches_fraction_oracle(int_cols, den: int) -> None:
    """The cold integer tableau over ``int_cols`` read over ``den`` against
    the Fraction simplex over the columns divided by ``den``: the same value,
    probabilities, duals and pivot count."""
    gamma = len(int_cols[0])
    cols = [tuple(Fraction(x, den) for x in col) for col in int_cols]
    value, probs, duals = _simplex_maximin(cols, gamma)
    pivots = _bland(*_tableau(cols, gamma))
    tableau = _Tableau(int_cols, den)
    assert tableau_primal(tableau) == [value, *probs]
    assert tableau.duals() == duals
    assert (tableau.solves, tableau.pivots) == (1, pivots)


@given(integer_columns(max_columns=30), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_integer_tableau_matches_fraction_oracle(case, den):
    _, int_cols = case
    assert_matches_fraction_oracle(int_cols, den)


def test_integer_tableau_matches_fraction_oracle_on_multiword_entries():
    # entries near 2**40 make the products in each exact division span
    # several machine words
    big = 1 << 40
    int_cols = [
        (big + 3, big - 5, 7),
        (big - 1, 11, big + 2),
        (13, big + 1, big - 3),
        (big // 2, big // 3, big // 5),
    ]
    assert_matches_fraction_oracle(int_cols, 12)


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
        dist = CutDistribution.point_mass(matrix.cut(2))
        half, shift = Fraction(1, 2), Fraction(1, 1000)
        _check_certificate(matrix, Mode.PROPORTION, Fraction(1), dist, (half, half), (2,))
        with pytest.raises(_CertificateError):
            _check_certificate(
                matrix, Mode.PROPORTION, Fraction(1), dist, (half + shift, half - shift), (2,)
            )

    def test_rejects_probability_moved_off_its_cut(self):
        matrix, sol = self.paw()
        (_, p), *rest = sol.distribution.entries
        outside = next(c for c in column_cuts(matrix) if c not in sol.distribution.support)
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


    def test_rejects_a_distribution_that_does_not_sum_to_one(self):
        # built past CutDistribution's own validation: twice the optimal
        # lottery lifts every group above the value, while the duals still
        # certify it, so only the primal side's tight group catches it
        matrix, sol = self.paw()
        doubled = object.__new__(CutDistribution)
        entries = tuple((c, 2 * p) for c, p in sol.distribution.entries)
        object.__setattr__(doubled, "entries", entries)
        for check in (_check_certificate, fraction_check_certificate):
            with pytest.raises(_CertificateError):
                check(
                    matrix, Mode.PROPORTION, sol.value, doubled, sol.dual_weights, sol.support
                )

    @pytest.mark.parametrize(
        "duals",
        [
            (Fraction(1, 2),) * 3,  # one weight short
            (Fraction(1, 4),) * 4 + (Fraction(0),),  # one weight too many
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 5)),  # sums to 19/20
            (Fraction(3, 4), Fraction(1, 2), Fraction(0), Fraction(-1, 4)),  # a negative weight
        ],
    )
    def test_rejects_duals_that_are_not_a_probability_vector(self, duals):
        matrix, sol = self.paw()
        for check in (_check_certificate, fraction_check_certificate):
            with pytest.raises(_CertificateError, match="probability vector"):
                check(matrix, Mode.PROPORTION, sol.value, sol.distribution, duals, sol.support)

    def test_rejects_a_value_off_by_2_to_the_minus_80(self):
        # entries near 2**40 and group sizes 1-3: the value's denominator and
        # the cross-multiplied sums span several machine words, and a value
        # off by far less than a float's precision must still be rejected
        big = 1 << 40
        rows = [
            [big + 3, big - 5, 7, big // 2],
            [big - 1, 11, big + 2, big // 3],
            [13, big + 1, big - 3, big // 5],
        ]
        matrix = matrix_from_rows(rows, group_sizes=(1, 2, 3))
        off = Fraction(1, 1 << 80)
        for mode in Mode:
            sol = solve_maximin(matrix, mode)
            rest = (sol.distribution, sol.dual_weights, sol.support)
            fraction_check_certificate(matrix, mode, sol.value, *rest)
            for value in (sol.value + off, sol.value - off):
                for check in (_check_certificate, fraction_check_certificate):
                    with pytest.raises(_CertificateError):
                        check(matrix, mode, value, *rest)


@st.composite
def certificate_matrices(draw):
    """Up to 5 groups and 30 distinct columns with entries 0-6, over group
    sizes 1-4 and denominators 1-3, so the denominators of both modes differ
    between groups."""
    gamma = draw(st.integers(1, 5))
    column = st.tuples(*[st.integers(0, 6)] * gamma)
    cols = draw(st.lists(column, min_size=1, max_size=30, unique=True))
    return PayoffMatrix(
        entries=tuple(zip(*cols)),
        dens=draw(st.tuples(*[st.integers(1, 3)] * gamma)),
        group_sizes=draw(st.tuples(*[st.integers(1, 4)] * gamma)),
        col_masks=[1 << (j + 1) for j in range(len(cols))],
    )


def perturbed_certificates(matrix: PayoffMatrix, sol, data):
    """The solution's certificate (value, distribution, duals, support), then
    the same with the value moved by 1/10**6, dual mass moved between two
    groups, probability moved between two support cuts, and one support cut
    swapped for an outside cut (in the support and the distribution, or in
    the distribution only)."""
    value, dist, duals, support = sol.value, sol.distribution, sol.dual_weights, sol.support
    eps = Fraction(1, 10**6)
    yield value, dist, duals, support
    yield value + eps, dist, duals, support
    yield value - eps, dist, duals, support
    if len(duals) > 1:
        a, b = data.draw(two_indices(len(duals)))
        for shift in (eps, duals[a] / 2, duals[a]):
            moved = list(duals)
            moved[a] -= shift
            moved[b] += shift
            yield value, dist, tuple(moved), support
    entries = dist.entries
    if len(entries) > 1:
        a, b = data.draw(two_indices(len(entries)))
        for shift in (eps * entries[a][1], entries[a][1] / 2, entries[a][1]):
            moved = list(entries)
            moved[a] = (moved[a][0], moved[a][1] - shift)
            moved[b] = (moved[b][0], moved[b][1] + shift)
            yield value, CutDistribution(tuple(moved)), duals, support
    outside = [j for j in range(matrix.column_count) if j not in support]
    if outside:
        o = data.draw(st.sampled_from(outside))
        a = data.draw(st.integers(0, len(support) - 1))
        cut = matrix.cut(support[a])
        swapped = CutDistribution(tuple((matrix.cut(o) if c == cut else c, p) for c, p in entries))
        yield value, swapped, duals, support[:a] + (o,) + support[a + 1 :]
        yield value, swapped, duals, support


def two_indices(n: int):
    return st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)


def rejects(check, matrix: PayoffMatrix, mode: Mode, certificate) -> bool:
    try:
        check(matrix, mode, *certificate)
    except _CertificateError:
        return True
    return False


@given(certificate_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_certificate_matches_fraction_oracle(matrix, data):
    """The integer check rejects exactly the certificates the Fraction oracle
    rejects: the solution's in both modes, and its perturbations."""
    for mode in Mode:
        sol = solve_maximin(matrix, mode)
        certificates = list(perturbed_certificates(matrix, sol, data))
        verdicts = [
            (rejects(_check_certificate, matrix, mode, c),
             rejects(fraction_check_certificate, matrix, mode, c))
            for c in certificates
        ]
        assert all(a == b for a, b in verdicts), (mode, certificates, verdicts)
        assert verdicts[:3] == [(False, False), (True, True), (True, True)]


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


class TestProportionFromValue:
    """The proportion-mode optimum derived from the value-mode one when every
    group has one size s (here the 9-cycle in three edge groups of 3)."""

    @staticmethod
    def matrix(groups=((0, 1, 2), (3, 4, 5), (6, 7, 8))):
        g = make_cycle(9)
        partition = edge_groups(g, [frozenset(gr) for gr in groups])
        return build_payoff_matrix(g, UtilityModel.EDGE, partition)

    def test_equals_the_direct_solve_with_zero_counters(self):
        matrix = self.matrix()
        derived = proportion_from_value(matrix, solve_maximin(matrix, Mode.VALUE))
        direct = solve_maximin(matrix, Mode.PROPORTION)
        assert (derived.master_solves, derived.pivots) == (0, 0)
        assert replace(derived, master_solves=direct.master_solves, pivots=direct.pivots) == direct

    def test_a_value_not_divided_by_s_fails_the_proportion_certificate(self):
        # given s times the value-mode value, the derived value is the
        # undivided one, which only the proportion-mode certificate can catch
        matrix = self.matrix()
        sol = solve_maximin(matrix, Mode.VALUE)
        with pytest.raises(_CertificateError):
            proportion_from_value(matrix, replace(sol, value=sol.value * 3))

    def test_refuses_unequal_group_sizes(self):
        matrix = self.matrix(((0, 1, 2, 3), (4, 5, 6, 7, 8)))
        with pytest.raises(ValueError, match="equal group sizes"):
            proportion_from_value(matrix, solve_maximin(matrix, Mode.VALUE))


def test_df_fair_propagates_enumeration_limit():
    import pytest as _pytest

    from fairmaxcut.errors import TooLargeError

    # 25 vertices is one past the default limit: refused before anything is allocated
    g = make_cycle(25)
    partition = singleton_partition(g, PartitionKind.EDGES)
    with _pytest.raises(TooLargeError):
        df_fair(g, UtilityModel.EDGE, partition)


def rejection_message(entries) -> str:
    with pytest.raises(ValueError) as excinfo:
        CutDistribution(entries)
    return str(excinfo.value)


class TestCutDistribution:
    def test_rejects_bad_total(self):
        assert rejection_message(((Cut.of({0}), Fraction(1, 2)),)) == (
            "probabilities sum to 1/2, not 1"
        )
        assert rejection_message(()) == "probabilities sum to 0, not 1"
        assert rejection_message(
            ((Cut.of({0}), Fraction(1, 3)), (Cut.of({1}), Fraction(3, 4)))
        ) == "probabilities sum to 13/12, not 1"

    def test_rejects_negative(self):
        assert rejection_message(
            ((Cut.of({0}), Fraction(3, 2)), (Cut.of({1}), Fraction(-1, 2)))
        ) == "negative probability -1/2 for cut {1}"

    def test_rejects_duplicate(self):
        assert rejection_message(
            ((Cut.of({0, 2}), Fraction(1, 2)), (Cut.of({2, 0}), Fraction(1, 2)))
        ) == "duplicate cut {0,2} in distribution"
        # checked entry by entry: the duplicate comes before the negative
        assert rejection_message(
            (
                (Cut.of({0}), Fraction(1, 2)),
                (Cut.of({0}), Fraction(1, 2)),
                (Cut.of({1}), Fraction(-1, 2)),
            )
        ) == "duplicate cut {0} in distribution"

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=50), max_size=8))
    @example([Fraction(1, 3), Fraction(1, 6), Fraction(0), Fraction(1, 2)])
    @settings(max_examples=60)
    def test_integer_sum_check_matches_fraction_sum(self, probs):
        entries = tuple((Cut.of({i}), p) for i, p in enumerate(probs))
        total = sum(probs, Fraction(0))
        if total == 1:
            assert CutDistribution(entries).entries == entries
        else:
            assert rejection_message(entries) == f"probabilities sum to {total}, not 1"

    def test_merges_duplicates(self):
        dist = CutDistribution.from_pairs(
            [(Cut.of({0}), Fraction(1, 2)), (Cut.of({0}), Fraction(1, 2))]
        )
        assert dist.entries == ((Cut.of({0}), Fraction(1)),)
