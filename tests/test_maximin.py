"""Exact maximin LP: worked values, certificates, and structural properties."""

import gc
import weakref
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd, lcm
from operator import mul

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from fairmaxcut import exact, maximin, verify
from fairmaxcut.exact import Mode, PayoffMatrix, build_payoff_matrix, scaled_columns
from fairmaxcut.families import (
    make_clique_with_tail,
    make_complete_bipartite,
    make_cycle,
    make_diamond_instance,
    make_odd_cycle_instance,
    make_paw_instance,
    random_instance,
    singleton_partition,
)
from fairmaxcut.graphs import Cut, PartitionKind, edge_groups
from fairmaxcut.instances import OBJECTIVE_NAMES
from fairmaxcut.heuristics import evaluate_distribution
from fairmaxcut.maximin import (
    CutDistribution,
    _CertificateError,
    _check_certificate,
    _LPOutcome,
    _first_pricing,
    _price,
    _RevisedLP,
    _tight_lp,
    df_fair,
    solve_maximin,
)
from fairmaxcut.utility import UtilityModel

from .dense_tableau import DenseTableau, best_static
from .fraction_certificate import check_outcome, solved_outcome
from .fraction_simplex import _bland, _simplex_maximin, _tableau, fraction_column
from .python_readoff import (
    assert_matches_column_generation,
    python_solve_maximin,
    tableau_duals,
    tableau_primal,
)
from .strategies import (
    certificate_matrices,
    cyclic_matrices,
    edge_instances,
    matrix_from_rows,
    node_instances,
    random_matrices,
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
    """The solution's value against Bland's simplex over every column, and
    its lottery against complementary slackness: a basic solution's
    support, at most one column per group and one more, every column tight
    at its duals, whose lottery pays the least group exactly the value."""
    gamma = matrix.group_count
    dense_value, _, _ = _simplex_maximin(list(mode_columns(matrix, mode)), gamma)
    assert sol.value == dense_value
    assert len(sol.support) <= gamma + 1
    columns = [fraction_column(matrix, j, mode) for j in sol.support]
    assert all(sum(map(mul, sol.dual_weights, col)) == sol.value for col in columns)
    assert sol.distribution.support == tuple(map(matrix.cut, sol.support))
    probs = [p for _, p in sol.distribution.entries]
    assert min(sum(map(mul, probs, row)) for row in zip(*columns)) == sol.value


@st.composite
def maximin_instances(draw, max_vertices=8):
    if draw(st.booleans()):
        g, partition = draw(edge_instances(max_vertices=max_vertices))
        model = UtilityModel.EDGE
    else:
        g, partition = draw(node_instances(max_vertices=max_vertices))
        model = draw(st.sampled_from([UtilityModel.NODE_MAXDEG, UtilityModel.NODE_OWNDEG]))
    return g, model, partition, draw(st.sampled_from(list(Mode)))


def degenerate_n12():
    """``random_instance(12, 0.4, 1, EDGES, 3)`` with singleton edge groups,
    the instance of ``tests/goldens/degenerate_n12.inst``: its optimum is
    degenerate, and three quarters of its 2,048 columns are tight."""
    inst = random_instance(12, 0.4, 1, PartitionKind.EDGES, 3)
    return inst, singleton_partition(inst.graph, PartitionKind.EDGES)


def degenerate_n12_matrix() -> PayoffMatrix:
    inst, partition = degenerate_n12()
    return build_payoff_matrix(inst.graph, inst.model, partition)


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
        assert_matches_column_generation(matrix, mode, sol, python_solve_maximin(matrix, mode))
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
        # two columns of one cut are refused where the matrix is made, not
        # late, when the solver puts that cut twice in its distribution
        with pytest.raises(ValueError, match="cut masks must be pairwise distinct"):
            PayoffMatrix([[1, 0], [0, 1]], (1, 1), (1, 1), [2, 2])

    def test_modes_share_one_matrix(self):
        # value-mode and proportion-mode solves read the same integer entries
        inst = make_diamond_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        for mode in Mode:
            direct = df_fair(inst.graph, inst.model, inst.partition, mode)
            assert solve_maximin(matrix, mode) == direct

    @pytest.mark.parametrize("kind", list(PartitionKind), ids=lambda k: k.value)
    def test_work_counters_on_the_9_cycle(self, kind):
        # the uniform dual certifies the optimum after the master's first
        # solve, whose one pivot is z entering
        inst = make_odd_cycle_instance(9, kind)
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        for mode in Mode:
            sol = solve_maximin(matrix, mode)
            assert sol.dual_guessed
            assert (sol.master_solves, sol.pivots) == (1, 1)

    @pytest.mark.parametrize("kind", list(PartitionKind), ids=lambda k: k.value)
    def test_tight_counters_on_the_9_cycle(self, kind):
        # the uniform guess holds, and its LP runs over the 9 columns tight
        # at the uniform dual: one pivot for z, one per column
        inst = make_odd_cycle_instance(9, kind)
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        for mode in Mode:
            sol = solve_maximin(matrix, mode)
            dens = matrix.denominators(mode)
            den = lcm(*dens)
            columns = [
                [x * (den // d) for x, d in zip(column, dens)]
                for column in zip(*matrix.entries.tolist())
            ]
            tight = [
                column for column in columns
                if sum(map(mul, sol.dual_weights, column)) == sol.value * den
            ]
            cold = DenseTableau(tight, den)
            assert (sol.tight_columns, sol.tight_pivots) == (len(tight), cold.pivots) == (9, 9)

    def test_tight_counters_on_a_random_12_vertex_graph(self):
        # 25 singleton edge groups: the master must grow to reach 2/3, and
        # its degenerate basic solution is the printed lottery
        matrix = degenerate_n12_matrix()
        sol = solve_maximin(matrix, Mode.PROPORTION)
        assert (matrix.group_count, matrix.column_count) == (25, 2048)
        assert sol.value == Fraction(2, 3)
        # 25 groups of one size and one row sum: the uniform guess is tried,
        # and its LP over the one column of largest sum fails
        assert not sol.dual_guessed
        assert (sol.master_solves, sol.pivots) == (44, 270)
        # only the guess's LP is counted, and the master's support is printed
        assert (sol.tight_columns, sol.tight_pivots) == (0, 0)
        assert len(sol.support) == 7

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
        cold_duals = (3, 2, 0, 1)  # (1/2, 1/3, 0, 1/6)
        matrix = matrix_from_rows(rows, group_sizes=(3, 2, 2, 1))
        sol = solve_maximin(matrix, Mode.PROPORTION)
        value, lp = solved_outcome(matrix, Mode.PROPORTION)
        assert sol.value == value == Fraction(5, 6)
        assert sol.support == (7, 11, 21)
        assert sol.dual_weights != tuple(Fraction(q, 6) for q in cold_duals)
        for duals in (lp.duals, cold_duals):
            assert_matches_dense_oracle(matrix, replace(sol, _duals=duals))
            _check_certificate(
                matrix, Mode.PROPORTION, value, lp._replace(duals=duals, total=sum(duals))
            )


class TestNoGrowth:
    """When no column enters the master, ``solve_maximin`` reports the point
    mass on the start column without running an LP;
    ``python_solve_maximin`` runs its one-column master."""

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
        assert (sol.tight_columns, sol.tight_pivots) == (0, 0)  # and no guess was tried
        assert sol.value == value
        assert tuple(
            j for j, col in enumerate(zip(*rows))
            if sum(q * c for q, c in zip(sol.dual_weights, col)) == value
        ) == tight
        assert sol.support == (start,)
        assert sol.distribution == CutDistribution.point_mass(matrix.cut(start))
        assert_matches_dense_oracle(matrix, sol)
        assert sol == python_solve_maximin(matrix)


class TestUniformGuess:
    """Where a column enters the first master and the groups have one size
    and the rows one sum, ``solve_maximin`` first tries the uniform dual;
    ``python_solve_maximin`` always runs column generation.  Where the guess
    held, both report the same value and duals; where it failed, the same
    solution (``assert_matches_column_generation``)."""

    @given(cyclic_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_column_generation_on_cyclic_matrices(self, matrix):
        for mode in Mode:
            sol, oracle = solve_maximin(matrix, mode), python_solve_maximin(matrix, mode)
            assert_matches_column_generation(matrix, mode, sol, oracle)

    @pytest.mark.parametrize("guessed", [False, True])
    def test_cyclic_matrices_reach_both_outcomes(self, guessed):
        # a guess that fails on a cyclic matrix fails for degeneracy, and
        # column generation runs after it
        def outcome(matrix):
            sol = solve_maximin(matrix, Mode.VALUE)
            return sol.dual_guessed if guessed else sol.master_solves > 1

        # about 1 in 25 drawn matrices grows the master (110 of 3,000), so
        # 1,000 examples all miss it with odds below 10**-16
        find(cyclic_matrices(), outcome, settings=settings(database=None, max_examples=1000))

    @pytest.mark.parametrize("rows, meets_bound, degenerate", [
        # the uniform dual is optimal, but the tight LP ends at the point mass
        # on (1, 1) with both slacks basic at 0
        pytest.param([[2, 0, 1], [0, 2, 1]], True, True, id="degenerate tight basis"),
        # equal row sums, but the best mix of (4, 0) and (0, 3) is 12/7 < 4/2;
        # the tight LP over (4, 0) alone ends at value 0, with z basic at 0
        pytest.param([[4, 0, 0], [0, 3, 1]], False, True, id="uniform dual not optimal"),
    ])
    def test_falls_back_to_column_generation(self, rows, meets_bound, degenerate):
        matrix = matrix_from_rows(rows)
        _, cols = scaled_columns(matrix, Mode.PROPORTION)
        sums = cols.sum(axis=0)
        tight = np.flatnonzero(sums == sums.max()).tolist()
        cold = _tight_lp(cols, cols.min(axis=0), tight)
        z = cold.primal_numerators()[0]
        assert len(set(cols.sum(axis=1).tolist())) == 1  # equal row sums: the gate passes
        assert (z * len(rows) == sums.max() * cold.det) == meets_bound
        assert any(row[-1] == 0 for row in cold.inv) == degenerate
        sol = solve_maximin(matrix)
        assert not sol.dual_guessed and sol.master_solves > 1
        oracle = python_solve_maximin(matrix)
        assert sol == oracle

    def test_row_sums_past_int64_fail_the_gate(self, monkeypatch):
        # the first row sums to 2**64 + 3 and the second to 3: in int64 both
        # would read 3, and a guess LP would be built and then rejected.
        # No tight LP is built
        matrix = PayoffMatrix([[2**60] * 16 + [3], [0] * 16 + [3]], (1, 1), (1, 1),
                              [2 * j for j in range(17)])
        calls = []
        tight_lp = maximin._tight_lp

        def spy(*args):
            calls.append(args)
            return tight_lp(*args)

        monkeypatch.setattr(maximin, "_tight_lp", spy)
        sol = solve_maximin(matrix, Mode.VALUE)
        assert sol.value == 3 and not sol.dual_guessed
        assert calls == []

    @pytest.mark.parametrize("kind", list(PartitionKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13, 15])
    def test_odd_cycles(self, n, kind):
        inst = make_odd_cycle_instance(n, kind)
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        # singleton groups: both modes read the same denominators, so the
        # oracle's one solve stands for both
        assert matrix.denominators(Mode.VALUE) == matrix.denominators(Mode.PROPORTION)
        oracle = python_solve_maximin(matrix, Mode.VALUE)
        for mode in Mode:
            sol = solve_maximin(matrix, mode)
            assert sol.dual_guessed
            assert_matches_column_generation(matrix, mode, sol, oracle)
            score = evaluate_distribution(inst.graph, inst.model, inst.partition, sol.distribution)
            assert score.minimum == sol.value


def tight_resolve(matrix: PayoffMatrix, mode: Mode, sol) -> tuple:
    """Bland's simplex from scratch over the columns tight at ``sol``'s
    duals, as the uniform guess runs it: the tight columns, and the value,
    support and distribution it ends at."""
    den, cols = scaled_columns(matrix, mode)
    tight = [
        j for j, col in enumerate(cols.T.tolist())
        if sum(map(mul, sol.dual_weights, col)) == sol.value * den
    ]
    cold = _tight_lp(cols, cols.min(axis=0), tight)
    z, *probs = tableau_primal(cold)
    kept = [(j, p) for j, p in zip(tight, probs) if p > 0]
    distribution = CutDistribution(tuple((matrix.cut(j), p) for j, p in kept))
    return tight, z / den, tuple(j for j, _ in kept), distribution


any_matrices = st.one_of(certificate_matrices(), random_matrices(), cyclic_matrices())


class TestReadOff:
    """Where the uniform guess held, ``solve_maximin`` reads the support and
    the distribution off Bland's simplex from scratch over the columns tight
    at the uniform dual; no other solve counts tight columns."""

    @given(any_matrices)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_tight_resolve(self, matrix):
        for mode in Mode:
            sol = solve_maximin(matrix, mode)
            if sol.tight_columns:
                tight, *resolved = tight_resolve(matrix, mode, sol)
                assert len(tight) == sol.tight_columns and sol.tight_pivots > 0
                assert resolved == [sol.value, sol.support, sol.distribution]

    @given(any_matrices, st.sampled_from(list(Mode)))
    @settings(max_examples=100, deadline=None)
    def test_first_pricing_is_the_one_column_master(self, matrix, mode):
        _, cols = scaled_columns(matrix, mode)
        start = int(np.argmax(cols.min(axis=0)))
        r, scores, bar = _first_pricing(cols, start)
        master = _RevisedLP([cols[:, start].tolist()], 0)
        want_scores, want_bar = _price(master, cols, int(cols.max(initial=1)))
        assert (scores.tolist(), bar) == (want_scores.tolist(), want_bar)
        assert tableau_duals(master) == tuple(
            Fraction(int(i == r)) for i in range(matrix.group_count)
        )
        assert tableau_primal(master)[0] == bar
        assert (master.solves, master.pivots) == (1, 1)


def same_matrix(matrix: PayoffMatrix) -> PayoffMatrix:
    """A fresh copy of ``matrix``, with empty caches."""
    return PayoffMatrix(matrix.entries, matrix.dens, matrix.group_sizes, matrix.col_masks)


class TestValueStage:
    """A DF value that ``verify.objective_values`` reads is the certified
    ``solve_maximin`` of the matrix it builds, with no re-solve; a later
    solve of that matrix in either mode runs no LP, and reports what a fresh
    solve reports."""

    def test_value_reads_run_no_resolve(self, monkeypatch):
        # the degenerate 12-vertex graph of test_tight_counters_on_a_random_12_vertex_graph
        inst, partition = degenerate_n12()
        built, resolved = [], []
        build, tight_lp = exact.build_payoff_matrix, maximin._tight_lp

        def spy_build(*args):
            built.append(build(*args))
            return built[-1]

        def spy_tight_lp(cols, mins, tight):
            resolved.append(len(tight))
            return tight_lp(cols, mins, tight)

        monkeypatch.setattr(exact, "build_payoff_matrix", spy_build)
        monkeypatch.setattr(maximin, "_tight_lp", spy_tight_lp)
        values = verify.objective_values(inst.graph, inst.model, partition, *OBJECTIVE_NAMES)
        assert values == (20, Fraction(4, 5), 0, 0, Fraction(2, 3), Fraction(2, 3))
        # the failed uniform guess's LP, over the one column of largest sum,
        # is the only tight LP built
        assert resolved == [1]
        (matrix,) = built
        sol = solve_maximin(matrix, Mode.PROPORTION)
        assert resolved == [1]
        assert (sol.master_solves, sol.pivots) == (44, 270)
        assert (sol.tight_columns, sol.tight_pivots) == (0, 0)
        # singleton groups: the value mode reads the same outcome
        assert solve_maximin(matrix, Mode.VALUE) == sol and resolved == [1]

    def test_a_solve_builds_no_lp_after_the_value_stage(self, monkeypatch):
        # the degenerate 12-vertex graph: a fresh solve builds the failed
        # guess's LP over the one column of largest sum and the master from
        # the start column, and no other; a solve in either mode after it
        # builds none
        built = []
        init, tight_lp = _RevisedLP.__init__, maximin._tight_lp

        def spy_init(self, cols, start):
            built.append(("lp", len(cols)))
            init(self, cols, start)

        def spy_tight_lp(cols, mins, tight):
            built.append(("tight", len(tight)))
            return tight_lp(cols, mins, tight)

        monkeypatch.setattr(_RevisedLP, "__init__", spy_init)
        monkeypatch.setattr(maximin, "_tight_lp", spy_tight_lp)
        matrix = degenerate_n12_matrix()
        first = solve_maximin(matrix, Mode.VALUE)
        first_read = built[:]
        assert first_read == [("tight", 1), ("lp", 1), ("lp", 1)]
        for mode in Mode:
            assert solve_maximin(matrix, mode).value == first.value
        assert built == first_read
        built.clear()
        assert solve_maximin(degenerate_n12_matrix()) == solve_maximin(matrix)
        assert built == first_read

    @given(any_matrices, st.sampled_from(list(Mode)), st.sampled_from(list(Mode)))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_solve_in_either_order(self, matrix, first, second):
        """Solves in mode ``first``, then ``second``, of one matrix: each is
        a fresh matrix's, field for field, and its value is the Python
        oracle's in its mode."""
        modes = (first, second)
        sols = [solve_maximin(matrix, mode) for mode in modes]
        for mode, sol in zip(modes, sols):
            fresh = solve_maximin(same_matrix(matrix), mode)
            assert sol == fresh
            for name in ("_masks", "_weights", "_duals"):
                assert getattr(sol, name) == getattr(fresh, name)
            assert sol.value == python_solve_maximin(matrix, mode).value


def test_pricing_divides_out_the_gcd_to_stay_in_int64(monkeypatch):
    # entries near 2**20 over three groups: the master's z row grows with its
    # basis determinant, and divided by its gcd both pricing rounds here
    # score in int64 (the first round is the closed form's row, which runs
    # no pricing)
    matrix = matrix_from_rows([[1 << 20, 0, 3], [0, 1 << 20, 5], [7, 11, 1 << 19]])
    dtypes = []
    column_scores = maximin._column_scores

    def spy_scores(*args):
        scores = column_scores(*args)
        dtypes.append(scores.dtype)
        return scores

    monkeypatch.setattr(maximin, "_column_scores", spy_scores)
    sol = solve_maximin(matrix)
    assert dtypes == [np.int64] * 2
    oracle = python_solve_maximin(matrix)
    assert sol == oracle


@given(certificate_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_repeated_columns_keep_the_value(matrix, data):
    """Distinct columns are ``build_payoff_matrix``'s contract, not the
    solver's need: with some columns repeated at the end, under masks of
    their own, every solve is still certified and reaches the same value."""
    k = matrix.column_count
    order = list(range(k)) + data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=6))
    repeated = PayoffMatrix(
        matrix.entries[:, order], matrix.dens, matrix.group_sizes,
        [1 << (j + 1) for j in range(len(order))],
    )
    for mode in Mode:
        assert solve_maximin(repeated, mode).value == solve_maximin(matrix, mode).value


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
    master = _RevisedLP(int_cols[:1], 0)
    for k in range(1, len(cols) + 1):
        if k > 1:
            master.add(int_cols[k - 1])
        value, duals = tableau_primal(master)[0], tableau_duals(master)
        assert value == _simplex_maximin(cols[:k], gamma)[0]
        assert all(q >= 0 for q in duals) and sum(duals) == 1
        assert all(sum(map(mul, duals, col)) <= value for col in cols[:k])
    assert master.solves == len(cols)


def assert_matches_fraction_oracle(int_cols, den: int, start: int | None = None) -> None:
    """The cold revised LP over ``int_cols`` and the dense tableau over them
    read over ``den``, from column ``start`` (by default the best static
    one), against the Fraction simplex over the columns divided by ``den``:
    the same probabilities, duals and pivot count, and the same value, which
    the revised LP, never reading ``den``, reports times ``den``.  So
    ``den`` changes none of Bland's choices."""
    gamma = len(int_cols[0])
    cols = [tuple(Fraction(x, den) for x in col) for col in int_cols]
    value, probs, duals = _simplex_maximin(cols, gamma, start)
    pivots = _bland(*_tableau(cols, gamma, start))
    revised = _RevisedLP(list(int_cols), best_static(int_cols) if start is None else start)
    dense = DenseTableau(int_cols, den, start)
    assert tableau_primal(revised) == [value * den, *probs]
    assert tableau_primal(dense) == [value, *probs]
    for lp in (revised, dense):
        assert tableau_duals(lp) == duals
        assert (lp.solves, lp.pivots) == (1, pivots)


def lp_state(lp) -> tuple:
    return lp.basis, lp.det, lp.pivots, lp.solves, lp.primal_numerators(), lp.duals()


def assert_same_lp(revised: _RevisedLP, dense: DenseTableau) -> None:
    """The revised LP's basis inverse is the dense tableau's slack and rhs
    columns, and both report the same basis and integers."""
    assert revised.inv == [row[1 + dense.k :] for row in dense.rows]
    assert lp_state(revised) == lp_state(dense)


@given(integer_columns())
@settings(max_examples=150, deadline=None)
def test_revised_lp_matches_dense_tableau(case):
    """Random integer columns added one at a time, whether or not they price
    above the master's value: after every ``add`` the revised LP and the
    dense tableau at ``den`` 1 hold the same integers, and so do both cold
    LPs over all the columns."""
    _, int_cols = case
    revised, dense = _RevisedLP([int_cols[0]], 0), DenseTableau([int_cols[0]], 1)
    assert_same_lp(revised, dense)
    for col in int_cols[1:]:
        revised.add(col)
        dense.add(list(col))
        assert_same_lp(revised, dense)
    assert_same_lp(
        _RevisedLP(list(int_cols), best_static(int_cols)), DenseTableau(int_cols, 1)
    )


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


@pytest.mark.parametrize("int_cols, den, start", [
    # the start column (2, 2, 3) has tied minima, as in the golden
    # random_n7_p05_g3_seed4 in value mode: z enters on row 0
    ([(2, 2, 3), (4, 0, 1), (0, 5, 3), (1, 3, 4)], 1, 0),
    ([(3, 1, 1, 2), (0, 4, 3, 3), (2, 2, 0, 5)], 1, 0),  # tied rows 1 and 2: row 1
    ([(3, 1, 1, 2), (0, 4, 3, 3), (2, 2, 0, 5)], 6, 0),  # den > 1
    ([(0, 3), (3, 0), (1, 1)], 1, 0),  # a zero minimum, the value is positive
    ([(0, 3, 2), (3, 0, 1)], 4, 0),  # a zero minimum that stays the value
    ([(2, 2, 2), (5, 1, 4), (0, 6, 3)], 5, 1),  # not the best static column
    ([(4, 4), (1, 0), (0, 5)], 3, 2),  # not the best static column, zero minimum
    ([(7,), (3,), (9,)], 2, 1),  # one group
])
def test_closed_form_start_matches_the_generic_first_pivot(int_cols, den, start):
    """The revised LP is built at the basis the first pivot reaches (z
    entering on the first row with the least start entry); the dense
    tableau makes that pivot, and both follow one path to the Fraction
    oracle's optimum."""
    revised = _RevisedLP(list(int_cols), start)
    assert_same_lp(revised, DenseTableau(int_cols, 1, start))
    assert_matches_fraction_oracle(int_cols, den, start)
    # one column alone is optimal after that pivot: its integers in closed form
    first = int_cols[start]
    r = first.index(min(first))
    lone = _RevisedLP([first], 0)
    assert (lone.det, lone.pivots, lone.solves, lone.basis) == (
        1, 1, 1, [0 if i == r else 2 + i for i in range(len(first))] + [1]
    )
    assert lone.inv[r] == [int(i == r) for i in range(len(first))] + [first[r]]
    assert lone.inv[-1] == [0] * len(first) + [1]


@given(integer_columns(max_columns=20), st.data())
@settings(max_examples=150, deadline=None)
def test_revised_lp_matches_dense_tableau_from_any_start(case, data):
    """From any start column, not only the best static one."""
    _, int_cols = case
    start = data.draw(st.integers(0, len(int_cols) - 1))
    assert_same_lp(_RevisedLP(list(int_cols), start), DenseTableau(int_cols, 1, start))


def gcd_divided(weights: list[int], bar: int) -> tuple[list[int], int]:
    g = gcd(bar, *weights)
    return [w // g for w in weights], bar // g


@given(integer_columns())
@settings(max_examples=150, deadline=None)
def test_price_reads_the_dense_tableau_pricing_off_the_z_row(case):
    """After every ``add`` to a random master, ``_price`` scores each column
    with the dense tableau's pricing weights and bar, both divided by their
    gcd: pricing the identity columns gives the weights themselves."""
    gamma, int_cols = case
    identity = np.identity(gamma, dtype=np.int64)
    revised, dense = _RevisedLP([int_cols[0]], 0), DenseTableau([int_cols[0]], 1)
    for col in int_cols[1:]:
        revised.add(col)
        dense.add(list(col))
        weights, bar = _price(revised, identity, 1)
        assert (weights.tolist(), bar) == gcd_divided(*dense.pricing())


@given(random_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_tight_lp_over_random_subsets(matrix, data):
    """``_tight_lp`` over any subset of the columns, in column order: the
    dense tableau over those columns, from the first of them with the
    largest minimum, and the Fraction oracle's value."""
    for mode in Mode:
        den, cols = scaled_columns(matrix, mode)
        k = matrix.column_count
        tight = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k)))
        lp = _tight_lp(cols, cols.min(axis=0), tight)
        int_cols = [cols[:, j].tolist() for j in tight]
        assert_same_lp(lp, DenseTableau(int_cols, 1))
        value, _, _ = _simplex_maximin([fraction_column(matrix, j, mode) for j in tight], len(cols))
        assert Fraction(lp.primal_numerators()[0], lp.det * den) == value


CHECKS = (_check_certificate, check_outcome)  # in integers, and in Fractions


def lp_outcome(support, weights, det, duals, total) -> _LPOutcome:
    """An LP outcome with the certificate's integers; z and the counters,
    which neither check reads, are 0."""
    return _LPOutcome(0, det, support, weights, duals, total, (0, 0, 0, 0))


class TestCertificate:
    """The certificate recheck, in integers and in ``Fraction``s, rejects a
    dual or a distribution that is off."""

    @staticmethod
    def paw():
        inst = make_paw_instance()
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        return (matrix, *solved_outcome(matrix, Mode.PROPORTION))

    def test_accepts_the_solution(self):
        matrix, value, lp = self.paw()
        for check in CHECKS:
            check(matrix, Mode.PROPORTION, value, lp)

    def test_rejects_shifted_dual(self):
        # the point mass on (1, 1) is optimal with value 1; the shifted dual
        # still prices that support column at 1 but prices column 0 above it
        matrix = matrix_from_rows([[2, 0, 1], [0, 2, 1]])
        for check in CHECKS:
            check(matrix, Mode.PROPORTION, Fraction(1), lp_outcome((2,), (1,), 1, (1, 1), 2))
            with pytest.raises(_CertificateError):
                check(
                    matrix, Mode.PROPORTION, Fraction(1),
                    lp_outcome((2,), (1,), 1, (501, 499), 1000),
                )

    def test_rejects_probability_moved_off_its_cut(self):
        # the first support column swapped for one outside the support
        matrix, value, lp = self.paw()
        outside = next(j for j in range(matrix.column_count) if j not in lp.support)
        moved = lp._replace(support=(outside, *lp.support[1:]))
        for check in CHECKS:
            with pytest.raises(_CertificateError):
                check(matrix, Mode.PROPORTION, value, moved)

    def test_rejects_probability_moved_between_support_cuts(self):
        # 1/1000 of the mass moved from the second support column to the first
        matrix, value, lp = self.paw()
        a, b, *rest = (1000 * p for p in lp.weights)
        moved = lp._replace(weights=(a + lp.det, b - lp.det, *rest), det=1000 * lp.det)
        for check in CHECKS:
            with pytest.raises(_CertificateError):
                check(matrix, Mode.PROPORTION, value, moved)

    def test_rejects_a_distribution_that_does_not_sum_to_one(self):
        # twice the optimal lottery lifts every group above the value, while
        # the duals still certify it
        matrix, value, lp = self.paw()
        doubled = lp._replace(weights=tuple(2 * p for p in lp.weights))
        for check in CHECKS:
            with pytest.raises(_CertificateError, match="support weights"):
                check(matrix, Mode.PROPORTION, value, doubled)

    @pytest.mark.parametrize("support, weights, det", [
        ((), (), 1),  # no support
        ((0, 1), (2, 0), 2),  # a zero weight
        ((0, 0), (1, 1), 2),  # a repeated column
        ((0, 1), (2,), 2),  # one weight short
    ])
    def test_rejects_support_weights_that_are_not_a_probability_vector(
        self, support, weights, det
    ):
        matrix, value, lp = self.paw()
        with pytest.raises(_CertificateError, match="support weights"):
            _check_certificate(
                matrix, Mode.PROPORTION, value,
                lp._replace(support=support, weights=weights, det=det),
            )

    @pytest.mark.parametrize(
        "duals",
        [
            ((1, 1, 1), 2),  # one weight short
            ((1, 1, 1, 1, 0), 4),  # one weight too many
            ((5, 5, 5, 4), 20),  # sums to 19/20
            ((3, 2, 0, -1), 4),  # a negative weight
        ],
    )
    def test_rejects_duals_that_are_not_a_probability_vector(self, duals):
        matrix, value, lp = self.paw()
        numerators, total = duals
        for check in CHECKS:
            with pytest.raises(_CertificateError, match="probability vector"):
                check(matrix, Mode.PROPORTION, value, lp._replace(duals=numerators, total=total))

    def test_rejects_duals_with_no_mass(self):
        # all four weights 0 over a total of 0: no rational reading exists
        matrix, value, lp = self.paw()
        with pytest.raises(_CertificateError, match="probability vector"):
            _check_certificate(
                matrix, Mode.PROPORTION, value, lp._replace(duals=(0,) * 4, total=0)
            )

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
            value, lp = solved_outcome(matrix, mode)
            check_outcome(matrix, mode, value, lp)
            for wrong in (value + off, value - off):
                for check in CHECKS:
                    with pytest.raises(_CertificateError):
                        check(matrix, mode, wrong, lp)


@given(any_matrices)
@settings(max_examples=100, deadline=None)
def test_distribution_cuts_are_the_support_columns_cuts(matrix):
    for mode in Mode:
        sol = solve_maximin(matrix, mode)
        masks = [cut.mask() for cut in sol.distribution.support]
        assert masks == matrix.col_masks[list(sol.support)].tolist()


def test_solution_does_not_keep_its_matrix_alive():
    # the solution holds its support's masks, so dropping the matrix frees
    # its columns, scaled arrays and kept LP outcomes, and the distribution
    # is still made on its first read
    inst = make_paw_instance()
    matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
    sol, alive = solve_maximin(matrix), weakref.ref(matrix)
    want = tuple(matrix.cut(j) for j in sol.support)
    del matrix
    gc.collect()
    assert alive() is None
    assert sol.distribution.support == want


SCALE = 2 * 10**6  # 1 / 10**6 and a half of any integer are integers over SCALE


def perturbed_certificates(matrix: PayoffMatrix, value: Fraction, lp: _LPOutcome, data):
    """The solution's certificate (value, LP outcome), then the same with the
    value moved by 1/10**6, dual mass moved between two groups, probability
    moved between two support columns, and one support column swapped for
    an outside column."""
    eps = Fraction(1, 10**6)
    yield value, lp
    yield value + eps, lp
    yield value - eps, lp
    duals, total = [q * SCALE for q in lp.duals], lp.total * SCALE
    if len(duals) > 1:
        a, b = data.draw(two_indices(len(duals)))
        for shift in (total // 10**6, duals[a] // 2, duals[a]):
            moved = list(duals)
            moved[a] -= shift
            moved[b] += shift
            yield value, lp._replace(duals=tuple(moved), total=total)
    weights, det = [p * SCALE for p in lp.weights], lp.det * SCALE
    if len(weights) > 1:
        a, b = data.draw(two_indices(len(weights)))
        for shift in (weights[a] // 10**6, weights[a] // 2, weights[a]):
            moved = list(weights)
            moved[a] -= shift
            moved[b] += shift
            yield value, lp._replace(weights=tuple(moved), det=det)
    outside = [j for j in range(matrix.column_count) if j not in lp.support]
    if outside:
        o = data.draw(st.sampled_from(outside))
        a = data.draw(st.integers(0, len(lp.support) - 1))
        yield value, lp._replace(support=lp.support[:a] + (o,) + lp.support[a + 1 :])


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
        value, lp = solved_outcome(matrix, mode)
        certificates = list(perturbed_certificates(matrix, value, lp, data))
        verdicts = [
            tuple(rejects(check, matrix, mode, c) for check in CHECKS) for c in certificates
        ]
        assert all(a == b for a, b in verdicts), (mode, certificates, verdicts)
        assert verdicts[:3] == [(False, False), (True, True), (True, True)]


def tampered_outcomes(matrix: PayoffMatrix, mode: Mode, value: Fraction, lp: _LPOutcome, pick):
    """The LP outcome tampered in each way that no optimum can survive, as
    (kind, value, outcome); ``pick`` chooses one of a non-empty list.  A kind
    is left out where the outcome offers no such tampering.

    - one unit of numerator moved between two support columns that differ
      on a group at the value, towards the column that pays it less: that
      group's expectation drops below the value;
    - a support column swapped for a column that the duals price below the
      value: the duals then price the lottery, and so its worst group,
      below the value;
    - the value off by 1/W, which the duals' best column score refutes;
    - one dual unit moved from a group with a positive dual, which the
      optimal lottery holds at the value, to a group it lifts above it: the
      duals then price the lottery, and so its best column, above the value;
    - one dual raised by a unit, so that the duals no longer sum to T.
    """
    dens, entries = matrix.denominators(mode), matrix.entries.tolist()
    rows = [[Fraction(x, d) for x in row] for row, d in zip(entries, dens)]
    expected = [
        sum(row[j] * Fraction(p, lp.det) for j, p in zip(lp.support, lp.weights)) for row in rows
    ]
    at_value = [i for i, e in enumerate(expected) if e == value]
    moves = [
        (a, b) for a, b in permutations(range(len(lp.support)), 2)
        if any(rows[i][lp.support[a]] > rows[i][lp.support[b]] for i in at_value)
    ]
    if moves:
        a, b = pick(moves)
        moved = list(lp.weights)
        moved[a] -= 1
        moved[b] += 1
        yield "numerator moved", value, lp._replace(weights=tuple(moved))
    priced = [sum(Fraction(q, lp.total) * row[j] for q, row in zip(lp.duals, rows))
              for j in range(matrix.column_count)]
    below = [j for j, score in enumerate(priced) if score < value]
    if below:
        a, o = pick(range(len(lp.support))), pick(below)
        yield "column swapped", value, lp._replace(
            support=lp.support[:a] + (o,) + lp.support[a + 1 :]
        )
    off = Fraction(1, value.denominator)
    yield "value off", value + off, lp
    yield "value off", value - off, lp
    lifted = [i for i, e in enumerate(expected) if e > value]
    givers = [i for i, q in enumerate(lp.duals) if q > 0]
    if lifted:
        a, b = pick(givers), pick(lifted)
        moved = list(lp.duals)
        moved[a] -= 1
        moved[b] += 1
        yield "dual unit moved", value, lp._replace(duals=tuple(moved))
    a = pick(range(len(lp.duals)))
    raised = lp.duals[:a] + (lp.duals[a] + 1,) + lp.duals[a + 1 :]
    yield "duals off their total", value, lp._replace(duals=raised)


@given(certificate_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_both_certificates_refuse_every_tampered_outcome(matrix, data):
    """The integer check and the Fraction oracle, through ``check_outcome``,
    each accept the solution's outcome in both modes and refuse every
    tampering of it that no optimum survives."""
    def pick(options):
        return data.draw(st.sampled_from(list(options)))

    for mode in Mode:
        value, lp = solved_outcome(matrix, mode)
        for check in CHECKS:
            check(matrix, mode, value, lp)
        for kind, wrong, tampered in tampered_outcomes(matrix, mode, value, lp, pick):
            for check in CHECKS:
                assert rejects(check, matrix, mode, (wrong, tampered)), (mode, kind, check)


@pytest.mark.parametrize("kind", ["numerator moved", "column swapped", "dual unit moved"])
def test_certificate_matrices_reach_every_tampering(kind):
    # the other two kinds are made for every outcome
    def reaches(matrix):
        kinds = {
            found for mode in Mode
            for found, _, _ in tampered_outcomes(
                matrix, mode, *solved_outcome(matrix, mode), lambda options: list(options)[0]
            )
        }
        return kind in kinds

    find(certificate_matrices(), reaches, settings=settings(
        database=None, max_examples=2000, phases=[Phase.generate]
    ))


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


class TestSharedLP:
    """One LP per scaled column set: when every group has one size s, the
    value and the proportion mode scale the entries alike, so the second
    mode's solve reuses the first one's LP outcome, reads its value over its
    own denominator and runs its own certificate."""

    @staticmethod
    def matrix(groups=((0, 1, 2), (3, 4, 5), (6, 7, 8))):
        # the 9-cycle in three edge groups of 3
        g = make_cycle(9)
        partition = edge_groups(g, [frozenset(gr) for gr in groups])
        return build_payoff_matrix(g, UtilityModel.EDGE, partition)

    @staticmethod
    def spy(monkeypatch) -> tuple[list, list]:
        """Record the column count of each ``_RevisedLP`` built and the mode
        of each certificate run."""
        built, certified = [], []
        init, check = _RevisedLP.__init__, maximin._check_certificate

        def spy_init(self, cols, start):
            built.append(len(cols))
            init(self, cols, start)

        def spy_check(matrix, mode, *args):
            certified.append(mode)
            check(matrix, mode, *args)

        monkeypatch.setattr(_RevisedLP, "__init__", spy_init)
        monkeypatch.setattr(maximin, "_check_certificate", spy_check)
        return built, certified

    def test_proportion_mode_reuses_the_value_mode_lp(self, monkeypatch):
        # the paw with singleton own-degree node groups: the master grows to 5/7
        paw = make_paw_instance()
        partition = singleton_partition(paw.graph, PartitionKind.NODES)
        matrix = build_payoff_matrix(paw.graph, UtilityModel.NODE_OWNDEG, partition)
        built, certified = self.spy(monkeypatch)
        value = solve_maximin(matrix, Mode.VALUE)
        first = len(built)
        proportion = solve_maximin(matrix, Mode.PROPORTION)
        assert first > 0 and len(built) == first
        assert certified == [Mode.VALUE, Mode.PROPORTION]
        assert (value.value, value.master_solves) == (Fraction(5, 7), 4)
        assert proportion == value  # singleton groups: one value in both modes

    def test_equals_the_direct_solve(self):
        # the reused outcome, value over s, is what a fresh matrix's
        # proportion-mode solve finds, counters included
        matrix = self.matrix()
        value = solve_maximin(matrix, Mode.VALUE)
        proportion = solve_maximin(matrix, Mode.PROPORTION)
        assert len(matrix._solved) == 1 and value.tight_pivots > 0  # an LP ran
        assert proportion == replace(value, value=value.value / 3)
        assert proportion == solve_maximin(self.matrix(), Mode.PROPORTION)

    def test_reuses_the_value_mode_dual_maximum(self, monkeypatch):
        # the proportion-mode certificate weighs the entries as the
        # value-mode one did, so the product over them runs once
        weights = []
        best_dual_score = maximin._best_dual_score

        def spy(w, entries):
            weights.append(w)
            return best_dual_score(w, entries)

        monkeypatch.setattr(maximin, "_best_dual_score", spy)
        matrix = self.matrix()
        for mode in Mode:
            solve_maximin(matrix, mode)
        assert len(weights) == 1
        assert list(matrix._dual_best) == [tuple(weights[0])]

    def test_a_value_not_divided_by_s_fails_the_proportion_certificate(self):
        # an outcome at s times its z reads in proportion mode as the
        # value-mode value, undivided, which only the certificate can catch
        matrix = self.matrix()
        solve_maximin(matrix, Mode.VALUE)
        ((key, found),) = matrix._solved.items()
        matrix._solved[key] = found._replace(z=found.z * 3)
        with pytest.raises(_CertificateError):
            solve_maximin(matrix, Mode.PROPORTION)

    def test_unequal_group_sizes_solve_each_mode(self, monkeypatch):
        # edge groups of sizes 4, 5 and 2 scale the entries apart
        inst = random_instance(8, 0.5, 3, PartitionKind.EDGES, 42)
        matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
        assert matrix.group_sizes == (4, 5, 2)
        built, certified = self.spy(monkeypatch)
        solve_maximin(matrix, Mode.VALUE)
        first = len(built)
        solve_maximin(matrix, Mode.PROPORTION)
        assert 0 < first < len(built)
        assert certified == [Mode.VALUE, Mode.PROPORTION] and len(matrix._solved) == 2


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
