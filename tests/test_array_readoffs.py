"""The int64 array read-offs, pricing and certificate scores against the
Python-int loops they replaced (``python_readoff``); the int64 overflow
guards forced onto their Python-int fallbacks; and no numpy scalar in any
result."""

from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from fairmaxcut import maximin, verify
from fairmaxcut.exact import (
    Mode,
    PayoffMatrix,
    build_payoff_matrix,
    max_from_matrix,
    scaled_columns,
    static_from_matrix,
)
from fairmaxcut.graphs import Cut
from fairmaxcut.instances import OBJECTIVE_NAMES, load_instance
from fairmaxcut.maximin import (
    MaximinSolution,
    _best_dual_score,
    _LPOutcome,
    _check_certificate,
    _column_scores,
    solve_maximin,
)

from .fraction_certificate import solved_outcome
from .python_readoff import (
    assert_matches_column_generation,
    python_best_dual_score,
    python_column_scores,
    python_max_from_matrix,
    python_scaled_columns,
    python_solve_maximin,
    python_static_from_matrix,
)
from .strategies import certificate_matrices, matrix_from_rows, random_matrices

BIG = 1 << 40
# entries near 2**40: scaled over coprime denominators near 2**11, or priced
# with weights that grow with the basis determinant, products pass 2**63
BIG_ROWS = [
    [BIG + 3, BIG - 5, 7, BIG // 2],
    [BIG - 1, 11, BIG + 2, BIG // 3],
    [13, BIG + 1, BIG - 3, BIG // 5],
]
COPRIME_DENS = (2039, 2053, 2063)


def assert_matches_oracles(matrix: PayoffMatrix) -> None:
    """Both read-offs, witnesses included, and the whole maximin solution
    (value, duals, support, distribution and counters) in both modes; where
    the uniform dual certified the optimum, its value, its duals and its
    lottery's least group expectation
    (``python_readoff.assert_matches_column_generation``)."""
    for mode in Mode:
        den, cols = scaled_columns(matrix, mode)
        want_den, want_cols = python_scaled_columns(matrix, mode)
        assert den == want_den and cols.T.tolist() == list(map(list, want_cols))
        for read_off, oracle in (
            (max_from_matrix, python_max_from_matrix),
            (static_from_matrix, python_static_from_matrix),
        ):
            (value, j), (want, want_j) = read_off(matrix, mode), oracle(matrix, mode)
            assert (value, matrix.cut(j)) == (want, matrix.cut(want_j))
        sol, oracle = solve_maximin(matrix, mode), python_solve_maximin(matrix, mode)
        assert_matches_column_generation(matrix, mode, sol, oracle)


@given(st.one_of(certificate_matrices(), random_matrices()))
@settings(max_examples=150, deadline=None)
def test_array_readoffs_match_python_loops(matrix):
    assert_matches_oracles(matrix)


@pytest.mark.parametrize("grew", [False, True])
def test_random_matrices_reach_both_maximin_branches(grew):
    # the point mass on the start column, or a master that grew
    find(
        random_matrices(),
        lambda matrix: (solve_maximin(matrix, Mode.VALUE).master_solves > 1) == grew,
        settings=settings(database=None),
    )


@pytest.mark.parametrize("matrix, shared", [
    (matrix_from_rows([[1, 0, 2], [0, 1, 2]]), True),  # every scale is 1
    (PayoffMatrix([[1, 0, 2], [0, 1, 2]], (2, 3), (1, 2), [2, 4, 6]), False),
    (PayoffMatrix(BIG_ROWS, COPRIME_DENS, (1, 2, 3), [2, 4, 6, 8]), False),  # Python ints
])
def test_scaled_columns_are_made_once_and_read_only(matrix, shared):
    for mode in Mode:
        den, cols = scaled_columns(matrix, mode)
        again = scaled_columns(matrix, mode)
        assert again[0] == den and again[1] is cols
        assert (cols is matrix.entries) == shared
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0, 0] = 7


def owndeg_isolated_matrix() -> PayoffMatrix:
    # own-degree groups of size 2 with an isolated vertex: the value and the
    # proportion denominators differ, and both scale the entries by (2, 3, 3)
    inst = load_instance(str(Path(__file__).parent / "goldens" / "owndeg_isolated.inst"))
    matrix = build_payoff_matrix(inst.graph, inst.model, inst.partition)
    assert [matrix.denominators(mode) for mode in Mode] == [(3, 2, 2), (6, 4, 4)]
    return matrix


def test_scaled_columns_share_one_array_per_set_of_scales():
    matrix = owndeg_isolated_matrix()
    (value_den, value_cols), (proportion_den, proportion_cols) = (
        scaled_columns(matrix, mode) for mode in Mode
    )
    assert (value_den, proportion_den) == (6, 12)
    assert proportion_cols is value_cols


def test_scaled_columns_share_the_array_when_proportion_is_read_first():
    matrix = owndeg_isolated_matrix()
    proportion_den, proportion_cols = scaled_columns(matrix, Mode.PROPORTION)
    value_den, value_cols = scaled_columns(matrix, Mode.VALUE)
    assert (value_den, proportion_den) == (6, 12)
    assert proportion_cols is value_cols
    assert value_cols.tolist() == (matrix.entries * [[2], [3], [3]]).tolist()


def test_scaled_columns_of_unequal_sizes_are_distinct_arrays():
    # sizes (4, 5, 2) over denominators 1: the value scales are all 1, and
    # the proportion ones (5, 4, 10) over 20
    matrix = PayoffMatrix([[1, 0, 2], [0, 1, 2], [3, 1, 0]], (1, 1, 1), (4, 5, 2), [2, 4, 6])
    (value_den, value_cols), (proportion_den, proportion_cols) = (
        scaled_columns(matrix, mode) for mode in Mode
    )
    assert (value_den, proportion_den) == (1, 20)
    assert value_cols is matrix.entries and proportion_cols is not value_cols
    assert proportion_cols.tolist() == [[5, 0, 10], [0, 4, 8], [30, 10, 0]]


@given(random_matrices(), st.data())
@settings(max_examples=40, deadline=None)
def test_read_offs_agree_for_any_subset_and_order(matrix, data):
    """Names read off one matrix in turn, in any subset and order, give what
    the same names give off a fresh copy of it, whose scaled columns are
    made in another order; and every value is the value of all six."""
    def copy() -> PayoffMatrix:
        return PayoffMatrix(matrix.entries, matrix.dens, matrix.group_sizes, matrix.col_masks)

    every = verify.read_offs(copy(), OBJECTIVE_NAMES)
    for _ in range(3):
        names = data.draw(st.lists(st.sampled_from(OBJECTIVE_NAMES), min_size=1, unique=True))
        found = verify.read_offs(matrix, names)
        assert list(found) == names
        assert found == verify.read_offs(copy(), [n for n in OBJECTIVE_NAMES if n in names])
        assert all(found[name][0] == every[name][0] for name in names)


def test_scaled_columns_past_int64_take_python_ints():
    matrix = PayoffMatrix(BIG_ROWS, COPRIME_DENS, (1, 2, 3), [2, 4, 6, 8])
    for mode in Mode:
        dens = matrix.denominators(mode)
        top = int(matrix.entries.max())
        assert top * max(lcm(*dens) // d for d in dens) * len(dens) >= 2**63
        _, cols = scaled_columns(matrix, mode)
        assert cols.dtype == object
    assert_matches_oracles(matrix)


def test_pricing_past_int64_takes_python_ints(monkeypatch):
    # the scaled columns fit in int64, but the pricing weights grow with the
    # basis determinant
    seen = []

    def spy(weights, bar, cols, top):
        scores = _column_scores(weights, bar, cols, top)
        seen.append((cols.dtype, scores.dtype))
        return scores

    monkeypatch.setattr(maximin, "_column_scores", spy)
    matrix = matrix_from_rows(BIG_ROWS, group_sizes=(1, 2, 3))
    assert_matches_oracles(matrix)
    assert (np.dtype(np.int64), np.dtype(object)) in seen


@pytest.mark.parametrize("weights, bar, fallback", [
    ([3, 1, 2], 5, False),
    ([2**30, 1, 2**30 + 1], 5, True),  # 2**30 * 2**40 * 3 passes 2**63
    ([3, 1, 2], 2**63 - 1, False),  # the bar alone, at the threshold
    ([3, 1, 2], 2**63, True),
])
def test_column_scores_guard(weights, bar, fallback):
    cols = np.array(BIG_ROWS, dtype=np.int64)
    scores = _column_scores(weights, bar, cols, int(cols.max()))
    assert scores.dtype == (object if fallback else np.int64)
    assert scores.tolist() == python_column_scores(weights, BIG_ROWS)


def dual_side_weights(matrix: PayoffMatrix, mode: Mode, duals: tuple[int, ...]) -> list[int]:
    """The certificate's dual row weights w_i = Q_i * (L / d_i), divided by
    their gcd."""
    dens = matrix.denominators(mode)
    L = lcm(*dens)
    w = [q * (L // d) for q, d in zip(duals, dens)]
    return [x // gcd(*w) for x in w]


def test_certificate_dual_side_past_int64_takes_python_ints():
    matrix = matrix_from_rows(BIG_ROWS, group_sizes=(1, 2, 3))
    for mode in Mode:
        value, lp = solved_outcome(matrix, mode)
        w = dual_side_weights(matrix, mode, lp.duals)
        assert sum(w) * BIG >= 2**63
        assert _best_dual_score(w, matrix.entries) == python_best_dual_score(
            w, matrix.entries.tolist()
        )
        assert tuple(w) in matrix._dual_best  # the certificate's own key
        _check_certificate(matrix, mode, value, lp)
    for w in ([1, 2, 3], [2**22, 1, 2**22]):
        assert _best_dual_score(w, matrix.entries) == python_best_dual_score(
            w, matrix.entries.tolist()
        )


def assert_python_ints(result) -> None:
    """Every rational of a read-off or a maximin solution has Python-int
    parts, every witness column index is a Python int, and every support
    cut has Python-int members."""
    if isinstance(result, tuple):  # (value, column) or (value, solution)
        value, rest = result
        assert_python_ints(value)
        assert_python_ints(rest)
    elif isinstance(result, Fraction):
        assert type(result.numerator) is int and type(result.denominator) is int
    elif isinstance(result, Cut):
        assert all(type(v) is int for v in result.members)
    elif isinstance(result, MaximinSolution):
        assert_python_ints(result.value)
        assert all(type(j) is int for j in result.support)
        for q in result.dual_weights:
            assert_python_ints(q)
        for cut, p in result.distribution.entries:
            assert_python_ints(cut)
            assert_python_ints(p)
    else:  # a witness column index
        assert type(result) is int


@pytest.mark.parametrize("matrix", [
    matrix_from_rows(BIG_ROWS, group_sizes=(1, 2, 3)),
    # equal group sizes: both modes read one LP outcome
    matrix_from_rows(BIG_ROWS, group_sizes=(2, 2, 2)),
    PayoffMatrix(BIG_ROWS, COPRIME_DENS, (1, 2, 3), [2, 4, 6, 8]),
])
def test_no_numpy_scalar_in_results_past_int64(matrix):
    assert_no_numpy_scalars(matrix)


@given(random_matrices())
@settings(max_examples=40, deadline=None)
def test_no_numpy_scalar_in_results(matrix):
    assert_no_numpy_scalars(matrix)


def assert_no_numpy_scalars(matrix: PayoffMatrix) -> None:
    for mode in Mode:
        assert_python_ints(max_from_matrix(matrix, mode))
        assert_python_ints(static_from_matrix(matrix, mode))
        assert_python_ints(solve_maximin(matrix, mode))
    for result in verify.read_offs(matrix, OBJECTIVE_NAMES).values():
        assert_python_ints(result)
    # the kept LP outcomes hold Python ints only: no Fraction, no Cut and no
    # numpy scalar; one per scaled column set, so one with equal group sizes
    assert len(matrix._solved) == (1 if len(set(matrix.group_sizes)) == 1 else 2)
    for found in matrix._solved.values():
        assert type(found) is _LPOutcome
        assert all(type(x) is int for x in plain_leaves(found))


def plain_leaves(found: tuple) -> list:
    """The leaves of nested tuples."""
    return [y for x in found for y in (plain_leaves(x) if isinstance(x, tuple) else [x])]
