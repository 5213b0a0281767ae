"""The int64 array read-offs, pricing and certificate scores against the
Python-int loops they replaced (``python_readoff``); the int64 overflow
guards forced onto their Python-int fallbacks; and no numpy scalar in any
result."""

from fractions import Fraction
from math import lcm

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
from fairmaxcut.families import random_instance
from fairmaxcut.graphs import Cut
from fairmaxcut.instances import OBJECTIVE_NAMES
from fairmaxcut.maximin import (
    MaximinSolution,
    _best_dual_score,
    _check_certificate,
    _column_scores,
    solve_maximin,
)
from fairmaxcut.utility import UtilityModel

from .python_readoff import (
    python_best_dual_score,
    python_column_scores,
    python_max_from_matrix,
    python_scaled_columns,
    python_solve_maximin,
    python_static_from_matrix,
)
from .test_maximin import certificate_matrices, matrix_from_rows

BIG = 1 << 40
# entries near 2**40: scaled over coprime denominators near 2**11, or priced
# with weights that grow with the basis determinant, products pass 2**62
BIG_ROWS = [
    [BIG + 3, BIG - 5, 7, BIG // 2],
    [BIG - 1, 11, BIG + 2, BIG // 3],
    [13, BIG + 1, BIG - 3, BIG // 5],
]
COPRIME_DENS = (2039, 2053, 2063)


@st.composite
def random_matrices(draw):
    """The payoff matrix of a random instance: n <= 10, any model."""
    model = draw(st.sampled_from(list(UtilityModel)))
    n = draw(st.integers(2, 10))
    inst = random_instance(
        n,
        draw(st.sampled_from([0.3, 0.5, 0.7, 1.0])),
        min(draw(st.integers(1, 4)), n - 1),
        model.partition_kind,
        draw(st.integers(0, 2**32 - 1)),
        model=model,
    )
    return build_payoff_matrix(inst.graph, inst.model, inst.partition)


def assert_matches_oracles(matrix: PayoffMatrix) -> None:
    """Both read-offs, witnesses included, and the whole maximin solution
    (value, duals, support, distribution and counters) in both modes."""
    for mode in Mode:
        den, cols = scaled_columns(matrix, matrix.denominators(mode))
        want_den, want_cols = python_scaled_columns(matrix, matrix.denominators(mode))
        assert den == want_den and cols.T.tolist() == list(map(list, want_cols))
        assert max_from_matrix(matrix, mode) == python_max_from_matrix(matrix, mode)
        assert static_from_matrix(matrix, mode) == python_static_from_matrix(matrix, mode)
        assert solve_maximin(matrix, mode) == python_solve_maximin(matrix, mode)


@given(st.one_of(certificate_matrices(), random_matrices()))
@settings(max_examples=150, deadline=None)
def test_array_readoffs_match_python_loops(matrix):
    assert_matches_oracles(matrix)


@pytest.mark.parametrize("grew", [False, True])
def test_random_matrices_reach_both_maximin_branches(grew):
    # one master solve means no column entered, and solve_maximin skipped
    # the cold re-solve that python_solve_maximin runs
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
        dens = matrix.denominators(mode)
        den, cols = scaled_columns(matrix, dens)
        again = scaled_columns(matrix, dens)
        assert again[0] == den and again[1] is cols
        assert (cols is matrix.entries) == shared
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0, 0] = 7


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
        assert BIG * max(lcm(*dens) // d for d in dens) >= 2**62
        _, cols = scaled_columns(matrix, dens)
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
    ([2**30, 1, 2**30 + 1], 5, True),  # 2**30 * 2**40 * 3 passes 2**62
    ([3, 1, 2], 2**62, True),  # the bar alone
])
def test_column_scores_guard(weights, bar, fallback):
    cols = np.array(BIG_ROWS, dtype=np.int64)
    scores = _column_scores(weights, bar, cols, int(cols.max()))
    assert scores.dtype == (object if fallback else np.int64)
    assert scores.tolist() == python_column_scores(weights, list(zip(*BIG_ROWS)))


def dual_side_weights(matrix: PayoffMatrix, mode: Mode, duals) -> list[int]:
    """The certificate's dual row weights w_i = Q_i * (L / d_i)."""
    dens = matrix.denominators(mode)
    T, L = lcm(*(q.denominator for q in duals)), lcm(*dens)
    return [q.numerator * (T // q.denominator) * (L // d) for q, d in zip(duals, dens)]


def test_certificate_dual_side_past_int64_takes_python_ints():
    matrix = matrix_from_rows(BIG_ROWS, group_sizes=(1, 2, 3))
    for mode in Mode:
        sol = solve_maximin(matrix, mode)
        w = dual_side_weights(matrix, mode, sol.dual_weights)
        assert sum(w) * BIG >= 2**62
        assert _best_dual_score(w, matrix.entries) == python_best_dual_score(
            w, matrix.entries.tolist()
        )
        _check_certificate(
            matrix, mode, sol.value, sol.distribution, sol.dual_weights, sol.support
        )
    for w in ([1, 2, 3], [2**22, 1, 2**22]):
        assert _best_dual_score(w, matrix.entries) == python_best_dual_score(
            w, matrix.entries.tolist()
        )


def assert_python_ints(result) -> None:
    """Every rational of a read-off or a maximin solution has Python-int
    parts, and every witness or support cut Python-int members."""
    if isinstance(result, tuple):  # (value, witness) or (value, solution)
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
    else:  # a StaticSolution
        assert_python_ints(result.objective)
        assert_python_ints(result.witness_cut)


@pytest.mark.parametrize("matrix", [
    matrix_from_rows(BIG_ROWS, group_sizes=(1, 2, 3)),
    # equal group sizes: read_offs derives the proportion mode from the value mode
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
