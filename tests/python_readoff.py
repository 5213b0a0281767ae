"""Independent oracles for the array read-offs of a payoff matrix: the
tuple-and-list Python loops that the int64 array code of ``exact`` and
``maximin`` replaced.  They read ``entries.tolist()``, so every number they
touch is a Python int.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterator

from fairmaxcut.exact import Mode, PayoffMatrix
from fairmaxcut.maximin import CutDistribution, MaximinSolution, _CertificateError

from .dense_tableau import DenseTableau
from .fraction_certificate import _check_certificate


def python_scaled_columns(
    matrix: PayoffMatrix, mode: Mode
) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The matrix's columns as numerators over the lcm of the mode's denominators."""
    dens = matrix.denominators(mode)
    den = lcm(*dens)
    rows = [[x * (den // d) for x in row] for row, d in zip(matrix.entries.tolist(), dens)]
    return den, zip(*rows)


def python_max_from_matrix(matrix: PayoffMatrix, mode: Mode) -> tuple[Fraction, int]:
    """The best column sum and the first column reaching it."""
    den, cols = python_scaled_columns(matrix, Mode.VALUE)
    sums = list(map(sum, cols))
    best = max(range(len(sums)), key=sums.__getitem__)
    if mode is Mode.PROPORTION:
        den *= sum(matrix.group_sizes)
    return Fraction(sums[best], den), best


def python_static_from_matrix(matrix: PayoffMatrix, mode: Mode) -> tuple[Fraction, int]:
    """The best column minimum and the first column reaching it."""
    den, cols = python_scaled_columns(matrix, mode)
    mins = list(map(min, cols))
    best = max(range(len(mins)), key=mins.__getitem__)
    return Fraction(mins[best], den), best


def python_column_scores(weights: list[int], rows: list[list[int]]) -> list[int]:
    """Every column's pricing score sum_i weights[i] * rows[i][j], summed row
    by row over the rows with a non-zero weight."""
    scores = [0] * len(rows[0])
    for w, row in zip(weights, rows):
        if w:
            scores = list(map(add, scores, map(w.__mul__, row)))
    return scores


def tableau_primal(tableau) -> list[Fraction]:
    """A dense or revised LP's values of z and of the columns, as rationals."""
    return [Fraction(x, tableau.det) for x in tableau.primal_numerators()]


def tableau_duals(tableau) -> tuple[Fraction, ...]:
    """A dense or revised LP's dual row weights, as rationals summing to 1."""
    y, total = tableau.duals()
    return tuple(Fraction(w, total) for w in y)


def python_solve_maximin(matrix: PayoffMatrix, mode: Mode = Mode.PROPORTION) -> MaximinSolution:
    """``maximin.solve_maximin`` with list pricing over tuple columns, the
    dense tableau for the LP and the certificate checked by the ``Fraction``
    oracle.  It always runs column generation, never the uniform guess, and
    reads the support and weights off its last master's basic solution, so
    its tight counters are 0."""
    den, cols = python_scaled_columns(matrix, mode)
    cols = list(cols)
    rows = list(zip(*cols))
    k = len(cols)
    active = [max(range(k), key=lambda j: min(cols[j]))]
    master = DenseTableau([list(cols[active[0]])], den)
    while True:
        weights, bar = master.pricing()
        scores = python_column_scores(weights, rows)
        enter = max(range(k), key=scores.__getitem__)
        if scores[enter] <= bar:
            break
        if enter in active:
            raise _CertificateError("master duals price one of its own columns above its value")
        active.append(enter)
        master.add(list(cols[enter]))
    y, total = master.duals()
    value, duals = tableau_primal(master)[0], tuple(Fraction(w, total) for w in y)
    kept = sorted((j, p) for j, p in zip(active, master.primal_numerators()[1:]) if p > 0)
    support = tuple(j for j, _ in kept)
    distribution = CutDistribution(
        tuple((matrix.cut(j), Fraction(p, master.det)) for j, p in kept)
    )
    _check_certificate(matrix, mode, value, distribution, duals, support)
    masks = tuple(int(matrix.col_masks[j]) for j in support)
    return MaximinSolution(
        value, support, master.solves, master.pivots, 0, 0,
        masks, tuple(p for _, p in kept), tuple(y),
    )


def python_least_expectation(
    matrix: PayoffMatrix, mode: Mode, distribution: CutDistribution
) -> Fraction:
    """The least group expectation of a lottery over the matrix's cuts, each
    found by its mask: ``evaluate_distribution``'s minimum, for a matrix
    with no graph."""
    column = {m: j for j, m in enumerate(matrix.col_masks.tolist())}
    pairs = [(column[cut.mask()], p) for cut, p in distribution.entries]
    return min(
        sum(row[j] * p for j, p in pairs) / d
        for row, d in zip(matrix.entries.tolist(), matrix.denominators(mode))
    )


def assert_matches_column_generation(
    matrix: PayoffMatrix, mode: Mode, sol: MaximinSolution, oracle: MaximinSolution
) -> None:
    """A solve against ``python_solve_maximin``'s.  Where the uniform guess
    held, it held at a nondegenerate basis, whose dual is unique: the value
    and the duals are column generation's, and the printed lottery's least
    group expectation is the value; its support is another optimal basic
    solution's.  Everywhere else the solve is the oracle's, field for field."""
    if sol.dual_guessed:
        assert (sol.value, sol.dual_weights) == (oracle.value, oracle.dual_weights)
        assert python_least_expectation(matrix, mode, sol.distribution) == sol.value
    else:
        assert sol == oracle


def python_best_dual_score(w: list[int], entries: list[list[int]]) -> int:
    """The certificate's dual side: max_j sum_i w[i] * entries[i][j]."""
    return max(python_column_scores(w, entries))
