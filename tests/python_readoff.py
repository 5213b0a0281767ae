"""Independent oracles for the array read-offs of a payoff matrix: the
tuple-and-list Python loops that the int64 array code of ``exact`` and
``maximin`` replaced.  They read ``entries.tolist()``, so every number they
touch is a Python int.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterator

from fairmaxcut.exact import Mode, PayoffMatrix, StaticSolution
from fairmaxcut.graphs import Cut
from fairmaxcut.maximin import CutDistribution, MaximinSolution, _CertificateError, _Tableau

from .fraction_certificate import _check_certificate


def python_scaled_columns(
    matrix: PayoffMatrix, dens: tuple[int, ...]
) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The matrix's columns as numerators over one common denominator of ``dens``."""
    den = lcm(*dens)
    rows = [[x * (den // d) for x in row] for row, d in zip(matrix.entries.tolist(), dens)]
    return den, zip(*rows)


def python_max_from_matrix(matrix: PayoffMatrix, mode: Mode) -> tuple[Fraction, Cut]:
    den, cols = python_scaled_columns(matrix, matrix.dens)
    sums = list(map(sum, cols))
    best = max(range(len(sums)), key=sums.__getitem__)
    if mode is Mode.PROPORTION:
        den *= sum(matrix.group_sizes)
    return Fraction(sums[best], den), matrix.cut(best)


def python_static_from_matrix(matrix: PayoffMatrix, mode: Mode) -> StaticSolution:
    den, cols = python_scaled_columns(matrix, matrix.denominators(mode))
    mins = list(map(min, cols))
    best = max(range(len(mins)), key=mins.__getitem__)
    return StaticSolution(Fraction(mins[best], den), matrix.cut(best))


def python_column_scores(weights: list[int], cols: list[tuple[int, ...]]) -> list[int]:
    """Every column's pricing score sum_i weights[i] * col[i]."""
    return [sum(map(mul, weights, col)) for col in cols]


def tableau_primal(tableau: _Tableau) -> list[Fraction]:
    """A tableau's values of z and of the columns, as rationals."""
    return [Fraction(x, tableau.det) for x in tableau.primal_numerators()]


def python_solve_maximin(matrix: PayoffMatrix, mode: Mode = Mode.PROPORTION) -> MaximinSolution:
    """``maximin.solve_maximin`` with list pricing over tuple columns, and the
    certificate checked by the ``Fraction`` oracle."""
    den, cols = python_scaled_columns(matrix, matrix.denominators(mode))
    cols = list(cols)
    k = len(cols)
    active = [max(range(k), key=lambda j: min(cols[j]))]
    master = _Tableau([list(cols[active[0]])], den)
    while True:
        weights, bar = master.pricing()
        scores = python_column_scores(weights, cols)
        enter = max(range(k), key=scores.__getitem__)
        if scores[enter] <= bar:
            break
        if enter in active:
            raise _CertificateError("master duals price one of its own columns above its value")
        active.append(enter)
        master.add(list(cols[enter]))
    value, duals = tableau_primal(master)[0], master.duals()
    tight = [j for j in range(k) if scores[j] == bar]
    tight_value, *probs = tableau_primal(_Tableau([list(cols[j]) for j in tight], den))
    if tight_value != value:
        raise _CertificateError(
            f"tight columns reach {tight_value}, column generation reached {value}"
        )
    support = tuple(j for j, p in zip(tight, probs) if p > 0)
    distribution = CutDistribution(
        tuple((matrix.cut(j), p) for j, p in zip(tight, probs) if p > 0)
    )
    _check_certificate(matrix, mode, value, distribution, duals, support)
    return MaximinSolution(value, distribution, duals, support, master.solves, master.pivots)


def python_best_dual_score(w: list[int], entries: list[list[int]]) -> int:
    """The certificate's dual side: max_j sum_i w[i] * entries[i][j]."""
    scores = [0] * len(entries[0])
    for q, row in zip(w, entries):
        if q:
            scores = [s + q * x for s, x in zip(scores, row)]
    return max(scores)
