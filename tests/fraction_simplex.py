"""An independent oracle for the maximin LP: primal simplex with Bland's rule
on a standard-form tableau of ``Fraction`` entries, solved from scratch.

It is the rational twin of ``maximin._RevisedLP`` and of the dense integer
tableau in ``dense_tableau``, with the LP

    max z   s.t.   z - (M p)_i + s_i = 0   (one row per group)
                   sum_S p_S = 1
                   z, p, s >= 0

and the same variable numbering (z, the columns, the slacks), so Bland's rule
takes the same path through both.
"""

from __future__ import annotations

from fractions import Fraction

from fairmaxcut.exact import Mode, PayoffMatrix
from fairmaxcut.maximin import _CertificateError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fraction_column(matrix: PayoffMatrix, j: int, mode: Mode) -> tuple[Fraction, ...]:
    """Column ``j`` of the payoff matrix as ``Fraction``s over the mode's
    denominators: the utilities (or per-capita utilities) of its cut."""
    column = matrix.entries[:, j].tolist()
    return tuple(Fraction(x, d) for x, d in zip(column, matrix.denominators(mode)))


def _simplex_maximin(
    cols: list[tuple[Fraction, ...]], gamma: int, start: int | None = None
) -> tuple[Fraction, list[Fraction], tuple[Fraction, ...]]:
    """Primal simplex with Bland's rule on the standard-form tableau, from
    scratch over ``cols`` (and from column ``start``, see ``_tableau``).

    Variables are indexed 0 = z, 1..k = columns, k+1..k+gamma = slacks.
    Returns (optimal value, column probabilities, dual row weights).
    """
    k = len(cols)
    tab, cost, basis = _tableau(cols, gamma, start)
    _bland(tab, cost, basis)

    # read off the solution
    values = [_ZERO] * (1 + k + gamma)
    for row, var in zip(tab, basis):
        values[var] = row[-1]
    return values[0], values[1 : 1 + k], _duals(cost, k, gamma)


def _tableau(
    cols: list[tuple[Fraction, ...]], gamma: int, start: int | None = None
) -> tuple[list[list[Fraction]], list[Fraction], list[int]]:
    """Standard-form tableau rows [coefficients | rhs], the reduced-cost row
    and the basis, at the feasible start {slacks} + {column ``start``}, by
    default the best static column: feasible because all payoff entries are
    non-negative."""
    k = len(cols)
    n_vars = 1 + k + gamma
    if start is None:
        start = max(range(k), key=lambda j: min(cols[j]))

    tab: list[list[Fraction]] = []
    for i in range(gamma):
        row = [_ZERO] * (n_vars + 1)
        row[0] = _ONE
        for j in range(k):
            row[1 + j] = -cols[j][i]
        row[1 + k + i] = _ONE
        tab.append(row)
    last = [_ZERO] * (n_vars + 1)
    for j in range(k):
        last[1 + j] = _ONE
    last[n_vars] = _ONE
    tab.append(last)

    basis = [1 + k + i for i in range(gamma)] + [1 + start]
    # price the starting column into the slack rows: row_i += M[i, start] * last
    for i in range(gamma):
        coef = cols[start][i]
        if coef != 0:
            row = tab[i]
            for j in range(n_vars + 1):
                if last[j] != 0:
                    row[j] += coef * last[j]

    # reduced-cost row for the objective c = e_z (basis costs are all zero)
    cost = [_ZERO] * (n_vars + 1)
    cost[0] = _ONE
    return tab, cost, basis


def _bland(tab: list[list[Fraction]], cost: list[Fraction], basis: list[int]) -> int:
    """Primal simplex with Bland's rule from a feasible basis to optimality,
    in place; returns the number of pivots."""
    n_vars = len(cost) - 1
    pivots = 0
    while True:
        enter = next((j for j in range(n_vars) if cost[j] > 0), -1)
        if enter < 0:
            return pivots
        leave = -1
        best_ratio: Fraction | None = None
        for r, row in enumerate(tab):
            coef = row[enter]
            if coef > 0:
                ratio = row[n_vars] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            raise _CertificateError("maximin LP is bounded by construction; unbounded pivot found")
        _pivot(tab, cost, leave, enter)
        basis[leave] = enter
        pivots += 1


def _duals(cost: list[Fraction], k: int, gamma: int) -> tuple[Fraction, ...]:
    """Dual row weights at optimality: y_i = -reduced cost of slack i,
    normalized to sum 1."""
    y = [-cost[1 + k + i] for i in range(gamma)]
    total = sum(y)
    if total <= 0:
        raise _CertificateError("dual weights must have positive mass at optimality")
    return tuple(w / total for w in y)


def _pivot(tab: list[list[Fraction]], cost: list[Fraction], r: int, c: int) -> None:
    pivot_row = tab[r]
    inv = pivot_row[c]
    # entries that are zero in the pivot row leave every other row unchanged
    nonzero = [j for j, x in enumerate(pivot_row) if x]
    for j in nonzero:
        pivot_row[j] /= inv
    for row in (*tab, cost):
        if row is pivot_row:
            continue
        coef = row[c]
        if coef:
            for j in nonzero:
                row[j] -= coef * pivot_row[j]
