"""Exact solver for the maximin distribution problem over a payoff matrix:

    maximize   min_i  sum_S M[i, S] * p_S
    subject to p is a probability vector over the columns.

This is the value-of-a-zero-sum-game LP over the columns of an
``exact.PayoffMatrix``: the distinct integer utility columns of all canonical
cuts, read over the denominators of the value or the proportion mode.  It is
solved by column generation (Gilmore & Gomory, Oper. Res. 1961) over a
restricted master in the standard form

    max z   s.t.   z - (M p)_i + s_i = 0   (one row per group)
                   sum_S p_S = 1
                   z, p, s >= 0

started from the best static column and solved by primal simplex with exact
rational pivots and Bland's rule.  Its dual group mixture prices every column
in exact integer arithmetic, and the column with the largest reduced cost
enters (Dantzig's rule), until no column prices above the master value.  The
master keeps its optimal tableau between steps: an entering column is priced
into the current basis and the simplex continues from there, since adding a
column leaves that basis primal feasible.  The last master's duals then
certify the optimum over all columns.  Restricting z to be non-negative loses
nothing because all payoff entries are >= 0.

The reported distribution is canonical: Bland's simplex is re-run from
scratch over the columns that are tight at the final duals, in column order,
so it does not depend on the path the master took.  Both sides of the minimax
equality are finally recomputed from the matrix's integer entries over the
mode's denominators, independently of the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .exact import (
    DEFAULT_ENUMERATION_LIMIT,
    Mode,
    PayoffMatrix,
    build_payoff_matrix,
    static_from_matrix,
)
from .graphs import Cut, Graph, GroupPartition

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CutDistribution:
    """Finite-support probability distribution over cuts, exact rationals."""

    entries: tuple[tuple[Cut, Fraction], ...]

    def __post_init__(self):
        total = _ZERO
        seen = set()
        for cut, prob in self.entries:
            if prob < 0:
                raise ValueError(f"negative probability {prob} for cut {cut}")
            if cut in seen:
                raise ValueError(f"duplicate cut {cut} in distribution")
            seen.add(cut)
            total += prob
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @staticmethod
    def point_mass(cut: Cut) -> "CutDistribution":
        return CutDistribution(((cut, _ONE),))

    @staticmethod
    def from_pairs(pairs) -> "CutDistribution":
        """Merge duplicate cuts and drop zero-probability entries."""
        merged: dict[Cut, Fraction] = {}
        for cut, prob in pairs:
            merged[cut] = merged.get(cut, _ZERO) + prob
        return CutDistribution(tuple((c, p) for c, p in merged.items() if p > 0))

    @property
    def support(self) -> tuple[Cut, ...]:
        return tuple(cut for cut, _ in self.entries)

    def probability(self, cut: Cut) -> Fraction:
        for c, p in self.entries:
            if c == cut:
                return p
        return _ZERO


@dataclass(frozen=True)
class MaximinSolution:
    """``master_solves`` counts the master's optimizations (the first one and
    one per entering column) and ``pivots`` the simplex pivots they made; the
    tight re-solve is in neither."""

    value: Fraction
    distribution: CutDistribution
    dual_weights: tuple[Fraction, ...]
    support: tuple[int, ...]
    master_solves: int = 0
    pivots: int = 0


class _CertificateError(AssertionError):
    """Internal consistency failure: the pivoting produced an uncertified optimum."""


def solve_maximin(matrix: PayoffMatrix, mode: Mode = Mode.PROPORTION) -> MaximinSolution:
    """Exact optimum of the maximin LP with a strong-duality certificate.

    Column generation over the matrix's distinct columns, with entries over
    the mode's denominators; the restricted master is re-optimized from its
    previous optimal tableau each time a column enters.  The dual weights are
    the last master's, which certify every column; the distribution is
    Bland's simplex over the columns tight at those duals, and the support
    holds their column indices.
    """
    gamma, k = matrix.group_count, matrix.column_count
    if gamma == 0 or k == 0:
        raise ValueError("payoff matrix must be non-empty")
    dens = matrix.denominators(mode)
    int_cols = list(zip(*matrix.entries))

    # restricted master, started from the best static column; the column
    # with the largest reduced cost enters until none prices above its value
    active = [matrix.col_cuts.index(static_from_matrix(matrix, mode).witness_cut)]
    master = _Master(matrix.column(active[0], mode), gamma)
    while True:
        value, duals = master.value(), master.duals()
        weights, bar = _pricing(duals, dens, value)
        scores = [sum(map(mul, weights, col)) for col in int_cols]
        enter = max(range(k), key=scores.__getitem__)
        if scores[enter] <= bar:
            break
        if enter in active:
            raise _CertificateError("master duals price one of its own columns above its value")
        active.append(enter)
        master.add(matrix.column(enter, mode))

    # canonical support: independent of the path the master took
    tight = [j for j in range(k) if scores[j] == bar]
    tight_value, probs, _ = _simplex_maximin([matrix.column(j, mode) for j in tight], gamma)
    if tight_value != value:
        raise _CertificateError(
            f"tight columns reach {tight_value}, column generation reached {value}"
        )
    support = tuple(j for j, p in zip(tight, probs) if p > 0)
    distribution = CutDistribution(
        tuple((matrix.col_cuts[j], p) for j, p in zip(tight, probs) if p > 0)
    )

    _check_certificate(matrix, mode, value, distribution, duals, support)
    return MaximinSolution(
        value=value,
        distribution=distribution,
        dual_weights=duals,
        support=support,
        master_solves=master.solves,
        pivots=master.pivots,
    )


def _pricing(
    duals: tuple[Fraction, ...], dens: tuple[int, ...], value: Fraction
) -> tuple[list[int], int]:
    """Integer weights w and bar b for pricing a column c of integer payoff
    numerators: sum(w * c) - b is a positive multiple of the column's
    dual mixture sum(duals[i] * c[i] / dens[i]) minus ``value``."""
    ratios = [q * value.denominator / d for q, d in zip(duals, dens)]
    scale = lcm(*(r.denominator for r in ratios))
    return [r.numerator * (scale // r.denominator) for r in ratios], value.numerator * scale


class _Master:
    """The restricted master's tableau, kept optimal between column-generation
    steps.  It has the layout and the Bland numbering of ``_simplex_maximin``'s
    tableau over the same columns: z, the columns in the order they entered,
    the slacks, then the rhs."""

    def __init__(self, col: tuple[Fraction, ...], gamma: int):
        self.gamma = gamma
        self.k = 1
        self.tab, self.cost, self.basis = _tableau([col], gamma)
        self.solves = 0
        self.pivots = 0
        self._optimize()

    def add(self, col: tuple[Fraction, ...]) -> None:
        """Insert a column before the slacks and re-optimize from the current
        basis.  Its standard-form column is e_last - sum_i col[i] * e_i, and
        the tableau holds B^-1 e_last in the rhs (b = e_last) and B^-1 e_i in
        slack i, so the same combination of those tableau columns is B^-1 a;
        on the cost row it gives the column's reduced cost."""
        at = 1 + self.k
        terms = [(at + i, a) for i, a in enumerate(col) if a]
        for row in (*self.tab, self.cost):
            row.insert(at, row[-1] - sum(a * row[s] for s, a in terms))
        self.basis = [v + 1 if v >= at else v for v in self.basis]
        self.k += 1
        self._optimize()

    def _optimize(self) -> None:
        self.pivots += _bland(self.tab, self.cost, self.basis)
        self.solves += 1

    def value(self) -> Fraction:
        return next((row[-1] for row, v in zip(self.tab, self.basis) if v == 0), _ZERO)

    def duals(self) -> tuple[Fraction, ...]:
        return _duals(self.cost, self.k, self.gamma)


def _simplex_maximin(
    cols: list[tuple[Fraction, ...]], gamma: int
) -> tuple[Fraction, list[Fraction], tuple[Fraction, ...]]:
    """Primal simplex with Bland's rule on the standard-form tableau, from
    scratch over ``cols``.

    Variables are indexed 0 = z, 1..k = columns, k+1..k+gamma = slacks.
    Returns (optimal value, column probabilities, dual row weights).
    """
    k = len(cols)
    tab, cost, basis = _tableau(cols, gamma)
    _bland(tab, cost, basis)

    # read off the solution
    values = [_ZERO] * (1 + k + gamma)
    for row, var in zip(tab, basis):
        values[var] = row[-1]
    return values[0], values[1 : 1 + k], _duals(cost, k, gamma)


def _tableau(
    cols: list[tuple[Fraction, ...]], gamma: int
) -> tuple[list[list[Fraction]], list[Fraction], list[int]]:
    """Standard-form tableau rows [coefficients | rhs], the reduced-cost row
    and the basis, at the feasible start {slacks} + {best static column}:
    feasible because all payoff entries are non-negative."""
    k = len(cols)
    n_vars = 1 + k + gamma
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


def _check_certificate(
    matrix: PayoffMatrix,
    mode: Mode,
    value: Fraction,
    distribution: CutDistribution,
    duals: tuple[Fraction, ...],
    support: tuple[int, ...],
) -> None:
    """Recompute both sides of the minimax equality from the matrix's integer
    entries over the mode's denominators.

    The primal side sums the distribution over its support columns, which
    must carry exactly the distribution's cuts.  The dual side maximizes the
    dual mixture over every column.
    """
    if (
        len(duals) != matrix.group_count
        or sum(duals) != 1
        or any(q < 0 for q in duals)
    ):
        raise _CertificateError("dual weights are not a probability vector")
    prob_by_cut = dict(distribution.entries)
    cuts = [matrix.col_cuts[j] for j in support]
    if len(set(cuts)) != len(cuts) or set(cuts) != prob_by_cut.keys():
        raise _CertificateError("support columns and distribution cuts disagree")
    probs = [prob_by_cut[cut] for cut in cuts]
    dens = matrix.denominators(mode)
    primal = min(
        sum(row[j] * p for j, p in zip(support, probs)) / d
        for row, d in zip(matrix.entries, dens)
    )
    weighted = [(q / d, row) for q, d, row in zip(duals, dens, matrix.entries) if q]
    dual = max(sum(w * row[j] for w, row in weighted) for j in range(matrix.column_count))
    if primal != value or dual != value:
        raise _CertificateError(
            f"strong duality certificate failed: primal {primal}, dual {dual}, value {value}"
        )


def df_fair(
    g: Graph,
    model,
    partition: GroupPartition,
    mode: Mode = Mode.PROPORTION,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> MaximinSolution:
    """Best distribution over cuts for the worst-off group (dynamic fairness)."""
    return solve_maximin(build_payoff_matrix(g, model, partition, limit), mode)
