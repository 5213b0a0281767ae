"""Exact solver for the maximin distribution problem over a payoff matrix:

    maximize   min_i  sum_S M[i, S] * p_S
    subject to p is a probability vector over the columns.

This is the value-of-a-zero-sum-game LP over the columns of an
``exact.PayoffMatrix``: the distinct integer utility columns of all canonical
cuts, read over the denominators of the value or the proportion mode and
scaled to integers over one common denominator ``den``
(``exact.scaled_columns``, made once per matrix and denominator set and
shared with the other read-offs).  It is solved by column generation
(Gilmore & Gomory, Oper. Res. 1961) over a restricted master in the
standard form

    max z   s.t.   den * z - (C p)_i + s_i = 0   (one row per group)
                   sum_S p_S = 1
                   z, p, s >= 0

with C = den * M, started from the best static column and solved by primal
simplex with Bland's rule on one integer tableau, ``_Tableau``, whose pivots
are fraction-free: every entry is an integer over one common denominator, so
no pivot takes a gcd.  Its dual group mixture prices every column in exact
integer arithmetic, one vector-matrix product over the array C (int64 while
no score can reach 2**62, else Python ints), and the first column with the
largest reduced cost enters (Dantzig's rule), until no column prices above
the master value.  The tableau itself only ever holds Python ints.  The master
keeps its optimal tableau between steps: an entering column is priced into
the current basis and the simplex continues from there, since adding a
column leaves that basis primal feasible.  The last master's duals then
certify the optimum over all columns.  Restricting z to be non-negative loses
nothing because all payoff entries are >= 0.

The reported distribution is canonical: Bland's simplex is re-run from
scratch over the columns that are tight at the final duals, in column order,
so it does not depend on the path the master took.  When no column entered
the master, that re-solve is skipped, since its result is known: the point
mass on the start column s, with support (s,).  The proof:

- With s alone, the master's only pivot is z entering, on the group row r
  with the least C[r, s] (ties to the lowest row), so its duals are e_r.
- So no column entered exactly when C[r, j] <= C[r, s] for every column j,
  and the tight columns are then {j : C[r, j] == C[r, s]}, which holds s.
- s is also the first column with the largest minimum among the tight
  columns, so the cold tableau starts from the same basis and makes the
  same first pivot.
- After that pivot every tight column's reduced cost is 0 and every
  slack's at most 0, so Bland stops there, at the point mass on s.

``Fraction`` values are only made for the reported results: the value, the
positive probabilities and the duals.  Both sides of the minimax equality
are finally recomputed from the matrix's integer entries over the mode's
denominators, independently of the simplex and of the pricing code, in
integers only: the value, the probabilities and the duals are each put over
one common denominator and the comparisons are cross-multiplied, so no
``Fraction`` is made per entry.

When every group has one size s, the proportion-mode LP is the value-mode
LP with ``den`` times s: the same columns C, and z scaled by 1 / s, which
keeps every sign and every ratio order, so Bland's rule takes the same path.
``proportion_from_value`` then derives the proportion-mode optimum from the
value-mode one without a simplex, and re-certifies it in proportion mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .exact import Mode, PayoffMatrix, build_payoff_matrix, scaled_columns
from .graphs import Cut, Graph, GroupPartition

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CutDistribution:
    """Finite-support probability distribution over cuts, exact rationals."""

    entries: tuple[tuple[Cut, Fraction], ...]

    def __post_init__(self):
        seen = set()
        for cut, prob in self.entries:
            if prob < 0:
                raise ValueError(f"negative probability {prob} for cut {cut}")
            if cut in seen:
                raise ValueError(f"duplicate cut {cut} in distribution")
            seen.add(cut)
        # the sum in integers, over the lcm of the denominators
        scale = lcm(*(prob.denominator for _, prob in self.entries))
        total = sum(prob.numerator * (scale // prob.denominator) for _, prob in self.entries)
        if total != scale:
            raise ValueError(f"probabilities sum to {Fraction(total, scale)}, not 1")

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


@dataclass(frozen=True)
class MaximinSolution:
    """``master_solves`` counts the master's optimizations (the first one and
    one per entering column) and ``pivots`` the simplex pivots they made; the
    tight re-solve is in neither.  A solution derived by
    ``proportion_from_value`` ran no simplex, so both are 0; it is certified
    in proportion mode all the same."""

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

    Column generation over the matrix's distinct columns, scaled to one
    common denominator of the mode's; the restricted master is re-optimized
    from its previous optimal tableau each time a column enters.  The dual
    weights are the last master's, which certify every column; the
    distribution is Bland's simplex over the columns tight at those duals
    (the point mass on the start column when no column entered), and the
    support holds their column indices.
    """
    gamma, k = matrix.group_count, matrix.column_count
    if gamma == 0 or k == 0:
        raise ValueError("payoff matrix must be non-empty")
    den, cols = scaled_columns(matrix, matrix.denominators(mode))
    top = int(cols.max(initial=1))

    # restricted master, started from the best static column; the column
    # with the largest reduced cost enters until none prices above its value
    start = int(np.argmax(cols.min(axis=0)))
    active = [start]
    master = _Tableau([cols[:, start].tolist()], den)
    while True:
        weights, bar = master.pricing()
        scores = _column_scores(weights, bar, cols, top)
        enter = int(np.argmax(scores))
        if scores[enter] <= bar:
            break
        if enter in active:
            raise _CertificateError("master duals price one of its own columns above its value")
        active.append(enter)
        master.add(cols[:, enter].tolist())
    z, *_ = master.primal_numerators()
    value, duals = Fraction(z, master.det), master.duals()

    # canonical support: independent of the path the master took.  When no
    # column entered, the cold re-solve over the tight columns is known to
    # end at the point mass on the start column (module docstring).
    if len(active) == 1:
        support = (start,)
        distribution = CutDistribution.point_mass(matrix.cut(start))
    else:
        tight = np.flatnonzero(scores == bar).tolist()
        cold = _Tableau(cols[:, tight].T.tolist(), den)
        tight_z, *probs = cold.primal_numerators()
        if tight_z * value.denominator != value.numerator * cold.det:
            raise _CertificateError(
                f"tight columns reach {Fraction(tight_z, cold.det)}, column generation "
                f"reached {value}"
            )
        support = tuple(j for j, p in zip(tight, probs) if p > 0)
        distribution = CutDistribution(tuple(
            (matrix.cut(j), Fraction(p, cold.det)) for j, p in zip(tight, probs) if p > 0
        ))

    _check_certificate(matrix, mode, value, distribution, duals, support)
    return MaximinSolution(
        value=value,
        distribution=distribution,
        dual_weights=duals,
        support=support,
        master_solves=master.solves,
        pivots=master.pivots,
    )


def proportion_from_value(matrix: PayoffMatrix, solution: MaximinSolution) -> MaximinSolution:
    """The proportion-mode optimum of a matrix whose groups all have one size
    s, derived from its value-mode optimum ``solution``: the value over s,
    with the same distribution, duals and support (see the module
    docstring).  It is re-certified in proportion mode, and its counters are
    0."""
    size, *others = set(matrix.group_sizes)
    if others:
        raise ValueError("proportion mode is value mode over a scale only for equal group sizes")
    derived = replace(solution, value=solution.value / size, master_solves=0, pivots=0)
    _check_certificate(
        matrix, Mode.PROPORTION, derived.value, derived.distribution, derived.dual_weights,
        derived.support,
    )
    return derived


def _column_scores(weights: list[int], bar: int, cols: np.ndarray, top: int) -> np.ndarray:
    """Every column's pricing score sum_i weights[i] * cols[i, j], where
    ``top`` is at least the largest entry of ``cols``: in int64 while the
    scores and the bar stay below 2**62, else in Python ints."""
    if cols.dtype == object or max(map(abs, weights)) * top * len(weights) >> 62 or bar >> 62:
        return np.array(weights, dtype=object) @ cols.astype(object, copy=False)
    return np.array(weights, dtype=np.int64) @ cols


def _best_static(cols: list[list[int]]) -> int:
    """Index of the first column with the largest minimum entry."""
    return max(range(len(cols)), key=lambda j: min(cols[j]))


class _Tableau:
    """The standard-form LP of the module docstring over the integer columns
    ``cols`` (C) read over ``den``, solved by Bland's primal simplex from the
    feasible basis {slacks} + {best static column}.  Variables are numbered
    z, the columns in the order they entered, then the slacks; each row is
    [coefficients | rhs], and ``cost`` is the reduced-cost row.

    Pivots are fraction-free (Edmonds, J. Res. NBS 1967; Bareiss, Math.
    Comp. 1968): every entry is an integer over the one common denominator
    ``det``, which is the basis determinant up to sign, so each row is
    ``det`` times its rational tableau row and no entry needs a gcd.  A pivot
    on the positive entry p leaves its own row as it is, sets every other
    row x to (p * x - x[c] * pivot_row) // det, which divides exactly, and
    makes p the new ``det``; so ``det`` starts at 1 and stays positive, and
    sign tests on integer entries are sign tests on the rational ones.

    This is the LP of a rational tableau with each group row scaled by
    ``den`` and each slack by 1 / den; Bland's entering and leaving choices
    are the same under that scaling, and so are the value, the normalized
    duals and the basis."""

    def __init__(self, cols: list[list[int]], den: int):
        gamma, k = len(cols[0]), len(cols)
        self.den, self.gamma, self.k = den, gamma, k
        self.det, self.solves, self.pivots = 1, 0, 0
        start = _best_static(cols)
        # the start column priced into the group rows: row_i += cols[start][i] * last
        self.rows = []
        for i, top in enumerate(cols[start]):
            row = [den, *(top - col[i] for col in cols), *[0] * gamma, top]
            row[1 + k + i] = 1
            self.rows.append(row)
        self.rows.append([0, *[1] * k, *[0] * gamma, 1])
        self.basis = [1 + k + i for i in range(gamma)] + [1 + start]
        # reduced-cost row for the objective z (basis costs are all zero)
        self.cost = [1] + [0] * (k + gamma + 1)
        self._optimize()

    def add(self, col: list[int]) -> None:
        """Insert a column before the slacks and re-optimize from the current
        basis.  Its standard-form column is e_last - sum_i col[i] * e_i, and
        the tableau holds det * B^-1 e_last in the rhs (b = e_last) and
        det * B^-1 e_i in slack i, so the same combination of those tableau
        columns is det * B^-1 a; on the cost row it gives the column's
        reduced cost."""
        at = 1 + self.k
        terms = [(at + i, a) for i, a in enumerate(col) if a]
        for row in (*self.rows, self.cost):
            row.insert(at, row[-1] - sum(a * row[s] for s, a in terms))
        self.basis = [v + 1 if v >= at else v for v in self.basis]
        self.k += 1
        self._optimize()

    def _optimize(self) -> None:
        """Bland's rule from the current feasible basis to optimality: the
        first variable with a positive reduced cost enters, and the row with
        the least ratio rhs_r / row_r[enter] leaves, compared by
        cross-multiplying, with ties to the lowest basis index."""
        rows, cost, basis = self.rows, self.cost, self.basis
        n_vars = len(cost) - 1
        while True:
            enter = next((j for j in range(n_vars) if cost[j] > 0), -1)
            if enter < 0:
                break
            leave = -1
            for r, row in enumerate(rows):
                coef = row[enter]
                if coef <= 0:
                    continue
                if leave < 0:
                    leave = r
                    continue
                lhs, rhs = row[-1] * rows[leave][enter], rows[leave][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
            if leave < 0:
                raise _CertificateError(
                    "maximin LP is bounded by construction; unbounded pivot found"
                )
            self._pivot(leave, enter)
            basis[leave] = enter
            self.pivots += 1
        self.solves += 1

    def _pivot(self, r: int, c: int) -> None:
        # every other row changes, also where its entry in column c is 0:
        # it moves from the old det to the new one
        pivot_row = self.rows[r]
        p, det = pivot_row[c], self.det
        for row in (*self.rows, self.cost):
            if row is not pivot_row:
                coef = row[c]
                row[:] = [(p * x - coef * y) // det for x, y in zip(row, pivot_row)]
        self.det = p

    def primal_numerators(self) -> list[int]:
        """The values of z (the LP value) and of the columns, times ``det``."""
        values = [0] * (1 + self.k)
        for row, v in zip(self.rows, self.basis):
            if v <= self.k:
                values[v] = row[-1]
        return values

    def _slack_duals(self) -> tuple[list[int], int]:
        """Dual row weights at optimality, unnormalized: y_i = -reduced cost
        of slack i, times det / den; and their total."""
        y = [-x for x in self.cost[1 + self.k : 1 + self.k + self.gamma]]
        total = sum(y)
        if total <= 0:
            raise _CertificateError("dual weights must have positive mass at optimality")
        return y, total

    def duals(self) -> tuple[Fraction, ...]:
        """Dual row weights normalized to sum 1."""
        y, total = self._slack_duals()
        return tuple(Fraction(w, total) for w in y)

    def pricing(self) -> tuple[list[int], int]:
        """Integer weights w and bar b for pricing an integer column c over
        ``den``: sum(w * c) - b is a positive multiple of the column's dual
        mixture sum(duals[i] * c[i]) / den minus the LP value."""
        y, total = self._slack_duals()
        rhs_z = next((row[-1] for row, v in zip(self.rows, self.basis) if v == 0), 0)
        return [self.det * w for w in y], rhs_z * total * self.den


def _check_certificate(
    matrix: PayoffMatrix,
    mode: Mode,
    value: Fraction,
    distribution: CutDistribution,
    duals: tuple[Fraction, ...],
    support: tuple[int, ...],
) -> None:
    """Recompute both sides of the minimax equality from the matrix's integer
    entries over the mode's denominators d_i, in integers only: the value is
    V / W, and each side's rationals are put over one common denominator.

    The primal side puts the distribution over D, as integers P_j on its
    support columns, which must carry exactly the distribution's cuts; group
    i's expected utility is sum_j entries[i, j] * P_j / (D * d_i), so every
    group passes if that numerator times W is at least V * D * d_i, and one
    group must meet it with equality.  The dual side puts the duals over T,
    as integers Q_i, and each dual row weight over L = lcm(d_i), as w_i =
    Q_i * (L / d_i); the best column score max_j sum_i w_i * entries[i, j],
    times W, must equal V * T * L.  The support columns are read as Python
    ints; the column scores are one product over the entries array, with an
    int64 guard of their own.
    """
    V, W = value.numerator, value.denominator
    dens = matrix.denominators(mode)
    T = lcm(*(q.denominator for q in duals))
    Q = [q.numerator * (T // q.denominator) for q in duals]
    if len(Q) != matrix.group_count or sum(Q) != T or any(q < 0 for q in Q):
        raise _CertificateError("dual weights are not a probability vector")
    prob_by_cut = dict(distribution.entries)
    cuts = [matrix.cut(j) for j in support]
    if len(set(cuts)) != len(cuts) or set(cuts) != prob_by_cut.keys():
        raise _CertificateError("support columns and distribution cuts disagree")
    probs = [prob_by_cut[cut] for cut in cuts]
    D = lcm(*(p.denominator for p in probs))
    P = [p.numerator * (D // p.denominator) for p in probs]
    margins = [
        sum(map(mul, row, P)) * W - V * D * d
        for row, d in zip(matrix.entries[:, list(support)].tolist(), dens)
    ]
    L = lcm(*dens)
    best = _best_dual_score([q * (L // d) for q, d in zip(Q, dens)], matrix.entries)
    if min(margins) != 0 or best * W != V * T * L:
        raise _CertificateError(
            f"strong duality certificate failed: value {value}, least primal margin "
            f"{min(margins)}, dual score {best * W} against {V * T * L}"
        )


def _best_dual_score(w: list[int], entries: np.ndarray) -> int:
    """max_j sum_i w[i] * entries[i, j] for non-negative integer weights: in
    int64 while sum(w) * max entry stays below 2**62, else in Python ints."""
    if sum(w) * int(entries.max(initial=1)) >> 62:
        return int((np.array(w, dtype=object) @ entries.astype(object)).max())
    return int((np.array(w, dtype=np.int64) @ entries).max())


def df_fair(
    g: Graph, model, partition: GroupPartition, mode: Mode = Mode.PROPORTION
) -> MaximinSolution:
    """Best distribution over cuts for the worst-off group (dynamic fairness)."""
    return solve_maximin(build_payoff_matrix(g, model, partition), mode)
