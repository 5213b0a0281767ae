"""Exact solver for the maximin distribution problem over a payoff matrix:

    maximize   min_i  sum_S M[i, S] * p_S
    subject to p is a probability vector over the columns.

This is the value-of-a-zero-sum-game LP over the columns of an
``exact.PayoffMatrix``: the distinct integer utility columns of all canonical
cuts, read over the denominators of the value or the proportion mode and
scaled to integers over one common denominator ``den``
(``exact.scaled_columns``, made once per matrix and mode and shared with
the other read-offs).  It is solved by column generation
(Gilmore & Gomory, Oper. Res. 1961) over a restricted master in the
standard form

    max z   s.t.   z - (C p)_i + s_i = 0   (one row per group)
                   sum_S p_S = 1
                   z, p, s >= 0

with C = den * M, so z is den times the maximin value and the LP never
reads ``den``.  It is started from the best static column and solved by primal
simplex with Bland's rule in one revised, fraction-free simplex,
``_RevisedLP``: it keeps the integer basis inverse det * B^-1, of size
(groups + 1)^2, over one common denominator, so no pivot takes a gcd, and it
makes reduced costs and tableau columns only where Bland's rule reads them.
It only ever holds Python ints.  The row (w, b) of ``inv`` at z's position
is det times the master's duals and value, and it prices every column in
exact integer arithmetic, one vector-matrix product over the array C
(in ``utility.int_dtype`` of a bound on the scores and the bar) with w and b
divided by their gcd, which drops the basis determinant's common factor
and keeps every comparison; the first column with the largest
reduced cost enters (Dantzig's rule), until no column prices above the
master value.  The master keeps its optimal basis between steps: an
entering column is appended and the simplex continues from that basis,
which stays primal feasible, with the new column as its first pivot.  The
last master's duals then certify the optimum over all columns.
Restricting z to be non-negative loses nothing because all payoff entries
are >= 0.

A read-off runs one LP path in two stages.  The value stage ends at the
point mass on the start column, the uniform guess's LP or the grown
master, and certifies the value on that LP's own basic solution and duals;
``maximin_value`` stops there.  The support stage, which only
``solve_maximin`` runs, makes the reported distribution canonical: it is
what Bland's simplex ends at when re-run from scratch over the columns
that are tight at the final duals, in column order, so it does not depend
on the path the master took.  That cold re-solve is skipped in two cases
where its result is known.

First, when no column enters the first master, the re-solve ends at the
point mass on the start column s, with support (s,); and that first master
is not even run as an LP.  The proof:

- With s alone, the master's only pivot is z entering, on the group row r
  with the least C[r, s] (ties to the lowest row), so z is C[r, s], its
  duals are e_r, and it prices column j at C[r, j]
  against the bar C[r, s].  That row is read off C, and the revised LP is
  built only once a column would enter, with that row as its first pricing
  round; the counters are one solve and one pivot either way.  Every
  ``_RevisedLP`` (the grown master, the guess's cold LP and the cold
  re-solve) starts at the basis that first pivot reaches from its own start
  column, in closed form and counted as one pivot, so z is basic
  throughout and never leaves.
- So no column enters exactly when C[r, j] <= C[r, s] for every column j,
  and the tight columns are then {j : C[r, j] == C[r, s]}, which holds s.
- s is also the first column with the largest minimum among the tight
  columns, so the cold re-solve starts from the same basis and makes the
  same first pivot.
- After that pivot every tight column's reduced cost is 0 and every
  slack's at most 0, so Bland stops there, at the point mass on s.

Second, when the master grew, its final basis B is optimal over all
columns, and its optimum is read off it when

- every basic value (the rhs column of ``inv``) is positive,
- the tight columns are exactly B's basic columns, and
- every non-basic slack has a positive dual.

The proof:

- z is always basic, so the last two tests say that every non-basic
  variable of the full LP has a negative reduced cost: a column that is not
  tight prices below the master's value, and a slack's reduced cost is
  minus its dual.  The objective of any feasible point is B's value plus
  those reduced costs times the non-basic values, so an optimum holds every
  non-basic variable at 0 and is B's basic solution: the optimal primal is
  unique.  By the first test B is also nondegenerate, so the optimal dual
  is unique too (Mangasarian, Linear Algebra Appl. 1979).
- The re-solve's LP is the full LP with the columns that are not tight held
  at 0.  B's solution is feasible there, so both LPs have one value, and
  every optimum of the re-solve's LP is one of the full LP, so it is B's
  solution.  Bland's rule ends at an optimum, so the re-solve would end at
  B's value, support and probabilities.

When a column would enter the first master, one dual is guessed before
the master grows: the uniform y0 = (1/γ, ..., 1/γ).  It is optimal whenever
the automorphisms of the instance act transitively on the groups (Bödi,
Herr & Joswig, Math. Program. 2013), as on the paper's odd cycles with
singleton groups, and it is only tried when every group has one size and
every row of C one sum, which every such instance passes.  y0 prices
column j at its sum over γ, so the largest column sum S bounds z.  The
cold re-solve above runs over the columns whose sum is S, and the guess
holds when

- its z times γ is S, so strong duality certifies it, and
- every basic value (the rhs column of ``inv``) is positive.

A nondegenerate optimal basis has a unique optimal dual (Mangasarian,
Linear Algebra Appl. 1979), and every optimal dual of the full LP is an
optimal dual of the LP over the tight columns, so y0 is the full LP's only
optimal dual.  The master would have ended at y0, with these tight columns,
so column generation reports the same value, duals, support and
distribution.  When the guess fails, column generation goes on from the
first master as if it had not been tried.

So the value stage ends at one LP whose basic solution is optimal over
all columns: both sides of the certificate are checked on it, the primal
side on its own support even where that is not the canonical one.  The
support stage then takes the support and probabilities off one LP's basic
solution: the value stage's (none for the point mass, the guess's cold
LP, or the master when its optimum is unique), and otherwise the cold
re-solve's, whose primal side is checked at the certified value.  Only a
printed support pays the re-solve.  On ``random_instance(14, 0.4, 1,
EDGES, 3)`` with singleton edge groups, the six values of
``verify.objective_values`` take 0.18 s without it and 10.0 s with it, and
0.63 s against 19.9 s at n = 15 (2-vCPU Xeon, single runs).
``tight_pivots`` counts a cold LP's pivots, at least one since z must
enter, and is 0 for the others.

The LP's outcome is kept in Python ints only (``_LPOutcome``): z and det,
the support's columns and their probability numerators over det, and the
reported duals' numerators and their total.  Both sides
of the minimax equality are recomputed from those integers and the
matrix's integer entries over the mode's denominators, independently of
the simplex and of the pricing code, with the comparisons
cross-multiplied.  A ``MaximinSolution`` holds no matrix, only its
support's cut masks: it makes the value's ``Fraction``, and when first
read its distribution, with the ``Cut`` values of those masks, and its
duals.

The LP's outcome depends only on C: the value is z / den, and the
distribution, duals, support and counters are C's.  When every group has
one size, ``exact.scaled_columns`` gives both modes one array.  The
matrix keeps the outcome per scaled column set (a grown master's with what
the support stage reads, ``_Grown``, until a solve replaces it with the
canonical one), so the second mode, and a solve after a value read, runs
no LP again; each call reads its value over its own ``den`` and is
certified in its own mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

import numpy as np

from .exact import Mode, PayoffMatrix, build_payoff_matrix, scaled_columns
from .graphs import Cut, Graph, GroupPartition
from .utility import int_dtype

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


class _LPOutcome(NamedTuple):
    """An LP's outcome over one scaled column set, in Python ints: z over
    det is ``den`` times the value; the support's columns, ascending, carry
    the probabilities ``weights[j] / det``; the reported duals are
    ``duals[i] / total``; and ``counters`` are a ``MaximinSolution``'s, in
    its order."""

    z: int
    det: int
    support: tuple[int, ...]
    weights: tuple[int, ...]
    duals: tuple[int, ...]
    total: int
    counters: tuple[int, int, int, int, bool]


class _Grown(NamedTuple):
    """The value stage's end at a grown master: the ``outcome`` read off the
    master's own basic solution, whose tight counters are still 0, and what
    the support stage reads to make it canonical: the ``master``, its
    ``columns`` in entering order and its last pricing ``scores`` and
    ``bar``."""

    outcome: _LPOutcome
    master: "_RevisedLP"
    columns: list[int]
    scores: np.ndarray
    bar: int


@dataclass(frozen=True, eq=False)
class MaximinSolution:
    """The optimum and the work that found it.  ``master_solves`` counts the
    master's optimizations (the first one and one per entering column) and
    ``pivots`` their Bland pivots, one solve and one pivot for the first
    master even though its result is read off the columns in closed form,
    and every LP's first pivot (z entering) even though each LP is built at
    the basis it reaches;
    ``tight_columns`` counts the columns tight at the final duals and
    ``tight_pivots`` the pivots of the cold LP over them, off whose basis
    the support and the distribution were read.  Both are 0 when no column
    entered the master.  ``tight_pivots`` alone is 0 when the master's
    optimum was unique and they were read off the master, since a cold LP
    pivots at least once.  The pivots are those of Bland's rule on the
    dense tableau of the same LP, however it is stored.  ``dual_guessed`` says whether the
    uniform dual certified the optimum; then the master ran once, and the
    tight re-solve is the guess's.  A mode that reuses the LP outcome of
    another mode over the same scaled columns carries the counters of the
    LP that found it.

    ``distribution`` and ``dual_weights`` are made when first read, from the
    certified integers: the support's cut masks ``_masks`` with their
    probability numerators ``_weights`` over their sum, and the dual
    numerators ``_duals`` over theirs.  A solution holds no matrix.
    Equality compares every reported field, those two included."""

    value: Fraction
    support: tuple[int, ...]
    master_solves: int
    pivots: int
    tight_columns: int
    tight_pivots: int
    dual_guessed: bool
    _masks: tuple[int, ...] = field(repr=False)
    _weights: tuple[int, ...] = field(repr=False)
    _duals: tuple[int, ...] = field(repr=False)

    @cached_property
    def distribution(self) -> CutDistribution:
        """The optimal lottery over the support's first canonical cuts."""
        det = sum(self._weights)
        return CutDistribution(tuple(
            (Cut.from_mask(m), Fraction(p, det)) for m, p in zip(self._masks, self._weights)
        ))

    @cached_property
    def dual_weights(self) -> tuple[Fraction, ...]:
        """The certifying group mixture, one weight per group."""
        total = sum(self._duals)
        return tuple(Fraction(q, total) for q in self._duals)

    def _reported(self) -> tuple:
        return (
            self.value, self.distribution, self.dual_weights, self.support, self.master_solves,
            self.pivots, self.tight_columns, self.tight_pivots, self.dual_guessed,
        )

    def __eq__(self, other):
        if not isinstance(other, MaximinSolution):
            return NotImplemented
        return self._reported() == other._reported()

    def __hash__(self):
        return hash(self._reported())


class _CertificateError(AssertionError):
    """Internal consistency failure: the pivoting produced an uncertified optimum."""


def maximin_value(matrix: PayoffMatrix, mode: Mode = Mode.PROPORTION) -> Fraction:
    """Exact value of the maximin LP with a strong-duality certificate: the
    value stage of ``solve_maximin`` alone (module docstring).  It ends at
    the point mass on the start column, the uniform guess's LP or the grown
    master, and certifies both sides on that LP's own basic solution and
    duals; it reads no support, so it never runs the cold re-solve.  The
    matrix keeps the LP's outcome per scaled column set, so a later value
    read or solve of either mode runs neither stage again; every call
    certifies its own value in its own mode."""
    gamma, k = matrix.group_count, matrix.column_count
    if gamma == 0 or k == 0:
        raise ValueError("payoff matrix must be non-empty")
    den, cols = scaled_columns(matrix, mode)
    # keyed by the shared array, which the matrix keeps as long as this entry
    found = matrix._solved.get(id(cols))
    if found is None:
        found = matrix._solved[id(cols)] = _solve_lp(matrix, cols)
    lp = found.outcome if isinstance(found, _Grown) else found
    value = Fraction(lp.z, lp.det * den)
    _check_certificate(matrix, mode, value, lp)
    return value


def solve_maximin(matrix: PayoffMatrix, mode: Mode = Mode.PROPORTION) -> MaximinSolution:
    """Exact optimum of the maximin LP with a strong-duality certificate.

    Column generation over the matrix's columns, scaled to one common
    denominator of the mode's; the restricted master is re-optimized from
    its previous optimal basis each time a column enters.  When a column
    would enter and the groups look symmetric, the uniform dual is tried
    first, and if it certifies the optimum no further master runs.  The
    value stage (``maximin_value``) certifies the value; then the support
    stage reads the canonical distribution off one LP, Bland's simplex over
    the columns tight at the last master's duals (none for the point mass
    on the start column when no column entered, and the master itself when
    its optimum is unique), and checks its primal side at that value.  The
    support holds its column indices, and the dual weights are the last
    master's, which certify every column.  Only this read-off of a support
    pays the cold re-solve (module docstring).
    """
    value = maximin_value(matrix, mode)
    _, cols = scaled_columns(matrix, mode)
    found = matrix._solved[id(cols)]
    if isinstance(found, _Grown):
        found = _canonical(cols, found)
        _check_primal(matrix, mode, value, found)
        matrix._solved[id(cols)] = found
    masks = tuple(matrix.col_masks[list(found.support)].tolist())
    return MaximinSolution(value, found.support, *found.counters, masks, found.weights, found.duals)


def _solve_lp(matrix: PayoffMatrix, cols: np.ndarray) -> _LPOutcome | _Grown:
    """The value stage over the scaled columns ``cols``, whose z over det is
    ``den`` times the value of any mode with those columns: the outcome of
    the point mass on the start column or of the uniform guess's LP, both
    canonical, or else the grown master's, which the support stage
    (``_canonical``) has yet to make canonical."""
    gamma = matrix.group_count
    # the first master, over the best static column alone, in closed form
    mins = cols.min(axis=0)
    start, top = int(np.argmax(mins)), int(cols.max(initial=1))
    r, scores, bar = _first_pricing(cols, start)
    if scores.max() <= bar:
        # no column enters: the point mass on the start column, at z = bar
        duals = tuple(int(i == r) for i in range(gamma))
        return _LPOutcome(bar, 1, (start,), (1,), duals, 1, (1, 1, 0, 0, False))
    guess = _uniform_guess(matrix.group_sizes, cols, mins, top)
    if guess is not None:
        tight, lp = guess
        return _read_off(lp, tight, lp.duals(), (1, 1, len(tight), lp.pivots, True))
    # the column with the largest reduced cost enters until none prices
    # above the master's value, from the closed form's first round
    columns = [start]
    master = _RevisedLP([cols[:, start].tolist()], 0)
    enter = int(np.argmax(scores))
    while scores[enter] > bar:
        if enter in columns:
            raise _CertificateError("master duals price one of its own columns above its value")
        columns.append(enter)
        master.add(cols[:, enter].tolist())
        scores, bar = _price(master, cols, top)
        enter = int(np.argmax(scores))
    found = _read_off(master, columns, master.duals(), (master.solves, master.pivots, 0, 0, False))
    return _Grown(found, master, columns, scores, bar)


def _canonical(cols: np.ndarray, grown: _Grown) -> _LPOutcome:
    """The support stage after a grown master: the outcome with the
    canonical support, independent of the path the master took.  A unique
    optimum is read off the master; otherwise Bland's simplex runs from
    scratch over the tight columns (module docstring).  The duals stay the
    master's."""
    master, columns, found = grown.master, grown.columns, grown.outcome
    tight = np.flatnonzero(grown.scores == grown.bar).tolist()
    solves, pivots, *_ = found.counters
    if _unique_optimum(master, columns, tight):
        return found._replace(counters=(solves, pivots, len(tight), 0, False))
    cold = _tight_lp(cols, cols.min(axis=0), tight)
    counters = (solves, pivots, len(tight), cold.pivots, False)
    return _read_off(cold, tight, (found.duals, found.total), counters)


def _read_off(lp: "_RevisedLP", columns: list[int], duals: tuple, counters: tuple) -> _LPOutcome:
    """The outcome off ``lp``'s basic solution, whose columns are
    ``columns`` in order, with the reported ``duals`` (numerators and their
    total) and ``counters``."""
    z, *probs = lp.primal_numerators()
    support, weights = zip(*sorted((j, p) for j, p in zip(columns, probs) if p > 0))
    y, total = duals
    return _LPOutcome(z, lp.det, support, weights, tuple(y), total, counters)


def _unique_optimum(master: "_RevisedLP", active: list[int], tight: list[int]) -> bool:
    """Whether the master's optimum is the LP's only one (module
    docstring): every basic value is positive, the tight columns are its
    basic ones and every non-basic slack has a positive dual."""
    inv, basis, k = master.inv, master.basis, master.k
    if any(row[-1] <= 0 for row in inv):
        return False
    if sorted(active[v - 1] for v in basis if 0 < v <= k) != tight:
        return False
    *y, _ = inv[basis.index(0)]
    return all(w > 0 for i, w in enumerate(y, 1 + k) if i not in basis)


def _first_pricing(cols: np.ndarray, start: int) -> tuple[int, np.ndarray, int]:
    """The first master's binding row r, the first row with the least entry
    of column ``start``; its pricing scores, row r of ``cols``; and its bar
    cols[r, start].  These are what ``_price`` makes of a ``_RevisedLP`` over
    that column alone, whose z row is (e_r | C[r, start]) at det 1 (module
    docstring)."""
    r = int(np.argmin(cols[:, start]))
    return r, cols[r], int(cols[r, start])


def _price(master: "_RevisedLP", cols: np.ndarray, top: int) -> tuple[np.ndarray, int]:
    """Every column's pricing score and the bar a score must pass to enter:
    the row (w, b) of the master's ``inv`` at z's position, divided by its
    gcd.  w is det times the duals, whose sum is 1 (z is basic, and its
    column is 1 on every group row), and b is det times z, so column j
    prices above the master's value exactly when w . C_j > b.  The gcd keeps
    every comparison, tie and argmax, and drops the basis determinant's
    common factor, which would otherwise push the scores past int64."""
    *weights, bar = master.inv[master.basis.index(0)]
    g = gcd(bar, *weights)
    weights, bar = [w // g for w in weights], bar // g
    return _column_scores(weights, bar, cols, top), bar


def _uniform_guess(
    group_sizes: tuple[int, ...], cols: np.ndarray, mins: np.ndarray, top: int
) -> tuple[list[int], "_RevisedLP"] | None:
    """The columns tight at the uniform dual and Bland's LP over them, if
    that LP certifies the optimum with a nondegenerate basis (module
    docstring); None when the groups differ in size or the rows of ``cols``
    in their sums, each at most ``top`` (at least the largest entry) times
    the column count, or when the guess fails."""
    if len(set(group_sizes)) > 1:
        return None
    if len(set(cols.sum(axis=1, dtype=int_dtype(top * cols.shape[1])).tolist())) > 1:
        return None
    sums = cols.sum(axis=0)
    best = int(sums.max())
    tight = np.flatnonzero(sums == best).tolist()
    cold = _tight_lp(cols, mins, tight)
    z, *_ = cold.primal_numerators()
    if z * len(group_sizes) != best * cold.det or any(row[-1] <= 0 for row in cold.inv):
        return None
    return tight, cold


def _tight_lp(cols: np.ndarray, mins: np.ndarray, tight: list[int]) -> "_RevisedLP":
    """Bland's simplex from scratch over the columns ``tight``, in column
    order, started from the first of them with the largest minimum."""
    return _RevisedLP(cols[:, tight].T.tolist(), int(np.argmax(mins[tight])))


def _column_scores(weights: list[int], bar: int, cols: np.ndarray, top: int) -> np.ndarray:
    """Every column's pricing score sum_i weights[i] * cols[i, j], where
    ``top`` is at least the largest entry of ``cols``: the weights' dtype
    is ``int_dtype`` of γ * max|weights[i]| * top, a bound on every partial
    sum, and of the bar the scores are compared with.  Object columns give
    object scores whatever the weights' dtype."""
    bound = max(len(weights) * max(map(abs, weights)) * top, bar)
    return np.array(weights, dtype=int_dtype(bound)) @ cols


class _RevisedLP:
    """The standard-form LP of the module docstring over the integer columns
    ``cols`` (C), solved by Bland's primal simplex from the
    feasible basis {slacks} + {column ``start``}, and built at the basis its
    first pivot reaches.  Variables are numbered z, the columns in the order
    they entered, then the slacks.

    A revised simplex (Dantzig & Orchard-Hays, 1954): it keeps the columns
    and ``inv`` = det * B^-1, one row per basis position, and makes a tableau
    column d only for the entering variable.  Pivots are fraction-free
    (Edmonds, J. Res. NBS 1967; Bareiss, Math. Comp. 1968): a pivot on d's
    positive entry p leaves its own row as it is, sets every other row x to
    (p * x - d[x] * pivot_row) // det, which divides exactly, and makes p the
    new ``det``; so ``det`` (the basis determinant up to sign) stays
    positive, and sign tests on integers are sign tests on the rationals.
    ``inv`` is the slack and rhs columns of the dense integer tableau at
    ``den`` 1, so ``det``, the pivots, the primal and the duals are its
    integers.

    At the start basis only z prices positive, so the first pivot is z
    entering, with d = (1, ..., 1, 0), on the first group row r with the
    least C[r, start].  From the start basis's inverse [[I, C_start], [0,
    1]] at det 1 it keeps row r = (e_r | C[r, start]), makes each other
    group row i (e_i - e_r | C[i, start] - C[r, start]) and the convexity
    row (0 | 1), and det stays 1: the constructor writes those integers and
    counts the pivot.  Once z is basic it never leaves (``_entering``), and
    the row (w, b) of ``inv`` at z's position prices every variable: column
    C_j at w . C_j - b, slack i at -w_i, z at 0.  With group rows den * z
    - (C p)_i + s_i = 0 the LP would be this one with z divided by ``den``,
    which changes none of Bland's choices, the normalized duals or the
    basis."""

    def __init__(self, cols: list[list[int]], start: int):
        gamma, k = len(cols[0]), len(cols)
        self.cols, self.k = cols, k
        first = cols[start]
        low = min(first)
        r = first.index(low)
        self.inv = inv = []
        for i, c in enumerate(first):
            row = [0] * (gamma + 1)
            if i == r:
                row[i], row[-1] = 1, low
            else:
                row[i], row[r], row[-1] = 1, -1, c - low
            inv.append(row)
        inv.append([0] * gamma + [1])
        self.basis = [0 if i == r else 1 + k + i for i in range(gamma)] + [1 + start]
        self.det, self.solves, self.pivots = 1, 0, 1
        self._optimize(self._entering())

    def add(self, col: list[int]) -> None:
        """Append a column before the slacks and re-optimize from the current
        basis.  That basis is optimal without the column, so z is basic and
        no other variable prices positive: Bland's first entering variable is
        the new column if it prices positive, and there is none otherwise."""
        self.cols.append(col)
        self.basis = [v + 1 if v > self.k else v for v in self.basis]
        self.k += 1
        *w, b = self.inv[self.basis.index(0)]
        self._optimize(self.k if sum(map(mul, w, col)) > b else -1)

    def _optimize(self, enter: int) -> None:
        """Bland's rule from the current feasible basis to optimality, with
        ``enter`` the first entering variable (-1 for none): the row with
        the least ratio rhs_r / d_r leaves, compared by cross-multiplying,
        with ties to the lowest basis index."""
        inv, basis = self.inv, self.basis
        while enter >= 0:
            d = self._column(enter)
            leave = -1
            for r, coef in enumerate(d):
                if coef > 0 and leave < 0:
                    leave = r
                elif coef > 0:
                    lhs, rhs = inv[r][-1] * d[leave], inv[leave][-1] * coef
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave = r
            if leave < 0:
                raise _CertificateError(
                    "maximin LP is bounded by construction; unbounded pivot found"
                )
            # every other row moves to the new det; with d = 0 and p == det it stays
            pivot_row, p, det = inv[leave], d[leave], self.det
            for row, coef in zip(inv, d):
                if row is not pivot_row and (coef or p != det):
                    row[:] = [(p * x - coef * y) // det for x, y in zip(row, pivot_row)]
            self.det = p
            basis[leave] = enter
            self.pivots += 1
            enter = self._entering()
        self.solves += 1

    def _entering(self) -> int:
        """Bland's entering variable, -1 at optimality; the reduced costs
        are made in order, up to the first positive one.  z is basic: its
        row's entry in an entering column is minus a positive reduced cost,
        so once z has entered it never leaves."""
        *w, b = self.inv[self.basis.index(0)]
        for j, col in enumerate(self.cols):
            if sum(map(mul, w, col)) > b:
                return 1 + j
        return next((1 + self.k + i for i, x in enumerate(w) if x < 0), -1)

    def _column(self, v: int) -> list[int]:
        """det * B^-1 times the standard-form column of variable v > 0 (z is
        basic from the start): (-C_j, 1) for column j, e_i for slack i."""
        if v <= self.k:
            col = self.cols[v - 1]
            return [row[-1] - sum(map(mul, row, col)) for row in self.inv]
        return [row[v - 1 - self.k] for row in self.inv]

    def primal_numerators(self) -> list[int]:
        """The values of z (the LP value) and of the columns, times ``det``."""
        values = [0] * (1 + self.k)
        for row, v in zip(self.inv, self.basis):
            if v <= self.k:
                values[v] = row[-1]
        return values

    def duals(self) -> tuple[list[int], int]:
        """Dual row weights at optimality, over their positive total: y_i =
        -reduced cost of slack i, times det."""
        *y, _ = self.inv[self.basis.index(0)]
        total = sum(y)
        if total <= 0:
            raise _CertificateError("dual weights must have positive mass at optimality")
        return y, total


def _check_certificate(matrix: PayoffMatrix, mode: Mode, value: Fraction, lp: _LPOutcome) -> None:
    """Recompute both sides of the minimax equality from the LP's integers
    and the matrix's integer entries over the mode's denominators d_i, in
    integers only: the dual side (``_check_dual``), then the primal side
    (``_check_primal``)."""
    _check_dual(matrix, mode, value, lp)
    _check_primal(matrix, mode, value, lp)


def _check_primal(matrix: PayoffMatrix, mode: Mode, value: Fraction, lp: _LPOutcome) -> None:
    """The primal side at the value V / W reads the support's weights P_j
    over D = ``lp.det``: they must be positive, on distinct columns, and sum
    to D.  Group i's expected utility is sum_j entries[i, j] * P_j / (D *
    d_i), so every group passes if that numerator times W is at least V * D
    * d_i, and one group must meet it with equality.  The support columns
    are read as Python ints."""
    V, W = value.numerator, value.denominator
    support, P, D = lp.support, lp.weights, lp.det
    if not P or len(set(support)) != len(P) or len(support) != len(P) or sum(P) != D or min(P) <= 0:
        raise _CertificateError("support weights are not a probability vector on distinct columns")
    margins = [
        sum(map(mul, row, P)) * W - V * D * d
        for row, d in zip(matrix.entries[:, list(support)].tolist(), matrix.denominators(mode))
    ]
    if min(margins) != 0:
        raise _CertificateError(
            f"strong duality certificate failed: value {value}, least primal margin {min(margins)}"
        )


def _check_dual(matrix: PayoffMatrix, mode: Mode, value: Fraction, lp: _LPOutcome) -> None:
    """The dual side at the value V / W reads the duals Q_i over T =
    ``lp.total``, which must be non-negative and sum to T > 0, and weighs
    row i by w_i = Q_i * (L / d_i) with L = lcm(d_i), divided by the
    weights' gcd g; the best column score max_j sum_i w_i * entries[i, j],
    times g * W, must equal V * T * L.  The column scores are one product
    over the entries array, with a bound of their own
    (``_best_dual_score``).  Its maximum is kept per matrix and divided
    weight vector, which only this check fills: with equal group sizes, a
    reused LP outcome's proportion-mode weights are its value-mode ones,
    since the size cancels out of L / d_i."""
    V, W = value.numerator, value.denominator
    Q, T = lp.duals, lp.total
    if len(Q) != matrix.group_count or sum(Q) != T or T <= 0 or min(Q) < 0:
        raise _CertificateError("dual weights are not a probability vector")
    dens = matrix.denominators(mode)
    L = lcm(*dens)
    w = [q * (L // d) for q, d in zip(Q, dens)]
    g = gcd(*w)
    w = tuple(x // g for x in w)
    best = matrix._dual_best.get(w)
    if best is None:
        best = matrix._dual_best[w] = _best_dual_score(list(w), matrix.entries)
    if best * g * W != V * T * L:
        raise _CertificateError(
            f"strong duality certificate failed: value {value}, dual score {best * g * W} "
            f"against {V * T * L}"
        )


def _best_dual_score(w: list[int], entries: np.ndarray) -> int:
    """max_j sum_i w[i] * entries[i, j] for non-negative integer weights, in
    ``int_dtype`` of sum(w) * max entry, a bound on every partial sum.  The
    weights carry no determinant: they are divided by their gcd, so only
    genuinely large duals leave int64."""
    dtype = int_dtype(sum(w) * int(entries.max(initial=1)))
    return int((np.array(w, dtype=dtype) @ entries).max())


def df_fair(
    g: Graph, model, partition: GroupPartition, mode: Mode = Mode.PROPORTION
) -> MaximinSolution:
    """Best distribution over cuts for the worst-off group (dynamic fairness)."""
    return solve_maximin(build_payoff_matrix(g, model, partition), mode)
