"""The maximin LP on a dense integer tableau, the oracle for
``maximin._RevisedLP``: Bland's rule on every tableau row over every column,
with the same variable order, start basis, tie-breaks and fraction-free
update.  Both must make the same pivots and hold the same integers.
"""

from __future__ import annotations

from fairmaxcut.maximin import _CertificateError


def best_static(cols: list[list[int]]) -> int:
    """Index of the first column with the largest minimum entry."""
    return max(range(len(cols)), key=lambda j: min(cols[j]))


class DenseTableau:
    """The standard-form LP of the ``maximin`` module docstring over the
    integer columns ``cols`` (C) read over ``den``, solved by Bland's primal
    simplex from the feasible basis {slacks} + {column ``start``}, by default
    the best static column, with z entering by the generic first pivot.
    Variables are numbered z, the columns in the order they entered, then
    the slacks; each row is [coefficients | rhs], and ``cost`` is the
    reduced-cost row.

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

    def __init__(self, cols: list[list[int]], den: int, start: int | None = None):
        gamma, k = len(cols[0]), len(cols)
        self.den, self.gamma, self.k = den, gamma, k
        self.det, self.solves, self.pivots = 1, 0, 0
        if start is None:
            start = best_static(cols)
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

    def duals(self) -> tuple[list[int], int]:
        """Dual row weights at optimality, over their positive total: y_i =
        -reduced cost of slack i, times det / den."""
        y = [-x for x in self.cost[1 + self.k : 1 + self.k + self.gamma]]
        total = sum(y)
        if total <= 0:
            raise _CertificateError("dual weights must have positive mass at optimality")
        return y, total

    def pricing(self) -> tuple[list[int], int]:
        """Integer weights w and bar b for pricing an integer column c over
        ``den``: sum(w * c) - b is a positive multiple of the column's dual
        mixture sum(y[i] * c[i]) / (total * den) minus the LP value."""
        y, total = self.duals()
        rhs_z = next((row[-1] for row, v in zip(self.rows, self.basis) if v == 0), 0)
        return [self.det * w for w in y], rhs_z * total * self.den
