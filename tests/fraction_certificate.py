"""An independent oracle for the maximin certificate: both sides of the
minimax equality recomputed in ``Fraction``s, one per (group, column) entry.

It is the rational twin of ``maximin._check_certificate``, which checks the
same equalities on an LP outcome's integers; ``check_outcome`` reads such an
outcome as rationals, and the two must accept and reject the same
certificates.  ``solved_outcome`` gives the value and the outcome that a
solve certified.
"""

from __future__ import annotations

from fractions import Fraction

from fairmaxcut.exact import Mode, PayoffMatrix, scaled_columns
from fairmaxcut.maximin import CutDistribution, _CertificateError, _LPOutcome, solve_maximin


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
    must carry exactly the distribution's cuts, each with a positive
    probability, summing to 1.  The dual side maximizes the
    dual mixture over every column.
    """
    if (
        len(duals) != matrix.group_count
        or sum(duals) != 1
        or any(q < 0 for q in duals)
    ):
        raise _CertificateError("dual weights are not a probability vector")
    prob_by_cut = dict(distribution.entries)
    cuts = [matrix.cut(j) for j in support]
    if len(set(cuts)) != len(cuts) or set(cuts) != prob_by_cut.keys():
        raise _CertificateError("support columns and distribution cuts disagree")
    probs = [prob_by_cut[cut] for cut in cuts]
    if not probs or sum(probs) != 1 or min(probs) <= 0:
        raise _CertificateError("support weights are not a probability vector on distinct columns")
    dens, entries = matrix.denominators(mode), matrix.entries.tolist()
    primal = min(
        sum(row[j] * p for j, p in zip(support, probs)) / d for row, d in zip(entries, dens)
    )
    weighted = [(q / d, row) for q, d, row in zip(duals, dens, entries) if q]
    dual = max(sum(w * row[j] for w, row in weighted) for j in range(matrix.column_count))
    if primal != value or dual != value:
        raise _CertificateError(
            f"strong duality certificate failed: primal {primal}, dual {dual}, value {value}"
        )


def check_outcome(matrix: PayoffMatrix, mode: Mode, value: Fraction, lp: _LPOutcome) -> None:
    """``_check_certificate`` on an LP outcome's integers read as rationals:
    the support's weights over ``det``, as a distribution over the support
    columns' cuts, and the duals over ``total``.  The distribution is made
    past ``CutDistribution``'s own validation, so that weights which are not
    a probability vector reach the check."""
    distribution = object.__new__(CutDistribution)
    object.__setattr__(distribution, "entries", tuple(
        (matrix.cut(j), Fraction(p, lp.det)) for j, p in zip(lp.support, lp.weights)
    ))
    duals = tuple(Fraction(q, lp.total) for q in lp.duals)
    _check_certificate(matrix, mode, value, distribution, duals, lp.support)


def solved_outcome(matrix: PayoffMatrix, mode: Mode) -> tuple[Fraction, _LPOutcome]:
    """``solve_maximin``'s value and the LP outcome it certified, as the
    matrix keeps it: the two arguments after the mode of either check."""
    value = solve_maximin(matrix, mode).value
    _, cols = scaled_columns(matrix, mode)
    return value, matrix._solved[id(cols)]
