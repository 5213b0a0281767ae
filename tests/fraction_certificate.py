"""An independent oracle for the maximin certificate: both sides of the
minimax equality recomputed in ``Fraction``s, one per (group, column) entry.

It is the rational twin of ``maximin._check_certificate``, which checks the
same equalities in integers over one common denominator; the two must accept
and reject the same certificates.
"""

from __future__ import annotations

from fractions import Fraction

from fairmaxcut.exact import Mode, PayoffMatrix
from fairmaxcut.maximin import CutDistribution, _CertificateError


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
    cuts = [matrix.cut(j) for j in support]
    if len(set(cuts)) != len(cuts) or set(cuts) != prob_by_cut.keys():
        raise _CertificateError("support columns and distribution cuts disagree")
    probs = [prob_by_cut[cut] for cut in cuts]
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
