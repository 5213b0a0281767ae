"""Exhaustive-enumeration solvers for the utilitarian and static-fair objectives,
and the group-by-cut payoff matrix that feeds the maximin LP.

Cuts are enumerated canonically with vertex 0 excluded (every objective here
is invariant under complementing the cut, so half the subsets suffice).  The
one enumeration pass is ``build_payoff_matrix``: it scores the canonical
cuts in numpy blocks of ``2**_BLOCK_BITS`` with ``utility.block_scorer``
(integer numerators over fixed per-group denominators, one masked popcount
per run of equally weighted edges and one weighted product) and keeps each distinct
numerator column once, with its first canonical cut.  Columns are
deduplicated on packed keys (``_first_rows``): a column's numerators are
mixed-radix digits packed into as few int64 words as fit below 2**63, and
one stable lexsort over those words finds each column's first occurrence,
in every block and across the blocks.  The matrix stores
those columns as one int64 array and their cuts as member masks.
Every objective here is a function of a cut's column, so the utilitarian
and static-fair optima are read off the distinct columns by array
reductions, each as its value and the index of its first best column
(``np.argmax`` picks it, so ``cut(j)`` is the first canonical maximizer).
A ``Cut`` is only made for a witness that is returned (``max_value``,
``static_fair``) or printed, or for a support column.  ``Fraction`` values
are only made for the results, from Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import TooLargeError
from .graphs import Cut, Graph, GroupPartition
from .utility import (
    UtilityModel, block_scorer, ground_set_size, int_dtype, require_compatible, xor_table
)

DEFAULT_ENUMERATION_LIMIT = 24
# build_payoff_matrix scores 2**_BLOCK_BITS consecutive canonical cuts per numpy block
_BLOCK_BITS = 12
# the most bytes an enumeration pass may need, estimated as every canonical
# cut a distinct column of int64 numerators held three times over for the
# copies the pass makes: 528 MB for the 21-cycle with singleton edge groups,
# whose whole solve peaks at 551 MB (the share of each copy is not measured)
MAX_SOLVE_BYTES = 2**31


class Mode(Enum):
    VALUE = "value"
    PROPORTION = "proportion"


@dataclass(frozen=True, eq=False)
class PayoffMatrix:
    """Group-by-cut utility columns, as integers.

    ``entries`` is a read-only, C-contiguous int64 array of shape (groups,
    columns): under the cut with member mask ``col_masks[j]`` (made by
    ``cut(j)``) group i's utility is ``entries[i, j] / dens[i]``, and its
    per-capita utility divides that by ``group_sizes[i]``.  Rows follow the
    partition's group order.  The constructor coerces array-likes and
    refuses negative entries, negative or repeated masks and a mask count
    other than the column count.  ``build_payoff_matrix`` makes the columns
    pairwise distinct, in canonical cut order, each with its first canonical
    cut; the constructor does not check that.
    """

    entries: np.ndarray
    dens: tuple[int, ...]
    group_sizes: tuple[int, ...]
    col_masks: np.ndarray

    def __post_init__(self):
        # coerce, check and freeze the arrays, and start the caches of
        # scaled_columns, of maximin's LP outcomes and of its certificate
        # dual maxima
        entries = np.array(self.entries, dtype=np.int64, order="C")
        masks = np.array(self.col_masks, dtype=np.int64)
        if entries.ndim != 2 or masks.shape != entries.shape[1:]:
            raise ValueError("payoff entries must be a group-by-column array, one column per mask")
        if entries.size and entries.min() < 0:
            raise ValueError("payoff entries must be non-negative")
        if masks.size and masks.min() < 0:
            raise ValueError("cut masks must be non-negative")
        # one pass over build_payoff_matrix's strictly increasing masks; others are sorted
        if not (masks[1:] > masks[:-1]).all() and not (np.diff(np.sort(masks)) > 0).all():
            raise ValueError("cut masks must be pairwise distinct")
        entries.flags.writeable = masks.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "col_masks", masks)
        object.__setattr__(self, "_scaled", {})
        object.__setattr__(self, "_solved", {})
        object.__setattr__(self, "_dual_best", {})

    def __eq__(self, other):
        if not isinstance(other, PayoffMatrix):
            return NotImplemented
        return (
            (self.dens, self.group_sizes) == (other.dens, other.group_sizes)
            and np.array_equal(self.entries, other.entries)
            and np.array_equal(self.col_masks, other.col_masks)
        )

    @property
    def group_count(self) -> int:
        return len(self.entries)

    @property
    def column_count(self) -> int:
        return len(self.col_masks)

    def cut(self, j: int) -> Cut:
        """The first canonical cut with column ``j``."""
        return Cut.from_mask(int(self.col_masks[j]))

    def denominators(self, mode: Mode) -> tuple[int, ...]:
        """Row denominators of utilities (value mode) or of per-capita
        utilities (proportion mode)."""
        if mode is Mode.VALUE:
            return self.dens
        return tuple(d * s for d, s in zip(self.dens, self.group_sizes))


def check_enumeration_limit(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> None:
    if g.vertex_count > limit:
        raise TooLargeError(
            f"graph has {g.vertex_count} vertices; exact enumeration is capped at {limit}"
        )


def check_solve_size(g: Graph, groups: int) -> None:
    """Raise ``TooLargeError`` if enumerating the canonical cuts of g into
    columns of ``groups`` numerators could need more than
    ``MAX_SOLVE_BYTES``; nothing is allocated."""
    needed = 3 * 8 * groups << max(g.vertex_count - 1, 0)
    if needed > MAX_SOLVE_BYTES:
        raise TooLargeError(
            f"solving {g.vertex_count} vertices and {groups} groups could keep {needed} bytes "
            f"of payoff columns; the limit is {MAX_SOLVE_BYTES}"
        )


def canonical_cut_count(vertex_count: int) -> int:
    return 1 if vertex_count == 0 else 1 << (vertex_count - 1)


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows equal to no earlier row, for a
    non-negative int64 array with at least one row and one column.

    Each row is packed into as few int64 words as fit below 2**63: the
    columns are mixed-radix digits, each with radix its maximum plus 1, and
    consecutive columns share a word while the product of their radices is
    at most 2**63.  Equal rows then have equal words and distinct rows
    distinct words, so one stable lexsort over the words (one key per word,
    however many columns it holds) puts each run of equal rows together,
    earliest first."""
    words, places, start, span = [], [], 0, 1
    for column, top in enumerate(rows.max(axis=0).tolist()):  # Python ints
        if span * (top + 1) > 1 << 63:  # close the word: its digits times their places
            words.append(rows[:, start:column] @ np.array(places, dtype=np.int64))
            places, start, span = [], column, 1
        places.append(span if top else 0)  # a full word's span, 2**63, overflows int64
        span *= top + 1
    words.append(rows[:, start:] @ np.array(places, dtype=np.int64))
    if len(words) == 1 and span <= 1 << 16:
        # numpy sorts 16-bit keys stably by radix sort, several times faster
        words[0] = words[0].astype(np.uint16)
    order = np.lexsort(words)
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for word in words:
        ranked = word[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    return np.sort(order[new])


def build_payoff_matrix(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> PayoffMatrix:
    """The enumeration pass: every canonical cut is scored, and each distinct
    column of group numerators is kept once, with its first cut.

    Canonical cut c (member mask ``c << 1``) has the free vertices 1..n-1
    as its bits.  Its crossing edges, one uint64 word per 64 edges, are the
    XOR of its members' incident-edge masks: one table over the low
    ``_BLOCK_BITS`` free vertices, built once by doubling, XORed with the
    block's row of the same table over the high ones (with at most
    ``_BLOCK_BITS`` free vertices, the one block is the low table itself).
    ``block_scorer`` turns them into int64 group numerators; the up-front bound (every edge
    of the group crossing) keeps them below 2**63.  Each block keeps the
    first index of each distinct row (``_first_rows``: the row packed into
    mixed-radix int64 words, one stable lexsort over the words), and the
    blocks' survivors are merged by the same rule, so every column keeps
    its first canonical cut and the columns stay in canonical order.  So
    the columns are pairwise distinct: this function's contract, unchecked
    by the ``PayoffMatrix`` constructor.  A graph past ``limit``, numerators
    past int64 or a pass past ``MAX_SOLVE_BYTES`` is refused before the
    enumeration allocates anything."""
    require_compatible(g, model, partition)
    check_enumeration_limit(g, limit)
    dens, bound, incident, numerators = block_scorer(g, model, partition.groups)
    if int_dtype(bound) is object:
        raise TooLargeError(
            f"group utility numerators reach {bound}; exact enumeration needs them below 2**63"
        )
    check_solve_size(g, partition.group_count)
    incident = incident[1:]  # vertex 0 is never a member
    if len(incident) <= _BLOCK_BITS:  # one block, with no high table
        rows = numerators(xor_table(incident))
        firsts = _first_rows(rows)
        columns = rows[firsts]
    else:
        low_table = xor_table(incident[:_BLOCK_BITS])
        firsts, columns = [], []
        for block, high in enumerate(xor_table(incident[_BLOCK_BITS:])):
            rows = numerators(low_table ^ high)
            keep = _first_rows(rows)
            firsts.append(keep + (block << _BLOCK_BITS))
            columns.append(rows[keep])
        # a column may first appear in one block and repeat in later ones
        firsts, columns = np.concatenate(firsts), np.concatenate(columns)
        keep = _first_rows(columns)
        firsts, columns = firsts[keep], columns[keep]
    return PayoffMatrix(
        entries=columns.T,
        dens=tuple(dens),
        group_sizes=tuple(len(gr) for gr in partition.groups),
        col_masks=firsts << 1,
    )


def scaled_columns(matrix: PayoffMatrix, mode: Mode) -> tuple[int, np.ndarray]:
    """The matrix's entries as numerators over ``den``, the lcm of the mode's
    denominators d_i: a read-only (groups, columns) array whose dtype is
    ``int_dtype`` of a bound on every column sum, the largest entry times
    the largest scale ``den // d_i`` times γ.

    It is made once per matrix and mode.  The two modes' scales agree
    exactly when every group has one size s, and then the proportion mode
    shares the value mode's array, over s * den.  When every scale is 1 and
    the dtype is int64 it is ``matrix.entries`` itself."""
    found = matrix._scaled.get(mode)
    if found is None:
        if mode is Mode.PROPORTION and len(set(matrix.group_sizes)) == 1:
            den, cols = scaled_columns(matrix, Mode.VALUE)
            found = den * matrix.group_sizes[0], cols
        else:
            dens = matrix.denominators(mode)
            den = lcm(*dens)
            scales = [den // d for d in dens]
            dtype = int_dtype(int(matrix.entries.max(initial=1)) * max(scales) * len(dens))
            cols = matrix.entries.astype(dtype, copy=False)
            if max(scales) > 1:
                cols = cols * np.array(scales, dtype=dtype)[:, None]
            cols.flags.writeable = False
            found = den, cols
        matrix._scaled[mode] = found
    return found


def max_from_matrix(matrix: PayoffMatrix, mode: Mode) -> tuple[Fraction, int]:
    """Utilitarian optimum read off a matrix whose groups partition the ground
    set: the best column sum, over the ground set size in proportion mode,
    and the first best column.  A cut's first canonical maximizer is the
    first occurrence of its column, and ``np.argmax`` picks the first best
    column, so ``matrix.cut(j)`` is that maximizer."""
    den, cols = scaled_columns(matrix, Mode.VALUE)
    sums = cols.sum(axis=0)
    best = int(np.argmax(sums))
    if mode is Mode.PROPORTION:
        den *= sum(matrix.group_sizes)
    return Fraction(int(sums[best]), den), best


def static_from_matrix(matrix: PayoffMatrix, mode: Mode) -> tuple[Fraction, int]:
    """Static-fair optimum read off a matrix: the best column minimum over the
    mode's denominators, and the first best column."""
    den, cols = scaled_columns(matrix, mode)
    mins = cols.min(axis=0)
    best = int(np.argmax(mins))
    return Fraction(int(mins[best]), den), best


def max_value(g: Graph, model: UtilityModel) -> tuple[Fraction, Cut]:
    """Maximum ground-set utility over all cuts, with the first canonical
    maximizer as witness, read off the matrix of the ground set as one
    group.  For the edge model this is the Max-Cut value."""
    require_compatible(g, model)
    size = ground_set_size(g, model)
    if size == 0:  # no edges under the edge model: every cut is worth 0
        check_enumeration_limit(g)
        return Fraction(0), Cut.of(())
    ground = GroupPartition(model.partition_kind, (frozenset(range(size)),), size)
    matrix = build_payoff_matrix(g, model, ground)
    value, best = max_from_matrix(matrix, Mode.VALUE)
    return value, matrix.cut(best)


def max_proportion(g: Graph, model: UtilityModel) -> tuple[Fraction, Cut]:
    """Maximum per-capita ground-set utility; shares its witness with
    max_value because the two objectives differ by the constant |ground set|
    (an empty ground set is worth 0 either way)."""
    value, witness = max_value(g, model)
    return value / max(ground_set_size(g, model), 1), witness


def static_fair(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    mode: Mode = Mode.PROPORTION,
) -> tuple[Fraction, Cut]:
    """Best single cut for the worst-off group (value or per-capita mode),
    with the first canonical maximizer as witness."""
    matrix = build_payoff_matrix(g, model, partition)
    value, best = static_from_matrix(matrix, mode)
    return value, matrix.cut(best)
