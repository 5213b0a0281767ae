"""Exhaustive-enumeration solvers for the utilitarian and static-fair objectives,
and the group-by-cut payoff matrix that feeds the maximin LP.

Cuts are enumerated canonically with vertex 0 excluded (every objective here
is invariant under complementing the cut, so half the subsets suffice).  The
one enumeration pass is ``build_payoff_matrix``: it scores the canonical
cuts in numpy blocks of ``2**_BLOCK_BITS`` with ``utility.block_scorer``
(integer numerators over fixed per-group denominators, one popcount per
``utility.weight_terms`` term) and keeps each distinct
numerator column once, with its first canonical cut.  Columns are
deduplicated on packed keys (``_first_rows``): a column's numerators are
mixed-radix digits packed into as few int64 words as fit below 2**63, and
one stable lexsort over those words finds each column's first occurrence,
in every block and across the blocks.  The matrix stores
those columns as one int64 array and their cuts as member masks; a ``Cut``
is only made for a witness or a support column.
Every objective here is a function of a cut's column, so the utilitarian
and static-fair optima, witnesses included, are read off the distinct
columns by array reductions (``np.argmax`` picks the first best column, so
the first canonical maximizer), and ``Fraction`` values are only made for
the results, from Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import TooLargeError
from .graphs import Cut, Graph, GroupPartition
from .utility import UtilityModel, block_scorer, ground_set_size, require_compatible, xor_table

DEFAULT_ENUMERATION_LIMIT = 24
# build_payoff_matrix scores 2**_BLOCK_BITS consecutive canonical cuts per numpy block
_BLOCK_BITS = 12


class Mode(Enum):
    VALUE = "value"
    PROPORTION = "proportion"


@dataclass(frozen=True)
class StaticSolution:
    objective: Fraction
    witness_cut: Cut


@dataclass(frozen=True, eq=False)
class PayoffMatrix:
    """Distinct group-by-cut utility columns, as integers.

    ``entries`` is a read-only, C-contiguous int64 array of shape (groups,
    columns): under the cut with member mask ``col_masks[j]`` (made by
    ``cut(j)``) group i's utility is ``entries[i, j] / dens[i]``, and its
    per-capita utility divides that by ``group_sizes[i]``.  Rows follow the
    partition's group order.  The columns are pairwise distinct and follow
    canonical cut order, each paired with the first canonical cut that has
    it.  The constructor coerces array-likes and refuses negative entries
    and repeated columns; ``build_payoff_matrix``, whose columns are
    distinct by construction, skips that last check (``_of_distinct``).
    """

    entries: np.ndarray
    dens: tuple[int, ...]
    group_sizes: tuple[int, ...]
    col_masks: np.ndarray

    def __post_init__(self):
        self._settle()
        k = self.column_count
        if k > 1 and (not self.group_count or len(_first_rows(self.entries.T)) != k):
            raise ValueError("payoff columns must be distinct")

    @classmethod
    def _of_distinct(cls, entries, dens, group_sizes, col_masks) -> "PayoffMatrix":
        """The matrix of columns already known to be pairwise distinct: the
        constructor without its distinctness pass."""
        matrix = cls.__new__(cls)
        for name, value in (
            ("entries", entries), ("dens", dens), ("group_sizes", group_sizes),
            ("col_masks", col_masks),
        ):
            object.__setattr__(matrix, name, value)
        matrix._settle()
        return matrix

    def _settle(self) -> None:
        """Coerce and check the arrays, freeze them, and start the cache of
        ``scaled_columns``."""
        entries = np.array(self.entries, dtype=np.int64, order="C")
        masks = np.array(self.col_masks, dtype=np.int64)
        if entries.ndim != 2 or masks.shape != entries.shape[1:]:
            raise ValueError("payoff entries must be a group-by-column array, one column per mask")
        if entries.size and entries.min() < 0:
            raise ValueError("payoff entries must be non-negative")
        entries.flags.writeable = masks.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "col_masks", masks)
        object.__setattr__(self, "_scaled", {})

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


def canonical_cut_count(vertex_count: int) -> int:
    return 1 if vertex_count == 0 else 1 << (vertex_count - 1)


def _canonical_masks(vertex_count: int) -> range:
    # canonical index c maps to the member mask c << 1 (vertex 0 stays out)
    return range(0, canonical_cut_count(vertex_count) << 1, 2)


def enumerate_canonical_cuts(g: Graph, limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[Cut]:
    """All cuts with vertex 0 excluded, in increasing bitmask order."""
    check_enumeration_limit(g, limit)
    return list(map(Cut.from_mask, _canonical_masks(g.vertex_count)))


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
    block's row of the same table over the high ones.  ``block_scorer``
    turns them into int64 group numerators; the up-front bound (every edge
    of the group crossing) keeps them below 2**63.  Each block keeps the
    first index of each distinct row (``_first_rows``: the row packed into
    mixed-radix int64 words, one stable lexsort over the words), and the
    blocks' survivors are merged by the same rule, so every column keeps
    its first canonical cut and the columns stay in canonical order."""
    require_compatible(g, model, partition)
    check_enumeration_limit(g, limit)
    dens, bound, incident, numerators = block_scorer(g, model, partition.groups)
    if bound >> 63:
        raise TooLargeError(
            f"group utility numerators reach {bound}; exact enumeration needs them below 2**63"
        )
    incident = incident[1:]  # vertex 0 is never a member
    low = min(len(incident), _BLOCK_BITS)
    low_table = xor_table(incident[:low])
    firsts, columns = [], []
    for block, high in enumerate(xor_table(incident[low:])):
        rows = numerators(low_table ^ high)
        keep = _first_rows(rows)
        firsts.append(keep + (block << low))
        columns.append(rows[keep])
    firsts, columns = np.concatenate(firsts), np.concatenate(columns)
    if block:  # a column may first appear in one block and repeat in later ones
        keep = _first_rows(columns)
        firsts, columns = firsts[keep], columns[keep]
    return PayoffMatrix._of_distinct(
        entries=columns.T,
        dens=tuple(dens),
        group_sizes=tuple(len(gr) for gr in partition.groups),
        col_masks=firsts << 1,
    )


def scaled_columns(matrix: PayoffMatrix, dens: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """The matrix's entries as numerators over one common denominator ``den``
    of ``dens``: a read-only (groups, columns) array, int64 while every
    column sum stays below 2**62, else of Python ints (object dtype).

    It is made once per matrix and denominator set, and every later call
    shares it; when every scale ``den // d`` is 1 and int64 suffices it is
    ``matrix.entries`` itself."""
    found = matrix._scaled.get(dens)
    if found is None:
        den = lcm(*dens)
        scales = [den // d for d in dens]
        bound = int(matrix.entries.max(initial=1)) * max(scales) * len(dens)
        if bound >> 62:
            cols = matrix.entries * np.array(scales, dtype=object)[:, None]
        elif max(scales) == 1:
            cols = matrix.entries
        else:
            cols = matrix.entries * np.array(scales, dtype=np.int64)[:, None]
        cols.flags.writeable = False
        found = matrix._scaled[dens] = den, cols
    return found


def max_from_matrix(matrix: PayoffMatrix, mode: Mode) -> tuple[Fraction, Cut]:
    """Utilitarian optimum read off a matrix whose groups partition the ground
    set: the best column sum, over the ground set size in proportion mode.
    A cut's first canonical maximizer is the first occurrence of its column,
    and ``np.argmax`` picks the first best column, so it carries the same
    witness."""
    den, cols = scaled_columns(matrix, matrix.dens)
    sums = cols.sum(axis=0)
    best = int(np.argmax(sums))
    if mode is Mode.PROPORTION:
        den *= sum(matrix.group_sizes)
    return Fraction(int(sums[best]), den), matrix.cut(best)


def static_from_matrix(matrix: PayoffMatrix, mode: Mode) -> StaticSolution:
    """Static-fair optimum read off a matrix: the best column minimum over the
    mode's denominators, with the first canonical maximizer as witness."""
    den, cols = scaled_columns(matrix, matrix.denominators(mode))
    mins = cols.min(axis=0)
    best = int(np.argmax(mins))
    return StaticSolution(Fraction(int(mins[best]), den), matrix.cut(best))


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
    return max_from_matrix(build_payoff_matrix(g, model, ground), Mode.VALUE)


def max_proportion(g: Graph, model: UtilityModel) -> tuple[Fraction, Cut]:
    """Maximum per-capita ground-set utility; shares its witness with
    max_value because the two objectives differ by the constant |ground set|."""
    value, witness = max_value(g, model)
    size = ground_set_size(g, model)
    if size == 0:
        return Fraction(0), witness
    return value / size, witness


def static_fair(
    g: Graph,
    model: UtilityModel,
    partition: GroupPartition,
    mode: Mode = Mode.PROPORTION,
) -> StaticSolution:
    """Best single cut for the worst-off group (value or per-capita mode).
    Ties break toward the first canonical cut."""
    return static_from_matrix(build_payoff_matrix(g, model, partition), mode)
