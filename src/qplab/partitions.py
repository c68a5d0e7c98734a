"""Two-color partition families: declarative rules, enumeration and counting.

A family is one table: the colors that hold its odd smallest part (none
for an unanchored family) and the (color, parity) cells it allows, each
distinct or not and starting at an offset from the smallest part.  Three
independent computations hang off that table:

* ``enumerate_family`` lists the actual partitions, choosing the smallest
  value first and then copy counts for the (value, color) slots of its cells;
  each slot is one integer rank, the choices from a slot on are lists of
  rank tuples memoized per slot and remainder, the tuples are sorted once,
  and each partition is built once from parts interned per call;
* ``count_family`` / ``family_series`` count through products of
  per-value factors, stepped from one smallest value to the next by dividing
  out the factor that leaves, which scales far beyond listing range; the
  products, like the ADY table at the end, are one integer list updated in
  place by the binomial kernels of :mod:`qplab.series`;
* the generating-function templates in :mod:`qplab.family_gf` re-derive the
  same series through the q-engine.

The overpartition table at the end divides by a theta series instead, so it
shares no product with families E and F, whose counts the catalog matches
against it.

The identity catalog compares these routes against each other, so keeping
them structurally separate is the point, not an accident.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import add, sub
from typing import Optional

from .series import Series, idiv_one_minus, imul_one_minus

BLUE = "b"
GREEN = "g"
ODD = "odd"
EVEN = "even"

DEFAULT_ENUMERATION_BUDGET = 30

#: counting modes: every part weighs +1, even parts weigh -1, even blue
#: parts weigh -1, or every part weighs -1 (for parity-of-length statistics)
WEIGHT_NONE = "none"
WEIGHT_EVEN_PARTS = "even_parts"
WEIGHT_EVEN_BLUE_PARTS = "even_blue_parts"
WEIGHT_ALL_PARTS = "all_parts"
WEIGHT_MODES = (WEIGHT_NONE, WEIGHT_EVEN_PARTS, WEIGHT_EVEN_BLUE_PARTS, WEIGHT_ALL_PARTS)


class PartitionError(ValueError):
    """Raised for requests outside a family's range or, for the listing, the budget's."""


@dataclass(frozen=True)
class ColoredPart:
    value: int
    color: str

    def __post_init__(self):
        if self.value < 1:
            raise PartitionError("part values must be positive")
        if self.color not in (BLUE, GREEN):
            raise PartitionError(f"unknown color {self.color!r}")

    @property
    def parity(self) -> str:
        return EVEN if self.value % 2 == 0 else ODD

    def sort_key(self) -> tuple[int, int]:
        # canonical: larger values first, blue before green at equal value
        return (-self.value, 0 if self.color == BLUE else 1)

    def __str__(self) -> str:
        return f"{self.value}{self.color}"


class TwoColorPartition:
    """An immutable multiset of colored parts in canonical order."""

    __slots__ = ("_parts",)

    def __init__(self, parts):
        self._parts = tuple(sorted(parts, key=ColoredPart.sort_key))

    @classmethod
    def _trusted(cls, parts) -> "TwoColorPartition":
        """A partition over `parts`, which must already be in canonical order.

        For parts the package listed itself: unlike ``TwoColorPartition(...)``
        it does not sort them.
        """
        p = object.__new__(cls)
        p._parts = tuple(parts)
        return p

    @property
    def parts(self) -> tuple[ColoredPart, ...]:
        return self._parts

    def count(self, color: str | None = None, parity: str | None = None) -> int:
        return sum(
            1
            for p in self._parts
            if (color is None or p.color == color)
            and (parity is None or p.parity == parity)
        )

    def text(self) -> str:
        """Listing format: parts as <value><color> joined by '+'.

        The empty partition renders as the empty string.
        """
        return "+".join(str(p) for p in self._parts)

    def sort_key(self):
        return tuple(p.sort_key() for p in self._parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoColorPartition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"TwoColorPartition({self.text() or 'empty'})"


@dataclass(frozen=True)
class Cell:
    """One (color, parity) cell a family allows.

    A distinct cell holds each value at most once.  In an anchored family the
    cell's values start at smallest + `min_offset`; in an unanchored one they
    start at the least value of the parity, 1 or 2.
    """

    color: str
    parity: str
    distinct: bool = False
    min_offset: int = 0


@dataclass(frozen=True)
class FamilySpec:
    """A family: the colors holding its odd smallest part, and its cells.

    `anchor` is () when the family has no smallest-part rule; `cells` lists
    only the cells the family allows, and a part outside them is forbidden.
    """

    name: str
    anchor: tuple[str, ...]
    cells: tuple[Cell, ...]
    weight: str = WEIGHT_EVEN_PARTS


FAMILIES: dict[str, FamilySpec] = {
    # all parts distinct within each color, even parts blue only
    "E": FamilySpec("E", (), (
        Cell(BLUE, ODD, True), Cell(BLUE, EVEN, True), Cell(GREEN, ODD, True),
    )),
    # even parts blue only, repetition free-for-all
    "F": FamilySpec("F", (), (Cell(BLUE, ODD), Cell(BLUE, EVEN), Cell(GREEN, ODD))),
    # evens blue and distinct, smallest odd and blue
    "Tomega": FamilySpec("Tomega", (BLUE,), (
        Cell(BLUE, ODD), Cell(BLUE, EVEN, True, 1), Cell(GREEN, ODD),
    )),
    # additionally the blue odds are distinct: the others start 2 above it
    "Tpsi": FamilySpec("Tpsi", (BLUE,), (
        Cell(BLUE, ODD, True, 2), Cell(BLUE, EVEN, True, 1), Cell(GREEN, ODD),
    )),
    # odds blue only, evens distinct in each color, weighted by even blues
    "Tnu": FamilySpec("Tnu", (BLUE,), (
        Cell(BLUE, ODD), Cell(BLUE, EVEN, True, 1), Cell(GREEN, EVEN, True, 1),
    ), WEIGHT_EVEN_BLUE_PARTS),
    # smallest odd with a blue copy, even blues at least 3 above it
    "A": FamilySpec("A", (BLUE,), (
        Cell(BLUE, ODD), Cell(BLUE, EVEN, True, 3), Cell(GREEN, ODD),
        Cell(GREEN, EVEN, True, 1),
    )),
    # smallest odd exactly once in blue, other blue odds 2 above it,
    # even blues 4 above it (hence 5 by parity)
    "B": FamilySpec("B", (BLUE,), (
        Cell(BLUE, ODD, False, 2), Cell(BLUE, EVEN, True, 5), Cell(GREEN, ODD),
        Cell(GREEN, EVEN, True, 1),
    )),
    # smallest odd in both colors, even blues at least 5 above it
    "C": FamilySpec("C", (BLUE, GREEN), (
        Cell(BLUE, ODD), Cell(BLUE, EVEN, True, 5), Cell(GREEN, ODD),
        Cell(GREEN, EVEN, True, 1),
    )),
}


def _cell_start(cell: Cell, smallest: Optional[int]) -> int:
    """Least value the cell may use besides the anchor copies (None: unanchored)."""
    if smallest is None:
        return 1 if cell.parity == ODD else 2
    return smallest + cell.min_offset


def _part_weight(mode: str, color: str, value: int) -> int:
    if mode == WEIGHT_ALL_PARTS:
        return -1
    if value % 2 == 0 and (
        mode == WEIGHT_EVEN_PARTS or (mode == WEIGHT_EVEN_BLUE_PARTS and color == BLUE)
    ):
        return -1
    return 1


def _part_factor(table: list[int], v: int, w: int, distinct: bool, top: int) -> None:
    """Multiply table[0..top] in place by (1 + w q^v) if distinct, else by 1/(1 - w q^v).

    The inverse factor is the same call with the other `distinct` and -w.
    """
    if distinct:
        imul_one_minus(table, -w, v, top)
    else:
        idiv_one_minus(table, w, v, top)


def _cell_product(spec: FamilySpec, smallest: Optional[int], order: int, mode: str) -> list[int]:
    """Product of per-value factors over the family's cells, through q^order."""
    out = [1] + [0] * order
    for cell in spec.cells:
        for v in range(_cell_start(cell, smallest), order + 1, 2):
            _part_factor(out, v, _part_weight(mode, cell.color, v), cell.distinct, order)
    return out


def family_series(
    spec: FamilySpec,
    order: int,
    mode: str = WEIGHT_NONE,
    budget: Optional[int] = None,
) -> Series:
    """Counting series of the family under the given weight mode.

    The series is the sum over the smallest value s = 1, 3, 5, ... of q^base
    times the cell product.  The product for s + 2 is the one for s through
    its lower order, with the factor of each cell's leaving value start(s)
    divided out: O(order) per cell and step, O(order^2) in all.  The
    product is one list, kept only through q^(order - base), the part that
    lands within the order once shifted by q^base.  Nothing is cached: a
    call takes 0.1-0.3 ms at order 30 and 0.5-3 ms at order 120.  An order
    above `budget` is refused; the default None bounds nothing, and no
    package code passes one.
    """
    if order < 0:
        raise PartitionError("order must be nonnegative")
    if budget is not None and order > budget:
        raise PartitionError(
            f"order {order} exceeds the enumeration budget {budget}"
        )
    if mode not in WEIGHT_MODES:
        raise PartitionError(f"unknown weight mode {mode!r}")
    if not spec.anchor:
        return Series._trusted(_cell_product(spec, None, order, mode))
    accumulate = add
    if mode == WEIGHT_ALL_PARTS and len(spec.anchor) % 2 == 1:
        accumulate = sub
    total = [0] * (order + 1)
    prod = None
    s = 1
    while (base := s * len(spec.anchor)) <= order:
        top = order - base
        if prod is None:
            prod = _cell_product(spec, s, top, mode)
        else:
            for cell in spec.cells:
                v = _cell_start(cell, s - 2)
                if v <= top:
                    w = -_part_weight(mode, cell.color, v)
                    _part_factor(prod, v, w, not cell.distinct, top)
        # total[base:] has top + 1 entries, so map reads prod[:top+1] only
        total[base:] = map(accumulate, total[base:], prod)
        s += 2
    return Series._trusted(total)


def count_family(spec: FamilySpec, n: int, use_weight: bool = False) -> int:
    """Number of family partitions of n, signed when use_weight is set."""
    mode = spec.weight if use_weight else WEIGHT_NONE
    return family_series(spec, n, mode).coeff(n)


def statistic_counts(spec: FamilySpec, n: int) -> tuple[int, int, int, int]:
    """(X0, X1, X2, X3): counts split by parity of #even parts and of #parts."""
    plain = family_series(spec, n, WEIGHT_NONE).coeff(n)
    even_signed = family_series(spec, n, WEIGHT_EVEN_PARTS).coeff(n)
    length_signed = family_series(spec, n, WEIGHT_ALL_PARTS).coeff(n)
    if (plain + even_signed) % 2 or (plain + length_signed) % 2:
        raise PartitionError("weighted and plain counts disagree in parity")
    x0, x1 = (plain + even_signed) // 2, (plain - even_signed) // 2
    x2, x3 = (plain + length_signed) // 2, (plain - length_signed) // 2
    return x0, x1, x2, x3


# ----------------------------------------------------------------------
# explicit enumeration

def enumerate_family(spec: FamilySpec, n: int) -> list[TwoColorPartition]:
    """Every family partition of n exactly once, in canonical order.

    The walk builds integers, not objects.  Each (value, color) slot is named
    by one rank, 2 * (n - value) + (1 if green else 0), so ascending ranks
    are the canonical order: larger value first, blue before green.  For
    each smallest value s (a single pass with s = None when the family
    anchors none) the family's cells become one row of slots (value, rank,
    distinct) sorted by descending rank, so by ascending value.  The
    completions of slot j and a remainder rem, every choice of copy counts
    k from slot j on whose values sum to rem, are one list of rank tuples:
    those of (j + 1, rem), then those of (j + 1, rem - k * value) with
    (rank,) * k appended.  The slots after j rank lower, so each tuple is
    ascending as built, and the lists are memoized on (j, rem) within one
    s, so a tail of the row shared by many heads is built once.  The anchor
    ranks, the largest of the row, go at the end of each completion of
    (0, n - anchor weight); they are merged in only past a value-s slot
    that outranks them (a green copy of s before a blue anchor).  The memo
    is dropped as soon as the top list stands, the keys of all s are
    sorted once, which sorts them exactly as `TwoColorPartition.sort_key`
    would, and each key becomes a partition of the 2n parts built once per
    call.  The listing grows like exp(c sqrt(n)), so n is held to the
    enumeration budget before any listing work; it is the one bound on n in
    this module, since its counts take at most O(n^2).
    """
    if n < 0:
        raise PartitionError("n must be nonnegative")
    if n > DEFAULT_ENUMERATION_BUDGET:
        raise PartitionError(
            f"n {n} exceeds the enumeration budget {DEFAULT_ENUMERATION_BUDGET}"
        )
    keys: list[tuple[int, ...]] = []
    memo: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def completions(slots: list[tuple[int, int, bool]], j: int, rem: int) -> list[tuple[int, ...]]:
        if rem == 0:
            return [()]
        if j == len(slots) or slots[j][0] > rem:
            return []
        out = memo.get((j, rem))
        if out is not None:
            return out
        v, r, distinct = slots[j]
        out = completions(slots, j + 1, rem)[:]
        for k in range(1, 2 if distinct else rem // v + 1):
            copies = (r,) * k
            out += [t + copies for t in completions(slots, j + 1, rem - k * v)]
        memo[(j, rem)] = out
        return out

    def rank(v: int, color: str) -> int:
        return 2 * (n - v) + (1 if color == GREEN else 0)

    smallest_values = range(1, n + 1, 2) if spec.anchor else [None]
    for s in smallest_values:
        remaining = n - (s or 0) * len(spec.anchor)
        if remaining < 0:
            break
        anchor = tuple(rank(s, color) for color in spec.anchor)
        slots = sorted(
            (
                (v, rank(v, cell.color), cell.distinct)
                for cell in spec.cells
                for v in range(_cell_start(cell, s), remaining + 1, 2)
            ),
            key=lambda slot: -slot[1],
        )
        tails = completions(slots, 0, remaining)
        memo.clear()
        if not anchor:
            keys += tails
            continue
        low = anchor[0]
        for t in tails:
            if t and t[-1] > low:
                i = bisect_right(t, low)
                keys.append(t[:i] + anchor + t[i:])
            else:
                keys.append(t + anchor)
    keys.sort()
    parts = [ColoredPart(n - r // 2, GREEN if r % 2 else BLUE) for r in range(2 * n)]
    return [TwoColorPartition._trusted([parts[r] for r in key]) for key in keys]


# ----------------------------------------------------------------------
# companion counts used by the catalog: integer tables of 0..n, independent
# of the q-engine routes the catalog compares them with; the ADY table is
# updated in place by the series binomial kernels

def overpartition_counts(n: int, odd_only: bool = False) -> list[int]:
    """Overpartitions of 0..n, optionally restricted to odd parts.

    The table is the theta reciprocal of Corteel and Lovejoy: the
    overpartition series is 1/phi(-q) and the odd-part one
    (-q; q^2)_inf / (q; q^2)_inf = phi(-q^2)/phi(-q), where
    phi(-q) = 1 + 2 sum_{k >= 1} (-1)^k q^(k^2).  The table starts as the
    numerator, 1 or phi(-q^2), and is divided by the sparse theta series
    in place, g_m = num_m - 2 sum_{k >= 1} (-1)^k g_(m - k^2): about
    sqrt(m) taps per entry, O(n^1.5) in all.
    """
    if n < 0:
        raise PartitionError("n must be nonnegative")
    table = [1] + [0] * n
    if odd_only:
        for k in range(1, math.isqrt(n // 2) + 1):
            table[2 * k * k] = -2 if k % 2 else 2
    odd, even = [], []  # the squares k^2 <= m of odd and of even k
    for m in range(1, n + 1):
        k = math.isqrt(m)
        if k * k == m:
            (odd if k % 2 else even).append(m)
        table[m] += 2 * (sum([table[m - e] for e in odd]) - sum([table[m - e] for e in even]))
    return table


def count_overpartitions(n: int, odd_only: bool = False) -> int:
    """Overpartitions of n, optionally restricted to odd parts."""
    return overpartition_counts(n, odd_only)[n]


def ady_counts(n: int, distinct: bool, allow_zero_part: bool = False) -> list[int]:
    """`count_ady` for each of 0..n, in O(n^2).

    For a smallest part s, the other parts are those at least s (above s
    when distinct) that are even or below 2s; `parts[m]` counts the
    partitions of m into them.  From s to s + 1 the part s (s + 1 when
    distinct) leaves that set and the odd part 2s + 1 joins it, one O(n)
    update each, and the table gains `parts` shifted by s.  With a zero
    part no odd part is allowed, which leaves the partitions into distinct
    even parts: `parts` before s = 1 when distinct.
    """
    if n < 0:
        raise PartitionError("n must be nonnegative")
    if allow_zero_part and not distinct:
        raise PartitionError("a zero part is only meaningful for distinct parts")
    parts = [1] + [0] * n
    for v in range(2, n + 1, 2):
        _part_factor(parts, v, 1, distinct, n)
    table = list(parts) if allow_zero_part else [0] * (n + 1)
    if not distinct:
        idiv_one_minus(parts, 1, 1, n)
    for s in range(1, n + 1):
        for m in range(s, n + 1):
            table[m] += parts[m - s]
        # only parts[0..n-s-1] matter from s + 1 on
        top = n - s - 1
        _part_factor(parts, s + 1 if distinct else s, -1, not distinct, top)
        _part_factor(parts, 2 * s + 1, 1, distinct, top)
    return table


def count_ady(n: int, distinct: bool, allow_zero_part: bool = False) -> int:
    """Nonempty partitions of n with every odd part below twice the smallest.

    With `distinct` and `allow_zero_part`, parts are distinct nonnegative
    integers, so a single zero part may join (and then no odd part survives
    the bound).  The empty partition is never counted; for n = 0 the only
    admissible object is the bare zero part.
    """
    return ady_counts(n, distinct, allow_zero_part)[n]


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n
