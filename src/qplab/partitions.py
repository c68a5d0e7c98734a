"""Two-color partition families: declarative rules, enumeration and counting.

A family is one table: the colors that hold its odd smallest part (none
for an unanchored family) and the (color, parity) cells it allows, each
distinct or not and starting at an offset from the smallest part.  Three
independent computations hang off that table:

* ``enumerate_family`` lists the actual partitions, choosing the smallest
  value first and then copy counts for the (value, color) slots of its cells
  and its anchor copies, which are slots that must hold a copy; each slot is
  one letter, a character whose code point is the part's rank, the choices
  from a slot on are lists of strings of letters memoized per slot and
  remainder, the strings are sorted once, and each partition keeps its
  string as a key into one table per call of the 2n parts and their names:
  its parts and text are read through the table only when asked for, and
  ``==`` and ``hash`` read n and the key alone;
* ``count_family`` / ``family_series`` count through products of
  per-value factors, built from the largest smallest value down by
  multiplying in the factor that joins, so that one product's kernel calls
  give every smallest value's product, which scales far beyond listing
  range; the products, like the ADY walk at the end, are one integer list
  updated in place by the binomial kernels of :mod:`qplab.series`;
* the generating-function templates in :mod:`qplab.family_gf` re-derive the
  same series through the q-engine.

The overpartition table at the end divides by a theta series instead, so it
shares no product with families E and F, whose counts the catalog matches
against it.  The bounded-odd-part counts of Andrews, Dixit and Yee after it
come from one walk over the smallest part, ``_ady_walk``, with two readers:
``ady_counts`` adds every row into a table of 0..n, and ``count_ady`` reads
one entry of each row, so a single count makes O(n) adds, not O(n^2).

The identity catalog compares these routes against each other, so keeping
them structurally separate is the point, not an accident.
"""

from __future__ import annotations

import math
import sys
from operator import add, sub
from typing import Iterator, Optional

from .series import Series, _Record, idiv_one_minus, imul_one_minus

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


def _check(value, allowed, what: str) -> None:
    if value not in allowed:
        raise PartitionError(f"unknown {what} {value!r}")


class ColoredPart(_Record):
    value: int
    color: str

    def __post_init__(self):
        if self.value < 1:
            raise PartitionError("part values must be positive")
        _check(self.color, (BLUE, GREEN), "color")

    @property
    def parity(self) -> str:
        return EVEN if self.value % 2 == 0 else ODD

    def __str__(self) -> str:
        return f"{self.value}{self.color}"


def _letter(n: int, value: int, color: str) -> str:
    """A part of n as one character: ascending letters put larger values first, blue before green.

    The letter's code point is the part's rank, 2 (n - value), plus 1 for
    green.  A rank past the last code point, 0x10FFFF, is refused; only an n
    above 557,056 has parts of such a rank.
    """
    rank = 2 * (n - value) + (1 if color == GREEN else 0)
    if rank > sys.maxunicode:
        raise PartitionError(
            f"part {value}{color} of a partition of {n} has rank {rank}, "
            "past the last code point 0x10FFFF"
        )
    return chr(rank)


class _PartTable:
    """The parts of partitions of n by letter, and the text of each."""

    __slots__ = ("n", "parts", "names")

    def __init__(self, n: int, parts):
        self.n = n
        self.parts = {_letter(n, p.value, p.color): p for p in parts}
        self.names = {c: str(p) for c, p in self.parts.items()}


class TwoColorPartition:
    """An immutable multiset of colored parts in canonical order.

    A partition of n is a key into a table: the string of its parts'
    `_letter`s in ascending order, each letter a key of a `_PartTable` of
    n.  Strings compare by code point, so ascending keys are the canonical
    order, and a string holds no reference the garbage collector tracks.
    The partitions of one `enumerate_family` call share the call's table of
    its 2n parts; the constructor puts the parts it is given into a table
    of their own, with n their sum, and refuses a part whose rank is past
    the last code point.  Since n and the key determine the parts, `==` and
    `hash` read (n, key) and equal partitions on different tables compare
    and hash equal; `parts`, `text()` and `count` walk the key through the
    table on every call.
    """

    __slots__ = ("_key", "_table")

    def __init__(self, parts):
        parts = list(parts)
        n = sum(p.value for p in parts)
        self._table = _PartTable(n, parts)
        self._key = "".join(sorted(_letter(n, p.value, p.color) for p in parts))

    @classmethod
    def _on_table(cls, keys, table: _PartTable) -> list["TwoColorPartition"]:
        """One partition per key, each reading its parts from `table`."""
        new = object.__new__
        out = []
        for key in keys:
            p = new(cls)
            p._key = key
            p._table = table
            out.append(p)
        return out

    @property
    def parts(self) -> tuple[ColoredPart, ...]:
        return tuple(map(self._table.parts.__getitem__, self._key))

    def count(self, color: str | None = None, parity: str | None = None) -> int:
        _check(color, (None, BLUE, GREEN), "color")
        _check(parity, (None, ODD, EVEN), "parity")
        return sum(
            1
            for p in map(self._table.parts.__getitem__, self._key)
            if (color is None or p.color == color)
            and (parity is None or p.parity == parity)
        )

    def text(self) -> str:
        """Listing format: parts as <value><color> joined by '+'.

        The empty partition renders as the empty string.
        """
        return "+".join(map(self._table.names.__getitem__, self._key))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwoColorPartition):
            return False
        return self._table.n == other._table.n and self._key == other._key

    def __hash__(self) -> int:
        return hash((self._table.n, self._key))

    def __repr__(self) -> str:
        return f"TwoColorPartition({self.text() or 'empty'})"


class Cell(_Record):
    """One (color, parity) cell a family allows.

    A distinct cell holds each value at most once.  In an anchored family the
    cell's values start at smallest + `min_offset`; in an unanchored one they
    start at the least value of the parity, 1 or 2.  A negative offset is
    refused.
    """

    color: str
    parity: str
    distinct: bool = False
    min_offset: int = 0

    def __post_init__(self):
        _check(self.color, (BLUE, GREEN), "color")
        _check(self.parity, (ODD, EVEN), "parity")
        if self.min_offset < 0:
            raise PartitionError(f"negative min_offset {self.min_offset}")


class FamilySpec(_Record):
    """A family: the colors holding its odd smallest part, and its cells.

    `anchor` is () when the family has no smallest-part rule; `cells` lists
    only the cells the family allows, and a part outside them is forbidden.
    Construction refuses two cells of one (color, parity) and, in an
    anchored family, an offset that starts a cell at the other parity: the
    smallest part is odd, so an odd cell's offset must be even and an even
    cell's odd.
    """

    name: str
    anchor: tuple[str, ...]
    cells: tuple[Cell, ...]
    weight: str = WEIGHT_EVEN_PARTS

    def __post_init__(self):
        for color in self.anchor:
            _check(color, (BLUE, GREEN), "anchor color")
        _check(self.weight, WEIGHT_MODES, "weight mode")
        seen = set()
        for cell in self.cells:
            if (cell.color, cell.parity) in seen:
                raise PartitionError(f"two cells of color {cell.color!r} and parity {cell.parity!r}")
            seen.add((cell.color, cell.parity))
            if self.anchor and (cell.min_offset % 2 == 0) != (cell.parity == ODD):
                raise PartitionError(
                    f"cell {cell.color} {cell.parity}: min_offset {cell.min_offset} "
                    "starts it at the other parity"
                )


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

    The inverse factor is the same call with the other `distinct` and -w;
    only `_ady_walk`, which `ady_counts` and `count_ady` share, divides a
    factor out that way.
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

    The series is the sum over the smallest value s = 1, 3, 5, ... of
    q^(s * w), w the number of anchor copies, times the cell product P_s
    over the values from each cell's start(s) on.  P_s for every s is a
    partial product on the way to P_1, so the walk runs s downward: it
    builds the product past the largest s with s * w <= order, and at each
    s multiplies in the factor of each cell's joining value start(s) and
    adds the shifted product.  The kernel calls are those of P_1 alone,
    O(order) each, O(order^2) in all.  The product is one list, kept
    through q^(order - w), the part of it that lands within the order at
    s = 1.  Nothing is cached: a call takes 0.05-0.08 ms at order 30 and
    0.5-0.8 ms at order 120 (Python 3.11, best of 30).  An order above
    `budget` is refused; the default None bounds nothing, and no package
    code passes one.
    """
    if order < 0:
        raise PartitionError("order must be nonnegative")
    if budget is not None and order > budget:
        raise PartitionError(
            f"order {order} exceeds the enumeration budget {budget}"
        )
    _check(mode, WEIGHT_MODES, "weight mode")
    if not spec.anchor:
        return Series._trusted(_cell_product(spec, None, order, mode))
    w = len(spec.anchor)
    accumulate = sub if mode == WEIGHT_ALL_PARTS and w % 2 else add
    top = order - w
    total = [0] * (order + 1)
    first = (order // w + 1) | 1  # the least odd smallest value with first * w > order
    prod = _cell_product(spec, first, top, mode)
    for s in range(first - 2, 0, -2):
        for cell in spec.cells:
            v = _cell_start(cell, s)
            if v <= top:
                _part_factor(prod, v, _part_weight(mode, cell.color, v), cell.distinct, top)
        # total[s * w:] has order - s * w + 1 <= top + 1 entries, so map reads
        # only the part of prod that lands within the order
        total[s * w:] = map(accumulate, total[s * w:], prod)
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

    The walk builds strings, not objects.  Each (value, color) slot is
    named by its `_letter`, so ascending letters are the canonical order.
    For each smallest value s (a single pass with s = None when the family
    anchors none) the family's cells become one row of slots (value, letter,
    least, most) sorted by descending letter, so by ascending value.  A cell's
    slot holds 0 or 1 copies if the cell is distinct, else any number; each
    anchor copy of s is a slot with a least count of 1, merged with the
    cell's slot of the same (s, color) if there is one and otherwise holding
    exactly that copy.  The completions of slot j and a remainder rem, every
    choice of copy counts from slot j on whose values sum to rem, are one
    list of strings: those of (j + 1, rem - k * value) with letter * k
    appended, for each count k the slot allows.  A remainder of 0 completes
    only past every anchor slot.  The slots after j have lower letters, so
    each string is ascending as built, and the lists are memoized on (j, rem)
    within one s, so a tail of the row shared by many heads is built once.
    The memo is dropped as soon as the top list stands, and the keys of all
    s are sorted once, which is the canonical order of the partitions: the
    letters of n <= 30 are below 60, so every key is a string of one byte
    per letter, which the sort compares by memcmp, and no key is an object
    the garbage collector tracks.  Each
    key becomes a partition as it stands, on one `_PartTable` of the 2n
    parts and their names built once per call, so no part is looked up and
    no name joined until a partition's parts or text are read.  The listing
    grows like exp(c sqrt(n)), so n is held to the enumeration budget before
    any listing work; it is the one bound on n in this module, since its
    counts take at most O(n^2).
    """
    if n < 0:
        raise PartitionError("n must be nonnegative")
    if n > DEFAULT_ENUMERATION_BUDGET:
        raise PartitionError(
            f"n {n} exceeds the enumeration budget {DEFAULT_ENUMERATION_BUDGET}"
        )
    keys: list[str] = []
    memo: dict[tuple[int, int], list[str]] = {}

    def completions(j: int, rem: int) -> list[str]:
        # reads the `slots` and `forced` of the current smallest value
        if rem == 0:
            return [""] if j >= forced else []
        if j == len(slots) or slots[j][0] > rem:
            return []
        out = memo.get((j, rem))
        if out is not None:
            return out
        v, letter, least, most = slots[j]
        out = completions(j + 1, rem)[:] if least == 0 else []
        for k in range(max(least, 1), min(most, rem // v) + 1):
            copies = letter * k
            out += [t + copies for t in completions(j + 1, rem - k * v)]
        memo[(j, rem)] = out
        return out

    smallest_values = range(1, n // len(spec.anchor) + 1, 2) if spec.anchor else [None]
    for s in smallest_values:
        # letter -> (value, least, most): the copies its slot may hold
        row = {
            _letter(n, v, cell.color): (v, 0, 1 if cell.distinct else n)
            for cell in spec.cells
            for v in range(_cell_start(cell, s), n + 1, 2)
        }
        for color in spec.anchor:
            _, least, most = row.get(c := _letter(n, s, color), (s, 0, 0))
            row[c] = (s, least + 1, most + 1)
        slots = [(v, c, least, most) for c, (v, least, most) in sorted(row.items(), reverse=True)]
        forced = max((j + 1 for j, slot in enumerate(slots) if slot[2]), default=0)
        keys += completions(0, n)
        memo.clear()
    keys.sort()
    parts = (ColoredPart(v, color) for v in range(1, n + 1) for color in (BLUE, GREEN))
    return TwoColorPartition._on_table(keys, _PartTable(n, parts))


# ----------------------------------------------------------------------
# companion counts used by the catalog: integer tables of 0..n, independent
# of the q-engine routes the catalog compares them with; the ADY walk is
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


def _ady_walk(n: int, distinct: bool, allow_zero_part: bool) -> Iterator[tuple[int, list[int]]]:
    """Yield (s, parts) for each smallest part s, the ADY recurrence of both readers.

    For a smallest part s >= 1, the other parts are those at least s (above
    s when distinct) that are even or below 2s; `parts[m]` counts the
    partitions of m into them.  From s to s + 1 the part s (s + 1 when
    distinct) leaves that set and the odd part 2s + 1 joins it, one O(n)
    update each, kept through q^(n - s - 1), the part that still lands
    within n.  The walk starts from the partitions into even parts (distinct
    when distinct), which is also the row s = 0 it yields when a zero part
    is allowed: then no odd part survives the bound.  Each row is valid
    only until the walk resumes, and the partitions with smallest part s
    are `parts` shifted by s, so `ady_counts` adds every row into a table
    of 0..n and `count_ady` reads `parts[n - s]` alone.
    """
    if n < 0:
        raise PartitionError("n must be nonnegative")
    _check_ady(distinct, allow_zero_part)
    parts = [1] + [0] * n
    for v in range(2, n + 1, 2):
        _part_factor(parts, v, 1, distinct, n)
    if allow_zero_part:
        yield 0, parts
    if not distinct:
        idiv_one_minus(parts, 1, 1, n)
    for s in range(1, n + 1):
        yield s, parts
        top = n - s - 1
        _part_factor(parts, s + 1 if distinct else s, -1, not distinct, top)
        _part_factor(parts, 2 * s + 1, 1, distinct, top)


def ady_counts(n: int, distinct: bool, allow_zero_part: bool = False) -> list[int]:
    """`count_ady` for each of 0..n, in O(n^2).

    Every row of `_ady_walk` is added shifted by s into the table, about
    n^2 / 2 adds on top of the walk's kernel moves: 0.05 ms at n = 24 and
    0.8 ms at n = 120 (Python 3.11, best of 30).
    """
    table = [0] * (n + 1)
    for s, parts in _ady_walk(n, distinct, allow_zero_part):
        for m in range(s, n + 1):
            table[m] += parts[m - s]
    return table


def _check_ady(distinct: bool, allow_zero_part: bool) -> None:
    if allow_zero_part and not distinct:
        raise PartitionError("a zero part is only meaningful for distinct parts")


def count_ady(n: int, distinct: bool, allow_zero_part: bool = False) -> int:
    """Nonempty partitions of n with every odd part below twice the smallest.

    With `distinct` and `allow_zero_part`, parts are distinct nonnegative
    integers, so a single zero part may join (and then no odd part survives
    the bound).  The empty partition is never counted; for n = 0 the only
    admissible object is the bare zero part.  The count reads one entry,
    `parts[n - s]`, off each row of `_ady_walk`: O(n) adds on top of the
    walk's O(n^2) kernel moves, where `ady_counts` makes O(n^2).  At n = 200
    it takes 1.2 ms, against 2.1 ms for the whole table (Python 3.11, best
    of 30).
    """
    return sum(parts[n - s] for s, parts in _ady_walk(n, distinct, allow_zero_part))


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n
