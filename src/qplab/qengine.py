"""q-Pochhammer products, rational expansions, smallest-part sums and 2phi1.

All Pochhammer arguments here are signed monomials +-q^e or zero; that is the
only shape the identity catalog ever needs, and it keeps every computation in
plain integer power series.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Optional, Sequence, Union

from .series import Series, idiv_one_minus, imul_one_minus


class QEngineError(ValueError):
    """Raised for arguments outside the supported monomial calculus."""


@dataclass(frozen=True)
class Parameter:
    """A Pochhammer argument: zero, or sign * q^exponent.

    `sign == 0` encodes the zero parameter; otherwise sign is +-1 and the
    exponent is a nonnegative integer.  Note that zero is distinct from q^0.
    """

    sign: int = 0
    exponent: int = 0

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise QEngineError("parameter sign must be -1, 0 or +1")
        if self.exponent < 0:
            raise QEngineError("parameter exponent must be nonnegative")
        if self.sign == 0 and self.exponent != 0:
            object.__setattr__(self, "exponent", 0)

    @classmethod
    def zero(cls) -> "Parameter":
        return cls(0, 0)

    @classmethod
    def monomial(cls, exponent: int, sign: int = 1) -> "Parameter":
        if sign not in (-1, 1):
            raise QEngineError("monomial sign must be -1 or +1")
        return cls(sign, exponent)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        s = "-" if self.sign < 0 else ""
        return f"{s}q^{self.exponent}" if self.exponent != 1 else f"{s}q"


def poch_finite(a: Parameter, step: int, length: int, order: int) -> Series:
    """(a; q^step)_length = prod_{j<length} (1 - a*q^(step*j)), truncated.

    The zero parameter gives 1.  An argument +q^0 makes the first factor
    vanish, so the whole product is the zero series for length >= 1; -q^0
    contributes a constant factor 2.
    """
    if length < 0:
        raise QEngineError("Pochhammer length must be nonnegative")
    if step < 1:
        raise QEngineError("Pochhammer step must be at least 1")
    out = [1] + [0] * order
    if a.is_zero:
        return Series._trusted(out)
    for e in range(a.exponent, min(a.exponent + step * length, order + 1), step):
        imul_one_minus(out, a.sign, e, order)
    return Series._trusted(out)


def poch_infinite(a: Parameter, step: int, order: int) -> Series:
    """(a; q^step)_inf truncated at the first factor beyond the order.

    Factors (1 - a*q^(step*j)) with monomial exponent above `order` are
    congruent to 1 and are skipped.  The argument +q^0 is rejected: its first
    factor is identically zero, which annihilates the product.
    """
    if step < 1:
        raise QEngineError("Pochhammer step must be at least 1")
    if a.is_zero:
        return Series.one(order)
    if a.exponent == 0 and a.sign == 1:
        raise QEngineError("(q^0; q^k)_inf vanishes; refusing to build it")
    within = max(0, (order - a.exponent) // step + 1)
    return poch_finite(a, step, within, order)


@dataclass(frozen=True)
class Poch:
    """The Pochhammer product (a; q^step)_length; length None means infinite."""

    a: Parameter
    step: int
    length: Optional[int] = None

    def series(self, order: int) -> Series:
        if self.length is None:
            return poch_infinite(self.a, self.step, order)
        return poch_finite(self.a, self.step, self.length, order)


def rational_series(
    numerator: Sequence[int],
    denominator_factors: Sequence[tuple[int, int, int]],
    order: int,
) -> Series:
    """numerator / prod (1 - sign*q^e)^multiplicity, truncated to `order`.

    Each denominator factor is a triple (sign, exponent, multiplicity) with
    exponent >= 1 so the constant term stays a unit.
    """
    out = list(Series.from_polynomial(numerator, order).coeffs)
    for sign, e, mult in denominator_factors:
        if e < 1:
            raise QEngineError("denominator factor exponent must be at least 1")
        if sign not in (-1, 1):
            raise QEngineError("denominator factor sign must be -1 or +1")
        if mult < 1:
            raise QEngineError("denominator factor multiplicity must be at least 1")
        for _ in range(mult):
            idiv_one_minus(out, sign, e, order)
    return Series._trusted(out)


# ----------------------------------------------------------------------
# sum-over-smallest-part templates

LENGTH_N = "n"
LENGTH_N_PLUS_1 = "n+1"
LENGTH_INF = "inf"


@dataclass(frozen=True)
class PochFactor:
    """One Pochhammer factor of a smallest-part summand.

    The argument is sign * q^(exp_slope*n + exp_offset) where n is the outer
    summation index; `length` is "n", "n+1", "inf", or a fixed nonnegative
    integer; denominator factors are inverted.
    """

    sign: int
    exp_slope: int
    exp_offset: int
    step: int
    length: Union[int, str]
    denominator: bool = False

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise QEngineError("factor sign must be -1 or +1")
        if self.exp_slope < 0:
            raise QEngineError("argument exponent slope must be nonnegative")
        if self.exp_slope == 0 and self.exp_offset < 0:
            raise QEngineError("argument exponent must stay nonnegative")
        if self.step < 1:
            raise QEngineError("factor step must be at least 1")
        ok = self.length in (LENGTH_N, LENGTH_N_PLUS_1, LENGTH_INF) or (
            isinstance(self.length, int) and self.length >= 0
        )
        if not ok:
            raise QEngineError(f"unsupported factor length {self.length!r}")

    def _length(self, n: int) -> Optional[int]:
        """The Pochhammer length at index n; None means infinite."""
        return {LENGTH_INF: None, LENGTH_N: n, LENGTH_N_PLUS_1: n + 1}.get(
            self.length, self.length
        )

    def expand(self, n: int, order: int) -> Series:
        e = self.exp_slope * n + self.exp_offset
        if e < 0:
            raise QEngineError("factor exponent became negative")
        s = Poch(Parameter.monomial(e, self.sign), self.step, self._length(n)).series(order)
        return s.invert() if self.denominator else s

    def moves(self, n: int) -> Optional[tuple[range, range]]:
        """Exponents of the binomials (1 - sign*q^e) that leave and join the product from n to n+1.

        With slope = k*step the binomial exponents at n are exp_offset +
        step*m for m in [k*n, k*n + length), an interval, so going to n + 1
        drops the head of that interval and appends to its tail: two ranges
        of at most k and k + 1 exponents, in increasing order.  For any other
        slope the two exponent sets interleave and None is returned.
        """
        if self.exp_slope % self.step:
            return None
        k = self.exp_slope // self.step
        lo, lo_next = k * n, k * (n + 1)
        length, length_next = self._length(n), self._length(n + 1)
        off, step = self.exp_offset, self.step
        if length is None:
            return range(off + step * lo, off + step * lo_next, step), range(0)
        hi, hi_next = lo + length, lo_next + length_next
        leaving = range(off + step * lo, off + step * min(hi, lo_next), step)
        joining = range(off + step * max(hi, lo_next), off + step * hi_next, step)
        return leaving, joining


@dataclass(frozen=True)
class TermTemplate:
    """A sum over the smallest part: sum_n (+-1)^n q^(prefix(n)) * factors(n).

    The prefix exponent prefix_slope*n + prefix_offset must strictly increase
    with n, which makes the sum finite at any truncation order.
    """

    prefix_slope: int
    prefix_offset: int
    factors: tuple[PochFactor, ...]
    alternating: bool = False

    def __post_init__(self):
        if self.prefix_slope < 1:
            raise QEngineError("prefix exponent must strictly increase in n")
        if self.prefix_offset < 0:
            raise QEngineError("prefix offset must be nonnegative")

    def prefix(self, n: int) -> int:
        return self.prefix_slope * n + self.prefix_offset


def _rebuild(factors: Sequence[PochFactor], n: int, order: int) -> list[int]:
    """The factor product at n, each factor expanded and multiplied in."""
    product = Series.one(order)
    for f in factors:
        product = product * f.expand(n, order)
    return list(product.coeffs)


def _advance(product: list[int], factors: Sequence[PochFactor], n: int, top: int) -> bool:
    """Turn the factor product at n into the one at n + 1, through q^top, in place.

    Each factor multiplies in the binomials that join its numerator product
    and divides out those that leave it; a denominator factor does the
    reverse.  False means the product must be rebuilt instead, and may have
    been changed part way: some factor's exponent sets are not intervals
    (see PochFactor.moves) or a binomial to divide out has exponent 0, where
    it is zero or 2 and so not a unit.
    """
    for f in factors:
        moves = f.moves(n)
        if moves is None:
            return False
        leaving, joining = moves
        mul, div = (leaving, joining) if f.denominator else (joining, leaving)
        if 0 in div:
            return False
        for e in mul:
            if e > top:
                break
            imul_one_minus(product, f.sign, e, top)
        for e in div:
            if e > top:
                break
            idiv_one_minus(product, f.sign, e, top)
    return True


def sum_over_smallest(template: TermTemplate, order: int) -> Series:
    """Evaluate a smallest-part sum; stops once the prefix passes the order.

    The factor product P(n) is carried from one n to the next: P(n+1) is
    P(n) times the binomials that join each factor and divided by those that
    leave it, a few O(order) `imul_one_minus`/`idiv_one_minus` calls, so the
    sum costs O(order^2).  That holds whenever every factor's exp_slope is a
    multiple of its step, which is the shape of every catalog template.  For
    any other factor, and where a binomial with exponent 0 would have to be
    divided out, P(n+1) is rebuilt from its Pochhammer expansions, at
    O(order^2) per term, which raises the same errors those expansions raise.
    P(n) is one list, kept only through q^(order - prefix(n)), the part
    that lands within the order once shifted by q^prefix(n).
    """
    total = [0] * (order + 1)
    product = None
    n = 0
    while (shift := template.prefix(n)) <= order:
        top = order - shift
        if product is None or not _advance(product, template.factors, n - 1, top):
            product = _rebuild(template.factors, n, top)
        sign = -1 if template.alternating and n % 2 == 1 else 1
        # total[shift:] has top + 1 entries, so map reads product[:top+1] only
        total[shift:] = map(add if sign == 1 else sub, total[shift:], product)
        n += 1
    return Series._trusted(total)


# ----------------------------------------------------------------------
# basic hypergeometric sum

def phi21(
    a: Parameter,
    b: Parameter,
    c: Parameter,
    step: int,
    z: Parameter,
    order: int,
) -> Series:
    """The 2phi1 sum: sum_n (a;Q)_n (b;Q)_n / ((Q;Q)_n (c;Q)_n) * z^n, Q = q^step.

    `z` must be a signed monomial with exponent >= 1 so the sum truncates;
    `c` may be zero (its Pochhammer is then identically 1) but not +q^0,
    which would put a vanishing factor in the denominator.  c = -q^0 puts
    the non-unit 2 there, which raises SeriesError once the n = 1 term is
    within the order.

    The term is carried from one n to the next by its ratio
    (1 - a Q^n)(1 - b Q^n) / ((1 - Q^(n+1))(1 - c Q^n)) * z, one O(order)
    `imul_one_minus`/`idiv_one_minus` per factor whose exponent is within
    the order, so the sum costs O(order^2).  The n-th term is one list,
    carried without its z^n through q^(order - n * z's exponent), the part
    that lands within the order once multiplied by z^n.
    """
    if z.is_zero or z.exponent < 1:
        raise QEngineError("phi21 needs z = +-q^e with e >= 1 to truncate")
    if c.sign == 1 and c.exponent == 0:
        raise QEngineError("c = q^0 makes the denominator Pochhammer vanish")
    if step < 1:
        raise QEngineError("phi21 step must be at least 1")
    total = [0] * (order + 1)
    term = [1] + [0] * order
    n = 0
    while True:
        shift = n * z.exponent
        # total[shift:] has order - shift + 1 entries, so map reads no further in term
        total[shift:] = map(add if z.sign ** n == 1 else sub, total[shift:], term)
        top = order - shift - z.exponent
        if top < 0:
            return Series._trusted(total)
        for p in (a, b):
            e = p.exponent + step * n
            if not p.is_zero and e <= top:
                imul_one_minus(term, p.sign, e, top)
        if step * (n + 1) <= top:
            idiv_one_minus(term, 1, step * (n + 1), top)
        e = c.exponent + step * n
        if not c.is_zero and e <= top:
            idiv_one_minus(term, c.sign, e, top)
        n += 1
