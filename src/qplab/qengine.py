"""q-Pochhammer products, rational expansions, smallest-part sums and 2phi1.

All Pochhammer arguments here are signed monomials +-q^e or zero; that is the
only shape the identity catalog ever needs, and it keeps every computation in
plain integer power series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .series import Series, div_one_minus, mul_one_minus


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
    out = Series.one(order)
    if a.is_zero or length == 0:
        return out
    for j in range(length):
        e = a.exponent + step * j
        if e > order:
            break
        if e == 0:
            out = out.scale(1 - a.sign)
        else:
            out = mul_one_minus(out, a.sign, e)
    return out


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
    out = Series.one(order)
    j = 0
    while True:
        e = a.exponent + step * j
        if e > order:
            break
        if e == 0:
            out = out.scale(2)
        else:
            out = mul_one_minus(out, a.sign, e)
        j += 1
    return out


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
    out = Series.from_polynomial(numerator, order)
    for sign, e, mult in denominator_factors:
        if e < 1:
            raise QEngineError("denominator factor exponent must be at least 1")
        if sign not in (-1, 1):
            raise QEngineError("denominator factor sign must be -1 or +1")
        if mult < 1:
            raise QEngineError("denominator factor multiplicity must be at least 1")
        for _ in range(mult):
            out = div_one_minus(out, sign, e)
    return out


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

    def expand(self, n: int, order: int) -> Series:
        e = self.exp_slope * n + self.exp_offset
        if e < 0:
            raise QEngineError("factor exponent became negative")
        length = {LENGTH_INF: None, LENGTH_N: n, LENGTH_N_PLUS_1: n + 1}.get(
            self.length, self.length
        )
        s = Poch(Parameter.monomial(e, self.sign), self.step, length).series(order)
        return s.invert() if self.denominator else s


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


def sum_over_smallest(template: TermTemplate, order: int) -> Series:
    """Evaluate a smallest-part sum; stops once the prefix passes the order."""
    total = Series.zero(order)
    n = 0
    while template.prefix(n) <= order:
        term = Series.monomial(template.prefix(n), order)
        for f in template.factors:
            term = term * f.expand(n, order)
        if template.alternating and n % 2 == 1:
            term = -term
        total = total + term
        n += 1
    return total


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
    which would put a vanishing factor in the denominator.
    """
    if z.is_zero or z.exponent < 1:
        raise QEngineError("phi21 needs z = +-q^e with e >= 1 to truncate")
    if c.sign == 1 and c.exponent == 0:
        raise QEngineError("c = q^0 makes the denominator Pochhammer vanish")
    if step < 1:
        raise QEngineError("phi21 step must be at least 1")
    base = Parameter.monomial(step)
    total = Series.zero(order)
    n = 0
    while n * z.exponent <= order:
        num = poch_finite(a, step, n, order) * poch_finite(b, step, n, order)
        den = poch_finite(base, step, n, order) * poch_finite(c, step, n, order)
        term = num * den.invert()
        term = term.shifted(n * z.exponent)
        if z.sign == -1 and n % 2 == 1:
            term = -term
        total = total + term
        n += 1
    return total
