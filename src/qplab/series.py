"""Exact truncated power series in q over arbitrary-precision integers.

A :class:`Series` knows its coefficients for q^0 through q^order and nothing
beyond.  Arithmetic truncates to the smaller order of its operands, so a
result never claims more precision than its inputs support.  Coefficients
are plain Python ints and therefore exact at any size; no floating point
enters anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union


class SeriesError(ValueError):
    """Raised when an operation would step outside a series' known range."""


class Series:
    """Formal power series in q, truncated after q^order.

    Instances are immutable.  ``coeffs[n]`` is the coefficient of q^n and
    ``len(coeffs) == order + 1`` always holds.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise SeriesError("a series needs at least its constant coefficient")
        self._coeffs = tuple(map(int, coeffs))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1] + [0] * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient: int = 1) -> "Series":
        """The single term coefficient * q^exponent, truncated to `order`."""
        if exponent < 0:
            raise SeriesError("negative exponents are not representable")
        c = [0] * (order + 1)
        if exponent <= order:
            c[exponent] = coefficient
        return cls(c)

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[int], order: int) -> "Series":
        """Embed an integer polynomial, truncating or zero-padding to `order`."""
        c = [int(x) for x in coeffs[: order + 1]]
        c += [0] * (order + 1 - len(c))
        return cls(c)

    # ------------------------------------------------------------------
    # accessors

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise SeriesError(
                f"coefficient of q^{n} is outside the known range 0..{self.order}"
            )
        return self._coeffs[n]

    def truncate(self, order: int) -> "Series":
        """Drop knowledge beyond `order` (never extends)."""
        if order < 0:
            raise SeriesError("order must be nonnegative")
        if order >= self.order:
            return self
        return Series(self._coeffs[: order + 1])

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def nonzero_count(self) -> int:
        return sum(1 for c in self._coeffs if c)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return Series([a[i] + b[i] for i in range(n + 1)])

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return Series([a[i] - b[i] for i in range(n + 1)])

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs])

    def scale(self, k: int) -> "Series":
        return Series([k * c for c in self._coeffs])

    def __mul__(self, other: Union["Series", int]) -> "Series":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        # iterate over the operand with fewer nonzero terms
        a, b = self, other
        if a.nonzero_count() > b.nonzero_count():
            a, b = b, a
        out = [0] * (n + 1)
        bc = b._coeffs
        for i, ca in enumerate(a._coeffs[: n + 1]):
            if not ca:
                continue
            hi = n - i
            for j, cb in enumerate(bc[: hi + 1]):
                if cb:
                    out[i + j] += ca * cb
        return Series(out)

    def __rmul__(self, other: int) -> "Series":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def shifted(self, exponent: int) -> "Series":
        """Multiply by q^exponent, keeping the same order."""
        if exponent < 0:
            raise SeriesError("negative shifts are not representable")
        n = self.order
        out = [0] * (n + 1)
        for i, c in enumerate(self._coeffs):
            if c and i + exponent <= n:
                out[i + exponent] = c
        return Series(out)

    def invert(self) -> "Series":
        """Multiplicative inverse; requires constant coefficient +1 or -1."""
        c0 = self._coeffs[0]
        if c0 not in (1, -1):
            raise SeriesError(
                f"cannot invert a series with constant coefficient {c0}; "
                "only unit constants are invertible over the integers"
            )
        n = self.order
        nz = [(j, c) for j, c in enumerate(self._coeffs) if j and c]
        out = [0] * (n + 1)
        out[0] = c0
        for m in range(1, n + 1):
            acc = 0
            for j, aj in nz:
                if j > m:
                    break
                acc += aj * out[m - j]
            out[m] = -c0 * acc
        return Series(out)

    def substitute_power(self, k: int) -> "Series":
        """Replace q by q^k: the coefficient of q^n moves to q^(k*n)."""
        if k < 1:
            raise SeriesError("the substituted power must be at least 1")
        n = self.order
        out = [0] * (n + 1)
        for i, c in enumerate(self._coeffs):
            if c and i * k <= n:
                out[i * k] = c
        return Series(out)

    def negate_variable(self) -> "Series":
        """Replace q by -q: multiply the coefficient of q^n by (-1)^n."""
        return Series([c if i % 2 == 0 else -c for i, c in enumerate(self._coeffs)])

    # ------------------------------------------------------------------
    # comparison and rendering

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self._coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "q" if i == 1 else f"q^{i}"
                terms.append(f"{'-' if c < 0 else '+'} {mag}{var}" if terms else
                             (f"-{mag}{var}" if c < 0 else f"{mag}{var}"))
            if len(terms) >= 9:
                terms.append("...")
                break
        body = " ".join(terms) if terms else "0"
        return f"<{body} + O(q^{self.order + 1})>"


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two series through a given order.

    When unequal, `index` is the smallest mismatching exponent and
    `lhs`/`rhs` hold the two coefficients there.
    """

    equal: bool
    index: int | None = None
    lhs: int | None = None
    rhs: int | None = None


def linear_combine(terms: Sequence[tuple[int, Series]]) -> Series:
    """Integer linear combination sum(scalar * series); order is the minimum."""
    if not terms:
        raise SeriesError("linear_combine needs at least one term")
    n = min(s.order for _, s in terms)
    out = [0] * (n + 1)
    for k, s in terms:
        for i in range(n + 1):
            out[i] += k * s.coeffs[i]
    return Series(out)


def equal_up_to(a: Series, b: Series, n: int) -> Comparison:
    """Compare coefficients of q^0..q^n; report the first mismatch if any."""
    if n > a.order or n > b.order:
        raise SeriesError(
            f"cannot compare through q^{n}: orders are {a.order} and {b.order}"
        )
    for i in range(n + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return Comparison(False, i, a.coeffs[i], b.coeffs[i])
    return Comparison(True)


# ----------------------------------------------------------------------
# sparse binomial helpers, used heavily by the product builders

def mul_one_minus(s: Series, c: int, e: int) -> Series:
    """s * (1 - c*q^e) in O(order) time; c is +-1."""
    if e < 1:
        raise SeriesError("binomial factor exponent must be at least 1")
    sc = s.coeffs
    out = list(sc)
    for i in range(e, len(out)):
        out[i] -= c * sc[i - e]
    return Series(out)


def div_one_minus(s: Series, c: int, e: int) -> Series:
    """s / (1 - c*q^e) in O(order) time; c is +-1."""
    if e < 1:
        raise SeriesError("binomial factor exponent must be at least 1")
    out = list(s.coeffs)
    for i in range(e, len(out)):
        out[i] += c * out[i - e]
    return Series(out)
