"""Exact truncated power series in q over arbitrary-precision integers.

A :class:`Series` knows its coefficients for q^0 through q^order and nothing
beyond.  Arithmetic truncates to the smaller order of its operands, so a
result never claims more precision than its inputs support.  Coefficients
are plain Python ints and therefore exact at any size; no floating point
enters anywhere.

Products take one of two paths.  When both operands, truncated to the
smaller order and stripped of trailing zeros, are dense (``_dense``: at
least ``KRONECKER_MIN_TERMS`` coefficients, 3/5 of them nonzero), the
product is one big-int multiply by Kronecker substitution: both are packed
into ints, and CPython's Karatsuba multiplies them in about
O((length * slot bits)^1.585) digit operations.  Otherwise a schoolbook loop
over the nonzero terms of the sparser operand makes O(nonzeros * length)
coefficient products.  Both give the same integers; the comment on
``KRONECKER_MIN_TERMS`` says which products take each and why both stay.

No product is formed for a single binomial (1 - c*q^e), and a product of
many at once is ``qengine``'s exponent vector.  Every evaluator that
multiplies or divides by one at a time (a lone Pochhammer,
``rational_series``, the steps of the sums in ``qengine`` and ``mocktheta``,
and the tables of ``partitions``) works on a plain list: ``imul_one_minus``
and ``idiv_one_minus`` update it in place through a top index, and the
evaluator builds one ``Series`` from it at the end, through the private
``Series._trusted``, which skips the per-coefficient integer check of
``Series(...)``.  The kernels also take e = 0, where the factor is the
constant 1 - c.  ``idiv_one_minus`` divides by a power (1 - c*q^e)^k in one
call.  With c = 1 and residue classes mod e of at least
``PREFIX_SUM_MIN_RUN`` entries it rewrites each class by k nested
``itertools.accumulate`` passes; any other call runs a Python loop k times.
Integer addition is exact, so both give the same integers.
``mul_one_minus`` and ``div_one_minus`` are the same kernels on a copy of a
series; nothing in the package calls them, but the benchmark's tracer
(``perfbench/tracing.py``) wraps both by name, so deleting them breaks every
traced benchmark run.

Every module imports this one, so it also holds ``_Record``, the base class
of the package's frozen records.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub
from typing import Sequence, Union


class SeriesError(ValueError):
    """Raised when an operation would step outside a series' known range."""


def _check_order(order: int) -> None:
    """Raise SeriesError for a negative truncation order; every evaluator calls it."""
    if order < 0:
        raise SeriesError(f"cannot evaluate through q^{order}: the order must be nonnegative")


class _Record:
    """Base of the package's frozen records: the annotated names of a class body are its fields.

    The fields are the names in the subclass's own ``__annotations__``, in
    order, after those of a record it derives from; a class-level value is a
    field's default.  The base gives every record what ``@dataclass(frozen=True)``
    would generate for it: an ``__init__`` taking the fields by position or
    keyword, which then calls ``__post_init__`` if the class has one; ``==``
    and ``hash`` over the field tuple, between instances of one class only,
    the hash computed once per instance;
    the repr ``Name(field=value, ...)``; and assignment and deletion that
    raise AttributeError.  The methods are written once here rather than
    generated per class, because generating them costs import time that
    every CLI call pays.
    """

    __slots__ = ()
    _fields = ()
    _defaults = {}
    _hash = None  # the instance's own, once hash() has computed it

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        given = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() has no field {field!r}")
            if field in given:
                raise TypeError(f"{name}() got field {field!r} twice")
            given[field] = value
        # set through object.__setattr__ in field order, never through
        # self.__dict__: reading __dict__ gives the instance a dict of its
        # own, and attribute reads from such an instance were 2.5 times
        # slower on CPython 3.11
        for field in fields:
            if field in given:
                value = given[field]
            elif field in self._defaults:
                value = self._defaults[field]
            else:
                raise TypeError(f"{name}() is missing field {field!r}")
            object.__setattr__(self, field, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        # fields never change, so a record hashes its field tuple once: a
        # dict keyed by recipe trees would otherwise re-hash a whole subtree
        # on every lookup.  The value sits outside the fields, so repr and ==
        # never see it; an unhashable field raises here on every call.
        h = self._hash
        if h is None:
            h = hash(self._values())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Series:
    """Formal power series in q, truncated after q^order.

    Instances are immutable.  ``coeffs[n]`` is the coefficient of q^n and
    ``len(coeffs) == order + 1`` always holds.  ``Series(coeffs)`` stores
    ``int(c)`` for each coefficient and refuses one that ``int`` would change
    or cannot convert (1.5, "3"), so a bool or 2.0 is accepted as an int.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise SeriesError("a series needs at least its constant coefficient")
        try:
            ints = tuple(map(int, coeffs))
            exact = ints == tuple(coeffs)
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise SeriesError("a series' coefficients must be integers")
        self._coeffs = ints

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _trusted(cls, coeffs: Sequence[int]) -> "Series":
        """A series over `coeffs`, which must be a nonempty sequence of ints.

        For coefficients the package computed itself: unlike ``Series(...)``
        it checks neither the length nor that each entry is an integer.
        """
        s = object.__new__(cls)
        s._coeffs = tuple(coeffs)
        return s

    @classmethod
    def zero(cls, order: int) -> "Series":
        _check_order(order)
        return cls._trusted([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        _check_order(order)
        return cls._trusted([1] + [0] * order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coefficient: int = 1) -> "Series":
        """The single term coefficient * q^exponent, truncated to `order`."""
        _check_order(order)
        if exponent < 0:
            raise SeriesError("negative exponents are not representable")
        c = [0] * (order + 1)
        if exponent <= order:
            c[exponent] = coefficient
        return cls(c)

    @classmethod
    def from_polynomial(cls, coeffs: Sequence[int], order: int) -> "Series":
        """Embed an integer polynomial, truncating or zero-padding to `order`."""
        _check_order(order)
        c = list(coeffs[: order + 1])
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

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return Series._trusted([a[i] + b[i] for i in range(n + 1)])

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return Series._trusted([a[i] - b[i] for i in range(n + 1)])

    def __neg__(self) -> "Series":
        return Series._trusted([-c for c in self._coeffs])

    def scale(self, k: int) -> "Series":
        return Series([k * c for c in self._coeffs])

    def __mul__(self, other: Union["Series", int]) -> "Series":
        """The product through the smaller order of the two operands.

        Both operands are truncated to that order and stripped of trailing
        zeros.  Two dense ones (``_dense``) take :func:`_kronecker`, any
        other pair :func:`_schoolbook` over the sparser one's nonzero terms.
        """
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        size = min(len(self._coeffs), len(other._coeffs))
        a = _trimmed(self._coeffs[:size])
        b = a if other is self else _trimmed(other._coeffs[:size])
        if _dense(a) and _dense(b):
            return Series._trusted(_kronecker(a, b, size))
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        return Series._trusted(_schoolbook(a, b, size))

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
        return Series._trusted(out)

    def invert(self) -> "Series":
        """Multiplicative inverse; requires constant coefficient +1 or -1."""
        c0 = self._coeffs[0]
        if c0 not in (1, -1):
            raise _non_unit(c0)
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
        return Series._trusted(out)

    def negate_variable(self) -> "Series":
        """Replace q by -q: multiply the coefficient of q^n by (-1)^n."""
        return Series._trusted([c if i % 2 == 0 else -c for i, c in enumerate(self._coeffs)])

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


class Comparison(_Record):
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
    _check_order(n)
    if n > a.order or n > b.order:
        raise SeriesError(
            f"cannot compare through q^{n}: orders are {a.order} and {b.order}"
        )
    for i in range(n + 1):
        if a.coeffs[i] != b.coeffs[i]:
            return Comparison(False, i, a.coeffs[i], b.coeffs[i])
    return Comparison(True)


# ----------------------------------------------------------------------
# sparse binomial kernels, used heavily by the product builders

def _non_unit(c0: int) -> SeriesError:
    """The error for dividing by a series whose constant term c0 is not +-1."""
    return SeriesError(
        f"cannot invert a series with constant coefficient {c0}; "
        "only unit constants are invertible over the integers"
    )


def _check_binomial(c: int, e: int) -> None:
    if e < 0:
        raise SeriesError("binomial factor exponent must be nonnegative")
    if c not in (1, -1):
        raise SeriesError("binomial factor coefficient must be +1 or -1")


def imul_one_minus(coeffs: list[int], c: int, e: int, top: int) -> None:
    """coeffs[:top+1] *= (1 - c*q^e) in place, O(top); c is +-1.

    Entries above `top` are left as they are, so a list that is carried
    at a falling order need not be truncated first.  At e = 0 the factor
    is the constant 1 - c: the entries through `top` become zero (c = 1)
    or double (c = -1).
    """
    _check_binomial(c, e)
    if top >= e:  # else the slice bounds below could count from the end
        # the right-hand slices are copies, so every entry reads the old values
        coeffs[e : top + 1] = map(sub if c == 1 else add, coeffs[e : top + 1], coeffs)


def idiv_one_minus(coeffs: list[int], c: int, e: int, top: int, k: int = 1) -> None:
    """coeffs[:top+1] /= (1 - c*q^e)^k in place, O(k * top); c is +-1, k >= 1.

    Entries above `top` are left as they are.  At e = 0 the factor is the
    constant 0 or 2, which is not a unit, and SeriesError is raised as
    ``Series.invert`` raises it.  Dividing by 1 - q^e is a running sum over
    each residue class mod e, so when c = 1 and the classes are long
    (top >= PREFIX_SUM_MIN_RUN * e) each class is rewritten by one slice
    assignment of k nested ``accumulate`` passes.  Any other call runs the
    loop k times.
    """
    _check_binomial(c, e)
    if e == 0:
        raise _non_unit(1 - c)
    if k < 1:
        raise SeriesError("binomial factor multiplicity must be at least 1")
    if c == 1:
        if top >= PREFIX_SUM_MIN_RUN * e:
            for r in range(e):
                run = coeffs[r : top + 1 : e]
                for _ in range(k):
                    run = accumulate(run)
                coeffs[r : top + 1 : e] = run
            return
        for i in range(e, top + 1):
            coeffs[i] += coeffs[i - e]
    else:
        for i in range(e, top + 1):
            coeffs[i] -= coeffs[i - e]
    if k > 1:  # a tail call, so that a call with k = 1 pays for no loop over k
        idiv_one_minus(coeffs, c, e, top, k - 1)


def mul_one_minus(s: Series, c: int, e: int) -> Series:
    """s * (1 - c*q^e) in O(order) time; c is +-1."""
    out = list(s.coeffs)
    imul_one_minus(out, c, e, s.order)
    return Series._trusted(out)


def div_one_minus(s: Series, c: int, e: int) -> Series:
    """s / (1 - c*q^e) in O(order) time; c is +-1."""
    out = list(s.coeffs)
    idiv_one_minus(out, c, e, s.order)
    return Series._trusted(out)


#: ``idiv_one_minus`` with c = 1 takes the prefix sums when top >= this * e,
#: so that each residue class holds at least 16 entries: each class costs a
#: slice, an ``accumulate`` and a slice assignment, about 0.5 us.  At top
#: 1200 with 60-bit coefficients (Python 3.11, 2 vCPUs), e <= 21 takes
#: 47-84 us against the loop's 92-125 us, and the two are even near
#: top/e = 16.  With the catalog's small coefficients at top 120 they are
#: even nearer top/e = 30-40 (5.7 us against 4.8 us at e = 5).
PREFIX_SUM_MIN_RUN = 16


# ----------------------------------------------------------------------
# the two product paths behind Series.__mul__

#: Kronecker substitution runs only when both trimmed operands are at least
#: this long and at least 3/5 nonzero (``_dense``).  Shorter, packing costs
#: more than the loop saves (they break even near 14 small coefficients).
#: A catalog pass, at the default orders or at 120, makes 16 products: 8
#: take the loop (one operand is q, q^3 or a constant), 8 this path (a Phi21
#: or RationalGF times a folded product, a RationalGF times a sum).  Binary
#: powering in ``recipes._power`` needs this path: (1/(1-q)+1)^k at order
#: 1200 takes 1.4 ms at k = 2 and 51 ms at k = 40, 83 ms and 1.0 s in the
#: loop alone.  The 3/5 is a guess: at order 1200 (1-q^500)*(2-q)^1213 takes
#: 0.9 ms in the loop against 417 ms here, but ((1-q^2)^-3+1)*((1-q)^-3+1)
#: takes the loop at 46 ms where this path would take 2.1 ms.
KRONECKER_MIN_TERMS = 16


def _trimmed(c: tuple[int, ...]) -> tuple[int, ...]:
    """`c` without its trailing zeros."""
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    return c[:end]


def _dense(c: tuple[int, ...]) -> bool:
    """True when the trimmed coefficients `c` may take the Kronecker path."""
    return len(c) >= KRONECKER_MIN_TERMS and 5 * (len(c) - c.count(0)) >= 3 * len(c)


def _schoolbook(a: tuple[int, ...], b: tuple[int, ...], size: int) -> list[int]:
    """The first `size` coefficients of a*b, one term of `a` at a time.

    O(nonzeros(a) * len(b)) coefficient products; `a` should be the sparser.
    """
    out = [0] * size
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b[: size - i]):
            if cb:
                out[i + j] += ca * cb
    return out


def _kronecker(a: tuple[int, ...], b: tuple[int, ...], size: int) -> list[int]:
    """The first `size` coefficients of a*b by Kronecker substitution.

    Each operand is packed into one int, coefficient i in the w-byte slot i
    (the polynomial evaluated at 2^(8w)), so one CPython (Karatsuba) multiply
    forms every product coefficient at once.  A product coefficient is a sum
    of at most min(len a, len b) products, so its magnitude stays below
    2^(bits(max|a|) + bits(max|b|) + bits(min(len a, len b))); one more bit
    for the sign gives the slot width.  Packing offsets every coefficient by
    half a slot so each slot's bytes are nonnegative, then subtracts the
    offsets back out; unpacking adds half a slot to every product
    coefficient, so the slots no longer borrow from each other and read back
    directly.  Bytes, not decimal text, carry the digits, so no
    int-to-str limit applies.
    """
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
    width = (bits + min(len(a), len(b)).bit_length() + 1 + 7) // 8
    half = 1 << (8 * width - 1)
    offset = b"\x00" * (width - 1) + b"\x80"  # one slot holding `half`

    def pack(c: tuple[int, ...]) -> int:
        slots = b"".join([(x + half).to_bytes(width, "little") for x in c])
        return int.from_bytes(slots, "little") - int.from_bytes(offset * len(c), "little")

    packed_a = pack(a)
    product = packed_a * (packed_a if b is a else pack(b))
    m = min(len(a) + len(b) - 1, size)
    biased = (product + int.from_bytes(offset * m, "little")) & ((1 << 8 * width * m) - 1)
    slots = biased.to_bytes(width * m, "little")
    out = [int.from_bytes(slots[i : i + width], "little") - half for i in range(0, width * m, width)]
    return out + [0] * (size - m)
