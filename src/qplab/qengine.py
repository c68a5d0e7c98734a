"""q-Pochhammer products, rational expansions, smallest-part sums and 2phi1.

All Pochhammer arguments here are signed monomials +-q^e or zero; that is the
only shape the identity catalog ever needs, and it keeps every computation in
plain integer power series.

A product of binomials has one normal form, the exponent vector of Garvan's
``prodmake``: const * q^shift * prod (1 - s*q^e)^a, kept as {(s, e): a} and
evaluated in one pass by ``_Product.series``.  The recipe fold, families E
and F and the starting product of each smallest-part sum that is carried
build one; a lone Pochhammer, the steps of the two sums and
``rational_series`` use the in-place binomial kernels.  A smallest-part sum
whose factors are all infinite with a positive slope needs no starting
product: Horner's rule sums it by the binomials that leave its factors.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import add, mul, ne, sub
from typing import Optional, Sequence, Union

from .series import Series, SeriesError, _check_order, _non_unit, _Record
from .series import idiv_one_minus, imul_one_minus


class QEngineError(ValueError):
    """Raised for arguments outside the supported monomial calculus."""


class Parameter(_Record):
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
    return _expand(Poch(a, step, length), order)


def poch_infinite(a: Parameter, step: int, order: int) -> Series:
    """(a; q^step)_inf truncated at the first factor beyond the order.

    Factors (1 - a*q^(step*j)) with monomial exponent above `order` are
    congruent to 1 and are skipped.  The argument +q^0 is rejected: its first
    factor is identically zero, which annihilates the product.
    """
    return _expand(Poch(a, step), order)


def _expand(poch: Poch, order: int) -> Series:
    _check_order(order)
    out = [1] + [0] * order
    for e in poch.exponents(order):
        imul_one_minus(out, poch.a.sign, e, order)
    return Series._trusted(out)


#: the one refusal of an infinite product at +q^0, by Poch and PochFactor
_VANISHES = "(q^0; q^k)_inf vanishes; refusing to build it"


class Poch(_Record):
    """The Pochhammer product (a; q^step)_length (None: infinite) over `exponents`."""

    a: Parameter
    step: int
    length: Optional[int] = None

    def __post_init__(self):
        if self.length is not None and self.length < 0:
            raise QEngineError("Pochhammer length must be nonnegative")
        if self.step < 1:
            raise QEngineError("Pochhammer step must be at least 1")
        if self.length is None and self.a.sign == 1 and self.a.exponent == 0:
            raise QEngineError(_VANISHES)

    def exponents(self, top: int) -> range:
        """The exponents e <= top of the binomials (1 - a.sign*q^e) whose product this is."""
        if self.a.is_zero:  # the product is 1
            return range(0)
        e = self.a.exponent
        stop = top + 1 if self.length is None else min(e + self.step * self.length, top + 1)
        return range(e, stop, self.step)

    def series(self, order: int) -> Series:
        if self.length is None:
            return poch_infinite(self.a, self.step, order)
        return poch_finite(self.a, self.step, self.length, order)

    def product(self, top: int) -> "_Product":
        """The product through q^top as an exponent vector."""
        return _binomials(self.a.sign, self.exponents(top))


# ----------------------------------------------------------------------
# the exponent vector of a product of binomials

class _Product:
    """const * q^shift * prod (1 - s*q^e)^a over `exponents` {(s, e): a}, each e >= 1.

    A slotted class, not a ``series._Record``: it is an intermediate of the
    fold that is never compared, hashed or shown, so it needs none of a
    record's methods.
    """

    __slots__ = ("const", "shift", "exponents")

    def __init__(self, const: int = 1, shift: int = 0, exponents: Optional[dict] = None):
        self.const, self.shift, self.exponents = const, shift, exponents or {}

    def __mul__(self, other: "_Product") -> "_Product":
        exponents = dict(self.exponents)
        for key, a in other.exponents.items():
            exponents[key] = exponents.get(key, 0) + a
        return _Product(self.const * other.const, self.shift + other.shift, exponents)

    def __pow__(self, k: int) -> "_Product":
        """The k-th power; k < 0 raises series._non_unit's error unless const is +-1 and shift 0."""
        if k < 0 and (self.shift or self.const not in (1, -1)):
            raise _non_unit(0 if self.shift else self.const)
        exponents = {key: a * k for key, a in self.exponents.items()}
        return _Product(self.const ** abs(k), self.shift * k, exponents)

    def series(self, order: int) -> Series:
        """The product through q^order, by the pass with fewer multiplies, top = order - shift.

        ``_binomial_product`` takes top * sum(e) over the binomials with a
        nonzero power, and a dense vector, whose binomials' degrees sum to
        more than top / 2, takes ``_eta_quotient``: Euler's pentagonal
        series at O(top^1.5) for a vector periodic in gcd(e, 12), the EULER
        transform (``_euler``) at top^2 / 2 for any other or a short one.
        """
        top = order - self.shift
        if top < 0 or not self.const:
            return Series.zero(order)
        degree = sum(e for (s, e), a in self.exponents.items() if a)
        if 2 * degree <= top:
            g = _binomial_product(self.exponents, top)
        else:
            g = _eta_quotient(self.exponents, top)
        return Series._trusted([0] * self.shift + [self.const * x for x in g])


def _binomials(sign: int, exponents: range) -> _Product:
    """prod (1 - sign*q^e) over increasing `exponents`; at q^0 it is the constant 1 - sign."""
    const = 1 - sign if exponents and exponents[0] == 0 else 1
    return _Product(const, 0, {(sign, e): 1 for e in exponents if e})


def _log_derivative_recurrence(d, p, g0: int, top: int) -> list[int]:
    """The coefficients g_0..g_top of the series g with d q g' = p g and the given g_0.

    d and p are polynomials of one length, with d_0 nonzero and p_0 = 0.
    The coefficients of q^n give
    n d_0 g_n = sum_{j>=1} (p_j + j d_j - n d_j) g_(n-j),
    O(top) multiplies per tap j where d_j or p_j is nonzero.  Each division
    is checked: a remainder raises SeriesError instead of being floored away.
    """
    d0 = d[0]
    taps = [(j, p[j] + j * c, c) for j, c in enumerate(d) if j and (c or p[j])]
    g = [0] * (top + 1)
    g[0] = g0
    for n in range(1, top + 1 if taps else 1):  # no taps: g is the constant g_0
        acc = 0
        for j, a, c in taps:
            if j > n:
                break
            acc += (a - n * c) * g[n - j]
        g[n], remainder = divmod(acc, n * d0)
        if remainder:
            raise SeriesError(f"the recurrence does not divide exactly at q^{n}")
    return g


def _binomial_product(exponents: dict[tuple[int, int], int], top: int) -> list[int]:
    """prod (1 - s*q^e)^a over {(s, e): a} through q^top, O(top * sum e).

    With D = prod (1 - s*q^e), one factor per key with a nonzero a, and
    P = sum a (-s e q^e) D / (1 - s*q^e), the product g has D q g' = P g
    (g is D-finite: Stanley, Europ. J. Combin. 1, 1980).  So g takes the
    kernel ``_log_derivative_recurrence`` with deg D = sum e taps.
    """
    keys = [(s, e, a) for (s, e), a in exponents.items() if a]
    d = [1]
    for s, e, _ in keys:
        d += [0] * e
        imul_one_minus(d, s, e, len(d) - 1)
    p = [0] * len(d)
    for s, e, a in keys:
        quotient = d.copy()
        idiv_one_minus(quotient, s, e, len(d) - 1)
        for i in range(len(d) - e):
            p[i + e] -= a * s * e * quotient[i]
    return _log_derivative_recurrence(d, p, 1, top)


def _euler(exponents: dict[tuple[int, int], int], top: int) -> list[int]:
    """prod (1 - s*q^e)^a over {(s, e): a} through q^top, by the EULER transform.

    The logarithmic derivative q g'/g = sum_n c_n q^n of the product g has
    c_n = -sum_{(s,e): e | n} e * a * s^(n/e), and n g_n = sum_{k=1..n} c_k
    g_(n-k) with g_0 = 1 (Bernstein & Sloane 1995): O(top^2) multiplies of
    a small c_k by a coefficient, however many factors there are.  A signed
    factor keeps its own terms, so a product that is 1 is still a sum over
    divisors that cancels.  Each division is checked: a remainder raises
    SeriesError instead of being floored away.  ``_eta_quotient`` falls
    back to this pass for a dense vector below top ``_ETA_MIN_TOP``, or one
    that is no eta quotient times a few binomials, such as (q;q^4)_inf.
    """
    c = [0] * (top + 1)
    for (s, e), a in exponents.items():
        for n in range(e, top + 1, e):
            c[n] -= e * a * s ** (n // e)
    g = [1]
    if not any(c):  # the product is 1, as (-q;q)_inf (q;q^2)_inf is
        return g + [0] * top
    backwards = c[::-1]  # backwards[top - n:] is c_n, c_(n-1), ..., c_0
    for n in range(1, top + 1):
        g_n, remainder = divmod(sum(map(mul, backwards[top - n :], g)), n)
        if remainder:
            raise SeriesError(f"the EULER transform does not divide exactly at q^{n}")
        g.append(g_n)
    return g


#: ``_eta_quotient`` takes ``_euler`` below this top, where the route's
#: set-up costs more than its passes save.  On the catalog's dense vectors
#: (Python 3.11, 2 vCPUs, best of 40) the route takes 1.03-1.19 of
#: ``_euler``'s time at tops 36-48, 0.93-1.15 at 60, 0.78 at 80 and
#: 0.57-0.62 at 120.  So the default orders' tops, 59 and 60, keep ``_euler``.
_ETA_MIN_TOP = 80


def _eta_quotient(exponents: dict[tuple[int, int], int], top: int) -> list[int]:
    """prod (1 - s*q^e)^a over {(s, e): a} through q^top, as an eta quotient times a few binomials.

    With (1 + q^e)^a = (1 - q^(2e))^a / (1 - q^e)^a, m_e is the power of
    (1 - q^e), e <= top.  Moebius inversion of the last 12 gives r_d for
    d | 12 with sum_(d | gcd(e, 12)) r_d = m_e there; each e where that sum
    is not m_e is a correction binomial, which the kernels apply.  By
    Euler's pentagonal theorem each (q^d;q^d)_inf = 1 + sum_(j>=1) (-1)^j
    (q^(d j(3j-1)/2) + q^(d j(3j+1)/2)) has O(sqrt(top/d)) taps: a multiply
    is one slice ``map`` per tap, a division an online loop over the taps
    split by sign.  Largest d first, g is kept in q^step, step the gcd of
    the d done so far, so a pass at d = 2 runs over half the coefficients.
    A pass costs O(top^1.5), so past sqrt(top) passes (|r_d| each, one per
    correction binomial) the vector falls back to ``_euler``.  Nothing
    divides with a remainder: the output is ``_euler``'s.
    """
    if top < _ETA_MIN_TOP:
        return _euler(exponents, top)
    m = [0] * (top + 1)
    for (s, e), a in exponents.items():
        if e <= top:
            m[e] += s * a
            if s == -1 and 2 * e <= top:
                m[2 * e] += a
    tail = {gcd(e, 12): m[e] for e in range(top - 11, top + 1)}
    r = {}
    for d in (1, 2, 3, 4, 6, 12):
        r[d] = tail[d] - sum(r[k] for k in r if d % k == 0)
    expected = [sum(r[d] for d in r if res % d == 0) for res in range(12)] * (top // 12 + 1)
    wrong = list(compress(range(1, top + 1), map(ne, m[1:], expected[1:])))
    if (sum(map(abs, r.values())) + sum(abs(m[e] - expected[e]) for e in wrong)) ** 2 > top:
        return _euler(exponents, top)
    divisors = [d for d in (12, 6, 4, 3, 2) if r[d]] + [1]  # d = 1 last, to end at step 1
    step = divisors[0]
    g = [1] + [0] * (top // step)
    for d in divisors:
        if d % step:
            new, old = gcd(step, d), g
            g = [0] * (top // new + 1)
            g[:: step // new] = old
            step = new
        taps, j, stride, n = [], 1, d // step, len(g) - 1
        while (t := stride * j * (3 * j - 1) // 2) <= n:
            taps += [(t, j % 2), (t + stride * j, j % 2)]  # the second may pass n
            j += 1
        for _ in range(r[d]):
            old = g.copy()
            for t, odd in taps:
                g[t:] = map(sub if odd else add, g[t:], old)
        for _ in range(-r[d]):
            old, g = g, []
            get, plus, minus, lo = g.__getitem__, [], [], 0
            for t, odd in taps + [(n + 1, 0)]:
                for x in old[lo:t]:
                    g.append(x + sum(map(get, plus)) - sum(map(get, minus)))
                (plus if odd else minus).append(-t)
                lo = t
    for e in wrong:
        c = m[e] - expected[e]
        for _ in range(c):
            imul_one_minus(g, 1, e, top)
        if c < 0:
            idiv_one_minus(g, 1, e, top, -c)
    return g


def rational_series(
    numerator: Sequence[int],
    denominator_factors: Sequence[tuple[int, int, int]],
    order: int,
) -> Series:
    """numerator / prod (1 - sign*q^e)^multiplicity, truncated to `order`.

    Each denominator factor is a triple (sign, exponent, multiplicity) with
    exponent >= 1 so the constant term stays a unit; each factor is one
    ``idiv_one_minus`` call, which divides by its whole multiplicity.
    """
    _check_order(order)
    # one conversion at full length, so that a coefficient that is no
    # integer is refused above the order too
    out = list(Series.from_polynomial(numerator, max(order, len(numerator) - 1)).coeffs)
    del out[order + 1:]
    _check_denominator(denominator_factors)
    for sign, e, mult in denominator_factors:
        idiv_one_minus(out, sign, e, order, mult)
    return Series._trusted(out)


def _check_denominator(denominator_factors: Sequence[tuple]) -> None:
    for sign, e, mult in denominator_factors:
        if e < 1:
            raise QEngineError("denominator factor exponent must be at least 1")
        if sign not in (-1, 1):
            raise QEngineError("denominator factor sign must be -1 or +1")
        if mult < 1:
            raise QEngineError("denominator factor multiplicity must be at least 1")


# ----------------------------------------------------------------------
# sum-over-smallest-part templates

LENGTH_N = "n"
LENGTH_N_PLUS_1 = "n+1"
LENGTH_INF = "inf"


class PochFactor(_Record):
    """One Pochhammer factor of a smallest-part summand.

    The argument is sign * q^(exp_slope*n + exp_offset) where n is the outer
    summation index; `length` is "n", "n+1", "inf", or a fixed nonnegative
    integer; denominator factors are inverted.  The slope is a multiple of
    the step, which `moves` relies on.
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
        if self.exp_offset < 0:  # the least exponent, at n = 0
            raise QEngineError("argument exponent must stay nonnegative")
        if self.step < 1:
            raise QEngineError("factor step must be at least 1")
        fixed = isinstance(self.length, int) and self.length >= 0
        if not fixed and self.length not in (LENGTH_N, LENGTH_N_PLUS_1, LENGTH_INF):
            raise QEngineError(f"unsupported factor length {self.length!r}")
        if self.length == LENGTH_INF and self.sign == 1 and self.exp_offset == 0:
            raise QEngineError(_VANISHES)
        if self.exp_slope % self.step:
            raise QEngineError("argument exponent slope must be a multiple of the factor step")

    def _length(self, n: int) -> Optional[int]:
        """The Pochhammer length at index n; None means infinite."""
        length = self.length
        if length == LENGTH_N:
            return n
        if length == LENGTH_N_PLUS_1:
            return n + 1
        return None if length == LENGTH_INF else length

    def exponents(self, n: int, top: int) -> range:
        """The exponents e <= top of this factor's binomials (1 - sign*q^e) at index n."""
        e = self.exp_slope * n + self.exp_offset
        length = self._length(n)
        stop = top + 1 if length is None else min(e + self.step * length, top + 1)
        return range(e, stop, self.step)

    def moves(self, n: int, top: int) -> tuple[range, range]:
        """Exponents e <= top of the binomials that leave and join the product from n to n+1.

        Both exponent sets are runs of one residue class mod step, the one
        at n + 1 starting no lower and ending no lower, so going to n + 1
        drops a head of the run at n and appends a tail.  Either range is in
        increasing order.
        """
        now, after = self.exponents(n, top), self.exponents(n + 1, top)
        leaving = range(now.start, min(now.stop, after.start), self.step)
        return leaving, after[len(now) - len(leaving) :]


class TermTemplate(_Record):
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


def _rebuild(factors: Sequence[PochFactor], n: int, top: int) -> list[int]:
    """The factor product at n through q^top: one vector, each denominator at power -1."""
    product = _Product()
    for f in factors:
        binomials = _binomials(f.sign, f.exponents(n, top))
        product *= binomials ** -1 if f.denominator else binomials
    return list(product.series(top).coeffs)


def _advance(product: list[int], factors: Sequence[PochFactor], n: int, top: int) -> bool:
    """Turn the factor product at n into the one at n + 1, through q^top, in place.

    Each factor multiplies in the binomials that join its numerator product
    and divides out those that leave it (see PochFactor.moves); a
    denominator factor does the reverse.  False means the product must be
    rebuilt instead, and may have been changed part way: a binomial to
    divide out has exponent 0, where it is zero or 2 and so not a unit.
    """
    for f in factors:
        leaving, joining = f.moves(n, top)
        mul, div = (leaving, joining) if f.denominator else (joining, leaving)
        if 0 in div:
            return False
        for e in mul:
            imul_one_minus(product, f.sign, e, top)
        for e in div:
            idiv_one_minus(product, f.sign, e, top)
    return True


def sum_over_smallest(template: TermTemplate, order: int) -> Series:
    """Evaluate a smallest-part sum; stops once the prefix passes the order.

    The summand is q^prefix(n) times the factor product P(n).  The rule
    reads only the template's factors: when all are infinite with a
    positive slope, each loses binomials from the bottom as n grows and
    gains none, so P(n) is 1 through the order from some n on and the sum
    takes Horner's rule (``_horner``), with no starting product.  A factor
    of finite length gains binomials at its top end as n grows, and an
    infinite one of slope 0 never loses any, so with either P(n)/P(n+1) is
    no longer just the leaving binomials, or P(n) never reaches 1.  Such a
    template keeps the carry (``_carry``) from P(0) upward: a Horner's rule
    that also moved those binomials would cost about what the carry costs.
    """
    _check_order(order)
    if _takes_horner(template):
        return Series._trusted(_horner(template, order))
    return Series._trusted(_carry(template, order))


def _takes_horner(template: TermTemplate) -> bool:
    """True when every factor is infinite with a positive slope, the rule of ``sum_over_smallest``."""
    return all(f.length == LENGTH_INF and f.exp_slope for f in template.factors)


def _horner(template: TermTemplate, order: int) -> list[int]:
    """The sum by Horner's rule, for factors that are all infinite with a positive slope.

    With top = order - prefix(0) and H = 0 at the start, each n takes
    H <- (H + (+-1)^n q^(prefix(n) - prefix(0))) * P(n)/P(n+1) through q^top,
    where P(n)/P(n+1) is each factor's binomials from its least exponent at
    n to the one at n + 1: a numerator multiplies them in, a denominator
    divides them out, one O(top) kernel call each.  Once the prefix is past
    the order and every factor's least exponent is past top, P(n) is 1
    through q^top and H is the sum divided by q^prefix(0).  A denominator
    binomial at q^0 leaves at n = 0, where ``idiv_one_minus`` raises the
    non-unit error.
    """
    shift = template.prefix(0)
    top = order - shift
    if top < 0:
        return [0] * (order + 1)
    last = max([top // template.prefix_slope]
               + [(top - f.exp_offset) // f.exp_slope for f in template.factors])
    factors = [(idiv_one_minus if f.denominator else imul_one_minus, f.sign, f.exp_slope,
                f.exp_offset, f.step) for f in template.factors]
    h = [0] * (top + 1)
    for n in range(last + 1):
        d = template.prefix_slope * n
        if d <= top:
            h[d] += -1 if template.alternating and n % 2 == 1 else 1
        for kernel, sign, slope, offset, step in factors:
            # the leaving head of PochFactor.moves, without the cost of a call per factor and n
            least = slope * n + offset
            for e in range(least, min(least + slope, top + 1), step):
                kernel(h, sign, e, top)
    return [0] * shift + h


def _carry(template: TermTemplate, order: int) -> list[int]:
    """The sum by carrying the factor product P(n) from one n to the next.

    P(n) is built at n = 0 from one exponent vector of all the factors'
    binomials (``_rebuild``) and then carried: P(n+1) is P(n) times the
    binomials that join each factor and divided by those that leave it
    (PochFactor.moves), one O(order) kernel call each.  A factor's slope is
    a multiple of its step, so only a few binomials move per step and the
    sum costs O(order^2).  Where a binomial with exponent 0 would have to
    be divided out, P(n+1) is rebuilt instead, which raises the non-unit
    error where a denominator holds that binomial.  P(n) is one list, kept
    only through q^(order - prefix(n)), the part that lands within the
    order once shifted by q^prefix(n).
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
    return total


# ----------------------------------------------------------------------
# basic hypergeometric sum

def _check_phi21(c: Parameter, step: int, z: Parameter) -> None:
    if z.is_zero or z.exponent < 1:
        raise QEngineError("phi21 needs z = +-q^e with e >= 1 to truncate")
    if c.sign == 1 and c.exponent == 0:
        raise QEngineError("c = q^0 makes the denominator Pochhammer vanish")
    if step < 1:
        raise QEngineError("phi21 step must be at least 1")


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
    _check_phi21(c, step, z)
    _check_order(order)
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
