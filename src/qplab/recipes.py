"""Recipe trees: declarative descriptions of how to compute a series.

Keeping the two sides of every catalog entry as data rather than code means
the CLI can print exactly what was evaluated, and the registry can tell
enumeration-backed recipes (partition counts, which it verifies at lower
orders) from pure series recipes.  The same trees are what ``parse``
builds from the arithmetic of a ``coeffs --target rational:...``
expression.

Besides the node classes below, three lower-layer types serve as nodes
directly: ``qengine.Poch``, ``qengine.TermTemplate`` (a smallest-part sum)
and ``mocktheta.MockThetaForm``.  Each node type has one entry in ``_RULES``
saying how to evaluate it, how to render it and which children it has.

A ``Mul`` folds its product factors into one product form,
const * q^shift * prod (1 - s*q^e)^a, kept as an exponent vector {(s, e): a}.
A vector whose binomials have degrees summing to at most half the order is
evaluated in one O(order * sum e) pass by the recurrence that its
logarithmic derivative gives (``_binomial_product``), any other in one
O(order^2) pass by the EULER transform (``_euler``).
``Poch`` factors, factors whose series has at most two terms c*q^m and
+-c*q^(m+e) (a constant, a monomial, a binomial 1 +- q^e), and ``Inv``,
``Pow`` or ``Mul`` of such factors fold; any other factor is evaluated and
multiplied in afterwards.  Outside a ``Mul``, a ``Poch`` is expanded by the
binomial kernels, an ``Inv`` by ``Series.invert`` and a ``Pow`` by ``_power``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from math import prod
from operator import mul
from typing import Any, Callable, Optional, Union

from .series import Series, SeriesError, _non_unit, idiv_one_minus, imul_one_minus
from .qengine import (
    Parameter,
    Poch,
    TermTemplate,
    phi21,
    rational_series,
    sum_over_smallest,
)
from .mocktheta import MockThetaForm, mock_theta, theta_squares
from . import partitions
from .family_gf import family_gf_series


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Monomial:
    exponent: int
    coefficient: int = 1


@dataclass(frozen=True)
class Add:
    terms: tuple["Recipe", ...]


@dataclass(frozen=True)
class Scale:
    factor: int
    node: "Recipe"


@dataclass(frozen=True)
class Mul:
    factors: tuple["Recipe", ...]


@dataclass(frozen=True)
class Inv:
    node: "Recipe"


@dataclass(frozen=True)
class Pow:
    """node^k; a negative k inverts the node first."""

    node: "Recipe"
    k: int


@dataclass(frozen=True)
class NegVar:
    node: "Recipe"


@dataclass(frozen=True)
class RationalGF:
    numerator: tuple[int, ...]
    denominator: tuple[tuple[int, int, int], ...]  # (sign, exponent, multiplicity)


@dataclass(frozen=True)
class Phi21:
    a: Parameter
    b: Parameter
    c: Parameter
    step: int
    z: Parameter


@dataclass(frozen=True)
class Theta:
    alternating: bool = False


@dataclass(frozen=True)
class FamilyCounts:
    """Enumeration-side counting series of a registered family."""

    family: str
    mode: str = partitions.WEIGHT_NONE


@dataclass(frozen=True)
class FamilyGF:
    """Template-side generating function of a registered family."""

    family: str
    signed: bool = False


@dataclass(frozen=True)
class Overpartitions:
    odd_only: bool = False


@dataclass(frozen=True)
class AdyCounts:
    distinct: bool
    allow_zero: bool = False


@dataclass(frozen=True)
class CoefficientFormula:
    """sum_n (+-1)^n c(n) q^n for a named closed coefficient formula."""

    name: str  # "n" or "floor((n+2)/3)"
    alternating: bool = False


@dataclass(frozen=True)
class CubicProgression:
    """sum_n (+-1)^n (n+1) (a(n) + b(n) q + c(n) q^2) q^(3n+offset).

    a, b, c are affine in n, given as (slope, intercept) pairs.
    """

    offset: int
    a: tuple[int, int]
    b: tuple[int, int]
    c: tuple[int, int]
    alternating: bool = False


Recipe = Union[
    Const,
    Monomial,
    Add,
    Scale,
    Mul,
    Inv,
    Pow,
    NegVar,
    Poch,
    RationalGF,
    TermTemplate,
    Phi21,
    MockThetaForm,
    Theta,
    FamilyCounts,
    FamilyGF,
    Overpartitions,
    AdyCounts,
    CoefficientFormula,
    CubicProgression,
]

_FORMULAS = {
    "n": lambda n: n,
    "floor((n+2)/3)": lambda n: (n + 2) // 3 if n else 0,
}


def evaluate(node: Recipe, order: int) -> Series:
    """Evaluate a recipe tree to a series of the given order."""
    if order < 0:
        raise SeriesError(f"cannot evaluate through q^{order}: the order must be nonnegative")
    return _rule(node).evaluate(node, order)


def render(node: Recipe) -> str:
    """Human-readable formula for a recipe tree."""
    return _rule(node).render(node)


def uses_enumeration(node: Recipe) -> bool:
    """True when any leaf counts actual partition objects."""
    rule = _rule(node)
    return rule.counts or any(uses_enumeration(c) for c in rule.children(node))


@dataclass(frozen=True)
class _Rule:
    evaluate: Callable[[Any, int], Series]
    render: Callable[[Any], str]
    children: Callable[[Any], tuple] = lambda node: ()
    counts: bool = False  # the node itself counts partition objects


def _rule(node: Recipe) -> _Rule:
    try:
        return _RULES[type(node)]
    except KeyError:
        raise TypeError(f"unknown recipe node {node!r}") from None


def _power(base: Series, k: int, order: int) -> Series:
    """base^k by the power recurrence or by binary powering.

    Counted per output coefficient, in digit operations on coefficients
    about as long as k (fewer than 2^bits(k) digits): the recurrence
    (``_power_by_recurrence``) multiplies nonzeros(f) of them by a small
    coefficient of f, 2^bits(k) each, and binary powering makes
    bits(k) + ones(k) - 2 products of two of them, 3^bits(k) each by
    Karatsuba.  The recurrence runs when its count is no larger and the
    base has a nonzero constant term, a unit one when k < 0.  Otherwise a
    negative k inverts the base first, and a base without constant term
    vanishes past the order.
    """
    c0 = base.coeffs[0]
    bits = abs(k).bit_length()
    products = bits + abs(k).bit_count() - 2
    nonzeros = len(base.coeffs) - base.coeffs.count(0)
    recurrence = (
        c0 != 0
        and (k >= 0 or c0 in (1, -1))
        and nonzeros * 2**bits <= products * 3**bits
    )
    if k < 0 and not recurrence:
        base, k = base.invert(), -k
    if k > order and base.coeffs[0] == 0:
        return Series.zero(order)
    # The constant term of the power is c0^k >= 2^((bits(c0) - 1) k), which
    # has at least 0.3 (bits(c0) - 1) k decimal digits.  Refuse a power that
    # could not be printed before spending time and memory that grow with k.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and 3 * (abs(base.coeffs[0]).bit_length() - 1) * k >= 10 * limit:
        raise SeriesError(
            f"the constant term {base.coeffs[0]}^{k} has more than {limit} digits, "
            "too many to print"
        )
    if recurrence:
        return Series._trusted(_power_by_recurrence(base.coeffs, k))
    out = Series.one(order)
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _power_by_recurrence(f: tuple[int, ...], k: int) -> list[int]:
    """The coefficients of g = f^k through the order of f, O(order * nonzeros(f)).

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): f q g' = k q f' g,
    the kernel ``_log_derivative_recurrence`` with d = f, p_j = k j f_j and
    g_0 = f0^k.  f0 must be nonzero, and +-1 when k < 0, where
    f0^k = f0^|k|.
    """
    p = [k * j * c for j, c in enumerate(f)]
    return _log_derivative_recurrence(f, p, f[0] ** abs(k), len(f) - 1)


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
    for n in range(1, top + 1):
        acc = 0
        for j, a, c in taps:
            if j > n:
                break
            acc += (a - n * c) * g[n - j]
        g[n], remainder = divmod(acc, n * d0)
        if remainder:
            raise SeriesError(f"the recurrence does not divide exactly at q^{n}")
    return g


class _Product:
    """const * q^shift * prod (1 - s*q^e)^a over `exponents` {(s, e): a}, each e >= 1.

    A plain class, not a dataclass: generating a dataclass's methods costs
    import time that every CLI call pays.
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
        """The k-th power; const must be +-1, and shift 0 when k < 0."""
        exponents = {key: a * k for key, a in self.exponents.items()}
        return _Product(self.const ** abs(k), self.shift * k, exponents)

    def series(self, order: int) -> Series:
        """The product through q^order, by the pass with fewer multiplies.

        A product of few binomials takes the recurrence of
        ``_binomial_product``, top * sum(e) multiplies, and a dense one the
        EULER transform (``_euler``), top^2 / 2, where top = order - shift
        and the sum is over the binomials with a nonzero power.
        """
        top = order - self.shift
        if top < 0 or not self.const:
            return Series.zero(order)
        degree = sum(e for (s, e), a in self.exponents.items() if a)
        if 2 * degree <= top:
            g = _binomial_product(self.exponents, top)
        else:
            g = _euler(self.exponents, top)
        return Series._trusted([0] * self.shift + [self.const * x for x in g])


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
    SeriesError instead of being floored away.  ``_Product.series`` takes
    this pass for a dense vector, such as an infinite Pochhammer's, whose
    binomials' degrees sum to more than top / 2.
    """
    c = [0] * (top + 1)
    for (s, e), a in exponents.items():
        for n in range(e, top + 1, e):
            c[n] -= e * a * s ** (n // e)
    g = [1]
    if not any(c):
        return g + [0] * top
    backwards = c[::-1]  # backwards[top - n:] is c_n, c_(n-1), ..., c_0
    for n in range(1, top + 1):
        g_n, remainder = divmod(sum(map(mul, backwards[top - n :], g)), n)
        if remainder:
            raise SeriesError(f"the EULER transform does not divide exactly at q^{n}")
        g.append(g_n)
    return g


def _as_product(s: Series) -> Union[_Product, Series]:
    """s as the product c*q^m*(1 - sign*q^e) when its terms are c*q^m and -sign*c*q^(m+e), or fewer.

    Any other series is returned as it is.
    """
    coeffs = s.coeffs
    if len(coeffs) - coeffs.count(0) > 2:
        return s
    terms = [(i, c) for i, c in enumerate(coeffs) if c]
    if not terms:
        return _Product(0)
    (m, c), *rest = terms
    if not rest:
        return _Product(c, m)
    (n, d), = rest
    if d not in (c, -c):
        return s
    return _Product(c, m, {(-d // c, n - m): 1})


def _fold(node: Recipe, order: int) -> Union[_Product, Series]:
    """node as a _Product when it folds into one, else its series through the order.

    Errors are those of evaluating the node: an infinite Pochhammer at +q^0
    raises from Poch.exponents, and inverting a product whose constant term
    is not +-1 raises series._non_unit's error.  A power of a product whose
    constant is not +-1, or a negative power of one with a shift, does not
    fold and goes through _power.
    """
    kind = type(node)
    if kind is Poch:
        exponents = node.exponents(order)
        s = node.a.sign
        const = 1 - s if exponents and exponents[0] == 0 else 1
        return _Product(const, 0, {(s, e): 1 for e in exponents if e})
    if kind is Mul:
        product, rest = _Product(), []
        for f in node.factors:
            folded = _fold(f, order)
            if isinstance(folded, Series):
                rest.append(folded)
            else:
                product *= folded
        return prod(rest, start=product.series(order)) if rest else product
    if kind is Inv:
        base = _fold(node.node, order)
        if isinstance(base, Series):
            return base.invert()
        if base.shift or base.const not in (1, -1):
            raise _non_unit(0 if base.shift else base.const)
        return base ** -1
    if kind is Pow:
        base = _fold(node.node, order)
        if isinstance(base, Series) or base.const not in (1, -1) or (node.k < 0 and base.shift):
            return _power(_series(base, order), node.k, order)
        return base ** node.k
    return _as_product(evaluate(node, order))


def _series(folded: Union[_Product, Series], order: int) -> Series:
    return folded if isinstance(folded, Series) else folded.series(order)


def _eval_cubic_progression(node: CubicProgression, order: int) -> Series:
    out = [0] * (order + 1)
    n = 0
    while 3 * n + node.offset <= order:
        sign = -1 if node.alternating and n % 2 else 1
        for shift, (slope, intercept) in enumerate((node.a, node.b, node.c)):
            e = 3 * n + node.offset + shift
            if e <= order:
                out[e] += sign * (n + 1) * (slope * n + intercept)
        n += 1
    return Series(out)


def _mono_str(sign: int, exponent: int) -> str:
    s = "-" if sign < 0 else ""
    if exponent == 0:
        return f"{s}1"
    return f"{s}q" if exponent == 1 else f"{s}q^{exponent}"


def _param_str(p: Parameter) -> str:
    return "0" if p.is_zero else _mono_str(p.sign, p.exponent)


def _poly_str(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mag = "" if abs(c) == 1 and i else str(abs(c))
        var = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
        glue = "*" if mag and var else ""
        term = f"{mag}{glue}{var}"
        terms.append(f"- {term}" if c < 0 else (f"+ {term}" if terms else term))
    return " ".join(terms) or "0"


def _affine_str(slope: int, intercept: int, var: str = "n") -> str:
    if slope == 0:
        return str(intercept)
    head = var if slope == 1 else f"{slope}{var}"
    if intercept == 0:
        return head
    return f"{head}{'+' if intercept > 0 else '-'}{abs(intercept)}"


def _sign(alternating: bool) -> str:
    return "(-1)^n " if alternating else ""


def _render_rational(node: RationalGF) -> str:
    den = " ".join(
        f"(1{'+' if s < 0 else '-'}q^{e})^{m}" if m > 1 else f"(1{'+' if s < 0 else '-'}q^{e})"
        for s, e, m in node.denominator
    )
    return f"[{_poly_str(node.numerator)}] / {den}"


def _render_template(t: TermTemplate) -> str:
    parts = []
    for f in t.factors:
        e = _affine_str(f.exp_slope, f.exp_offset)
        body = f"({'-' if f.sign < 0 else ''}q^({e}); q^{f.step})_{f.length}"
        parts.append(f"1/{body}" if f.denominator else body)
    return (
        f"sum_n {_sign(t.alternating)}q^({_affine_str(t.prefix_slope, t.prefix_offset)}) "
        + " ".join(parts)
    )


def _render_cubic_progression(node: CubicProgression) -> str:
    return (
        f"sum_n {_sign(node.alternating)}(n+1)[({_affine_str(*node.a)}) "
        f"+ ({_affine_str(*node.b)})q + ({_affine_str(*node.c)})q^2] q^(3n+{node.offset})"
    )


def _child(node) -> tuple:
    return (node.node,)


# One entry per node type.  Entries reach evaluate, sum_over_smallest and the
# other functions through module globals at call time, so a wrapper installed
# on one of those globals sees every call, the recursion included.
_RULES: dict[type, _Rule] = {
    Const: _Rule(lambda n, order: Series.one(order).scale(n.value), lambda n: str(n.value)),
    Monomial: _Rule(
        lambda n, order: Series.monomial(n.exponent, order, n.coefficient),
        lambda n: ("" if n.coefficient == 1 else f"{n.coefficient}*") + _mono_str(1, n.exponent),
    ),
    Add: _Rule(
        lambda n, order: sum((evaluate(t, order) for t in n.terms), Series.zero(order)),
        lambda n: " + ".join(render(t) for t in n.terms),
        lambda n: n.terms,
    ),
    Scale: _Rule(
        lambda n, order: evaluate(n.node, order).scale(n.factor),
        lambda n: f"{n.factor}*({render(n.node)})",
        _child,
    ),
    Mul: _Rule(
        lambda n, order: _series(_fold(n, order), order),
        lambda n: " * ".join(f"({render(f)})" for f in n.factors),
        lambda n: n.factors,
    ),
    Inv: _Rule(
        lambda n, order: evaluate(n.node, order).invert(),
        lambda n: f"1/({render(n.node)})",
        _child,
    ),
    Pow: _Rule(
        lambda n, order: _power(evaluate(n.node, order), n.k, order),
        lambda n: f"({render(n.node)})^{n.k}",
        _child,
    ),
    NegVar: _Rule(
        lambda n, order: evaluate(n.node, order).negate_variable(),
        lambda n: f"[q -> -q]({render(n.node)})",
        _child,
    ),
    Poch: _Rule(
        lambda n, order: n.series(order),
        lambda n: f"({_param_str(n.a)}; q^{n.step})_{'inf' if n.length is None else n.length}",
    ),
    RationalGF: _Rule(
        lambda n, order: rational_series(n.numerator, n.denominator, order), _render_rational
    ),
    TermTemplate: _Rule(lambda n, order: sum_over_smallest(n, order), _render_template),
    Phi21: _Rule(
        lambda n, order: phi21(n.a, n.b, n.c, n.step, n.z, order),
        lambda n: f"2phi1({_param_str(n.a)}, {_param_str(n.b)}; {_param_str(n.c)}; "
        f"q^{n.step}, {_param_str(n.z)})",
    ),
    MockThetaForm: _Rule(
        lambda n, order: mock_theta(n, order),
        lambda n: f"{n.function}[{n.form}]({'-q' if n.argument_sign < 0 else 'q'})",
    ),
    Theta: _Rule(
        lambda n, order: theta_squares(order, n.alternating),
        lambda n: f"1 + 2 sum {_sign(n.alternating)}q^(n^2)",
    ),
    FamilyCounts: _Rule(
        lambda n, order: partitions.family_series(partitions.FAMILIES[n.family], order, n.mode),
        lambda n: f"counts[{n.family}, weight={n.mode}]",
        counts=True,
    ),
    FamilyGF: _Rule(
        lambda n, order: family_gf_series(n.family, n.signed, order),
        lambda n: f"gf[{n.family}{', signed' if n.signed else ''}]",
    ),
    Overpartitions: _Rule(
        lambda n, order: Series(partitions.overpartition_counts(order, n.odd_only)),
        lambda n: "overpartition counts" + (" (odd parts)" if n.odd_only else ""),
        counts=True,
    ),
    AdyCounts: _Rule(
        lambda n, order: Series(partitions.ady_counts(order, n.distinct, n.allow_zero)),
        lambda n: f"counts[odd parts < 2*smallest, {'distinct' if n.distinct else 'repeated'}"
        f"{' + optional zero part' if n.allow_zero else ''}]",
        counts=True,
    ),
    CoefficientFormula: _Rule(
        lambda n, order: Series(
            [(-1) ** m * _FORMULAS[n.name](m) if n.alternating else _FORMULAS[n.name](m)
             for m in range(order + 1)]
        ),
        lambda n: f"sum_n {_sign(n.alternating)}{n.name} q^n",
    ),
    CubicProgression: _Rule(_eval_cubic_progression, _render_cubic_progression),
}


# ----------------------------------------------------------------------
# parsing integer polynomial arithmetic in q

#: deepest parenthesis nesting `parse` accepts.  A level nests at most five
#: tree nodes and evaluating or rendering recurses once per node, so parsing,
#: evaluating and rendering all stay far from the interpreter's recursion limit.
MAX_DEPTH = 24


class ParseError(ValueError):
    """Raised for text that is not a well-formed expression."""


def _tokenize(text: str) -> list[str]:
    tokens = re.findall(r"[0-9]+|\S", text)
    for tok in tokens:
        if tok not in "+-*/^()q" and tok[0] not in "0123456789":
            raise ParseError(f"unexpected character {tok!r} in rational expression")
    return tokens


def _integer(token: str) -> int:
    try:
        return int(token)
    except ValueError:  # longer than the interpreter's int-string limit
        raise ParseError(f"integer literal of {len(token)} digits is too long") from None


def parse(text: str) -> Recipe:
    """Parse integer polynomial arithmetic in q into a recipe tree.

    Grammar: + - * / ^ with parentheses, the variable q and integer
    literals.  ``x^k`` takes an integer k, ``x^-k`` inverts x first; ``a/b``
    multiplies by the inverse of b, so b's constant term must be a unit
    when the tree is evaluated.  Parentheses nest at most MAX_DEPTH deep.
    """
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr() -> Recipe:
        terms = [term()]
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            terms.append(rhs if op == "+" else Scale(-1, rhs))
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term() -> Recipe:
        factors = [unary()]
        while peek() in ("*", "/"):
            op = take()
            rhs = unary()
            factors.append(rhs if op == "*" else Inv(rhs))
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def unary() -> Recipe:
        # signs fold in a loop; a run of them never nests the tree
        negative = False
        while peek() in ("+", "-"):
            negative ^= take() == "-"
        node = power()
        return Scale(-1, node) if negative else node

    def power() -> Recipe:
        base = atom()
        if peek() != "^":
            return base
        take()
        negative = peek() == "-"
        if negative:
            take()
        tok = peek()
        if tok is None or not tok.isdigit():
            raise ParseError("exponent must be an integer")
        k = _integer(take())
        return Pow(base, -k if negative else k)

    def atom() -> Recipe:
        nonlocal depth
        tok = peek()
        if tok == "(":
            take()
            depth += 1
            if depth > MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} levels")
            node = expr()
            if peek() != ")":
                raise ParseError("unbalanced parentheses in rational expression")
            take()
            depth -= 1
            return node
        if tok == "q":
            take()
            return Monomial(1)
        if tok is not None and tok.isdigit():
            return Const(_integer(take()))
        if tok is None:
            raise ParseError("rational expression ends where an operand is expected")
        raise ParseError(f"unexpected token {tok!r} in rational expression")

    node = expr()
    if pos != len(tokens):
        raise ParseError(f"unexpected token {tokens[pos]!r} after the expression")
    return node
