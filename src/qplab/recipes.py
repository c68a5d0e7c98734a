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

c*q^e is ``Monomial(e, c)``, the one node for a monomial; a literal c is
``Monomial(0, c)`` and renders as ``c``.  1/x is ``Pow(x, -1)``, the one
node for an inverse; it renders as ``1/(x)``.  A ``Mul`` or ``Pow`` folds
into qengine's exponent vector (``qengine._Product``) and is evaluated by
``_Product.series`` in one pass.  ``Poch`` factors, factors whose series has
at most two terms c*q^m and +-c*q^(m+e) (a constant, a monomial, a binomial
1 +- q^e), and ``Pow`` or ``Mul`` of such factors fold.  Any other factor of
a ``Mul`` is evaluated and multiplied in afterwards, and a power of one, or
of a product whose constant is not +-1, is taken by ``_power``, which
inverts through ``Series.invert`` when k < 0.  A lone ``Poch`` is expanded
by the binomial kernels.
"""

from __future__ import annotations

import re
import sys
from math import prod
from typing import Any, Callable, Union

from .series import Series, SeriesError, _check_order, _Record
from .qengine import _log_derivative_recurrence, _Product, Parameter, Poch, TermTemplate
from .qengine import phi21, rational_series, sum_over_smallest
from .mocktheta import MockThetaForm, mock_theta, theta_squares
from . import partitions
from .family_gf import family_gf_series


class Monomial(_Record):
    exponent: int
    coefficient: int = 1


class Add(_Record):
    terms: tuple["Recipe", ...]


class Scale(_Record):
    factor: int
    node: "Recipe"


class Mul(_Record):
    factors: tuple["Recipe", ...]


class Pow(_Record):
    """node^k; a negative k inverts the node first, and k = -1 is 1/node."""

    node: "Recipe"
    k: int


class NegVar(_Record):
    node: "Recipe"


class RationalGF(_Record):
    numerator: tuple[int, ...]
    denominator: tuple[tuple[int, int, int], ...]  # (sign, exponent, multiplicity)


class Phi21(_Record):
    a: Parameter
    b: Parameter
    c: Parameter
    step: int
    z: Parameter


class Theta(_Record):
    alternating: bool = False


class FamilyCounts(_Record):
    """Enumeration-side counting series of a registered family."""

    family: str
    mode: str = partitions.WEIGHT_NONE


class FamilyGF(_Record):
    """Template-side generating function of a registered family."""

    family: str
    signed: bool = False


class Overpartitions(_Record):
    odd_only: bool = False


class AdyCounts(_Record):
    distinct: bool
    allow_zero: bool = False


class CoefficientFormula(_Record):
    """sum_n (+-1)^n c(n) q^n for a named closed coefficient formula."""

    name: str  # "n" or "floor((n+2)/3)"
    alternating: bool = False


class CubicProgression(_Record):
    """sum_n (+-1)^n (n+1) (a(n) + b(n) q + c(n) q^2) q^(3n+offset).

    a, b, c are affine in n, given as (slope, intercept) pairs of ints, and
    the offset is a nonnegative int; anything else raises SeriesError when
    the record is built, so every coefficient it evaluates to is an int.
    """

    offset: int
    a: tuple[int, int]
    b: tuple[int, int]
    c: tuple[int, int]
    alternating: bool = False

    def __post_init__(self):
        if not isinstance(self.offset, int) or self.offset < 0:
            raise SeriesError("cubic progression offset must be a nonnegative integer")
        for name in ("a", "b", "c"):
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(x, int) for x in pair)):
                raise SeriesError(f"cubic progression {name} must be a (slope, intercept) pair of integers")


Recipe = Union[
    Monomial,
    Add,
    Scale,
    Mul,
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
    "floor((n+2)/3)": lambda n: (n + 2) // 3,
}


def evaluate(node: Recipe, order: int) -> Series:
    """Evaluate a recipe tree to a series of the given order.

    Inside a ``_Run`` each (node, order) is computed once, kept until the
    run ends and read back; outside one every call computes.
    """
    _check_order(order)
    if _run is not None:
        return _run.evaluate(node, order)
    return _rule(node).evaluate(node, order)


def render(node: Recipe) -> str:
    """Human-readable formula for a recipe tree."""
    return _rule(node).render(node)


def uses_enumeration(node: Recipe) -> bool:
    """True when any leaf is a partition count table of ``partitions``, O(n^2) at most."""
    rule = _rule(node)
    return rule.counts or any(uses_enumeration(c) for c in rule.children(node))


class _Rule(_Record):
    evaluate: Callable[[Any, int], Series]
    render: Callable[[Any], str]
    children: Callable[[Any], tuple] = lambda node: ()
    counts: bool = False  # the node itself is a count table of ``partitions``


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
    out = None
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return Series.one(order) if out is None else out


def _power_by_recurrence(f: tuple[int, ...], k: int) -> list[int]:
    """The coefficients of g = f^k through the order of f, O(order * nonzeros(f)).

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): f q g' = k q f' g,
    the kernel ``_log_derivative_recurrence`` with d = f, p_j = k j f_j and
    g_0 = f0^k.  f0 must be nonzero, and +-1 when k < 0, where
    f0^k = f0^|k|.
    """
    p = [k * j * c for j, c in enumerate(f)]
    return _log_derivative_recurrence(f, p, f[0] ** abs(k), len(f) - 1)


class _Run:
    """One bulk run's memo: each (node, order) it evaluates is computed once.

    ``entries`` maps each (node, order) the run has computed to the side
    that computed it and its series, and keeps it until the run ends.  The
    run's sides are numbered in order, each case's two sides one after the
    other, so side s and side s ^ 1 belong to one case.  The second side of
    a case never reads an entry its own first side stored: it computes the
    subtree again and overwrites the entry, so that the two sides stay
    independent.  Entering a run makes ``evaluate`` use it; leaving it,
    normally or by an exception, drops every entry.  The active run is one
    module variable, so a run is for one thread at a time.
    """

    def __init__(self):
        self.side = -1
        self.entries: dict[tuple, tuple[int, Series]] = {}

    def __enter__(self) -> "_Run":
        global _run
        _run = self
        return self

    def __exit__(self, *exc) -> None:
        global _run
        _run = None
        self.entries.clear()

    def evaluate_side(self, node: Recipe, order: int) -> Series:
        """Evaluate the run's next side."""
        self.side += 1
        return evaluate(node, order)

    def evaluate(self, node: Recipe, order: int) -> Series:
        key = (node, order)
        entry = self.entries.get(key)
        if entry is None or entry[0] == self.side ^ 1:
            entry = self.entries[key] = (self.side, _rule(node).evaluate(node, order))
        return entry[1]


#: the run inside whose ``with`` block evaluate is called, if any
_run: Union[_Run, None] = None


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

    Errors are those of evaluating the node (an infinite Pochhammer at +q^0
    never gets here: it raises when its Poch is built).  A negative power of
    a non-unit raises series._non_unit's error, from _Product.__pow__ for a
    shifted product with constant +-1 and from _power's Series.invert for
    any other.
    """
    kind = type(node)
    if kind is Poch:
        return node.product(order)
    if kind is Mul:
        product, rest = _Product(), []
        for f in node.factors:
            folded = _fold(f, order)
            if isinstance(folded, Series):
                rest.append(folded)
            else:
                product *= folded
        if rest and (product.const, product.shift, product.exponents) == (1, 0, {}):
            return prod(rest[1:], start=rest[0])
        return prod(rest, start=product.series(order)) if rest else product
    if kind is Pow:
        base, k = _fold(node.node, order), node.k
        if isinstance(base, Series) or base.const not in (1, -1):
            return _power(base if isinstance(base, Series) else base.series(order), k, order)
        return base ** k
    return _as_product(evaluate(node, order))


def _series(node: Union[Mul, Pow], order: int) -> Series:
    folded = _fold(node, order)
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
    return Series._trusted(out)


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
    Monomial: _Rule(
        lambda n, order: Series.monomial(n.exponent, order, n.coefficient),
        lambda n: str(n.coefficient) if n.exponent == 0
        else ("" if n.coefficient == 1 else f"{n.coefficient}*") + _mono_str(1, n.exponent),
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
        _series,
        lambda n: " * ".join(f"({render(f)})" for f in n.factors),
        lambda n: n.factors,
    ),
    Pow: _Rule(
        _series,
        lambda n: f"1/({render(n.node)})" if n.k == -1 else f"({render(n.node)})^{n.k}",
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
        lambda n, order: Series._trusted(partitions.overpartition_counts(order, n.odd_only)),
        lambda n: "overpartition counts" + (" (odd parts)" if n.odd_only else ""),
        counts=True,
    ),
    AdyCounts: _Rule(
        lambda n, order: Series._trusted(partitions.ady_counts(order, n.distinct, n.allow_zero)),
        lambda n: f"counts[odd parts < 2*smallest, {'distinct' if n.distinct else 'repeated'}"
        f"{' + optional zero part' if n.allow_zero else ''}]",
        counts=True,
    ),
    CoefficientFormula: _Rule(
        lambda n, order: Series._trusted(
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
            factors.append(rhs if op == "*" else Pow(rhs, -1))
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
            return Monomial(0, _integer(take()))
        if tok is None:
            raise ParseError("rational expression ends where an operand is expected")
        raise ParseError(f"unexpected token {tok!r} in rational expression")

    node = expr()
    if pos != len(tokens):
        raise ParseError(f"unexpected token {tokens[pos]!r} after the expression")
    return node
