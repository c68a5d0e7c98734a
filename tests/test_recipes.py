"""The recipe parser: random expressions against a naive expansion, render
round trips, malformed token strings, the nesting bound, the two ways of
evaluating a power, and the product fold of Mul against naive products."""

import hashlib
import math
import sys

import pytest

from qplab import qengine, recipes, registry, series
from qplab.cli import main
from qplab.mocktheta import MockThetaForm
from qplab.qengine import LENGTH_INF, Parameter, Poch, PochFactor, QEngineError, TermTemplate
from qplab.recipes import (
    MAX_DEPTH,
    Add,
    FamilyGF,
    Monomial,
    Mul,
    ParseError,
    Phi21,
    Pow,
    evaluate,
    parse,
    render,
)
from qplab.series import SeriesError

import oracles

ORDER = 8


def _power(a, k):
    out = oracles.p_one(ORDER)
    for _ in range(k):
        out = oracles.p_mul(out, a)
    return out


def _negate(a):
    return [-c for c in a]


def _unit_expression(rng, depth):
    """(text, coefficients) of an expression whose constant term is +-1."""
    text, b = _random_expression(rng, depth)
    c = rng.choice((1, -1))
    u = oracles.p_add(oracles.p_mono(0, ORDER, c), oracles.p_mul(oracles.p_mono(1, ORDER), b))
    return f"({c}+q*({text}))", u


def _random_expression(rng, depth):
    """(text, coefficients): a well-formed expression and its naive expansion."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return "q", oracles.p_mono(1, ORDER)
        if kind == 1:
            c = rng.randint(0, 12)
            return str(c), oracles.p_mono(0, ORDER, c)
        e = rng.randint(0, 10)
        return f"q^{e}", oracles.p_mono(e, ORDER)
    ta, a = _random_expression(rng, depth - 1)
    op = rng.randrange(7)
    if op == 3:
        return f"-({ta})", _negate(a)
    if op == 4:
        k = rng.randint(0, 4)
        return f"({ta})^{k}", _power(a, k)
    if op == 6:
        tu, u = _unit_expression(rng, depth - 1)
        k = rng.randint(1, 3)
        return f"{tu}^-{k}", _power(oracles.p_inv(u), k)
    if op == 5:
        tu, u = _unit_expression(rng, depth - 1)
        return f"({ta}) / {tu}", oracles.p_mul(a, oracles.p_inv(u))
    tb, b = _random_expression(rng, depth - 1)
    if op == 0:
        return f"({ta}) + ({tb})", oracles.p_add(a, b)
    if op == 1:
        return f"({ta})-({tb})", oracles.p_add(a, _negate(b))
    return f"({ta})*({tb})", oracles.p_mul(a, b)


def test_random_expressions_match_naive_expansion(rng):
    for _ in range(300):
        text, expected = _random_expression(rng, 3)
        assert list(evaluate(parse(text), ORDER).coeffs) == expected, text


def test_render_round_trips_through_parse(rng):
    for _ in range(300):
        text, _ = _random_expression(rng, 3)
        node = parse(text)
        again = parse(render(node))
        assert evaluate(again, ORDER) == evaluate(node, ORDER), text


def test_random_token_strings_parse_or_exit_two(rng, capsys):
    # single-digit literals (tokens are joined by spaces) keep every power small
    alphabet = ["q", "0", "1", "2", "9", "+", "-", "*", "/", "^", "(", ")"]
    parsed = 0
    for _ in range(400):
        text = " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            parse(text)
        except ParseError:
            well_formed = False
        else:
            well_formed = True
            parsed += 1
        code = main(["coeffs", "--target", f"rational:{text}", "--order", "6"])
        out, err = capsys.readouterr()
        assert code in ((0, 2) if well_formed else (2,)), text
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), text
    assert parsed > 0


def _deepest(levels):
    """Each parenthesis level nests Add, Mul, Scale and two Pow nodes."""
    text = "1+q"
    for _ in range(levels):
        text = f"2 + 1/-({text})^1"
    return text


def test_nesting_bound():
    node = parse(_deepest(MAX_DEPTH))
    assert evaluate(node, 4).coeffs[0] == 1
    assert render(node)
    with pytest.raises(ParseError, match="nest"):
        parse(_deepest(MAX_DEPTH + 1))
    assert evaluate(parse("-" * 3000 + "q"), 2).coeffs == (0, 1, 0)


# ----------------------------------------------------------------------
# powers: the recurrence for sparse bases, binary powering otherwise

def _polynomial(coeffs):
    return Add(tuple(Monomial(i, c) for i, c in enumerate(coeffs) if c))


def _repeated_product(f, k):
    """f^k by |k| naive multiplications, of 1/f when k < 0."""
    base = f if k >= 0 else oracles.p_inv(f)
    out = oracles.p_one(len(f) - 1)
    for _ in range(abs(k)):
        out = oracles.p_mul(out, base)
    return out


@pytest.fixture
def recurrence_calls(monkeypatch):
    calls = []
    inner = recipes._power_by_recurrence

    def counted(f, k):
        calls.append((f, k))
        return inner(f, k)

    monkeypatch.setattr(recipes, "_power_by_recurrence", counted)
    return calls


def test_power_matches_repeated_multiplication(rng, recurrence_calls):
    picked = set()  # the exponents evaluate sent to the recurrence
    for f0 in (1, -1, 2, -3):
        for k in range(-12, 13):
            if k < 0 and f0 not in (1, -1):
                continue
            for _ in range(3):
                order = rng.choice((0, rng.randint(1, 10), rng.randint(11, 40)))
                f = [f0] + [rng.choice((0, 0, 0, 1, -1, 2, -5)) for _ in range(order)]
                expected = _repeated_product(f, k)
                before = len(recurrence_calls)
                assert list(evaluate(Pow(_polynomial(f), k), order).coeffs) == expected, (f, k)
                picked.update(k for _, k in recurrence_calls[before:])
                # the recurrence itself, whichever path the count picked
                assert recipes._power_by_recurrence(tuple(f), k) == expected, (f, k)
    assert 0 not in picked and any(k < 0 for k in picked) and any(k > 0 for k in picked)


def _binomial_theorem(a, c, e, k, order):
    """(a + c*q^e)^k through q^order; a = +-1 when k < 0."""
    out = [0] * (order + 1)
    for j in range(order // e + 1):
        if k >= 0:
            out[j * e] = math.comb(k, j) * a ** (k - j) * c**j if j <= k else 0
        else:  # (a + x)^k = a^k (1 + a x)^k and (1 + y)^-m = sum C(m+j-1, j) (-y)^j
            out[j * e] = a ** (-k) * math.comb(-k + j - 1, j) * (-a * c) ** j
    return out


def test_power_of_a_binomial_takes_the_recurrence(recurrence_calls, binomial_product_calls):
    # a base with constant +-1 folds into the vector {(s, e): k}; 2 - q does not fold
    order = 300
    cases = (("1-q", 1, -1, 1, 1213), ("1+q^2", 1, 1, 2, 819), ("-1-q^3", -1, -1, 3, -49),
             ("2-q", 2, -1, 1, 40))
    for text, a, c, e, k in cases:
        got = evaluate(Pow(parse(text), k), order).coeffs
        assert got == tuple(_binomial_theorem(a, c, e, k, order)), text
    assert [f[:2] for f, k in recurrence_calls] == [(2, -1)]
    assert [v for v in binomial_product_calls if v] == [{(1, 1): 1213}, {(-1, 2): 819}, {(-1, 3): -49}]


def test_dense_powers_take_the_kronecker_product(monkeypatch):
    # 1/(1-q) + 1 = 2 + q + q^2 + ...: dense, so binary powering multiplies
    # two dense operands, which Series.__mul__ packs into one big-int product
    calls = []
    inner = series._kronecker
    monkeypatch.setattr(series, "_kronecker", lambda a, b, size: calls.append(size) or inner(a, b, size))
    closed_forms = {2: lambda n: n + 3, 3: lambda n: 6 + 3 * n + (n + 1) * (n + 2) // 2}
    for k, closed in closed_forms.items():
        before = len(calls)
        got = evaluate(parse(f"(1/(1-q)+1)^{k}"), 300).coeffs
        assert got == (2**k,) + tuple(closed(n) for n in range(1, 301)), k
        assert len(calls) > before, k


def test_power_at_k_zero_and_order_zero(recurrence_calls):
    assert evaluate(Pow(parse("3+q"), 0), 5).coeffs == (1, 0, 0, 0, 0, 0)
    assert evaluate(Pow(parse("-3+q"), 5), 0).coeffs == (-243,)
    assert evaluate(Pow(parse("-1+q^2"), -7), 0).coeffs == (-1,)
    assert recipes._power_by_recurrence((-3,), 5) == [-243]
    assert recipes._power_by_recurrence((2, 5, 1), 0) == [1, 0, 0]


def test_power_without_constant_term_uses_binary_powering(recurrence_calls):
    for k in (1, 2, 3, 7):
        f = [0, 1, 0, -2, 0, 0]
        assert list(evaluate(Pow(_polynomial(f), k), 5).coeffs) == _repeated_product(f, k)
    assert evaluate(Pow(parse("q+q^2"), 9), 5).coeffs == (0,) * 6
    assert recurrence_calls == []


def test_power_recurrence_never_floors():
    # (2+q)^-1 is not an integer series; the recurrence must say so
    with pytest.raises(SeriesError, match="divide exactly"):
        recipes._power_by_recurrence((2, 1, 0, 0), -1)


@pytest.mark.parametrize(
    "expression, message",
    [
        ("(2+q)^-3", "cannot invert a series with constant coefficient 2; "
                     "only unit constants are invertible over the integers"),
        ("q^3/q", "cannot invert a series with constant coefficient 0; "
                  "only unit constants are invertible over the integers"),
        ("9^99999", "the constant term 9^99999 has more than {limit} digits, too many to print"),
    ],
)
def test_power_errors_are_unchanged(capsys, expression, message):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if "{limit}" in message and not limit:
        pytest.skip("this interpreter prints integers of any length")
    code = main(["coeffs", "--target", "rational:" + expression, "--order", "3"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message.format(limit=limit)}\n")


_Q = Parameter.monomial(1)


@pytest.mark.parametrize(
    "node",
    [
        MockThetaForm("omega"),
        FamilyGF("A"),
        Phi21(_Q, _Q, Parameter.zero(), 1, _Q),
        Poch(_Q, 1),
        TermTemplate(1, 0, (PochFactor(1, 1, 1, 1, LENGTH_INF),)),
        parse("1/(1-q)"),
    ],
    ids=["mock-theta", "family-gf", "phi21", "poch", "template", "parsed"],
)
def test_negative_order_is_refused(node):
    with pytest.raises(SeriesError, match=r"^cannot evaluate through q\^-1: the order must be nonnegative$"):
        evaluate(node, -1)


# ----------------------------------------------------------------------
# the product fold: a Mul of Pochhammer, binomial-power, constant and
# monomial factors is one exponent vector evaluated by the EULER transform,
# or by a short recurrence when its binomials are few

def _naive_power(a, k):
    return _repeated_product(a, k) if k >= 0 or a[0] in (1, -1) else None


def _fold_leaf(rng, order):
    """(node, naive coefficients) of a factor that folds; the constant term may be 0 or 2."""
    kind = rng.randrange(4)
    if kind == 0:
        sign, e, step = rng.choice((1, -1)), rng.randint(0, 3), rng.randint(1, 3)
        length = rng.choice((None, rng.randint(0, 6)))
        if length is None and (sign, e) == (1, 0):
            sign = -1  # (1; q^step)_inf raises; see the error test below
        if length is None:
            return Poch(Parameter(sign, e), step), oracles.p_poch_inf(sign, e, step, order)
        return Poch(Parameter(sign, e), step, length), oracles.p_poch_fin(sign, e, step, length, order)
    if kind == 1:
        sign, e = rng.choice((1, -1)), rng.randint(1, 4)
        text = f"1{'-' if sign == 1 else '+'}q^{e}"
        return parse(text), oracles.p_binom(sign, e, order)
    if kind == 2:
        c = rng.choice((1, -1, 2, -3))
        return Monomial(0, c), oracles.p_mono(0, order, c)
    m, c = rng.randint(0, 3), rng.choice((1, -1, 2))
    return Monomial(m, c), oracles.p_mono(m, order, c)


def _fold_factor(rng, order):
    """(node, naive coefficients) of a random Mul factor; most fold, a few do not."""
    kind = rng.randrange(8)
    if kind < 4:
        return _fold_leaf(rng, order)
    if kind == 4:
        node, a = _fold_leaf(rng, order)
        if a[0] not in (1, -1):
            return node, a
        return Pow(node, -1), oracles.p_inv(a)
    if kind == 5:
        node, a = _fold_leaf(rng, order)
        k = rng.randint(-4, 12)
        if k < 0 and a[0] not in (1, -1):
            k = -k
        return Pow(node, k), _naive_power(a, k)
    if kind == 6:  # a dense base: Pow does not fold it
        f = [rng.choice((1, -1))] + [rng.randint(-3, 3) for _ in range(order)]
        k = rng.randint(-2, 3)
        return Pow(_polynomial(f), k), _naive_power(f, k)
    q = Parameter.monomial(1)
    return (Phi21(q, q, Parameter.zero(), 1, q),
            oracles.phi21_series((1, 1), (1, 1), (0, 0), 1, (1, 1), order))


@pytest.fixture
def euler_calls(monkeypatch):
    calls = []
    inner = qengine._euler

    def counted(exponents, top):
        calls.append(dict(exponents))
        return inner(exponents, top)

    monkeypatch.setattr(qengine, "_euler", counted)
    return calls


def test_folded_products_match_naive_products(rng, euler_calls):
    for _ in range(300):
        order = rng.choice((0, 1, rng.randint(2, 12), rng.randint(13, 40)))
        factors, expected = [], oracles.p_one(order)
        for _ in range(rng.randint(1, 5)):
            node, coeffs = _fold_factor(rng, order)
            factors.append(node)
            expected = oracles.p_mul(expected, coeffs)
        node = Mul(tuple(factors))
        assert list(evaluate(node, order).coeffs) == expected, render(node)
        # nested: the Mul is itself a factor, raised to a power
        twice = Mul((node, Pow(node, 1)))
        assert list(evaluate(twice, order).coeffs) == oracles.p_mul(expected, expected)
    assert any(euler_calls)


@pytest.fixture
def binomial_product_calls(monkeypatch):
    calls = []
    inner = qengine._binomial_product

    def counted(exponents, top):
        calls.append(dict(exponents))
        return inner(exponents, top)

    monkeypatch.setattr(qengine, "_binomial_product", counted)
    return calls


def _binomial_vector(rng):
    """A random vector {(s, e): a} of 1 to 4 keys; a may be negative or 0."""
    exponents, size = {}, rng.randint(1, 4)
    while len(exponents) < size:
        exponents[rng.choice((1, -1)), rng.randint(1, 5)] = rng.choice((0, rng.randint(-6, 6)))
    return exponents


def test_binomial_products_match_naive_products(rng, euler_calls, binomial_product_calls):
    vectors = [_binomial_vector(rng) for _ in range(80)] + [
        {(1, 1): 1, (-1, 1): 1, (1, 2): -1},  # (1-q)(1+q)/(1-q^2) = 1
        {(1, 3): 5, (-1, 3): -2, (1, 1): 0},  # both signs at one e, and a zero power
    ]
    for exponents in vectors:
        node = Mul(tuple(Pow(parse(f"1{'-' if s == 1 else '+'}q^{e}"), a)
                         for (s, e), a in exponents.items()))
        degree = sum(e for (s, e), a in exponents.items() if a)
        # the recurrence runs through order 2 * degree, the EULER pass past it;
        # at degree 0 every binomial lies past order 0, so the vector is empty
        for order, route in ((0, None), (1, None), (2 * degree - 1, euler_calls),
                             (2 * degree, binomial_product_calls if degree else None)):
            if order < 0:
                continue
            expected = oracles.p_one(order)
            for (s, e), a in exponents.items():
                expected = oracles.p_mul(expected, _naive_power(oracles.p_binom(s, e, order), a))
            # each parsed q^e is an empty vector too; count only the others
            before = None if route is None else sum(map(bool, route))
            assert list(evaluate(node, order).coeffs) == expected, (exponents, order)
            if route is not None:
                assert sum(map(bool, route)) == before + 1, (exponents, order)
    assert euler_calls and binomial_product_calls


def test_recurrence_kernel_never_floors():
    # q g' = q g has g = exp(q), whose g_2 = 1/2 is no integer
    with pytest.raises(SeriesError, match=r"divide exactly at q\^2$"):
        qengine._log_derivative_recurrence([1, 0], [0, 1], 1, 3)


def test_recurrence_kernel_without_taps_divides_nothing(monkeypatch):
    # an empty vector, such as a power of q^3, has D = 1 and P = 0: g is g_0
    calls = []
    monkeypatch.setattr(qengine, "divmod", lambda a, b: calls.append(a) or divmod(a, b), raising=False)
    assert qengine._log_derivative_recurrence([1, 0, 0], [0, 0, 0], 7, 1200) == [7] + [0] * 1200
    assert calls == []
    # with a tap, every coefficient is one checked division: 1 - q
    assert qengine._log_derivative_recurrence([1, -1], [0, -1], 1, 5) == [1, -1, 0, 0, 0, 0]
    assert len(calls) == 5


@pytest.mark.parametrize(
    "target, digest",
    [
        ("(1-q)^1213*(1-q^2)^819/(1-q^3)^49", "a41b40e85bd1628e"),
        ("(1-q^3)^1500*(1-q)^496/(1+q^2)^101", "35cf357bb4194c70"),
    ],
)
def test_deep_binomial_products_match_pinned_output(capsys, target, digest):
    # sha256 of the whole csv at order 1200, as the EULER pass printed it
    code = main(["coeffs", "--target", "rational:" + target, "--order", "1200", "--csv"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_fold_keeps_the_signed_terms():
    # (-q;q)_inf (q;q^2)_inf = 1: the divisor sums cancel, the vector is not empty
    node = Mul((Poch(Parameter(-1, 1), 1), Poch(Parameter(1, 1), 2)))
    product = recipes._fold(node, 30)
    assert (product.const, product.shift) == (1, 0)
    assert {(-1, 1), (1, 1), (-1, 2)} <= set(product.exponents)
    assert evaluate(node, 30) == evaluate(Monomial(0, 1), 30)


def test_fold_constant_terms_at_q0():
    q = Parameter.monomial(1)
    # (-1; q)_3 = 2 (1+q)(1+q^2), and (1; q)_2 vanishes
    doubled = Mul((Poch(Parameter(-1, 0), 1, 3), Pow(Poch(q, 1), -1)))
    expected = oracles.p_mul(oracles.p_poch_fin(-1, 0, 1, 3, 20), oracles.p_inv(oracles.p_poch_inf(1, 1, 1, 20)))
    assert list(evaluate(doubled, 20).coeffs) == expected and expected[0] == 2
    assert evaluate(Mul((Poch(Parameter(1, 0), 1, 2), Pow(Poch(q, 1), -1))), 20).is_zero()


@pytest.mark.parametrize(
    "node, c0",
    [
        (Poch(Parameter(1, 0), 1, 2), 0),
        (Poch(Parameter(-1, 0), 2), 2),
        (Mul((Monomial(1), Poch(Parameter.monomial(1), 1))), 0),
        (Monomial(0, 2), 2),
        (Monomial(0, 0), 0),
        (parse("2+q+q^2"), 2),
    ],
    ids=["finite-zero", "minus-q0", "shifted", "doubled-monomial", "zero", "dense"],
)
@pytest.mark.parametrize("order", [0, 1, 9])
def test_fold_inverts_a_non_unit_with_the_same_error(node, c0, order):
    # the error that inverting the evaluated series raises, alone and inside a Mul
    message = (f"^cannot invert a series with constant coefficient {c0}; "
               "only unit constants are invertible over the integers$")
    for inverse in (Pow(node, -1), Mul((Poch(Parameter.monomial(1), 1), Pow(node, -1)))):
        with pytest.raises(SeriesError, match=message):
            evaluate(inverse, order)


@pytest.mark.parametrize("text", ["1+q+q^2", "1-q+2*q^3"])
@pytest.mark.parametrize("order", [0, 1, 40])
def test_fold_inverts_as_the_power_minus_one(text, order):
    # a unit base that folds only at low orders, where it has at most two terms
    base = parse(text)
    expected = oracles.p_inv(list(evaluate(base, order).coeffs))
    assert list(evaluate(Pow(base, -1), order).coeffs) == expected
    assert list(evaluate(parse(f"1/({text})"), order).coeffs) == expected


@pytest.mark.parametrize("c", [0, 1, -1, 2, 7, 10**40])
def test_monomial_at_exponent_zero_is_the_one_constant_node(c):
    assert render(Monomial(0, c)) == str(c)
    for order in (0, 1, 40):
        assert evaluate(Monomial(0, c), order) == series.Series.one(order).scale(c)
    if c >= 0:
        assert parse(str(c)) == Monomial(0, c)


def test_one_catalog_side_round_trips_through_parse():
    same = []
    for case in registry.CATALOG:
        for side in (case.lhs, case.rhs):
            try:
                again = parse(render(side))
            except ParseError:
                continue
            if again == side:
                same.append((case.id, render(side)))
    assert same == [("euler-reciprocal", "1")]


def test_pow_minus_one_is_the_one_inverse_node():
    x = Monomial(1)
    assert render(Pow(x, -1)) == "1/(q)"
    assert render(Pow(x, -2)) == "(q)^-2"
    one_minus_q = Add((Monomial(0, 1), recipes.Scale(-1, x)))
    assert parse("1/(1-q)") == Mul((Monomial(0, 1), Pow(one_minus_q, -1)))
    assert parse("(1-q)^-1") == Pow(one_minus_q, -1)
    assert render(parse("1/(1-q)")) == "(1) * (1/(1 + -1*(q)))"


def test_inverse_makes_no_product(monkeypatch):
    # neither the Mul nor binary powering at k = 1 multiplies the inverse by 1
    products = []
    inner = series.Series.__mul__
    monkeypatch.setattr(series.Series, "__mul__", lambda a, b: products.append(b) or inner(a, b))
    got = evaluate(parse("1/(1+q+q^2)"), 40).coeffs
    assert list(got) == oracles.p_inv([1, 1, 1] + [0] * 38)
    assert products == []


def test_fold_keeps_the_infinite_q0_error():
    with pytest.raises(QEngineError, match="vanishes"):
        evaluate(Mul((Monomial(1), Poch(Parameter(1, 0), 1))), 5)


def test_cubic_progression_checks_the_callers_coefficients():
    # each bad field is refused when the record is built, so evaluation
    # builds its series unchecked: slope 1/2 would give the integral floats
    # (n+1) n/2, and offset -1 would write the last coefficient
    offset = "cubic progression offset must be a nonnegative integer"
    pair = "cubic progression {} must be a (slope, intercept) pair of integers"
    for fields, text in (
        ((0.5, (1, 0), (1, 0), (1, 1)), offset),
        ((-1, (1, 0), (1, 0), (1, 1)), offset),
        ((0, (0.5, 0), (1, 0), (1, 1)), pair.format("a")),
        ((0, (1, 0), (1, 0.5), (1, 1)), pair.format("b")),
        ((0, (1, 0), (1, 0), (1, "1")), pair.format("c")),
        ((0, (1, 0), (1, 0), (1,)), pair.format("c")),
        ((0, (1, 0), (1, 0), [1, 1]), pair.format("c")),
    ):
        with pytest.raises(SeriesError) as refused:
            recipes.CubicProgression(*fields)
        assert str(refused.value) == text, fields
    good = evaluate(recipes.CubicProgression(0, (1, 0), (True, 0), (1, 1)), 10).coeffs
    assert good == (0, 0, 1, 2, 2, 4, 6, 6, 9, 12, 12)
    assert {type(c) for c in good} == {int}
