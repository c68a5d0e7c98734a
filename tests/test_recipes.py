"""The recipe parser: random expressions against a naive expansion, render
round trips, malformed token strings, and the nesting bound."""

import pytest

from qplab.cli import main
from qplab.recipes import MAX_DEPTH, ParseError, evaluate, parse, render

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
    """Each parenthesis level nests Add, Mul, Inv, Scale and Pow nodes."""
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
