"""The mock theta routes: each against the oracles, the route table and each other.

Tier-1 compares each ratio route with a Watson sum, and nu's three sums at -q
with one another, at 1200.  Run as a script,
``PYTHONPATH=src python tests/test_mocktheta.py 3000`` makes those comparisons
at each order it is given and exits 1 on any difference.
"""

import hashlib
import itertools
import math
import sys
import time
from collections import Counter

import pytest

from qplab import mocktheta
from qplab.recipes import NegVar, evaluate
from qplab.series import Series, SeriesError
from qplab.qengine import QEngineError
from qplab.mocktheta import (
    MockThetaForm,
    mock_theta,
    nu,
    nu_ady,
    nu_fine,
    omega,
    omega_ady,
    omega_fine,
    psi,
    psi_fine,
    theta_squares,
)

import oracles


def test_omega_low_coefficients():
    assert omega(5) == Series(oracles.omega_series(5))
    assert omega(5).coeffs == (1, 2, 3, 4, 6, 8)


def test_psi_has_no_constant_term():
    for form in (psi, psi_fine):
        assert form(9).coeff(0) == 0


def test_psi_matches_direct_sum():
    assert psi(30) == Series(oracles.psi_series(30))


def test_psi_summation_start_adjudication():
    # the alternative sum has no constant term, so the defining sum must
    # start at n = 1; starting at n = 0 would add exactly 1
    n = 50
    assert psi(n) == psi_fine(n)
    shifted_by_constant = psi(n) + Series.one(n)
    assert shifted_by_constant != psi_fine(n)


def test_nu_at_negated_argument():
    assert nu(3, sign=-1).coeffs == (1, 1, 2, 2)
    assert nu(24, sign=-1) == Series(oracles.nu_series(24, sign=-1))


def test_nu_matches_direct_sum():
    assert nu(24) == Series(oracles.nu_series(24))


def test_form_agreement():
    n = 80
    assert omega(n) == omega_fine(n)
    assert psi(n) == psi_fine(n)
    assert nu(n) == nu_fine(n)
    assert nu(n, -1) == nu_fine(n, -1)


def test_ady_forms():
    n = 60
    assert omega_ady(n) == omega(n).shifted(1)
    assert nu_ady(n) == nu(n, -1)


def test_negation_consistency():
    n = 40
    assert nu(n).negate_variable() == nu(n, -1)


def test_theta_squares_values():
    assert theta_squares(10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)
    assert theta_squares(4, alternating=True).coeffs == (1, -2, 0, 0, 2)
    assert theta_squares(0).coeffs == (1,)
    assert theta_squares(0, alternating=True).coeffs == (1,)


def test_theta_support_is_squares():
    for alternating in (False, True):
        s = theta_squares(150, alternating)
        for m in range(151):
            r = int(m ** 0.5)
            if r * r != m and (r + 1) * (r + 1) != m:
                assert s.coeff(m) == 0


def test_mock_theta_dispatcher():
    n = 30
    assert mock_theta(MockThetaForm("omega"), n) == omega(n)
    assert mock_theta(MockThetaForm("omega", "fine"), n) == omega_fine(n)
    assert mock_theta(MockThetaForm("omega", "ady"), n) == omega_ady(n)
    assert evaluate(NegVar(MockThetaForm("psi")), n) == psi(n).negate_variable()
    assert mock_theta(MockThetaForm("nu", argument_sign=-1), n) == nu(n, -1)
    assert mock_theta(MockThetaForm("nu", "ady", -1), n) == nu_ady(n)


def test_mock_theta_form_validation():
    with pytest.raises(QEngineError):
        MockThetaForm("zeta")
    with pytest.raises(QEngineError):
        MockThetaForm("omega", "other")
    with pytest.raises(QEngineError):
        MockThetaForm("psi", "ady")
    with pytest.raises(QEngineError):
        MockThetaForm("omega", "ady", -1)
    with pytest.raises(QEngineError):
        MockThetaForm("nu", "ady", 1)
    for route in (nu, nu_fine):
        for sign in (0, 2):
            with pytest.raises(QEngineError) as raised:
                route(5, sign)
            assert str(raised.value) == "sign must be -1 or +1"
        # the order is checked before the sign
        with pytest.raises(SeriesError) as raised:
            route(-1, 0)
        assert str(raised.value) == "cannot evaluate through q^-1: the order must be nonnegative"


def test_both_nu_routes_refuse_a_bad_sign_with_one_text():
    # the text names the argument the caller passed, not a Pochhammer parameter
    messages = set()
    for route in (nu, nu_fine):
        with pytest.raises(QEngineError) as raised:
            route(5, 0)
        messages.add(str(raised.value))
    assert len(messages) == 1


# ----------------------------------------------------------------------
# the route table: every key evaluates the evaluator it names

EVALUATORS = {
    ("omega", "defining"): omega,
    ("omega", "fine"): omega_fine,
    ("omega", "ady"): omega_ady,
    ("psi", "defining"): psi,
    ("psi", "fine"): psi_fine,
    ("nu", "defining"): nu,
    ("nu", "fine"): nu_fine,
    ("nu", "ady"): nu_ady,
}
ALL_KEYS = list(itertools.product(("omega", "psi", "nu"), ("defining", "fine", "ady"), (1, -1)))
#: q -> -q of these is NegVar of the +q route, so no route takes the sign
NEGATED = {
    ("omega", "defining", -1): lambda order: omega(order).negate_variable(),
    ("omega", "fine", -1): lambda order: omega_fine(order).negate_variable(),
    ("psi", "defining", -1): lambda order: psi(order).negate_variable(),
    ("psi", "fine", -1): lambda order: psi_fine(order).negate_variable(),
    ("nu", "fine", -1): lambda order: nu_fine(order, -1),
}
NO_ROUTE = [("omega", "ady", -1), ("psi", "ady", 1), ("psi", "ady", -1), ("nu", "ady", 1), *NEGATED]


def _named(function, form, sign, order):
    """The series the route names: nu's defining and fine evaluators take the
    sign, and every other route has one sign only."""
    evaluator = EVALUATORS[function, form]
    return evaluator(order, sign) if function == "nu" and form != "ady" else evaluator(order)


def test_the_route_table_lists_nine_routes():
    assert sorted(mocktheta._ROUTES) == sorted(set(ALL_KEYS) - set(NO_ROUTE))


@pytest.mark.parametrize(
    "key", sorted([*mocktheta._ROUTES, *NEGATED]), ids=lambda key: "-".join(map(str, key))
)
@pytest.mark.parametrize("order", [0, 1, 40])
def test_each_route_evaluates_the_evaluator_it_names(key, order):
    if key in NEGATED:
        function, form, _ = key
        assert evaluate(NegVar(MockThetaForm(function, form)), order) == NEGATED[key](order)
    else:
        assert mock_theta(MockThetaForm(*key), order) == _named(*key, order)


@pytest.mark.parametrize("key", NO_ROUTE, ids=lambda key: "-".join(map(str, key)))
def test_a_triple_without_a_route_raises(key):
    with pytest.raises(QEngineError, match="^no mock theta route"):
        MockThetaForm(*key)


# ----------------------------------------------------------------------
# every summation loop, at the smallest orders and one deep one

LOOPS = {
    "omega": omega,
    "omega_fine": omega_fine,
    "omega_ady": omega_ady,
    "psi": psi,
    "psi_fine": psi_fine,
    "nu": lambda n: nu(n, 1),
    "nu-neg": lambda n: nu(n, -1),
    "nu_ady": nu_ady,
}


def _oracle(name, n):
    if name.startswith("omega"):
        if name == "omega_ady":  # q*omega(q)
            return [0] + oracles.omega_series(n - 1) if n else [0]
        return oracles.omega_series(n)
    if name.startswith("psi"):
        return oracles.psi_series(n)
    return oracles.nu_series(n, 1 if name == "nu" else -1)


#: orders up to 60 at which a defining sum's last term lands on the order
#: (and nu's neighbours), where an off-by-one in a loop's top index shows
EDGES = {
    "omega": {2 * n * n + 2 * n for n in range(1, 6)},
    "psi": {n * n for n in range(1, 8)},
    "nu": {n * n + n + d for n in range(1, 8) for d in (-1, 0, 1)},
}


@pytest.mark.parametrize(
    ("name", "n"),
    [
        (name, n)
        for name in LOOPS
        for family in EDGES
        if name.startswith(family)
        for n in sorted({0, 1, 2, 3, 57} | EDGES[family])
    ],
)
def test_loop_matches_oracle(name, n):
    assert LOOPS[name](n).coeffs == tuple(_oracle(name, n))


def _kernel_calls(monkeypatch) -> Counter:
    """The calls to each kernel through mocktheta's module globals, counted from now on."""
    calls = Counter()
    for name in ("imul_one_minus", "idiv_one_minus"):

        def counting(*args, kernel=getattr(mocktheta, name), name=name):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(mocktheta, name, counting)
    return calls


def test_short_sums_call_the_kernel_about_sqrt_order_times(monkeypatch):
    # Watson's sums have about sqrt(order) terms, one or two divisions each;
    # a dense O(order) loop of kernel calls would be O(order^2) in all
    order = 1200
    calls = _kernel_calls(monkeypatch)
    bound = 2 * math.isqrt(order) + 4
    for name in ("omega", "psi", "nu", "nu-neg"):
        calls.clear()
        LOOPS[name](order)
        assert 0 < calls["idiv_one_minus"] <= bound, name


#: each ratio route's kernel calls at order 60: those that build its first
#: term, then one per row of its term ratio for each n
RATIO_CALLS_AT_60 = {
    "omega_fine": {"idiv_one_minus": 62},
    "omega_ady": {"idiv_one_minus": 62, "imul_one_minus": 60},
    "psi_fine": {"imul_one_minus": 60},
    "nu_ady": {"imul_one_minus": 61, "idiv_one_minus": 61},
}


@pytest.mark.parametrize("name", RATIO_CALLS_AT_60)
def test_a_wrapper_on_the_kernel_globals_sees_every_ratio_route_call(monkeypatch, name):
    # the rows of a term ratio must read the kernels from the module's globals
    # at call time; a row table built once at import would hold the originals
    calls = _kernel_calls(monkeypatch)
    LOOPS[name](60)
    assert calls == RATIO_CALLS_AT_60[name]


#: the series the deep check compares, by name
DEEP_SERIES = {
    "omega": omega,
    "omega_fine": omega_fine,
    "q*omega": lambda n: omega(n).shifted(1),
    "omega_ady": omega_ady,
    "psi": psi,
    "psi_fine": psi_fine,
    "nu(-q)": lambda n: nu(n, -1),
    "nu(q) at -q": lambda n: nu(n).negate_variable(),
    "nu_ady": nu_ady,
    # no catalog case evaluates the Fine sum at -q, so it is checked at depth here
    "nu_fine(-q)": lambda n: nu_fine(n, -1),
}
#: each ratio route against a Watson sum, and nu's three sums at -q against the ady sum
DEEP_PAIRS = [
    ("omega_fine", "omega"),
    ("omega_ady", "q*omega"),
    ("psi_fine", "psi"),
    ("nu(-q)", "nu_ady"),
    ("nu(q) at -q", "nu_ady"),
    ("nu_fine(-q)", "nu_ady"),
]


def deep_differences(order: int) -> list[str]:
    """The pairs of DEEP_PAIRS whose series differ through q^order."""
    series = {name: f(order) for name, f in DEEP_SERIES.items()}
    return [f"{a} != {b}" for a, b in DEEP_PAIRS if series[a] != series[b]]


def test_ratio_routes_match_watson_sums_deep():
    assert deep_differences(1200) == []


#: sha256 (first 16 hex digits) of the comma-joined coefficients at order
#: 300, as the loops gave them when each step built its terms as Series
#: (the oracles take about 30 s per nu there)
PINNED_300 = {
    "omega": "be0dba03db9b0844",
    "omega_fine": "be0dba03db9b0844",
    "omega_ady": "f6d594823aefbaf2",
    "psi": "6b9fae619ccf3c34",
    "psi_fine": "6b9fae619ccf3c34",
    "nu": "fe14dd28753de00f",
    "nu-neg": "592af625b13e761b",
    "nu_ady": "592af625b13e761b",
}


@pytest.mark.parametrize("name", LOOPS)
def test_loop_matches_pinned_output_at_order_300(name):
    text = ",".join(map(str, LOOPS[name](300).coeffs))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_300[name]


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        order = int(arg)
        start = time.perf_counter()
        wrong = deep_differences(order)
        took = time.perf_counter() - start
        print(f"order {order}: {len(DEEP_PAIRS) - len(wrong)} of {len(DEEP_PAIRS)} pairs equal ({took:.2f} s)")
        for line in wrong:
            print(f"  {line}")
        failed = failed or bool(wrong)
    sys.exit(1 if failed else 0)
