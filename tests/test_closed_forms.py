"""Theorems checked through ``evaluate`` with no second route.

Every catalog case compares two routes, but the routes share their kernels
(``imul_one_minus``, ``idiv_one_minus``, ``_eta_quotient``), so a fault in one
kernel can move both sides alike.  A closed form or a congruence needs no
second route:

* Euler's pentagonal theorem: (q;q)_inf is +-1 at the generalized pentagonal
  numbers k(3k -+ 1)/2, with sign (-1)^k, and 0 elsewhere.  A lone ``Poch``
  is expanded by ``imul_one_minus``.
* Jacobi's identity: (q;q)_inf^3 = sum_{n >= 0} (-1)^n (2n + 1) q^(n(n+1)/2).
  The cube folds into one exponent vector, which ``_eta_quotient`` reads
  as (q;q)_inf^3 and expands by three multiplies by the pentagonal series,
  at 600 and at 5000.
* Partitions into parts at most 3 number round((n + 3)^2 / 12), so
  1/((1 - q)(1 - q^2)(1 - q^3)) has those coefficients, and the same product
  at -q has them with sign (-1)^n.  A ``RationalGF`` takes one
  ``idiv_one_minus`` call per factor: the prefix-sum path at q, the loop at
  -q.

* Waldherr's congruences: with sum_n p_omega(n) q^n = q*omega(q),
  p_omega(40n + 28) and p_omega(40n + 36) are multiples of 5.  Every omega
  route of ``mocktheta._ROUTES`` is checked on its own: Watson's sum, Fine's
  sum and the ady sum, which is q*omega(q) itself.

References: G. E. Andrews, *The Theory of Partitions*, 1976, ch. 1-2;
M. Waldherr, "On certain explicit congruences for mock theta functions",
Proc. AMS 139 (2011).

Tier-1 checks order 600.  Run as a script,
``PYTHONPATH=src python tests/test_closed_forms.py 5000`` checks the orders
it is given and exits 1 on any difference.
"""

import sys
import time

import pytest

from qplab.mocktheta import _ROUTES, MockThetaForm
from qplab.qengine import Parameter, Poch
from qplab.recipes import Pow, RationalGF, evaluate
from qplab.series import SeriesError

_EULER = Poch(Parameter.monomial(1), 1)


def pentagonal(order):
    c = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for m in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if m <= order:
                c[m] = (-1) ** k
        k += 1
    return c


def jacobi(order):
    c = [0] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        c[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
        n += 1
    return c


def parts_at_most_three(order, sign):
    return [sign**n * (((n + 3) ** 2 + 6) // 12) for n in range(order + 1)]


#: name -> (recipe, closed form of an order)
CLOSED_FORMS = {
    "pentagonal": (_EULER, pentagonal),
    "jacobi": (Pow(_EULER, 3), jacobi),
    "parts <= 3": (
        RationalGF((1,), ((1, 1, 1), (1, 2, 1), (1, 3, 1))),
        lambda order: parts_at_most_three(order, 1),
    ),
    "parts <= 3 at -q": (
        RationalGF((1,), ((-1, 1, 1), (1, 2, 1), (-1, 3, 1))),
        lambda order: parts_at_most_three(order, -1),
    ),
}


#: the omega routes; the ady route's sum is q*omega(q), the others' omega(q)
OMEGA_FORMS = [form for function, form, _ in _ROUTES if function == "omega"]


def first_difference(name, order):
    """The least n where evaluate and the closed form differ, or None."""
    node, closed_form = CLOSED_FORMS[name]
    got, want = evaluate(node, order).coeffs, closed_form(order)
    return next((n for n, (a, b) in enumerate(zip(got, want)) if a != b), None)


def first_waldherr_failure(form, order):
    """The least n = 28 or 36 mod 40 where the route's p_omega(n) is no multiple of 5, or None."""
    c = evaluate(MockThetaForm("omega", form), order).coeffs
    p = c if form == "ady" else (0,) + c[:-1]
    return next((n for n in range(order + 1) if n % 40 in (28, 36) and p[n] % 5), None)


def test_the_closed_forms_start_as_the_theorems_say():
    assert pentagonal(15) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    assert jacobi(10) == [1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9]
    assert parts_at_most_three(6, 1) == [1, 1, 2, 3, 4, 5, 7]
    assert parts_at_most_three(3, -1) == [1, -1, 2, -3]


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_evaluate_equals_the_closed_form_at_600(name):
    assert first_difference(name, 600) is None


def test_the_omega_routes_are_the_three_routes_of_the_table():
    assert sorted(OMEGA_FORMS) == ["ady", "defining", "fine"]


@pytest.mark.parametrize("form", OMEGA_FORMS)
def test_waldherr_congruences_at_600(form):
    assert first_waldherr_failure(form, 600) is None


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        order = int(arg)
        for name in CLOSED_FORMS:
            start = time.perf_counter()
            try:
                n = first_difference(name, order)
                verdict = "equal" if n is None else f"first differ at q^{n}"
            except SeriesError as exc:
                n, verdict = -1, f"raised SeriesError: {exc}"
            took = time.perf_counter() - start
            print(f"{name} through q^{order}: {verdict} ({took:.2f} s)")
            failed = failed or n is not None
        for form in OMEGA_FORMS:
            start = time.perf_counter()
            n = first_waldherr_failure(form, order)
            verdict = "holds" if n is None else f"fails at n = {n}"
            took = time.perf_counter() - start
            print(f"Waldherr on the {form} omega route through q^{order}: {verdict} ({took:.2f} s)")
            failed = failed or n is not None
    sys.exit(1 if failed else 0)
