"""Dense exponent vectors read as eta quotients, against the EULER transform.

``qengine._Product.series`` expands a dense exponent vector by
``qengine._eta_quotient``.  From top ``_ETA_MIN_TOP`` on, a vector whose
power of (1 - q^e) depends only on gcd(e, 12), but for a few correction
binomials, is prod_(d | 12) (q^d;q^d)_inf^(r_d) times those binomials, and
each (q^d;q^d)_inf is Euler's pentagonal series.  Any other vector, and any
shorter one, falls back to ``_euler``.  Both give the same integers, so a
route that falls back where it need not still passes every digest: only a
count of the fallbacks shows it.  Each check here compares the route with
``_euler`` or with the binomial kernels, and counts the fallbacks.

Tier-1 checks the catalog's dense vectors at 200.  Run as a script,
``PYTHONPATH=src python tests/test_eta_quotients.py 800 2000`` runs
``verify_all`` at each order it is given, compares every dense vector that
reaches the route with ``_euler`` and exits 1 on any difference or any
fallback.
"""

import sys
import time

import pytest

from qplab import qengine, recipes, registry
from qplab.qengine import Parameter, Poch, _Product, poch_infinite
from qplab.recipes import Pow, evaluate
from qplab.series import Series

DIVISORS = (1, 2, 3, 4, 6, 12)


def route_calls(run) -> list[tuple[dict, int, bool, list[int]]]:
    """Call run() and return each (exponents, top, fell back, output) of the route from _ETA_MIN_TOP on."""
    calls, fallbacks = [], []
    route, euler = qengine._eta_quotient, qengine._euler

    def counted_route(exponents, top):
        before = len(fallbacks)
        g = route(exponents, top)
        if top >= qengine._ETA_MIN_TOP:
            calls.append((dict(exponents), top, len(fallbacks) > before, list(g)))
        return g

    def counted_euler(exponents, top):
        fallbacks.append(top)
        return euler(exponents, top)

    qengine._eta_quotient, qengine._euler = counted_route, counted_euler
    try:
        run()
    finally:
        qengine._eta_quotient, qengine._euler = route, euler
    return calls


def the_route(exponents: dict, top: int) -> tuple[list[int], bool]:
    """The route's output for one vector, and whether it fell back to ``_euler``."""
    [(_, _, fell_back, g)] = route_calls(lambda: qengine._eta_quotient(exponents, top))
    return g, fell_back


def eta_power(d: int, r: int, top: int) -> dict:
    """The vector of (q^d;q^d)_inf^r through q^top."""
    return (Poch(Parameter.monomial(d), d).product(top) ** r).exponents


@pytest.mark.parametrize("d", DIVISORS)
def test_pentagonal_series_equal_the_kernels_through_2000(d):
    pentagonal, fell_back = the_route(eta_power(d, 1, 2000), 2000)
    assert not fell_back
    assert pentagonal == list(poch_infinite(Parameter.monomial(d), d, 2000).coeffs)
    # one division by the same taps gives its inverse
    inverse, fell_back = the_route(eta_power(d, -1, 2000), 2000)
    assert not fell_back
    assert Series(inverse) * Series(pentagonal) == Series.one(2000)


def random_eta_quotient(rng) -> tuple[dict, int, int]:
    """A random prod_(d | 12) (q^d;q^d)_inf^(r_d), |r_d| <= 5, times up to 4 binomials.

    Returns the vector, its top and a bound on the route's passes: |r_d|
    each, one per binomial (1 - q^e) and two per (1 + q^e).  Some factors
    are written (q^2d;q^2d)_inf / (-q^d;q^d)_inf, so that the route reads
    the signed binomials too.  Every binomial lies below the last 12
    exponents, which the route reads r_d from.
    """
    top = rng.randint(150, 600)
    product, passes = _Product(), 0
    for d in rng.sample(DIVISORS, rng.randint(1, 3)):
        r = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        passes += abs(r)
        if 12 % (2 * d) == 0 and rng.random() < 0.5:
            product *= _Product(1, 0, eta_power(2 * d, r, top))
            product *= Poch(Parameter.monomial(d, -1), d).product(top) ** -r
        else:
            product *= _Product(1, 0, eta_power(d, r, top))
    for _ in range(rng.randint(0, 4)):
        s = rng.choice((1, -1))
        product *= _Product(1, 0, {(s, rng.randint(1, (top - 12) // 2)): rng.choice((1, -1))})
        passes += 1 if s == 1 else 2
    return product.exponents, top, passes


def test_random_eta_quotients_equal_the_euler_transform(rng):
    taken = 0
    for _ in range(24):
        exponents, top, passes = random_eta_quotient(rng)
        g, fell_back = the_route(exponents, top)
        assert g == qengine._euler(exponents, top), (exponents, top)
        # the route falls back only past sqrt(top) passes
        if passes**2 <= top:
            assert not fell_back, (exponents, top)
            taken += 1
    assert taken >= 16


@pytest.mark.parametrize(
    "exponents",
    [
        Poch(Parameter.monomial(1), 4).product(300).exponents,  # (q;q^4)_inf
        Poch(Parameter.monomial(2, -1), 3).product(300).exponents,  # (-q^2;q^3)_inf
        # (q;q)_inf times 20 binomials: too many corrections
        (Poch(Parameter.monomial(1), 1).product(300) * Poch(Parameter.monomial(1), 1, 20).product(300)).exponents,
    ],
    ids=["(q;q^4)", "(-q^2;q^3)", "(q;q)(q;q)_20"],
)
def test_vectors_that_are_no_eta_quotient_fall_back(exponents):
    g, fell_back = the_route(exponents, 300)
    assert fell_back
    assert g == qengine._euler(exponents, 300)


def test_the_euler_transform_equals_the_route_on_a_catalog_vector_at_1000():
    # q-gauss-3.6b: (q^5;q^2)^2 / ((q^6;q^2)(q^4;q^2)) is an eta quotient times
    # binomials at q, q^2, q^3 and q^4
    product = recipes._fold(registry.get_case("q-gauss-3.6b").rhs, 1000)
    g, fell_back = the_route(product.exponents, 1000)
    assert not fell_back
    assert g == qengine._euler(product.exponents, 1000)


@pytest.mark.parametrize(
    "exponents, top",
    [
        ({(1, 700): 5, (-1, 699): 3}, 1200),  # two corrections
        ({(1, 1000): -5}, 1200),  # one correction
    ],
    ids=["(1-q^700)^5(1+q^699)^3", "(1-q^1000)^-5"],
)
def test_a_few_high_binomials_take_the_route(exponents, top):
    g, fell_back = the_route(exponents, top)
    assert not fell_back
    assert g == qengine._euler(exponents, top)


def test_a_lone_inverse_is_one_division():
    node = Pow(Poch(Parameter.monomial(1), 1), -1)
    [(exponents, top, fell_back, g)] = route_calls(lambda: evaluate(node, 800))
    assert (top, fell_back) == (800, False)
    assert g == qengine._euler(exponents, 800)


def test_the_default_orders_keep_the_euler_transform():
    # every dense vector of the everyday verify has top 60 or less
    assert route_calls(registry.verify_all) == []


def test_every_dense_vector_of_the_catalog_takes_the_route_at_200():
    # a fault in reading r_d moves no output: the vector falls back instead
    calls = route_calls(lambda: registry.verify_all(200))
    assert len(calls) >= 20
    assert [top for _, top, fell_back, _ in calls if fell_back] == []


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        order = int(arg)
        start = time.perf_counter()
        calls = route_calls(lambda: registry.verify_all(order))
        fell = [top for _, top, fell_back, _ in calls if fell_back]
        wrong = [top for exponents, top, _, g in calls if g != qengine._euler(exponents, top)]
        took = time.perf_counter() - start
        print(f"order {order}: {len(calls) - len(wrong)} of {len(calls)} dense vectors equal "
              f"the EULER transform, {len(fell)} fell back ({took:.2f} s)")
        failed = failed or bool(wrong) or bool(fell) or not calls
    sys.exit(1 if failed else 0)
