import pytest

from qplab import family_gf, mocktheta, qengine, registry, series
from qplab.mocktheta import MockThetaForm
from qplab.qengine import Parameter
from qplab.series import Series, SeriesError, equal_up_to, linear_combine

import oracles


def S(*coeffs):
    return Series(coeffs)


def test_linear_combine_cancellation():
    assert linear_combine([(1, S(1, 1)), (1, S(1, -1))]) == S(2, 0)


def test_linear_combine_additive_inverse():
    s = S(3, -1, 4, 1)
    assert linear_combine([(1, s), (-1, s)]).is_zero()


def test_linear_combine_scalars():
    got = linear_combine([(2, Series.monomial(1, 4)), (3, Series.monomial(2, 4))])
    assert got == S(0, 2, 3, 0, 0)


def test_linear_combine_rejects_empty():
    with pytest.raises(SeriesError):
        linear_combine([])


def test_linear_combine_takes_min_order():
    got = linear_combine([(1, S(1, 1, 1)), (1, S(1, 1, 1, 1, 1))])
    assert got.order == 2


def test_mul_difference_of_squares():
    assert S(1, 1) * S(1, -1) == S(1, 0)
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)


def test_mul_geometric_squared():
    geo = Series([1] * 9)
    sq = geo * geo
    assert sq.coeffs == tuple(n + 1 for n in range(9))


def test_mul_telescopes():
    geo = Series([1] * 8)
    assert Series.from_polynomial([1, -1], 7) * geo == Series.one(7)


def test_mul_takes_min_order():
    assert (S(1, 1, 1) * S(1, 1)).order == 1


def test_invert_geometric():
    got = Series.from_polynomial([1, -1], 4).invert()
    assert got == Series([1, 1, 1, 1, 1])


def test_invert_one():
    assert Series.one(6).invert() == Series.one(6)


def test_invert_square():
    sq = Series.from_polynomial([1, -2, 1], 5)
    assert sq.invert().coeffs == tuple(n + 1 for n in range(6))


def test_invert_is_two_sided():
    s = S(-1, 3, 0, 2, -5, 1)
    assert s * s.invert() == Series.one(5).scale(1)
    assert s.invert() * s == Series.one(5)


def test_invert_rejects_non_unit():
    with pytest.raises(SeriesError):
        S(2, 1).invert()
    with pytest.raises(SeriesError):
        S(0, 1).invert()


def test_negate_variable():
    geo = Series([1] * 7)
    assert geo.negate_variable().coeffs == tuple((-1) ** n for n in range(7))
    assert geo.negate_variable().negate_variable() == geo


def test_coeff_at():
    assert S(1, 0, -1).coeff(2) == -1
    with pytest.raises(SeriesError):
        S(1, 0, -1).coeff(3)


def test_equal_up_to_reflexive():
    s = S(1, 4, -2, 0, 9)
    cmp = equal_up_to(s, s, s.order)
    assert cmp.equal and cmp.index is None


def test_equal_up_to_rejects_beyond_order():
    with pytest.raises(SeriesError):
        equal_up_to(S(1, 1), S(1, 1, 1), 2)


def test_equal_up_to_rejects_negative_order():
    with pytest.raises(SeriesError):
        equal_up_to(S(1, 1), S(2, 1), -1)


# every entry point that takes a truncation order, as a function of that order
_Q = Parameter.monomial(1)
ORDER_EVALUATORS = {
    **{
        name: getattr(mocktheta, name)
        for name in "omega omega_fine omega_ady psi psi_fine nu nu_fine nu_ady".split()
    },
    "mock_theta": lambda order: mocktheta.mock_theta(MockThetaForm("nu", argument_sign=-1), order),
    "theta_squares": mocktheta.theta_squares,
    "phi21": lambda order: qengine.phi21(_Q, _Q, Parameter.zero(), 1, _Q, order),
    "sum_over_smallest": lambda order: qengine.sum_over_smallest(
        family_gf.family_template("A", False), order
    ),
    **{
        f"family_gf_series-{name}": lambda order, name=name: family_gf.family_gf_series(
            name, False, order
        )
        for name in family_gf.FAMILY_NAMES
    },
    "poch_infinite": lambda order: qengine.poch_infinite(_Q, 1, order),
    "poch_finite": lambda order: qengine.poch_finite(_Q, 1, 3, order),
    "rational_series": lambda order: qengine.rational_series([1, 1], [(1, 1, 2)], order),
    "Series.zero": Series.zero,
    "Series.one": Series.one,
    "Series.monomial": lambda order: Series.monomial(1, order),
    "Series.from_polynomial": lambda order: Series.from_polynomial([1, 2], order),
}


@pytest.mark.parametrize("evaluator", ORDER_EVALUATORS.values(), ids=ORDER_EVALUATORS)
def test_evaluators_refuse_a_negative_order_and_take_zero(evaluator):
    with pytest.raises(
        SeriesError, match=r"^cannot evaluate through q\^-1: the order must be nonnegative$"
    ):
        evaluator(-1)
    assert evaluator(0).order == 0


# the entry points that take an order and compare through it
ORDER_COMPARISONS = {
    "equal_up_to": lambda order: equal_up_to(S(1, 2), S(1, 2), order).equal,
    "registry.verify": lambda order: registry.verify("thm-2.2-omega", order).order_checked == order,
    "registry.verify-enumeration-backed": (
        lambda order: registry.verify("thm-1.2-a", order).order_checked == order
    ),
    "registry.verify_all": lambda order: all(
        r.order_checked == order for r in registry.verify_all(order)
    ),
}


@pytest.mark.parametrize("compare", ORDER_COMPARISONS.values(), ids=ORDER_COMPARISONS)
def test_comparisons_refuse_a_negative_order_and_take_zero(compare):
    with pytest.raises(
        SeriesError, match=r"^cannot evaluate through q\^-1: the order must be nonnegative$"
    ):
        compare(-1)
    assert compare(0)


def test_equal_up_to_qomega_vs_psi():
    # oracle: direct summation of both defining series
    n = 10
    q_omega = oracles.p_mul(oracles.p_mono(1, n), oracles.omega_series(n))
    psi = oracles.psi_series(n)
    cmp = equal_up_to(Series(q_omega), Series(psi), n)
    assert not cmp.equal
    assert (cmp.index, cmp.lhs, cmp.rhs) == (2, 2, 1)


def test_ring_axioms_random(rng):
    for _ in range(200):
        order = rng.randint(0, 8)
        def rand():
            return Series([rng.randint(-9, 9) for _ in range(order + 1)])
        a, b, c = rand(), rand(), rand()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        k1, k2 = rng.randint(-4, 4), rng.randint(-4, 4)
        lhs = a * linear_combine([(k1, b), (k2, c)])
        rhs = linear_combine([(k1, a * b), (k2, a * c)])
        assert lhs == rhs


def test_shifted():
    assert S(1, 2, 3).shifted(1) == S(0, 1, 2)
    with pytest.raises(SeriesError):
        S(1).shifted(-1)


# ----------------------------------------------------------------------
# Series.__mul__ against the schoolbook oracle, on both product paths

#: bit lengths at byte edges and of the size binary powering reaches
EDGE_BITS = (7, 8, 15, 16, 63, 64, 1000, 1999)


def _edge_coefficient(rng, k):
    # weighted towards the largest magnitudes, which fill the slots
    return rng.choice((0, 1, -1, -(2**k), 2**k - 1, 2**k - 1, -(2**k - 1), -(2**k - 1)))


def _draw_operand(rng, order):
    """Coefficients through q^order in one of the shapes the products meet."""
    k = rng.choice(EDGE_BITS + (rng.randint(1000, 2000),))
    shape = rng.choice(("dense", "dense", "step-2", "step-3", "polynomial", "zero", "no-constant"))
    if shape == "zero":
        return [0] * (order + 1)
    if shape == "polynomial":
        # a short polynomial: trailing zeros fill the rest of the order
        terms = [_edge_coefficient(rng, k) for _ in range(rng.randint(1, 40))]
        return (terms + [0] * (order + 1))[: order + 1]
    step = {"step-2": 2, "step-3": 3}.get(shape, 1)
    out = [_edge_coefficient(rng, k) if i % step == 0 else 0 for i in range(order + 1)]
    if shape == "no-constant":
        out[0] = 0
    return out


def test_mul_matches_oracle_on_both_paths(rng, monkeypatch):
    calls = {"_kronecker": 0, "_schoolbook": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(series, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(series, name, counted)
    for _ in range(250):
        order = rng.choice((rng.randint(0, 40), rng.randint(0, 400)))
        other = order if rng.random() < 0.7 else rng.randint(0, 400)
        a, b = _draw_operand(rng, order), _draw_operand(rng, other)
        assert (Series(a) * Series(b)).coeffs == tuple(oracles.p_mul(a, b))
    assert calls["_kronecker"] >= 25 and calls["_schoolbook"] >= 25


@pytest.mark.parametrize("k", EDGE_BITS)
def test_mul_fills_the_kronecker_slot(rng, k):
    # Every coefficient of a is +-(2^k - 1) and of b +-(2^j - 1), so the
    # product's coefficient at q^(len-1), len * (2^k - 1) * (2^j - 1), has
    # the full k + j + bits(len) bits.  With that sum one short of a multiple
    # of 8 the slot has no spare bit beside the sign; with it a multiple of
    # 8, a slot without the sign bit would overflow.
    for m in range(5, 10):
        length = min(2**m - 1, 401)
        for spare in (0, 1):
            j = k + (-(2 * k + m + spare)) % 8
            sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
            a = [sa * (2**k - 1)] * length
            b = [sb * (2**j - 1)] * length
            product = (Series(a) * Series(b)).coeffs
            assert product == tuple(oracles.p_mul(a, b))
            assert abs(product[-1]).bit_length() == k + j + m


def test_sparse_times_dense_takes_the_schoolbook_loop(monkeypatch):
    # (1-q^100) has two terms, so the 3/5 density rule keeps the product of it
    # and the dense (2-q)^300 in the loop, O(2 * 300) products
    calls = []
    for name in ("_kronecker", "_schoolbook"):
        inner = getattr(series, name)
        monkeypatch.setattr(series, name, lambda a, b, size, _n=name, _f=inner: calls.append(_n) or _f(a, b, size))
    sparse = oracles.p_binom(1, 100, 300)
    dense = oracles.p_one(300)
    for _ in range(300):
        dense = oracles.p_mul(dense, [2, -1] + [0] * 299)
    assert (Series(sparse) * Series(dense)).coeffs == tuple(oracles.p_mul(sparse, dense))
    assert calls == ["_schoolbook"]


# ----------------------------------------------------------------------
# the in-place binomial kernels against the naive oracle

def _binomial_oracle(coeffs, c, e, top, divide):
    """coeffs[:top+1] times (1 - c*q^e) or its inverse; the rest as it was."""
    factor = oracles.p_binom(c, e, top)
    if divide:
        factor = oracles.p_inv(factor)
    return oracles.p_mul(list(coeffs[: top + 1]), factor) + list(coeffs[top + 1 :])


KERNELS = ((series.imul_one_minus, False), (series.idiv_one_minus, True))


@pytest.mark.parametrize("kernel, divide", KERNELS, ids=("mul", "div"))
def test_binomial_kernel_matches_oracle(rng, kernel, divide):
    for _ in range(300):
        length = rng.randint(1, 30)
        coeffs = [rng.randint(-50, 50) for _ in range(length)]
        top = rng.randint(0, length - 1)
        lowest = 1 if divide else 0  # at e = 0 only the multiply has a result
        e = rng.choice((lowest, 1, 2, max(top, 1), top + 1, rng.randint(lowest, 35)))
        c = rng.choice((1, -1))
        got = list(coeffs)
        kernel(got, c, e, top)
        assert got == _binomial_oracle(coeffs, c, e, top, divide), (coeffs, c, e, top)
    if not divide:
        return
    # long runs and powers: with c = 1 and top >= PREFIX_SUM_MIN_RUN * e the
    # division takes one prefix sum per residue class, so e is drawn on both
    # sides of top/16, the boundary tops 16e - 1 and 16e come up often, and
    # (1 - c*q^e)^k for k = 1, 2, 3 is the oracle's division applied k times
    run = series.PREFIX_SUM_MIN_RUN
    paths = {True: 0, False: 0}
    for _ in range(200):
        e = rng.randint(1, 19)
        top = rng.choice((run * e - 1, run * e, rng.randint(1, 300)))
        coeffs = [rng.randint(-50, 50) for _ in range(top + 1 + rng.randint(0, 3))]
        c, k = rng.choice((1, -1)), rng.randint(1, 3)
        want = coeffs
        for _ in range(k):
            want = _binomial_oracle(want, c, e, top, divide)
        got = list(coeffs)
        kernel(got, c, e, top, k)
        assert got == want, (coeffs, c, e, top, k)
        paths[c == 1 and top >= run * e] += 1
    assert min(paths.values()) >= 20, paths


@pytest.mark.parametrize("kernel, divide", KERNELS, ids=("mul", "div"))
def test_binomial_kernel_edges(kernel, divide):
    coeffs = [3, -1, 4, 1, -5, 9, 2, 6]
    for c in (1, -1):
        # e = top: only the entry at top changes, by c * coeffs[0]
        got = list(coeffs)
        kernel(got, c, 5, 5)
        assert got == _binomial_oracle(coeffs, c, 5, 5, divide)
        assert got[:5] == coeffs[:5] and got[6:] == coeffs[6:] and got[5] != coeffs[5]
        # e > top, and a top below zero: the list is left untouched
        for e, top in ((6, 5), (9, 7), (1, 0), (1, -1), (3, -5)):
            got = list(coeffs)
            kernel(got, c, e, top)
            assert got == coeffs, (e, top)


def test_binomial_wrappers_match_kernels(rng):
    for _ in range(100):
        s = Series([rng.randint(-9, 9) for _ in range(rng.randint(1, 20))])
        c, e = rng.choice((1, -1)), rng.randint(1, 22)
        for wrapper, divide in ((series.mul_one_minus, False), (series.div_one_minus, True)):
            assert wrapper(s, c, e).coeffs == tuple(_binomial_oracle(s.coeffs, c, e, s.order, divide))


@pytest.mark.parametrize("function", (series.imul_one_minus, series.idiv_one_minus))
def test_binomial_kernel_rejects_bad_factors(function):
    with pytest.raises(SeriesError, match="exponent"):
        function([1, 2, 3], 1, -1, 2)
    with pytest.raises(SeriesError, match="coefficient"):
        function([1, 2, 3], 2, 1, 2)
    with pytest.raises(SeriesError, match="exponent"):
        series.mul_one_minus(S(1, 2), 1, -1)
    # at e = 0 the factor is the constant 1 - c: zero (c = 1) or 2 (c = -1)
    for c, constant in ((1, 0), (-1, 2)):
        got = [1, 2, 3]
        if function is series.imul_one_minus:
            function(got, c, 0, 1)
            assert got == [constant, 2 * constant, 3]
            continue
        with pytest.raises(SeriesError) as inverted:
            S(constant, 1).invert()
        with pytest.raises(SeriesError, match=f"constant coefficient {constant}") as divided:
            function(got, c, 0, 1)
        assert str(divided.value) == str(inverted.value)
        assert got == [1, 2, 3]
    if function is series.idiv_one_minus:
        for c, e, top in ((1, 1, 2), (1, 1, 40), (-1, 1, 2)):
            with pytest.raises(SeriesError, match="^binomial factor multiplicity must be at least 1$"):
                function(list(range(41)), c, e, top, 0)


def test_public_constructor_still_coerces():
    s = Series([True, 2.0, False])
    assert s.coeffs == (1, 2, 0) and all(type(c) is int for c in s.coeffs)
    assert Series._trusted([1, 2, 0]) == s
    with pytest.raises(SeriesError):
        Series([])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Series([1.5, 2.7]),
        lambda: Series(["3", "4"]),
        lambda: Series([1, None]),
        lambda: Series([float("inf")]),
        lambda: Series.from_polynomial([1.5], 3),
        lambda: qengine.rational_series([1.5], [(1, 1, 1)], 3),
        lambda: qengine.rational_series([1, 0, 0, 1.5], [(1, 1, 1)], 1),
    ],
    ids=["floats", "strings", "none", "inf", "from_polynomial", "rational_series",
         "rational_series_above_the_order"],
)
def test_a_coefficient_that_int_would_change_raises(build):
    with pytest.raises(SeriesError, match="^a series' coefficients must be integers$"):
        build()
