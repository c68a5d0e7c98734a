import pytest

from qplab import family_gf, partitions, qengine, registry
from qplab.family_gf import FAMILY_NAMES, family_gf_series, family_template
from qplab.recipes import Mul, Pow, evaluate
from qplab.series import Series, SeriesError
from qplab.qengine import (
    LENGTH_INF,
    LENGTH_N,
    LENGTH_N_PLUS_1,
    Parameter,
    Poch,
    PochFactor,
    QEngineError,
    TermTemplate,
    phi21,
    poch_finite,
    poch_infinite,
    rational_series,
    sum_over_smallest,
)

import oracles


def q(e, sign=1):
    return Parameter.monomial(e, sign)


# ----------------------------------------------------------------------
# finite products

def test_poch_finite_single_factor():
    assert poch_finite(q(2, -1), 2, 1, 6) == Series.from_polynomial([1, 0, 1], 6)


def test_poch_finite_two_factors():
    # (q;q^2)_2 = (1-q)(1-q^3)
    got = poch_finite(q(1), 2, 2, 4)
    assert got == Series.from_polynomial([1, -1, 0, -1, 1], 4)


def test_poch_finite_empty_product():
    assert poch_finite(q(3, -1), 2, 0, 5) == Series.one(5)
    assert poch_finite(Parameter.zero(), 1, 7, 5) == Series.one(5)


def test_poch_finite_unit_argument():
    # (1;q)_n vanishes for n >= 1, (-1;q^2)_{n+1} carries a constant 2
    assert poch_finite(q(0), 1, 3, 5).is_zero()
    # (-1;q^2)_2 = (1+1)(1+q^2)
    assert poch_finite(q(0, -1), 2, 2, 5) == Series.from_polynomial([2, 0, 2], 5)


def test_poch_infinite_euler_function():
    # oracle: multiply the factors (1-q)...(1-q^5) directly
    expect = oracles.p_one(5)
    for j in range(1, 6):
        expect = oracles.p_mul(expect, oracles.p_binom(1, j, 5))
    assert poch_infinite(q(1), 1, 5) == Series(expect)
    assert poch_infinite(q(1), 1, 5).coeffs == (1, -1, -1, 0, 0, 1)


def test_poch_infinite_euler_identity():
    n = 40
    lhs = poch_infinite(q(1, -1), 1, n) * poch_infinite(q(1), 2, n)
    assert lhs == Series.one(n)


def test_poch_infinite_theta_product():
    got = (
        poch_infinite(q(2), 2, 9)
        * poch_infinite(q(1, -1), 2, 9)
        * poch_infinite(q(1, -1), 2, 9)
    )
    assert got == Series.from_polynomial([1, 2, 0, 0, 2, 0, 0, 0, 0, 2], 9)


def test_poch_infinite_zero_parameter():
    assert poch_infinite(Parameter.zero(), 2, 8) == Series.one(8)


def test_poch_infinite_rejects_unit_plus():
    with pytest.raises(QEngineError):
        poch_infinite(q(0), 1, 5)


def test_basic_splits_random(rng):
    n = 30
    for _ in range(60):
        sign = rng.choice((1, -1))
        e = rng.randint(1, 6)
        step = rng.randint(1, 3)
        m = rng.randint(0, 6)
        a = q(e, sign)
        whole = poch_infinite(a, step, n)
        head = poch_finite(a, step, m, n)
        tail = poch_infinite(q(e + step * m, sign), step, n)
        assert whole == head * tail
        # split into double-step residue classes
        split = poch_infinite(q(e, sign), 2 * step, n) * poch_infinite(
            q(e + step, sign), 2 * step, n
        )
        assert whole == split


# ----------------------------------------------------------------------
# rational expansions

def test_rational_square():
    got = rational_series([0, 1], [(1, 1, 2)], 6)
    assert got.coeffs == (0, 1, 2, 3, 4, 5, 6)


def test_rational_floor_thirds():
    got = rational_series([0, 1], [(1, 1, 1), (1, 3, 1)], 7)
    assert got.coeffs == tuple((n + 2) // 3 if n else 0 for n in range(8))


def test_rational_cubic_form():
    # oracle: numerator times explicitly inverted denominator
    n = 6
    den = oracles.p_mul(
        oracles.p_binom(1, 1, n),
        oracles.p_mul(oracles.p_binom(1, 3, n), oracles.p_binom(1, 3, n)),
    )
    expect = oracles.p_mul([0, 0, 1, 1, 0, 0, 0], oracles.p_inv(den))
    got = rational_series([0, 0, 1, 1], [(1, 1, 1), (1, 3, 2)], n)
    assert got == Series(expect)
    assert got.coeffs == (0, 0, 1, 2, 2, 4, 6)


def test_rational_rejects_constant_factor():
    with pytest.raises(QEngineError):
        rational_series([1], [(1, 0, 1)], 5)


# ----------------------------------------------------------------------
# smallest-part sums

def _inf(sign, slope, offset, den=False):
    return PochFactor(sign, slope, offset, 2, LENGTH_INF, den)


def test_sum_over_smallest_linear_coefficients():
    template = TermTemplate(
        2, 1, (_inf(1, 2, 4), _inf(1, 2, 2), _inf(1, 2, 1, True), _inf(1, 2, 1, True))
    )
    assert sum_over_smallest(template, 8).coeffs == (0, 1, 2, 3, 4, 5, 6, 7, 8)


def test_sum_over_smallest_omega_prefix():
    template = TermTemplate(
        2, 1, (_inf(1, 2, 2), _inf(1, 2, 1, True), _inf(1, 2, 1, True))
    )
    assert sum_over_smallest(template, 5).coeffs == (0, 1, 2, 3, 4, 6)


def test_sum_over_smallest_below_first_term():
    template = TermTemplate(2, 4, (_inf(1, 2, 1, True),))
    assert sum_over_smallest(template, 3).is_zero()


def test_template_rejects_constant_prefix():
    with pytest.raises(QEngineError):
        TermTemplate(0, 1, ())


def test_finite_length_factors():
    # sum_n q^n (q;q^2)_n / (q^2;q^2)_n is a partition-ratio sum; spot value
    template = TermTemplate(
        1,
        0,
        (
            PochFactor(1, 0, 1, 2, LENGTH_N),
            PochFactor(1, 0, 2, 2, LENGTH_N, True),
        ),
    )
    got = sum_over_smallest(template, 12)
    # oracle: direct term-by-term summation
    n = 12
    expect = [0] * (n + 1)
    k = 0
    while k <= n:
        t = oracles.p_mul(
            oracles.p_mono(k, n), oracles.p_poch_fin(1, 1, 2, k, n)
        )
        t = oracles.p_mul(t, oracles.p_inv(oracles.p_poch_fin(1, 2, 2, k, n)))
        expect = oracles.p_add(expect, t)
        k += 1
    assert got == Series(expect)


# ----------------------------------------------------------------------
# 2phi1

def test_phi21_degenerate_is_one():
    got = phi21(q(1), q(1), q(4), 2, q(2), 1)
    assert got == Series.one(1)


def test_phi21_rejects_bad_arguments():
    with pytest.raises(QEngineError):
        phi21(q(1), q(1), q(4), 2, Parameter.zero(), 10)
    with pytest.raises(QEngineError):
        phi21(q(1), q(1), q(0), 2, q(2), 10)


def test_phi21_q_gauss_summation():
    n = 40
    lhs = phi21(q(1), q(1), q(4), 2, q(2), n)
    rhs = (
        poch_infinite(q(3), 2, n)
        * poch_infinite(q(3), 2, n)
        * poch_infinite(q(4), 2, n).invert()
        * poch_infinite(q(2), 2, n).invert()
    )
    assert lhs == rhs


def test_phi21_omega_prefactor_chain():
    # q (q^2;q^2)_inf / (q;q^2)_inf^2 * 2phi1(q,q;0; q^2,q^2) recovers q*omega(q)
    n = 30
    chain = (
        Series.monomial(1, n)
        * poch_infinite(q(2), 2, n)
        * poch_infinite(q(1), 2, n).invert()
        * poch_infinite(q(1), 2, n).invert()
        * phi21(q(1), q(1), Parameter.zero(), 2, q(2), n)
    )
    q_omega = oracles.p_mul(oracles.p_mono(1, n), oracles.omega_series(n))
    assert chain == Series(q_omega)


def test_phi21_zero_upper_parameters():
    # with a = b = c = 0 the sum collapses to sum z^n / (Q;Q)_n
    n = 20
    got = phi21(Parameter.zero(), Parameter.zero(), Parameter.zero(), 2, q(1), n)
    expect = [0] * (n + 1)
    for k in range(n + 1):
        t = oracles.p_mul(
            oracles.p_mono(k, n), oracles.p_inv(oracles.p_poch_fin(1, 2, 2, k, n))
        )
        expect = oracles.p_add(expect, t)
    assert got == Series(expect)


def test_poch_node_length_none_is_infinite():
    cases = ((Parameter.monomial(1, -1), 2), (Parameter.monomial(2), 1), (Parameter.zero(), 3))
    for a, step in cases:
        assert Poch(a, step).series(15) == poch_infinite(a, step, 15)
        assert Poch(a, step, 4).series(15) == poch_finite(a, step, 4, 15)
    expect = oracles.p_poch_fin(-1, 1, 2, 3, 10)
    assert list(Poch(Parameter.monomial(1, -1), 2, 3).series(10).coeffs) == expect


# ----------------------------------------------------------------------
# term-ratio evaluators against term-rebuilding oracles

_PARAMETERS = [Parameter.zero(), q(0), q(0, -1)] + [q(e, s) for e in (1, 2, 3) for s in (1, -1)]


def _plain(p):
    return (p.sign, p.exponent)


def test_phi21_matches_term_rebuilding_oracle(rng):
    for _ in range(200):
        a, b = rng.choice(_PARAMETERS), rng.choice(_PARAMETERS)
        c = rng.choice([p for p in _PARAMETERS if p != q(0)])
        step = rng.randint(1, 3)
        z = q(rng.randint(1, 3), rng.choice((1, -1)))
        n = rng.randint(0, 24)
        expect = oracles.phi21_series(_plain(a), _plain(b), _plain(c), step, _plain(z), n)
        if expect is None:
            with pytest.raises(SeriesError):
                phi21(a, b, c, step, z, n)
        else:
            assert phi21(a, b, c, step, z, n) == Series(expect), (a, b, c, step, z, n)


def _draw_factor(rng):
    step = rng.randint(1, 3)
    slope = rng.choice((0, step, 2 * step))
    length = rng.choice((LENGTH_N, LENGTH_N_PLUS_1, LENGTH_INF, 0, 1, 2))
    sign = rng.choice((1, -1))
    # (q^0; q^k)_inf is refused outright; every other unit argument is drawn
    offset = rng.randint(1 if length == LENGTH_INF and sign == 1 else 0, 4)
    return PochFactor(sign, slope, offset, step, length, rng.random() < 0.4)


def test_sum_over_smallest_matches_term_rebuilding_oracle(rng):
    for _ in range(200):
        factors = tuple(_draw_factor(rng) for _ in range(rng.randint(0, 3)))
        template = TermTemplate(rng.randint(1, 3), rng.randint(0, 2), factors, rng.random() < 0.3)
        n = rng.randint(0, 24)
        plain = [(f.sign, f.exp_slope, f.exp_offset, f.step, f.length, f.denominator)
                 for f in factors]
        expect = oracles.smallest_part_sum(
            template.prefix_slope, template.prefix_offset, plain, template.alternating, n
        )
        if expect is None:
            with pytest.raises(SeriesError):
                sum_over_smallest(template, n)
        else:
            assert sum_over_smallest(template, n) == Series(expect), (template, n)


def _draw_leaving_factor(rng):
    """A factor that only loses binomials as n grows: infinite, with a positive slope."""
    step = rng.randint(1, 3)
    sign = rng.choice((1, -1))
    offset = rng.randint(1 if sign == 1 else 0, 4)  # (q^0; q^k)_inf is refused outright
    return PochFactor(sign, step * rng.randint(1, 2), offset, step, LENGTH_INF, rng.random() < 0.4)


def test_horners_rule_matches_term_rebuilding_oracle(rng, monkeypatch):
    # these templates take Horner's rule, so the carry must never run
    def carry(template, order):
        raise AssertionError(f"{template} was carried")

    monkeypatch.setattr(qengine, "_carry", carry)
    shapes = {"alternating": 0, "denominator": 0, "doubling": 0, "error": 0}
    for _ in range(200):
        factors = tuple(_draw_leaving_factor(rng) for _ in range(rng.randint(1, 4)))
        template = TermTemplate(rng.randint(1, 3), rng.randint(0, 2), factors, rng.random() < 0.3)
        n = rng.randint(0, 30)
        plain = [(f.sign, f.exp_slope, f.exp_offset, f.step, f.length, f.denominator)
                 for f in factors]
        expect = oracles.smallest_part_sum(
            template.prefix_slope, template.prefix_offset, plain, template.alternating, n
        )
        if expect is None:
            # 1/(-1; q^k)_inf has the constant 1/2 at n = 0
            with pytest.raises(SeriesError, match="^cannot invert a series with constant coefficient 2; "):
                sum_over_smallest(template, n)
            shapes["error"] += 1
            continue
        assert sum_over_smallest(template, n) == Series(expect), (template, n)
        if template.prefix(1) <= n:  # a sum of two terms at least
            shapes["alternating"] += template.alternating
            shapes["denominator"] += any(f.denominator for f in factors)
            # (-1; q^k)_inf = 2 (-q^k; q^k)_inf in a numerator
            shapes["doubling"] += any(f.exp_offset == 0 for f in factors)
    assert min(shapes.values()) >= 5, shapes


_SLOPE = "argument exponent slope must be a multiple of the factor step"
_VANISHES = "(q^0; q^k)_inf vanishes; refusing to build it"


def test_poch_factor_moves():
    # (q^(2n+1); q^2)_inf: q^(2n+1) leaves, nothing joins
    assert PochFactor(1, 2, 1, 2, LENGTH_INF).moves(3, 100) == (range(7, 9, 2), range(0))
    # (q^(n+2); q)_(n+1) at n=3 is q^5..q^8, at n=4 it is q^6..q^10
    assert PochFactor(1, 1, 2, 1, LENGTH_N_PLUS_1).moves(3, 100) == (range(5, 6), range(9, 11))
    # ... and through q^9 only q^9 joins
    assert PochFactor(1, 1, 2, 1, LENGTH_N_PLUS_1).moves(3, 9) == (range(5, 6), range(9, 10))
    # a fixed-slope finite product only grows
    assert PochFactor(-1, 0, 2, 2, LENGTH_N).moves(2, 100) == (range(2, 2, 2), range(6, 8, 2))
    # slope 1, step 2 would put the binomials at n and n + 1 in different
    # residue classes, so that every one of them moves: it is refused
    with pytest.raises(QEngineError, match=f"^{_SLOPE}$"):
        PochFactor(1, 1, 1, 2, LENGTH_INF)


def test_poch_factor_moves_are_the_set_differences(rng):
    cut = set()
    for _ in range(400):
        f = _draw_factor(rng)
        n, top = rng.randint(0, 6), rng.randint(0, 30)
        now, after = f.exponents(n, top), f.exponents(n + 1, top)
        leaving, joining = f.moves(n, top)
        assert list(leaving) == sorted(set(now) - set(after)), (f, n, top)
        assert list(joining) == sorted(set(after) - set(now)), (f, n, top)
        if len(after) < len(f.exponents(n + 1, 10**6)):
            cut.add(f.length)
    assert cut == {LENGTH_N, LENGTH_N_PLUS_1, LENGTH_INF, 1, 2}  # a length-0 product has no tail


def test_template_and_poch_refusals():
    # each shape rule is checked once, when the record is built
    refusals = [
        (lambda: PochFactor(0, 0, 1, 1, LENGTH_N), "factor sign must be -1 or +1"),
        (lambda: PochFactor(1, -2, 1, 1, LENGTH_N), "argument exponent slope must be nonnegative"),
        (lambda: PochFactor(1, 0, -1, 1, LENGTH_N), "argument exponent must stay nonnegative"),
        (lambda: PochFactor(1, 1, -1, 1, LENGTH_N), "argument exponent must stay nonnegative"),
        (lambda: PochFactor(1, 0, 1, 0, LENGTH_N), "factor step must be at least 1"),
        (lambda: PochFactor(1, 0, 1, 1, -1), "unsupported factor length -1"),
        (lambda: PochFactor(1, 0, 0, 1, LENGTH_INF), _VANISHES),
        (lambda: PochFactor(1, 0, 0, 1, LENGTH_INF, True), _VANISHES),
        (lambda: PochFactor(1, 2, 0, 2, LENGTH_INF), _VANISHES),
        (lambda: PochFactor(1, 3, 1, 2, LENGTH_N), _SLOPE),
        (lambda: PochFactor(-1, 1, 0, 3, 2, True), _SLOPE),
        (lambda: Poch(q(1), 0), "Pochhammer step must be at least 1"),
        (lambda: Poch(Parameter.zero(), 0), "Pochhammer step must be at least 1"),
        (lambda: Poch(q(1), 1, -1), "Pochhammer length must be nonnegative"),
        (lambda: Poch(q(0), 2), _VANISHES),
    ]
    for build, message in refusals:
        with pytest.raises(QEngineError) as raised:
            build()
        assert str(raised.value) == message


def test_phi21_minus_one_c_raises_once_n_equals_one_is_in_range():
    # (-1; q^2)_1 = 2 in the denominator of the n = 1 term, which starts at q^3
    assert phi21(q(1), q(2), q(0, -1), 2, q(3), 2) == Series.one(2)
    with pytest.raises(SeriesError, match="constant coefficient 2"):
        phi21(q(1), q(2), q(0, -1), 2, q(3), 3)


def test_template_minus_one_denominator_raises():
    # 1/(-1; q^2)_n is 1 at n = 0 and has the constant 2 from n = 1
    template = TermTemplate(1, 0, (PochFactor(-1, 0, 0, 2, LENGTH_N, True),))
    assert sum_over_smallest(template, 0) == Series.one(0)
    with pytest.raises(SeriesError, match="constant coefficient 2"):
        sum_over_smallest(template, 1)
    # an infinite one has the constant 2 already at n = 0
    template = TermTemplate(1, 0, (PochFactor(-1, 2, 0, 2, LENGTH_INF, True),))
    with pytest.raises(SeriesError, match="constant coefficient 2"):
        sum_over_smallest(template, 5)


def test_unit_numerator_zeroes_later_terms():
    # (1; q)_n vanishes from n = 1, so only the n = 0 term is left
    assert phi21(q(0), q(1), Parameter.zero(), 1, q(1), 10) == Series.one(10)
    template = TermTemplate(1, 2, (PochFactor(1, 0, 0, 1, LENGTH_N), PochFactor(1, 0, 1, 1, LENGTH_N, True)))
    assert sum_over_smallest(template, 10) == Series.monomial(2, 10)


def test_unit_numerator_divided_out_is_rebuilt():
    # sum_n q^n (q^n; q)_(n+1): the n = 0 term (1; q)_1 is zero, and the
    # binomial 1 - q^0 leaves the product at n = 1, so that term is rebuilt
    template = TermTemplate(1, 0, (PochFactor(1, 1, 0, 1, LENGTH_N_PLUS_1),))
    expect = oracles.smallest_part_sum(1, 0, [(1, 1, 0, 1, "n+1", False)], False, 15)
    assert expect[0] == 0
    assert sum_over_smallest(template, 15) == Series(expect)


# ----------------------------------------------------------------------
# the exponent vector: a template's starting product and families E and F

@pytest.mark.parametrize("product, c0", [(qengine._Product(2), 2), (qengine._Product(0), 0),
                                         (qengine._Product(1, 3), 0)])
def test_negative_power_of_a_non_unit_product_raises(product, c0):
    with pytest.raises(SeriesError, match=f"^cannot invert a series with constant coefficient {c0}; "):
        product ** -1


def _start_or_error(factors, n, top):
    """The oracle product of the factors at index n, or the message of the parent's error."""
    plain = [(f.sign, f.exp_slope, f.exp_offset, f.step, f.length, f.denominator) for f in factors]
    expect = oracles.smallest_part_product(plain, n, top)
    if expect is not None:
        return expect
    # the first denominator with a binomial at q^0, which is the constant 1 - sign
    c0 = next(1 - f.sign for f in factors if f.denominator and 0 in f.exponents(n, top))
    return (f"cannot invert a series with constant coefficient {c0}; "
            "only unit constants are invertible over the integers")


def _check_start(factors, n, top):
    expect = _start_or_error(factors, n, top)
    if isinstance(expect, str):
        with pytest.raises(SeriesError) as raised:
            qengine._rebuild(factors, n, top)
        assert str(raised.value) == expect, (factors, n, top)
    else:
        assert qengine._rebuild(factors, n, top) == expect, (factors, n, top)
    return expect


def test_template_start_matches_oracle_product(rng):
    outcomes = set()
    for _ in range(150):
        factors = tuple(_draw_factor(rng) for _ in range(rng.randint(0, 4)))
        top = rng.randint(0, 30)
        for n in range(4):
            expect = _check_start(factors, n, top)
            outcomes.add("error" if isinstance(expect, str) else expect[0])
    assert {"error", 0, 1, 2} <= outcomes


@pytest.mark.parametrize(
    "factor, n, c0",
    [
        (PochFactor(1, 1, 0, 1, LENGTH_N_PLUS_1), 0, 0),  # (1; q)_1 = 0
        (PochFactor(-1, 2, 0, 2, 3), 0, 2),  # (-1; q^2)_3 = 2 (1+q^2)(1+q^4)
        (PochFactor(-1, 0, 0, 1, 2, True), 0, "error"),  # 1/(-1; q)_2 has the constant 1/2
        (PochFactor(1, 0, 0, 1, LENGTH_N, True), 1, "error"),  # 1/(1; q)_1 divides by 0
        (PochFactor(1, 0, 0, 1, LENGTH_N, True), 0, 1),  # 1/(1; q)_0 = 1
    ],
    ids=["zero", "doubling", "denominator-two", "denominator-zero", "empty-denominator"],
)
def test_template_start_at_exponent_zero(factor, n, c0):
    factors = (factor, PochFactor(1, 1, 1, 1, LENGTH_INF, True))
    expect = _check_start(factors, n, 12)
    assert ("error" if isinstance(expect, str) else expect[0]) == c0


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_product_families_match_oracle_products(signed):
    n = 400
    s = 1 if signed else -1
    # E = (s q^2;q^2)_inf (-q;q^2)_inf^2, F = 1 / ((q;q^2)_inf^2 (-s q^2;q^2)_inf)
    minus_odd = oracles.p_poch_inf(-1, 1, 2, n)
    e = oracles.p_mul(oracles.p_poch_inf(s, 2, 2, n), oracles.p_mul(minus_odd, minus_odd))
    odd = oracles.p_poch_inf(1, 1, 2, n)
    f = oracles.p_inv(oracles.p_mul(oracles.p_mul(odd, odd), oracles.p_poch_inf(-s, 2, 2, n)))
    assert family_gf_series("E", signed, n) == Series(e)
    assert family_gf_series("F", signed, n) == Series(f)


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_product_families_match_their_recipe_trees(signed):
    s = 1 if signed else -1
    e = Mul((Poch(q(2, s), 2), Poch(q(1, -1), 2), Poch(q(1, -1), 2)))
    f = Pow(Mul((Poch(q(1), 2), Poch(q(1), 2), Poch(q(2, -s), 2))), -1)
    if not signed:  # the right sides the catalog checks the E and F counts against
        assert (e, f) == (registry.get_case("family-E-product").rhs, registry.get_case("family-F-product").rhs)
    for order in (0, 1, 200):
        assert family_gf_series("E", signed, order) == evaluate(e, order)
        assert family_gf_series("F", signed, order) == evaluate(f, order)


@pytest.mark.parametrize("signed", [False, True, None, 0, 1, 2])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_gf_reads_signed_as_a_truth_value(name, signed):
    assert family_gf_series(name, signed, 40) == family_gf_series(name, bool(signed), 40)


def test_family_table_lists_each_family_once_in_order():
    assert FAMILY_NAMES == ("E", "F", "Tomega", "Tpsi", "Tnu", "A", "B", "C")
    assert set(family_gf._ROUTES) == {(name, signed) for name in FAMILY_NAMES for signed in (False, True)}
    with pytest.raises(KeyError) as info:
        family_gf_series("Z", False, 8)
    assert info.value.args == ("unknown family 'Z'; choose from E, F, Tomega, Tpsi, Tnu, A, B, C",)


def test_the_family_table_and_the_family_specs_name_the_same_families():
    assert FAMILY_NAMES == tuple(partitions.FAMILIES)


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_family_template_reads_the_table(signed):
    for name in ("Tomega", "Tpsi", "Tnu", "A", "B", "C"):
        assert family_template(name, signed) is family_gf._ROUTES[(name, signed)]
    for name in ("E", "F", "Z"):
        assert family_template(name, signed) is None


@pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
def test_family_templates_are_built_once(signed):
    anchored = [name for name in FAMILY_NAMES if family_template(name, signed) is not None]
    assert anchored == ["Tomega", "Tpsi", "Tnu", "A", "B", "C"]
    for name in anchored:
        assert family_template(name, signed) is family_template(name, signed)
    assert family_template("Tomega", signed) != family_template("Tomega", not signed)
