import pytest

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


def test_substitute_power():
    assert S(1, 1, 1, 0, 0).substitute_power(2) == S(1, 0, 1, 0, 1)
    assert S(5, 4, 3).substitute_power(1) == S(5, 4, 3)
    with pytest.raises(SeriesError):
        S(1).substitute_power(0)


def test_substitute_power_clears_non_multiples():
    s = Series([1] * 10).substitute_power(3)
    for m in range(10):
        assert s.coeff(m) == (1 if m % 3 == 0 else 0)


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
