"""Third-order mock theta functions omega, psi, nu in several guises.

Each function is available through Watson's (1936) defining q-series, an
alternative single-sum ("fine") representation, and for omega and nu the
smallest-part style sums ("ady") that tie them to restricted partitions:

    omega(q) = sum_{n>=0} q^(2n^2+2n) / (q;q^2)_{n+1}^2
    psi(q)   = sum_{n>=1} q^(n^2) / (q;q^2)_n
    nu(q)    = sum_{n>=0} q^(n(n+1)) / (-q;q^2)_{n+1}

These three are rows of one loop, ``_watson_sum``; the fine sums of omega and
psi and the two ady sums, built by term ratios, are rows of a second one,
``_ratio_sum``.  Each loop states once the top through which its next term is
kept.  They stay apart: each catalog case that reaches a ratio route has a
Watson sum on its other side, so no case compares two rows of one loop.
psi's sum is taken from n = 1 so that its constant term vanishes; the n = 0
convention would add a constant 1 that none of its other representations
carry.  nu's "fine" form is Fine's sum_{n>=0} (-q)^n (q;q^2)_n.

``_ROUTES`` lists every route that exists, keyed by (function, form,
argument_sign): a ``MockThetaForm`` names one of its keys and ``mock_theta``
evaluates it by one lookup.
"""

from __future__ import annotations

from operator import add

from .series import Series, _check_order, _Record, idiv_one_minus, imul_one_minus
from .qengine import Parameter, QEngineError, phi21, poch_infinite


class MockThetaForm(_Record):
    """Selects a mock theta function, a computation route and the argument sign.

    The triple must be one of the nine keys of ``_ROUTES``: each function's
    defining and fine sums at +q, omega's ady sum at +q (q*omega(q)), and
    nu's two sums at -q, Watson's and the ady sum.  Any other function at -q
    is ``recipes.NegVar`` of its +q route.
    """

    function: str
    form: str = "defining"
    argument_sign: int = 1

    def __post_init__(self):
        if (self.function, self.form, self.argument_sign) not in _ROUTES:
            raise QEngineError(
                f"no mock theta route {self.function!r}, form {self.form!r}, "
                f"argument sign {self.argument_sign!r}"
            )


def _watson_sum(order: int, a: int, b: int, d: int, c: int, k: int) -> Series:
    """sum_{n>=0} q^Q(n) / (c*q;q^2)_{n+1}^k with the shift Q(n) = a*n^2 + b*n + d.

    One list carries 1/(c*q;q^2)_{n+1}^k through q^(order - Q(n)), the part that
    lands within the order, and one kernel call divides it by (1 - c*q^(2n+3))^k.
    """
    total = [0] * (order + 1)
    term = [1] + [0] * order
    idiv_one_minus(term, c, 1, order, k)  # 1/(c*q;q^2)_1^k
    n, shift = 0, d
    while shift <= order:
        total[shift:] = map(add, total[shift:], term)
        n += 1
        shift = a * n * n + b * n + d
        idiv_one_minus(term, c, 2 * n + 1, order - shift, k)
    return Series._trusted(total)


def _ratio_sum(order: int, shift: int, term: list[int], ratio: list[tuple]) -> Series:
    """sum_{n>=0} q^(n+shift) T(n), where T(0) is `term`, kept in place as one list.

    Each row (kernel, c, a, b) of `ratio` multiplies or divides T(n) by
    1 - c*q^(a*n+b) to give T(n+1), through q^(order - n - shift - 1), the part
    of it that lands within the order.
    """
    total = [0] * (order + 1)
    for n in range(order - shift + 1):
        total[n + shift :] = map(add, total[n + shift :], term)
        for kernel, c, a, b in ratio:
            kernel(term, c, a * n + b, order - n - shift - 1)
    return Series._trusted(total)


def omega(order: int) -> Series:
    """omega(q) by Watson's sum: the row Q(n) = 2n^2 + 2n, c = 1, k = 2."""
    _check_order(order)
    return _watson_sum(order, 2, 2, 0, 1, 2)


def omega_fine(order: int) -> Series:
    """omega(q) = sum_{n>=0} q^n / (q;q^2)_{n+1}, by term ratios."""
    _check_order(order)
    term = [1] + [0] * order
    idiv_one_minus(term, 1, 1, order)  # 1/(q;q^2)_1
    return _ratio_sum(order, 0, term, [(idiv_one_minus, 1, 2, 3)])


def omega_ady(order: int) -> Series:
    """sum_{n>=1} q^n / ((1-q^n) (q^(n+1);q)_n (q^(2n+2);q^2)_inf) = q*omega(q), from n = 1."""
    _check_order(order)
    if order < 1:
        return Series._trusted([0] * (order + 1))
    term = list(poch_infinite(Parameter.monomial(4), 2, order - 1).invert().coeffs)
    idiv_one_minus(term, 1, 1, order - 1)
    idiv_one_minus(term, 1, 2, order - 1)
    return _ratio_sum(order, 1, term, [(imul_one_minus, 1, 1, 1), (idiv_one_minus, 1, 2, 3)])


def psi(order: int) -> Series:
    """psi(q) by Watson's sum from n = 1, reindexed from 0: Q(n) = (n+1)^2, c = k = 1."""
    _check_order(order)
    return _watson_sum(order, 1, 2, 1, 1, 1)


def psi_fine(order: int) -> Series:
    """psi(q) = sum_{n>=0} (-q^2;q^2)_n q^(n+1), by term ratios."""
    _check_order(order)
    return _ratio_sum(order, 1, [1] + [0] * order, [(imul_one_minus, -1, 2, 2)])


def nu(order: int, sign: int = 1) -> Series:
    """nu(q) (sign=+1) or nu(-q) (sign=-1) by Watson's sum: Q(n) = n^2 + n, c = -sign, k = 1.

    n(n+1) is even, so nu(-q) is the row c = 1, not nu(q) with its signs flipped afterwards.
    """
    _check_order(order)
    _check_sign(sign)
    return _watson_sum(order, 1, 1, 0, -sign, 1)


def _check_sign(sign: int) -> None:
    """The one refusal of a bad argument sign, for nu and nu_fine alike."""
    if sign not in (-1, 1):
        raise QEngineError("sign must be -1 or +1")


def nu_fine(order: int, sign: int = 1) -> Series:
    """Fine's sum_{n>=0} (-q)^n (q;q^2)_n (1988, s. 26) by the 2phi1 evaluator."""
    _check_order(order)
    _check_sign(sign)
    return phi21(
        Parameter.monomial(1, sign),
        Parameter.monomial(2),
        Parameter.zero(),
        2,
        Parameter.monomial(1, -sign),
        order,
    )


def nu_ady(order: int) -> Series:
    """sum_{n>=0} q^n (-q^(n+1);q)_n (-q^(2n+2);q^2)_inf = nu(-q), by term ratios."""
    _check_order(order)
    term = list(poch_infinite(Parameter.monomial(2, -1), 2, order).coeffs)
    return _ratio_sum(order, 0, term, [(imul_one_minus, -1, 2, 1), (idiv_one_minus, -1, 1, 1)])


def theta_squares(order: int, alternating: bool = False) -> Series:
    """1 + 2*sum_{n>=1} (+-1)^n q^(n^2): the square-supported theta series."""
    _check_order(order)
    out = [0] * (order + 1)
    out[0] = 1
    n = 1
    while n * n <= order:
        out[n * n] = -2 if alternating and n % 2 == 1 else 2
        n += 1
    return Series._trusted(out)


# One entry per route, keyed by (function, form, argument_sign).  Entries
# reach the evaluators through module globals at call time, so a wrapper
# installed on one of those globals sees every call.
_ROUTES = {
    ("omega", "defining", 1): lambda order: omega(order),
    ("omega", "fine", 1): lambda order: omega_fine(order),
    ("omega", "ady", 1): lambda order: omega_ady(order),
    ("psi", "defining", 1): lambda order: psi(order),
    ("psi", "fine", 1): lambda order: psi_fine(order),
    ("nu", "defining", 1): lambda order: nu(order, 1),
    ("nu", "defining", -1): lambda order: nu(order, -1),
    ("nu", "fine", 1): lambda order: nu_fine(order, 1),
    ("nu", "ady", -1): lambda order: nu_ady(order),
}


def mock_theta(spec: MockThetaForm, order: int) -> Series:
    """Evaluate the requested function, route and argument sign."""
    return _ROUTES[spec.function, spec.form, spec.argument_sign](order)
