"""Third-order mock theta functions omega, psi, nu in several guises.

Each function is available through Watson's (1936) defining q-series, an
alternative single-sum ("fine") representation, and for omega and nu the
smallest-part style sums ("ady") that tie them to restricted partitions:

    omega(q) = sum_{n>=0} q^(2n^2+2n) / (q;q^2)_{n+1}^2
    psi(q)   = sum_{n>=1} q^(n^2) / (q;q^2)_n
    nu(q)    = sum_{n>=0} q^(n(n+1)) / (-q;q^2)_{n+1}

psi's sum is taken from n = 1 so that its constant term vanishes; the n = 0
convention would add a constant 1 that none of its other representations
carry.  nu's "fine" form is Fine's sum_{n>=0} (-q)^n (q;q^2)_n.  The routes
are computationally independent, which is what makes the cross-checks in the
identity catalog meaningful.

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


def omega(order: int) -> Series:
    """omega(q) by its defining sum; terms vanish once 2n^2+2n > order.

    1/(q;q^2)_{n+1}^2 is carried as one list through q^(order - 2n^2 - 2n),
    the part that lands within the order, dividing by (1 - q^(2n+3))^2 in
    one kernel call from one n to the next.
    """
    _check_order(order)
    total = [0] * (order + 1)
    inv_sq = [1] + [0] * order
    idiv_one_minus(inv_sq, 1, 1, order, 2)  # 1/(q;q^2)_1^2
    n = 0
    while (shift := 2 * n * n + 2 * n) <= order:
        total[shift:] = map(add, total[shift:], inv_sq)
        top = order - shift - 4 * n - 4  # the next shift is 2(n+1)^2 + 2(n+1)
        idiv_one_minus(inv_sq, 1, 2 * n + 3, top, 2)
        n += 1
    return Series._trusted(total)


def omega_fine(order: int) -> Series:
    """omega(q) = sum_{n>=0} q^n / (q;q^2)_{n+1}, built by term ratios."""
    _check_order(order)
    total = [0] * (order + 1)
    term = [1] + [0] * order  # the n-th term without its q^n
    idiv_one_minus(term, 1, 1, order)
    for n in range(order + 1):
        total[n:] = map(add, total[n:], term)
        idiv_one_minus(term, 1, 2 * n + 3, order - n - 1)
    return Series._trusted(total)


def omega_ady(order: int) -> Series:
    """sum_{n>=1} q^n / ((1-q^n) (q^(n+1);q)_n (q^(2n+2);q^2)_inf) = q*omega(q)."""
    _check_order(order)
    total = [0] * (order + 1)
    if order < 1:
        return Series._trusted(total)
    # the n-th term without its q^n, through q^(order - n)
    term = list(poch_infinite(Parameter.monomial(4), 2, order - 1).invert().coeffs)
    idiv_one_minus(term, 1, 1, order - 1)
    idiv_one_minus(term, 1, 2, order - 1)
    for n in range(1, order + 1):
        total[n:] = map(add, total[n:], term)
        # term ratio: q (1-q^n) / (1-q^(2n+1))
        imul_one_minus(term, 1, n, order - n - 1)
        idiv_one_minus(term, 1, 2 * n + 1, order - n - 1)
    return Series._trusted(total)


def psi(order: int) -> Series:
    """psi(q) by its defining sum from n = 1; constant term is zero.

    1/(q;q^2)_n is carried as one list through q^(order - n^2).
    """
    _check_order(order)
    total = [0] * (order + 1)
    term = [1] + [0] * order
    idiv_one_minus(term, 1, 1, order)
    n = 1
    while n * n <= order:
        total[n * n :] = map(add, total[n * n :], term)
        idiv_one_minus(term, 1, 2 * n + 1, order - (n + 1) ** 2)
        n += 1
    return Series._trusted(total)


def psi_fine(order: int) -> Series:
    """psi(q) = sum_{n>=0} (-q^2;q^2)_n q^(n+1), built by term ratios."""
    _check_order(order)
    total = [0] * (order + 1)
    term = [1] + [0] * order  # (-q^2;q^2)_n, through q^(order - n - 1)
    for n in range(order):
        total[n + 1 :] = map(add, total[n + 1 :], term)
        imul_one_minus(term, -1, 2 * n + 2, order - n - 2)
    return Series._trusted(total)


def nu(order: int, sign: int = 1) -> Series:
    """nu(q) (sign=+1) or nu(-q) (sign=-1) by Watson's defining sum.

    n(n+1) is even, so nu(-q) = sum q^(n(n+1)) / (q;q^2)_{n+1} is computed
    directly, not by flipping signs afterwards, and the two can be compared.
    1/(-sign*q;q^2)_{n+1} is carried as one list through q^(order - n(n+1)).
    """
    _check_order(order)
    if sign not in (-1, 1):
        raise QEngineError("sign must be -1 or +1")
    total = [0] * (order + 1)
    inv = [1] + [0] * order
    idiv_one_minus(inv, -sign, 1, order)  # 1/(-sign*q;q^2)_1
    n = 0
    while (shift := n * n + n) <= order:
        total[shift:] = map(add, total[shift:], inv)
        idiv_one_minus(inv, -sign, 2 * n + 3, order - (n + 1) * (n + 2))
        n += 1
    return Series._trusted(total)


def nu_fine(order: int, sign: int = 1) -> Series:
    """Fine's sum_{n>=0} (-q)^n (q;q^2)_n (1988, s. 26) by the 2phi1 evaluator."""
    return phi21(
        Parameter.monomial(1, sign),
        Parameter.monomial(2),
        Parameter.zero(),
        2,
        Parameter.monomial(1, -sign),
        order,
    )


def nu_ady(order: int) -> Series:
    """sum_{n>=0} q^n (-q^(n+1);q)_n (-q^(2n+2);q^2)_inf = nu(-q)."""
    _check_order(order)
    total = [0] * (order + 1)
    # the n-th term without its q^n, through q^(order - n)
    term = list(poch_infinite(Parameter.monomial(2, -1), 2, order).coeffs)
    for n in range(order + 1):
        total[n:] = map(add, total[n:], term)
        # term ratio: q (1+q^(2n+1)) / (1+q^(n+1))
        imul_one_minus(term, -1, 2 * n + 1, order - n - 1)
        idiv_one_minus(term, -1, n + 1, order - n - 1)
    return Series._trusted(total)


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
