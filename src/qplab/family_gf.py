"""Generating functions for the two-color families, derived in the q-engine.

One table, ``_ROUTES``, keyed by (family, signed), holds every generating
function.  For the six anchored families the value is a ``TermTemplate``,
a genuine sum over the smallest part; for E and F it is a tuple of
(``Poch``, power) pairs whose product, one exponent vector, is the series.
Signed variants weight even parts (even blue parts for Tnu) by -1, which
flips the sign of the corresponding Pochhammer arguments.
"""

from __future__ import annotations

from math import prod

from .series import Series, _check_order
from .qengine import LENGTH_INF, _Product, Parameter, Poch, PochFactor, TermTemplate
from .qengine import sum_over_smallest


def _inf(sign: int, slope: int, offset: int, den: bool = False) -> PochFactor:
    return PochFactor(sign, slope, offset, 2, LENGTH_INF, den)


def _routes(s: int) -> dict:
    """Each family's generating function; s is 1 in the signed variants and -1 in the others."""
    return {
        # distinct per color, evens blue: (s q^2;q^2)_inf (-q;q^2)_inf^2
        "E": ((Poch(Parameter.monomial(2, s), 2), 1), (Poch(Parameter.monomial(1, -1), 2), 2)),
        # evens blue with repetition: 1 / ((q;q^2)_inf^2 (-s q^2;q^2)_inf)
        "F": ((Poch(Parameter.monomial(1), 2), -2), (Poch(Parameter.monomial(2, -s), 2), -1)),
        # q^(2n+1) (s q^(2n+2);q^2)_inf / (q^(2n+1);q^2)_inf^2
        "Tomega": TermTemplate(2, 1, (_inf(s, 2, 2), _inf(1, 2, 1, True), _inf(1, 2, 1, True))),
        # q^(2n+1) (-q^(2n+3);q^2)_inf (s q^(2n+2);q^2)_inf / (q^(2n+1);q^2)_inf
        "Tpsi": TermTemplate(2, 1, (_inf(-1, 2, 3), _inf(s, 2, 2), _inf(1, 2, 1, True))),
        # q^(2n+1) (-q^(2n+2);q^2)_inf (s q^(2n+2);q^2)_inf / (q^(2n+1);q^2)_inf
        "Tnu": TermTemplate(2, 1, (_inf(-1, 2, 2), _inf(s, 2, 2), _inf(1, 2, 1, True))),
        # q^(2n+1) (s q^(2n+4), s q^(2n+2);q^2)_inf / (q^(2n+1);q^2)_inf^2
        "A": TermTemplate(
            2, 1, (_inf(s, 2, 4), _inf(s, 2, 2), _inf(1, 2, 1, True), _inf(1, 2, 1, True))
        ),
        # q^(2n+1) (s q^(2n+6), s q^(2n+2);q^2)_inf
        #   / ((q^(2n+3);q^2)_inf (q^(2n+1);q^2)_inf)
        "B": TermTemplate(
            2, 1, (_inf(s, 2, 6), _inf(s, 2, 2), _inf(1, 2, 3, True), _inf(1, 2, 1, True))
        ),
        # q^(4n+2) (s q^(2n+6), s q^(2n+2);q^2)_inf / (q^(2n+1);q^2)_inf^2
        "C": TermTemplate(
            4, 2, (_inf(s, 2, 6), _inf(s, 2, 2), _inf(1, 2, 1, True), _inf(1, 2, 1, True))
        ),
    }


_ROUTES = {(name, s == 1): route for s in (1, -1) for name, route in _routes(s).items()}

FAMILY_NAMES = tuple(dict.fromkeys(name for name, _ in _ROUTES))


def _unknown_family(name: str) -> str:
    """The one message for a name that is not a family, listing those that are."""
    return f"unknown family {name!r}; choose from {', '.join(FAMILY_NAMES)}"


def _route(name: str, signed: bool):
    route = _ROUTES.get((name, bool(signed)))
    if route is None:
        raise KeyError(_unknown_family(name))
    return route


def family_template(name: str, signed: bool) -> TermTemplate | None:
    """The smallest-part template, built once at import, or None for the product-form families."""
    route = _ROUTES.get((name, bool(signed)))
    return route if isinstance(route, TermTemplate) else None


def family_gf_series(name: str, signed: bool, order: int) -> Series:
    """Evaluate the family's generating function to the given order."""
    route = _route(name, signed)
    _check_order(order)
    if isinstance(route, TermTemplate):
        return sum_over_smallest(route, order)
    return prod((p.product(order) ** k for p, k in route), start=_Product()).series(order)
