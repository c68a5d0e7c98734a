"""Generating functions for the two-color families, derived in the q-engine.

For the six anchored families the series is a genuine sum over the smallest
part; E and F are plain Pochhammer products, each one exponent vector.
Signed variants weight even parts (even blue parts for Tnu) by -1, which
flips the sign of the corresponding Pochhammer arguments.
"""

from __future__ import annotations

from .series import Series, _check_order
from .qengine import LENGTH_INF, Parameter, Poch, PochFactor, TermTemplate, sum_over_smallest

FAMILY_NAMES = ("E", "F", "Tomega", "Tpsi", "Tnu", "A", "B", "C")


def _inf(sign: int, slope: int, offset: int, den: bool = False) -> PochFactor:
    return PochFactor(sign, slope, offset, 2, LENGTH_INF, den)


def _templates(s: int) -> dict[str, TermTemplate]:
    """The smallest-part templates; s is 1 in the signed variants and -1 in the others."""
    return {
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


_TEMPLATES = {(name, s == 1): t for s in (1, -1) for name, t in _templates(s).items()}


def family_template(name: str, signed: bool) -> TermTemplate | None:
    """The smallest-part template, built once at import, or None for the product-form families."""
    return _TEMPLATES.get((name, signed))


def family_gf_series(name: str, signed: bool, order: int) -> Series:
    """Evaluate the family's generating function to the given order."""
    if name not in FAMILY_NAMES:
        raise KeyError(f"unknown family {name!r}")
    _check_order(order)
    template = family_template(name, signed)
    if template is not None:
        return sum_over_smallest(template, order)
    s = 1 if signed else -1
    if name == "E":
        # distinct per color, evens blue: (s q^2;q^2)_inf (-q;q^2)_inf^2
        odd = Poch(Parameter.monomial(1, -1), 2).product(order)
        return (Poch(Parameter.monomial(2, s), 2).product(order) * odd**2).series(order)
    # F: evens blue with repetition: 1 / ((q;q^2)_inf^2 (-s q^2;q^2)_inf)
    odd = Poch(Parameter.monomial(1), 2).product(order)
    return ((odd**2 * Poch(Parameter.monomial(2, -s), 2).product(order)) ** -1).series(order)
