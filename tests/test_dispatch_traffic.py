"""Every entry of the three dispatch tables is reached by something the package builds.

The walk starts from every catalog side, every named ``coeffs`` target and
one tree that ``recipes.parse`` builds with each of its operators, and
follows the children of each node's ``recipes._RULES`` entry.  A table key
that nothing reaches is a route no catalog case, CLI target or parsed
expression can take: delete it rather than keep it untested by traffic.
"""

import pytest

from qplab import cli, family_gf, mocktheta, recipes, registry
from qplab.mocktheta import MockThetaForm
from qplab.recipes import FamilyGF

#: + - * / ^, unary minus, a negative exponent and parentheses
PARSED = "-(1 + 2*q)^2 * q / (1 - q^3) - (1 + q)^-1"


def _reached():
    """The keys each table's lookups receive on the walk, by table."""
    reached = {"recipes._RULES": set(), "mocktheta._ROUTES": set(), "family_gf._ROUTES": set()}
    stack = [side for case in registry.CATALOG for side in (case.lhs, case.rhs)]
    stack += [*cli._NAMED_TARGETS.values(), recipes.parse(PARSED)]
    while stack:
        node = stack.pop()
        reached["recipes._RULES"].add(type(node))
        if isinstance(node, MockThetaForm):
            reached["mocktheta._ROUTES"].add((node.function, node.form, node.argument_sign))
        elif isinstance(node, FamilyGF):
            reached["family_gf._ROUTES"].add((node.family, bool(node.signed)))
        stack.extend(recipes._rule(node).children(node))
    return reached


TABLES = {
    "recipes._RULES": recipes._RULES,
    "mocktheta._ROUTES": mocktheta._ROUTES,
    "family_gf._ROUTES": family_gf._ROUTES,
}


@pytest.mark.parametrize("table", TABLES)
def test_the_walk_reaches_every_key(table):
    unreached = set(TABLES[table]) - _reached()[table]
    assert not unreached, f"{table} keys that nothing reaches: {sorted(map(str, unreached))}"

