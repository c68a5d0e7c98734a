"""The catalog's smallest-part templates that take Horner's rule, against the carry.

``qengine.sum_over_smallest`` sums a template whose factors are all infinite
with a positive slope by Horner's rule (``qengine._horner``).  The carry
(``qengine._carry``), which builds the starting product on the exponent
vector and moves binomials in and out of it, still sums every other
template; called directly here, it stays checked on these shapes too.  The
catalog reaches 14 distinct such templates: the 12 anchored ``family_gf``
templates and the two of Corollary 3.7.

Tier-1 compares them at 400.  Run as a script,
``PYTHONPATH=src python tests/test_horner_templates.py 2000`` compares them
at each order it is given and exits 1 on any difference.
"""

import sys
import time

from qplab import qengine, recipes, registry
from qplab.family_gf import family_template
from qplab.qengine import TermTemplate
from qplab.recipes import FamilyGF


def catalog_horner_templates() -> list[TermTemplate]:
    """The distinct templates the catalog's sides reach whose factors are all infinite with a positive slope."""
    found = {}

    def walk(node):
        if isinstance(node, FamilyGF):
            node = family_template(node.family, node.signed) or node
        if isinstance(node, TermTemplate):
            found[node] = None
        for child in recipes._rule(node).children(node):
            walk(child)

    for case in registry.list_identities():
        walk(case.lhs)
        walk(case.rhs)
    return [t for t in found if qengine._takes_horner(t)]


def differing(order: int) -> list[TermTemplate]:
    """The catalog Horner templates whose sum through q^order differs from the carry's."""
    return [t for t in catalog_horner_templates()
            if list(qengine.sum_over_smallest(t, order).coeffs) != qengine._carry(t, order)]


def test_the_catalog_reaches_fourteen_horner_templates():
    templates = catalog_horner_templates()
    assert len(templates) == 14
    anchored = {family_template(name, signed) for name in ("Tomega", "Tpsi", "Tnu", "A", "B", "C")
                for signed in (False, True)}
    assert anchored <= set(templates)


def test_horners_rule_equals_the_carry_at_400():
    assert differing(400) == []


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        order = int(arg)
        start = time.perf_counter()
        wrong = differing(order)
        took = time.perf_counter() - start
        count = len(catalog_horner_templates())
        print(f"order {order}: {count - len(wrong)} of {count} templates equal the carry ({took:.2f} s)")
        for template in wrong:
            print(f"  {template}")
        failed = failed or bool(wrong) or count != 14
    sys.exit(1 if failed else 0)
