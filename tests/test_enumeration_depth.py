"""The paper's enumeration-backed cases at depth, past the clamp of bulk runs.

Every bulk run holds the 28 cases that ``IdentityCase.enumeration_backed``
marks at their default order, 24, and ``verify --id`` at 30.  Their count
sides have long since stopped enumerating, so this module evaluates both
sides of each through ``recipes.evaluate``, in one ``recipes._Run`` as
``registry.verify_all`` does, and compares them exactly at any order.
The ``xcheck-*`` cases compare ``partitions.family_series`` with the
``family_gf`` templates, so this is also the depth check of the templates'
Horner's rule against an independent route.

Tier-1 compares them at 200.  Run as a script,
``PYTHONPATH=src python tests/test_enumeration_depth.py 2000`` compares them
at each order it is given and exits 1 on any difference.
"""

import sys
import time

from qplab import recipes, registry
from qplab.series import equal_up_to

#: the enumeration-backed cases, in id order
CASES = (
    "cor-2.3-omega-partitions",
    "cor-2.7-nu-partitions",
    "family-E-product",
    "family-F-product",
    "overpartition-all-product",
    "overpartition-odd-product",
    "remark-9.1-F-overpartitions",
    "thm-1.2-a",
    "thm-1.2-b",
    "thm-1.2-c",
    "thm-1.2-d",
    "thm-1.2-e",
    *(f"xcheck-{name}-{kind}" for name in ("A", "B", "C", "E", "F", "Tnu", "Tomega", "Tpsi")
      for kind in ("signed", "unsigned")),
)


def mismatches(order: int) -> dict:
    """Each of CASES whose two sides differ through q^order, with the first difference."""
    found = {}
    with recipes._Run() as run:
        for case_id in CASES:
            case = registry.get_case(case_id)
            lhs = run.evaluate_side(case.lhs, order)
            rhs = run.evaluate_side(case.rhs, order)
            comparison = equal_up_to(lhs, rhs, order)
            if not comparison.equal:
                found[case_id] = comparison
    return found


def test_the_module_covers_exactly_the_enumeration_backed_cases():
    marked = tuple(c.id for c in registry.list_identities() if c.enumeration_backed)
    assert CASES == marked


def test_enumeration_backed_cases_hold_at_200():
    assert mismatches(200) == {}


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        order = int(arg)
        start = time.perf_counter()
        wrong = mismatches(order)
        took = time.perf_counter() - start
        print(f"order {order}: {len(CASES) - len(wrong)} of {len(CASES)} enumeration-backed cases hold ({took:.2f} s)")
        for case_id, comparison in wrong.items():
            print(f"  {case_id}: first differs at q^{comparison.index}, {comparison.lhs} against {comparison.rhs}")
        failed = failed or bool(wrong)
    sys.exit(1 if failed else 0)
