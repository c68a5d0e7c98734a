"""Any family spec as a q-engine recipe tree, against `family_series` in every weight mode.

`family_tree` reads a `FamilySpec` and a weight mode off the `FamilySpec` and
`Cell` docstrings into a recipe tree, which `recipes.evaluate` sums through
`sum_over_smallest` or one exponent vector, never through `partitions`:

* a cell of distinct parts v gives the factors (1 + wt q^v), any other cell
  1/(1 - wt q^v), with wt the weight of a part of the cell's color and parity
  in the mode (`oracles.weight`); either is a Pochhammer product in steps of 2;
* an anchored spec with w anchor copies of the odd smallest part s = 2n + 1
  is TermTemplate(2w, w, factors), each cell one factor starting at
  s + min_offset, times -1 in the all-parts mode when w is odd;
* an unanchored spec is the product of its cells' Pochhammer products, each
  starting at the least value of its parity.

The helper never builds the `family_gf` templates, the independent route for
the 8 named families.  The specs are the 8 named families and the draws of
`test_family_space.random_spec`, whose anchors reach width 3 and whose
anchored cells take every offset 0-5.

Tier-1 compares 8 + 24 specs in all 4 modes at 150.  Run as a script,
``PYTHONPATH=src python tests/test_family_trees.py DRAWS ORDER SEED`` compares
the named families and that many drawn specs and exits 1 on any difference.
"""

import random
import sys
import time

from qplab import partitions as P
from qplab.qengine import LENGTH_INF, Parameter, Poch, PochFactor, TermTemplate
from qplab.recipes import Mul, Pow, Scale, evaluate

import oracles
from test_family_space import random_spec


def family_tree(spec: P.FamilySpec, mode: str):
    """The recipe tree of the spec's counting series in the weight mode."""
    signs = []  # per cell: the Pochhammer sign, and whether it is a denominator
    for cell in spec.cells:
        wt = oracles.weight(((1 if cell.parity == P.ODD else 2, cell.color),), mode)
        signs.append((-wt, False) if cell.distinct else (wt, True))
    if not spec.anchor:
        return Mul(tuple(
            Pow(Poch(Parameter.monomial(1 if cell.parity == P.ODD else 2, sign), 2), -1 if den else 1)
            for cell, (sign, den) in zip(spec.cells, signs)
        ))
    w = len(spec.anchor)
    tree = TermTemplate(2 * w, w, tuple(
        PochFactor(sign, 2, 1 + cell.min_offset, 2, LENGTH_INF, den)
        for cell, (sign, den) in zip(spec.cells, signs)
    ))
    return Scale(-1, tree) if mode == P.WEIGHT_ALL_PARTS and w % 2 else tree


def specs(draws: int, seed: int) -> list[P.FamilySpec]:
    """The 8 named families, then `draws` specs of the family-space sweep."""
    rng = random.Random(seed)
    return [*P.FAMILIES.values(), *(random_spec(rng, i) for i in range(draws))]


def differing(family_specs, order: int) -> list[str]:
    """Each (spec, mode) whose tree and `family_series` differ through q^order."""
    return [f"{spec} in mode {mode}" for spec in family_specs for mode in P.WEIGHT_MODES
            if evaluate(family_tree(spec, mode), order) != P.family_series(spec, order, mode)]


def test_family_trees_equal_family_series_in_every_mode(seed):
    drawn = specs(24, seed)
    assert differing(drawn, 150) == []
    # the draws cover every anchor width, distinct flag and anchored offset
    assert {len(spec.anchor) for spec in drawn} == {0, 1, 2, 3}
    assert {cell.distinct for spec in drawn for cell in spec.cells} == {False, True}
    assert {cell.min_offset for spec in drawn if spec.anchor for cell in spec.cells} == set(range(6))


if __name__ == "__main__":
    draws, order, seed = map(int, sys.argv[1:4])
    drawn = specs(draws, seed)
    start = time.perf_counter()
    wrong = differing(drawn, order)
    took = time.perf_counter() - start
    print(f"{len(drawn)} specs in {len(P.WEIGHT_MODES)} modes at order {order}, seed {seed}: "
          f"{len(wrong)} differences ({took:.2f} s)")
    for line in wrong[:20]:
        print(" ", line)
    sys.exit(1 if wrong else 0)
