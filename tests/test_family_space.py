"""The family space beyond the eight named families: a seeded sweep of random specs.

The listing and the cell products share `_cell_start`, so the 8 entries of
`FAMILIES` alone cannot tell a fault in the general spec machinery from a
fault both routes share.  Each random spec here is checked three ways:
`family_series` in every weight mode against weights tallied over
`enumerate_family`, `statistic_counts` against the listing, and, through a
smaller n, the listing against `oracles.spec_member`, which reads a spec's
fields as its docstrings describe them.  No `family_gf` template is built from
a spec: the templates are the independent route for the 8 named families.

Tier-1 draws 60 specs through n = 14, the oracle through n = 10.  Run as a
script, ``PYTHONPATH=src python tests/test_family_space.py DRAWS N ORACLE_N SEED``
sweeps that many specs and exits 1 on any disagreement.
"""

import random
import sys
from functools import lru_cache

import pytest

from qplab import partitions as P

import oracles

#: every anchor multiset up to width 2, and one of width 3
ANCHORS = ((), (P.BLUE,), (P.GREEN,), (P.BLUE, P.BLUE), (P.BLUE, P.GREEN), (P.GREEN, P.GREEN),
           (P.BLUE, P.GREEN, P.GREEN))
SLOTS = tuple((color, parity) for color in (P.BLUE, P.GREEN) for parity in (P.ODD, P.EVEN))


def random_spec(rng: random.Random, i: int) -> P.FamilySpec:
    """The i-th spec of a sweep: anchor and weight mode cycle, cells are drawn.

    Every other spec holds both colors of one parity; each cell is distinct
    or not, and its offset is any of 0-5 that starts it at its own parity
    once the smallest part is odd.
    """
    anchor = ANCHORS[i % len(ANCHORS)]
    chosen = [slot for slot in SLOTS if rng.random() < 0.6]
    if i % 2 == 0:
        parity = rng.choice((P.ODD, P.EVEN))
        chosen = sorted(set(chosen) | {(P.BLUE, parity), (P.GREEN, parity)})
    cells = []
    for color, parity in chosen:
        offsets = range(0 if parity == P.ODD else 1, 6, 2) if anchor else range(6)
        cells.append(P.Cell(color, parity, rng.random() < 0.5, rng.choice(offsets)))
    return P.FamilySpec(f"sweep-{i}", anchor, tuple(cells), P.WEIGHT_MODES[i % len(P.WEIGHT_MODES)])


def _pairs(partition):
    return tuple((p.value, p.color) for p in partition.parts)


@lru_cache(maxsize=None)
def _two_color_partitions(n):
    return tuple(tuple(sorted(parts, key=lambda p: (-p[0], p[1]))) for parts in oracles.all_two_color_partitions(n))


def _oracle_form(spec):
    return spec.anchor, {(c.color, c.parity): (c.distinct, c.min_offset) for c in spec.cells}


def disagreements(spec, n, oracle_n):
    """Where the listing of spec disagrees with its counts or with the generic oracle, through n."""
    out = []
    series = {mode: P.family_series(spec, n, mode).coeffs for mode in P.WEIGHT_MODES}
    anchor, cells = _oracle_form(spec)
    for m in range(n + 1):
        listed = [_pairs(p) for p in P.enumerate_family(spec, m)]
        for mode, coeffs in series.items():
            if sum(oracles.weight(parts, mode) for parts in listed) != coeffs[m]:
                out.append(f"{spec}: family_series in mode {mode} at n = {m}")
        x = [0] * 4
        for parts in listed:
            x[sum(1 for v, _ in parts if v % 2 == 0) % 2] += 1
            x[2 + len(parts) % 2] += 1
        if P.statistic_counts(spec, m) != tuple(x):
            out.append(f"{spec}: statistic_counts at n = {m}")
        if m <= oracle_n:
            members = [parts for parts in _two_color_partitions(m) if oracles.spec_member(parts, anchor, cells)]
            if sorted(listed) != sorted(members):
                out.append(f"{spec}: listing against the oracle at n = {m}")
    return out


def sweep(rng, draws, n, oracle_n):
    """The specs drawn and every disagreement found on them."""
    specs = [random_spec(rng, i) for i in range(draws)]
    return specs, [line for spec in specs for line in disagreements(spec, n, oracle_n)]


@pytest.mark.parametrize("name", P.FAMILIES)
def test_the_generic_oracle_agrees_with_each_named_family(name):
    anchor, cells = _oracle_form(P.FAMILIES[name])
    for n in range(13):
        for parts in _two_color_partitions(n):
            assert oracles.spec_member(parts, anchor, cells) == oracles.family_predicate(parts, name), (n, parts)


def test_random_specs_agree_across_listing_counts_and_oracle(rng):
    specs, wrong = sweep(rng, 60, 14, 10)
    assert wrong == []
    # the draws cover what the sweep is for
    cells = [cell for spec in specs for cell in spec.cells]
    assert {spec.anchor for spec in specs} == set(ANCHORS)
    assert {spec.weight for spec in specs} == set(P.WEIGHT_MODES)
    assert {cell.distinct for cell in cells} == {False, True}
    assert max(cell.min_offset for spec in specs if spec.anchor for cell in spec.cells) == 5
    assert all(
        any({c.color for c in spec.cells if c.parity == parity} == {P.BLUE, P.GREEN} for parity in (P.ODD, P.EVEN))
        for spec in specs[::2]
    )


if __name__ == "__main__":
    draws, n, oracle_n, seed = map(int, sys.argv[1:5])
    specs, wrong = sweep(random.Random(seed), draws, n, oracle_n)
    print(f"{len(specs)} specs through n = {n}, oracle through n = {oracle_n}, seed {seed}: "
          f"{len(wrong)} disagreements")
    for line in wrong[:20]:
        print(" ", line)
    sys.exit(1 if wrong else 0)
