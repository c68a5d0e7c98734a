import ast
import dataclasses
import os
import subprocess
import sys
import time

import pytest

from qplab.qengine import Parameter, poch_infinite
from qplab.mocktheta import nu, omega
from qplab.family_gf import family_gf_series
from qplab import partitions as P
from qplab import recipes

import oracles

ALL_FAMILY_NAMES = tuple(P.FAMILIES)


def canonical_pairs(partition):
    return tuple((p.value, p.color) for p in partition.parts)


# ----------------------------------------------------------------------
# enumeration against the filter-everything oracle

@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_enumeration_matches_filter_oracle(name):
    spec = P.FAMILIES[name]
    for n in range(0, 11):
        expected = sorted(
            tuple(sorted(parts, key=lambda p: (-p[0], p[1])))
            for parts in oracles.filter_family(n, name)
        )
        got = sorted(canonical_pairs(tc) for tc in P.enumerate_family(spec, n))
        assert got == expected, f"{name} at n={n}"


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_counts_match_enumeration_weights(name):
    spec = P.FAMILIES[name]
    for n in range(0, 11):
        members = P.enumerate_family(spec, n)
        for use_weight in (False, True):
            mode = spec.weight if use_weight else P.WEIGHT_NONE
            total = sum(oracles.weight(canonical_pairs(tc), mode) for tc in members)
            assert total == P.count_family(spec, n, use_weight=use_weight)


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_enumeration_matches_generating_function_beyond_the_oracle(name):
    spec = P.FAMILIES[name]
    for n in (17, 18):
        members = P.enumerate_family(spec, n)
        assert len(members) == family_gf_series(name, False, n).coeff(n)
        signed = sum(oracles.weight(canonical_pairs(tc), spec.weight) for tc in members)
        assert signed == family_gf_series(name, True, n).coeff(n)


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_listing_is_canonical_strictly_increasing_and_repeatable(name):
    # the listing wraps its parts without sorting them: each partition must
    # equal the one the sorting constructor builds from the same parts
    spec = P.FAMILIES[name]
    for n in range(0, 17):
        members = P.enumerate_family(spec, n)
        for p in members:
            rebuilt = P.TwoColorPartition(list(reversed(p.parts)))
            assert rebuilt == p and rebuilt.parts == p.parts, f"{name} at n={n}: {p}"
        keys = [p.sort_key() for p in members]
        assert all(a < b for a, b in zip(keys, keys[1:])), f"{name} at n={n}"
    assert members == P.enumerate_family(spec, 16)


# ----------------------------------------------------------------------
# worked examples

def test_family_E_at_four():
    members = P.enumerate_family(P.FAMILIES["E"], 4)
    assert [m.text() for m in members] == [
        "4b",
        "3b+1b",
        "3b+1g",
        "3g+1b",
        "3g+1g",
        "2b+1b+1g",
    ]
    assert P.count_family(P.FAMILIES["E"], 4) == 6
    assert P.statistic_counts(P.FAMILIES["E"], 4) == (4, 2, 4, 2)


def test_family_A_at_three():
    members = P.enumerate_family(P.FAMILIES["A"], 3)
    texts = {m.text() for m in members}
    assert texts == {"1b+1b+1b", "1b+1b+1g", "1b+1g+1g", "2g+1b", "3b"}


def test_anchored_family_at_zero():
    for name in ("Tomega", "Tpsi", "Tnu", "A", "B", "C"):
        assert P.enumerate_family(P.FAMILIES[name], 0) == []
        assert P.count_family(P.FAMILIES[name], 0) == 0


def test_unanchored_family_at_zero():
    for name in ("E", "F"):
        members = P.enumerate_family(P.FAMILIES[name], 0)
        assert len(members) == 1 and members[0].text() == ""
        assert P.count_family(P.FAMILIES[name], 0) == 1


def test_tomega_weighted_at_three():
    assert P.count_family(P.FAMILIES["Tomega"], 3, use_weight=True) == 3
    assert len(P.enumerate_family(P.FAMILIES["Tomega"], 3)) == 5


def test_signed_A_coefficient():
    assert P.count_family(P.FAMILIES["A"], 5, use_weight=True) == 5


# ----------------------------------------------------------------------
# overpartitions and bounded-odd partitions

def test_overpartition_examples():
    assert P.count_overpartitions(4, odd_only=True) == 6
    assert P.count_overpartitions(0) == 1
    assert P.count_overpartitions(1, odd_only=True) == 2


def test_overpartitions_match_oracle():
    for n in range(0, 13):
        for odd_only in (False, True):
            assert P.count_overpartitions(n, odd_only) == oracles.overpartition_count(
                n, odd_only
            )


def test_ady_count_examples():
    assert P.count_ady(4, distinct=False) == 4
    assert P.count_ady(2, distinct=True) == 1
    assert P.count_ady(2, distinct=True, allow_zero_part=True) == 2
    with pytest.raises(P.PartitionError):
        P.count_ady(3, distinct=False, allow_zero_part=True)


def test_ady_count_matches_filter_oracle():
    for n in range(1, 15):
        assert P.count_ady(n, distinct=False) == len(
            oracles.bounded_odd_partitions(n, distinct=False)
        )
        positives = len(oracles.bounded_odd_partitions(n, distinct=True))
        assert P.count_ady(n, distinct=True) == positives
        # a zero part may join only when no odd part survives the bound
        with_zero = positives + sum(
            1
            for values in oracles.plain_partitions(n)
            if len(values) == len(set(values)) and all(v % 2 == 0 for v in values)
        )
        assert P.count_ady(n, distinct=True, allow_zero_part=True) == with_zero


LARGE_N = 300


def test_ady_counts_match_omega_at_large_n():
    # count_ady(n, False) is the q^n coefficient of q*omega(q)
    table = P.ady_counts(LARGE_N, distinct=False)
    assert table == [0] + list(omega(LARGE_N - 1).coeffs)
    assert P.count_ady(LARGE_N, distinct=False) == table[LARGE_N]


def test_distinct_ady_counts_with_zero_part_match_nu_at_large_n():
    table = P.ady_counts(LARGE_N, distinct=True, allow_zero_part=True)
    assert table == list(nu(LARGE_N, sign=-1).coeffs)
    assert P.count_ady(LARGE_N, distinct=True, allow_zero_part=True) == table[LARGE_N]


@pytest.mark.parametrize("odd_only", (False, True))
def test_overpartition_counts_match_products_at_large_n(odd_only):
    # (-q; q^k)_inf / (q; q^k)_inf, k = 2 for odd parts
    step = 2 if odd_only else 1
    expect = oracles.p_mul(
        oracles.p_poch_inf(-1, 1, step, LARGE_N),
        oracles.p_inv(oracles.p_poch_inf(1, 1, step, LARGE_N)),
    )
    assert P.overpartition_counts(LARGE_N, odd_only) == expect
    assert P.count_overpartitions(LARGE_N, odd_only) == expect[LARGE_N]


@pytest.mark.parametrize("odd_only", (False, True))
def test_overpartition_tables_match_products_for_every_n_through_80(odd_only):
    # every table length from 1 to 81 crosses the theta taps at k^2 and the
    # odd numerator's taps at 2k^2 (1, 2, 4, 8, 9, 18, 32, 49, 50, 72) in turn
    step = 2 if odd_only else 1
    expect = oracles.p_mul(
        oracles.p_poch_inf(-1, 1, step, 80),
        oracles.p_inv(oracles.p_poch_inf(1, 1, step, 80)),
    )
    for n in range(0, 81):
        assert P.overpartition_counts(n, odd_only) == expect[: n + 1], n


def test_overpartition_counts_share_no_kernel_with_the_cell_products(monkeypatch):
    # families E and F are matched against these counts, so the table must
    # come from another formula than their (1 + q^k)/(1 - q^k) products
    def refuse(*args):
        raise AssertionError("binomial kernel called")

    monkeypatch.setattr(P, "imul_one_minus", refuse)
    monkeypatch.setattr(P, "idiv_one_minus", refuse)
    assert P.count_overpartitions(24) == oracles.overpartition_count(24)
    assert P.count_overpartitions(24, odd_only=True) == oracles.overpartition_count(24, True)


def test_counts_at_n_900_need_no_deep_recursion():
    code = (
        "from qplab.partitions import count_ady, count_overpartitions\n"
        "print(count_ady(900, False), count_overpartitions(900))"
    )
    src = os.path.dirname(os.path.dirname(P.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        str(P.count_ady(900, False)), str(P.count_overpartitions(900))
    ]


def test_count_tables_reject_bad_arguments():
    with pytest.raises(P.PartitionError, match="n must be nonnegative"):
        P.overpartition_counts(-1)
    with pytest.raises(P.PartitionError, match="n must be nonnegative"):
        P.count_ady(-1, distinct=True)
    with pytest.raises(P.PartitionError, match="zero part"):
        P.ady_counts(5, distinct=False, allow_zero_part=True)


# ----------------------------------------------------------------------
# the family table

@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_family_specs_and_count_nodes_hash_and_equal_themselves(name):
    # the tracer's repeat keys hash (spec, order, mode) and the recipe nodes
    spec = P.FAMILIES[name]
    copy = dataclasses.replace(spec)
    assert spec.name == name
    assert copy == spec and hash(copy) == hash(spec)
    for mode in P.WEIGHT_MODES:
        node = recipes.FamilyCounts(name, mode)
        assert node == recipes.FamilyCounts(name, mode)
        assert hash(node) == hash(recipes.FamilyCounts(name, mode))


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_family_cells_carry_the_anchor_rule(name):
    spec = P.FAMILIES[name]
    assert spec.weight in P.WEIGHT_MODES
    assert set(spec.anchor) <= {P.BLUE, P.GREEN}
    assert len({(c.color, c.parity) for c in spec.cells}) == len(spec.cells)
    for cell in spec.cells:
        if cell.distinct and cell.parity == P.ODD and cell.color in spec.anchor:
            # the anchor holds the smallest value, which this cell may not repeat
            assert cell.min_offset >= 2, f"{name}: {cell}"


def test_family_series_rejects_an_unknown_mode():
    with pytest.raises(P.PartitionError, match="^unknown weight mode 'odd_parts'$"):
        P.family_series(P.FAMILIES["E"], 5, "odd_parts")


# ----------------------------------------------------------------------
# series-level checks

@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_family_series_matches_generating_function_at_order_120(name):
    spec = P.FAMILIES[name]
    for mode in (P.WEIGHT_NONE, spec.weight):
        got = P.family_series(spec, 120, mode)
        assert got == family_gf_series(name, mode != P.WEIGHT_NONE, 120)


def test_brute_series_E_product():
    n = 10
    got = P.family_series(P.FAMILIES["E"], n)
    expect = (
        poch_infinite(Parameter.monomial(2, -1), 2, n)
        * poch_infinite(Parameter.monomial(1, -1), 2, n)
        * poch_infinite(Parameter.monomial(1, -1), 2, n)
    )
    assert got == expect


def test_brute_series_Tnu_weighted():
    n = 8
    spec = P.FAMILIES["Tnu"]
    got = P.family_series(spec, n, spec.weight)
    assert got == nu(n, sign=-1).shifted(1)


def test_budget_is_enforced():
    # the counts are not bounded by the budget; an explicit one still is
    spec = P.FAMILIES["E"]
    expected = family_gf_series("E", False, 31)
    assert P.family_series(spec, 31) == expected
    assert P.count_family(spec, 31) == expected.coeff(31)
    with pytest.raises(P.PartitionError, match="^order 31 exceeds the enumeration budget 30$"):
        P.family_series(spec, 31, budget=30)
    # the listing is refused before any work: it would take seconds at 31
    start = time.perf_counter()
    for name in ALL_FAMILY_NAMES:
        with pytest.raises(P.PartitionError, match="^n 31 exceeds the enumeration budget 30$"):
            P.enumerate_family(P.FAMILIES[name], 31)
    assert time.perf_counter() - start < 0.5


def test_is_square():
    assert P.is_square(9) and not P.is_square(8)
    assert P.is_square(0) and P.is_square(1)
    squares = {n * n for n in range(40)}
    for n in range(1500):
        assert P.is_square(n) == (n in squares)


# ----------------------------------------------------------------------
# the headline counting theorems, past the enumeration budget: the counts
# are O(n^2) tables, so only the listing is held to n <= 30

def test_E_equals_odd_overpartitions_through_100():
    spec = P.FAMILIES["E"]
    for n in range(0, 101):
        assert P.count_family(spec, n) == P.count_overpartitions(n, odd_only=True)


def test_E_statistics_formulas_through_100():
    spec = P.FAMILIES["E"]
    for n in range(1, 101):
        po = P.count_overpartitions(n, odd_only=True)
        x0, x1, x2, x3 = P.statistic_counts(spec, n)
        square = P.is_square(n)
        assert x0 == po // 2 + (1 if square else 0)
        assert x1 == po // 2 - (1 if square else 0)
        assert x2 == po // 2 + ((-1) ** n if square else 0)
        assert x3 == po // 2 - ((-1) ** n if square else 0)
        assert x0 + x1 == x2 + x3 == P.count_family(spec, n)


def test_F_equals_overpartitions_through_100():
    spec = P.FAMILIES["F"]
    for n in range(0, 101):
        assert P.count_family(spec, n) == P.count_overpartitions(n)


def test_weighted_Tomega_counts_bounded_odd_partitions():
    spec = P.FAMILIES["Tomega"]
    for n in range(0, 101):
        assert P.count_family(spec, n, use_weight=True) == P.count_ady(
            n, distinct=False
        )


def test_weighted_Tnu_counts_distinct_bounded_odd_partitions():
    spec = P.FAMILIES["Tnu"]
    for n in range(0, 100):
        assert P.count_family(spec, n + 1, use_weight=True) == P.count_ady(
            n, distinct=True, allow_zero_part=True
        )


# ----------------------------------------------------------------------
# independence of the counting route


def test_partitions_imports_none_of_the_routes_it_is_compared_with():
    # the catalog checks these counts against qengine, mocktheta and
    # family_gf, so computing them through any of those would prove nothing
    with open(P.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    forbidden = ("qengine", "mocktheta", "family_gf")
    assert not [
        name for name in imported
        if any(part in forbidden for part in name.split("."))
    ]


# ----------------------------------------------------------------------
# rendering

def test_text_format():
    tc = P.TwoColorPartition(
        [P.ColoredPart(1, "g"), P.ColoredPart(3, "b"), P.ColoredPart(3, "g")]
    )
    assert tc.text() == "3b+3g+1g"
    assert P.TwoColorPartition([]).text() == ""


def test_colored_part_validation():
    with pytest.raises(P.PartitionError):
        P.ColoredPart(0, "b")
    with pytest.raises(P.PartitionError):
        P.ColoredPart(2, "r")
