import pytest

from qplab.qengine import Parameter, poch_infinite
from qplab.mocktheta import nu
from qplab import partitions as P

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
            total = sum(P.partition_weight(tc, mode) for tc in members)
            assert total == P.count_family(spec, n, use_weight=use_weight)


def test_enumeration_no_duplicates_and_sorted():
    spec = P.FAMILIES["A"]
    members = P.enumerate_family(spec, 9)
    assert len(set(members)) == len(members)
    assert members == sorted(members, key=P.TwoColorPartition.sort_key)
    assert members == P.enumerate_family(spec, 9)


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


# ----------------------------------------------------------------------
# series-level checks

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
    with pytest.raises(P.PartitionError):
        P.family_series(P.FAMILIES["E"], 31)
    with pytest.raises(P.PartitionError):
        P.count_family(P.FAMILIES["E"], 31)
    assert P.family_series(P.FAMILIES["E"], 31, budget=31).order == 31


def test_is_square():
    assert P.is_square(9) and not P.is_square(8)
    assert P.is_square(0) and P.is_square(1)
    squares = {n * n for n in range(40)}
    for n in range(1500):
        assert P.is_square(n) == (n in squares)


# ----------------------------------------------------------------------
# the headline counting theorems, at full enumeration depth

def test_E_equals_odd_overpartitions_through_30():
    spec = P.FAMILIES["E"]
    for n in range(0, 31):
        assert P.count_family(spec, n) == P.count_overpartitions(n, odd_only=True)


def test_E_statistics_formulas_through_30():
    spec = P.FAMILIES["E"]
    for n in range(1, 31):
        po = P.count_overpartitions(n, odd_only=True)
        x0, x1, x2, x3 = P.statistic_counts(spec, n)
        square = P.is_square(n)
        assert x0 == po // 2 + (1 if square else 0)
        assert x1 == po // 2 - (1 if square else 0)
        assert x2 == po // 2 + ((-1) ** n if square else 0)
        assert x3 == po // 2 - ((-1) ** n if square else 0)
        assert x0 + x1 == x2 + x3 == P.count_family(spec, n)


def test_F_equals_overpartitions_through_25():
    spec = P.FAMILIES["F"]
    for n in range(0, 26):
        assert P.count_family(spec, n) == P.count_overpartitions(n)


def test_weighted_Tomega_counts_bounded_odd_partitions():
    spec = P.FAMILIES["Tomega"]
    for n in range(0, 25):
        assert P.count_family(spec, n, use_weight=True) == P.count_ady(
            n, distinct=False
        )


def test_weighted_Tnu_counts_distinct_bounded_odd_partitions():
    spec = P.FAMILIES["Tnu"]
    for n in range(0, 21):
        assert P.count_family(spec, n + 1, use_weight=True) == P.count_ady(
            n, distinct=True, allow_zero_part=True
        )


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
