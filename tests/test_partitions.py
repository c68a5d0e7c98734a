import ast
import gc
import os
import re
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
from records import replace

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
    # the listing keeps its rank keys without sorting any parts: each
    # partition must equal the one the sorting constructor builds from the
    # same parts, and the listing must ascend in the canonical order, here
    # spelled from the parts themselves: larger value first, blue before green
    spec = P.FAMILIES[name]
    for n in range(0, 17):
        members = P.enumerate_family(spec, n)
        for p in members:
            rebuilt = P.TwoColorPartition(list(reversed(p.parts)))
            assert rebuilt == p and rebuilt.parts == p.parts, f"{name} at n={n}: {p}"
        keys = [tuple((-q.value, q.color != P.BLUE) for q in p.parts) for p in members]
        assert all(a < b for a, b in zip(keys, keys[1:])), f"{name} at n={n}"
    assert members == P.enumerate_family(spec, 16)


FILTERS = [(color, parity) for color in (None, P.BLUE, P.GREEN) for parity in (None, P.ODD, P.EVEN)]


def readings(partition):
    return (
        hash(partition),
        repr(partition),
        partition.text(),
        [partition.count(color, parity) for color, parity in FILTERS],
    )


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_listed_and_constructed_partitions_agree(name):
    # a listed partition reads its parts and names from the call's table; a
    # constructed one from a table of its own: every reading must agree
    spec = P.FAMILIES[name]
    for n in range(0, 17):
        shared = {}
        for p in P.enumerate_family(spec, n):
            q = P.TwoColorPartition(reversed(p.parts))
            assert p == q and readings(p) == readings(q), f"{name} at n={n}: {p}"
            assert p.text() == "+".join(map(str, p.parts))
            for part in p.parts:
                assert shared.setdefault((part.value, part.color), part) is part
        assert len(shared) <= 2 * n


def test_constructed_partitions_with_repeated_parts_and_none():
    b3, g1 = P.ColoredPart(3, "b"), P.ColoredPart(1, "g")
    p = P.TwoColorPartition([g1, b3, P.ColoredPart(1, "g"), b3])
    assert p.parts == (b3, b3, g1, g1)
    assert p.text() == "3b+3b+1g+1g" and repr(p) == "TwoColorPartition(3b+3b+1g+1g)"
    assert (p.count(), p.count(P.GREEN), p.count(parity=P.ODD), p.count(P.BLUE, P.EVEN)) == (4, 2, 4, 0)
    assert p == P.TwoColorPartition(reversed(p.parts)) and hash(p) == hash(P.TwoColorPartition(p.parts))
    empty = P.TwoColorPartition([])
    assert empty.parts == () and empty.text() == "" and empty.count() == 0
    assert repr(empty) == "TwoColorPartition(empty)"
    listed = P.enumerate_family(P.FAMILIES["E"], 0)
    assert listed == [empty] and readings(listed[0]) == readings(empty)
    assert p != empty and p != p.parts


def test_partitions_of_different_n_with_the_same_key_differ():
    # both are the single part of rank 0 among the parts of their n, so
    # they differ only in n, and so should their hashes
    one, two = P.TwoColorPartition([P.ColoredPart(1, "b")]), P.TwoColorPartition([P.ColoredPart(2, "b")])
    assert one != two and hash(one) != hash(two) and len({one, two}) == 2
    assert one == P.enumerate_family(P.FAMILIES["F"], 1)[0]
    assert two == P.enumerate_family(P.FAMILIES["F"], 2)[0]


def test_listed_keys_are_strings_the_garbage_collector_never_tracks():
    for name, spec in P.FAMILIES.items():
        members = P.enumerate_family(spec, 14)
        assert members, name
        assert all(type(p._key) is str and not gc.is_tracked(p._key) for p in members), name


def _from_text(text):
    return P.TwoColorPartition(P.ColoredPart(int(t[:-1]), t[-1]) for t in text.split("+"))


@pytest.mark.parametrize("n, texts", [
    # ranks past 255 widen the key beyond one byte per letter
    (300, ["299b+1g", "299g+1b", "150b+150g", "298b+1b+1g", "200g+99b+1b", "297b+2b+1g", "151g+149g"]),
    # ranks 55,296-57,343 are the code points of the surrogate block
    (28000, ["27999b+1g", "27999g+1b", "27700b+300g", "14000b+14000g", "27000b+999g+1b", "27998b+1b+1g"]),
])
def test_constructed_partitions_with_far_ranks_keep_their_order_and_text(n, texts):
    members = [_from_text(t) for t in texts]
    assert all(sum(q.value for q in p.parts) == n for p in members)
    letters = "".join(p._key for p in members)
    assert max(map(ord, letters)) > 255
    if n == 28000:
        assert any(0xD800 <= ord(c) <= 0xDFFF for c in letters)
    by_key = sorted(members, key=lambda p: p._key)
    spelled = sorted(members, key=lambda p: tuple((-q.value, q.color != P.BLUE) for q in p.parts))
    assert by_key == spelled and [p.text() for p in by_key] == [p.text() for p in spelled]
    for p, text in zip(members, texts):
        rebuilt = P.TwoColorPartition(list(reversed(p.parts)))
        assert rebuilt == p and hash(rebuilt) == hash(p) and rebuilt.parts == p.parts
        assert p.text() == text and _from_text(p.text()) == p


def test_a_rank_past_the_last_code_point_is_refused():
    # 1b of 557,057 has rank 2 * 557,056 = 0x110000; 1g of 557,056 has the last code point
    with pytest.raises(P.PartitionError) as refused:
        P.TwoColorPartition([P.ColoredPart(557056, "b"), P.ColoredPart(1, "b")])
    assert str(refused.value) == (
        "part 1b of a partition of 557057 has rank 1114112, past the last code point 0x10FFFF"
    )
    last = _from_text("557055b+1g")
    assert max(map(ord, last._key)) == 0x10FFFF and last.text() == "557055b+1g"


def test_count_rejects_unknown_filters():
    p = P.TwoColorPartition([P.ColoredPart(3, "b"), P.ColoredPart(2, "b")])
    for color, parity in (("blue", None), ("r", None), (None, "Odd"), (None, "zero"), ("b", "even ")):
        with pytest.raises(P.PartitionError):
            p.count(color, parity)
    with pytest.raises(P.PartitionError):
        P.TwoColorPartition([]).count("blue")


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_statistic_counts_match_the_listing(name):
    # X0, X1 split by the parity of the number of even parts, X2, X3 by the
    # parity of the number of parts, as counted on the listed partitions
    spec = P.FAMILIES[name]
    for n in range(0, 17):
        x = [0] * 4
        for p in P.enumerate_family(spec, n):
            x[p.count(parity=P.EVEN) % 2] += 1
            x[2 + len(p.parts) % 2] += 1
        assert P.statistic_counts(spec, n) == tuple(x), f"{name} at n={n}"


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


#: (distinct, allow_zero_part) of each kind of bounded-odd partition
ADY_KINDS = ((False, False), (True, False), (True, True))


@pytest.mark.parametrize("distinct, allow_zero_part", ADY_KINDS)
def test_ady_count_is_the_table_entry_for_every_n_through_200(distinct, allow_zero_part):
    table = P.ady_counts(200, distinct, allow_zero_part)
    assert [P.count_ady(n, distinct, allow_zero_part) for n in range(201)] == table


def _ady_kernel_calls(monkeypatch, count, *args):
    """The (kernel, c, e, top) of each binomial kernel call that count(*args) makes."""
    calls = []
    for name in ("imul_one_minus", "idiv_one_minus"):
        def record(coeffs, c, e, top, *rest, name=name, kernel=getattr(P, name)):
            calls.append((name, c, e, top))
            return kernel(coeffs, c, e, top, *rest)

        monkeypatch.setattr(P, name, record)
    count(*args)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("distinct, allow_zero_part", ADY_KINDS)
def test_ady_count_and_table_make_the_same_kernel_calls(monkeypatch, distinct, allow_zero_part):
    # one walk of the recurrence serves both, so the count keeps no copy of it
    for n in [*range(41), 120]:
        args = (n, distinct, allow_zero_part)
        calls = _ady_kernel_calls(monkeypatch, P.count_ady, *args)
        assert calls == _ady_kernel_calls(monkeypatch, P.ady_counts, *args), n
        assert n < 2 or calls


def ady_differences(order: int) -> list[str]:
    """Each count_ady at a handful of n <= order that differs from Watson's sums.

    count_ady(n, False) is [q^n] q*omega(q) and count_ady(n, True, True) is
    [q^n] nu(-q), both read off `mocktheta`'s defining sums through q^order.
    """
    q_omega = [0, *omega(order).coeffs]
    nu_at_minus_q = nu(order, sign=-1).coeffs
    picked = sorted({n for n in (0, 1, 2, 3, 10, 100, 1000, order // 2, order - 1, order)
                     if 0 <= n <= order})
    wrong = []
    for n in picked:
        if P.count_ady(n, False) != q_omega[n]:
            wrong.append(f"count_ady({n}, False) != [q^{n}] q*omega(q)")
        if P.count_ady(n, True, True) != nu_at_minus_q[n]:
            wrong.append(f"count_ady({n}, True, True) != [q^{n}] nu(-q)")
    return wrong


def test_ady_counts_match_watson_sums_at_a_handful_of_n():
    assert ady_differences(400) == []


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
    copy = replace(spec)
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


@pytest.mark.parametrize("build, message", [
    (lambda: P.Cell("r", P.ODD), "unknown color 'r'"),
    (lambda: P.Cell(P.BLUE, "odds"), "unknown parity 'odds'"),
    (lambda: P.FamilySpec("X", ("r",), (P.Cell(P.BLUE, P.ODD),)), "unknown anchor color 'r'"),
    # listed and counted, such a cell would reach below the smallest part
    (lambda: P.Cell(P.BLUE, P.ODD, min_offset=-2), "negative min_offset -2"),
    # listed, it puts the odd part 1 in an even cell
    (lambda: P.FamilySpec("X", (P.BLUE,), (P.Cell(P.GREEN, P.EVEN),)),
     "cell g even: min_offset 0 starts it at the other parity"),
    (lambda: P.FamilySpec("X", (P.BLUE,), (P.Cell(P.BLUE, P.ODD, min_offset=1),)),
     "cell b odd: min_offset 1 starts it at the other parity"),
    # listed, its parts count once; counted, each cell contributes a factor
    (lambda: P.FamilySpec("X", (), (P.Cell(P.BLUE, P.ODD), P.Cell(P.BLUE, P.ODD, True))),
     "two cells of color 'b' and parity 'odd'"),
    (lambda: P.FamilySpec("X", (), (P.Cell(P.BLUE, P.ODD),), "odd_parts"),
     "unknown weight mode 'odd_parts'"),
], ids=["color", "parity", "anchor", "negative-offset", "even-offset-parity",
        "odd-offset-parity", "duplicate-cell", "weight"])
def test_a_spec_outside_the_docstrings_is_refused(build, message):
    with pytest.raises(P.PartitionError, match=f"^{re.escape(message)}$"):
        build()


def test_a_repeated_anchor_color_is_a_family():
    # the smallest part held twice in blue: listing and counts agree
    spec = P.FamilySpec("X", (P.BLUE, P.BLUE), (P.Cell(P.BLUE, P.ODD), P.Cell(P.GREEN, P.EVEN, True, 1)))
    counts = P.family_series(spec, 14).coeffs
    assert [len(P.enumerate_family(spec, n)) for n in range(15)] == list(counts)
    assert counts[2] == 1 and any(counts[3:])


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


if __name__ == "__main__":
    # python tests/test_partitions.py ORDER...: count_ady against Watson's sums
    failed = False
    for arg in sys.argv[1:]:
        order = int(arg)
        start = time.perf_counter()
        wrong = ady_differences(order)
        took = time.perf_counter() - start
        print(f"count_ady through n = {order} against Watson's sums: {len(wrong)} differences ({took:.2f} s)")
        for line in wrong:
            print(f"  {line}")
        failed = failed or bool(wrong)
    sys.exit(1 if failed else 0)
