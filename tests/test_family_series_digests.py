"""``family_series`` of every family in every weight mode, pinned at depth as sha256 prefixes.

The catalog compares ``family_series`` with the ``family_gf`` templates only
in the plain mode and in each family's own weight, and only through order 30;
``statistic_counts`` also reads the ``even_parts`` and ``all_parts`` modes.
These pins hold all 32 series (8 families by 4 modes) at orders 400 and 2000.
The digest of a series is the sha256 of its coefficients written in decimal
and joined by commas, cut to 16 hex digits, as in ``test_side_digests.py``.
The pins were computed from the tree at commit
075930bcadefa1e98d8c5588c0b0bcaa357d2abc, before the cell products were
built from the largest smallest part down.

Tier-1 checks order 400.  Run as a script,
``PYTHONPATH=src python tests/test_family_series_digests.py 2000`` checks the
orders it is given and exits 1 on any difference.
"""

import hashlib
import sys

from qplab.partitions import FAMILIES, WEIGHT_MODES, family_series

#: {order: {family: digests in WEIGHT_MODES order}}
PINS = {
    400: {
        "E": ("a86de2ce08676268", "a1eaa84d964db894", "a1eaa84d964db894", "fda9b06013a69b75"),
        "F": ("3043d19edfdd7290", "a86de2ce08676268", "a86de2ce08676268", "1e033cb3ea0cea14"),
        "Tomega": ("4ceca11d723e3b03", "3f470bc714da998e", "3f470bc714da998e", "d341b19e71888207"),
        "Tpsi": ("d2165f756d25e8fb", "28d90a612a37e68a", "28d90a612a37e68a", "cf7a1fe85c307921"),
        "Tnu": ("d7808b8bdeb0082c", "aa90ce4f3a96a242", "6a3889616bc163d8", "638daa16d1a103cd"),
        "A": ("4735e6faea9e8766", "faa90394230b9e0c", "1f14765fa2cfd98f", "1bd2f656d9a77ab9"),
        "B": ("b538aebb0f24601d", "4ad4a421c06076b3", "f5440de568ffd1ac", "7f5b989ec321fb4d"),
        "C": ("f8c370cd3671845d", "bbfb6379a52cc4d8", "85a58890b77aef7e", "aa0601c037a9480d"),
    },
    2000: {
        "E": ("3d555803df36e7f1", "c58d5c59f966a47f", "c58d5c59f966a47f", "44fbf40781a10718"),
        "F": ("755d9a42c3410386", "3d555803df36e7f1", "3d555803df36e7f1", "e42ae0ee644089d1"),
        "Tomega": ("5f2c9ec0b1be576e", "1e3ea4bd3f0abad8", "1e3ea4bd3f0abad8", "8095fe95fc7a5368"),
        "Tpsi": ("d78022e312550b36", "3c21e068f0385240", "3c21e068f0385240", "9982f38cf919b59f"),
        "Tnu": ("127f4df18f998a07", "7905081d834f0885", "66df512580cd63e4", "a07823aec60fe475"),
        "A": ("e4f66fc5479020de", "8559da7479e517df", "d56651209561d9b8", "5ed33f1d16fa9b03"),
        "B": ("7850796e04dd6061", "8512cc232bc3dabb", "fa7de771654d8354", "4c9eafe2302edf78"),
        "C": ("a146c7495bbd81f7", "467b0a951b9c0139", "130bb7a8ef6d94c4", "489b0d921fe6cc02"),
    },
}


def digests(order):
    """{family: digests of family_series at the order, in WEIGHT_MODES order}."""
    return {
        name: tuple(_digest(family_series(spec, order, mode)) for mode in WEIGHT_MODES)
        for name, spec in FAMILIES.items()
    }


def _digest(series) -> str:
    return hashlib.sha256(",".join(map(str, series.coeffs)).encode()).hexdigest()[:16]


def test_the_pins_cover_every_family_and_mode():
    for pins in PINS.values():
        assert list(pins) == list(FAMILIES)
        assert all(len(row) == len(WEIGHT_MODES) for row in pins.values())


def test_every_family_series_matches_its_pins_at_400():
    assert digests(400) == PINS[400]


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        order = int(arg)
        got, want = digests(order), PINS[order]
        wrong = [name for name in want if got[name] != want[name]]
        print(f"order {order}: {len(want) - len(wrong)} of {len(want)} families match their pinned digests")
        for name in wrong:
            print(f"  {name}: {got[name]}, pinned {want[name]}")
        failed = failed or bool(wrong)
    sys.exit(1 if failed else 0)
