"""The series ``registry.verify_all`` compares, pinned side by side as sha256 prefixes.

A passing case's report holds no coefficient, so comparing ``verify --all
--json`` documents cannot see a change that alters both sides of a case
alike.  These digests can.  The digest of a side is the sha256 of its
coefficients through the order the run checked, written in decimal and
joined by commas, cut to 16 hex digits.  The 144 sides are 50 distinct
series.  ``SERIES`` holds each one's digests at each case's default order,
at ``verify_all(200)`` and at ``verify_all(800)``, named after the first
side, in id order, that evaluates to it; ``SIDES`` names the series of each
case's two sides.  The pins were computed from the tree at commit
7c57e1d2fca65ab4bffda098e94f2ab9d2e5922f.

Tier-1 checks the default orders and 200.  Run as a script,
``PYTHONPATH=src python tests/test_side_digests.py 800`` checks the orders it
is given ("default" for the default orders) and exits 1 on any difference.
"""

import hashlib
import sys

import pytest

from qplab import registry

#: the run orders SERIES pins, in the order of its digests
ORDERS = (None, 200, 800)

# each distinct series: its digests at the ORDERS
SERIES = {
    "ady-nu.lhs": ("db3d301c1dc3ab39", "d778ed0620ae284b", "d36382edf7ec049a"),
    "ady-omega.lhs": ("7c8d1e6d57cf044f", "f9f95365614aea37", "c9254e9010101d3a"),
    "basic-even-odd-split.lhs": ("c8b958e1e2be2015", "e19d030322149883", "8cdf88b8ea2da6fb"),
    "chan-mao-specialized.lhs": ("765e97fdc12edc1d", "4891ff1451307499", "97aa036f65d53090"),
    "companion-specialized.lhs": ("4d513e364c59b85a", "278d104732774ac5", "64c7c820752300d3"),
    "cor-2.3-omega-partitions.lhs": ("afa7b10d0ffdac17", "afa7b10d0ffdac17", "afa7b10d0ffdac17"),
    "cor-2.7-nu-partitions.lhs": ("b17ae098d51313bb", "b17ae098d51313bb", "b17ae098d51313bb"),
    "cor-3.7-minus-sign.lhs": ("be7eca6a8b59ef8b", "a40dcf7c936572af", "4df1a7fb08cf43d1"),
    "cor-3.7-minus-sum-form.lhs": ("b707bf5c5cf82497", "9e2b96eca69bb244", "d222924e520a088f"),
    "cor-3.7-plus-sign.lhs": ("486b46c26e5e1b8a", "e8d98eb44da2290c", "e97b80e088a73b9e"),
    "cq-formula-specialized.lhs": ("048eb05f752e5fc3", "68c427438311532c", "0a76f41ef56881a2"),
    "deliberate-mismatch-selftest.rhs": (
        "f4d8e3a1292205e7", "174e18b31481383f", "ae747f0e1cbb516c"
    ),
    "euler-reciprocal.lhs": ("4c0828ecba443d27", "cd81dc4ddbcd859c", "f6bc590bbece9d61"),
    "family-E-product.lhs": ("a25f3b9f34b3738d", "a25f3b9f34b3738d", "a25f3b9f34b3738d"),
    "family-F-product.lhs": ("bc02553446d5429e", "bc02553446d5429e", "bc02553446d5429e"),
    "fine-12.331-omega.lhs": ("128236334f2f485a", "68af1168b7c8e4c4", "bb0457bdd74f1642"),
    "fine-26.85-nu.lhs": ("dbf67ab20a1a2992", "3588c2ff3e403d9d", "7357a6deb84cf27e"),
    "fine-theta-7.324.lhs": ("bdff0fb69fb8fbd7", "0ca8714e341ec964", "06887e9e54084c84"),
    "fine-theta-7.325.lhs": ("06dadd83718066ff", "a89a25d41e5af089", "20168a9423a9f430"),
    "heine-nu.lhs": ("a9159dcb5f5a1311", "6a871bf9cc1ec80f", "702468f8987fa1bd"),
    "heine-omega.lhs": ("e6f08af2dd2c4e18", "4da848b2f0efc110", "ef19166fd7a0dea4"),
    "heine-psi.lhs": ("3695a973a96556c3", "ac551924438d1edd", "b0d257825b80dbb8"),
    "q-gauss-3.2b.lhs": ("a5415b55fda6feef", "37961d48d49de1e9", "3a1544ca5f27d013"),
    "q-gauss-3.4b.lhs": ("65e77b45b6ee881b", "fef64dfd110d83f5", "be74d768fafc9a0f"),
    "q-gauss-3.6b.lhs": ("090426cd054c40f7", "67ce2820088f7560", "60752186254e8a21"),
    "thm-1.2-b.lhs": ("6830d8cd246ae3ac", "6830d8cd246ae3ac", "6830d8cd246ae3ac"),
    "thm-1.2-c.lhs": ("c7261e6387309a93", "c7261e6387309a93", "c7261e6387309a93"),
    "thm-1.2-d.lhs": ("9d6e149a63cd1c66", "9d6e149a63cd1c66", "9d6e149a63cd1c66"),
    "thm-1.2-e.lhs": ("a1299b9961a2f251", "a1299b9961a2f251", "a1299b9961a2f251"),
    "thm-2.6-nu.lhs": ("eb56d40877cbbd98", "2db1a040182197e0", "290b2c4095899c5a"),
    "thm-3.2-a.lhs": ("a512a3c549e3ed3d", "bc53568723dfd828", "3c1a665ce9bd8ae5"),
    "thm-3.2-a-sum-form.lhs": ("90dda5231d72445f", "8d7cab47203d1875", "c6693cc5a98d3723"),
    "thm-3.2-b.lhs": ("5eb4e172c24f49f3", "bb8f1c803035afb3", "fbb6c6e80a6fb356"),
    "thm-3.4-a.lhs": ("a6b00a3d4f62b8cc", "d52551a13083fb18", "81aa38863816033e"),
    "thm-3.4-a-sum-form.lhs": ("965cb6284a05c18f", "a6165805528b6177", "0a1897ecfdb4b5de"),
    "thm-3.4-b.lhs": ("ac131fd1ef501529", "93be8e1405d6a4a8", "973293e78b14a572"),
    "thm-3.6-a.lhs": ("679b01efcdd0edf7", "a2ced0a1a59a15f2", "1f5da4b3a811bd6d"),
    "thm-3.6-a-sum-form.lhs": ("1893e0fabb6d6991", "3b7237329535392c", "6593eb19fb188ef6"),
    "thm-3.6-b.lhs": ("fe553c8cfb495dbc", "1453df39ea7b4c15", "d623dca82a86e21d"),
    "xcheck-A-signed.lhs": ("4b6b081604862776", "4b6b081604862776", "4b6b081604862776"),
    "xcheck-A-unsigned.lhs": ("0cb4318fb0652d4f", "0cb4318fb0652d4f", "0cb4318fb0652d4f"),
    "xcheck-B-signed.lhs": ("a449e9cecf85a92d", "a449e9cecf85a92d", "a449e9cecf85a92d"),
    "xcheck-B-unsigned.lhs": ("a605b9254c40eb8c", "a605b9254c40eb8c", "a605b9254c40eb8c"),
    "xcheck-C-signed.lhs": ("8779753b7e4983be", "8779753b7e4983be", "8779753b7e4983be"),
    "xcheck-C-unsigned.lhs": ("283298cf5700d118", "283298cf5700d118", "283298cf5700d118"),
    "xcheck-E-signed.lhs": ("c6166c398040540b", "c6166c398040540b", "c6166c398040540b"),
    "xcheck-Tnu-unsigned.lhs": ("87db89d05924797e", "87db89d05924797e", "87db89d05924797e"),
    "xcheck-Tomega-unsigned.lhs": ("b54fd8ccea8f398c", "b54fd8ccea8f398c", "b54fd8ccea8f398c"),
    "xcheck-Tpsi-signed.lhs": ("e88a77a76681bc1e", "e88a77a76681bc1e", "e88a77a76681bc1e"),
    "xcheck-Tpsi-unsigned.lhs": ("73a3c83facd15ec5", "73a3c83facd15ec5", "73a3c83facd15ec5"),
}

# the series of each case's left and right side
SIDES = {
    "ady-nu": ("ady-nu.lhs", "ady-nu.lhs"),
    "ady-nu-template": ("ady-nu.lhs", "ady-nu.lhs"),
    "ady-omega": ("ady-omega.lhs", "ady-omega.lhs"),
    "ady-omega-template": ("ady-omega.lhs", "ady-omega.lhs"),
    "basic-even-odd-split": ("basic-even-odd-split.lhs", "basic-even-odd-split.lhs"),
    "basic-split-finite": ("basic-even-odd-split.lhs", "basic-even-odd-split.lhs"),
    "chan-mao-specialized": ("chan-mao-specialized.lhs", "chan-mao-specialized.lhs"),
    "companion-specialized": ("companion-specialized.lhs", "companion-specialized.lhs"),
    "cor-2.3-omega-partitions": ("cor-2.3-omega-partitions.lhs", "cor-2.3-omega-partitions.lhs"),
    "cor-2.7-nu-partitions": ("cor-2.7-nu-partitions.lhs", "cor-2.7-nu-partitions.lhs"),
    "cor-3.7-minus-sign": ("cor-3.7-minus-sign.lhs", "cor-3.7-minus-sign.lhs"),
    "cor-3.7-minus-sign-combined": ("cor-3.7-minus-sign.lhs", "cor-3.7-minus-sign.lhs"),
    "cor-3.7-minus-sum-form": ("cor-3.7-minus-sum-form.lhs", "cor-3.7-minus-sum-form.lhs"),
    "cor-3.7-plus-sign": ("cor-3.7-plus-sign.lhs", "cor-3.7-plus-sign.lhs"),
    "cor-3.7-plus-sign-combined": ("cor-3.7-plus-sign.lhs", "cor-3.7-plus-sign.lhs"),
    "cor-3.7-plus-sum-form": ("cor-3.7-plus-sign.lhs", "cor-3.7-plus-sign.lhs"),
    "cq-formula-specialized": ("cq-formula-specialized.lhs", "cq-formula-specialized.lhs"),
    "deliberate-mismatch-selftest": ("ady-omega.lhs", "deliberate-mismatch-selftest.rhs"),
    "euler-reciprocal": ("euler-reciprocal.lhs", "euler-reciprocal.lhs"),
    "family-E-product": ("family-E-product.lhs", "family-E-product.lhs"),
    "family-F-product": ("family-F-product.lhs", "family-F-product.lhs"),
    "fine-12.331-omega": ("fine-12.331-omega.lhs", "fine-12.331-omega.lhs"),
    "fine-26.53-psi": ("deliberate-mismatch-selftest.rhs", "deliberate-mismatch-selftest.rhs"),
    "fine-26.85-nu": ("fine-26.85-nu.lhs", "fine-26.85-nu.lhs"),
    "fine-theta-7.324": ("fine-theta-7.324.lhs", "fine-theta-7.324.lhs"),
    "fine-theta-7.325": ("fine-theta-7.325.lhs", "fine-theta-7.325.lhs"),
    "heine-nu": ("heine-nu.lhs", "heine-nu.lhs"),
    "heine-omega": ("heine-omega.lhs", "heine-omega.lhs"),
    "heine-psi": ("heine-psi.lhs", "heine-psi.lhs"),
    "nu-negation-consistency": ("ady-nu.lhs", "ady-nu.lhs"),
    "overpartition-all-product": ("family-F-product.lhs", "family-F-product.lhs"),
    "overpartition-odd-product": ("family-E-product.lhs", "family-E-product.lhs"),
    "q-gauss-3.2b": ("q-gauss-3.2b.lhs", "q-gauss-3.2b.lhs"),
    "q-gauss-3.4b": ("q-gauss-3.4b.lhs", "q-gauss-3.4b.lhs"),
    "q-gauss-3.6b": ("q-gauss-3.6b.lhs", "q-gauss-3.6b.lhs"),
    "remark-9.1-F-overpartitions": ("family-F-product.lhs", "family-F-product.lhs"),
    "thm-1.2-a": ("family-E-product.lhs", "family-E-product.lhs"),
    "thm-1.2-b": ("thm-1.2-b.lhs", "thm-1.2-b.lhs"),
    "thm-1.2-c": ("thm-1.2-c.lhs", "thm-1.2-c.lhs"),
    "thm-1.2-d": ("thm-1.2-d.lhs", "thm-1.2-d.lhs"),
    "thm-1.2-e": ("thm-1.2-e.lhs", "thm-1.2-e.lhs"),
    "thm-2.2-omega": ("ady-omega.lhs", "ady-omega.lhs"),
    "thm-2.4-psi": ("deliberate-mismatch-selftest.rhs", "deliberate-mismatch-selftest.rhs"),
    "thm-2.6-nu": ("thm-2.6-nu.lhs", "thm-2.6-nu.lhs"),
    "thm-3.2-a": ("thm-3.2-a.lhs", "thm-3.2-a.lhs"),
    "thm-3.2-a-sum-form": ("thm-3.2-a-sum-form.lhs", "thm-3.2-a-sum-form.lhs"),
    "thm-3.2-b": ("thm-3.2-b.lhs", "thm-3.2-b.lhs"),
    "thm-3.2-b-sum-form": ("thm-3.2-b.lhs", "thm-3.2-b.lhs"),
    "thm-3.4-a": ("thm-3.4-a.lhs", "thm-3.4-a.lhs"),
    "thm-3.4-a-sum-form": ("thm-3.4-a-sum-form.lhs", "thm-3.4-a-sum-form.lhs"),
    "thm-3.4-b": ("thm-3.4-b.lhs", "thm-3.4-b.lhs"),
    "thm-3.4-b-sum-form": ("thm-3.4-b.lhs", "thm-3.4-b.lhs"),
    "thm-3.6-a": ("thm-3.6-a.lhs", "thm-3.6-a.lhs"),
    "thm-3.6-a-sum-form": ("thm-3.6-a-sum-form.lhs", "thm-3.6-a-sum-form.lhs"),
    "thm-3.6-b": ("thm-3.6-b.lhs", "thm-3.6-b.lhs"),
    "thm-3.6-b-sum-form": ("thm-3.6-b.lhs", "thm-3.6-b.lhs"),
    "xcheck-A-signed": ("xcheck-A-signed.lhs", "xcheck-A-signed.lhs"),
    "xcheck-A-unsigned": ("xcheck-A-unsigned.lhs", "xcheck-A-unsigned.lhs"),
    "xcheck-B-signed": ("xcheck-B-signed.lhs", "xcheck-B-signed.lhs"),
    "xcheck-B-unsigned": ("xcheck-B-unsigned.lhs", "xcheck-B-unsigned.lhs"),
    "xcheck-C-signed": ("xcheck-C-signed.lhs", "xcheck-C-signed.lhs"),
    "xcheck-C-unsigned": ("xcheck-C-unsigned.lhs", "xcheck-C-unsigned.lhs"),
    "xcheck-E-signed": ("xcheck-E-signed.lhs", "xcheck-E-signed.lhs"),
    "xcheck-E-unsigned": ("family-E-product.lhs", "family-E-product.lhs"),
    "xcheck-F-signed": ("family-E-product.lhs", "family-E-product.lhs"),
    "xcheck-F-unsigned": ("family-F-product.lhs", "family-F-product.lhs"),
    "xcheck-Tnu-signed": ("cor-2.7-nu-partitions.lhs", "cor-2.7-nu-partitions.lhs"),
    "xcheck-Tnu-unsigned": ("xcheck-Tnu-unsigned.lhs", "xcheck-Tnu-unsigned.lhs"),
    "xcheck-Tomega-signed": ("cor-2.3-omega-partitions.lhs", "cor-2.3-omega-partitions.lhs"),
    "xcheck-Tomega-unsigned": ("xcheck-Tomega-unsigned.lhs", "xcheck-Tomega-unsigned.lhs"),
    "xcheck-Tpsi-signed": ("xcheck-Tpsi-signed.lhs", "xcheck-Tpsi-signed.lhs"),
    "xcheck-Tpsi-unsigned": ("xcheck-Tpsi-unsigned.lhs", "xcheck-Tpsi-unsigned.lhs"),
}


def side_digests(order):
    """{case id: (lhs digest, rhs digest)} of the series ``verify_all(order)`` compares."""
    compared = []
    equal_up_to = registry.equal_up_to

    def capture(lhs, rhs, n):
        compared.append((lhs, rhs))
        return equal_up_to(lhs, rhs, n)

    registry.equal_up_to = capture
    try:
        reports = registry.verify_all(order)
    finally:
        registry.equal_up_to = equal_up_to
    return {
        report.id: tuple(_digest(side) for side in sides)
        for report, sides in zip(reports, compared, strict=True)
    }


def _digest(series) -> str:
    return hashlib.sha256(",".join(map(str, series.coeffs)).encode()).hexdigest()[:16]


def pinned(order):
    """{case id: (lhs digest, rhs digest)} that SERIES and SIDES pin at the run order."""
    at = ORDERS.index(order)
    return {case_id: (SERIES[lhs][at], SERIES[rhs][at]) for case_id, (lhs, rhs) in SIDES.items()}


def test_the_tables_cover_the_catalog_and_name_each_series_once():
    assert list(SIDES) == [case.id for case in registry.CATALOG]
    used = {name for pair in SIDES.values() for name in pair}
    assert used == set(SERIES) and len(SERIES) == 50
    for at in range(len(ORDERS)):
        assert len({digests[at] for digests in SERIES.values()}) == len(SERIES)


@pytest.mark.parametrize("order", ORDERS[:2], ids=["default", "200"])
def test_every_side_evaluates_to_its_pinned_series(order):
    assert side_digests(order) == pinned(order)


if __name__ == "__main__":
    failed = False
    for arg in sys.argv[1:]:
        order = None if arg == "default" else int(arg)
        got, want = side_digests(order), pinned(order)
        wrong = [case_id for case_id in want if got.get(case_id) != want[case_id]]
        print(f"order {arg}: {len(want) - len(wrong)} of {len(want)} cases match their pinned digests")
        for case_id in wrong:
            print(f"  {case_id}: {got.get(case_id)}, pinned {want[case_id]}")
        failed = failed or bool(wrong) or set(got) != set(want)
    sys.exit(1 if failed else 0)
