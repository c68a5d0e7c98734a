import hashlib
import json
import math
import sys
import time

import pytest

from qplab import partitions, registry
from qplab.cli import main
from qplab.registry import IdentityReport
from qplab.series import Comparison

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# verify

def test_verify_single_json(capsys):
    code, out, _ = run(capsys, "verify", "--id", "thm-1.2-a", "--order", "30", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["id"] == "thm-1.2-a"
    assert doc["status"] == "pass"
    assert doc["order"] == 30
    assert doc["mismatch"] is None


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--id", "nosuch")
    assert code == 2
    assert "unknown identity id" in err


def test_verify_invalid_order(capsys):
    code, _, err = run(capsys, "verify", "--all", "--order", "0")
    assert code == 2
    assert "--order" in err


def test_verify_requires_id_or_all(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 2


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--order", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(1 for l in lines if l.startswith("PASS")) >= 40
    assert any(l.startswith("XFAIL") for l in lines)
    assert "expected mismatch" in lines[-1]


def test_verify_all_json_round_trips(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--order", "8", "--json")
    assert code == 0
    docs = json.loads(out)
    reports = {r.id: r for r in registry.verify_all(8)}
    assert len(docs) == len(reports)
    for doc in docs:
        r = reports[doc["id"]]
        assert doc["order"] == r.order_checked
        assert doc["status"] == r.status
        if r.mismatch is None:
            assert doc["mismatch"] is None
        else:
            assert doc["mismatch"] == {
                "n": r.mismatch.index,
                "lhs": str(r.mismatch.lhs),
                "rhs": str(r.mismatch.rhs),
            }


def test_verify_control_alone_is_expected(capsys):
    code, out, _ = run(capsys, "verify", "--id", registry.NEGATIVE_CONTROL_ID)
    assert code == 0
    assert "XFAIL" in out and "expected" in out


def test_verify_exit_one_on_real_mismatch(capsys, monkeypatch):
    fake = IdentityReport("euler-reciprocal", 10, Comparison(False, 3, 1, 2))
    monkeypatch.setattr(registry, "verify_all", lambda order=None: [fake])
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 1
    assert "FAIL" in out
    first, summary = out.splitlines()
    assert first.startswith("FAIL") and first.endswith("  mismatch at n=3: lhs=1 rhs=2")
    assert summary == "0 passed, 1 failed"


def test_verify_exit_one_if_control_unexpectedly_passes(capsys, monkeypatch):
    fake = IdentityReport(registry.NEGATIVE_CONTROL_ID, 10)
    monkeypatch.setattr(registry, "verify_all", lambda order=None: [fake])
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL")
    assert lines[-1] == "0 passed, 1 failed"


def _verify_all_digest(capsys, *order):
    code, out, _ = run(capsys, "verify", "--all", "--json", *order)
    assert code == 0
    docs = json.loads(out)
    for doc in docs:
        del doc["elapsed_ms"]
    return hashlib.sha256(json.dumps(docs, indent=2).encode()).hexdigest()[:16]


def test_verify_all_json_matches_pinned_output(capsys):
    # sha256 of the whole report document at the default orders, with the
    # timing field removed: pins every id, order, status, mismatch and note
    assert _verify_all_digest(capsys) == "1fe2efad9a1ca883"


def test_verify_all_json_matches_pinned_output_at_order_200(capsys):
    # the same document at order 200, where the product sides are long and
    # each enumeration-backed case notes its clamp to its default order
    assert _verify_all_digest(capsys, "--order", "200") == "e6864d730d8e6f52"


# ----------------------------------------------------------------------
# coeffs

def test_coeffs_omega(capsys):
    code, out, _ = run(capsys, "coeffs", "--target", "omega", "--order", "5")
    assert code == 0
    assert out.strip() == "1,2,3,4,6,8"


def test_coeffs_theta(capsys):
    code, out, _ = run(capsys, "coeffs", "--target", "theta", "--order", "4")
    assert code == 0
    assert out.strip() == "1,2,0,0,2"


def test_coeffs_family_signed(capsys):
    code, out, _ = run(capsys, "coeffs", "--target", "family:A:signed", "--order", "8")
    assert code == 0
    assert out.strip() == "0,1,2,3,4,5,6,7,8"


def test_coeffs_rational(capsys):
    code, out, _ = run(
        capsys,
        "coeffs",
        "--target",
        "rational:q^2*(1+q)/((1-q)*(1-q^3)^2)",
        "--order",
        "6",
    )
    assert code == 0
    assert out.strip() == "0,0,1,2,2,4,6"


def test_coeffs_rational_negative_power(capsys):
    code, out, _ = run(capsys, "coeffs", "--target", "rational:q*(1-q)^-2", "--order", "6")
    assert code == 0
    assert out.strip() == "0,1,2,3,4,5,6"


def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "--target", "psi", "--order", "3", "--csv")
    assert code == 0
    assert out.splitlines() == ["n,coefficient", "0,0", "1,1", "2,1", "3,1"]


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--target", "nu-neg", "--order", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "target": "nu-neg",
        "order": 3,
        "coefficients": ["1", "1", "2", "2"],
    }


def test_coeffs_unknown_target(capsys):
    code, _, err = run(capsys, "coeffs", "--target", "zeta", "--order", "4")
    assert code == 2
    assert "unknown coefficient target" in err


def test_coeffs_unknown_family(capsys):
    code, _, err = run(capsys, "coeffs", "--target", "family:Z", "--order", "4")
    assert code == 2
    assert "unknown family" in err


def test_coeffs_bad_rational(capsys):
    code, _, err = run(capsys, "coeffs", "--target", "rational:q/(2+q)", "--order", "4")
    assert code == 2
    assert "invert" in err


@pytest.mark.parametrize(
    "expression",
    [
        "q^",
        "q^-",
        "(" * 3000 + "q" + ")" * 3000,
        "9" * 5000,
        "(1+q)^",
        "q*",
        "",
        "9^99999",
    ],
    ids=[
        "missing-exponent",
        "missing-negative-exponent",
        "3000-nested-parentheses",
        "5000-digit-literal",
        "missing-exponent-after-group",
        "missing-operand",
        "empty",
        "coefficient-too-long-to-print",
    ],
)
def test_coeffs_bad_rational_exits_two(capsys, expression):
    code, out, err = run(capsys, "coeffs", "--target", "rational:" + expression, "--order", "3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("order", [10**15, 10**19])
@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--target", "theta", "--order"),
        ("verify", "--id", "thm-2.4-psi", "--order"),
        ("verify", "--all", "--order"),
        ("enum", "--family", "E", "--n"),
        ("enum", "--family", "Tnu", "--stats", "--n"),
    ],
    ids=["coeffs", "verify-id", "verify-all", "enum", "enum-stats"],
)
def test_order_too_large_for_memory_exits_two(capsys, argv, order):
    # 8 * 10^15 bytes of coefficients exceed the address space, so the
    # evaluation fails at its first allocation
    code, out, err = run(capsys, *argv, str(order))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: order {order} is too large to evaluate in memory"]


def test_coeffs_huge_power_is_fast(capsys):
    k = 99999999
    start = time.perf_counter()
    code, out, _ = run(capsys, "coeffs", "--target", f"rational:(1+q)^{k}", "--order", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.strip() == f"1,{k},{math.comb(k, 2)},{math.comb(k, 3)}"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter prints integers of any length",
)
@pytest.mark.parametrize("expression", ["2^999999999", "(2+q)^99999999", "(1/(1-q)+2)^10000000"])
def test_coeffs_unprintable_power_is_refused_fast(capsys, expression):
    # the constant term c0^k would have more digits than the interpreter prints
    start = time.perf_counter()
    code, out, err = run(capsys, "coeffs", "--target", "rational:" + expression, "--order", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_coeffs_largest_printable_power(capsys):
    # 3^9000 has 4295 digits, within the default limit of 4300
    code, out, _ = run(capsys, "coeffs", "--target", "rational:3^9000", "--order", "0")
    assert code == 0
    assert out.strip() == str(3**9000)


def test_coeffs_power_of_q_past_the_order_is_zero(capsys):
    code, out, _ = run(capsys, "coeffs", "--target", "rational:2+q^99999999999999", "--order", "3")
    assert code == 0
    assert out.strip() == "2,0,0,0"


def _binomial_power(sign, exponent, power, order):
    """(1 + sign*q^exponent)^power by the binomial theorem; power may be negative."""
    out = [0] * (order + 1)
    for j in range(order // exponent + 1):
        if power >= 0:
            out[j * exponent] = math.comb(power, j) * sign**j
        else:
            out[j * exponent] = math.comb(-power + j - 1, j) * (-sign) ** j
    return out


def test_coeffs_large_rational_powers(capsys):
    # binary powering squares dense (1-q)^k and multiplies it by the sparse
    # (1+q^2)^k and 1/(1-q^3)^50, so both product paths meet coefficients of
    # about a thousand bits
    order = 400
    code, out, _ = run(
        capsys, "coeffs", "--target", "rational:(1-q)^1200*(1+q^2)^800/(1-q^3)^50",
        "--order", str(order), "--csv",
    )
    assert code == 0
    expected = oracles.p_mul(
        oracles.p_mul(_binomial_power(-1, 1, 1200, order), _binomial_power(1, 2, 800, order)),
        _binomial_power(-1, 3, -50, order),
    )
    assert out.splitlines() == ["n,coefficient"] + [f"{n},{c}" for n, c in enumerate(expected)]


# ----------------------------------------------------------------------
# enum

def test_enum_listing_matches_worked_example(capsys):
    code, out, _ = run(capsys, "enum", "--family", "E", "--n", "4", "--list", "--stats")
    assert code == 0
    assert out.splitlines() == [
        "family E n=4",
        "count 6",
        "weighted 2",
        "E0=4 E1=2 E2=4 E3=2",
        "4b",
        "3b+1b",
        "3b+1g",
        "3g+1b",
        "3g+1g",
        "2b+1b+1g",
    ]


@pytest.mark.parametrize("family, tables", [("E", 3), ("Tnu", 4)])
def test_enum_stats_builds_each_table_once(capsys, monkeypatch, family, tables):
    # the plain and even-parts counts come from the split counts; only
    # Tnu's even-blue-parts weight needs a table of its own
    _, plain, _ = run(capsys, "enum", "--family", family, "--n", "12")
    modes = []
    inner = partitions.family_series

    def counted(spec, n, mode, *rest):
        modes.append(mode)
        return inner(spec, n, mode, *rest)

    monkeypatch.setattr(partitions, "family_series", counted)
    code, out, _ = run(capsys, "enum", "--family", family, "--n", "12", "--stats")
    assert code == 0
    assert out.splitlines()[:3] == plain.splitlines()
    assert len(modes) == len(set(modes)) == tables


# sha256 of the whole `enum --family <F> --n 14 --list` output: pins the
# listing's content and its canonical order
PINNED_LISTING_14 = {
    "E": "97d5f402a0e71161",
    "F": "6317ebb210542767",
    "Tomega": "943149f5d2578287",
    "Tpsi": "272a9c7b589cade7",
    "Tnu": "032f380f7e1d38a8",
    "A": "385e6f8bd08332ab",
    "B": "303b4732f181c8b3",
    "C": "37967dba5a178b45",
}


@pytest.mark.parametrize("family", PINNED_LISTING_14)
def test_enum_listing_matches_pinned_output_at_n_14(capsys, family):
    code, out, _ = run(capsys, "enum", "--family", family, "--n", "14", "--list")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == PINNED_LISTING_14[family]


# the same digest at the benchmark's n = 20
PINNED_LISTING_20 = {
    "E": "2922858450927bc3",
    "F": "fdce8762b97c1a4f",
    "Tomega": "b2e3c2210fa74656",
    "Tpsi": "01b28ba6c1becf86",
    "Tnu": "7ab2f43e1d53f31b",
    "A": "f91e90c85d1ac665",
    "B": "7989bde803266bc7",
    "C": "d13b1a4763b2dcb9",
}


@pytest.mark.parametrize("family", PINNED_LISTING_20)
def test_enum_listing_matches_pinned_output_at_n_20(capsys, family):
    code, out, _ = run(capsys, "enum", "--family", family, "--n", "20", "--list")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == PINNED_LISTING_20[family]


def test_enum_anchored_family_at_zero(capsys):
    code, out, _ = run(capsys, "enum", "--family", "A", "--n", "0")
    assert code == 0
    assert "count 0" in out


def test_enum_unknown_family(capsys):
    code, _, err = run(capsys, "enum", "--family", "Z", "--n", "3")
    assert code == 2
    assert "unknown family" in err


def test_enum_over_budget(capsys):
    # only the listing is held to the enumeration budget, before any output
    code, out, err = run(capsys, "enum", "--family", "E", "--n", "31", "--list")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --n must lie in 0..30 with --list"]


@pytest.mark.parametrize("family", partitions.FAMILIES)
def test_enum_counts_past_the_budget_match_the_templates(capsys, family):
    expected = []
    for label, target in (("count", f"family:{family}"), ("weighted", f"family:{family}:signed")):
        _, coeffs, _ = run(capsys, "coeffs", "--target", target, "--order", "60")
        expected.append(f"{label} {coeffs.strip().split(',')[60]}")
    code, out, _ = run(capsys, "enum", "--family", family, "--n", "60", "--stats")
    assert code == 0
    assert out.splitlines()[1:3] == expected


# ----------------------------------------------------------------------
# environment cap

def test_max_order_env_caps_coeffs(capsys, monkeypatch):
    monkeypatch.setenv("QPLAB_MAX_ORDER", "5")
    code, out, _ = run(capsys, "coeffs", "--target", "omega", "--order", "50")
    assert code == 0
    assert len(out.strip().split(",")) == 6


def test_max_order_env_caps_enum(capsys, monkeypatch):
    monkeypatch.setenv("QPLAB_MAX_ORDER", "10")
    code, _, err = run(capsys, "enum", "--family", "E", "--n", "11")
    assert code == 2
    assert "0..10" in err


def test_max_order_env_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("QPLAB_MAX_ORDER", "lots")
    code, _, err = run(capsys, "coeffs", "--target", "omega", "--order", "5")
    assert code == 2
    assert "QPLAB_MAX_ORDER" in err


# ----------------------------------------------------------------------
# identities listing

def test_identities_listing(capsys):
    code, out, _ = run(capsys, "identities")
    assert code == 0
    assert "thm-2.2-omega" in out
    assert "cor-3.7-minus-sign" in out


def test_identities_json_includes_recipes(capsys):
    code, out, _ = run(capsys, "identities", "--json")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == len(registry.list_identities())
    by_id = {d["id"]: d for d in docs}
    omega_case = by_id["thm-2.2-omega"]
    assert omega_case["lhs"] and omega_case["rhs"]
    assert by_id[registry.NEGATIVE_CONTROL_ID]["negative_control"] is True
    assert by_id["thm-1.2-a"]["enumeration_backed"] is True


def test_identities_json_matches_pinned_output(capsys):
    code, out, _ = run(capsys, "identities", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "052c316515149884"
