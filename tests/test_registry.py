import pytest

from qplab import partitions, qengine, registry
from qplab.qengine import Poch
from qplab.recipes import Mul
from qplab.series import Comparison

from records import replace


def report_by_id(reports, case_id):
    return next(r for r in reports if r.id == case_id)


def test_catalog_size_and_uniqueness():
    cases = registry.list_identities()
    assert len(cases) >= 40
    ids = [c.id for c in cases]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)


def test_catalog_contains_required_ids():
    ids = {c.id for c in registry.list_identities()}
    for required in (
        "thm-2.2-omega",
        "cor-3.7-minus-sign",
        "thm-1.2-a",
        registry.NEGATIVE_CONTROL_ID,
    ):
        assert required in ids


def test_unknown_id_raises():
    with pytest.raises(registry.RegistryError):
        registry.verify("nosuch")


def test_negative_control_mismatch():
    report = registry.verify(registry.NEGATIVE_CONTROL_ID, 10)
    assert report.status == registry.STATUS_MISMATCH
    assert (report.mismatch.index, report.mismatch.lhs, report.mismatch.rhs) == (2, 2, 1)


def test_negative_control_passes_at_degenerate_order():
    report = registry.verify(registry.NEGATIVE_CONTROL_ID, 1)
    assert report.status == registry.STATUS_PASS
    assert report.verdict == "PASS"
    report = registry.verify(registry.NEGATIVE_CONTROL_ID, 10)
    assert report.verdict == "XFAIL"


def test_verdict_holds_the_negative_control_rule():
    control, other = registry.NEGATIVE_CONTROL_ID, "euler-reciprocal"
    mismatch = Comparison(False, 2, 2, 1)
    assert registry.IdentityReport(other, 10).verdict == "PASS"
    assert registry.IdentityReport(other, 10, mismatch).verdict == "FAIL"
    assert registry.IdentityReport(control, 10, mismatch).verdict == "XFAIL"
    assert registry.IdentityReport(control, 1).verdict == "PASS"
    assert registry.IdentityReport(control, 2).verdict == "FAIL"


def test_verify_all_degenerate_order():
    reports = registry.verify_all(1)
    assert len(reports) == len(registry.list_identities())
    assert all(r.status == registry.STATUS_PASS for r in reports)


def test_verify_all_default_orders():
    reports = registry.verify_all()
    for r in reports:
        case = registry.get_case(r.id)
        assert r.order_checked == case.default_order
        if case.negative_control:
            assert r.status == registry.STATUS_MISMATCH
        else:
            assert r.status == registry.STATUS_PASS, (r.id, r.mismatch)


def test_passing_is_monotone_in_order():
    for case_id in (
        "thm-2.2-omega",
        "cor-3.7-minus-sign",
        "chan-mao-specialized",
        "heine-nu",
        "q-gauss-3.6b",
    ):
        assert registry.verify(case_id, 40).status == registry.STATUS_PASS
        assert registry.verify(case_id, 17).status == registry.STATUS_PASS
        assert registry.verify(case_id, 1).status == registry.STATUS_PASS


def test_enumeration_cases_clamp_to_budget():
    report = registry.verify("thm-1.2-a", 40)
    assert report.order_checked == partitions.DEFAULT_ENUMERATION_BUDGET
    assert "clamp" in report.notes
    report = registry.verify("thm-1.2-a", 30)
    assert report.order_checked == 30 and report.status == registry.STATUS_PASS
    bulk = report_by_id(registry.verify_all(40), "thm-1.2-a")
    assert bulk.order_checked == registry.ENUMERATION_DEFAULT_ORDER


def test_clamp_notes_name_the_cap():
    single = registry.verify("thm-1.2-a", 40)
    assert single.notes.endswith("order clamped from 40 to the enumeration budget 30")
    bulk = report_by_id(registry.verify_all(40), "thm-1.2-a")
    assert bulk.notes.endswith("order clamped from 40 to the case's default order 24")


def _poch_sign_flips(node):
    """Every copy of the recipe with one Poch leaf's argument sign flipped."""
    if isinstance(node, Poch):
        yield replace(node, a=replace(node.a, sign=-node.a.sign))
    elif isinstance(node, Mul):
        for i, factor in enumerate(node.factors):
            for mutant in _poch_sign_flips(factor):
                yield replace(node, factors=node.factors[:i] + (mutant,) + node.factors[i + 1 :])


@pytest.mark.parametrize(
    "case_id, mutants",
    [("euler-reciprocal", 2), ("basic-even-odd-split", 3), ("basic-split-finite", 3)],
)
def test_product_vs_product_cases_can_fail(monkeypatch, case_id, mutants):
    # both sides of these cases are Pochhammer products, so they must not
    # share one normal form that no sign error could break
    case = registry.get_case(case_id)
    killed = 0
    for side in ("lhs", "rhs"):
        for mutant in _poch_sign_flips(getattr(case, side)):
            monkeypatch.setitem(registry._BY_ID, case_id, replace(case, **{side: mutant}))
            report = registry.verify(case_id)
            assert report.order_checked == case.default_order
            assert report.verdict == "FAIL", (side, mutant)
            killed += 1
    assert killed == mutants


def _vector_mutant(inner, changed):
    # each vector with a nonzero power comes out one too large at q^1
    def mutant(exponents, top):
        g = inner(exponents, top)
        if top >= 1 and any(exponents.values()):
            g[1] += 1
            changed.append(exponents)
        return g
    return mutant


def _horner_mutant(inner, changed):
    # each sum by Horner's rule comes out one too large at q^(prefix(0) + 1)
    def mutant(template, order):
        total = inner(template, order)
        if template.prefix(0) + 1 <= order:
            total[template.prefix(0) + 1] += 1
            changed.append(template)
        return total
    return mutant


def _eta_mutant(inner, changed):
    # each vector that takes the eta quotient route comes out one too large at q^1
    def mutant(exponents, top):
        g = inner(exponents, top)
        if top >= qengine._ETA_MIN_TOP:
            g[1] += 1
            changed.append(exponents)
        return g
    return mutant


#: each engine mutant: the qengine functions it wraps, the wrapper and the
#: order each case is verified at (None: its default order).  The default
#: orders' dense vectors have top 60 or less and keep ``_euler``, so the eta
#: mutant runs at 200.
_ENGINE_MUTANTS = {
    "vector": (("_euler", "_binomial_product"), _vector_mutant, None),
    "horner": (("_horner",), _horner_mutant, None),
    "eta": (("_eta_quotient",), _eta_mutant, 200),
}


@pytest.fixture(scope="module")
def engine_mutant_reach():
    """For each engine mutant, the cases whose evaluation it changes and those of them that still pass.

    A case whose evaluation the mutant changes must then mismatch; one that
    passes compares the mutated route with itself, and no error of that
    route shows.
    """
    reach = {}
    for name, (targets, wrap, order) in _ENGINE_MUTANTS.items():
        changed, reached, passed = [], [], []
        with pytest.MonkeyPatch.context() as patch:
            for target in targets:
                patch.setattr(qengine, target, wrap(getattr(qengine, target), changed))
            for case in registry.list_identities():
                changed.clear()
                report = registry.verify(case.id, order)
                if changed:
                    reached.append(case.id)
                    if report.status != registry.STATUS_MISMATCH:
                        passed.append(case.id)
        reach[name] = reached, passed
    return reach


def test_every_case_on_the_exponent_vector_can_fail(engine_mutant_reach):
    reached, passed = engine_mutant_reach["vector"]
    assert passed == []
    assert len(reached) >= 28


def test_every_case_on_horners_rule_can_fail(engine_mutant_reach):
    reached, passed = engine_mutant_reach["horner"]
    assert passed == []
    assert len(reached) >= 25


def test_every_case_on_the_eta_quotient_route_can_fail(engine_mutant_reach):
    # at 200 the dense vectors of 20 cases take the route
    reached, passed = engine_mutant_reach["eta"]
    assert passed == []
    assert len(reached) >= 20


def test_the_engine_mutants_reach_49_cases(engine_mutant_reach):
    # the smallest-part templates left the vector for Horner's rule, so the
    # cases the vector and Horner mutants reach together stay at least the 49
    # the vector mutant reached alone before
    reached = {case_id for name in ("vector", "horner") for case_id in engine_mutant_reach[name][0]}
    assert len(reached) >= 49


def test_pure_series_cases_take_requested_order():
    report = registry.verify("euler-reciprocal", 100)
    assert report.order_checked == 100 and report.status == registry.STATUS_PASS


def test_corollary_3_7_two_route_agreement():
    for case_id in (
        "cor-3.7-plus-sign",
        "cor-3.7-plus-sign-combined",
        "cor-3.7-minus-sign",
        "cor-3.7-minus-sign-combined",
    ):
        assert registry.verify(case_id, 50).status == registry.STATUS_PASS


def test_adjudication_notes_are_recorded():
    by_id = {c.id: c for c in registry.list_identities()}
    expectations = {
        "thm-1.2-e": "(-1)^n",
        "thm-2.4-psi": "n = 1",
        "fine-26.53-psi": "n >= 1",
        "fine-theta-7.324": "(q;q^2)^2",
        "thm-3.6-a-sum-form": "(-1)^n",
        "thm-3.6-b-sum-form": "n = 0",
        "cor-2.7-nu-partitions": "zero part",
        "cor-3.7-minus-sum-form": "n+3",
        "chan-mao-specialized": "doubled",
        "companion-specialized": "doubled",
        "cq-formula-specialized": "doubled",
        "fine-26.85-nu": "2phi1",
    }
    for case_id, fragment in expectations.items():
        assert fragment in by_id[case_id].notes, case_id


def test_describe_sides_renders():
    for case in registry.list_identities():
        lhs, rhs = registry.describe_sides(case)
        assert lhs and rhs


def test_report_json_schema():
    report = registry.verify(registry.NEGATIVE_CONTROL_ID, 10)
    doc = report.to_json_dict()
    assert set(doc) == {"id", "order", "status", "mismatch", "notes", "elapsed_ms"}
    assert doc["status"] == "mismatch"
    assert doc["mismatch"] == {"n": 2, "lhs": "2", "rhs": "1"}
    ok = registry.verify("euler-reciprocal", 10).to_json_dict()
    assert ok["mismatch"] is None and ok["status"] == "pass"
    assert isinstance(ok["elapsed_ms"], int)
