"""One ``verify_all`` run computes each (node, order) once (``recipes._Run``).

The fixtures count the calls of the ``_RULES`` evaluators, which compute; a
result read back from the run's memo makes none.
"""

import collections

import pytest

from qplab import cli, recipes, registry
from qplab.mocktheta import MockThetaForm
from qplab.qengine import Parameter, Poch
from qplab.recipes import Add, FamilyGF, Mul, Scale, Theta
from qplab.registry import IdentityCase

from records import replace


class Computed(collections.Counter):
    """(node, order) -> rule calls, and the run that was active at each call."""

    def __init__(self):
        super().__init__()
        self.runs = []


@pytest.fixture
def computed(monkeypatch):
    counts = Computed()
    for kind, rule in list(recipes._RULES.items()):
        def compute(node, order, compute=rule.evaluate):
            counts[(node, order)] += 1
            counts.runs.append(recipes._run)
            return compute(node, order)

        monkeypatch.setitem(recipes._RULES, kind, replace(rule, evaluate=compute))
    return counts


@pytest.fixture
def runs(monkeypatch):
    """Every run entered, in order."""
    entered = []
    enter = recipes._Run.__enter__

    def capture(self):
        entered.append(self)
        return enter(self)

    monkeypatch.setattr(recipes._Run, "__enter__", capture)
    return entered


def _q(e, sign=1):
    return Parameter.monomial(e, sign)


def test_a_run_computes_each_node_once_per_order(computed):
    registry.verify_all()
    in_run = dict(computed)
    computed.clear()
    for case in registry.CATALOG:
        registry.verify(case.id)
    # checked one at a time, the cases compute their shared subtrees again
    assert sum(computed.values()) > len(computed)
    assert in_run == dict.fromkeys(computed, 1)
    # FamilyGF("A") is checked at 24 by xcheck-A-unsigned and at 60 by thm-3.2-a
    assert in_run[(FamilyGF("A"), 24)] == in_run[(FamilyGF("A"), 60)] == 1
    assert computed[(MockThetaForm("omega"), 60)] > 1


def test_a_case_whose_sides_share_a_subtree_computes_it_on_each_side(computed, monkeypatch):
    shared = Theta(True)
    theta = Mul((Poch(_q(2), 2), Poch(_q(1), 2), Poch(_q(1), 2)))
    monkeypatch.setattr(registry, "CATALOG", (
        # the left side stores the theta series; the right side may not read it,
        # but its second term reads what its first term stored
        IdentityCase("shared", "", "", Scale(2, shared), Add((shared, shared))),
        # a later case reads what the right side above stored
        IdentityCase("later", "", "", shared, theta),
    ))
    reports = registry.verify_all()
    assert [r.verdict for r in reports] == ["PASS", "PASS"]
    assert computed[(shared, 60)] == 2


def test_the_memo_is_empty_after_a_run(runs):
    registry.verify_all()
    assert recipes._run is None
    (run,) = runs
    assert run.entries == {}


def test_the_memo_is_empty_after_a_case_raises(runs, monkeypatch):
    held = []

    def fail(node, order):
        held.append(len(recipes._run.entries))
        raise RuntimeError("a side failed")

    rule = recipes._RULES[Theta]
    monkeypatch.setitem(recipes._RULES, Theta, replace(rule, evaluate=fail))
    with pytest.raises(RuntimeError, match="a side failed"):
        registry.verify_all()
    assert held[0] > 0
    assert recipes._run is None
    (run,) = runs
    assert run.entries == {}


def test_verify_and_coeffs_never_store(computed, runs, capsys):
    registry.verify_all()
    computed.runs.clear()
    registry.verify("ady-omega")
    registry.verify(registry.NEGATIVE_CONTROL_ID, 200)
    assert cli.main(["coeffs", "--target", "rational:(1-q)^3/(1+q)^2", "--order", "30"]) == 0
    assert cli.main(["verify", "--id", "thm-2.2-omega"]) == 0
    capsys.readouterr()
    assert computed.runs and set(computed.runs) == {None}
    assert len(runs) == 1
