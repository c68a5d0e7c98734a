"""The identity catalog and its verification engine.

Every case pairs two independently-constructed recipes and compares their
series coefficient by coefficient.  Mismatches report the smallest differing
exponent with both coefficients, which localizes a failure immediately.  One
deliberate negative control is registered so the harness can demonstrate
that it is able to fail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .series import Comparison, equal_up_to
from .qengine import (
    LENGTH_INF,
    LENGTH_N,
    LENGTH_N_PLUS_1,
    Parameter,
    Poch,
    PochFactor,
    TermTemplate,
)
from .mocktheta import MockThetaForm
from . import partitions
from .recipes import (
    Add,
    AdyCounts,
    CoefficientFormula,
    Const,
    CubicProgression,
    FamilyCounts,
    FamilyGF,
    Inv,
    Monomial,
    Mul,
    NegVar,
    Overpartitions,
    Phi21,
    RationalGF,
    Recipe,
    Scale,
    Theta,
    evaluate,
    render,
    uses_enumeration,
)

SERIES_DEFAULT_ORDER = 60
ENUMERATION_DEFAULT_ORDER = 24
ENUMERATION_BUDGET = partitions.DEFAULT_ENUMERATION_BUDGET

NEGATIVE_CONTROL_ID = "deliberate-mismatch-selftest"

STATUS_PASS = "pass"
STATUS_MISMATCH = "mismatch"


class RegistryError(KeyError):
    """Raised for unknown identity ids."""


@dataclass(frozen=True)
class IdentityCase:
    id: str
    description: str
    source: str
    lhs: Recipe
    rhs: Recipe
    notes: str = ""

    @property
    def negative_control(self) -> bool:
        return self.id == NEGATIVE_CONTROL_ID

    @property
    def enumeration_backed(self) -> bool:
        return uses_enumeration(self.lhs) or uses_enumeration(self.rhs)

    @property
    def default_order(self) -> int:
        return ENUMERATION_DEFAULT_ORDER if self.enumeration_backed else SERIES_DEFAULT_ORDER


@dataclass(frozen=True)
class IdentityReport:
    id: str
    order_checked: int
    mismatch: Optional[Comparison] = None
    notes: str = ""
    elapsed_ms: int = 0

    @property
    def status(self) -> str:
        return STATUS_PASS if self.mismatch is None else STATUS_MISMATCH

    @property
    def verdict(self) -> str:
        """PASS, FAIL or XFAIL (the negative control's expected mismatch).

        Through order 1 both sides of the negative control agree, so a pass
        there is fine; from order 2 on, a pass means the comparison
        machinery has stopped working, and the control fails.
        """
        if self.id != NEGATIVE_CONTROL_ID:
            return "PASS" if self.mismatch is None else "FAIL"
        if self.mismatch is not None:
            return "XFAIL"
        return "PASS" if self.order_checked < 2 else "FAIL"

    def to_json_dict(self) -> dict:
        """The wire format; coefficients render as decimal strings."""
        mismatch = None
        if self.mismatch is not None:
            mismatch = {
                "n": self.mismatch.index,
                "lhs": str(self.mismatch.lhs),
                "rhs": str(self.mismatch.rhs),
            }
        return {
            "id": self.id,
            "order": self.order_checked,
            "status": self.status,
            "mismatch": mismatch,
            "notes": self.notes,
            "elapsed_ms": self.elapsed_ms,
        }


# ----------------------------------------------------------------------
# catalog construction helpers

def _q(e: int, sign: int = 1) -> Parameter:
    return Parameter.monomial(e, sign)


_Z = Parameter.zero()


def _smallest(prefix_slope, prefix_offset, *factors) -> TermTemplate:
    return TermTemplate(prefix_slope, prefix_offset, tuple(factors))


# left sides of the three two-parameter identities at their specializations,
# multiplied through by 2 to absorb the constant-2 factor (-1;q^2)_{n+1}
# = 2(-q^2;q^2)_n, which is not a unit over the integers
_CHAN_MAO_LHS = _smallest(
    2, 0,
    PochFactor(1, 0, 1, 2, LENGTH_N), PochFactor(1, 0, 1, 2, LENGTH_N),
    PochFactor(-1, 0, 2, 2, LENGTH_N, True), PochFactor(-1, 0, 2, 2, LENGTH_N_PLUS_1, True),
)
_COMPANION_LHS = _smallest(
    2, 2,
    PochFactor(1, 0, 1, 2, LENGTH_N), PochFactor(1, 0, 3, 2, LENGTH_N),
    PochFactor(-1, 0, 2, 2, LENGTH_N, True), PochFactor(-1, 0, 4, 2, LENGTH_N_PLUS_1, True),
)
_CQ_FORMULA_LHS = _smallest(
    4, 2,
    PochFactor(1, 0, 1, 2, LENGTH_N), PochFactor(1, 0, 1, 2, LENGTH_N),
    PochFactor(-1, 0, 2, 2, LENGTH_N, True), PochFactor(-1, 0, 4, 2, LENGTH_N_PLUS_1, True),
)

# smallest-part sums that produce q*omega(q) and nu(-q)
_ADY_OMEGA_TEMPLATE = _smallest(
    1, 1,
    PochFactor(1, 1, 1, 1, 1, True),                # 1/(1 - q^(n+1)) as a length-1 product
    PochFactor(1, 1, 2, 1, LENGTH_N_PLUS_1, True),  # 1/(q^(n+2); q)_{n+1}
    PochFactor(1, 2, 4, 2, LENGTH_INF, True),       # 1/(q^(2n+4); q^2)_inf
)
_ADY_NU_TEMPLATE = _smallest(
    1, 0,
    PochFactor(-1, 1, 1, 1, LENGTH_N),              # (-q^(n+1); q)_n
    PochFactor(-1, 2, 2, 2, LENGTH_INF),            # (-q^(2n+2); q^2)_inf
)

# corollary left sides: the A-shaped sum with the even minimum pushed to 2n+6
_COR_PLUS_LHS = _smallest(
    2, 1,
    PochFactor(1, 2, 6, 2, LENGTH_INF), PochFactor(1, 2, 2, 2, LENGTH_INF),
    PochFactor(1, 2, 1, 2, LENGTH_INF, True), PochFactor(1, 2, 1, 2, LENGTH_INF, True),
)
_COR_MINUS_LHS = _smallest(
    2, 1,
    PochFactor(-1, 2, 6, 2, LENGTH_INF), PochFactor(-1, 2, 2, 2, LENGTH_INF),
    PochFactor(1, 2, 1, 2, LENGTH_INF, True), PochFactor(1, 2, 1, 2, LENGTH_INF, True),
)


def _build_catalog() -> tuple[IdentityCase, ...]:
    cases: list[IdentityCase] = []

    def case(id, description, source, lhs, rhs, notes=""):
        cases.append(IdentityCase(id, description, source, lhs, rhs, notes))

    # ---- product calculus fundamentals
    case(
        "basic-split-finite",
        "(-q;q)_inf splits as (-q;q)_3 times (-q^4;q)_inf",
        "basic q-product splitting",
        Poch(_q(1, -1), 1),
        Mul((Poch(_q(1, -1), 1, 3), Poch(_q(4, -1), 1))),
    )
    case(
        "basic-even-odd-split",
        "(-q;q)_inf splits into odd-step and even-step products",
        "basic q-product splitting",
        Poch(_q(1, -1), 1),
        Mul((Poch(_q(1, -1), 2), Poch(_q(2, -1), 2))),
    )
    case(
        "euler-reciprocal",
        "(-q;q)_inf (q;q^2)_inf = 1",
        "euler",
        Mul((Poch(_q(1, -1), 1), Poch(_q(1), 2))),
        Const(1),
    )

    # ---- q-Gauss at its three working specializations
    case(
        "q-gauss-3.2b",
        "2phi1(q,q;q^4; q^2,q^2) equals its closed product form",
        "q-gauss, thm 3.2(b) step",
        Phi21(_q(1), _q(1), _q(4), 2, _q(2)),
        Mul((Poch(_q(3), 2), Poch(_q(3), 2), Inv(Poch(_q(4), 2)), Inv(Poch(_q(2), 2)))),
    )
    case(
        "q-gauss-3.4b",
        "2phi1(q,q^3;q^6; q^2,q^2) equals its closed product form",
        "q-gauss, thm 3.4(b) step",
        Phi21(_q(1), _q(3), _q(6), 2, _q(2)),
        Mul((Poch(_q(5), 2), Poch(_q(3), 2), Inv(Poch(_q(6), 2)), Inv(Poch(_q(2), 2)))),
    )
    case(
        "q-gauss-3.6b",
        "2phi1(q,q;q^6; q^2,q^4) equals its closed product form",
        "q-gauss, thm 3.6(b) step",
        Phi21(_q(1), _q(1), _q(6), 2, _q(4)),
        Mul((Poch(_q(5), 2), Poch(_q(5), 2), Inv(Poch(_q(6), 2)), Inv(Poch(_q(4), 2)))),
    )

    # ---- Heine's transformation at its three working instances
    case(
        "heine-omega",
        "Heine transform of 2phi1(q,q;0; q^2,q^2)",
        "heine, omega route",
        Phi21(_q(1), _q(1), _Z, 2, _q(2)),
        Mul((
            Poch(_q(1), 2), Poch(_q(3), 2), Inv(Poch(_q(2), 2)),
            Phi21(_Z, _q(2), _q(3), 2, _q(1)),
        )),
    )
    case(
        "heine-psi",
        "Heine transform of 2phi1(0,q;-q^3; q^2,q^2)",
        "heine, psi route",
        Phi21(_Z, _q(1), _q(3, -1), 2, _q(2)),
        Mul((
            Poch(_q(1), 2), Inv(Poch(_q(3, -1), 2)), Inv(Poch(_q(2), 2)),
            Phi21(_q(2, -1), _q(2), _Z, 2, _q(1)),
        )),
    )
    case(
        "heine-nu",
        "Heine transform of 2phi1(0,-q;-q^2; q^2,q^2)",
        "heine, nu route",
        Phi21(_Z, _q(1, -1), _q(2, -1), 2, _q(2)),
        Mul((
            Poch(_q(1, -1), 2), Inv(Poch(_q(2, -1), 2)), Inv(Poch(_q(2), 2)),
            Phi21(_q(1), _q(2), _Z, 2, _q(1, -1)),
        )),
    )

    # ---- square-supported theta products
    case(
        "fine-theta-7.325",
        "(q^2;q^2)(-q;q^2)^2 = 1 + 2 sum q^(n^2)",
        "fine 7.325",
        Mul((Poch(_q(2), 2), Poch(_q(1, -1), 2), Poch(_q(1, -1), 2))),
        Theta(False),
    )
    case(
        "fine-theta-7.324",
        "(q^2;q^2)(q;q^2)^2 = 1 + 2 sum (-1)^n q^(n^2)",
        "fine 7.324",
        Mul((Poch(_q(2), 2), Poch(_q(1), 2), Poch(_q(1), 2))),
        Theta(True),
        notes=(
            "the squared factor is (q;q^2)^2, not (-q;q^2)^2 as one derivation "
            "display repeats; the alternating theta expansion confirms the minus-free form"
        ),
    )

    # ---- family E versus odd overpartitions
    case(
        "thm-1.2-a",
        "distinct two-color partitions with blue evens match odd overpartitions",
        "thm 1.2(a)",
        FamilyCounts("E"),
        Overpartitions(odd_only=True),
    )
    case(
        "thm-1.2-b",
        "twice the even-even-count subfamily equals overpartitions plus theta",
        "thm 1.2(b)",
        Add((FamilyCounts("E"), FamilyCounts("E", partitions.WEIGHT_EVEN_PARTS))),
        Add((Overpartitions(odd_only=True), Theta(False))),
        notes="checked in the doubled form 2*E0 = E + (E0-E1) so n = 0 stays integral",
    )
    case(
        "thm-1.2-c",
        "twice the odd-even-count subfamily equals overpartitions minus theta",
        "thm 1.2(c)",
        Add((FamilyCounts("E"), Scale(-1, FamilyCounts("E", partitions.WEIGHT_EVEN_PARTS)))),
        Add((Overpartitions(odd_only=True), Scale(-1, Theta(False)))),
        notes="checked in the doubled form 2*E1 = E - (E0-E1)",
    )
    case(
        "thm-1.2-d",
        "twice the even-length subfamily equals overpartitions plus alternating theta",
        "thm 1.2(d)",
        Add((FamilyCounts("E"), FamilyCounts("E", partitions.WEIGHT_ALL_PARTS))),
        Add((Overpartitions(odd_only=True), Theta(True))),
    )
    case(
        "thm-1.2-e",
        "twice the odd-length subfamily equals overpartitions minus alternating theta",
        "thm 1.2(e)",
        Add((FamilyCounts("E"), Scale(-1, FamilyCounts("E", partitions.WEIGHT_ALL_PARTS)))),
        Add((Overpartitions(odd_only=True), Scale(-1, Theta(True)))),
        notes=(
            "the printed correction term (1)^n is evaluated as (-1)^n, mirroring the "
            "even-length statement; enumeration through order 24 confirms"
        ),
    )
    case(
        "family-E-product",
        "family E counts expand the product (-q^2;q^2)(-q;q^2)^2",
        "family E generating function",
        FamilyCounts("E"),
        Mul((Poch(_q(2, -1), 2), Poch(_q(1, -1), 2), Poch(_q(1, -1), 2))),
    )
    case(
        "family-F-product",
        "family F counts expand 1/((q;q^2)^2 (q^2;q^2))",
        "family F generating function",
        FamilyCounts("F"),
        Inv(Mul((Poch(_q(1), 2), Poch(_q(1), 2), Poch(_q(2), 2)))),
    )
    case(
        "overpartition-odd-product",
        "odd overpartition counts expand (-q;q^2)/(q;q^2)",
        "odd overpartition generating function",
        Overpartitions(odd_only=True),
        Mul((Poch(_q(1, -1), 2), Inv(Poch(_q(1), 2)))),
    )
    case(
        "overpartition-all-product",
        "overpartition counts expand (-q;q)/(q;q)",
        "overpartition generating function",
        Overpartitions(odd_only=False),
        Mul((Poch(_q(1, -1), 1), Inv(Poch(_q(1), 1)))),
    )
    case(
        "remark-9.1-F-overpartitions",
        "family F counts coincide with unrestricted overpartition counts",
        "remark 9.1",
        FamilyCounts("F"),
        Overpartitions(odd_only=False),
    )

    # ---- mock theta theorems
    case(
        "thm-2.2-omega",
        "the signed Tomega sum equals q*omega(q)",
        "thm 2.2",
        FamilyGF("Tomega", signed=True),
        Mul((Monomial(1), MockThetaForm("omega"))),
    )
    case(
        "thm-2.4-psi",
        "the signed Tpsi sum equals psi(q)",
        "thm 2.4",
        FamilyGF("Tpsi", signed=True),
        MockThetaForm("psi"),
        notes=(
            "psi's defining sum runs from n = 1 so its constant term vanishes; "
            "the n = 0 convention would add a constant 1 that the left side lacks"
        ),
    )
    case(
        "thm-2.6-nu",
        "the signed Tnu sum equals q*nu(-q)",
        "thm 2.6",
        FamilyGF("Tnu", signed=True),
        Mul((Monomial(1), MockThetaForm("nu", argument_sign=-1))),
        notes=(
            "the theorem is verified against the family definition's template; one "
            "derivation display drops the q^(2n+1) prefix alignment and is not encoded"
        ),
    )
    case(
        "fine-12.331-omega",
        "omega's defining sum equals sum q^n/(q;q^2)_{n+1}",
        "fine 12.331",
        MockThetaForm("omega", "defining"),
        MockThetaForm("omega", "fine"),
    )
    case(
        "fine-26.53-psi",
        "psi's defining sum equals sum (-q^2;q^2)_n q^(n+1)",
        "fine 26.53",
        MockThetaForm("psi", "defining"),
        MockThetaForm("psi", "fine"),
        notes="confirms the n >= 1 summation convention adopted for psi",
    )
    case(
        "fine-26.85-nu",
        "nu's defining sum re-derived through the generic 2phi1 evaluator",
        "fine 26.85",
        MockThetaForm("nu", "defining"),
        MockThetaForm("nu", "fine"),
        notes=(
            "the alternative single sum is textually identical to the defining sum, "
            "so this case recomputes it as 2phi1(q,q^2;0; q^2,-q) instead"
        ),
    )
    case(
        "ady-omega",
        "the partition-style sum with bounded odd parts equals q*omega(q)",
        "ady omega sum",
        MockThetaForm("omega", "ady"),
        Mul((Monomial(1), MockThetaForm("omega"))),
    )
    case(
        "ady-omega-template",
        "the same sum evaluated through the generic template engine",
        "ady omega sum",
        _ADY_OMEGA_TEMPLATE,
        Mul((Monomial(1), MockThetaForm("omega"))),
    )
    case(
        "ady-nu",
        "the distinct-parts companion sum equals nu(-q)",
        "ady nu sum",
        MockThetaForm("nu", "ady", -1),
        MockThetaForm("nu", argument_sign=-1),
    )
    case(
        "ady-nu-template",
        "the same sum evaluated through the generic template engine",
        "ady nu sum",
        _ADY_NU_TEMPLATE,
        MockThetaForm("nu", argument_sign=-1),
    )
    case(
        "nu-negation-consistency",
        "flipping q -> -q after summation matches the direct -q evaluation",
        "sign-handling guard",
        NegVar(MockThetaForm("nu")),
        MockThetaForm("nu", argument_sign=-1),
    )
    case(
        "cor-2.3-omega-partitions",
        "signed Tomega counts match partitions with odd parts below twice the smallest",
        "cor 2.3",
        FamilyCounts("Tomega", partitions.WEIGHT_EVEN_PARTS),
        AdyCounts(distinct=False),
    )
    case(
        "cor-2.7-nu-partitions",
        "signed Tnu counts match the distinct-parts analogue, shifted by one",
        "cor 2.7",
        FamilyCounts("Tnu", partitions.WEIGHT_EVEN_BLUE_PARTS),
        Mul((Monomial(1), AdyCounts(distinct=True, allow_zero=True))),
        notes=(
            "pinned convention: distinct nonnegative parts, so at most one zero part "
            "may join and the empty partition is excluded; with positive parts only "
            "the count at n = 2 would be 1 against a series coefficient of 2"
        ),
    )

    # ---- the two-colors-everywhere theorems
    case(
        "thm-3.2-a",
        "family A counts equal the doubled product minus q/(1+q)^2",
        "thm 3.2(a)",
        FamilyGF("A"),
        Add((
            Mul((Monomial(1, 2), Poch(_q(2, -1), 1), Poch(_q(2, -1), 1),
                 Poch(_q(2, -1), 2), Poch(_q(2, -1), 2))),
            RationalGF((0, -1), ((-1, 1, 2),)),
        )),
    )
    case(
        "thm-3.2-a-sum-form",
        "-q/(1+q)^2 expands as sum (-1)^n n q^n",
        "thm 3.2(a)",
        RationalGF((0, -1), ((-1, 1, 2),)),
        CoefficientFormula("n", alternating=True),
    )
    case(
        "thm-3.2-b",
        "signed family A counts equal q/(1-q)^2",
        "thm 3.2(b)",
        FamilyGF("A", signed=True),
        RationalGF((0, 1), ((1, 1, 2),)),
    )
    case(
        "thm-3.2-b-sum-form",
        "q/(1-q)^2 expands as sum n q^n",
        "thm 3.2(b)",
        RationalGF((0, 1), ((1, 1, 2),)),
        CoefficientFormula("n"),
    )
    case(
        "thm-3.4-a",
        "family B counts equal the doubled product minus q/((1+q)(1+q^3))",
        "thm 3.4(a)",
        FamilyGF("B"),
        Add((
            Mul((Monomial(1, 2), Poch(_q(2, -1), 1), Poch(_q(4, -1), 1),
                 Inv(Poch(_q(2), 4)), Inv(Poch(_q(6), 4)))),
            RationalGF((0, -1), ((-1, 1, 1), (-1, 3, 1))),
        )),
    )
    case(
        "thm-3.4-a-sum-form",
        "-q/((1+q)(1+q^3)) expands as sum (-1)^n floor((n+2)/3) q^n",
        "thm 3.4(a)",
        RationalGF((0, -1), ((-1, 1, 1), (-1, 3, 1))),
        CoefficientFormula("floor((n+2)/3)", alternating=True),
    )
    case(
        "thm-3.4-b",
        "signed family B counts equal q/((1-q)(1-q^3))",
        "thm 3.4(b)",
        FamilyGF("B", signed=True),
        RationalGF((0, 1), ((1, 1, 1), (1, 3, 1))),
    )
    case(
        "thm-3.4-b-sum-form",
        "q/((1-q)(1-q^3)) expands as sum floor((n+2)/3) q^n",
        "thm 3.4(b)",
        RationalGF((0, 1), ((1, 1, 1), (1, 3, 1))),
        CoefficientFormula("floor((n+2)/3)"),
    )
    case(
        "thm-3.6-a",
        "family C counts equal the quoted product-plus-rational form",
        "thm 3.6(a)",
        FamilyGF("C"),
        Add((
            Mul((
                RationalGF((0, 0, 0, 4, -2, 2), ((-1, 1, 1), (-1, 3, 2))),
                Poch(_q(2, -1), 2), Poch(_q(4, -1), 2),
                Inv(Poch(_q(1), 2)), Inv(Poch(_q(1), 2)),
            )),
            RationalGF((0, 0, 1, -1), ((-1, 1, 1), (-1, 3, 2))),
        )),
    )
    case(
        "thm-3.6-a-sum-form",
        "q^2(1-q)/((1+q)(1+q^3)^2) as an alternating cubic-progression sum",
        "thm 3.6(a)",
        RationalGF((0, 0, 1, -1), ((-1, 1, 1), (-1, 3, 2))),
        CubicProgression(0, (1, 0), (-1, 0), (1, 1), alternating=True),
        notes=(
            "the sum runs from n = 0 (its first term contributes q^2) and carries "
            "(-1)^n, which the printed form omits; expanding the rational side confirms"
        ),
    )
    case(
        "thm-3.6-b",
        "signed family C counts equal q^2(1+q)/((1-q)(1-q^3)^2)",
        "thm 3.6(b)",
        FamilyGF("C", signed=True),
        RationalGF((0, 0, 1, 1), ((1, 1, 1), (1, 3, 2))),
    )
    case(
        "thm-3.6-b-sum-form",
        "q^2(1+q)/((1-q)(1-q^3)^2) as a cubic-progression sum",
        "thm 3.6(b)",
        RationalGF((0, 0, 1, 1), ((1, 1, 1), (1, 3, 2))),
        CubicProgression(0, (1, 0), (1, 0), (1, 1)),
        notes=(
            "the sum runs from n = 0, not n = 1 as printed: the n = 0 term supplies "
            "the q^2 coefficient that the rational form requires"
        ),
    )

    # ---- the two-parameter identities, specialized and doubled
    case(
        "chan-mao-specialized",
        "the double-bounded sum at base q^2 with (y,z)=(q,-1)",
        "chan-mao identity, specialized",
        _CHAN_MAO_LHS,
        Add((
            RationalGF((2,), ((-1, 1, 2),)),
            Scale(-1, Mul((
                Poch(_q(1), 2), Poch(_q(1), 2),
                RationalGF((1,), ((-1, 1, 2),)),
                Inv(Poch(_q(2, -1), 2)), Inv(Poch(_q(2, -1), 2)),
            ))),
        )),
        notes=(
            "both sides are doubled to clear the non-unit constant of (-1;q^2)_{n+1} "
            "= 2(-q^2;q^2)_n; the substitutions y=q, z=-1 are applied before encoding, "
            "using C(q,-1) = 1/(1+q)^2 at base q^2"
        ),
    )
    case(
        "companion-specialized",
        "the companion sum at base q^2 with (y,z)=(q,-1/q^2)",
        "companion identity, specialized",
        _COMPANION_LHS,
        Mul((
            RationalGF((0, 0, 1), ((-1, 1, 1), (-1, 3, 1))),
            Add((
                Const(2),
                Scale(-1, Mul((
                    Poch(_q(1), 2), Poch(_q(3), 2),
                    Inv(Poch(_q(2, -1), 2)), Inv(Poch(_q(4, -1), 2)),
                ))),
            )),
        )),
        notes=(
            "doubled to clear the constant-2 factor; negative powers of q in the "
            "specialization are absorbed algebraically before encoding, with "
            "1/(y+1/y-z-1/z) = q^2/((1+q)(1+q^3))"
        ),
    )
    case(
        "cq-formula-specialized",
        "the squared-prefix sum at base q^2 with (y,z)=(q,-1/q^2)",
        "two-parameter closed formula, specialized",
        _CQ_FORMULA_LHS,
        Add((
            Mul((
                RationalGF((0, 0, 1, 0, -1), ((-1, 1, 2), (-1, 3, 2))),
                Poch(_q(1), 2), Poch(_q(1), 2),
                Inv(Poch(_q(2, -1), 2)), Inv(Poch(_q(4, -1), 2)),
            )),
            RationalGF((0, 0, -2, 0, 0, 0, 2), ((-1, 1, 2), (-1, 3, 2))),
            RationalGF((0, 0, 2), ((-1, 3, 2),)),
        )),
        notes=(
            "doubled to clear the constant-2 factor; uses C(q,-1/q^2) = q^2/(1+q^3)^2 "
            "and C(q,-1) = 1/(1+q)^2 at base q^2 with substitutions pre-applied"
        ),
    )

    # ---- the combined corollary, both sign patterns and both derivations
    case(
        "cor-3.7-plus-sign",
        "the plus-sign corollary sum equals its rational closed form",
        "cor 3.7, first formula",
        _COR_PLUS_LHS,
        RationalGF((0, 1, 1, 1, -1), ((1, 1, 1), (1, 3, 2))),
    )
    case(
        "cor-3.7-plus-sign-combined",
        "the plus-sign corollary sum equals A' plus q^3 times C'",
        "cor 3.7, first formula via recombination",
        _COR_PLUS_LHS,
        Add((FamilyGF("A", signed=True), Mul((Monomial(3), FamilyGF("C", signed=True))))),
    )
    case(
        "cor-3.7-plus-sum-form",
        "the plus-sign rational form as a cubic-progression sum",
        "cor 3.7, first formula",
        RationalGF((0, 1, 1, 1, -1), ((1, 1, 1), (1, 3, 2))),
        CubicProgression(1, (1, 1), (1, 2), (1, 3)),
    )
    case(
        "cor-3.7-minus-sign",
        "the minus-sign corollary sum equals its product-minus-rational form",
        "cor 3.7, second formula",
        _COR_MINUS_LHS,
        Add((
            Mul((
                RationalGF((0, 2, 0, 2, 4), ((-1, 2, 1), (-1, 3, 2))),
                Poch(_q(2, -1), 1), Poch(_q(2, -1), 1),
                Poch(_q(2, -1), 2), Poch(_q(2, -1), 2),
            )),
            RationalGF((0, -1, 1, -1, -1), ((-1, 1, 1), (-1, 3, 2))),
        )),
    )
    case(
        "cor-3.7-minus-sign-combined",
        "the minus-sign corollary sum equals A minus q^3 times C",
        "cor 3.7, second formula via recombination",
        _COR_MINUS_LHS,
        Add((FamilyGF("A"), Scale(-1, Mul((Monomial(3), FamilyGF("C")))))),
    )
    case(
        "cor-3.7-minus-sum-form",
        "the minus-sign rational tail as an alternating cubic-progression sum",
        "cor 3.7, second formula",
        RationalGF((0, 1, -1, 1, 1), ((-1, 1, 1), (-1, 3, 2))),
        CubicProgression(1, (1, 1), (-1, -2), (1, 3), alternating=True),
        notes=(
            "the summand's q^2 coefficient is n+3, not n+2 as printed; expanding the "
            "rational side (and the recombination route) confirms the correction"
        ),
    )

    # ---- enumeration versus template, every family, both weightings
    signed_modes = {name: spec.weight for name, spec in partitions.FAMILIES.items()}
    for name in partitions.FAMILIES:
        case(
            f"xcheck-{name}-unsigned",
            f"family {name}: explicit counting matches the generating function",
            "enumeration cross-check",
            FamilyCounts(name),
            FamilyGF(name),
        )
        case(
            f"xcheck-{name}-signed",
            f"family {name}: signed counting matches the signed generating function",
            "enumeration cross-check",
            FamilyCounts(name, signed_modes[name]),
            FamilyGF(name, signed=True),
        )

    # ---- the harness must be able to fail
    case(
        NEGATIVE_CONTROL_ID,
        "q*omega(q) against psi(q): first mismatch expected at q^2 with 2 vs 1",
        "negative control",
        Mul((Monomial(1), MockThetaForm("omega"))),
        MockThetaForm("psi"),
        notes="expected to mismatch at index 2; a pass here means the harness is broken",
    )

    cases.sort(key=lambda c: c.id)
    ids = [c.id for c in cases]
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate identity ids in the catalog")
    return tuple(cases)


CATALOG: tuple[IdentityCase, ...] = _build_catalog()
_BY_ID = {c.id: c for c in CATALOG}


def list_identities() -> tuple[IdentityCase, ...]:
    """All registered cases in deterministic id order."""
    return CATALOG


def get_case(case_id: str) -> IdentityCase:
    try:
        return _BY_ID[case_id]
    except KeyError:
        raise RegistryError(f"unknown identity id {case_id!r}") from None


def _effective_order(case: IdentityCase, order: Optional[int], bulk: bool) -> tuple[int, str]:
    """Resolve the order to check and a clamp note when one applies.

    Bulk runs keep enumeration-backed cases at their safe default order;
    explicit single-case requests may climb to the enumeration budget.
    """
    if order is None:
        return case.default_order, ""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not case.enumeration_backed:
        return order, ""
    if bulk:
        cap, name = case.default_order, "the case's default order"
    else:
        cap, name = ENUMERATION_BUDGET, "the enumeration budget"
    if order > cap:
        return cap, f"order clamped from {order} to {name} {cap}"
    return order, ""


def _run_case(case: IdentityCase, order: int, clamp_note: str) -> IdentityReport:
    notes = case.notes
    if clamp_note:
        notes = f"{notes}; {clamp_note}" if notes else clamp_note
    start = time.perf_counter()
    lhs = evaluate(case.lhs, order)
    rhs = evaluate(case.rhs, order)
    cmp = equal_up_to(lhs, rhs, order)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return IdentityReport(case.id, order, None if cmp.equal else cmp, notes, elapsed_ms)


def verify(case_id: str, order: Optional[int] = None) -> IdentityReport:
    """Evaluate both sides of one case and compare exactly through the order."""
    case = get_case(case_id)
    effective, clamp_note = _effective_order(case, order, bulk=False)
    return _run_case(case, effective, clamp_note)


def verify_all(order: Optional[int] = None) -> list[IdentityReport]:
    """One report per registered case, in id order."""
    reports = []
    for case in CATALOG:
        effective, clamp_note = _effective_order(case, order, bulk=True)
        reports.append(_run_case(case, effective, clamp_note))
    return reports


def describe_sides(case: IdentityCase) -> tuple[str, str]:
    """Printable formulas for the two recipes (the audit trail)."""
    return render(case.lhs), render(case.rhs)
