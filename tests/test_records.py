"""The frozen records: every subclass of ``series._Record`` behaves as a
frozen dataclass would, field by field."""

import pytest

import qplab.cli  # noqa: F401  (loads every module, so every record class exists)
from qplab import partitions, recipes, registry
from qplab.family_gf import _unknown_family
from qplab.mocktheta import MockThetaForm
from qplab.partitions import Cell, ColoredPart, FamilySpec, PartitionError
from qplab.qengine import LENGTH_N, Parameter, Poch, PochFactor, QEngineError, TermTemplate
from qplab.recipes import (
    Add,
    AdyCounts,
    CoefficientFormula,
    CubicProgression,
    FamilyCounts,
    FamilyGF,
    Monomial,
    Mul,
    Overpartitions,
    Phi21,
    Pow,
    RationalGF,
    Scale,
    Theta,
)
from qplab.series import SeriesError, _Record

# every record class and its fields, in order
FIELDS = {
    "series.Comparison": ("equal", "index", "lhs", "rhs"),
    "qengine.Parameter": ("sign", "exponent"),
    "qengine.Poch": ("a", "step", "length"),
    "qengine.PochFactor": ("sign", "exp_slope", "exp_offset", "step", "length", "denominator"),
    "qengine.TermTemplate": ("prefix_slope", "prefix_offset", "factors", "alternating"),
    "mocktheta.MockThetaForm": ("function", "form", "argument_sign"),
    "partitions.ColoredPart": ("value", "color"),
    "partitions.Cell": ("color", "parity", "distinct", "min_offset"),
    "partitions.FamilySpec": ("name", "anchor", "cells", "weight"),
    "recipes.Monomial": ("exponent", "coefficient"),
    "recipes.Add": ("terms",),
    "recipes.Scale": ("factor", "node"),
    "recipes.Mul": ("factors",),
    "recipes.Pow": ("node", "k"),
    "recipes.NegVar": ("node",),
    "recipes.RationalGF": ("numerator", "denominator"),
    "recipes.Phi21": ("a", "b", "c", "step", "z"),
    "recipes.Theta": ("alternating",),
    "recipes.FamilyCounts": ("family", "mode"),
    "recipes.FamilyGF": ("family", "signed"),
    "recipes.Overpartitions": ("odd_only",),
    "recipes.AdyCounts": ("distinct", "allow_zero"),
    "recipes.CoefficientFormula": ("name", "alternating"),
    "recipes.CubicProgression": ("offset", "a", "b", "c", "alternating"),
    "recipes._Rule": ("evaluate", "render", "children", "counts"),
    "registry.IdentityCase": ("id", "description", "source", "lhs", "rhs", "notes"),
    "registry.IdentityReport": ("id", "order_checked", "mismatch", "notes", "elapsed_ms"),
}

# the fields _Record's type rule checks in each class, with the type each must
# have: a tuple's rule is (its text, the rule of every element) for tuple[X, ...]
# and (its text, a rule per position) for a tuple of fixed length
INT, BOOL, TUPLE, INT_OR_NONE = "an int", "a bool", "a tuple", "an int or None"
RECIPE, PARAMETER, PAIR = "a Recipe", "a Parameter", ("a tuple of 2 items", (INT, INT))
KINDS = {
    "series.Comparison": {"equal": BOOL, "index": INT_OR_NONE, "lhs": INT_OR_NONE, "rhs": INT_OR_NONE},
    "qengine.Parameter": {"sign": INT, "exponent": INT},
    "qengine.Poch": {"a": PARAMETER, "step": INT, "length": INT_OR_NONE},
    "qengine.PochFactor": {"sign": INT, "exp_slope": INT, "exp_offset": INT, "step": INT, "denominator": BOOL},
    "qengine.TermTemplate": {
        "prefix_slope": INT, "prefix_offset": INT, "factors": (TUPLE, "a PochFactor"), "alternating": BOOL,
    },
    "mocktheta.MockThetaForm": {"argument_sign": INT},
    "partitions.ColoredPart": {"value": INT},
    "partitions.Cell": {"distinct": BOOL, "min_offset": INT},
    "partitions.FamilySpec": {"anchor": TUPLE, "cells": (TUPLE, "a Cell")},
    "recipes.Monomial": {"exponent": INT, "coefficient": INT},
    "recipes.Add": {"terms": (TUPLE, RECIPE)},
    "recipes.Scale": {"factor": INT, "node": RECIPE},
    "recipes.Mul": {"factors": (TUPLE, RECIPE)},
    "recipes.Pow": {"node": RECIPE, "k": INT},
    "recipes.NegVar": {"node": RECIPE},
    "recipes.RationalGF": {
        "numerator": (TUPLE, INT), "denominator": (TUPLE, ("a tuple of 3 items", (INT, INT, INT))),
    },
    "recipes.Phi21": {"a": PARAMETER, "b": PARAMETER, "c": PARAMETER, "step": INT, "z": PARAMETER},
    "recipes.Theta": {"alternating": BOOL},
    "recipes.FamilyCounts": {},
    "recipes.FamilyGF": {"signed": BOOL},
    "recipes.Overpartitions": {"odd_only": BOOL},
    "recipes.AdyCounts": {"distinct": BOOL, "allow_zero": BOOL},
    "recipes.CoefficientFormula": {"alternating": BOOL},
    "recipes.CubicProgression": {"offset": INT, "a": PAIR, "b": PAIR, "c": PAIR, "alternating": BOOL},
    "recipes._Rule": {"counts": BOOL},
    "registry.IdentityCase": {"lhs": RECIPE, "rhs": RECIPE},
    "registry.IdentityReport": {"order_checked": INT, "mismatch": "a Comparison or None", "elapsed_ms": INT},
}


def _spell(rule):
    """A resolved type rule in the form KINDS pins it."""
    if rule is None:
        return None
    _, text, each, fixed = rule
    if each is not None:
        return (text, _spell(each))
    if fixed is not None:
        return (text, tuple(map(_spell, fixed)))
    return text


def _text(kind):
    return kind if isinstance(kind, str) else kind[0]

def _key(cls):
    return f"{cls.__module__.removeprefix('qplab.')}.{cls.__qualname__}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _collect(value, found):
    if isinstance(value, _Record):
        found.setdefault(_key(type(value)), value)
        for field in value._fields:
            _collect(getattr(value, field), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _collect(item, found)


def _samples():
    """One instance of each record class, taken from the catalog, the dispatch table and a few results."""
    found = {}
    _collect([
        registry.CATALOG,
        tuple(recipes._RULES.values()),
        tuple(partitions.FAMILIES.values()),
        registry.verify(registry.NEGATIVE_CONTROL_ID),
        recipes.parse("(1-q)^-2*q+3"),
        partitions.enumerate_family(partitions.FAMILIES["A"], 3)[0].parts,
    ], found)
    return found


SAMPLES = _samples()


def _values(record):
    return tuple(getattr(record, field) for field in FIELDS[_key(type(record))])


def test_every_record_class_is_pinned_with_its_fields_and_sampled():
    classes = {_key(cls): cls for cls in _subclasses(_Record)}
    assert sorted(classes) == sorted(FIELDS) == sorted(SAMPLES)
    for key, cls in classes.items():
        assert cls._fields == FIELDS[key], key


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_a_copy_equals_and_hashes_like_the_original(key):
    record = SAMPLES[key]
    values = _values(record)
    for copy in (type(record)(*values), type(record)(**dict(zip(FIELDS[key], values)))):
        assert copy == record and not copy != record
        assert hash(copy) == hash(record) == hash(values)
    assert record.__eq__(values) is NotImplemented


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_a_record_hashes_as_its_field_tuple_on_every_call(key):
    values = _values(SAMPLES[key])
    record = type(SAMPLES[key])(*values)
    assert [hash(record) for _ in range(3)] == [hash(values)] * 3


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_the_computed_hash_is_no_field(key):
    values = _values(SAMPLES[key])
    hashed, fresh = type(SAMPLES[key])(*values), type(SAMPLES[key])(*values)
    hash(hashed)
    assert hashed == fresh and fresh == hashed
    assert repr(hashed) == repr(fresh)
    assert type(hashed)._fields == FIELDS[key]
    for name in (FIELDS[key][0], "_hash"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(hashed, name, 0)
    assert hash(hashed) == hash(values)


def test_an_unhashable_field_raises_type_error_on_every_call():
    # a field with no type rule may hold a list, which builds but cannot hash
    record = registry.IdentityCase("id", ["a list description"], "test", Monomial(0, 1), Monomial(0, 1))
    for _ in range(3):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(key):
    record = SAMPLES[key]
    field = FIELDS[key][0]
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError, match="cannot assign"):
        record.extra = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(record, field)
    assert getattr(record, field) == _values(record)[0]


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_a_missing_unknown_or_repeated_field_raises_type_error(key):
    record = SAMPLES[key]
    cls, fields = type(record), FIELDS[key]
    given = dict(zip(fields, _values(record)))
    with pytest.raises(TypeError, match="has no field 'nope'"):
        cls(**given, nope=1)
    with pytest.raises(TypeError, match=f"got field '{fields[0]}' twice"):
        cls(given[fields[0]], **given)
    with pytest.raises(TypeError, match="fields but"):
        cls(*given.values(), None)
    required = [field for field in fields if field not in cls._defaults]
    for field in required:
        with pytest.raises(TypeError, match=f"missing field '{field}'"):
            cls(**{name: value for name, value in given.items() if name != field})


@pytest.mark.parametrize("key", sorted(set(FIELDS) - {"qengine.Parameter"}))
def test_repr_names_each_field(key):
    record = SAMPLES[key]
    body = ", ".join(f"{field}={value!r}" for field, value in zip(FIELDS[key], _values(record)))
    assert repr(record) == f"{type(record).__qualname__}({body})"


def test_records_of_two_classes_never_compare_equal():
    x = Monomial(0, 1)
    assert Mul((x,)) != Add((x,))
    assert not Mul((x,)) == Add((x,))
    assert repr(Monomial(0, 1)) == "Monomial(exponent=0, coefficient=1)"
    assert repr(Parameter(-1, 2)) == "-q^2"


def test_post_init_checks_positional_and_keyword_construction():
    with pytest.raises(QEngineError):
        Parameter(2, 1)
    with pytest.raises(QEngineError):
        Parameter(sign=2, exponent=1)
    assert Parameter(0, 5).exponent == 0
    assert Parameter(exponent=5).exponent == 0
    assert Parameter(0, 5) == Parameter()


def test_a_function_default_stays_unbound():
    rule = recipes._Rule(len, repr)
    assert rule.children("anything") == ()
    assert rule.counts is False


def test_every_record_class_pins_the_fields_its_type_rule_checks():
    # a module without `from __future__ import annotations`, or a respelled
    # annotation, would leave a class checking nothing, silently
    classes = {_key(cls): cls for cls in _subclasses(_Record)}
    assert sorted(KINDS) == sorted(classes)
    for key, cls in classes.items():
        rules = cls._type_rules()
        assert rules is cls._type_rules(), key  # resolved once per class
        assert {field: _spell(rule) for field, rule in rules} == KINDS[key], key
        assert [field for field, _ in rules] == [f for f in FIELDS[key] if f in KINDS[key]], key


KINDED = [(key, field) for key in sorted(KINDS) for field in KINDS[key]]


@pytest.mark.parametrize("key, field", KINDED, ids=[f"{key}.{field}" for key, field in KINDED])
def test_a_field_of_the_wrong_type_is_refused_before_post_init(key, field):
    # "x" is no int, bool, None or tuple; the rule runs before every
    # __post_init__, whose own checks would raise something else for it
    record = SAMPLES[key]
    given = dict(zip(FIELDS[key], _values(record)), **{field: "x"})
    with pytest.raises(TypeError) as refused:
        type(record)(**given)
    assert str(refused.value) == f"{type(record).__qualname__}.{field} must be {_text(KINDS[key][field])}, not 'x'"


def test_a_bool_is_an_int_and_an_int_is_no_bool():
    assert Monomial(True, 2) == Monomial(1, 2)
    assert Parameter(1, 0).exponent == 0 and Poch(Parameter(1, 1), 1, None).length is None
    for build in (lambda: Theta(1), lambda: Overpartitions(0), lambda: AdyCounts(1)):
        with pytest.raises(TypeError, match="must be a bool, not [01]$"):
            build()


_Q = Monomial(1)
_FACTOR = PochFactor(1, 0, 1, 1, LENGTH_N)
_FORMULAS = "unknown coefficient formula 'bogus'; choose from n, floor((n+2)/3)"
_PHI21 = (Parameter(1, 1), Parameter(1, 2), Parameter.zero(), 2)

# (id, build, error, message) of each node a constructor refuses: the field
# types of _Record, then each class's value rules
REFUSALS = [
    ("Theta-yes", lambda: Theta("yes"), TypeError, "Theta.alternating must be a bool, not 'yes'"),
    ("FamilyGF-2", lambda: FamilyGF("A", 2), TypeError, "FamilyGF.signed must be a bool, not 2"),
    (
        "PochFactor-no",
        lambda: PochFactor(1, 0, 1, 1, LENGTH_N, denominator="no"),
        TypeError,
        "PochFactor.denominator must be a bool, not 'no'",
    ),
    ("Add-list", lambda: Add([_Q]), TypeError, f"Add.terms must be a tuple, not [{_Q!r}]"),
    (
        "TermTemplate-list",
        lambda: TermTemplate(1, 0, [_FACTOR]),
        TypeError,
        f"TermTemplate.factors must be a tuple, not [{_FACTOR!r}]",
    ),
    ("Pow-float", lambda: Pow(_Q, 1.5), TypeError, "Pow.k must be an int, not 1.5"),
    ("Poch-float", lambda: Poch(Parameter(1, 1), 1.5), TypeError, "Poch.step must be an int, not 1.5"),
    ("Parameter-float", lambda: Parameter(1, 1.5), TypeError, "Parameter.exponent must be an int, not 1.5"),
    ("Scale-coefficient", lambda: Scale(0.5, _Q), TypeError, "Scale.factor must be an int, not 0.5"),
    ("Monomial-coefficient", lambda: Monomial(1, 0.5), TypeError, "Monomial.coefficient must be an int, not 0.5"),
    ("Monomial-exponent", lambda: Monomial(-1), SeriesError, "negative exponents are not representable"),
    (
        "RationalGF-numerator",
        lambda: RationalGF((1, 1.5), ((1, 1, 1),)),
        TypeError,
        "RationalGF.numerator[1] must be an int, not 1.5",
    ),
    (
        "RationalGF-denominator-item",
        lambda: RationalGF((1,), ((1, 1.5, 1),)),
        TypeError,
        "RationalGF.denominator[0][1] must be an int, not 1.5",
    ),
    (
        "RationalGF-denominator-length",
        lambda: RationalGF((1,), ((1, 1),)),
        TypeError,
        "RationalGF.denominator[0] must be a tuple of 3 items, not (1, 1)",
    ),
    ("Add-item", lambda: Add((1, 2)), TypeError, "Add.terms[0] must be a Recipe, not 1"),
    ("Mul-item", lambda: Mul((_Q, "q")), TypeError, "Mul.factors[1] must be a Recipe, not 'q'"),
    (
        "TermTemplate-item",
        lambda: TermTemplate(1, 0, (1,)),
        TypeError,
        "TermTemplate.factors[0] must be a PochFactor, not 1",
    ),
    ("Phi21-int", lambda: Phi21(1, 2, 3, 1, Parameter(1, 1)), TypeError, "Phi21.a must be a Parameter, not 1"),
    ("Pow-node", lambda: Pow(2, 3), TypeError, "Pow.node must be a Recipe, not 2"),
    (
        "FamilySpec-cell",
        lambda: FamilySpec("X", (), ((partitions.BLUE, partitions.ODD),)),
        TypeError,
        "FamilySpec.cells[0] must be a Cell, not ('b', 'odd')",
    ),
    (
        "IdentityReport-mismatch",
        lambda: registry.IdentityReport("id", 40, "none"),
        TypeError,
        "IdentityReport.mismatch must be a Comparison or None, not 'none'",
    ),
    (
        "RationalGF-exponent",
        lambda: RationalGF((1,), ((1, 0, 1),)),
        QEngineError,
        "denominator factor exponent must be at least 1",
    ),
    ("RationalGF-sign", lambda: RationalGF((1,), ((2, 1, 1),)), QEngineError, "denominator factor sign must be -1 or +1"),
    (
        "RationalGF-multiplicity",
        lambda: RationalGF((1,), ((1, 1, 1), (-1, 2, 0))),
        QEngineError,
        "denominator factor multiplicity must be at least 1",
    ),
    (
        "Phi21-zero-z",
        lambda: Phi21(*_PHI21, Parameter.zero()),
        QEngineError,
        "phi21 needs z = +-q^e with e >= 1 to truncate",
    ),
    (
        "Phi21-z",
        lambda: Phi21(*_PHI21, Parameter(-1, 0)),
        QEngineError,
        "phi21 needs z = +-q^e with e >= 1 to truncate",
    ),
    (
        "Phi21-c",
        lambda: Phi21(Parameter(1, 1), Parameter(1, 2), Parameter(1, 0), 2, Parameter(1, 1)),
        QEngineError,
        "c = q^0 makes the denominator Pochhammer vanish",
    ),
    ("Phi21-step", lambda: Phi21(*_PHI21[:3], 0, Parameter(1, 1)), QEngineError, "phi21 step must be at least 1"),
    ("FamilyGF-family", lambda: FamilyGF("Z"), KeyError, _unknown_family("Z")),
    ("FamilyGF-signed-family", lambda: FamilyGF("Z", True), KeyError, _unknown_family("Z")),
    ("FamilyCounts-family", lambda: FamilyCounts("Z"), PartitionError, "unknown family 'Z'"),
    ("FamilyCounts-mode", lambda: FamilyCounts("A", "weird"), PartitionError, "unknown weight mode 'weird'"),
    ("CoefficientFormula-name", lambda: CoefficientFormula("bogus"), KeyError, _FORMULAS),
    (
        "AdyCounts-zero",
        lambda: AdyCounts(False, True),
        PartitionError,
        "a zero part is only meaningful for distinct parts",
    ),
    (
        "CubicProgression-offset",
        lambda: CubicProgression(-1, (1, 0), (1, 0), (1, 1)),
        SeriesError,
        "cubic progression offset must be a nonnegative integer",
    ),
    ("Parameter-sign", lambda: Parameter(2, 1), QEngineError, "parameter sign must be -1, 0 or +1"),
    ("TermTemplate-prefix", lambda: TermTemplate(0, 1, ()), QEngineError, "prefix exponent must strictly increase in n"),
    (
        "MockThetaForm-route",
        lambda: MockThetaForm("psi", "ady"),
        QEngineError,
        "no mock theta route 'psi', form 'ady', argument sign 1",
    ),
    ("ColoredPart-value", lambda: ColoredPart(0, partitions.BLUE), PartitionError, "part values must be positive"),
    ("Cell-color", lambda: Cell("red", partitions.ODD), PartitionError, "unknown color 'red'"),
    (
        "FamilySpec-weight",
        lambda: FamilySpec("X", (), (), "weird"),
        PartitionError,
        "unknown weight mode 'weird'",
    ),
    (
        "Comparison-index",
        lambda: registry.Comparison(False, 1.0),
        TypeError,
        "Comparison.index must be an int or None, not 1.0",
    ),
    (
        "IdentityReport-order",
        lambda: registry.IdentityReport("id", "40"),
        TypeError,
        "IdentityReport.order_checked must be an int, not '40'",
    ),
]


@pytest.mark.parametrize("build, error, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_a_bad_record_is_refused_when_built(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert refused.type is error
    assert refused.value.args == (message,)
