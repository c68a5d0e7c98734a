"""The frozen records: every subclass of ``series._Record`` behaves as a
frozen dataclass would, field by field."""

import pytest

import qplab.cli  # noqa: F401  (loads every module, so every record class exists)
from qplab import partitions, recipes, registry
from qplab.qengine import Parameter, QEngineError
from qplab.recipes import Add, Monomial, Mul
from qplab.series import _Record

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
    record = Add([Monomial(0, 1)])
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
