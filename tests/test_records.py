"""Record classes: constructor signatures, equality, hashing and defaults."""

import inspect

import pytest

from folindex import (
    Branch,
    ChowClass,
    ConstructibleFn,
    CSMClass,
    FieldDescriptor,
    GlobalReport,
    IndexReport,
    LagrangianCycle,
    LocalMultiplicity,
    LogBasis,
    ProjFoliation,
    QQ,
    SingularPoint,
    indicator_curve,
)
from folindex.confun import CurveRecord
from folindex.puiseux import _Path

from conftest import P2

REQUIRED = inspect.Parameter.empty
FRESH = None   # stands for a new dict per instance, checked below

# Every constructor takes its fields in this order, positionally or by keyword.
FIELDS = {
    FieldDescriptor: [("kind", REQUIRED), ("generator_name", None),
                      ("minimal_polynomial", None), ("reduction_rows", ()),
                      ("reduction_den", 1)],
    LocalMultiplicity: [("value", REQUIRED)],
    Branch: [(name, REQUIRED) for name in (
        "descriptor", "x_poly", "y_poly", "precision", "multiplicity",
        "conjugacy_size", "exact", "point", "variables")],
    _Path: [("steps", REQUIRED), ("conjugacy", REQUIRED), ("exact", REQUIRED)],
    IndexReport: [("kind", REQUIRED), ("value", REQUIRED), ("ingredients", REQUIRED)],
    LogBasis: [("chi1", REQUIRED), ("chi2", REQUIRED), ("divisor", REQUIRED)],
    SingularPoint: [("chart", REQUIRED), ("coordinates", REQUIRED),
                    ("conjugacy_size", REQUIRED)],
    ProjFoliation: [("charts", REQUIRED), ("degree", REQUIRED),
                    ("tangent_line_bundle_twist", REQUIRED),
                    ("line_at_infinity_invariant", REQUIRED)],
    GlobalReport: [("theorem", REQUIRED), ("lhs", REQUIRED), ("rhs", REQUIRED),
                   ("per_point", REQUIRED), ("passed", REQUIRED),
                   ("assumptions", ()), ("details", FRESH)],
    CurveRecord: [("key", REQUIRED), ("mult", REQUIRED), ("mu", REQUIRED),
                  ("branch_summary", REQUIRED), ("curve", REQUIRED)],
    ConstructibleFn: [("ambient_coeff", REQUIRED), ("curve_terms", REQUIRED),
                      ("point_coeff", REQUIRED), ("registry", FRESH)],
    LagrangianCycle: [("terms", REQUIRED)],
    ChowClass: [("ambient_dim", REQUIRED), ("coefficients", REQUIRED)],
    CSMClass: [("components", REQUIRED)],
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_constructor_takes_the_fields_in_order(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == FIELDS[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    # one slot per field and no instance dict
    assert cls.__slots__ == tuple(name for name, _ in FIELDS[cls])


def test_dict_defaults_are_fresh_per_instance():
    a, b = (GlobalReport("BAUM_BOTT", 3, 3, (), True) for _ in range(2))
    assert a.details == {} and a.details is not b.details
    f, g = (ConstructibleFn(0, (), 1) for _ in range(2))
    assert f.registry == {} and f.registry is not g.registry


def test_field_equality_and_hash_ignore_the_reduction_rows():
    sqrt2 = FieldDescriptor.simple_extension("r", [-2, 0, 1])
    bare = FieldDescriptor("simple-extension", "r", sqrt2.minimal_polynomial)
    assert sqrt2.reduction_rows == ((2, 0),) and bare.reduction_rows == ()
    assert bare == sqrt2 and hash(bare) == hash(sqrt2)
    assert {sqrt2: "r"}[bare] == "r"
    assert bare != FieldDescriptor("simple-extension", "s", sqrt2.minimal_polynomial)
    assert QQ == FieldDescriptor("rationals") != sqrt2
    # the benchmark's tracer rewraps the function under the staticmethod
    assert isinstance(FieldDescriptor.__dict__["simple_extension"], staticmethod)


def test_curve_record_equality_ignores_the_germ():
    f = P2("y^2 - x^3")
    one, two = (indicator_curve(f).registry[f.to_str()] for _ in range(2))
    assert one.curve is not two.curve and one == two
    assert CurveRecord(one.key, one.mult, one.mu + 1, one.branch_summary, one.curve) != one
    # the sum's conflict check compares the two records of one curve
    assert (indicator_curve(f) + indicator_curve(f)).curve_terms == ((f.to_str(), 2),)


def test_compared_records_are_equal_by_value():
    assert IndexReport("PH", 1, {"colength": 1}) == IndexReport("PH", 1, {"colength": 1})
    assert IndexReport("PH", 1, {"colength": 1}) != IndexReport("LOG", 1, {"colength": 1})
    assert ChowClass(2, [1, 3, 3]) == ChowClass.tangent(2) != ChowClass.one(2)
    assert ConstructibleFn(0, (), 1) == ConstructibleFn.point_mass()
