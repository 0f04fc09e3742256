"""The record contract: every public record type is an immutable named
tuple, compared and hashed by value, whose constructor checks its fields."""

from pathlib import Path

import pytest

import paps
from paps import (DerivationRule, DeviationMembership, Finding, FuzzyRule,
                  Goal, ImpactMatrix, LinguisticVariable, PrioritizedEntry,
                  RelaxedStatement, Requirement, RiskProfile, RuleBase,
                  SecurityModel, TrapezoidMF, ValidationReport, VariableConfig)

MF = TrapezoidMF(0.0, 0.0, 0.5, 1.0)
VARIABLE = LinguisticVariable("impact", (0.0, 1.0), (("low", MF),))
MODEL = SecurityModel((Goal("G1"),), (Requirement("R1"),),
                      (DerivationRule("P1", "G1", ("R1",), 0.5),), "G1")

# (record, its fields in order, their defaults)
RECORDS = [
    (Goal("G1"), ("id", "description"), {"description": ""}),
    (Requirement("R1"), ("id", "description", "metric", "connector", "ov"),
     {"description": "", "metric": None, "connector": None, "ov": None}),
    (DerivationRule("P1", "G1", ("R1",), 0.5),
     ("id", "head", "body", "degree"), {}),
    (MODEL, ("goals", "requirements", "rules", "root"), {}),
    (RiskProfile({"R1": 0.5}, {"R1": 1.0}), ("cost", "technical_ability"),
     {}),
    (Finding("cycle", "error", "G1", "derivation cycle"),
     ("category", "severity", "subject", "message"), {}),
    (ValidationReport(), ("findings",), {"findings": ()}),
    (MF, ("x0", "x1", "x2", "x3"), {}),
    (VARIABLE, ("name", "universe", "terms"), {}),
    (VariableConfig((VARIABLE,), VARIABLE), ("inputs", "output"), {}),
    (FuzzyRule("1", (("impact", "low"),), ("priority", "weak")),
     ("id", "antecedent", "consequent"), {}),
    (RuleBase(()), ("rules",), {}),
    (ImpactMatrix(("G1",), ("R1",), {"G1": {"R1": 0.5}}),
     ("goals", "requirements", "rows"), {}),
    (PrioritizedEntry("G1", "R1", 0.5, 0.5, 1.0, 0.6, "normal", "N"),
     ("goal", "requirement", "impact", "cost", "tech", "rds", "term",
      "label", "no_activation"), {"no_activation": False}),
    (RelaxedStatement("R1", "m", "c", 0.5, "OV_1", "text"),
     ("requirement", "metric", "connector", "rds", "ov_symbol", "rendered"),
     {}),
    (DeviationMembership(1.0), ("half_width",), {}),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=IDS)
def test_fields_keep_their_names_order_and_defaults(record, fields,
                                                    defaults):
    assert type(record)._fields == fields
    assert type(record)._field_defaults == defaults
    assert tuple(record) == tuple(getattr(record, f) for f in fields)


@pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=IDS)
def test_records_are_immutable(record, fields, defaults):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("record, fields, defaults", RECORDS, ids=IDS)
def test_equality_is_by_value_and_a_record_is_a_tuple(record, fields,
                                                      defaults):
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert twin == tuple(record)
    if not isinstance(record, (RiskProfile, ImpactMatrix)):  # hold dicts
        assert hash(twin) == hash(record)


def test_cached_tables_live_past_the_guard():
    assert MODEL.goal("G1") == Goal("G1")
    assert "graph" in vars(MODEL)
    with pytest.raises(AttributeError):
        MODEL.graph = None
    assert MODEL.graph is MODEL.graph


def test_repr_names_the_fields():
    assert repr(Goal("G1")) == "Goal(id='G1', description='')"
    assert repr(DeviationMembership(0.5)) == (
        "DeviationMembership(half_width=0.5)")


@pytest.mark.parametrize("build, error, message", [
    (lambda: TrapezoidMF(0.5, 0.2, 0.3, 0.5), ValueError,
     "breakpoints must be ordered"),
    (lambda: TrapezoidMF(x0=0.0, x1=0.0, x2=1.0, x3=0.5), ValueError,
     "breakpoints must be ordered"),
    (lambda: LinguisticVariable("v", (1.0, 1.0), ()), ValueError,
     "empty universe for v"),
    (lambda: LinguisticVariable("v", (0.0, 1.0), ()), ValueError,
     "variable v has no terms"),
    (lambda: LinguisticVariable("v", (0.0, 1.0), (("a", MF), ("a", MF))),
     ValueError, "duplicate term names in v"),
    (lambda: LinguisticVariable("v", (0.0, 0.5), (("a", MF),)), ValueError,
     "term v.a lies outside the universe"),
    (lambda: DeviationMembership(0.0), ValueError,
     "half_width must be positive"),
    (lambda: DeviationMembership(float("nan")), ValueError,
     "half_width must be positive"),
], ids=["trapezoid", "trapezoid-keywords", "empty-universe", "no-terms",
        "duplicate-term", "term-outside", "deviation-width",
        "deviation-width-nan"])
def test_constructor_checks_raise_from_library_code(build, error, message):
    with pytest.raises(error, match=message) as exc:
        build()
    library = Path(paps.__file__).resolve().parent
    assert Path(exc.traceback[-1].path).resolve().parent == library
