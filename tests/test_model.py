import random

import pytest

import paps
from paps.impact import build_srl, impact, impact_matrix
from paps.model import (DerivationRule, Goal, Requirement, RiskProfile,
                        SecurityModel, adjacency, technical_ability,
                        validate_model)


def _small_model(rules):
    return SecurityModel(
        goals=(Goal("S"), Goal("G1")),
        requirements=(Requirement("R1"),),
        rules=tuple(rules),
        root="S")


def _self_loop_model():
    return _small_model([
        DerivationRule("P1", "S", ("G1", "R1"), 0.5),
        DerivationRule("P2", "G1", ("G1",), 0.5),
    ])


def _longer_cycle_model():
    return SecurityModel(
        goals=(Goal("S"), Goal("G1"), Goal("G2")),
        requirements=(Requirement("R1"),),
        rules=(DerivationRule("P1", "S", ("G1",), 0.9),
               DerivationRule("P2", "G1", ("G2",), 0.9),
               DerivationRule("P3", "G2", ("G1", "R1"), 0.9)),
        root="S")


def _risk(**overrides):
    base = {"R1": 0.5}
    cost = dict(base)
    tech = dict(base)
    cost.update(overrides.get("cost", {}))
    tech.update(overrides.get("tech", {}))
    return RiskProfile(cost, tech)


class TestValidateModel:
    def test_obs_fixture_is_clean(self, obs):
        model, risk = obs
        report = validate_model(model, risk)
        assert report.findings == ()
        assert report.ok

    def test_self_loop_is_a_cycle_finding(self):
        report = validate_model(_self_loop_model(), _risk())
        cycles = [f for f in report.errors if f.category == "cycle"]
        assert len(cycles) == 1

    def test_longer_cycle_detected(self):
        report = validate_model(_longer_cycle_model(), _risk())
        assert any(f.category == "cycle" for f in report.errors)

    def test_missing_risk_entry(self, obs):
        model, risk = obs
        depleted = RiskProfile(
            {k: v for k, v in risk.cost.items() if k != "R12"},
            dict(risk.technical_ability))
        report = validate_model(model, depleted)
        missing = [f for f in report.errors if f.category == "missing-risk"]
        assert [f.subject for f in missing] == ["R12"]

    def test_dangling_reference(self):
        model = _small_model([DerivationRule("P1", "S", ("G9",), 0.5)])
        report = validate_model(model, _risk())
        assert any(f.category == "dangling-ref" for f in report.errors)

    def test_requirement_as_head(self):
        model = _small_model([
            DerivationRule("P1", "S", ("G1", "R1"), 0.5),
            DerivationRule("P2", "R1", ("G1",), 0.5)])
        report = validate_model(model, _risk())
        assert any(f.category == "requirement-as-head" for f in report.errors)

    def test_degree_out_of_range(self):
        model = _small_model([DerivationRule("P1", "S", ("R1",), 1.2)])
        report = validate_model(model, _risk())
        assert any(f.category == "range" and f.subject == "P1"
                   for f in report.errors)

    def test_risk_out_of_range(self):
        model = _small_model([DerivationRule("P1", "S", ("G1", "R1"), 0.5)])
        report = validate_model(model, _risk(cost={"R1": 1.5}))
        assert any(f.category == "range" and f.subject == "R1"
                   for f in report.errors)

    def test_unreachable_is_warning_only(self):
        model = _small_model([DerivationRule("P1", "S", ("R1",), 0.5)])
        report = validate_model(model, _risk())
        assert report.ok
        assert [f.subject for f in report.warnings] == ["G1"]
        assert all(f.category == "unreachable-node" for f in report.warnings)

    def test_validated_obs_values_all_in_range(self, obs):
        model, risk = obs
        assert validate_model(model, risk).ok
        for rule in model.rules:
            assert 0.0 <= rule.degree <= 1.0
        for table in (risk.cost, risk.technical_ability):
            assert all(0.0 <= v <= 1.0 for v in table.values())


class TestCyclicModelsRaise:
    @pytest.mark.parametrize("make", [_self_loop_model, _longer_cycle_model])
    def test_library_entry_points_raise(self, make, default_fis):
        model = make()
        for call in (lambda: impact_matrix(model),
                     lambda: impact(model, "S", "R1"),
                     lambda: build_srl(model, "S"),
                     lambda: paps.prioritize(model, _risk(), "S",
                                             *default_fis),
                     lambda: paps.relax_srl(model, _risk(), "S",
                                            *default_fis)):
            with pytest.raises(ValueError, match="derivation cycle: G1 -> "):
                call()


class TestGraph:
    def test_built_once_per_instance(self, obs):
        model, _ = obs
        assert model.graph is model.graph
        assert adjacency(model) is model.graph.adjacency

    def test_equality_and_hash_ignore_derived_data(self, obs):
        model, _ = obs
        twin = paps.parse_model(paps.obs_fixture_text())[0]
        model.graph.impact_rows
        assert twin == model and hash(twin) == hash(model)

    def test_validation_leaves_impact_rows_unbuilt(self, obs):
        model = paps.parse_model(paps.obs_fixture_text())[0]
        validate_model(model, obs[1])
        assert "impact_rows" not in vars(model.graph)

    def test_duplicate_edges_collapse_to_max_in_child_order(self):
        model = _small_model([DerivationRule("P1", "S", ("R1", "G1"), 0.3),
                              DerivationRule("P2", "S", ("R1",), 0.6),
                              DerivationRule("P3", "S", ("R1",), 0.4)])
        assert adjacency(model) == {"S": (("G1", 0.3), ("R1", 0.6))}

    def test_lookups_by_id(self):
        model = SecurityModel(
            goals=(Goal("S", "first"), Goal("S", "second")),
            requirements=(Requirement("R1", "req"),), rules=(), root="S")
        assert model.goal("S").description == "first"
        assert model.requirement("R1").description == "req"
        with pytest.raises(KeyError):
            model.goal("R1")
        with pytest.raises(KeyError):
            model.requirement("S")


class TestTechnicalAbility:
    def test_identity_at_one(self):
        assert technical_ability(1.0) == 1.0

    def test_complexity_five(self):
        assert technical_ability(5.0) == pytest.approx(0.2)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            technical_ability(0.5)

    def test_strictly_decreasing(self):
        rng = random.Random(7)
        values = sorted(rng.uniform(1.0, 50.0) for _ in range(200))
        abilities = [technical_ability(v) for v in values]
        assert all(a > b for a, b in zip(abilities, abilities[1:]))
        assert all(0.0 < a <= 1.0 for a in abilities)
