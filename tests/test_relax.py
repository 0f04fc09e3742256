import math
import random
import re

import pytest
from hypothesis import given, strategies as st

import paps
from generators import bench_gen, strong_rules_only
from obs_tables import EXPECTED_METRICS, GOAL_IDS, REQ_IDS
from paps.fcl import parse_rulebase
from paps.fuzzy import UniverseError
from paps.model import (DerivationRule, Goal, Requirement, RiskProfile,
                        SecurityModel)
from paps.pipeline import prioritize
from paps.relax import (DeviationMembership, RenderError, default_deviation,
                        deviation_degree, relax_requirement, relax_srl)
from paps.srm import format_number

_COEFF_RE = re.compile(r" (\d\.\d{2}) × ")


class TestRelaxRequirement:
    def test_reference_rendering(self):
        req = Requirement("R6", "achieve password policy", metric="complexity")
        statement = relax_requirement(req, 0.36)
        assert statement.rendered == (
            "R6: achieve password policy [complexity] "
            "as close as possible to 0.36 × OV_6")
        assert statement.ov_symbol == "OV_6"

    def test_custom_connector(self):
        req = Requirement("R7", "achieve password encryption",
                          metric="length of encryption key",
                          connector="as many bits as")
        statement = relax_requirement(req, 0.42)
        assert "[length of encryption key] as many bits as 0.42 × OV_7" \
            in statement.rendered

    def test_full_satisfaction_coefficient(self):
        req = Requirement("R1", "x", metric="m")
        assert " 1.00 × " in relax_requirement(req, 1.0).rendered

    def test_numeric_ov_rendered_inline(self):
        req = Requirement("R2", "x", metric="m", ov=100.0)
        statement = relax_requirement(req, 0.25)
        assert statement.rendered.endswith("0.25 × 100")

    def test_missing_metric_names_the_requirement(self):
        with pytest.raises(RenderError) as exc:
            relax_requirement(Requirement("R6", "x"), 0.5)
        assert exc.value.requirement == "R6"
        assert "R6" in str(exc.value)

    @pytest.mark.parametrize("rds", [-0.01, 1.01, math.nan])
    def test_rds_outside_unit_is_refused(self, rds):
        with pytest.raises(ValueError) as exc:
            relax_requirement(Requirement("R3", "x", metric="m"), rds)
        assert str(exc.value) == f"rds {rds} outside [0, 1]"

    def test_coefficient_round_trips_from_text(self):
        rng = random.Random(11)
        for _ in range(200):
            rds = rng.random()
            statement = relax_requirement(
                Requirement("R3", "desc", metric="m"), rds)
            m = _COEFF_RE.search(statement.rendered)
            assert m is not None
            assert float(m.group(1)) == pytest.approx(rds, abs=5e-3)


class TestRelaxSrl:
    def test_root_covers_all_metrics_in_order(self, obs, default_fis):
        model, risk = obs
        statements = relax_srl(model, risk, "S", *default_fis)
        assert len(statements) == 12
        by_req = {s.requirement: s for s in statements}
        for req_id, metric in zip(REQ_IDS, EXPECTED_METRICS):
            assert by_req[req_id].metric == metric

    def test_g13_single_statement(self, obs, default_fis):
        model, risk = obs
        statements = relax_srl(model, risk, "G13", *default_fis)
        assert [s.requirement for s in statements] == ["R12"]
        assert "[number of servers]" in statements[0].rendered

    def test_same_length_and_order_as_prioritize(self, obs, default_fis):
        model, risk = obs
        for goal in ("S", "G5", "G10"):
            entries = prioritize(model, risk, goal, *default_fis)
            statements = relax_srl(model, risk, goal, *default_fis)
            assert [s.requirement for s in statements] == \
                [e.requirement for e in entries]

    def test_goal_with_empty_srl(self, obs, default_fis):
        from paps.model import Goal, SecurityModel
        model, risk = obs
        lonely = SecurityModel(model.goals + (Goal("G99", "isolated"),),
                               model.requirements, model.rules, model.root)
        assert relax_srl(lonely, risk, "G99", *default_fis) == []


class TestRelaxAgreesWithPrioritize:
    """relax_srl reads prioritize, so it gives what relax_requirement over
    prioritize's entries gives, also where no rule fires."""

    @pytest.mark.parametrize("gaps", [False, True],
                             ids=["default-rules", "rules-with-gaps"])
    def test_every_obs_goal(self, obs, default_fis, gaps):
        model, risk = obs
        config, rulebase = default_fis
        if gaps:
            rulebase = strong_rules_only(rulebase)
        fallbacks = 0
        for goal in GOAL_IDS:
            entries = prioritize(model, risk, goal, config, rulebase)
            fallbacks += sum(e.no_activation for e in entries)
            assert relax_srl(model, risk, goal, config, rulebase) == [
                relax_requirement(model.requirement(e.requirement), e.rds)
                for e in entries]
        assert (fallbacks > 0) == gaps

    @pytest.mark.parametrize("ids, degrees, expected", [
        (["R10", "R1", "R2", "R01"], [0.5] * 4, ["R01", "R1", "R2", "R10"]),
        (["R01", "R2", "R1", "R10"], [0.5] * 4, ["R01", "R1", "R2", "R10"]),
        # impacts 0.8 and 0.9 both lie in the core of ``high``, so the RDS
        # ties, and the id's text orders the tie whatever the impacts
        (["R1", "R01"], [0.8, 0.9], ["R01", "R1"]),
        (["R01", "R1"], [0.8, 0.9], ["R01", "R1"]),
    ], ids=["R1-declared-first", "R01-declared-first", "R01-stronger",
            "R1-stronger"])
    def test_ids_with_equal_natural_keys_sort_by_the_text(
            self, default_fis, ids, degrees, expected):
        model = SecurityModel(
            (Goal("G1"),), tuple(Requirement(i, "d", "m") for i in ids),
            tuple(DerivationRule(f"P{k}", "G1", (i,), d)
                  for k, (i, d) in enumerate(zip(ids, degrees))), "G1")
        risk = RiskProfile(dict.fromkeys(ids, 0.5), dict.fromkeys(ids, 0.5))
        entries = prioritize(model, risk, "G1", *default_fis)
        assert len({e.rds for e in entries}) == 1
        assert [e.requirement for e in entries] == expected
        assert [s.requirement for s in relax_srl(
            model, risk, "G1", *default_fis)] == expected

    def test_out_of_universe_cost_raises_the_same_error(self, obs):
        model, risk = obs
        config, rulebase = parse_rulebase(paps.default_rules_text().replace(
            "VAR_INPUT cost\n    RANGE := (0.0 .. 1.0);\n"
            "    TERM low := (0, 0, 0.25, 0.5);",
            "VAR_INPUT cost\n    RANGE := (0.1 .. 1.0);\n"
            "    TERM low := (0.1, 0.1, 0.25, 0.5);"))
        messages = []
        for call in (prioritize, relax_srl):
            with pytest.raises(UniverseError) as exc:
                call(model, risk, "S", config, rulebase)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert re.fullmatch(r"requirement R\d+: cost=0.05 outside "
                            r"universe \[0.1, 1.0\]", messages[0])


def _layered_text() -> str:
    return bench_gen.layered_model(7, 200, 500, layers=8,
                                   continuous_risk=True).text


def _with_bare_requirement(model, risk, *heads):
    """The model plus ``R99``, which has no metric, as a child of each of
    ``heads`` (none: it contributes to no goal)."""
    return (SecurityModel(
        model.goals, model.requirements + (Requirement("R99", "bare"),),
        model.rules + tuple(DerivationRule(f"P9{k}", head, ("R99",), 0.7)
                            for k, head in enumerate(heads)), model.root),
        RiskProfile({**risk.cost, "R99": 0.5},
                    {**risk.technical_ability, "R99": 0.5}))


class TestStatementTable:
    """relax_srl keeps each requirement's statement parts on the model; its
    statements stay those of relax_requirement over prioritize."""

    @pytest.mark.parametrize("model_text", [paps.obs_fixture_text,
                                            _layered_text],
                             ids=["obs", "layered-seed-7-200x500"])
    def test_cold_and_warm_agree_with_relax_requirement(self, model_text):
        model, risk = paps.parse_model(model_text())
        config, rulebase = paps.load_default_rulebase()
        goals = [g.id for g in model.sorted_goals()]

        def relaxed(m):
            return {g: relax_srl(m, risk, g, config, rulebase) for g in goals}

        assert "_statement_parts" not in model.__dict__
        cold = relaxed(model)  # empty score memo and empty table
        assert set(model._statement_parts) == {
            s.requirement for statements in cold.values() for s in statements}
        warm = relaxed(model)  # both filled
        fresh = relaxed(SecurityModel(*model))  # memo filled, table empty
        expected = {g: [relax_requirement(model.requirement(e.requirement),
                                          e.rds)
                        for e in prioritize(model, risk, g, config, rulebase)]
                    for g in goals}
        assert cold == warm == fresh == expected
        assert [[s.rendered for s in cold[g]] for g in goals] == \
            [[s.rendered for s in expected[g]] for g in goals]

    def test_contributing_requirement_without_metric_raises_every_time(
            self, obs, default_fis):
        model, risk = _with_bare_requirement(*obs, "G13")
        for goal in ("G13", "S", "G13"):
            with pytest.raises(RenderError) as exc:
                relax_srl(model, risk, goal, *default_fis)
            assert exc.value.requirement == "R99"
            assert str(exc.value) == \
                "requirement R99 has no satisfaction metric"
        assert "R99" not in model._statement_parts
        # goals R99 does not contribute to still relax
        assert [s.requirement for s in relax_srl(
            model, risk, "G12", *default_fis)] == ["R11"]

    def test_requirement_without_metric_contributing_nowhere_never_raises(
            self, obs, default_fis):
        model, risk = _with_bare_requirement(*obs)
        for goal in GOAL_IDS * 2:
            assert relax_srl(model, risk, goal, *default_fis) == \
                relax_srl(*obs, goal, *default_fis)
        assert "R99" not in model._statement_parts

    @pytest.mark.parametrize("ov", [100.0, 2.5, 1e-7, 0.1 + 0.2, 1234567.125])
    def test_numeric_ov_renders_through_format_number(self, default_fis, ov):
        model = SecurityModel((Goal("G1"),), (Requirement("R1", "d", "m",
                                                          ov=ov),),
                              (DerivationRule("P1", "G1", ("R1",), 0.6),),
                              "G1")
        risk = RiskProfile({"R1": 0.4}, {"R1": 0.7})
        for _ in range(2):
            [statement] = relax_srl(model, risk, "G1", *default_fis)
            assert statement.ov_symbol == format_number(ov)
            assert statement.rendered.endswith(f" × {format_number(ov)}")
            assert statement == relax_requirement(model.requirement("R1"),
                                                  statement.rds)

    @pytest.mark.parametrize("ov, message", [
        (0.0, "ov must be positive, got 0.0"),
        (-1.0, "ov must be positive, got -1.0"),
        (math.inf, "ov must be finite, got inf"),
        (math.nan, "ov must be positive, got nan"),
        ("100", "ov must be a number, got '100'"),
    ], ids=["zero", "negative", "inf", "nan", "text"])
    def test_numeric_ov_that_is_not_a_target_raises_every_time(
            self, default_fis, ov, message):
        model = SecurityModel((Goal("G1"),), (Requirement("R1", "d", "m",
                                                          ov=ov),),
                              (DerivationRule("P1", "G1", ("R1",), 0.6),),
                              "G1")
        risk = RiskProfile({"R1": 0.4}, {"R1": 0.7})
        calls = [lambda: relax_srl(model, risk, "G1", *default_fis)] * 2 + \
            [lambda: relax_requirement(model.requirement("R1"), 0.5)]
        for call in calls:  # relax_srl cold and warm, relax_requirement
            with pytest.raises(RenderError) as exc:
                call()
            assert exc.value.requirement == "R1"
            assert str(exc.value) == f"requirement R1: {message}"
        assert "R1" not in model._statement_parts


class TestCheckPrecedence:
    """Which message wins when two arguments are bad."""

    def test_default_width_reports_rds_before_an_infinite_ov(self):
        with pytest.raises(ValueError, match=r"rds 1.5 outside \[0, 1\]"):
            default_deviation(1.5, math.inf)

    @pytest.mark.parametrize("v, ov, message", [
        (math.nan, math.inf, "ov must be finite, got inf"),
        (5.0, -1.0, "ov must be positive, got -1.0"),
    ], ids=["inf", "negative"])
    def test_degree_reports_ov_before_rds_and_v(self, v, ov, message):
        with pytest.raises(ValueError, match=message):
            deviation_degree(DeviationMembership(10.0), v, 1.5, ov)

    def test_missing_metric_reported_before_rds(self):
        with pytest.raises(RenderError):
            relax_requirement(Requirement("R1"), 2.0)


class TestDeviationDegree:
    def test_exact_target_is_one(self):
        dm = DeviationMembership(20.0)
        assert deviation_degree(dm, v=36.0, rds=0.36, ov=100.0) == 1.0

    def test_support_edge_is_zero(self):
        dm = DeviationMembership(20.0)
        assert deviation_degree(dm, v=56.0, rds=0.36, ov=100.0) == 0.0

    def test_reference_midpoint(self):
        dm = DeviationMembership(20.0)
        assert deviation_degree(dm, 46.0, 0.36, 100.0) == pytest.approx(0.5)

    def test_nonpositive_ov_rejected(self):
        with pytest.raises(ValueError):
            deviation_degree(DeviationMembership(1.0), 0.0, 0.5, 0.0)

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(ValueError):
            DeviationMembership(0.0)

    def test_nan_default_width_rejected(self):
        with pytest.raises(ValueError, match="rds and ov must be positive"):
            default_deviation(float("nan"), 10.0)

    @pytest.mark.parametrize("v, rds, ov, message", [
        (float("nan"), 0.36, 100.0, "v must be a number, got nan"),
        (36.0, float("nan"), 100.0, r"rds nan outside \[0, 1\]"),
        (36.0, 0.36, float("nan"), "ov must be positive, got nan"),
    ], ids=["v", "rds", "ov"])
    def test_nan_rejected(self, v, rds, ov, message):
        with pytest.raises(ValueError, match=message):
            deviation_degree(DeviationMembership(20.0), v, rds, ov)

    @pytest.mark.parametrize("rds, ov", [
        (-0.4, -100.0), (-0.4, 100.0), (0.4, -100.0), (0.0, 100.0),
        (0.4, 0.0), (0.4, float("-inf")),
    ])
    def test_default_width_needs_each_argument_positive(self, rds, ov):
        with pytest.raises(ValueError, match="rds and ov must be positive"):
            default_deviation(rds, ov)

    def test_default_width_rds_above_one_rejected(self):
        with pytest.raises(ValueError, match=r"rds 1.5 outside \[0, 1\]"):
            default_deviation(1.5, 100.0)

    def test_infinite_ov_rejected(self):
        with pytest.raises(ValueError, match="ov must be finite, got inf"):
            default_deviation(0.4, math.inf)
        with pytest.raises(ValueError, match="ov must be finite, got inf"):
            deviation_degree(DeviationMembership(10.0), 5.0, 0.0, math.inf)

    def test_default_width_is_quarter_of_target(self):
        dm = default_deviation(0.4, 100.0)
        assert dm.half_width == pytest.approx(10.0)

    @given(st.floats(0.01, 1), st.floats(0.1, 1000), st.floats(0.01, 500),
           st.floats(-2000, 2000))
    def test_range_and_symmetry(self, rds, ov, half_width, v):
        dm = DeviationMembership(half_width)
        degree = deviation_degree(dm, v, rds, ov)
        assert 0.0 <= degree <= 1.0
        mirrored = deviation_degree(dm, 2 * rds * ov - v, rds, ov)
        assert degree == pytest.approx(mirrored, abs=1e-9)
