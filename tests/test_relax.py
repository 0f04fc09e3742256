import random
import re

import pytest
from hypothesis import given, strategies as st

import paps
from obs_tables import EXPECTED_METRICS, GOAL_IDS, REQ_IDS
from paps.fcl import parse_rulebase
from paps.fuzzy import RuleBase, UniverseError
from paps.model import (DerivationRule, Goal, Requirement, RiskProfile,
                        SecurityModel)
from paps.pipeline import prioritize
from paps.relax import (DeviationMembership, RenderError, default_deviation,
                        deviation_degree, relax_requirement, relax_srl)

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


def _strong_rules_only(rulebase: RuleBase) -> RuleBase:
    """The rule base with every rule not concluding ``strong`` dropped, so
    most entries have no activation."""
    return RuleBase(tuple(r for r in rulebase.rules
                          if r.consequent[1] == "strong"))


class TestRelaxAgreesWithPrioritize:
    """relax_srl scores without labels or entry records, and must still
    give what relax_requirement over prioritize gives."""

    @pytest.mark.parametrize("gaps", [False, True],
                             ids=["default-rules", "rules-with-gaps"])
    def test_every_obs_goal(self, obs, default_fis, gaps):
        model, risk = obs
        config, rulebase = default_fis
        if gaps:
            rulebase = _strong_rules_only(rulebase)
        fallbacks = 0
        for goal in GOAL_IDS:
            entries = prioritize(model, risk, goal, config, rulebase)
            fallbacks += sum(e.no_activation for e in entries)
            assert relax_srl(model, risk, goal, config, rulebase) == [
                relax_requirement(model.requirement(e.requirement), e.rds)
                for e in entries]
        assert (fallbacks > 0) == gaps

    @pytest.mark.parametrize("ids, degrees, expected", [
        (["R10", "R1", "R2", "R01"], [0.5] * 4, ["R1", "R01", "R2", "R10"]),
        (["R01", "R2", "R1", "R10"], [0.5] * 4, ["R01", "R1", "R2", "R10"]),
        # impacts 0.8 and 0.9 both lie in the core of ``high``, so the RDS
        # ties and the stronger impact, listed first by build_srl, stays first
        (["R1", "R01"], [0.8, 0.9], ["R01", "R1"]),
        (["R01", "R1"], [0.8, 0.9], ["R1", "R01"]),
    ], ids=["R1-declared-first", "R01-declared-first", "R01-stronger",
            "R1-stronger"])
    def test_ids_with_equal_natural_keys_keep_their_order(
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
