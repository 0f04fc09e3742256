import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import paps
from obs_tables import EXPECTED_SUPPORT, GOAL_IDS
from paps.fcl import FclError, parse_rulebase
from paps.fuzzy import (LinguisticVariable, UniverseError, VariableConfig,
                        label)
from paps.pipeline import prioritize, report_csv, report_json
from paps.relax import relax_json, relax_srl


def permuted_rules(order: list[int], rng) -> str:
    """The default rule base with its VAR_INPUT blocks put in ``order``, and
    its RULE lines and the TERM lines of every VAR block shuffled by
    ``rng``."""
    def shuffle_lines(match) -> str:
        lines = match.group().splitlines(keepends=True)
        rng.shuffle(lines)
        return "".join(lines)

    text = re.sub(r"(?:^ *TERM .*\n)+", shuffle_lines,
                  paps.default_rules_text(), flags=re.M)
    blocks = re.findall(r"VAR_INPUT .*?END_VAR\n", text, re.S)
    rules = re.findall(r"^ *RULE .*\n", text, re.M)
    assert len(blocks) == 3 and len(rules) == 27
    for block in blocks:
        text = text.replace(block, "", 1)
    for rule in rules:
        text = text.replace(rule, "", 1)
    rng.shuffle(rules)
    text = text.replace("RULEBLOCK\n", "RULEBLOCK\n" + "".join(rules), 1)
    return "".join(blocks[i] for i in order) + text


def _entries(model, risk, config, rulebase) -> list:
    """Every OBS goal's entries, the RDS to the last bit."""
    return [[(e.requirement, e.rds.hex(), e.term, e.no_activation)
             for e in prioritize(model, risk, g, config, rulebase)]
            for g in GOAL_IDS]


def _outputs(model, risk, config, rulebase) -> str:
    return "".join(report_csv(prioritize(model, risk, g, config, rulebase))
                   + relax_json(relax_srl(model, risk, g, config, rulebase))
                   for g in GOAL_IDS)


class TestPrioritize:
    def test_g13_single_optional_entry(self, obs, default_fis):
        model, risk = obs
        config, rulebase = default_fis
        entries = prioritize(model, risk, "G13", config, rulebase)
        assert len(entries) == 1
        assert entries[0].requirement == "R12"
        assert entries[0].label == "O"

    def test_g3_exact_support(self, obs, default_fis):
        model, risk = obs
        entries = prioritize(model, risk, "G3", *default_fis)
        assert {e.requirement for e in entries} == {"R2", "R3", "R4"}

    def test_root_r1_is_strong(self, obs, default_fis):
        model, risk = obs
        entries = prioritize(model, risk, "S", *default_fis)
        by_req = {e.requirement: e for e in entries}
        assert by_req["R1"].label == "S"

    def test_support_matches_expected_for_all_goals(self, obs, default_fis):
        model, risk = obs
        for goal in GOAL_IDS:
            entries = prioritize(model, risk, goal, *default_fis)
            assert ({e.requirement for e in entries}
                    == EXPECTED_SUPPORT[goal]), goal

    def test_sorted_by_rds_then_id(self, obs, default_fis):
        model, risk = obs
        entries = prioritize(model, risk, "S", *default_fis)
        keys = [(-e.rds, e.requirement) for e in entries]
        # ties (equal rds) must come out in natural id order
        for (r1, id1), (r2, id2) in zip(keys, keys[1:]):
            assert r1 <= r2

    def test_deterministic(self, obs, default_fis):
        model, risk = obs
        first = prioritize(model, risk, "S", *default_fis)
        second = prioritize(model, risk, "S", *default_fis)
        assert first == second

    def test_stored_label_consistent_with_label_fn(self, obs, default_fis):
        model, risk = obs
        config, rulebase = default_fis
        for goal in GOAL_IDS:
            for e in prioritize(model, risk, goal, config, rulebase):
                assert e.term == label(config.output, e.rds)
                assert e.label == e.term[:1].upper()
                assert 0.0 <= e.rds <= 1.0
                assert not e.no_activation

    def test_no_activation_falls_back_to_weakest_centroid(self, obs, default_fis):
        from paps.fuzzy import RuleBase
        model, risk = obs
        config, _ = default_fis
        # a rule base that can never fire for R12's crisp inputs
        from paps.fuzzy import FuzzyRule
        starved = RuleBase((FuzzyRule(
            "1", (("impact", "low"), ("cost", "low"), ("tech", "high")),
            ("priority", "strong")),))
        entries = prioritize(model, risk, "G13", config, starved)
        assert len(entries) == 1
        assert entries[0].no_activation
        assert entries[0].rds == pytest.approx(
            config.output.term_centroid("optional"))


class TestStageCalls:
    """prioritize calls each fuzzy stage by its paps.pipeline name, once per
    entry, so wrappers installed there see every inference."""

    STAGES = ("fuzzify", "infer", "defuzzify_cog", "label")

    def test_each_stage_runs_once_per_entry(self, obs, default_fis,
                                            monkeypatch):
        import paps.pipeline as pipeline
        model, risk = obs
        calls = dict.fromkeys(self.STAGES, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        expected = prioritize(model, risk, "S", *default_fis)
        for name in self.STAGES:
            monkeypatch.setattr(pipeline, name,
                                counting(name, getattr(pipeline, name)))
        entries = pipeline.prioritize(model, risk, "S", *default_fis)
        assert entries == expected
        assert calls == dict.fromkeys(self.STAGES, len(entries))


class TestReports:
    def test_csv_fields(self, obs, default_fis):
        model, risk = obs
        entries = prioritize(model, risk, "G3", *default_fis)
        lines = report_csv(entries).strip().splitlines()
        assert lines[0] == "goal,requirement,impact,cost,tech,rds,label"
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert cells[0] == "G3"
        assert len(cells[5].split(".")[1]) == 4  # rds printed to 4 decimals

    def test_json_round_trips(self, obs, default_fis):
        model, risk = obs
        entries = prioritize(model, risk, "G12", *default_fis)
        rows = json.loads(report_json(entries))
        assert rows[0]["requirement"] == "R11"
        assert set(rows[0]) == {"goal", "requirement", "impact", "cost",
                                "tech", "rds", "label", "no_activation"}


class TestInputBinding:
    @settings(max_examples=12, deadline=None)
    @given(st.permutations([0, 1, 2]), st.randoms(use_true_random=False))
    def test_declaration_order_does_not_matter(self, obs, default_fis,
                                               order, rng):
        model, risk = obs
        config, rulebase = parse_rulebase(permuted_rules(order, rng))
        assert _entries(model, risk, config, rulebase) == _entries(
            model, risk, *default_fis)
        assert _outputs(model, risk, config, rulebase) == _outputs(
            model, risk, *default_fis)

    @pytest.mark.parametrize("old, new", [
        ("tech", "skill"),                       # renamed
        ("VAR_INPUT tech", "VAR_INPUT extra"),   # tech missing, extra declared
    ])
    def test_inputs_must_be_impact_cost_tech(self, old, new):
        text = paps.default_rules_text().replace(old, new)
        if old == "VAR_INPUT tech":
            text = text.replace(" AND tech IS high", "").replace(
                " AND tech IS medium", "").replace(" AND tech IS low", "")
        with pytest.raises(FclError, match="impact, cost and tech") as exc:
            parse_rulebase(text)
        assert (exc.value.line, exc.value.column) == (28, 1)

    def test_missing_input_is_reported_at_the_start(self):
        text = paps.default_rules_text()
        text = text.replace(re.search(r"VAR_INPUT tech.*?END_VAR\n", text,
                                      re.S).group(), "")
        for term in ("high", "medium", "low"):
            text = text.replace(f" AND tech IS {term}", "")
        with pytest.raises(FclError) as exc:
            parse_rulebase(text)
        assert str(exc.value) == ("line 1, column 1: input variables must be "
                                  "impact, cost and tech, got impact, cost")

    @pytest.mark.parametrize("output_range", ["(0.0 .. 2.0)", "(-0.5 .. 1.0)"])
    def test_output_range_must_lie_inside_unit(self, output_range):
        with pytest.raises(FclError) as exc:
            parse_rulebase(paps.default_rules_text().replace(
                "RANGE := (0.0 .. 1.0);\n    TERM optional",
                f"RANGE := {output_range};\n    TERM optional"))
        assert exc.value.message == (f"output variable priority has RANGE "
                                     f"{output_range}, not inside [0, 1]")
        assert (exc.value.line, exc.value.column) == (36, 5)

    def test_prioritize_checks_a_config_built_in_code(self, obs, default_fis):
        model, risk = obs
        config, rulebase = default_fis
        wide = LinguisticVariable("priority", (0.0, 2.0), config.output.terms)
        for bad, message in [
                (VariableConfig(config.inputs[:2], config.output),
                 "input variables must be impact, cost and tech, "
                 "got impact, cost"),
                (VariableConfig(config.inputs, wide),
                 "output variable priority has RANGE (0.0 .. 2.0), "
                 "not inside [0, 1]")]:
            with pytest.raises(FclError) as exc:
                prioritize(model, risk, "S", bad, rulebase)
            assert str(exc.value) == f"line 1, column 1: {message}"

    def test_value_outside_a_universe_names_the_requirement(self, obs):
        model, risk = obs
        text = paps.default_rules_text().replace(
            "VAR_INPUT cost\n    RANGE := (0.0 .. 1.0);\n"
            "    TERM low := (0, 0, 0.25, 0.5);",
            "VAR_INPUT cost\n    RANGE := (0.1 .. 1.0);\n"
            "    TERM low := (0.1, 0.1, 0.25, 0.5);")
        config, rulebase = parse_rulebase(text)
        with pytest.raises(UniverseError,
                           match=r"requirement R\d+: cost=0.05 outside"):
            prioritize(model, risk, "S", config, rulebase)
