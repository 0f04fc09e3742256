import json
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import paps
from generators import random_valid_model, strong_rules_only
from obs_tables import EXPECTED_SUPPORT, GOAL_IDS, REQ_IDS
from paps import render
from paps.fcl import FclError, parse_rulebase
from paps.fuzzy import (LinguisticVariable, NoActivationError, UniverseError,
                        VariableConfig, defuzzify_cog, fuzzify, infer, label,
                        short_label)
from paps.model import (DerivationRule, Goal, Requirement, RiskProfile,
                        SecurityModel, natural_key)
from paps.pipeline import (REPORT_FIELDS, PrioritizedEntry, prioritize,
                           report_csv, report_json, report_table)
from paps.relax import relax_json, relax_requirement, relax_srl


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
        keys = [(-e.rds, natural_key(e.requirement)) for e in entries]
        # ties (equal rds) must come out in natural id order
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

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


STAGES = ("fuzzify", "infer", "defuzzify_cog", "label")


def count_stage_calls(monkeypatch) -> Counter:
    """Wrap each fuzzy stage and the config check under its paps.pipeline
    name, where the scoring loop looks it up, and count the calls from then
    on."""
    import paps.pipeline as pipeline
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in (*STAGES, "check_inputs"):
        monkeypatch.setattr(pipeline, name,
                            counting(name, getattr(pipeline, name)))
    return calls


def cost_from_a_tenth_rules() -> str:
    """The default rules with the cost universe starting at 0.1, above the
    cost of some OBS requirements."""
    return paps.default_rules_text().replace(
        "VAR_INPUT cost\n    RANGE := (0.0 .. 1.0);\n"
        "    TERM low := (0, 0, 0.25, 0.5);",
        "VAR_INPUT cost\n    RANGE := (0.1 .. 1.0);\n"
        "    TERM low := (0.1, 0.1, 0.25, 0.5);")


def _sweep(model, risk, config, rulebase) -> list:
    """prioritize and relax_srl of every OBS goal."""
    return [(prioritize(model, risk, g, config, rulebase),
             relax_srl(model, risk, g, config, rulebase)) for g in GOAL_IDS]


class TestStageCalls:
    """The scoring loop calls each fuzzy stage by its paps.pipeline name, so
    wrappers installed there see every inference. A rule base keeps a memo
    of the whole score of each triple it scored, so fuzzify, infer,
    defuzzify_cog and label run once per distinct (impact, cost, tech)
    triple, and a hit runs none of them."""

    def test_inference_runs_once_per_distinct_triple(self, obs, monkeypatch):
        model, risk = obs
        expected = [prioritize(model, risk, g, *paps.load_default_rulebase())
                    for g in GOAL_IDS]
        calls = count_stage_calls(monkeypatch)
        config, rulebase = paps.load_default_rulebase()
        assert [prioritize(model, risk, g, config, rulebase)
                for g in GOAL_IDS] == expected
        entries = [e for goal_entries in expected for e in goal_entries]
        triples = {(e.impact, e.cost, e.tech) for e in entries}
        assert len(triples) < len(entries)  # triples repeat across goals
        # the config is checked once, when the rule base opens its memo
        assert calls == {"check_inputs": 1,
                         **{stage: len(triples) for stage in STAGES}}

    def test_a_second_call_runs_no_fuzzy_stage(self, obs, monkeypatch):
        model, risk = obs
        config, rulebase = paps.load_default_rulebase()
        first = prioritize(model, risk, "S", config, rulebase)
        calls = count_stage_calls(monkeypatch)
        assert prioritize(model, risk, "S", config, rulebase) == first
        assert calls == {}
        assert relax_srl(model, risk, "S", config, rulebase) == [
            relax_requirement(model.requirement(e.requirement), e.rds)
            for e in first]
        assert calls == {}


class TestScoreMemo:
    """The memo a rule base keeps gives the same results as scoring afresh."""

    def test_warm_memo_still_raises_outside_a_universe(self, obs,
                                                       monkeypatch):
        model, risk = obs
        config, rulebase = parse_rulebase(cost_from_a_tenth_rules())

        def sweep() -> list:
            outcomes = []
            for goal in GOAL_IDS:
                for call in (prioritize, relax_srl):
                    try:
                        outcomes.append(call(model, risk, goal, config,
                                             rulebase))
                    except UniverseError as exc:
                        outcomes.append(str(exc))
            return outcomes

        cold = sweep()
        errors = [o for o in cold if isinstance(o, str)]
        assert errors and len(errors) < len(cold)
        for message in errors:
            assert re.fullmatch(r"requirement R\d+: cost=0.0\d outside "
                                r"universe \[0.1, 1.0\]", message)
        calls = count_stage_calls(monkeypatch)
        assert sweep() == cold
        # every call fuzzifies its bad triple again and nothing else
        assert calls["fuzzify"] == len(errors)
        assert calls["infer"] == calls["defuzzify_cog"] == 0

    def test_a_hit_keeps_no_activation(self, obs):
        model, risk = obs
        config, rulebase = paps.load_default_rulebase()
        starved = strong_rules_only(rulebase)
        first = _sweep(model, risk, config, starved)
        assert any(e.no_activation for entries, _ in first for e in entries)
        assert _sweep(model, risk, config, starved) == first
        assert first == _sweep(model, risk, config,
                               strong_rules_only(rulebase))

    def test_each_config_gets_its_own_scores(self, obs):
        model, risk = obs
        config, _ = paps.load_default_rulebase()
        other, _ = parse_rulebase(paps.default_rules_text().replace(
            "TERM strong := (0.53, 0.79, 1, 1);",
            "TERM strong := (0.63, 0.89, 1, 1);"))
        expected = {c: _sweep(model, risk, c, paps.load_default_rulebase()[1])
                    for c in (config, other)}
        assert expected[config] != expected[other]
        _, rulebase = paps.load_default_rulebase()
        for c in (config, other, config, other):
            assert _sweep(model, risk, c, rulebase) == expected[c]

    def test_entries_of_one_term_share_one_label(self, obs):
        model, risk = obs
        config, rulebase = paps.load_default_rulebase()
        entries = [e for goal in GOAL_IDS
                   for e in prioritize(model, risk, goal, config, rulebase)]
        labels, triples = {}, {}
        for e in entries:
            assert labels.setdefault(e.term, e.label) is e.label
            triples.setdefault(e.term, set()).add((e.impact, e.cost, e.tech))
        # each of those labels was stored by a miss of its own
        assert max(len(t) for t in triples.values()) > 1

    def test_a_changed_cost_is_scored_again(self, obs):
        model, risk = obs
        config, rulebase = paps.load_default_rulebase()
        before = {e.requirement: e.rds
                  for e in prioritize(model, risk, "S", config, rulebase)}
        changed = RiskProfile({**risk.cost, "R1": 0.95},
                              risk.technical_ability)
        after = prioritize(model, changed, "S", config, rulebase)
        assert after == prioritize(model, changed, "S",
                                   *paps.load_default_rulebase())
        assert {e.requirement: e.rds for e in after}["R1"] != before["R1"]


def _reference(model, risk, goal, config, rulebase) -> list:
    """prioritize without a memo: each of ``build_srl``'s entries scored in
    its order, then sorted by RDS, highest first, ties in natural id order."""
    output = config.output
    weakest = min(output.term_centroid(term) for term, _ in output.terms)
    entries = []
    for req, impact in paps.build_srl(model, goal):
        cost, tech = risk.cost[req], risk.technical_ability[req]
        try:
            rds, no_activation = defuzzify_cog(output, infer(
                rulebase, fuzzify(config, {"impact": impact, "cost": cost,
                                           "tech": tech}))), False
        except NoActivationError:
            rds, no_activation = weakest, True
        term = label(output, rds)
        entries.append(PrioritizedEntry(goal, req, impact, cost, tech, rds,
                                        term, short_label(term),
                                        no_activation))
    return sorted(entries, key=lambda e: (-e.rds, natural_key(e.requirement)))


class TestOrder:
    """prioritize reads a goal's impact row as stored, scores its memo
    misses in build_srl order and sorts the entries once: the entries, the
    refusal and the stage calls are those of scoring build_srl's entries in
    order."""

    def _check(self, model, risk, config, rulebase) -> None:
        goals = [g.id for g in model.goals]
        expected = {g: _reference(model, risk, g, config, rulebase)
                    for g in goals}
        for sweep in ("cold", "warm"):
            for g in goals:
                entries = prioritize(model, risk, g, config, rulebase)
                assert entries == expected[g], (sweep, g)
                keys = [(-e.rds, natural_key(e.requirement))
                        for e in entries]
                assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_generated_models_match_the_reference(self, rng, starved):
        model, risk = random_valid_model(rng)
        config, rulebase = paps.load_default_rulebase()
        if starved:
            rulebase = strong_rules_only(rulebase)
        self._check(model, risk, config, rulebase)

    def test_ties_of_the_fallback_rds_come_in_id_order(self, obs):
        model, risk = obs
        config, rulebase = paps.load_default_rulebase()
        starved = strong_rules_only(rulebase)
        entries = prioritize(model, risk, "S", config, starved)
        fallback = [e.requirement for e in entries if e.no_activation]
        # many entries share the fallback RDS, and neither the stored row
        # nor build_srl has them in natural id order
        assert len(fallback) > 2
        for order in (model.graph.impact_rows["S"],
                      [req for req, _ in paps.build_srl(model, "S")]):
            assert [req for req in order if req in fallback] != fallback
        # a fresh rule base, so that the first sweep starts cold
        self._check(model, risk, config, strong_rules_only(rulebase))

    @pytest.mark.parametrize("call", [prioritize, relax_srl])
    def test_the_first_contributor_outside_a_universe_is_named(self, obs,
                                                               call):
        model, risk = obs
        # R12 joins R5 and R8 below the cost universe; it comes after them
        # in the row of S, before them in build_srl order
        low = RiskProfile({**risk.cost, "R12": 0.02}, risk.technical_ability)
        row = [req for req in model.graph.impact_rows["S"]
               if low.cost[req] < 0.1]
        in_order = [req for req, _ in paps.build_srl(model, "S")
                    if low.cost[req] < 0.1]
        assert len(row) > 1 and row[0] != in_order[0]
        config, cold = parse_rulebase(cost_from_a_tenth_rules())
        _, warm = parse_rulebase(cost_from_a_tenth_rules())
        for goal in GOAL_IDS:  # the warm memo holds what a sweep stores
            for c in (prioritize, relax_srl):
                _outcome(c, model, risk, goal, config, warm)
        assert warm._scores[0][1]
        first = in_order[0]
        for rulebase in (cold, warm, cold, warm):
            with pytest.raises(UniverseError) as exc:
                call(model, low, "S", config, rulebase)
            assert str(exc.value) == (
                f"requirement {first}: cost={low.cost[first]} outside "
                "universe [0.1, 1.0]")

    def test_a_triple_shared_in_one_row_is_scored_once(self, monkeypatch):
        model = SecurityModel(
            (Goal("G1"),), (Requirement("R1"), Requirement("R2")),
            (DerivationRule("P1", "G1", ("R2", "R1"), 0.7),), root="G1")
        risk = RiskProfile({"R1": 0.3, "R2": 0.3}, {"R1": 0.6, "R2": 0.6})
        config, rulebase = paps.load_default_rulebase()
        calls = count_stage_calls(monkeypatch)
        entries = prioritize(model, risk, "G1", config, rulebase)
        assert [e.requirement for e in entries] == ["R1", "R2"]
        assert entries[0][2:] == entries[1][2:]
        assert calls == {"check_inputs": 1, **{stage: 1 for stage in STAGES}}


_ids = st.text(st.sampled_from("GRS019"), min_size=1, max_size=4)
_entries_drawn = st.lists(st.builds(
    PrioritizedEntry, _ids, _ids, st.floats(), st.floats(), st.floats(),
    st.floats(), st.sampled_from(["weak", "strong"]), st.sampled_from("WS"),
    st.booleans()), max_size=6)


class TestReports:
    @given(_entries_drawn)
    def test_writers_match_cells_formatted_field_by_field(self, entries):
        cells = [[e.goal, e.requirement, format(e.impact, ".2f"),
                  format(e.cost, ".2f"), format(e.tech, ".2f"),
                  format(e.rds, ".4f"), e.label] for e in entries]
        assert report_csv(entries) == render.csv(REPORT_FIELDS, cells)
        assert report_table(entries) == render.table(REPORT_FIELDS, cells)

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
            # a config that fails gets no memo, so every call checks it
            for call in (prioritize, relax_srl, prioritize):
                with pytest.raises(FclError) as exc:
                    call(model, risk, "S", bad, rulebase)
                assert str(exc.value) == f"line 1, column 1: {message}"

    def test_value_outside_a_universe_names_the_requirement(self, obs):
        model, risk = obs
        config, rulebase = parse_rulebase(cost_from_a_tenth_rules())
        with pytest.raises(UniverseError,
                           match=r"requirement R\d+: cost=0.05 outside"):
            prioritize(model, risk, "S", config, rulebase)

    @pytest.mark.parametrize("call", [prioritize, relax_srl])
    @pytest.mark.parametrize("table,req,message", [
        ("cost", "R2", "no cost value"),
        ("technical_ability", "R3", "no technical ability value")])
    def test_missing_risk_value_names_the_requirement(self, obs, default_fis,
                                                      call, table, req,
                                                      message):
        model, risk = obs
        tables = risk._asdict()
        tables[table] = {k: v for k, v in tables[table].items() if k != req}
        broken = RiskProfile(**tables)
        # the text validate reports for the same model
        (finding,) = paps.validate_model(model, broken).errors
        assert (finding.subject, finding.message) == (req, message)
        with pytest.raises(ValueError) as exc:
            call(model, broken, "S", *default_fis)
        assert str(exc.value) == f"{req}: {message}"


def cost_up_to_two_rules() -> str:
    """The default rules with the cost universe widened to [0, 2]."""
    return paps.default_rules_text().replace(
        "VAR_INPUT cost\n    RANGE := (0.0 .. 1.0);",
        "VAR_INPUT cost\n    RANGE := (0.0 .. 2.0);")


DEFECTS = {"missing": None, "nan": math.nan, "above": 1.5, "below": -0.25}


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the name and text of the ValueError
    it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestRiskRefusal:
    """prioritize and relax_srl refuse a contributing requirement's risk
    value with validate_model's own finding, whatever the memo holds."""

    def test_cost_inside_a_wider_universe_is_still_refused(self, obs):
        model, risk = obs
        config, rulebase = parse_rulebase(cost_up_to_two_rules())
        broken = RiskProfile({**risk.cost, "R1": 1.5},
                             risk.technical_ability)
        assert [str(f) for f in paps.validate_model(model, broken).errors] \
            == ["error [range] R1: cost 1.5 outside [0, 1]"]
        for call in (prioritize, relax_srl, prioritize):
            with pytest.raises(ValueError) as exc:
                call(model, broken, "S", config, rulebase)
            assert str(exc.value) == "R1: cost 1.5 outside [0, 1]"
        # the same rule base still scores the valid costs
        assert prioritize(model, risk, "S", config, rulebase)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.sampled_from(REQ_IDS),
                  st.sampled_from(["cost", "technical_ability"])),
        st.sampled_from(list(DEFECTS)), max_size=4),
        st.sampled_from(GOAL_IDS))
    def test_refused_exactly_when_a_contributor_has_a_finding(
            self, obs, defects, goal):
        model, risk = obs
        tables = {name: dict(table) for name, table in risk._asdict().items()}
        for (req, table), defect in defects.items():
            if defect == "missing":
                del tables[table][req]
            else:
                tables[table][req] = DEFECTS[defect]
        broken = RiskProfile(**tables)
        errors = paps.validate_model(model, broken).errors
        # the first contributing requirement, in build_srl order, with a
        # finding, and its first finding: cost before technical ability
        expected = next((("ValueError", f"{req}: {f.message}")
                         for req, _ in paps.build_srl(model, goal)
                         for f in errors if f.subject == req), None)
        config, cold = paps.load_default_rulebase()
        _, warm = paps.load_default_rulebase()
        for g in GOAL_IDS:  # the warm memo holds every valid OBS triple
            relax_srl(model, risk, g, config, warm)
        for call in (prioritize, relax_srl):
            outcomes = [_outcome(call, model, broken, goal, config, rulebase)
                        for rulebase in (cold, warm, cold, warm)]
            assert outcomes == [outcomes[0]] * 4
            # no contributor is broken: the answer of the intact profile
            assert outcomes[0] == (expected or call(model, risk, goal,
                                                    config, warm))
        for rulebase in (cold, warm):  # nothing refused was stored
            for _, cost, tech in rulebase._scores[0][1]:
                assert 0.0 <= cost <= 1.0 and 0.0 <= tech <= 1.0
