import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from generators import random_dag_model
from obs_tables import EXPECTED_IMPACTS, GOAL_IDS, REQ_IDS
from oracle import OracleSizeError, brute_force_impact
from paps.impact import build_srl, impact, impact_matrix
from paps.model import (CATEGORY_CYCLE, CATEGORY_RANGE, DerivationRule, Goal,
                        Requirement, RiskProfile, SecurityModel,
                        validate_model)
from paps.pipeline import prioritize
from paps.relax import relax_srl


def _model(goals, reqs, rules, root):
    return SecurityModel(
        tuple(Goal(g) for g in goals),
        tuple(Requirement(r) for r in reqs),
        tuple(DerivationRule(f"P{i}", h, tuple(b), d)
              for i, (h, b, d) in enumerate(rules, start=1)),
        root=root)


DIAMOND = _model(
    ["g", "a", "b"], ["x"],
    [("g", ["a"], 0.9), ("g", ["b"], 0.5),
     ("a", ["x"], 0.4), ("b", ["x"], 0.5)],
    root="g")


class TestImpact:
    def test_obs_s_r7(self, obs):
        model, _ = obs
        assert impact(model, "S", "R7") == pytest.approx(0.65)

    def test_obs_g4_r4(self, obs):
        model, _ = obs
        assert impact(model, "G4", "R4") == pytest.approx(0.90)

    def test_obs_no_path_is_zero(self, obs):
        model, _ = obs
        assert impact(model, "G13", "R1") == 0.0

    def test_obs_g9_r8_follows_the_formula(self, obs):
        # Both derivations G9 -> G8 -> R8 bottom out at degree 0.6; the
        # published table prints 0.65 here but 0.60 is what max-min gives.
        model, _ = obs
        assert impact(model, "G9", "R8") == pytest.approx(0.60)

    def test_unknown_node_raises(self, obs):
        model, _ = obs
        with pytest.raises(KeyError):
            impact(model, "S", "R99")

    @pytest.mark.parametrize("node, requirement, message", [
        ("G99", "R1", "unknown node 'G99'"),
        ("S", "R99", "unknown requirement 'R99'"),
        ("S", "G3", "unknown requirement 'G3'"),
    ])
    def test_error_texts(self, obs, node, requirement, message):
        model, _ = obs
        with pytest.raises(KeyError) as exc:
            impact(model, node, requirement)
        assert exc.value.args == (message,)

    def test_a_requirement_is_accepted_as_the_node(self, obs):
        model, _ = obs
        assert impact(model, "R1", "R1") == impact(model, "R1", "R2") == 0.0

    def test_diamond(self):
        assert impact(DIAMOND, "g", "x") == pytest.approx(0.5)

    def test_chain_takes_the_min(self):
        model = _model(["S", "G1"], ["R1"],
                       [("S", ["G1"], 0.9), ("G1", ["R1"], 0.8)], "S")
        assert impact(model, "S", "R1") == pytest.approx(0.8)
        assert impact(model, "G1", "R1") == pytest.approx(0.8)


class TestImpactMatrix:
    def test_obs_matches_expected_table(self, obs):
        model, _ = obs
        matrix = impact_matrix(model)
        assert list(matrix.goals) == GOAL_IDS
        assert list(matrix.requirements) == REQ_IDS
        for (g, r), expected in EXPECTED_IMPACTS.items():
            assert matrix.rows.get(g, {}).get(r, 0.0) == pytest.approx(
                expected, abs=5e-3), (g, r)

    def test_empty_rule_set(self):
        model = _model(["S"], ["R1"], [], "S")
        assert impact_matrix(model).entries == {}

    def test_deterministic(self, obs):
        model, _ = obs
        assert impact_matrix(model) == impact_matrix(model)

    def test_matrix_agrees_with_pairwise_impact(self, obs):
        model, _ = obs
        matrix = impact_matrix(model)
        for g in matrix.goals:
            for r in matrix.requirements:
                assert (matrix.rows.get(g, {}).get(r, 0.0)
                        == impact(model, g, r))

    def test_csv_shape(self, obs):
        model, _ = obs
        lines = impact_matrix(model).to_csv().strip().splitlines()
        assert len(lines) == 15
        assert lines[0] == "goal," + ",".join(REQ_IDS)
        assert all(len(line.split(",")) == 13 for line in lines)


class TestSrl:
    def test_obs_g12(self, obs):
        model, _ = obs
        assert build_srl(model, "G12") == (("R11", pytest.approx(0.90)),)

    def test_obs_g3_order(self, obs):
        model, _ = obs
        srl = build_srl(model, "G3")
        assert [r for r, _ in srl] == ["R4", "R2", "R3"]
        assert dict(srl) == {
            "R2": pytest.approx(0.75), "R3": pytest.approx(0.75),
            "R4": pytest.approx(0.85)}

    def test_obs_root_covers_everything(self, obs):
        model, _ = obs
        srl = build_srl(model, "S")
        assert [r for r, _ in srl] != []
        assert {r for r, _ in srl} == set(REQ_IDS)

    def test_unknown_goal(self, obs):
        model, _ = obs
        with pytest.raises(KeyError):
            build_srl(model, "G99")


class TestBruteForceOracle:
    def test_single_edge(self):
        model = _model(["S"], ["R1"], [("S", ["R1"], 0.4)], "S")
        assert brute_force_impact(model, "S", "R1") == pytest.approx(0.4)

    def test_diamond(self):
        assert brute_force_impact(DIAMOND, "g", "x") == pytest.approx(0.5)

    def test_size_guard(self, obs):
        model, _ = obs  # 26 nodes reachable from the root
        with pytest.raises(OracleSizeError):
            brute_force_impact(model, "S", "R1")

    def test_obs_subgraphs_agree_with_engine(self, obs):
        model, _ = obs
        checked = 0
        for goal in [g.id for g in model.goals]:
            try:
                for req in [r.id for r in model.requirements]:
                    assert (brute_force_impact(model, goal, req)
                            == pytest.approx(impact(model, goal, req)))
                checked += 1
            except OracleSizeError:
                continue
        assert checked >= 10  # everything below S and G1 fits the guard

    def test_random_dags_agree_with_engine(self):
        rng = random.Random(99)
        for _ in range(300):
            model = random_dag_model(rng)
            goals = [g.id for g in model.goals]
            reqs = [r.id for r in model.requirements]
            for g in goals:
                for r in reqs:
                    assert impact(model, g, r) == pytest.approx(
                        brute_force_impact(model, g, r)), (model, g, r)


class TestProperties:
    def test_adding_a_rule_never_decreases_impact(self):
        rng = random.Random(5)
        for _ in range(100):
            model = random_dag_model(rng)
            goals = [g.id for g in model.goals]
            if len(goals) < 2:
                continue
            before = {(g, r.id): impact(model, g, r.id)
                      for g in goals for r in model.requirements}
            head = rng.choice(goals[:-1])
            child = rng.choice(
                goals[goals.index(head) + 1:] + [r.id for r in model.requirements])
            extra = DerivationRule("P_extra", head, (child,), rng.random())
            grown = SecurityModel(model.goals, model.requirements,
                                  model.rules + (extra,), model.root)
            for key, old in before.items():
                assert impact(grown, *key) >= old - 1e-12

    def test_raising_a_degree_never_decreases_impact(self):
        rng = random.Random(6)
        for _ in range(100):
            model = random_dag_model(rng)
            if not model.rules:
                continue
            idx = rng.randrange(len(model.rules))
            rule = model.rules[idx]
            bumped_rule = DerivationRule(
                rule.id, rule.head, rule.body,
                min(1.0, rule.degree + rng.random() * (1 - rule.degree)))
            bumped = SecurityModel(
                model.goals, model.requirements,
                model.rules[:idx] + (bumped_rule,) + model.rules[idx + 1:],
                model.root)
            for g in model.goals:
                for r in model.requirements:
                    assert (impact(bumped, g.id, r.id)
                            >= impact(model, g.id, r.id) - 1e-12)

    def test_impact_bounded_by_adjacent_degrees(self, obs):
        model, _ = obs
        out_max = {}
        in_max = {}
        for rule in model.rules:
            out_max[rule.head] = max(out_max.get(rule.head, 0.0), rule.degree)
            for child in rule.body:
                in_max[child] = max(in_max.get(child, 0.0), rule.degree)
        matrix = impact_matrix(model)
        for (g, r), value in matrix.entries.items():
            assert value <= out_max.get(g, 0.0) + 1e-12
            assert value <= in_max.get(r, 0.0) + 1e-12


UNIT_DEGREES = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def messy_dags(draw, degrees=UNIT_DEGREES):
    """Small DAGs with duplicate edges, zero degrees and undeclared nodes.

    Undeclared ids (X...) appear as children and as heads of further rules;
    every edge points forward in one drawn order, so the graph is acyclic.
    """
    goals = [f"G{i}" for i in range(draw(st.integers(1, 6)))]
    reqs = [f"R{i}" for i in range(draw(st.integers(0, 5)))]
    inner = draw(st.permutations(
        goals + [f"X{i}" for i in range(draw(st.integers(0, 3)))]))
    rules = []
    for i, head in enumerate(inner):
        targets = inner[i + 1:] + reqs + ["X9"]
        for body in draw(st.lists(
                st.lists(st.sampled_from(targets), min_size=1, max_size=3),
                max_size=3)):
            rules.append((head, body, draw(degrees)))
    return _model(goals, reqs, rules, root=goals[0])


def _json_reference(matrix, goals):
    return json.dumps({g: {r: matrix.rows.get(g, {}).get(r, 0.0)
                           for r in matrix.requirements}
                       for g in goals}, indent=2) + "\n"


def _csv_reference(matrix, goals):
    # No requirement columns: the lines are "goal" and the bare goal ids.
    lines = [",".join(["goal", *matrix.requirements])]
    for g in goals:
        lines.append(",".join(
            [g, *(f"{matrix.rows.get(g, {}).get(r, 0.0):.2f}"
                  for r in matrix.requirements)]))
    return "\n".join(lines) + "\n"


def _table_reference(matrix, goals):
    header = ["goal"] + list(matrix.requirements)
    rows = [[g] + [f"{matrix.rows.get(g, {}).get(r, 0.0):.2f}"
                   for r in matrix.requirements]
            for g in goals]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]

    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), rule] + [fmt(r) for r in rows]) + "\n"


def _risk(model):
    values = {r.id: 0.5 for r in model.requirements}
    return RiskProfile(values, values)


def _refusals(model):
    """The texts of the errors ``validate_model`` reports for ``model``, in
    its order and in the words the library raises them with: every one
    for ``build_srl``, ``prioritize`` and ``relax_srl``; those for a
    repeated goal or requirement id, a rule degree outside [0, 1] or a
    cycle for ``impact_matrix``. Both lists are empty for a valid model;
    the second is empty when the model must be laid out."""
    every, layout = [], []
    for finding in validate_model(model, _risk(model)).errors:
        if finding.category == CATEGORY_CYCLE:
            text = finding.message
        else:
            text = f"{finding.subject}: {finding.message}"
        every.append(text)
        if (finding.category in (CATEGORY_CYCLE, CATEGORY_RANGE)
                or finding.message == "declared more than once"):
            layout.append(text)
    return every, layout


def _raises(call, text):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == text


def _assert_refused(model, default_fis=None):
    """``build_srl`` and, given a rule base, ``prioritize`` and
    ``relax_srl`` raise ``ValueError`` with the text of the first error
    ``validate_model`` reports; ``impact_matrix`` and ``impact`` raise
    with the first of the texts they refuse with, if any. Returns those
    texts."""
    every, layout = _refusals(model)
    assert every
    _raises(lambda: build_srl(model, model.root), every[0])
    if default_fis is not None:
        for run in (prioritize, relax_srl):
            _raises(lambda: run(model, _risk(model), model.root, *default_fis),
                    every[0])
    if layout:
        _raises(lambda: impact_matrix(model), layout[0])
        _raises(lambda: impact(model, model.root, model.root), layout[0])
    return every, layout


@st.composite
def refusable_dags(draw):
    """``messy_dags`` with degrees in and out of [0, 1] (NaN too), and on
    some draws a repeated goal or requirement id, or a rule back into the
    root, which closes a cycle when the root reaches its head."""
    model = draw(messy_dags(st.sampled_from(
        [0.5, 1.0, 12.5, 100.0, math.inf, math.nan, -0.5])))
    ids = [g.id for g in model.goals] + [r.id for r in model.requirements]
    repeat = draw(st.none() | st.sampled_from(ids))
    if repeat is not None:
        if draw(st.booleans()):
            model = model._replace(goals=(*model.goals, Goal(repeat)))
        else:
            model = model._replace(
                requirements=(*model.requirements, Requirement(repeat)))
    if draw(st.booleans()):
        head = draw(st.sampled_from(model.goals)).id
        model = model._replace(rules=(
            *model.rules, DerivationRule("P0", head, (model.root,), 0.5)))
    return model


class TestRefusal:
    """``build_srl``, and so ``prioritize`` and ``relax_srl``, refuse a
    model that ``validate`` rejects, with its first error; ``impact_matrix``
    refuses one with a repeated id, a degree outside [0, 1] or a cycle."""

    @settings(max_examples=300, deadline=None)
    @given(refusable_dags(), st.data())
    def test_refused_exactly_when_validate_reports_it(self, default_fis,
                                                      model, data):
        every, layout = _refusals(model)
        if every:
            _assert_refused(model, default_fis)
        else:
            build_srl(model, model.root)
            prioritize(model, _risk(model), model.root, *default_fis)
        if layout:
            return
        matrix = impact_matrix(model)
        goals = data.draw(st.lists(st.sampled_from(matrix.goals), max_size=4))
        for subset in (None, goals):
            shown = matrix.goals if subset is None else subset
            assert matrix.to_json(subset) == _json_reference(matrix, shown)
            assert matrix.to_csv(subset) == _csv_reference(matrix, shown)
            assert matrix.to_table(subset) == _table_reference(matrix, shown)

    # The kinds of error that impact_matrix lays out, as validate reports
    # them; the two it refuses too follow.
    @pytest.mark.parametrize("model, text", [
        (_model(["S"], ["R1", "R2"],
                [("S", ["R1"], 0.5), ("S", ["R2"], 0.5), ("R1", ["R2"], 0.9)],
                "S"),
         "P3: requirement R1 used as rule head"),
        (_model(["S"], ["R1"], [("S", ["R1", "X"], 0.5)], "S"),
         "P1: rule body element X is not declared"),
        (SecurityModel((Goal("S"),), (Requirement("R1"),), (
            DerivationRule("P1", "S", ("R1",), 0.5),
            DerivationRule("P1", "S", ("R1",), 0.7)), "S"),
         "P1: rule id declared more than once"),
        (_model(["S"], ["R1"], [("S", ["R1"], 0.5)], "R1"),
         "R1: root node must be a goal"),
    ], ids=["requirement-as-head", "undeclared-body-element",
            "rule-declared-twice", "requirement-as-root"])
    def test_refused_but_laid_out(self, default_fis, model, text):
        assert _assert_refused(model, default_fis) == ([text], [])
        impact_matrix(model)

    def test_requirement_declared_twice(self, default_fis):
        model = _model(["S"], ["R1", "R2", "R1"],
                       [("S", ["R1", "R2"], 0.5)], "S")
        assert _assert_refused(model, default_fis) == (
            ["R1: declared more than once"], ["R1: declared more than once"])

    def test_nan_degree(self, default_fis):
        model = _model(["S"], ["R1"], [("S", ["R1"], math.nan)], "S")
        assert _assert_refused(model, default_fis) == (
            ["P1: degree nan outside [0, 1]"], ["P1: degree nan outside [0, 1]"])

    def test_goals_that_start_with_a_digit_get_a_matrix(self, default_fis):
        model = _model(["S", "1A", "A1"], ["R1", "2"],
                       [("S", ["1A", "A1"], 0.5), ("1A", ["R1"], 0.9),
                        ("A1", ["2"], 0.4)], "S")
        assert validate_model(model, _risk(model)).findings == ()
        matrix = impact_matrix(model)
        assert matrix.goals == ("S", "1A", "A1")
        assert matrix.requirements == ("2", "R1")
        assert matrix.entries == {("S", "R1"): 0.5, ("S", "2"): 0.4,
                                  ("1A", "R1"): 0.9, ("A1", "2"): 0.4}
        assert {e.requirement for e in prioritize(
            model, _risk(model), "S", *default_fis)} == {"R1", "2"}


class TestSinglePass:
    @settings(max_examples=300, deadline=None)
    @given(messy_dags())
    def test_every_cell_equals_the_oracle(self, model):
        matrix = impact_matrix(model)
        for g in matrix.goals:
            for r in matrix.requirements:
                expected = brute_force_impact(model, g, r)
                assert matrix.rows.get(g, {}).get(r, 0.0) == expected, (g, r)
                assert impact(model, g, r) == expected, (g, r)
        assert all(v > 0.0 for v in matrix.entries.values())

    @settings(max_examples=200, deadline=None)
    @given(messy_dags(), st.data())
    def test_renderers_match_plain_formatting(self, model, data):
        matrix = impact_matrix(model)
        goals = data.draw(st.lists(st.sampled_from(matrix.goals), max_size=4))
        for subset in (None, goals):
            shown = matrix.goals if subset is None else subset
            assert matrix.to_json(subset) == _json_reference(matrix, shown)
            assert matrix.to_csv(subset) == _csv_reference(matrix, shown)
            assert matrix.to_table(subset) == _table_reference(matrix, shown)
            # The generators yield the same text a line or a goal block at
            # a time.
            csv = list(matrix.csv_lines(subset))
            table = list(matrix.table_lines(subset))
            blocks = list(matrix.json_blocks(subset))
            assert "".join(csv) == _csv_reference(matrix, shown)
            assert "".join(table) == _table_reference(matrix, shown)
            assert "".join(blocks) == _json_reference(matrix, shown)
            assert len(csv) == 1 + len(shown)
            assert len(table) == 2 + len(shown)
            for line in csv + table:
                assert line.endswith("\n") and line.count("\n") == 1
            distinct = list(dict.fromkeys(shown))
            if not distinct:
                assert blocks == ["{}\n"]
                continue
            assert (blocks[0], blocks[-1]) == ("{\n", "}\n")
            assert len(blocks) == 2 + len(distinct)
            for g, block in zip(distinct, blocks[1:-1]):
                assert block.startswith(f"  {json.dumps(g)}: ")
                assert json.loads("{" + block.rstrip(",\n") + "}") == {
                    g: {r: matrix.rows.get(g, {}).get(r, 0.0)
                        for r in matrix.requirements}}

    def test_json_matches_json_dumps(self, obs):
        model, _ = obs
        matrix = impact_matrix(model)
        assert matrix.to_json() == _json_reference(matrix, matrix.goals)

    @pytest.mark.parametrize("model", [
        _model(["S"], ["R1", "R2"], [], "S"),               # no rules
        _model(["S", "G1"], [], [("S", ["G1"], 0.5)], "S"),  # no requirements
        _model([], ["R1"], [], "S"),                        # no goals
        _model(["S", "G1"], ["R1", "R2"],                   # a wide degree
               [("S", ["R1"], 12.5), ("G1", ["R2"], 0.5)], "S"),
        _model(["S", "S"], ["R1", "R2", "R1"],              # repeated ids
               [("S", ["R1", "R2"], 0.5)], "S"),
    ])
    def test_renderers_on_edge_case_models(self, model):
        # The last two are refused, as validate rejects them; build_srl
        # also refuses the one with no goals, whose root is not declared.
        every, layout = _refusals(model)
        if every:
            _assert_refused(model)
        if layout:
            return
        matrix = impact_matrix(model)
        assert matrix.to_json() == _json_reference(matrix, matrix.goals)
        assert matrix.to_table() == _table_reference(matrix, matrix.goals)
        assert matrix.to_csv() == _csv_reference(matrix, matrix.goals)

    @settings(max_examples=200, deadline=None)
    @given(messy_dags(st.sampled_from([0.5, 1.0, 12.5, 100.0, math.inf])),
           st.data())
    def test_table_widths_with_cells_of_other_widths(self, model, data):
        # A degree whose text is wider ("12.50") or narrower ("inf") than
        # "0.00" is refused, so every laid-out cell is as wide as "0.00".
        # build_srl also refuses the undeclared nodes messy_dags draw.
        every, layout = _refusals(model)
        assert bool(layout) == any(rule.degree > 1.0 for rule in model.rules)
        if every:
            _assert_refused(model)
        if layout:
            return
        matrix = impact_matrix(model)
        goals = data.draw(st.lists(st.sampled_from(matrix.goals), max_size=4))
        for subset in (None, goals):
            shown = matrix.goals if subset is None else subset
            assert matrix.to_table(subset) == _table_reference(matrix, shown)

    @pytest.mark.parametrize("goals", [["S"], ["G1"], ["G1", "S"], []])
    def test_table_widths_follow_the_shown_goals(self, goals):
        # Cells wider (12.50) and narrower (inf) than 0.00 are never laid
        # out: the matrix and the list of each goal are refused, naming the
        # first rule in id order.
        model = _model(
            ["S", "G1"], ["R1", "R2"],
            [("S", ["R1"], 12.5), ("G1", ["R2"], float("inf"))], "S")
        for call in [lambda: impact_matrix(model),
                     *(lambda g=g: build_srl(model, g) for g in goals)]:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "P1: degree 12.5 outside [0, 1]"

    def test_rows_are_computed_once_per_model(self, obs):
        model, _ = obs
        rows = model.graph.impact_rows
        matrix = impact_matrix(model)
        assert model.graph.impact_rows is rows
        with pytest.raises(TypeError):
            matrix.rows["S"]["R1"] = 0.0
        assert build_srl(model, "G3") == tuple(
            sorted(impact_matrix(model).rows["G3"].items(),
                   key=lambda e: (-e[1], e[0])))

    def test_goal_as_requirement_argument_is_rejected(self, obs):
        model, _ = obs
        with pytest.raises(KeyError):
            impact(model, "S", "G3")
