import math
import random
import re
from typing import Iterator, Mapping

import pytest
from hypothesis import example, given, strategies as st

import paps
from paps.impact import build_srl, impact, impact_matrix
from paps.model import (CATEGORY_MISSING_RISK, CATEGORY_RANGE,
                        DerivationRule, Finding, Goal, Requirement,
                        RiskProfile, SecurityModel, adjacency, natural_key,
                        technical_ability, validate_model)


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


class _CountedRules(tuple):
    """A rule tuple that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


class _CountedNodes(_CountedRules):
    """Counts ``reversed`` too, which on a tuple bypasses ``__iter__``."""

    def __reversed__(self):
        self.reads += 1
        return iter(self[::-1])  # a slice of a tuple subclass is a tuple


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

    def test_rule_and_requirement_findings_in_id_order(self):
        model = SecurityModel(
            goals=(Goal("S"),),
            requirements=(Requirement("R10"), Requirement("R2")),
            rules=(DerivationRule("P10", "S", ("R10",), 1.5),
                   DerivationRule("P2", "S", ("R2",), 1.5)),
            root="S")
        report = validate_model(model, RiskProfile({}, {}))
        assert [(f.subject, f.message) for f in report.findings] == [
            ("P2", "degree 1.5 outside [0, 1]"),
            ("P10", "degree 1.5 outside [0, 1]"),
            ("R2", "no cost value"), ("R2", "no technical ability value"),
            ("R10", "no cost value"), ("R10", "no technical ability value")]

    def test_a_rule_finding_comes_first_on_an_equal_id(self):
        model = SecurityModel(
            goals=(Goal("S"),), requirements=(Requirement("R2"),),
            rules=(DerivationRule("R02", "S", ("R2",), 1.5),), root="S")
        report = validate_model(model, RiskProfile({}, {"R2": 0.5}))
        assert [(f.subject, f.message) for f in report.findings] == [
            ("R02", "degree 1.5 outside [0, 1]"), ("R2", "no cost value")]

    def test_unreachable_is_warning_only(self):
        model = _small_model([DerivationRule("P1", "S", ("R1",), 0.5)])
        report = validate_model(model, _risk())
        assert report.ok
        assert [f.subject for f in report.warnings] == ["G1"]
        assert all(f.category == "unreachable-node" for f in report.warnings)

    @pytest.mark.parametrize("ids", [("R1", "R01"), ("R01", "R1")])
    def test_unreachable_ids_with_equal_keys_in_text_order(self, ids):
        # Not in the order of a set, which varies with the hash seed, nor
        # in declaration order.
        model = SecurityModel((Goal("S"),), tuple(map(Requirement, ids)),
                              (), "S")
        report = validate_model(model, RiskProfile(dict.fromkeys(ids, 0.5),
                                                   dict.fromkeys(ids, 0.5)))
        assert [f.subject for f in report.warnings] == ["R01", "R1"]

    def test_validated_obs_values_all_in_range(self, obs):
        model, risk = obs
        assert validate_model(model, risk).ok
        for rule in model.rules:
            assert 0.0 <= rule.degree <= 1.0
        for table in (risk.cost, risk.technical_ability):
            assert all(0.0 <= v <= 1.0 for v in table.values())


class TestValuesThatAreNotNumbers:
    """A risk value or a degree that does not compare with floats is out
    of range: ``validate_model`` reports it, and the library refuses it
    with that text."""

    @pytest.mark.parametrize("cost, degree, text", [
        ("0.5", 0.9, "R1: cost '0.5' outside [0, 1]"),
        (None, 0.9, "R1: cost None outside [0, 1]"),
        (0.5, "0.5", "P3: degree '0.5' outside [0, 1]"),
    ], ids=["cost-text", "cost-none", "degree-text"])
    def test_reported_and_refused(self, obs, default_fis, cost, degree, text):
        model, risk = obs  # R1 costs 0.5; P3: G13 -> R12 @ 0.9
        model = model._replace(rules=tuple(
            r._replace(degree=degree) if r.id == "P3" else r
            for r in model.rules))
        risk = risk._replace(cost={**risk.cost, "R1": cost})
        report = validate_model(model, risk)
        assert [str(f) for f in report.findings] == [f"error [range] {text}"]
        calls = [lambda: paps.prioritize(model, risk, "S", *default_fis),
                 lambda: paps.relax_srl(model, risk, "S", *default_fis)]
        if text.startswith("P3"):
            calls += [lambda: build_srl(model, "S"),
                      lambda: impact(model, "S", "R12"),
                      lambda: impact_matrix(model)]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == text


_ABSENT = object()
# A risk value of each kind: inside [0, 1] at its edges, just outside it,
# not a number, or not comparable with floats at all.
_RISK_VALUES = st.sampled_from([_ABSENT, None, "0.5", math.nan, math.inf,
                                -math.inf, -0.0, 5e-324, True, 1,
                                1.0000000000000002])


def _reference_risk_findings(model, risk):
    """Every requirement's cost and technical ability findings, each value
    checked on its own with no fast path."""
    findings = []
    for req in model.requirements:
        for name, table in (("cost", risk.cost),
                            ("technical ability", risk.technical_ability)):
            if req.id not in table:
                findings.append(Finding(CATEGORY_MISSING_RISK, "error",
                                        req.id, f"no {name} value"))
                continue
            value = table[req.id]
            if not (isinstance(value, (int, float))
                    and not math.isnan(value) and 0 <= value <= 1):
                findings.append(Finding(CATEGORY_RANGE, "error", req.id,
                                        f"{name} {value!r} outside [0, 1]"))
    return findings


class TestRiskFindingsAgainstAReference:
    @given(st.lists(st.tuples(_RISK_VALUES, _RISK_VALUES), min_size=1,
                    max_size=8))
    def test_findings_match_a_check_of_every_value(self, values):
        ids = [f"R{i}" for i in range(1, len(values) + 1)]
        model = SecurityModel((Goal("S"),), tuple(map(Requirement, ids)),
                              (DerivationRule("P1", "S", tuple(ids), 0.5),),
                              "S")
        cost, tech = ({i: v[k] for i, v in zip(ids, values)
                       if v[k] is not _ABSENT} for k in (0, 1))
        risk = RiskProfile(cost, tech)
        assert validate_model(model, risk).findings == \
            tuple(_reference_risk_findings(model, risk))


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

    def test_model_findings_are_found_once_per_model(self, obs):
        model, risk = paps.parse_model(paps.obs_fixture_text())
        findings = model.graph.findings
        assert validate_model(model, RiskProfile({}, {})).errors
        assert validate_model(model, risk).ok
        assert model.graph.findings is findings

    def test_rules_are_read_once(self, obs):
        # One loop over the rules both checks them and builds the graph.
        model, risk = obs
        rules = _CountedRules(model.rules)
        model = model._replace(rules=rules)
        assert validate_model(model, risk).ok
        impact_matrix(model)
        assert rules.reads == 1

    def test_nodes_are_read_once(self, obs):
        # One loop over the goals and requirements fills the id tables and
        # finds the repeated ids.
        model, _ = obs
        goals = _CountedNodes(model.goals)
        requirements = _CountedNodes(model.requirements)
        model = model._replace(goals=goals, requirements=requirements)
        model.graph
        assert (goals.reads, requirements.reads) == (1, 1)
        assert model.goal("S") == goals[0]
        assert (goals.reads, requirements.reads) == (1, 1)

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
        # A goal and a requirement sharing an id are each found as what
        # they are; of two requirements sharing an id, the first wins.
        model = SecurityModel(
            goals=(Goal("S"), Goal("X", "goal")),
            requirements=(Requirement("X", "req"), Requirement("R1", "first"),
                          Requirement("R1", "second")), rules=(), root="S")
        assert model.goal("X") == Goal("X", "goal")
        assert model.requirement("X") == Requirement("X", "req")
        assert model.requirement("R1").description == "first"


# Reference copies of the two graph walks the depth-first search in
# ModelGraph replaced: the cycle finder validate_model and impact_rows
# called, and Kahn's sort (the adjacency build is copied with it).

def _find_cycle(adj: Mapping[str, tuple[tuple[str, float], ...]],
                nodes: set[str]) -> list[str] | None:
    """Return one cycle as a node list, or None if the graph is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    for start in sorted(nodes):
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, Iterator[str]]] = [
            (start, iter([c for c, _ in adj.get(start, ())]))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in color:
                    continue  # dangling refs reported separately
                if color[child] == GRAY:
                    return path[path.index(child):] + [child]
                if color[child] == WHITE:
                    color[child] = GRAY
                    path.append(child)
                    stack.append(
                        (child, iter([c for c, _ in adj.get(child, ())])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def _kahn_order(model: SecurityModel) -> tuple[str, ...] | None:
    adj: dict[str, dict[str, float]] = {}
    for rule in model.rules:
        children = adj.setdefault(rule.head, {})
        for child in rule.body:
            children[child] = max(children.get(child, 0.0), rule.degree)

    indegree = dict.fromkeys(
        [g.id for g in model.goals] + [r.id for r in model.requirements]
        + list(adj), 0)
    for children in adj.values():
        for child in children:
            indegree[child] = indegree.get(child, 0) + 1
    ready = [node for node, n in indegree.items() if n == 0]
    order: list[str] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for child in adj.get(node, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return tuple(order) if len(order) == len(indegree) else None


@st.composite
def _declared_models(draw, strays: bool = False) -> SecurityModel:
    """Random rules over declared ids only: self-loops, several cycles,
    duplicate edges and requirement heads all occur. Goals are declared in
    a drawn order, so id order and declaration order differ. With
    ``strays``, rule bodies also name undeclared ids, one degree may lie
    outside [0, 1] or not be a number, and the root may be a requirement
    or undeclared."""
    goals = draw(st.permutations(
        [f"G{i}" for i in range(draw(st.integers(1, 12)))]))
    reqs = [f"R{i}" for i in range(draw(st.integers(0, 4)))]
    ids = st.sampled_from(goals + reqs)
    bodies = st.one_of(ids, st.sampled_from(["X1", "G99"])) if strays else ids
    drawn = draw(st.lists(st.tuples(
        ids, st.lists(bodies, min_size=1, max_size=3),
        st.sampled_from([0.2, 0.5, 1.0])), max_size=16))
    rules = [DerivationRule(f"P{i}", head, tuple(body), degree)
             for i, (head, body, degree) in enumerate(drawn)]
    root = goals[0]
    if strays:
        if rules and draw(st.booleans()):
            i = draw(st.integers(0, len(rules) - 1))
            rules[i] = rules[i]._replace(degree=draw(st.sampled_from(
                [0.5, -0.5, 1.5, float("nan"), "0.5", None])))
        root = draw(st.sampled_from([*goals, *reqs, "X1"]))
    return SecurityModel(
        goals=tuple(map(Goal, goals)),
        requirements=tuple(map(Requirement, reqs)),
        rules=tuple(rules),
        root=root)


class TestDepthFirstSearchAgainstReferences:
    @given(_declared_models())
    def test_cycle_and_order_match_the_old_walks(self, model):
        graph = model.graph
        declared = ({g.id for g in model.goals}
                    | {r.id for r in model.requirements})
        cycle = _find_cycle(graph.adjacency, declared)
        assert graph.cycle == cycle
        assert _find_cycle(graph.adjacency, set(graph.adjacency)) == cycle
        assert (graph.order is None) == (_kahn_order(model) is None)
        findings = [str(f) for f in validate_model(model, _risk()).findings
                    if f.category == "cycle"]
        if graph.order is None:
            assert findings == [f"error [cycle] {cycle[0]}: derivation "
                                f"cycle: {' -> '.join(cycle)}"]
            with pytest.raises(ValueError) as exc:
                graph.impact_rows
            assert str(exc.value) == "derivation cycle: " + " -> ".join(cycle)
            return
        assert findings == []
        assert sorted(graph.order) == sorted(declared)
        at = {node: i for i, node in enumerate(graph.order)}
        for head, children in graph.adjacency.items():
            for child, _ in children:
                assert at[child] < at[head]


def _in_unit(degree) -> bool:
    return isinstance(degree, float) and 0 <= degree <= 1


class TestUnreachableWarnings:
    @given(_declared_models(strays=True))
    def test_warnings_name_what_a_walk_over_the_rules_misses(self, model):
        warned = [f.subject for f in validate_model(model, _risk()).findings
                  if f.category == "unreachable-node"]
        goals = {g.id for g in model.goals}
        # _kahn_order compares the degrees, so they are checked first
        if (model.root not in goals
                or not all(_in_unit(r.degree) for r in model.rules)
                or _kahn_order(model) is None):
            assert warned == []
            return
        reached, frontier = {model.root}, [model.root]
        while frontier:
            node = frontier.pop()
            for rule in model.rules:
                if rule.head == node:
                    frontier.extend(set(rule.body) - reached)
                    reached.update(rule.body)
        declared = goals | {r.id for r in model.requirements}
        assert warned == sorted(declared - reached, key=natural_key)


class TestOutOfRangeDegrees:
    @given(_declared_models(strays=True))
    def test_such_a_rule_adds_no_edge(self, model):
        """The graph is that of the model without the rule, and the
        findings are that model's, with the rule's own added and no graph
        finding."""
        kept = tuple(r for r in model.rules if _in_unit(r.degree))
        dropped = [r.id for r in model.rules if not _in_unit(r.degree)]
        clean = model._replace(rules=kept)
        assert adjacency(model) == adjacency(clean)
        nodes, rules, graph = model.graph.findings
        clean_nodes, clean_rules, clean_graph = clean.graph.findings
        assert nodes == clean_nodes
        assert [f for f in rules
                if f.subject not in dropped] == list(clean_rules)
        assert [f.subject for f in rules if f.category == "range"] == dropped
        assert graph == (() if dropped else clean_graph)


def _letter_first_key(node_id: str) -> tuple:
    """``natural_key`` as it was when the key dropped empty parts: right
    for ids that start with a letter, and raising TypeError when such an
    id meets one that starts with a digit."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", node_id) if part != "")


LETTER_FIRST_IDS = st.builds(
    str.__add__, st.sampled_from("ABGRSabz_"),
    st.text("ABRa_-.0123456789\u0661\u0669", max_size=8))


class TestNaturalKey:
    def test_digit_runs_compare_as_numbers(self):
        assert natural_key("R2") < natural_key("R10")
        assert natural_key("R01") < natural_key("R1")
        assert natural_key("1A") < natural_key("A1") < natural_key("A1b")

    def test_runs_past_the_int_conversion_limit_compare(self):
        nines, power = "R" + "9" * 4999, "R1" + "0" * 4999
        assert natural_key(nines) < natural_key(power)
        assert natural_key("R0" + power[1:]) < natural_key(power)
        assert sorted([power, nines, "R2"], key=natural_key) == [
            "R2", nines, power]

    @given(LETTER_FIRST_IDS, LETTER_FIRST_IDS)
    @example("R1", "R01")
    @example("R\u0661\u0660", "R9")
    @example("R\u0661", "R01")
    def test_letter_first_ids_compare_as_before(self, a, b):
        """Keys are equal only for equal ids, and where the old keys
        differ the order agrees with them."""
        old_a, old_b = _letter_first_key(a), _letter_first_key(b)
        assert (natural_key(a) == natural_key(b)) == (a == b)
        if old_a != old_b:
            assert (natural_key(a) < natural_key(b)) == (old_a < old_b)

    @given(st.lists(st.text() | st.sampled_from(
        ["", "1A", "A1", "R1\u00b2", "\u0661", "R1", "R01"])))
    def test_any_ids_sort(self, ids):
        keys = [natural_key(i) for i in sorted(ids, key=natural_key)]
        assert all(a <= b for a, b in zip(keys, keys[1:]))


class TestTechnicalAbility:
    def test_identity_at_one(self):
        assert technical_ability(1.0) == 1.0

    def test_complexity_five(self):
        assert technical_ability(5.0) == pytest.approx(0.2)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            technical_ability(0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError,
                           match="technical complexity must be >= 1, got nan"):
            technical_ability(float("nan"))

    def test_strictly_decreasing(self):
        rng = random.Random(7)
        values = sorted(rng.uniform(1.0, 50.0) for _ in range(200))
        abilities = [technical_ability(v) for v in values]
        assert all(a > b for a, b in zip(abilities, abilities[1:]))
        assert all(0.0 < a <= 1.0 for a in abilities)
