"""Rewrites of a model or its rule base that keep their meaning keep every
existing goal's output.

The model rewrites follow from the widest-path definition of impact and the
max-collapse of duplicate edges:

- split ``H -> A B @ d`` into ``H -> A @ d`` and ``H -> B @ d``;
- put a goal in the middle: replace ``H -> A @ d`` with ``H -> X @ 1`` and
  ``X -> A @ d``, for a new goal ``X`` (``A`` may be a whole body);
- add ``H -> A @ d'`` where the edge ``H -> A`` already has a degree
  ``>= d'``.

The rule-base rewrites follow from Mamdani inference, where an output
term's activation is the max over its rules' strengths:

- repeat a rule under a new id;
- add a rule whose antecedent can never be positive.

Each example scores the model and then its rewrite on one fresh rule base,
so the rewrite's scores come from the memo the first pass filled. A
rewritten rule base is fresh too, and scores the model twice: the second
time from its own memo.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

import paps
from generators import random_valid_model
from paps.model import DerivationRule, Goal
from paps.pipeline import report_csv
from paps.relax import relax_text

DEFAULT_RULES = paps.default_rules_text()
RULE_LINES = [line for line in DEFAULT_RULES.splitlines(keepends=True)
              if line.lstrip().startswith("RULE ")]


def _outputs(model, risk, goals, config, rulebase) -> list[tuple[str, str, str]]:
    """Per goal: its impact row, prioritize csv and relax text (or the
    error that relax raises)."""
    matrix = paps.impact_matrix(model)
    outputs = []
    for goal in goals:
        entries = paps.prioritize(model, risk, goal, config, rulebase)
        try:
            relaxed = relax_text(paps.relax_srl(model, risk, goal, config,
                                                rulebase))
        except paps.RenderError as exc:
            relaxed = f"RenderError: {exc}"
        outputs.append((matrix.to_csv([goal]), report_csv(entries), relaxed))
    return outputs


def _assert_same_outputs(model, rewritten, risk,
                         rules: str = DEFAULT_RULES) -> None:
    """Every goal of ``model`` gets the bytes from ``rewritten``, scored
    with ``rules``, that ``model`` gets from the default rules."""
    goals = [g.id for g in model.goals]
    fis = paps.parse_rulebase(DEFAULT_RULES)
    expected = _outputs(model, risk, goals, *fis)
    if rules != DEFAULT_RULES:
        fis = paps.parse_rulebase(rules)
        assert _outputs(model, risk, goals, *fis) == expected
    assert _outputs(rewritten, risk, goals, *fis) == expected


def _with_rules(model, index: int, replacement: list[DerivationRule],
                goals=()):
    rules = model.rules[:index] + tuple(replacement) + model.rules[index + 1:]
    return model._replace(goals=model.goals + tuple(goals), rules=rules)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_splitting_a_rule_body_keeps_every_output(rng, data):
    model, risk = random_valid_model(rng)
    wide = [i for i, rule in enumerate(model.rules) if len(rule.body) > 1]
    assume(wide)
    index = data.draw(st.sampled_from(wide), label="rule")
    rule = model.rules[index]
    cut = data.draw(st.integers(1, len(rule.body) - 1), label="cut")
    rewritten = _with_rules(model, index, [
        rule._replace(body=rule.body[:cut]),
        rule._replace(id=f"P{len(model.rules) + 1}", body=rule.body[cut:])])
    _assert_same_outputs(model, rewritten, risk)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_a_goal_in_the_middle_keeps_every_output(rng, data):
    model, risk = random_valid_model(rng)
    assume(model.rules)
    index = data.draw(st.integers(0, len(model.rules) - 1), label="rule")
    rule = model.rules[index]
    middle = f"G{len(model.goals)}"
    rewritten = _with_rules(model, index, [
        rule._replace(body=(middle,), degree=1.0),
        DerivationRule(f"P{len(model.rules) + 1}", middle, rule.body,
                       rule.degree)], goals=[Goal(middle, "middle")])
    _assert_same_outputs(model, rewritten, risk)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_a_weaker_duplicate_edge_keeps_every_output(rng, data):
    model, risk = random_valid_model(rng)
    assume(model.rules)
    index = data.draw(st.integers(0, len(model.rules) - 1), label="rule")
    rule = model.rules[index]
    child = data.draw(st.sampled_from(rule.body), label="child")
    degree = data.draw(st.floats(0.0, rule.degree), label="degree")
    rewritten = _with_rules(model, index, [
        rule, DerivationRule(f"P{len(model.rules) + 1}", rule.head, (child,),
                             degree)])
    _assert_same_outputs(model, rewritten, risk)


def _rules_with(rule: str, data) -> str:
    """The default rules text with ``RULE 28: rule`` (an unused id) among
    its rules, at a drawn place."""
    at = DEFAULT_RULES.index(data.draw(st.sampled_from(
        RULE_LINES + ["END_RULEBLOCK"]), label="place"))
    return f"{DEFAULT_RULES[:at]}    RULE 28: {rule}\n{DEFAULT_RULES[at:]}"


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_a_repeated_rule_keeps_every_output(rng, data):
    model, risk = random_valid_model(rng)
    line = data.draw(st.sampled_from(RULE_LINES), label="repeated")
    rules = _rules_with(line.split(":", 1)[1].strip(), data)
    _assert_same_outputs(model, model, risk, rules)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_a_rule_that_never_fires_keeps_every_output(rng, data):
    model, risk = random_valid_model(rng)
    # low and high of each input are positive on [0, 0.5) and (0.5, 1]
    name = data.draw(st.sampled_from(["impact", "cost", "tech"]), label="input")
    term = data.draw(st.sampled_from(["optional", "weak", "normal", "strong"]),
                     label="then")
    rules = _rules_with(f"IF {name} IS low AND {name} IS high "
                        f"THEN priority IS {term};", data)
    _assert_same_outputs(model, model, risk, rules)
