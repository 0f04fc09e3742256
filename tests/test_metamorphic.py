"""Rewrites of a model that keep its meaning keep every existing goal's output.

Both rewrites follow from the widest-path definition of impact and the
max-collapse of duplicate edges:

- split ``H -> A B @ d`` into ``H -> A @ d`` and ``H -> B @ d``;
- put a goal in the middle: replace ``H -> A @ d`` with ``H -> X @ 1`` and
  ``X -> A @ d``, for a new goal ``X`` (``A`` may be a whole body).

Each example scores the model and then its rewrite on one fresh rule base,
so the rewrite's scores come from the memo the first pass filled.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

import paps
from generators import random_valid_model
from paps.model import DerivationRule, Goal
from paps.pipeline import report_csv
from paps.relax import relax_text


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


def _assert_same_outputs(model, rewritten, risk) -> None:
    goals = [g.id for g in model.goals]
    config, rulebase = paps.parse_rulebase(paps.default_rules_text())
    assert (_outputs(rewritten, risk, goals, config, rulebase)
            == _outputs(model, risk, goals, config, rulebase))


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
