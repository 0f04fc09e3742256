"""Rewrites of a model or its rule base that keep their meaning keep every
existing goal's output.

The model rewrites follow from the widest-path definition of impact and the
max-collapse of duplicate edges:

- split ``H -> A B @ d`` into ``H -> A @ d`` and ``H -> B @ d``;
- put a goal in the middle: replace ``H -> A @ d`` with ``H -> X @ 1`` and
  ``X -> A @ d``, for a new goal ``X`` (``A`` may be a whole body);
- add ``H -> A @ d'`` where the edge ``H -> A`` already has a degree
  ``>= d'``;
- rename the goals and requirements by a bijection that keeps their
  natural id order and trailing digits (so ``OV_k`` stays): the output is
  the same up to the renaming.

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

import re

from hypothesis import assume, given, settings, strategies as st

import paps
from generators import random_valid_model
from paps.model import DerivationRule, Goal, RiskProfile, natural_key
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


LETTERS = "abzABZ_"
DIGITS = "0123456789"


@st.composite
def _stems(draw, count: int, last: str) -> list[str]:
    """``count`` stems in natural id order, repeats allowed, each ending in
    a letter of ``last`` and holding the same number of digit runs (a stem
    may start with one). So no stem's key is a proper prefix of another's,
    and ``stem + digits`` sorts as the pair (stem, digits)."""
    runs = draw(st.integers(0, 2))
    parts = [st.text(LETTERS, max_size=2)]
    parts += [st.text(DIGITS, min_size=1, max_size=2),
              st.text(LETTERS, min_size=1, max_size=2)] * runs
    stem = st.tuples(*parts, st.sampled_from(last)).map("".join)
    return sorted(draw(st.lists(stem, min_size=count, max_size=count)),
                  key=natural_key)


_TRAILING = re.compile(r"\d+$")


def _renaming(draw, ids: list[str], last: str) -> dict[str, str]:
    """A new id for each of ``ids``: a drawn stem and the old trailing
    digits, in the old natural order."""
    ids = sorted(ids, key=natural_key)
    stems = draw(_stems(len(ids), last))
    return {old: stem + _TRAILING.search(old).group()
            for old, stem in zip(ids, stems)}


_ID = re.compile(r"\b[GR]\d+\b")
_NO_DIGITS = str.maketrans("", "", DIGITS)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_renaming_the_ids_keeps_every_output(rng, data):
    model, risk = random_valid_model(rng)
    # Texts without digits hold no id, so every G<k> or R<k> the output
    # shows is an id, and renaming the output text is exact.
    model = model._replace(
        goals=tuple(g._replace(description=g.description.translate(_NO_DIGITS))
                    for g in model.goals),
        requirements=tuple(
            r._replace(description=r.description.translate(_NO_DIGITS),
                       metric=r.metric and r.metric.translate(_NO_DIGITS),
                       connector=r.connector and r.connector.translate(_NO_DIGITS))
            for r in model.requirements))
    # Goal stems end in upper case, requirement stems in lower case, so no
    # new goal id is a new requirement id.
    new = {**_renaming(data.draw, [g.id for g in model.goals], "ABZ"),
           **_renaming(data.draw, [r.id for r in model.requirements], "abz")}
    for ids in ([g.id for g in model.goals], [r.id for r in model.requirements]):
        assert ([new[i] for i in sorted(ids, key=natural_key)]
                == sorted((new[i] for i in ids), key=natural_key))
    renamed = model._replace(
        goals=tuple(g._replace(id=new[g.id]) for g in model.goals),
        requirements=tuple(r._replace(id=new[r.id])
                           for r in model.requirements),
        rules=tuple(rule._replace(head=new[rule.head],
                                  body=tuple(new[b] for b in rule.body))
                    for rule in model.rules),
        root=new[model.root])
    renamed_risk = RiskProfile(
        {new[r]: v for r, v in risk.cost.items()},
        {new[r]: v for r, v in risk.technical_ability.items()})
    goals = [g.id for g in model.goals]
    fis = paps.parse_rulebase(DEFAULT_RULES)
    expected = [tuple(_ID.sub(lambda m: new[m.group()], text) for text in out)
                for out in _outputs(model, risk, goals, *fis)]
    assert _outputs(renamed, renamed_risk, [new[g] for g in goals],
                    *fis) == expected
