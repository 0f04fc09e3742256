"""Model generators shared by the property and acceptance tests: random
models, ``bench_gen``, the benchmark's own ``bench/gen.py``, and a rule base
with gaps."""

from __future__ import annotations

import importlib.util
import random
import string
import sys
from pathlib import Path

from paps.fuzzy import RuleBase
from paps.model import (DerivationRule, Goal, Requirement, RiskProfile,
                        SecurityModel)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


bench_gen = _load_bench_gen()


def random_dag_model(rng: random.Random, max_nodes: int = 12) -> SecurityModel:
    """Small random DAG: goals ordered so edges only point forward,
    requirements strictly sinks. Node ids are canonical-order friendly."""
    n_goals = rng.randint(1, max(1, max_nodes - 1))
    n_reqs = rng.randint(1, max_nodes - n_goals)
    goals = [Goal(f"G{i}") for i in range(n_goals)]
    reqs = [Requirement(f"R{i}") for i in range(n_reqs)]
    rules = []
    counter = 1
    for i in range(n_goals):
        targets = [g.id for g in goals[i + 1:]] + [r.id for r in reqs]
        rng.shuffle(targets)
        n_edges = rng.randint(0, min(4, len(targets)))
        chosen = targets[:n_edges]
        if chosen and rng.random() < 0.25:
            chosen.append(rng.choice(chosen))  # duplicate edge, max-collapsed
        while chosen:
            width = rng.randint(1, min(3, len(chosen)))  # multi-child bodies
            body, chosen = tuple(chosen[:width]), chosen[width:]
            rules.append(DerivationRule(
                f"P{counter}", goals[i].id, body, round(rng.random(), 6)))
            counter += 1
    return SecurityModel(tuple(goals), tuple(reqs), tuple(rules), root="G0")


# What ``str.splitlines`` breaks at besides LF, CR and CRLF; in a .srm or
# .rules file each is a character of its line.
NOT_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
NOT_LINE_BREAK_IDS = [f"U+{ord(c):04X}" for c in NOT_LINE_BREAKS]


def _random_text(rng: random.Random) -> str:
    alphabet = (string.ascii_letters + string.digits + ' .,"\\-'
                + NOT_LINE_BREAKS + "\u00e9\u00df\u03bb\u0436")
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))


def random_valid_model(rng: random.Random,
                       max_nodes: int = 12) -> tuple[SecurityModel, RiskProfile]:
    """Random model with risk data, already in the serializer's canonical
    statement order so round-trips compare with plain equality."""
    skeleton = random_dag_model(rng, max_nodes)
    goals = tuple(Goal(g.id, _random_text(rng)) for g in skeleton.goals)
    reqs = []
    cost: dict[str, float] = {}
    tech: dict[str, float] = {}
    for r in skeleton.requirements:
        reqs.append(Requirement(
            r.id, _random_text(rng),
            metric=_random_text(rng) if rng.random() < 0.7 else None,
            connector=_random_text(rng) if rng.random() < 0.2 else None,
            ov=round(rng.uniform(1, 500), 6) if rng.random() < 0.3 else None))
        cost[r.id] = round(rng.random(), 6)
        tech[r.id] = round(rng.random(), 6)
    return (SecurityModel(goals, tuple(reqs), skeleton.rules, root="G0"),
            RiskProfile(cost, tech))


def strong_rules_only(rulebase: RuleBase) -> RuleBase:
    """The rule base with every rule not concluding ``strong`` dropped, so
    most entries have no activation."""
    return RuleBase(tuple(r for r in rulebase.rules
                          if r.consequent[1] == "strong"))
