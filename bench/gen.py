"""Seeded inputs for the benchmark: layered goal DAGs and invalid OBS variants.

Every input the program under test sees is produced here from the workload
seed, so the same seed always gives byte-identical ``.srm`` files.
"""

from __future__ import annotations

import bisect
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

OBS_PATH = Path(__file__).with_name("obs.srm")
CONNECTORS = ("as many bits as", "at least")
FANOUT = 4  # least number of sub-goals of a goal above the last layer


@dataclass
class GenModel:
    """A generated model, kept in plain form for the reference checks."""

    goals: list[str]
    reqs: list[str]
    # head -> [(child, degree)], one entry per rule body element, in rule order
    edges: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    cost: dict[str, float] = field(default_factory=dict)
    tech: dict[str, float] = field(default_factory=dict)
    metric: dict[str, str] = field(default_factory=dict)
    connector: dict[str, str] = field(default_factory=dict)
    ov: dict[str, str] = field(default_factory=dict)
    description: dict[str, str] = field(default_factory=dict)
    text: str = ""


def layered_model(seed: int, n_goals: int, n_reqs: int, *, layers: int,
                  continuous_risk: bool = False) -> GenModel:
    """Layered DAG rooted at G1 in which every node is reachable from the root.

    Goals below the root fill ``layers - 1`` equal layers, numbered by depth.
    Each non-root goal gets one parent in the layer above, and each goal
    above the last layer has at least ``FANOUT`` sub-goals in the layer
    below, so upper goals reach most requirements through many shared paths.
    Requirements are dealt round-robin to the layers below the root and hang
    off a random goal there. About one edge in eight is repeated in another
    rule with its own degree, so duplicate edges are max-collapsed by the
    program.
    """
    rng = random.Random(seed)
    goal_depth = [0] + [1 + i * (layers - 1) // (n_goals - 1) for i in range(n_goals - 1)]
    layer_start = [bisect.bisect_left(goal_depth, d) for d in range(layers + 1)]
    goals = [f"G{i}" for i in range(1, n_goals + 1)]
    reqs = [f"R{i}" for i in range(1, n_reqs + 1)]
    children: dict[int, list[str]] = {i: [] for i in range(n_goals)}

    def in_layer(d: int) -> int:
        return rng.randrange(layer_start[d], layer_start[d + 1])

    for i in range(1, n_goals):
        children[in_layer(goal_depth[i] - 1)].append(goals[i])
    for i in range(layer_start[layers - 1]):
        while len(children[i]) < FANOUT:
            children[i].append(goals[in_layer(goal_depth[i] + 1)])
    for j, req in enumerate(reqs):
        children[in_layer(1 + j % (layers - 1))].append(req)
    for i in range(n_goals):
        children[i] += [c for c in children[i] if rng.random() < 0.125]

    model = GenModel(goals, reqs)
    lines = [f"# layered DAG seed={seed} goals={n_goals} reqs={n_reqs}"]
    lines += [f'goal {g} "goal {g[1:]}"' for g in goals]
    for req in reqs:
        if continuous_risk:
            cost, tech = f"{rng.random():.6f}", f"{rng.random():.6f}"
        else:
            cost, tech = f"{rng.randint(0, 20) / 20:.2f}", f"{rng.randint(1, 10) / 10:.1f}"
        model.cost[req], model.tech[req] = float(cost), float(tech)
        model.description[req] = f"requirement {req[1:]}"
        model.metric[req] = f"metric {rng.randrange(1, 50)}"
        attrs = f'cost={cost} tech={tech} metric="{model.metric[req]}"'
        if rng.random() < 0.2:
            model.connector[req] = rng.choice(CONNECTORS)
            attrs += f' connector="{model.connector[req]}"'
        if rng.random() < 0.3:
            model.ov[req] = str(rng.randint(1, 500))
            attrs += f" ov={model.ov[req]}"
        lines.append(f'req {req} "{model.description[req]}" {attrs}')

    rule_no = 0
    for i in range(n_goals):
        pending = children[i]
        rng.shuffle(pending)
        while pending:
            width = rng.randint(1, 3)
            body, pending = pending[:width], pending[width:]
            degree = f"{rng.randint(5, 100) / 100:.2f}"
            rule_no += 1
            lines.append(f"rule P{rule_no}: {goals[i]} -> {' '.join(body)} @ {degree}")
            model.edges.setdefault(goals[i], []).extend(
                (child, float(degree)) for child in body)
    model.text = "\n".join(lines) + "\n"
    return model


def obs_text() -> str:
    return OBS_PATH.read_text(encoding="utf-8")


_OBS_RULE = re.compile(r"rule (\w+): (\w+) -> (.+) @ ([\d.]+)$")


def obs_goal_edges() -> list[tuple[str, str]]:
    """(head, child) goal-to-goal edges of the OBS model, in file order."""
    text = obs_text()
    goals = set(re.findall(r"^goal (\w+) ", text, re.M))
    edges = []
    for line in text.splitlines():
        m = _OBS_RULE.match(line)
        if m:
            edges += [(m.group(2), c) for c in m.group(3).split() if c in goals]
    return edges


def obs_risk() -> dict[str, tuple[float, float]]:
    """Requirement id -> (cost, tech) of the OBS model."""
    return {r: (float(c), float(t)) for r, c, t in re.findall(
        r'^req (\w+) ".*?" cost=([\d.]+) tech=([\d.]+)', obs_text(), re.M)}


def obs_cyclic_variant(edge_index: int) -> str:
    """OBS plus one rule reversing a goal-to-goal edge, closing a cycle."""
    head, child = obs_goal_edges()[edge_index]
    return obs_text() + f"rule P21: {child} -> {head} @ 0.5\n"


def obs_undeclared_variant(head: str, missing: str) -> tuple[str, int]:
    """OBS plus one rule naming an undeclared id; returns text and its line."""
    text = obs_text() + f"rule P21: {head} -> {missing} @ 0.5\n"
    return text, len(text.splitlines())

