"""Domain types for goal-refinement models with fuzzy derivation degrees.

A security model is a directed acyclic graph: goals refine into sub-goals
and eventually into leaf requirements, via derivation rules that each carry
a contribution degree in [0, 1]. Requirements additionally carry risk data
(implementation cost and technical ability, both in [0, 1]).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping


_DIGIT_RUN = re.compile(r"(\d+)")


def natural_key(node_id: str) -> tuple:
    """Sort key treating digit runs numerically, so R2 < R10."""
    return tuple([
        int(part) if part.isdigit() else part
        for part in _DIGIT_RUN.split(node_id)
        if part != ""
    ])


@dataclass(frozen=True)
class Goal:
    id: str
    description: str = ""


@dataclass(frozen=True)
class Requirement:
    id: str
    description: str = ""
    metric: str | None = None
    connector: str | None = None
    ov: float | None = None


@dataclass(frozen=True)
class DerivationRule:
    """``head -> body[0] ... body[n] @ degree``.

    The rule contributes ``degree`` to the edge (head, b) for every body
    element b; duplicate edges across rules collapse to the maximum degree.
    """

    id: str
    head: str
    body: tuple[str, ...]
    degree: float


@dataclass(frozen=True)
class SecurityModel:
    goals: tuple[Goal, ...]
    requirements: tuple[Requirement, ...]
    rules: tuple[DerivationRule, ...]
    root: str

    def goal_ids(self) -> set[str]:
        return {g.id for g in self.goals}

    def requirement_ids(self) -> set[str]:
        return {r.id for r in self.requirements}

    def goal(self, goal_id: str) -> Goal:
        try:
            return self._goals_by_id[goal_id]
        except KeyError:
            raise KeyError(f"unknown goal {goal_id!r}") from None

    def requirement(self, req_id: str) -> Requirement:
        try:
            return self._requirements_by_id[req_id]
        except KeyError:
            raise KeyError(f"unknown requirement {req_id!r}") from None

    def sorted_goals(self) -> list[Goal]:
        """Root first, then the remaining goals in natural id order."""
        rest = sorted((g for g in self.goals if g.id != self.root),
                      key=lambda g: natural_key(g.id))
        head = [g for g in self.goals if g.id == self.root]
        return head + rest

    def sorted_requirements(self) -> list[Requirement]:
        return list(self._sorted_requirements)

    # Derived data, built on first use and kept in the instance __dict__
    # (cached_property writes there directly, so it works on a frozen
    # dataclass and never enters __eq__ or __hash__).

    @cached_property
    def _goals_by_id(self) -> dict[str, Goal]:
        return {g.id: g for g in reversed(self.goals)}  # first one wins

    @cached_property
    def _requirements_by_id(self) -> dict[str, Requirement]:
        return {r.id: r for r in reversed(self.requirements)}

    @cached_property
    def _sorted_requirements(self) -> tuple[Requirement, ...]:
        return tuple(sorted(self.requirements,
                            key=lambda r: natural_key(r.id)))

    @cached_property
    def graph(self) -> ModelGraph:
        return ModelGraph(self)


@dataclass(frozen=True)
class RiskProfile:
    """Per-requirement cost and technical-ability, both in [0, 1]."""

    cost: Mapping[str, float]
    technical_ability: Mapping[str, float]


class ModelGraph:
    """The derivation graph of one model, compiled once.

    ``adjacency`` maps each rule head to its (child, degree) pairs, sorted
    by child id, with duplicate edges collapsed to their maximum degree.
    ``order`` lists every node (declared or only referenced) so that heads
    come before their children (Kahn 1962), or is None if the rules form a
    cycle. ``impact_rows`` is computed on first use.
    """

    def __init__(self, model: SecurityModel):
        self._requirements = model._requirements_by_id
        adj: dict[str, dict[str, float]] = {}
        for rule in model.rules:
            children = adj.setdefault(rule.head, {})
            for child in rule.body:
                children[child] = max(children.get(child, 0.0), rule.degree)
        self.adjacency: dict[str, tuple[tuple[str, float], ...]] = {
            head: tuple(sorted(children.items()))
            for head, children in adj.items()}

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
        self.order: tuple[str, ...] | None = (
            tuple(order) if len(order) == len(indegree) else None)

    @cached_property
    def impact_rows(self) -> dict[str, dict[str, float]]:
        """Node -> {requirement: impact > 0}, the widest-path widths.

        One pass in reverse topological order: the row of a node is the
        max over its children (c, d) of min(d, row[c][r]), where a
        requirement child also contributes d for itself (Pollack 1960).
        Nodes that reach no requirement have no row.
        """
        if self.order is None:
            cycle = _find_cycle(self.adjacency, set(self.adjacency))
            raise ValueError("derivation cycle: " + " -> ".join(cycle))
        requirements = self._requirements
        rows: dict[str, dict[str, float]] = {}
        for node in reversed(self.order):
            children = self.adjacency.get(node)
            if not children:
                continue
            row: dict[str, float] = {}
            get = row.get
            for child, degree in children:
                if child in requirements and degree > get(child, 0.0):
                    row[child] = degree
                for req, width in rows.get(child, {}).items():
                    if width > degree:
                        width = degree
                    if width > get(req, 0.0):
                        row[req] = width
            if row:
                rows[node] = row
        return rows


def adjacency(model: SecurityModel) -> dict[str, tuple[tuple[str, float], ...]]:
    """Rule head -> (child, degree) pairs; see ``ModelGraph``."""
    return model.graph.adjacency


def technical_ability(complexity: float) -> float:
    """Ease-of-implementation score 1/complexity, for complexity >= 1."""
    if complexity < 1.0:
        raise ValueError(
            f"technical complexity must be >= 1, got {complexity}")
    return 1.0 / complexity


# --- validation ---------------------------------------------------------

CATEGORY_CYCLE = "cycle"
CATEGORY_DANGLING = "dangling-ref"
CATEGORY_RANGE = "range"
CATEGORY_MISSING_RISK = "missing-risk"
CATEGORY_REQ_AS_HEAD = "requirement-as-head"
CATEGORY_UNREACHABLE = "unreachable-node"
CATEGORY_DUPLICATE = "duplicate-id"


@dataclass(frozen=True)
class Finding:
    category: str
    severity: str  # "error" | "warning"
    subject: str   # node or rule id
    message: str

    def __str__(self) -> str:
        return f"{self.severity} [{self.category}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...] = field(default_factory=tuple)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


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


def validate_model(model: SecurityModel, risk: RiskProfile) -> ValidationReport:
    """Check every structural invariant; never raises, always reports."""
    findings: list[Finding] = []
    declared: set[str] = set()
    for node_id in [g.id for g in model.goals] + [r.id for r in model.requirements]:
        if node_id in declared:
            findings.append(Finding(CATEGORY_DUPLICATE, "error", node_id,
                                    "declared more than once"))
        declared.add(node_id)

    goal_ids = model.goal_ids()
    req_ids = model.requirement_ids()

    if model.root not in declared:
        findings.append(Finding(CATEGORY_DANGLING, "error", model.root,
                                "root node is not declared"))
    elif model.root not in goal_ids:
        findings.append(Finding(CATEGORY_REQ_AS_HEAD, "error", model.root,
                                "root node must be a goal"))

    seen_rule_ids: set[str] = set()
    for rule in model.rules:
        if rule.id in seen_rule_ids:
            findings.append(Finding(CATEGORY_DUPLICATE, "error", rule.id,
                                    "rule id declared more than once"))
        seen_rule_ids.add(rule.id)
        if rule.head in req_ids:
            findings.append(Finding(CATEGORY_REQ_AS_HEAD, "error", rule.id,
                                    f"requirement {rule.head} used as rule head"))
        elif rule.head not in declared:
            findings.append(Finding(CATEGORY_DANGLING, "error", rule.id,
                                    f"rule head {rule.head} is not declared"))
        for child in rule.body:
            if child not in declared:
                findings.append(Finding(CATEGORY_DANGLING, "error", rule.id,
                                        f"rule body element {child} is not declared"))
        if not 0.0 <= rule.degree <= 1.0:
            findings.append(Finding(CATEGORY_RANGE, "error", rule.id,
                                    f"degree {rule.degree} outside [0, 1]"))

    for req in model.requirements:
        for name, table in (("cost", risk.cost),
                            ("technical ability", risk.technical_ability)):
            if req.id not in table:
                findings.append(Finding(CATEGORY_MISSING_RISK, "error", req.id,
                                        f"no {name} value"))
            elif not 0.0 <= table[req.id] <= 1.0:
                findings.append(Finding(CATEGORY_RANGE, "error", req.id,
                                        f"{name} {table[req.id]} outside [0, 1]"))

    adj = adjacency(model)
    # Kahn's sort detects a cycle; the DFS then names one.
    cycle = _find_cycle(adj, declared) if model.graph.order is None else None
    if cycle is not None:
        findings.append(Finding(CATEGORY_CYCLE, "error", cycle[0],
                                "derivation cycle: " + " -> ".join(cycle)))

    if model.root in goal_ids and cycle is None:
        reachable = {model.root}
        frontier = [model.root]
        while frontier:
            node = frontier.pop()
            for child, _ in adj.get(node, ()):
                if child in declared and child not in reachable:
                    reachable.add(child)
                    frontier.append(child)
        for node_id in sorted(declared - reachable, key=natural_key):
            findings.append(Finding(CATEGORY_UNREACHABLE, "warning", node_id,
                                    "no derivation chain from the root goal"))

    return ValidationReport(tuple(findings))
