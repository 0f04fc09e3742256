"""Domain types for goal-refinement models with fuzzy derivation degrees.

A security model is a directed acyclic graph: goals refine into sub-goals
and eventually into leaf requirements, via derivation rules that each carry
a contribution degree in [0, 1]. Requirements additionally carry risk data
(implementation cost and technical ability, both in [0, 1]).
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property


_DIGIT_RUN = re.compile(r"(\d+)")


def natural_key(node_id: str) -> tuple:
    """Sort key treating digit runs numerically, so R2 < R10."""
    return tuple([
        int(part) if part.isdigit() else part
        for part in _DIGIT_RUN.split(node_id)
        if part != ""
    ])


# The records are named tuples: immutable, compared and hashed by value,
# and far cheaper to define at import than dataclasses.


class Frozen:
    """Mixin for a named-tuple record with a __dict__: assigning or deleting
    an attribute raises AttributeError. ``cached_property`` writes to the
    __dict__ directly, so cached tables still work."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"cannot assign to {type(self).__name__}.{name}: immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete {type(self).__name__}.{name}: immutable")


class Goal(namedtuple("Goal", "id description", defaults=("",))):
    __slots__ = ()
    id: str
    description: str


class Requirement(namedtuple("Requirement",
                             "id description metric connector ov",
                             defaults=("", None, None, None))):
    __slots__ = ()
    id: str
    description: str
    metric: str | None
    connector: str | None
    ov: float | None


class DerivationRule(namedtuple("DerivationRule", "id head body degree")):
    """``head -> body[0] ... body[n] @ degree``.

    The rule contributes ``degree`` to the edge (head, b) for every body
    element b; duplicate edges across rules collapse to the maximum degree.
    """

    __slots__ = ()
    id: str
    head: str
    body: tuple[str, ...]
    degree: float


class SecurityModel(Frozen, namedtuple(
        "SecurityModel", "goals requirements rules root")):
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
    # (cached_property writes there directly, past ``Frozen``, and the
    # __dict__ never enters __eq__ or __hash__).

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
    def _requirement_ranks(self) -> dict[str, int]:
        """Requirement id -> its place in natural id order; ids with equal
        natural keys (R1, R01) share a place."""
        ranks: dict[str, int] = {}
        rank, last = -1, None
        for r in self._sorted_requirements:
            key = natural_key(r.id)
            if key != last:
                rank, last = rank + 1, key
            ranks[r.id] = rank
        return ranks

    @cached_property
    def graph(self) -> ModelGraph:
        return ModelGraph(self)


class RiskProfile(namedtuple("RiskProfile", "cost technical_ability")):
    """Per-requirement cost and technical-ability, both in [0, 1]."""

    __slots__ = ()
    cost: Mapping[str, float]
    technical_ability: Mapping[str, float]


class ModelGraph:
    """The derivation graph of one model, compiled once.

    ``adjacency`` maps each rule head to its (child, degree) pairs, sorted
    by child id, with duplicate edges collapsed to their maximum degree.
    ``order`` lists every node (declared or only referenced) children first,
    from one depth-first search (Tarjan 1976) that starts from the nodes in
    id order and enters children in ``adjacency`` order. The first edge
    back into the search path ends it: ``cycle`` then holds that path from
    the edge's target on, closed by the target again (``[G1, G2, G1]``),
    and ``order`` is None. On an acyclic graph ``cycle`` is None.
    ``impact_rows`` is computed on first use.
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

        self.cycle: list[str] | None = None
        self.order: tuple[str, ...] | None = None
        order: list[str] = []
        done: set[str] = set()
        for start in sorted(model.goal_ids() | model.requirement_ids()
                            | set(adj)):
            if start in done:
                continue
            path, on_path = [start], {start}
            stack = [iter(self.adjacency.get(start, ()))]
            while stack:
                for child, _ in stack[-1]:
                    if child in on_path:
                        self.cycle = path[path.index(child):] + [child]
                        return
                    if child not in done:
                        path.append(child)
                        on_path.add(child)
                        stack.append(iter(self.adjacency.get(child, ())))
                        break
                else:
                    node = path.pop()
                    on_path.remove(node)
                    done.add(node)
                    order.append(node)
                    stack.pop()
        self.order = tuple(order)

    def reachable(self, source: str) -> set[str]:
        """``source`` and every node a derivation chain leads to from it."""
        seen = {source}
        frontier = [source]
        while frontier:
            for child, _ in self.adjacency.get(frontier.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    @cached_property
    def impact_rows(self) -> dict[str, dict[str, float]]:
        """Node -> {requirement: impact > 0}, the widest-path widths.

        One pass over ``order``, children first: the row of a node is the
        max over its children (c, d) of min(d, row[c][r]), where a
        requirement child also contributes d for itself (Pollack 1960).
        Nodes that reach no requirement have no row.
        """
        if self.order is None:
            raise ValueError("derivation cycle: " + " -> ".join(self.cycle))
        requirements = self._requirements
        rows: dict[str, dict[str, float]] = {}
        for node in self.order:
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


class Finding(namedtuple("Finding", "category severity subject message")):
    __slots__ = ()
    category: str
    severity: str  # "error" | "warning"
    subject: str   # node or rule id
    message: str

    def __str__(self) -> str:
        return f"{self.severity} [{self.category}] {self.subject}: {self.message}"


class ValidationReport(namedtuple("ValidationReport", "findings",
                                  defaults=((),))):
    __slots__ = ()
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


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

    start = len(findings)
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
    # id order, not declaration order; sorting findings, not rules, is cheap
    findings[start:] = sorted(findings[start:], key=lambda f: natural_key(f.subject))

    cycle = model.graph.cycle
    if cycle is not None:
        findings.append(Finding(CATEGORY_CYCLE, "error", cycle[0],
                                "derivation cycle: " + " -> ".join(cycle)))

    if model.root in goal_ids and cycle is None:
        reachable = model.graph.reachable(model.root)
        for node_id in sorted(declared - reachable, key=natural_key):
            findings.append(Finding(CATEGORY_UNREACHABLE, "warning", node_id,
                                    "no derivation chain from the root goal"))

    return ValidationReport(tuple(findings))
