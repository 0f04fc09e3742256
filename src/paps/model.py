"""Domain types for goal-refinement models with fuzzy derivation degrees.

A security model is a directed acyclic graph: goals refine into sub-goals
and eventually into leaf requirements, via derivation rules that each carry
a contribution degree in [0, 1]. Requirements additionally carry risk data
(implementation cost and technical ability, both in [0, 1]).
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator, Mapping
from functools import cached_property


_DIGIT_RUN = re.compile(r"(\d+)")


def natural_key(node_id: str) -> tuple:
    """Sort key treating digit runs numerically, so R2 < R10. Text and
    numbers alternate, text first (maybe empty), so any two keys compare;
    the id's own text breaks a tie (R01 < R1), so no two ids share a key.
    A number is the length and ASCII digits of its run without leading
    zeros: it orders as ``int`` would, also past ``int``'s 4 300 digits."""
    parts = _DIGIT_RUN.split(node_id)
    key = [parts[0]]
    for i in range(1, len(parts), 2):
        run = parts[i]
        if not run.isascii():
            run = "".join([str(int(digit)) for digit in run])
        run = run.lstrip("0")
        key += len(run), run, parts[i + 1]
    return tuple(key), node_id


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

    def goal(self, goal_id: str) -> Goal:
        try:
            return self.graph.goals[goal_id]
        except KeyError:
            raise KeyError(f"unknown goal {goal_id!r}") from None

    def requirement(self, req_id: str) -> Requirement:
        try:
            return self.graph.requirements[req_id]
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
    def _sorted_requirements(self) -> tuple[Requirement, ...]:
        return tuple(sorted(self.requirements,
                            key=lambda r: natural_key(r.id)))

    @cached_property
    def _requirement_ranks(self) -> dict[str, int]:
        """Requirement id -> its place in natural id order."""
        return {r.id: i for i, r in enumerate(self._sorted_requirements)}

    @cached_property
    def graph(self) -> ModelGraph:
        return ModelGraph(self)

    @cached_property
    def _statement_parts(self) -> dict[str, tuple[str, ...]]:
        """Requirement id -> the parts of its relaxed statement that do not
        depend on the RDS, each added by ``paps.relax`` on its first use."""
        return {}


class RiskProfile(namedtuple("RiskProfile", "cost technical_ability")):
    """Per-requirement cost and technical-ability, both in [0, 1]."""

    __slots__ = ()
    cost: Mapping[str, float]
    technical_ability: Mapping[str, float]


class ModelGraph:
    """One model's checks and derivation graph, compiled once. One loop over
    the nodes fills the id tables and finds repeated ids; one over the rules
    checks each rule and adds its edges if its degree lies in [0, 1]; the
    graph compares no other value.

    ``goals`` and ``requirements`` map an id to the first goal, or the first
    requirement, declared with it. ``findings`` holds ``validate_model``'s
    findings that need no risk data, in three runs: node ids and the root;
    rules in natural id order; the graph (the cycle, an error, or the
    unreachable nodes, warnings), empty if a degree is outside [0, 1].
    ``error`` is the first error among them, which ``build_srl`` and
    ``prioritize`` refuse;
    ``rows_error`` the first repeated id, degree outside [0, 1] or cycle,
    which ``impact_rows`` refuses; each is None if there is none.
    ``adjacency`` maps each rule head to its (child, degree) pairs, sorted
    by child id, with duplicate edges collapsed to their maximum degree.
    ``order`` lists every node (declared or only referenced) children first,
    from one depth-first search (Tarjan 1976) that starts from the nodes in
    id order and enters children in ``adjacency`` order. The first edge back
    into the search path ends it: ``cycle`` then holds that path from the
    edge's target on, closed by the target again (``[G1, G2, G1]``), and
    ``order`` is None. On an acyclic graph ``cycle`` is None. The search
    keeps one mark per node: on the path, or finished. It is the only walk
    of the graph; the rest are single passes over ``order``:
    ``impact_rows``, computed on first use, goes children first, and the
    nodes the root reaches are found parents first.
    """

    def __init__(self, model: SecurityModel):
        self.goals: dict[str, Goal] = {}
        self.requirements: dict[str, Requirement] = {}
        goals, requirements, root = self.goals, self.requirements, model.root
        nodes: list[Finding] = []
        declared: set[str] = set()
        for table, run in ((goals, model.goals),
                           (requirements, model.requirements)):
            for node in run:
                if node.id in declared:
                    nodes.append(Finding(CATEGORY_DUPLICATE, "error", node.id,
                                         "declared more than once"))
                declared.add(node.id)
                table.setdefault(node.id, node)  # the first one wins
        if root not in declared:
            nodes.append(Finding(CATEGORY_DANGLING, "error", root,
                                 "root node is not declared"))
        elif root not in goals:
            nodes.append(Finding(CATEGORY_REQ_AS_HEAD, "error", root,
                                 "root node must be a goal"))

        rules: list[Finding] = []
        degrees_ok = True
        rule_ids: set[str] = set()
        adj: dict[str, dict[str, float]] = {}
        for rule_id, head, body, degree in model.rules:
            if rule_id in rule_ids:
                rules.append(Finding(CATEGORY_DUPLICATE, "error", rule_id,
                                     "rule id declared more than once"))
            rule_ids.add(rule_id)
            if head in requirements:
                rules.append(Finding(CATEGORY_REQ_AS_HEAD, "error", rule_id,
                                     f"requirement {head} used as rule head"))
            elif head not in declared:
                rules.append(Finding(CATEGORY_DANGLING, "error", rule_id,
                                     f"rule head {head} is not declared"))
            for child in body:
                if child not in declared:
                    rules.append(Finding(
                        CATEGORY_DANGLING, "error", rule_id,
                        f"rule body element {child} is not declared"))
            if not _in_unit(degree):  # such a rule adds no edge
                degrees_ok = False
                rules.append(Finding(CATEGORY_RANGE, "error", rule_id,
                                     f"degree {degree!r} outside [0, 1]"))
                continue
            children = adj.get(head)
            if children is None:
                children = adj[head] = {}
            for child in body:
                # as max(children.get(child, 0.0), degree): the stored value
                # stays on a tie, so a -0.0 degree leaves 0.0
                if degree > children.get(child, 0.0):
                    children[child] = degree
                elif child not in children:
                    children[child] = 0.0
        # id order, not declaration order: findings sort cheaper than rules
        rules.sort(key=lambda f: natural_key(f.subject))
        self.adjacency: dict[str, tuple[tuple[str, float], ...]] = {
            head: tuple(sorted(children.items()))
            for head, children in adj.items()}

        self._search(sorted(declared | adj.keys()))
        graph: list[Finding] = []
        cycle = self.cycle
        if degrees_ok and cycle is not None:
            graph.append(Finding(CATEGORY_CYCLE, "error", cycle[0],
                                 "derivation cycle: " + " -> ".join(cycle)))
        elif degrees_ok and root in goals:
            # reversed, the search order has every parent before its children
            reached = {root}
            for node in reversed(self.order):
                if node in reached:
                    for child, _ in self.adjacency.get(node, ()):
                        reached.add(child)
            for node_id in sorted(declared - reached, key=natural_key):
                graph.append(Finding(CATEGORY_UNREACHABLE, "warning", node_id,
                                     "no derivation chain from the root goal"))
        self.findings: tuple[tuple[Finding, ...], ...] = (
            tuple(nodes), tuple(rules), tuple(graph))
        self.error: Finding | None = next(
            (f for run in self.findings for f in run if f.severity == "error"),
            None)
        self.rows_error: Finding | None = next(
            (f for run, category in zip(self.findings, (
                CATEGORY_DUPLICATE, CATEGORY_RANGE, CATEGORY_CYCLE))
             for f in run if f.category == category), None)

    def _search(self, starts: list[str]) -> None:
        """Set ``order`` and ``cycle`` by the search from ``starts``."""
        self.cycle: list[str] | None = None
        self.order: tuple[str, ...] | None = None
        order: list[str] = []
        state: dict[str, bool] = {}  # True on the path, False once finished
        for start in starts:
            if start in state:
                continue
            path = [start]
            state[start] = True
            stack = [iter(self.adjacency.get(start, ()))]
            while stack:
                for child, _ in stack[-1]:
                    mark = state.get(child)
                    if mark:
                        self.cycle = path[path.index(child):] + [child]
                        return
                    if mark is None:
                        path.append(child)
                        state[child] = True
                        stack.append(iter(self.adjacency.get(child, ())))
                        break
                else:
                    node = path.pop()
                    state[node] = False
                    order.append(node)
                    stack.pop()
        self.order = tuple(order)

    @cached_property
    def impact_rows(self) -> dict[str, dict[str, float]]:
        """Node -> {requirement: impact in (0, 1]}, the widest-path widths.

        One pass over ``order``, children first: the row of a node is the
        max over its children (c, d) of min(d, row[c][r]), where a
        requirement child also contributes d for itself (Pollack 1960).
        Nodes that reach no requirement have no row. ``rows_error`` (a
        repeated id, a degree outside [0, 1] or a cycle) raises
        ``ValueError`` in ``validate_model``'s words.
        """
        if self.rows_error is not None:
            _refuse(self.rows_error)
        requirements = self.requirements
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
    if not complexity >= 1.0:  # NaN fails too
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


def _in_unit(value: object) -> bool:
    """0 <= value <= 1; NaN and a value that does not compare with floats
    (a string, None) are outside."""
    try:
        return 0.0 <= value <= 1.0  # type: ignore[operator]
    except TypeError:
        return False


def _risk_findings(req_id: str, risk: RiskProfile) -> Iterator[Finding]:
    """One requirement's missing or out-of-[0, 1] cost, then technical
    ability; NaN is out of range."""
    for name, table in (("cost", risk.cost),
                        ("technical ability", risk.technical_ability)):
        if req_id not in table:
            yield Finding(CATEGORY_MISSING_RISK, "error", req_id,
                          f"no {name} value")
        elif not _in_unit(table[req_id]):
            yield Finding(CATEGORY_RANGE, "error", req_id,
                          f"{name} {table[req_id]!r} outside [0, 1]")


def _refuse(finding: Finding) -> None:
    """Raise ``ValueError`` in ``validate``'s words: "subject: message",
    or the bare message of the cycle."""
    raise ValueError(finding.message if finding.category == CATEGORY_CYCLE
                     else f"{finding.subject}: {finding.message}")


def validate_model(model: SecurityModel, risk: RiskProfile) -> ValidationReport:
    """Check every structural invariant; never raises, always reports."""
    nodes, rules, graph = model.graph.findings
    by_id = list(rules)
    cost, tech = risk.cost.get, risk.technical_ability.get
    for req in model.requirements:
        try:  # _in_unit's test, for both values at once
            if 0.0 <= cost(req.id) <= 1.0 and 0.0 <= tech(req.id) <= 1.0:
                continue
        except TypeError:  # a missing value (None) or not a number
            pass
        by_id.extend(_risk_findings(req.id, risk))
    # The model's findings are found once; the risk findings join its rule
    # findings in id order, after them on an equal id (a stable sort).
    by_id.sort(key=lambda f: natural_key(f.subject))
    return ValidationReport((*nodes, *by_id, *graph))
