"""Parser and serializer for the .srm model format.

Line-oriented UTF-8; one declaration per line:

    # comment
    option cost_scale = 100
    goal G1 "description"
    req R1 "description" cost=0.5 tech=1.0 [metric="..."] [connector="..."] [ov=100]
    rule P1: G1 -> R1 R2 @ 0.7

The optional ``cost_scale`` header divides raw costs on ingest so files
can state costs on a [0, 100] scale while the toolkit works on [0, 1].
"""

from __future__ import annotations

import re

from .model import (DerivationRule, Goal, Requirement, RiskProfile,
                    SecurityModel, natural_key)


class SrmError(Exception):
    """Parse failure with a 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)"
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_STR = r'"((?:[^"\\]|\\.)*)"'

_OPTION_RE = re.compile(rf"option\s+({_ID})\s*=\s*({_NUM})\s*$")
_GOAL_RE = re.compile(rf"goal\s+({_ID})\s+{_STR}\s*$")
_REQ_RE = re.compile(rf"req\s+({_ID})\s+{_STR}((?:\s+{_ID}={_NUM}|\s+{_ID}={_STR})*)\s*$")
_ATTR_RE = re.compile(rf"({_ID})=(?:({_NUM})|{_STR})")
_RULE_RE = re.compile(
    rf"rule\s+({_ID})\s*:\s*({_ID})\s*->\s*({_ID}(?:\s+{_ID})*)\s*@\s*({_NUM})\s*$")

_KNOWN_OPTIONS = {"cost_scale"}
_REQ_ATTRS = {"cost", "tech", "metric", "connector", "ov"}


def _unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def parse_model(text: str) -> tuple[SecurityModel, RiskProfile]:
    goals: list[Goal] = []
    requirements: list[Requirement] = []
    rules: list[DerivationRule] = []
    cost: dict[str, float] = {}
    tech: dict[str, float] = {}
    declared: dict[str, int] = {}
    rule_ids: dict[str, int] = {}
    option_lines: dict[str, int] = {}
    cost_scale = 1.0
    body_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        col = len(raw) - len(raw.lstrip()) + 1
        keyword = line.split(None, 1)[0]

        if keyword == "option":
            m = _OPTION_RE.match(line)
            if not m:
                raise SrmError(lineno, col, "malformed option line")
            if body_seen:
                raise SrmError(lineno, col,
                               "options must precede declarations")
            name, value = m.group(1), float(m.group(2))
            if name not in _KNOWN_OPTIONS:
                raise SrmError(lineno, col, f"unknown option {name!r}")
            if name in option_lines:
                raise SrmError(lineno, col, f"option {name} already set "
                                            f"on line {option_lines[name]}")
            option_lines[name] = lineno
            if value <= 0:
                raise SrmError(lineno, col, f"{name} must be positive")
            cost_scale = value
            continue

        body_seen = True
        if keyword == "goal":
            m = _GOAL_RE.match(line)
            if not m:
                raise SrmError(lineno, col,
                               'malformed goal line, expected: goal <ID> "<description>"')
            goal_id = m.group(1)
            if goal_id in declared:
                raise SrmError(lineno, col,
                               f"{goal_id} already declared on line {declared[goal_id]}")
            declared[goal_id] = lineno
            goals.append(Goal(goal_id, _unescape(m.group(2))))
        elif keyword == "req":
            m = _REQ_RE.match(line)
            if not m:
                raise SrmError(
                    lineno, col,
                    'malformed req line, expected: req <ID> "<description>" '
                    "cost=<num> tech=<num> ...")
            req_id = m.group(1)
            if req_id in declared:
                raise SrmError(lineno, col,
                               f"{req_id} already declared on line {declared[req_id]}")
            declared[req_id] = lineno
            attrs: dict[str, str | float] = {}
            for am in _ATTR_RE.finditer(m.group(3)):
                name = am.group(1)
                if name not in _REQ_ATTRS:
                    raise SrmError(lineno, col, f"unknown attribute {name!r}")
                if name in attrs:
                    raise SrmError(lineno, col, f"duplicate attribute {name!r}")
                if am.group(2) is not None:
                    if name in ("metric", "connector"):
                        raise SrmError(lineno, col,
                                       f"attribute {name} needs a quoted value")
                    attrs[name] = float(am.group(2))
                else:
                    if name in ("cost", "tech", "ov"):
                        raise SrmError(lineno, col,
                                       f"attribute {name} needs a numeric value")
                    attrs[name] = _unescape(am.group(3))
            for required in ("cost", "tech"):
                if required not in attrs:
                    raise SrmError(lineno, col,
                                   f"req {req_id} is missing {required}=")
            raw_cost = float(attrs["cost"]) / cost_scale
            raw_tech = float(attrs["tech"])
            if not 0.0 <= raw_cost <= 1.0:
                raise SrmError(lineno, col,
                               f"cost {attrs['cost']} outside [0, {cost_scale:g}]")
            if not 0.0 <= raw_tech <= 1.0:
                raise SrmError(lineno, col,
                               f"tech {raw_tech} outside [0, 1]")
            ov = attrs.get("ov")
            if ov is not None and float(ov) <= 0:
                raise SrmError(lineno, col, "ov must be positive")
            requirements.append(Requirement(
                req_id, _unescape(m.group(2)),
                metric=attrs.get("metric"),
                connector=attrs.get("connector"),
                ov=float(ov) if ov is not None else None))
            cost[req_id] = raw_cost
            tech[req_id] = raw_tech
        elif keyword == "rule":
            m = _RULE_RE.match(line)
            if not m:
                raise SrmError(
                    lineno, col,
                    "malformed rule line, expected: rule <ID>: <Goal> -> <ID> ... @ <num>")
            rule_id, head, body_src, degree_src = m.groups()
            if rule_id in rule_ids:
                raise SrmError(lineno, col,
                               f"rule {rule_id} already declared on line {rule_ids[rule_id]}")
            rule_ids[rule_id] = lineno
            degree = float(degree_src)
            if not 0.0 <= degree <= 1.0:
                raise SrmError(lineno, col, f"degree {degree_src} outside [0, 1]")
            rules.append(DerivationRule(rule_id, head,
                                        tuple(body_src.split()), degree))
        else:
            raise SrmError(lineno, col, f"unknown directive {keyword!r}")

    if not goals:
        raise SrmError(len(text.splitlines()) + 1, 1, "no goals declared")

    model = SecurityModel(tuple(goals), tuple(requirements), tuple(rules),
                          root=goals[0].id)
    risk = RiskProfile(cost, tech)

    # references must resolve; report the first offender with its position
    known = set(declared)
    for rule in model.rules:
        for node in (rule.head, *rule.body):
            if node not in known:
                raise SrmError(rule_ids[rule.id], 1,
                               f"rule {rule.id} references undeclared id {node!r}")
    return model, risk


def format_number(value: float) -> str:
    """Up to 6 decimal digits, trailing zeros trimmed."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


def serialize_model(model: SecurityModel, risk: RiskProfile) -> str:
    """Canonical form: goals, then requirements, then rules, sorted by id.

    The root goal is emitted first so the round-trip keeps the same root
    (the parser takes the first goal as root).
    """
    lines: list[str] = []
    for goal in model.sorted_goals():
        lines.append(f'goal {goal.id} "{_escape(goal.description)}"')
    for req in model.sorted_requirements():
        parts = [f'req {req.id} "{_escape(req.description)}"',
                 f"cost={format_number(risk.cost[req.id])}",
                 f"tech={format_number(risk.technical_ability[req.id])}"]
        if req.metric is not None:
            parts.append(f'metric="{_escape(req.metric)}"')
        if req.connector is not None:
            parts.append(f'connector="{_escape(req.connector)}"')
        if req.ov is not None:
            parts.append(f"ov={format_number(req.ov)}")
        lines.append(" ".join(parts))
    for rule in sorted(model.rules, key=lambda r: natural_key(r.id)):
        lines.append(f"rule {rule.id}: {rule.head} -> "
                     f"{' '.join(rule.body)} @ {format_number(rule.degree)}")
    return "\n".join(lines) + "\n"
