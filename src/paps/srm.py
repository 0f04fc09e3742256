"""Parser and serializer for the .srm model format.

Line-oriented UTF-8; one declaration per line:

    # comment
    option cost_scale = 100
    goal G1 "description"
    req R1 "description" cost=0.5 tech=1.0 [metric="..."] [connector="..."] [ov=100]
    rule P1: G1 -> R1 R2 @ 0.7

The optional ``cost_scale`` header divides raw costs on ingest so files
can state costs on a [0, 100] scale while the toolkit works on [0, 1].

``parse_model`` reads the lines in one pass and does on a valid line only
what that line needs; a line is looked at again only to name its error.
"""

from __future__ import annotations

import re

from .model import (CATEGORY_CYCLE, CATEGORY_REQ_AS_HEAD, DerivationRule,
                    Goal, Requirement, RiskProfile, SecurityModel, _refuse,
                    natural_key, validate_model)
from .source import NUMBER, ParseError, column, split_lines


class SrmError(ParseError):
    """A .srm model that does not parse, at its line and column."""


_ID = r"[A-Za-z_][A-Za-z0-9_]*"
# A quoted string: runs of plain characters between escapes, so the engine
# never weighs two alternatives at one character.
_STR = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_INF = float("inf")

# keyword -> (line pattern, expected form named in the malformed-line error).
# The option pattern is text for ``re.match``, which compiles it on first
# use: most models hold no option line.
_LINES = {
    "option": (rf"option\s+({_ID})\s*=\s*({NUMBER})\s*$", ""),
    "goal": (re.compile(rf"goal\s+({_ID})\s+{_STR}\s*$"),
             ', expected: goal <ID> "<description>"'),
    "req": (re.compile(
        rf"req\s+({_ID})\s+{_STR}((?:\s+{_ID}={NUMBER}|\s+{_ID}={_STR})*)\s*$"),
        ', expected: req <ID> "<description>" cost=<num> tech=<num> ...'),
    "rule": (re.compile(rf"rule\s+({_ID})\s*:\s*({_ID})\s*->\s*"
                        rf"({_ID}(?:\s+{_ID})*)\s*@\s*({NUMBER})\s*$"),
             ", expected: rule <ID>: <Goal> -> <ID> ... @ <num>"),
}
_OPTION, _GOAL, _REQ, _RULE = (p for p, _ in _LINES.values())
_ATTR_RE = re.compile(rf"({_ID})=(?:({NUMBER})|{_STR})")
# requirement attribute -> the kind of value it takes
_ATTRS = {"cost": "numeric", "tech": "numeric", "ov": "numeric",
          "metric": "quoted", "connector": "quoted"}


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _quoted(text: str, node_id: str, field: str) -> str:
    """``text`` as a .srm string. The string has no escape for a line
    break, so a text holding LF or CR is refused."""
    if "\n" in text or "\r" in text:
        raise ValueError(f"{node_id}: {field} contains a line break")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _id(node_id: str) -> str:
    """``node_id``, refused unless ``_ID`` matches all of it."""
    if not (node_id.isascii() and node_id.isidentifier()):
        raise ValueError(f"{node_id}: id must match {_ID}")
    return node_id


def _redeclared(lineno: int, raw: str, name: str, first: int) -> SrmError:
    return SrmError(lineno, column(raw),
                    f"{name} already declared on line {first}")


def _line_error(lineno: int, raw: str, line: str) -> SrmError:
    """The error of a line that no pattern matched: its keyword is unknown,
    or the rest of the line is malformed."""
    keyword = line.split(None, 1)[0]
    if keyword not in _LINES:
        return SrmError(lineno, column(raw), f"unknown directive {keyword!r}")
    return SrmError(lineno, column(raw),
                    f"malformed {keyword} line{_LINES[keyword][1]}")


def _attributes(text: str, lineno: int, raw: str, req_id: str,
                cost_scale: float) -> tuple:
    """(cost / cost_scale, tech, metric, connector, ov) of a req line whose
    attributes, after the description, are ``text``; the first thing wrong
    with them is an error, in the order: each attribute's name, repetition,
    kind and number, in turn, then a missing cost or tech, then the cost,
    tech and ov ranges."""
    attrs: dict[str, float | str] = {}
    for name, number, quoted in _ATTR_RE.findall(text):
        kind = _ATTRS.get(name)
        if kind is None:
            raise SrmError(lineno, column(raw), f"unknown attribute {name!r}")
        if name in attrs:
            raise SrmError(lineno, column(raw),
                           f"duplicate attribute {name!r}")
        if (kind == "numeric") != bool(number):
            raise SrmError(lineno, column(raw),
                           f"attribute {name} needs a {kind} value")
        if number:
            value = float(number)
            if value in (_INF, -_INF):
                raise SrmError(lineno, column(raw), "number too large")
            attrs[name] = value
        else:
            attrs[name] = _unescape(quoted)
    for required in ("cost", "tech"):
        if required not in attrs:
            raise SrmError(lineno, column(raw),
                           f"req {req_id} is missing {required}=")
    cost, tech = attrs["cost"] / cost_scale, attrs["tech"]
    if not 0.0 <= cost <= 1.0:
        raise SrmError(lineno, column(raw),
                       f"cost {attrs['cost']} outside [0, {cost_scale:g}]")
    if not 0.0 <= tech <= 1.0:
        raise SrmError(lineno, column(raw), f"tech {tech} outside [0, 1]")
    ov = attrs.get("ov")
    if ov is not None and ov <= 0:
        raise SrmError(lineno, column(raw), "ov must be positive")
    return cost, tech, attrs.get("metric"), attrs.get("connector"), ov


def parse_model(text: str) -> tuple[SecurityModel, RiskProfile]:
    """The model and risk profile of the .srm ``text``; one leading U+FEFF
    (a byte-order mark) is ignored.

    One pass over the lines. A line is matched by the pattern its first two
    characters name, and only a line that matches none is looked at again,
    to name its error.
    """
    lines = split_lines(text.removeprefix("\ufeff"))
    goals: list[Goal] = []
    requirements: list[Requirement] = []
    rules: list[DerivationRule] = []
    cost: dict[str, float] = {}
    tech: dict[str, float] = {}
    declared: dict[str, int] = {}  # goal and requirement id -> its line
    rule_line: dict[str, int] = {}
    cost_scale, scale_line = 1.0, 0  # line 0: cost_scale not set
    new = tuple.__new__

    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        kind = line[:2]
        if kind == "ru" and (m := _RULE.match(line)):
            rule_id, head, body, degree_src = m.groups()
            if rule_id in rule_line:
                raise _redeclared(lineno, raw, f"rule {rule_id}",
                                  rule_line[rule_id])
            rule_line[rule_id] = lineno
            degree = float(degree_src)
            if not 0.0 <= degree <= 1.0:
                raise SrmError(lineno, column(raw),
                               "number too large" if degree in (_INF, -_INF)
                               else f"degree {degree_src} outside [0, 1]")
            rules.append(new(DerivationRule,
                             (rule_id, head, tuple(body.split()), degree)))
        elif kind == "re" and (m := _REQ.match(line)):
            req_id, description, attributes = m.group(1, 2, 3)
            if req_id in declared:
                raise _redeclared(lineno, raw, req_id, declared[req_id])
            declared[req_id] = lineno
            (cost[req_id], tech[req_id], metric, connector,
             ov) = _attributes(attributes, lineno, raw, req_id, cost_scale)
            requirements.append(new(Requirement, (
                req_id, _unescape(description), metric, connector, ov)))
        elif kind == "go" and (m := _GOAL.match(line)):
            goal_id, description = m.groups()
            if goal_id in declared:
                raise _redeclared(lineno, raw, goal_id, declared[goal_id])
            declared[goal_id] = lineno
            goals.append(new(Goal, (goal_id, _unescape(description))))
        elif kind == "op" and (m := re.match(_OPTION, line)):
            col = column(raw)
            # every line before this one that parsed declared an id
            if declared or rules:
                raise SrmError(lineno, col,
                               "options must precede declarations")
            name, value = m.group(1), SrmError.number(m.group(2), lineno, col)
            if name != "cost_scale":
                raise SrmError(lineno, col, f"unknown option {name!r}")
            if scale_line:
                raise SrmError(lineno, col, f"option {name} already set "
                                            f"on line {scale_line}")
            if value <= 0:
                raise SrmError(lineno, col, f"{name} must be positive")
            cost_scale, scale_line = value, lineno
        else:
            raise _line_error(lineno, raw, line)

    if not goals:
        raise SrmError(len(lines) + 1, 1, "no goals declared")
    # references must resolve; report the first offender with its position
    for rule in rules:
        for node in (rule.head, *rule.body):
            if node not in declared:
                at = rule_line[rule.id]
                raise SrmError(at, column(lines[at - 1]),
                               f"rule {rule.id} references undeclared id {node!r}")
    return (SecurityModel(tuple(goals), tuple(requirements), tuple(rules),
                          root=goals[0].id),
            RiskProfile(cost, tech))


def format_number(value: float) -> str:
    """Up to 6 decimal digits, trailing zeros trimmed."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _exact_number(value: float) -> str:
    """``format_number(value)`` where that parses back to ``value``, else
    every digit ``repr`` needs, written out in full: ``NUMBER`` takes no
    exponent."""
    text = format_number(value)
    if float(text) == value:
        return text
    from decimal import Decimal  # seldom needed, and slow to import
    return f"{Decimal(repr(value)):f}"


def serialize_model(model: SecurityModel, risk: RiskProfile) -> str:
    """Canonical form: goals, then requirements, then rules, sorted by id.

    The root goal is emitted first so the round-trip keeps the same root
    (the parser takes the first goal as root), and every number parses
    back to the same float. What ``parse_model`` would reject, or read
    back as another model, raises ``ValueError``. First comes the first
    error ``validate_model`` reports, in its words (``R1: cost 1.5 outside
    [0, 1]``), other than a cycle or a requirement used as rule head, which
    the text keeps. Then each field names the node or rule: an id that
    ``_ID`` does not match, a description, metric or connector holding a
    line break, an ov that is not positive and finite, an empty rule body.
    """
    # A root that is a requirement is a node finding; the parser would
    # take the first goal as root instead.
    nodes = model.graph.findings[0]
    for finding in validate_model(model, risk).errors:
        if finding in nodes or finding.category not in (
                CATEGORY_CYCLE, CATEGORY_REQ_AS_HEAD):
            _refuse(finding)
    lines: list[str] = []
    for goal in model.sorted_goals():
        lines.append(f"goal {_id(goal.id)} "
                     f"{_quoted(goal.description, goal.id, 'description')}")
    for req in model.sorted_requirements():
        parts = [f"req {_id(req.id)} "
                 f"{_quoted(req.description, req.id, 'description')}",
                 f"cost={_exact_number(risk.cost[req.id])}",
                 f"tech={_exact_number(risk.technical_ability[req.id])}"]
        if req.metric is not None:
            parts.append(f"metric={_quoted(req.metric, req.id, 'metric')}")
        if req.connector is not None:
            parts.append(
                f"connector={_quoted(req.connector, req.id, 'connector')}")
        if req.ov is not None:
            if not 0.0 < req.ov < _INF:
                raise ValueError(f"{req.id}: ov must be positive and "
                                 f"finite, got {req.ov!r}")
            parts.append(f"ov={_exact_number(req.ov)}")
        lines.append(" ".join(parts))
    for rule in sorted(model.rules, key=lambda r: natural_key(r.id)):
        if not rule.body:
            raise ValueError(f"{rule.id}: body is empty")
        lines.append(f"rule {_id(rule.id)}: {rule.head} -> "
                     f"{' '.join(rule.body)} @ {_exact_number(rule.degree)}")
    return "\n".join(lines) + "\n"
