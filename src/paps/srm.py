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
from .source import NUMBER, ParseError, nonblank_lines, split_lines


class SrmError(ParseError):
    """A .srm model that does not parse, at its line and column."""


_ID = r"[A-Za-z_][A-Za-z0-9_]*"
# A quoted string: runs of plain characters between escapes, so the engine
# never weighs two alternatives at one character.
_STR = r'"([^"\\]*(?:\\.[^"\\]*)*)"'

# keyword -> (line pattern, expected form named in the malformed-line error)
_LINES = {
    "option": (re.compile(rf"option\s+({_ID})\s*=\s*({NUMBER})\s*$"), ""),
    "goal": (re.compile(rf"goal\s+({_ID})\s+{_STR}\s*$"),
             ', expected: goal <ID> "<description>"'),
    "req": (re.compile(
        rf"req\s+({_ID})\s+{_STR}((?:\s+{_ID}={NUMBER}|\s+{_ID}={_STR})*)\s*$"),
        ', expected: req <ID> "<description>" cost=<num> tech=<num> ...'),
    "rule": (re.compile(rf"rule\s+({_ID})\s*:\s*({_ID})\s*->\s*"
                        rf"({_ID}(?:\s+{_ID})*)\s*@\s*({NUMBER})\s*$"),
             ", expected: rule <ID>: <Goal> -> <ID> ... @ <num>"),
}
_ATTR_RE = re.compile(rf"({_ID})=(?:({NUMBER})|{_STR})")
# requirement attribute -> the kind of value it takes
_ATTRS = {"cost": "numeric", "tech": "numeric", "ov": "numeric",
          "metric": "quoted", "connector": "quoted"}


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _declare(seen: dict[str, tuple[int, int]], key: str, name: str,
             line: int, col: int) -> None:
    """Record ``key`` at (line, col), or fail, calling it ``name``, if
    ``seen`` already has it."""
    if key in seen:
        raise SrmError(line, col,
                       f"{name} already declared on line {seen[key][0]}")
    seen[key] = (line, col)


def parse_model(text: str) -> tuple[SecurityModel, RiskProfile]:
    goals: list[Goal] = []
    requirements: list[Requirement] = []
    rules: list[DerivationRule] = []
    cost: dict[str, float] = {}
    tech: dict[str, float] = {}
    declared: dict[str, tuple[int, int]] = {}  # goal and requirement ids
    rule_at: dict[str, tuple[int, int]] = {}
    cost_scale, scale_line = 1.0, 0  # line 0: cost_scale not set

    for lineno, col, line in nonblank_lines(text):
        if line.startswith("#"):
            continue
        keyword = line.split(None, 1)[0]
        if keyword not in _LINES:
            raise SrmError(lineno, col, f"unknown directive {keyword!r}")
        pattern, expected = _LINES[keyword]
        m = pattern.match(line)
        if not m:
            raise SrmError(lineno, col, f"malformed {keyword} line{expected}")

        if keyword == "option":
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
        elif keyword == "goal":
            _declare(declared, m.group(1), m.group(1), lineno, col)
            goals.append(Goal(m.group(1), _unescape(m.group(2))))
        elif keyword == "req":
            req_id = m.group(1)
            _declare(declared, req_id, req_id, lineno, col)
            attrs: dict[str, float | str] = {}
            for name, number, quoted in _ATTR_RE.findall(m.group(3)):
                if name not in _ATTRS:
                    raise SrmError(lineno, col, f"unknown attribute {name!r}")
                if name in attrs:
                    raise SrmError(lineno, col, f"duplicate attribute {name!r}")
                if (_ATTRS[name] == "numeric") != bool(number):
                    raise SrmError(lineno, col, f"attribute {name} needs a "
                                                f"{_ATTRS[name]} value")
                attrs[name] = (SrmError.number(number, lineno, col) if number
                               else _unescape(quoted))
            for required in ("cost", "tech"):
                if required not in attrs:
                    raise SrmError(lineno, col,
                                   f"req {req_id} is missing {required}=")
            cost[req_id] = attrs["cost"] / cost_scale
            if not 0.0 <= cost[req_id] <= 1.0:
                raise SrmError(lineno, col,
                               f"cost {attrs['cost']} outside [0, {cost_scale:g}]")
            tech[req_id] = attrs["tech"]
            if not 0.0 <= tech[req_id] <= 1.0:
                raise SrmError(lineno, col, f"tech {tech[req_id]} outside [0, 1]")
            if attrs.get("ov", 1.0) <= 0:
                raise SrmError(lineno, col, "ov must be positive")
            requirements.append(Requirement(
                req_id, _unescape(m.group(2)), metric=attrs.get("metric"),
                connector=attrs.get("connector"), ov=attrs.get("ov")))
        else:
            rule_id, head, body, degree_src = m.groups()
            _declare(rule_at, rule_id, f"rule {rule_id}", lineno, col)
            degree = SrmError.number(degree_src, lineno, col)
            if not 0.0 <= degree <= 1.0:
                raise SrmError(lineno, col, f"degree {degree_src} outside [0, 1]")
            rules.append(DerivationRule(rule_id, head, tuple(body.split()),
                                        degree))

    if not goals:
        raise SrmError(len(split_lines(text)) + 1, 1, "no goals declared")
    # references must resolve; report the first offender with its position
    for rule in rules:
        for node in (rule.head, *rule.body):
            if node not in declared:
                raise SrmError(*rule_at[rule.id],
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
    back to the same float.
    """
    lines: list[str] = []
    for goal in model.sorted_goals():
        lines.append(f'goal {goal.id} "{_escape(goal.description)}"')
    for req in model.sorted_requirements():
        parts = [f'req {req.id} "{_escape(req.description)}"',
                 f"cost={_exact_number(risk.cost[req.id])}",
                 f"tech={_exact_number(risk.technical_ability[req.id])}"]
        if req.metric is not None:
            parts.append(f'metric="{_escape(req.metric)}"')
        if req.connector is not None:
            parts.append(f'connector="{_escape(req.connector)}"')
        if req.ov is not None:
            parts.append(f"ov={_exact_number(req.ov)}")
        lines.append(" ".join(parts))
    for rule in sorted(model.rules, key=lambda r: natural_key(r.id)):
        lines.append(f"rule {rule.id}: {rule.head} -> "
                     f"{' '.join(rule.body)} @ {_exact_number(rule.degree)}")
    return "\n".join(lines) + "\n"
