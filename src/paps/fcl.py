"""Parser for the .rules fuzzy-rule-base format (a small FCL subset).

Line-oriented:

    // comment (or #)
    VAR_INPUT impact
        RANGE := (0.0 .. 1.0);
        TERM low := (0, 0, 0.25, 0.5);
    END_VAR
    VAR_OUTPUT priority
        ...
    END_VAR
    RULEBLOCK
        RULE 1: IF impact IS high AND cost IS low THEN priority IS strong;
    END_RULEBLOCK

AND-only conjunctions; no OR, NOT, or rule weights.
"""

from __future__ import annotations

import re

from .fuzzy import (FuzzyRule, LinguisticVariable, NoActivationError,
                    RuleBase, TrapezoidMF, VariableConfig)


class FclError(Exception):
    """Rule-base syntax or semantic error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)"
_ID = r"[A-Za-z_][A-Za-z0-9_-]*"

_VAR_RE = re.compile(rf"(VAR_INPUT|VAR_OUTPUT)\s+({_ID})\s*$")
_RANGE_RE = re.compile(rf"RANGE\s*:=\s*\(\s*({_NUM})\s*\.\.\s*({_NUM})\s*\)\s*;\s*$")
_TERM_RE = re.compile(
    rf"TERM\s+({_ID})\s*:=\s*\(\s*({_NUM})\s*,\s*({_NUM})\s*,\s*({_NUM})\s*,"
    rf"\s*({_NUM})\s*\)\s*;\s*$")
_RULE_RE = re.compile(
    rf"RULE\s+({_ID}|\d+)\s*:\s*IF\s+(.+?)\s+THEN\s+({_ID})\s+IS\s+({_ID})\s*;\s*$",
    re.IGNORECASE)
_ATOM_RE = re.compile(rf"^({_ID})\s+IS\s+({_ID})$", re.IGNORECASE)


def _indent(raw: str) -> int:
    return len(raw) - len(raw.lstrip()) + 1


def parse_rulebase(text: str) -> tuple[VariableConfig, RuleBase]:
    inputs: list[LinguisticVariable] = []
    output: LinguisticVariable | None = None

    section: str | None = None      # "input" | "output" | "rules"
    var_name: str | None = None
    var_range: tuple[float, float] | None = None
    var_terms: list[tuple[str, TrapezoidMF]] = []
    term_at: dict[str, tuple[int, int]] = {}   # term -> (line, column)
    rules: list[FuzzyRule] = []
    rule_ids: set[str] = set()
    declared: dict[str, LinguisticVariable] = {}

    def close_var(lineno: int) -> None:
        nonlocal output, var_name, var_range, var_terms, term_at
        assert var_name is not None
        if var_range is None:
            raise FclError(lineno, 1, f"variable {var_name} has no RANGE")
        if not var_terms:
            raise FclError(lineno, 1, f"variable {var_name} has no terms")
        try:
            var = LinguisticVariable(var_name, var_range, tuple(var_terms))
        except ValueError as exc:
            raise FclError(lineno, 1, str(exc)) from exc
        if var.name in declared:
            raise FclError(lineno, 1, f"duplicate variable {var.name}")
        if section == "output" and output is not None:
            raise FclError(lineno, 1, f"second output variable {var.name}; "
                                      f"{output.name} is already the output")
        # Labels and the no-activation fallback read every output term's
        # centroid; a term whose area is 0 (x0 == x3, or rounding) has none.
        if section == "output":
            for term, at in term_at.items():
                try:
                    var.term_centroid(term)
                except NoActivationError:
                    raise FclError(*at, f"output term {var.name}.{term} "
                                        "has zero area") from None
        declared[var.name] = var
        if section == "input":
            inputs.append(var)
        else:
            output = var
        var_name, var_range = None, None
        var_terms, term_at = [], {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].split("#", 1)[0].strip()
        if not line:
            continue
        col = _indent(raw)

        if section in ("input", "output"):
            if line == "END_VAR":
                close_var(lineno)
                section = None
                continue
            m = _RANGE_RE.match(line)
            if m:
                if var_range is not None:
                    raise FclError(lineno, col, "RANGE declared twice")
                var_range = (float(m.group(1)), float(m.group(2)))
                continue
            m = _TERM_RE.match(line)
            if m:
                name = m.group(1)
                if name in term_at:
                    raise FclError(lineno, col,
                                   f"duplicate term {var_name}.{name}")
                try:
                    mf = TrapezoidMF(*(float(m.group(i)) for i in range(2, 6)))
                except ValueError as exc:
                    raise FclError(lineno, col, str(exc)) from exc
                var_terms.append((name, mf))
                term_at[name] = (lineno, col)
                continue
            raise FclError(lineno, col,
                           "expected RANGE, TERM, or END_VAR")

        if section == "rules":
            if line == "END_RULEBLOCK":
                section = None
                continue
            m = _RULE_RE.match(line)
            if not m:
                raise FclError(lineno, col, "expected RULE or END_RULEBLOCK")
            rule_id, antecedent_src, out_var, out_term = m.groups()
            if rule_id in rule_ids:
                raise FclError(lineno, col, f"duplicate rule id {rule_id}")
            rule_ids.add(rule_id)
            atoms: list[tuple[str, str]] = []
            for part in re.split(r"\s+AND\s+", antecedent_src,
                                 flags=re.IGNORECASE):
                am = _ATOM_RE.match(part.strip())
                if not am:
                    raise FclError(lineno, col,
                                   f"malformed condition {part.strip()!r}")
                var, term = am.group(1), am.group(2)
                if var not in declared or declared[var] is output:
                    raise FclError(lineno, col,
                                   f"undeclared input variable {var!r}")
                if term not in declared[var].term_names():
                    raise FclError(lineno, col,
                                   f"undeclared term {var}.{term}")
                atoms.append((var, term))
            if output is None or out_var != output.name:
                raise FclError(lineno, col,
                               f"undeclared output variable {out_var!r}")
            if out_term not in output.term_names():
                raise FclError(lineno, col,
                               f"undeclared term {out_var}.{out_term}")
            rules.append(FuzzyRule(rule_id, tuple(atoms), (out_var, out_term)))
            continue

        m = _VAR_RE.match(line)
        if m:
            section = "input" if m.group(1) == "VAR_INPUT" else "output"
            var_name = m.group(2)
            continue
        if line == "RULEBLOCK":
            if output is None:
                raise FclError(lineno, col,
                               "RULEBLOCK before the output variable")
            section = "rules"
            continue
        raise FclError(lineno, col,
                       "expected VAR_INPUT, VAR_OUTPUT, or RULEBLOCK")

    if section is not None:
        raise FclError(len(text.splitlines()) + 1, 1,
                       f"unterminated {section} block")
    if output is None:
        raise FclError(1, 1, "no output variable declared")
    if not inputs:
        raise FclError(1, 1, "no input variables declared")
    if not rules:
        raise FclError(1, 1, "no rules declared")
    return VariableConfig(tuple(inputs), output), RuleBase(tuple(rules))
