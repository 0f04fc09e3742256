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

AND-only conjunctions; no OR, NOT, or rule weights. The inputs must be
exactly impact, cost and tech, and the output's RANGE must lie inside
[0, 1]; the parser reports a breach at its VAR_INPUT or RANGE line.

The line patterns compile on first use, when a command first parses a
rule base, not when the module is imported.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping

from .fuzzy import (FuzzyRule, LinguisticVariable, NoActivationError,
                    RuleBase, TrapezoidMF, VariableConfig)
from .source import NUMBER, ParseError, nonblank_lines, split_lines


class FclError(ParseError):
    """Rule-base syntax or semantic error with a 1-based source position."""


_ID = r"[A-Za-z_][A-Za-z0-9_-]*"

# Pattern texts for ``re.match``, which compiles each one on first use.
_VAR = rf"(VAR_INPUT|VAR_OUTPUT)\s+({_ID})\s*$"
_RANGE = rf"RANGE\s*:=\s*\(\s*({NUMBER})\s*\.\.\s*({NUMBER})\s*\)\s*;\s*$"
_TERM = (rf"TERM\s+({_ID})\s*:=\s*\(\s*({NUMBER})\s*,\s*({NUMBER})\s*,"
         rf"\s*({NUMBER})\s*,\s*({NUMBER})\s*\)\s*;\s*$")
# Only the keywords ignore case: under a whole-pattern IGNORECASE the ASCII
# class of _ID would also match non-ASCII letters that case-fold into it
# (the long s, the dotless i, the Kelvin sign).
_RULE = (rf"(?i:RULE)\s+({_ID}|[0-9]+)\s*:\s*(?i:IF)\s+(.+?)\s+(?i:THEN)\s+"
         rf"({_ID})\s+(?i:IS)\s+({_ID})\s*;\s*$")
_ATOM = rf"^({_ID})\s+(?i:IS)\s+({_ID})$"


INPUT_NAMES = ("impact", "cost", "tech")


def check_inputs(config: VariableConfig) -> None:
    """The inputs must be exactly impact, cost and tech, the output's RANGE
    inside [0, 1] and none of its terms of zero area; an error is placed at
    line 1, column 1."""
    _check_variables(config, {})
    _check_areas(config.output, {})


def _check_variables(config: VariableConfig,
                     at: Mapping[str, tuple[int, int]]) -> None:
    """``check_inputs``' names and range checks, placed at ``at[name]``."""
    names = config.input_names()
    if sorted(names) != sorted(INPUT_NAMES):
        odd = next((n for n in names if n not in INPUT_NAMES), None)
        raise FclError(*at.get(odd, (1, 1)),
                       "input variables must be impact, cost and tech, "
                       f"got {', '.join(names)}")
    lo, hi = config.output.universe
    if not (0.0 <= lo and hi <= 1.0):
        raise FclError(*at.get(config.output.name, (1, 1)),
                       f"output variable {config.output.name} has "
                       f"RANGE ({lo} .. {hi}), not inside [0, 1]")


def _check_areas(output: LinguisticVariable,
                 at: Mapping[str, tuple[int, int]]) -> None:
    """Refuse, at ``at[term]``, the first term whose area is 0 (x0 == x3, or
    rounding): labels and the no-activation fallback read its centroid."""
    for term, _ in output.terms:
        try:
            output.term_centroid(term)
        except NoActivationError:
            raise FclError(*at.get(term, (1, 1)), f"output term "
                           f"{output.name}.{term} has zero area") from None


def _read_var(kind: str, name: str, lines: Iterator[tuple[int, int, str]],
              eof: int, inputs: Mapping[str, LinguisticVariable],
              output: LinguisticVariable | None
              ) -> tuple[LinguisticVariable, tuple[int, int]]:
    """Variable ``name`` up to its END_VAR, and the position of its RANGE."""
    var_range: tuple[float, float] | None = None
    terms: list[tuple[str, TrapezoidMF]] = []
    term_at: dict[str, tuple[int, int]] = {}
    for lineno, col, line in lines:
        if line == "END_VAR":
            break
        m = re.match(_RANGE, line)
        if m:
            if var_range is not None:
                raise FclError(lineno, col, "RANGE declared twice")
            var_range = tuple(FclError.number(x, lineno, col)
                              for x in m.groups())
            range_at = (lineno, col)
            continue
        m = re.match(_TERM, line)
        if not m:
            raise FclError(lineno, col, "expected RANGE, TERM, or END_VAR")
        term = m.group(1)
        if term in term_at:
            raise FclError(lineno, col, f"duplicate term {name}.{term}")
        try:
            mf = TrapezoidMF(*(FclError.number(x, lineno, col)
                               for x in m.groups()[1:]))
        except ValueError as exc:
            raise FclError(lineno, col, str(exc)) from exc
        terms.append((term, mf))
        term_at[term] = (lineno, col)
    else:
        raise FclError(eof, 1, f"unterminated {kind} block")
    if var_range is None:
        raise FclError(lineno, 1, f"variable {name} has no RANGE")
    if not terms:
        raise FclError(lineno, 1, f"variable {name} has no terms")
    lo, hi = var_range
    if not lo < hi:
        raise FclError(*range_at, f"empty universe for {name}")
    for term, mf in terms:
        if mf.x0 < lo or mf.x3 > hi:
            raise FclError(*term_at[term],
                           f"term {name}.{term} lies outside the universe")
    var = LinguisticVariable(name, var_range, tuple(terms))
    if name in inputs or (output is not None and name == output.name):
        raise FclError(lineno, 1, f"duplicate variable {name}")
    if kind == "output":
        if output is not None:
            raise FclError(lineno, 1, f"second output variable {name}; "
                                      f"{output.name} is already the output")
        _check_areas(var, term_at)
    return var, range_at


def _read_rule(lineno: int, col: int, line: str,
               inputs: Mapping[str, LinguisticVariable],
               output: LinguisticVariable,
               rules: Mapping[str, FuzzyRule]) -> FuzzyRule:
    """The rule on a RULEBLOCK line; ``rules`` are those read before it."""
    m = re.match(_RULE, line)
    if not m:
        raise FclError(lineno, col, "expected RULE or END_RULEBLOCK")
    rule_id, antecedent_src, out_var, out_term = m.groups()
    if rule_id in rules:
        raise FclError(lineno, col, f"duplicate rule id {rule_id}")
    atoms: list[tuple[str, str]] = []
    for part in re.split(r"\s+AND\s+", antecedent_src, flags=re.IGNORECASE):
        am = re.match(_ATOM, part.strip())
        if not am:
            raise FclError(lineno, col, f"malformed condition {part.strip()!r}")
        var, term = am.group(1), am.group(2)
        if var not in inputs:
            raise FclError(lineno, col, f"undeclared input variable {var!r}")
        if term not in inputs[var].term_names():
            raise FclError(lineno, col, f"undeclared term {var}.{term}")
        atoms.append((var, term))
    if out_var != output.name:
        raise FclError(lineno, col, f"undeclared output variable {out_var!r}")
    if out_term not in output.term_names():
        raise FclError(lineno, col, f"undeclared term {out_var}.{out_term}")
    return FuzzyRule(rule_id, tuple(atoms), (out_var, out_term))


def parse_rulebase(text: str) -> tuple[VariableConfig, RuleBase]:
    """The configuration and rules of the .rules ``text``; one leading
    U+FEFF (a byte-order mark) is ignored."""
    raw = split_lines(text.removeprefix("\ufeff"))
    eof = len(raw) + 1
    # (line, column, text) of each line that is more than a comment; the
    # block readers take their lines from this same iterator
    lines = ((lineno, col, code) for lineno, col, line in nonblank_lines(raw)
             if (code := line.split("//", 1)[0].split("#", 1)[0].rstrip()))
    inputs: dict[str, LinguisticVariable] = {}
    output: LinguisticVariable | None = None
    at: dict[str, tuple[int, int]] = {}  # for _check_variables
    rules: dict[str, FuzzyRule] = {}  # by id
    for lineno, col, line in lines:
        m = re.match(_VAR, line)
        if m:
            kind = "input" if m.group(1) == "VAR_INPUT" else "output"
            var, range_at = _read_var(kind, m.group(2), lines, eof, inputs,
                                      output)
            at[var.name] = (lineno, col) if kind == "input" else range_at
            if kind == "input":
                inputs[var.name] = var
            else:
                output = var
        elif line != "RULEBLOCK":
            raise FclError(lineno, col,
                           "expected VAR_INPUT, VAR_OUTPUT, or RULEBLOCK")
        elif output is None:
            raise FclError(lineno, col, "RULEBLOCK before the output variable")
        else:
            for lineno, col, line in lines:
                if line == "END_RULEBLOCK":
                    break
                rule = _read_rule(lineno, col, line, inputs, output, rules)
                rules[rule.id] = rule
            else:
                raise FclError(eof, 1, "unterminated rules block")
    if output is None:
        raise FclError(1, 1, "no output variable declared")
    if not inputs:
        raise FclError(1, 1, "no input variables declared")
    if not rules:
        raise FclError(1, 1, "no rules declared")
    config = VariableConfig(tuple(inputs.values()), output)
    _check_variables(config, at)  # _read_var checked the output's areas
    return config, RuleBase(tuple(rules.values()))
