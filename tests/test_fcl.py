import hashlib
import itertools
import random
import re

import pytest

import paps
from generators import NOT_LINE_BREAK_IDS, NOT_LINE_BREAKS
from paps.fcl import FclError, parse_rulebase
from paps.fuzzy import LinguisticVariable
from paps.source import split_lines

SMALL = """\
VAR_INPUT impact
    RANGE := (0.0 .. 1.0);
    TERM low := (0, 0, 0.25, 0.5);
    TERM high := (0.5, 0.75, 1, 1);
END_VAR
VAR_INPUT cost
    RANGE := (0.0 .. 1.0);
    TERM low := (0, 0, 0.25, 0.5);
    TERM high := (0.5, 0.75, 1, 1);
END_VAR
VAR_INPUT tech
    RANGE := (0.0 .. 1.0);
    TERM low := (0, 0, 0.25, 0.5);
    TERM high := (0.5, 0.75, 1, 1);
END_VAR
VAR_OUTPUT priority
    RANGE := (0.0 .. 1.0);
    TERM weak := (0, 0.2, 0.3, 0.5);
    TERM strong := (0.5, 0.7, 1, 1);
END_VAR
RULEBLOCK
    RULE 1: IF impact IS high AND cost IS low AND tech IS high THEN priority IS strong;
END_RULEBLOCK
"""

# the output block and the rule block of SMALL
_OUTPUT = SMALL[SMALL.index("VAR_OUTPUT"):SMALL.index("RULEBLOCK")]
_RULES = SMALL[SMALL.index("RULEBLOCK"):]


def _without(*parts: str) -> str:
    """SMALL with the first occurrence of each part taken out."""
    text = SMALL
    for part in parts:
        text = text.replace(part, "", 1)
    return text


class TestParseRulebase:
    def test_default_rulebase_shape(self):
        config, rulebase = paps.load_default_rulebase()
        assert len(rulebase.rules) == 27
        assert config.input_names() == ["impact", "cost", "tech"]
        assert config.output.term_names() == [
            "optional", "weak", "normal", "strong"]
        # one rule for each (impact, cost, tech) term triple
        names = ("impact", "cost", "tech")
        assert all(len(rule.antecedent) == 3 for rule in rulebase.rules)
        triples = [tuple(dict(rule.antecedent)[n] for n in names)
                   for rule in rulebase.rules]
        assert sorted(triples) == sorted(itertools.product(
            *(config.input(n).term_names() for n in names)))

    def test_single_rule(self):
        config, rulebase = parse_rulebase(SMALL)
        (rule,) = rulebase.rules
        assert rule.antecedent == (("impact", "high"), ("cost", "low"),
                                   ("tech", "high"))
        assert rule.consequent == ("priority", "strong")

    def test_undeclared_term_rejected(self):
        bad = SMALL.replace("cost IS low", "cost IS very_high")
        with pytest.raises(FclError, match="very_high"):
            parse_rulebase(bad)

    def test_undeclared_variable_rejected(self):
        bad = SMALL.replace("IF impact IS", "IF price IS")
        with pytest.raises(FclError, match="price"):
            parse_rulebase(bad)

    def test_duplicate_rule_id_rejected(self):
        bad = SMALL.replace(
            "END_RULEBLOCK",
            "    RULE 1: IF impact IS low AND cost IS low AND tech IS low "
            "THEN priority IS weak;\nEND_RULEBLOCK")
        with pytest.raises(FclError, match="duplicate rule id"):
            parse_rulebase(bad)

    def test_syntax_error_carries_position(self):
        bad = SMALL.replace("RANGE := (0.0 .. 1.0);", "RANGE = 0 1", 1)
        with pytest.raises(FclError) as exc:
            parse_rulebase(bad)
        assert exc.value.line == 2
        assert exc.value.column == 5

    def test_comments_ignored(self):
        config, rulebase = parse_rulebase(
            "// banner\n# another\n" + SMALL)
        assert len(rulebase.rules) == 1

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=NOT_LINE_BREAK_IDS)
    def test_a_comment_does_not_shift_later_lines(self, char):
        # a line ends only at LF, CR or CRLF, as an editor counts lines
        bad = SMALL.replace("RANGE := (0.0 .. 1.0);", "RANGE = 0 1", 1)
        with pytest.raises(FclError) as exc:
            parse_rulebase(f"// banner{char}more\n" + bad)
        assert (exc.value.line, exc.value.column) == (3, 5)
        with pytest.raises(FclError) as exc:
            parse_rulebase(f"VAR_INPUT impact\n  // a{char}b\n")
        assert (exc.value.line, exc.value.column) == (3, 1)
        assert exc.value.message == "unterminated input block"

    def test_malformed_term_breakpoints_rejected(self):
        bad = SMALL.replace("TERM weak := (0, 0.2, 0.3, 0.5);",
                            "TERM weak := (0.5, 0.2, 0.3, 0.5);")
        with pytest.raises(FclError, match="ordered"):
            parse_rulebase(bad)

    @pytest.mark.parametrize("old,new,where,message", [
        ("TERM high := (0.5, 0.75, 1, 1);", "TERM high := (0.5, 0.75, 1, 1.5);",
         "TERM high", "term impact.high lies outside the universe"),
        ("RANGE := (0.0 .. 1.0);", "RANGE := (0.1 .. 1.0);",
         "TERM low", "term impact.low lies outside the universe"),
        ("RANGE := (0.0 .. 1.0);", "RANGE := (1.0 .. 0.0);",
         "RANGE", "empty universe for impact"),
        ("RANGE := (0.0 .. 1.0);", "RANGE := (0.0 .. 1" + "0" * 400 + ");",
         "RANGE", "number too large"),
        ("RANGE := (0.0 .. 1.0);", "RANGE := (\u0660 .. \u0661);",
         "RANGE", "expected RANGE, TERM, or END_VAR"),
    ], ids=["term-above-range", "term-below-range", "empty-range",
            "infinite-range", "non-ascii-digit-range"])
    def test_universe_errors_at_the_offending_line(self, old, new, where,
                                                   message):
        text = paps.default_rules_text().replace(old, new, 1)
        line = next(n for n, raw in enumerate(text.splitlines(), start=1)
                    if raw.strip().startswith(where))
        with pytest.raises(FclError) as exc:
            parse_rulebase(text)
        assert (exc.value.line, exc.value.column) == (line, 5)
        assert exc.value.message == message

    @pytest.mark.parametrize("text,line,column,message", [
        (SMALL.replace("    TERM low", "    RANGE := (0.0 .. 1.0);\n"
                       "    TERM low", 1), 3, 5, "RANGE declared twice"),
        (SMALL.replace("TERM high", "TERM low", 1), 4, 5,
         "duplicate term impact.low"),
        (_without("    RANGE := (0.0 .. 1.0);\n"), 4, 1,
         "variable impact has no RANGE"),
        (_without("    TERM low := (0, 0, 0.25, 0.5);\n"
                  "    TERM high := (0.5, 0.75, 1, 1);\n"), 3, 1,
         "variable impact has no terms"),
        (SMALL.replace("VAR_INPUT cost", "VAR_INPUT impact"), 10, 1,
         "duplicate variable impact"),
        (SMALL.replace("THEN priority", "THEN urgency"), 22, 5,
         "undeclared output variable 'urgency'"),
        (SMALL.replace("IS strong;", "IS urgent;"), 22, 5,
         "undeclared term priority.urgent"),
        ("  BOGUS\n" + SMALL, 1, 3,
         "expected VAR_INPUT, VAR_OUTPUT, or RULEBLOCK"),
        (_without(_OUTPUT), 16, 1, "RULEBLOCK before the output variable"),
        (_without("END_RULEBLOCK\n"), 23, 1, "unterminated rules block"),
        (_without(_OUTPUT, _RULES), 1, 1, "no output variable declared"),
        (_OUTPUT + "RULEBLOCK\nEND_RULEBLOCK\n", 1, 1,
         "no input variables declared"),
        (_without(_RULES) + "RULEBLOCK\nEND_RULEBLOCK\n", 1, 1,
         "no rules declared"),
    ], ids=["range-twice", "duplicate-term", "no-range", "no-terms",
            "duplicate-variable", "undeclared-output-variable",
            "undeclared-output-term", "stray-line", "rules-before-output",
            "unterminated-rules", "no-output", "no-inputs", "no-rules"])
    def test_refusals_at_their_position(self, text, line, column, message):
        with pytest.raises(FclError) as exc:
            parse_rulebase(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (
            line, column, message)

    def test_second_output_variable_rejected_at_its_end_var(self):
        urgency = ("VAR_OUTPUT urgency\n    RANGE := (0.0 .. 1.0);\n"
                   "    TERM soon := (0, 0, 0.5, 1);\nEND_VAR\n")
        bad = SMALL.replace("VAR_OUTPUT priority", urgency + "VAR_OUTPUT priority")
        end_var = [n for n, line in enumerate(bad.splitlines(), start=1)
                   if line == "END_VAR"][-1]
        with pytest.raises(FclError, match="second output variable priority; "
                                           "urgency is already the output") as exc:
            parse_rulebase(bad)
        assert (exc.value.line, exc.value.column) == (end_var, 1)

    def test_zero_area_output_term_rejected_at_its_term_line(self):
        for breakpoints in ("(0.2, 0.2, 0.2, 0.2)",
                            # x0 < x3, but a width of 5e-324 has no area
                            "(0, 0, 0, 0." + "0" * 323 + "5)"):
            term = f"    TERM weak := {breakpoints};"
            bad = SMALL.replace("    TERM weak := (0, 0.2, 0.3, 0.5);", term)
            line = bad.splitlines().index(term)
            with pytest.raises(FclError, match="output term priority.weak "
                                               "has zero area") as exc:
                parse_rulebase(bad)
            assert (exc.value.line, exc.value.column) == (line + 1, 5)

    def test_each_output_centroid_is_computed_once(self, monkeypatch):
        calls = []
        centroid = LinguisticVariable.term_centroid

        def counting(var, term):
            calls.append((var.name, term))
            return centroid(var, term)

        monkeypatch.setattr(LinguisticVariable, "term_centroid", counting)
        config, _ = parse_rulebase(paps.default_rules_text())
        assert sorted(calls) == sorted(
            (config.output.name, term) for term in config.output.term_names())

    def test_least_normal_width_output_term_accepted(self):
        # Width 2.2250738585072014e-308: its area is subnormal, not 0.
        config, _ = parse_rulebase(SMALL.replace(
            "TERM weak := (0, 0.2, 0.3, 0.5);",
            "TERM weak := (0, 0, 0, 0." + "0" * 307 + "22250738585072014);"))
        weak = config.output.term("weak")
        assert weak.x3 == 2.2250738585072014e-308
        assert 0.0 <= config.output.term_centroid("weak") <= weak.x3

    def test_zero_area_input_term_accepted(self):
        config, _ = parse_rulebase(SMALL.replace(
            "    TERM high := (0.5, 0.75, 1, 1);",
            "    TERM high := (1, 1, 1, 1);", 1))
        assert config.input("impact").term("high").x0 == 1.0

    def test_rule_keywords_ignore_case(self):
        lower = SMALL.replace(
            "RULE 1: IF impact IS high AND cost IS low AND tech IS high "
            "THEN priority IS strong;",
            "rule 1: if impact is high and cost Is low AnD tech iS high "
            "then priority is strong;")
        assert parse_rulebase(lower) == parse_rulebase(SMALL)

    # Identifiers are ASCII: a letter that only case-folds into [A-Za-z]
    # (the long s, the Kelvin sign, the dotless i) or a non-ASCII digit
    # does not make one.
    @pytest.mark.parametrize("old,new,message", [
        ("RULE 1:", "RULE ſ:", "expected RULE or END_RULEBLOCK"),
        ("RULE 1:", "RULE K1:", "expected RULE or END_RULEBLOCK"),
        ("RULE 1:", "RULE ١:", "expected RULE or END_RULEBLOCK"),
        ("IF impact IS", "IF ımpact IS",
         "malformed condition 'ımpact IS high'"),
        ("THEN priority", "THEN prİority",
         "expected RULE or END_RULEBLOCK"),
    ], ids=["long-s-rule-id", "kelvin-rule-id", "arabic-indic-rule-id",
            "dotless-i-input", "dotted-capital-i-output"])
    def test_non_ascii_identifier_on_a_rule_line_rejected(self, old, new,
                                                          message):
        bad = SMALL.replace(old, new, 1)
        line = next(n for n, raw in enumerate(bad.splitlines(), start=1)
                    if raw.startswith("    RULE "))
        with pytest.raises(FclError) as exc:
            parse_rulebase(bad)
        assert (exc.value.line, exc.value.column) == (line, 5)
        assert exc.value.message == message

    def test_patterns_are_not_compiled_at_import(self):
        # The line patterns stay text until a rule base is parsed, so the
        # commands that parse no rules never compile them.
        assert not [name for name, value in vars(paps.fcl).items()
                    if isinstance(value, re.Pattern)]


# Broken rule bases: whatever the damage, the parser fails only with an
# FclError placed on a line of the text, or just past its last line.
_RULES_INSERTS = ["nan", "inf", "1e999", "-0", "0x1", "1_0", "\0", "\u00a0",
                  "\u00e9", '"', "\\", "\r", "\n", ";", ":=", "(", ")", "..",
                  ",", "//", "#", "VAR_INPUT ", "VAR_OUTPUT ", "END_VAR",
                  "RULEBLOCK", "END_RULEBLOCK", "RANGE", "TERM ", "RULE ",
                  " IF ", " IS ", " AND ", " THEN "]


def _mutate_rules(rng, text: str) -> str:
    kind = rng.randrange(5)
    i = rng.randrange(len(text))
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + text[i + rng.randint(2, 30):]
    if kind == 2:
        return text[:i] + rng.choice(_RULES_INSERTS) + text[i:]
    lines = text.split("\n")
    j = rng.randrange(len(lines))
    if kind == 3:
        lines.insert(rng.randrange(len(lines) + 1), lines[j])
    else:
        run = lines[j:j + rng.randint(2, 8)]
        rng.shuffle(run)
        lines[j:j + len(run)] = run
    return "\n".join(lines)


# The outcome of every mutant, recorded with the parser at the time the
# digest was added: a later parser must fail at the same places with the
# same words, and read the rest to the same records.
RULES_MUTANT_DIGEST = (
    "04fcf3691c5a568433953d50c3564bb79109dc5e8835e28d32102a455fb0145a")


def test_mutants_fail_only_with_a_positioned_error():
    rng = random.Random(20261020)
    failed = 0
    # Each outcome: the records (repr keeps a float's every digit and the
    # sign of -0.0), or the error's line, column and message.
    outcomes = []
    for base, count in ((SMALL, 1500), (paps.default_rules_text(), 300)):
        for _ in range(count):
            text = base
            for _ in range(rng.choice((1, 1, 2, 3))):
                text = _mutate_rules(rng, text)
            try:
                outcomes.append(repr(parse_rulebase(text)))
            except FclError as exc:
                failed += 1
                lines = split_lines(text)
                assert 1 <= exc.line <= len(lines) + 1, (text, exc)
                width = (len(lines[exc.line - 1]) if exc.line <= len(lines)
                         else 0)
                assert 1 <= exc.column <= width + 1, (text, exc)
                outcomes.append(f"error {exc.line} {exc.column} {exc.message}")
    assert failed > 1000  # most of the 1 800 mutants are broken
    digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    assert digest == RULES_MUTANT_DIGEST
