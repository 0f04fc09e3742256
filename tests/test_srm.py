import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import paps
from generators import NOT_LINE_BREAKS, bench_gen, random_valid_model
from paps.source import NUMBER, split_lines
from paps import srm
from paps.model import (DerivationRule, Goal, Requirement, RiskProfile,
                        SecurityModel, validate_model)
from paps.pipeline import prioritize, report_csv
from paps.relax import relax_srl, relax_text
from paps.srm import SrmError, format_number, parse_model, serialize_model

MINIMAL = (
    'goal S "root"\n'
    'req R1 "x" cost=0.1 tech=1.0\n'
    'rule P1: S -> R1 @ 0.7\n'
)
GOAL = 'goal S "root"\n'
REQ = 'req R1 "x" cost=0.1 tech=1.0\n'


class TestParse:
    def test_obs_fixture_counts(self, obs):
        model, risk = obs
        assert len(model.goals) == 14
        assert len(model.requirements) == 12
        assert len(model.rules) == 20
        assert model.root == "S"
        assert len(risk.cost) == len(risk.technical_ability) == 12

    def test_minimal_model(self):
        model, risk = parse_model(MINIMAL)
        assert [g.id for g in model.goals] == ["S"]
        assert [r.id for r in model.requirements] == ["R1"]
        assert len(model.rules) == 1
        assert model.rules[0].degree == 0.7
        assert risk.cost == {"R1": 0.1}

    def test_degree_out_of_range_is_semantic_error(self):
        text = ('goal S "root"\ngoal G1 "g"\ngoal G13 "g"\n'
                "rule P1: S -> G1 G13 @ 1.2\n")
        with pytest.raises(SrmError) as exc:
            parse_model(text)
        assert exc.value.line == 4
        assert "1.2" in str(exc.value)

    def test_duplicate_id_rejected(self):
        with pytest.raises(SrmError, match="already declared"):
            parse_model('goal S "a"\ngoal S "b"\n')

    def test_undeclared_reference_rejected(self):
        with pytest.raises(SrmError, match="undeclared"):
            parse_model('goal S "a"\nrule P1: S -> R9 @ 0.5\n')

    def test_unknown_directive_rejected(self):
        with pytest.raises(SrmError, match="unknown directive"):
            parse_model('goal S "a"\nfoo bar\n')

    def test_error_positions_are_one_based(self):
        with pytest.raises(SrmError) as exc:
            parse_model('goal S "a"\n   goal ???\n')
        assert exc.value.line == 2
        assert exc.value.column == 4

    def test_cost_scale_header(self):
        text = ("option cost_scale = 100\n"
                'goal S "root"\n'
                'req R1 "x" cost=50 tech=1.0\n'
                "rule P1: S -> R1 @ 0.7\n")
        _, risk = parse_model(text)
        assert risk.cost["R1"] == pytest.approx(0.5)

    def test_cost_scale_set_twice_rejected(self):
        text = ("option cost_scale = 100\n"
                "# a second scale would silently win\n"
                "  option cost_scale = 10\n" + MINIMAL)
        with pytest.raises(SrmError) as exc:
            parse_model(text)
        assert (exc.value.line, exc.value.column) == (3, 3)
        assert exc.value.message == "option cost_scale already set on line 1"

    def test_crlf_accepted(self):
        model, _ = parse_model(MINIMAL.replace("\n", "\r\n"))
        assert len(model.rules) == 1

    @pytest.mark.parametrize("text,line,column,message", [
        pytest.param(
            "  option cost_scale 100\n" + GOAL, 1, 3, "malformed option line",
            id="malformed-option"),
        pytest.param(
            "  goal S\n", 1, 3,
            'malformed goal line, expected: goal <ID> "<description>"',
            id="malformed-goal"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=high\n', 2, 3,
            'malformed req line, expected: req <ID> "<description>" '
            "cost=<num> tech=<num> ...",
            id="malformed-req"),
        pytest.param(
            GOAL + "  rule P1 S -> R1 @ 0.5\n", 2, 3,
            "malformed rule line, expected: rule <ID>: <Goal> -> <ID> ... @ <num>",
            id="malformed-rule"),
        pytest.param(
            "  option colour = 1\n" + GOAL, 1, 3, "unknown option 'colour'",
            id="unknown-option"),
        pytest.param(
            GOAL + "  option cost_scale = 100\n", 2, 3,
            "options must precede declarations", id="late-option"),
        pytest.param(
            "  option cost_scale = 0\n" + GOAL, 1, 3,
            "cost_scale must be positive", id="zero-option"),
        pytest.param(
            "  option cost_scale = -2\n" + GOAL, 1, 3,
            "cost_scale must be positive", id="negative-option"),
        pytest.param(
            "option cost_scale = 100\n  option cost_scale = 10\n" + GOAL, 2, 3,
            "option cost_scale already set on line 1", id="repeated-option"),
        pytest.param(
            GOAL + '  goal S "again"\n', 2, 3, "S already declared on line 1",
            id="duplicate-goal"),
        pytest.param(
            GOAL + REQ + '  req R1 "again" cost=0.1 tech=1.0\n', 3, 3,
            "R1 already declared on line 2", id="duplicate-req"),
        pytest.param(
            GOAL + '  req S "x" cost=0.1 tech=1.0\n', 2, 3,
            "S already declared on line 1", id="req-reuses-goal-id"),
        pytest.param(
            GOAL + REQ + "rule P1: S -> R1 @ 0.5\n  rule P1: S -> R1 @ 0.6\n",
            4, 3, "rule P1 already declared on line 3", id="duplicate-rule"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=1.0 colour=1\n', 2, 3,
            "unknown attribute 'colour'", id="unknown-attribute"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=1.0 cost=0.2\n', 2, 3,
            "duplicate attribute 'cost'", id="repeated-attribute"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=1.0 metric=5\n', 2, 3,
            "attribute metric needs a quoted value", id="numeric-metric"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=1.0 connector=1\n', 2, 3,
            "attribute connector needs a quoted value", id="numeric-connector"),
        pytest.param(
            GOAL + '  req R1 "x" cost="cheap" tech=1.0\n', 2, 3,
            "attribute cost needs a numeric value", id="quoted-cost"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=1.0 ov="9"\n', 2, 3,
            "attribute ov needs a numeric value", id="quoted-ov"),
        pytest.param(
            GOAL + '  req R1 "x" tech=1.0\n', 2, 3, "req R1 is missing cost=",
            id="missing-cost"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1\n', 2, 3, "req R1 is missing tech=",
            id="missing-tech"),
        pytest.param(
            GOAL + '  req R1 "x" cost=1.5 tech=1.0\n', 2, 3,
            "cost 1.5 outside [0, 1]", id="cost-out-of-range"),
        pytest.param(
            "option cost_scale = 100\n" + GOAL
            + '  req R1 "x" cost=150 tech=1.0\n', 3, 3,
            "cost 150.0 outside [0, 100]", id="scaled-cost-out-of-range"),
        pytest.param(
            "option cost_scale = 2.5\n" + GOAL + '  req R1 "x" cost=3 tech=1.0\n',
            3, 3, "cost 3.0 outside [0, 2.5]", id="fractional-scale"),
        pytest.param(
            GOAL + '  req R1 "x" cost=-0 tech=2\n', 2, 3,
            "tech 2.0 outside [0, 1]", id="tech-out-of-range"),
        pytest.param(
            "option cost_scale = 100\n" + GOAL
            + '  req R1 "x" cost=50 tech=1.5\n', 3, 3,
            "tech 1.5 outside [0, 1]", id="scaled-tech-out-of-range"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=1.0 ov=0\n', 2, 3,
            "ov must be positive", id="zero-ov"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=1.0 ov=-3\n', 2, 3,
            "ov must be positive", id="negative-ov"),
        pytest.param(
            "option cost_scale = " + "9" * 400 + "\n" + GOAL
            + '  req R1 "x" cost=12345 tech=1.0\n', 1, 1,
            "number too large", id="infinite-cost-scale"),
        pytest.param(
            GOAL + '  req R1 "x" cost=0.1 tech=1.0 ov=' + "1" * 400 + "\n",
            2, 3, "number too large", id="infinite-ov"),
        pytest.param(
            GOAL + REQ + "  rule P1: S -> R1 @ 1.2\n", 3, 3,
            "degree 1.2 outside [0, 1]", id="degree-above-one"),
        pytest.param(
            GOAL + REQ + "  rule P1: S -> R1 @ -.5\n", 3, 3,
            "degree -.5 outside [0, 1]", id="degree-below-zero"),
        pytest.param(
            GOAL + "  foo bar\n", 2, 3, "unknown directive 'foo'",
            id="unknown-directive"),
        pytest.param(
            GOAL + '  goal"S"\n', 2, 3, "unknown directive 'goal\"S\"'",
            id="keyword-without-space"),
        pytest.param("# only a comment\n\n", 3, 1, "no goals declared",
                     id="no-goals"),
        # a line ends only at LF, CR or CRLF
        pytest.param(
            "# a\u2028with a line separator\n" + GOAL + "  foo bar\n", 3, 3,
            "unknown directive 'foo'", id="line-separator-in-a-comment"),
        pytest.param(
            GOAL + 'req R1 "a\fb" cost=0.1 tech=1\n  foo bar\n', 3, 3,
            "unknown directive 'foo'", id="form-feed-in-a-description"),
        pytest.param("# a\u2029b\x85c\v\n\n", 3, 1, "no goals declared",
                     id="no-goals-after-separators"),
        pytest.param("", 1, 1, "no goals declared", id="empty"),
        pytest.param(
            GOAL + "rule P1: G2 -> S @ 0.5\n", 2, 1,
            "rule P1 references undeclared id 'G2'", id="undeclared-head"),
        pytest.param(
            GOAL + "  rule P1: S -> R9 @ 0.5\n", 2, 3,
            "rule P1 references undeclared id 'R9'",
            id="undeclared-body-indented"),
        pytest.param(
            GOAL + REQ + "    rule P1: S -> R1 @ 0.5\n  rule P2: S -> X @ 0.5\n",
            4, 3, "rule P2 references undeclared id 'X'",
            id="undeclared-after-a-valid-rule"),
        # numbers are ASCII digits; float() alone would read Arabic-Indic ones
        pytest.param(
            GOAL + 'req R1 "x" cost=\u0660.\u0665 tech=1\n', 2, 1,
            'malformed req line, expected: req <ID> "<description>" '
            "cost=<num> tech=<num> ...",
            id="non-ascii-digit-cost"),
        pytest.param(
            GOAL + REQ + "rule P1: S -> R1 @ \u0660.\u0667\n", 3, 1,
            "malformed rule line, expected: rule <ID>: <Goal> -> <ID> ... @ <num>",
            id="non-ascii-digit-degree"),
        pytest.param(
            "option cost_scale = \u0661\u0660\u0660\n" + GOAL, 1, 1,
            "malformed option line", id="non-ascii-digit-option"),
        # the order of the checks on one line
        pytest.param(
            GOAL + '  req R1 "x" colour=1\n', 2, 3, "unknown attribute 'colour'",
            id="attributes-before-missing"),
        pytest.param(
            GOAL + '  req R1 "x" tech=2 ov=0 metric=1\n', 2, 3,
            "attribute metric needs a quoted value", id="types-before-missing"),
        pytest.param(
            GOAL + '  req R1 "x" cost=2 tech=2 ov=0\n', 2, 3,
            "cost 2.0 outside [0, 1]", id="cost-before-tech-before-ov"),
        pytest.param(
            GOAL + '  req S "x" colour=1\n', 2, 3,
            "S already declared on line 1", id="duplicate-before-attributes"),
    ])
    def test_every_error_text_and_position(self, text, line, column, message):
        with pytest.raises(SrmError) as exc:
            parse_model(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert exc.value.message == message
        assert str(exc.value) == f"line {line}, column {column}: {message}"

    def test_connector_and_metric_attributes(self, obs):
        model, _ = obs
        r7 = model.requirement("R7")
        assert r7.metric == "length of encryption key"
        assert r7.connector == "as many bits as"
        assert model.requirement("R6").connector is None


# The quoted-string pattern before it was unrolled, kept as the reference.
OLD_STR = r'"((?:[^"\\]|\\.)*)"'


def _old_unescape(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


class TestStringPattern:
    def test_unrolled_pattern_matches_as_the_old_one(self):
        # On lines drawn over quotes, backslashes, '=', spaces and id
        # characters, the string pattern alone and every line pattern and
        # attribute pattern built from it match the same text with the
        # same groups, or fail on the same lines.
        built = [p for p in map(re.compile, [
            *(p for p, _ in srm._LINES.values()), srm._ATTR_RE])
            if srm._STR in p.pattern]
        assert len(built) == 3  # goal, req and the attribute pattern
        patterns = [(re.compile(OLD_STR), re.compile(srm._STR))] + [
            (re.compile(p.pattern.replace(srm._STR, OLD_STR)), p)
            for p in built]
        rng = random.Random(20261019)
        alphabet = '"\\= \taR1_'
        prefixes = ["", 'goal G1 ', 'req R1 ', 'req R1 "x" metric=',
                    'req R1 "x" cost=1 tech=0 connector=']
        for _ in range(40_000):
            line = rng.choice(prefixes) + "".join(
                rng.choices(alphabet, k=rng.randint(0, 14)))
            for old, new in patterns:
                for how in ("match", "fullmatch", "search"):
                    a, b = getattr(old, how)(line), getattr(new, how)(line)
                    assert (a and (a.span(), a.groups())) == (
                        b and (b.span(), b.groups())), (line, new.pattern, how)
                assert old.findall(line) == new.findall(line), line

    @pytest.mark.parametrize("text", [
        "", "plain", 'say \\"hi\\"', "a\\\\b", "\\\\\\\"", "tail\\",
    ])
    def test_unescape_agrees_with_the_full_replace(self, text):
        assert srm._unescape(text) == _old_unescape(text)


def _command_outputs(text: str) -> list[str]:
    """The impact matrix as csv, table and json, then the prioritize csv
    and the relaxed statements of every goal, under the default rules."""
    model, risk = parse_model(text)
    config, rulebase = paps.load_default_rulebase()  # a fresh score memo
    matrix = paps.impact_matrix(model)
    outputs = [matrix.to_csv(), matrix.to_table(), matrix.to_json()]
    for goal in model.sorted_goals():
        outputs.append(report_csv(prioritize(model, risk, goal.id, config,
                                             rulebase)))
        outputs.append(relax_text(relax_srl(model, risk, goal.id, config,
                                            rulebase)))
    return outputs


class TestSerialize:
    @pytest.mark.parametrize("text", [
        paps.obs_fixture_text(),
        bench_gen.layered_model(11, 24, 48, layers=4,
                                continuous_risk=True).text,
    ], ids=["obs", "generated"])
    def test_command_outputs_survive_a_round_trip(self, text):
        canonical = serialize_model(*parse_model(text))
        assert _command_outputs(canonical) == _command_outputs(text)

    def test_obs_round_trip_identity(self, obs):
        model, risk = obs
        text = serialize_model(model, risk)
        model2, risk2 = parse_model(text)
        assert model2 == model
        assert dict(risk2.cost) == dict(risk.cost)
        assert dict(risk2.technical_ability) == dict(risk.technical_ability)

    def test_obs_degrees_survive_exactly(self, obs):
        model, risk = obs
        model2, _ = parse_model(serialize_model(model, risk))
        assert [r.degree for r in model2.rules] == [r.degree for r in model.rules]

    def test_minimal_line_count(self):
        model, risk = parse_model(MINIMAL)
        lines = serialize_model(model, risk).strip().splitlines()
        assert len(lines) == 3

    def test_only_lf_cr_and_crlf_end_a_line(self):
        description = f"a{NOT_LINE_BREAKS}b"
        model, risk = parse_model(
            f'goal S "{description}"\r\nreq R1 "{description}" cost=0 '
            f'tech=0\rrule P1: S -> R1 @ 1\n')
        assert [model.goals[0].description,
                model.requirements[0].description] == [description] * 2
        assert parse_model(serialize_model(model, risk)) == (model, risk)

    def test_random_models_round_trip(self):
        rng = random.Random(20240823)
        for _ in range(150):
            model, risk = random_valid_model(rng)
            model2, risk2 = parse_model(serialize_model(model, risk))
            assert model2 == model
            assert dict(risk2.cost) == dict(risk.cost)
            assert dict(risk2.technical_ability) == dict(risk.technical_ability)

    def test_unrounded_values_round_trip(self):
        # Every cost, tech, ov and degree comes back as the same float, also
        # past 6 decimals and below 1e-6, written without an exponent.
        rng = random.Random(20261019)
        tiny = [5e-324, 1e-7, 2.0 ** -1022, 0.1 + 0.2, 1 - 2.0 ** -53]

        def unit() -> float:
            return rng.choice([rng.random(), *tiny])

        def ov() -> float:
            return rng.choice([rng.uniform(1, 500), 1e-7, 5e-324, 1e22 / 3])

        for _ in range(60):
            model, risk = random_valid_model(rng)
            model = model._replace(
                requirements=tuple(r if r.ov is None else r._replace(ov=ov())
                                   for r in model.requirements),
                rules=tuple(r._replace(degree=unit()) for r in model.rules))
            risk = risk._replace(
                cost={r: unit() for r in risk.cost},
                technical_ability={r: unit() for r in risk.cost})
            text = serialize_model(model, risk)
            for number in re.findall(r"(?:cost=|tech=|ov=|@ )(\S+)", text):
                assert re.fullmatch(NUMBER, number), number
            model2, risk2 = parse_model(text)
            assert model2 == model
            assert dict(risk2.cost) == dict(risk.cost)
            assert dict(risk2.technical_ability) == dict(risk.technical_ability)

    def test_smallest_cost_and_ov_are_written_out(self):
        text = serialize_model(*parse_model(
            'goal S "s"\nreq R1 "r" cost=0.5 tech=0.5 metric="m" '
            'ov=0.0000001\nrule P1: S -> R1 @ 1\n'))
        assert " ov=0.0000001" in text
        model, risk = parse_model(text.replace("cost=0.5",
                                               f"cost=0.{'0' * 323}5"))
        assert risk.cost["R1"] == 5e-324
        assert parse_model(serialize_model(model, risk)) == (model, risk)

    @pytest.mark.parametrize("value,expected", [
        (0.95, "0.95"), (1.0, "1"), (0.123456, "0.123456"), (0.0, "0"),
    ])
    def test_number_formatting(self, value, expected):
        assert format_number(value) == expected

    def test_serializer_emits_lf(self, obs):
        model, risk = obs
        assert "\r" not in serialize_model(model, risk)

    @pytest.mark.parametrize("goal,req,message", [
        (Goal("G1", "a\nb"), Requirement("R1"),
         "G1: description contains a line break"),
        (Goal("G1"), Requirement("R1", "a\r"),
         "R1: description contains a line break"),
        (Goal("G1"), Requirement("R1", metric="\r\n"),
         "R1: metric contains a line break"),
        (Goal("G1"), Requirement("R1", connector="a\nb"),
         "R1: connector contains a line break"),
    ], ids=["goal", "description", "metric", "connector"])
    def test_a_line_break_in_a_text_is_refused(self, goal, req, message):
        # A .srm string has no escape for a line break; written as is, the
        # text would not parse back.
        model = SecurityModel((goal,), (req,), (), "G1")
        risk = RiskProfile({"R1": 0.5}, {"R1": 0.5})
        with pytest.raises(ValueError) as exc:
            serialize_model(model, risk)
        assert str(exc.value) == message

    @pytest.mark.parametrize("goal,req,rules,message", [
        (Goal("1A"), Requirement("R1"), (),
         "1A: id must match [A-Za-z_][A-Za-z0-9_]*"),
        (Goal("G 1"), Requirement("R1"), (),
         "G 1: id must match [A-Za-z_][A-Za-z0-9_]*"),
        (Goal("G1"), Requirement("G\u00e9"), (),
         "G\u00e9: id must match [A-Za-z_][A-Za-z0-9_]*"),
        (Goal("G1"), Requirement("R1"),
         (DerivationRule("P-1", "G1", ("R1",), 0.5),),
         "P-1: id must match [A-Za-z_][A-Za-z0-9_]*"),
        (Goal("G1"), Requirement("R1"), (DerivationRule("P1", "G1", (), 0.5),),
         "P1: body is empty"),
        (Goal("G1"), Requirement("R1", ov=0.0), (),
         "R1: ov must be positive and finite, got 0.0"),
        (Goal("G1"), Requirement("R1", ov=-1.0), (),
         "R1: ov must be positive and finite, got -1.0"),
        (Goal("G1"), Requirement("R1", ov=float("inf")), (),
         "R1: ov must be positive and finite, got inf"),
        (Goal("G1"), Requirement("R1", ov=float("nan")), (),
         "R1: ov must be positive and finite, got nan"),
    ], ids=["digit-first", "space", "non-ascii", "rule-id", "empty-body",
            "ov-zero", "ov-negative", "ov-inf", "ov-nan"])
    def test_what_the_parser_rejects_is_refused(self, goal, req, rules,
                                                 message):
        # Each model validates, but its text as written would not parse.
        model = SecurityModel((goal,), (req,), rules, goal.id)
        risk = RiskProfile({req.id: 0.5}, {req.id: 0.5})
        assert validate_model(model, risk).ok
        with pytest.raises(ValueError) as exc:
            serialize_model(model, risk)
        assert str(exc.value) == message

    @pytest.mark.parametrize("goals,reqs,rules,root,cost,tech,message", [
        ("S", "R1", "", "S", 1.5, 0.5, "R1: cost 1.5 outside [0, 1]"),
        ("S", "R1", "", "S", float("nan"), 0.5, "R1: cost nan outside [0, 1]"),
        ("S", "R1", "", "S", 0.5, -0.25,
         "R1: technical ability -0.25 outside [0, 1]"),
        ("S", "R1", "", "S", None, 0.5, "R1: no cost value"),
        ("S", "R1", "P1:S>R1@1.5", "S", 0.5, 0.5,
         "P1: degree 1.5 outside [0, 1]"),
        ("S", "R1", "P1:S>R1@nan", "S", 0.5, 0.5,
         "P1: degree nan outside [0, 1]"),
        ("S S", "R1", "", "S", 0.5, 0.5, "S: declared more than once"),
        ("S", "S", "", "S", 0.5, 0.5, "S: declared more than once"),
        ("S", "R1", "P1:S>R1@1 P1:S>R1@1", "S", 0.5, 0.5,
         "P1: rule id declared more than once"),
        ("S", "R1", "P1:S>X@1", "S", 0.5, 0.5,
         "P1: rule body element X is not declared"),
        ("S", "R1", "P1:X>R1@1", "S", 0.5, 0.5,
         "P1: rule head X is not declared"),
        ("S", "R1", "", "R1", 0.5, 0.5, "R1: root node must be a goal"),
        ("S", "R1", "", "X", 0.5, 0.5, "X: root node is not declared"),
    ], ids=["cost-over-one", "cost-nan", "tech-negative", "cost-missing",
            "degree-over-one", "degree-nan", "goal-repeated",
            "goal-and-requirement", "rule-repeated", "body-undeclared",
            "head-undeclared", "root-requirement", "root-undeclared"])
    def test_what_validate_reports_is_refused(self, goals, reqs, rules, root,
                                              cost, tech, message):
        # Written out, each model would not parse, or would read back with
        # another root: refused in validate_model's own words.
        model = _model(goals, reqs, rules, root)
        ids = reqs.split()
        risk = RiskProfile({} if cost is None else dict.fromkeys(ids, cost),
                           dict.fromkeys(ids, tech))
        assert str(validate_model(model, risk).errors[0]).endswith(message)
        with pytest.raises(ValueError) as exc:
            serialize_model(model, risk)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rules", [
        "P1:S>G1@1 P2:G1>G2@1 P3:G2>G1@0.5", "P1:S>R1@1 P2:R1>G1@0.5",
    ], ids=["cycle", "requirement-head"])
    def test_what_the_parser_keeps_is_written(self, rules):
        # A cycle and a requirement used as rule head are errors of the
        # model, not of its text: both read back unchanged.
        model = _model("S G1 G2", "R1", rules, "S")
        risk = RiskProfile({"R1": 0.5}, {"R1": 0.5})
        assert not validate_model(model, risk).ok
        assert parse_model(serialize_model(model, risk)) == (model, risk)


def _model(goals: str, reqs: str, rules: str, root: str) -> SecurityModel:
    """Goals and requirements by id; each rule written ``P1:S>R1,R2@0.5``."""
    parsed = []
    for rule in rules.split():
        rule_id, rest = rule.split(":")
        head, rest = rest.split(">")
        body, degree = rest.split("@")
        parsed.append(DerivationRule(rule_id, head, tuple(body.split(",")),
                                     float(degree)))
    return SecurityModel(tuple(map(Goal, goals.split())),
                         tuple(map(Requirement, reqs.split())),
                         tuple(parsed), root)


# --- the parser against a recorded corpus of broken and odd models ---------
#
# About 2 000 seeded mutants of OBS and of a small generated model. Their
# digest was recorded with the parser that came before the one-pass loop, so
# any change in a parsed value, an error's text or position, or the error
# that wins on a line with several, changes it.

MUTANT_SEED = 20261020
MUTANT_DIGEST = (
    "f84e19533ec0fd4a976ceb929f86745403cb1a589a550977cf5b306e71a83af2")
# The second base model, written out so that the digest depends on the
# parser alone: bench/gen.py's layered_model(5, 9, 18, layers=3,
# continuous_risk=True) as it wrote it when the digest was recorded.
SMALL_MODEL = """\
# layered DAG seed=5 goals=9 reqs=18
goal G1 "goal 1"
goal G2 "goal 2"
goal G3 "goal 3"
goal G4 "goal 4"
goal G5 "goal 5"
goal G6 "goal 6"
goal G7 "goal 7"
goal G8 "goal 8"
goal G9 "goal 9"
req R1 "requirement 1" cost=0.775603 tech=0.108053 metric="metric 48"
req R2 "requirement 2" cost=0.295864 tech=0.432977 metric="metric 6"
req R3 "requirement 3" cost=0.362625 tech=0.148196 metric="metric 18"
req R4 "requirement 4" cost=0.312450 tech=0.316800 metric="metric 12"
req R5 "requirement 5" cost=0.721135 tech=0.309304 metric="metric 31" connector="as many bits as" ov=308
req R6 "requirement 6" cost=0.533531 tech=0.405888 metric="metric 16"
req R7 "requirement 7" cost=0.250209 tech=0.650966 metric="metric 10" connector="as many bits as"
req R8 "requirement 8" cost=0.334185 tech=0.207060 metric="metric 47" ov=460
req R9 "requirement 9" cost=0.788010 tech=0.106631 metric="metric 28" ov=216
req R10 "requirement 10" cost=0.294813 tech=0.453155 metric="metric 40"
req R11 "requirement 11" cost=0.453540 tech=0.488159 metric="metric 47" ov=241
req R12 "requirement 12" cost=0.403789 tech=0.146506 metric="metric 25"
req R13 "requirement 13" cost=0.179396 tech=0.937144 metric="metric 22" connector="at least" ov=401
req R14 "requirement 14" cost=0.548101 tech=0.502824 metric="metric 5"
req R15 "requirement 15" cost=0.694597 tech=0.664018 metric="metric 49"
req R16 "requirement 16" cost=0.668308 tech=0.835232 metric="metric 17"
req R17 "requirement 17" cost=0.293852 tech=0.945548 metric="metric 42" connector="as many bits as"
req R18 "requirement 18" cost=0.773717 tech=0.325905 metric="metric 18"
rule P1: G1 -> G2 G5 G3 @ 0.49
rule P2: G1 -> G4 @ 0.57
rule P3: G2 -> G7 G8 R7 @ 0.23
rule P4: G2 -> G9 G9 G8 @ 0.26
rule P5: G3 -> G6 G7 R17 @ 0.08
rule P6: G3 -> R15 @ 0.25
rule P7: G3 -> G6 R15 R11 @ 0.61
rule P8: G3 -> R5 G8 R1 @ 0.88
rule P9: G3 -> R9 @ 0.33
rule P10: G3 -> R3 G9 @ 0.28
rule P11: G4 -> G7 @ 0.22
rule P12: G4 -> G6 @ 0.45
rule P13: G4 -> R13 @ 0.66
rule P14: G4 -> G7 @ 0.75
rule P15: G4 -> G6 @ 0.58
rule P16: G4 -> G7 G6 @ 0.49
rule P17: G5 -> G8 @ 0.96
rule P18: G5 -> G9 G7 @ 0.05
rule P19: G5 -> G9 G7 @ 0.56
rule P20: G5 -> G9 @ 0.57
rule P21: G6 -> R8 R2 @ 0.75
rule P22: G7 -> R16 @ 0.42
rule P23: G7 -> R10 R18 R6 @ 0.70
rule P24: G7 -> R12 @ 0.79
rule P25: G8 -> R14 @ 0.50
rule P26: G9 -> R4 @ 0.58
"""
INSERTS = ["nan", "inf", "1e999", "-0", "0x1", "1_0", "\0", "\u00a0", "\u00e9",
           '"', "\\", '\\"', "\r", "\r\n", "\n", " ", "\t", "#", "=", ":",
           "@", "->", "goal ", "req ", "rule ", "option ", "cost=", "tech=",
           "metric=", "connector=", "ov=", "cost_scale = 100"]
NUMBERS = ["-0", "0", "1", "1.", ".5", "+.5", "-1", "2", "0.0000001",
           "9" * 400, "1e999", "0x1", "1_0", "nan", "inf", "00.50"]
OPTIONS = ["100", "2.5", "1", "0", "-1", "9" * 400, "1e2"]
ODD_ATTRIBUTES = [" ov=1", " ov=-0", " metric=5", ' cost="cheap"', " colour=1",
                  ' connector="at least"', " tech=0.5", ' metric="a\\"b"']
_NUMBER_AT = re.compile(r"(?<==)[-+.0-9]+|(?<=@ )[-+.0-9]+")
_ATTRIBUTES = re.compile(r'\s+[a-z_]+=(?:"(?:[^"\\]|\\.)*"|\S+)')


def _mutate(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    kind = rng.randrange(10)
    if kind == 0:  # delete a character
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    if kind == 1:  # delete a span
        i = rng.randrange(len(text))
        return text[:i] + text[i + rng.randint(2, 30):]
    if kind == 2:  # insert a token
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(INSERTS) + text[i:]
    if kind == 3:  # duplicate a line
        line = rng.choice(lines)
        lines.insert(rng.randrange(len(lines) + 1), line)
    elif kind == 4:  # shuffle a run of lines
        i = rng.randrange(len(lines))
        run = lines[i:i + rng.randint(2, 8)]
        rng.shuffle(run)
        lines[i:i + len(run)] = run
    elif kind == 5:  # replace a number
        spans = [m.span() for m in _NUMBER_AT.finditer(text)]
        if spans:
            a, b = rng.choice(spans)
            return text[:a] + rng.choice(NUMBERS) + text[b:]
    elif kind == 6:  # reorder, drop or repeat a requirement's attributes
        reqs = [i for i, line in enumerate(lines) if line.startswith("req ")]
        if reqs:
            i = rng.choice(reqs)
            head_end = lines[i].index('"', lines[i].index('"') + 1) + 1
            attrs = _ATTRIBUTES.findall(lines[i][head_end:])
            how = rng.randrange(3)
            if how == 0:
                rng.shuffle(attrs)
            elif how == 1 and attrs:
                attrs.pop(rng.randrange(len(attrs)))
            else:
                attrs.insert(rng.randrange(len(attrs) + 1),
                             rng.choice(attrs + ODD_ATTRIBUTES))
            lines[i] = lines[i][:head_end] + "".join(attrs)
    elif kind == 7:  # change the line ends
        return text.replace("\n", rng.choice(["\r\n", "\r"]))
    elif kind == 8:  # add an option line near the top
        name = rng.choice(["cost_scale"] * 4 + ["colour"])
        lines.insert(rng.randrange(4),
                     f"option {name} = {rng.choice(OPTIONS)}")
    else:  # indent a line, and another run of lines below it
        i = rng.randrange(len(lines))
        for j in (i, *range(rng.randrange(len(lines)), len(lines), 3)):
            lines[j] = rng.choice([" ", "\t", "\u00a0 ", "   "]) + lines[j]
    return "\n".join(lines)


def _corpus() -> list[str]:
    rng = random.Random(MUTANT_SEED)
    texts = []
    for base in (paps.obs_fixture_text(), SMALL_MODEL):
        for _ in range(1000):
            text = base
            for _ in range(rng.choice((1, 1, 2, 3))):
                text = _mutate(rng, text)
            texts.append(text)
    return texts


def _outcome(text: str) -> str:
    try:
        model, risk = parse_model(text)
    except SrmError as exc:
        lines = split_lines(text)
        if exc.line <= len(lines):
            assert 1 <= exc.column <= len(lines[exc.line - 1]), (text, exc)
        else:
            assert (exc.line, exc.column) == (len(lines) + 1, 1), (text, exc)
        return f"error {exc.line} {exc.column} {exc.message}"
    return repr((model, list(risk.cost.items()),
                 list(risk.technical_ability.items())))


def test_mutant_outcomes_match_the_recorded_digest():
    # Each outcome: the parsed records and risk, bit for bit (repr keeps a
    # float's every digit and the sign of -0.0), or the error's line,
    # column and message. Any other exception fails the test.
    outcomes = [_outcome(text) for text in _corpus()]
    assert sum(o.startswith("error ") for o in outcomes) == 1197
    digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    assert digest == MUTANT_DIGEST


# --- round trip from hand-written text -------------------------------------

_IDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
_BLANK = st.sampled_from(["", " ", "\t", "  \t", "\u00a0"])
# A quoted string as written: plain characters, including non-ASCII ones
# and what only str.splitlines would break at, and escapes.
_QUOTED = st.lists(st.one_of(
    st.text(st.characters(blacklist_characters='"\\\r\n',
                          blacklist_categories=("Cs",)), max_size=4),
    st.sampled_from(['\\"', "\\\\", "\\n", "\u00e9", "\u03bb\u0436",
                     NOT_LINE_BREAKS])), max_size=4).map("".join)


_FORMS = [str, "+{}".format, "0{}".format, "{}0".format,
          lambda t: t.lstrip("0"), lambda t: t.rstrip("0")]


def _number(low: int, high: int, scale: int = 1):
    """Decimal text for a value in [low, high] * scale, in the forms NUMBER
    takes: a sign, leading zeros, no integer part or a bare point."""
    return st.builds(lambda n, form: form(f"{n / 1000 * scale:.3f}"),
                     st.integers(low * 1000, high * 1000),
                     st.sampled_from(_FORMS))


@st.composite
def srm_texts(draw):
    """Valid .srm text: every statement form, in any order after the
    option, with comments, blank lines, indentation and mixed line ends."""
    ids = draw(st.lists(_IDS, min_size=2, max_size=9, unique=True))
    n_goals = draw(st.integers(1, len(ids) - 1))
    goals, reqs = ids[:n_goals], ids[n_goals:]
    scale = draw(st.sampled_from([None, 1, 8, 100]))
    statements = [f'goal {g} "{draw(_QUOTED)}"' for g in goals]
    for r in reqs:
        attrs = [f"cost={draw(_number(0, 1, scale or 1) | st.just('-0'))}",
                 f"tech={draw(_number(0, 1))}"]
        if draw(st.booleans()):
            attrs.append(f'metric="{draw(_QUOTED)}"')
        if draw(st.booleans()):
            attrs.append(f'connector="{draw(_QUOTED)}"')
        if draw(st.booleans()):
            ov = draw(_number(0, 500).filter(lambda t: float(t) > 0))
            attrs.append(f"ov={ov}")
        if draw(st.booleans()):
            attrs = draw(st.permutations(attrs))
        statements.append(f'req {r} "{draw(_QUOTED)}" ' + " ".join(attrs))
    for i in range(draw(st.integers(0, 6))):
        body = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
        statements.append(f"rule P{i}: {draw(st.sampled_from(goals))} -> "
                          f"{' '.join(body)} @ {draw(_number(0, 1))}")
    # the first goal stays first among the goals: it is the root
    rest = draw(st.permutations(statements[1:]))
    statements = [statements[0], *rest]
    comments = st.builds(lambda blank, text: f"{blank}#{text}", _BLANK,
                         st.text(st.characters(blacklist_characters="\r\n",
                                               blacklist_categories=("Cs",)),
                                 max_size=8))
    lines = [] if scale is None else [f"option cost_scale = {scale}"]
    for statement in statements:
        lines += draw(st.lists(st.one_of(comments, _BLANK), max_size=2))
        lines.append(draw(_BLANK) + statement + draw(_BLANK))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=40, deadline=None)
@given(srm_texts())
def test_hand_written_text_round_trips(text):
    model, risk = parse_model(text)
    canonical = serialize_model(model, risk)
    again, again_risk = parse_model(canonical)
    for name in ("goals", "requirements", "rules"):
        assert set(getattr(again, name)) == set(getattr(model, name))
    assert again.root == model.root
    assert dict(again_risk.cost) == dict(risk.cost)
    assert dict(again_risk.technical_ability) == dict(risk.technical_ability)
    assert serialize_model(again, again_risk) == canonical
