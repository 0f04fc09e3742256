import random

import pytest

import paps
from generators import NOT_LINE_BREAKS, random_valid_model
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


class TestSerialize:
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

    @pytest.mark.parametrize("value,expected", [
        (0.95, "0.95"), (1.0, "1"), (0.123456, "0.123456"), (0.0, "0"),
    ])
    def test_number_formatting(self, value, expected):
        assert format_number(value) == expected

    def test_serializer_emits_lf(self, obs):
        model, risk = obs
        assert "\r" not in serialize_model(model, risk)
