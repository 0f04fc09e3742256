import random

import pytest

import paps
from generators import random_valid_model
from paps.srm import SrmError, format_number, parse_model, serialize_model

MINIMAL = (
    'goal S "root"\n'
    'req R1 "x" cost=0.1 tech=1.0\n'
    'rule P1: S -> R1 @ 0.7\n'
)


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
