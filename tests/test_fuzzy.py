import math
import random

import pytest
from hypothesis import given, strategies as st

from oracle import exact_cog
from paps.fuzzy import (FuzzyRule, LinguisticVariable, NoActivationError,
                        RuleBase, TrapezoidMF, VariableConfig, defuzzify_cog,
                        fuzzify, infer, label, mf_eval, short_label)

M_TERM = TrapezoidMF(0.25, 0.45, 0.55, 0.75)


def _reference_mf(x0, x1, x2, x3, x):
    # independent literal transcription of the trapezoid formula
    return max(min((x - x0) / (x1 - x0), 1.0, (x3 - x) / (x3 - x2)), 0.0)


def _aggregate(variable, activations, x):
    """The clipped-consequent aggregate at x: max over terms of
    min(activation, mf)."""
    return max([min(activations.get(term, 0.0), mf_eval(mf, x))
                for term, mf in variable.terms], default=0.0)


@st.composite
def trapezoids(draw, degenerate_ok=False):
    pts = sorted(draw(st.lists(
        st.floats(0, 1, allow_nan=False), min_size=4, max_size=4)))
    if not degenerate_ok:
        if not (pts[0] < pts[1] and pts[2] < pts[3]):
            pts = [pts[0], pts[0] + 0.1, pts[2], pts[2] + 0.1]
            pts = sorted(min(p, 1.0) for p in pts)
            if not (pts[0] < pts[1] and pts[2] < pts[3]):
                pts = [0.0, 0.4, 0.5, 0.9]
    return TrapezoidMF(*pts)


class TestMfEval:
    def test_core_is_one(self):
        assert mf_eval(M_TERM, 0.45) == 1.0
        assert mf_eval(M_TERM, 0.55) == 1.0

    def test_support_edge_is_zero(self):
        assert mf_eval(M_TERM, 0.25) == 0.0
        assert mf_eval(M_TERM, 0.75) == 0.0

    def test_linear_slope(self):
        assert mf_eval(M_TERM, 0.35) == pytest.approx(0.5)

    def test_left_shoulder(self):
        shoulder = TrapezoidMF(0, 0, 0.25, 0.5)
        assert mf_eval(shoulder, 0.0) == 1.0
        assert mf_eval(shoulder, 0.25) == 1.0
        assert mf_eval(shoulder, 0.5) == 0.0

    def test_right_shoulder(self):
        shoulder = TrapezoidMF(0.5, 0.75, 1, 1)
        assert mf_eval(shoulder, 1.0) == 1.0
        assert mf_eval(shoulder, 0.5) == 0.0

    def test_malformed_breakpoints_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TrapezoidMF(0.5, 0.4, 0.6, 0.7)

    @given(trapezoids(), st.floats(-0.5, 1.5, allow_nan=False))
    def test_matches_literal_transcription(self, mf, x):
        expected = _reference_mf(mf.x0, mf.x1, mf.x2, mf.x3, x)
        assert mf_eval(mf, x) == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= mf_eval(mf, x) <= 1.0

    def test_random_cases_against_transcription(self):
        rng = random.Random(13)
        for _ in range(2_000):
            a, b, c, d = sorted(rng.random() for _ in range(4))
            if not (a < b and c < d):
                continue
            mf = TrapezoidMF(a, b, c, d)
            x = rng.uniform(-0.2, 1.2)
            assert abs(mf_eval(mf, x) - _reference_mf(a, b, c, d, x)) <= 1e-12


def _simple_config():
    lmh = (("low", TrapezoidMF(0, 0, 0.25, 0.5)),
           ("medium", M_TERM),
           ("high", TrapezoidMF(0.5, 0.75, 1, 1)))
    out = LinguisticVariable("priority", (0.0, 1.0), (
        ("optional", TrapezoidMF(0, 0, 0.1, 0.37)),
        ("weak", TrapezoidMF(0.1, 0.2, 0.3, 0.4)),
        ("normal", TrapezoidMF(0.35, 0.5, 0.6, 0.75)),
        ("strong", TrapezoidMF(0.53, 0.79, 1, 1))))
    return VariableConfig(
        (LinguisticVariable("impact", (0.0, 1.0), lmh),), out)


class TestFuzzify:
    def test_left_shoulder_input(self):
        config = _simple_config()
        degrees = fuzzify(config, {"impact": 0.0})
        assert degrees[("impact", "low")] == 1.0
        assert degrees[("impact", "medium")] == 0.0
        assert degrees[("impact", "high")] == 0.0

    def test_inside_medium_core(self):
        degrees = fuzzify(_simple_config(), {"impact": 0.5})
        assert degrees[("impact", "medium")] == 1.0

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            fuzzify(_simple_config(), {"impact": 1.5})

    def test_unknown_input_raises_like_config_input(self):
        config = _simple_config()
        with pytest.raises(KeyError) as expected:
            config.input("cost")
        with pytest.raises(KeyError) as exc:
            fuzzify(config, {"impact": 0.5, "cost": 0.5})
        assert str(exc.value) == str(expected.value) == (
            "\"unknown input variable 'cost'\"")


class TestInfer:
    def _rulebase(self):
        return RuleBase((
            FuzzyRule("1", (("impact", "high"),), ("priority", "strong")),
            FuzzyRule("2", (("impact", "low"),), ("priority", "weak")),
        ))

    def test_nothing_fires(self):
        config = _simple_config()
        out = infer(self._rulebase(),
                    {("impact", "high"): 0.0, ("impact", "low"): 0.0})
        assert out == {}
        assert all(_aggregate(config.output, out, x / 10) == 0.0
                   for x in range(11))

    def test_fully_fired_rule_is_unclipped(self):
        config = _simple_config()
        out = infer(self._rulebase(), {("impact", "high"): 1.0})
        strong = config.output.term("strong")
        for x in [0.0, 0.53, 0.6, 0.79, 0.9, 1.0]:
            assert _aggregate(config.output, out, x) == pytest.approx(
                mf_eval(strong, x))

    def test_two_rules_pointwise_max(self):
        config = _simple_config()
        rb = RuleBase((
            FuzzyRule("1", (("impact", "high"),), ("priority", "normal")),
            FuzzyRule("2", (("impact", "low"),), ("priority", "strong"))))
        out = infer(rb, {("impact", "high"): 0.5, ("impact", "low"): 0.25})
        normal = config.output.term("normal")
        strong = config.output.term("strong")
        for k in range(11):
            x = k / 10
            expected = max(min(0.5, mf_eval(normal, x)),
                           min(0.25, mf_eval(strong, x)))
            assert _aggregate(config.output, out, x) == pytest.approx(expected)

    def test_min_conjunction(self):
        config = VariableConfig(
            (_simple_config().inputs[0],
             LinguisticVariable("cost", (0.0, 1.0),
                                _simple_config().inputs[0].terms)),
            _simple_config().output)
        rb = RuleBase((FuzzyRule(
            "1", (("impact", "high"), ("cost", "low")), ("priority", "strong")),))
        out = infer(rb, {("impact", "high"): 0.7, ("cost", "low"): 0.4})
        assert out == {"strong": 0.4}

    def test_raising_degrees_never_lowers_aggregate(self):
        config = _simple_config()
        rb = self._rulebase()
        rng = random.Random(3)
        for _ in range(200):
            lo = {("impact", "high"): rng.random(),
                  ("impact", "low"): rng.random()}
            hi = {k: min(1.0, v + rng.random() * (1 - v))
                  for k, v in lo.items()}
            out_lo = infer(rb, lo)
            out_hi = infer(rb, hi)
            for k in range(21):
                x = k / 20
                assert (_aggregate(config.output, out_hi, x)
                        >= _aggregate(config.output, out_lo, x) - 1e-12)


class TestDefuzzifyCog:
    def test_symmetric_triangle_centroid_is_center(self):
        rng = random.Random(17)
        for _ in range(50):
            c = rng.uniform(0.2, 0.8)
            w = rng.uniform(0.01, min(c, 1 - c))
            height = rng.uniform(0.1, 1.0)
            mf = TrapezoidMF(c - w, c, c, c + w)
            var = LinguisticVariable("p", (0.0, 1.0), (("t", mf),))
            assert defuzzify_cog(var, {"t": height}) == pytest.approx(
                c, abs=1e-9)

    def test_uniform_mass_centroid_is_half(self):
        var = LinguisticVariable("p", (0.0, 1.0),
                                 (("t", TrapezoidMF(0, 0, 1, 1)),))
        assert defuzzify_cog(var, {"t": 1.0}) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("mf, height, expected", [
        (TrapezoidMF(0.5, 0.5, 0.7, 0.7), 1.0, 0.6),
        (TrapezoidMF(0.5, 0.5, 0.7, 0.7), 0.25, 0.6),
        (TrapezoidMF(0.4, 0.4, 0.4, 0.7), 1.0, 0.5),
        (TrapezoidMF(0.3, 0.6, 0.6, 0.6), 1.0, 0.5),
    ], ids=["rectangle", "clipped-rectangle", "left-edge", "right-edge"])
    def test_vertical_edge_inside_the_universe(self, mf, height, expected):
        # the aggregate is 0 before a rising edge and after a falling one
        var = LinguisticVariable("p", (0.0, 1.0), (("t", mf),))
        assert defuzzify_cog(var, {"t": height}) == pytest.approx(
            expected, abs=1e-15)
        if height == 1.0:
            assert var.term_centroid("t") == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("mf", [TrapezoidMF(0, 0, 0, 1),
                                    TrapezoidMF(0, 0.5, 0.5, 1)],
                             ids=["shoulder", "triangle"])
    @pytest.mark.parametrize("height", [5e-324, 1e-320, 1e-310, 2.0 ** -1000])
    def test_tiny_activation_keeps_its_centroid(self, mf, height):
        # the clipped term is a strip whose area underflows unless scaled
        var = LinguisticVariable("p", (0.0, 1.0), (("t", mf),))
        exact, area = exact_cog([(height, mf)], var.universe)
        assert area > 0
        assert defuzzify_cog(var, {"t": height}) == pytest.approx(
            float(exact), abs=1e-9)

    def test_all_zero_raises(self):
        var = _simple_config().output
        with pytest.raises(NoActivationError):
            defuzzify_cog(var, {})

    def test_clipped_triangle_against_fine_grid_oracle(self):
        mf = TrapezoidMF(0, 0.2, 0.2, 0.4)
        height = 0.5
        var = LinguisticVariable("p", (0.0, 1.0), (("t", mf),))
        n = 1_000_000
        moment = mass = 0.0
        for k in range(n):
            x = (k + 0.5) / n
            m = min(height, mf_eval(mf, x))
            moment += m * x
            mass += m
        assert defuzzify_cog(var, {"t": height}) == pytest.approx(
            moment / mass, abs=1e-6)

    def test_result_inside_universe(self):
        rng = random.Random(23)
        var = _simple_config().output
        for _ in range(50):
            acts = {t: rng.random() for t in var.term_names()}
            value = defuzzify_cog(var, acts)
            assert 0.0 <= value <= 1.0


class TestLabel:
    def test_core_of_weak(self):
        assert label(_simple_config().output, 0.25) == "weak"

    def test_calibrated_strong_anchor(self):
        assert label(_simple_config().output, 0.82) == "strong"

    def test_tie_breaks_toward_the_stronger_term(self):
        # breakpoints chosen binary-exact so both memberships are 0.5 exactly
        var = LinguisticVariable("p", (0.0, 1.0), (
            ("normal", TrapezoidMF(0.0, 0.25, 0.25, 0.5)),
            ("strong", TrapezoidMF(0.25, 0.5, 0.5, 0.75))))
        crossing = 0.375
        assert (mf_eval(var.term("normal"), crossing)
                == mf_eval(var.term("strong"), crossing))
        assert label(var, crossing) == "strong"

    def test_tie_breaks_on_the_exact_centroid_of_a_rectangle(self):
        # Both memberships are 0 at 0.2, so the higher centroid wins: 0.6
        # for the rectangle, 0.55 for the triangle.
        var = LinguisticVariable("p", (0.0, 1.0), (
            ("peak", TrapezoidMF(0.45, 0.55, 0.55, 0.65)),
            ("block", TrapezoidMF(0.5, 0.5, 0.7, 0.7))))
        assert label(var, 0.2) == "block"

    def test_full_tie_goes_to_the_first_name_in_any_order(self):
        twin = TrapezoidMF(0.2, 0.4, 0.6, 0.8)
        for terms in ((("a", twin), ("b", twin)), (("b", twin), ("a", twin))):
            var = LinguisticVariable("p", (0.0, 1.0), terms)
            assert [label(var, x) for x in (0.3, 0.5, 0.7)] == ["a"] * 3

    def test_short_label(self):
        assert short_label("strong") == "S"
        assert short_label("optional") == "O"
