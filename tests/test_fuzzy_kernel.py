"""The compiled inference kernel against the straightforward one it replaced.

The ``_ref_*`` functions are the earlier ``paps.fuzzy`` code, copied
verbatim except for dropped annotations and calls that go to each other
(``mf(x)`` is ``_ref_mf_eval``, ``term_centroid`` is ``_ref_term_cog``), so
nothing here reads the lookup tables under test. Three more departures
follow API changes made since: ``_ref_fuzzify`` tests ``lo <= x <= hi``
itself where it called ``var.contains(x)``; ``_ref_infer`` takes no
variable config and returns the activations dict, not an output wrapper;
and ``_ref_defuzzify_cog`` takes the output variable and the activations.
``_ref_piecewise_cog`` also takes up the kernel's fix for tiny activations:
when the aggregate's highest value at the cuts is positive but below
2^-900, every value is multiplied by 2^1000 before integrating, which is
exact and keeps the moment from underflowing (activation 5e-324 on
``(0, 0, 0, 1)`` gave 0.0, not 0.5). Every comparison is exact: the same
float bits, the same activation keys in the same order, the same labels,
and the same exceptions.

One exception: the reference integrates a vertical edge inside the
universe (a clipped term that starts or ends above 0 there, as a shoulder
does) as a ramp from the cut before it, which is wrong. So its centroids
are compared only on aggregates without such an edge, and its labels only
for output variables whose terms have none. Everywhere, the kernel's
centroid is also compared with ``oracle.exact_cog``, the same integral over
``fractions.Fraction``: to within a few units in the last place, or more
where a steep piece makes the float evaluation cancel (``_error_bound``).
"""

import math
import random
from fractions import Fraction
from itertools import chain

from hypothesis import given, settings, strategies as st

import paps
from oracle import exact_cog
from paps.fuzzy import (FuzzyRule, LinguisticVariable, NoActivationError,
                        RuleBase, TrapezoidMF, UniverseError, VariableConfig,
                        _piecewise_cog, defuzzify_cog, fuzzify, infer, label)


# --- reference --------------------------------------------------------------

def _ref_mf_eval(mf, x):
    """max(min((x-x0)/(x1-x0), 1, (x3-x)/(x3-x2)), 0) with shoulder rules."""
    if mf.x1 > mf.x0:
        left = (x - mf.x0) / (mf.x1 - mf.x0)
    else:
        left = 1.0 if x >= mf.x1 else 0.0
    if mf.x3 > mf.x2:
        right = (mf.x3 - x) / (mf.x3 - mf.x2)
    else:
        right = 1.0 if x <= mf.x2 else 0.0
    return max(0.0, min(left, 1.0, right))


def _ref_fuzzify(config, inputs):
    degrees = {}
    for name, x in inputs.items():
        var = config.input(name)
        lo, hi = var.universe
        if not lo <= x <= hi:
            raise UniverseError(
                f"{name}={x} outside universe [{lo}, {hi}]")
        for term, mf in var.terms:
            degrees[(name, term)] = _ref_mf_eval(mf, x)
    return degrees


def _ref_infer(rulebase, fuzzified):
    activations = {}
    for rule in rulebase.rules:
        strength = min(fuzzified.get(atom, 0.0) for atom in rule.antecedent)
        _, term = rule.consequent
        if strength > activations.get(term, 0.0):
            activations[term] = strength
    return activations


def _ref_clipped_segments(mf, act, lo, hi):
    """Linear pieces (xa, xb, slope, intercept) of min(act, mf) where positive."""
    xe1 = mf.x0 + act * (mf.x1 - mf.x0)
    xe2 = mf.x3 - act * (mf.x3 - mf.x2)
    segments = []
    if xe1 > mf.x0:
        slope = act / (xe1 - mf.x0)
        segments.append((mf.x0, xe1, slope, -slope * mf.x0))
    if xe2 > xe1:
        segments.append((xe1, xe2, 0.0, act))
    if mf.x3 > xe2:
        slope = -act / (mf.x3 - xe2)
        segments.append((xe2, mf.x3, slope, -slope * mf.x3))
    return [(max(xa, lo), min(xb, hi), s, b)
            for xa, xb, s, b in segments if xa < hi and xb > lo]


def _ref_piecewise_cog(active, universe):
    lo, hi = universe
    segments = []
    cuts = {lo, hi}
    for act, mf in active:
        for seg in _ref_clipped_segments(mf, act, lo, hi):
            segments.append(seg)
            cuts.add(seg[0])
            cuts.add(seg[1])
    for i, (xa1, xb1, s1, b1) in enumerate(segments):
        for xa2, xb2, s2, b2 in segments[i + 1:]:
            if s1 == s2:
                continue
            x = (b2 - b1) / (s1 - s2)
            if max(xa1, xa2, lo) < x < min(xb1, xb2, hi):
                cuts.add(x)

    def aggregate(x):
        value = 0.0
        for xa, xb, s, b in segments:
            if xa <= x <= xb:
                value = max(value, s * x + b)
        return value

    xs = sorted(cuts)
    values = [aggregate(x) for x in xs]
    if 0.0 < max(values) < 2.0 ** -900:
        values = [v * 2.0 ** 1000 for v in values]
    moment = 0.0
    mass = 0.0
    for a, b, fa, fb in zip(xs, xs[1:], values, values[1:]):
        width = b - a
        mass += width * (fa + fb) / 2.0
        moment += width * (fa * (2.0 * a + b) + fb * (a + 2.0 * b)) / 6.0
    if mass <= 0.0:
        raise NoActivationError("aggregated membership is identically zero")
    return moment / mass


def _ref_term_cog(mf, universe):
    return _ref_piecewise_cog([(1.0, mf)], universe)


def _ref_defuzzify_cog(variable, activations, universe=None):
    active = [(activations.get(term, 0.0), mf)
              for term, mf in variable.terms
              if activations.get(term, 0.0) > 0.0]
    return _ref_piecewise_cog(active, universe or variable.universe)


def _ref_label(variable, crisp):
    lo, hi = variable.universe
    if not lo <= crisp <= hi:
        raise ValueError(f"{crisp} outside universe [{lo}, {hi}]")
    best_term = None
    best = (-1.0, -1.0)
    for term, mf in variable.terms:
        key = (_ref_mf_eval(mf, crisp),
               _ref_term_cog(variable.term(term), variable.universe))
        if key > best:
            best = key
            best_term = term
    assert best_term is not None
    return best_term


# --- comparison helpers -----------------------------------------------------

def _exact(value):
    """A value with its floats as bit strings, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(k, _exact(v)) for k, v in value.items()]  # keeps key order
    return value


def _outcome(fn, *args):
    try:
        return "ok", _exact(fn(*args))
    except (NoActivationError, ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def _interior_edge(active, universe):
    """Whether a clipped term starts or ends above 0 strictly inside the
    universe: the aggregate jumps there, and the reference is wrong."""
    lo, hi = universe
    for act, mf in active:
        pieces = _ref_clipped_segments(mf, act, lo, hi)
        if pieces and ((pieces[0][2] <= 0.0 and pieces[0][0] > lo)
                       or (pieces[-1][2] >= 0.0 and pieces[-1][1] < hi)):
            return True
    return False


def _edge_terms(variable):
    return _interior_edge([(1.0, mf) for _, mf in variable.terms],
                          variable.universe)


# Below this area the float integrals can underflow (a narrow piece's width
# times its height; the kernel rescales only an aggregate whose highest value
# is below 2^-900), so there only a zero area is checked.
MIN_AREA = Fraction(2) ** -900
# Far below a formula error: the ramp across the edges of the rectangle
# (0.5, 0.5, 0.7, 0.7) on [0, 1] is off by about 2.8e14 ulps.
MAX_ULPS = 16


def _error_bound(active, universe):
    """``MAX_ULPS`` units in the last place of the largest coordinate,
    times that coordinate over the width of the narrowest sloped piece (at
    least 1): the kernel evaluates a piece as slope * x + intercept, and on
    a steep piece the two terms cancel."""
    scale = max(abs(x) for x in (*universe, *chain(*(mf for _, mf in active))))
    narrowest = universe[1] - universe[0]
    for act, mf in active:
        for xa, xb, slope, _ in _ref_clipped_segments(mf, act,
                                                      -math.inf, math.inf):
            if slope != 0.0 and xb - xa < narrowest:
                narrowest = xb - xa
    return (MAX_ULPS * Fraction(math.ulp(scale))
            * max(Fraction(1), Fraction(scale) / Fraction(narrowest)))


def _check_exact(outcome, active, universe):
    """``outcome`` of the kernel's centroid is ``exact_cog`` to within
    ``_error_bound``."""
    exact, area = exact_cog(active, universe)
    if area == 0:
        assert outcome[0] == "NoActivationError", outcome
    elif area >= MIN_AREA:
        assert outcome[0] == "ok", outcome
        error = abs(Fraction(float.fromhex(outcome[1])) - exact)
        assert error <= _error_bound(active, universe)


# --- strategies -------------------------------------------------------------

@st.composite
def universes(draw):
    lo = draw(st.sampled_from([0.0, -1.0, -3.0, 2.5])
              | st.floats(-10, 10, allow_subnormal=False))
    width = draw(st.sampled_from([1.0, 6.0, 0.25])
                 | st.floats(0.01, 20, allow_subnormal=False))
    return (lo, lo + width)


@st.composite
def trapezoids(draw, universe):
    lo, hi = universe
    point = st.sampled_from([lo, hi]) | st.floats(lo, hi)
    xs = sorted(draw(st.lists(point, min_size=4, max_size=4)))
    shape = draw(st.sampled_from(["any", "left shoulder", "right shoulder",
                                  "rectangle", "triangle", "point"]))
    if shape in ("left shoulder", "rectangle"):
        xs[1] = xs[0]
    if shape in ("right shoulder", "rectangle"):
        xs[2] = xs[3]
    if shape == "triangle":
        xs[2] = xs[1]
    elif shape == "point":
        xs = [xs[0]] * 4
    return TrapezoidMF(*xs)


@st.composite
def variables(draw, name):
    universe = draw(universes())
    n = draw(st.integers(1, 4))
    terms = tuple((f"t{i}", draw(trapezoids(universe))) for i in range(n))
    return LinguisticVariable(name, universe, terms)


@st.composite
def systems(draw):
    """A variable config and a rule base over 1-3 inputs; a rule may name
    any non-empty subset of the inputs, in any order."""
    inputs = tuple(draw(variables(f"v{i}"))
                   for i in range(draw(st.integers(1, 3))))
    output = draw(variables("out"))
    rules = []
    for k in range(draw(st.integers(1, 12))):
        named = draw(st.lists(st.sampled_from(inputs), min_size=1,
                              max_size=len(inputs),
                              unique_by=lambda v: v.name))
        antecedent = tuple((v.name, draw(st.sampled_from(v.term_names())))
                           for v in named)
        consequent = (output.name, draw(st.sampled_from(output.term_names())))
        rules.append(FuzzyRule(str(k), antecedent, consequent))
    return VariableConfig(inputs, output), RuleBase(tuple(rules))


@st.composite
def fuzzified_degrees(draw, config):
    """Degrees for some atoms: missing ones, zeros, ones and fractions."""
    degrees = {}
    for var in config.inputs:
        for term in var.term_names():
            degree = draw(st.none() | st.sampled_from([0.0, 1.0])
                          | st.floats(0, 1))
            if degree is not None:
                degrees[(var.name, term)] = degree
    return degrees


# --- properties -------------------------------------------------------------

def _check_output(config, activations, expected, universe=None):
    assert _exact(activations) == _exact(expected)
    active = [(activations[term], mf) for term, mf in config.output.terms
              if activations.get(term, 0.0) > 0.0]
    if universe is None:
        rds = _outcome(defuzzify_cog, config.output, activations)
        universe = config.output.universe
    else:  # the aggregate clipped to a universe other than the output's
        rds = _outcome(_piecewise_cog, active, universe)
    _check_exact(rds, active, universe)
    if not _interior_edge(active, universe):
        assert rds == _outcome(_ref_defuzzify_cog, config.output, expected,
                               universe)
    if rds[0] == "ok" and not _edge_terms(config.output):
        crisp = float.fromhex(rds[1])
        assert (_outcome(label, config.output, crisp)
                == _outcome(_ref_label, config.output, crisp))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_infer_defuzzify_label_match_reference(data):
    config, rulebase = data.draw(systems())
    fuzzified = data.draw(fuzzified_degrees(config))
    universe = data.draw(st.none() | universes())
    _check_output(config, infer(rulebase, fuzzified),
                  _ref_infer(rulebase, fuzzified), universe)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzify_matches_reference(data):
    config, rulebase = data.draw(systems())
    inputs = {}
    for var in data.draw(st.permutations(config.inputs)):
        lo, hi = var.universe
        inputs[var.name] = data.draw(st.sampled_from([lo, hi, -0.0])
                                     | st.floats(lo - 1, hi + 1))
    outcome = _outcome(fuzzify, config, inputs)
    assert outcome == _outcome(_ref_fuzzify, config, inputs)
    if outcome[0] == "ok":
        _check_output(config, infer(rulebase, fuzzify(config, inputs)),
                      _ref_infer(rulebase, _ref_fuzzify(config, inputs)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_label_and_centroids_match_reference(data):
    var = data.draw(variables("out"))
    lo, hi = var.universe
    crisp = data.draw(st.sampled_from([lo, hi, -0.0])
                      | st.floats(lo - 1, hi + 1))
    if not _edge_terms(var):
        assert (_outcome(label, var, crisp)
                == _outcome(_ref_label, var, crisp))
    for term, mf in var.terms:
        cog = _outcome(var.term_centroid, term)
        _check_exact(cog, [(1.0, mf)], var.universe)
        if not _interior_edge([(1.0, mf)], var.universe):
            assert cog == _outcome(_ref_term_cog, mf, var.universe)
    assert (_outcome(var.term_centroid, "no-such-term")
            == ("KeyError", "'unknown term out.no-such-term'"))


def test_default_rulebase_on_random_triples():
    config, rulebase = paps.load_default_rulebase()
    rng = random.Random(4)
    for _ in range(2_000):
        inputs = {"impact": rng.choice([0.0, 0.5, 1.0, rng.random()]),
                  "cost": rng.random(), "tech": rng.random()}
        degrees = fuzzify(config, inputs)
        assert _exact(degrees) == _exact(_ref_fuzzify(config, inputs))
        _check_output(config, infer(rulebase, degrees),
                      _ref_infer(rulebase, degrees))


def test_peak_whose_pieces_overlap_by_rounding():
    # At activation 1 the rising piece of this triangle ends one rounding
    # step after its falling piece starts, and their crossing lies between:
    # it is a cut, and leaving it out changes the last bits of the centroid.
    mf = TrapezoidMF(-1.9421827049431453, 0.6258562888564674,
                     0.6258562888564674, 0.9486545699513971)
    universe = (-3.0, 3.0)
    (xa1, xb1, s1, b1), (xa2, xb2, s2, b2) = _ref_clipped_segments(
        mf, 1.0, *universe)
    assert xa2 < xb1 < xb2
    assert xa2 < (b2 - b1) / (s1 - s2) < xb1
    var = LinguisticVariable("out", universe, (("peak", mf),))
    assert (defuzzify_cog(var, {"peak": 1.0}).hex()
            == _ref_defuzzify_cog(var, {"peak": 1.0}).hex()
            == "-0x1.f5fe9fe453404p-4")


def test_piece_that_ends_past_the_universe_is_clamped():
    # The term ends at the universe, but at activation 1 its rising piece
    # ends at x0 + (x1 - x0) = 3.0000000000000004. Clamped to 3, as the
    # reference clips every piece, the centroid ends in ...f1fe; integrated
    # to where the piece ends, it would end in ...f1ff.
    mf = TrapezoidMF(-1.5913895858271885, 3.0, 3.0, 3.0)
    universe = (-3.0, 3.0)
    assert mf.x0 + 1.0 * (mf.x1 - mf.x0) == 3.0000000000000004
    var = LinguisticVariable("out", universe, (("peak", mf),))
    expected = "0x1.783390648f1fep+0"
    assert defuzzify_cog(var, {"peak": 1.0}).hex() == expected
    assert _ref_piecewise_cog([(1.0, mf)], universe).hex() == expected


def test_negative_zero_input_has_degree_plus_zero():
    # (x - x0) is -0.0 here; max(0.0, ...) turns that into +0.0.
    var = LinguisticVariable("v0", (0.0, 1.0),
                             (("rising", TrapezoidMF(0.0, 0.5, 0.5, 1.0)),))
    config = VariableConfig((var,), var)
    degrees = fuzzify(config, {"v0": -0.0})
    assert _exact(degrees) == _exact(_ref_fuzzify(config, {"v0": -0.0}))
    assert _exact(degrees) == [(("v0", "rising"), "0x0.0p+0")]
