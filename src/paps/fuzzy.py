"""Mamdani fuzzy inference over trapezoidal membership functions.

AND is min, implication is min (clipping), aggregation is pointwise max,
defuzzification is center of gravity. The aggregated output of clipped
trapezoids is piecewise linear, so the centroid is computed in closed form
rather than by sampling; results are exact and platform independent.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property

from .model import Frozen


class NoActivationError(Exception):
    """Defuzzification was asked for an identically-zero aggregate."""


class UniverseError(ValueError):
    """A crisp input lies outside its variable's universe."""


class TrapezoidMF(namedtuple("TrapezoidMF", "x0 x1 x2 x3")):
    """Trapezoid with support [x0, x3] and core [x1, x2].

    x0 == x1 (or x2 == x3) makes a left (right) shoulder: membership is 1
    at and beyond the core on that side.
    """

    __slots__ = ()

    def __new__(cls, x0: float, x1: float, x2: float, x3: float):
        if not x0 <= x1 <= x2 <= x3:
            raise ValueError(
                f"breakpoints must be ordered, got ({x0}, {x1}, {x2}, {x3})")
        return super().__new__(cls, x0, x1, x2, x3)


def mf_eval(mf: TrapezoidMF, x: float) -> float:
    """max(min((x-x0)/(x1-x0), 1, (x3-x)/(x3-x2)), 0) with shoulder rules.

    The comparisons below are the ones the builtin ``min``/``max`` make,
    in the same order, so the result is theirs without the call overhead.
    """
    x0, x1, x2, x3 = mf
    if x1 > x0:
        degree = (x - x0) / (x1 - x0)
    else:
        degree = 1.0 if x >= x1 else 0.0
    if 1.0 < degree:
        degree = 1.0
    if x3 > x2:
        right = (x3 - x) / (x3 - x2)
    else:
        right = 1.0 if x <= x2 else 0.0
    if right < degree:
        degree = right
    return degree if degree > 0.0 else 0.0


class LinguisticVariable(Frozen, namedtuple(
        "LinguisticVariable", "name universe terms")):

    def __new__(cls, name: str, universe: tuple[float, float],
                terms: tuple[tuple[str, TrapezoidMF], ...]):
        lo, hi = universe
        if not lo < hi:
            raise ValueError(f"empty universe for {name}")
        if not terms:
            raise ValueError(f"variable {name} has no terms")
        names = [t for t, _ in terms]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate term names in {name}")
        for term, mf in terms:
            if mf.x0 < lo or mf.x3 > hi:
                raise ValueError(
                    f"term {name}.{term} lies outside the universe")
        return super().__new__(cls, name, universe, terms)

    def term_names(self) -> list[str]:
        return [t for t, _ in self.terms]

    def term(self, name: str) -> TrapezoidMF:
        for term, mf in self.terms:
            if term == name:
                return mf
        raise KeyError(f"unknown term {self.name}.{name}")

    def term_centroid(self, name: str) -> float:
        """COG of the unclipped term, used for tie-breaking labels. An
        unknown name raises KeyError, a term with no area
        NoActivationError."""
        return _piecewise_cog([(1.0, self.term(name))], self.universe)

    # Lookup tables, built on first use and kept in the instance __dict__
    # (cached_property writes there directly, past ``Frozen``, and the
    # __dict__ never enters __eq__ or __hash__).

    @cached_property
    def _atoms(self) -> tuple[tuple[tuple[str, str], TrapezoidMF], ...]:
        """((variable, term), mf) for every term: the keys fuzzify writes."""
        return tuple(((self.name, term), mf) for term, mf in self.terms)

    @cached_property
    def _ranked_terms(self) -> tuple[tuple[str, TrapezoidMF, float], ...]:
        """(term, mf, centroid) for every term, in term-name order."""
        return tuple((term, mf, self.term_centroid(term))
                     for term, mf in sorted(self.terms, key=lambda t: t[0]))


class VariableConfig(Frozen, namedtuple("VariableConfig", "inputs output")):
    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable

    def input(self, name: str) -> LinguisticVariable:
        var = self._inputs_by_name.get(name)
        if var is None:
            raise KeyError(f"unknown input variable {name!r}")
        return var

    def input_names(self) -> list[str]:
        return [v.name for v in self.inputs]

    @cached_property
    def _inputs_by_name(self) -> dict[str, LinguisticVariable]:
        return {v.name: v for v in reversed(self.inputs)}  # first one wins


class FuzzyRule(namedtuple("FuzzyRule", "id antecedent consequent")):
    __slots__ = ()
    id: str
    antecedent: tuple[tuple[str, str], ...]  # (input variable, term)
    consequent: tuple[str, str]              # (output variable, term)


class RuleBase(Frozen, namedtuple("RuleBase", "rules")):
    rules: tuple[FuzzyRule, ...]

    # Dispatch tables for infer, built on first use like LinguisticVariable's.

    @cached_property
    def _atom_masks(self) -> tuple[tuple[tuple[str, str], int], ...]:
        """(atom, bit set of the rules whose antecedent names it); rule i is
        bit 1 << i."""
        masks: dict[tuple[str, str], int] = {}
        for i, rule in enumerate(self.rules):
            for atom in rule.antecedent:
                masks[atom] = masks.get(atom, 0) | 1 << i
        return tuple(masks.items())

    @cached_property
    def _by_bit(self) -> dict[int, tuple[tuple[tuple[str, str], ...], str]]:
        """Rule bit -> (antecedent, output term)."""
        return {1 << i: (rule.antecedent, rule.consequent[1])
                for i, rule in enumerate(self.rules)}


def fuzzify(config: VariableConfig,
            inputs: Mapping[str, float]) -> dict[tuple[str, str], float]:
    """Membership degree of every (input variable, term) at the crisp inputs."""
    by_name = config._inputs_by_name
    degrees: dict[tuple[str, str], float] = {}
    for name, x in inputs.items():
        var = by_name.get(name)
        if var is None:
            raise KeyError(f"unknown input variable {name!r}")
        lo, hi = var.universe
        if not lo <= x <= hi:
            raise UniverseError(
                f"{name}={x} outside universe [{lo}, {hi}]")
        for atom, mf in var._atoms:
            degrees[atom] = mf_eval(mf, x)
    return degrees


def infer(rulebase: RuleBase,
          fuzzified: Mapping[tuple[str, str], float]) -> dict[str, float]:
    """Each output term's activation: the max over its rules of the min of
    the rule's atom degrees (a missing atom has degree 0).

    Only rules whose atoms all have a degree > 0 are scored. Any other rule
    has strength <= 0, and that never raises an activation, so skipping it
    changes nothing. The scored rules run in declaration order, so the
    activations keep their insertion order.
    """
    get = fuzzified.get
    firing = (1 << len(rulebase.rules)) - 1
    for atom, mask in rulebase._atom_masks:
        if not get(atom, 0.0) > 0.0:
            firing &= ~mask
    by_bit = rulebase._by_bit
    activations: dict[str, float] = {}
    while firing:
        bit = firing & -firing
        firing ^= bit
        antecedent, term = by_bit[bit]
        strength = min(map(get, antecedent))
        if strength > activations.get(term, 0.0):
            activations[term] = strength
    return activations


def _segments(mf: TrapezoidMF,
              act: float) -> list[tuple[float, float, float, float]]:
    """Linear pieces (xa, xb, slope, intercept) of min(act, mf) where positive."""
    x0, x1, x2, x3 = mf
    xe1 = x0 + act * (x1 - x0)
    xe2 = x3 - act * (x3 - x2)
    pieces = []
    if xe1 > x0:
        slope = act / (xe1 - x0)
        pieces.append((x0, xe1, slope, -slope * x0))
    if xe2 > xe1:
        pieces.append((xe1, xe2, 0.0, act))
    if x3 > xe2:
        slope = -act / (x3 - xe2)
        pieces.append((xe2, x3, slope, -slope * x3))
    return pieces


# An aggregate whose highest value is below _TINY is integrated scaled up by
# _UPSCALE (both powers of two).
_TINY = 2.0 ** -900
_UPSCALE = 2.0 ** 1000


def _piecewise_cog(active: list[tuple[float, TrapezoidMF]],
                   universe: tuple[float, float]) -> float:
    """Exact centroid of max over terms of min(activation, term MF).

    The aggregate is piecewise linear; its breakpoints are the clipped-term
    kinks plus pairwise segment intersections, so each subinterval
    integrates in closed form. A clipped term that starts or ends at a
    positive value (a vertical edge, as at x0 == x1 or x2 == x3) makes the
    aggregate jump there, so at such a cut inside the universe each side
    takes its own one-sided limit.
    """
    lo, hi = universe
    segments: list[tuple[float, float, float, float]] = []
    cuts = {lo, hi}
    # the cuts inside the universe where a clipped term starts or ends above 0
    edges = []
    for act, mf in active:
        pieces = _segments(mf, act)
        if pieces:
            xa, _, s, _ = pieces[0]
            if s <= 0.0 and lo < xa < hi:       # no rising piece
                edges.append(xa)
            _, xb, s, _ = pieces[-1]
            if s >= 0.0 and lo < xb < hi:       # no falling piece
                edges.append(xb)
        for xa2, xb2, s2, b2 in pieces:
            if not (xa2 < hi and xb2 > lo):
                continue
            # Terms lie inside the universe, but a piece's computed end can
            # round one step past it (x0 + act * (x1 - x0) > x1), so clamp.
            if lo > xa2:        # max(xa2, lo) and min(xb2, hi), inlined
                xa2 = lo
            if hi < xb2:
                xb2 = hi
            cuts.add(xa2)
            cuts.add(xb2)
            # A crossing is a cut only inside both x-ranges, so pairs whose
            # ranges do not overlap are rejected before dividing. This also
            # rejects two pieces of one term, which meet at a breakpoint
            # (already a cut), except where rounding makes the rising and
            # falling pieces of a peak overlap: those still get the test.
            for xa1, xb1, s1, b1 in segments:
                if xa2 < xb1 and xa1 < xb2 and s1 != s2:
                    x = (b2 - b1) / (s1 - s2)
                    if max(xa1, xa2, lo) < x < min(xb1, xb2, hi):
                        cuts.add(x)
            segments.append((xa2, xb2, s2, b2))

    xs = sorted(cuts)
    fs = []             # the aggregate at each cut, evaluated once
    for x in xs:
        value = 0.0
        for xa, xb, s, b in segments:
            if xa <= x <= xb:
                y = s * x + b
                if y > value:
                    value = y
        fs.append(value)
    # The value an interval takes at its left and right end: the closed
    # value, except at an edge. At lo and hi the closed value already is
    # the one-sided limit.
    starts = ends = fs
    if edges:
        starts, ends = fs.copy(), fs.copy()
        for i, x in enumerate(xs):
            if x in edges:
                ends[i] = max([0.0, *(s * x + b for xa, xb, s, b
                                      in segments if xa < x <= xb)])
                starts[i] = max([0.0, *(s * x + b for xa, xb, s, b
                                        in segments if xa <= x < xb)])
    if 0.0 < max(fs) < _TINY:
        # The moment would underflow (activation 5e-324 on a flat strip
        # gives 0.0); a power-of-two scale is exact and cancels in the ratio.
        starts = [f * _UPSCALE for f in starts]
        ends = [f * _UPSCALE for f in ends]
    moment = 0.0
    mass = 0.0
    for a, b, fa, fb in zip(xs, xs[1:], starts, ends[1:]):
        width = b - a
        mass += width * (fa + fb) / 2.0
        moment += width * (fa * (2.0 * a + b) + fb * (a + 2.0 * b)) / 6.0
    if mass <= 0.0:
        raise NoActivationError("aggregated membership is identically zero")
    return moment / mass


def defuzzify_cog(variable: LinguisticVariable,
                  activations: Mapping[str, float]) -> float:
    """Centroid of the max over terms of min(activation, term MF)."""
    active = [(act, mf) for term, mf in variable.terms
              if (act := activations.get(term, 0.0)) > 0.0]
    return _piecewise_cog(active, variable.universe)


def label(variable: LinguisticVariable, crisp: float) -> str:
    """Output term with the highest membership at ``crisp``.

    Ties go to the term with the higher centroid (the stronger priority),
    then to the term whose name sorts first, so declaration order never
    decides.
    """
    lo, hi = variable.universe
    if not lo <= crisp <= hi:
        raise ValueError(f"{crisp} outside universe [{lo}, {hi}]")
    best_term = None
    best_degree = best_cog = -1.0
    for term, mf, cog in variable._ranked_terms:
        degree = mf_eval(mf, crisp)
        # (degree, cog) > (best_degree, best_cog), without the tuples
        if degree > best_degree or (degree == best_degree and cog > best_cog):
            best_degree, best_cog = degree, cog
            best_term = term
    return best_term


def short_label(term: str) -> str:
    """Single-letter form of an output term name (strong -> S)."""
    return term[:1].upper()
