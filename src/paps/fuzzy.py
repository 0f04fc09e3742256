"""Mamdani fuzzy inference over trapezoidal membership functions.

AND is min, implication is min (clipping), aggregation is pointwise max,
defuzzification is center of gravity. The aggregated output of clipped
trapezoids is piecewise linear, so the centroid is computed in closed form
rather than by sampling; results are exact and platform independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping


class NoActivationError(Exception):
    """Defuzzification was asked for an identically-zero aggregate."""


class UniverseError(ValueError):
    """A crisp input lies outside its variable's universe."""


@dataclass(frozen=True)
class TrapezoidMF:
    """Trapezoid with support [x0, x3] and core [x1, x2].

    x0 == x1 (or x2 == x3) makes a left (right) shoulder: membership is 1
    at and beyond the core on that side.
    """

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        if not self.x0 <= self.x1 <= self.x2 <= self.x3:
            raise ValueError(
                f"breakpoints must be ordered, got "
                f"({self.x0}, {self.x1}, {self.x2}, {self.x3})")

    def __call__(self, x: float) -> float:
        return mf_eval(self, x)


def mf_eval(mf: TrapezoidMF, x: float) -> float:
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


@dataclass(frozen=True)
class LinguisticVariable:
    name: str
    universe: tuple[float, float]
    terms: tuple[tuple[str, TrapezoidMF], ...]

    def __post_init__(self) -> None:
        lo, hi = self.universe
        if not lo < hi:
            raise ValueError(f"empty universe for {self.name}")
        names = [t for t, _ in self.terms]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate term names in {self.name}")
        for term, mf in self.terms:
            if mf.x0 < lo or mf.x3 > hi:
                raise ValueError(
                    f"term {self.name}.{term} lies outside the universe")

    def term_names(self) -> list[str]:
        return [t for t, _ in self.terms]

    def term(self, name: str) -> TrapezoidMF:
        for term, mf in self.terms:
            if term == name:
                return mf
        raise KeyError(f"unknown term {self.name}.{name}")

    def contains(self, x: float) -> bool:
        lo, hi = self.universe
        return lo <= x <= hi

    def term_centroid(self, name: str) -> float:
        """COG of the unclipped term, used for tie-breaking labels."""
        return _term_cog(self.term(name), self.universe)


@dataclass(frozen=True)
class VariableConfig:
    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable

    def input(self, name: str) -> LinguisticVariable:
        for var in self.inputs:
            if var.name == name:
                return var
        raise KeyError(f"unknown input variable {name!r}")

    def input_names(self) -> list[str]:
        return [v.name for v in self.inputs]


@dataclass(frozen=True)
class FuzzyRule:
    id: str
    antecedent: tuple[tuple[str, str], ...]  # (input variable, term)
    consequent: tuple[str, str]              # (output variable, term)


@dataclass(frozen=True)
class RuleBase:
    rules: tuple[FuzzyRule, ...]

    def missing_combinations(self, config: VariableConfig) -> list[tuple[str, ...]]:
        """Input-term combinations no rule covers (empty for the default)."""
        covered = set()
        names = config.input_names()
        for rule in self.rules:
            atoms = dict(rule.antecedent)
            if set(atoms) == set(names):
                covered.add(tuple(atoms[n] for n in names))
        missing = []
        combos: list[tuple[str, ...]] = [()]
        for var in config.inputs:
            combos = [c + (t,) for c in combos for t in var.term_names()]
        for combo in combos:
            if combo not in covered:
                missing.append(combo)
        return missing


@dataclass(frozen=True)
class FuzzyOutput:
    """Clipped-consequent aggregate: max over terms of min(activation, mf)."""

    variable: LinguisticVariable
    activations: Mapping[str, float] = field(default_factory=dict)

    def aggregated(self, x: float) -> float:
        value = 0.0
        for term, mf in self.variable.terms:
            act = self.activations.get(term, 0.0)
            if act > 0.0:
                value = max(value, min(act, mf(x)))
        return value


def fuzzify(config: VariableConfig,
            inputs: Mapping[str, float]) -> dict[tuple[str, str], float]:
    """Membership degree of every (input variable, term) at the crisp inputs."""
    degrees: dict[tuple[str, str], float] = {}
    for name, x in inputs.items():
        var = config.input(name)
        if not var.contains(x):
            lo, hi = var.universe
            raise UniverseError(
                f"{name}={x} outside universe [{lo}, {hi}]")
        for term, mf in var.terms:
            degrees[(name, term)] = mf(x)
    return degrees


def infer(rulebase: RuleBase, config: VariableConfig,
          fuzzified: Mapping[tuple[str, str], float]) -> FuzzyOutput:
    activations: dict[str, float] = {}
    for rule in rulebase.rules:
        strength = min(fuzzified.get(atom, 0.0) for atom in rule.antecedent)
        _, term = rule.consequent
        if strength > activations.get(term, 0.0):
            activations[term] = strength
    return FuzzyOutput(config.output, activations)


def _clipped_segments(mf: TrapezoidMF, act: float,
                      lo: float, hi: float) -> list[tuple[float, float, float, float]]:
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


def _piecewise_cog(active: list[tuple[float, TrapezoidMF]],
                   universe: tuple[float, float]) -> float:
    """Exact centroid of max over terms of min(activation, term MF).

    The aggregate is piecewise linear; its breakpoints are the clipped-term
    kinks plus pairwise segment intersections, so each subinterval
    integrates in closed form.
    """
    lo, hi = universe
    segments: list[tuple[float, float, float, float]] = []
    cuts = {lo, hi}
    for act, mf in active:
        for seg in _clipped_segments(mf, act, lo, hi):
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

    def aggregate(x: float) -> float:
        value = 0.0
        for xa, xb, s, b in segments:
            if xa <= x <= xb:
                value = max(value, s * x + b)
        return value

    xs = sorted(cuts)
    moment = 0.0
    mass = 0.0
    for a, b in zip(xs, xs[1:]):
        fa, fb = aggregate(a), aggregate(b)
        width = b - a
        mass += width * (fa + fb) / 2.0
        moment += width * (fa * (2.0 * a + b) + fb * (a + 2.0 * b)) / 6.0
    if mass <= 0.0:
        raise NoActivationError("aggregated membership is identically zero")
    return moment / mass


@lru_cache(maxsize=256)
def _term_cog(mf: TrapezoidMF, universe: tuple[float, float]) -> float:
    return _piecewise_cog([(1.0, mf)], universe)


def defuzzify_cog(output: FuzzyOutput,
                  universe: tuple[float, float] | None = None) -> float:
    """Centroid of the aggregated output over its universe."""
    active = [(output.activations.get(term, 0.0), mf)
              for term, mf in output.variable.terms
              if output.activations.get(term, 0.0) > 0.0]
    return _piecewise_cog(active, universe or output.variable.universe)


def label(variable: LinguisticVariable, crisp: float) -> str:
    """Output term with the highest membership at ``crisp``.

    Ties go to the term with the higher centroid (the stronger priority).
    """
    lo, hi = variable.universe
    if not lo <= crisp <= hi:
        raise ValueError(f"{crisp} outside universe [{lo}, {hi}]")
    best_term = None
    best = (-1.0, -1.0)
    for term, mf in variable.terms:
        key = (mf(crisp), variable.term_centroid(term))
        if key > best:
            best = key
            best_term = term
    assert best_term is not None
    return best_term


def short_label(term: str) -> str:
    """Single-letter form of an output term name (strong -> S)."""
    return term[:1].upper()
