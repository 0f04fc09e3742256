"""Independent checks of the engine, written for clarity, not speed.

``brute_force_impact`` walks every simple derivation path from the goal to
the requirement and takes the max over paths of the min rule degree. It is
exponential, so it refuses a goal from which more than
``ORACLE_NODE_LIMIT`` nodes are reachable; large models can still be
checked goal by goal.

``exact_cog`` integrates the aggregated fuzzy output over
``fractions.Fraction``, so nothing in it rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from paps.model import SecurityModel

ORACLE_NODE_LIMIT = 20


class OracleSizeError(Exception):
    """The exponential oracle refused a graph that is too large."""


def brute_force_impact(model: SecurityModel, goal: str,
                       requirement: str) -> float:
    """Enumerate every simple path goal -> requirement explicitly, over
    edges read from ``model.rules`` alone, not from the engine's graph."""
    known = {g.id for g in model.goals} | {r.id for r in model.requirements}
    for node in (goal, requirement):
        if node not in known:
            raise KeyError(f"unknown node {node!r}")
    adj: dict[str, dict[str, float]] = {}
    for rule in model.rules:
        children = adj.setdefault(rule.head, {})
        for child in rule.body:  # a repeated edge keeps its largest degree
            children[child] = max(children.get(child, 0.0), rule.degree)
    reachable = {goal}
    frontier = [goal]
    while frontier:
        for child in adj.get(frontier.pop(), {}):
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)
    if len(reachable) > ORACLE_NODE_LIMIT:
        raise OracleSizeError(
            f"{len(reachable)} nodes reachable from {goal}, "
            f"oracle limit is {ORACLE_NODE_LIMIT}")
    best = 0.0
    stack: list[tuple[str, float, frozenset[str]]] = [
        (goal, math.inf, frozenset({goal}))]
    while stack:
        node, width, visited = stack.pop()
        for child, degree in adj.get(node, {}).items():
            if child in visited:
                continue
            w = min(width, degree)
            if child == requirement:
                best = max(best, w)
            stack.append((child, w, visited | {child}))
    return best


def exact_cog(active, universe) -> tuple[Fraction | None, Fraction]:
    """The centroid and the area of max over (activation, trapezoid) pairs
    of min(activation, trapezoid membership) on the universe, exactly, from
    the float inputs; the centroid is None if the area is 0.

    Each clipped term is cut into linear pieces on closed x-ranges. Every
    piece end and every crossing of two pieces is a breakpoint, so between
    two breakpoints the aggregate is the highest of the pieces that span
    them, and the interval integrates in closed form.
    """
    lo, hi = map(Fraction, universe)
    pieces = []  # (xa, xb, slope, intercept)
    for act, mf in active:
        act = Fraction(act)
        x0, x1, x2, x3 = map(Fraction, mf)
        xe1 = x0 + act * (x1 - x0)
        xe2 = x3 - act * (x3 - x2)
        if xe1 > x0:
            slope = act / (xe1 - x0)
            pieces.append((x0, xe1, slope, -slope * x0))
        if xe2 > xe1:
            pieces.append((xe1, xe2, Fraction(0), act))
        if x3 > xe2:
            slope = -act / (x3 - xe2)
            pieces.append((xe2, x3, slope, -slope * x3))
    cuts = {lo, hi}
    for i, (xa1, xb1, s1, b1) in enumerate(pieces):
        cuts.update((xa1, xb1))
        for xa2, xb2, s2, b2 in pieces[:i]:
            if s1 != s2:
                x = (b2 - b1) / (s1 - s2)
                if max(xa1, xa2) < x < min(xb1, xb2):
                    cuts.add(x)
    xs = sorted(x for x in cuts if lo <= x <= hi)
    moment = mass = Fraction(0)
    for a, b in zip(xs, xs[1:]):
        spanning = [(s, c) for xa, xb, s, c in pieces if xa <= a and b <= xb]
        fa = max([Fraction(0), *(s * a + c for s, c in spanning)])
        fb = max([Fraction(0), *(s * b + c for s, c in spanning)])
        mass += (b - a) * (fa + fb) / 2
        moment += (b - a) * (fa * (2 * a + b) + fb * (a + 2 * b)) / 6
    return (moment / mass if mass > 0 else None), mass
