"""Rendering of partially-selected requirements and deviation membership.

A prioritized requirement is rewritten so its satisfaction metric targets
``rds x OV`` instead of the resource-unconstrained optimum OV. OV stays
symbolic (OV_6) unless the model supplies a numeric ov attribute.
"""

from __future__ import annotations

import re
from collections import namedtuple

from . import render
from .fuzzy import RuleBase, VariableConfig
from .model import Requirement, RiskProfile, SecurityModel
# ``prioritize`` is imported for bench/tracing.py, which wraps it here.
from .pipeline import _score, prioritize  # noqa: F401
from .srm import format_number

DEFAULT_CONNECTOR = "as close as possible to"


class RenderError(Exception):
    """A requirement cannot be rendered (no satisfaction metric)."""

    def __init__(self, requirement: str, message: str):
        super().__init__(message)
        self.requirement = requirement


class RelaxedStatement(namedtuple(
        "RelaxedStatement",
        "requirement metric connector rds ov_symbol rendered")):
    __slots__ = ()
    requirement: str
    metric: str
    connector: str
    rds: float
    ov_symbol: str
    rendered: str


_TRAILING_DIGITS = re.compile(r"(\d+)$")


def _ov_symbol(req_id: str) -> str:
    m = _TRAILING_DIGITS.search(req_id)
    return f"OV_{m.group(1)}" if m else f"OV_{req_id}"


def relax_requirement(req: Requirement, rds: float) -> RelaxedStatement:
    if req.metric is None:
        raise RenderError(req.id,
                          f"requirement {req.id} has no satisfaction metric")
    if not 0.0 <= rds <= 1.0:
        raise ValueError(f"rds {rds} outside [0, 1]")
    connector = req.connector or DEFAULT_CONNECTOR
    ov = _ov_symbol(req.id) if req.ov is None else format_number(req.ov)
    rendered = (f"{req.id}: {req.description} [{req.metric}] "
                f"{connector} {rds:.2f} × {ov}")
    return RelaxedStatement(req.id, req.metric, connector, rds, ov, rendered)


def relax_srl(model: SecurityModel, risk: RiskProfile, goal: str,
              config: VariableConfig, rulebase: RuleBase) -> list[RelaxedStatement]:
    """One relaxed statement per requirement, in ``prioritize`` order; no
    label is computed."""
    return [relax_requirement(model.requirement(req_id), rds)
            for req_id, _, _, _, rds, _ in _score(model, risk, goal, config,
                                                  rulebase)]


def relax_text(statements: list[RelaxedStatement]) -> str:
    return "\n".join(s.rendered for s in statements) + "\n"


def relax_json(statements: list[RelaxedStatement]) -> str:
    return render.json_rows([
        {"requirement": s.requirement, "metric": s.metric,
         "connector": s.connector, "rds": round(s.rds, 4),
         "ov": s.ov_symbol, "rendered": s.rendered}
        for s in statements])


class DeviationMembership(namedtuple("DeviationMembership", "half_width")):
    """Symmetric triangular tolerance around the relaxed target.

    Membership is 1 at zero deviation and falls linearly to 0 at
    half_width (in units of the satisfaction metric).
    """

    __slots__ = ()

    def __new__(cls, half_width: float):
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        return super().__new__(cls, half_width)


def default_deviation(rds: float, ov: float) -> DeviationMembership:
    """Tolerance of a quarter of the relaxed target."""
    if rds * ov <= 0:
        raise ValueError("rds and ov must be positive for the default width")
    return DeviationMembership(0.25 * rds * ov)


def deviation_degree(dm: DeviationMembership, v: float,
                     rds: float, ov: float) -> float:
    """How acceptable the achieved value v is, given target rds x ov."""
    if ov <= 0:
        raise ValueError(f"ov must be positive, got {ov}")
    return max(0.0, 1.0 - abs(v - rds * ov) / dm.half_width)
