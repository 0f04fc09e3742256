"""Rendering of partially-selected requirements and deviation membership.

A prioritized requirement is rewritten so its satisfaction metric targets
``rds x OV`` instead of the resource-unconstrained optimum OV. OV stays
symbolic (OV_6) unless the model supplies a numeric ov attribute.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from . import render
from .fuzzy import RuleBase, VariableConfig
from .model import Requirement, RiskProfile, SecurityModel
from .pipeline import prioritize
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


def _check_rds(rds: float) -> None:
    if not 0.0 <= rds <= 1.0:  # NaN fails too
        raise ValueError(f"rds {rds} outside [0, 1]")


def _check_ov(ov: float) -> None:
    try:
        positive = ov > 0
    except TypeError:  # a library-built ov such as "100"
        raise ValueError(f"ov must be a number, got {ov!r}") from None
    if not positive:  # NaN fails too
        raise ValueError(f"ov must be positive, got {ov}")
    if math.isinf(ov):
        raise ValueError(f"ov must be finite, got {ov}")


def _parts(req: Requirement) -> tuple[str, str, str, str, str, str]:
    """Everything of ``req``'s statement but its RDS: id, metric,
    connector, OV symbol, and the rendered text before and after the RDS."""
    if req.metric is None:
        raise RenderError(req.id,
                          f"requirement {req.id} has no satisfaction metric")
    if req.ov is not None:
        try:
            _check_ov(req.ov)
        except ValueError as exc:
            raise RenderError(req.id, f"requirement {req.id}: {exc}") from None
    connector = req.connector or DEFAULT_CONNECTOR
    ov = _ov_symbol(req.id) if req.ov is None else format_number(req.ov)
    return (req.id, req.metric, connector, ov,
            f"{req.id}: {req.description} [{req.metric}] {connector} ",
            f" × {ov}")


def _statement(parts: tuple[str, str, str, str, str, str],
               rds: float) -> RelaxedStatement:
    # unchecked: prioritize's RDS lies in its output universe, inside [0, 1]
    req_id, metric, connector, ov, before, after = parts
    # built as ``prioritize`` builds its entries: every field is given
    return tuple.__new__(RelaxedStatement, (
        req_id, metric, connector, rds, ov, f"{before}{rds:.2f}{after}"))


def relax_requirement(req: Requirement, rds: float) -> RelaxedStatement:
    parts = _parts(req)  # a missing metric is reported before the RDS
    _check_rds(rds)
    return _statement(parts, rds)


def relax_srl(model: SecurityModel, risk: RiskProfile, goal: str,
              config: VariableConfig, rulebase: RuleBase) -> list[RelaxedStatement]:
    """One relaxed statement per ``prioritize`` entry, in its order, as
    ``relax_requirement`` gives it.

    The parts of a statement that do not depend on the RDS are built once
    per model, on a requirement's first statement, and kept on the model.
    A requirement that cannot be rendered is never kept, so it raises
    ``RenderError`` on every call in which it contributes.
    """
    kept = model._statement_parts
    statements = []
    for _, req_id, _, _, _, rds, _, _, _ in prioritize(model, risk, goal,
                                                       config, rulebase):
        parts = kept.get(req_id)
        if parts is None:
            parts = kept[req_id] = _parts(model.requirement(req_id))
        statements.append(_statement(parts, rds))
    return statements


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
        if not half_width > 0:  # NaN fails too
            raise ValueError("half_width must be positive")
        return super().__new__(cls, half_width)


def default_deviation(rds: float, ov: float) -> DeviationMembership:
    """Tolerance of a quarter of the relaxed target."""
    if not (rds > 0 and ov > 0):  # NaN fails too
        raise ValueError("rds and ov must be positive for the default width")
    _check_rds(rds)
    _check_ov(ov)
    return DeviationMembership(0.25 * rds * ov)


def deviation_degree(dm: DeviationMembership, v: float,
                     rds: float, ov: float) -> float:
    """How acceptable the achieved value v is, given target rds x ov."""
    _check_ov(ov)
    _check_rds(rds)
    if math.isnan(v):
        raise ValueError(f"v must be a number, got {v}")
    return max(0.0, 1.0 - abs(v - rds * ov) / dm.half_width)
