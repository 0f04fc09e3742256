"""Per-goal prioritization: impact + risk -> fuzzy inference -> RDS + label."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fcl import FclError
from .fuzzy import (NoActivationError, RuleBase, UniverseError, VariableConfig,
                    defuzzify_cog, fuzzify, infer, label, short_label)
from .impact import build_srl
from .model import RiskProfile, SecurityModel, natural_key


@dataclass(frozen=True)
class PrioritizedEntry:
    goal: str
    requirement: str
    impact: float
    cost: float
    tech: float
    rds: float
    term: str           # full output term name, e.g. "strong"
    label: str          # single-letter form, e.g. "S"
    no_activation: bool = False


INPUT_NAMES = ("impact", "cost", "tech")


def check_inputs(config: VariableConfig) -> None:
    """The rule base must read exactly the inputs impact, cost and tech."""
    names = config.input_names()
    if sorted(names) != sorted(INPUT_NAMES):
        raise FclError(1, 1, "input variables must be impact, cost and tech, "
                             f"got {', '.join(names)}")


def prioritize(model: SecurityModel, risk: RiskProfile, goal: str,
               config: VariableConfig, rulebase: RuleBase) -> list[PrioritizedEntry]:
    """RDS and linguistic priority for every requirement contributing to goal.

    Requirements with zero impact on the goal are absent. If no rule fires
    for an entry the RDS falls back to the centroid of the weakest output
    term and the entry is flagged rather than dropped. The inputs bind to
    the rule base's variables by name, not by declaration order.
    """
    check_inputs(config)
    srl = build_srl(model, goal)
    entries: list[PrioritizedEntry] = []
    for req_id, impact_value in srl.entries:
        inputs = {"impact": impact_value, "cost": risk.cost[req_id],
                  "tech": risk.technical_ability[req_id]}
        try:
            fuzzified = fuzzify(config, inputs)
        except UniverseError as exc:
            raise UniverseError(f"requirement {req_id}: {exc}") from exc
        output = infer(rulebase, config, fuzzified)
        no_activation = False
        try:
            rds = defuzzify_cog(output)
        except NoActivationError:
            weakest = min(config.output.term_names(),
                          key=config.output.term_centroid)
            rds = config.output.term_centroid(weakest)
            no_activation = True
        term = label(config.output, rds)
        entries.append(PrioritizedEntry(
            goal=goal, requirement=req_id,
            impact=impact_value,
            cost=risk.cost[req_id],
            tech=risk.technical_ability[req_id],
            rds=rds, term=term, label=short_label(term),
            no_activation=no_activation))
    entries.sort(key=lambda e: (-e.rds, natural_key(e.requirement)))
    return entries


REPORT_FIELDS = ("goal", "requirement", "impact", "cost", "tech", "rds", "label")


def report_rows(entries: list[PrioritizedEntry]) -> list[dict]:
    rows = []
    for e in entries:
        rows.append({"goal": e.goal, "requirement": e.requirement,
                     "impact": e.impact, "cost": e.cost, "tech": e.tech,
                     "rds": round(e.rds, 4), "label": e.label,
                     "no_activation": e.no_activation})
    return rows


def report_csv(entries: list[PrioritizedEntry]) -> str:
    lines = [",".join(REPORT_FIELDS)]
    for e in entries:
        lines.append(",".join([
            e.goal, e.requirement,
            f"{e.impact:.2f}", f"{e.cost:.2f}", f"{e.tech:.2f}",
            f"{e.rds:.4f}", e.label]))
    return "\n".join(lines) + "\n"


def report_json(entries: list[PrioritizedEntry]) -> str:
    return json.dumps(report_rows(entries), indent=2) + "\n"
