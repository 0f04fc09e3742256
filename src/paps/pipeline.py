"""Per-goal prioritization: impact + risk -> fuzzy inference -> RDS + label."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from . import render
from .fcl import check_inputs
from .fuzzy import (NoActivationError, RuleBase, UniverseError, VariableConfig,
                    defuzzify_cog, fuzzify, infer, label, short_label)
from .impact import build_srl
from .model import RiskProfile, SecurityModel, natural_key


class PrioritizedEntry(namedtuple(
        "PrioritizedEntry",
        "goal requirement impact cost tech rds term label no_activation",
        defaults=(False,))):
    __slots__ = ()
    goal: str
    requirement: str
    impact: float
    cost: float
    tech: float
    rds: float
    term: str           # full output term name, e.g. "strong"
    label: str          # single-letter form, e.g. "S"
    no_activation: bool


def prioritize(model: SecurityModel, risk: RiskProfile, goal: str,
               config: VariableConfig, rulebase: RuleBase) -> list[PrioritizedEntry]:
    """RDS and linguistic priority for every requirement contributing to goal.

    Requirements with zero impact on the goal are absent. If no rule fires
    for an entry the RDS falls back to the centroid of the weakest output
    term and the entry is flagged rather than dropped. The inputs bind to
    the rule base's variables by name, not by declaration order.
    """
    check_inputs(config)
    entries: list[PrioritizedEntry] = []
    for req_id, impact_value in build_srl(model, goal):
        inputs = {"impact": impact_value, "cost": risk.cost[req_id],
                  "tech": risk.technical_ability[req_id]}
        try:
            fuzzified = fuzzify(config, inputs)
        except UniverseError as exc:
            raise UniverseError(f"requirement {req_id}: {exc}") from exc
        activations = infer(rulebase, fuzzified)
        no_activation = False
        try:
            rds = defuzzify_cog(config.output, activations)
        except NoActivationError:
            rds = min(map(config.output.term_centroid,
                          config.output.term_names()))
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


def report_cells(entries: list[PrioritizedEntry]) -> Iterator[list[str]]:
    """One row of formatted cells per entry, in ``REPORT_FIELDS`` order."""
    return ([e.goal, e.requirement, f"{e.impact:.2f}", f"{e.cost:.2f}",
             f"{e.tech:.2f}", f"{e.rds:.4f}", e.label] for e in entries)


def report_table(entries: list[PrioritizedEntry]) -> str:
    return render.table(REPORT_FIELDS, report_cells(entries))


def report_csv(entries: list[PrioritizedEntry]) -> str:
    return render.csv(REPORT_FIELDS, report_cells(entries))


def report_json(entries: list[PrioritizedEntry]) -> str:
    return render.json_rows([
        {"goal": e.goal, "requirement": e.requirement, "impact": e.impact,
         "cost": e.cost, "tech": e.tech, "rds": round(e.rds, 4),
         "label": e.label, "no_activation": e.no_activation}
        for e in entries])
