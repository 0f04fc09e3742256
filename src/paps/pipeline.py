"""Per-goal prioritization: impact + risk -> fuzzy inference -> RDS + label."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from . import render
from .fcl import check_inputs
from .fuzzy import (NoActivationError, RuleBase, UniverseError, VariableConfig,
                    defuzzify_cog, fuzzify, infer, label, short_label)
from .impact import build_srl
from .model import RiskProfile, SecurityModel


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


def _score(model: SecurityModel, risk: RiskProfile, goal: str,
           config: VariableConfig, rulebase: RuleBase
           ) -> list[tuple[str, float, float, float, float, bool]]:
    """(requirement, impact, cost, tech, rds, no_activation) for every
    requirement contributing to goal, highest RDS first, ties in natural
    requirement id order: the one scoring loop of ``prioritize`` and
    ``relax_srl``.

    Each distinct ``(impact, cost, tech)`` triple runs ``fuzzify``,
    ``infer`` and ``defuzzify_cog`` once per rule base and config (see
    ``RuleBase``), looked up here so that wrappers installed in this module
    see them. An input outside its universe is never stored, so it raises
    on every call. A requirement with no cost or no technical ability value
    raises ``ValueError`` naming it, in ``validate_model``'s words.
    """
    check_inputs(config)
    output = config.output
    held = rulebase._scores
    memo_config, memo = held[0]
    if memo_config is not config:
        memo = {}
        held[0] = (config, memo)
    costs, techs = risk.cost, risk.technical_ability
    fallback = None
    scored = []
    for req_id, impact_value in build_srl(model, goal):
        try:
            cost = costs[req_id]
            tech = techs[req_id]
        except KeyError:
            name = "technical ability" if req_id in costs else "cost"
            raise ValueError(f"requirement {req_id}: no {name} value") from None
        triple = (impact_value, cost, tech)  # -0.0 and 0.0 fuzzify alike
        rds = memo.get(triple, memo)  # the memo itself stands for a miss
        if rds is memo:
            try:
                fuzzified = fuzzify(config, {"impact": impact_value,
                                             "cost": cost, "tech": tech})
            except UniverseError as exc:
                raise UniverseError(f"requirement {req_id}: {exc}") from exc
            try:
                rds = defuzzify_cog(output, infer(rulebase, fuzzified))
            except NoActivationError:
                rds = None
            memo[triple] = rds
        if rds is None:
            if fallback is None:
                # the lowest term centroid, from the table that label reads
                fallback = min(cog for _, _, cog in output._ranked_terms)
            scored.append((req_id, impact_value, cost, tech, fallback, True))
        else:
            scored.append((req_id, impact_value, cost, tech, rds, False))
    # ids of equal natural key (R1, R01) share a rank, so this stable sort
    # orders ties as a sort on natural_key would.
    rank = model._requirement_ranks
    scored.sort(key=lambda s: (-s[4], rank[s[0]]))
    return scored


def prioritize(model: SecurityModel, risk: RiskProfile, goal: str,
               config: VariableConfig, rulebase: RuleBase) -> list[PrioritizedEntry]:
    """RDS and linguistic priority for every requirement contributing to goal.

    Requirements with zero impact on the goal are absent. If no rule fires
    for an entry the RDS falls back to the centroid of the weakest output
    term and the entry is flagged rather than dropped. The inputs bind to
    the rule base's variables by name, not by declaration order.
    """
    output = config.output
    entries: list[PrioritizedEntry] = []
    for req_id, impact_value, cost, tech, rds, no_activation in _score(
            model, risk, goal, config, rulebase):
        term = label(output, rds)
        entries.append(PrioritizedEntry(
            goal, req_id, impact_value, cost, tech, rds, term,
            short_label(term), no_activation))
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
