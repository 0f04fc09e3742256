"""Per-goal prioritization: impact + risk -> fuzzy inference -> RDS + label."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from . import render
from .fcl import check_inputs
from .fuzzy import (NoActivationError, RuleBase, UniverseError, VariableConfig,
                    defuzzify_cog, fuzzify, infer, label, short_label)
from .impact import build_srl
from .model import RiskProfile, SecurityModel, _refuse, _risk_findings


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
    """RDS and linguistic priority for every requirement contributing to goal,
    highest RDS first, ties in natural requirement id order.

    Requirements with zero impact on the goal are absent. If no rule fires
    for an entry the RDS falls back to the centroid of the weakest output
    term and the entry is flagged rather than dropped. The inputs bind to
    the rule base's variables by name, not by declaration order. A model
    that ``validate_model`` reports an error for raises ``ValueError``
    with the first such error's text (see ``build_srl``), and so does the
    first contributing requirement with a cost or technical ability value
    that is missing or outside [0, 1], as a value that is not a number is
    (``R2: no cost value``, ``R1: cost '0.5' outside [0, 1]``).

    Each distinct ``(impact, cost, tech)`` triple is scored once per rule
    base and config (see ``RuleBase``) by ``fuzzify``, ``infer``,
    ``defuzzify_cog`` and ``label``, looked up here so that wrappers
    installed in this module see them.
    """
    output = config.output
    held = rulebase._scores
    memo_config, memo = held[0]
    if memo_config is not config:
        check_inputs(config)  # a config that fails never gets a memo
        memo = {}
        held[0] = (config, memo)
    cost_of, tech_of = risk.cost.get, risk.technical_ability.get
    # every field is given and the record checks nothing, so the tuple's own
    # constructor stands in for the named tuple's slower Python one
    new_entry = tuple.__new__
    entries: list[PrioritizedEntry] = []
    for req_id, impact_value in build_srl(model, goal):
        cost, tech = cost_of(req_id), tech_of(req_id)
        # -0.0 and 0.0 fuzzify alike; a missing (None), NaN or out-of-range
        # value is refused below, so it is never stored and always misses
        triple = (impact_value, cost, tech)
        score = memo.get(triple)
        if score is None:
            for finding in _risk_findings(req_id, risk):
                _refuse(finding)
            try:
                fuzzified = fuzzify(config, {"impact": impact_value,
                                             "cost": cost, "tech": tech})
            except UniverseError as exc:
                raise UniverseError(f"requirement {req_id}: {exc}") from exc
            try:
                rds = defuzzify_cog(output, infer(rulebase, fuzzified))
                no_activation = False
            except NoActivationError:
                # the lowest term centroid, from the table that label reads
                rds = min(cog for _, _, cog in output._ranked_terms)
                no_activation = True
            term = label(output, rds)
            score = memo[triple] = (rds, term, short_label(term), no_activation)
        entries.append(new_entry(PrioritizedEntry,
                                 (goal, req_id, impact_value, cost, tech) + score))
    rank = model._requirement_ranks
    entries.sort(key=lambda e: (-e.rds, rank[e.requirement]))
    return entries


REPORT_FIELDS = ("goal", "requirement", "impact", "cost", "tech", "rds", "label")


def report_cells(entries: list[PrioritizedEntry]) -> Iterator[list[str]]:
    """One row of formatted cells per entry, in ``REPORT_FIELDS`` order."""
    return ([goal, req_id, f"{impact:.2f}", f"{cost:.2f}", f"{tech:.2f}",
             f"{rds:.4f}", label]
            for goal, req_id, impact, cost, tech, rds, _, label, _ in entries)


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
