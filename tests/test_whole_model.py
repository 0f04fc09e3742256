"""Every entry and every output of every goal, one SHA-256 per model.

For each goal in ``sorted_goals()`` order a digest takes in each
prioritized entry (goal and requirement ids; the exact bits of impact, cost,
tech and RDS; term; label; ``no_activation``), then ``report_csv`` and
``report_json`` of the entries and ``relax_text`` and ``relax_json`` of the
goal's relaxed statements. The models are the bundled OBS model and the
benchmark's seed-7 200 x 500 layered model with continuous risk values. A
digest that moves means ``paps`` computes something else.

Each model is hashed twice on one fresh rule base: first with its score
memo empty, then with every triple already in it.
"""

import hashlib

import pytest

import paps
from generators import bench_gen
from paps.pipeline import prioritize, report_csv, report_json
from paps.relax import relax_json, relax_srl, relax_text


def whole_model_digest(model, risk, config, rulebase) -> str:
    digest = hashlib.sha256()
    for goal in model.sorted_goals():
        entries = prioritize(model, risk, goal.id, config, rulebase)
        for e in entries:
            digest.update("\0".join([
                e.goal, e.requirement, e.impact.hex(), e.cost.hex(),
                e.tech.hex(), e.rds.hex(), e.term, e.label,
                str(e.no_activation)]).encode() + b"\n")
        statements = relax_srl(model, risk, goal.id, config, rulebase)
        for text in (report_csv(entries), report_json(entries),
                     relax_text(statements), relax_json(statements)):
            digest.update(text.encode() + b"\0")
    return digest.hexdigest()


def _layered_text() -> str:
    return bench_gen.layered_model(7, 200, 500, layers=8,
                                   continuous_risk=True).text


# Recorded before prioritize and relax_srl shared one scoring loop.
OBS_DIGEST = (
    "5dfe6476eb6b7e2b1ba01d698a453b820780a80ed46f350794c2f6f8d7ac3f15")
LAYERED_DIGEST = (
    "9f3bc3663512dfefafbed2bf20abdb1f02420a50f3ec171cce949fe28e1a3fe0")


@pytest.mark.parametrize("model_text, expected", [
    (paps.obs_fixture_text, OBS_DIGEST),
    (_layered_text, LAYERED_DIGEST),
], ids=["obs", "layered-seed-7-200x500"])
def test_every_goal_of_the_model_matches_its_digest(model_text, expected):
    model, risk = paps.parse_model(model_text())
    config, rulebase = paps.load_default_rulebase()
    cold = whole_model_digest(model, risk, config, rulebase)
    warm = whole_model_digest(model, risk, config, rulebase)
    assert (cold, warm) == (expected, expected)
