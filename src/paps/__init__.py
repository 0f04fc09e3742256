"""Goal-based prioritization and partial selection of security requirements."""

from importlib import resources

from .fcl import FclError, parse_rulebase
from .fuzzy import (FuzzyRule, LinguisticVariable, NoActivationError,
                    RuleBase, TrapezoidMF, UniverseError, VariableConfig,
                    defuzzify_cog, fuzzify, infer, label, mf_eval)
from .impact import (ImpactMatrix, OracleSizeError, brute_force_impact,
                     build_srl, impact, impact_matrix)
from .model import (DerivationRule, Finding, Goal, Requirement, RiskProfile,
                    SecurityModel, ValidationReport, technical_ability,
                    validate_model)
from .pipeline import PrioritizedEntry, prioritize
from .relax import (DeviationMembership, RelaxedStatement, RenderError,
                    default_deviation, deviation_degree, relax_requirement,
                    relax_srl)
from .srm import SrmError, parse_model, serialize_model

__version__ = "0.1.0"  # pyproject.toml reads it from here


def default_rules_text() -> str:
    """The bundled default rule-base file."""
    return resources.files("paps.data").joinpath("default.rules").read_text(
        encoding="utf-8")


def obs_fixture_text() -> str:
    """The bundled online-banking-system model file."""
    return resources.files("paps.data").joinpath("obs.srm").read_text(
        encoding="utf-8")


def load_default_rulebase() -> tuple[VariableConfig, RuleBase]:
    return parse_rulebase(default_rules_text())
