"""Goal-based prioritization and partial selection of security requirements."""

import os

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


def _data_text(name: str) -> str:
    """A file of the bundled ``data`` directory, read through the package's
    own loader (as ``pkgutil.get_data`` does), so it also works from a zip.
    ``importlib.resources`` would do the same but costs tens of ms to
    import."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __loader__.get_data(path).decode("utf-8")


def default_rules_text() -> str:
    """The bundled default rule-base file."""
    return _data_text("default.rules")


def obs_fixture_text() -> str:
    """The bundled online-banking-system model file."""
    return _data_text("obs.srm")


def load_default_rulebase() -> tuple[VariableConfig, RuleBase]:
    return parse_rulebase(default_rules_text())
