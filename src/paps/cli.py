"""Command-line front end: validate, impacts, prioritize, relax.

Exit codes: 0 success, 1 validation/parse/domain failure, 2 I/O or usage.
"""

from __future__ import annotations

import sys
from typing import Callable

import click

from . import __version__, default_rules_text
from .fcl import FclError, parse_rulebase
from .fuzzy import UniverseError
from .impact import impact_matrix
from .model import validate_model
from .pipeline import prioritize, report_csv, report_json, report_table
from .relax import RenderError, relax_json, relax_srl, relax_text
from .srm import SrmError, parse_model


class _IOFailure(click.ClickException):
    exit_code = 2


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


def _load_model(path: str):
    try:
        return parse_model(_read_text(path))
    except SrmError as exc:
        _fail(f"{path}: {exc}")


def _rules_source(path: str | None) -> str:
    return path or "<default rules>"


def _load_rules(path: str | None):
    text = default_rules_text() if path is None else _read_text(path)
    try:
        return parse_rulebase(text)
    except FclError as exc:
        _fail(f"{_rules_source(path)}: {exc}")


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _check_valid(model, risk) -> None:
    report = validate_model(model, risk)
    if not report.ok:
        for finding in report.errors:
            click.echo(str(finding), err=True)
        sys.exit(1)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc


_model_arg = click.argument("model_path", type=click.Path(exists=True, dir_okay=False))
_goal_opt = click.option("--goal", "goal", default=None,
                         help="Restrict to one goal (default: all / the root).")
_rules_opt = click.option("--rules", "rules_path", default=None,
                          type=click.Path(exists=True, dir_okay=False),
                          help="Rule-base file (default: bundled rules).")
_format_opt = click.option("--format", "fmt",
                           type=click.Choice(["table", "csv", "json"]),
                           default="table", show_default=True)
_out_opt = click.option("--out", "out", default=None,
                        type=click.Path(dir_okay=False, writable=True),
                        help="Write output to a file instead of stdout.")


@click.group()
@click.version_option(__version__, prog_name="paps")
def main() -> None:
    """Prioritize and partially select security requirements of a goal model."""


@main.command()
@_model_arg
def validate(model_path: str) -> None:
    """Check a model file against all structural invariants."""
    model, risk = _load_model(model_path)
    report = validate_model(model, risk)
    for finding in report.findings:
        click.echo(str(finding))
    if report.ok:
        click.echo(f"ok: {len(model.goals)} goals, "
                   f"{len(model.requirements)} requirements, "
                   f"{len(model.rules)} rules"
                   + (f", {len(report.warnings)} warning(s)"
                      if report.warnings else ""))
    sys.exit(0 if report.ok else 1)


@main.command()
@_model_arg
@_goal_opt
@_format_opt
@_out_opt
def impacts(model_path: str, goal: str | None, fmt: str, out: str | None) -> None:
    """Print the goal x requirement impact matrix."""
    model, risk = _load_model(model_path)
    _check_valid(model, risk)
    matrix = impact_matrix(model)
    if goal is not None and goal not in matrix.goals:
        _fail(f"unknown goal {goal!r}")
    render = {"json": matrix.to_json, "csv": matrix.to_csv,
              "table": matrix.to_table}[fmt]
    _emit(render(None if goal is None else [goal]), out)


def _for_goal(model_path: str, goal: str | None, rules_path: str | None,
              run: Callable):
    """``run(model, risk, goal, config, rulebase)`` on a valid model, goal
    (default: the root) and rule base; any failure is reported on stderr
    and ends the command with exit code 1."""
    model, risk = _load_model(model_path)
    _check_valid(model, risk)
    config, rulebase = _load_rules(rules_path)
    target = goal or model.root
    if target not in model.goal_ids():
        _fail(f"unknown goal {target!r}")
    try:
        return run(model, risk, target, config, rulebase)
    except RenderError as exc:
        _fail(str(exc))
    except UniverseError as exc:
        _fail(f"{_rules_source(rules_path)}: {exc}")


@main.command("prioritize")
@_model_arg
@_goal_opt
@_rules_opt
@_format_opt
@_out_opt
def prioritize_cmd(model_path: str, goal: str | None, rules_path: str | None,
                   fmt: str, out: str | None) -> None:
    """Rank the requirements contributing to a goal (default: the root)."""
    entries = _for_goal(model_path, goal, rules_path, prioritize)
    render = {"json": report_json, "csv": report_csv,
              "table": report_table}[fmt]
    _emit(render(entries), out)


@main.command("relax")
@_model_arg
@_goal_opt
@_rules_opt
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table", show_default=True)
@_out_opt
def relax_cmd(model_path: str, goal: str | None, rules_path: str | None,
              fmt: str, out: str | None) -> None:
    """Emit relaxed requirement statements for a goal (default: the root)."""
    statements = _for_goal(model_path, goal, rules_path, relax_srl)
    render = {"json": relax_json, "table": relax_text}[fmt]
    _emit(render(statements), out)


if __name__ == "__main__":
    main()
