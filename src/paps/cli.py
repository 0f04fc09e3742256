"""Command-line front end: validate, impacts, prioritize, relax.

Exit codes: 0 success, 1 validation/parse/domain failure, 2 I/O or usage.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from collections.abc import Callable

from . import __version__, default_rules_text
from .fcl import parse_rulebase
from .fuzzy import UniverseError
from .impact import impact_matrix
from .model import validate_model
from .pipeline import prioritize, report_csv, report_json, report_table
from .relax import RenderError, relax_json, relax_srl, relax_text
from .source import ParseError, split_lines
from .srm import parse_model


def _fail(message: str, code: int = 1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _read_text(path: str) -> str:
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines split as the parsers split them, columns count characters;
        # "x" stands for the bad byte, so a line break just before it counts.
        lines = split_lines(data[:exc.start].decode("utf-8") + "x")
        raise ParseError(len(lines), len(lines[-1]), "not UTF-8 text")


def _load(parse: Callable, path: str | None):
    """``parse`` of the file at ``path`` (None: the bundled rules); a file
    that does not parse ends the command with exit code 1."""
    try:
        return parse(default_rules_text() if path is None else _read_text(path))
    except ParseError as exc:
        _fail(f"{path or '<default rules>'}: {exc}")


def _check_valid(model, risk) -> None:
    report = validate_model(model, risk)
    if not report.ok:
        for finding in report.errors:
            print(finding, file=sys.stderr)
        sys.exit(1)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _validate(model_path: str) -> None:
    """Check a model file against all structural invariants."""
    model, risk = _load(parse_model, model_path)
    report = validate_model(model, risk)
    for finding in report.findings:
        print(finding)
    if not report.ok:
        sys.exit(1)
    print(f"ok: {len(model.goals)} goals, {len(model.requirements)} "
          f"requirements, {len(model.rules)} rules"
          + (f", {len(report.warnings)} warning(s)" if report.warnings else ""))


def _impacts(model_path: str, goal: str | None, fmt: str,
             out: str | None) -> None:
    """Print the goal x requirement impact matrix."""
    model, risk = _load(parse_model, model_path)
    _check_valid(model, risk)
    matrix = impact_matrix(model)
    if goal is not None and goal not in matrix.goals:
        _fail(f"unknown goal {goal!r}")
    render = {"json": matrix.to_json, "csv": matrix.to_csv,
              "table": matrix.to_table}[fmt]
    _emit(render(None if goal is None else [goal]), out)


def _for_goal(model_path: str, goal: str | None, rules: str | None,
              run: Callable):
    """``run(model, risk, goal, config, rulebase)`` on a valid model, goal
    (default: the root) and rule base; any failure is reported on stderr
    and ends the command with exit code 1."""
    model, risk = _load(parse_model, model_path)
    _check_valid(model, risk)
    config, rulebase = _load(parse_rulebase, rules)
    target = goal or model.root
    if target not in model.goal_ids():
        _fail(f"unknown goal {target!r}")
    try:
        return run(model, risk, target, config, rulebase)
    except RenderError as exc:
        _fail(str(exc))
    except UniverseError as exc:
        _fail(f"{rules or '<default rules>'}: {exc}")


def _prioritize(model_path: str, goal: str | None, rules: str | None,
                fmt: str, out: str | None) -> None:
    """Rank the requirements contributing to a goal (default: the root)."""
    entries = _for_goal(model_path, goal, rules, prioritize)
    render = {"json": report_json, "csv": report_csv,
              "table": report_table}[fmt]
    _emit(render(entries), out)


def _relax(model_path: str, goal: str | None, rules: str | None,
           fmt: str, out: str | None) -> None:
    """Emit relaxed requirement statements for a goal (default: the root)."""
    statements = _for_goal(model_path, goal, rules, relax_srl)
    render = {"json": relax_json, "table": relax_text}[fmt]
    _emit(render(statements), out)


# (option, metavar, help)
_GOAL = ("--goal", "ID", "Restrict to one goal (default: all / the root).")
_RULES = ("--rules", "FILE", "Rule-base file (default: bundled rules).")
# command -> (its body, whose docstring is its help; the options it takes
# besides --format and --out; its --format choices, none for no output)
_COMMANDS = {
    "validate": (_validate, (), ()),
    "impacts": (_impacts, (_GOAL,), ("table", "csv", "json")),
    "prioritize": (_prioritize, (_GOAL, _RULES), ("table", "csv", "json")),
    "relax": (_relax, (_GOAL, _RULES), ("table", "json")),
}


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, add_help=False, allow_abbrev=False,
        description="Prioritize and partially select security requirements "
                    "of a goal model.")
    parser.add_argument("--version", action="version",
                        version=f"paps, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND",
                                     required=True)
    for name, (body, options, formats) in _COMMANDS.items():
        command = commands.add_parser(
            name, help=body.__doc__, description=body.__doc__,
            add_help=False, allow_abbrev=False)
        command.set_defaults(body=body)
        command.add_argument("model_path", metavar="MODEL",
                             help="Model file (.srm).")
        for option, metavar, text in options:
            command.add_argument(option, metavar=metavar, help=text)
        if formats:
            command.add_argument("--format", dest="fmt", choices=formats,
                                 default="table", help="(default: table)")
            command.add_argument("--out", metavar="FILE", help="Write output "
                                 "to a file instead of stdout.")
        command.add_argument("--help", action="help",
                             help="Show this message and exit.")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None):
    """Run one ``paps`` command line (default: ``sys.argv[1:]``); every run
    ends in ``SystemExit`` with the exit code."""
    for stream in sys.stdout, sys.stderr:
        # A stream set to ASCII (the C locale without UTF-8 mode) writes
        # UTF-8 instead, so relax's multiplication sign still prints.
        if codecs.lookup(getattr(stream, "encoding", None)
                         or "utf-8").name == "ascii":
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    try:
        try:
            options = vars(_parser(prog_name or "paps").parse_args(args))
            options.pop("body")(**options)
        finally:
            sys.stdout.flush()  # a closed pipe fails here, not at shutdown
    except BrokenPipeError:
        # stdout's reader has gone: stop quietly, and point stdout at
        # devnull so the interpreter's own flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OSError as exc:  # a model, --rules or --out that cannot be used
        _fail(str(exc), code=2)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
