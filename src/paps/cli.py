"""Command-line front end: validate, impacts, prioritize, relax.

Exit codes: 0 success, 1 validation/parse/domain failure, 2 I/O or usage.
A command whose stdout is closed (its reader gone, or file descriptor 1
closed at start) exits 1 with nothing on stderr, as do ``--help`` and
``--version``. With stderr closed, errors are dropped, not sent to stdout.

``main`` runs one command line and raises ``SystemExit``, for in-process
callers; ``run`` is the process entry point (``paps`` and ``python -m
paps.cli``).

A plain command line (a command, its model and its own options, each with
a value) is read directly. Any other goes to argparse, imported only then,
so help, version and usage-error text are all argparse's own.
"""

from __future__ import annotations

import codecs
import functools
import io
import os
import sys
from collections.abc import Callable, Iterable

from . import __version__, default_rules_text
from .fcl import parse_rulebase
from .fuzzy import UniverseError
from .impact import impact_matrix
from .model import validate_model
from .pipeline import prioritize, report_csv, report_json, report_table
from .relax import RenderError, relax_json, relax_srl, relax_text
from .source import ParseError, split_lines
from .srm import parse_model


def _warn(text: str) -> None:
    """``text`` on stderr; nowhere if file descriptor 2 was closed at start."""
    if sys.stderr is not None:
        print(text, file=sys.stderr)


def _fail(message: str, code: int = 1):
    _warn(f"error: {message}")
    sys.exit(code)


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at ``path``; its byte-order mark, if any,
    is left for the parsers to ignore."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines split as the parsers split them, columns count characters;
        # "x" stands for the bad byte, so a line break just before it counts.
        lines = split_lines(data[:exc.start].decode("utf-8")
                            .removeprefix("\ufeff") + "x")
        raise ParseError(len(lines), len(lines[-1]), "not UTF-8 text")


def _load(parse: Callable, path: str | None):
    """``parse`` of the file at ``path`` (None: the bundled rules); a file
    that does not parse ends the command with exit code 1."""
    try:
        return parse(default_rules_text() if path is None else _read_text(path))
    except ParseError as exc:
        _fail(f"{path or '<default rules>'}: {exc}")


def _valid_model(model_path: str):
    """The model and risk profile of the file at ``model_path``; one that
    does not parse or validate ends the command with exit code 1."""
    model, risk = _load(parse_model, model_path)
    report = validate_model(model, risk)
    if not report.ok:
        _warn("\n".join(map(str, report.errors)))
        sys.exit(1)
    return model, risk


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write each chunk, as it comes, to stdout or to the file ``out``."""
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    elif sys.stdout is None:  # file descriptor 1 was closed at start
        raise BrokenPipeError
    else:
        sys.stdout.writelines(chunks)


def _validate(model_path: str) -> None:
    """Check a model file against all structural invariants."""
    model, risk = _load(parse_model, model_path)
    report = validate_model(model, risk)
    lines = [f"{finding}\n" for finding in report.findings]
    if report.ok:
        warnings = (f", {len(report.warnings)} warning(s)"
                    if report.warnings else "")
        lines.append(f"ok: {len(model.goals)} goals, {len(model.requirements)}"
                     f" requirements, {len(model.rules)} rules{warnings}\n")
    _emit(lines, None)
    if not report.ok:
        sys.exit(1)


def _impacts(model_path: str, goal: str | None, fmt: str,
             out: str | None) -> None:
    """Print the goal x requirement impact matrix."""
    model, _ = _valid_model(model_path)
    matrix = impact_matrix(model)
    if goal is not None and goal not in matrix.goals:
        _fail(f"unknown goal {goal!r}")
    chunks = {"json": matrix.json_blocks, "csv": matrix.csv_lines,
              "table": matrix.table_lines}[fmt]
    _emit(chunks(None if goal is None else [goal]), out)


def _for_goal(model_path: str, goal: str | None, rules: str | None,
              run: Callable):
    """``run(model, risk, goal, config, rulebase)`` on a valid model, goal
    (default: the root) and rule base; any failure is reported on stderr
    and ends the command with exit code 1."""
    model, risk = _valid_model(model_path)
    config, rulebase = _load(parse_rulebase, rules)
    target = model.root if goal is None else goal
    if target not in model.graph.goals:
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
    _emit([render(entries)], out)


def _relax(model_path: str, goal: str | None, rules: str | None,
           fmt: str, out: str | None) -> None:
    """Emit relaxed requirement statements for a goal (default: the root)."""
    statements = _for_goal(model_path, goal, rules, relax_srl)
    render = {"json": relax_json, "table": relax_text}[fmt]
    _emit([render(statements)], out)


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


def _plain(args: list[str]) -> dict | None:
    """``vars(_parser(prog).parse_args(args))`` for a plain command line,
    read without argparse; None for any other, which argparse parses.

    Plain is a ``_COMMANDS`` name, then one MODEL and only that command's
    own options, in any order, each spelled in full and followed by its
    value. Neither MODEL nor a value is empty or starts with ``-``, and a
    ``--format`` value is one of the command's choices. A repeated option
    keeps its last value, as in argparse.
    """
    if not args or args[0] not in _COMMANDS:
        return None
    body, options, formats = _COMMANDS[args[0]]
    dests = {option: option[2:] for option, _, _ in options}
    parsed = dict.fromkeys(dests.values())
    if formats:
        dests.update({"--format": "fmt", "--out": "out"})
        parsed.update(fmt="table", out=None)
    parsed.update(body=body, model_path=None)
    tokens = iter(args[1:])
    for token in tokens:
        dest = dests.get(token)
        if dest is not None:
            token = next(tokens, "")
        elif parsed["model_path"] is None:
            dest = "model_path"
        else:  # a second MODEL, or an option not spelled out
            return None
        if not token or token[0] == "-" or (
                dest == "fmt" and token not in formats):
            return None
        parsed[dest] = token
    return None if parsed["model_path"] is None else parsed


def _help_width() -> int:
    """The width argparse's help formatter would use: the columns that
    ``shutil.get_terminal_size`` finds (``COLUMNS``, else the terminal on
    ``sys.__stdout__``, else 80), less two. Found here once per parser, as
    the formatter itself imports ``shutil`` and asks the terminal again for
    every argument added."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return (columns or 80) - 2


def _parser(prog: str):
    """The ``argparse`` parser of the whole command line: the only source
    of help, version and usage-error text."""
    import argparse  # here only: a plain command line never loads it

    class Parser(argparse.ArgumentParser):
        """argparse writes to the other stream where one is None (its file
        descriptor closed at start). Here a usage error then prints
        nothing, and help or version text fails as a command's output
        does."""

        def error(self, message):
            if sys.stderr is None:
                sys.exit(2)
            super().error(message)

        def _print_message(self, message, file=None):
            if file is None:  # help or version text, with no stdout
                raise BrokenPipeError
            super()._print_message(message, file)

    formatter = functools.partial(argparse.HelpFormatter, width=_help_width())
    parser = Parser(
        prog=prog, add_help=False, allow_abbrev=False,
        formatter_class=formatter,
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
            add_help=False, allow_abbrev=False, formatter_class=formatter)
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
    args = sys.argv[1:] if args is None else list(args)
    try:
        try:
            options = _plain(args)
            if options is None:
                options = vars(_parser(prog_name or "paps").parse_args(args))
            options.pop("body")(**options)
        finally:
            if sys.stdout is not None:
                sys.stdout.flush()  # a closed pipe fails here, not at shutdown
    except BrokenPipeError:
        # stdout's reader has gone (or there is no stdout): stop quietly,
        # and point stdout at devnull so the interpreter's own flush at exit
        # has nowhere to fail
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        sys.exit(1)
    except OSError as exc:  # a model, --rules or --out that cannot be used
        _fail(str(exc), code=2)
    except KeyboardInterrupt:
        _warn("\nAborted!")
        sys.exit(1)
    sys.exit(0)


def run() -> None:
    """The ``paps`` process: ``main``, then flush both streams and end the
    process with ``main``'s exit code, skipping interpreter teardown.

    ``paps`` registers no ``atexit`` handler and closes an ``--out`` file
    in its ``with`` block, so after the flush nothing is left to write. Any
    exception other than ``SystemExit`` propagates with its traceback.

    A raw stdout (``PYTHONUNBUFFERED``) gets a ``BufferedWriter``, which
    retries the short writes the text layer would drop.
    """
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(out.buffer), out.encoding, out.errors, "\n",
            out.line_buffering)
    try:
        main()
    except SystemExit as exc:
        code = exc.code
    # the interpreter's rules for a SystemExit code
    if code is None:
        code = 0
    elif not isinstance(code, int):
        _warn(str(code))
        code = 1
    for stream in sys.stdout, sys.stderr:
        if stream is not None:  # None: its file descriptor was closed at start
            try:
                stream.flush()
            except (OSError, ValueError):
                code = 1  # quietly, as for a closed pipe in main
    os._exit(code)


if __name__ == "__main__":
    run()
