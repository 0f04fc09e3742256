"""Run ``paps.cli.main`` in-process and capture what it writes.

``invoke(args)`` calls ``main(list(args))`` with stdout and stderr
redirected and returns a ``Result``: the exit code, each stream, both
interleaved in write order (``output``), and the ``SystemExit`` of a
non-zero exit (``exception``). Any other exception propagates, so a
traceback fails the test that caused it.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from paps.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: SystemExit | None


class _Stream(io.StringIO):
    """A captured stream that also copies every write into ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(args) -> Result:
    both = io.StringIO()
    out, err = _Stream(both), _Stream(both)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            exception = exc if code else None
        else:
            raise AssertionError("main returned instead of exiting")
    return Result(code, out.getvalue(), err.getvalue(), both.getvalue(),
                  exception)
