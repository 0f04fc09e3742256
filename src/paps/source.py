"""Positions, numbers and lines shared by the .srm and .rules parsers."""

from __future__ import annotations

import math
from collections.abc import Iterator

# ASCII digits only: ``\d`` and ``float`` also take other scripts' digits
NUMBER = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)"


class ParseError(Exception):
    """Parse failure with a 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message

    @classmethod
    def number(cls, text: str, line: int, column: int) -> float:
        """``text``, matched by ``NUMBER``, as a float; a digit string too
        long for a float is this class's error at (line, column)."""
        value = float(text)
        if math.isinf(value):
            raise cls(line, column, "number too large")
        return value


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, as ``str.splitlines`` gives them, but ended
    only by LF, CRLF or CR, as an editor counts them; ``splitlines`` also
    breaks at VT, FF, U+001C-U+001E, U+0085, U+2028 and U+2029."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # the text ends with a line break, or is empty
    return lines


def column(raw: str) -> int:
    """The column of the first non-blank character of the line ``raw``."""
    return len(raw) - len(raw.lstrip()) + 1


def nonblank_lines(lines: list[str]) -> Iterator[tuple[int, int, str]]:
    """(line, ``column``, stripped text) of each of ``lines``, as
    ``split_lines`` gives them, that is not blank."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield lineno, column(raw), line
