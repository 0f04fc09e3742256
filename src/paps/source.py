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


def nonblank_lines(text: str) -> Iterator[tuple[int, int, str]]:
    """(line, column of the first non-blank character, stripped text) of
    each line of ``text`` that is not blank."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, len(raw) - len(raw.lstrip()) + 1, line
