"""The output layouts every command prints: fixed-width tables, csv, json.

Cells arrive as strings; how a value is formatted (``0.65``, ``0.3600``)
is the caller's choice. Ids and term names are ASCII by the ``.srm`` and
``.rules`` grammars, so no cell needs csv quoting.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


def table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Columns two spaces apart, each as wide as its widest cell, a dash
    rule under the header, trailing blanks stripped."""
    rows = list(rows)
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "".join(table_lines(
        header, ([c.ljust(w) for c, w in zip(row, widths)] for row in rows),
        widths))


def table_lines(header: Sequence[str], rows: Iterable[Sequence[str]],
                widths: Sequence[int]) -> Iterator[str]:
    """Each line of a table whose row cells are already padded to
    ``widths``, its line break included, made as ``rows`` yields; only the
    header is padded here."""
    yield "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n"
    yield "  ".join("-" * w for w in widths) + "\n"
    for row in rows:
        yield "  ".join(row).rstrip() + "\n"


def csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Comma-separated cells, one line per row after the header."""
    return "".join(csv_lines(header, rows))


def csv_lines(header: Sequence[str], rows: Iterable[Sequence[str]]
              ) -> Iterator[str]:
    """Each line of ``csv``, its line break included, as ``rows`` yields."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(row) + "\n"


def json_rows(rows: list) -> str:
    import json  # here, not at module level: only json output needs it
    return json.dumps(rows, indent=2, ensure_ascii=False) + "\n"
