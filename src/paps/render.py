"""The output layouts every command prints: fixed-width tables, csv, json.

Cells arrive as strings; how a value is formatted (``0.65``, ``0.3600``)
is the caller's choice. Ids and term names are ASCII by the ``.srm`` and
``.rules`` grammars, so no cell needs csv quoting.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def table(header: Sequence[str], rows: Iterable[Sequence[str]],
          widths: Sequence[int] | None = None) -> str:
    """Columns two spaces apart, a dash rule under the header, trailing
    blanks stripped.

    Without ``widths`` each column is as wide as its widest cell. With
    ``widths`` the row cells must already be padded to them; only the
    header is padded here.
    """
    if widths is None:
        rows = list(rows)
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        rows = ([c.ljust(w) for c, w in zip(row, widths)] for row in rows)
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(row).rstrip() for row in rows)
    return "\n".join(lines) + "\n"


def csv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Comma-separated cells, one line per row after the header."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def json_rows(rows: list) -> str:
    import json  # here, not at module level: only json output needs it
    return json.dumps(rows, indent=2, ensure_ascii=False) + "\n"
