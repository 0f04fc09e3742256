"""Requirement-impact computation by maximin propagation over the rule DAG.

The impact of a requirement x on a goal g is the maximum over all
derivation paths g -> ... -> x of the minimum rule degree along the path.
On a DAG this is the classic widest-path problem; ``ModelGraph.impact_rows``
solves it for every node at once in one reverse-topological pass, and
everything here reads those rows.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cache
from itertools import chain
from types import MappingProxyType

from . import render
# ``adjacency`` is imported for bench/tracing.py, which wraps it here.
from .model import SecurityModel, adjacency  # noqa: F401

_NO_CELLS: Mapping[str, float] = {}


class ImpactMatrix(namedtuple("ImpactMatrix", "goals requirements rows")):
    """Goal x requirement impacts; ``rows`` maps a goal to its non-zero
    cells."""

    __slots__ = ()

    @property
    def entries(self) -> dict[tuple[str, str], float]:
        """{(goal, requirement): impact} for every non-zero cell."""
        return {(g, r): v for g in self.goals
                for r, v in self.rows.get(g, _NO_CELLS).items()}

    # The renderers below take an optional goal list (default: all goals)
    # and format each distinct value once, through a ``functools.cache``
    # made per call; a goal's line starts from a copy of the all-zero line
    # and only its non-zero cells are filled in.

    def _lines(self, goals: Iterable[str], columns: tuple[str, ...],
               blank: list[str], cell: Callable[[int, float], str],
               head: Callable[[str], str] | None = None
               ) -> Iterator[list[str]]:
        """Each goal's cells, ``cell(i, value)`` in column i. With ``head``
        a line starts with ``head(goal)``, and the columns count from 1."""
        start = 0 if head is None else 1
        index: dict[str, int] = {}
        repeats = []  # (column, earlier column with the same id)
        for i, r in enumerate(columns, start):
            if r in index:
                repeats.append((i, index[r]))
            else:
                index[r] = i
        line = blank if head is None else ["", *blank]
        for g in goals:
            cells = line.copy()
            if head is not None:
                cells[0] = head(g)
            for r, v in self.rows.get(g, _NO_CELLS).items():
                i = index[r]
                cells[i] = cell(i, v)
            for i, j in repeats:
                cells[i] = cells[j]
            yield cells

    def to_csv(self, goals: Iterable[str] | None = None) -> str:
        text = cache("{:.2f}".format)
        return render.csv(["goal", *self.requirements], self._lines(
            self.goals if goals is None else goals, self.requirements,
            [text(0.0)] * len(self.requirements), lambda i, v: text(v),
            str))

    def to_table(self, goals: Iterable[str] | None = None) -> str:
        """A ``render.table``, its columns sized to the shown goals."""
        goals = list(self.goals if goals is None else goals)
        text = cache("{:.2f}".format)
        zero = text(0.0)
        # A column is as wide as its id, its shown cells and, when some
        # shown goal has no cell in it, the zero text.
        shown = [self.rows.get(g, _NO_CELLS) for g in goals]
        size = {v: len(text(v)) for v in set().union(
            *(row.values() for row in shown))}
        width = {r: len(r) for r in self.requirements}
        for row in shown:
            for r, v in row.items():
                if size[v] > width[r]:
                    width[r] = size[v]
        filled = Counter(chain.from_iterable(shown))
        for r in width:
            if filled[r] < len(goals) and width[r] < len(zero):
                width[r] = len(zero)
        widths = [max([len("goal"), *map(len, goals)]),
                  *(width[r] for r in self.requirements)]
        # Cells are padded as they are made: the blank line once, a
        # non-zero cell when it is filled in.
        return render.table(["goal", *self.requirements], self._lines(
            goals, self.requirements, [zero.ljust(w) for w in widths[1:]],
            lambda i, v: text(v).ljust(widths[i]),
            lambda g: g.ljust(widths[0])), widths)

    def to_json(self, goals: Iterable[str] | None = None) -> str:
        """What ``json.dumps(matrix, indent=2) + "\\n"`` writes for the
        dense ``{goal: {requirement: impact}}`` matrix of the shown goals.

        Written here rather than through ``render``: on a 500 x 1000
        matrix ``json.dumps`` of the whole dict takes 0.6-1.0 s, this
        sparse writer 45-75 ms (CPython 3.11, 2-vCPU x86-64 host).
        """
        import json  # here, not at module level: only json output needs it

        goals = dict.fromkeys(self.goals if goals is None else goals)
        columns = tuple(dict.fromkeys(self.requirements))
        text = cache(json.dumps)
        prefix = [f"    {json.dumps(r)}: " for r in columns]
        blocks = []
        for g, cells in zip(goals, self._lines(
                goals, columns, [p + text(0.0) for p in prefix],
                lambda i, v: prefix[i] + text(v))):
            body = "{\n" + ",\n".join(cells) + "\n  }" if cells else "{}"
            blocks.append(f"  {json.dumps(g)}: {body}")
        if not blocks:
            return "{}\n"
        return "{\n" + ",\n".join(blocks) + "\n}\n"


def impact(model: SecurityModel, goal: str, requirement: str) -> float:
    """Max over derivation paths of the min rule degree; 0 if no path."""
    requirements = model._requirements_by_id
    if goal not in model._goals_by_id and goal not in requirements:
        raise KeyError(f"unknown node {goal!r}")
    if requirement not in requirements:
        raise KeyError(f"unknown requirement {requirement!r}")
    return model.graph.impact_rows.get(goal, _NO_CELLS).get(requirement, 0.0)


def impact_matrix(model: SecurityModel) -> ImpactMatrix:
    rows = model.graph.impact_rows
    goals = tuple(g.id for g in model.sorted_goals())
    requirements = tuple(r.id for r in model.sorted_requirements())
    # Read-only views: the rows stay cached on the model.
    return ImpactMatrix(goals, requirements, {
        g: MappingProxyType(rows[g]) for g in goals if g in rows})


def build_srl(model: SecurityModel,
              goal: str) -> tuple[tuple[str, float], ...]:
    """(requirement, impact) for every requirement with positive impact on
    the goal, strongest first."""
    if goal not in model._goals_by_id:
        raise KeyError(f"unknown goal {goal!r}")
    row = model.graph.impact_rows.get(goal, _NO_CELLS)
    # Requirements in natural id order, then a stable sort: strongest first,
    # ties in natural id order.
    entries = [(r.id, row[r.id])
               for r in model._sorted_requirements if r.id in row]
    entries.sort(key=lambda e: -e[1])
    return tuple(entries)
