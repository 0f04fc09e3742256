"""Requirement-impact computation by maximin propagation over the rule DAG.

The impact of a requirement x on a goal g is the maximum over all
derivation paths g -> ... -> x of the minimum rule degree along the path.
On a DAG this is the classic widest-path problem; ``ModelGraph.impact_rows``
solves it for every node at once in one reverse-topological pass, and
everything here reads those rows.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from types import MappingProxyType

from . import render
from .model import _refuse
# ``adjacency`` is imported for bench/tracing.py, which wraps it here.
from .model import SecurityModel, adjacency  # noqa: F401

_NO_CELLS: Mapping[str, float] = {}


class _Texts(dict):
    """value -> its text, made by ``make`` on the value's first use."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[float], str]):
        super().__init__()
        self.make = make

    def __missing__(self, value: float) -> str:
        text = self[value] = self.make(value)
        return text


class ImpactMatrix(namedtuple("ImpactMatrix", "goals requirements rows")):
    """Goal x requirement impacts; ``rows`` maps a goal to its non-zero
    cells, each in (0, 1], and the requirement ids are unique."""

    __slots__ = ()

    @property
    def entries(self) -> dict[tuple[str, str], float]:
        """{(goal, requirement): impact} for every non-zero cell."""
        return {(g, r): v for g in self.goals
                for r, v in self.rows.get(g, _NO_CELLS).items()}

    # The renderers below take an optional goal list (default: all goals)
    # and yield their text a line (csv, table) or a goal block (json) at a
    # time; ``to_csv``, ``to_table`` and ``to_json`` join what they yield.

    def _lines(self, goals: Iterable[str], blank: list[str],
               texts: list[_Texts], head: Callable[[str], str] | None = None
               ) -> Iterator[list[str]]:
        """Each goal's cells: a copy of ``blank`` in which the non-zero cell
        of requirement i reads ``texts[i][value]``. With ``head`` a line
        starts with ``head(goal)``, and the requirements count from 1."""
        index = {r: i for i, r in
                 enumerate(self.requirements, 0 if head is None else 1)}
        line = blank if head is None else ["", *blank]
        texts = texts if head is None else [None, *texts]
        for g in goals:
            cells = line.copy()
            if head is not None:
                cells[0] = head(g)
            for r, v in self.rows.get(g, _NO_CELLS).items():
                i = index[r]
                cells[i] = texts[i][v]
            yield cells

    def csv_lines(self, goals: Iterable[str] | None = None) -> Iterator[str]:
        """Each line of ``to_csv``."""
        columns = self.requirements
        text = _Texts("{:.2f}".format)
        yield ",".join(["goal", *columns]) + "\n"
        for cells in self._lines(
                self.goals if goals is None else goals,
                [text[0.0]] * len(columns), [text] * len(columns), str):
            yield ",".join(cells) + "\n"

    def table_lines(self, goals: Iterable[str] | None = None
                    ) -> Iterator[str]:
        """Each line of ``to_table``: a ``render.table``. Every cell reads
        ``0.00`` to ``1.00``, so a column is as wide as its id and, when a
        goal is shown, as that text."""
        goals = list(self.goals if goals is None else goals)
        cell = len("0.00") if goals else 0
        widths = [max([len("goal"), *map(len, goals)]),
                  *(max(len(r), cell) for r in self.requirements)]
        # Cells come padded: one text table per distinct column width.
        padded = {w: _Texts(f"{{:<{w}.2f}}".format) for w in widths[1:]}
        texts = [padded[w] for w in widths[1:]]
        yield from render.table_lines(
            ["goal", *self.requirements], self._lines(
                goals, [t[0.0] for t in texts], texts,
                lambda g: g.ljust(widths[0])), widths)

    def json_blocks(self, goals: Iterable[str] | None = None
                    ) -> Iterator[str]:
        """Each goal's block of ``to_json``, its line break included, with
        the opening and closing brace lines around them."""
        import json  # here, not at module level: only json output needs it

        dumps = json.dumps
        goals = tuple(dict.fromkeys(self.goals if goals is None else goals))
        if not goals:
            yield "{}\n"
            return
        # One text table per column, its "    \"R12\": " prefix applied to
        # the value's text, which every column shares.
        value = _Texts(dumps)
        texts = [_Texts(lambda v, p=f"    {dumps(r)}: ": p + value[v])
                 for r in self.requirements]
        last = goals[-1]
        yield "{\n"
        for g, cells in zip(goals, self._lines(
                goals, [t[0.0] for t in texts], texts)):
            body = "{\n" + ",\n".join(cells) + "\n  }" if cells else "{}"
            yield f"  {dumps(g)}: {body}{',' if g != last else ''}\n"
        yield "}\n"

    def to_csv(self, goals: Iterable[str] | None = None) -> str:
        return "".join(self.csv_lines(goals))

    def to_table(self, goals: Iterable[str] | None = None) -> str:
        return "".join(self.table_lines(goals))

    def to_json(self, goals: Iterable[str] | None = None) -> str:
        """What ``json.dumps(matrix, indent=2) + "\\n"`` writes for the
        dense ``{goal: {requirement: impact}}`` matrix of the shown goals.

        Written here rather than through ``render``: on a 500 x 1000
        matrix ``json.dumps`` of the whole dict takes 0.6-1.0 s, this
        sparse writer 27-46 ms (CPython 3.11, 2-vCPU x86-64 host).
        """
        return "".join(self.json_blocks(goals))


def impact(model: SecurityModel, goal: str, requirement: str) -> float:
    """Max over derivation paths of the min rule degree; 0 if no path."""
    graph = model.graph
    rows = graph.impact_rows
    if goal not in graph.goals and goal not in graph.requirements:
        raise KeyError(f"unknown node {goal!r}")
    if requirement not in graph.requirements:
        raise KeyError(f"unknown requirement {requirement!r}")
    return rows.get(goal, _NO_CELLS).get(requirement, 0.0)


def impact_matrix(model: SecurityModel) -> ImpactMatrix:
    """Every goal's impacts; undeclared nodes are laid out as any other,
    a repeated id, a degree outside [0, 1] or a cycle refused."""
    rows = model.graph.impact_rows
    goals = tuple(g.id for g in model.sorted_goals())
    requirements = tuple(r.id for r in model.sorted_requirements())
    # Read-only views: the rows stay cached on the model.
    return ImpactMatrix(goals, requirements, {
        g: MappingProxyType(rows[g]) for g in goals if g in rows})


def build_srl(model: SecurityModel,
              goal: str) -> tuple[tuple[str, float], ...]:
    """(requirement, impact) for every requirement with positive impact on
    the goal, strongest first, ties in natural requirement id order. A
    model that ``validate_model`` reports an error for is refused with the
    graph's first error, before the goal is looked up (``P3: requirement
    R1 used as rule head``)."""
    return tuple(sorted(_goal_row(model, goal).items(),
                        key=_strongest_first(model)))


def _goal_row(model: SecurityModel, goal: str) -> Mapping[str, float]:
    """The goal's non-zero impacts in stored order, after ``build_srl``'s
    refusals of a model error and an unknown goal."""
    graph = model.graph
    if graph.error is not None:
        _refuse(graph.error)
    if goal not in graph.goals:
        raise KeyError(f"unknown goal {goal!r}")
    return graph.impact_rows.get(goal, _NO_CELLS)


def _strongest_first(model: SecurityModel
                     ) -> Callable[[tuple], tuple[float, int]]:
    """``build_srl``'s sort key of a tuple that starts (requirement,
    impact): highest impact first, ties in natural requirement id order."""
    rank = model._requirement_ranks
    return lambda e: (-e[1], rank[e[0]])
