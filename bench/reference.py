"""Reference answers the benchmark checks the program's outputs against.

None of this imports ``paps``: the widest-path search, the renderers and
the centroid quadrature are written independently from the model and rule
data, so a fault in the program cannot also hide in its reference.
"""

from __future__ import annotations

import heapq
import json
import math
import re

# The worked OBS impact matrix, transcribed by hand from the paper's
# derivation rules (same values as the test suite's frozen table; the
# paper prints 0.65 for (G9, R8), the propagation formula gives 0.60).
OBS_REQS = [f"R{i}" for i in range(1, 13)]
OBS_GOALS = ["S"] + [f"G{i}" for i in range(1, 14)]
OBS_MATRIX = {
    "S":   [0.85, 0.75, 0.75, 0.85, 0.65, 0.65, 0.65, 0.60, 0.80, 0.40, 0.90, 0.90],
    "G1":  [0.85, 0.75, 0.75, 0.85, 0.65, 0.65, 0.65, 0.60, 0.80, 0.40, 0.90, 0.00],
    "G2":  [0.85, 0.75, 0.75, 0.85, 0.65, 0.65, 0.65, 0.60, 0.00, 0.00, 0.00, 0.00],
    "G3":  [0.00, 0.75, 0.75, 0.85, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00],
    "G4":  [0.00, 0.75, 0.75, 0.90, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00],
    "G5":  [0.00, 0.00, 0.00, 0.00, 0.65, 0.65, 0.65, 0.60, 0.00, 0.00, 0.00, 0.00],
    "G6":  [0.00, 0.00, 0.00, 0.00, 0.60, 0.60, 0.60, 0.60, 0.00, 0.00, 0.00, 0.00],
    "G7":  [0.00, 0.00, 0.00, 0.00, 0.70, 0.80, 0.90, 0.00, 0.00, 0.00, 0.00, 0.00],
    "G8":  [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.60, 0.00, 0.00, 0.00, 0.00],
    "G9":  [0.00, 0.00, 0.00, 0.00, 0.65, 0.65, 0.65, 0.60, 0.00, 0.00, 0.00, 0.00],
    "G10": [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.80, 0.40, 0.00, 0.00],
    "G11": [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.80, 0.00, 0.00, 0.00],
    "G12": [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.90, 0.00],
    "G13": [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.90],
}


def natural_key(node_id: str) -> tuple:
    return tuple(int(p) if p.isdigit() else p
                 for p in re.split(r"(\d+)", node_id) if p)


# --- widest paths ---------------------------------------------------------

def collapsed_edges(edges: dict[str, list[tuple[str, float]]]) -> dict[str, dict[str, float]]:
    """head -> child -> degree, duplicate edges collapsed to their maximum."""
    out: dict[str, dict[str, float]] = {}
    for head, pairs in edges.items():
        row = out.setdefault(head, {})
        for child, degree in pairs:
            row[child] = max(row.get(child, 0.0), degree)
    return out


def widest_rows(edges: dict[str, dict[str, float]], goals: list[str],
                reqs: set[str]) -> dict[str, dict[str, float]]:
    """Every goal's row of positive impacts, children before parents.

    row(g)[r] = max over children c of min(degree(g, c), row(c)[r]).
    """
    rows: dict[str, dict[str, float]] = {}
    for start in goals:
        stack = [start]
        while stack:
            node = stack[-1]
            if node in rows:
                stack.pop()
                continue
            pending = [c for c in edges.get(node, {})
                       if c not in reqs and c not in rows]
            if pending:
                stack.extend(pending)
                continue
            row: dict[str, float] = {}
            for child, degree in edges.get(node, {}).items():
                if child in reqs:
                    if degree > row.get(child, 0.0):
                        row[child] = degree
                    continue
                for req, width in rows[child].items():
                    value = min(degree, width)
                    if value > row.get(req, 0.0):
                        row[req] = value
            rows[node] = {r: w for r, w in row.items() if w > 0.0}
            stack.pop()
    return rows


def bottleneck_search(edges: dict[str, dict[str, float]], source: str) -> dict[str, float]:
    """Widest-path widths from ``source`` by a best-first (Dijkstra-style) search."""
    best = {source: math.inf}
    heap = [(-math.inf, source)]
    done = set()
    while heap:
        neg, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for child, degree in edges.get(node, {}).items():
            width = min(-neg, degree)
            if width > best.get(child, 0.0):
                best[child] = width
                heapq.heappush(heap, (-width, child))
    best.pop(source)
    return {n: w for n, w in best.items() if w > 0.0}


# --- renderers for `paps impacts` -------------------------------------------

def impacts_csv(goals: list[str], reqs: list[str], rows) -> str:
    lines = ["goal," + ",".join(reqs)]
    for g in goals:
        row = rows[g]
        lines.append(g + "," + ",".join(f"{row.get(r, 0.0):.2f}" for r in reqs))
    return "\n".join(lines) + "\n"


def impacts_json(goals: list[str], reqs: list[str], rows) -> str:
    return json.dumps({g: {r: rows[g].get(r, 0.0) for r in reqs} for g in goals},
                      indent=2) + "\n"


def impacts_table(goals: list[str], reqs: list[str], rows) -> str:
    header = ["goal"] + reqs
    body = [[g] + [f"{rows[g].get(r, 0.0):.2f}" for r in reqs] for g in goals]
    widths = [max(len(header[i]), *(len(b[i]) for b in body)) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(header, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(c.ljust(w) for c, w in zip(b, widths)).rstrip() for b in body]
    return "\n".join(lines) + "\n"


# --- Mamdani inference by quadrature -----------------------------------------

# The bundled default rule base: three inputs sharing one term set, and the
# output terms, as (x0, x1, x2, x3) trapezoids on [0, 1].
INPUT_TERMS = {"low": (0.0, 0.0, 0.25, 0.5), "medium": (0.25, 0.45, 0.55, 0.75),
               "high": (0.5, 0.75, 1.0, 1.0)}
OUTPUT_TERMS = {"optional": (0.0, 0.0, 0.1, 0.37), "weak": (0.1, 0.2, 0.3, 0.4),
                "normal": (0.35, 0.5, 0.6, 0.75), "strong": (0.53, 0.79, 1.0, 1.0)}
# (impact, cost, tech) -> output term, the 27 rules of the default rule base.
_RULE_ROWS = """
high low high strong | high low medium strong | high low low normal
high medium high strong | high medium medium normal | high medium low weak
high high high normal | high high medium weak | high high low optional
medium low high normal | medium low medium normal | medium low low weak
medium medium high normal | medium medium medium weak | medium medium low weak
medium high high weak | medium high medium weak | medium high low optional
low low high weak | low low medium weak | low low low weak
low medium high weak | low medium medium weak | low medium low optional
low high high optional | low high medium optional | low high low optional
"""
RULES = [tuple(cell.split()) for cell in _RULE_ROWS.replace("\n", "|").split("|")
         if cell.strip()]
QUADRATURE_POINTS = 4000
# Midpoint quadrature of the piecewise-linear aggregate with this many points
# is accurate to about 1e-6; the program prints RDS rounded to 4 decimals.
RDS_TOLERANCE = 5e-4


def trapezoid(mf: tuple[float, float, float, float], x: float) -> float:
    x0, x1, x2, x3 = mf
    if x < x0 or x > x3:
        return 0.0
    if x < x1:
        return (x - x0) / (x1 - x0)
    if x <= x2:
        return 1.0
    return (x3 - x) / (x3 - x2)


def reference_rds(impact: float, cost: float, tech: float) -> float:
    """Centre of gravity of the clipped-and-maxed output, by midpoint quadrature."""
    act: dict[str, float] = {}
    for imp_t, cost_t, tech_t, out_t in RULES:
        strength = min(trapezoid(INPUT_TERMS[imp_t], impact),
                       trapezoid(INPUT_TERMS[cost_t], cost),
                       trapezoid(INPUT_TERMS[tech_t], tech))
        act[out_t] = max(act.get(out_t, 0.0), strength)
    active = [(a, OUTPUT_TERMS[t]) for t, a in act.items() if a > 0.0]
    moment = mass = 0.0
    step = 1.0 / QUADRATURE_POINTS
    for i in range(QUADRATURE_POINTS):
        y = (i + 0.5) * step
        mu = max((min(a, trapezoid(mf, y)) for a, mf in active), default=0.0)
        moment += y * mu
        mass += mu
    return moment / mass


def output_label(rds: float) -> str:
    """Output term with the highest membership; ties go to the stronger term."""
    order = list(OUTPUT_TERMS)
    return max(order, key=lambda t: (trapezoid(OUTPUT_TERMS[t], rds), order.index(t)))


def labels_near(rds: float) -> set[str]:
    """Labels acceptable for a value known only to within RDS_TOLERANCE."""
    return {output_label(min(1.0, max(0.0, rds + d)))
            for d in (-RDS_TOLERANCE, 0.0, RDS_TOLERANCE)}
