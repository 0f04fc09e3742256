"""Spans around calls into each ``paps`` module, installed from outside.

A ``Tracer`` replaces public functions with timing wrappers in the module
namespace where each caller looks them up (the package uses ``from ...
import``, so ``paps.pipeline.fuzzify`` is the name ``prioritize`` calls).
Spans (name, start, end, parent, op id) are kept in memory and written out
as JSON when the traced process ends; ``layer_metrics`` turns them into
per-layer self times and counts. A name missing from the package under test
is listed in the dump as ``missing`` and the run reports it as a problem, so
a renamed or moved function never reads as a layer doing no work.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager


def _lines(args, kwargs, result):
    text = args[0] if args else kwargs.get("text", "")
    return {"srm.lines": len(text.splitlines())}


def _findings(args, kwargs, result):
    return {"model.findings": len(getattr(result, "findings", ()))}


def _nonzero(args, kwargs, result):
    return {"impact.nonzero_cells": len(getattr(result, "entries", ()))}


def _entries(args, kwargs, result):
    return {"pipeline.entries": len(result)}


# (owner, attribute, span name, result hook). The owner is the namespace the
# caller looks the name up in.
PATCHES = [
    ("paps", "parse_rulebase", "fcl.parse_rulebase", None),
    ("paps.cli", "parse_rulebase", "fcl.parse_rulebase", None),
    ("paps", "parse_model", "srm.parse_model", _lines),
    ("paps.cli", "parse_model", "srm.parse_model", _lines),
    ("paps", "validate_model", "model.validate_model", _findings),
    ("paps.cli", "validate_model", "model.validate_model", _findings),
    ("paps.model", "adjacency", "model.adjacency", None),
    ("paps.impact", "adjacency", "model.adjacency", None),
    ("paps.model.SecurityModel", "requirement", "model.lookup", None),
    ("paps.model.SecurityModel", "goal", "model.lookup", None),
    ("paps.cli", "impact_matrix", "impact.impact_matrix", _nonzero),
    ("paps.pipeline", "build_srl", "impact.build_srl", None),
    ("paps.pipeline", "fuzzify", "fuzzy.fuzzify", None),
    ("paps.pipeline", "infer", "fuzzy.infer", None),
    ("paps.pipeline", "defuzzify_cog", "fuzzy.defuzzify_cog", None),
    ("paps.pipeline", "label", "fuzzy.label", None),
    ("paps.pipeline", "prioritize", "pipeline.prioritize", _entries),
    ("paps.cli", "prioritize", "pipeline.prioritize", _entries),
    ("paps.relax", "prioritize", "pipeline.prioritize", _entries),
    ("paps.pipeline", "report_csv", "pipeline.report_csv", None),
    ("paps.cli", "report_csv", "pipeline.report_csv", None),
    ("paps.cli", "report_json", "pipeline.report_json", None),
    ("paps.relax", "relax_srl", "relax.relax_srl", None),
    ("paps.cli", "relax_srl", "relax.relax_srl", None),
    ("paps.relax", "relax_requirement", "relax.relax_requirement", None),
    ("paps.relax", "relax_text", "relax.relax_text", None),
    ("paps.cli", "relax_text", "relax.relax_text", None),
    ("paps.cli", "relax_json", "relax.relax_json", None),
]


def _resolve(path: str):
    """Module or module attribute named by a dotted path, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


class Tracer:
    def __init__(self, started: float, op: int):
        self.started = started
        self.op = op
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.triples: set = set()
        self.op_walls: dict[int, float] = {}
        self.missing: list[str] = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, fn, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if hook is not None:
                tracer.counts.update(hook(args, kwargs, result))
            return result

        if name == "fuzzy.fuzzify":
            def traced_fuzzify(*args, **kwargs):
                inputs = args[1] if len(args) > 1 else kwargs.get("inputs")
                if isinstance(inputs, Mapping):
                    tracer.triples.add(tuple(inputs.values()))
                return traced(*args, **kwargs)
            return traced_fuzzify
        return traced

    def install(self) -> None:
        for owner_path, attr, name, hook in PATCHES:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if callable(fn):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
            elif f"{owner_path}.{attr}" not in self.missing:
                self.missing.append(f"{owner_path}.{attr}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path: str) -> None:
        """Write every span out; call only when no span is open."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[name], start, end, parent, op]
                 for name, start, end, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"started": self.started, "names": names, "spans": spans, "counts": self.counts,
                       "distinct_triples": len(self.triples),
                       "op_walls": self.op_walls, "missing": self.missing}, handle)


# Span name -> per-layer time metric its self time is charged to.
SELF_TIME = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "fcl.parse_rulebase": "fcl.parse_s",
    "srm.parse_model": "srm.parse_s",
    "model.validate_model": "model.validate_s",
    "model.adjacency": "model.adjacency_s",
    "model.lookup": "model.lookup_s",
    "impact.impact_matrix": "impact.matrix_s",
    "impact.build_srl": "impact.srl_s",
    "fuzzy.fuzzify": "fuzzy.fuzzify_s",
    "fuzzy.infer": "fuzzy.infer_s",
    "fuzzy.defuzzify_cog": "fuzzy.defuzzify_s",
    "fuzzy.label": "fuzzy.label_s",
    "pipeline.prioritize": "pipeline.self_s",
    "pipeline.report_csv": "pipeline.self_s",
    "pipeline.report_json": "pipeline.self_s",
    "relax.relax_srl": "relax.render_s",
    "relax.relax_requirement": "relax.render_s",
    "relax.relax_text": "relax.render_s",
    "relax.relax_json": "relax.render_s",
}
CALLS = {
    "model.adjacency": "model.adjacency_calls",
    "model.lookup": "model.lookup_calls",
    "impact.impact_matrix": "impact.matrix_calls",
    "impact.build_srl": "impact.srl_calls",
    "fuzzy.infer": "fuzzy.infer_calls",
}
HOOK_COUNTS = ("srm.lines", "model.findings", "impact.nonzero_cells",
               "pipeline.entries")


class LayerTotals:
    """Per-layer totals over the traced ops of one cycle."""

    def __init__(self):
        self.values: Counter = Counter()
        self.distinct_triples = 0
        self.missing: set[str] = set()
        # Wall time of the traced ops that have an untraced twin: every op
        # except -1, the batch process's set-up.
        self.paired_wall = 0.0

    def add_dump(self, dump: dict, op_walls: dict[int, float], first_op: int,
                 startup: float) -> None:
        """Charge one traced process's spans.

        ``op_walls`` maps op id to wall time; ``startup`` is the time from
        spawning the process to its first statement, part of ``first_op``.
        """
        names, spans = dump["names"], dump["spans"]
        child_time = [0.0] * len(spans)
        covered: Counter = Counter({first_op: startup})
        self.values["proc.startup_s"] += startup
        for name_i, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered[op] += end - start
        for pos, (name_i, start, end, parent, op) in enumerate(spans):
            name = names[name_i]
            metric = SELF_TIME.get(name)
            if metric is not None:
                self.values[metric] += (end - start) - child_time[pos]
            if name in CALLS:
                self.values[CALLS[name]] += 1
        for key, value in dump["counts"].items():
            if key in HOOK_COUNTS:
                self.values[key] += value
        self.values["fuzzy.no_activation"] += dump["counts"].get(
            "fuzzy.defuzzify_cog!NoActivationError", 0)
        self.distinct_triples += dump["distinct_triples"]
        self.missing.update(dump["missing"])
        for op, wall in op_walls.items():
            self.values["trace.op_wall_s"] += wall
            if op != -1:
                self.paired_wall += wall
            self.values["trace.unattributed_s"] += wall - covered.get(op, 0.0)

    def metrics(self, untraced_wall: float) -> dict[str, float]:
        out = {m: self.values.get(m, 0.0) for m in
               sorted(set(SELF_TIME.values()) | set(CALLS.values()))}
        for key in HOOK_COUNTS + ("fuzzy.no_activation", "proc.startup_s",
                                  "trace.op_wall_s", "trace.unattributed_s"):
            out[key] = self.values.get(key, 0.0)
        calls = out["fuzzy.infer_calls"]
        out["fuzzy.distinct_triples"] = self.distinct_triples
        out["fuzzy.useful_ratio"] = self.distinct_triples / calls if calls else 0.0
        out["trace.overhead_s"] = self.paired_wall - untraced_wall
        return out
