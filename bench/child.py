"""Processes the benchmark starts; each imports ``paps`` from ``PYTHONPATH``.

    child.py setup MODEL               time the set-up in a fresh interpreter
    child.py cli SPANS OP ARGS...      run ``paps ARGS`` traced, spans to SPANS
    child.py batch MODEL OUT SECONDS TRACE
                                       the all-goals-batch library process
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # first moment under the child's control

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def setup(model_path: str) -> None:
    """Import the CLI, load the default rule base, parse and validate the model."""
    start = time.perf_counter()
    import paps.cli  # noqa: F401
    import paps
    paps.load_default_rulebase()
    with open(model_path, encoding="utf-8") as handle:
        model, risk = paps.parse_model(handle.read())
    paps.validate_model(model, risk)
    print(time.perf_counter() - start)


def cli(spans_path: str, op: str, args: list[str]) -> None:
    from tracing import Tracer
    tracer = Tracer(STARTED, int(op))
    with tracer.span("cli.import"):
        import paps.cli
    tracer.install()
    code = 0
    with tracer.span("cli.main"):
        try:
            paps.cli.main(args=args, prog_name="paps")
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    tracer.dump(spans_path)
    sys.exit(code)


def batch(model_path: str, out_dir: str, seconds: float, trace: bool) -> None:
    import calibrate
    """Prioritize and relax every goal, in whole sweeps, for ``seconds``.

    Timed mode: each op's latency, its latency scaled by the calibration
    samples taken around it (``calibrate.py``), and its entry count are
    recorded, the first
    sweep's outputs are written for checking, and later sweeps must repeat
    them byte for byte. Trace mode: one sweep in which each goal runs once
    untraced and once traced, in alternating order.
    """
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(STARTED, -1)
        with tracer.span("cli.import"):
            import paps.cli  # noqa: F401
        tracer.install()
    else:
        import paps.cli  # noqa: F401
    import paps
    config, rulebase = paps.load_default_rulebase()
    with open(model_path, encoding="utf-8") as handle:
        model, risk = paps.parse_model(handle.read())
    paps.validate_model(model, risk)
    if tracer is not None:
        tracer.op_walls[-1] = time.perf_counter() - STARTED
        tracer.uninstall()

    def run_goal(goal: str) -> tuple[int, str, str]:
        entries = paps.pipeline.prioritize(model, risk, goal, config, rulebase)
        csv = paps.pipeline.report_csv(entries)
        statements = paps.relax.relax_srl(model, risk, goal, config, rulebase)
        return len(entries), csv, paps.relax.relax_text(statements)

    latencies, spans, entries, sweep_walls = [], [], [], []
    calibration = None if trace else calibrate.Calibration()
    failed = 0
    first: dict[str, str] = {}
    untraced_wall = 0.0
    start = time.perf_counter()
    with open(f"{out_dir}/batch-outputs.jsonl", "w", encoding="utf-8") as outputs:
        while not sweep_walls or (not trace and time.perf_counter() - start
                                  + sweep_walls[-1] <= seconds):
            sweep_start = time.perf_counter()
            for op, goal in enumerate(g.id for g in model.sorted_goals()):
                runs = []
                for traced in ((op % 2 == 0, op % 2 == 1) if trace else (False,)):
                    if traced:
                        tracer.op = op
                        tracer.install()
                    t0 = time.perf_counter()
                    count, csv, text = run_goal(goal)
                    wall = time.perf_counter() - t0
                    if traced:
                        tracer.uninstall()
                        tracer.op_walls[op] = wall
                    else:
                        untraced_wall += wall
                        latencies.append(wall)
                        spans.append((t0, t0 + wall))
                        if calibration is not None:
                            calibration.after()
                        entries.append(count)
                    runs.append(hashlib.sha256((csv + "\0" + text).encode()).hexdigest())
                    if goal not in first:
                        first[goal] = runs[-1]
                        outputs.write(json.dumps([goal, csv, text]) + "\n")
                failed += sum(d != first[goal] for d in runs)
            sweep_walls.append(time.perf_counter() - sweep_start)
    result = {"latencies": latencies, "entries": entries,
              "scaled": [w * calibration.factor(a, b) for w, (a, b) in zip(latencies, spans)]
              if calibration is not None else [],
              "calibration": calibration.samples if calibration is not None else [], "failed": failed,
              "sweeps": len(sweep_walls), "untraced_wall": untraced_wall}
    with open(f"{out_dir}/batch-result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if tracer is not None:
        tracer.dump(f"{out_dir}/batch-spans.json")


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0])
    elif mode == "cli":
        cli(rest[0], rest[1], rest[2:])
    elif mode == "batch":
        batch(rest[0], rest[1], float(rest[2]), rest[3] == "1")
    else:
        sys.exit(f"unknown mode {mode!r}")
