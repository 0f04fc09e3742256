"""Benchmark for paps: three workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload obs-cli --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it measures the ``src/paps`` of
that checkout, which it runs as ``python -m paps.cli`` (or as a library)
with ``PYTHONPATH`` pointing there. Inputs are generated from ``--seed``
under ``.bench_build/`` and every output is checked against references
outside the timed region. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Workloads (closed loop, one client, one op at a time, whole cycles only):

  obs-cli          one fresh ``paps`` process per op on the bundled OBS
                   model: a seeded shuffle of every command, format and goal,
                   plus three ops that must fail with a known message.
  large-impacts    one fresh ``paps impacts`` process per op on a seeded
                   500-goal x 1000-requirement layered DAG; a cycle is the
                   csv, json and table matrix plus two ``--goal`` rows.
  all-goals-batch  one library process on a seeded 200 x 500 DAG with
                   continuous risk values; an op prioritizes and relaxes one
                   goal, and a cycle sweeps every goal in ``sorted_goals()``
                   order.

Timed runs scale every latency to a reference machine speed measured by a
calibration loop around each op (see ``calibrate.py``). With ``--trace 1``
the run executes exactly one cycle in which every op runs once untraced and
once with spans installed from outside (``tracing.py``), and reports
per-layer self times and counts for that cycle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import calibrate
import gen
import reference as ref
from tracing import LayerTotals

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 15
# Tail percentile of each workload: the highest that left at least ten
# samples beyond it in a run when the benchmark was written, fixed so that a
# faster program is compared at the same percentile. large-impacts is the
# exception: its runs hold about 25 ops, 6 beyond its p75.
TAIL_PERCENTILE = {"obs-cli": 0.9, "large-impacts": 0.75, "all-goals-batch": 0.95}
DEADLINE_S = 170.0
OBS_DIGESTS = BENCH_DIR / "obs_digests.json"


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


class Run:
    """State shared by one benchmark run."""

    def __init__(self, args):
        self.root = Path.cwd()
        self.seed = args.seed
        self.workload = args.workload
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        self.work = (self.root / ".bench_build" / "paps-bench"
                     / f"{args.workload}-s{args.seed}-{os.getpid()}")
        self.rel = self.work.relative_to(self.root)
        # Children cache bytecode, as an installed package would.
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(self.root / "src")
        self.spawned_at = 0.0
        self.started = time.perf_counter()
        self.latencies: list[float] = []  # raw seconds
        self.spans: list[tuple[float, float]] = []  # (start, end) of each timed op
        self.scaled: list[float] = []     # seconds at the calibration reference speed
        self.entries = 0
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.problems: list[str] = []
        self.layers = LayerTotals()
        self.untraced_wall = 0.0
        self.notes: list[str] = []
        self.setup: list[float] = []
        self.calibration: calibrate.Calibration | None = None
        self.calibrator = (calibrate.sample, calibrate.REFERENCE_S)
        self.last_rss_kb = 0
        self.op_calibration: list[float] = []  # samples taken around the timed ops
        self.cycles = 0
        signal.signal(signal.SIGALRM, _alarm)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.problem(f"{what}: {why}")

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            print(f"FAIL {text}", file=sys.stderr)
        self.problems.append(text)

    def spawn(self, argv: list[str], tag: str) -> tuple[float, int | None, bytes, bytes]:
        """Run one child process to completion; returns wall, exit code, stdout, stderr."""
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        start = self.spawned_at = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, self.remaining()))
        try:
            _, status, usage = os.wait4(pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except OpTimeout:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _, status, usage = os.wait4(pid, 0)
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        self.last_rss_kb = usage.ru_maxrss
        return wall, code, out.read_bytes(), err.read_bytes()

    def measure_setup(self, model: Path) -> None:
        """Set-up time in fresh interpreters, before any op runs.

        The first probe only warms the bytecode and file caches; traced runs
        stop after it.
        """
        if not self.trace:
            self.calibration = calibrate.Calibration(*self.calibrator)
        probes = []
        for i in range(1 if self.trace else SETUP_REPEATS + 1):
            wall, code, out, err = self.spawn(
                [str(BENCH_DIR / "child.py"), "setup", str(model)], "setup")
            if code != 0:
                self.problem(f"set-up probe exited {code}: {err.decode()[-300:]}")
                break
            if i:
                probes.append((float(out), self.spawned_at, self.spawned_at + wall))
                self.calibration.after()
        self.setup = [t * self.calibration.factor(a, b) for t, a, b in probes]

    def timed(self, wall: float) -> None:
        """Record the op just spawned and calibrate after it."""
        self.latencies.append(wall)
        self.spans.append((self.spawned_at, self.spawned_at + wall))
        self.peak_rss_kb = max(self.peak_rss_kb, self.last_rss_kb)
        self.calibration.after()

    def calibration_process(self) -> float:
        """Wall time of a fresh interpreter running the calibration work."""
        return self.spawn([str(BENCH_DIR / "calibrate.py")], "calibrate")[0]


# --- CLI workloads ------------------------------------------------------------

class CliOp:
    """One ``paps`` invocation and what its output must be."""

    def __init__(self, args: list[str], key: str, *, code: int = 0,
                 digest: str | None = None, stdout: str | None = None,
                 stderr: str | None = None, check=None, entries: int = 0):
        self.args, self.key, self.code = args, key, code
        self.digest, self.stdout, self.stderr = digest, stdout, stderr
        self.check, self.entries = check, entries

    def verify(self, run: Run, code, out: bytes, err: bytes, checked: set) -> None:
        what = f"paps {' '.join(self.args)}"
        if code != self.code:
            return run.fail(what, f"exit code {code}, expected {self.code}: "
                                  f"{err.decode(errors='replace')[-300:]}")
        if b"Traceback" in err:
            return run.fail(what, "printed a traceback")
        if self.digest is not None and self.digest != output_digest(code, out, err):
            return run.fail(what, "output differs from its expected digest")
        if self.stdout is not None and out.decode() != self.stdout:
            return run.fail(what, "stdout differs from the reference")
        if self.stderr is not None and err.decode() != self.stderr:
            return run.fail(what, f"stderr {err.decode()!r}, expected {self.stderr!r}")
        if self.check is not None and self.key not in checked:
            why = self.check(out.decode())
            if why:
                return run.fail(what, why)
            checked.add(self.key)


def output_digest(code: int, out: bytes, err: bytes) -> str:
    return hashlib.sha256(str(code).encode() + b"\0" + out + b"\0" + err).hexdigest()


def run_cli(run: Run, cycles) -> None:
    """Closed loop over whole ``cycles`` (an iterator of op lists).

    A new cycle starts only if the last one would still fit in the run, so
    every run measures the same mix of ops; a traced run does one cycle.
    """
    checked: set = set()
    paps = ["-m", "paps.cli"]
    launcher = [str(BENCH_DIR / "child.py"), "cli"]
    loop_start = time.perf_counter()
    for ops in cycles:
        cycle_start = time.perf_counter()
        for op in ops:
            run.attempted += 1
            if not run.trace:
                wall, code, out, err = run.spawn(paps + op.args, "op")
                run.timed(wall)
                run.entries += op.entries
                op.verify(run, code, out, err, checked)
                continue
            spans = run.work / "spans.json"
            n = run.attempted
            for traced in ((True, False) if n % 2 else (False, True)):
                if traced:
                    wall, code, out, err = run.spawn(
                        launcher + [str(spans), str(n)] + op.args, "op")
                    if spans.exists():
                        dump = json.loads(spans.read_text())
                        run.layers.add_dump(dump, {n: wall}, n,
                                            dump["started"] - run.spawned_at)
                        spans.unlink()
                    else:
                        run.problem(f"traced op {op.key} wrote no spans")
                else:
                    wall, code, out, err = run.spawn(paps + op.args, "op")
                    run.untraced_wall += wall
                op.verify(run, code, out, err, checked)
        run.cycles += 1
        last_cycle = time.perf_counter() - cycle_start
        if run.trace or time.perf_counter() - loop_start + last_cycle > run.seconds:
            break
    if not run.trace:
        run.scaled = [w * run.calibration.factor(a, b)
                      for w, (a, b) in zip(run.latencies, run.spans)]
        run.op_calibration = run.calibration.samples


def obs_cli(run: Run) -> None:
    model = run.work / "obs.srm"
    model.write_text(gen.obs_text(), encoding="utf-8")
    ops = obs_ops(run, json.loads(OBS_DIGESTS.read_text()))
    missing = [op.key for op in ops if op.digest is None and op.stderr is None]
    if missing:
        run.problem(f"no recorded digest for {missing}")
    # Interpreter start-up dominates these ops, so calibrate with a process.
    run.calibrator = (run.calibration_process, calibrate.PROCESS_REFERENCE_S)
    run.measure_setup(model)

    def cycles():
        while True:
            order = ops[:]
            run.rng.shuffle(order)
            yield order

    run.notes.append(f"{len(ops)} ops per cycle")
    run_cli(run, cycles())


def obs_ops(run: Run, digests: dict[str, str]) -> list[CliOp]:
    """Every OBS op of a cycle; the seed picks the expected-failure variants."""
    path = str(run.rel / "obs.srm")
    risk = gen.obs_risk()
    positive = {g: {r: v for r, v in zip(ref.OBS_REQS, row) if v > 0}
                for g, row in ref.OBS_MATRIX.items()}

    def success(args: list[str], **kw) -> CliOp:
        key = " ".join("MODEL" if a == path else a for a in args)
        return CliOp(args, key, digest=digests.get(key), **kw)

    # Only the prioritize ops count towards entries_per_s: their entries are
    # the prioritized (goal, requirement) pairs the metric is defined by.
    ops = [success(["validate", path])]
    ops += [success(["impacts", path, "--format", f], check=check_obs_matrix(f))
            for f in ("table", "csv", "json")]
    for g in ref.OBS_GOALS:
        ops.append(success(["impacts", path, "--goal", g], check=check_obs_row(g)))
        for f in ("table", "csv", "json"):
            ops.append(success(["prioritize", path, "--goal", g, "--format", f],
                               entries=len(positive[g]),
                               check=check_obs_priorities(g, positive[g], risk)
                               if f == "json" else None))
        for f in ("table", "json"):
            ops.append(success(["relax", path, "--goal", g, "--format", f]))

    # Expected failures. The seed picks the variant; each must exit 1 with its message.
    k = run.rng.randrange(len(gen.obs_goal_edges()))
    cyclic = run.work / "obs-cycle.srm"
    cyclic.write_text(gen.obs_cyclic_variant(k), encoding="utf-8")
    ops.append(CliOp(["validate", str(run.rel / cyclic.name)], f"validate CYCLE{k}",
                     code=1, digest=digests.get(f"validate CYCLE{k}"),
                     check=check_cycle_report(k)))
    head = run.rng.choice(ref.OBS_GOALS)
    missing = f"X{run.rng.randint(1, 99)}"
    text, line = gen.obs_undeclared_variant(head, missing)
    undeclared = run.work / "obs-undeclared.srm"
    undeclared.write_text(text, encoding="utf-8")
    rel = str(run.rel / undeclared.name)
    command = run.rng.choice(["validate", "impacts", "prioritize", "relax"])
    ops.append(CliOp([command, rel], "undeclared", code=1, stdout="",
                     stderr=f"error: {rel}: line {line}, column 1: rule P21 "
                            f"references undeclared id '{missing}'\n"))
    unknown = run.rng.choice([f"G{run.rng.randint(14, 99)}", run.rng.choice(ref.OBS_REQS)])
    command = run.rng.choice(["impacts", "prioritize", "relax"])
    ops.append(CliOp([command, path, "--goal", unknown], "unknown-goal", code=1,
                     stdout="", stderr=f"error: unknown goal '{unknown}'\n"))
    return ops


def _parse_table(text: str) -> list[list[str]]:
    lines = text.splitlines()
    return [line.split() for line in lines[:1] + lines[2:]]


def _matrix_mismatch(rows: list[list[str]], goals: list[str]) -> str | None:
    if rows[0] != ["goal"] + ref.OBS_REQS:
        return "header differs from R1..R12"
    if [r[0] for r in rows[1:]] != goals:
        return "goal rows differ from the worked matrix"
    for row in rows[1:]:
        if [float(x) for x in row[1:]] != ref.OBS_MATRIX[row[0]]:
            return f"row {row[0]} differs from the worked matrix"
    return None


def check_obs_matrix(fmt: str):
    def check(out: str) -> str | None:
        if fmt == "json":
            data = json.loads(out)
            rows = [["goal"] + ref.OBS_REQS] + [[g] + [str(v[r]) for r in ref.OBS_REQS]
                                                for g, v in data.items()]
        elif fmt == "csv":
            rows = [line.split(",") for line in out.splitlines()]
        else:
            rows = _parse_table(out)
        return _matrix_mismatch(rows, ref.OBS_GOALS)
    return check


def check_obs_row(goal: str):
    return lambda out: _matrix_mismatch(_parse_table(out), [goal])


def check_obs_priorities(goal: str, positive: dict[str, float], risk):
    def check(out: str) -> str | None:
        rows = json.loads(out)
        if {r["requirement"] for r in rows} != set(positive):
            return "prioritized requirements differ from the positive impacts"
        for r in rows:
            req = r["requirement"]
            if r["impact"] != positive[req] or (r["cost"], r["tech"]) != risk[req]:
                return f"{req}: inputs differ from the model"
            why = check_rds(req, r["rds"], r["label"], positive[req], *risk[req])
            if why:
                return why
        if [r["rds"] for r in rows] != sorted((r["rds"] for r in rows), reverse=True):
            return "entries are not in descending RDS order"
        return None
    return check


def check_rds(req: str, rds: float, label: str, impact: float, cost: float,
              tech: float) -> str | None:
    expected = ref.reference_rds(impact, cost, tech)
    if abs(rds - expected) > ref.RDS_TOLERANCE:
        return f"{req}: rds {rds} differs from the quadrature COG {expected:.6f}"
    if label[:1].upper() not in {t[0].upper() for t in ref.labels_near(expected)}:
        return f"{req}: label {label} does not match rds {expected:.4f}"
    return None


def check_cycle_report(k: int):
    head, child = gen.obs_goal_edges()[k]

    def check(out: str) -> str | None:
        m = re.search(r"^error \[cycle\] \S+: derivation cycle: (.+)$", out, re.M)
        if not m:
            return "no derivation-cycle finding"
        nodes = m.group(1).split(" -> ")
        edges = set(gen.obs_goal_edges()) | {(child, head)}
        if nodes[0] != nodes[-1] or any(e not in edges for e in zip(nodes, nodes[1:])):
            return f"reported cycle {m.group(1)} is not a cycle of the model"
        return None
    return check


LARGE_GOALS, LARGE_REQS, LARGE_LAYERS = 500, 1000, 6


def large_impacts(run: Run) -> None:
    gm = gen.layered_model(run.seed, LARGE_GOALS, LARGE_REQS, layers=LARGE_LAYERS)
    model = run.work / "large.srm"
    model.write_text(gm.text, encoding="utf-8")
    path = str(run.rel / model.name)
    rows, goals = reference_rows(run, gm)
    nonzero = sum(len(r) for r in rows.values())
    full = {
        "csv": ref.impacts_csv(goals, gm.reqs, rows),
        "json": ref.impacts_json(goals, gm.reqs, rows),
        "table": ref.impacts_table(goals, gm.reqs, rows),
    }
    full_ops = {f: CliOp(["impacts", path, "--format", f], f, entries=nonzero,
                         digest=output_digest(0, text.encode(), b""))
                for f, text in full.items()}
    del full
    sample = run.rng.sample(gm.goals, 12)
    run.measure_setup(model)

    def goal_op(g: str) -> CliOp:
        text = ref.impacts_csv([g], gm.reqs, rows)
        return CliOp(["impacts", path, "--goal", g, "--format", "csv"], f"goal {g}",
                     entries=len(rows[g]), digest=output_digest(0, text.encode(), b""))

    def cycles():
        # Two --goal rows per cycle put the median inside the csv ops rather
        # than on the boundary between two kinds of op.
        for i in range(0, 10 ** 6, 2):
            ops = list(full_ops.values()) + [goal_op(sample[i % len(sample)]),
                                             goal_op(sample[(i + 1) % len(sample)])]
            run.rng.shuffle(ops)
            yield ops

    run.notes.append(f"{LARGE_GOALS} goals x {LARGE_REQS} requirements, "
                     f"{nonzero} non-zero impacts; 5 ops per cycle")
    run_cli(run, cycles())


def reference_rows(run: Run, gm: gen.GenModel):
    """Reference impact rows, cross-checked on sampled goals by a second search."""
    edges = ref.collapsed_edges(gm.edges)
    reqs = set(gm.reqs)
    rows = ref.widest_rows(edges, gm.goals, reqs)
    for g in run.rng.sample(gm.goals, 8):
        found = {n: w for n, w in ref.bottleneck_search(edges, g).items() if n in reqs}
        if found != rows[g]:
            run.problem(f"reference rows disagree with the bottleneck search at {g}")
    goals = [gm.goals[0]] + sorted(gm.goals[1:], key=ref.natural_key)
    return rows, goals


# --- library workload ---------------------------------------------------------

BATCH_GOALS, BATCH_REQS, BATCH_LAYERS = 200, 500, 8
QUADRATURE_SAMPLES = 100


def all_goals_batch(run: Run) -> None:
    gm = gen.layered_model(run.seed, BATCH_GOALS, BATCH_REQS, layers=BATCH_LAYERS,
                           continuous_risk=True)
    model = run.work / "batch.srm"
    model.write_text(gm.text, encoding="utf-8")
    rows, goals = reference_rows(run, gm)
    pairs = sorted((g, r) for g in goals for r in rows[g])
    sampled = set(run.rng.sample(pairs, min(QUADRATURE_SAMPLES, len(pairs))))
    run.measure_setup(model)
    wall, code, out, err = run.spawn(
        [str(BENCH_DIR / "child.py"), "batch", str(model), str(run.work),
         str(run.seconds), "1" if run.trace else "0"], "batch")
    run.peak_rss_kb = run.last_rss_kb
    if code != 0:
        run.attempted += 1
        return run.fail("batch worker", f"exit code {code}: {err.decode()[-500:]}")
    result = json.loads((run.work / "batch-result.json").read_text())
    run.latencies = result["latencies"]
    run.scaled = result["scaled"]
    run.op_calibration = result["calibration"]
    run.entries = sum(result["entries"])
    run.attempted += len(run.latencies) * (2 if run.trace else 1)
    run.failed += result["failed"]
    if result["failed"]:
        run.problem(f"{result['failed']} ops repeated with different output")
    if run.trace:
        dump = json.loads((run.work / "batch-spans.json").read_text())
        walls = {int(k): v for k, v in dump["op_walls"].items()}
        startup = dump["started"] - run.spawned_at
        walls[-1] += startup
        run.layers.add_dump(dump, walls, -1, startup)
        run.untraced_wall = result["untraced_wall"]
    run.cycles = result["sweeps"]
    run.notes.append(f"{BATCH_GOALS} goals x {BATCH_REQS} requirements, "
                     f"a cycle is a sweep of {len(goals)} goals")
    seen = []
    with open(run.work / "batch-outputs.jsonl", encoding="utf-8") as handle:
        for line in handle:
            goal, csv, text = json.loads(line)
            seen.append(goal)
            why = check_goal_output(gm, rows[goal], goal, csv, text, sampled)
            if why:
                run.fail(f"goal {goal}", why)
    if seen != goals:
        run.fail("batch worker", "goals not processed in sorted_goals() order")


def check_goal_output(gm: gen.GenModel, row: dict[str, float], goal: str,
                      csv: str, text: str, sampled: set) -> str | None:
    lines = csv.splitlines()
    if lines[0] != "goal,requirement,impact,cost,tech,rds,label":
        return "unexpected CSV header"
    entries = [line.split(",") for line in lines[1:]]
    if sorted(e[1] for e in entries) != sorted(row):
        return "prioritized requirements differ from the reference impacts"
    statements = text.split("\n")[:-1] if entries else []
    if len(statements) != len(entries) or (not entries and text != "\n"):
        return "relaxed statements do not match the prioritized entries"
    last = math.inf
    for (g, req, impact, cost, tech, rds, label), statement in zip(entries, statements):
        if g != goal or impact != f"{row[req]:.2f}" or cost != f"{gm.cost[req]:.2f}" \
                or tech != f"{gm.tech[req]:.2f}":
            return f"{req}: columns differ from the model"
        value = float(rds)
        if value > last:
            return "entries are not in descending RDS order"
        last = value
        if label not in {t[0].upper() for t in ref.labels_near(value)}:
            return f"{req}: label {label} does not match rds {rds}"
        if (goal, req) in sampled:
            why = check_rds(req, value, label, row[req], gm.cost[req], gm.tech[req])
            if why:
                return why
        ov = gm.ov.get(req, f"OV_{req[1:]}")
        m = re.fullmatch(
            re.escape(f"{req}: {gm.description[req]} [{gm.metric[req]}] "
                      f"{gm.connector.get(req, 'as close as possible to')} ")
            + r"(\d\.\d\d)" + re.escape(f" × {ov}"), statement)
        if not m or abs(float(m.group(1)) - value) > 0.00505:
            return f"{req}: relaxed statement {statement!r} is not as expected"
    return None


WORKLOADS = {"obs-cli": obs_cli, "large-impacts": large_impacts,
             "all-goals-batch": all_goals_batch}


# --- metrics ------------------------------------------------------------------

def tail(latencies: list[float], p: float) -> tuple[float, str]:
    """Nearest-rank ``p`` quantile, with the number of samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, math.ceil(p * n))
    return ordered[rank - 1], f"p{p * 100:g}, {n - rank} samples beyond it, n={n}"


def end_to_end(run: Run) -> dict:
    busy = sum(run.scaled)
    p = TAIL_PERCENTILE[run.workload]
    tail_value, tail_note = tail(run.scaled, p)
    raw_tail, _ = tail(run.latencies, p)
    values = {
        "setup_s": (statistics.median(run.setup), "s",
                    f"median of {len(run.setup)} fresh interpreters"),
        "op_p50_ms": (statistics.median(run.scaled) * 1000, "ms",
                      f"n={len(run.scaled)}; raw "
                      f"{statistics.median(run.latencies) * 1000:.4f} ms"),
        "op_tail_ms": (tail_value * 1000, "ms", f"{tail_note}; raw {raw_tail * 1000:.4f} ms"),
        "ops_per_s": (len(run.scaled) / busy, "1/s", f"{len(run.scaled)} ops; raw "
                      f"{len(run.latencies) / sum(run.latencies):.4f} 1/s"),
        "entries_per_s": (run.entries / busy, "1/s", f"{run.entries} entries"),
        "peak_rss_mb": (run.peak_rss_kb / 1024, "MB", "largest op process"),
    }
    samples = run.op_calibration
    print(f"calibration: median {statistics.median(samples) * 1000:.4f} ms over "
          f"{len(samples)} samples, reference {run.calibration.reference * 1000:.4f} ms; "
          f"times below are scaled to the reference speed")
    for name, (value, unit, note) in values.items():
        print(f"{name:<16} {value:12.4f} {unit:<4} ({note})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}


def per_layer(run: Run) -> dict:
    if run.layers.missing:
        run.problem("tracer found no function to wrap at "
                    + ", ".join(sorted(run.layers.missing))
                    + "; update PATCHES in tracing.py")
    values = run.layers.metrics(run.untraced_wall)
    out = {}
    for name, value in sorted(values.items()):
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        out[name] = {"value": value, "unit": unit}
        print(f"{name:<24} {value:14.6f} {unit}")
    print(f"fuzzy useful work: {values['fuzzy.distinct_triples']:.0f} distinct triples "
          f"/ {values['fuzzy.infer_calls']:.0f} inference calls")
    wall = values["trace.op_wall_s"]
    if wall:
        print(f"spans cover {1 - values['trace.unattributed_s'] / wall:.1%} of "
              f"{wall:.3f} s traced op wall time")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "paps" / "cli.py").is_file():
        sys.exit("error: run from the root of a paps checkout (src/paps/cli.py not found)")
    # One CPU for the benchmark and every process it starts, so calibration
    # samples and ops run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}: " + "; ".join(run.notes)
          + f"; {run.cycles} whole cycle(s)")
    if not run.attempted or not (run.trace or (run.latencies and run.setup)):
        sys.exit("error: no op completed")
    print(f"error_rate {run.failed / run.attempted:.4f} "
          f"({run.failed} failed / {run.attempted} attempted)")
    metrics = per_layer(run) if run.trace else end_to_end(run)
    correct = run.failed == 0 and not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
