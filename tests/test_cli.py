import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paps
import paps.cli
from cli_runner import invoke
from obs_tables import EXPECTED_METRICS, GOAL_IDS, REQ_IDS


@pytest.fixture()
def runner():
    return invoke


def _invoke(runner, *args):
    return runner(args)


class TestValidate:
    def test_clean_fixture_exits_zero(self, runner, obs_path):
        result = _invoke(runner, "validate", obs_path)
        assert result.exit_code == 0
        assert "ok:" in result.output

    def test_cycle_exits_one(self, runner, tmp_path):
        path = tmp_path / "bad.srm"
        path.write_text('goal S "s"\ngoal G1 "g"\n'
                        "rule P1: S -> G1 @ 0.5\nrule P2: G1 -> G1 @ 0.5\n")
        result = _invoke(runner, "validate", str(path))
        assert result.exit_code == 1
        assert "cycle" in result.output

    def test_missing_file_exits_two(self, runner):
        result = _invoke(runner, "validate", "no-such-file.srm")
        assert result.exit_code == 2

    def test_parse_error_exits_one_with_position(self, runner, tmp_path):
        path = tmp_path / "syntax.srm"
        path.write_text('goal S "s"\nrule P1 S -> @ huh\n')
        result = _invoke(runner, "validate", str(path))
        assert result.exit_code == 1
        assert "line 2" in result.output

    def test_non_utf8_model_exits_one_with_position(self, runner, tmp_path):
        path = tmp_path / "latin1.srm"
        # the bad byte follows six characters in eight bytes on line 2
        path.write_bytes('goal S "s"\n# \u00e9t\u00e9 '.encode() + b"\xff\n")
        result = _invoke(runner, "validate", str(path))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"error: {path}: line 2, column 7: not UTF-8 text\n")

    def test_bad_byte_line_counts_only_lf_cr_and_crlf(self, runner, tmp_path):
        path = tmp_path / "latin1.srm"
        path.write_bytes('goal S "a\u2028b\fc"\r\n# '.encode() + b"\xff\n")
        result = _invoke(runner, "validate", str(path))
        assert result.exit_code == 1
        assert result.output == (
            f"error: {path}: line 2, column 3: not UTF-8 text\n")

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
    def test_bad_byte_column_does_not_count_a_byte_order_mark(
            self, runner, tmp_path, bom):
        path = tmp_path / "latin1.srm"
        path.write_bytes(bom + b'goal S "caf\xe9"\n')
        result = _invoke(runner, "validate", str(path))
        assert result.exit_code == 1
        assert result.output == (
            f"error: {path}: line 1, column 12: not UTF-8 text\n")

    def test_byte_order_mark_is_ignored(self, runner, obs_path, tmp_path):
        path = tmp_path / "bom.srm"
        path.write_bytes(codecs.BOM_UTF8 + paps.obs_fixture_text().encode())
        result = _invoke(runner, "validate", str(path))
        assert result.exit_code == 0
        assert result.output == _invoke(runner, "validate", obs_path).output


class TestImpacts:
    def test_csv_single_goal_row(self, runner, obs_path):
        result = _invoke(runner, "impacts", obs_path,
                         "--goal", "G12", "--format", "csv")
        assert result.exit_code == 0
        header, row = result.output.strip().splitlines()
        assert header.split(",")[1:] == REQ_IDS
        cells = dict(zip(header.split(",")[1:], row.split(",")[1:]))
        assert row.startswith("G12,")
        assert cells["R11"] == "0.90"
        assert cells["R1"] == "0.00"

    def test_json_has_fourteen_goal_keys(self, runner, obs_path):
        result = _invoke(runner, "impacts", obs_path, "--format", "json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert len(data) == 14
        assert data["S"]["R7"] == pytest.approx(0.65)

    def test_unknown_goal_exits_one(self, runner, obs_path):
        result = _invoke(runner, "impacts", obs_path, "--goal", "G99")
        assert result.exit_code == 1

    def test_table_is_fixed_width(self, runner, obs_path):
        result = _invoke(runner, "impacts", obs_path)
        lines = result.output.splitlines()
        assert len(lines) == 16  # header + rule + 14 goals
        assert "\x1b" not in result.output  # no color codes

    def test_out_writes_file(self, runner, obs_path, tmp_path):
        target = tmp_path / "matrix.csv"
        result = _invoke(runner, "impacts", obs_path,
                         "--format", "csv", "--out", str(target))
        assert result.exit_code == 0
        assert target.read_text().startswith("goal,")

    def test_byte_identical_across_runs(self, runner, obs_path):
        first = _invoke(runner, "impacts", obs_path, "--format", "json")
        second = _invoke(runner, "impacts", obs_path, "--format", "json")
        assert first.output == second.output


    def test_model_without_requirements(self, runner, tmp_path):
        path = tmp_path / "noreq.srm"
        path.write_text('goal S "s"\ngoal G1 "g"\nrule P1: S -> G1 @ 0.5\n')
        outputs = {fmt: _invoke(runner, "impacts", str(path), "--format", fmt)
                   for fmt in ("csv", "table", "json")}
        assert all(r.exit_code == 0 for r in outputs.values())
        assert outputs["csv"].output == "goal\nS\nG1\n"
        assert outputs["table"].output == "goal\n----\nS\nG1\n"
        assert json.loads(outputs["json"].output) == {"S": {}, "G1": {}}

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_goal_option_prints_that_row_of_the_full_matrix(
            self, runner, obs_path, fmt):
        full = _invoke(runner, "impacts", obs_path, "--format", fmt).output
        for goal in GOAL_IDS:
            one = _invoke(runner, "impacts", obs_path, "--goal", goal,
                          "--format", fmt)
            assert one.exit_code == 0
            if fmt == "json":
                row = {goal: json.loads(full)[goal]}
                assert one.output == json.dumps(row, indent=2) + "\n"
            elif fmt == "csv":
                lines = full.splitlines()
                assert one.output.splitlines() == [
                    lines[0], lines[1 + GOAL_IDS.index(goal)]]
            else:  # column widths depend on the rows shown
                lines = [line.split() for line in full.splitlines()]
                assert [line.split() for line in one.output.splitlines()] == [
                    lines[0], lines[1], lines[2 + GOAL_IDS.index(goal)]]


def _rules_file(tmp_path, old: str, new: str) -> str:
    path = tmp_path / "custom.rules"
    path.write_text(paps.default_rules_text().replace(old, new))
    return str(path)


class TestPrioritize:
    def test_g3_rows_in_rds_order(self, runner, obs_path):
        result = _invoke(runner, "prioritize", obs_path,
                         "--goal", "G3", "--format", "csv")
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[1:]
        assert len(rows) == 3
        assert [r.split(",")[1] for r in rows][0] == "R4"
        rds = [float(r.split(",")[5]) for r in rows]
        assert rds == sorted(rds, reverse=True)

    def test_root_has_twelve_rows(self, runner, obs_path):
        result = _invoke(runner, "prioritize", obs_path,
                         "--goal", "S", "--format", "csv")
        assert len(result.output.strip().splitlines()) == 13

    def test_rulebase_syntax_error_exits_one(self, runner, obs_path, tmp_path):
        rules = tmp_path / "broken.rules"
        rules.write_text("VAR_INPUT impact\nwhat\nEND_VAR\n")
        result = _invoke(runner, "prioritize", obs_path,
                         "--rules", str(rules))
        assert result.exit_code == 1
        assert "line 2" in result.output

    @pytest.mark.parametrize("command", ["prioritize", "relax"])
    def test_risk_outside_a_universe_exits_one(self, runner, obs_path,
                                               tmp_path, command):
        rules = _rules_file(
            tmp_path,
            "VAR_INPUT cost\n    RANGE := (0.0 .. 1.0);\n"
            "    TERM low := (0, 0, 0.25, 0.5);",
            "VAR_INPUT cost\n    RANGE := (0.1 .. 1.0);\n"
            "    TERM low := (0.1, 0.1, 0.25, 0.5);")
        result = _invoke(runner, command, obs_path, "--rules", rules)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {rules}: requirement R")
        assert "cost=0.05 outside universe [0.1, 1.0]" in lines[0]

    def test_non_utf8_rulebase_exits_one_with_position(self, runner, obs_path,
                                                      tmp_path):
        # past the first 8 KiB, so the line is counted from the file's start
        text = "// padding\n" * 1000 + paps.default_rules_text()
        rules = tmp_path / "latin1.rules"
        rules.write_bytes(text.encode() + b"// \xff\n")
        line = len(text.splitlines()) + 1
        result = _invoke(runner, "prioritize", obs_path, "--rules", str(rules))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"error: {rules}: line {line}, column 4: not UTF-8 text\n")

    def test_byte_order_mark_in_rulebase_is_ignored(self, runner, obs_path,
                                                    tmp_path):
        rules = tmp_path / "bom.rules"
        rules.write_bytes(codecs.BOM_UTF8 + paps.default_rules_text().encode())
        result = _invoke(runner, "prioritize", obs_path, "--rules", str(rules))
        assert result.exit_code == 0
        assert result.output == _invoke(runner, "prioritize", obs_path).output

    def test_rulebase_with_other_inputs_exits_one(self, runner, obs_path,
                                                 tmp_path):
        rules = _rules_file(tmp_path, "tech", "skill")
        result = _invoke(runner, "prioritize", obs_path, "--rules", rules)
        assert result.exit_code == 1
        assert result.output == (
            f"error: {rules}: line 28, column 1: input variables must be "
            "impact, cost and tech, got impact, cost, skill\n")

    def test_rulebase_with_two_outputs_exits_one(self, runner, obs_path,
                                                 tmp_path):
        rules = _rules_file(
            tmp_path, "VAR_OUTPUT priority",
            "VAR_OUTPUT urgency\n    RANGE := (0.0 .. 1.0);\n"
            "    TERM soon := (0, 0, 0.5, 1);\nEND_VAR\n\nVAR_OUTPUT priority")
        text = Path(rules).read_text().splitlines()
        line = [n for n, raw in enumerate(text, start=1) if raw == "END_VAR"][-1]
        result = _invoke(runner, "prioritize", obs_path, "--rules", rules)
        assert result.exit_code == 1
        assert result.output == (
            f"error: {rules}: line {line}, column 1: second output variable "
            "priority; urgency is already the output\n")

    @pytest.mark.parametrize("command", ["prioritize", "relax"])
    def test_zero_area_output_term_exits_one(self, runner, obs_path,
                                            tmp_path, command):
        for old, term in [
                ("    TERM weak := (0.1, 0.2, 0.3, 0.4);",
                 "    TERM weak := (0.2, 0.2, 0.2, 0.2);"),
                # x0 < x3, but a width of 5e-324 has no area
                ("    TERM optional := (0, 0, 0.1, 0.37);",
                 "    TERM optional := (0, 0, 0, 0." + "0" * 323 + "5);")]:
            rules = _rules_file(tmp_path, old, term)
            line = Path(rules).read_text().splitlines().index(term) + 1
            name = term.split()[1]
            result = _invoke(runner, command, obs_path, "--rules", rules)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert result.output == (
                f"error: {rules}: line {line}, column 5: output term "
                f"priority.{name} has zero area\n")

    @pytest.mark.parametrize("command", ["prioritize", "relax"])
    def test_output_range_wider_than_unit_exits_one(self, runner, obs_path,
                                                   tmp_path, command):
        # The RDS reaches 1.33 on OBS with this rule base.
        rules = _rules_file(
            tmp_path,
            "VAR_OUTPUT priority\n    RANGE := (0.0 .. 1.0);",
            "VAR_OUTPUT priority\n    RANGE := (0.0 .. 2.0);")
        path = Path(rules)
        path.write_text(path.read_text().replace(
            "TERM strong := (0.53, 0.79, 1, 1);",
            "TERM strong := (0.53, 0.79, 2, 2);"))
        result = _invoke(runner, command, obs_path, "--rules", rules)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            f"error: {rules}: line 36, column 5: output variable priority "
            "has RANGE (0.0 .. 2.0), not inside [0, 1]\n")

    def test_default_goal_is_root(self, runner, obs_path):
        explicit = _invoke(runner, "prioritize", obs_path, "--goal", "S")
        implicit = _invoke(runner, "prioritize", obs_path)
        assert implicit.output == explicit.output


class TestRelax:
    def test_root_statements_match_expected_metrics(self, runner, obs_path):
        result = _invoke(runner, "relax", obs_path, "--goal", "S")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 12
        rendered = {line.split(":")[0]: line for line in lines}
        for req_id, metric in zip(REQ_IDS, EXPECTED_METRICS):
            assert f"[{metric}]" in rendered[req_id]
        assert "as many bits as" in rendered["R7"]

    def test_g13_single_line(self, runner, obs_path):
        result = _invoke(runner, "relax", obs_path, "--goal", "G13")
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("R12:")

    def test_missing_metric_exits_one_naming_requirement(
            self, runner, tmp_path):
        text = paps.obs_fixture_text().replace(
            ' metric="complexity"', "", 1)  # strips R6's metric
        path = tmp_path / "nometric.srm"
        path.write_text(text)
        result = _invoke(runner, "relax", str(path), "--goal", "S")
        assert result.exit_code == 1
        assert "R6" in result.output

    def test_rulebase_with_other_inputs_exits_one(self, runner, obs_path,
                                                 tmp_path):
        rules = _rules_file(tmp_path, "tech", "skill")
        result = _invoke(runner, "relax", obs_path, "--rules", rules)
        assert result.exit_code == 1
        assert result.output == (
            f"error: {rules}: line 28, column 1: input variables must be "
            "impact, cost and tech, got impact, cost, skill\n")

    def test_json_format(self, runner, obs_path):
        result = _invoke(runner, "relax", obs_path, "--format", "json")
        rows = json.loads(result.output)
        assert len(rows) == 12
        assert all("rendered" in r for r in rows)

    def test_csv_is_a_usage_error(self, runner, obs_path):
        result = _invoke(runner, "relax", obs_path, "--format", "csv")
        assert result.exit_code == 2


def _run_module(*args, env=None, **kwargs):
    """``python -m paps.cli ARGS`` in a fresh interpreter on this source."""
    src = Path(paps.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "paps.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(src), **(env or {})), **kwargs)


# command -> the options its --help must name
OPTIONS = {"validate": ["--help"],
           "impacts": ["--goal", "--format", "--out", "--help"],
           "prioritize": ["--goal", "--rules", "--format", "--out", "--help"],
           "relax": ["--goal", "--rules", "--format", "--out", "--help"]}


class TestCommandLineSurface:
    @pytest.mark.parametrize("args", [
        pytest.param([], id="no-command"),
        pytest.param(["frobnicate", "MODEL"], id="unknown-command"),
        pytest.param(["-h"], id="no-short-help"),
        pytest.param(["impacts", "MODEL", "--go", "S"], id="no-abbreviation"),
        pytest.param(["relax", "MODEL", "--format", "csv"], id="relax-csv"),
        pytest.param(["validate", "MISSING"], id="missing-model"),
        pytest.param(["impacts", "DIR"], id="model-is-a-directory"),
        pytest.param(["prioritize", "MODEL", "--rules", "MISSING"],
                     id="missing-rules"),
        pytest.param(["impacts", "MODEL", "--out", "DIR"],
                     id="out-is-a-directory"),
    ])
    def test_usage_and_io_failures_exit_two(self, runner, obs_path, tmp_path,
                                            args):
        where = {"MODEL": obs_path, "MISSING": str(tmp_path / "missing"),
                 "DIR": str(tmp_path)}
        result = _invoke(runner, *[where.get(arg, arg) for arg in args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr != ""

    def test_help_names_every_command(self, runner):
        result = _invoke(runner, "--help")
        assert result.exit_code == 0
        assert all(command in result.stdout for command in OPTIONS)

    @pytest.mark.parametrize("command", OPTIONS)
    def test_command_help_names_its_options(self, runner, command):
        result = _invoke(runner, command, "--help")
        assert result.exit_code == 0
        assert all(option in result.stdout for option in OPTIONS[command])

    def test_closed_stdout_exits_one_without_a_traceback(self, obs_path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before paps writes
        try:
            result = _run_module("impacts", obs_path, "--format", "csv",
                                 stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert result.stderr == b""

    def test_ascii_stdout_writes_utf8(self, obs_path):
        utf8 = _run_module("relax", obs_path, capture_output=True)
        forced = _run_module("relax", obs_path, capture_output=True,
                             env={"PYTHONIOENCODING": "ascii"})
        assert forced.returncode == 0, forced.stderr
        assert "\u00d7".encode() in forced.stdout
        assert forced.stdout == utf8.stdout

    def test_import_leaves_slow_modules_unloaded(self):
        # Each paps command is a fresh process, so import time is most of
        # what a run costs; on a clean interpreter (-S: no site hooks that
        # preload them) no command needs these at import.
        slow = ["dataclasses", "inspect", "importlib.resources", "json",
                "typing"]
        src = Path(paps.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, paps.cli; print(["
             f"m for m in {slow!r} if m in sys.modules])"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_interrupt_exits_one_with_aborted(self, runner, obs_path,
                                              monkeypatch):
        def interrupted(text):
            raise KeyboardInterrupt
        monkeypatch.setattr(paps.cli, "parse_model", interrupted)
        result = _invoke(runner, "validate", obs_path)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "\nAborted!\n"


class TestVersion:
    def test_prints_the_package_version(self, runner):
        result = _invoke(runner, "--version")
        assert result.exit_code == 0
        assert result.output == f"paps, version {paps.__version__}\n"

    def test_module_run_from_a_source_checkout(self, tmp_path):
        # No installed distribution is needed: the version comes from
        # paps.__version__, not from package metadata.
        src = Path(paps.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "paps.cli", "--version"],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"paps, version {paps.__version__}\n"

    def test_pyproject_takes_the_version_from_the_package(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        lines = pyproject.read_text(encoding="utf-8").splitlines()
        assert 'dynamic = ["version"]' in lines
        assert 'version = {attr = "paps.__version__"}' in lines
        assert not any(line.startswith('version = "') for line in lines)
