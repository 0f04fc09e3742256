"""What ``paps`` prints for a .srm model does not depend on the order of
its lines.

Each model is run as written and then under seeded shuffles of every line
after the root goal. The root is the first goal by grammar, and an
``option`` line must come before it, so both stay in place.
"""

import random

import pytest

import paps
from cli_runner import invoke
from generators import bench_gen

SHUFFLES = 20

# two rules with a requirement as head: two findings about rules
TWO_BAD_RULES = (
    'goal S "root"\n'
    'goal G1 "g"\n'
    'req R1 "a" cost=0.1 tech=0.5\n'
    'req R2 "b" cost=0.2 tech=0.5\n'
    "rule P1: S -> G1 @ 0.5\n"
    "rule P2: R1 -> G1 @ 0.5\n"
    "rule P3: R2 -> G1 @ 0.5\n"
)

# R01 and R1 have equal digit runs, and the same impact and RDS under G13
EQUAL_KEYS = (
    'req R01 "achieve request transaction code again" cost=0.5 tech=1.0\n'
    "rule P22: G13 -> R01 @ 0.7\n"
    "rule P23: G13 -> R1 @ 0.7\n"
)


def _shuffled(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    root = next(n for n, line in enumerate(lines)
                if line.lstrip().startswith("goal "))
    rest = lines[root + 1:]
    rng.shuffle(rest)
    return "\n".join(lines[:root + 1] + rest) + "\n"


def _command_lines(text: str, valid: bool) -> list[list[str]]:
    """Every command to compare: ``validate``, and on a valid model the
    three matrix layouts and, for every goal, prioritize csv and relax."""
    commands = [["validate"]]
    if valid:
        commands += [["impacts", "--format", fmt]
                     for fmt in ("table", "csv", "json")]
        for goal in paps.parse_model(text)[0].sorted_goals():
            commands += [["prioritize", "--goal", goal.id, "--format", "csv"],
                         ["relax", "--goal", goal.id]]
    return commands


def _outputs(text: str, commands, path) -> list[tuple[int, str, str]]:
    path.write_text(text, encoding="utf-8")
    results = [invoke([name, str(path), *rest]) for name, *rest in commands]
    return [(r.exit_code, r.stdout, r.stderr) for r in results]


@pytest.mark.parametrize("text,valid", [
    pytest.param(paps.obs_fixture_text(), True, id="obs"),
    pytest.param(bench_gen.obs_cyclic_variant(0), False, id="cyclic"),
    pytest.param(paps.obs_fixture_text() + "rule P21: R5 -> G13 @ 0.5\n",
                 False, id="requirement-head"),
    pytest.param(paps.obs_fixture_text() + EQUAL_KEYS, True, id="equal-keys"),
    pytest.param(TWO_BAD_RULES, False, id="two-bad-rules"),
])
def test_outputs_do_not_depend_on_line_order(text, valid, tmp_path):
    commands = _command_lines(text, valid)
    expected = _outputs(text, commands, tmp_path / "model.srm")
    assert expected[0][0] == (0 if valid else 1)
    for seed in range(SHUFFLES):
        shuffled = _shuffled(text, random.Random(seed))
        assert _outputs(shuffled, commands, tmp_path / "model.srm") \
            == expected, f"seed {seed}:\n{shuffled}"
