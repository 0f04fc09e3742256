"""Every OBS command line of the benchmark, byte for byte.

``bench/obs_digests.json`` maps a command line (``MODEL`` standing for the
bundled OBS model) to the SHA-256 of its exit code, stdout and stderr. Each
one is replayed in-process here. ``validate CYCLE<k>`` validates OBS with
its k-th goal-to-goal edge reversed, as ``bench/gen.py`` writes it.
"""

import hashlib
import json

import pytest

import paps
from cli_runner import invoke
from generators import BENCH, bench_gen as gen

DIGESTS = json.loads((BENCH / "obs_digests.json").read_text())
KEYS = sorted(DIGESTS)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "obs.srm"
    path.write_text(paps.obs_fixture_text(), encoding="utf-8")
    return str(path)


def test_every_command_line_is_covered():
    cycles = [f"validate CYCLE{k}" for k in range(len(gen.obs_goal_edges()))]
    assert len(KEYS) == 103
    assert set(cycles) <= set(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_output_matches_recorded_digest(key, model_path, tmp_path):
    if key.startswith("validate CYCLE"):
        cyclic = tmp_path / "cycle.srm"
        cyclic.write_text(gen.obs_cyclic_variant(int(key[len("validate CYCLE"):])),
                          encoding="utf-8")
        args = ["validate", str(cyclic)]
    else:
        args = [model_path if arg == "MODEL" else arg for arg in key.split()]
    result = invoke(args)
    digest = hashlib.sha256(f"{result.exit_code}\0{result.stdout}\0"
                            f"{result.stderr}".encode()).hexdigest()
    assert digest == DIGESTS[key]
