"""Every OBS command line of the benchmark, byte for byte.

``bench/obs_digests.json`` maps a command line (``MODEL`` standing for the
bundled OBS model) to the SHA-256 of its exit code, stdout and stderr. Each
one is replayed in-process here; the ``validate CYCLE*`` lines need the
benchmark's cyclic variants and are left to it.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import paps
from paps.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parent.parent
                      / "bench" / "obs_digests.json").read_text())
KEYS = sorted(k for k in DIGESTS if not k.startswith("validate CYCLE"))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "obs.srm"
    path.write_text(paps.obs_fixture_text(), encoding="utf-8")
    return str(path)


def _runner() -> CliRunner:
    try:
        return CliRunner(mix_stderr=False)  # click < 8.2 mixes by default
    except TypeError:
        return CliRunner()                  # click >= 8.2 keeps them apart


def test_every_command_line_is_covered():
    assert len(KEYS) == 88


@pytest.mark.parametrize("key", KEYS)
def test_output_matches_recorded_digest(key, model_path):
    args = [model_path if arg == "MODEL" else arg for arg in key.split()]
    result = _runner().invoke(main, args)
    digest = hashlib.sha256(f"{result.exit_code}\0{result.stdout}\0"
                            f"{result.stderr}".encode()).hexdigest()
    assert digest == DIGESTS[key]
