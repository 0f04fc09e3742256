"""Every function the traced benchmark wraps still exists.

``bench/tracing.py`` replaces each ``PATCHES`` target with a timing wrapper
and fails a traced run on a missing one; this catches a rename here first.
Only ``bench/`` is read.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("owner, attribute", [
    (owner, attribute) for owner, attribute, _, _ in tracing.PATCHES])
def test_patch_target_resolves_to_a_callable(owner, attribute):
    namespace = tracing._resolve(owner)
    assert namespace is not None, owner
    assert callable(getattr(namespace, attribute, None)), f"{owner}.{attribute}"
