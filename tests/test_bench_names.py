"""The traced benchmark finds every function it wraps.

``bench/tracing.py`` looks each traced name up with ``getattr`` when a traced
run starts, so a refactor that renames or deletes one would otherwise fail
only at benchmark time.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracing):
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), name, None)
        )
    ]
    assert missing == []


def test_step_functions_resolve(tracing):
    harness = importlib.import_module(f"{tracing.PACKAGE}.harness")
    missing = [n for n in tracing.STEP_FUNCTIONS if not callable(getattr(harness, n, None))]
    assert missing == []
