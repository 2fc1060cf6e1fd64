"""The benchmark still runs against the package.

``bench/tracing.py`` looks each traced name up with ``getattr`` when a traced
run starts, and ``bench/selftest.py`` checks tiny untraced and traced runs of
every workload, the traced box widths against the summary's included.  A
refactor that breaks either would otherwise fail only at benchmark time.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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


def test_benchmark_selftest_passes():
    out = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
