"""The perf trajectory at the repository root: every ``BENCH_*.json`` holds
the last JSON line of ``bench/run.py`` for each workload of
``BENCHMARK.json``, with every end-to-end metric, plus the commit and the
date it was measured at."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_baseline_is_recorded():
    assert ROOT / "BENCH_baseline.json" in RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_every_workload_and_end_to_end_metric(path):
    record = json.loads(path.read_text())
    assert record["commit"] and record["date"]
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(record["workloads"]) == workloads
    for name, run in record["workloads"].items():
        assert run["correct"] is True and run["failed"] == 0, name
        for metric in BENCHMARK["end_to_end"]:
            entry = run["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(entry["value"], (int, float)), (name, metric["name"])
