"""Self-test of the benchmark.

For every workload, a tiny untraced run and a tiny traced run must pass
their output checks and emit exactly the metrics ``BENCHMARK.json`` names,
with its units, and the untraced run must leave no speed sampler running.
While the tracer is installed, no package namespace may
still hold an original of a traced function; after it, no wrapper may be
left.  A run in a directory holding only ``BENCHMARK.json`` and ``bench/``
must exit non-zero without printing a result.

Usage: python3 bench/selftest.py
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import run

problems: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}")


def check_metrics(label: str, metrics: dict, expected: dict) -> None:
    got = {name: unit for name, (_, unit) in metrics.items()}
    check(got == expected, f"{label}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(expected) - set(got))}, "
          f"extra {sorted(set(got) - set(expected))}, "
          f"units {[n for n in got if n in expected and got[n] != expected[n]]}")


def check_coverage() -> None:
    """Every namespace that binds a traced function sees the wrapper."""
    from tracing import STEP_FUNCTIONS, TRACED, Tracer, leftover_wrappers, package_modules

    originals = {
        id(getattr(sys.modules[f"fewshot_ibp.{m}"], f))
        for m, fns in TRACED.items() for f in fns
    }
    originals |= {id(getattr(sys.modules["fewshot_ibp.harness"], f)) for f in STEP_FUNCTIONS}
    with Tracer().installed():
        stale = [f"{m.__name__}.{a}" for m in package_modules()
                 for a, v in vars(m).items() if id(v) in originals]
        check(not stale, f"originals still bound while tracing: {stale}")
        check(len(leftover_wrappers()) > len(originals), "wrappers not installed")
    check(not leftover_wrappers(), f"wrappers left: {leftover_wrappers()}")


def check_bare_directory() -> None:
    """Without the package beside it the benchmark must refuse to run."""
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "protonet-fc-ibpi",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(out.returncode != 0, "bare directory run exited 0")
        check('"correct"' not in out.stdout, "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check(run.load_package(), "fewshot_ibp not found beside bench/")
    from tracing import leftover_wrappers
    from workloads import WORKLOADS

    check(sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]),
          "workload names differ from BENCHMARK.json")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, workload in WORKLOADS.items():
        attempted, failed, metrics = run.untraced_run(workload, 1, 0.1, tiny=True)
        check(attempted >= 2 and failed == 0, f"{name}: untraced run failed")
        check_metrics(f"{name} untraced", metrics, end_to_end)
        check(signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
              and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
              f"{name}: speed sampler left running")
        attempted, failed, metrics = run.traced_run(workload, 1, tiny=True)
        check(attempted == 2 and failed == 0, f"{name}: traced run failed")
        check_metrics(f"{name} traced", metrics, per_layer)
        check(not leftover_wrappers(), f"{name}: wrappers left after the traced run")
        print(f"ok {name}")
    check_coverage()
    check_bare_directory()
    print("selftest FAILED" if problems else "selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
