"""Benchmark of ``fewshot_ibp`` training, timed from outside the package.

Usage (from any directory; the package is imported from ``src/`` beside
this directory)::

    python3 bench/run.py --workload protonet-fc-ibpi [--seed 0] [--seconds 20] [--trace 0]

``--trace 0`` times ``harness.train`` with nothing installed in the package
and prints the end-to-end metrics.  ``--trace 1`` runs ``train`` once
untraced and once with the per-layer tracer of ``tracing.py``, and prints the
per-layer metrics.  Every run checks the outputs of every ``train`` call.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md describes
the workloads and every metric.
"""

import os

# One thread per process: BLAS must not start a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from speed import CLOCK, SpeedSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")

DEFAULT_SEED = 0
SETUP_PROBES = 7
MIN_REPEATS = 2
# the final evaluate is re-run for at least this long per repeat
EVAL_MIN_SECONDS = 0.5
WARMUP = {"max_steps": 3, "n_eval_tasks": 2}
BOX_TOL = 1e-9


def load_package() -> bool:
    """Put ``src/`` first on the import path; False if the package is not
    there (a copy installed elsewhere must not be benchmarked instead)."""
    if not os.path.isfile(os.path.join(SRC, "fewshot_ibp", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def prepare(workload, seed: int, tiny: bool):
    """Write the run's inputs under ``.bench_work`` and return the config."""
    workdir = os.path.join(WORK, f"{workload.name}-seed{seed}{'-tiny' if tiny else ''}")
    os.makedirs(workdir, exist_ok=True)
    config = workload.config(seed, workdir, tiny=tiny)
    config_path = os.path.join(workdir, "config.json")
    config.save(config_path)
    return config, config_path, workdir


def probe_setup(config_path: str, sampler: SpeedSampler) -> tuple[float, float]:
    """CPU seconds of a fresh process up to its first training step,
    measured and at reference speed.  Bursts of slices right before and
    after the probe give the machine's speed."""
    sampler.burst()
    a = CLOCK()
    out = subprocess.run(
        [sys.executable, PROBE, SRC, config_path],
        capture_output=True, text=True, timeout=120, check=True,
    )
    b = CLOCK()
    sampler.burst()
    seconds = float(out.stdout.split()[-1])
    return seconds, seconds * sampler.speed(a, b)


def digest(rows) -> str:
    from fewshot_ibp.harness import metrics_csv

    return hashlib.sha256(metrics_csv(rows).encode("utf-8")).hexdigest()


class Checker:
    """Output checks on one ``train`` result; each returns failure strings."""

    def __init__(self, workload, config, data, tiny: bool):
        self.config = config
        self.test = data["test"]
        self.floor = 0.0 if tiny else workload.accuracy_floor

    def check(self, network, rows, summary) -> list[str]:
        failures = []
        if summary.get("status") != "completed":
            failures.append(f"status {summary.get('status')!r}")
        if len(rows) != self.config.max_steps:
            failures.append(f"{len(rows)} rows for {self.config.max_steps} steps")
        bad = [r["step"] for r in rows
               if not all(math.isfinite(r[k]) for k in ("l_ce", "l_lb", "l_ub", "total"))]
        if bad:
            failures.append(f"non-finite loss at steps {bad[:5]}")
        acc = summary.get("test_accuracy", -1.0)
        if acc < self.floor:
            failures.append(f"test accuracy {acc} below floor {self.floor}")
        worst = self.box_violation(network)
        if worst > BOX_TOL:
            failures.append(f"box misses a perturbed query by {worst:.3g}")
        return failures

    def box_violation(self, network, n_tasks: int = 4, n_points: int = 8) -> float:
        """Largest distance by which the prefix image of a perturbed test
        query leaves its ``propagate_prefix`` box (<= 0 when contained).
        Half the perturbations are corners of the epsilon box."""
        from fewshot_ibp.bounds import propagate_prefix
        from fewshot_ibp.episodes import sample_task
        from fewshot_ibp.layers import forward

        eps = self.config.epsilon
        rng = np.random.default_rng((self.config.seed, 404))
        worst = -np.inf
        for _ in range(n_tasks):
            x = sample_task(self.test, self.config.eval_spec(), rng).query_x
            res = propagate_prefix(network, x, eps).values()
            stats = []
            forward(network.prefix, x, stats_out=stats)
            for k in range(n_points):
                if k % 2:
                    delta = rng.uniform(-eps, eps, size=x.shape)
                else:
                    delta = eps * rng.choice((-1.0, 1.0), size=x.shape)
                y = forward(network.prefix, x + delta, frozen_stats=stats)
                worst = max(worst, float(np.max(res.box.lower - y)),
                            float(np.max(y - res.box.upper)))
        return worst


def warm_up(config) -> None:
    """Fill lazy caches (numpy dispatch, first-call paths) before timing."""
    from fewshot_ibp.harness import train

    train(dataclasses.replace(config, **WARMUP))


def final_evaluate(network, config, test, min_seconds: float):
    """The exact ``evaluate`` call ``train`` ends with, repeated until it has
    run for ``min_seconds``; returns its accuracies and the ``CLOCK``
    interval of each call."""
    from fewshot_ibp.harness import evaluate

    accuracies, spans, elapsed = set(), [], 0.0
    while not spans or elapsed < min_seconds:
        t0 = CLOCK()
        acc, _ = evaluate(
            network, config.learner, test, config.eval_spec(), config.n_eval_tasks,
            (config.seed, 202), eval_inner_steps=config.eval_inner_steps,
            inner_lr=config.inner_lr, distance=config.distance,
        )
        spans.append((t0, CLOCK()))
        elapsed += spans[-1][1] - t0
        accuracies.add(acc)
    return accuracies, spans


def timed_train(config):
    """``train`` with a ``progress`` callback stamping each finished step;
    also returns the ``CLOCK`` interval of the whole call."""
    from fewshot_ibp.harness import train

    stamps = []
    t0 = CLOCK()
    network, rows, summary = train(config, progress=lambda row: stamps.append(CLOCK()))
    return network, rows, summary, (t0, CLOCK()), stamps


def timings(ok, setup, to_seconds) -> dict:
    """The timing metrics of the passing repeats, each interval converted by
    ``to_seconds(a, b)``."""
    gaps = np.array([to_seconds(a, b) for r in ok for a, b in zip(r[1], r[1][1:])]) * 1e3
    eval_tasks = sum(len(r[2]) for r in ok) * ok[0][3]
    return {
        "train_steps_per_s": (gaps.size / (gaps.sum() / 1e3), "steps/s"),
        "step_ms_p50": (float(np.median(gaps)), "ms"),
        "step_ms_p90": (float(np.percentile(gaps, 90)), "ms"),
        "eval_tasks_per_s": (eval_tasks / sum(to_seconds(*s) for r in ok for s in r[2]),
                             "tasks/s"),
        "run_s": (statistics.median(to_seconds(*r[0]) for r in ok), "s"),
        "setup_s": (statistics.median(setup), "s"),
    }


def untraced_run(workload, seed: int, seconds: float, tiny: bool = False):
    """Repeat ``train`` on one seed for ``seconds``; end-to-end metrics."""
    from fewshot_ibp.config import resolve_data

    config, config_path, _ = prepare(workload, seed, tiny)
    sampler = SpeedSampler()
    setup = [probe_setup(config_path, sampler) for _ in range(1 if tiny else SETUP_PROBES)]
    data = resolve_data(config)
    checker = Checker(workload, config, data, tiny)
    wall, cpu = time.perf_counter(), CLOCK()
    with sampler.running():
        attempted, failed, ok, first_digest = repeat_train(
            config, data, checker, seconds, tiny)
    wall, cpu = time.perf_counter() - wall, CLOCK() - cpu

    metrics = {}
    if ok:
        measured = timings(ok, [s[0] for s in setup], lambda a, b: b - a)
        metrics = timings(ok, [s[1] for s in setup], sampler.reference_seconds)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["test_accuracy"] = (ok[0][4], "fraction")
        n_gaps = sum(len(r[1]) - 1 for r in ok)
        speeds = sampler.relative_speeds()
        q1, q2, q3 = np.percentile(speeds, (25, 50, 75))
        print(f"# {len(ok)} train() repeats; {n_gaps} step gaps "
              f"({int(n_gaps * 0.1)} beyond p90); {len(setup)} set-up probes; "
              f"digest {first_digest[:16]}")
        print(f"# timed phase: {wall:.2f} s wall clock, {cpu:.2f} s CPU")
        print(f"# machine speed relative to reference, over {speeds.size} slices: "
              f"median {q2:.3f}, quartiles {q1:.3f} {q3:.3f}")
        print("# CPU time as measured, before conversion to reference speed:")
        for name, (value, unit) in measured.items():
            print(f"#   {name:40s} {value:14.6g} {unit}")
    return attempted, failed, metrics


def repeat_train(config, data, checker, seconds: float, tiny: bool):
    """Warm up, then repeat ``train`` and check each result until
    ``seconds`` are used up."""
    warm_up(config)
    attempted, failed, ok = 0, 0, []
    first_digest = None
    t_begin = time.perf_counter()
    last = 0.0
    while attempted < MIN_REPEATS or time.perf_counter() - t_begin + last <= seconds:
        attempted += 1
        t0 = time.perf_counter()
        try:
            network, rows, summary, train_span, stamps = timed_train(config)
            eval_accs, eval_spans = final_evaluate(
                network, config, data["test"], 0.0 if tiny else EVAL_MIN_SECONDS)
            failures = checker.check(network, rows, summary)
            if eval_accs != {summary["test_accuracy"]}:
                failures.append(f"evaluate gave {eval_accs}, train {summary['test_accuracy']}")
            d = digest(rows)
            first_digest = first_digest or d
            if d != first_digest:
                failures.append("metrics_csv digest differs between repeats of one seed")
        except Exception as err:  # a failed operation; the run goes on
            failures = [f"{type(err).__name__}: {err}"]
        last = time.perf_counter() - t0
        if failures:
            failed += 1
            print(f"repeat {attempted} FAILED: {'; '.join(failures)}", file=sys.stderr)
            continue
        ok.append((train_span, stamps, eval_spans, config.n_eval_tasks,
                   summary["test_accuracy"]))
    return attempted, failed, ok, first_digest


def traced_run(workload, seed: int, tiny: bool = False):
    """``train`` untraced, then traced; per-layer metrics of the traced run."""
    from fewshot_ibp.config import resolve_data
    from tracing import Tracer, leftover_wrappers

    config, _, workdir = prepare(workload, seed, tiny)
    data = resolve_data(config)
    checker = Checker(workload, config, data, tiny)
    warm_up(config)

    net_u, rows_u, summary_u, span_u, _ = timed_train(config)
    failures_u = checker.check(net_u, rows_u, summary_u)
    tracer = Tracer()
    with tracer.installed():
        net_t, rows_t, summary_t, span_t, _ = timed_train(config)
    failures_t = checker.check(net_t, rows_t, summary_t)
    leftovers = leftover_wrappers()
    if leftovers:
        failures_t.append(f"wrappers left installed: {leftovers}")
    if digest(rows_t) != digest(rows_u):
        failures_t.append("traced metrics_csv digest differs from the untraced one")
    metrics = tracer.metrics()
    last_layer = f"bounds.box_width.layer{config.split_index - 1}"
    if not math.isclose(metrics[last_layer][0], summary_t["box_width"], rel_tol=1e-12):
        failures_t.append(f"{last_layer} {metrics[last_layer][0]} != box_width "
                          f"{summary_t['box_width']}")
    metrics["trace.overhead_ratio"] = ((span_t[1] - span_t[0]) / (span_u[1] - span_u[0]),
                                       "ratio")
    trace_path = os.path.join(workdir, "trace.jsonl")
    tracer.write(trace_path)
    print(f"# {tracer.span_count} spans over {tracer.steps} steps written to "
          f"{os.path.relpath(trace_path, ROOT)}")
    for label, failures in (("untraced", failures_u), ("traced", failures_t)):
        if failures:
            print(f"{label} run FAILED: {'; '.join(failures)}", file=sys.stderr)
    return 2, int(bool(failures_u)) + int(bool(failures_t)), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_package():
        print(f"fewshot_ibp not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, metrics = traced_run(workload, args.seed)
    else:
        attempted, failed, metrics = untraced_run(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
