"""Run the benchmark on several seeds and report each metric's spread.

Usage::

    python3 bench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 0]
                            [--seconds 20] [--trace 0] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints for each metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread (third minus first quartile, over the median).
``--out`` writes the same summary as JSON, e.g. a baseline to compare later
runs against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return result


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {
            "unit": entry["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="protonet-fc-ibpi,maml-fc-ibpi,"
                        "protonet-conv-ibp,maml2-fc-ibp")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, "
                   f"Python {platform.python_version()}",
        "seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds, args.trace) for s in seeds]
        summary = summarize(results)
        report["workloads"][workload] = summary
        print(f"== {workload} ({len(seeds)} seeds)")
        for name, m in summary.items():
            print(f"  {name:42s} median {m['median']:12.6g} {m['unit']:10s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:7.4f}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
