"""Digest a fixed matrix of short training runs, to check that a refactor
changes no result.

Each run trains with ``fewshot_ibp.harness.train`` into a temporary
directory.  Its digest is the SHA-256 of ``metrics.csv``, ``checkpoint.ckpt``
and the summary's ``test_accuracy``, ``test_ci95`` and ``box_width``.  The
runs cross six network/learner settings (ProtoNet on fc and on
conv/batchnorm, first-order MAML on fc and on conv, second-order MAML on
fc, and ProtoNet on fc with the ``euclidean`` distance) with the six
objectives and with ``shared_mix_coeffs`` and ``bounds_on_adapted`` both on
or both off: 72 runs.

The script imports ``fewshot_ibp`` from the ``src`` directory of the
checkout it sits in.  To compare two checkouts, run a copy of it in each:
the last line, a hash of the whole listing, must match.  ``--values``
appends each run's ``test_accuracy``, ``test_ci95`` and ``box_width`` to
its line, to show how far a run that moved has moved; the listing hash
covers only the run names and digests, so it is the same with or without
``--values``.

    python tools/digest_matrix.py              # all 72 runs
    python tools/digest_matrix.py --only maml1-fc-ibpi-on
    python tools/digest_matrix.py --values
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from fewshot_ibp.config import OBJECTIVES, RunConfig  # noqa: E402
from fewshot_ibp.harness import train  # noqa: E402

FC = (
    [
        {"kind": "fully_connected", "in": 8, "out": 32},
        {"kind": "relu"},
        {"kind": "fully_connected", "in": 32, "out": 16},
    ],
    2,
    {"shape": [8], "class_separation": 3.0},
)
CONV = (
    [
        {"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel": 3},
        {"kind": "batchnorm", "channels": 4},
        {"kind": "relu"},
        {"kind": "maxpool2d", "window": 2},
        {"kind": "flatten"},
        {"kind": "fully_connected", "in": 36, "out": 5},
    ],
    4,
    {"shape": [1, 8, 8], "class_separation": 2.0},
)
# name -> (learner, first_order, distance, network)
SETTINGS = {
    "protonet-fc": ("protonet", True, "sqeuclidean", FC),
    "protonet-conv": ("protonet", True, "sqeuclidean", CONV),
    "maml1-fc": ("maml", True, "sqeuclidean", FC),
    "maml1-conv": ("maml", True, "sqeuclidean", CONV),
    "maml2-fc": ("maml", False, "sqeuclidean", FC),
    "protonet-fc-euclidean": ("protonet", True, "euclidean", FC),
}
SUMMARY_KEYS = ("test_accuracy", "test_ci95", "box_width")
OUTPUT_FILES = ("metrics.csv", "checkpoint.ckpt")


def run_configs():
    """(name, config) for every run of the matrix, in listing order."""
    for (setting, setting_args), objective, flags in itertools.product(
        SETTINGS.items(), OBJECTIVES, (True, False)
    ):
        learner, first_order, distance, (layers, split_index, pool) = setting_args
        pool = {"n_classes": 12, "per_class": 30, "noise_scale": 1.0, **pool}
        splits = (("train", 11, "train"), ("val", 12, "validation"), ("test", 13, "test"))
        yield f"{setting}-{objective}-{'on' if flags else 'off'}", RunConfig(
            learner=learner,
            objective=objective,
            layers=layers,
            split_index=split_index,
            data={
                split: {"synth": {**pool, "seed": seed, "role": role}}
                for split, seed, role in splits
            },
            train_query_shots=3,
            eval_query_shots=5,
            max_steps=6,
            meta_batch=3,
            meta_lr=0.01,
            inner_lr=0.1,
            inner_steps=2,
            eval_inner_steps=3,
            first_order=first_order,
            distance=distance,
            shared_mix_coeffs=flags,
            bounds_on_adapted=flags,
            interp_probability=0.5,
            eval_interval=3,
            n_val_tasks=6,
            n_eval_tasks=12,
            seed=0,
        )


def run_digest(config: RunConfig, out_dir: str) -> tuple[str, dict]:
    """The run's digest and its summary."""
    config.out_dir = out_dir
    _, _, summary = train(config)
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    digest.update(json.dumps([summary[k] for k in SUMMARY_KEYS]).encode("utf-8"))
    return digest.hexdigest(), summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="RUN",
                        help="run only this run name (repeatable)")
    parser.add_argument("--values", action="store_true",
                        help="append each run's " + ", ".join(SUMMARY_KEYS))
    args = parser.parse_args(argv)
    runs = [(name, cfg) for name, cfg in run_configs() if not args.only or name in args.only]
    if not runs:
        parser.error(f"no run named {args.only}")
    listing = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in runs:
            digest, summary = run_digest(cfg, os.path.join(tmp, name))
            line = f"{name} {digest}"
            listing.update((line + "\n").encode("utf-8"))
            if args.values:
                line += "".join(f" {key}={summary[key]!r}" for key in SUMMARY_KEYS)
            print(line, flush=True)
    print(f"listing {listing.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
