"""Digest a fixed matrix of short training runs, to check that a refactor
changes no result.

Each run trains with ``fewshot_ibp.harness.train`` into a temporary
directory.  Its digest is the SHA-256 of ``metrics.csv``, ``checkpoint.ckpt``
and the summary's ``test_accuracy``, ``test_ci95`` and ``box_width``.  The
runs cross ten network/learner settings (ProtoNet on fc and on
conv/batchnorm, first-order MAML on fc and on conv, second-order MAML on
fc, on conv, on a deeper fc network, on a deeper conv network and on two
conv blocks, and ProtoNet on fc with the ``euclidean`` distance) with the
six objectives and with ``shared_mix_coeffs`` and ``bounds_on_adapted``
both on or both off: 120 runs.  Second-order MAML on conv is the only
kind of setting that differentiates through the gradients of the conv,
batchnorm and max-pool nodes.  The deeper networks and the two conv
blocks are the only ones whose prefix sends a box without a center into
an affine layer, so only their runs take the faces rule of
``fewshot_ibp.bounds`` and its adjoint: the fc one (fc, relu, fc, relu,
then the fc head) through a fully connected layer, the conv one (conv,
relu, conv, batchnorm, relu, flatten, then the fc head) through a conv and
a batchnorm layer.  A max pool keeps a centered box centered, so the two
conv blocks (conv, batchnorm, relu, max pool, twice, then flatten and the
fc head) are the only setting whose pool takes a box without a center, in
its second block.  One more
line, ``sample_task``, hashes the tasks ``fewshot_ibp.episodes.sample_task``
draws from the fc and the conv pool on the matrix's train spec, eval spec
and a ``compactness`` spec, 200 seeds each, so the listing checks the
sampler directly as well.  The last line, ``evaluate``, hashes the
per-task accuracies of first-order MAML evaluation
(``fewshot_ibp.learners.maml_task_accuracies``) of 600 test
tasks, on the fc and the conv network at their initialization, with the
matrix's eval spec, inner learning rate and eval inner steps.  The runs
evaluate only 12 tasks, one adaptation chunk, so this line is the one that
covers evaluation over several chunks.

The script imports ``fewshot_ibp`` from the ``src`` directory of the
checkout it sits in.  To compare two checkouts, run a copy of it in each:
the last line, a hash of the whole listing, must match.  ``--values``
appends each run's ``test_accuracy``, ``test_ci95`` and ``box_width`` to
its line, to show how far a run that moved has moved; the listing hash
covers only the run names and digests, so it is the same with or without
``--values``.  To see which runs moved between two checkouts, and by how
much, save a ``--values`` listing from one and run the other with
``--against`` that file: after its own listing it prints one line per line
whose digest moved, with the values that moved, and it exits 1 if any
run's ``test_accuracy`` or ``test_ci95`` moved.  A refactor whose digests
move by rounding keeps every one of them.

    python tools/digest_matrix.py              # all 120 runs, sample_task, evaluate
    python tools/digest_matrix.py --only maml1-fc-ibpi-on
    python tools/digest_matrix.py --only 'maml2-*'    # shell-style: the 60 second-order runs
    python tools/digest_matrix.py --only sample_task
    python tools/digest_matrix.py --only evaluate
    python tools/digest_matrix.py --values > parent-values.txt
    python tools/digest_matrix.py --against parent-values.txt   # in the other checkout
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import itertools
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from fewshot_ibp.config import OBJECTIVES, RunConfig, resolve_dataset  # noqa: E402
from fewshot_ibp.episodes import TaskSpec, sample_task  # noqa: E402
from fewshot_ibp.harness import train  # noqa: E402
from fewshot_ibp.layers import build_network  # noqa: E402
from fewshot_ibp.learners import maml_task_accuracies  # noqa: E402

FC = (
    [
        {"kind": "fully_connected", "in": 8, "out": 32},
        {"kind": "relu"},
        {"kind": "fully_connected", "in": 32, "out": 16},
    ],
    2,
    {"shape": [8], "class_separation": 3.0},
)
# a relu between two fc layers: the second one takes a box without a center
FC_DEEP = (
    [
        {"kind": "fully_connected", "in": 8, "out": 32},
        {"kind": "relu"},
        {"kind": "fully_connected", "in": 32, "out": 32},
        {"kind": "relu"},
        {"kind": "fully_connected", "in": 32, "out": 16},
    ],
    4,
    FC[2],
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
# a relu between two convs, then batchnorm: the second conv and the batchnorm
# take a box without a center
CONV_DEEP = (
    [
        {"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel": 3},
        {"kind": "relu"},
        {"kind": "conv2d", "in_channels": 4, "out_channels": 4, "kernel": 3},
        {"kind": "batchnorm", "channels": 4},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "fully_connected", "in": 64, "out": 5},
    ],
    6,
    CONV[2],
)
# two conv, batchnorm, relu, max-pool blocks: the first keeps the box
# centered through its pool; the second block's conv and batchnorm take the
# faces rule, and its pool a box without a center
CONV_TWO_BLOCK = (
    [
        {"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel": 3},
        {"kind": "batchnorm", "channels": 4},
        {"kind": "relu"},
        {"kind": "maxpool2d", "window": 2},
        {"kind": "conv2d", "in_channels": 4, "out_channels": 4, "kernel": 2},
        {"kind": "batchnorm", "channels": 4},
        {"kind": "relu"},
        {"kind": "maxpool2d", "window": 2},
        {"kind": "flatten"},
        {"kind": "fully_connected", "in": 4, "out": 5},
    ],
    8,
    CONV[2],
)
# name -> (learner, first_order, distance, network)
SETTINGS = {
    "protonet-fc": ("protonet", True, "sqeuclidean", FC),
    "protonet-conv": ("protonet", True, "sqeuclidean", CONV),
    "maml1-fc": ("maml", True, "sqeuclidean", FC),
    "maml1-conv": ("maml", True, "sqeuclidean", CONV),
    "maml2-fc": ("maml", False, "sqeuclidean", FC),
    "maml2-conv": ("maml", False, "sqeuclidean", CONV),
    "maml2-fc-deep": ("maml", False, "sqeuclidean", FC_DEEP),
    "maml2-conv-deep": ("maml", False, "sqeuclidean", CONV_DEEP),
    "maml2-conv-two-block": ("maml", False, "sqeuclidean", CONV_TWO_BLOCK),
    "protonet-fc-euclidean": ("protonet", True, "euclidean", FC),
}
SUMMARY_KEYS = ("test_accuracy", "test_ci95", "box_width")
RESULT_KEYS = ("test_accuracy", "test_ci95")  # --against fails if one moves
OUTPUT_FILES = ("metrics.csv", "checkpoint.ckpt")
SAMPLER_RUN = "sample_task"
SAMPLER_SEEDS = 200
COMPACTNESS_QUERIES = 100  # compactness's default queries_per_task
EVAL_RUN = "evaluate"
EVAL_TASKS = 600  # the default n_eval_tasks: several adaptation chunks


def pool_data(pool: dict) -> dict:
    """The ``data`` section of a run on a network's synthetic pool."""
    pool = {"n_classes": 12, "per_class": 30, "noise_scale": 1.0, **pool}
    splits = (("train", 11, "train"), ("val", 12, "validation"), ("test", 13, "test"))
    return {split: {"synth": {**pool, "seed": seed, "role": role}} for split, seed, role in splits}


def run_configs():
    """(name, config) for every run of the matrix, in listing order."""
    for (setting, setting_args), objective, flags in itertools.product(
        SETTINGS.items(), OBJECTIVES, (True, False)
    ):
        learner, first_order, distance, (layers, split_index, pool) = setting_args
        yield f"{setting}-{objective}-{'on' if flags else 'off'}", RunConfig(
            learner=learner,
            objective=objective,
            layers=layers,
            split_index=split_index,
            data=pool_data(pool),
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


def sampler_digest() -> str:
    """SHA-256 of the tasks drawn from the fc and the conv pool, each from
    ``SAMPLER_SEEDS`` seeds: on the train split with the train spec, and on
    the test split with the eval spec and with the spec ``compactness``
    draws for its default query count.  It covers every array's dtype,
    shape and bytes, and the class ids."""
    config = next(run_configs())[1]
    eval_spec = config.eval_spec()
    compact_spec = TaskSpec(
        eval_spec.ways, eval_spec.shots, COMPACTNESS_QUERIES // eval_spec.ways
    )
    digest = hashlib.sha256()
    for _, _, pool in (FC, CONV):
        data = pool_data(pool)
        train_split, test_split = (resolve_dataset(data[s]) for s in ("train", "test"))
        for dataset, spec in (
            (train_split, config.train_spec()),
            (test_split, eval_spec),
            (test_split, compact_spec),
        ):
            for seed in range(SAMPLER_SEEDS):
                task = sample_task(dataset, spec, np.random.default_rng(seed))
                for arr in (task.support_x, task.support_y, task.query_x, task.query_y):
                    digest.update(f"{arr.dtype.str} {arr.shape}".encode("utf-8"))
                    digest.update(arr.tobytes())
                digest.update(json.dumps(task.class_ids).encode("utf-8"))
    return digest.hexdigest()


def evaluate_digest() -> str:
    """SHA-256 of the per-task accuracies of first-order MAML evaluation of
    ``EVAL_TASKS`` tasks of the test split, drawn as ``evaluate`` draws them,
    on the fc and on the conv network as the matrix's seed initializes
    them.  It covers the accuracy arrays' dtype, shape and bytes."""
    config = dict(run_configs())["maml1-fc-ibpi-on"]
    spec = config.eval_spec()
    digest = hashlib.sha256()
    for layers, split_index, pool in (FC, CONV):
        network = build_network(layers, split_index, np.random.default_rng(config.seed))
        dataset = resolve_dataset(pool_data(pool)["test"])
        tasks = (
            sample_task(dataset, spec, np.random.default_rng(np.random.SeedSequence((0, i))))
            for i in range(EVAL_TASKS)
        )
        accs = maml_task_accuracies(network, tasks, config.inner_lr, config.eval_inner_steps)
        digest.update(f"{accs.dtype.str} {accs.shape}".encode("utf-8"))
        digest.update(accs.tobytes())
    return digest.hexdigest()


# lines after the runs, each the digest of one direct check
CHECKS = {SAMPLER_RUN: sampler_digest, EVAL_RUN: evaluate_digest}


def parse_listing(text: str) -> dict:
    """``{name: (digest, values)}`` for each line of a listing but the
    ``listing`` line, ``values`` the ``key=value`` fields a ``--values``
    listing appends to a run (empty on a check line).  A line that is not
    a name, a digest and ``key=value`` fields raises ``ValueError``."""
    lines = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 2 or any("=" not in field for field in parts[2:]):
            raise ValueError(f"not a listing line: {line!r}")
        name, digest, *fields = parts
        if name != "listing":
            lines[name] = (digest, dict(field.split("=", 1) for field in fields))
    return lines


def compare(saved: dict, current: dict) -> tuple[list[str], bool]:
    """One report line for each line of ``current`` whose digest differs
    from ``saved`` (both parsed listings), naming the values that moved,
    and whether any run's ``test_accuracy`` or ``test_ci95`` moved."""
    report, results_moved = [], False
    for name, (digest, values) in current.items():
        if name not in saved:
            report.append(f"absent {name}: not in the saved listing")
            continue
        old_digest, old_values = saved[name]
        if digest == old_digest:
            continue
        changed = [key for key in values if values[key] != old_values[key]]
        results_moved |= any(key in RESULT_KEYS for key in changed)
        report.append(
            f"moved {name}"
            + "".join(f" {key} {old_values[key]} -> {values[key]}" for key in changed)
        )
    moved = sum(line.startswith("moved ") for line in report)
    report.append(
        f"{moved} of {len(current)} lines moved; "
        + ("test_accuracy or test_ci95 moved" if results_moved
           else "test_accuracy and test_ci95 held")
    )
    return report, results_moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="RUN",
                        help="run only the runs this name or shell-style pattern "
                             "matches (repeatable)")
    parser.add_argument("--values", action="store_true",
                        help="append each run's " + ", ".join(SUMMARY_KEYS))
    parser.add_argument("--against", metavar="FILE",
                        help="compare with a saved --values listing: print each line "
                             "that moved, exit 1 if a run's "
                             + " or ".join(RESULT_KEYS) + " moved")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            try:
                saved = parse_listing(fh.read())
            except ValueError as err:
                parser.error(f"{args.against}: {err}")
        if any(name not in CHECKS and set(values) != set(SUMMARY_KEYS)
               for name, (_, values) in saved.items()):
            parser.error(f"{args.against} is not a --values listing")

    def selected(name):
        return not args.only or any(fnmatch.fnmatchcase(name, pat) for pat in args.only)

    runs = [(name, cfg) for name, cfg in run_configs() if selected(name)]
    checks = [name for name in CHECKS if selected(name)]
    if not runs and not checks:
        parser.error(f"no run named {args.only}")
    listing = hashlib.sha256()
    current = {}

    def emit(name, digest, values):
        current[name] = (digest, values)
        line = f"{name} {digest}"
        listing.update((line + "\n").encode("utf-8"))
        extra = "".join(f" {key}={value}" for key, value in values.items())
        print(line + (extra if args.values else ""), flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in runs:
            digest, summary = run_digest(cfg, os.path.join(tmp, name))
            emit(name, digest, {key: repr(summary[key]) for key in SUMMARY_KEYS})
    for name in checks:
        emit(name, CHECKS[name](), {})
    print(f"listing {listing.hexdigest()}")
    if saved is None:
        return 0
    report, results_moved = compare(saved, current)
    print("\n".join(report))
    return 1 if results_moved else 0


if __name__ == "__main__":
    sys.exit(main())
