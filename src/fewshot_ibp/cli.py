"""Command-line entry points: train, eval, compactness, transfer, report,
and synthetic dataset generation.

Every subcommand exits 0 on success; failures print a machine-readable JSON
error record to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import RunConfig
from .episodes import TaskSpec, load_dataset, save_dataset, synth_dataset
from .harness import compactness, evaluate, report, train
from .layers import check_instance_shape, layer_descs, load_checkpoint
from .learners import DISTANCES


def _task_spec_args(parser):
    parser.add_argument("--ways", type=int, default=5)
    parser.add_argument("--shots", type=int, default=1)
    parser.add_argument("--query-shots", type=int, default=15)


def _spec_from(args) -> TaskSpec:
    return TaskSpec(args.ways, args.shots, args.query_shots)


def _cmd_train(args):
    config = RunConfig.from_file(args.config)
    overrides = {"seed": args.seed, "out_dir": args.out}
    # replaced, not assigned, so the overrides are checked as the file's fields are
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    progress = None
    if args.verbose:
        def progress(row):
            if row["step"] % 100 == 0 or row["val_accuracy"] is not None:
                val = (
                    f" val={row['val_accuracy']:.4f}"
                    if row["val_accuracy"] is not None
                    else ""
                )
                print(
                    f"step {row['step']:6d}  total={row['total']:.4f}"
                    f"  ce={row['l_ce']:.4f}{val}",
                    flush=True,
                )
    _, rows, summary = train(config, progress=progress)
    print(json.dumps({k: summary[k] for k in ("status", "steps_run", "fingerprint")}))
    return 0


def _emit(result: dict, out) -> int:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    print(json.dumps(result))
    return 0


def _loaded(args):
    """The checkpoint's network and the dataset, whose instance shape is
    walked through the network's layers before any task is drawn: a layer
    the instances do not fit fails with its index, kind and both sizes."""
    network = load_checkpoint(args.checkpoint)[0]
    dataset = load_dataset(args.dataset)
    shape = dataset.pool.shape[1:]
    check_instance_shape(layer_descs(network.layers), shape,
                         f"{dataset.role} instances of shape {shape}")
    return network, dataset


def _cmd_eval(args):
    """``eval`` and ``transfer``: accuracy of a checkpoint on a dataset, which
    for transfer is another dataset than the one trained on."""
    network, dataset = _loaded(args)
    mean, ci = evaluate(
        network,
        args.learner,
        dataset,
        _spec_from(args),
        args.n_tasks,
        (args.seed,),
        eval_inner_steps=args.eval_inner_steps,
        inner_lr=args.inner_lr,
        distance=args.distance,
    )
    return _emit(
        {"accuracy": mean, "ci95": ci, "n_tasks": args.n_tasks, "target_role": dataset.role},
        args.out,
    )


def _cmd_compactness(args):
    network, dataset = _loaded(args)
    mean, std = compactness(
        network,
        dataset,
        _spec_from(args),
        n_tasks=args.n_tasks,
        queries_per_task=args.queries_per_task,
        seed_entropy=(args.seed,),
    )
    return _emit({"nn_distance_mean": mean, "nn_distance_std": std}, args.out)


def _cmd_report(args):
    rows = report(args.summaries, out_csv=args.out_csv, out_json=args.out_json)
    print(json.dumps(rows))
    return 0


def _cmd_synth(args):
    dataset = synth_dataset(
        n_classes=args.classes,
        per_class=args.per_class,
        shape=tuple(args.shape),
        class_separation=args.separation,
        noise_scale=args.noise,
        seed=args.seed,
        role=args.role,
    )
    save_dataset(dataset, args.out)
    print(json.dumps({"classes": args.classes, "per_class": args.per_class, "out": args.out}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewshot-ibp",
        description="Few-shot learning with interval-bound neighborhood "
        "preservation and bound-based task interpolation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_train)

    for name in ("eval", "transfer"):
        p = sub.add_parser(name, help=f"{name} a checkpoint on a dataset")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--dataset", required=True)
        p.add_argument("--learner", choices=("protonet", "maml"), required=True)
        _task_spec_args(p)
        p.add_argument("--n-tasks", type=int, default=600)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eval-inner-steps", type=int, default=10)
        p.add_argument("--inner-lr", type=float, default=0.01)
        p.add_argument("--distance", choices=DISTANCES, default="sqeuclidean")
        p.add_argument("--out", default=None)
        p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("compactness", help="same-class NN distance in the embedding")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    _task_spec_args(p)
    p.add_argument("--n-tasks", type=int, default=600)
    p.add_argument("--queries-per-task", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compactness)

    p = sub.add_parser("report", help="merge run summaries into one table")
    p.add_argument("summaries", nargs="+")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-json", default=None)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic dataset file")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--shape", type=int, nargs="+", required=True)
    p.add_argument("--separation", type=float, default=3.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--role", default="train")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:  # error record goes to stderr, nonzero exit
        record = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
