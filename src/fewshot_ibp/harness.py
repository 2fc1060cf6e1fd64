"""Experiment orchestration: training loops, evaluation with confidence
intervals (on the training distribution or, for transfer, another dataset),
compactness analysis, and consolidated reports.

Training is sequential over steps.  A MAML step draws its meta-batch and
the interpolation of the tasks that fired, then scores all tasks at once on
a leading task axis: the inner and query losses give one value per task,
tasks that did not fire interpolate with zero weight, and the loss weights
are computed task by task from detached values.  Every derived random
stream is seeded from the run seed, and evaluation tasks use per-task
streams seeded by (run seed, task index), so a (config, seed) pair fully
determines the metrics stream.  Metrics are written as CSV (one row per
step, byte-stable across reruns) plus a JSON summary holding config,
fingerprint, timing, and final measurements.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from typing import NamedTuple

import numpy as np

from .bounds import propagate_prefix
from .config import SCHEMA_VERSION, RunConfig, resolve_data
from .episodes import Dataset, Task, TaskSpec, sample_task
from .interpolation import (
    BOUND_MODES,
    MODES,
    MixCoefficients,
    make_interpolated_task,
    sample_mix,
    should_interpolate,
)
from .layers import (
    Network,
    build_network,
    forward,
    make_param_nodes,
    param_nodes_to_list,
    save_checkpoint,
)
from .learners import (
    compute_prototypes,
    cross_entropy,
    maml_outer_step,
    maml_task_accuracies,
    protonet_logits,
    protonet_task_accuracies,
    task_chunks,
)
from .objective import (
    LossTriple,
    WeightTriple,
    bound_losses,
    dynamic_weights,
    epsilon_schedule,
    static_weights,
    total_loss,
)
from .optim import adam, optimizer_step
from .tensor import NonFiniteError, Tape, add, mul, value_of

METRICS_COLUMNS = [
    "step",
    "epsilon",
    "l_ce",
    "l_lb",
    "l_ub",
    "w_ce",
    "w_lb",
    "w_ub",
    "total",
    "val_accuracy",
    "val_ci",
]

BOUND_OBJECTIVES = ("ibp", "ibpi")


def _fmt(x) -> str:
    return repr(float(x))


def _weights_for(config: RunConfig, losses: LossTriple) -> WeightTriple:
    if config.objective not in BOUND_OBJECTIVES:
        return WeightTriple(1.0, 0.0, 0.0, mode="fixed")
    if config.static_weights is not None:
        return static_weights(*config.static_weights)
    return dynamic_weights(losses, config.gamma_value)


class _InterpContext(NamedTuple):
    """Coefficients and optional pair task, fixed for one training task."""

    coeffs: MixCoefficients
    query_coeffs: MixCoefficients
    pair_task: Task | None


def _draw_context(config: RunConfig, task, dataset, interp_rng, sample_rng):
    coeffs = sample_mix(task.ways, config.alpha, config.beta, interp_rng)
    query_coeffs = (
        coeffs
        if config.shared_mix_coeffs
        else sample_mix(task.ways, config.alpha, config.beta, interp_rng)
    )
    pair_task = None
    if config.objective not in BOUND_MODES:  # a mixup mode
        pair_task = sample_task(dataset, config.train_spec(), sample_rng)
    return _InterpContext(coeffs, query_coeffs, pair_task)


def _protonet_loss(network, head_params, support_h, query_h, task, distance):
    support_emb = forward(network.head, support_h, params=head_params)
    query_emb = forward(network.head, query_h, params=head_params)
    protos = compute_prototypes(support_emb, task.support_y, task.ways)
    return cross_entropy(protonet_logits(query_emb, protos, distance), task.query_y)


def _protonet_step(network, dataset, config, eps_t, sample_rng, interp_rng, opt_state):
    task = sample_task(dataset, config.train_spec(), sample_rng)
    mode = config.objective
    use_bounds = mode in BOUND_OBJECTIVES
    ctx = None
    if mode in MODES and should_interpolate(
        "protonet", 1, interp_rng, config.interp_probability
    )[0]:
        ctx = _draw_context(config, task, dataset, interp_rng, sample_rng)

    s = network.split_index
    with Tape() as tape:
        params = make_param_nodes(network.layers, tape)
        prefix_params, head_params = params[:s], params[s:]

        # the clean pass shares the centers of the boxes that the bound losses
        # or a bound-mode interpolation read
        interp_boxes = ctx is not None and mode in BOUND_MODES
        qres = sres = None
        if use_bounds or interp_boxes:
            qres = propagate_prefix(network, task.query_x, eps_t, params=prefix_params)
            query_prefix = qres.center
        else:
            query_prefix = forward(network.prefix, task.query_x, params=prefix_params)
        if interp_boxes:
            sres = propagate_prefix(network, task.support_x, eps_t, params=prefix_params)
            support_prefix = sres.center
        else:
            support_prefix = forward(network.prefix, task.support_x, params=prefix_params)
        l_ce = _protonet_loss(
            network, head_params, support_prefix, query_prefix, task, config.distance
        )

        if ctx is not None:
            support_h = make_interpolated_task(
                mode, network, task.support_x, task.support_y, ctx.coeffs,
                prefix_params, eps_t, bounds=sres,
                pair_x=getattr(ctx.pair_task, "support_x", None),
            )
            query_h = make_interpolated_task(
                mode, network, task.query_x, task.query_y, ctx.query_coeffs,
                prefix_params, eps_t, bounds=qres,
                pair_x=getattr(ctx.pair_task, "query_x", None),
            )
            l_ce2 = _protonet_loss(
                network, head_params, support_h, query_h, task, config.distance
            )
            l_ce = mul(add(l_ce, l_ce2), 0.5)

        if use_bounds:
            l_lb, l_ub = bound_losses(qres.center, qres.box)
        else:
            l_lb, l_ub = 0.0, 0.0
        losses = LossTriple(l_ce, l_lb, l_ub)
        weights = _weights_for(config, losses)
        total = total_loss(losses, weights)

        flat = param_nodes_to_list(params)
        grads = tape.backward(total, flat)
    new_arrays, opt_state = optimizer_step(
        network.parameter_arrays(), [grads[p] for p in flat], opt_state
    )
    network.set_parameter_arrays(new_arrays)
    return {
        "losses": losses.values(),
        "weights": weights.as_tuple(),
        "total": float(value_of(total)),
    }, opt_state


class _TaskMix(NamedTuple):
    """The interpolation of one meta-batch, stacked on the task axis.

    A task that did not fire has zero mixing weights and, for the mixup
    modes, its own sets as the pair, so its interpolated input is its own
    embedding bit for bit; its (plain, interpolated) cross-entropies weigh
    (1, 0) against (1/2, 1/2) on a task that fired.
    """

    coeffs: MixCoefficients
    query_coeffs: MixCoefficients
    pair_support_x: np.ndarray | None
    pair_query_x: np.ndarray | None
    ce_weights: np.ndarray  # (tasks, 2)


def _stack_contexts(tasks, contexts) -> _TaskMix | None:
    if all(ctx is None for ctx in contexts):
        return None
    ways = tasks[0].ways
    idle = MixCoefficients(np.zeros(ways), np.zeros(ways, dtype=int))

    def stacked(field):
        rows = [idle if ctx is None else getattr(ctx, field) for ctx in contexts]
        return MixCoefficients(np.stack([r.lam for r in rows]), np.stack([r.nu for r in rows]))

    pair_support_x = pair_query_x = None
    if any(ctx is not None and ctx.pair_task is not None for ctx in contexts):
        pairs = [task if ctx is None else ctx.pair_task for task, ctx in zip(tasks, contexts)]
        pair_support_x = np.stack([pair.support_x for pair in pairs])
        pair_query_x = np.stack([pair.query_x for pair in pairs])
    fired = np.array([ctx is not None for ctx in contexts])
    ce_weights = np.where(fired[:, None], 0.5, np.array([1.0, 0.0]))
    return _TaskMix(
        stacked("coeffs"), stacked("query_coeffs"), pair_support_x, pair_query_x, ce_weights
    )


def _mixed_cross_entropy(network, l_ce, h, head_params, labels, mix: _TaskMix):
    """Per-task weighted sum of the plain and the interpolated cross-entropy."""
    scores = forward(network.head, h, params=head_params, task_axis=True)
    l_ce2 = cross_entropy(scores, labels)
    return add(mul(l_ce, mix.ce_weights[:, 0]), mul(l_ce2, mix.ce_weights[:, 1]))


def _maml_inner_loss(network, config, eps_t, mix: _TaskMix | None):
    s = network.split_index

    def inner_loss(batch, params):
        logits = forward(network.layers, batch.support_x, params=params, task_axis=True)
        l_ce = cross_entropy(logits, batch.support_y)
        if mix is None:
            return l_ce
        h = make_interpolated_task(
            config.objective, network, batch.support_x, batch.support_y, mix.coeffs,
            params[:s], eps_t, pair_x=mix.pair_support_x, task_axis=True,
        )
        return _mixed_cross_entropy(network, l_ce, h, params[s:], batch.support_y, mix)

    return inner_loss


def _maml_query_loss(network, config, eps_t, mix: _TaskMix | None):
    s = network.split_index
    mode = config.objective
    use_bounds = mode in BOUND_OBJECTIVES

    def query_loss(batch, theta, phi):
        logits = forward(network.layers, batch.query_x, params=phi, task_axis=True)
        l_ce = cross_entropy(logits, batch.query_y)

        qres = None
        if use_bounds or (mix is not None and mode in BOUND_MODES):
            bound_params = phi if config.bounds_on_adapted else theta
            qres = propagate_prefix(
                network, batch.query_x, eps_t, params=bound_params[:s], task_axis=True
            )

        if mix is not None:
            h = make_interpolated_task(
                mode, network, batch.query_x, batch.query_y, mix.query_coeffs,
                phi[:s], eps_t, bounds=qres, pair_x=mix.pair_query_x, task_axis=True,
            )
            l_ce = _mixed_cross_entropy(network, l_ce, h, phi[s:], batch.query_y, mix)

        if use_bounds:
            l_lb, l_ub = bound_losses(qres.center, qres.box, task_axis=True)
        else:
            l_lb, l_ub = 0.0, 0.0
        losses = LossTriple(l_ce, l_lb, l_ub)
        per_task = losses.per_task(len(batch.query_y))
        weights = [_weights_for(config, task_losses) for task_losses in per_task]
        total = total_loss(losses, weights)
        infos = [
            {"losses": task_losses.values(), "weights": w.as_tuple(), "total": float(t)}
            for task_losses, w, t in zip(per_task, weights, value_of(total))
        ]
        return total, infos

    return query_loss


def _maml_step(network, dataset, config, eps_t, sample_rng, interp_rng, opt_state):
    b = config.meta_batch
    tasks = [sample_task(dataset, config.train_spec(), sample_rng) for _ in range(b)]
    contexts = [None] * b
    if config.objective in MODES:
        mask = should_interpolate("maml", b, interp_rng, config.interp_probability)
        contexts = [
            _draw_context(config, task, dataset, interp_rng, sample_rng) if fired else None
            for task, fired in zip(tasks, mask)
        ]
    mix = _stack_contexts(tasks, contexts)
    infos = maml_outer_step(
        network,
        tasks,
        _maml_inner_loss(network, config, eps_t, mix),
        _maml_query_loss(network, config, eps_t, mix),
        opt_state,
        config.inner_lr,
        config.inner_steps,
        first_order=config.first_order,
    )
    losses = tuple(float(np.mean([i["losses"][k] for i in infos])) for k in range(3))
    weights = tuple(float(np.mean([i["weights"][k] for i in infos])) for k in range(3))
    total = float(np.mean([i["total"] for i in infos]))
    return {"losses": losses, "weights": weights, "total": total}, opt_state


def _task_rngs(seed_entropy, n_tasks: int):
    """One generator per task, task ``i`` seeded by (entropy, i)."""
    entropy = tuple(np.atleast_1d(seed_entropy).astype(np.uint64).tolist())
    for i in range(n_tasks):
        yield np.random.default_rng(np.random.SeedSequence(entropy + (i,)))


def evaluate(
    network: Network,
    learner: str,
    dataset: Dataset,
    spec: TaskSpec,
    n_tasks: int,
    seed_entropy,
    eval_inner_steps: int = 10,
    inner_lr: float = 0.01,
    distance: str = "sqeuclidean",
):
    """Mean task accuracy with a normal-approximation 95% confidence
    half-width (zero for a single task, where the sample std is undefined).

    Task ``i`` is drawn from its own stream seeded by (entropy, i).  The
    meta-learner adapts all ``n_tasks`` tasks at once on a task axis,
    recording one tape per inner step for all of them, each released after
    its backward pass, and scores each task's queries with its own adapted
    parameters, one forward pass per chunk of tasks
    (:func:`~fewshot_ibp.learners.maml_task_accuracies`); the prototype
    learner scores them on a task axis, one chunk of tasks at a time as they
    are drawn (:func:`~fewshot_ibp.learners.protonet_task_accuracies`).
    Transfer is this call on a dataset other than the one trained on: the
    meta-learner still fine-tunes on each task's support set, and shape
    incompatibilities surface as ``ValueError`` from the forward pass.
    """
    if n_tasks < 1:
        raise ValueError("need at least one evaluation task")
    tasks = (sample_task(dataset, spec, rng) for rng in _task_rngs(seed_entropy, n_tasks))
    if learner == "maml":
        accs = maml_task_accuracies(network, tasks, inner_lr, eval_inner_steps)
    elif learner == "protonet":
        accs = protonet_task_accuracies(network, tasks, distance)
    else:
        raise ValueError(f"unknown learner {learner!r}")
    mean = float(np.mean(accs))
    ci = float(1.96 * np.std(accs, ddof=1) / np.sqrt(n_tasks)) if n_tasks > 1 else 0.0
    return mean, ci


def compactness(
    network: Network,
    dataset: Dataset,
    spec: TaskSpec,
    n_tasks: int = 600,
    queries_per_task: int = 100,
    seed_entropy=(0,),
):
    """Mean same-class nearest-neighbor distance in the prefix embedding.

    Per task, ``queries_per_task`` query instances (split evenly over the
    ways) are embedded through the prefix; each instance's Euclidean distance
    to its nearest same-class neighbor is averaged.  Task ``i`` is drawn from
    its own stream seeded by (entropy, i), and the tasks are embedded on a
    task axis a chunk at a time, as in :func:`evaluate`.  Returns the mean
    and sample std over tasks.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    per_class = queries_per_task // spec.ways
    if per_class < 2:
        raise ValueError("need at least 2 same-class query instances per task")
    task_spec = TaskSpec(spec.ways, spec.shots, per_class)
    tasks = (
        sample_task(dataset, task_spec, rng) for rng in _task_rngs(seed_entropy, n_tasks)
    )
    diagonal = np.arange(per_class)
    means = []
    for chunk in task_chunks(tasks):
        query_y = np.stack([task.query_y for task in chunk])
        emb = forward(network.prefix, np.stack([task.query_x for task in chunk]), task_axis=True)
        order = np.argsort(query_y, axis=-1, kind="stable")
        rows = np.take_along_axis(emb.reshape(emb.shape[:2] + (-1,)), order[..., None], axis=1)
        # one task's rows grouped by class, (ways, per_class, dim), at a time:
        # a whole chunk's pairwise differences outgrow the cache and run slower
        for task_rows in rows.reshape(len(chunk), spec.ways, per_class, -1):
            d2 = np.sum((task_rows[:, :, None, :] - task_rows[:, None, :, :]) ** 2, axis=-1)
            d2[:, diagonal, diagonal] = np.inf
            means.append(np.mean(np.sqrt(d2.min(axis=-1))))
    means = np.array(means)
    std = float(np.std(means, ddof=1)) if n_tasks > 1 else 0.0
    return float(np.mean(means)), std


def mean_box_width(
    network: Network,
    dataset: Dataset,
    spec: TaskSpec,
    eps: float,
    n_tasks: int = 20,
    seed_entropy=(0,),
) -> float:
    """Average propagated box width over query instances of sampled tasks.

    Tasks are propagated one at a time: a conv box on a stacked task axis
    holds several full-size temporaries per task, and measured slower than
    this loop, with a higher memory peak.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    widths = []
    for rng in _task_rngs(seed_entropy, n_tasks):
        task = sample_task(dataset, spec, rng)
        res = propagate_prefix(network, task.query_x, eps).values()
        widths.append(float(np.mean(res.box.upper - res.box.lower)))
    return float(np.mean(widths))


def train(config: RunConfig, progress=None):
    """Run the configured training loop.

    Returns ``(network, rows, summary)`` where ``rows`` are per-step metric
    dicts.  When ``config.out_dir`` is set, writes ``config.json``,
    ``metrics.csv``, ``summary.json``, and ``checkpoint.ckpt`` there.  A
    non-finite loss aborts with a diagnostic record.
    """
    t_start = time.monotonic()
    data = resolve_data(config)
    ds_train = data["train"]
    root = np.random.SeedSequence(config.seed)
    init_ss, sampler_ss, interp_ss = root.spawn(3)
    init_rng = np.random.default_rng(init_ss)
    sample_rng = np.random.default_rng(sampler_ss)
    interp_rng = np.random.default_rng(interp_ss)

    network = build_network(config.layers, config.split_index, init_rng)
    opt_state = adam(config.meta_lr)
    uses_eps = config.objective != "vanilla"

    rows = []
    best_val = (None, -1.0)
    step = 0
    try:
        for step in range(1, config.max_steps + 1):
            eps_t = (
                epsilon_schedule(step, config.max_steps, config.epsilon)
                if uses_eps
                else 0.0
            )
            if config.learner == "protonet":
                info, opt_state = _protonet_step(
                    network, ds_train, config, eps_t, sample_rng, interp_rng, opt_state
                )
            else:
                info, opt_state = _maml_step(
                    network, ds_train, config, eps_t, sample_rng, interp_rng, opt_state
                )

            row = {
                "step": step,
                "epsilon": eps_t,
                "l_ce": info["losses"][0],
                "l_lb": info["losses"][1],
                "l_ub": info["losses"][2],
                "w_ce": info["weights"][0],
                "w_lb": info["weights"][1],
                "w_ub": info["weights"][2],
                "total": info["total"],
                "val_accuracy": None,
                "val_ci": None,
            }
            if "val" in data and (
                step % config.eval_interval == 0 or step == config.max_steps
            ):
                acc, ci = evaluate(
                    network,
                    config.learner,
                    data["val"],
                    config.eval_spec(),
                    config.n_val_tasks,
                    (config.seed, 101, step),
                    eval_inner_steps=config.eval_inner_steps,
                    inner_lr=config.inner_lr,
                    distance=config.distance,
                )
                row["val_accuracy"], row["val_ci"] = acc, ci
                if acc > best_val[1]:
                    best_val = (step, acc)
            rows.append(row)
            if progress is not None:
                progress(row)
    except NonFiniteError as err:
        summary = _summary(config, rows, best_val, time.monotonic() - t_start)
        summary["status"] = "aborted"
        summary["error"] = str(err)
        summary["aborted_at_step"] = step
        if config.out_dir:
            _write_outputs(config, network, rows, summary)
        raise

    summary = _summary(config, rows, best_val, time.monotonic() - t_start)
    summary["status"] = "completed"

    if "test" in data:
        acc, ci = evaluate(
            network,
            config.learner,
            data["test"],
            config.eval_spec(),
            config.n_eval_tasks,
            (config.seed, 202),
            eval_inner_steps=config.eval_inner_steps,
            inner_lr=config.inner_lr,
            distance=config.distance,
        )
        summary["test_accuracy"] = acc
        summary["test_ci95"] = ci
        summary["box_width"] = mean_box_width(
            network,
            data["test"],
            config.eval_spec(),
            config.epsilon,
            seed_entropy=(config.seed, 303),
        )

    if config.out_dir:
        _write_outputs(config, network, rows, summary)
    return network, rows, summary


def _summary(config: RunConfig, rows, best_val, wall_clock: float) -> dict:
    last = rows[-1] if rows else {}
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "fingerprint": config.fingerprint(),
        "learner": config.learner,
        "objective": config.objective,
        "seed": config.seed,
        "steps_run": len(rows),
        "final_l_ce": last.get("l_ce"),
        "final_l_lb": last.get("l_lb"),
        "final_l_ub": last.get("l_ub"),
        "final_total": last.get("total"),
        "best_val_step": best_val[0],
        "best_val_accuracy": best_val[1] if best_val[0] is not None else None,
        "wall_clock_s": wall_clock,
    }


def metrics_csv(rows) -> str:
    """Render metric rows as CSV text with a stable column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["step"],
                *[_fmt(row[c]) for c in METRICS_COLUMNS[1:9]],
                "" if row["val_accuracy"] is None else _fmt(row["val_accuracy"]),
                "" if row["val_ci"] is None else _fmt(row["val_ci"]),
            ]
        )
    return buf.getvalue()


def _write_outputs(config: RunConfig, network, rows, summary) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    config.save(os.path.join(config.out_dir, "config.json"))
    with open(os.path.join(config.out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(metrics_csv(rows))
    with open(os.path.join(config.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_checkpoint(
        network,
        os.path.join(config.out_dir, "checkpoint.ckpt"),
        rng_info={"seed": config.seed, "steps": len(rows)},
    )


REPORT_COLUMNS = [
    "fingerprint",
    "learner",
    "objective",
    "seed",
    "steps_run",
    "best_val_accuracy",
    "test_accuracy",
    "test_ci95",
    "box_width",
    "status",
]


def report(summary_paths, out_csv=None, out_json=None):
    """Merge run summaries into one table with a stable column order.

    Raises on schema version mismatches.  Returns the merged rows.
    """
    rows = []
    for path in summary_paths:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: schema version {summary.get('schema_version')} "
                f"!= {SCHEMA_VERSION}"
            )
        rows.append({col: summary.get(col) for col in REPORT_COLUMNS})
    if out_csv:
        with open(out_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    if out_json:
        with open(out_json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return rows

