"""Experiment orchestration: training loops, evaluation with confidence
intervals, compactness and transfer analyses, and consolidated reports.

Training is sequential over steps.  Every derived random stream is seeded
from the run seed, and evaluation tasks use per-task streams seeded by
(run seed, task index), so a (config, seed) pair fully determines the
metrics stream.  Metrics are written as CSV (one row per step, byte-stable
across reruns) plus a JSON summary holding config, fingerprint, timing, and
final measurements.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time

import numpy as np

from .bounds import propagate_prefix
from .config import SCHEMA_VERSION, RunConfig, resolve_data
from .episodes import Dataset, TaskSpec, sample_task
from .interpolation import (
    interpolate_batch,
    make_interpolated_task,
    mix_batch,
    sample_mix,
    should_interpolate,
)
from .layers import (
    Network,
    build_network,
    forward,
    load_checkpoint,
    make_param_nodes,
    param_nodes_to_list,
    save_checkpoint,
)
from .learners import (
    compute_prototypes,
    cross_entropy,
    maml_outer_step,
    maml_task_accuracies,
    predict_accuracy,
    protonet_logits,
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
INTERP_OBJECTIVES = ("ibpi", "ibpi_no_bound_loss", "mixup_input", "mixup_embedding")
EMBED_INTERP_OBJECTIVES = ("ibpi", "ibpi_no_bound_loss")


def _fmt(x) -> str:
    return repr(float(x))


def _weights_for(config: RunConfig, losses: LossTriple) -> WeightTriple:
    if config.objective not in BOUND_OBJECTIVES:
        return WeightTriple(1.0, 0.0, 0.0, mode="fixed")
    if config.static_weights is not None:
        return static_weights(*config.static_weights)
    return dynamic_weights(losses, config.gamma_value)


class _InterpContext:
    """Coefficients and optional pair task, fixed for one training task."""

    def __init__(self, coeffs, query_coeffs, pair_task, task, mode):
        self.coeffs = coeffs
        self.query_coeffs = query_coeffs
        self.pair_task = pair_task
        self.mixed_support_x = None
        self.mixed_query_x = None
        if mode == "mixup_input":
            # input-space mixing is parameter-free, so precompute it once
            self.mixed_support_x = mix_batch(
                task.support_x, pair_task.support_x, task.support_y, coeffs
            )
            self.mixed_query_x = mix_batch(
                task.query_x, pair_task.query_x, task.query_y, query_coeffs
            )


def _draw_context(config: RunConfig, task, dataset, interp_rng, sample_rng):
    coeffs = sample_mix(task.ways, config.alpha, config.beta, interp_rng)
    query_coeffs = (
        coeffs
        if config.shared_mix_coeffs
        else sample_mix(task.ways, config.alpha, config.beta, interp_rng)
    )
    pair_task = None
    if config.objective in ("mixup_input", "mixup_embedding"):
        pair_task = sample_task(dataset, config.train_spec(), sample_rng)
    return _InterpContext(coeffs, query_coeffs, pair_task, task, config.objective)


def _protonet_step(network, dataset, config, eps_t, sample_rng, interp_rng, opt_state):
    task = sample_task(dataset, config.train_spec(), sample_rng)
    mode = config.objective
    use_bounds = mode in BOUND_OBJECTIVES
    do_interp = False
    ctx = None
    if mode in INTERP_OBJECTIVES:
        do_interp = bool(
            should_interpolate("protonet", 1, interp_rng, config.interp_probability)[0]
        )
        if do_interp:
            ctx = _draw_context(config, task, dataset, interp_rng, sample_rng)

    s = network.split_index
    tape = Tape()
    params = make_param_nodes(network.layers, tape)
    prefix_params, head_params = params[:s], params[s:]

    need_query_bounds = use_bounds or (do_interp and mode in EMBED_INTERP_OBJECTIVES)
    need_support_bounds = do_interp and mode in EMBED_INTERP_OBJECTIVES

    if need_query_bounds:
        qres = propagate_prefix(network, task.query_x, eps_t, params=prefix_params)
        query_prefix = qres.center
    else:
        qres = None
        query_prefix = forward(network.prefix, task.query_x, params=prefix_params)
    if need_support_bounds:
        sres = propagate_prefix(network, task.support_x, eps_t, params=prefix_params)
        support_prefix = sres.center
    else:
        sres = None
        support_prefix = forward(network.prefix, task.support_x, params=prefix_params)

    support_emb = forward(network.head, support_prefix, params=head_params)
    query_emb = forward(network.head, query_prefix, params=head_params)
    protos = compute_prototypes(support_emb, task.support_y, task.ways)
    l_ce = cross_entropy(
        protonet_logits(query_emb, protos, config.distance), task.query_y
    )

    if do_interp:
        itask = make_interpolated_task(
            task,
            network,
            eps_t,
            mode,
            coeffs=ctx.coeffs,
            query_coeffs=ctx.query_coeffs,
            pair_task=ctx.pair_task,
            params=prefix_params,
            support_bounds=sres,
            query_bounds=qres,
        )
        if itask.space == "input":
            s_emb2 = forward(network.layers, itask.support_h, params=params)
            q_emb2 = forward(network.layers, itask.query_h, params=params)
        else:
            s_emb2 = forward(network.head, itask.support_h, params=head_params)
            q_emb2 = forward(network.head, itask.query_h, params=head_params)
        protos2 = compute_prototypes(s_emb2, itask.support_y, task.ways)
        l_ce2 = cross_entropy(
            protonet_logits(q_emb2, protos2, config.distance), itask.query_y
        )
        l_ce = mul(add(l_ce, l_ce2), 0.5)

    if use_bounds:
        l_lb, l_ub = bound_losses(qres.center, qres.box)
    else:
        l_lb, l_ub = 0.0, 0.0
    losses = LossTriple(l_ce, l_lb, l_ub)
    weights = _weights_for(config, losses)
    total = total_loss(losses, weights)

    grads = tape.backward(total, param_nodes_to_list(params))
    arrays = network.parameter_arrays()
    new_arrays, opt_state = optimizer_step(
        arrays, [grads[p] for p in param_nodes_to_list(params)], opt_state
    )
    network.set_parameter_arrays(new_arrays)
    return {
        "losses": losses.values(),
        "weights": weights.as_tuple(),
        "total": float(value_of(total)),
    }, opt_state


def _maml_inner_loss_fn(network, config, eps_t, contexts):
    s = network.split_index
    mode = config.objective

    def make(task):
        ctx = contexts.get(id(task))

        def inner_loss(params, tape):
            logits = forward(network.layers, task.support_x, params=params)
            l_ce = cross_entropy(logits, task.support_y)
            if ctx is None:
                return l_ce
            if mode in EMBED_INTERP_OBJECTIVES:
                sres = propagate_prefix(
                    network, task.support_x, eps_t, params=params[:s]
                )
                h = interpolate_batch(sres.center, sres.box, task.support_y, ctx.coeffs)
                logits2 = forward(network.head, h, params=params[s:])
            elif mode == "mixup_input":
                logits2 = forward(network.layers, ctx.mixed_support_x, params=params)
            else:  # mixup_embedding
                emb_a = forward(network.prefix, task.support_x, params=params[:s])
                emb_b = forward(
                    network.prefix, ctx.pair_task.support_x, params=params[:s]
                )
                h = mix_batch(emb_a, emb_b, task.support_y, ctx.coeffs)
                logits2 = forward(network.head, h, params=params[s:])
            l_ce2 = cross_entropy(logits2, task.support_y)
            return mul(add(l_ce, l_ce2), 0.5)

        return inner_loss

    return make


def _maml_task_loss_fn(network, config, eps_t, contexts):
    s = network.split_index
    mode = config.objective
    use_bounds = mode in BOUND_OBJECTIVES

    def task_loss(tape, theta, phi, task):
        ctx = contexts.get(id(task))
        logits = forward(network.layers, task.query_x, params=phi)
        l_ce = cross_entropy(logits, task.query_y)

        qres = None
        if use_bounds or (ctx is not None and mode in EMBED_INTERP_OBJECTIVES):
            bound_params = phi if config.bounds_on_adapted else theta
            qres = propagate_prefix(
                network, task.query_x, eps_t, params=bound_params[:s]
            )

        if ctx is not None:
            if mode in EMBED_INTERP_OBJECTIVES:
                h = interpolate_batch(
                    qres.center, qres.box, task.query_y, ctx.query_coeffs
                )
                logits2 = forward(network.head, h, params=phi[s:])
            elif mode == "mixup_input":
                logits2 = forward(network.layers, ctx.mixed_query_x, params=phi)
            else:  # mixup_embedding
                emb_a = forward(network.prefix, task.query_x, params=phi[:s])
                emb_b = forward(network.prefix, ctx.pair_task.query_x, params=phi[:s])
                h = mix_batch(emb_a, emb_b, task.query_y, ctx.query_coeffs)
                logits2 = forward(network.head, h, params=phi[s:])
            l_ce2 = cross_entropy(logits2, task.query_y)
            l_ce = mul(add(l_ce, l_ce2), 0.5)

        if use_bounds:
            l_lb, l_ub = bound_losses(qres.center, qres.box)
        else:
            l_lb, l_ub = 0.0, 0.0
        losses = LossTriple(l_ce, l_lb, l_ub)
        weights = _weights_for(config, losses)
        total = total_loss(losses, weights)
        info = {
            "losses": losses.values(),
            "weights": weights.as_tuple(),
            "total": float(value_of(total)),
        }
        return total, info

    return task_loss


def _maml_step(network, dataset, config, eps_t, sample_rng, interp_rng, opt_state):
    b = config.meta_batch
    tasks = [sample_task(dataset, config.train_spec(), sample_rng) for _ in range(b)]
    contexts: dict[int, _InterpContext] = {}
    if config.objective in INTERP_OBJECTIVES:
        mask = should_interpolate("maml", b, interp_rng, config.interp_probability)
        for i, task in enumerate(tasks):
            if mask[i]:
                contexts[id(task)] = _draw_context(
                    config, task, dataset, interp_rng, sample_rng
                )
    infos = maml_outer_step(
        network,
        tasks,
        _maml_task_loss_fn(network, config, eps_t, contexts),
        opt_state,
        config.inner_lr,
        config.inner_steps,
        first_order=config.first_order,
        inner_loss_fn=_maml_inner_loss_fn(network, config, eps_t, contexts),
    )
    losses = tuple(float(np.mean([i["losses"][k] for i in infos])) for k in range(3))
    weights = tuple(float(np.mean([i["weights"][k] for i in infos])) for k in range(3))
    total = float(np.mean([i["total"] for i in infos]))
    return {"losses": losses, "weights": weights, "total": total}, opt_state


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
    meta-learner adapts all ``n_tasks`` tasks at once
    (:func:`~fewshot_ibp.learners.maml_task_accuracies`), recording one tape
    per inner step for all of them, each released after its backward pass;
    the prototype learner scores the tasks one by one as they are drawn.
    """
    if n_tasks < 1:
        raise ValueError("need at least one evaluation task")
    entropy = tuple(np.atleast_1d(seed_entropy).astype(np.uint64).tolist())
    tasks = (
        sample_task(dataset, spec, np.random.default_rng(np.random.SeedSequence(entropy + (i,))))
        for i in range(n_tasks)
    )
    if learner == "maml":
        accs = maml_task_accuracies(network, tasks, inner_lr, eval_inner_steps)
    else:
        accs = np.array(
            [
                predict_accuracy(learner, network, task, distance=distance)
                for task in tasks
            ]
        )
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
    to its nearest same-class neighbor is averaged.  Returns the mean and
    sample std over tasks.
    """
    per_class = queries_per_task // spec.ways
    if per_class < 2:
        raise ValueError("need at least 2 same-class query instances per task")
    task_spec = TaskSpec(spec.ways, spec.shots, per_class)
    entropy = tuple(np.atleast_1d(seed_entropy).astype(np.uint64).tolist())
    means = np.empty(n_tasks)
    for i in range(n_tasks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + (i,)))
        task = sample_task(dataset, task_spec, rng)
        emb = forward(network.prefix, task.query_x)
        emb = emb.reshape(emb.shape[0], -1)
        dists = []
        for k in range(task.ways):
            rows = emb[task.query_y == k]
            d2 = np.sum((rows[:, None, :] - rows[None, :, :]) ** 2, axis=-1)
            np.fill_diagonal(d2, np.inf)
            dists.append(np.sqrt(d2.min(axis=1)))
        means[i] = float(np.mean(np.concatenate(dists)))
    std = float(np.std(means, ddof=1)) if n_tasks > 1 else 0.0
    return float(np.mean(means)), std


def transfer_eval(
    network: Network,
    learner: str,
    dataset: Dataset,
    spec: TaskSpec,
    n_tasks: int,
    seed_entropy,
    **eval_kwargs,
) -> dict:
    """Evaluate a trained model on another dataset without retraining.

    The meta-learner still fine-tunes on each test task's support set, per
    its standard protocol.  Shape incompatibilities surface as errors from
    the forward pass.
    """
    mean, ci = evaluate(
        network, learner, dataset, spec, n_tasks, seed_entropy, **eval_kwargs
    )
    return {
        "target_role": dataset.role,
        "n_tasks": n_tasks,
        "accuracy": mean,
        "ci95": ci,
    }


def mean_box_width(
    network: Network,
    dataset: Dataset,
    spec: TaskSpec,
    eps: float,
    n_tasks: int = 20,
    seed_entropy=(0,),
) -> float:
    """Average propagated box width over query instances of sampled tasks."""
    entropy = tuple(np.atleast_1d(seed_entropy).astype(np.uint64).tolist())
    widths = []
    for i in range(n_tasks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + (i,)))
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


def load_trained(checkpoint_path) -> Network:
    network, _ = load_checkpoint(checkpoint_path)
    return network
