"""Experiment orchestration: training loops, evaluation with confidence
intervals (on the training distribution or, for transfer, another dataset),
compactness analysis, and consolidated reports.

Training is sequential over steps, and both learners train on one layout: a
stack of tasks on a leading task axis, which every layer reads from the
input's odd rank (:func:`~fewshot_ibp.layers.has_task_axis`).  A step draws
its tasks (a MAML meta-batch, or one ProtoNet task) as pool rows gathered
into one :class:`~fewshot_ibp.learners.TaskBatch`, as evaluation does, and
the interpolation of the tasks that fired, then scores all tasks at once:
the cross-entropies give one value per task, tasks that did not fire
interpolate with zero weight, and one loss tail adds the bound losses and
weighs each task's losses with weights computed from its own detached values
(one :func:`~fewshot_ibp.tensor.weighted_sum` node, as each mixed
cross-entropy is).  One update applies the mean of the tasks' gradients.
Where a set's box is propagated with the parameters of its clean pass,
both learners read the clean embeddings from the box centers instead of
running the prefix again: ProtoNet for each set it propagates, and MAML for
the support set of every inner step that interpolates toward bounds and for
the query set when its boxes are taken under the adapted parameters.  Every
derived random stream is seeded from the run seed, and evaluation tasks use
per-task streams seeded by (run seed, task index), so a (config, seed) pair
fully determines the metrics stream.  Metrics are written as CSV (one row
per step, byte-stable across reruns) plus a JSON summary holding config,
fingerprint, timing, and final measurements.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import time
from typing import NamedTuple

import numpy as np

from .bounds import propagate_prefix
from .config import SCHEMA_VERSION, RunConfig, resolve_data
from .episodes import Dataset, TaskSpec, _task_rows, as_int, spec_labels
from .interpolation import (
    BOUND_MODES,
    MODES,
    MixCoefficients,
    make_interpolated_task,
    sample_mix,
    should_interpolate,
)
from .layers import Network, build_network, forward, param_nodes_to_list, save_checkpoint
from .learners import (
    _CHUNK_ELEMENTS,
    TaskBatch,
    TaskDraw,
    _classes,
    _mean_update,
    _per_chunk,
    compute_prototypes,
    cross_entropy,
    maml_outer_step,
    maml_task_accuracies,
    protonet_logits,
    protonet_task_accuracies,
)
from .objective import (
    LossTriple,
    WeightTriple,
    bound_losses,
    dynamic_weights,
    epsilon_schedule,
    total_loss,
)
from .optim import adam
from .tensor import NonFiniteError, Tape, value_of, weighted_sum

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


_CE_ONLY = WeightTriple(1.0, 0.0, 0.0)


@functools.lru_cache(maxsize=8)
def _static_triple(weights: tuple) -> WeightTriple:
    """A run's constant ``static_weights`` triple, made once per run."""
    return WeightTriple(*weights)


def _weights_for(config: RunConfig, losses) -> WeightTriple:
    if config.objective not in BOUND_OBJECTIVES:
        return _CE_ONLY
    if config.static_weights is not None:
        return _static_triple(tuple(config.static_weights))
    return dynamic_weights(losses, config.gamma_value)


class _TaskMix(NamedTuple):
    """The interpolation of one batch of tasks, stacked on the task axis.

    A task that did not fire has zero mixing weights and, for the mixup
    modes, its own sets as the pair, so its interpolated input is its own
    embedding bit for bit; its (plain, interpolated) cross-entropies weigh
    (1, 0) against (1/2, 1/2) on a task that fired.  Each set's row weights
    are built once (:meth:`MixCoefficients.rows`)."""

    coeffs: MixCoefficients
    query_coeffs: MixCoefficients
    pair_support_x: np.ndarray | None
    pair_query_x: np.ndarray | None
    ce_weights: np.ndarray  # (tasks, 2)
    support_rows: tuple | None = None
    query_rows: tuple | None = None


def _draw_tasks(learner, n_tasks, dataset, config, sample_rng, interp_rng, classes):
    """A training step's tasks, one gather of the pool rows ``sample_task``
    would draw (:meth:`~fewshot_ibp.learners.TaskBatch.gather`, its targets
    ``classes`` wide), then which of them interpolate, then how:
    each task that fired draws, in task order, its support coefficients, its
    query coefficients (the support ones when shared) and, for a mixup mode,
    its pair's rows.  A task that did not fire pairs with itself, and the
    pair sets are one gather too.  The mix is None when no task fired."""
    spec = config.train_spec()
    spec_labels(dataset, spec)  # the supply check, before any draw, as sample_task makes it
    rows = np.array([_task_rows(dataset, spec, sample_rng)[1] for _ in range(n_tasks)])
    batch = TaskBatch.gather(dataset, spec, rows, classes)
    if config.objective not in MODES:
        return batch, None
    fired = should_interpolate(learner, n_tasks, interp_rng, config.interp_probability)
    if not fired.any():
        return batch, None
    lam = np.zeros((2, n_tasks, spec.ways))  # the support rows, then the query rows
    nu = np.zeros((2, n_tasks, spec.ways), dtype=int)
    mixup = config.objective not in BOUND_MODES
    for t in np.flatnonzero(fired):
        drawn = [sample_mix(spec.ways, config.alpha, config.beta, interp_rng)]
        if not config.shared_mix_coeffs:
            drawn.append(sample_mix(spec.ways, config.alpha, config.beta, interp_rng))
        lam[:, t], nu[:, t] = [c.lam for c in drawn], [c.nu for c in drawn]
        if mixup:
            rows[t] = _task_rows(dataset, spec, sample_rng)[1]
    pairs = TaskBatch.gather(dataset, spec, rows) if mixup else None
    coeffs = MixCoefficients(lam[0], nu[0]), MixCoefficients(lam[1], nu[1])
    return batch, _TaskMix(
        *coeffs, getattr(pairs, "support_x", None), getattr(pairs, "query_x", None),
        np.where(fired[:, None], 0.5, np.array([1.0, 0.0])),
        coeffs[0].rows(batch.support_y), coeffs[1].rows(batch.query_y),
    )


def _loss_tail(config: RunConfig, l_ce, qres):
    """Per-task totals from per-task cross-entropies plus, for a bound
    objective, the bound losses of the propagated queries ``qres``, each task
    weighed by its own detached values; and the (7, tasks) diagnostics: the
    three losses, the three weights and the total."""
    if config.objective in BOUND_OBJECTIVES:
        l_lb, l_ub = bound_losses(qres.center, qres.box)
    else:
        l_lb, l_ub = 0.0, 0.0
    losses = LossTriple(l_ce, l_lb, l_ub)
    values = [task.values() for task in losses.per_task(len(value_of(l_ce)))]
    weights = [_weights_for(config, task) for task in values]
    total = total_loss(losses, weights)
    diagnostics = np.array(
        [*zip(*values), *zip(*(w.as_tuple() for w in weights)), value_of(total).tolist()]
    )
    return total, diagnostics


def _step_info(diagnostics):
    """A step's metric columns ``l_ce`` … ``total``: the means over its tasks,
    as ``np.mean`` of a list of each row's values computes them (each row is
    contiguous and sums the same)."""
    means = (diagnostics.sum(axis=1) / diagnostics.shape[1]).tolist()
    return dict(zip(METRICS_COLUMNS[2:9], means, strict=True))


def _embed(network, x, eps_t, prefix_params, boxes: bool):
    """``(box, embedding)`` of ``x`` through the prefix: with ``boxes`` its
    propagated box and the box center, one prefix pass for both; otherwise
    None and the forward pass."""
    if boxes:
        res = propagate_prefix(network, x, eps_t, params=prefix_params)
        return res, res.center
    return None, forward(network.prefix, x, params=prefix_params)


def _protonet_step(network, dataset, config, eps_t, sample_rng, interp_rng, opt_state):
    """One prototype-network update on the task axis, a batch of one task.
    Each parameter is a (1, ...) leaf, so no shared weight's gradient is
    summed over the task axis."""
    # query targets one per way, for both cross-entropies (support labels feed prototypes)
    batch, mix = _draw_tasks("protonet", 1, dataset, config, sample_rng, interp_rng, None)
    mode = config.objective
    s = network.split_index
    # the clean pass shares the centers of the boxes that the bound losses or
    # a bound-mode interpolation read
    support_boxes = mix is not None and mode in BOUND_MODES
    query_boxes = support_boxes or mode in BOUND_OBJECTIVES
    with Tape() as tape:
        params = [
            {name: tape.leaf(arr[None]) for name, arr in layer.param_items()}
            for layer in network.layers
        ]
        prefix_params, head_params = params[:s], params[s:]

        def head_cross_entropy(support_h, query_h):
            support_emb = forward(network.head, support_h, params=head_params)
            query_emb = forward(network.head, query_h, params=head_params)
            protos = compute_prototypes(support_emb, batch.support_y, batch.ways)
            scores = protonet_logits(query_emb, protos, config.distance)
            return cross_entropy(scores, batch.query_targets)

        qres, query_h = _embed(network, batch.query_x, eps_t, prefix_params, query_boxes)
        sres, support_h = _embed(network, batch.support_x, eps_t, prefix_params, support_boxes)
        l_ce = head_cross_entropy(support_h, query_h)
        if mix is not None:
            support_h = make_interpolated_task(
                mode, network, batch.support_x, batch.support_y, mix.support_rows,
                prefix_params, eps_t, bounds=sres, pair_x=mix.pair_support_x,
            )
            query_h = make_interpolated_task(
                mode, network, batch.query_x, batch.query_y, mix.query_rows,
                prefix_params, eps_t, bounds=qres, pair_x=mix.pair_query_x,
            )
            l_ce = weighted_sum((l_ce, head_cross_entropy(support_h, query_h)), mix.ce_weights.T)
        total, diagnostics = _loss_tail(config, l_ce, qres)
        flat = param_nodes_to_list(params)
        grads = tape.backward(total, flat)
    opt_state = _mean_update(network, [grads[p] for p in flat], opt_state)
    return _step_info(diagnostics), opt_state


def _maml_inner_loss(network, config, eps_t, mix: _TaskMix | None):
    s = network.split_index
    mode = config.objective
    # a bound-mode interpolation propagates the support boxes with the
    # parameters of the clean pass, which then reads their centers
    support_boxes = mix is not None and mode in BOUND_MODES

    def inner_loss(batch, params):
        sres, h = _embed(network, batch.support_x, eps_t, params[:s], support_boxes)
        l_ce = cross_entropy(forward(network.head, h, params=params[s:]), batch.support_targets)
        if mix is None:
            return l_ce
        h = make_interpolated_task(
            mode, network, batch.support_x, batch.support_y, mix.support_rows,
            params[:s], eps_t, bounds=sres, pair_x=mix.pair_support_x,
        )
        scores = forward(network.head, h, params=params[s:])
        return weighted_sum((l_ce, cross_entropy(scores, batch.support_targets)), mix.ce_weights.T)

    return inner_loss


def _maml_query_loss(network, config, eps_t, mix: _TaskMix | None):
    s = network.split_index
    mode = config.objective
    query_boxes = mode in BOUND_OBJECTIVES or (mix is not None and mode in BOUND_MODES)
    # boxes taken under the adapted parameters share their centers with the
    # clean pass; boxes taken under θ do not
    shared = query_boxes and config.bounds_on_adapted

    def query_loss(batch, theta, phi):
        qres, h = _embed(network, batch.query_x, eps_t, phi[:s], shared)
        if query_boxes and not shared:
            qres = propagate_prefix(network, batch.query_x, eps_t, params=theta[:s])
        l_ce = cross_entropy(forward(network.head, h, params=phi[s:]), batch.query_targets)
        if mix is not None:
            h = make_interpolated_task(
                mode, network, batch.query_x, batch.query_y, mix.query_rows,
                phi[:s], eps_t, bounds=qres, pair_x=mix.pair_query_x,
            )
            scores = forward(network.head, h, params=phi[s:])
            l_ce2 = cross_entropy(scores, batch.query_targets)
            l_ce = weighted_sum((l_ce, l_ce2), mix.ce_weights.T)
        return _loss_tail(config, l_ce, qres)

    return query_loss


def _maml_step(network, dataset, config, eps_t, sample_rng, interp_rng, opt_state):
    batch, mix = _draw_tasks(
        "maml", config.meta_batch, dataset, config, sample_rng, interp_rng, _classes(network)
    )
    diagnostics = maml_outer_step(
        network,
        batch,
        _maml_inner_loss(network, config, eps_t, mix),
        _maml_query_loss(network, config, eps_t, mix),
        opt_state,
        config.inner_lr,
        config.inner_steps,
        first_order=config.first_order,
    )
    return _step_info(diagnostics), opt_state


def _task_rngs(seed_entropy, n_tasks: int):
    """One generator per task, task ``i`` seeded by (entropy, i).  Entropy
    other than non-negative integers raises ``ValueError`` naming it."""
    entropy = tuple(np.atleast_1d(seed_entropy).tolist())
    if not all(type(v) is int and v >= 0 for v in entropy):
        raise ValueError(f"task seed entropy must be non-negative integers, got {seed_entropy!r}")
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

    Task ``i`` is the task :func:`~fewshot_ibp.episodes.sample_task` draws
    from its own stream seeded by (entropy, i).  Both learners are given
    the same :class:`~fewshot_ibp.learners.TaskDraw` of those streams, drawn
    a block of whole chunks at a time
    (:func:`~fewshot_ibp.episodes.draw_task_rows`) and gathered from the
    pool a chunk at a time, so memory does not grow with ``n_tasks``.  The
    meta-learner adapts each chunk on a task axis, one tape per inner step
    for the whole chunk, each released after its backward pass, and scores
    each task's queries with its own adapted parameters
    (:func:`~fewshot_ibp.learners.maml_task_accuracies`).  The prototype
    learner scores them on a task axis, drawn from the pool as mapped once
    by the layers before the first batchnorm when that fits its budget
    (:func:`~fewshot_ibp.learners.protonet_task_accuracies`).
    Transfer is this call on a dataset other than the one trained on: the
    meta-learner still fine-tunes on each task's support set, and shape
    incompatibilities surface as ``ValueError`` from the forward pass.
    """
    if as_int(n_tasks, "n_tasks") < 1:
        raise ValueError("need at least one evaluation task")
    tasks = TaskDraw(dataset, spec, _task_rngs(seed_entropy, n_tasks))
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
    its own stream seeded by (entropy, i), and the tasks are drawn and
    embedded on a task axis a chunk at a time, as in :func:`evaluate`, each
    chunk as many tasks as fit the scoring budget at their query elements
    (:meth:`~fewshot_ibp.learners.TaskDraw.batches`).
    Returns the mean and sample std over tasks.
    """
    if as_int(n_tasks, "n_tasks") < 1:
        raise ValueError("need at least one task")
    per_class = as_int(queries_per_task, "queries_per_task") // spec.ways
    if per_class < 2:
        raise ValueError("need at least 2 same-class query instances per task")
    task_spec = TaskSpec(spec.ways, spec.shots, per_class)
    tasks = TaskDraw(dataset, task_spec, _task_rngs(seed_entropy, n_tasks))
    diagonal = np.arange(per_class)
    means = []
    for batch in tasks.batches(_per_chunk(_CHUNK_ELEMENTS, tasks.sizes()[1])):
        emb = forward(network.prefix, batch.query_x)
        order = np.argsort(batch.query_y, axis=-1, kind="stable")
        rows = np.take_along_axis(emb.reshape(emb.shape[:2] + (-1,)), order[..., None], axis=1)
        # one task's rows grouped by class, (ways, per_class, dim), at a time:
        # a whole chunk's pairwise differences outgrow the cache and run slower
        for task_rows in rows.reshape(len(rows), spec.ways, per_class, -1):
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

    Task ``i`` is drawn from its own stream seeded by (entropy, i), the
    streams a block at a time as in :func:`evaluate`.  Tasks are propagated
    one at a time: a conv box on a stacked task axis holds several
    full-size temporaries per task, and measured slower than this loop,
    with a higher memory peak.
    """
    if as_int(n_tasks, "n_tasks") < 1:
        raise ValueError("need at least one task")
    widths = []
    for batch in TaskDraw(dataset, spec, _task_rngs(seed_entropy, n_tasks)).batches(1):
        res = propagate_prefix(network, batch.query_x[0], eps).values()
        widths.append(float(np.mean(res.box.upper - res.box.lower)))
    return float(np.mean(widths))


def train(config: RunConfig, progress=None):
    """Run the configured training loop.

    Returns ``(network, rows, summary)`` where ``rows`` are per-step metric
    dicts.  When ``config.out_dir`` is set, writes ``config.json``,
    ``metrics.csv``, ``summary.json``, and ``checkpoint.ckpt`` there.  A
    non-finite value aborts with a diagnostic record, whatever the warning
    filter: the steps run with numpy's floating-point warnings off.
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
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for step in range(1, config.max_steps + 1):
                eps_t = (
                    epsilon_schedule(step, config.max_steps, config.epsilon)
                    if uses_eps
                    else 0.0
                )
                step_fn = _protonet_step if config.learner == "protonet" else _maml_step
                info, opt_state = step_fn(
                    network, ds_train, config, eps_t, sample_rng, interp_rng, opt_state
                )
                row = {"step": step, "epsilon": eps_t, **info, "val_accuracy": None}
                row["val_ci"] = None
                if "val" in data and (step % config.eval_interval == 0 or step == config.max_steps):
                    acc, ci = _evaluate_split(
                        network, config, data["val"], config.n_val_tasks, (config.seed, 101, step)
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
        acc, ci = _evaluate_split(
            network, config, data["test"], config.n_eval_tasks, (config.seed, 202)
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


def _evaluate_split(network, config: RunConfig, dataset, n_tasks: int, seed_entropy):
    """:func:`evaluate` on one of a run's splits, with the run's learner,
    eval spec and evaluation settings."""
    return evaluate(
        network,
        config.learner,
        dataset,
        config.eval_spec(),
        n_tasks,
        seed_entropy,
        eval_inner_steps=config.eval_inner_steps,
        inner_lr=config.inner_lr,
        distance=config.distance,
    )


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

