"""The two few-shot learners: prototype classification and meta-learned
initializations with inner-loop adaptation.

Prototypes are per-class means of support embeddings; queries are classified
by a softmax over negative (squared) Euclidean distances.  The meta-learner
adapts a copy of the parameters on each task's support set with full-batch
gradient descent, then is judged on the query set.  Adaptation is first-order
by default: the inner update is detached, and the outer gradient is the query
gradient at the adapted parameters applied to the initial slots.  Exact
second-order updates re-record the inner updates on the tape and are limited
to networks of fully-connected and relu layers.

Evaluation adapts all of its tasks together: :func:`maml_adapt_tasks` stacks
the support sets along a leading task axis, tiles the parameters to one copy
per task and descends on the sum of the per-task support losses, so each
task's gradient is exactly its own and one backward pass per step serves
every task.  Every tape the meta-learner records is released as soon as its
gradients have been read, so no graph waits for the cyclic collector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .episodes import Task
from .layers import Network, forward, make_param_nodes, param_nodes_to_list
from .tensor import (
    Tape,
    add,
    as_tensor,
    div,
    exp,
    log,
    matmul,
    mul,
    neg,
    sqrt,
    sub,
    sum_,
    transpose,
    value_of,
)

SECOND_ORDER_KINDS = ("fully_connected", "relu")


def compute_prototypes(embeddings, labels, ways: int):
    """Per-class mean embeddings, shape (ways, dim).

    Every local label 0..ways-1 must appear at least once.
    """
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=ways)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        raise ValueError(f"no embeddings for class {int(missing[0])}")
    n = labels.shape[0]
    selection = np.zeros((ways, n))
    selection[labels, np.arange(n)] = 1.0 / counts[labels]
    return matmul(selection, embeddings)


def pairwise_sqdist(a, b):
    """Squared Euclidean distances between rows of ``a`` (m,d) and ``b`` (k,d)."""
    aa = sum_(mul(a, a), axis=1, keepdims=True)  # (m,1)
    bb = sum_(mul(b, b), axis=1, keepdims=True)  # (k,1)
    cross = matmul(a, transpose(b))  # (m,k)
    return add(sub(aa, mul(cross, 2.0)), transpose(bb))


def protonet_logits(query_embeddings, prototypes, distance: str = "sqeuclidean"):
    """Negative distances, the classification scores of the prototype rule."""
    d = pairwise_sqdist(query_embeddings, prototypes)
    if distance == "euclidean":
        d = sqrt(d)
    elif distance != "sqeuclidean":
        raise ValueError(f"unknown distance {distance!r}")
    return neg(d)


def softmax(scores):
    """Row softmax with max-shift stabilization (shift is detached)."""
    shift = value_of(scores).max(axis=-1, keepdims=True)
    e = exp(sub(scores, shift))
    return div(e, sum_(e, axis=-1, keepdims=True))


def protonet_probs(query_embeddings, prototypes, distance: str = "sqeuclidean"):
    """Class probabilities of queries under the prototype classifier."""
    qd = np.shape(value_of(query_embeddings))[-1]
    pd = np.shape(value_of(prototypes))[-1]
    if qd != pd:
        raise ValueError(f"embedding dim {qd} != prototype dim {pd}")
    return softmax(protonet_logits(query_embeddings, prototypes, distance))


def _onehot(labels, score_shape) -> np.ndarray:
    """One-hot rows of ``labels``, laid out like scores of ``score_shape``."""
    labels = np.asarray(labels)
    classes = score_shape[-1]
    if len(score_shape) not in (2, 3) or labels.shape != score_shape[:-1]:
        raise ValueError(
            f"labels of shape {labels.shape} do not match scores {score_shape}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise ValueError(f"labels outside 0..{classes - 1}")
    flat = labels.reshape(-1)
    out = np.zeros((flat.shape[0], classes))
    out[np.arange(flat.shape[0]), flat] = 1.0
    return out.reshape(score_shape)


def cross_entropy(scores, labels, from_logits: bool = True):
    """Mean negative log probability of the true class.

    ``scores`` are logits by default; pass ``from_logits=False`` for
    probability rows.  Scores (tasks, n, k) with labels (tasks, n) give the
    sum over tasks of each task's mean, so each task's gradient is its own.
    """
    shape = value_of(scores).shape
    onehot = _onehot(labels, shape)
    n = shape[-2]
    if from_logits:
        shift = value_of(scores).max(axis=-1, keepdims=True)
        z = sub(scores, shift)
        logsum = log(sum_(exp(z), axis=-1, keepdims=True))
        logp = sub(z, logsum)
        picked = sum_(mul(logp, onehot))
    else:
        picked = sum_(log(sum_(mul(scores, onehot), axis=-1)))
    return mul(picked, -1.0 / n)


@dataclass
class AdaptedParams:
    """Adapted parameter set: per-layer dicts of arrays (first-order) or tape
    nodes (second-order), plus provenance."""

    params: list[dict]
    steps: int
    first_order: bool
    source: Network

    def as_arrays(self) -> list[np.ndarray]:
        return [value_of(p) for p in param_nodes_to_list(self.params)]


def _default_inner_loss(network: Network, support_x, support_y):
    def loss_fn(params, tape):
        logits = forward(network.layers, support_x, tape=tape, params=params)
        return cross_entropy(logits, support_y)

    return loss_fn


def maml_adapt(
    network: Network,
    support_x,
    support_y,
    inner_lr: float,
    steps: int,
    first_order: bool = True,
    tape: Tape | None = None,
    theta_params: list[dict] | None = None,
    inner_loss=None,
    start_params: list[dict] | None = None,
) -> AdaptedParams:
    """Full-batch gradient descent on the support loss from the current init.

    ``inner_loss(params, tape)`` defaults to support cross-entropy.  With
    ``first_order`` each step runs on a throwaway tape, released once its
    gradients are read, and returns detached arrays; ``start_params`` (default:
    the network's own) may carry a leading task axis, as in
    :func:`maml_adapt_tasks`.  Otherwise the updates are recorded on ``tape``
    starting from ``theta_params`` so the outer gradient is exact; this
    requires every layer kind to support differentiation through gradients,
    and the caller releases ``tape``.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if inner_loss is None:
        inner_loss = _default_inner_loss(network, support_x, support_y)

    if first_order:
        current = (
            [dict(e) for e in start_params]
            if start_params is not None
            else _layer_arrays(network)
        )
        for _ in range(steps):
            with Tape() as step_tape:
                nodes = [
                    {name: step_tape.leaf(arr) for name, arr in entry.items()}
                    for entry in current
                ]
                loss = inner_loss(nodes, step_tape)
                grads = step_tape.backward(loss, param_nodes_to_list(nodes))
            current = [
                {
                    name: as_tensor(value_of(node) - inner_lr * grads[node])
                    for name, node in entry.items()
                }
                for entry in nodes
            ]
        return AdaptedParams(current, steps, True, network)

    bad = {l.kind for l in network.layers} - set(SECOND_ORDER_KINDS)
    if bad:
        raise ValueError(
            f"second-order adaptation unsupported for layer kinds {sorted(bad)}"
        )
    if tape is None or theta_params is None:
        raise ValueError("second-order adaptation needs the outer tape and leaves")
    current = theta_params
    for _ in range(steps):
        loss = inner_loss(current, tape)
        flat = param_nodes_to_list(current)
        grads = tape.backward(loss, flat, build_graph=True)
        current = [
            {name: sub(node, mul(grads[node], inner_lr)) for name, node in entry.items()}
            for entry in current
        ]
    return AdaptedParams(current, steps, False, network)


def _layer_arrays(network: Network) -> list[dict]:
    return [dict(layer.param_items()) for layer in network.layers]


def maml_adapt_tasks(network: Network, tasks, inner_lr: float, steps: int) -> AdaptedParams:
    """First-order adaptation of every task in ``tasks`` in one pass.

    The support sets (equal shapes, as drawn from one task spec) are stacked
    along a leading task axis and the network's parameters tiled to one copy
    per task.  The inner loss sums the per-task mean support cross-entropies,
    so every task descends on exactly its own gradient.  The returned
    parameters keep the task axis: entry ``[t]`` of each array belongs to
    ``tasks[t]``.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("no tasks to adapt")
    support_x = np.stack([task.support_x for task in tasks])
    support_y = np.stack([task.support_y for task in tasks])
    tiled = [
        {
            name: as_tensor(np.broadcast_to(arr, (len(tasks),) + arr.shape))
            for name, arr in entry.items()
        }
        for entry in _layer_arrays(network)
    ]

    def inner_loss(params, tape):
        logits = forward(network.layers, support_x, params=params, task_axis=True)
        return cross_entropy(logits, support_y)

    return maml_adapt(
        network,
        support_x,
        support_y,
        inner_lr,
        steps,
        inner_loss=inner_loss,
        start_params=tiled,
    )


def maml_task_accuracies(network: Network, tasks, inner_lr: float, steps: int) -> np.ndarray:
    """Query accuracy of each task after :func:`maml_adapt_tasks`.

    Each task's queries are scored with that task's own slice of the adapted
    parameters, so batchnorm takes its statistics from that task's queries.
    """
    tasks = list(tasks)
    if any(task.query_x.shape[0] == 0 for task in tasks):
        raise ValueError("task has an empty query set")
    adapted = maml_adapt_tasks(network, tasks, inner_lr, steps)
    accs = np.empty(len(tasks))
    for t, task in enumerate(tasks):
        params = [{name: arr[t] for name, arr in entry.items()} for entry in adapted.params]
        accs[t] = _accuracy(forward(network.layers, task.query_x, params=params), task)
    return accs


def _accuracy(scores, task: Task) -> float:
    predictions = np.argmax(value_of(scores), axis=1)
    return float(np.mean(predictions == task.query_y))


def maml_outer_step(
    network: Network,
    tasks,
    task_loss_fn,
    opt_state,
    inner_lr: float,
    inner_steps: int,
    first_order: bool = True,
    inner_loss_fn=None,
):
    """One meta-update over a batch of tasks.

    ``task_loss_fn(tape, theta_params, phi_params, task)`` returns the scalar
    total-loss node for a task plus a diagnostics dict; gradients are averaged
    over the batch and applied with one optimizer step.  Each task's tape is
    released once its gradients have been accumulated.  Returns the list of
    per-task diagnostics.  ``inner_loss_fn(task)``, when given, builds the
    inner objective for that task (defaults to support cross-entropy).
    """
    from .optim import optimizer_step

    tasks = list(tasks)
    if not tasks:
        raise ValueError("task batch is empty")
    arrays = network.parameter_arrays()
    total = [np.zeros_like(a) for a in arrays]
    infos = []
    for task in tasks:
        with Tape() as tape:
            theta = make_param_nodes(network.layers, tape)
            theta_flat = param_nodes_to_list(theta)
            inner_loss = (
                inner_loss_fn(task) if inner_loss_fn is not None
                else _default_inner_loss(network, task.support_x, task.support_y)
            )
            if first_order:
                adapted = maml_adapt(
                    network,
                    task.support_x,
                    task.support_y,
                    inner_lr,
                    inner_steps,
                    first_order=True,
                    inner_loss=inner_loss,
                )
                phi = [
                    {name: tape.leaf(arr) for name, arr in entry.items()}
                    for entry in adapted.params
                ]
            else:
                adapted = maml_adapt(
                    network,
                    task.support_x,
                    task.support_y,
                    inner_lr,
                    inner_steps,
                    first_order=False,
                    tape=tape,
                    theta_params=theta,
                    inner_loss=inner_loss,
                )
                phi = adapted.params
            loss, info = task_loss_fn(tape, theta, phi, task)
            infos.append(info)
            if first_order:
                phi_flat = param_nodes_to_list(phi)
                grads = tape.backward(loss, phi_flat + theta_flat)
                task_grads = [grads[p] + grads[t] for p, t in zip(phi_flat, theta_flat)]
            else:
                grads = tape.backward(loss, theta_flat)
                task_grads = [grads[t] for t in theta_flat]
        for i, g in enumerate(task_grads):
            total[i] += g
    scale = 1.0 / len(tasks)
    mean_grads = [g * scale for g in total]
    new_arrays, opt_state = optimizer_step(arrays, mean_grads, opt_state)
    network.set_parameter_arrays(new_arrays)
    return infos


def predict_accuracy(
    learner: str,
    network: Network,
    task: Task,
    distance: str = "sqeuclidean",
    eval_steps: int = 10,
    inner_lr: float = 0.01,
) -> float:
    """Fraction of query instances classified correctly.

    The prototype learner embeds with the full network and assigns each query
    to the nearest prototype.  The meta-learner fine-tunes on the support set
    for ``eval_steps`` (:func:`maml_task_accuracies` with one task) and takes
    the argmax of the classifier outputs.  Argmax ties resolve to the lowest
    class index.
    """
    if learner == "protonet":
        if task.query_x.shape[0] == 0:
            raise ValueError("task has an empty query set")
        support_emb = forward(network.layers, task.support_x)
        query_emb = forward(network.layers, task.query_x)
        protos = compute_prototypes(support_emb, task.support_y, task.ways)
        return _accuracy(protonet_logits(query_emb, protos, distance), task)
    if learner == "maml":
        return float(maml_task_accuracies(network, [task], inner_lr, eval_steps)[0])
    raise ValueError(f"unknown learner {learner!r}")
