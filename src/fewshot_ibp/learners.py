"""The two few-shot learners: prototype classification and meta-learned
initializations with inner-loop adaptation.

Prototypes are per-class means of support embeddings; queries are classified
by a softmax over negative (squared) Euclidean distances.  Both learners
score in logits: :func:`protonet_logits` gives the negative distances and
:func:`cross_entropy` takes logits, so no probability rows are formed.

The meta-learner adapts a copy of the parameters on each task's support set
with full-batch gradient descent, then is judged on the query set.
Adaptation is first-order by default: the inner update is detached, and the
outer gradient is the query gradient at the adapted parameters applied to
the initial slots.  Exact second-order updates re-record the inner updates
on the tape, for every layer kind.

:func:`maml_adapt` returns the adapted parameters as a list of per-layer
dicts, the layout of :func:`~fewshot_ibp.layers.make_param_nodes`.  Tasks
are adapted together on a leading task axis: their sets are stacked into a
:class:`TaskBatch`, the parameters tiled to one copy per task, and the
inner loss is the sum of the per-task losses (:func:`cross_entropy` gives
one value per task), so each task's gradient is exactly its own and one
backward pass per step serves every task.  Evaluation does this with
:func:`maml_adapt_tasks`; training does it in :func:`maml_outer_step`,
where θ is tiled into one tape leaf per task, one call of
:func:`maml_adapt` adapts the whole meta-batch in either order, and one
backward pass of the summed query losses gives every task's gradient of θ.
Every tape the meta-learner records is released as soon as its gradients
have been read, so no graph waits for the cyclic collector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .episodes import Task
from .layers import Network, forward, param_nodes_to_list
from .tensor import (
    Node,
    Tape,
    add,
    as_tensor,
    div,
    exp,
    matmul,
    mul,
    neg,
    reshape,
    sqrt,
    sub,
    sum_,
    transpose,
    value_of,
)

DISTANCES = ("sqeuclidean", "euclidean")


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
    qd = np.shape(value_of(query_embeddings))[-1]
    pd = np.shape(value_of(prototypes))[-1]
    if qd != pd:
        raise ValueError(f"embedding dim {qd} != prototype dim {pd}")
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}")
    d = pairwise_sqdist(query_embeddings, prototypes)
    return neg(sqrt(d) if distance == "euclidean" else d)


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


def cross_entropy(scores, labels):
    """Mean negative log softmax probability of the true class, from logits.

    Scores (tasks, n, k) with labels (tasks, n) give one mean per task, so
    each task's gradient is its own; callers sum them.  One tape node, whose
    vjp ``(softmax - onehot) * g / n`` is written with tape operations, so
    it can be differentiated again.
    """
    vs = value_of(scores)
    shape = vs.shape
    onehot = _onehot(labels, shape)
    n = shape[-2]
    shift = vs.max(axis=-1, keepdims=True)  # detached; softmax ignores it
    z = vs - shift
    logp = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    axes = (-2, -1) if len(shape) == 3 else None
    out = np.sum(logp * onehot, axis=axes) * (-1.0 / n)
    if not isinstance(scores, Node):
        return out
    g_shape = shape[:-2] + (1, 1)

    def vjp(g, inputs, o):
        e = exp(sub(inputs[0], shift))
        probs = div(e, sum_(e, axis=-1, keepdims=True))
        return (mul(sub(probs, onehot), reshape(mul(g, 1.0 / n), g_shape)),)

    return Node(scores.tape, out, (scores,), vjp)


class TaskBatch(NamedTuple):
    """Support and query sets of equally shaped tasks (as drawn from one task
    spec) stacked on a leading task axis: entry ``[t]`` belongs to task t."""

    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray


def _tiled_arrays(network: Network, n_tasks: int) -> list[dict]:
    """The network's parameters as read-only views with a leading task axis."""
    return [
        {name: np.broadcast_to(arr, (n_tasks,) + arr.shape) for name, arr in entry.items()}
        for entry in _layer_arrays(network)
    ]


def _default_inner_loss(network: Network, support_x, support_y):
    def loss_fn(params, tape):
        logits = forward(network.layers, support_x, tape=tape, params=params)
        return cross_entropy(logits, support_y)

    return loss_fn


def _support_cross_entropy(network: Network, params, support_x, support_y):
    """Per-task mean cross-entropies of support sets stacked on a task axis."""
    logits = forward(network.layers, support_x, params=params, task_axis=True)
    return cross_entropy(logits, support_y)


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
) -> list[dict]:
    """Full-batch gradient descent on the support loss from the current init.

    Returns the adapted parameters, one dict per layer like
    :func:`~fewshot_ibp.layers.make_param_nodes`: arrays (first-order) or
    tape nodes (second-order).
    ``inner_loss(params, tape)`` defaults to support cross-entropy.  With
    ``first_order`` each step runs on a throwaway tape, released once its
    gradients are read, and returns detached arrays; ``start_params`` (default:
    the network's own) may carry a leading task axis, as in
    :func:`maml_adapt_tasks`.  Otherwise the updates are recorded on ``tape``
    starting from ``theta_params`` so the outer gradient is exact, and the
    caller releases ``tape``.
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
        return current

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
    return current


def _layer_arrays(network: Network) -> list[dict]:
    return [dict(layer.param_items()) for layer in network.layers]


def maml_adapt_tasks(network: Network, tasks, inner_lr: float, steps: int) -> list[dict]:
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

    def inner_loss(params, tape):
        return sum_(_support_cross_entropy(network, params, support_x, support_y))

    return maml_adapt(
        network,
        support_x,
        support_y,
        inner_lr,
        steps,
        inner_loss=inner_loss,
        start_params=_tiled_arrays(network, len(tasks)),
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
        params = [{name: arr[t] for name, arr in entry.items()} for entry in adapted]
        accs[t] = _accuracy(forward(network.layers, task.query_x, params=params), task)
    return accs


def _accuracy(scores, task: Task) -> float:
    predictions = np.argmax(value_of(scores), axis=1)
    return float(np.mean(predictions == task.query_y))


def maml_outer_step(
    network: Network,
    tasks,
    query_loss,
    opt_state,
    inner_lr: float,
    inner_steps: int,
    first_order: bool = True,
    inner_loss=None,
):
    """One meta-update over a batch of tasks, all adapted at once.

    The tasks are stacked into a :class:`TaskBatch` and the parameters θ
    tiled into one leaf per task, ``tape.leaf(broadcast_to(a, (T,) +
    a.shape))``, on a single tape.  ``inner_loss(batch, params)`` returns the
    per-task support losses, shape (tasks,), and defaults to support
    cross-entropy; :func:`maml_adapt` descends on their sum once for every
    task, first-order from the tiled arrays or second-order on the tape from
    the tiled leaves.  ``query_loss(batch, theta, phi)`` returns the per-task
    total losses, shape (tasks,), and a list of per-task diagnostics.  One
    backward pass of their sum gives each task's own gradient of θ; the
    gradients are averaged over the batch, adding in task order, and applied
    with one optimizer step.  The tape is released once they are read.
    Returns the per-task diagnostics.
    """
    from .optim import optimizer_step

    tasks = list(tasks)
    if not tasks:
        raise ValueError("task batch is empty")
    batch = TaskBatch(
        *(np.stack([getattr(task, name) for task in tasks]) for name in TaskBatch._fields)
    )

    def support_loss(params, tape):
        if inner_loss is None:
            losses = _support_cross_entropy(network, params, batch.support_x, batch.support_y)
        else:
            losses = inner_loss(batch, params)
        return sum_(losses)

    with Tape() as tape:
        tiled = _tiled_arrays(network, len(tasks))
        theta = [{name: tape.leaf(arr) for name, arr in entry.items()} for entry in tiled]
        theta_flat = param_nodes_to_list(theta)
        phi = maml_adapt(
            network,
            batch.support_x,
            batch.support_y,
            inner_lr,
            inner_steps,
            first_order=first_order,
            tape=tape,
            theta_params=theta,
            inner_loss=support_loss,
            start_params=tiled,
        )
        if first_order:  # detached arrays become leaves of the outer tape
            phi = [{name: tape.leaf(arr) for name, arr in entry.items()} for entry in phi]
        losses, infos = query_loss(batch, theta, phi)
        loss = sum_(losses)
        if first_order:
            phi_flat = param_nodes_to_list(phi)
            grads = tape.backward(loss, phi_flat + theta_flat)
            task_grads = [grads[p] + grads[t] for p, t in zip(phi_flat, theta_flat)]
        else:
            grads = tape.backward(loss, theta_flat)
            task_grads = [grads[t] for t in theta_flat]
    scale = 1.0 / len(tasks)
    mean_grads = [np.sum(g, axis=0) * scale for g in task_grads]
    new_arrays, opt_state = optimizer_step(network.parameter_arrays(), mean_grads, opt_state)
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
