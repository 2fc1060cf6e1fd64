"""The two few-shot learners: prototype classification and meta-learned
initializations with inner-loop adaptation.

Prototypes are per-class means of support embeddings; queries are classified
by a softmax over negative (squared) Euclidean distances.  Both learners
score in logits: :func:`protonet_logits` gives the negative distances and
:func:`cross_entropy` takes logits, so no probability rows are formed.  Each
is one tape node (the ``euclidean`` root inside the scores' node), with a
vjp written in tape operations that sums the adjoints of the primitive
chain it replaced in that chain's order.
Prototypes, distances and logits also take a leading task axis, where each
task's queries meet only that task's prototypes.  An odd-rank input stacks
tasks (:func:`~fewshot_ibp.layers.has_task_axis`).

Every drawn task reaches a learner as pool rows gathered into a
:class:`TaskBatch`, its sets stacked on the task axis
(:meth:`TaskBatch.gather`): a training step's tasks at once, and
evaluation's as a :class:`TaskDraw`, drawn a block at a time
(:func:`~fewshot_ibp.episodes.draw_task_rows`) and gathered a chunk at a
time, so its memory is bounded by element budgets.  When the layers before
the first batchnorm map the whole pool into no more than
``_MAPPED_ELEMENTS`` elements, ProtoNet evaluation runs them once on the
pool and draws from the mapped rows (:func:`mapped_pool`).  Only
:func:`predict_accuracy` stacks a hand-built task (:meth:`TaskBatch.stack`).

The meta-learner adapts a copy of the parameters on each task's support set
with full-batch gradient descent, then is judged on the query set.
:func:`maml_adapt` is that descent, on any loss of the parameters, given
as one dict per layer keyed by the names of
:meth:`~fewshot_ibp.layers.LayerSpec.param_items`.  The order follows
from what it is given: from arrays it adapts first-order, the inner update
detached, so the outer gradient is the query gradient at the adapted
parameters applied to the initial slots; from tape nodes it adapts
second-order, re-recording the inner updates on their tape, for every layer
kind.  One update op, :func:`_descended`, serves both orders.  A batch's
tasks adapt together: the parameters are tiled to one copy per task, the
inner loss gives one value per task and backward differentiates their sum,
so each task's gradient is its own and one backward pass per step serves
every task.  A first-order inner update makes one fresh array per parameter
and never writes into a gradient, which the tape may share between
parameters.  Both training steps apply the mean of their per-task
gradients with one optimizer step (:func:`_mean_update`).  Every tape the
meta-learner records is released as soon as its gradients have been read,
so no graph waits for the cyclic collector.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .episodes import Dataset, Task, TaskSpec, as_int, draw_task_rows, spec_labels
from .layers import Network, first_batchnorm, forward, param_nodes_to_list
from .optim import optimizer_step
from .tensor import (
    Node,
    Tape,
    _linear_input_grad,
    _linear_weight_grad,
    _tape_of,
    add,
    check_finite,
    div,
    exp,
    matmul,
    mul,
    neg,
    reshape,
    sub,
    sum_,
    transpose,
    value_of,
)

DISTANCES = ("sqeuclidean", "euclidean")


def compute_prototypes(embeddings, labels, ways: int):
    """Per-class mean embeddings: (ways, dim) from embeddings (n, dim) and
    labels (n,), or (tasks, ways, dim) from (tasks, n, dim) and (tasks, n).

    Every local label 0..ways-1 must appear at least once in every task.
    """
    labels = np.asarray(labels)
    member = labels[..., None, :] == np.arange(ways)[:, None]  # (..., ways, n)
    counts = member.sum(axis=-1)
    if counts.sum() != labels.size:
        raise ValueError(f"labels outside 0..{ways - 1}")
    if not counts.all():
        missing = np.argwhere(counts == 0)[0]
        where = f" in task {int(missing[0])}" if labels.ndim == 2 else ""
        raise ValueError(f"no embeddings for class {int(missing[-1])}{where}")
    return matmul(member / counts[..., None], embeddings)


def _sqdist_grads(g, a, b, inputs):
    """Adjoints of ``a`` and ``b`` (None for a constant) for adjoint ``g``
    of their squared distances ``|a|² - 2 a bᵀ + |b|²ᵀ``: the sums of the
    primitive chain's adjoints, in its order, written with tape ops."""
    xa, xb = inputs
    g_cross = mul(neg(g), 2.0)
    ga = gb = None
    if isinstance(a, Node):
        g_sq = mul(sum_(g, axis=-1, keepdims=True), xa)  # of each a·a product
        ga = add(add(_linear_input_grad(g_cross, xb, a.shape), g_sq), g_sq)
    if isinstance(b, Node):
        g_sq = mul(transpose(sum_(g, axis=-2, keepdims=True)), xb)
        gb = add(add(_linear_weight_grad(g_cross, xa, b.shape), g_sq), g_sq)
    return ga, gb


def pairwise_sqdist(a, b):
    """Squared Euclidean distances between the rows of arrays ``a`` (m,d) and
    ``b`` (k,d), or of each task's ``a`` (tasks,m,d) and ``b`` (tasks,k,d)."""
    aa = np.sum(np.multiply(a, a), axis=-1, keepdims=True)  # (..., m, 1)
    bb = np.sum(np.multiply(b, b), axis=-1, keepdims=True)  # (..., k, 1)
    cross = a @ b.swapaxes(-1, -2)  # (..., m, k)
    return np.add(np.subtract(aa, np.multiply(cross, 2.0)), bb.swapaxes(-1, -2))


def protonet_logits(query_embeddings, prototypes, distance: str = "sqeuclidean"):
    """Negative distances, the classification scores of the prototype rule.

    One tape node for either distance, the ``euclidean`` root included.
    """
    a, b = query_embeddings, prototypes
    qd = value_of(a).shape[-1]
    pd = value_of(b).shape[-1]
    if qd != pd:
        raise ValueError(f"embedding dim {qd} != prototype dim {pd}")
    if distance not in DISTANCES:
        raise ValueError(f"unknown distance {distance!r}")
    d = pairwise_sqdist(value_of(a), value_of(b))
    root = distance == "euclidean"
    out = np.negative(np.sqrt(d) if root else d)
    tape = _tape_of(a, b)
    if tape is None:
        return out

    def vjp(g, inputs, o):
        g_d = neg(g)
        if root:  # the root is -o
            g_d = div(mul(g_d, 0.5), neg(o))
        return _sqdist_grads(g_d, a, b, inputs)

    return Node(tape, out, (a, b), vjp)


def _onehot(labels, score_shape) -> np.ndarray:
    """One-hot rows of integer ``labels``, laid out like scores of
    ``score_shape``."""
    labels = np.asarray(labels)
    classes = score_shape[-1]
    if len(score_shape) not in (2, 3) or labels.shape != score_shape[:-1]:
        raise ValueError(
            f"labels of shape {labels.shape} do not match scores {score_shape}"
        )
    if labels.dtype.kind not in "iu":  # signed or unsigned integers; not bool
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
        raise ValueError(f"labels outside 0..{classes - 1}")
    return (labels[..., None] == np.arange(classes)).astype(np.float64)


def _classes(network: Network) -> int | None:
    """Scores per row of a network ending in a fully connected layer."""
    last = network.layers[-1]
    return last.weight.shape[0] if last.kind == "fully_connected" else None


def cross_entropy(scores, labels):
    """Mean negative log softmax probability of the true class, from logits.

    ``labels``, one per row, may be their checked one-hot rows (:class:`TaskBatch`).
    Scores (tasks, n, k) with labels (tasks, n) give one mean per task, so
    each task's gradient is its own; backward sums them.  One tape node, whose
    vjp is ``(softmax - onehot) * g / n``: from the forward pass's
    exponentials in value mode, and written with tape operations when the
    backward pass builds a graph, so it can be differentiated again.
    """
    vs = value_of(scores)
    shape = vs.shape
    onehot = labels if np.shape(labels) == shape else _onehot(labels, shape)
    n = shape[-2]
    shift = vs.max(axis=-1, keepdims=True)  # detached; softmax ignores it
    z = vs - shift
    e = np.exp(z)
    row_sum = np.add.reduce(e, axis=-1, keepdims=True)  # np.sum, without its wrapper
    logp = z - np.log(row_sum)
    axes = (-2, -1) if len(shape) == 3 else None
    out = np.add.reduce(logp * onehot, axis=axes) * (-1.0 / n)
    if not isinstance(scores, Node):
        return out
    g_shape = shape[:-2] + (1, 1)

    def vjp(g, inputs, o):
        (x,) = inputs
        if isinstance(x, Node):  # building a graph: the softmax as nodes of the scores
            ex = exp(sub(x, shift))
            probs = div(ex, sum_(ex, axis=-1, keepdims=True))
        else:
            probs = np.divide(e, row_sum)
        return (mul(sub(probs, onehot), reshape(mul(g, 1.0 / n), g_shape)),)

    return Node(scores.tape, out, (scores,), vjp)


class TaskBatch(NamedTuple):
    """Support and query sets of equally shaped tasks (as drawn from one task
    spec) stacked on a leading task axis: entry ``[t]`` belongs to task t.
    ``ways`` is each task's number of classes."""

    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    support_targets: np.ndarray
    query_targets: np.ndarray
    ways: int

    @classmethod
    def stack(cls, tasks, classes: int | None = None, scored=("support", "query")) -> "TaskBatch":
        """Stacked ``tasks``.  Given ``classes``, the targets of the
        ``scored`` sets are their labels' checked one-hot rows; other
        targets are labels."""
        support_x, support_y, query_x, query_y = (
            np.array([getattr(task, name) for task in tasks]) for name in cls._fields[:4]
        )
        targets = (
            y if classes is None or name not in scored else _onehot(y, y.shape + (classes,))
            for name, y in (("support", support_y), ("query", query_y))
        )
        return cls(support_x, support_y, query_x, query_y, *targets, tasks[0].ways)

    @classmethod
    def gather(cls, dataset, spec, rows, classes=None, scored=("support", "query")):
        """The tasks of ``spec`` whose pool rows are ``rows`` (tasks, ways,
        K+Q), first K to the support set, as :meth:`stack` stacks the tasks
        :func:`~fewshot_ibp.episodes.sample_task` gives for those rows: each
        set is one gather from ``dataset.pool`` into its stacked array, and
        its labels and targets read-only views of one task's, kept beside
        :func:`~fewshot_ibp.episodes.spec_labels` once built and checked."""
        n, ways = rows.shape[:2]
        parts = rows[..., : spec.shots], rows[..., spec.shots :]
        support_x, query_x = (dataset.pool.take(part.reshape(n, -1), axis=0) for part in parts)
        key = spec, classes, tuple(scored)
        if (one := dataset._label_cache.get(key)) is None:  # one task's labels, then targets
            labels = spec_labels(dataset, spec)
            one = labels + tuple(y if classes is None or name not in scored
                                 else _onehot(y[None], (1,) + y.shape + (classes,))[0]
                                 for name, y in zip(("support", "query"), labels))
            for a in one:
                a.flags.writeable = False
            dataset._label_cache[key] = one
        # the views np.broadcast_to makes, at a quarter of its cost
        support_y, query_y, *targets = (np.ndarray((n,) + a.shape, a.dtype, a, 0, (0,) + a.strides)
                                        for a in one)
        return cls(support_x, support_y, query_x, query_y, *targets, ways)


# Element budget of one scoring chunk's stacked query input: 27 tasks of
# 75 x 8 queries, or 2 of 75 x 1 x 10 x 10.  Set from the benchmark's peak
# RSS and eval speed: 2**13 (13 fc tasks, 1 conv task) left conv evaluation
# 5% slower than the per-task loop, and 2**15 (54 fc tasks) raised fc peak
# RSS by 4.5% where 2**14 raises it by 2%.  Scoring only runs a forward pass
# per chunk, so small chunks cost little; adaptation has its own budget
# below.  Tasks drawn from a mapped pool are counted at their unmapped query
# size, so a chunk holds the same tasks mapped or not.  Evaluation also
# draws its tasks in blocks of this many row indices (:class:`TaskDraw`),
# 204 tasks of 5 x 16 rows, so a block's indices take about a query chunk's
# memory; a block pays its array operations once per draw slot whatever its
# size, so it is not cut to the size of a chunk.
_CHUNK_ELEMENTS = 2**14

# Element budget (2 MiB of float64) of the pool that ProtoNet evaluation maps
# ahead of drawing (:func:`mapped_pool`): the benchmark's fc pool maps to
# 360 x 16 elements and its conv pool, up to the batchnorm, to 360 x 512.
# The mapped conv pool then serves all 19,200 rows drawn by 240 tasks with
# 360 convolved rows: that evaluation ran at 1,049 tasks/s against 856 per
# task, and peak RSS was 47.0 MB against 45.1 (medians of 10 benchmark pairs).
_MAPPED_ELEMENTS = 2**18

# Element budget of one adaptation chunk: each task's tiled parameter
# elements plus the support and query elements the chunk holds, 90 tasks of
# the benchmark's fc network (816 + 5 x 8 + 75 x 8) or 12 of its conv pool
# network (2,160 + 5 x 100 + 75 x 100).  Every chunk pays each inner step's
# tape dispatch, so these chunks are larger than scoring chunks.  Set, when
# only support elements counted, from a 240-task evaluate with 10 inner
# steps (CPU ms, median of 15): fc 34.5 here, 35.4 at 2**16; conv 300-304
# here, 316-326 at 2**16.  Counting the queries cut the traced peak of 600
# conv tasks from 15.1 to 4.5 MB and made the conv evaluate 5% slower.
_ADAPT_ELEMENTS = 2**17


def _per_chunk(budget: int, task_elements: int) -> int:
    """Tasks per chunk (at least one) at ``task_elements`` elements each."""
    return max(1, budget // max(1, task_elements))


class TaskDraw(NamedTuple):
    """The tasks :func:`~fewshot_ibp.episodes.sample_task` draws from
    ``dataset`` with each generator of the iterable ``rngs`` in turn,
    without drawing them one at a time: evaluation takes them as
    :class:`TaskBatch` chunks (:meth:`batches`)."""

    dataset: Dataset
    spec: TaskSpec
    rngs: Iterable[np.random.Generator]

    def sizes(self) -> tuple[int, int, int]:
        """Each task's support elements, query elements and query rows."""
        spec, row = self.spec, self.dataset.pool[0].size
        query_rows = spec.ways * spec.query_shots
        return spec.ways * spec.shots * row, query_rows * row, query_rows

    def _row_blocks(self):
        """The pool rows (tasks, ways, K+Q) of consecutive blocks of the
        generators, each block as many tasks as fit ``_CHUNK_ELEMENTS`` row
        indices (:func:`~fewshot_ibp.episodes.draw_task_rows`)."""
        spec = self.spec
        per_block = _per_chunk(_CHUNK_ELEMENTS, spec.ways * (spec.shots + spec.query_shots))
        rngs = iter(self.rngs)
        while len(rows := draw_task_rows(self.dataset, spec, itertools.islice(rngs, per_block))[1]):
            yield rows

    def _row_chunks(self, size: int):
        """The pool rows of consecutive chunks of ``size`` tasks (the last
        may hold fewer), drawn a block at a time as they are needed."""
        short = None  # the rows of fewer than ``size`` tasks, drawn and not yielded
        for block in self._row_blocks():
            if short is not None:
                fill = size - len(short)
                short, block = np.concatenate([short, block[:fill]]), block[fill:]
                if len(short) < size:
                    continue
                yield short
            whole = len(block) - len(block) % size
            for start in range(0, whole, size):
                yield block[start : start + size]
            # a copy, so that the block is freed before the next is drawn
            short = block[whole:].copy() if whole < len(block) else None
        if short is not None:
            yield short

    def batches(self, size: int, classes: int | None = None, scored=("support", "query")):
        """Consecutive chunks of ``size`` tasks (:meth:`_row_chunks`), each
        gathered from the pool into a :class:`TaskBatch` as it is needed
        (:meth:`TaskBatch.gather`, with ``classes`` and ``scored``)."""
        chunks = self._row_chunks(size)
        return (TaskBatch.gather(self.dataset, self.spec, rows, classes, scored) for rows in chunks)


def _tiled_arrays(network: Network, n_tasks: int) -> list[dict]:
    """The network's parameters as read-only views with a leading task axis."""
    return [
        {name: np.broadcast_to(arr, (n_tasks,) + arr.shape) for name, arr in layer.param_items()}
        for layer in network.layers
    ]


def _descended(value, grad, inner_lr: float):
    """``value - inner_lr * grad``, the inner update of both orders.

    On arrays, one fresh read-only array: the product is allocated once and
    the difference written into it, never into ``grad``, which
    :meth:`~fewshot_ibp.tensor.Tape.backward` may hand to two parameters.
    On nodes, one tape node of the same value, whose vjp ``(g, -g·inner_lr)``
    sums the adjoints of the ``sub(value, mul(grad, inner_lr))`` chain it
    replaces.  Raises ``NonFiniteError`` if the update overflows.
    """
    out = np.multiply(value_of(grad), inner_lr)
    np.subtract(value_of(value), out, out=out)
    check_finite(out, "inner update")
    out.flags.writeable = False
    value_node, grad_node = type(value) is Node, type(grad) is Node
    if not (value_node or grad_node):
        return out

    def vjp(g, inputs, o):
        return (g if value_node else None), (mul(neg(g), inner_lr) if grad_node else None)

    return Node(_tape_of(value, grad), out, (value, grad), vjp)


def maml_adapt(inner_loss, params: list[dict], inner_lr: float, steps: int) -> list[dict]:
    """``steps`` steps of full-batch gradient descent on ``inner_loss(params)``.

    ``params`` is one dict per layer, keyed by the names of
    :meth:`~fewshot_ibp.layers.LayerSpec.param_items`, and so is the
    result.  The order follows from ``params``: arrays adapt first-order,
    each step on a throwaway tape released once its gradients are read, and
    give detached arrays; tape nodes adapt second-order, every update one
    node on their tape so the outer gradient runs through it, and the
    caller releases it.  Both orders update with :func:`_descended`.
    """
    if not 0 <= inner_lr < math.inf:
        raise ValueError(f"inner_lr must be non-negative and finite, got {inner_lr!r}")
    if as_int(steps, "steps") < 0:
        raise ValueError("steps must be non-negative")
    tape = _tape_of(*param_nodes_to_list(params))
    current = [dict(entry) for entry in params]
    for _ in range(steps):
        if tape is None:
            with Tape() as step_tape:
                nodes = [
                    {name: step_tape.leaf(arr) for name, arr in entry.items()}
                    for entry in current
                ]
                grads = step_tape.backward(inner_loss(nodes), param_nodes_to_list(nodes))
        else:
            nodes = current
            grads = tape.backward(inner_loss(nodes), param_nodes_to_list(nodes), build_graph=True)
        current = [
            {
                name: _descended(node.value if tape is None else node, grads[node], inner_lr)
                for name, node in entry.items()
            }
            for entry in nodes
        ]
    return current


def _maml_accuracies(network: Network, batch: TaskBatch, inner_lr: float, steps: int) -> list:
    """Query accuracy of each task of ``batch`` (support targets one-hot)
    after first-order adaptation on its support set: with the parameters
    tiled to one copy per task, :func:`maml_adapt` descends on the sum of
    the per-task support cross-entropies, so every task follows exactly its
    own gradient; the queries are then scored by one forward pass per
    scoring chunk (``_CHUNK_ELEMENTS``) with those tasks' adapted
    parameters, and batchnorm takes its statistics per task."""

    def inner_loss(params):
        logits = forward(network.layers, batch.support_x, params=params)
        return cross_entropy(logits, batch.support_targets)

    tiled = _tiled_arrays(network, len(batch.query_x))
    adapted = maml_adapt(inner_loss, tiled, inner_lr, steps)
    size = _per_chunk(_CHUNK_ELEMENTS, batch.query_x[0].size)
    accs = []
    for start in range(0, len(batch.query_x), size):
        rows = slice(start, start + size)
        params = [{name: arr[rows] for name, arr in entry.items()} for entry in adapted]
        scores = forward(network.layers, batch.query_x[rows], params=params)
        accs.extend(_accuracy(scores, batch.query_y[rows]).tolist())
    return accs


def maml_task_accuracies(
    network: Network, tasks: TaskDraw, inner_lr: float, steps: int
) -> np.ndarray:
    """Query accuracy of each task of ``tasks`` after first-order adaptation
    on its support set (:func:`_maml_accuracies`), a chunk of tasks at a
    time (:meth:`TaskDraw.batches`): as many as fit the adaptation budget
    (``_ADAPT_ELEMENTS``) at their tiled parameters and support and query
    elements.  Each task's result is the same, bit for bit, in any chunk.
    One stack of every task holds all their tiled parameters and inner-loop
    activations at once: for 600 tasks of the benchmark's conv pool network
    the traced peak of evaluation was 214 MB, against about 4.5 MB in
    chunks.
    """
    support, query, _ = tasks.sizes()
    size = _per_chunk(_ADAPT_ELEMENTS, network.parameter_vector.size + support + query)
    accs = []
    for batch in tasks.batches(size, _classes(network), scored=("support",)):
        accs.extend(_maml_accuracies(network, batch, inner_lr, steps))
    if not accs:
        raise ValueError("no tasks to adapt")
    return np.array(accs)


def mapped_pool(network: Network, dataset: Dataset) -> tuple[Dataset, list]:
    """The dataset ProtoNet evaluation draws its tasks from, and the layers
    that embed them.

    The layers before the first batchnorm (:func:`~fewshot_ibp.layers.first_batchnorm`)
    give each row the same output in every task that draws it.  When they
    map the whole pool into no more than ``_MAPPED_ELEMENTS`` elements, they
    run once on it, and the result is a dataset of the mapped rows (same
    counts, ids and role, so tasks draw the same rows) and the remaining
    layers.  Otherwise it is ``dataset`` and all the layers.  The size is
    measured on one row, so a pool that does not fit is never mapped.
    """
    layers, pool = network.layers, dataset.pool
    k = first_batchnorm(layers)
    if k == 0 or len(pool) * forward(layers[:k], pool[:1]).size > _MAPPED_ELEMENTS:
        return dataset, layers
    mapped = forward(layers[:k], pool)
    mapped.flags.writeable = False
    return Dataset(mapped, dataset.counts, dataset.class_ids, dataset.role), layers[k:]


def _protonet_accuracies(layers, batch: TaskBatch, distance: str) -> list:
    """Query accuracy of each task of ``batch`` under the nearest-prototype
    rule, its instances embedded by ``layers``: the support sets and the
    query sets are embedded by one forward pass each on the task axis, so
    batchnorm takes its statistics per task and per set, and each task's
    queries are scored against that task's own prototypes."""
    support_emb = forward(layers, batch.support_x)
    query_emb = forward(layers, batch.query_x)
    protos = compute_prototypes(support_emb, batch.support_y, batch.ways)
    return _accuracy(protonet_logits(query_emb, protos, distance), batch.query_y).tolist()


def protonet_task_accuracies(
    network: Network, tasks: TaskDraw, distance: str = "sqeuclidean"
) -> np.ndarray:
    """Query accuracy of each task of ``tasks`` under the nearest-prototype
    rule (:func:`_protonet_accuracies`), drawn from the pool as
    :func:`mapped_pool` maps it and embedded by the layers it leaves, a
    chunk at a time (:meth:`TaskDraw.batches`).  A chunk holds as many tasks
    as fit the scoring budget (``_CHUNK_ELEMENTS``) at their unmapped query
    elements, so that it holds the tasks it would hold unmapped and its
    largest activation is no larger than theirs.
    """
    size = _per_chunk(_CHUNK_ELEMENTS, tasks.sizes()[1])
    dataset, layers = mapped_pool(network, tasks.dataset)
    accs = []
    for batch in tasks._replace(dataset=dataset).batches(size):
        # plain floats: a list of per-chunk arrays would outgrow the chunks
        accs.extend(_protonet_accuracies(layers, batch, distance))
    if not accs:
        raise ValueError("no tasks to score")
    return np.array(accs)


def _accuracy(scores, labels):
    """Fraction of rows whose argmax is the label, per task on a task axis."""
    predictions = np.argmax(value_of(scores), axis=-1)
    return np.mean(predictions == labels, axis=-1)


def _mean_update(network: Network, task_grads: list, opt_state):
    """One optimizer step on the mean of each parameter's per-task gradients
    (tasks, ...), added in task order (one task: its gradient, bit for bit)."""
    scale = 1.0 / len(task_grads[0])
    mean_grads = [np.add.reduce(g, axis=0) * scale for g in task_grads]
    new_arrays, opt_state = optimizer_step(network.parameter_arrays(), mean_grads, opt_state)
    network.set_parameter_arrays(new_arrays)
    return opt_state


def maml_outer_step(
    network: Network,
    batch: TaskBatch,
    inner_loss,
    query_loss,
    opt_state,
    inner_lr: float,
    inner_steps: int,
    first_order: bool = True,
):
    """One meta-update over the tasks of ``batch``, all adapted at once.

    The parameters θ are tiled into one leaf per task, ``tape.leaf(
    broadcast_to(a, (T,) + a.shape))``, on a single tape.
    ``inner_loss(batch, params)`` returns the per-task support losses,
    shape (tasks,), which :func:`maml_adapt` takes as they are, first-order
    from the tiled arrays or second-order on the tape from the tiled leaves.
    ``query_loss(batch, theta, phi)`` returns the per-task total losses,
    shape (tasks,), and diagnostics of any form; one backward pass of them
    gives each task's own gradient of θ, and :func:`_mean_update` applies
    their mean once the tape is released.  Returns the diagnostics.
    """
    n_tasks = len(batch.query_x)
    if not n_tasks:
        raise ValueError("task batch is empty")

    with Tape() as tape:
        tiled = _tiled_arrays(network, n_tasks)
        theta = [{name: tape.leaf(arr) for name, arr in entry.items()} for entry in tiled]
        theta_flat = param_nodes_to_list(theta)
        phi = maml_adapt(
            lambda params: inner_loss(batch, params),
            tiled if first_order else theta,
            inner_lr,
            inner_steps,
        )
        if first_order:  # detached arrays become leaves of the outer tape
            phi = [{name: tape.leaf(arr) for name, arr in entry.items()} for entry in phi]
        losses, diagnostics = query_loss(batch, theta, phi)
        if first_order:
            phi_flat = param_nodes_to_list(phi)
            grads = tape.backward(losses, phi_flat + theta_flat)
            task_grads = [grads[p] + grads[t] for p, t in zip(phi_flat, theta_flat)]
        else:
            grads = tape.backward(losses, theta_flat)
            task_grads = [grads[t] for t in theta_flat]
    _mean_update(network, task_grads, opt_state)
    return diagnostics


def predict_accuracy(
    learner: str,
    network: Network,
    task: Task,
    distance: str = "sqeuclidean",
    eval_steps: int = 10,
    inner_lr: float = 0.01,
) -> float:
    """Fraction of query instances classified correctly in one task.

    The prototype learner embeds with the full network and assigns each query
    to the nearest prototype (:func:`_protonet_accuracies`).  The
    meta-learner fine-tunes on the support set for ``eval_steps``
    (:func:`_maml_accuracies`) and takes the argmax of the classifier
    outputs.  Argmax ties resolve to the lowest class index.  A task with an
    empty query set raises ``ValueError``.
    """
    if task.query_x.shape[0] == 0:
        raise ValueError("task has an empty query set")
    if learner == "protonet":
        return _protonet_accuracies(network.layers, TaskBatch.stack([task]), distance)[0]
    if learner == "maml":
        batch = TaskBatch.stack([task], _classes(network), scored=("support",))
        return _maml_accuracies(network, batch, inner_lr, eval_steps)[0]
    raise ValueError(f"unknown learner {learner!r}")
