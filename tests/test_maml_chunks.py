"""MAML evaluation of a ``TaskDraw``, adapted a chunk of tasks at a time,
against the single stack of ``sample_task`` tasks it replaced, and the
one-array inner update of first-order adaptation."""

import sys
import tracemalloc

import numpy as np
import pytest

from fewshot_ibp import harness as H
from fewshot_ibp import learners as LR
from fewshot_ibp import tensor as T
from fewshot_ibp.layers import forward, param_nodes_to_list
from test_learners import conv_pool_network, fc_pool_network
from test_task_chunks import ENTROPY, SPEC, chunk_size, draw, perturbed, task_draw

STEPS, LR_INNER = 10, 0.1
N_TASKS = 24
PER_CHUNK = 7  # with the shrunk budget: chunks of 7, 7, 7 and 3 tasks


# -- the single-stack path, as it was before adaptation in chunks -------------


def reference_adapt(inner_loss, params, inner_lr, steps):
    """First-order ``maml_adapt`` before the one-array update, verbatim."""
    current = [dict(entry) for entry in params]
    for _ in range(steps):
        with T.Tape() as step_tape:
            nodes = [
                {name: step_tape.leaf(arr) for name, arr in entry.items()}
                for entry in current
            ]
            loss = inner_loss(nodes)
            grads = step_tape.backward(loss, param_nodes_to_list(nodes))
        current = [
            {
                name: T.as_tensor(T.value_of(node) - inner_lr * grads[node])
                for name, node in entry.items()
            }
            for entry in nodes
        ]
    return current


def reference_task_accuracies(network, tasks, inner_lr, steps):
    """``maml_task_accuracies`` before adaptation in chunks, verbatim but
    for the names it calls and its query chunks, cut here at the scoring
    budget's size."""
    tasks = list(tasks)
    if not tasks:
        raise ValueError("no tasks to adapt")
    if any(task.query_x.shape[0] == 0 for task in tasks):
        raise ValueError("task has an empty query set")
    support_x = np.stack([task.support_x for task in tasks])
    support_y = np.stack([task.support_y for task in tasks])

    def inner_loss(params):
        logits = forward(network.layers, support_x, params=params)
        return T.sum_(LR.cross_entropy(logits, support_y))

    adapted = reference_adapt(inner_loss, LR._tiled_arrays(network, len(tasks)), inner_lr, steps)
    accs = []
    size = chunk_size(tasks[0])
    for chunk in (tasks[start : start + size] for start in range(0, len(tasks), size)):
        done = len(accs)
        params = [
            {name: arr[done : done + len(chunk)] for name, arr in entry.items()}
            for entry in adapted
        ]
        batch = LR.TaskBatch.stack(chunk)
        scores = forward(network.layers, batch.query_x, params=params)
        accs.extend(LR._accuracy(scores, batch.query_y).tolist())
    return np.array(accs)


# -- helpers ------------------------------------------------------------------


def task_elements(network, task) -> int:
    """What one task counts against the adaptation budget: its tiled
    parameters, and the support and query sets the chunk holds."""
    n_params = sum(a.size for a in network.parameter_arrays())
    return n_params + task.support_x.size + task.query_x.size


def adapt_chunk_size(network, task) -> int:
    """Tasks per adaptation chunk at the module's budget."""
    return LR._ADAPT_ELEMENTS // task_elements(network, task)


def spy_on(monkeypatch, module, name, record):
    """Replace ``module.name`` by a wrapper that appends each result to
    ``record``."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        record.append(real(*args, **kwargs))
        return record[-1]

    monkeypatch.setattr(module, name, spy)


def chunk_arrays(adapted):
    """Every array of one chunk's adapted parameters."""
    return [arr for entry in adapted for arr in entry.values()]


def stacked(adapted_chunks):
    """Per-chunk adapted parameters joined on the task axis."""
    return [
        {name: np.concatenate([chunk[i][name] for chunk in adapted_chunks]) for name in entry}
        for i, entry in enumerate(adapted_chunks[0])
    ]


@pytest.fixture(params=[fc_pool_network, conv_pool_network], ids=["fc", "conv"])
def setting(request):
    net, ds = perturbed(request.param)
    return net, ds, draw(ds, N_TASKS)


@pytest.fixture
def small_budget(monkeypatch, setting):
    """Shrink the adaptation budget to ``PER_CHUNK`` tasks."""
    net, _, tasks = setting
    monkeypatch.setattr(LR, "_ADAPT_ELEMENTS", PER_CHUNK * task_elements(net, tasks[0]))


# -- tests --------------------------------------------------------------------


class TestMamlTaskAccuracies:
    @pytest.mark.parametrize("n_tasks", [1, N_TASKS])
    def test_chunks_equal_single_stack(self, setting, small_budget, monkeypatch, n_tasks):
        net, ds, tasks = setting
        tasks = tasks[:n_tasks]
        ref_adapted = []
        spy_on(monkeypatch, sys.modules[__name__], "reference_adapt", ref_adapted)
        ref = reference_task_accuracies(net, tasks, LR_INNER, STEPS)
        assert n_tasks == 1 or len(set(ref.tolist())) > 1
        adapted = []
        spy_on(monkeypatch, LR, "maml_adapt", adapted)
        accs = LR.maml_task_accuracies(net, task_draw(ds, n_tasks), LR_INNER, STEPS)
        sizes = [chunk[0]["weight"].shape[0] for chunk in adapted]  # tasks per chunk
        assert sizes == ([1] if n_tasks == 1 else [7, 7, 7, 3])
        assert accs.tobytes() == ref.tobytes()
        for got, want in zip(stacked(adapted), ref_adapted[0], strict=True):
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()
        assert not any(arr.flags.writeable for chunk in adapted for arr in chunk_arrays(chunk))

    def test_evaluate_equals_single_stack(self, setting, small_budget):
        net, ds, tasks = setting
        ref = reference_task_accuracies(net, tasks, LR_INNER, STEPS)
        mean, ci = H.evaluate(
            net, "maml", ds, SPEC, N_TASKS, ENTROPY, eval_inner_steps=STEPS, inner_lr=LR_INNER
        )
        assert mean == float(np.mean(ref))
        assert ci == float(1.96 * np.std(ref, ddof=1) / np.sqrt(N_TASKS))

    def test_tasks_are_drawn_a_chunk_at_a_time(self, setting, small_budget, monkeypatch):
        net, ds, _ = setting
        # a budget of 5 tasks' row indices holds no chunk of 7, so each block
        # is one chunk, drawn as it is needed: after 7, 14, 21 and 24 tasks
        monkeypatch.setattr(LR, "_CHUNK_ELEMENTS", 5 * SPEC.ways * (SPEC.shots + SPEC.query_shots))
        taken, seen = [], []

        def lazily():
            for rng in task_draw(ds, N_TASKS).rngs:
                taken.append(rng)
                yield rng

        def note_taken(*args, **kwargs):
            seen.append(len(taken))
            return adapt(*args, **kwargs)

        adapt = LR.maml_adapt
        monkeypatch.setattr(LR, "maml_adapt", note_taken)
        LR.maml_task_accuracies(net, LR.TaskDraw(ds, SPEC, lazily()), LR_INNER, 1)
        assert seen == [7, 14, 21, 24]

    def test_no_tasks_rejected(self):
        net, ds = perturbed(fc_pool_network)
        with pytest.raises(ValueError, match="no tasks"):
            LR.maml_task_accuracies(net, LR.TaskDraw(ds, SPEC, []), LR_INNER, STEPS)


def test_maml_evaluate_memory_is_bounded_by_chunks():
    """The traced peak of 600 conv tasks stays within 10% of two adaptation
    chunks' worth, so evaluation cannot quietly go back to one stack."""
    net, ds = perturbed(conv_pool_network)
    n_tasks = 600
    two_chunks = 2 * adapt_chunk_size(net, draw(ds, 1)[0])
    assert two_chunks < n_tasks

    def peak(n):
        H.evaluate(net, "maml", ds, SPEC, n, ENTROPY, eval_inner_steps=3)  # warm caches
        tracemalloc.start()
        try:
            H.evaluate(net, "maml", ds, SPEC, n, ENTROPY, eval_inner_steps=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(n_tasks) <= 1.1 * peak(two_chunks)


class TestInnerUpdate:
    """First-order ``maml_adapt`` makes one fresh array per parameter and
    step, and never writes into a gradient, which the tape may share
    between parameters.  Both orders reject an overflowing update."""

    WEIGHTS = np.array([[0.5, -2.0, 3.0], [1.5, 0.25, -1.0]])

    def shared_adjoint_loss(self, params):
        # add's vjp hands its one output adjoint to both operands
        (entry,) = params
        return T.sum_(T.mul(T.add(entry["weight"], entry["bias"]), self.WEIGHTS))

    def test_shared_adjoint_array_reaches_both_parameters(self):
        with T.Tape() as tape:
            a, b = tape.leaf(np.zeros((2, 3))), tape.leaf(np.ones((2, 3)))
            grads = tape.backward(self.shared_adjoint_loss([{"weight": a, "bias": b}]), [a, b])
        assert grads[a] is grads[b]  # so the test below is not vacuous

    def test_both_parameters_step_by_their_gradient(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        lr = 0.3
        (got,) = LR.maml_adapt(self.shared_adjoint_loss, [{"weight": a, "bias": b}], lr, 2)
        # the loss is linear, so every step's gradient is WEIGHTS
        for name, start in (("weight", a), ("bias", b)):
            want = start - lr * self.WEIGHTS
            want = want - lr * self.WEIGHTS
            assert got[name].tobytes() == want.tobytes()
            assert not got[name].flags.writeable
            assert got[name].flags.c_contiguous

    def test_overflowing_update_raises(self):
        zeros = np.zeros((2, 3))
        with np.errstate(over="ignore"):  # 3.0 * 1e308 is inf
            with pytest.raises(T.NonFiniteError, match="inner update"):
                LR.maml_adapt(self.shared_adjoint_loss, [{"weight": zeros, "bias": zeros}], 1e308, 1)

    def test_overflowing_second_order_update_raises(self):
        with T.Tape() as tape:
            params = [{"weight": tape.leaf(np.zeros((2, 3))), "bias": tape.leaf(np.zeros((2, 3)))}]
            with np.errstate(over="ignore"):
                with pytest.raises(T.NonFiniteError, match="inner update"):
                    LR.maml_adapt(self.shared_adjoint_loss, params, 1e308, 1)
