"""ProtoNet evaluation and compactness on a task axis, in chunks of tasks,
against the per-task loops they replaced."""

import tracemalloc

import numpy as np
import pytest

from fewshot_ibp import harness as H
from fewshot_ibp import layers as L
from fewshot_ibp import learners as LR
from fewshot_ibp import tensor as T
from fewshot_ibp.episodes import TaskSpec, sample_task
from test_learners import conv_pool_network, fc_pool_network

SPEC = TaskSpec(5, 1, 15)
ENTROPY = (0, 202)
N_TASKS = 240


# -- the per-task paths, as they were before task-axis scoring ---------------


def reference_prototypes(embeddings, labels, ways: int):
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=ways)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        raise ValueError(f"no embeddings for class {int(missing[0])}")
    n = labels.shape[0]
    selection = np.zeros((ways, n))
    selection[labels, np.arange(n)] = 1.0 / counts[labels]
    return T.matmul(selection, embeddings)


def reference_sqdist(a, b):
    aa = T.sum_(T.mul(a, a), axis=1, keepdims=True)  # (m,1)
    bb = T.sum_(T.mul(b, b), axis=1, keepdims=True)  # (k,1)
    cross = T.matmul(a, T.transpose(b))  # (m,k)
    return T.add(T.sub(aa, T.mul(cross, 2.0)), T.transpose(bb))


def reference_accuracy(network, task, distance):
    if task.query_x.shape[0] == 0:
        raise ValueError("task has an empty query set")
    support_emb = L.forward(network.layers, task.support_x)
    query_emb = L.forward(network.layers, task.query_x)
    protos = LR.compute_prototypes(support_emb, task.support_y, task.ways)
    scores = LR.protonet_logits(query_emb, protos, distance)
    predictions = np.argmax(T.value_of(scores), axis=1)
    return float(np.mean(predictions == task.query_y))


def reference_compactness(network, dataset, spec, n_tasks, queries_per_task, seed_entropy):
    per_class = queries_per_task // spec.ways
    if per_class < 2:
        raise ValueError("need at least 2 same-class query instances per task")
    task_spec = TaskSpec(spec.ways, spec.shots, per_class)
    entropy = tuple(np.atleast_1d(seed_entropy).astype(np.uint64).tolist())
    means = np.empty(n_tasks)
    for i in range(n_tasks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + (i,)))
        task = sample_task(dataset, task_spec, rng)
        emb = L.forward(network.prefix, task.query_x)
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


# -- fixtures -----------------------------------------------------------------


def perturbed(make):
    """The network with every parameter moved, batchnorm's scale and shift
    off (1, 0) included, and its pool."""
    net, ds = make(0)
    rng = np.random.default_rng(1)
    net.set_parameter_arrays([a + 0.1 * rng.standard_normal(a.shape) for a in net.parameter_arrays()])
    return net, ds


def draw(ds, n, spec=SPEC, entropy=ENTROPY):
    """Tasks 0..n-1 as ``evaluate`` draws them."""
    return [
        sample_task(ds, spec, np.random.default_rng(np.random.SeedSequence(entropy + (i,))))
        for i in range(n)
    ]


def chunk_size(task) -> int:
    """Tasks per chunk for tasks shaped like ``task``."""
    return len(next(LR.task_chunks([task] * N_TASKS)))


@pytest.fixture(params=[fc_pool_network, conv_pool_network], ids=["fc", "conv"])
def setting(request):
    net, ds = perturbed(request.param)
    return net, ds, draw(ds, N_TASKS)


def task_counts(tasks):
    chunk = chunk_size(tasks[0])
    return sorted({1, chunk, chunk + 1, N_TASKS})


class TestProtonetTaskAccuracies:
    @pytest.mark.parametrize("distance", LR.DISTANCES)
    def test_equal_to_per_task_loop(self, setting, distance):
        net, ds, tasks = setting
        ref = [reference_accuracy(net, task, distance) for task in tasks]
        assert len(set(ref)) > 1
        for n in task_counts(tasks):
            accs = LR.protonet_task_accuracies(net, tasks[:n], distance)
            np.testing.assert_array_equal(accs, ref[:n])
            mean, ci = H.evaluate(net, "protonet", ds, SPEC, n, ENTROPY, distance=distance)
            ref_mean = float(np.mean(ref[:n]))
            ref_ci = float(1.96 * np.std(ref[:n], ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            assert (mean, ci) == (ref_mean, ref_ci)
        for task, acc in zip(tasks[:3], ref):
            assert LR.predict_accuracy("protonet", net, task, distance=distance) == acc

    def test_chunks_are_drawn_lazily(self):
        net, ds = perturbed(fc_pool_network)
        drawn = []

        def tasks():
            for task in draw(ds, N_TASKS):
                drawn.append(task)
                yield task

        chunks = LR.task_chunks(tasks())
        first = next(chunks)
        assert 1 < len(first) == len(drawn) < N_TASKS
        assert sum(map(len, chunks)) + len(first) == N_TASKS

    def test_empty_query_set_in_chunk_rejected(self):
        net, ds = perturbed(fc_pool_network)
        tasks = draw(ds, 3)
        tasks[2].query_x = tasks[2].query_x[:0]
        tasks[2].query_y = tasks[2].query_y[:0]
        with pytest.raises(ValueError, match="empty query set"):
            LR.protonet_task_accuracies(net, tasks)

    def test_unknown_distance_and_learner_rejected(self):
        net, ds = perturbed(fc_pool_network)
        with pytest.raises(ValueError, match="unknown distance"):
            LR.protonet_task_accuracies(net, draw(ds, 2), "cosine")
        with pytest.raises(ValueError, match="unknown learner"):
            H.evaluate(net, "knn", ds, SPEC, 2, ENTROPY)

    def test_no_tasks_rejected(self):
        net, _ = perturbed(fc_pool_network)
        with pytest.raises(ValueError):
            LR.protonet_task_accuracies(net, [])


class TestCompactnessChunks:
    def test_equal_to_per_task_loop(self, setting):
        net, ds, _ = setting
        queries = 50
        task = draw(ds, 1, TaskSpec(SPEC.ways, SPEC.shots, queries // SPEC.ways), (0,))[0]
        chunk = chunk_size(task)
        for n in sorted({1, chunk, chunk + 1, 200}):
            got = H.compactness(net, ds, SPEC, n_tasks=n, queries_per_task=queries)
            assert got == reference_compactness(net, ds, SPEC, n, queries, (0,))


class TestTaskAxisPrimitives:
    def test_prototypes_equal_per_task_calls(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((4, 9, 6))
        labels = np.stack([rng.permutation(np.arange(9) % 3) for _ in range(4)])
        got = LR.compute_prototypes(emb, labels, 3)
        for t in range(4):
            np.testing.assert_array_equal(got[t], LR.compute_prototypes(emb[t], labels[t], 3))
            np.testing.assert_array_equal(got[t], reference_prototypes(emb[t], labels[t], 3))

    def test_stacked_task_missing_a_class_rejected(self):
        labels = np.array([[0, 1, 2, 0], [0, 1, 1, 0]])
        with pytest.raises(ValueError, match="class 2 in task 1"):
            LR.compute_prototypes(np.ones((2, 4, 3)), labels, 3)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="labels outside"):
            LR.compute_prototypes(np.ones((3, 2)), np.array([0, 1, 2]), 2)

    def test_sqdist_equals_per_task_calls(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((3, 7, 5)), rng.standard_normal((3, 4, 5))
        got = LR.pairwise_sqdist(a, b)
        for t in range(3):
            np.testing.assert_array_equal(got[t], LR.pairwise_sqdist(a[t], b[t]))
            np.testing.assert_array_equal(got[t], reference_sqdist(a[t], b[t]))

    def test_recorded_two_dimensional_path_is_unchanged(self):
        # the training step records prototypes and distances on a tape
        rng = np.random.default_rng(5)
        emb, query = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        values, grads = [], []
        for protos_fn, dist_fn in (
            (LR.compute_prototypes, LR.pairwise_sqdist),
            (reference_prototypes, reference_sqdist),
        ):
            with T.Tape() as tape:
                e, q = tape.leaf(emb), tape.leaf(query)
                d = dist_fn(q, protos_fn(e, labels, 3))
                values.append(T.value_of(d))
                g = tape.backward(T.sum_(T.mul(d, d)), [e, q])
                grads.append((g[e], g[q]))
        np.testing.assert_array_equal(values[0], values[1])
        for g0, g1 in zip(*grads):
            np.testing.assert_array_equal(g0, g1)


@pytest.mark.parametrize("make", [fc_pool_network, conv_pool_network])
def test_evaluate_memory_is_bounded_by_chunks(make):
    """The traced peak of 240 tasks stays within 10% of two chunks' worth,
    so evaluation cannot quietly go back to one unbounded stack."""
    net, ds = perturbed(make)
    two_chunks = 2 * chunk_size(draw(ds, 1)[0])
    assert two_chunks < N_TASKS

    def peak(n):
        H.evaluate(net, "protonet", ds, SPEC, n, ENTROPY)  # warm caches
        tracemalloc.start()
        try:
            H.evaluate(net, "protonet", ds, SPEC, n, ENTROPY)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(N_TASKS) <= 1.1 * peak(two_chunks)
