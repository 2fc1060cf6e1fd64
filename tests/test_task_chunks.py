"""ProtoNet evaluation and compactness of a ``TaskDraw``, scored on a task
axis in chunks of tasks, and ProtoNet evaluation on a pool mapped once ahead
of drawing, against the per-task loops over ``sample_task`` they
replaced."""

import tracemalloc

import numpy as np
import pytest

from fewshot_ibp import harness as H
from fewshot_ibp import layers as L
from fewshot_ibp import learners as LR
from fewshot_ibp import tensor as T
from fewshot_ibp.episodes import TaskSpec, sample_task, synth_dataset
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


def task_draw(ds, n, spec=SPEC, entropy=ENTROPY):
    """The tasks of :func:`draw`, as a ``TaskDraw`` of the same streams."""
    seeds = (np.random.SeedSequence(entropy + (i,)) for i in range(n))
    return LR.TaskDraw(ds, spec, map(np.random.default_rng, seeds))


def chunk_size(task) -> int:
    """Tasks per scoring chunk for tasks shaped like ``task``."""
    return LR._per_chunk(LR._CHUNK_ELEMENTS, task.query_x.size)


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
            accs = LR.protonet_task_accuracies(net, task_draw(ds, n), distance)
            np.testing.assert_array_equal(accs, ref[:n])
            mean, ci = H.evaluate(net, "protonet", ds, SPEC, n, ENTROPY, distance=distance)
            ref_mean = float(np.mean(ref[:n]))
            ref_ci = float(1.96 * np.std(ref[:n], ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            assert (mean, ci) == (ref_mean, ref_ci)
        for task, acc in zip(tasks[:3], ref):
            assert LR.predict_accuracy("protonet", net, task, distance=distance) == acc

    def test_chunks_are_drawn_lazily(self, monkeypatch):
        net, ds = perturbed(fc_pool_network)
        taken, seen = [], []  # generators taken; (generators taken, tasks) per chunk

        def lazily():
            for rng in task_draw(ds, N_TASKS).rngs:
                taken.append(rng)
                yield rng

        def note_taken(layers, batch, distance):
            seen.append((len(taken), len(batch.query_x)))
            return score(layers, batch, distance)

        score = LR._protonet_accuracies
        monkeypatch.setattr(LR, "_protonet_accuracies", note_taken)
        LR.protonet_task_accuracies(net, LR.TaskDraw(ds, SPEC, lazily()))
        (first_taken, first), last_taken = seen[0], seen[-1][0]
        # a block of whole chunks, as many as fit the budget's row indices
        chunk_rows = first * SPEC.ways * (SPEC.shots + SPEC.query_shots)
        block = first * LR._per_chunk(LR._CHUNK_ELEMENTS, chunk_rows)
        assert 1 < first < first_taken == block < last_taken == N_TASKS
        assert sum(n for _, n in seen) == N_TASKS

    def test_unknown_distance_and_learner_rejected(self):
        net, ds = perturbed(fc_pool_network)
        with pytest.raises(ValueError, match="unknown distance"):
            LR.protonet_task_accuracies(net, task_draw(ds, 2), "cosine")
        with pytest.raises(ValueError, match="unknown learner"):
            H.evaluate(net, "knn", ds, SPEC, 2, ENTROPY)

    def test_no_tasks_rejected(self):
        net, ds = perturbed(fc_pool_network)
        with pytest.raises(ValueError, match="no tasks"):
            LR.protonet_task_accuracies(net, LR.TaskDraw(ds, SPEC, []))


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
        # the training step records prototypes and their scores on a tape
        rng = np.random.default_rng(5)
        emb, query = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        values, grads = [], []
        for protos_fn, dist_fn in (
            (LR.compute_prototypes, LR.protonet_logits),
            (reference_prototypes, lambda q, p: T.neg(reference_sqdist(q, p))),
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


# -- the pool mapped once ahead of drawing, against the per-task path ----------


def fc_pool():
    return fc_pool_network(0)[1]


def conv_pool():
    return conv_pool_network(0)[1]


def network(layers, rng):
    net = L.Network(layers, split_index=len(layers))
    net.set_parameter_arrays([a + 0.1 * rng.standard_normal(a.shape) for a in net.parameter_arrays()])
    return net


def fc_mapped(rng):  # the whole network maps the pool: 360 x 16 elements
    return perturbed(fc_pool_network)[0]


def conv_mapped(rng):  # no batchnorm, 360 x 8 elements
    return network([L.init_conv(1, 2, 3, rng), L.relu(), L.maxpool(2), L.flatten(),
                    L.init_fully_connected(18, 8, rng)], rng)


def fc_then_batchnorm(rng):  # the first fc maps the pool, 360 x 16 elements
    return network([L.init_fully_connected(8, 16, rng), L.batchnorm(16), L.relu(),
                    L.init_fully_connected(16, 8, rng)], rng)


def conv_then_batchnorm(rng):  # the conv maps the pool: 360 x 144 elements
    return perturbed(conv_pool_network)[0]


def wide_conv_then_batchnorm(rng):  # the conv would map it into 360 x 1,152 elements
    return network([L.init_conv(1, 32, 3, rng), L.batchnorm(32), L.relu(), L.maxpool(2),
                    L.flatten(), L.init_fully_connected(288, 8, rng)], rng)


def batchnorm_first(rng):  # no layer before the batchnorm
    return network([L.batchnorm(8), L.init_fully_connected(8, 16, rng)], rng)


def wide_output(rng):  # no batchnorm, 360 x 64 elements
    return network([L.init_fully_connected(8, 32, rng), L.relu(),
                    L.init_fully_connected(32, 64, rng)], rng)


def wider_output(rng):  # no batchnorm, but 360 x 1,024 elements
    return network([L.init_fully_connected(8, 32, rng), L.relu(),
                    L.init_fully_connected(32, 1024, rng)], rng)


class TestMappedPool:
    """``evaluate`` maps the pool once when the layers before the first
    batchnorm fit it into ``_MAPPED_ELEMENTS``; every task scores as the
    per-task loop scores it, on either path."""

    @pytest.mark.parametrize("make,pool,mapped_layers,distances", [
        pytest.param(make, pool, k, distances, id=make.__name__)
        for make, pool, k, distances in [
            (fc_mapped, fc_pool, 3, LR.DISTANCES),
            (conv_mapped, conv_pool, 5, ("sqeuclidean",)),
            (fc_then_batchnorm, fc_pool, 1, ("sqeuclidean",)),
            (conv_then_batchnorm, conv_pool, 1, ("sqeuclidean",)),
            (wide_conv_then_batchnorm, conv_pool, 0, ("sqeuclidean",)),
            (batchnorm_first, fc_pool, 0, ("sqeuclidean",)),
            (wide_output, fc_pool, 3, ("sqeuclidean",)),
            (wider_output, fc_pool, 0, ("sqeuclidean",)),
        ]
    ])
    def test_equal_to_per_task_loop(self, make, pool, mapped_layers, distances, monkeypatch):
        net, ds, n = make(np.random.default_rng(2)), pool(), 60
        mapped_ds, layers = LR.mapped_pool(net, ds)
        assert len(layers) == len(net.layers) - mapped_layers
        assert (mapped_ds is ds) == (mapped_layers == 0)
        k = L.first_batchnorm(net.layers)
        if mapped_layers:
            assert mapped_ds.pool.size <= LR._MAPPED_ELEMENTS
            assert (mapped_ds.counts, mapped_ds.class_ids) == (ds.counts, ds.class_ids)
        elif k:  # a fallback case: the layers before the batchnorm would exceed the bound
            assert L.forward(net.layers[:k], ds.pool).size > LR._MAPPED_ELEMENTS
        inputs = []
        forward = LR.forward
        monkeypatch.setattr(LR, "forward", lambda layers, x: inputs.append(x) or forward(layers, x))
        for distance in distances:
            ref = [reference_accuracy(net, task, distance) for task in draw(ds, n)]
            assert len(set(ref)) > 1
            accs = LR.protonet_task_accuracies(net, task_draw(ds, n), distance)
            np.testing.assert_array_equal(accs, ref)
            inputs.clear()
            mean, ci = H.evaluate(net, "protonet", ds, SPEC, n, ENTROPY, distance=distance)
            assert (mean, ci) == (float(np.mean(ref)), float(1.96 * np.std(ref, ddof=1) / np.sqrt(n)))
            # the whole pool runs through the network once, and only when it fits
            assert sum(x is ds.pool for x in inputs) == (mapped_layers > 0)

    @pytest.mark.parametrize("make,pool", [
        pytest.param(make, pool, id=make.__name__)
        for make, pool in [(fc_mapped, fc_pool), (fc_then_batchnorm, fc_pool),
                           (conv_then_batchnorm, conv_pool)]
    ])
    def test_mapped_chunk_holds_as_many_tasks_as_unmapped(self, make, pool, monkeypatch):
        net, ds = make(np.random.default_rng(2)), pool()
        mapped_ds, _ = LR.mapped_pool(net, ds)
        unmapped = chunk_size(draw(ds, 1)[0])
        # a mapped row is larger, so counted at its own size a chunk would hold fewer tasks
        assert mapped_ds.pool[0].size > ds.pool[0].size
        assert chunk_size(draw(mapped_ds, 1)[0]) < unmapped
        sizes = []
        batches = LR.TaskDraw.batches
        monkeypatch.setattr(LR.TaskDraw, "batches", lambda tasks, *args: (
            sizes.append(len(batch.query_x)) or batch for batch in batches(tasks, *args)))
        H.evaluate(net, "protonet", ds, SPEC, N_TASKS, ENTROPY)
        full, rest = divmod(N_TASKS, unmapped)
        assert sizes == [unmapped] * full + [rest] * (rest > 0)

    @pytest.mark.parametrize("make,shape", [
        pytest.param(make, shape, id=make.__name__)
        for make, shape in [(fc_mapped, (6,)), (conv_mapped, (1, 5, 5)),
                            (conv_then_batchnorm, (2, 8, 8)),
                            (wide_conv_then_batchnorm, (2, 8, 8))]
    ])
    def test_transfer_pool_of_another_shape_rejected(self, make, shape):
        net = make(np.random.default_rng(2))
        ds = synth_dataset(6, 10, shape, 2.0, 1.0, seed=3, role="test")
        with pytest.raises(ValueError):
            H.evaluate(net, "protonet", ds, SPEC, 4, ENTROPY)


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
