"""Tasks drawn a block at a time (``episodes.draw_task_rows``) and gathered
a chunk at a time (``learners.TaskDraw``), against ``sample_task``, which
draws them one at a time; evaluation on them, against the per-task loop;
and a training step's draw (``harness._draw_tasks``), against
``sample_task`` and ``TaskBatch.stack``."""

import numpy as np
import pytest

from fewshot_ibp import episodes as E
from fewshot_ibp import harness as H
from fewshot_ibp import interpolation as I
from fewshot_ibp import learners as LR
from fewshot_ibp.config import OBJECTIVES, RunConfig
from test_task_chunks import (
    ENTROPY,
    SPEC,
    conv_pool,
    conv_then_batchnorm,
    draw,
    fc_pool,
    perturbed,
    reference_accuracy,
    wide_conv_then_batchnorm,
)
from test_learners import fc_pool_network


def state(rng) -> str:
    return repr(rng.bit_generator.state)


def uneven_dataset():
    """Six classes of 5 to 12 instances, with ids that are not 0..5."""
    rng = np.random.default_rng(9)
    counts = (5, 9, 7, 12, 6, 8)
    pool = np.concatenate([rng.standard_normal((n, 3)) for n in counts])
    return E.Dataset(pool, counts, (7, 3, 40, 11, 0, 25))


def pcg(seeds):
    return [np.random.default_rng(np.random.SeedSequence((0, 202, s))) for s in seeds]


def mt(seeds):
    return [np.random.Generator(np.random.MT19937(s)) for s in seeds]


def assert_same_tasks(dataset, spec, make_rngs):
    """``draw_task_rows`` on one set of generators against ``sample_task``
    on an equal set: classes, rows, labels and generator states."""
    rngs, ref_rngs = make_rngs(), make_rngs()
    classes, rows = E.draw_task_rows(dataset, spec, rngs)
    need = spec.shots + spec.query_shots
    assert classes.shape == (len(rngs), spec.ways)
    assert rows.shape == (len(rngs), spec.ways, need)
    batch = LR.TaskBatch.gather(dataset, spec, rows)
    for t, rng in enumerate(ref_rngs):
        task = E.sample_task(dataset, spec, rng)
        assert [dataset.class_ids[c] for c in classes[t].tolist()] == task.class_ids
        for name in ("support_x", "support_y", "query_x", "query_y"):
            got, want = getattr(batch, name)[t], getattr(task, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), (t, name)
    assert [state(r) for r in rngs] == [state(r) for r in ref_rngs]
    return len(rngs)


class TestDrawTaskRows:
    @pytest.mark.parametrize("make_dataset,spec,make_rngs,n", [
        pytest.param(fc_pool, E.TaskSpec(5, 1, 15), pcg, 600, id="fc-1-shot-pcg"),
        pytest.param(fc_pool, E.TaskSpec(5, 5, 15), mt, 300, id="fc-5-shot-mt"),
        pytest.param(conv_pool, E.TaskSpec(5, 1, 15), mt, 300, id="conv-1-shot-mt"),
        pytest.param(fc_pool, E.TaskSpec(12, 5, 10), pcg, 200, id="ways-equal-classes-pcg"),
        pytest.param(fc_pool, E.TaskSpec(12, 5, 25), mt, 200, id="count-equals-need-mt"),
        pytest.param(uneven_dataset, E.TaskSpec(3, 2, 3), pcg, 300, id="uneven-pcg"),
        pytest.param(uneven_dataset, E.TaskSpec(6, 2, 3), mt, 300, id="uneven-every-class-mt"),
    ])
    def test_equal_to_sample_task(self, make_dataset, spec, make_rngs, n):
        # 2,200 tasks in all; a class of 5 instances in the uneven pool, and
        # every class of the fc pool at 5 + 25, is exactly K+Q
        assert_same_tasks(make_dataset(), spec, lambda: make_rngs(range(n)))

    def test_generators_left_mid_word(self):
        # PCG64 hands out 32-bit words in halves of 64: an odd start keeps one
        def rngs():
            out = pcg(range(50))
            for i, rng in enumerate(out):
                rng.integers(0, 2**32, size=i % 3, dtype=np.uint32)
            return out

        assert_same_tasks(fc_pool(), SPEC, rngs)

    def test_tail_shuffle_falls_back_to_sample_task(self, monkeypatch):
        # numpy shuffles the tail of a full range for more than 10,000 items
        # and a sample above 1/50 of them: 250 > 10,001 // 50
        rng = np.random.default_rng(0)
        counts = (10_001, 300, 300)
        ds = E.Dataset(rng.standard_normal((sum(counts), 1)), counts, (0, 1, 2))
        spec = E.TaskSpec(2, 100, 150)
        assert E._tail_shuffled(counts[0], spec.shots + spec.query_shots)
        calls = []
        task_rows = E._task_rows
        monkeypatch.setattr(E, "_task_rows", lambda *args: calls.append(1) or task_rows(*args))
        n = assert_same_tasks(ds, spec, lambda: pcg(range(30)) + mt(range(10)))
        assert len(calls) == 2 * n  # each drawer task, then each sample_task

    def test_no_generators(self):
        classes, rows = E.draw_task_rows(fc_pool(), SPEC, [])
        assert classes.shape == (0, SPEC.ways) and rows.shape == (0, SPEC.ways, 16)

    def test_no_generators_resolve_no_slots(self, monkeypatch):
        calls = []
        resolved = E._resolved
        monkeypatch.setattr(E, "_resolved", lambda *args: calls.append(1) or resolved(*args))
        classes, rows = E.draw_task_rows(fc_pool(), SPEC, [])
        assert (classes.dtype, rows.dtype) == (np.int32, np.int32) and calls == []
        # one block of 30 tasks, then the empty block that ends the draw
        batches = LR.TaskDraw(fc_pool(), SPEC, pcg(range(30))).batches(7)
        assert sum(len(batch.query_x) for batch in batches) == 30
        assert len(calls) == 2  # the block's classes and its instances

    def test_supply_checked(self):
        with pytest.raises(ValueError, match="tasks need 13"):
            E.draw_task_rows(fc_pool(), E.TaskSpec(13, 1, 1), pcg(range(2)))
        with pytest.raises(ValueError, match="tasks need 40"):
            E.draw_task_rows(fc_pool(), E.TaskSpec(2, 20, 20), pcg(range(2)))


class CountingGenerator:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("make_dataset,spec,calls", [
    pytest.param(fc_pool, E.TaskSpec(5, 1, 15), 1, id="fc"),
    pytest.param(fc_pool, E.TaskSpec(12, 5, 10), 1, id="ways-equal-classes"),
    # a class of exactly K+Q instances: the instance words depend on the classes
    pytest.param(uneven_dataset, E.TaskSpec(3, 2, 3), 2, id="uneven"),
    pytest.param(fc_pool, E.TaskSpec(12, 5, 25), 2, id="count-equals-need"),
])
def test_integers_calls_per_stream(make_dataset, spec, calls):
    stubs = [CountingGenerator(rng) for rng in pcg(range(200))]
    E.draw_task_rows(make_dataset(), spec, stubs)
    assert [stub.calls for stub in stubs] == [calls] * 200


# -- the rejection path, on words chosen to reject ----------------------------


class WordStub:
    """A generator that hands out fixed 32-bit words, as
    ``integers(0, 2**32, size=k, dtype=np.uint32)`` hands out raw words."""

    def __init__(self, words):
        self.words, self.used = list(words), 0

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        out = np.array(self.words[self.used : self.used + size], dtype=np.uint32)
        assert len(out) == size, "stub ran out of words"
        self.used += size
        return out


def sequential_choice(next_word, items, size):
    """``Generator.choice(items, size, replace=False)`` one draw at a time:
    Floyd's algorithm, then a Fisher-Yates shuffle, each draw below a bound
    by Lemire's method, a bound of 1 taking no word."""

    def below(bound):
        if bound == 1:
            return 0
        while True:
            m = next_word() * bound
            if m % 2**32 >= 2**32 % bound:
                return m // 2**32

    out = []
    for j in range(items - size, items):
        value = below(j + 1)
        out.append(j if value in out else value)
    for i in range(size - 1, 0, -1):
        t = below(i + 1)
        out[i], out[t] = out[t], out[i]
    return out


def sequential_task(dataset, spec, words):
    """The classes and rows of one task drawn from ``words`` in order, and
    the number of words it takes."""
    it = iter(words)
    used = []

    def next_word():
        used.append(1)
        return int(next(it))

    classes = sequential_choice(next_word, dataset.n_classes, spec.ways)
    need = spec.shots + spec.query_shots
    rows = [
        [int(dataset.offsets[c]) + r for r in sequential_choice(next_word, dataset.counts[c], need)]
        for c in classes
    ]
    return classes, rows, len(used)


class TestRejection:
    @pytest.mark.parametrize("make_dataset,spec", [
        pytest.param(fc_pool, E.TaskSpec(5, 1, 15), id="fc"),
        pytest.param(uneven_dataset, E.TaskSpec(3, 2, 3), id="uneven"),
        pytest.param(fc_pool, E.TaskSpec(12, 5, 25), id="count-equals-need"),
    ])
    def test_zero_words_equal_sequential_reference(self, make_dataset, spec):
        ds = make_dataset()
        rng = np.random.default_rng(5)
        streams = []
        for s in range(24):
            words = rng.integers(1, 2**32, size=2_000).tolist()
            # zeros among the first 60 words, in the class words and the
            # instance words; none in every fourth stream
            if s % 4:
                for at in rng.choice(60, size=s % 7 + 1, replace=False).tolist():
                    words[at] = 0
            streams.append(words)
        stubs = [WordStub(words) for words in streams]
        classes, rows = E.draw_task_rows(ds, spec, stubs)
        rejected = 0
        for t, words in enumerate(streams):
            want_classes, want_rows, used = sequential_task(ds, spec, words)
            assert classes[t].tolist() == want_classes
            assert rows[t].tolist() == want_rows
            assert stubs[t].used == used
            need = spec.shots + spec.query_shots
            # the words the task takes when none is rejected
            plain = 2 * spec.ways - 1 - (ds.n_classes == spec.ways) + sum(
                2 * need - 1 - (ds.counts[c] == need) for c in want_classes
            )
            rejected += used > plain
        assert rejected >= 6  # the replay path ran, in more than one stream


# -- chunks gathered from blocks ------------------------------------------------


class TestTaskDraw:
    @pytest.mark.parametrize("size", [1, 7, 27, 204, 205, 500])
    def test_batches_equal_stacked_sample_tasks(self, size, monkeypatch):
        ds, n = fc_pool(), 450  # size 27: blocks of 189, 189 and 72 tasks
        tasks = draw(ds, n)
        blocks = []  # the generators of each draw_task_rows call
        real = LR.draw_task_rows
        monkeypatch.setattr(LR, "draw_task_rows",
                            lambda d, s, rngs: real(d, s, blocks.append(list(rngs)) or blocks[-1]))
        sizes = []
        got = LR.TaskDraw(ds, SPEC, pcg(range(n))).batches(size, classes=5)
        for batch in got:
            done = sum(sizes)
            want = LR.TaskBatch.stack(tasks[done : done + len(batch.query_x)], 5)
            for name in LR.TaskBatch._fields:
                a, b = np.asarray(getattr(batch, name)), np.asarray(getattr(want, name))
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), name
            sizes.append(len(batch.query_x))
        full, rest = divmod(n, size)
        assert sizes == [size] * full + [rest] * (rest > 0)
        # whole chunks: every block but the last drawn one (then the empty one)
        drawn = [len(block) for block in blocks]
        assert all(k % size == 0 for k in drawn[:-2]) and drawn[-1] == 0
        per_block = size * max(1, LR._CHUNK_ELEMENTS // (size * SPEC.ways * 16))
        full, rest = divmod(n, per_block)
        assert drawn == [per_block] * full + [rest] * (rest > 0) + [0]

    def test_blocks_are_drawn_as_needed(self):
        taken = []

        def rngs():
            for rng in pcg(range(600)):
                taken.append(rng)
                yield rng

        batches = LR.TaskDraw(fc_pool(), SPEC, rngs()).batches(27)
        next(batches)
        assert len(taken) == 27 * (LR._CHUNK_ELEMENTS // (27 * SPEC.ways * 16)) == 189
        assert sum(len(b.query_x) for b in batches) == 600 - 27

    def test_no_tasks(self):
        assert list(LR.TaskDraw(fc_pool(), SPEC, []).batches(5)) == []


# -- evaluate, task by task, against the per-task loop --------------------------


def evaluated_accuracies(monkeypatch, learner, *args, **kwargs):
    """The per-task accuracies ``evaluate`` computes, and its result."""
    name = f"{learner}_task_accuracies"
    seen = []
    real = getattr(H, name)
    monkeypatch.setattr(H, name, lambda *a, **k: seen.append(real(*a, **k)) or seen[-1])
    result = H.evaluate(*args, **kwargs)
    monkeypatch.undo()
    return seen[0], result


N_EVAL = 240  # two blocks, and a scoring chunk across them on the fc pool


@pytest.mark.parametrize("make,pool,mapped", [
    pytest.param(lambda rng: perturbed(fc_pool_network)[0], fc_pool, True, id="fc-mapped"),
    pytest.param(conv_then_batchnorm, conv_pool, True, id="conv-mapped"),
    pytest.param(wide_conv_then_batchnorm, conv_pool, False, id="wide-conv-unmapped"),
])
def test_protonet_evaluate_per_task_equals_sample_task_loop(monkeypatch, make, pool, mapped):
    net, ds = make(np.random.default_rng(2)), pool()
    assert (LR.mapped_pool(net, ds)[0] is not ds) == mapped
    ref = [reference_accuracy(net, task, "sqeuclidean") for task in draw(ds, N_EVAL)]
    accs, (mean, _) = evaluated_accuracies(
        monkeypatch, "protonet", net, "protonet", ds, SPEC, N_EVAL, ENTROPY
    )
    assert len(set(ref)) > 1
    assert accs.tobytes() == np.array(ref).tobytes()
    assert mean == float(np.mean(ref))


@pytest.mark.parametrize("make,pool", [
    pytest.param(lambda rng: perturbed(fc_pool_network)[0], fc_pool, id="fc"),
    pytest.param(conv_then_batchnorm, conv_pool, id="conv"),
])
def test_maml_evaluate_per_task_equals_sample_task_loop(monkeypatch, make, pool):
    net, ds = make(np.random.default_rng(2)), pool()
    n, steps, lr = 240, 3, 0.1  # fc adaptation chunks of 90, two to a block of 180
    ref = [
        LR.predict_accuracy("maml", net, task, eval_steps=steps, inner_lr=lr)
        for task in draw(ds, n)
    ]
    accs, (mean, _) = evaluated_accuracies(
        monkeypatch, "maml", net, "maml", ds, SPEC, n, ENTROPY, eval_inner_steps=steps, inner_lr=lr
    )
    assert len(set(ref)) > 1
    assert accs.tobytes() == np.array(ref).tobytes()
    assert mean == float(np.mean(ref))


def test_box_width_equals_sample_task_loop():
    net, ds = perturbed(fc_pool_network)
    widths = []
    for task in draw(ds, 30, SPEC, (0,)):
        box = H.propagate_prefix(net, task.query_x, 0.1).values().box
        widths.append(float(np.mean(box.upper - box.lower)))
    assert H.mean_box_width(net, ds, SPEC, 0.1, n_tasks=30) == float(np.mean(widths))


# -- a training step's draw, against sample_task and TaskBatch.stack ------------


def reference_draw_tasks(learner, n_tasks, dataset, config, sample_rng, interp_rng, classes):
    """A training step's draw as it was made before training gathered pool
    rows: ``sample_task`` for each task and each fired task's pair, the
    batch stacked by ``TaskBatch.stack`` and the pair sets stacked from the
    tasks, a fired task's pair in its place."""
    spec = config.train_spec()
    tasks = [E.sample_task(dataset, spec, sample_rng) for _ in range(n_tasks)]
    batch = LR.TaskBatch.stack(tasks, classes)
    if config.objective not in I.MODES:
        return batch, None
    fired = I.should_interpolate(learner, n_tasks, interp_rng, config.interp_probability)
    if not fired.any():
        return batch, None
    ways = tasks[0].ways
    lam = np.zeros((2, n_tasks, ways))
    nu = np.zeros((2, n_tasks, ways), dtype=int)
    mixup = config.objective not in I.BOUND_MODES
    pair_support_x = np.array([task.support_x for task in tasks]) if mixup else None
    pair_query_x = np.array([task.query_x for task in tasks]) if mixup else None
    for t in np.flatnonzero(fired):
        drawn = [I.sample_mix(ways, config.alpha, config.beta, interp_rng)]
        if not config.shared_mix_coeffs:
            drawn.append(I.sample_mix(ways, config.alpha, config.beta, interp_rng))
        lam[:, t], nu[:, t] = [c.lam for c in drawn], [c.nu for c in drawn]
        if mixup:
            pair = E.sample_task(dataset, spec, sample_rng)
            pair_support_x[t], pair_query_x[t] = pair.support_x, pair.query_x
    coeffs = I.MixCoefficients(lam[0], nu[0]), I.MixCoefficients(lam[1], nu[1])
    return batch, H._TaskMix(
        *coeffs, pair_support_x, pair_query_x, np.where(fired[:, None], 0.5, np.array([1.0, 0.0])),
        coeffs[0].rows(np.array([task.support_y for task in tasks])),
        coeffs[1].rows(np.array([task.query_y for task in tasks])),
    )


def leaves(value):
    """The arrays (or None) of a task batch or a mix, in field order."""
    if isinstance(value, I.MixCoefficients):
        return [value.lam, value.nu]
    if isinstance(value, tuple):
        return [leaf for field in value for leaf in leaves(field)]
    return [value]


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("learner,n_tasks", [("protonet", 1), ("maml", 4)])
def test_training_draw_equals_sample_task_and_stack(learner, n_tasks, objective, shared):
    net, ds = fc_pool_network(0)
    cfg = RunConfig(
        learner=learner, objective=objective, layers=[{"kind": "relu"}] * len(net.layers),
        split_index=net.split_index, meta_batch=n_tasks, shared_mix_coeffs=shared,
        interp_probability=0.5,  # some steps interpolate and some do not
    )
    classes = None if learner == "protonet" else LR._classes(net)  # as each step draws
    rngs = [np.random.default_rng(9), np.random.default_rng(10)]
    ref_rngs = [np.random.default_rng(9), np.random.default_rng(10)]
    mixed = []
    for _ in range(8):
        batch, mix = H._draw_tasks(learner, n_tasks, ds, cfg, *rngs, classes)
        want, want_mix = reference_draw_tasks(learner, n_tasks, ds, cfg, *ref_rngs, classes)
        assert batch.ways == want.ways == cfg.train_ways
        assert (mix is None) == (want_mix is None)
        mixed.append(mix is not None)
        for got, ref in zip(leaves(batch[:-1]) + leaves(mix), leaves(want[:-1]) + leaves(want_mix)):
            if ref is None:
                assert got is None
                continue
            got, ref = np.asarray(got), np.asarray(ref)
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.tobytes() == ref.tobytes()
    assert [state(r) for r in rngs] == [state(r) for r in ref_rngs]
    if objective in I.MODES:  # steps with and without a mix were compared
        assert any(mixed) and not all(mixed)


# -- task sizes must be integers ------------------------------------------------


class TestIntegerSizes:
    @pytest.mark.parametrize("args,field", [
        ((5.0, 1, 15), "ways"),
        ((2, True, 1), "shots"),
        ((2, 1, 1.5), "query_shots"),
        ((2, 1, "3"), "query_shots"),
    ])
    def test_task_spec_rejects_non_integers(self, args, field):
        with pytest.raises(ValueError, match=f"task spec {field} must be an integer"):
            E.TaskSpec(*args)

    def test_task_spec_keeps_numpy_integers_as_ints(self):
        spec = E.TaskSpec(np.int64(5), np.int32(1), 15)
        assert spec == E.TaskSpec(5, 1, 15)
        assert all(type(v) is int for v in (spec.ways, spec.shots, spec.query_shots))

    @pytest.mark.parametrize("n_tasks", [True, 2.5, 3.0])
    def test_task_counts_rejected(self, n_tasks):
        net, ds = perturbed(fc_pool_network)
        calls = [
            lambda: H.evaluate(net, "protonet", ds, SPEC, n_tasks, ENTROPY),
            lambda: H.evaluate(net, "maml", ds, SPEC, n_tasks, ENTROPY),
            lambda: H.compactness(net, ds, SPEC, n_tasks=n_tasks),
            lambda: H.mean_box_width(net, ds, SPEC, 0.1, n_tasks=n_tasks),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="n_tasks must be an integer"):
                call()

    @pytest.mark.parametrize("steps", [True, 2.5])
    def test_inner_steps_rejected(self, steps):
        net, ds = perturbed(fc_pool_network)
        with pytest.raises(ValueError, match="steps must be an integer"):
            H.evaluate(net, "maml", ds, SPEC, 2, ENTROPY, eval_inner_steps=steps)
        params = [dict(layer.param_items()) for layer in net.layers]
        with pytest.raises(ValueError, match="steps must be an integer"):
            LR.maml_adapt(lambda p: 0.0, params, 0.1, steps)

    def test_numpy_integer_inner_steps_accepted(self):
        net, ds = perturbed(fc_pool_network)
        args = net, "maml", ds, SPEC, 2, ENTROPY
        want = H.evaluate(*args, eval_inner_steps=2)
        assert H.evaluate(*args, eval_inner_steps=np.int64(2)) == want

    def test_queries_per_task_rejected(self):
        net, ds = perturbed(fc_pool_network)
        with pytest.raises(ValueError, match="queries_per_task must be an integer"):
            H.compactness(net, ds, SPEC, n_tasks=2, queries_per_task=50.0)
