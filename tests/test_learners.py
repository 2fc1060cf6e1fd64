"""Prototype classification, cross-entropy, and meta-learner adaptation."""

import gc
import math
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewshot_ibp import bounds as B
from fewshot_ibp import harness as H
from fewshot_ibp import interpolation as I
from fewshot_ibp import layers as L
from fewshot_ibp import learners as LR
from fewshot_ibp import objective as O
from fewshot_ibp import tensor as T
from fewshot_ibp.config import RunConfig
from fewshot_ibp.episodes import Task, TaskSpec, sample_task, synth_dataset
from fewshot_ibp.optim import adam, optimizer_step
from test_tensor import fd_gradient, randomize_biases


class TestPrototypes:
    def test_one_shot_prototype_is_the_embedding(self):
        emb = np.array([[1.0, 2.0], [3.0, 4.0]])
        protos = LR.compute_prototypes(emb, np.array([0, 1]), 2)
        np.testing.assert_array_equal(protos, emb)

    def test_mean_of_class_embeddings(self):
        emb = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0]])
        protos = LR.compute_prototypes(emb, np.array([0, 0, 1]), 2)
        np.testing.assert_array_equal(protos[0], [1.0, 1.0])
        np.testing.assert_array_equal(protos[1], [5.0, 5.0])

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            LR.compute_prototypes(np.ones((2, 2)), np.array([0, 1]), 5)


def arrays(params):
    """Values of adapted parameters, in canonical order."""
    return [T.value_of(p) for p in L.param_nodes_to_list(params)]


def class_probs(scores):
    """Softmax rows read off cross-entropy: p(k) = exp(-CE(row, k))."""
    scores = np.asarray(scores)
    return np.array(
        [
            [math.exp(-T.value_of(LR.cross_entropy(row[None], np.array([k]))))
             for k in range(row.shape[0])]
            for row in scores
        ]
    )


class TestProtonetProbs:
    """Class probabilities of the prototype classifier, from its logits."""

    def test_equidistant_gives_uniform(self):
        protos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        logits = T.value_of(LR.protonet_logits(np.zeros((1, 2)), protos))
        np.testing.assert_array_equal(logits, -1.0)
        np.testing.assert_allclose(class_probs(logits), 0.25)

    def test_extreme_distance_gap(self):
        # distances (0, 100): p ~= (1/(1+e^-100), e^-100/(1+e^-100))
        query = np.zeros((1, 1))
        protos = np.array([[0.0], [10.0]])  # squared distances 0 and 100
        logits = T.value_of(LR.protonet_logits(query, protos))
        np.testing.assert_array_equal(logits, [[0.0, -100.0]])
        probs = class_probs(logits)
        expected0 = 1.0 / (1.0 + math.exp(-100.0))
        assert probs[0, 0] == pytest.approx(expected0, rel=1e-12)
        assert probs[0, 1] == pytest.approx(math.exp(-100.0), rel=1e-6)

    @given(
        emb=hnp.arrays(
            np.float64,
            (3, 4),
            elements=st.floats(min_value=-50, max_value=50),
        ),
        protos=hnp.arrays(
            np.float64,
            (5, 4),
            elements=st.floats(min_value=-50, max_value=50),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, emb, protos):
        probs = class_probs(T.value_of(LR.protonet_logits(emb, protos)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance_of_distance_softmax(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0, 5, size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        base = T.value_of(LR.cross_entropy(-d, labels))
        for c in (-2.0, 0.5, 100.0):
            shifted = T.value_of(LR.cross_entropy(-(d + c), labels))
            assert shifted == pytest.approx(base, abs=1e-12)

    def test_argmax_is_nearest_prototype(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            emb = rng.standard_normal((6, 3))
            protos = rng.standard_normal((4, 3))
            logits = T.value_of(LR.protonet_logits(emb, protos))
            d = ((emb[:, None, :] - protos[None, :, :]) ** 2).sum(-1)
            np.testing.assert_array_equal(np.argmax(logits, 1), np.argmin(d, 1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LR.protonet_logits(np.zeros((1, 3)), np.zeros((2, 4)))

    def test_euclidean_distance_flag(self):
        query = np.array([[0.0, 0.0]])
        protos = np.array([[3.0, 4.0], [0.0, 1.0]])  # distances 5 and 1
        logits = T.value_of(LR.protonet_logits(query, protos, distance="euclidean"))
        np.testing.assert_allclose(logits, [[-5.0, -1.0]])


class TestCrossEntropy:
    def test_uniform_five_class_is_log_five(self):
        loss = T.value_of(LR.cross_entropy(np.zeros((1, 5)), np.array([2])))
        assert loss == pytest.approx(math.log(5.0), rel=1e-12)

    def test_certain_correct_prediction_is_zero(self):
        logits = np.array([[-1000.0, 0.0, -1000.0]])
        loss = T.value_of(LR.cross_entropy(logits, np.array([1])))
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_batch_mean(self):
        logits = np.log(np.array([[0.5, 0.5], [0.25, 0.75]]))
        a = -math.log(0.5)
        b = -math.log(0.75)
        loss = T.value_of(LR.cross_entropy(logits, np.array([0, 1])))
        assert loss == pytest.approx((a + b) / 2, rel=1e-12)

    def test_logits_match_probability_path(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(4), labels]))
        loss = T.value_of(LR.cross_entropy(logits, labels))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            LR.cross_entropy(np.zeros((1, 3)), np.array([3]))

    # scores (3, 2) with labels (3,), and a task axis: (2, 3, 2) with (2, 3)
    @pytest.mark.parametrize("score_shape", [(3, 2), (2, 3, 2)])
    @pytest.mark.parametrize(
        "labels,dtype",
        [([0.0, 1.0, 1.0], "float64"), ([0.5, 1.0, 0.0], "float64"), ([False, True, True], "bool")],
    )
    def test_non_integer_labels_rejected_by_dtype(self, score_shape, labels, dtype):
        labels = np.broadcast_to(np.array(labels), score_shape[:-1])
        with pytest.raises(ValueError, match=f"labels must be integers, got dtype {dtype}"):
            LR.cross_entropy(np.zeros(score_shape), labels)

    @pytest.mark.parametrize("score_shape", [(3, 2), (2, 3, 2)])
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_range_labels_rejected_with_a_task_axis(self, score_shape, bad):
        labels = np.zeros(score_shape[:-1], dtype=int)
        labels[..., 1] = bad
        with pytest.raises(ValueError, match=r"labels outside 0\.\.1"):
            LR.cross_entropy(np.zeros(score_shape), labels)


def linear_model_inner_loss(x, y):
    """Inner objective (w*x - y)^2 for a single fully-connected weight."""

    def loss_fn(params):
        w = params[0]["weight"]
        r = T.sub(T.mul(w, x), y)
        return T.sum_(T.mul(r, r))

    return loss_fn


def support_cross_entropy(net, x, y):
    """Inner objective: cross-entropy of the network's outputs on (x, y)."""
    return lambda params: LR.cross_entropy(L.forward(net.layers, x, params=params), y)


def layer_arrays(net):
    """The network's own parameters, one dict of arrays per layer."""
    return [dict(layer.param_items()) for layer in net.layers]


def param_leaves(layers, tape) -> list[dict]:
    """One tape leaf per parameter, one dict per layer, as the training
    steps make them."""
    return [{name: tape.leaf(arr) for name, arr in layer.param_items()} for layer in layers]


def tiny_linear_network(w0):
    return L.Network(
        [L.fully_connected(np.array([[w0]]), np.zeros(1))], split_index=1
    )


class TestMamlAdapt:
    def test_zero_steps_or_zero_lr_is_identity(self):
        net = tiny_linear_network(1.0)
        for lr, steps in ((0.0, 3), (0.1, 0)):
            adapted = LR.maml_adapt(
                linear_model_inner_loss(1.0, 0.0), layer_arrays(net), lr, steps
            )
            assert T.value_of(adapted[0]["weight"])[0, 0] == 1.0

    def test_hand_computed_single_step(self):
        # loss (w*x - y)^2 at w=1, x=1, y=0: gradient 2, so w' = 1 - 0.1*2 = 0.8
        net = tiny_linear_network(1.0)
        adapted = LR.maml_adapt(linear_model_inner_loss(1.0, 0.0), layer_arrays(net), 0.1, 1)
        assert T.value_of(adapted[0]["weight"])[0, 0] == pytest.approx(0.8)

    @pytest.mark.parametrize("inner_lr", [-5.0, -1e-300, math.inf, -math.inf, math.nan])
    def test_bad_inner_lr_rejected(self, inner_lr):
        net = tiny_linear_network(1.0)
        with pytest.raises(ValueError, match="inner_lr"):
            LR.maml_adapt(linear_model_inner_loss(1.0, 0.0), layer_arrays(net), inner_lr, 1)

    def test_second_order_returns_nodes_of_the_same_tape(self):
        rng = np.random.default_rng(20)
        net = L.Network(
            [L.init_fully_connected(3, 4, rng), L.relu(), L.init_fully_connected(4, 2, rng)],
            split_index=2,
        )
        loss = support_cross_entropy(net, rng.standard_normal((6, 3)), rng.integers(0, 2, 6))
        with T.Tape() as tape:
            theta = param_leaves(net.layers, tape)
            adapted = LR.maml_adapt(loss, theta, 0.1, 2)
            flat = L.param_nodes_to_list(adapted)
            assert len(flat) == 4
            assert all(isinstance(p, T.Node) and p.tape is tape for p in flat)
            assert not any(p is t for p, t in zip(flat, L.param_nodes_to_list(theta)))

    def test_step_composition(self):
        rng = np.random.default_rng(3)
        net = L.Network(
            [L.init_fully_connected(3, 4, rng), L.relu(), L.init_fully_connected(4, 2, rng)],
            split_index=2,
        )
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        loss = support_cross_entropy(net, x, y)
        once = LR.maml_adapt(loss, layer_arrays(net), 0.05, 4)
        first = LR.maml_adapt(loss, layer_arrays(net), 0.05, 2)
        second = LR.maml_adapt(loss, first, 0.05, 2)
        for a, b in zip(arrays(once), arrays(second)):
            np.testing.assert_array_equal(a, b)

    def test_first_order_outer_gradient_matches_finite_differences(self):
        # the outer gradient of the query loss at the adapted weight, treated
        # as a function of the initial weight through a detached update
        x_s, y_s = 1.3, 0.4
        x_q, y_q = -0.7, 0.9
        lr = 0.05
        inner_loss = linear_model_inner_loss(x_s, y_s)

        def query_loss_after_adapt(w0):
            adapted = LR.maml_adapt(inner_loss, layer_arrays(tiny_linear_network(w0)), lr, 1)
            w1 = T.value_of(adapted[0]["weight"])[0, 0]
            return (w1 * x_q - y_q) ** 2

        w0 = 1.1
        adapted = LR.maml_adapt(inner_loss, layer_arrays(tiny_linear_network(w0)), lr, 1)
        tape = T.Tape()
        phi = [{n: tape.leaf(a) for n, a in e.items()} for e in adapted]
        r = T.sub(T.mul(phi[0]["weight"], x_q), y_q)
        loss = T.sum_(T.mul(r, r))
        grads = tape.backward(loss, [phi[0]["weight"]])
        g_first_order = float(np.ravel(grads[phi[0]["weight"]])[0])
        # detached-update oracle: d/dphi only (the first-order reading)
        w1 = T.value_of(adapted[0]["weight"])[0, 0]
        expected = 2 * (w1 * x_q - y_q) * x_q
        assert g_first_order == pytest.approx(expected, rel=1e-12)
        # and it differs from the full derivative when the inner step matters
        h = 1e-6
        full = (query_loss_after_adapt(w0 + h) - query_loss_after_adapt(w0 - h)) / (2 * h)
        assert full == pytest.approx(g_first_order * (1 - 2 * lr * x_s * x_s), rel=1e-4)

    def test_second_order_matches_full_finite_differences(self):
        x_s, y_s = 1.3, 0.4
        x_q, y_q = -0.7, 0.9
        lr, w0 = 0.05, 1.1

        def query_loss_after_adapt(wv):
            w1 = wv - lr * 2 * x_s * (wv * x_s - y_s)
            return (w1 * x_q - y_q) ** 2

        net = tiny_linear_network(w0)
        tape = T.Tape()
        theta = param_leaves(net.layers, tape)
        adapted = LR.maml_adapt(linear_model_inner_loss(x_s, y_s), theta, lr, 1)
        r = T.sub(T.mul(adapted[0]["weight"], x_q), y_q)
        loss = T.sum_(T.mul(r, r))
        grads = tape.backward(loss, [theta[0]["weight"]])
        got = float(np.ravel(grads[theta[0]["weight"]])[0])
        h = 1e-6
        fd = (query_loss_after_adapt(w0 + h) - query_loss_after_adapt(w0 - h)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6)

    def test_three_second_order_steps_match_full_finite_differences(self):
        # each step's gradient depends on the previous update, so the outer
        # gradient runs through the gradients of every inner step
        x_s, y_s = 1.3, 0.4
        x_q, y_q = -0.7, 0.9
        lr, w0, steps = 0.05, 1.1, 3

        def query_loss_after_adapt(wv):
            for _ in range(steps):
                wv = wv - lr * 2 * x_s * (wv * x_s - y_s)
            return (wv * x_q - y_q) ** 2

        net = tiny_linear_network(w0)
        with T.Tape() as tape:
            theta = param_leaves(net.layers, tape)
            adapted = LR.maml_adapt(linear_model_inner_loss(x_s, y_s), theta, lr, steps)
            r = T.sub(T.mul(adapted[0]["weight"], x_q), y_q)
            grads = tape.backward(T.sum_(T.mul(r, r)), [theta[0]["weight"]])
        got = float(np.ravel(grads[theta[0]["weight"]])[0])
        h = 1e-6
        fd = (query_loss_after_adapt(w0 + h) - query_loss_after_adapt(w0 - h)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6)

    def test_second_order_conv_network_matches_finite_differences(self):
        # two exact inner steps on conv -> batchnorm -> relu -> maxpool ->
        # flatten -> fc; the outer gradient of the query loss runs through
        # both inner gradients, so through every spatial op's own vjp.
        # Batchnorm statistics are detached by design, so they are frozen
        # here: the loss is then the function the tape differentiates.
        rng = np.random.default_rng(4)
        net = L.Network(
            [
                L.init_conv(1, 2, 3, rng),
                L.batchnorm(2),
                L.relu(),
                L.maxpool(2),
                L.flatten(),
                L.init_fully_connected(8, 2, rng),
            ],
            split_index=5,
        )
        randomize_biases(net, rng)
        support_x, query_x = rng.standard_normal((2, 4, 1, 6, 6))
        support_y, query_y = np.array([0, 1, 0, 1]), np.array([1, 0, 0, 1])
        lr, steps = 0.3, 2
        stats = []
        L.forward(net.layers, support_x, stats_out=stats)

        def loss(params, x, y):
            return LR.cross_entropy(
                L.forward(net.layers, x, params=params, frozen_stats=stats), y
            )

        def inner_loss(params):
            return loss(params, support_x, support_y)

        def query_loss_after_adapt(flat):
            net.set_parameter_arrays(flat)
            adapted = LR.maml_adapt(inner_loss, layer_arrays(net), lr, steps)
            return float(loss(adapted, query_x, query_y))

        theta0 = net.parameter_arrays()
        with T.Tape() as tape:
            theta = param_leaves(net.layers, tape)
            adapted = LR.maml_adapt(inner_loss, theta, lr, steps)
            flat = L.param_nodes_to_list(theta)
            grads = tape.backward(loss(adapted, query_x, query_y), flat)
        for idx, node in enumerate(flat):
            fd = fd_gradient(query_loss_after_adapt, theta0, idx)
            assert np.max(np.abs(grads[node] - fd)) <= 1e-5 * max(np.max(np.abs(fd)), 1.0)

    def test_second_order_steps_move_like_first_order_steps(self):
        # the inner updates have the same values in both modes; only what the
        # outer gradient sees differs.  Steps 2..n used to apply zero
        # gradients, when Tape.backward dropped the adjoint of a parameter
        # that is itself an earlier update.
        rng = np.random.default_rng(21)
        net = L.Network(
            [L.init_fully_connected(3, 4, rng), L.relu(), L.init_fully_connected(4, 2, rng)],
            split_index=2,
        )
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        loss = support_cross_entropy(net, x, y)
        first = LR.maml_adapt(loss, layer_arrays(net), 0.5, 3)
        tape = T.Tape()
        second = LR.maml_adapt(loss, param_leaves(net.layers, tape), 0.5, 3)
        for a, b in zip(arrays(first), arrays(second)):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)


def batch_cross_entropy(net):
    """Per-task support cross-entropies of a stacked task batch."""

    def inner_loss(batch, params):
        logits = L.forward(net.layers, batch.support_x, params=params)
        return LR.cross_entropy(logits, batch.support_y)

    return inner_loss


class TestMamlOuterStep:
    def make_task(self, rng, dim=3, ways=2, shots=2, queries=3):
        ds = synth_dataset(4, 12, (dim,), 2.0, 0.5, seed=int(rng.integers(1e6)))
        return sample_task(ds, TaskSpec(ways, shots, queries), rng)

    def test_constant_loss_leaves_parameters_unchanged(self):
        rng = np.random.default_rng(5)
        net = L.Network([L.init_fully_connected(3, 2, rng)], split_index=1)
        before = [a.copy() for a in net.parameter_arrays()]

        def frozen_loss(batch, theta, phi):
            const = phi[0]["weight"].tape.leaf(np.ones(len(batch.query_y)))
            info = {"losses": (1.0, 0.0, 0.0), "weights": (1, 0, 0), "total": 1.0}
            return T.mul(const, 1.0), [info]

        batch = LR.TaskBatch.stack([self.make_task(rng)], LR._classes(net))
        LR.maml_outer_step(net, batch, batch_cross_entropy(net), frozen_loss, adam(0.01), 0.1, 1)
        for a, b in zip(before, net.parameter_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_batch_of_one_equals_single_task_step(self):
        rng = np.random.default_rng(6)
        task = self.make_task(rng)

        def run(batch):
            rng_net = np.random.default_rng(7)
            net = L.Network(
                [L.init_fully_connected(3, 4, rng_net), L.relu(), L.init_fully_connected(4, 2, rng_net)],
                split_index=2,
            )

            def task_loss(stacked, theta, phi):
                logits = L.forward(net.layers, stacked.query_x, params=phi)
                loss = LR.cross_entropy(logits, stacked.query_y)
                return loss, [{"total": float(v)} for v in T.value_of(loss)]

            LR.maml_outer_step(
                net, LR.TaskBatch.stack(batch, LR._classes(net)), batch_cross_entropy(net),
                task_loss, adam(0.01), 0.05, 2,
            )
            return net.parameter_arrays()

        # stacking and the mean of two equal gradients are both exact
        a = run([task])
        b = run([task, task])
        for x, y in zip(a, b, strict=True):
            assert x.tobytes() == y.tobytes()


class ReferenceContext(NamedTuple):
    """One fired task's coefficients and optional pair task."""

    coeffs: I.MixCoefficients
    query_coeffs: I.MixCoefficients
    pair_task: Task | None


def reference_draw(config, task, dataset, interp_rng, sample_rng):
    """The interpolation of one task that fired, drawn on its own in the
    harness's order: its support coefficients, its query coefficients (the
    same ones when shared), then for a mixup mode its pair task."""
    coeffs = I.sample_mix(task.ways, config.alpha, config.beta, interp_rng)
    query_coeffs = (
        coeffs
        if config.shared_mix_coeffs
        else I.sample_mix(task.ways, config.alpha, config.beta, interp_rng)
    )
    pair_task = None
    if config.objective not in I.BOUND_MODES:  # a mixup mode
        pair_task = sample_task(dataset, config.train_spec(), sample_rng)
    return ReferenceContext(coeffs, query_coeffs, pair_task)


def reference_maml_step(network, dataset, config, eps_t, sample_rng, interp_rng, opt_state):
    """The meta-step as a loop over tasks, each adapted and scored on its own
    tape with per-task closures: the semantics the batched step must keep."""
    b, s, mode = config.meta_batch, network.split_index, config.objective
    use_bounds = mode in H.BOUND_OBJECTIVES
    tasks = [sample_task(dataset, config.train_spec(), sample_rng) for _ in range(b)]
    contexts = [None] * b
    if mode in I.MODES:
        mask = I.should_interpolate("maml", b, interp_rng, config.interp_probability)
        contexts = [
            reference_draw(config, task, dataset, interp_rng, sample_rng) if fired else None
            for task, fired in zip(tasks, mask)
        ]
    arrays = network.parameter_arrays()
    total = [np.zeros_like(a) for a in arrays]
    infos = []
    for task, ctx in zip(tasks, contexts):
        def inner_loss(params):
            logits = L.forward(network.layers, task.support_x, params=params)
            l_ce = LR.cross_entropy(logits, task.support_y)
            if ctx is None:
                return l_ce
            h = I.make_interpolated_task(
                mode, network, task.support_x, task.support_y, ctx.coeffs, params[:s],
                eps_t, pair_x=getattr(ctx.pair_task, "support_x", None),
            )
            l_ce2 = LR.cross_entropy(L.forward(network.head, h, params=params[s:]), task.support_y)
            return T.mul(T.add(l_ce, l_ce2), 0.5)

        with T.Tape() as tape:
            theta = param_leaves(network.layers, tape)
            if config.first_order:
                adapted = LR.maml_adapt(
                    inner_loss, layer_arrays(network), config.inner_lr, config.inner_steps
                )
                phi = [{n: tape.leaf(a) for n, a in e.items()} for e in adapted]
            else:
                phi = LR.maml_adapt(inner_loss, theta, config.inner_lr, config.inner_steps)
            logits = L.forward(network.layers, task.query_x, params=phi)
            l_ce = LR.cross_entropy(logits, task.query_y)
            qres = None
            if use_bounds or (ctx is not None and mode in I.BOUND_MODES):
                bound_params = phi if config.bounds_on_adapted else theta
                qres = B.propagate_prefix(network, task.query_x, eps_t, params=bound_params[:s])
            if ctx is not None:
                h = I.make_interpolated_task(
                    mode, network, task.query_x, task.query_y, ctx.query_coeffs, phi[:s],
                    eps_t, bounds=qres, pair_x=getattr(ctx.pair_task, "query_x", None),
                )
                l_ce2 = LR.cross_entropy(L.forward(network.head, h, params=phi[s:]), task.query_y)
                l_ce = T.mul(T.add(l_ce, l_ce2), 0.5)
            if use_bounds:
                l_lb, l_ub = O.bound_losses(qres.center, qres.box)
            else:
                l_lb, l_ub = 0.0, 0.0
            losses = O.LossTriple(l_ce, l_lb, l_ub)
            weights = H._weights_for(config, losses)
            loss = O.total_loss(losses, weights)
            infos.append({
                "losses": losses.values(),
                "weights": weights.as_tuple(),
                "total": float(T.value_of(loss)),
            })
            theta_flat = L.param_nodes_to_list(theta)
            if config.first_order:
                phi_flat = L.param_nodes_to_list(phi)
                grads = tape.backward(loss, phi_flat + theta_flat)
                task_grads = [grads[p] + grads[t] for p, t in zip(phi_flat, theta_flat)]
            else:
                grads = tape.backward(loss, theta_flat)
                task_grads = [grads[t] for t in theta_flat]
        for i, g in enumerate(task_grads):
            total[i] += g
    new_arrays, opt_state = optimizer_step(arrays, [g * (1.0 / b) for g in total], opt_state)
    network.set_parameter_arrays(new_arrays)
    return infos, opt_state


def reference_protonet_loss(network, head_params, support_h, query_h, task, distance):
    support_emb = L.forward(network.head, support_h, params=head_params)
    query_emb = L.forward(network.head, query_h, params=head_params)
    protos = LR.compute_prototypes(support_emb, task.support_y, task.ways)
    return LR.cross_entropy(LR.protonet_logits(query_emb, protos, distance), task.query_y)


def reference_protonet_step(network, dataset, config, eps_t, sample_rng, interp_rng, opt_state):
    """The prototype step on one task without a task axis, as it was before
    it ran on the task axis: the semantics that step must keep bit for bit."""
    task = sample_task(dataset, config.train_spec(), sample_rng)
    mode = config.objective
    use_bounds = mode in H.BOUND_OBJECTIVES
    ctx = None
    if mode in I.MODES and I.should_interpolate(
        "protonet", 1, interp_rng, config.interp_probability
    )[0]:
        ctx = reference_draw(config, task, dataset, interp_rng, sample_rng)

    s = network.split_index
    with T.Tape() as tape:
        params = param_leaves(network.layers, tape)
        prefix_params, head_params = params[:s], params[s:]

        interp_boxes = ctx is not None and mode in I.BOUND_MODES
        qres = sres = None
        if use_bounds or interp_boxes:
            qres = B.propagate_prefix(network, task.query_x, eps_t, params=prefix_params)
            query_prefix = qres.center
        else:
            query_prefix = L.forward(network.prefix, task.query_x, params=prefix_params)
        if interp_boxes:
            sres = B.propagate_prefix(network, task.support_x, eps_t, params=prefix_params)
            support_prefix = sres.center
        else:
            support_prefix = L.forward(network.prefix, task.support_x, params=prefix_params)
        l_ce = reference_protonet_loss(
            network, head_params, support_prefix, query_prefix, task, config.distance
        )

        if ctx is not None:
            support_h = I.make_interpolated_task(
                mode, network, task.support_x, task.support_y, ctx.coeffs,
                prefix_params, eps_t, bounds=sres,
                pair_x=getattr(ctx.pair_task, "support_x", None),
            )
            query_h = I.make_interpolated_task(
                mode, network, task.query_x, task.query_y, ctx.query_coeffs,
                prefix_params, eps_t, bounds=qres,
                pair_x=getattr(ctx.pair_task, "query_x", None),
            )
            l_ce2 = reference_protonet_loss(
                network, head_params, support_h, query_h, task, config.distance
            )
            l_ce = T.mul(T.add(l_ce, l_ce2), 0.5)

        if use_bounds:
            l_lb, l_ub = O.bound_losses(qres.center, qres.box)
        else:
            l_lb, l_ub = 0.0, 0.0
        losses = O.LossTriple(l_ce, l_lb, l_ub)
        weights = H._weights_for(config, losses)
        total = O.total_loss(losses, weights)

        flat = L.param_nodes_to_list(params)
        grads = tape.backward(total, flat)
    new_arrays, opt_state = optimizer_step(
        network.parameter_arrays(), [grads[p] for p in flat], opt_state
    )
    network.set_parameter_arrays(new_arrays)
    columns = ("l_ce", "l_lb", "l_ub", "w_ce", "w_lb", "w_ub", "total")
    values = (*losses.values(), *weights.as_tuple(), float(T.value_of(total)))
    return dict(zip(columns, values, strict=True)), opt_state


OBJECTIVES = ("vanilla", "ibp", "ibpi", "ibpi_no_bound_loss", "mixup_input", "mixup_embedding")


class TestBatchedMetaStep:
    """The task-axis meta-step against the per-task reference loop."""

    @staticmethod
    def config(make, objective, first_order, flags):
        net, _ = make(0)
        return RunConfig(
            learner="maml",
            objective=objective,
            # a config needs a layer list; the step uses the network it is given
            layers=[{"kind": "relu"}] * len(net.layers),
            split_index=net.split_index,
            meta_batch=4,
            inner_lr=0.1,
            inner_steps=3,
            first_order=first_order,
            shared_mix_coeffs=flags,
            bounds_on_adapted=flags,
        )

    def check(self, make, objective, first_order, flags, monkeypatch, steps=3):
        cfg = self.config(make, objective, first_order, flags)
        batched, ds = make(0)
        reference, _ = make(0)
        seen = []
        outer_step = LR.maml_outer_step

        def spy(*args, **kwargs):
            seen.append(outer_step(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(H, "maml_outer_step", spy)
        rngs = [np.random.default_rng(9), np.random.default_rng(10)]
        ref_rngs = [np.random.default_rng(9), np.random.default_rng(10)]
        opt, ref_opt = adam(0.01), adam(0.01)
        for step in range(1, steps + 1):
            eps_t = 0.05 * step
            _, opt = H._maml_step(batched, ds, cfg, eps_t, *rngs, opt)
            ref_infos, ref_opt = reference_maml_step(reference, ds, cfg, eps_t, *ref_rngs, ref_opt)
            # one diagnostics column per task: three losses, three weights, total
            assert seen[-1].shape == (7, len(ref_infos)) and len(ref_infos) == cfg.meta_batch
            for column, ref in zip(seen[-1].T, ref_infos):
                np.testing.assert_allclose(column[:3], ref["losses"], rtol=0, atol=1e-12)
                np.testing.assert_allclose(column[3:6], ref["weights"], rtol=0, atol=1e-12)
                assert column[6] == pytest.approx(ref["total"], rel=0, abs=1e-12)
            for a, r in zip(batched.parameter_arrays(), reference.parameter_arrays()):
                np.testing.assert_allclose(a, r, rtol=0, atol=1e-12)
        # the step moved the parameters, so the comparison is not vacuous
        start, _ = make(0)
        assert any(
            not np.array_equal(a, r)
            for a, r in zip(start.parameter_arrays(), reference.parameter_arrays())
        )

    @pytest.mark.parametrize("flags", [True, False])
    @pytest.mark.parametrize("first_order", [True, False])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_fc_network_equals_per_task_loop(self, objective, first_order, flags, monkeypatch):
        self.check(fc_pool_network, objective, first_order, flags, monkeypatch)

    @pytest.mark.parametrize("flags", [True, False])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_conv_network_equals_per_task_loop(self, objective, flags, monkeypatch):
        self.check(conv_pool_network, objective, True, flags, monkeypatch, steps=2)

    @pytest.mark.parametrize("flags", [True, False])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_second_order_conv_network_equals_per_task_loop(self, objective, flags, monkeypatch):
        self.check(conv_pool_network, objective, False, flags, monkeypatch, steps=2)


class TestPredictAccuracy:
    def test_separable_clusters_are_perfect_for_protonet(self):
        ds = synth_dataset(6, 10, (4,), 20.0, 0.05, seed=8)
        rng = np.random.default_rng(9)
        net = L.Network([L.fully_connected(np.eye(4), np.zeros(4))], split_index=1)
        for _ in range(10):
            task = sample_task(ds, TaskSpec(3, 1, 4), rng)
            assert LR.predict_accuracy("protonet", net, task) == 1.0

    def test_permuted_labels_hit_chance_level(self):
        # binomial oracle: random guessing over 5 ways has mean accuracy 0.2
        ds = synth_dataset(8, 12, (4,), 3.0, 0.5, seed=10)
        rng = np.random.default_rng(11)
        net_rng = np.random.default_rng(12)
        net = L.Network([L.init_fully_connected(4, 4, net_rng)], split_index=1)
        accs = []
        for _ in range(1000):
            task = sample_task(ds, TaskSpec(5, 1, 3), rng)
            perm = rng.permutation(5)
            task.query_y = perm[task.query_y]
            accs.append(LR.predict_accuracy("protonet", net, task))
        assert abs(np.mean(accs) - 0.2) < 0.05

    @pytest.mark.parametrize("learner", ["protonet", "maml"])
    def test_empty_query_rejected(self, learner):
        net = L.Network([L.fully_connected(np.eye(2), np.zeros(2))], split_index=1)
        task = Task(
            support_x=np.zeros((2, 2)),
            support_y=np.array([0, 1]),
            query_x=np.zeros((0, 2)),
            query_y=np.zeros(0, dtype=int),
            class_ids=[0, 1],
        )
        with pytest.raises(ValueError, match="empty query set"):
            LR.predict_accuracy(learner, net, task)

    @pytest.mark.parametrize("learner", ["protonet", "maml"])
    def test_task_without_class_ids_scores_as_with_them(self, learner):
        # the ways come from the local labels; without ids a task had 0 ways,
        # and the prototype learner raised "labels outside 0..-1"
        rng = np.random.default_rng(16)
        net = L.Network([L.init_fully_connected(3, 2, rng)], split_index=1)
        sets = dict(
            support_x=rng.standard_normal((4, 3)), support_y=np.array([0, 0, 1, 1]),
            query_x=rng.standard_normal((4, 3)), query_y=np.array([0, 1, 0, 1]),
        )
        bare, named = Task(**sets), Task(**sets, class_ids=[7, 9])
        assert bare.ways == named.ways == 2
        kwargs = {"eval_steps": 3, "inner_lr": 0.1} if learner == "maml" else {}
        got = LR.predict_accuracy(learner, net, bare, **kwargs)
        assert got == LR.predict_accuracy(learner, net, named, **kwargs)

    @pytest.mark.parametrize("learner", ["protonet", "maml"])
    def test_argmax_ties_resolve_to_the_lowest_class(self, learner):
        # an exact tie between the true class and a higher one: the lowest
        # index scores 1.0, the last index would score 0.0
        if learner == "protonet":
            # prototypes 10, 1 and -1; the query at 0 is as far from 1 as from -1
            net = L.Network([L.fully_connected(np.eye(1), np.zeros(1))], split_index=1)
            support_x, query_y = np.array([[10.0], [1.0], [-1.0]]), np.array([1])
        else:
            # scores 0, 0 and -0 for the query at 0, unadapted
            net = L.Network([L.fully_connected(np.array([[0.0], [1.0], [-1.0]]), np.zeros(3))],
                            split_index=1)
            support_x, query_y = np.array([[1.0], [2.0], [3.0]]), np.array([0])
        task = Task(support_x, np.arange(3), np.zeros((1, 1)), query_y, class_ids=[0, 1, 2])
        assert LR.predict_accuracy(learner, net, task, eval_steps=0) == 1.0

    def test_maml_eval_fine_tunes_to_separable_task(self):
        ds = synth_dataset(4, 10, (3,), 10.0, 0.1, seed=13)
        rng = np.random.default_rng(14)
        net_rng = np.random.default_rng(15)
        net = L.Network(
            [L.init_fully_connected(3, 8, net_rng), L.relu(), L.init_fully_connected(8, 2, net_rng)],
            split_index=2,
        )
        accs = [
            LR.predict_accuracy(
                "maml", net, sample_task(ds, TaskSpec(2, 5, 5), rng),
                eval_steps=20, inner_lr=0.5,
            )
            for _ in range(5)
        ]
        assert np.mean(accs) > 0.8


# the acceptance pool and its network, and a small conv pool and network
FC_POOL = {"shape": [8], "class_separation": 3.0}
FC_LAYERS = [
    {"kind": "fully_connected", "in": 8, "out": 32},
    {"kind": "relu"},
    {"kind": "fully_connected", "in": 32, "out": 16},
]
CONV_POOL = {"shape": [1, 8, 8], "class_separation": 2.0}
CONV_LAYERS = [
    {"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel": 3},
    {"kind": "batchnorm", "channels": 4},
    {"kind": "relu"},
    {"kind": "maxpool2d", "window": 2},
    {"kind": "flatten"},
    {"kind": "fully_connected", "in": 36, "out": 5},
]


def fc_pool_network(seed):
    """The acceptance pool's network, fc 8->32, relu, fc 32->16, and pool."""
    net = L.build_network(FC_LAYERS, 2, np.random.default_rng(seed))
    return net, synth_dataset(12, 30, (8,), 3.0, 1.0, seed=13, role="test")


def conv_pool_network(seed):
    net = L.build_network(CONV_LAYERS, 4, np.random.default_rng(seed))
    return net, synth_dataset(12, 30, (1, 8, 8), 2.0, 1.0, seed=13, role="test")


class TestProtonetStep:
    """The prototype step, a batch of one task on the task axis, against the
    2-D reference step: diagnostics and parameters bit-equal."""

    @staticmethod
    def check(make, objective, probability, distance="sqeuclidean", steps=3):
        net, ds = make(0)
        reference, _ = make(0)
        cfg = RunConfig(
            learner="protonet",
            objective=objective,
            # a config needs a layer list; the step uses the network it is given
            layers=[{"kind": "relu"}] * len(net.layers),
            split_index=net.split_index,
            interp_probability=probability,
            shared_mix_coeffs=False,  # support and query draw their own coefficients
            distance=distance,
        )
        rngs = [np.random.default_rng(9), np.random.default_rng(10)]
        ref_rngs = [np.random.default_rng(9), np.random.default_rng(10)]
        opt, ref_opt = adam(0.01), adam(0.01)
        for step in range(1, steps + 1):
            eps_t = 0.05 * step
            info, opt = H._protonet_step(net, ds, cfg, eps_t, *rngs, opt)
            ref_info, ref_opt = reference_protonet_step(
                reference, ds, cfg, eps_t, *ref_rngs, ref_opt
            )
            assert info == ref_info
            for a, r in zip(net.parameter_arrays(), reference.parameter_arrays()):
                np.testing.assert_array_equal(a, r)
        # the steps moved the parameters, so the comparison is not vacuous
        start, _ = make(0)
        assert any(
            not np.array_equal(a, r)
            for a, r in zip(start.parameter_arrays(), net.parameter_arrays())
        )

    @pytest.mark.parametrize("probability", [1.0, 0.0])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("make", [fc_pool_network, conv_pool_network])
    def test_equals_two_dimensional_step(self, make, objective, probability):
        self.check(make, objective, probability)

    @pytest.mark.parametrize("objective", ["ibpi", "mixup_embedding"])
    def test_euclidean_distance_equals_two_dimensional_step(self, objective):
        self.check(fc_pool_network, objective, 1.0, distance="euclidean")


class TestTaskBatchedEvaluation:
    """Batched MAML evaluation against a per-task reference loop."""

    @pytest.mark.parametrize("make", [fc_pool_network, conv_pool_network])
    def test_batched_evaluate_equals_per_task_loop(self, make, monkeypatch):
        net, ds = make(0)
        arrays = net.parameter_arrays()
        rng = np.random.default_rng(1)
        # move batchnorm's scale and shift off (1, 0) so they are exercised
        net.set_parameter_arrays([a + 0.1 * rng.standard_normal(a.shape) for a in arrays])
        spec, n_tasks, entropy, steps, lr = TaskSpec(5, 1, 15), 24, (0, 202), 10, 0.1

        seen = {}
        adapt, task_accuracies = LR.maml_adapt, H.maml_task_accuracies

        def spy_adapt(*args, **kwargs):
            seen["adapted"] = adapt(*args, **kwargs)
            return seen["adapted"]

        def spy_accuracies(*args, **kwargs):
            seen["accs"] = task_accuracies(*args, **kwargs)
            return seen["accs"]

        monkeypatch.setattr(LR, "maml_adapt", spy_adapt)
        monkeypatch.setattr(H, "maml_task_accuracies", spy_accuracies)
        mean, _ = H.evaluate(
            net, "maml", ds, spec, n_tasks, entropy, eval_inner_steps=steps, inner_lr=lr
        )
        monkeypatch.undo()  # the reference loop below must not be recorded

        ref_accs = []
        for i in range(n_tasks):
            task = sample_task(ds, spec, np.random.default_rng(np.random.SeedSequence(entropy + (i,))))
            loss = support_cross_entropy(net, task.support_x, task.support_y)
            ref = LR.maml_adapt(loss, layer_arrays(net), lr, steps)
            for ref_entry, entry in zip(ref, seen["adapted"]):
                for name, arr in ref_entry.items():
                    np.testing.assert_allclose(entry[name][i], arr, rtol=0, atol=1e-12)
            scores = L.forward(net.layers, task.query_x, params=ref)
            ref_accs.append(float(np.mean(np.argmax(scores, axis=1) == task.query_y)))
            assert LR.predict_accuracy(
                "maml", net, task, eval_steps=steps, inner_lr=lr
            ) == ref_accs[-1]
        assert len(set(ref_accs)) > 1
        np.testing.assert_array_equal(seen["accs"], ref_accs)
        assert mean == float(np.mean(ref_accs))

    @pytest.mark.parametrize("make", [fc_pool_network, conv_pool_network])
    def test_queries_are_scored_in_chunks(self, make, monkeypatch):
        # one stack of every task's queries holds all their activations at
        # once: 262 MB against 94 for 240 tasks of the benchmark's conv network
        net, ds = make(0)
        spec, n_tasks = TaskSpec(5, 1, 15), 60
        task = sample_task(ds, spec, np.random.default_rng(0))
        chunk = LR._per_chunk(LR._CHUNK_ELEMENTS, task.query_x.size)
        stacks = []
        forward = LR.forward

        def spy(layers, x, **kwargs):
            if np.shape(x)[1] == task.query_x.shape[0]:
                stacks.append(np.shape(x)[0])
            return forward(layers, x, **kwargs)

        monkeypatch.setattr(LR, "forward", spy)
        H.evaluate(net, "maml", ds, spec, n_tasks, (0,), eval_inner_steps=2)
        assert sum(stacks) == n_tasks
        assert 1 < len(stacks) and max(stacks) <= chunk

    def test_cross_entropy_gives_per_task_means(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((3, 4, 5))
        labels = rng.integers(0, 5, size=(3, 4))
        per_task = [T.value_of(LR.cross_entropy(logits[t], labels[t])) for t in range(3)]
        np.testing.assert_array_equal(T.value_of(LR.cross_entropy(logits, labels)), per_task)
        with pytest.raises(ValueError):
            LR.cross_entropy(logits, labels[:, :3])


class TestTapeRelease:
    """Every tape the meta-learner records is freed by reference counting
    alone: with the cyclic collector off, none outlives the call."""

    @pytest.fixture
    def tapes(self, monkeypatch):
        made = []
        init = T.Tape.__init__

        def recording_init(tape):
            init(tape)
            made.append(weakref.ref(tape))

        monkeypatch.setattr(T.Tape, "__init__", recording_init)
        gc.collect()
        gc.disable()
        try:
            yield made
        finally:
            gc.enable()

    @staticmethod
    def alive(made):
        return sum(ref() is not None for ref in made)

    @pytest.mark.parametrize("first_order", [True, False])
    def test_outer_step_frees_every_tape(self, tapes, first_order):
        net, ds = fc_pool_network(3)
        rng = np.random.default_rng(4)
        tasks = [sample_task(ds, TaskSpec(5, 1, 3), rng) for _ in range(2)]
        batch = LR.TaskBatch.stack(tasks, LR._classes(net))

        def task_loss(stacked, theta, phi):
            logits = L.forward(net.layers, stacked.query_x, params=phi)
            return LR.cross_entropy(logits, stacked.query_y), [{}, {}]

        LR.maml_outer_step(
            net, batch, batch_cross_entropy(net), task_loss, adam(0.01), 0.1, 3,
            first_order=first_order,
        )
        # one tape per inner step and the outer tape (first order), or the
        # outer tape alone (second order), for the whole batch
        assert len(tapes) == (4 if first_order else 1)
        assert self.alive(tapes) == 0

    def test_first_order_adapt_returns_arrays_and_frees_every_tape(self, tapes):
        net, ds = fc_pool_network(6)
        task = sample_task(ds, TaskSpec(5, 1, 3), np.random.default_rng(7))
        loss = support_cross_entropy(net, task.support_x, task.support_y)
        adapted = LR.maml_adapt(loss, layer_arrays(net), 0.1, 3)
        assert all(type(p) is np.ndarray for p in L.param_nodes_to_list(adapted))
        assert len(tapes) == 3  # one throwaway tape per step
        assert self.alive(tapes) == 0

    def test_evaluate_frees_every_tape(self, tapes):
        net, ds = fc_pool_network(5)
        H.evaluate(net, "maml", ds, TaskSpec(5, 1, 3), 8, (1,), eval_inner_steps=4)
        assert len(tapes) == 4
        assert self.alive(tapes) == 0

    @staticmethod
    def run_config(layers, split_index, pool, **overrides):
        """A 2-step run that validates every step and always interpolates."""
        pool = {"n_classes": 12, "per_class": 30, "noise_scale": 1.0, **pool}
        splits = (("train", 11, "train"), ("val", 12, "validation"), ("test", 13, "test"))
        return RunConfig(
            layers=layers,
            split_index=split_index,
            data={
                split: {"synth": {**pool, "seed": seed, "role": role}}
                for split, seed, role in splits
            },
            max_steps=2,
            eval_interval=1,
            n_val_tasks=3,
            n_eval_tasks=3,
            interp_probability=1.0,
            seed=0,
            **overrides,
        )

    @pytest.mark.parametrize("objective,first_order", [("ibpi", True), ("ibp", False)])
    def test_training_run_frees_every_tape(self, tapes, objective, first_order):
        cfg = self.run_config(
            FC_LAYERS, 2, FC_POOL,
            learner="maml",
            objective=objective,
            meta_batch=2,
            inner_steps=2,
            eval_inner_steps=2,
            first_order=first_order,
        )
        H.train(cfg)
        assert tapes
        assert self.alive(tapes) == 0

    @pytest.mark.parametrize("objective,layers,split_index,pool", [
        ("ibpi", FC_LAYERS, 2, FC_POOL),
        ("ibp", CONV_LAYERS, 4, CONV_POOL),
    ], ids=["fc-ibpi", "conv-ibp"])
    def test_protonet_training_run_frees_every_tape(
        self, tapes, objective, layers, split_index, pool
    ):
        H.train(self.run_config(layers, split_index, pool, learner="protonet",
                                objective=objective))
        assert len(tapes) == 2  # one per step; evaluation records none
        assert self.alive(tapes) == 0


class TestTapeBudget:
    """Tape nodes per training step, counted as the traced benchmark counts
    them: the nodes recorded on each tape before each backward pass, summed
    over the step.  The budgets are the counts after the nodes were fused, so
    a change that re-expands the graph fails here."""

    @pytest.fixture
    def node_count(self, monkeypatch):
        counted = weakref.WeakKeyDictionary()
        total = [0]
        backward = T.Tape.backward

        def counting_backward(tape, loss, params, build_graph=False):
            total[0] += sum(n.vjp is not None for n in tape._nodes[counted.get(tape, 0):])
            counted[tape] = len(tape)
            return backward(tape, loss, params, build_graph=build_graph)

        monkeypatch.setattr(T.Tape, "backward", counting_backward)
        return total

    @staticmethod
    def one_step(step, make=fc_pool_network, **overrides):
        cfg = RunConfig(**{
            "learner": "protonet",
            "objective": "ibpi",
            "layers": FC_LAYERS,
            "split_index": 2,
            "interp_probability": 1.0,  # interpolation fires: the largest step
            **overrides,
        })
        net, ds = make(0)
        step(net, ds, cfg, 0.1, np.random.default_rng(1), np.random.default_rng(2), adam(0.01))

    def test_protonet_step(self, node_count):
        self.one_step(H._protonet_step)
        # 115 before the first fusion round, 68 before the second, 26 before
        # the mixed cross-entropy became one node, 24 before each centered
        # box layer recorded its radius as a node of its own (one per box)
        assert node_count[0] <= 26

    def test_value_mode_backward_looks_up_no_tape(self, monkeypatch):
        # a value-mode backward hands its vjps plain arrays, so no tape op
        # they call, in any module, looks for a tape
        counts = {"backward": 0, "_tape_of": 0}
        in_backward = [False]
        backward, tape_of = T.Tape.backward, T._tape_of

        def counting_tape_of(*operands):
            counts["_tape_of"] += in_backward[0]
            return tape_of(*operands)

        def counting_backward(tape, loss, params, build_graph=False):
            assert not build_graph
            counts["backward"] += 1
            in_backward[0] = True
            try:
                return backward(tape, loss, params, build_graph=build_graph)
            finally:
                in_backward[0] = False

        for module in (T, B, H, I, L, LR, O):
            if getattr(module, "_tape_of", None) is tape_of:
                monkeypatch.setattr(module, "_tape_of", counting_tape_of)
        monkeypatch.setattr(T.Tape, "backward", counting_backward)
        self.one_step(H._protonet_step)
        assert counts == {"backward": 1, "_tape_of": 0}

    def test_protonet_step_without_interpolation(self, node_count):
        self.one_step(H._protonet_step, interp_probability=0.0)
        # 32 before the second fusion round, 14 before the radius node
        assert node_count[0] <= 15

    def test_protonet_conv_step(self, node_count):
        # the conv, batchnorm, relu, maxpool prefix with its conv boxes
        self.one_step(H._protonet_step, conv_pool_network, objective="ibp",
                      layers=[{"kind": "relu"}] * 6, split_index=4)
        # 34 before the batchnorm activation was fused, 68 before the second
        # fusion round, 22 before the conv and batchnorm boxes became centered
        # (a radius node each), 24 before a centered box built its faces only
        # when read (the conv box's are not), 23 before the box stayed
        # centered through the max pool that the relu now follows
        assert node_count[0] <= 22

    # ibpi: 363 and 708 before the first fusion round, 157 and 463 before the
    # second, 93 and 394 before the clean pass read the box centers and the
    # mixed cross-entropy became one node; ibp: 37 and 163 before the query
    # pass read the box centers; second order: 345 (ibpi) and 161 (ibp)
    # before each inner update became one node and graph-mode backward
    # stopped running a requested parameter's vjp; 69, 309, 35 and 125
    # before the per-task losses went into backward without a sum_ node
    # (one per inner step and one for the outer loss); 63, 303, 29 and 119
    # before the centered fc box: a radius node per box, and fewer nodes in
    # the graph-mode vjps of the faces and radius than of the faces rule's
    @pytest.mark.parametrize(
        "objective,first_order,budget",
        [("ibpi", True, 69), ("ibpi", False, 299), ("ibp", True, 30), ("ibp", False, 120)],
    )
    def test_maml_step(self, node_count, objective, first_order, budget):
        self.one_step(H._maml_step, learner="maml", objective=objective, meta_batch=4,
                      inner_steps=5, first_order=first_order)
        assert node_count[0] <= budget

    # 30, 91 and 347 before the mix of the two embeddings became one
    # weighted-sum node; second order 335 before the one-node inner update;
    # MAML 79 and 299 before the per-task losses went into backward without
    # a sum_ node
    @pytest.mark.parametrize(
        "learner,first_order,budget",
        [("protonet", True, 26), ("maml", True, 73), ("maml", False, 293)],
    )
    def test_mixup_embedding_step(self, node_count, learner, first_order, budget):
        if learner == "protonet":
            self.one_step(H._protonet_step, objective="mixup_embedding")
        else:
            self.one_step(H._maml_step, learner="maml", objective="mixup_embedding",
                          meta_batch=4, inner_steps=5, first_order=first_order)
        assert node_count[0] <= budget
