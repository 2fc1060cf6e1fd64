"""Each fast path of a training step against the path it replaces: a
centered box's faces built only when read, and its cheaper check; a relu
run after the max pool it precedes, and a centered box kept through the
pool; one flat Adam update, and its copy into the network; one-hot
rows and per-row mixing coefficients built once per step; batchnorm along
rows of c·h·w; and the single
overflow path of ``train``, the shape and width checks before its first
step, and the seeds it accepts."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from fewshot_ibp import bounds as B
from fewshot_ibp import cli
from fewshot_ibp import harness as H
from fewshot_ibp import interpolation as I
from fewshot_ibp import layers as L
from fewshot_ibp import learners as LR
from fewshot_ibp import tensor as T
from fewshot_ibp.config import RunConfig, resolve_data
from fewshot_ibp.objective import bound_losses
from fewshot_ibp.episodes import TaskSpec, draw_task_rows, sample_task, synth_dataset
from fewshot_ibp.optim import BETA1, BETA2, STABILIZER, adam, optimizer_step
from test_bounds import centered_prefix, faces_rule_prefix
from test_harness import make_config
from test_tensor import fd_gradient, fused_against_chain


# -- lazy faces and the centered box check ------------------------------------


def conv_bn_relu(rng):
    net = L.Network(
        [L.init_conv(2, 3, 3, rng), L.batchnorm(3, gamma=rng.uniform(0.5, 2, 3)), L.relu()],
        split_index=3,
    )
    return net, rng.standard_normal((4, 2, 6, 6))


class TestLazyFaces:
    @pytest.mark.parametrize("radius", [0.1, np.array([0.05, 0.2, 0.0])])
    def test_first_read_equals_center_minus_and_plus_radius(self, radius):
        center = np.random.default_rng(0).standard_normal((4, 3))
        box = B.IntervalTensor.of(None, center, radius)
        assert box._faces is None
        faces = box.faces
        assert faces.tobytes() == np.array([center - radius, center + radius]).tobytes()
        assert box.faces is faces  # built once

    def test_conv_box_into_batchnorm_records_no_faces_node(self, monkeypatch):
        net, x = conv_bn_relu(np.random.default_rng(1))
        built = []
        faces = B._centered_faces
        monkeypatch.setattr(
            B, "_centered_faces", lambda c, r: built.append(T.value_of(c).shape) or faces(c, r)
        )
        with T.Tape() as tape:
            params = [{n: tape.leaf(a) for n, a in layer.param_items()} for layer in net.prefix]
            res = B.propagate_prefix(net, x, 0.1, params=params)
            names = [node.vjp.__qualname__.split(".")[0] for node in tape._nodes if node.vjp]
        # only the batchnorm box builds faces, for the relu: none for the input
        # box or the conv box
        assert built == [(4, 3, 4, 4)]
        assert names.count("_centered_faces") == 1
        np.testing.assert_array_equal(res.center.value, L.forward(net.prefix, x))

    def test_faces_read_after_release_are_values(self):
        x = np.random.default_rng(2).standard_normal((3, 4))
        layer = L.init_fully_connected(4, 2, np.random.default_rng(3))
        with T.Tape() as tape:
            w, b = tape.leaf(layer.weight), tape.leaf(layer.bias)
            box = B.propagate_layer(layer, B.epsilon_box(x, 0.1), weight=w, bias=b)
            recorded = len(tape) - 2  # the clean pass and the radius, no faces
        assert not len(tape) and recorded == 2  # released
        faces = box.faces  # no node: recording on the released tape would raise
        assert type(faces) is np.ndarray
        center, radius = box.center.value, box.radius.value
        assert faces.tobytes() == np.array([center - radius, center + radius]).tobytes()

    def test_negative_radius_rejected(self):
        box = B.IntervalTensor.of(None, np.zeros((2, 3)), np.array([0.1, -0.1, 0.2]))
        with pytest.raises(ValueError, match="box has lower > upper"):
            B.propagate_layer(L.init_fully_connected(3, 2, np.random.default_rng(4)), box)
        with pytest.raises(ValueError, match="box has lower > upper"):
            B.propagate_layer(L.relu(), box)

    @pytest.mark.parametrize("layer", [L.fully_connected(np.eye(2), np.zeros(2)), L.relu()])
    def test_nan_center_rejected(self, layer):
        box = B.epsilon_box(np.array([[0.0, np.nan]]), 0.1)
        with pytest.raises(T.NonFiniteError):
            B.propagate_layer(layer, box)

    def test_overflowing_faces_rejected_when_read(self):
        big = np.full((1, 2), np.finfo(np.float64).max)
        box = B.IntervalTensor.of(None, big, 1e308)  # center and radius are finite
        with np.errstate(over="ignore"):
            with pytest.raises(T.NonFiniteError, match="into a relu layer"):
                B.propagate_layer(L.relu(), box)
            # the affine image reads only the center and radius, and the
            # result's check reads the faces of the last box
            net = L.Network([L.fully_connected(np.eye(2), np.zeros(2))], split_index=1)
            with pytest.raises(T.NonFiniteError, match="of the result"):
                B.propagate_prefix(net, big, 1e308)


# -- relu after the max pool, and the centered pool ---------------------------


def tied_conv_block(rng, window, stride):
    """conv, batchnorm, relu, max pool, flatten, fc, with integer inputs and
    kernels: conv outputs full of ties, and a batchnorm shift that makes
    whole windows negative."""
    width = 3 * ((5 - window) // stride + 1) ** 2
    net = L.Network([
        L.conv(rng.integers(-1, 2, (3, 2, 2, 2)).astype(float), np.zeros(3)),
        L.batchnorm(3, gamma=np.array([1.0, -1.0, 0.5]), beta=np.array([0.0, -3.0, 0.2])),
        L.relu(), L.maxpool(window, stride), L.flatten(),
        L.fully_connected(rng.standard_normal((2, width)), np.zeros(2)),
    ], split_index=5)
    return net, rng.integers(-1, 2, (4, 2, 6, 6)).astype(float)


def in_order_forward(layers, x, params):
    for layer, entry in zip(layers, params, strict=True):
        x = L.apply_layer(layer, x, weight=entry.get("weight"), bias=entry.get("bias"))
    return x


class TestReluAfterPool:
    def test_relu_followed_by_a_pool_runs_after_it(self):
        kinds = ["conv2d", "relu", "maxpool2d", "relu", "relu", "maxpool2d", "flatten"]
        layers = [L.LayerSpec(k, window=2) for k in kinds]
        order = L.execution_order(layers)
        assert [i for i, _ in order] == [0, 2, 1, 3, 5, 4, 6]
        assert all(layer is layers[i] for i, layer in order)
        assert [i for i, _ in L.execution_order(layers[:2])] == [0, 1]

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 1)])
    @pytest.mark.parametrize("layout", ["single", "shared", "per_task"])
    def test_forward_equals_the_in_order_chain(self, layout, window, stride):
        # values and first-order gradients bit for bit (== leaves signed
        # zeros aside), on ties and all-negative windows
        rng = np.random.default_rng(90)
        net, x = tied_conv_block(rng, window, stride)
        if layout != "single":
            x = np.stack([x, -x, np.roll(x, 1, axis=-1)])
        per_task = layout == "per_task"
        arrays = [{n: np.stack([a, a[::-1], -a]) if per_task else a for n, a in layer.param_items()}
                  for layer in net.layers]
        c = rng.standard_normal((3,) * (layout != "single") + (4, 2))

        def run(fn):
            tape = T.Tape()
            params = [{n: tape.leaf(a) for n, a in entry.items()} for entry in arrays]
            xs = tape.leaf(x)
            out = fn(net.layers, xs, params)
            leaves = [xs] + [p for entry in params for p in entry.values()]
            grads = tape.backward(T.sum_(T.mul(out, c)), leaves)
            return [out.value] + [grads[p] for p in leaves]

        def commuted(layers, xs, params):
            return L.forward(layers, xs, params=params)

        for got, want in zip(run(commuted), run(in_order_forward), strict=True):
            np.testing.assert_array_equal(got, want)
        pooled = T.maxpool2d(L.forward(net.layers[:2], x), window, stride)
        assert (pooled < 0).any()  # some windows are all negative

    def test_hessian_vector_product_matches_finite_differences(self):
        rng = np.random.default_rng(91)
        layers = [L.init_conv(2, 3, 2, rng), L.relu(), L.maxpool(2), L.flatten(),
                  L.init_fully_connected(12, 3, rng)]
        x = rng.standard_normal((4, 2, 5, 5))
        base = [a.copy() for layer in layers for _, a in layer.param_items()]

        def loss(arrays):
            it = iter(arrays)
            params = [{n: next(it) for n, _ in layer.param_items()} for layer in layers]
            out = L.forward(layers, x, params=params)
            return T.sum_(T.mul(out, out))

        def gradients(arrays, build_graph=False):
            tape = T.Tape()
            leaves = [tape.leaf(a) for a in arrays]
            grads = tape.backward(loss(leaves), leaves, build_graph=build_graph)
            return tape, leaves, [grads[p] for p in leaves]

        v = [rng.standard_normal(a.shape) for a in base]
        tape, leaves, grads = gradients(base, build_graph=True)
        s = None
        for g, vi in zip(grads, v):
            term = T.sum_(T.mul(g, vi))
            s = term if s is None else T.add(s, term)
        hv = tape.backward(s, leaves)
        h = 1e-5
        plus = gradients([a + h * vi for a, vi in zip(base, v)])[2]
        minus = gradients([a - h * vi for a, vi in zip(base, v)])[2]
        for p, gp, gm in zip(leaves, plus, minus, strict=True):
            np.testing.assert_allclose(hv[p], (gp - gm) / (2 * h), rtol=0, atol=1e-5)
        for k in range(len(base)):  # and the first order
            want = fd_gradient(lambda arrays: float(loss(arrays)), base, k)
            np.testing.assert_allclose(grads[k].value, want, rtol=0, atol=1e-5)


class TestCenteredPool:
    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (2, 1)])
    @pytest.mark.parametrize("radius_kind", ["scalar", "per_channel", "per_task"])
    def test_faces_equal_the_pool_of_center_minus_and_plus_radius(self, radius_kind, window,
                                                                   stride):
        rng = np.random.default_rng(92)
        lead = (2,) if radius_kind == "per_task" else ()
        center = np.round(rng.standard_normal(lead + (3, 4, 7, 7)), 1)  # ties
        radius = {"scalar": 0.1, "per_channel": rng.uniform(0, 0.3, 4),
                  "per_task": rng.uniform(0, 0.3, (2, 4))}[radius_kind]
        layer = L.maxpool(window, stride)
        out = B.propagate_layer(layer, B.IntervalTensor.of(None, center, radius))
        assert out.radius is radius and out._faces is None
        assert out.center.tobytes() == T.maxpool2d(center, window, stride).tobytes()
        want = T.maxpool2d(B._centered_faces(center, radius), window, stride)
        assert out.faces.tobytes() == want.tobytes()

    def test_a_radius_per_entry_takes_the_faces_pool(self):
        center = np.random.default_rng(93).standard_normal((2, 3, 4, 4))
        radius = np.abs(center) * 0.1
        out = B.propagate_layer(L.maxpool(2), B.IntervalTensor.of(None, center, radius))
        assert out.center is None
        want = T.maxpool2d(np.array([center - radius, center + radius]), 2)
        assert out.faces.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("kind", ["conv", "batchnorm_first"])
    def test_bound_loss_gradients_equal_the_faces_rule(self, kind, stacked):
        rng = np.random.default_rng(94)
        net, x = centered_prefix(kind, rng)
        if stacked:
            x = x + 0.3 * rng.standard_normal((3,) + x.shape)
        arrays = [dict(layer.param_items()) for layer in net.prefix]

        def run(rule):
            tape = T.Tape()
            params = [{n: tape.leaf(a) for n, a in entry.items()} for entry in arrays]
            center, box = rule(net, x, 0.1, params)
            l_lb, l_ub = bound_losses(center, box)
            leaves = [p for entry in params for p in entry.values()]
            grads = tape.backward(T.add(l_lb, l_ub), leaves)
            return [grads[p] for p in leaves]

        def centered(net, x, eps, params):
            res = B.propagate_prefix(net, x, eps, params=params)
            return res.center, res.box

        for got, want in zip(run(centered), run(faces_rule_prefix), strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2)])
    def test_box_is_sound_at_corners(self, window, stride):
        rng = np.random.default_rng(95)
        net = L.Network([L.init_conv(2, 3, 2, rng),
                         L.batchnorm(3, gamma=rng.uniform(-2, 2, 3), beta=rng.standard_normal(3)),
                         L.relu(), L.maxpool(window, stride)], split_index=4)
        x = rng.standard_normal((4, 2, 8, 8))
        stats = []
        L.forward(net.prefix, x, stats_out=stats)
        res = B.propagate_prefix(net, x, 0.1).values()
        assert res.box.center is None  # the relu after the pool ends the run
        delta = rng.uniform(-0.1, 0.1, size=(60,) + x.shape)
        delta[30:] = 0.1 * np.sign(delta[30:])  # corners
        y = np.stack([L.forward(net.prefix, x + d, frozen_stats=stats) for d in delta])
        assert max(np.max(res.box.lower - y), np.max(y - res.box.upper)) <= 1e-9


# -- one flat Adam update ------------------------------------------------------


def reference_adam_step(params, grads, state):
    """Adam as it was applied one parameter at a time: state is a dict of
    per-parameter moment lists."""
    if not state["m"]:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    state["step"] += 1
    t = state["step"]
    new = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if not np.isfinite(g).all():
            raise T.NonFiniteError("non-finite gradient")
        state["m"][i] = BETA1 * state["m"][i] + (1.0 - BETA1) * g
        state["v"][i] = BETA2 * state["v"][i] + (1.0 - BETA2) * g * g
        m_hat = state["m"][i] / (1.0 - BETA1**t)
        v_hat = state["v"][i] / (1.0 - BETA2**t)
        new.append(T.as_tensor(p - state["lr"] * m_hat / (np.sqrt(v_hat) + STABILIZER)))
    return new


class TestFlatAdam:
    def test_bit_equal_to_per_parameter_adam_over_50_steps(self):
        rng = np.random.default_rng(5)
        net = L.build_network(
            [{"kind": "conv2d", "in_channels": 2, "out_channels": 3, "kernel": 3},
             {"kind": "batchnorm", "channels": 3}, {"kind": "relu"}, {"kind": "flatten"},
             {"kind": "fully_connected", "in": 12, "out": 4}],
            4, rng,
        )
        ref_params, ref_state = net.parameter_arrays(), {"lr": 0.01, "step": 0, "m": [], "v": []}
        state = adam(0.01)
        for _ in range(50):
            grads = [rng.standard_normal(p.shape) * rng.uniform(0.01, 10) for p in ref_params]
            new, state = optimizer_step(net.parameter_arrays(), grads, state)
            net.set_parameter_arrays(new)
            ref_params = reference_adam_step(ref_params, grads, ref_state)
            for got, want in zip(net.parameter_arrays(), ref_params, strict=True):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert state.step == 50

    def test_non_finite_gradient_raises(self):
        params = [np.zeros((2, 2)), np.zeros(2)]
        state = adam(0.1)
        with pytest.raises(T.NonFiniteError, match="non-finite gradient"):
            optimizer_step(params, [np.zeros((2, 2)), np.array([0.0, np.inf])], state)
        assert state.step == 0 and state.m is None

    def test_parameters_are_read_only_views_of_one_vector(self):
        net = L.build_network(
            [{"kind": "fully_connected", "in": 3, "out": 4}, {"kind": "relu"},
             {"kind": "fully_connected", "in": 4, "out": 2}],
            2, np.random.default_rng(6),
        )
        vector = net.parameter_vector
        arrays = net.parameter_arrays()
        assert vector.size == sum(a.size for a in arrays) and not vector.flags.writeable
        assert all(a.base is vector and not a.flags.writeable for a in arrays)
        np.testing.assert_array_equal(vector, np.concatenate([a.ravel() for a in arrays]))
        given = [a + 1.0 for a in arrays]
        net.set_parameter_arrays(given)
        assert net.parameter_vector is not vector  # a copy, not the given arrays
        for a, g in zip(net.parameter_arrays(), given, strict=True):
            assert a.base is net.parameter_vector and a.tobytes() == g.tobytes()
        with pytest.raises(T.NonFiniteError):
            net.set_parameter_arrays([np.full(a.shape, np.nan) for a in arrays])

    def test_overflowing_update_raises_and_keeps_the_parameters(self):
        net, _ = conv_bn_relu(np.random.default_rng(8))
        net.set_parameter_arrays([np.full(a.shape, np.finfo(float).max)
                                  for a in net.parameter_arrays()])
        vector = net.parameter_vector
        with np.errstate(over="ignore"):  # as train's own errstate
            new, _ = optimizer_step(net.parameter_arrays(),
                                    [np.full(a.shape, -1.0) for a in net.parameter_arrays()],
                                    adam(1e300))
        with pytest.raises(T.NonFiniteError):
            net.set_parameter_arrays(new)
        assert net.parameter_vector is vector
        assert all(a.base is vector for a in net.parameter_arrays())

    def test_given_arrays_are_copied(self):
        net = L.Network([L.fully_connected(np.ones((2, 2)), np.zeros(2)),
                         L.fully_connected(np.full((2, 2), 2.0), np.ones(2))], split_index=1)
        arrays = net.parameter_arrays()
        swapped = [arrays[2], arrays[1], arrays[0], arrays[3]]  # views, out of order
        writable = np.arange(12.0)
        updated, _ = optimizer_step(arrays, [np.full(a.shape, 0.5) for a in arrays], adam(0.01))
        cases = [swapped, [writable[:4].reshape(2, 2), writable[4:6], writable[6:10].reshape(2, 2),
                           writable[10:]], [a + 1.0 for a in arrays], updated]
        for given in cases:
            net.set_parameter_arrays(given)
            assert not any(np.shares_memory(net.parameter_vector, g) for g in given)
            for a, g in zip(net.parameter_arrays(), given, strict=True):
                assert a.base is net.parameter_vector and a.tobytes() == g.tobytes()
            arrays = net.parameter_arrays()


# -- step constants built once -------------------------------------------------


class TestStepConstants:
    @pytest.mark.parametrize("shape", [(6, 4), (3, 6, 4)])
    def test_onehot_rows_equal_labels(self, shape):
        rng = np.random.default_rng(7)
        scores = rng.standard_normal(shape)
        labels = rng.integers(0, shape[-1], shape[:-1])
        onehot = LR._onehot(labels, shape)

        def run(targets):
            with T.Tape() as tape:
                s = tape.leaf(scores)
                loss = LR.cross_entropy(s, targets)
                return T.value_of(loss), tape.backward(loss, [s])[s]

        (v1, g1), (v2, g2) = run(labels), run(onehot)
        assert v1.tobytes() == v2.tobytes() and g1.tobytes() == g2.tobytes()

        def hessian_vector(targets):  # graph mode, as second-order MAML runs it
            with T.Tape() as tape:
                s = tape.leaf(scores)
                g = tape.backward(LR.cross_entropy(s, targets), [s], build_graph=True)[s]
                return tape.backward(T.sum_(T.mul(g, scores)), [s])[s]

        assert hessian_vector(labels).tobytes() == hessian_vector(onehot).tobytes()

    def test_task_batch_checks_labels_once(self):
        ds = synth_dataset(6, 10, (4,), 2.0, 0.5, seed=8)
        rng = np.random.default_rng(9)
        tasks = [sample_task(ds, TaskSpec(3, 2, 3), rng) for _ in range(2)]
        batch = LR.TaskBatch.stack(tasks, 5)
        assert batch.support_targets.shape == batch.support_y.shape + (5,)
        np.testing.assert_array_equal(batch.query_targets.argmax(-1), batch.query_y)
        plain = LR.TaskBatch.stack(tasks)  # no width: the labels are the targets
        assert plain.support_targets is plain.support_y and plain.query_targets is plain.query_y
        with pytest.raises(ValueError, match=r"labels outside 0\.\.1"):
            LR.TaskBatch.stack(tasks, 2)

    def test_gathered_targets_built_once_per_spec(self, monkeypatch):
        ds = synth_dataset(6, 10, (4,), 2.0, 0.5, seed=8)
        spec = TaskSpec(3, 2, 3)
        rows = draw_task_rows(ds, spec, [np.random.default_rng(s) for s in range(4)])[1]
        calls = []
        onehot = LR._onehot
        monkeypatch.setattr(LR, "_onehot", lambda *args: calls.append(1) or onehot(*args))
        for n in (4, 2):
            batch = LR.TaskBatch.gather(ds, spec, rows[:n], 5)
            for y, got in ((batch.support_y, batch.support_targets),
                           (batch.query_y, batch.query_targets)):
                want = onehot(np.array(y), y.shape + (5,))
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes() and not got.flags.writeable
        assert len(calls) == 2  # the support and the query rows, on the first gather
        for _ in range(2):  # labels that fail the check are not kept
            with pytest.raises(ValueError, match=r"labels outside 0\.\.1"):
                LR.TaskBatch.gather(ds, spec, rows, 2)
        assert len(calls) == 4

    def test_bad_labels_raise_before_the_first_inner_step(self, monkeypatch):
        rng = np.random.default_rng(10)
        net = L.Network([L.init_fully_connected(4, 2, rng)], split_index=1)  # 2 scores
        ds = synth_dataset(6, 10, (4,), 2.0, 0.5, seed=11)
        task = sample_task(ds, TaskSpec(3, 1, 2), rng)  # labels 0..2
        steps = []
        monkeypatch.setattr(LR, "maml_adapt", lambda *a, **k: steps.append(a))
        # a training step gathers its batch, one-hot rows checked, before adapting
        cfg = RunConfig(learner="maml", objective="vanilla", layers=[{"kind": "relu"}],
                        split_index=1, train_ways=3, train_shots=1, train_query_shots=2)
        with pytest.raises(ValueError, match=r"labels outside 0\.\.1"):
            H._maml_step(net, ds, cfg, 0.0, rng, rng, adam(0.1))
        with pytest.raises(ValueError, match=r"labels outside 0\.\.1"):
            LR.predict_accuracy("maml", net, task, eval_steps=5, inner_lr=0.1)
        assert steps == []

    def test_protonet_step_builds_the_query_rows_once(self, monkeypatch):
        # interpolation fires, so two cross-entropies read the query rows
        calls = []
        onehot = LR._onehot
        counting = lambda labels, shape: calls.append(shape) or onehot(labels, shape)  # noqa: E731
        monkeypatch.setattr(LR, "_onehot", counting)
        fired = []
        make_task = I.make_interpolated_task
        monkeypatch.setattr(H, "make_interpolated_task",
                            lambda *a, **k: fired.append(1) or make_task(*a, **k))
        cfg = make_config(objective="ibpi", interp_probability=1.0)
        net = L.build_network(cfg.layers, cfg.split_index, np.random.default_rng(0))
        data = resolve_data(cfg)
        H._protonet_step(net, data["train"], cfg, 0.1, np.random.default_rng(1),
                         np.random.default_rng(2), adam(0.01))
        assert fired and calls == [(1, cfg.train_ways * cfg.train_query_shots, cfg.train_ways)]

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_row_coefficients_equal_per_class_coefficients(self, lead):
        rng = np.random.default_rng(12)
        coeffs = I.MixCoefficients(rng.uniform(0, 1, lead + (4,)), rng.integers(0, 2, lead + (4,)))
        labels = rng.integers(0, 4, lead + (6,))
        centers = rng.standard_normal(lead + (6, 2, 3, 3))
        radius = rng.uniform(0, 0.5, centers.shape)
        box = B.IntervalTensor(centers - radius, centers + radius)
        rows = coeffs.rows(labels)

        def run(fn, c):
            with T.Tape() as tape:
                x, f = tape.leaf(centers), tape.leaf(box.faces)
                out = fn(x, B.IntervalTensor.of(f), c)
                grads = tape.backward(T.sum_(T.mul(out, centers)), [x, f])
                return [T.value_of(out), grads[x], grads[f]]

        def interp(x, b, c):
            return I.interpolate_batch(x, b, labels, c)

        def mix(x, b, c):
            return I.mix_batch(x, T.take(b.faces, 1), labels, c)

        for fn in (interp, mix):
            for got, want in zip(run(fn, rows), run(fn, coeffs), strict=True):
                assert got.tobytes() == want.tobytes()


# -- batchnorm over rows of c·h·w ----------------------------------------------


def broadcast_batch_stats(x, layer):
    """``layers.batch_stats`` as it was: the mean subtracted as a (…, c, 1, 1)
    operand broadcast over each h·w plane, the difference squared anew."""
    v = T.value_of(x)
    b = int(L.has_task_axis(v))
    axes = (b,) if v.ndim == 2 + b else (b, b + 2, b + 3)
    n = math.prod(v.shape[ax] for ax in axes)
    mean = np.add.reduce(v, axis=axes, keepdims=True) / n
    var = np.add.reduce(np.square(v - mean), axis=axes) / n
    return mean.reshape(var.shape), var


def broadcast_batchnorm(x, layer, mean, var, gamma, beta):
    """``layers._batchnorm`` as it was: scale and shift broadcast as
    (…, c, 1, 1) operands over each h·w plane."""
    vx = T.value_of(x)
    inv_std = L.bn_inv_std(layer, var)
    scale, shift = L.bn_affine(layer, mean, var, gamma=T.value_of(gamma), beta=T.value_of(beta))
    scale_b, shift_b = L._bn_broadcast(vx, scale), L._bn_broadcast(vx, shift)
    out = np.multiply(vx, scale_b)
    out += shift_b
    tape = T._tape_of(x, gamma, beta)
    if tape is None:
        return out

    def vjp(g, inputs, o):
        xx, xg, _ = inputs
        s_b = scale_b
        if isinstance(xg, T.Node):
            s_b = L._bn_broadcast(vx, T.mul(xg, inv_std))
        g_x = g_gamma = g_beta = None
        if isinstance(x, T.Node):
            g_x = T.mul(g, s_b)
        if isinstance(gamma, T.Node) or isinstance(beta, T.Node):
            g_shift = T.reshape(T._unbroadcast(g, shift_b.shape), shift.shape)
        if isinstance(gamma, T.Node):
            g_scale = T.add(
                T.reshape(T._unbroadcast(T.mul(g, xx), scale_b.shape), scale.shape),
                T._unbroadcast(T.mul(T.neg(g_shift), mean), scale.shape),
            )
            g_gamma = T._unbroadcast(T.mul(g_scale, inv_std), gamma.shape)
        if isinstance(beta, T.Node):
            g_beta = T._unbroadcast(g_shift, beta.shape)
        return g_x, g_gamma, g_beta

    return T.Node(tape, out, (x, gamma, beta), vjp)


class TestBatchnormRows:
    """Batch statistics and the batchnorm activation applied along rows of
    c·h·w against the broadcast code they replace, bit for bit."""

    # (x shape, gamma and beta shape): 2-D and 4-D, each with a task axis,
    # parameters shared by the tasks or one row per task
    LAYOUTS = [
        ((6, 3), (3,)),
        ((2, 6, 3), (2, 3)),
        ((6, 3, 4, 5), (3,)),
        ((2, 6, 3, 4, 5), (3,)),
        ((2, 6, 3, 4, 5), (2, 3)),
    ]

    @pytest.mark.parametrize("x_shape,p_shape", LAYOUTS)
    def test_batch_stats_bit_equal(self, x_shape, p_shape):
        layer = L.batchnorm(3)
        rng = np.random.default_rng(90)
        for _ in range(20):
            x = rng.uniform(0.1, 50.0) * rng.standard_normal(x_shape) + rng.uniform(-20.0, 20.0)
            for got, want in zip(L.batch_stats(x, layer), broadcast_batch_stats(x, layer)):
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @pytest.mark.parametrize("x_shape,p_shape", LAYOUTS)
    def test_activation_bit_equal_in_value_and_gradients(self, x_shape, p_shape):
        # value, first-order, graph-mode and second-order gradients bit for
        # bit (fused_against_chain), with the statistics of the batch
        layer = L.batchnorm(3)
        rng = np.random.default_rng(91)
        x = 2.0 * rng.standard_normal(x_shape) + 1.0
        gamma, beta = rng.standard_normal(p_shape), rng.standard_normal(p_shape)
        stats = L.batch_stats(x, layer)

        def rows(x, gamma, beta):
            return L.apply_layer(layer, x, weight=gamma, bias=beta, frozen_stats=stats)

        def broadcast(x, gamma, beta):
            return broadcast_batchnorm(x, layer, *stats, gamma, beta)

        arrays = [x, gamma, beta]
        # every operand on the tape; a constant input; stored parameters
        for leaves in ((0, 1, 2), (1, 2), (0,)):
            def on(fn, leaves=leaves):
                def call(*nodes):
                    args = list(arrays)
                    for i, node in zip(leaves, nodes):
                        args[i] = node
                    return fn(*args)
                return call

            leaf_arrays = [arrays[i] for i in leaves]
            fused_against_chain(on(rows), on(broadcast), leaf_arrays, bit_equal=True)
        value = L.apply_layer(layer, x, weight=gamma, bias=beta)
        want = broadcast_batchnorm(x, layer, *broadcast_batch_stats(x, layer), gamma, beta)
        assert value.tobytes() == want.tobytes()


# -- one overflow path, and configs that cannot score their tasks --------------


class TestFailurePaths:
    def test_overflow_aborts_under_the_warning_filter(self, tmp_path):
        # the filter of the test configuration, set here as well, and no
        # np.errstate: train's own turns the overflow into NonFiniteError
        cfg = make_config(objective="ibpi", meta_lr=1e300, max_steps=20, out_dir=str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(T.NonFiniteError):
                H.train(cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint.ckpt", "config.json", "metrics.csv", "summary.json",
        ]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "aborted" and summary["aborted_at_step"] >= 1

    @pytest.mark.parametrize("field", ["train_ways", "eval_ways"])
    def test_maml_head_narrower_than_the_ways_rejected(self, field):
        layers = [{"kind": "fully_connected", "in": 6, "out": 16}, {"kind": "relu"},
                  {"kind": "fully_connected", "in": 16, "out": 3}]
        cfg = make_config(learner="maml", layers=layers, train_ways=3, eval_ways=3)
        assert cfg.layers[-1]["out"] == 3  # as wide as the ways: accepted
        with pytest.raises(ValueError, match=rf"layer 2 \(fully_connected\).*{field} = 4"):
            make_config(learner="maml", layers=layers, **{"train_ways": 3, "eval_ways": 3,
                                                          field: 4})
        make_config(learner="protonet", layers=layers, **{field: 4})  # prototypes score

    @pytest.mark.parametrize("field", ["train_ways", "eval_ways"])
    def test_maml_output_narrower_than_the_ways_rejected_before_a_step(self, field, monkeypatch):
        # the head ends in a relu, so only the walked output shape shows its width
        layers = [{"kind": "fully_connected", "in": 6, "out": 16}, {"kind": "relu"},
                  {"kind": "fully_connected", "in": 16, "out": 3}, {"kind": "relu"}]
        resolve_data(make_config(learner="maml", layers=layers))  # 3 ways: accepted
        cfg = make_config(learner="maml", layers=layers, **{field: 4})
        split = "train" if field == "train_ways" else "val"
        message = rf"outputs have shape \(3,\) cannot score the 4 ways of the {split} split"
        with pytest.raises(ValueError, match=message):
            resolve_data(cfg)
        monkeypatch.setattr(H, "_maml_step", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match=message):
            H.train(cfg)
        resolve_data(make_config(learner="protonet", layers=layers, **{field: 4}))

    @pytest.mark.parametrize("entropy", [(-1,), (2.7,), (0, -202), (True,)])
    def test_task_seed_entropy_other_than_non_negative_integers_rejected(self, entropy):
        cfg = make_config()
        net = L.build_network(cfg.layers, cfg.split_index, np.random.default_rng(0))
        ds = resolve_data(cfg)["test"]
        with pytest.raises(ValueError, match=re.escape(repr(entropy))):
            H.evaluate(net, "protonet", ds, cfg.eval_spec(), 2, entropy)

    def test_negative_run_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            make_config(seed=-3)
        make_config().save(tmp_path / "config.json")  # the CLI's --seed is checked too
        assert cli.main(["train", "--config", str(tmp_path / "config.json"), "--seed", "-3"]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_maml_head_checked_only_against_splits_read(self):
        layers = [{"kind": "fully_connected", "in": 4, "out": 3}]
        RunConfig(learner="maml", objective="ibpi", layers=layers)  # no data, no tasks
        with pytest.raises(ValueError, match="eval_ways = 5"):
            RunConfig(learner="maml", objective="ibpi", layers=layers, train_ways=3,
                      data={"test": {"path": "pool.npz"}})

    @pytest.mark.parametrize("layers,shape,message", [
        # a first layer whose width differs from the data
        ([{"kind": "fully_connected", "in": 7, "out": 4}, {"kind": "relu"},
          {"kind": "fully_connected", "in": 4, "out": 3}], [8],
         r"layer 0 \(fully_connected\): 'in' is 7, but train instances of shape \(8,\) "
         r"reach it with 8"),
        # conv, flatten, fc whose flattened size differs from the fc's
        ([{"kind": "conv2d", "in_channels": 1, "out_channels": 5, "kernel": 3}, {"kind": "relu"},
          {"kind": "flatten"}, {"kind": "fully_connected", "in": 144, "out": 4}], [1, 10, 10],
         r"layer 3 \(fully_connected\): 'in' is 144, but train instances of shape "
         r"\(1, 10, 10\) reach it with 320"),
        # a conv kernel larger than the image
        ([{"kind": "conv2d", "in_channels": 1, "out_channels": 2, "kernel": 5}, {"kind": "flatten"},
          {"kind": "fully_connected", "in": 2, "out": 3}], [1, 4, 4],
         r"layer 0 \(conv2d\): 'kernel' is 5, but train instances of shape \(1, 4, 4\) "
         r"reach it with \(1, 4, 4\)"),
        # a pool window larger than the conv output
        ([{"kind": "conv2d", "in_channels": 1, "out_channels": 2, "kernel": 3},
          {"kind": "maxpool2d", "window": 3}, {"kind": "flatten"},
          {"kind": "fully_connected", "in": 2, "out": 3}], [1, 4, 4],
         r"layer 1 \(maxpool2d\): 'window' is 3, but train instances of shape \(1, 4, 4\) "
         r"reach it with \(2, 2, 2\)"),
        # a pool on features without height and width
        ([{"kind": "fully_connected", "in": 8, "out": 6}, {"kind": "maxpool2d", "window": 2},
          {"kind": "fully_connected", "in": 3, "out": 3}], [8],
         r"layer 1 \(maxpool2d\): 'window' is 2, but train instances of shape \(8,\) "
         r"reach it with \(6,\)"),
    ])
    def test_layer_sizes_checked_before_the_first_step(self, layers, shape, message, monkeypatch):
        synth = {"n_classes": 6, "per_class": 12, "shape": shape, "class_separation": 2.0,
                 "noise_scale": 1.0, "seed": 1}
        cfg = RunConfig(learner="protonet", objective="ibp", layers=layers,
                        split_index=len(layers) - 1, data={"train": {"synth": synth}},
                        train_ways=3, train_query_shots=2, max_steps=2)
        with pytest.raises(ValueError, match=message):
            resolve_data(cfg)
        monkeypatch.setattr(H, "_protonet_step", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match=message):
            H.train(cfg)
