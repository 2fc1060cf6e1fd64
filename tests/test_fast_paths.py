"""Each fast path of a training step against the path it replaces: a
centered box's faces built only when read, and its cheaper check; one flat
Adam update; one-hot rows and per-row mixing coefficients built once per
step; and the single overflow path of ``train``."""

import json
import warnings

import numpy as np
import pytest

from fewshot_ibp import bounds as B
from fewshot_ibp import harness as H
from fewshot_ibp import interpolation as I
from fewshot_ibp import layers as L
from fewshot_ibp import learners as LR
from fewshot_ibp import tensor as T
from fewshot_ibp.config import RunConfig
from fewshot_ibp.episodes import TaskSpec, sample_task, synth_dataset
from fewshot_ibp.optim import BETA1, BETA2, STABILIZER, adam, optimizer_step
from test_harness import make_config
from test_learners import batch_cross_entropy


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

    def test_bad_labels_raise_before_the_first_inner_step(self, monkeypatch):
        rng = np.random.default_rng(10)
        net = L.Network([L.init_fully_connected(4, 2, rng)], split_index=1)  # 2 scores
        ds = synth_dataset(6, 10, (4,), 2.0, 0.5, seed=11)
        task = sample_task(ds, TaskSpec(3, 1, 2), rng)  # labels 0..2
        steps = []
        monkeypatch.setattr(LR, "maml_adapt", lambda *a, **k: steps.append(a))
        with pytest.raises(ValueError, match=r"labels outside 0\.\.1"):
            LR.maml_outer_step(net, [task], batch_cross_entropy(net), None, adam(0.1), 0.1, 5)
        with pytest.raises(ValueError, match=r"labels outside 0\.\.1"):
            LR.maml_task_accuracies(net, [task], 0.1, 5)
        assert steps == []

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

    def test_maml_head_checked_only_against_splits_read(self):
        layers = [{"kind": "fully_connected", "in": 4, "out": 3}]
        RunConfig(learner="maml", objective="ibpi", layers=layers)  # no data, no tasks
        with pytest.raises(ValueError, match="eval_ways = 5"):
            RunConfig(learner="maml", objective="ibpi", layers=layers, train_ways=3,
                      data={"test": {"path": "pool.npz"}})
