"""Interval propagation: soundness, per-layer exactness, and monotonicity.

Exactness is checked against a brute-force corner-enumeration oracle (the
extremes of an affine map over a box are attained at box corners); soundness
against Monte-Carlo sampling of the input box.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewshot_ibp import bounds as B
from fewshot_ibp import layers as L
from fewshot_ibp import tensor as T
from fewshot_ibp.tensor import NonFiniteError
from test_tensor import fd_gradient


def corner_images(fn, lower, upper):
    """Evaluate ``fn`` on every corner of the box; rows are corner images."""
    dims = lower.size
    images = []
    for bits in itertools.product((0, 1), repeat=dims):
        corner = np.where(np.array(bits, dtype=bool), upper.ravel(), lower.ravel())
        images.append(fn(corner.reshape(lower.shape)))
    return np.stack(images)


class TestEpsilonBox:
    def test_zero_eps_degenerate(self):
        x = np.array([1.0, 2.0])
        box = B.epsilon_box(x, 0.0)
        np.testing.assert_array_equal(box.lower, x)
        np.testing.assert_array_equal(box.upper, x)

    def test_definition(self):
        box = B.epsilon_box(np.array([1.0, 2.0]), 0.5)
        np.testing.assert_array_equal(box.lower, [0.5, 1.5])
        np.testing.assert_array_equal(box.upper, [1.5, 2.5])

    @pytest.mark.parametrize("eps", [-0.1, np.nan, np.inf])
    def test_invalid_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite and non-negative"):
            B.epsilon_box(np.zeros(2), eps)


class TestPropagateLayer:
    def test_affine_matches_corner_oracle_example(self):
        # W = [[1, -1]], box [0,2]x[0,2]: corners of x1 - x2 give [-2, 2]
        layer = L.fully_connected(np.array([[1.0, -1.0]]), np.array([0.0]))
        box = B.IntervalTensor(np.zeros((1, 2)), np.full((1, 2), 2.0))
        out = B.propagate_layer(layer, box)
        corners = corner_images(
            lambda c: c @ layer.weight.T, box.lower[0], box.upper[0]
        )
        assert corners.min() == pytest.approx(-2.0)
        assert corners.max() == pytest.approx(2.0)
        np.testing.assert_allclose(out.lower, [[-2.0]])
        np.testing.assert_allclose(out.upper, [[2.0]])

    def test_relu_monotone_rule(self):
        layer = L.relu()
        box = B.propagate_layer(
            layer, B.IntervalTensor(np.array([[-1.0, -3.0]]), np.array([[2.0, -1.0]]))
        )
        np.testing.assert_array_equal(box.lower, [[0.0, 0.0]])
        np.testing.assert_array_equal(box.upper, [[2.0, 0.0]])

    def test_maxpool_monotone_rule(self):
        # pooling a window whose faces hold (-1, 3) / (0, 5): lower 3, upper 5
        lower = np.array([[-1.0, 3.0], [-1.0, 3.0]]).reshape(1, 1, 2, 2)
        upper = np.array([[0.0, 5.0], [0.0, 5.0]]).reshape(1, 1, 2, 2)
        out = B.propagate_layer(L.maxpool(2), B.IntervalTensor(lower, upper))
        np.testing.assert_array_equal(out.lower.ravel(), [3.0])
        np.testing.assert_array_equal(out.upper.ravel(), [5.0])

    def test_inverted_box_rejected(self):
        layer = L.relu()
        with pytest.raises(ValueError):
            B.propagate_layer(
                layer, B.IntervalTensor(np.array([[1.0]]), np.array([[0.0]]))
            )

    @pytest.mark.parametrize("in_dim,out_dim", [(2, 3), (4, 2), (6, 4)])
    def test_affine_exactness_every_face_attained(self, in_dim, out_dim):
        rng = np.random.default_rng(in_dim * 10 + out_dim)
        for _ in range(5):
            layer = L.fully_connected(
                rng.standard_normal((out_dim, in_dim)), rng.standard_normal(out_dim)
            )
            center = rng.standard_normal(in_dim)
            radius = rng.uniform(0.1, 1.0, size=in_dim)
            box = B.IntervalTensor(
                (center - radius)[None, :], (center + radius)[None, :]
            )
            out = B.propagate_layer(layer, box)
            corners = corner_images(
                lambda c: c @ layer.weight.T + layer.bias, box.lower[0], box.upper[0]
            )
            np.testing.assert_allclose(corners.min(axis=0), out.lower[0], atol=1e-9)
            np.testing.assert_allclose(corners.max(axis=0), out.upper[0], atol=1e-9)

    def test_relu_exactness(self):
        rng = np.random.default_rng(0)
        lower = rng.uniform(-2, 1, size=(1, 5))
        upper = lower + rng.uniform(0, 2, size=(1, 5))
        out = B.propagate_layer(L.relu(), B.IntervalTensor(lower, upper))
        # the monotone rule is exact: endpoints are attained by the endpoints
        np.testing.assert_array_equal(out.lower, np.maximum(lower, 0))
        np.testing.assert_array_equal(out.upper, np.maximum(upper, 0))

    def test_conv_split_equals_corner_oracle_small(self):
        rng = np.random.default_rng(4)
        layer = L.conv(rng.standard_normal((1, 1, 2, 2)), rng.standard_normal(1))
        x = rng.standard_normal((1, 1, 2, 2))
        box = B.epsilon_box(x, 0.3)
        out = B.propagate_layer(layer, box)
        corners = corner_images(
            lambda c: L.forward([layer], c.reshape(1, 1, 2, 2)).ravel(),
            box.lower,
            box.upper,
        )
        np.testing.assert_allclose(corners.min(axis=0), out.lower.ravel(), atol=1e-9)
        np.testing.assert_allclose(corners.max(axis=0), out.upper.ravel(), atol=1e-9)


def make_random_vector_net(rng, in_dim):
    layers = []
    dim = in_dim
    for _ in range(int(rng.integers(2, 4))):
        out = int(rng.integers(2, 8))
        layers.append(L.init_fully_connected(dim, out, rng))
        dim = out
        if rng.uniform() < 0.6:
            layers.append(L.relu())
    return L.Network(layers, split_index=len(layers))


class TestPropagatePrefix:
    def test_zero_eps_collapses_to_center(self):
        rng = np.random.default_rng(1)
        net = make_random_vector_net(rng, 4)
        x = rng.standard_normal((3, 4))
        res = B.propagate_prefix(net, x, 0.0).values()
        np.testing.assert_array_equal(res.box.lower, res.center)
        np.testing.assert_array_equal(res.box.upper, res.center)

    def test_single_affine_equals_propagate_layer(self):
        rng = np.random.default_rng(2)
        layer = L.init_fully_connected(3, 4, rng)
        net = L.Network([layer], split_index=1)
        x = rng.standard_normal((2, 3))
        res = B.propagate_prefix(net, x, 0.2).values()
        direct = B.propagate_layer(layer, B.epsilon_box(x, 0.2))
        np.testing.assert_array_equal(res.box.lower, direct.lower)
        np.testing.assert_array_equal(res.box.upper, direct.upper)

    def test_monte_carlo_containment(self):
        # 1000 perturbations of a 3-layer net stay inside the box
        rng = np.random.default_rng(3)
        net = L.Network(
            [
                L.init_fully_connected(4, 6, rng),
                L.relu(),
                L.init_fully_connected(6, 3, rng),
            ],
            split_index=3,
        )
        x = rng.standard_normal((1, 4))
        eps = 0.15
        res = B.propagate_prefix(net, x, eps).values()
        deltas = rng.uniform(-eps, eps, size=(1000, 4))
        outputs = L.forward(net.prefix, x + deltas)
        assert np.all(outputs >= res.box.lower - 1e-9)
        assert np.all(outputs <= res.box.upper + 1e-9)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(5)
        net = make_random_vector_net(rng, 5)
        x = rng.standard_normal((2, 5))
        eps_grid = [0.0, 0.05, 0.1, 0.2, 0.5]
        boxes = [B.propagate_prefix(net, x, e).values().box for e in eps_grid]
        for small, big in zip(boxes, boxes[1:]):
            assert np.all(big.lower <= small.lower + 1e-12)
            assert np.all(big.upper >= small.upper - 1e-12)

    @given(eps=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_width_non_negative_and_zero_at_zero_eps(self, eps):
        rng = np.random.default_rng(7)
        net = make_random_vector_net(rng, 3)
        x = rng.standard_normal((2, 3))
        res = B.propagate_prefix(net, x, eps).values()
        width = res.box.upper - res.box.lower
        assert np.all(width >= 0)
        if eps == 0.0:
            np.testing.assert_array_equal(width, 0.0)

    def test_center_always_inside_box(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            net = make_random_vector_net(rng, 4)
            x = rng.standard_normal((3, 4))
            res = B.propagate_prefix(net, x, float(rng.uniform(0, 0.5)))
            res.validate()  # raises if the center escapes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, bad):
        # a NaN center compares false against both faces, so the box check
        # alone would let it through
        box = B.IntervalTensor(np.zeros((1, 1)), np.ones((1, 1)))
        with pytest.raises(NonFiniteError, match="box center"):
            B.BoundResult(np.array([[bad]]), box).validate()

    @pytest.mark.parametrize(
        "tail,where", [([L.relu()], "box faces into a relu layer"), ([], "box faces of the result")]
    )
    def test_intermediate_box_overflow_rejected(self, tail, where):
        # the box after the second fc overflows (1e300 · 1e300 weights); the
        # layer after it, or the result's check, rejects it and says which
        layers = [L.fully_connected(np.full((4, 4), 1e300), np.zeros(4)) for _ in range(2)]
        net = L.Network(layers + tail, split_index=2 + len(tail))
        x = np.random.default_rng(9).standard_normal((2, 4))
        with pytest.raises(NonFiniteError, match=where) as excinfo:
            with np.errstate(over="ignore", invalid="ignore"):
                B.propagate_prefix(net, x, 0.1)
        assert excinfo.traceback[-1].name == "check_finite"
        assert "validate" in [entry.name for entry in excinfo.traceback]


class TestTaskBounds:
    """Bounds of a task's batch, propagated in one call."""

    def test_batch_of_one_equals_prefix(self):
        # rows of an fc/relu prefix do not interact: a row's bounds do not
        # depend on the batch around it
        rng = np.random.default_rng(9)
        net = make_random_vector_net(rng, 4)
        x = rng.standard_normal((3, 4))
        single = B.propagate_prefix(net, x[:1], 0.1).values()
        batched = B.propagate_prefix(net, x, 0.1).values()
        np.testing.assert_allclose(single.center, batched.center[:1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(single.box.lower, batched.box.lower[:1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(single.box.upper, batched.box.upper[:1], rtol=0, atol=1e-12)

    def test_duplicates_get_identical_results(self):
        rng = np.random.default_rng(10)
        net = make_random_vector_net(rng, 4)
        row = rng.standard_normal(4)
        batch = np.stack([row, rng.standard_normal(4), row])
        res = B.propagate_prefix(net, batch, 0.2).values()
        np.testing.assert_array_equal(res.center[0], res.center[2])
        np.testing.assert_array_equal(res.box.lower[0], res.box.lower[2])
        np.testing.assert_array_equal(res.box.upper[0], res.box.upper[2])


def conv_batchnorm_prefix(rng):
    return L.Network(
        [
            L.init_conv(2, 3, 3, rng),
            L.batchnorm(3, gamma=rng.uniform(0.5, 2.0, 3), beta=rng.standard_normal(3)),
            L.relu(),
            L.maxpool(2),
            L.flatten(),
            L.init_fully_connected(12, 4, rng),
        ],
        split_index=6,
    )


class TestTaskAxisBounds:
    """A stack of tasks propagated at once against one call per task."""

    @staticmethod
    def per_task_params(net, n_tasks, rng):
        """Each layer's parameters, moved off the stored ones task by task."""
        return [
            {name: arr + 0.1 * rng.standard_normal((n_tasks,) + arr.shape)
             for name, arr in layer.param_items()}
            for layer in net.prefix
        ]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("conv", [True, False])
    def test_task_axis_equals_per_task_calls(self, conv, shared):
        rng = np.random.default_rng(13)
        if conv:
            net, x = conv_batchnorm_prefix(rng), rng.standard_normal((3, 4, 2, 6, 6))
        else:
            net, x = make_random_vector_net(rng, 4), rng.standard_normal((3, 5, 4))
        params = None if shared else self.per_task_params(net, 3, rng)
        res = B.propagate_prefix(net, x, 0.1, params=params).values()
        for t in range(3):
            task_params = None if shared else [
                {name: arr[t] for name, arr in entry.items()} for entry in params
            ]
            ref = B.propagate_prefix(net, x[t], 0.1, params=task_params).values()
            for got, want in (
                (res.center[t], ref.center),
                (res.box.lower[t], ref.box.lower),
                (res.box.upper[t], ref.box.upper),
            ):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestRankRule:
    """The input's rank says whether it stacks tasks: a 2-D (or 4-D) call is
    bit for bit the one-task stack ``x[None]``, and a rank that fits
    neither layout is rejected."""

    @staticmethod
    def network_and_input(conv, rng):
        if conv:
            return conv_batchnorm_prefix(rng), rng.standard_normal((5, 2, 6, 6))
        return make_random_vector_net(rng, 4), rng.standard_normal((5, 4))

    @staticmethod
    def stacked_params(net):
        return [{name: arr[None] for name, arr in layer.param_items()} for layer in net.layers]

    @pytest.mark.parametrize("conv", [True, False])
    def test_forward_equals_one_task_stack(self, conv):
        net, x = self.network_and_input(conv, np.random.default_rng(70))
        out = L.forward(net.layers, x)
        np.testing.assert_array_equal(L.forward(net.layers, x[None])[0], out)
        stacked = L.forward(net.layers, x[None], params=self.stacked_params(net))
        np.testing.assert_array_equal(stacked[0], out)

    @pytest.mark.parametrize("conv", [True, False])
    def test_propagate_prefix_equals_one_task_stack(self, conv):
        net, x = self.network_and_input(conv, np.random.default_rng(71))
        res = B.propagate_prefix(net, x, 0.1)
        for params in (None, self.stacked_params(net)):
            stacked = B.propagate_prefix(net, x[None], 0.1, params=params)
            for got, want in (
                (stacked.center, res.center),
                (stacked.box.lower, res.box.lower),
                (stacked.box.upper, res.box.upper),
            ):
                assert got.shape == (1,) + want.shape
                np.testing.assert_array_equal(got[0], want)

    @pytest.mark.parametrize("conv", [True, False])
    def test_bound_losses_equal_one_task_stack(self, conv):
        from fewshot_ibp.objective import bound_losses

        net, x = self.network_and_input(conv, np.random.default_rng(72))
        res = B.propagate_prefix(net, x, 0.1)
        stacked = B.IntervalTensor(res.box.lower[None], res.box.upper[None])
        for got, want in zip(
            bound_losses(res.center[None], stacked), bound_losses(res.center, res.box)
        ):
            assert got.shape == (1,)
            assert got[0] == want

    def test_wrong_rank_rejected_naming_the_shape(self):
        rng = np.random.default_rng(73)
        fc_net, _ = self.network_and_input(False, rng)
        conv_net, _ = self.network_and_input(True, rng)
        for net, shape in ((fc_net, (2, 1, 5, 4)), (conv_net, (5, 2, 6))):
            x = rng.standard_normal(shape)
            for call in (
                lambda: L.forward(net.layers, x),
                lambda: B.propagate_prefix(net, x, 0.1),
            ):
                with pytest.raises(ValueError, match=re.escape(str(shape))):
                    call()


class TestConvPrefixSoundness:
    def test_conv_pool_batchnorm_prefix_contains_perturbations(self):
        # batchnorm is frozen to the center batch's affine, and the perturbed
        # forward replays the same statistics
        rng = np.random.default_rng(12)
        net = L.Network(
            [
                L.init_conv(2, 3, 3, rng),
                L.batchnorm(3),
                L.relu(),
                L.maxpool(2),
                L.flatten(),
            ],
            split_index=5,
        )
        x = rng.standard_normal((4, 2, 6, 6))
        eps = 0.1
        res = B.propagate_prefix(net, x, eps).values()
        stats = []
        L.forward(net.prefix, x, stats_out=stats)
        for _ in range(100):
            delta = rng.uniform(-eps, eps, size=x.shape)
            y = L.forward(net.prefix, x + delta, frozen_stats=stats)
            assert np.all(y >= res.box.lower - 1e-9)
            assert np.all(y <= res.box.upper + 1e-9)


def kernel_split_conv_box(layer, box, weight, bias):
    """The positive/negative kernel-split conv box that the center/radius
    rule replaced: four convolutions."""
    from fewshot_ibp import tensor as T

    w_pos = T.relu(weight)
    w_neg = T.sub(weight, w_pos)
    zero_b = np.zeros(np.shape(T.value_of(bias)))
    lo, up, s = box.lower, box.upper, layer.stride
    return B.IntervalTensor(
        T.add(T.conv2d(lo, w_pos, bias, s), T.conv2d(up, w_neg, zero_b, s)),
        T.add(T.conv2d(up, w_pos, bias, s), T.conv2d(lo, w_neg, zero_b, s)),
    )


def random_conv(rng, in_c, stride=1):
    layer = L.init_conv(in_c, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng, stride=stride)
    return L.conv(layer.weight, rng.standard_normal(layer.bias.shape), stride=stride)


def random_batchnorm(rng, channels):
    # scales of both signs, so the radius must go through |scale|
    return L.batchnorm(
        channels, gamma=rng.uniform(0.5, 2.0, channels) * rng.choice([-1.0, 1.0], channels),
        beta=rng.standard_normal(channels),
    )


class TestAffineBoxRule:
    """Every affine box (fc, conv, batchnorm) goes through the one
    center/radius rule; conv is checked against the kernel split it replaced,
    and conv and batchnorm boxes are held to the soundness (1e-9) and face
    exactness criteria."""

    @pytest.mark.parametrize("per_task", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_box_equals_kernel_split(self, stride, per_task):
        from fewshot_ibp import tensor as T

        rng = np.random.default_rng(60 + stride)
        layer = random_conv(rng, 2, stride)
        x = rng.standard_normal((3, 4, 2, 7, 7) if per_task else (4, 2, 7, 7))
        lead = (3,) if per_task else ()
        w = layer.weight + 0.1 * rng.standard_normal(lead + layer.weight.shape)
        b = layer.bias + 0.1 * rng.standard_normal(lead + layer.bias.shape)
        radius = rng.uniform(0.05, 0.5, x.shape)

        def run(rule):
            tape = T.Tape()
            leaves = [tape.leaf(a) for a in (x - radius, x + radius, w, b)]
            box = rule(B.IntervalTensor(*leaves[:2]), *leaves[2:])
            c = np.random.default_rng(64).standard_normal((2,) + box.lower.shape)
            loss = T.add(
                T.sum_(T.mul(T.mul(box.lower, box.lower), c[0])),
                T.sum_(T.mul(T.mul(box.upper, box.upper), c[1])),
            )
            grads = tape.backward(loss, leaves)
            return [box.lower.value, box.upper.value] + [grads[n] for n in leaves]

        got = run(lambda box, w, b: B.propagate_layer(layer, box, w, b))
        want = run(lambda box, w, b: kernel_split_conv_box(layer, box, w, b))
        for g, ref in zip(got, want):
            np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("centered,convolutions", [(True, 1), (False, 2)])
    def test_conv_box_convolutions(self, monkeypatch, centered, convolutions):
        # a centered box maps its center with the forward pass's convolution
        # and its radius in closed form; any other box takes two convolutions
        calls = []
        for module in (B, L):
            conv2d = module.conv2d
            monkeypatch.setattr(
                module, "conv2d", lambda *a, _conv=conv2d, **k: calls.append(1) or _conv(*a, **k)
            )
        rng = np.random.default_rng(65)
        x = rng.standard_normal((2, 2, 5, 5))
        box = B.epsilon_box(x, 0.1) if centered else B.IntervalTensor(x - 0.1, x + 0.1)
        B.propagate_layer(random_conv(rng, 2), box)
        assert len(calls) == convolutions

    def test_conv_and_batchnorm_boxes_are_sound(self):
        rng = np.random.default_rng(66)
        worst = 0.0
        for trial in range(20):
            in_c = int(rng.integers(1, 3))
            conv = random_conv(rng, in_c, stride=int(rng.integers(1, 3)))
            layers = [conv, random_batchnorm(rng, conv.weight.shape[0])]
            if trial % 2:
                layers += [L.relu(), L.maxpool(2, stride=1)]
            net = L.Network(layers, split_index=len(layers))
            x = rng.standard_normal((5, in_c, 7, 7))
            stats = []
            L.forward(net.prefix, x, stats_out=stats)
            for eps in (0.05, 0.1, 0.2):
                res = B.propagate_prefix(net, x, eps).values()
                delta = rng.uniform(-eps, eps, size=(50,) + x.shape)
                # the perturbed batches replay the center batch's statistics
                y = np.stack([L.forward(net.prefix, x + d, frozen_stats=stats) for d in delta])
                worst = max(worst, np.max(res.box.lower - y), np.max(y - res.box.upper))
        assert worst <= 1e-9

    def test_conv_faces_attained_by_corners(self):
        rng = np.random.default_rng(67)
        worst = 0.0
        for _ in range(10):
            in_c = int(rng.integers(1, 3))
            layer = random_conv(rng, in_c)
            side = 2 if in_c == 2 else 3  # at most 9 input coordinates
            layer = L.conv(layer.weight[..., :side, :side], layer.bias)
            x = rng.standard_normal((1, in_c, side, side))
            box = B.IntervalTensor(x - rng.uniform(0.05, 1.0, x.shape), x + 0.3)
            out = B.propagate_layer(layer, box)
            corners = corner_images(
                lambda c: L.forward([layer], c).ravel(), box.lower, box.upper
            )
            worst = max(
                worst,
                np.max(np.abs(corners.min(axis=0) - out.lower.ravel())),
                np.max(np.abs(corners.max(axis=0) - out.upper.ravel())),
            )
        assert worst <= 1e-9

    @pytest.mark.parametrize("spatial", [False, True])
    def test_batchnorm_faces_attained_by_corners(self, spatial):
        rng = np.random.default_rng(68)
        worst = 0.0
        for _ in range(10):
            channels = int(rng.integers(1, 4))
            layer = random_batchnorm(rng, channels)
            x = rng.standard_normal((2, channels, 1, 1) if spatial else (2, channels))
            stats = L.batch_stats(x, layer)
            box = B.IntervalTensor(x - rng.uniform(0.05, 1.0, x.shape), x + 0.2)
            out = B.propagate_layer(layer, box, frozen_stats=stats)
            corners = corner_images(
                lambda c: L.apply_layer(layer, c, frozen_stats=stats).ravel(),
                box.lower, box.upper,
            )
            worst = max(
                worst,
                np.max(np.abs(corners.min(axis=0) - out.lower.ravel())),
                np.max(np.abs(corners.max(axis=0) - out.upper.ravel())),
            )
        assert worst <= 1e-9


def random_fc(rng, in_dim, out_dim):
    return L.fully_connected(rng.standard_normal((out_dim, in_dim)), rng.standard_normal(out_dim))


def random_kernel_conv(rng, in_c, out_c, kernel):
    return L.conv(rng.standard_normal((out_c, in_c, kernel, kernel)), rng.standard_normal(out_c))


def centered_prefix(kind, rng):
    """A prefix that keeps its box centered through its leading affine
    layers, then ends the run, and an input batch for it: fc→fc→batchnorm,
    conv→conv→batchnorm, or batchnorm first."""
    if kind == "fc":
        layers = [random_fc(rng, 4, 6), random_fc(rng, 6, 5), random_batchnorm(rng, 5),
                  L.relu(), random_fc(rng, 5, 3)]
        shape = (5, 4)
    elif kind == "conv":
        layers = [random_kernel_conv(rng, 2, 3, 3), random_kernel_conv(rng, 3, 2, 2),
                  random_batchnorm(rng, 2), L.relu(), L.maxpool(2), L.flatten()]
        shape = (4, 2, 7, 7)
    else:  # batchnorm first
        layers = [random_batchnorm(rng, 2), random_kernel_conv(rng, 2, 3, 2), L.relu(),
                  L.maxpool(2)]
        shape = (4, 2, 5, 5)
    return L.Network(layers, split_index=len(layers)), rng.standard_normal(shape)


def faces_rule_prefix(net, x, eps, params=None):
    """The clean activation and the box of a prefix by the faces rule
    alone: the box carries no center, and each layer maps its faces."""
    center, box = x, B.IntervalTensor(x - eps, x + eps)
    for i, layer in enumerate(net.prefix):
        entry = params[i] if params is not None else {}
        w, b = entry.get("weight"), entry.get("bias")
        frozen = L.batch_stats(center, layer) if layer.kind == "batchnorm" else None
        center = L.apply_layer(layer, center, weight=w, bias=b, frozen_stats=frozen)
        box = B.propagate_layer(layer, box, weight=w, bias=b, frozen_stats=frozen)
    return center, box


PREFIX_KINDS = ("fc", "conv", "batchnorm_first")


class TestCenteredBox:
    """A centered box, ``epsilon_box`` and the images of its leading affine
    layers, against the faces rule it replaced."""

    @staticmethod
    def faces_loss(faces, rng_seed=80):
        c = np.random.default_rng(rng_seed).standard_normal(T.value_of(faces).shape)
        return T.sum_(T.mul(T.mul(faces, faces), c))

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("kind", PREFIX_KINDS)
    def test_box_matches_faces_rule(self, kind, shared):
        rng = np.random.default_rng(81)
        net, x = centered_prefix(kind, rng)
        x = x + 0.3 * rng.standard_normal((3,) + x.shape)  # a stack of 3 tasks
        arrays = [
            {name: arr if shared else arr + 0.1 * rng.standard_normal((3,) + arr.shape)
             for name, arr in layer.param_items()}
            for layer in net.prefix
        ]

        def run(rule):
            tape = T.Tape()
            params = [{name: tape.leaf(a) for name, a in entry.items()} for entry in arrays]
            center, box = rule(net, x, 0.1, params)
            leaves = [p for entry in params for p in entry.values()]
            grads = tape.backward(self.faces_loss(box.faces), leaves)
            return [center.value, box.faces.value] + [grads[p] for p in leaves]

        def centered(net, x, eps, params):
            res = B.propagate_prefix(net, x, eps, params=params)
            return res.center, res.box

        for got, want in zip(run(centered), run(faces_rule_prefix), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", PREFIX_KINDS)
    def test_box_is_sound(self, kind):
        rng = np.random.default_rng(82)
        worst = 0.0
        for _ in range(5):
            net, x = centered_prefix(kind, rng)
            stats = []
            L.forward(net.prefix, x, stats_out=stats)
            for eps in (0.05, 0.2):
                res = B.propagate_prefix(net, x, eps).values()
                # uniform draws and corners of the box
                delta = rng.uniform(-eps, eps, size=(40,) + x.shape)
                delta[20:] = eps * np.sign(delta[20:])
                y = np.stack([L.forward(net.prefix, x + d, frozen_stats=stats) for d in delta])
                worst = max(worst, np.max(res.box.lower - y), np.max(y - res.box.upper))
        assert worst <= 1e-9

    # affine chains that keep the box centered throughout: each radius node
    # feeds the next (a vector radius into fc, conv and batchnorm)
    CHAINS = {
        "fc_fc_batchnorm": ((4, 3), lambda rng: [random_fc(rng, 3, 4), random_fc(rng, 4, 3),
                                                 random_batchnorm(rng, 3)]),
        "conv_conv_batchnorm": ((3, 2, 5, 5), lambda rng: [
            random_kernel_conv(rng, 2, 2, 2), random_kernel_conv(rng, 2, 2, 2),
            random_batchnorm(rng, 2)]),
        "batchnorm_conv": ((3, 2, 4, 4), lambda rng: [
            random_batchnorm(rng, 2), random_kernel_conv(rng, 2, 2, 2)]),
    }

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_radius_nodes_match_finite_differences(self, chain):
        # first order against central differences of the loss, second order
        # (a Hessian-vector product through the graph-mode gradients)
        # against central differences of the gradient; the batchnorm
        # statistics stay those of the clean pass at the base parameters
        rng = np.random.default_rng(83)
        shape, make = self.CHAINS[chain]
        layers = make(rng)
        x = rng.standard_normal(shape)
        stats = []
        L.forward(layers, x, stats_out=stats)
        base = [arr.copy() for layer in layers for _, arr in layer.param_items()]

        def loss_node(arrays):
            box, it, frozen = B.epsilon_box(x, 0.1), iter(arrays), iter(stats)
            for layer in layers:
                w, b = next(it), next(it)
                f = next(frozen) if layer.kind == "batchnorm" else None
                box = B.propagate_layer(layer, box, w, b, frozen_stats=f)
                assert box.center is not None
            return self.faces_loss(box.faces)

        def gradients(arrays, build_graph=False):
            tape = T.Tape()
            leaves = [tape.leaf(a) for a in arrays]
            grads = tape.backward(loss_node(leaves), leaves, build_graph=build_graph)
            return tape, leaves, [grads[p] for p in leaves]

        _, _, first = gradients(base)
        want = [fd_gradient(lambda arrays: float(loss_node(arrays)), base, k)
                for k in range(len(base))]
        for got, ref in zip(first, want, strict=True):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5)

        v = [rng.standard_normal(a.shape) for a in base]
        tape, leaves, grads = gradients(base, build_graph=True)
        gv = [T.sum_(T.mul(g, vi)) for g, vi in zip(grads, v) if isinstance(g, T.Node)]
        s = gv[0]
        for term in gv[1:]:
            s = T.add(s, term)
        hv = tape.backward(s, leaves)
        h = 1e-5
        plus = gradients([a + h * vi for a, vi in zip(base, v)])[2]
        minus = gradients([a - h * vi for a, vi in zip(base, v)])[2]
        for p, gp, gm in zip(leaves, plus, minus, strict=True):
            np.testing.assert_allclose(hv[p], (gp - gm) / (2 * h), rtol=0, atol=1e-5)

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("kind", PREFIX_KINDS)
    def test_task_stack_slices_equal_single_task_calls(self, kind, shared):
        rng = np.random.default_rng(84)
        net, x = centered_prefix(kind, rng)
        x = x + 0.3 * rng.standard_normal((4,) + x.shape)
        params = None if shared else TestTaskAxisBounds.per_task_params(net, 4, rng)
        res = B.propagate_prefix(net, x, 0.1, params=params)
        for t in range(4):
            task_params = None if shared else [
                {name: arr[t] for name, arr in entry.items()} for entry in params
            ]
            ref = B.propagate_prefix(net, x[t], 0.1, params=task_params)
            np.testing.assert_array_equal(res.center[t], ref.center)
            np.testing.assert_array_equal(res.box.faces[:, t], ref.box.faces)

    @pytest.mark.parametrize("kind", PREFIX_KINDS)
    def test_leading_affine_layers_keep_the_center(self, kind):
        # each centered image is two nodes, the clean pass and the radius;
        # its faces are a third when read, as they are below. The box
        # carries the clean activation as its center
        rng = np.random.default_rng(85)
        net, x = centered_prefix(kind, rng)
        box = B.epsilon_box(x, 0.1)
        assert box.center is x and box.radius == 0.1
        center, tape = x, T.Tape()
        for layer in net.prefix:
            params = {name: tape.leaf(arr) for name, arr in layer.param_items()}
            frozen = L.batch_stats(center, layer) if layer.kind == "batchnorm" else None
            recorded = len(tape)
            center = L.apply_layer(layer, center, frozen_stats=frozen)
            if box.center is None or layer.kind not in L.AFFINE_KINDS:
                break
            box = B.propagate_layer(layer, box, frozen_stats=frozen, **params)
            assert len(tape) - recorded == 2
            np.testing.assert_array_equal(box.center.value, center)
            radius = box.radius.value.reshape((-1, 1, 1) if center.ndim == 4 else -1)
            np.testing.assert_array_equal(box.faces.value, [center - radius, center + radius])

    @pytest.mark.parametrize("layer,shape", [(L.relu(), (3, 4)), (L.flatten(), (2, 3, 4, 4))])
    def test_relu_and_flatten_end_the_centered_run(self, layer, shape):
        rng = np.random.default_rng(86)
        x = rng.standard_normal(shape)
        out = B.propagate_layer(layer, B.epsilon_box(x, 0.1))
        assert out.center is None and out.radius is None
        assert out.values().center is None
        # an affine layer after it takes the faces rule
        width = out.lower.reshape(shape[0], -1).shape[-1]
        after = B.propagate_layer(random_fc(rng, width, 2), B.IntervalTensor(
            out.lower.reshape(shape[0], -1), out.upper.reshape(shape[0], -1)))
        assert after.center is None

    @pytest.mark.parametrize("radius", [0.1, np.array([0.05, 0.0, 0.2])])
    def test_maxpool_keeps_the_center(self, radius):
        # the pooled center with the same radius; its faces are the faces
        # rule's pool of center -/+ radius, bit for bit
        x = np.random.default_rng(86).standard_normal((2, 3, 4, 4))
        box = B.IntervalTensor.of(None, x, radius)
        out = B.propagate_layer(L.maxpool(2), box)
        np.testing.assert_array_equal(out.center, T.maxpool2d(x, 2))
        assert out.radius is radius
        want = B.propagate_layer(L.maxpool(2), B.IntervalTensor(box.lower, box.upper))
        assert want.center is None
        assert out.faces.tobytes() == want.faces.tobytes()

    @pytest.mark.parametrize("kind", PREFIX_KINDS)
    def test_prefix_calls_each_layer_function_once_per_layer(self, kind, monkeypatch):
        # propagate_layer materializes every layer's box, and the clean pass
        # runs once per layer: inside it for a centered box, beside it
        # otherwise; in execution order, where a relu runs after the max
        # pool that follows it
        calls = {"propagate_layer": [], "apply_layer": []}
        for name in calls:
            fn = getattr(B, name)
            monkeypatch.setattr(
                B, name,
                lambda layer, *a, _fn=fn, _name=name, **k: calls[_name].append(layer.kind)
                or _fn(layer, *a, **k),
            )
        net, x = centered_prefix(kind, np.random.default_rng(87))
        res = B.propagate_prefix(net, x, 0.1)
        kinds = " ".join(layer.kind for layer in net.prefix)
        run = kinds.replace("relu maxpool2d", "maxpool2d relu").split()
        assert "maxpool2d" not in kinds or run != kinds.split()
        assert calls == {"propagate_layer": run, "apply_layer": run}
        np.testing.assert_array_equal(res.center, L.forward(net.prefix, x))
