"""Bound losses, dynamic weighting, total loss, and the radius schedule."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewshot_ibp import bounds as B
from fewshot_ibp import layers as L
from fewshot_ibp import objective as O
from fewshot_ibp import tensor as T

finite_losses = st.floats(min_value=0.0, max_value=50.0)


class TestBoundLosses:
    def test_degenerate_boxes_give_zero(self):
        c = np.array([[1.0, -2.0], [0.5, 3.0]])
        l_lb, l_ub = O.bound_losses(c, B.IntervalTensor(c.copy(), c.copy()))
        assert float(l_lb) == 0.0
        assert float(l_ub) == 0.0

    def test_single_query_hand_value(self):
        # center (0,0), faces (-1,-1)/(1,1): squared distance 2 to each
        c = np.zeros((1, 2))
        box = B.IntervalTensor(np.full((1, 2), -1.0), np.full((1, 2), 1.0))
        l_lb, l_ub = O.bound_losses(c, box)
        assert float(l_lb) == pytest.approx(2.0)
        assert float(l_ub) == pytest.approx(2.0)

    def test_mean_over_queries(self):
        # per-instance lower-face losses 2 and 4 average to 3
        c = np.zeros((2, 2))
        lower = np.array([[-1.0, -1.0], [2.0, 0.0]])
        l_lb, _ = O.bound_losses(c, B.IntervalTensor(lower, np.full((2, 2), 2.0)))
        assert float(l_lb) == pytest.approx((2.0 + 4.0) / 2)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            O.bound_losses(
                np.zeros((2, 2)),
                B.IntervalTensor(np.zeros((3, 2)), np.ones((3, 2))),
            )

    def test_task_axis_gives_each_task_its_own_losses(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((3, 5, 4))
        box = B.IntervalTensor(c - rng.uniform(0, 1, c.shape), c + rng.uniform(0, 1, c.shape))
        l_lb, l_ub = O.bound_losses(c, box)
        for t in range(3):
            ref = O.bound_losses(c[t], B.IntervalTensor(box.lower[t], box.upper[t]))
            assert l_lb[t] == ref[0] and l_ub[t] == ref[1]


class TestDynamicWeights:
    def test_equal_losses_exact_thirds(self):
        w = O.dynamic_weights((1.7, 1.7, 1.7), gamma=0.3)
        for v in w.as_tuple():
            assert abs(v - 1.0 / 3.0) < 1e-12

    def test_frozen_scalar_oracle_value(self):
        # softmax of (2,1,1)/1: e^2/(e^2 + 2e) = e/(e+2) = 0.57611688...
        e = math.e
        expected0 = e / (e + 2.0)
        expected1 = 1.0 / (e + 2.0)
        assert expected0 == pytest.approx(0.57612, abs=5e-6)
        w = O.dynamic_weights((2.0, 1.0, 1.0), gamma=1.0)
        assert w.w_ce == pytest.approx(expected0, rel=1e-12)
        assert w.w_lb == pytest.approx(expected1, rel=1e-12)
        assert w.w_ub == pytest.approx(expected1, rel=1e-12)
        assert w.w_ce == pytest.approx(0.57612, abs=1e-5)
        assert w.w_lb == pytest.approx(0.21194, abs=1e-5)

    def test_huge_gamma_flattens(self):
        w = O.dynamic_weights((2.0, 1.0, 1.0), gamma=1e6)
        for v in w.as_tuple():
            assert abs(v - 1.0 / 3.0) < 1e-6

    def test_non_positive_gamma_rejected(self):
        for g in (0.0, -1.0):
            with pytest.raises(ValueError):
                O.dynamic_weights((1.0, 1.0, 1.0), gamma=g)

    @given(a=finite_losses, b=finite_losses, c=finite_losses,
           gamma=st.floats(min_value=1e-2, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_simplex_and_shift_invariance(self, a, b, c, gamma):
        w = O.dynamic_weights((a, b, c), gamma)
        t = w.as_tuple()
        # mathematically in (0,1); float64 may round extremes to exactly 0 or 1
        assert all(0.0 <= v <= 1.0 for v in t)
        assert abs(sum(t) - 1.0) < 1e-12
        shifted = O.dynamic_weights((a + 5.0, b + 5.0, c + 5.0), gamma)
        for v1, v2 in zip(t, shifted.as_tuple()):
            assert abs(v1 - v2) < 1e-12

    def test_weight_increases_in_own_loss(self):
        base = O.dynamic_weights((1.0, 1.0, 1.0), gamma=0.5).w_lb
        bigger = O.dynamic_weights((1.0, 2.0, 1.0), gamma=0.5).w_lb
        assert bigger > base

    def test_strictly_inside_simplex_at_moderate_scales(self):
        for triple in ((0.0, 1.0, 2.0), (3.0, 3.0, 0.5), (10.0, 0.0, 5.0)):
            for v in O.dynamic_weights(triple, gamma=1.0).as_tuple():
                assert 0.0 < v < 1.0


class TestTotalLoss:
    def test_vertex_weight_selects_one_loss(self):
        losses = O.LossTriple(1.5, 7.0, 9.0)
        total = O.total_loss(losses, O.WeightTriple(1.0, 0.0, 0.0))
        assert float(total) == pytest.approx(1.5)

    def test_uniform_weights_hand_value(self):
        total = O.total_loss(
            O.LossTriple(3.0, 0.0, 0.0),
            O.WeightTriple(1 / 3, 1 / 3, 1 / 3),
        )
        assert float(total) == pytest.approx(1.0)

    @given(scale=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_loss_scale(self, scale):
        w = O.WeightTriple(0.5, 0.25, 0.25)
        base = float(O.total_loss(O.LossTriple(1.0, 2.0, 3.0), w))
        scaled = float(O.total_loss(O.LossTriple(scale, 2 * scale, 3 * scale), w))
        assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-12)

    def test_simplex_violation_rejected(self):
        with pytest.raises(ValueError):
            O.total_loss(O.LossTriple(1.0, 1.0, 1.0), O.WeightTriple(0.5, 0.5, 0.5))

    def test_per_task_weights_combine_each_task_alone(self):
        losses = O.LossTriple(np.array([1.0, 2.0]), np.array([3.0, 0.5]), 0.0)
        weights = [O.WeightTriple(0.5, 0.25, 0.25), O.WeightTriple(1.0, 0.0, 0.0)]
        total = O.total_loss(losses, weights)
        for t, (task_losses, w) in enumerate(zip(losses.per_task(2), weights)):
            assert total[t] == O.total_loss(task_losses, w)
        assert losses.per_task(2)[1].values() == (2.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            O.total_loss(losses, [weights[0], O.WeightTriple(0.5, 0.5, 0.5)])

    def test_gradient_with_frozen_weights_matches_finite_differences(self):
        from fewshot_ibp.learners import cross_entropy
        from test_tensor import fd_gradient, randomize_biases

        rng = np.random.default_rng(21)
        net = L.Network(
            [L.init_fully_connected(4, 6, rng), L.relu(), L.init_fully_connected(6, 3, rng)],
            split_index=2,
        )
        randomize_biases(net, rng)
        x = rng.standard_normal((5, 4))
        labels = rng.integers(0, 3, size=5)
        eps = 0.1
        frozen = O.WeightTriple(0.5, 0.2, 0.3)

        def compute(arrays_or_params, taped):
            if taped:
                tape = T.Tape()
                params = [
                    {name: tape.leaf(arr) for name, arr in layer.param_items()}
                    for layer in net.layers
                ]
            else:
                tape, params = None, arrays_or_params
            res = B.propagate_prefix(net, x, eps, params=params[: net.split_index] if params else None)
            emb = L.forward(net.head, res.center, params=params[net.split_index :] if params else None)
            l_ce = cross_entropy(emb, labels)
            l_lb, l_ub = O.bound_losses(res.center, res.box)
            total = O.total_loss(O.LossTriple(l_ce, l_lb, l_ub), frozen)
            return total, tape, params

        def loss_fn(arrays):
            trial = copy.deepcopy(net)
            trial.set_parameter_arrays(arrays)
            res = B.propagate_prefix(trial, x, eps)
            emb = L.forward(trial.head, res.center)
            l_ce = cross_entropy(emb, labels)
            l_lb, l_ub = O.bound_losses(res.center, res.box)
            return float(T.value_of(O.total_loss(O.LossTriple(l_ce, l_lb, l_ub), frozen)))

        total, tape, params = compute(None, taped=True)
        flat = L.param_nodes_to_list(params)
        grads = tape.backward(total, flat)
        arrays = net.parameter_arrays()
        for idx, node in enumerate(flat):
            fd = fd_gradient(loss_fn, arrays, idx)
            scale = max(np.max(np.abs(fd)), 1e-6)
            assert np.max(np.abs(grads[node] - fd)) / scale < 1e-5


class TestEpsilonSchedule:
    def test_starts_at_zero(self):
        assert O.epsilon_schedule(0, 1000, 0.2) == 0.0

    def test_midpoint_of_ramp(self):
        t_max = 1000
        assert O.epsilon_schedule(450, t_max, 0.2) == pytest.approx(0.1)

    def test_ends_at_target(self):
        for t_max in (5, 9, 10, 100, 1000):
            assert O.epsilon_schedule(t_max, t_max, 0.3) == pytest.approx(0.3)

    def test_plateau_after_ninety_percent(self):
        assert O.epsilon_schedule(901, 1000, 0.2) == 0.2
        assert O.epsilon_schedule(999, 1000, 0.2) == 0.2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            O.epsilon_schedule(11, 10, 0.1)
        with pytest.raises(ValueError):
            O.epsilon_schedule(-1, 10, 0.1)
        with pytest.raises(ValueError):
            O.epsilon_schedule(0, 0, 0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            O.epsilon_schedule(1, 10, eps)

    @given(t_max=st.integers(min_value=1, max_value=5000),
           eps=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_non_decreasing_never_exceeds_target(self, t_max, eps):
        values = [O.epsilon_schedule(t, t_max, eps) for t in range(0, t_max + 1)]
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(eps)
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert all(v <= eps + 1e-15 for v in values)

    def test_continuous_at_plateau_boundary(self):
        t_max, eps = 1000, 0.2
        boundary = math.ceil(0.9 * t_max)
        gap = abs(O.epsilon_schedule(boundary + 1, t_max, eps) - O.epsilon_schedule(boundary, t_max, eps))
        assert gap <= eps / (0.9 * t_max) + 1e-15
