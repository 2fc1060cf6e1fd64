"""Bound-based task interpolation and the mixup ablation modes."""

import math

import numpy as np
import pytest

from fewshot_ibp import bounds as B
from fewshot_ibp import harness as H
from fewshot_ibp import interpolation as I
from fewshot_ibp import layers as L
from fewshot_ibp import tensor as T
from fewshot_ibp.config import RunConfig
from fewshot_ibp.episodes import TaskSpec, sample_task, synth_dataset


def make_net(rng, in_dim=4, hidden=6, out=3):
    return L.Network(
        [
            L.init_fully_connected(in_dim, hidden, rng),
            L.relu(),
            L.init_fully_connected(hidden, out, rng),
        ],
        split_index=2,
    )


def make_task(seed=0, ways=3, shots=2, queries=4, dim=4):
    ds = synth_dataset(6, 12, (dim,), 2.0, 0.6, seed=seed)
    return sample_task(ds, TaskSpec(ways, shots, queries), np.random.default_rng(seed))


def interp_config(**overrides):
    layers = [{"kind": "fully_connected", "in": 4, "out": 3}]
    return RunConfig(learner="maml", objective="ibpi", layers=layers, **overrides)


def draw_tasks(cfg, seed, n_tasks=3):
    """One MAML training step's tasks and interpolation, drawn by the harness."""
    ds = synth_dataset(6, 16, (4,), 2.0, 0.6, seed=seed)
    rngs = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    return H._draw_tasks("maml", n_tasks, ds, cfg, *rngs, None)


class TestSampleMix:
    @pytest.mark.parametrize("alpha,beta", [(0.1, 1.0), (0.25, 1.0), (0.5, 0.5)])
    def test_beta_mean_for_recommended_pairs(self, alpha, beta):
        rng = np.random.default_rng(int(alpha * 100))
        draws = np.concatenate(
            [I.sample_mix(10, alpha, beta, rng).lam for _ in range(1000)]
        )
        assert abs(draws.mean() - alpha / (alpha + beta)) < 0.02

    def test_fair_face_choice(self):
        rng = np.random.default_rng(1)
        nus = np.concatenate([I.sample_mix(10, 0.5, 0.5, rng).nu for _ in range(1000)])
        assert abs(nus.mean() - 0.5) < 0.02

    def test_deterministic_in_rng(self):
        a = I.sample_mix(5, 0.5, 0.5, np.random.default_rng(9))
        b = I.sample_mix(5, 0.5, 0.5, np.random.default_rng(9))
        np.testing.assert_array_equal(a.lam, b.lam)
        np.testing.assert_array_equal(a.nu, b.nu)

    def test_non_positive_parameters_rejected(self):
        rng = np.random.default_rng(0)
        for alpha, beta in ((0.0, 1.0), (1.0, -2.0)):
            with pytest.raises(ValueError):
                I.sample_mix(3, alpha, beta, rng)

    @pytest.mark.parametrize(
        "alpha,beta,name",
        [(math.nan, 0.5, "alpha"), (0.5, math.nan, "beta"), (math.inf, 0.5, "alpha"),
         (0.5, math.inf, "beta")],
    )
    def test_non_finite_parameter_rejected_by_name(self, alpha, beta, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            I.sample_mix(3, alpha, beta, np.random.default_rng(0))


def one_row(lam, nu):
    return I.MixCoefficients(np.array([lam]), np.array([nu]))


def head_input(mode, net, task, side, coeffs, eps, pair=None, **kwargs):
    """The operator applied to the support or query set of ``task``."""
    return I.make_interpolated_task(
        mode,
        net,
        getattr(task, f"{side}_x"),
        getattr(task, f"{side}_y"),
        coeffs,
        None,
        eps,
        pair_x=None if pair is None else getattr(pair, f"{side}_x"),
        **kwargs,
    )


class TestInterpolate:
    box = B.IntervalTensor(np.array([[0.0]]), np.array([[4.0]]))

    def test_lam_zero_is_center(self):
        out = I.interpolate_batch(np.array([[2.0]]), self.box, [0], one_row(0.0, 1))
        np.testing.assert_array_equal(out, [[2.0]])

    def test_lam_one_reaches_chosen_face(self):
        for nu, face in ((1, 4.0), (0, 0.0)):
            out = I.interpolate_batch(np.array([[2.0]]), self.box, [0], one_row(1.0, nu))
            np.testing.assert_array_equal(out, [[face]])

    def test_halfway_toward_lower(self):
        box = B.IntervalTensor(np.array([[0.0]]), np.array([[5.0]]))
        out = I.interpolate_batch(np.array([[2.0]]), box, [0], one_row(0.5, 0))
        np.testing.assert_array_equal(out, [[1.0]])

    def test_lam_outside_unit_interval_rejected(self):
        for lam in (-0.1, 1.1):
            with pytest.raises(ValueError):
                one_row(lam, 0)

    def test_nan_weight_and_bad_face_rejected(self):
        with pytest.raises(ValueError, match="mixing weights"):
            one_row(math.nan, 0)
        for nu in (2, -1):
            with pytest.raises(ValueError, match="face choices"):
                one_row(0.5, nu)


class TestMakeInterpolatedTask:
    def test_zero_eps_reproduces_embeddings(self):
        # degenerate boxes: the mix target equals the center, so any lam is a
        # no-op up to float rounding of (1-lam)*c + lam*c
        rng = np.random.default_rng(2)
        net = make_net(rng)
        task = make_task(seed=3)
        coeffs = I.sample_mix(task.ways, 0.5, 0.5, rng)
        for side in ("support", "query"):
            h = head_input("ibpi", net, task, side, coeffs, 0.0)
            emb = L.forward(net.prefix, getattr(task, f"{side}_x"))
            np.testing.assert_allclose(T.value_of(h), emb, atol=1e-14)

    def test_zero_lam_reproduces_embeddings_bit_exactly(self):
        rng = np.random.default_rng(2)
        net = make_net(rng)
        task = make_task(seed=3)
        coeffs = I.MixCoefficients(
            lam=np.zeros(task.ways), nu=np.ones(task.ways, dtype=int)
        )
        for mode in I.BOUND_MODES:
            for side in ("support", "query"):
                h = head_input(mode, net, task, side, coeffs, 0.4)
                emb = L.forward(net.prefix, getattr(task, f"{side}_x"))
                np.testing.assert_array_equal(T.value_of(h), emb)

    @pytest.mark.parametrize("mode", I.MODES)
    def test_task_axis_rows_match_per_task_calls(self, mode):
        # a stack of 3 tasks: task 1 has zero weights and mixes with itself,
        # so it gets its own embeddings back bit for bit
        rng = np.random.default_rng(7)
        net = make_net(rng)
        tasks = [make_task(seed=s) for s in (11, 12, 13)]
        pairs = [make_task(seed=s) for s in (21, 22, 23)]
        pairs[1] = tasks[1]
        coeffs = [I.sample_mix(3, 0.5, 0.5, rng) for _ in tasks]
        coeffs[1] = I.MixCoefficients(np.zeros(3), np.ones(3, dtype=int))
        stacked = I.MixCoefficients(
            np.stack([c.lam for c in coeffs]), np.stack([c.nu for c in coeffs])
        )
        h = T.value_of(I.make_interpolated_task(
            mode, net, np.stack([t.query_x for t in tasks]),
            np.stack([t.query_y for t in tasks]), stacked, None, 0.3,
            pair_x=np.stack([p.query_x for p in pairs]),
        ))
        for t, (task, pair, c) in enumerate(zip(tasks, pairs, coeffs)):
            ref = T.value_of(head_input(mode, net, task, "query", c, 0.3, pair=pair))
            np.testing.assert_allclose(h[t], ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(h[1], L.forward(net.prefix, tasks[1].query_x))

    def test_outputs_stay_inside_source_boxes(self):
        rng = np.random.default_rng(4)
        net = make_net(rng)
        task = make_task(seed=5)
        for trial in range(10):
            coeffs = I.sample_mix(task.ways, 0.5, 0.5, rng)
            for side in ("support", "query"):
                h = T.value_of(head_input("ibpi", net, task, side, coeffs, 0.3))
                res = B.propagate_prefix(net, getattr(task, f"{side}_x"), 0.3).values()
                assert np.all(h >= res.box.lower - 1e-12)
                assert np.all(h <= res.box.upper + 1e-12)

    def test_labels_preserved(self):
        # each row moves with its own label's coefficients: class 0 to its
        # upper face, every other class stays put
        rng = np.random.default_rng(6)
        net = make_net(rng)
        task = make_task(seed=7, ways=5, shots=1)
        lam = np.zeros(5)
        lam[0] = 1.0
        coeffs = I.MixCoefficients(lam, np.ones(5, dtype=int))
        h = T.value_of(head_input("ibpi", net, task, "support", coeffs, 0.2))
        res = B.propagate_prefix(net, task.support_x, 0.2).values()
        moved = task.support_y == 0
        assert h.shape[0] == 5
        np.testing.assert_array_equal(h[moved], res.box.upper[moved])
        np.testing.assert_array_equal(h[~moved], res.center[~moved])

    def test_class_shares_coefficients_across_support_and_query(self):
        cfg = interp_config(shared_mix_coeffs=True)
        _, mix = draw_tasks(cfg, seed=8)
        np.testing.assert_array_equal(mix.query_coeffs.lam, mix.coeffs.lam)
        np.testing.assert_array_equal(mix.query_coeffs.nu, mix.coeffs.nu)
        assert mix.pair_support_x is None and mix.pair_query_x is None

    def test_independent_query_coefficients_differ(self):
        shared, split = (
            draw_tasks(interp_config(shared_mix_coeffs=flag), seed=3)[1] for flag in (True, False)
        )
        fired = shared.ce_weights[:, 1] > 0
        np.testing.assert_array_equal(shared.ce_weights, split.ce_weights)
        # the task that fired draws its support row first, so the two agree
        np.testing.assert_array_equal(shared.coeffs.lam, split.coeffs.lam)
        assert not np.array_equal(shared.query_coeffs.lam[fired], split.query_coeffs.lam[fired])
        for mix in (shared, split):  # the other tasks keep zero weights
            assert not mix.coeffs.lam[~fired].any() and not mix.query_coeffs.lam[~fired].any()

    def test_spread_grows_with_eps(self):
        rng = np.random.default_rng(12)
        net = make_net(rng)
        task = make_task(seed=13)
        spreads = []
        for eps in (0.0, 0.1, 0.3, 0.6):
            offsets = []
            draw = np.random.default_rng(99)
            center = L.forward(net.prefix, task.query_x)
            for _ in range(30):
                coeffs = I.sample_mix(task.ways, 0.5, 0.5, draw)
                h = head_input("ibpi", net, task, "query", coeffs, eps)
                offsets.append(T.value_of(h) - center)
            spreads.append(float(np.var(np.stack(offsets))))
        assert all(a <= b + 1e-12 for a, b in zip(spreads, spreads[1:]))

    def test_given_bounds_match_own_propagation(self):
        # boxes a caller already propagated on the tape give the result, and
        # the gradients, of letting the operator propagate them itself
        rng = np.random.default_rng(27)
        net = make_net(rng)
        task = make_task(seed=28)
        coeffs = I.sample_mix(task.ways, 0.5, 0.5, rng)
        results = []
        for reuse in (False, True):
            tape = T.Tape()
            params = [
                {name: tape.leaf(arr) for name, arr in layer.param_items()}
                for layer in net.prefix
            ]
            bounds = B.propagate_prefix(net, task.query_x, 0.3, params=params) if reuse else None
            h = I.make_interpolated_task(
                "ibpi", net, task.query_x, task.query_y, coeffs, params, 0.3, bounds=bounds
            )
            loss = T.sum_(T.mul(h, h))
            grads = tape.backward(loss, L.param_nodes_to_list(params))
            results.append((T.value_of(h), [grads[p] for p in L.param_nodes_to_list(params)]))
        (h_own, g_own), (h_given, g_given) = results
        np.testing.assert_array_equal(h_given, h_own)
        for a, b in zip(g_given, g_own):
            np.testing.assert_array_equal(a, b)

    def test_mixup_requires_pair_task(self):
        rng = np.random.default_rng(14)
        net = make_net(rng)
        task = make_task(seed=15)
        coeffs = I.sample_mix(task.ways, 0.5, 0.5, rng)
        for mode in ("mixup_input", "mixup_embedding"):
            with pytest.raises(ValueError):
                head_input(mode, net, task, "support", coeffs, 0.1)

    def test_mixup_zero_draw_is_identity(self):
        rng = np.random.default_rng(16)
        net = make_net(rng)
        task, pair = make_task(seed=17), make_task(seed=18)
        coeffs = I.MixCoefficients(
            lam=np.zeros(task.ways), nu=np.zeros(task.ways, dtype=int)
        )
        for side in ("support", "query"):
            h = head_input("mixup_input", net, task, side, coeffs, 0.1, pair=pair)
            emb = L.forward(net.prefix, getattr(task, f"{side}_x"))
            np.testing.assert_array_equal(T.value_of(h), emb)

    def test_mixup_embedding_mixes_prefix_outputs(self):
        rng = np.random.default_rng(19)
        net = make_net(rng)
        task, pair = make_task(seed=20, ways=2), make_task(seed=21, ways=2)
        coeffs = I.MixCoefficients(
            lam=np.array([0.5, 0.5]), nu=np.zeros(2, dtype=int)
        )
        h = head_input("mixup_embedding", net, task, "support", coeffs, 0.1, pair=pair)
        ea = L.forward(net.prefix, task.support_x)
        eb = L.forward(net.prefix, pair.support_x)
        np.testing.assert_allclose(T.value_of(h), 0.5 * ea + 0.5 * eb)

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(22)
        task = make_task()
        coeffs = I.sample_mix(task.ways, 0.5, 0.5, rng)
        with pytest.raises(ValueError):
            head_input("cutmix", make_net(rng), task, "support", coeffs, 0.1, pair=task)


class TestShouldInterpolate:
    def test_maml_fires_exactly_once_per_batch(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            mask = I.should_interpolate("maml", 4, rng)
            assert mask.sum() == 1

    def test_maml_index_roughly_uniform(self):
        rng = np.random.default_rng(24)
        counts = np.zeros(4)
        n = 4000
        for _ in range(n):
            counts += I.should_interpolate("maml", 4, rng)
        assert np.all(np.abs(counts / n - 0.25) < 0.03)

    def test_protonet_rate_quarter(self):
        rng = np.random.default_rng(25)
        fires = sum(
            bool(I.should_interpolate("protonet", 1, rng)[0]) for _ in range(10_000)
        )
        assert abs(fires / 10_000 - 0.25) < 0.02

    def test_probability_zero_never_fires(self):
        rng = np.random.default_rng(26)
        for learner in ("maml", "protonet"):
            for _ in range(100):
                assert not I.should_interpolate(learner, 4, rng, probability=0.0).any()

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            I.should_interpolate("maml", 0, np.random.default_rng(0))

    @pytest.mark.parametrize("learner", ["maml", "protonet"])
    @pytest.mark.parametrize("probability", [math.nan, -0.5, 1.5])
    def test_probability_outside_unit_interval_rejected(self, learner, probability):
        with pytest.raises(ValueError, match="probability must lie in"):
            I.should_interpolate(learner, 4, np.random.default_rng(0), probability=probability)
