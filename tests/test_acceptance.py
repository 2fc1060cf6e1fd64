"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The criteria are property-based (bound soundness, exactness, gradient
correctness, objective algebra, interpolation geometry, determinism) plus
directional synthetic benchmarks (learning sanity, compactness direction,
non-inferiority of the bound-augmented variants, ablation parity).
"""

import copy
import itertools
import json
import math
import time

import numpy as np
import pytest

from fewshot_ibp import bounds as B
from fewshot_ibp import harness as H
from fewshot_ibp import interpolation as I
from fewshot_ibp import layers as L
from fewshot_ibp import objective as O
from fewshot_ibp import tensor as T
from fewshot_ibp.config import RunConfig, resolve_data
from fewshot_ibp.episodes import TaskSpec, sample_task, synth_dataset
from fewshot_ibp.learners import cross_entropy

from test_tensor import fd_gradient, randomize_biases

EPS_GRID = (0.05, 0.1, 0.2)

SYNTH_POOL = {
    "n_classes": 12,
    "per_class": 30,
    "shape": [8],
    "class_separation": 3.0,
    "noise_scale": 1.0,
}
POOL_LAYERS = [
    {"kind": "fully_connected", "in": 8, "out": 32},
    {"kind": "relu"},
    {"kind": "fully_connected", "in": 32, "out": 16},
]


def pool_config(**overrides):
    base = dict(
        learner="protonet",
        objective="vanilla",
        layers=POOL_LAYERS,
        split_index=2,
        data={
            "train": {"synth": {**SYNTH_POOL, "seed": 11, "role": "train"}},
            "test": {"synth": {**SYNTH_POOL, "seed": 13, "role": "test"}},
        },
        train_ways=5,
        train_shots=1,
        train_query_shots=15,
        eval_ways=5,
        eval_shots=1,
        eval_query_shots=15,
        max_steps=600,
        eval_interval=10_000,
        n_eval_tasks=240,
        epsilon=0.1,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


def _pass(n, message):
    print(f"\n[criterion {n:2d}] PASS - {message}")


def random_sound_network(rng):
    """2-4 layers drawn from {affine, conv2d, relu, maxpool2d}."""
    if rng.uniform() < 0.5:
        dim = int(rng.integers(3, 12))
        input_shape = (dim,)
        layers = []
        n_drawn = int(rng.integers(2, 5))
        for _ in range(n_drawn):
            kind = rng.choice(["affine", "relu"])
            if kind == "affine":
                out = int(rng.integers(2, 10))
                layers.append(L.init_fully_connected(dim, out, rng))
                dim = out
            else:
                layers.append(L.relu())
    else:
        c, hw = int(rng.integers(1, 4)), int(rng.integers(5, 9))
        input_shape = (c, hw, hw)
        layers = []
        n_drawn = int(rng.integers(2, 5))
        spatial = hw
        for _ in range(n_drawn):
            options = ["conv2d", "relu"]
            if spatial >= 2:
                options.append("maxpool2d")
            kind = rng.choice(options)
            if kind == "conv2d" and spatial >= 2:
                out_c = int(rng.integers(1, 5))
                k = int(rng.integers(1, min(3, spatial) + 1))
                layers.append(L.init_conv(c, out_c, k, rng))
                c = out_c
                spatial = spatial - k + 1
            elif kind == "maxpool2d":
                layers.append(L.maxpool(2, stride=2 if rng.uniform() < 0.5 else 1))
                spatial = (spatial - 2) // layers[-1].stride + 1
            else:
                layers.append(L.relu())
    return L.Network(layers, split_index=len(layers)), input_shape


class TestCriterion1BoundSoundness:
    def test_soundness_suite(self):
        started = time.monotonic()
        rng = np.random.default_rng(1001)
        violations = 0.0
        for _ in range(50):
            net, input_shape = random_sound_network(rng)
            x = rng.standard_normal((20, *input_shape))
            for eps in EPS_GRID:
                res = B.propagate_prefix(net, x, eps).values()
                deltas = rng.uniform(-eps, eps, size=(100, *x.shape))
                perturbed = (x[None] + deltas).reshape(-1, *input_shape)
                outputs = L.forward(net.prefix, perturbed)
                outputs = outputs.reshape(100, 20, *outputs.shape[1:])
                low = np.max(res.box.lower[None] - outputs)
                high = np.max(outputs - res.box.upper[None])
                violations = max(violations, low, high)
        elapsed = time.monotonic() - started
        assert violations <= 1e-9, f"containment violated by {violations}"
        assert elapsed < 60.0, f"soundness suite took {elapsed:.1f}s"
        _pass(1, f"0 violations > 1e-9 across 50 nets x 20 inputs x 100 "
                 f"perturbations x eps {EPS_GRID} in {elapsed:.1f}s")


class TestCriterion2PerLayerExactness:
    def test_affine_corner_enumeration_attains_faces(self):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(40):
            in_dim = int(rng.integers(1, 7))
            out_dim = int(rng.integers(1, 7))
            layer = L.fully_connected(
                rng.standard_normal((out_dim, in_dim)), rng.standard_normal(out_dim)
            )
            center = rng.standard_normal(in_dim)
            radius = rng.uniform(0.05, 1.5, size=in_dim)
            box = B.IntervalTensor((center - radius)[None], (center + radius)[None])
            out = B.propagate_layer(layer, box)
            corners = []
            for bits in itertools.product((0, 1), repeat=in_dim):
                corner = np.where(np.array(bits, dtype=bool), box.upper[0], box.lower[0])
                corners.append(corner @ layer.weight.T + layer.bias)
            corners = np.stack(corners)
            worst = max(
                worst,
                float(np.max(np.abs(corners.min(axis=0) - out.lower[0]))),
                float(np.max(np.abs(corners.max(axis=0) - out.upper[0]))),
            )
        assert worst <= 1e-9
        _pass(2, f"every affine output-box face attained by a corner "
                 f"(max gap {worst:.2e} <= 1e-9, dims <= 6)")


class TestCriterion3GradientSuite:
    def test_autodiff_vs_finite_differences(self):
        rng = np.random.default_rng(1003)
        worst = 0.0
        frozen = O.WeightTriple(0.5, 0.2, 0.3)
        for trial in range(100):
            mode = ("l_ce", "l_lb", "l_ub", "total")[trial % 4]
            hidden = int(rng.integers(3, 7))
            out_dim = int(rng.integers(2, 5))
            in_dim = int(rng.integers(2, 5))
            net = L.Network(
                [
                    L.init_fully_connected(in_dim, hidden, rng),
                    L.relu(),
                    L.init_fully_connected(hidden, out_dim, rng),
                ],
                split_index=2,
            )
            randomize_biases(net, rng)
            x = rng.standard_normal((4, in_dim))
            labels = rng.integers(0, out_dim, size=4)
            eps = float(rng.choice(EPS_GRID))

            def objective(trial_net, params=None):
                s = trial_net.split_index
                pp = params[:s] if params else None
                hp = params[s:] if params else None
                res = B.propagate_prefix(trial_net, x, eps, params=pp)
                logits = L.forward(trial_net.head, res.center, params=hp)
                l_ce = cross_entropy(logits, labels)
                l_lb, l_ub = O.bound_losses(res.center, res.box)
                if mode == "l_ce":
                    return l_ce
                if mode == "l_lb":
                    return l_lb
                if mode == "l_ub":
                    return l_ub
                return O.total_loss(O.LossTriple(l_ce, l_lb, l_ub), frozen)

            def loss_fn(arrays):
                tn = copy.deepcopy(net)
                tn.set_parameter_arrays(arrays)
                return float(T.value_of(objective(tn)))

            tape = T.Tape()
            params = [
                {name: tape.leaf(arr) for name, arr in layer.param_items()}
                for layer in net.layers
            ]
            loss = objective(net, params=params)
            flat = L.param_nodes_to_list(params)
            grads = tape.backward(loss, flat)
            arrays = net.parameter_arrays()
            for idx, node in enumerate(flat):
                fd = fd_gradient(loss_fn, arrays, idx, step=1e-5)
                scale = max(np.max(np.abs(fd)), 1e-6)
                worst = max(worst, float(np.max(np.abs(grads[node] - fd)) / scale))
        assert worst <= 1e-5
        _pass(3, f"100 trials over CE/bound/total losses: max relative "
                 f"gradient error {worst:.2e} <= 1e-5")


class TestCriterion4ObjectiveAlgebra:
    def test_weights_and_schedule_values(self):
        w_eq = O.dynamic_weights((1.3, 1.3, 1.3), gamma=0.7)
        assert all(abs(v - 1 / 3) < 1e-15 for v in w_eq.as_tuple())

        w = O.dynamic_weights((2.0, 1.0, 1.0), gamma=1.0)
        assert w.w_ce == pytest.approx(0.57612, abs=1e-5)
        assert w.w_lb == pytest.approx(0.21194, abs=1e-5)
        assert w.w_ub == pytest.approx(0.21194, abs=1e-5)

        for t_max in (10, 600, 2000):
            assert O.epsilon_schedule(0, t_max, 0.2) == 0.0
            assert O.epsilon_schedule(t_max, t_max, 0.2) == pytest.approx(0.2)
        _pass(4, "equal losses -> exact thirds; (2,1,1)@gamma=1 -> "
                 "(0.57612, 0.21194, 0.21194); schedule endpoints exact")


class TestCriterion5ProtonetSanity:
    def test_separable_pool_reaches_ninety_percent(self):
        started = time.monotonic()
        cfg = pool_config(max_steps=2000, n_eval_tasks=600)
        net, _, summary = H.train(cfg)
        elapsed = time.monotonic() - started
        assert summary["test_accuracy"] >= 0.90
        assert elapsed < 300.0
        _pass(5, f"vanilla prototype learner: {summary['test_accuracy']:.1%} mean "
                 f"accuracy over 600 tasks after 2000 steps in {elapsed:.0f}s")


class TestCriterion6CompactnessDirection:
    def test_bound_training_tightens_neighborhoods(self):
        spec = TaskSpec(5, 1, 15)
        wins = 0
        details = []
        for seed in range(5):
            nets = {}
            for objective in ("vanilla", "ibp"):
                cfg = pool_config(objective=objective, seed=seed)
                nets[objective], _, _ = H.train(cfg)
            ds_test = resolve_data(pool_config(seed=seed))["test"]
            dist = {
                name: H.compactness(
                    net, ds_test, spec, n_tasks=200, queries_per_task=100,
                    seed_entropy=(seed, 5),
                )[0]
                for name, net in nets.items()
            }
            wins += dist["ibp"] < dist["vanilla"]
            details.append(f"{dist['ibp']:.3f}<{dist['vanilla']:.3f}")
        assert wins >= 4, f"bound training tightened only {wins}/5 seeds"
        _pass(6, f"same-class NN distance smaller with bound training in "
                 f"{wins}/5 seeds ({', '.join(details)})")


class TestCriterion7NonInferiority:
    def test_interpolation_variants_within_one_point(self, tmp_path):
        summaries = []
        deltas = {}
        settings = {
            "protonet": dict(max_steps=600, epsilon=0.05),
            "maml": dict(max_steps=400, epsilon=0.1),
        }
        for learner, extra in settings.items():
            accs = {"vanilla": [], "ibpi": []}
            for seed in range(10):
                for objective in ("vanilla", "ibpi"):
                    out = tmp_path / f"{learner}-{objective}-{seed}"
                    cfg = pool_config(
                        learner=learner, objective=objective, seed=seed,
                        out_dir=str(out), **extra,
                    )
                    _, _, summary = H.train(cfg)
                    accs[objective].append(summary["test_accuracy"])
                    summaries.append(out / "summary.json")
            delta = float(np.mean(accs["ibpi"]) - np.mean(accs["vanilla"]))
            deltas[learner] = delta
            assert delta >= -0.01, (
                f"{learner}: interpolation variant fell {-100 * delta:.2f} points "
                f"below vanilla"
            )
        table = H.report(summaries, out_csv=str(tmp_path / "delta_table.csv"))
        assert len(table) == 40
        _pass(7, "mean accuracy deltas (interpolated - vanilla): "
                 + ", ".join(f"{k}: {100 * v:+.2f} pts" for k, v in deltas.items())
                 + " (>= -1.0); delta table emitted")


class TestCriterion8InterpolationGeometry:
    def test_containment_and_bit_exact_identity(self):
        rng = np.random.default_rng(1008)
        net_rng = np.random.default_rng(1009)
        net = L.Network(
            [
                L.init_fully_connected(8, 16, net_rng),
                L.relu(),
                L.init_fully_connected(16, 6, net_rng),
            ],
            split_index=2,
        )
        ds = synth_dataset(10, 20, (8,), 3.0, 1.0, seed=21)
        total, inside = 0, 0
        for trial in range(50):
            task = sample_task(ds, TaskSpec(5, 1, 5), rng)
            eps = float(rng.choice(EPS_GRID))
            coeffs = I.sample_mix(task.ways, 0.5, 0.5, rng)
            for x, y in ((task.support_x, task.support_y), (task.query_x, task.query_y)):
                res = B.propagate_prefix(net, x, eps).values()
                h = T.value_of(I.make_interpolated_task("ibpi", net, x, y, coeffs, None, eps))
                inside += int(
                    np.all(h >= res.box.lower - 1e-12)
                    and np.all(h <= res.box.upper + 1e-12)
                )
                total += 1
        assert inside == total

        task = sample_task(ds, TaskSpec(5, 1, 5), rng)
        zero = I.MixCoefficients(np.zeros(5), np.ones(5, dtype=int))
        for x, y in ((task.support_x, task.support_y), (task.query_x, task.query_y)):
            np.testing.assert_array_equal(
                T.value_of(I.make_interpolated_task("ibpi", net, x, y, zero, None, 0.2)),
                L.forward(net.prefix, x),
            )
        _pass(8, f"{inside}/{total} interpolated batches inside their source "
                 f"boxes; lam=0 reproduces embeddings bit-exactly")


class TestCriterion9AblationParity:
    def test_four_interpolation_modes_from_one_sweep(self, tmp_path):
        modes = ("ibpi", "mixup_input", "mixup_embedding", "ibpi_no_bound_loss")
        spec = TaskSpec(5, 1, 15)
        widths, rows = {}, []
        for mode in modes:
            out = tmp_path / mode
            cfg = pool_config(
                learner="maml", objective=mode, epsilon=0.2, gamma=1.0,
                max_steps=600, seed=0, n_eval_tasks=120, out_dir=str(out),
            )
            net, _, summary = H.train(cfg)
            widths[mode] = summary["box_width"]
            rows.append(out / "summary.json")
        table = H.report(rows, out_csv=str(tmp_path / "ablation.csv"))
        assert [r["objective"] for r in table] == list(modes)
        assert all(r["test_accuracy"] is not None for r in table)
        ratio = widths["ibpi_no_bound_loss"] / widths["ibpi"]
        assert ratio >= 2.0, f"width ratio {ratio:.2f} < 2"
        _pass(9, f"ablation table over {modes} emitted; box width without "
                 f"bound losses {ratio:.1f}x wider than with them")


class TestCriterion10Determinism:
    def test_equal_seeds_byte_identical_metrics(self, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            cfg = pool_config(
                objective="ibpi", max_steps=80, seed=3, out_dir=str(out),
                n_eval_tasks=40,
                data={
                    "train": {"synth": {**SYNTH_POOL, "seed": 11, "role": "train"}},
                    "val": {"synth": {**SYNTH_POOL, "seed": 12, "role": "validation"}},
                    "test": {"synth": {**SYNTH_POOL, "seed": 13, "role": "test"}},
                },
                eval_interval=40,
                n_val_tasks=20,
            )
            H.train(cfg)
            outs.append(out)
        csv_a = (outs[0] / "metrics.csv").read_bytes()
        csv_b = (outs[1] / "metrics.csv").read_bytes()
        assert csv_a == csv_b
        ckpt_a = (outs[0] / "checkpoint.ckpt").read_bytes()
        ckpt_b = (outs[1] / "checkpoint.ckpt").read_bytes()
        assert ckpt_a == ckpt_b
        _pass(10, f"two equal-seed runs: metrics CSVs byte-identical "
                  f"({len(csv_a)} bytes), checkpoints byte-identical")
