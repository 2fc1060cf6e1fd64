"""Training orchestration, evaluation, reporting, and the CLI surface."""

import json
import math
import os
import sys

import numpy as np
import pytest

from fewshot_ibp import cli
from fewshot_ibp import harness as H
from fewshot_ibp import layers as L
from fewshot_ibp.config import RunConfig, resolve_data
from fewshot_ibp.episodes import (
    ClassRecord,
    Dataset,
    TaskSpec,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from fewshot_ibp.tensor import NonFiniteError
from test_tensor import run_in_fresh_process

SYNTH = {
    "n_classes": 8,
    "per_class": 12,
    "shape": [6],
    "class_separation": 3.0,
    "noise_scale": 1.0,
}
LAYERS = [
    {"kind": "fully_connected", "in": 6, "out": 16},
    {"kind": "relu"},
    {"kind": "fully_connected", "in": 16, "out": 8},
]


def make_config(**overrides):
    base = dict(
        learner="protonet",
        objective="vanilla",
        layers=LAYERS,
        split_index=2,
        data={
            "train": {"synth": {**SYNTH, "seed": 1, "role": "train"}},
            "val": {"synth": {**SYNTH, "seed": 2, "role": "validation"}},
            "test": {"synth": {**SYNTH, "seed": 3, "role": "test"}},
        },
        train_ways=3,
        train_shots=1,
        train_query_shots=5,
        eval_ways=3,
        eval_shots=1,
        eval_query_shots=5,
        max_steps=40,
        eval_interval=20,
        n_val_tasks=10,
        n_eval_tasks=20,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestTrainLoop:
    def test_vanilla_logs_zero_bound_losses(self):
        _, rows, summary = H.train(make_config())
        assert summary["status"] == "completed"
        assert all(r["l_lb"] == 0.0 and r["l_ub"] == 0.0 for r in rows)
        assert all(r["w_ce"] == 1.0 for r in rows)
        assert all(r["total"] == r["l_ce"] for r in rows)

    def test_ibp_with_zero_eps_collapses_bound_losses(self):
        _, rows, _ = H.train(make_config(objective="ibp", epsilon=0.0))
        assert all(r["l_lb"] == 0.0 and r["l_ub"] == 0.0 for r in rows)

    def test_vanilla_equals_ibp_with_zero_eps_and_vertex_weights(self):
        net_a, rows_a, _ = H.train(make_config())
        net_b, rows_b, _ = H.train(
            make_config(objective="ibp", epsilon=0.0, static_weights=[1.0, 0.0, 0.0])
        )
        for a, b in zip(net_a.parameter_arrays(), net_b.parameter_arrays()):
            np.testing.assert_array_equal(a, b)
        assert H.metrics_csv(rows_a) == H.metrics_csv(rows_b)

    def test_equal_seeds_give_identical_metrics(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        H.train(make_config(objective="ibp", epsilon=0.1, out_dir=str(out_a)))
        H.train(make_config(objective="ibp", epsilon=0.1, out_dir=str(out_b)))
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "checkpoint.ckpt").read_bytes() == (out_b / "checkpoint.ckpt").read_bytes()

    def test_different_seeds_differ(self):
        _, rows_a, _ = H.train(make_config(seed=0))
        _, rows_b, _ = H.train(make_config(seed=1))
        assert H.metrics_csv(rows_a) != H.metrics_csv(rows_b)

    def test_logged_epsilon_follows_schedule(self):
        from fewshot_ibp.objective import epsilon_schedule

        cfg = make_config(objective="ibp", epsilon=0.2)
        _, rows, _ = H.train(cfg)
        for row in rows:
            assert row["epsilon"] == epsilon_schedule(row["step"], cfg.max_steps, 0.2)

    def test_logged_weights_on_simplex(self):
        _, rows, _ = H.train(make_config(objective="ibp", epsilon=0.1))
        for row in rows:
            assert abs(row["w_ce"] + row["w_lb"] + row["w_ub"] - 1.0) < 1e-9

    def test_maml_smoke_all_objectives(self):
        for objective in ("vanilla", "ibp", "ibpi", "ibpi_no_bound_loss", "mixup_input", "mixup_embedding"):
            cfg = make_config(
                learner="maml",
                objective=objective,
                epsilon=0.1,
                max_steps=6,
                meta_batch=2,
                inner_steps=2,
                n_eval_tasks=4,
                n_val_tasks=4,
                eval_interval=6,
            )
            _, rows, summary = H.train(cfg)
            assert summary["status"] == "completed"
            assert len(rows) == 6

    def test_protonet_smoke_all_objectives(self):
        for objective in ("ibpi", "ibpi_no_bound_loss", "mixup_input", "mixup_embedding"):
            cfg = make_config(objective=objective, epsilon=0.1, max_steps=30,
                              interp_probability=0.5)
            _, rows, summary = H.train(cfg)
            assert summary["status"] == "completed"

    def test_maml_second_order_runs(self):
        cfg = make_config(
            learner="maml",
            objective="ibp",
            epsilon=0.1,
            first_order=False,
            max_steps=4,
            meta_batch=2,
            inner_steps=2,
            n_eval_tasks=4,
            n_val_tasks=4,
        )
        _, rows, summary = H.train(cfg)
        assert summary["status"] == "completed"

    def test_maml_second_order_conv_network_runs(self):
        image = {**SYNTH, "shape": [1, 6, 6]}
        cfg = make_config(
            learner="maml",
            objective="ibpi",
            epsilon=0.1,
            first_order=False,
            layers=[
                {"kind": "conv2d", "in_channels": 1, "out_channels": 2, "kernel": 3},
                {"kind": "batchnorm", "channels": 2},
                {"kind": "relu"},
                {"kind": "maxpool2d", "window": 2},
                {"kind": "flatten"},
                {"kind": "fully_connected", "in": 8, "out": 3},
            ],
            split_index=4,
            data={
                split: {"synth": {**image, "seed": seed, "role": role}}
                for split, seed, role in (
                    ("train", 1, "train"), ("val", 2, "validation"), ("test", 3, "test")
                )
            },
            bounds_on_adapted=True,
            interp_probability=1.0,
            max_steps=4,
            meta_batch=2,
            inner_steps=2,
            n_eval_tasks=4,
            n_val_tasks=4,
        )
        _, rows, summary = H.train(cfg)
        assert summary["status"] == "completed"
        assert len(rows) == 4

    def test_static_weights_respected(self):
        _, rows, _ = H.train(
            make_config(objective="ibp", epsilon=0.1, static_weights=[0.6, 0.2, 0.2])
        )
        assert all(
            (r["w_ce"], r["w_lb"], r["w_ub"]) == (0.6, 0.2, 0.2) for r in rows
        )

    def test_non_finite_loss_aborts_with_diagnostic(self, tmp_path):
        out = tmp_path / "boom"
        cfg = make_config(meta_lr=1e80, max_steps=50, out_dir=str(out))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                H.train(cfg)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "aborted"
        assert summary["aborted_at_step"] >= 1
        assert "error" in summary

    def test_best_validation_step_recorded(self):
        _, _, summary = H.train(make_config(max_steps=40, eval_interval=10))
        assert summary["best_val_step"] in (10, 20, 30, 40)
        assert 0.0 <= summary["best_val_accuracy"] <= 1.0


class TestEvaluate:
    def test_trained_protonet_beats_chance_and_ci_behaves(self):
        cfg = make_config(max_steps=150)
        net, _, _ = H.train(cfg)
        data = resolve_data(cfg)
        mean, ci = H.evaluate(net, "protonet", data["test"], cfg.eval_spec(), 50, (0,))
        assert mean > 0.6
        assert ci > 0.0
        mean1, ci1 = H.evaluate(net, "protonet", data["test"], cfg.eval_spec(), 1, (0,))
        assert ci1 == 0.0

    def test_untrained_five_way_near_chance(self):
        # binomial oracle: chance level for 5 ways is 0.2
        cfg = make_config(
            max_steps=1,
            train_ways=5,
            eval_ways=5,
            data={
                "train": {"synth": {**SYNTH, "n_classes": 10, "seed": 4, "role": "train"}},
                "test": {"synth": {**SYNTH, "n_classes": 10, "seed": 5, "role": "test"}},
            },
        )
        rng = np.random.default_rng(0)
        net = L.build_network(cfg.layers, cfg.split_index, rng)
        # scramble the head so embeddings carry no class signal
        arrays = net.parameter_arrays()
        arrays[0] = np.zeros_like(arrays[0])
        net.set_parameter_arrays(arrays)
        data = resolve_data(cfg)
        mean, _ = H.evaluate(net, "protonet", data["test"], cfg.eval_spec(), 200, (1,))
        assert abs(mean - 0.2) < 0.05

    def test_deterministic_in_seed_entropy(self):
        cfg = make_config(max_steps=20)
        net, _, _ = H.train(cfg)
        data = resolve_data(cfg)
        r1 = H.evaluate(net, "protonet", data["test"], cfg.eval_spec(), 25, (7,))
        r2 = H.evaluate(net, "protonet", data["test"], cfg.eval_spec(), 25, (7,))
        assert r1 == r2


class TestCompactness:
    def test_collapsed_embedding_gives_zero(self):
        # zero weights send every instance to the same point
        net = L.Network(
            [L.fully_connected(np.zeros((4, 6)), np.zeros(4)), L.relu()],
            split_index=2,
        )
        ds = synth_dataset(4, 10, (6,), 2.0, 1.0, seed=6)
        mean, std = H.compactness(net, ds, TaskSpec(2, 1, 4), n_tasks=5, queries_per_task=8)
        assert mean == 0.0

    def test_hand_built_distance(self):
        # identity embedding; every same-class pair sits at distance 5
        tri = np.array([[0.0, 0.0], [5.0, 0.0], [2.5, 2.5 * np.sqrt(3.0)]])
        classes = [tri, tri + 100.0]
        ds = Dataset([ClassRecord(i, c) for i, c in enumerate(classes)])
        net = L.Network([L.fully_connected(np.eye(2), np.zeros(2))], split_index=1)
        mean, std = H.compactness(net, ds, TaskSpec(2, 1, 2), n_tasks=12, queries_per_task=4)
        assert mean == pytest.approx(5.0)

    def test_insufficient_queries_rejected(self):
        net = L.Network([L.fully_connected(np.eye(2), np.zeros(2))], split_index=1)
        ds = synth_dataset(4, 10, (2,), 2.0, 1.0, seed=7)
        with pytest.raises(ValueError):
            H.compactness(net, ds, TaskSpec(4, 1, 1), n_tasks=2, queries_per_task=4)

    @pytest.mark.parametrize("n_tasks", [0, -1])
    def test_no_tasks_rejected(self, n_tasks):
        net = L.Network([L.fully_connected(np.eye(2), np.zeros(2))], split_index=1)
        ds = synth_dataset(4, 10, (2,), 2.0, 1.0, seed=7)
        with pytest.raises(ValueError, match="at least one task"):
            H.compactness(net, ds, TaskSpec(2, 1, 1), n_tasks=n_tasks, queries_per_task=4)


class TestMeanBoxWidth:
    @pytest.mark.parametrize("n_tasks", [0, -1])
    def test_no_tasks_rejected(self, n_tasks):
        net = L.Network([L.fully_connected(np.eye(2), np.zeros(2))], split_index=1)
        ds = synth_dataset(4, 10, (2,), 2.0, 1.0, seed=7)
        with pytest.raises(ValueError, match="at least one task"):
            H.mean_box_width(net, ds, TaskSpec(2, 1, 2), 0.1, n_tasks=n_tasks)


class TestTransfer:
    def test_same_dataset_matches_evaluate(self, tmp_path, capsys):
        # the CLI transfer record carries evaluate's accuracy and the target role
        cfg = make_config(max_steps=30, out_dir=str(tmp_path / "run"))
        net, _, _ = H.train(cfg)
        data = resolve_data(cfg)
        direct = H.evaluate(net, "protonet", data["test"], cfg.eval_spec(), 20, (3,))
        test_ds = tmp_path / "test.fsds"
        save_dataset(data["test"], test_ds)
        rc = cli.main([
            "transfer", "--checkpoint", str(tmp_path / "run" / "checkpoint.ckpt"),
            "--dataset", str(test_ds), "--learner", "protonet", "--ways", "3",
            "--shots", "1", "--query-shots", "5", "--n-tasks", "20", "--seed", "3",
        ])
        assert rc == 0
        via = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (via["accuracy"], via["ci95"]) == direct
        assert via["target_role"] == "test" and via["n_tasks"] == 20

    def test_linearly_related_transfer_beats_chance(self):
        # target pool shares the generative map (shifted classes, same scale)
        cfg = make_config(max_steps=150)
        net, _, _ = H.train(cfg)
        target = synth_dataset(8, 12, (6,), 3.0, 1.0, seed=77, role="test")
        accuracy, _ = H.evaluate(net, "protonet", target, cfg.eval_spec(), 50, (5,))
        assert accuracy > 1.0 / 3.0 + 0.1  # clearly above 3-way chance

    def test_shape_mismatch_rejected(self):
        cfg = make_config(max_steps=5)
        net, _, _ = H.train(cfg)
        bad = synth_dataset(4, 8, (9,), 2.0, 1.0, seed=8)
        with pytest.raises(ValueError):
            H.evaluate(net, "protonet", bad, TaskSpec(2, 1, 2), 5, (0,))


class TestTaskSupply:
    """Splits that cannot supply their tasks are rejected before step 1."""

    def test_test_split_with_fewer_classes_than_ways(self, tmp_path):
        data = {
            "train": {"synth": {**SYNTH, "seed": 1, "role": "train"}},
            "test": {"synth": {**SYNTH, "n_classes": 4, "seed": 3, "role": "test"}},
        }
        cfg = make_config(data=data, eval_ways=5, max_steps=300, out_dir=str(tmp_path))
        steps = []
        with pytest.raises(ValueError, match="test split has 4 classes, tasks need 5"):
            H.train(cfg, progress=steps.append)
        assert steps == []
        assert list(tmp_path.iterdir()) == []

    def test_single_short_class_rejected(self, tmp_path):
        # one class of the train pool holds fewer than shots + query shots
        # instances; sampling reaches it only on some draws
        classes = [
            ClassRecord(c, np.random.default_rng(c).standard_normal((12 if c else 5, 6)))
            for c in range(8)
        ]
        path = tmp_path / "train.fsds"
        save_dataset(Dataset(classes), path)
        cfg = make_config(data={"train": {"path": str(path)}})
        with pytest.raises(ValueError, match="class 0 has 5 instances, tasks need 6"):
            resolve_data(cfg)

    def test_val_split_checked_against_eval_spec(self):
        data = {
            "train": {"synth": {**SYNTH, "seed": 1, "role": "train"}},
            "val": {"synth": {**SYNTH, "per_class": 5, "seed": 2, "role": "validation"}},
        }
        # 3-way 1+5 training tasks fit the train pool; 1+5 eval tasks do not
        # fit 5 instances per class
        with pytest.raises(ValueError, match="val split"):
            resolve_data(make_config(data=data))
        resolve_data(make_config(data=data, eval_query_shots=4))


class TestConfigValidation:
    """A malformed field fails at construction, naming the field; each of
    these used to run, or to fail only inside a training step."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("interp_probability", 1.5),
            ("interp_probability", -1.0),
            ("interp_probability", math.nan),
            ("eval_interval", 0),
            ("eval_interval", -2),
            ("epsilon", math.nan),
            ("epsilon", math.inf),
            ("gamma", 0.0),
            ("gamma", math.nan),
            ("distance", "cosine"),
            ("alpha", 0.0),
            ("beta", -1.0),
            ("static_weights", [2.0, 0.0, 0.0]),
            ("static_weights", [math.nan, 0.0, 1.0]),
            ("inner_steps", -1),
            ("eval_inner_steps", -1),
            ("meta_lr", math.nan),
            ("inner_lr", math.nan),
            ("n_val_tasks", 0),
            ("n_eval_tasks", 0),
            # counts, ways, shots, seed and split_index take an int, not a bool
            ("n_eval_tasks", 1.5),
            ("max_steps", 2.5),
            ("seed", "a"),
            ("meta_batch", True),
            ("split_index", True),
            ("train_ways", 5.0),
            ("eval_query_shots", "15"),
            ("inner_steps", None),
            # the flags take a bool
            ("first_order", "yes"),
            ("shared_mix_coeffs", 1),
            ("bounds_on_adapted", None),
            ("static_weights", [0.5, 0.5, "x"]),
            ("static_weights", [1.0, False, 0.0]),
            # the float fields take a real number that is not a bool
            ("epsilon", True),
            ("interp_probability", True),
            ("alpha", True),
            ("epsilon", "0.1"),
            ("meta_lr", None),
            ("gamma", "1"),
            ("inner_lr", [0.1]),
        ],
    )
    def test_malformed_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_config(**{field: value})

    @pytest.mark.parametrize(
        "split,entry,message",
        [
            # an int or a bool would open that file descriptor
            ("train", {"path": 3}, r"data\.train\.path must be a file path, got 3"),
            ("train", {"path": True}, r"data\.train\.path .*got True"),
            ("train", {"path": None}, r"data\.train\.path"),
            ("train", "x.fsds", r"data\.train must be .*got 'x\.fsds'"),
            ("val", {"path": "x.fsds", "synth": SYNTH}, r"data\.val must be"),
            ("test", {"synth": [SYNTH]}, r"data\.test\.synth must be an object"),
            ("train", {"synth": {**SYNTH, "seed": 1, "colour": 2}}, r"data\.train\.synth: unknown keys \['colour'\]"),
            ("train", {"synth": {**SYNTH, "seed": 1, "n_classes": "5"}}, r"data\.train\.synth\.n_classes must be an integer"),
            ("val", {"synth": {**SYNTH, "seed": True}}, r"data\.val\.synth\.seed"),
            ("train", {"synth": {**SYNTH, "seed": 1, "shape": 6}}, r"data\.train\.synth\.shape"),
            ("train", {"synth": {**SYNTH, "seed": 1, "noise_scale": "1"}}, r"data\.train\.synth\.noise_scale"),
            ("train", {"synth": {**SYNTH, "seed": 1, "role": 0}}, r"data\.train\.synth\.role"),
            ("train", {"synth": SYNTH}, r"data\.train\.synth needs 'seed'"),
        ],
    )
    def test_malformed_data_entry_rejected_by_split_and_field(self, split, entry, message):
        data = {"train": {"synth": {**SYNTH, "seed": 1}}, split: entry}
        with pytest.raises(ValueError, match=message):
            make_config(data=data)

    def test_descriptor_as_path_is_left_open(self):
        read_fd, write_fd = os.pipe()
        try:
            with pytest.raises(ValueError, match=r"data\.train\.path"):
                make_config(data={"train": {"path": read_fd}})
            os.fstat(read_fd)  # OSError if the descriptor was closed
        finally:
            os.close(read_fd)
            os.close(write_fd)

    @pytest.mark.parametrize(
        "layers,message",
        [
            ([{"kind": "fully_connected", "out": 8}], r"layer 0 \(fully_connected\) needs 'in'"),
            ([{"kind": "fully_connected", "in": "8", "out": 8}], r"layer 0 .*'in'"),
            ([{"kind": "fully_connected", "in": True, "out": 8}], r"layer 0 .*'in'"),
            ([{"kind": "fully_connected", "in": 6, "out": -1}], r"layer 0 .*'out'"),
            ([{"kind": "dense", "in": 6, "out": 8}], r"layer 0: unknown kind 'dense'"),
            (
                [
                    {"kind": "fully_connected", "in": 8, "out": 4},
                    {"kind": "fully_connected", "in": 5, "out": 3},
                ],
                r"layer 1 .*'in' is 5.*width 4",
            ),
            (LAYERS[:2] + [{"kind": "fully_connected", "in": 8, "out": 8}], r"layer 2 .*'in'"),
            ([{"kind": "conv2d", "in_channels": 1, "out_channels": 4}], r"layer 0 .*'kernel'"),
            ([{"kind": "maxpool2d", "window": 2, "stride": 0}], r"layer 0 .*'stride'"),
            ([{"kind": "batchnorm", "channels": 4, "eps": "1e-5"}], r"layer 0 .*'eps'"),
            (LAYERS + ["relu"], r"layer 3 must be an object"),
        ],
    )
    def test_malformed_layers_rejected_by_index_and_field(self, layers, message):
        with pytest.raises(ValueError, match=message):
            make_config(layers=layers, split_index=1)

    def test_edge_values_accepted(self):
        make_config(
            interp_probability=0.0, eval_interval=1, epsilon=0.0, inner_steps=0,
            static_weights=[1.0, 0.0, 0.0], distance="euclidean", n_val_tasks=1,
        )
        make_config(interp_probability=1.0, gamma=1e-3, meta_lr=1e80)
        # JSON writes a whole number as an int
        make_config(epsilon=0, interp_probability=1, alpha=2, gamma=1, meta_lr=0)


class TestReport:
    def run_two(self, tmp_path):
        paths = []
        for seed in (0, 1):
            out = tmp_path / f"run{seed}"
            H.train(make_config(seed=seed, out_dir=str(out), max_steps=10))
            paths.append(out / "summary.json")
        return paths

    def test_single_input_passthrough_with_fingerprint(self, tmp_path):
        (path, _) = self.run_two(tmp_path)
        rows = H.report([path])
        assert len(rows) == 1
        summary = json.loads(path.read_text())
        assert rows[0]["fingerprint"] == summary["fingerprint"]
        assert rows[0]["learner"] == "protonet"

    def test_seeds_share_fingerprint(self, tmp_path):
        paths = self.run_two(tmp_path)
        rows = H.report(paths, out_csv=str(tmp_path / "merged.csv"))
        assert rows[0]["fingerprint"] == rows[1]["fingerprint"]
        assert rows[0]["seed"] != rows[1]["seed"]
        header = (tmp_path / "merged.csv").read_text().splitlines()[0]
        assert header == ",".join(H.REPORT_COLUMNS)

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(ValueError):
            H.report([bad])


class TestCli:
    def test_synth_train_eval_compactness_transfer_report(self, tmp_path, capsys):
        train_ds = tmp_path / "train.fsds"
        test_ds = tmp_path / "test.fsds"
        for path, seed, role in ((train_ds, 1, "train"), (test_ds, 2, "test")):
            rc = cli.main([
                "synth", "--classes", "8", "--per-class", "12", "--shape", "6",
                "--separation", "3.0", "--noise", "1.0", "--seed", str(seed),
                "--role", role, "--out", str(path),
            ])
            assert rc == 0
        config = {
            "learner": "protonet",
            "objective": "ibp",
            "layers": LAYERS,
            "split_index": 2,
            "data": {"train": {"path": str(train_ds)}},
            "train_ways": 3, "train_shots": 1, "train_query_shots": 5,
            "eval_ways": 3, "eval_shots": 1, "eval_query_shots": 5,
            "max_steps": 30, "epsilon": 0.1, "seed": 0,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "checkpoint.ckpt").exists()
        assert (out_dir / "metrics.csv").exists()

        ckpt = str(out_dir / "checkpoint.ckpt")
        rc = cli.main([
            "eval", "--checkpoint", ckpt, "--dataset", str(test_ds),
            "--learner", "protonet", "--ways", "3", "--shots", "1",
            "--query-shots", "5", "--n-tasks", "10",
        ])
        assert rc == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= result["accuracy"] <= 1.0

        rc = cli.main([
            "compactness", "--checkpoint", ckpt, "--dataset", str(test_ds),
            "--ways", "3", "--shots", "1", "--n-tasks", "5",
            "--queries-per-task", "6",
        ])
        assert rc == 0

        rc = cli.main([
            "transfer", "--checkpoint", ckpt, "--dataset", str(test_ds),
            "--learner", "protonet", "--ways", "3", "--shots", "1",
            "--query-shots", "5", "--n-tasks", "5",
        ])
        assert rc == 0

        merged = tmp_path / "table.csv"
        rc = cli.main([
            "report", str(out_dir / "summary.json"), "--out-csv", str(merged),
        ])
        assert rc == 0
        assert merged.exists()

    def test_compactness_without_tasks_fails(self, tmp_path, capsys):
        ckpt, data = tmp_path / "net.ckpt", tmp_path / "data.fsds"
        L.save_checkpoint(
            L.Network([L.fully_connected(np.eye(2), np.zeros(2))], split_index=1), ckpt
        )
        save_dataset(synth_dataset(4, 10, (2,), 2.0, 1.0, seed=7), data)
        rc = cli.main([
            "compactness", "--checkpoint", str(ckpt), "--dataset", str(data),
            "--ways", "2", "--shots", "1", "--n-tasks", "0", "--queries-per-task", "4",
        ])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("inner_lr", ["-5", "inf", "nan"])
    def test_maml_eval_rejects_bad_inner_lr(self, tmp_path, capsys, inner_lr):
        # a negative rate would run gradient ascent, and inf or nan would
        # fail only later, as non-finite activations
        ckpt, data = tmp_path / "net.ckpt", tmp_path / "data.fsds"
        L.save_checkpoint(
            L.Network([L.fully_connected(np.eye(2), np.zeros(2))], split_index=1), ckpt
        )
        save_dataset(synth_dataset(4, 10, (2,), 2.0, 1.0, seed=7), data)
        rc = cli.main([
            "eval", "--checkpoint", str(ckpt), "--dataset", str(data),
            "--learner", "maml", "--ways", "2", "--shots", "1", "--query-shots", "2",
            "--n-tasks", "3", "--inner-lr", inner_lr,
        ])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "inner_lr" in record["message"]

    def test_failure_emits_error_record_and_nonzero_exit(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "missing.json")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "error" in record and "message" in record

    @pytest.mark.parametrize("command", ["eval", "transfer"])
    @pytest.mark.parametrize("learner", ["protonet", "maml"])
    def test_unknown_distance_rejected_before_loading(self, tmp_path, capsys, command, learner):
        argv = [
            command, "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--dataset", str(tmp_path / "missing.fsds"),
            "--learner", learner, "--distance", "sqeuclidian",
        ]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'sqeuclidian'" in capsys.readouterr().err

    def test_seed_override_changes_results(self, tmp_path):
        train_ds = tmp_path / "train.fsds"
        save_dataset(synth_dataset(6, 10, (6,), 3.0, 1.0, seed=1), train_ds)
        config = {
            "learner": "protonet",
            "objective": "vanilla",
            "layers": LAYERS,
            "split_index": 2,
            "data": {"train": {"path": str(train_ds)}},
            "train_ways": 3, "train_shots": 1, "train_query_shots": 5,
            "max_steps": 10,
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for seed in (0, 5):
            out = tmp_path / f"s{seed}"
            rc = cli.main([
                "train", "--config", str(cfg_path), "--seed", str(seed),
                "--out", str(out),
            ])
            assert rc == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] != outs[1]


# Ten conv ProtoNet ibp steps in a fresh process, on the conv pool and network
# of the benchmark's protonet-conv-ibp workload.  Prints the growth of the peak
# resident set over the run, in kilobytes.
PEAK_RSS_SCRIPT = """
import resource
from fewshot_ibp.config import RunConfig
from fewshot_ibp.harness import train

pool = {"n_classes": 12, "per_class": 30, "shape": [1, 10, 10],
        "class_separation": 2.0, "noise_scale": 1.0, "seed": 11, "role": "train"}
layers = [
    {"kind": "conv2d", "in_channels": 1, "out_channels": 8, "kernel": 3},
    {"kind": "batchnorm", "channels": 8},
    {"kind": "relu"},
    {"kind": "maxpool2d", "window": 2},
    {"kind": "flatten"},
    {"kind": "fully_connected", "in": 128, "out": 16},
]
config = RunConfig(learner="protonet", objective="ibp", layers=layers, split_index=4,
                   data={"train": {"synth": pool}}, max_steps=10, epsilon=0.1, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
train(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_conv_protonet_training_peak_memory():
    """Each step's tape is freed when the step ends.  Left to the cyclic
    collector, the tapes of ten steps raised the peak by about 80 MB."""
    growth_mb = int(run_in_fresh_process(PEAK_RSS_SCRIPT)) / 1024
    assert growth_mb < 40
