"""Episodic sampling invariants, synthetic pools, and the dataset file format."""

import itertools
import json

import numpy as np
import pytest

from fewshot_ibp import episodes as E


def small_dataset(n_classes=4, per_class=10, dim=3, seed=0):
    return E.synth_dataset(n_classes, per_class, (dim,), 2.0, 0.5, seed)


class TestSampleTask:
    def test_five_way_one_shot_fifteen_query_sizes(self):
        ds = small_dataset(n_classes=8, per_class=20)
        task = E.sample_task(ds, E.TaskSpec(5, 1, 15), np.random.default_rng(0))
        assert task.support_x.shape[0] == 5
        assert task.query_x.shape[0] == 75
        assert sorted(set(task.support_y)) == [0, 1, 2, 3, 4]
        assert sorted(set(task.query_y)) == [0, 1, 2, 3, 4]

    def test_two_way_from_four_classes_has_six_combinations(self):
        ds = small_dataset(n_classes=4)
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(500):
            task = E.sample_task(ds, E.TaskSpec(2, 1, 1), rng)
            seen.add(frozenset(task.class_ids))
        assert seen == {frozenset(p) for p in itertools.combinations(range(4), 2)}

    def test_too_many_ways_rejected(self):
        ds = small_dataset(n_classes=5)
        with pytest.raises(ValueError):
            E.sample_task(ds, E.TaskSpec(6, 1, 1), np.random.default_rng(0))

    def test_insufficient_instances_rejected(self):
        ds = small_dataset(n_classes=3, per_class=4)
        with pytest.raises(ValueError):
            E.sample_task(ds, E.TaskSpec(2, 3, 2), np.random.default_rng(0))

    def test_support_query_disjoint_and_counts(self):
        ds = small_dataset(n_classes=6, per_class=8)
        rng = np.random.default_rng(2)
        spec = E.TaskSpec(3, 2, 3)
        for _ in range(100):
            task = E.sample_task(ds, spec, rng)
            for k in range(spec.ways):
                assert np.sum(task.support_y == k) == spec.shots
                assert np.sum(task.query_y == k) == spec.query_shots
            support_rows = {tuple(r) for r in task.support_x}
            query_rows = {tuple(r) for r in task.query_x}
            assert not support_rows & query_rows

    def test_local_labels_follow_selection_order(self):
        ds = small_dataset(n_classes=6, per_class=6)
        rng = np.random.default_rng(3)
        task = E.sample_task(ds, E.TaskSpec(3, 1, 1), rng)
        # local label k's support instance belongs to class_ids[k]
        for k, cid in enumerate(task.class_ids):
            row = task.support_x[task.support_y == k][0]
            source = ds.classes[cid].instances
            assert any(np.array_equal(row, inst) for inst in source)

    def test_pair_marginals_near_uniform(self):
        # 10000 two-way tasks from 4 equal classes: each pair 1/6 +- 0.02
        ds = small_dataset(n_classes=4, per_class=4)
        rng = np.random.default_rng(4)
        counts = {}
        n = 10_000
        for _ in range(n):
            task = E.sample_task(ds, E.TaskSpec(2, 1, 1), rng)
            key = frozenset(task.class_ids)
            counts[key] = counts.get(key, 0) + 1
        for key, c in counts.items():
            assert abs(c / n - 1 / 6) < 0.02, (key, c / n)


class TestSynthDataset:
    def test_deterministic_in_seed(self):
        a = small_dataset(seed=7)
        b = small_dataset(seed=7)
        for ca, cb in zip(a.classes, b.classes):
            np.testing.assert_array_equal(ca.instances, cb.instances)

    def test_zero_separation_zero_noise_collapses(self):
        ds = E.synth_dataset(3, 5, (4,), 0.0, 0.0, seed=0)
        for record in ds.classes:
            np.testing.assert_array_equal(record.instances, 0.0)

    def test_twelve_class_pool(self):
        ds = E.synth_dataset(12, 20, (8,), 3.0, 1.0, seed=1)
        assert ds.n_classes == 12
        assert all(c.instances.shape == (20, 8) for c in ds.classes)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            E.synth_dataset(0, 5, (2,), 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            E.synth_dataset(2, 5, (2,), -1.0, 1.0, seed=0)


class TestDatasetInvariants:
    def test_empty_class_list_rejected(self):
        with pytest.raises(ValueError):
            E.Dataset([], role="train")

    def test_duplicate_class_ids_rejected(self):
        rec = E.ClassRecord(1, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            E.Dataset([rec, E.ClassRecord(1, np.ones((2, 3)))])

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ValueError):
            E.Dataset(
                [E.ClassRecord(0, np.zeros((2, 3))), E.ClassRecord(1, np.zeros((2, 4)))]
            )

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            E.Dataset([E.ClassRecord(0, np.zeros((1, 2)))], role="training")


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = E.synth_dataset(5, 7, (2, 3), 1.5, 0.7, seed=13, role="test")
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        loaded = E.load_dataset(path)
        assert loaded.role == ds.role
        assert [c.class_id for c in loaded.classes] == [c.class_id for c in ds.classes]
        for ca, cb in zip(ds.classes, loaded.classes):
            np.testing.assert_array_equal(ca.instances, cb.instances)

    def test_save_load_save_is_stable(self, tmp_path):
        ds = E.synth_dataset(3, 4, (5,), 1.0, 1.0, seed=2)
        p1, p2 = tmp_path / "a.fsds", tmp_path / "b.fsds"
        E.save_dataset(ds, p1)
        E.save_dataset(E.load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            E.load_dataset(path)

    def test_truncated_payload_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            E.load_dataset(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError):
            E.load_dataset(path)

    def test_version_mismatch_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            E.load_dataset(path)

    def test_file_cut_inside_the_fixed_header_rejected(self, tmp_path):
        # 6 bytes: the magic and half of the version field
        ds = small_dataset()
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(ValueError, match="truncated"):
            E.load_dataset(path)

    @staticmethod
    def write_with_header(path, ds, keep=None, drop=(), **changes):
        """Save ``ds``, then rewrite its JSON header with ``changes``, remove
        the keys ``drop``, and keep the payload of the first ``keep`` classes."""
        E.save_dataset(ds, path)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12 : 12 + hlen])
        header.update(changes)
        for key in drop:
            del header[key]
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = b"".join(
            np.ascontiguousarray(c.instances, dtype="<f8").tobytes()
            for c in ds.classes[:keep]
        )
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + payload)

    @pytest.mark.parametrize(
        "changes,keep",
        [
            ({"per_class_counts": [10, 10]}, 2),
            ({"class_ids": [0, 1]}, 2),
            ({"n_classes": 2}, 3),
            ({"n_classes": 2, "class_ids": [0, 1], "per_class_counts": [10, 10, 10]}, 3),
            ({"per_class_counts": [10, 10, -1]}, 2),
            ({"instance_shape": 3}, 3),
        ],
    )
    def test_inconsistent_header_lengths_rejected(self, tmp_path, changes, keep):
        # a 3-class header whose lists disagree, with a payload that matches
        # the shorter list; a short per_class_counts list used to load a
        # subset of the classes without complaint
        ds = small_dataset(n_classes=3)
        path = tmp_path / "pool.fsds"
        self.write_with_header(path, ds, keep=keep, **changes)
        with pytest.raises(ValueError):
            E.load_dataset(path)

    def test_missing_header_key_rejected(self, tmp_path):
        ds = small_dataset(n_classes=3)
        path = tmp_path / "pool.fsds"
        self.write_with_header(path, ds, drop=("role",))
        with pytest.raises(ValueError):
            E.load_dataset(path)

    def test_rewritten_consistent_header_loads(self, tmp_path):
        ds = small_dataset(n_classes=3)
        path = tmp_path / "pool.fsds"
        self.write_with_header(path, ds, role="test")
        assert E.load_dataset(path).role == "test"
