"""Episodic sampling invariants, synthetic pools, and the dataset file format."""

import itertools
import json
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fewshot_ibp import episodes as E
from fewshot_ibp.tensor import NonFiniteError


def small_dataset(n_classes=4, per_class=10, dim=3, seed=0):
    return E.synth_dataset(n_classes, per_class, (dim,), 2.0, 0.5, seed)


def make_dataset(arrays, ids=None, role="train"):
    """The dataset whose classes hold the rows ``arrays``, with ids 0.. or ``ids``."""
    ids = range(len(arrays)) if ids is None else ids
    return E.Dataset(np.concatenate(arrays), [len(a) for a in arrays], ids, role)


def bad_shape(shape):
    """The message that rejects instances of ``shape``, as a pattern."""
    return "instance shape must be one or more positive sizes, got " + re.escape(str(list(shape)))


def class_rows(dataset, i):
    """The rows of class ``i`` (an index, not an id) in the pool."""
    start = int(dataset.offsets[i])
    return dataset.pool[start : start + dataset.counts[i]]


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
            source = class_rows(ds, ds.class_ids.index(cid))
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


def reference_sample_task(dataset, spec, rng):
    """The sampler before the pool, class by class: it checks the supply on
    every draw, takes each class's rows from its own slice of the pool and
    builds the labels anew."""
    E.check_supply(dataset, spec)
    need = spec.shots + spec.query_shots
    chosen = rng.choice(dataset.n_classes, size=spec.ways, replace=False)
    support, query, class_ids = [], [], []
    for local, ci in enumerate(chosen):
        instances = class_rows(dataset, int(ci))
        picks = rng.choice(dataset.counts[int(ci)], size=need, replace=False)
        support.append(instances[picks[: spec.shots]])
        query.append(instances[picks[spec.shots :]])
        class_ids.append(dataset.class_ids[int(ci)])
    support_y = np.repeat(np.arange(spec.ways), spec.shots)
    query_y = np.repeat(np.arange(spec.ways), spec.query_shots)
    return E.Task(
        support_x=np.concatenate(support),
        support_y=support_y,
        query_x=np.concatenate(query),
        query_y=query_y,
        class_ids=class_ids,
    )


def unequal_dataset():
    """Six classes of 5 to 12 instances, with ids that are not 0..5."""
    rng = np.random.default_rng(9)
    counts = (5, 9, 7, 12, 6, 8)
    return make_dataset([rng.standard_normal((n, 3)) for n in counts], ids=(7, 3, 40, 11, 0, 25))


def conv_pool_from_disk(tmp_path):
    path = tmp_path / "conv.fsds"
    E.save_dataset(E.synth_dataset(12, 30, (1, 10, 10), 2.0, 1.0, seed=13, role="test"), path)
    return E.load_dataset(path)


class TestPool:
    @pytest.mark.parametrize(
        "pool,spec",
        [
            ("fc", E.TaskSpec(5, 1, 15)),
            ("conv", E.TaskSpec(5, 1, 15)),
            ("unequal", E.TaskSpec(3, 2, 3)),  # K+Q is the smallest class, 5
        ],
    )
    def test_tasks_bit_equal_to_the_reference_sampler(self, tmp_path, pool, spec):
        ds = {
            "fc": lambda: E.synth_dataset(12, 30, (8,), 3.0, 1.0, seed=11),
            "conv": lambda: conv_pool_from_disk(tmp_path),
            "unequal": unequal_dataset,
        }[pool]()
        for seed in range(1000):
            got = E.sample_task(ds, spec, np.random.default_rng(seed))
            want = reference_sample_task(ds, spec, np.random.default_rng(seed))
            for name in ("support_x", "support_y", "query_x", "query_y"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), (seed, name)
            assert got.class_ids == want.class_ids
            assert [type(c) for c in got.class_ids] == [type(c) for c in want.class_ids]

    def test_one_read_only_pool_and_class_offsets(self, tmp_path):
        for ds in (unequal_dataset(), conv_pool_from_disk(tmp_path), small_dataset()):
            assert ds.pool.flags.c_contiguous and not ds.pool.flags.writeable
            assert ds.pool.dtype == np.float64
            assert ds.pool.shape == (sum(ds.counts), *ds.instance_shape)
            assert ds.offsets.tolist() == np.cumsum((0,) + ds.counts[:-1]).tolist()
            assert not ds.offsets.flags.writeable

    def test_loading_holds_the_rows_once(self, tmp_path):
        ds = E.synth_dataset(12, 30, (1, 10, 10), 2.0, 1.0, seed=11)
        path = tmp_path / "train.fsds"
        E.save_dataset(ds, path)
        E.load_dataset(path)  # warm caches
        tracemalloc.start()
        try:
            loaded = E.load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.pool.tobytes() == ds.pool.tobytes()
        # the rows once, plus a little; a copy per class, then the pool, took 2x
        assert peak < 1.5 * ds.pool.nbytes

    def test_synth_holds_its_rows_once(self):
        E.synth_dataset(12, 30, (1, 10, 10), 2.0, 1.0, seed=11)  # warm caches
        tracemalloc.start()
        try:
            ds = E.synth_dataset(12, 30, (1, 10, 10), 2.0, 1.0, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pool, one class's draws and the finiteness mask (1.26x); a
        # list of classes, then their concatenation, took 2.24x
        assert peak < 1.5 * ds.pool.nbytes

    def test_a_read_only_contiguous_float64_pool_is_kept_any_other_copied(self):
        pool = np.arange(12.0).reshape(6, 2)
        pool.flags.writeable = False
        assert E.Dataset(pool, [2, 4], [0, 1]).pool is pool
        wide = np.arange(24.0).reshape(6, 4)
        wide.flags.writeable = False
        for other in (
            pool.copy(),  # the caller may still write
            wide[:, ::2],  # not contiguous
            np.asfortranarray(pool),  # not C-ordered
            np.arange(12).reshape(6, 2),  # integers
        ):
            ds = E.Dataset(other, [2, 4], [0, 1])
            assert not np.shares_memory(ds.pool, other)
            assert ds.pool.flags.c_contiguous and not ds.pool.flags.writeable
            assert ds.pool.dtype == np.float64
            np.testing.assert_array_equal(ds.pool, other)

    def test_non_finite_instances_rejected(self, tmp_path):
        with pytest.raises(NonFiniteError):
            make_dataset([np.array([[0.0], [np.nan]])])
        ds = make_dataset([np.full((2, 1), float(i)) for i in range(2)])
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.array([np.inf]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteError):
            E.load_dataset(path)

    def test_under_supplied_spec_raises_on_every_call(self):
        ds = unequal_dataset()
        spec = E.TaskSpec(3, 2, 4)  # class 7 has 5 instances, tasks need 6
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError) as err:
                E.sample_task(ds, spec, np.random.default_rng(0))
            messages.append(str(err.value))
        assert messages == ["dataset class 7 has 5 instances, tasks need 6"] * 3
        with pytest.raises(ValueError, match="6 classes, tasks need 7"):
            E.sample_task(ds, E.TaskSpec(7, 1, 1), np.random.default_rng(0))
        # a spec that fits is unaffected by the ones that failed
        E.sample_task(ds, E.TaskSpec(3, 2, 3), np.random.default_rng(0))

    def test_labels_are_shared_and_read_only(self):
        ds = small_dataset()
        spec = E.TaskSpec(3, 2, 2)
        a, b = (E.sample_task(ds, spec, np.random.default_rng(s)) for s in (0, 1))
        assert a.support_y is b.support_y and a.query_y is b.query_y
        for labels in (a.support_y, a.query_y):
            assert not labels.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                labels[0] = 1
        np.testing.assert_array_equal(a.support_y, [0, 0, 1, 1, 2, 2])

    def test_writing_into_a_task_leaves_the_dataset_unchanged(self):
        ds = small_dataset()
        before = ds.pool.copy()
        task = E.sample_task(ds, E.TaskSpec(3, 2, 2), np.random.default_rng(0))
        task.support_x[:] = np.nan
        task.query_x += 1.0
        assert ds.pool.tobytes() == before.tobytes()
        again = E.sample_task(ds, E.TaskSpec(3, 2, 2), np.random.default_rng(0))
        assert np.all(np.isfinite(again.support_x))


class TestSynthDataset:
    def test_deterministic_in_seed(self):
        a = small_dataset(seed=7)
        b = small_dataset(seed=7)
        assert a.pool.tobytes() == b.pool.tobytes()

    def test_zero_separation_zero_noise_collapses(self):
        ds = E.synth_dataset(3, 5, (4,), 0.0, 0.0, seed=0)
        np.testing.assert_array_equal(ds.pool, 0.0)

    def test_twelve_class_pool(self):
        ds = E.synth_dataset(12, 20, (8,), 3.0, 1.0, seed=1)
        assert ds.n_classes == 12
        assert ds.counts == (20,) * 12 and ds.class_ids == tuple(range(12))
        assert ds.pool.shape == (240, 8)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            E.synth_dataset(0, 5, (2,), 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            E.synth_dataset(2, 5, (2,), -1.0, 1.0, seed=0)


class TestDatasetInvariants:
    def test_empty_class_list_rejected(self):
        with pytest.raises(ValueError, match="no classes"):
            E.Dataset(np.zeros((0, 3)), [], [], role="train")

    def test_duplicate_class_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_dataset([np.zeros((2, 3)), np.ones((2, 3))], ids=[1, 1])

    @pytest.mark.parametrize(
        "rows,counts,ids,message",
        [
            (5, [2, 2], [0, 1], "pool has 5 rows, the class counts add up to 4"),
            (3, [2, 2], [0, 1], "pool has 3 rows, the class counts add up to 4"),
            (4, [2, 2], [0, 1, 2], "3 class ids for 2 counts"),
            (4, [2, 2], [0], "1 class ids for 2 counts"),
            (4, [4, 0], [0, 9], "class 9 has no instances"),
        ],
    )
    def test_pool_ids_and_counts_must_agree(self, rows, counts, ids, message):
        with pytest.raises(ValueError, match=message):
            E.Dataset(np.zeros((rows, 3)), counts, ids)

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0)])
    def test_scalar_or_empty_instances_rejected(self, shape):
        with pytest.raises(ValueError, match=bad_shape(shape)):
            E.Dataset(np.zeros((3, *shape)), [3], [0])

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([np.zeros((1, 2))], role="training")


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = E.synth_dataset(5, 7, (2, 3), 1.5, 0.7, seed=13, role="test")
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        loaded = E.load_dataset(path)
        assert (loaded.role, loaded.class_ids, loaded.counts) == (ds.role, ds.class_ids, ds.counts)
        np.testing.assert_array_equal(loaded.pool, ds.pool)

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
        payload = ds.pool[: sum(ds.counts[:keep])].astype("<f8").tobytes()
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

    def test_oversized_class_count_rejected_before_reading(self, tmp_path):
        # 2**40 instances of 3 floats: read() used to be asked for 24 TB and
        # raise MemoryError
        ds = small_dataset(n_classes=3)
        path = tmp_path / "pool.fsds"
        self.write_with_header(path, ds, keep=3, per_class_counts=[2**40, 10, 10])
        with pytest.raises(ValueError, match="truncated dataset payload"):
            E.load_dataset(path)

    def test_oversized_header_length_rejected(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "pool.fsds"
        E.save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (2**32 - 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated dataset header"):
            E.load_dataset(path)

    @pytest.mark.parametrize(
        "changes,field",
        [
            ({"class_ids": [False, True, 2]}, "class_ids"),
            ({"per_class_counts": [True, 2, 3]}, "per_class_counts"),
            ({"instance_shape": [True]}, "instance_shape"),
            ({"n_classes": True, "class_ids": [0], "per_class_counts": [1]}, "n_classes"),
        ],
    )
    def test_boolean_header_values_rejected(self, tmp_path, changes, field):
        # JSON true and false are Python ints, so each of these headers
        # agrees with its payload and used to load: with class ids
        # [false, true, 2], tasks reported class id True
        ds = make_dataset([np.full((i + 1, 1), float(i)) for i in range(3)])
        path = tmp_path / "pool.fsds"
        keep = 1 if "n_classes" in changes else None
        self.write_with_header(path, ds, keep=keep, **changes)
        with pytest.raises(ValueError, match=field):
            E.load_dataset(path)

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0)])
    def test_scalar_or_empty_instances_rejected(self, tmp_path, shape):
        # a file whose header and payload agree, and which used to load
        path = tmp_path / "pool.fsds"
        keep = None if math.prod(shape) else 0  # 3 rows of 8 bytes, or none
        self.write_with_header(
            path, make_dataset([np.zeros((3, 1))]), keep=keep, instance_shape=list(shape)
        )
        with pytest.raises(ValueError, match=bad_shape(shape)):
            E.load_dataset(path)

    def test_non_integer_class_id_rejected(self, tmp_path):
        ds = small_dataset(n_classes=3)
        path = tmp_path / "pool.fsds"
        self.write_with_header(path, ds, class_ids=[0, [1], 2])
        with pytest.raises(ValueError, match="class id"):
            E.load_dataset(path)


@st.composite
def datasets(draw):
    """Small datasets of any instance shape a layer can take, class ids and role."""
    n_classes = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    ids = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n_classes,
                        max_size=n_classes, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    arrays = [
        draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)),) + shape, elements=finite))
        for _ in ids
    ]
    return make_dataset(arrays, ids, role=draw(st.sampled_from(E.ROLES)))


def saved_bytes(dataset) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool.fsds")
        E.save_dataset(dataset, path)
        with open(path, "rb") as fh:
            return fh.read()


def load_bytes(raw: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool.fsds")
        with open(path, "wb") as fh:
            fh.write(raw)
        return E.load_dataset(path)


REFERENCE_BYTES = saved_bytes(E.synth_dataset(3, 4, (2, 3), 1.0, 1.0, seed=5, role="test"))
HEADER_END = 12 + int.from_bytes(REFERENCE_BYTES[8:12], "little")


def loads_or_value_error(raw: bytes) -> None:
    """The property every byte string must satisfy: loading either raises
    ``ValueError`` or gives a dataset that passed its own checks."""
    try:
        ds = load_bytes(raw)
    except ValueError:
        return
    assert isinstance(ds, E.Dataset)
    assert ds.pool.shape == (sum(ds.counts), *ds.instance_shape)
    assert ds.instance_shape and min(ds.instance_shape) > 0
    assert np.all(np.isfinite(ds.pool))


class TestFuzz:
    @given(dataset=datasets())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, dataset):
        raw = saved_bytes(dataset)
        loaded = load_bytes(raw)
        assert (loaded.role, loaded.class_ids, loaded.counts) == (
            dataset.role, dataset.class_ids, dataset.counts
        )
        assert loaded.pool.shape == dataset.pool.shape
        assert loaded.pool.tobytes() == dataset.pool.tobytes()  # -0.0 included
        assert saved_bytes(loaded) == raw

    @given(
        edits=st.lists(
            st.tuples(
                # most edits land in the fixed fields and the header
                st.one_of(
                    st.integers(0, HEADER_END - 1),
                    st.integers(0, len(REFERENCE_BYTES) - 1),
                ),
                st.integers(0, 255),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_bytes_load_or_raise_value_error(self, edits):
        raw = bytearray(REFERENCE_BYTES)
        for pos, value in edits:
            raw[pos] = value
        loads_or_value_error(bytes(raw))

    @given(cut=st.integers(0, len(REFERENCE_BYTES) - 1))
    @settings(max_examples=100, deadline=None)
    def test_truncated_bytes_raise_value_error(self, cut):
        with pytest.raises(ValueError):
            load_bytes(REFERENCE_BYTES[:cut])

    @given(extra=st.binary(min_size=1, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_appended_bytes_raise_value_error(self, extra):
        with pytest.raises(ValueError):
            load_bytes(REFERENCE_BYTES + extra)
