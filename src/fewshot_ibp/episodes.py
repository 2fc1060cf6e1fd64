"""Datasets, N-way K-shot task sampling, and a portable dataset file format.

A dataset is a list of classes, each holding a stack of equally shaped
float64 instances.  When a :class:`Dataset` is made, it copies every class
into one read-only, contiguous pool of instances, class after class, and
each class's ``instances`` becomes a view of its rows there, so nothing is
stored twice.  Classes that already tile one read-only array that way
(:func:`load_dataset` reads a file's rows straight into one) keep it as
their pool, uncopied.

Episodic sampling (:func:`sample_task`) draws N distinct classes and K+Q
distinct instances per class, remapping global class ids to local labels
0..N-1 in selection order so learners cannot exploit global identity.  The
supply of a task spec is checked the first time the dataset is asked for
it, and its label arrays are built then too: every task of that spec shares
the same two read-only arrays.  Each draw makes the same ``rng.choice``
calls, in the same order, that drawing class by class would, and fetches
its support and its query set with one gather each from the pool.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import check_finite

DATASET_MAGIC = b"FSDS"
DATASET_VERSION = 1

ROLES = ("train", "validation", "test")


@dataclass
class ClassRecord:
    class_id: int
    instances: np.ndarray  # (count, *instance_shape); in a Dataset, a view of its pool

    def __post_init__(self):
        self.instances = np.asarray(self.instances, dtype=np.float64)
        if self.instances.shape[0] < 1:
            raise ValueError(f"class {self.class_id} has no instances")


@dataclass
class Dataset:
    """Classes of equally shaped instances, pooled once when made.

    ``pool`` holds every instance, class after class, read-only and
    contiguous; ``offsets[i]`` is the first row of class ``i`` there, and
    ``classes[i].instances`` is a view of that class's rows.  The pool is a
    copy of the classes' rows, unless they already tile one read-only
    float64 array exactly, class after class: that array is the pool.  A
    non-finite instance raises ``NonFiniteError``.  A dataset is fixed once
    made: :func:`sample_task` caches per task spec what it has checked and
    built.
    """

    classes: list[ClassRecord]
    role: str = "train"
    pool: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _label_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.classes:
            raise ValueError("dataset has no classes")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        ids = [c.class_id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate class ids")
        shapes = {c.instances.shape[1:] for c in self.classes}
        if len(shapes) != 1:
            raise ValueError(f"instances have mixed shapes: {sorted(shapes)}")
        rows = [c.instances for c in self.classes]
        pool = _tiled_array(rows)
        if pool is None:
            pool = np.concatenate(rows)
            pool.flags.writeable = False
        check_finite(pool, "dataset instances")
        self.pool = pool
        counts = [c.instances.shape[0] for c in self.classes]
        self.offsets = np.cumsum([0] + counts[:-1])
        self.offsets.flags.writeable = False
        for record, start, count in zip(self.classes, self.offsets.tolist(), counts):
            record.instances = self.pool[start : start + count]

    @property
    def instance_shape(self) -> tuple:
        return self.pool.shape[1:]

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _tiled_array(rows: list[np.ndarray]) -> np.ndarray | None:
    """The read-only, contiguous float64 array that ``rows`` are consecutive
    views of, in order and with no row left over, or None."""
    base = rows[0].base
    if not (
        isinstance(base, np.ndarray)
        and base.dtype == np.float64
        and base.flags.c_contiguous
        and not base.flags.writeable
    ):
        return None
    start = 0
    for part in rows:
        stop = start + part.shape[0]
        if part.__array_interface__ != base[start:stop].__array_interface__:
            return None
        start = stop
    return base if start == base.shape[0] else None


@dataclass(frozen=True)
class TaskSpec:
    """Ways N, support shots K, and query shots Q per class."""

    ways: int
    shots: int
    query_shots: int

    def __post_init__(self):
        if self.ways < 2:
            raise ValueError("a task needs at least 2 ways")
        if self.shots < 1 or self.query_shots < 1:
            raise ValueError("shots and query shots must be at least 1")


@dataclass
class Task:
    """Support and query batches with local labels 0..N-1.

    Rows are grouped class-major: instances of local class k occupy the
    contiguous block k*K..(k+1)*K in the support and k*Q..(k+1)*Q in the
    query.  ``class_ids`` records the source class of each local label.
    Tasks drawn by :func:`sample_task` share their read-only label arrays
    with every task of their spec.
    """

    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    class_ids: list[int] = field(default_factory=list)

    @property
    def ways(self) -> int:
        return len(self.class_ids)


def check_supply(dataset: Dataset, spec: TaskSpec, name: str = "dataset") -> None:
    """Raise ``ValueError`` unless every task of ``spec`` can be drawn from
    ``dataset``: at least N classes, each with at least K+Q instances."""
    if dataset.n_classes < spec.ways:
        raise ValueError(f"{name} has {dataset.n_classes} classes, tasks need {spec.ways}")
    need = spec.shots + spec.query_shots
    for record in dataset.classes:
        if record.instances.shape[0] < need:
            raise ValueError(
                f"{name} class {record.class_id} has {record.instances.shape[0]} "
                f"instances, tasks need {need}"
            )


def _spec_labels(dataset: Dataset, spec: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """The read-only support and query labels of every task of ``spec``,
    built, and the supply checked, on the first call for ``spec``.  A spec
    the dataset cannot supply is not cached, so it raises on every call."""
    labels = dataset._label_cache.get(spec)
    if labels is None:
        check_supply(dataset, spec)
        labels = (
            np.repeat(np.arange(spec.ways), spec.shots),
            np.repeat(np.arange(spec.ways), spec.query_shots),
        )
        for arr in labels:
            arr.flags.writeable = False
        dataset._label_cache[spec] = labels
    return labels


def sample_task(dataset: Dataset, spec: TaskSpec, rng: np.random.Generator) -> Task:
    """Draw one episode: N classes without replacement, K+Q distinct
    instances each, first K to the support set.

    The classes come from one ``rng.choice`` call, then each class's
    instances from one call of its own, in the order the classes were
    chosen.  The support and the query set are each one gather of those
    rows from ``dataset.pool``, a fresh array the caller may write to.  The
    labels are read-only arrays, built once per spec and shared by all its
    tasks, and the spec's supply is checked once, on its first draw.
    """
    support_y, query_y = _spec_labels(dataset, spec)
    need = spec.shots + spec.query_shots
    chosen = rng.choice(dataset.n_classes, size=spec.ways, replace=False)
    records = [dataset.classes[ci] for ci in chosen.tolist()]
    rows = np.array(
        [rng.choice(record.instances.shape[0], size=need, replace=False) for record in records]
    )
    rows += dataset.offsets[chosen][:, None]
    return Task(
        support_x=dataset.pool.take(rows[:, : spec.shots].ravel(), axis=0),
        support_y=support_y,
        query_x=dataset.pool.take(rows[:, spec.shots :].ravel(), axis=0),
        query_y=query_y,
        class_ids=[record.class_id for record in records],
    )


def synth_dataset(
    n_classes: int,
    per_class: int,
    shape,
    class_separation: float,
    noise_scale: float,
    seed: int,
    role: str = "train",
) -> Dataset:
    """Gaussian class clusters for desk-scale experiments.

    Class means are drawn i.i.d. from N(0, class_separation^2 I), so their
    pairwise distances scale with ``class_separation`` (zero separation puts
    every mean at the origin).  Instances add isotropic noise of scale
    ``noise_scale``.  Deterministic in ``seed``.
    """
    if n_classes < 1 or per_class < 1:
        raise ValueError("class and instance counts must be positive")
    for name, value in (("class_separation", class_separation), ("noise_scale", noise_scale)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    shape = tuple(shape)
    if not shape or min(shape) < 1:
        raise ValueError(f"shape must be one or more positive sizes, got {list(shape)}")
    rng = np.random.default_rng(seed)
    classes = []
    for cid in range(n_classes):
        mean = class_separation * rng.standard_normal(shape)
        noise = noise_scale * rng.standard_normal((per_class, *shape))
        classes.append(ClassRecord(cid, mean[None, ...] + noise))
    return Dataset(classes, role=role)


def save_dataset(dataset: Dataset, path) -> None:
    header = {
        "n_classes": dataset.n_classes,
        "instance_shape": list(dataset.instance_shape),
        "class_ids": [c.class_id for c in dataset.classes],
        "per_class_counts": [c.instances.shape[0] for c in dataset.classes],
        "role": dataset.role,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<I", DATASET_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for record in dataset.classes:
            fh.write(np.ascontiguousarray(record.instances, dtype="<f8").tobytes())


_HEADER_KEYS = ("n_classes", "instance_shape", "class_ids", "per_class_counts", "role")


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int, what: str) -> bytes:
    """Exactly ``n`` bytes of ``fh``; a short read raises ``ValueError``.

    A count beyond the end of the file is refused before ``read`` is asked
    for it, so a corrupt size field cannot make it allocate that much.
    """
    left = _bytes_left(fh)
    if n > left:
        raise ValueError(f"truncated dataset {what}: {left} of {n} bytes")
    buf = fh.read(n)
    if len(buf) < n:
        raise ValueError(f"truncated dataset {what}: {len(buf)} of {n} bytes")
    return buf


def _is_int(value) -> bool:
    """Whether a header value is a JSON integer; ``true`` and ``false`` are
    Python ints too, and are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_header(header) -> None:
    if not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS):
        raise ValueError(f"dataset header must be an object with keys {_HEADER_KEYS}")
    ids, counts, shape = header["class_ids"], header["per_class_counts"], header["instance_shape"]
    if not all(isinstance(v, list) for v in (ids, counts, shape)):
        raise ValueError("class_ids, per_class_counts and instance_shape must be lists")
    if not _is_int(header["n_classes"]):
        raise ValueError(f"n_classes {header['n_classes']!r} in dataset header is not an integer")
    if not header["n_classes"] == len(ids) == len(counts):
        raise ValueError(
            f"dataset header lists n_classes={header['n_classes']}, "
            f"{len(ids)} class ids and {len(counts)} per-class counts"
        )
    for name, values in (("per_class_counts", counts), ("instance_shape", shape)):
        for value in values:
            if not _is_int(value) or value < 0:
                raise ValueError(f"bad count or extent {value!r} in dataset header {name}")
    for cid in ids:
        if not _is_int(cid):
            raise ValueError(f"class id {cid!r} in dataset header class_ids is not an integer")


def load_dataset(path) -> Dataset:
    """Read a dataset file; a malformed or truncated file raises ``ValueError``.

    The payload size the header implies is checked against the bytes left in
    the file before any of it is read.  The payload is read straight into
    the dataset's pool, so the rows are held once, and each class's
    ``instances`` is a view of its rows there.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != DATASET_MAGIC:
            raise ValueError(f"bad dataset magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != DATASET_VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        _check_header(header)
        shape = tuple(header["instance_shape"])
        item_bytes = 8 * math.prod(shape)
        payload = item_bytes * sum(header["per_class_counts"])
        left = _bytes_left(fh)
        if payload > left:
            raise ValueError(
                f"truncated dataset payload: the header implies {payload} bytes, "
                f"{left} are left"
            )
        if payload < left:
            raise ValueError("trailing bytes after dataset payload")
        counts = header["per_class_counts"]
        pool = np.empty((sum(counts), *shape), dtype="<f8")
        got = fh.readinto(pool.reshape(-1).view(np.uint8))
        if got != payload:
            raise ValueError(f"truncated dataset payload: {got} of {payload} bytes")
    pool = pool.astype(np.float64, copy=False)  # a copy only on a big-endian machine
    pool.flags.writeable = False
    starts = np.cumsum([0] + counts).tolist()
    classes = [
        ClassRecord(cid, pool[start:stop])
        for cid, start, stop in zip(header["class_ids"], starts, starts[1:])
    ]
    return Dataset(classes, role=header["role"])
