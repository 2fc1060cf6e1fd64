"""Datasets, N-way K-shot task sampling, and a portable dataset file format.

A dataset is one pool of equally shaped float64 instances, class after
class, with each class's instance count and id.  The pool is read-only and
contiguous; :func:`synth_dataset` draws straight into one and
:func:`load_dataset` reads a file's rows straight into one, so neither
holds the rows twice.

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
class Dataset:
    """A pool of equally shaped instances, class after class.

    Class ``i`` has id ``class_ids[i]`` and ``counts[i]`` instances, the
    rows ``offsets[i]`` to ``offsets[i] + counts[i]`` of ``pool``.  A
    read-only, C-contiguous float64 pool is kept as it is; any other is
    copied and frozen.  Each instance has one or more axes, none of them
    empty.  A non-finite instance raises ``NonFiniteError``.  A dataset is
    fixed once made: :func:`sample_task` caches per task spec what it has
    checked and built.
    """

    pool: np.ndarray = field(repr=False)
    counts: tuple
    class_ids: tuple
    role: str = "train"
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _label_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.counts, self.class_ids = tuple(self.counts), tuple(self.class_ids)
        if not self.counts:
            raise ValueError("dataset has no classes")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        if len(self.class_ids) != len(self.counts):
            raise ValueError(f"{len(self.class_ids)} class ids for {len(self.counts)} counts")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("duplicate class ids")
        for cid, count in zip(self.class_ids, self.counts):
            if count < 1:
                raise ValueError(f"class {cid} has no instances")
        pool = self.pool
        if not (
            isinstance(pool, np.ndarray)
            and pool.dtype == np.float64
            and pool.flags.c_contiguous
            and not pool.flags.writeable
        ):
            pool = np.array(pool, dtype=np.float64, order="C")
            pool.flags.writeable = False
        if pool.ndim < 2 or 0 in pool.shape[1:]:
            raise ValueError(
                f"instance shape must be one or more positive sizes, got {list(pool.shape[1:])}"
            )
        if pool.shape[0] != sum(self.counts):
            raise ValueError(
                f"pool has {pool.shape[0]} rows, the class counts add up to {sum(self.counts)}"
            )
        check_finite(pool, "dataset instances")
        self.pool = pool
        self.offsets = np.cumsum((0,) + self.counts[:-1])
        self.offsets.flags.writeable = False

    @property
    def instance_shape(self) -> tuple:
        return self.pool.shape[1:]

    @property
    def n_classes(self) -> int:
        return len(self.counts)


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
    for cid, count in zip(dataset.class_ids, dataset.counts):
        if count < need:
            raise ValueError(f"{name} class {cid} has {count} instances, tasks need {need}")


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
    chosen = rng.choice(dataset.n_classes, size=spec.ways, replace=False).tolist()
    rows = np.array([rng.choice(dataset.counts[ci], size=need, replace=False) for ci in chosen])
    rows += dataset.offsets[chosen][:, None]
    return Task(
        support_x=dataset.pool.take(rows[:, : spec.shots].ravel(), axis=0),
        support_y=support_y,
        query_x=dataset.pool.take(rows[:, spec.shots :].ravel(), axis=0),
        query_y=query_y,
        class_ids=[dataset.class_ids[ci] for ci in chosen],
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
    pool = np.empty((n_classes, per_class, *shape))
    for rows in pool:
        mean = class_separation * rng.standard_normal(shape)
        noise = noise_scale * rng.standard_normal((per_class, *shape))
        rows[...] = mean + noise
    pool.flags.writeable = False
    return Dataset(pool.reshape(-1, *shape), [per_class] * n_classes, range(n_classes), role)


def save_dataset(dataset: Dataset, path) -> None:
    header = {
        "n_classes": dataset.n_classes,
        "instance_shape": list(dataset.instance_shape),
        "class_ids": dataset.class_ids,
        "per_class_counts": dataset.counts,
        "role": dataset.role,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<I", DATASET_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(dataset.pool.astype("<f8", copy=False).tobytes())


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
    the dataset's pool, so the rows are held once.
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
    pool.flags.writeable = False  # kept as the dataset's pool, unless big-endian
    return Dataset(pool, counts, header["class_ids"], header["role"])
