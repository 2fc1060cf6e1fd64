"""Datasets, N-way K-shot task sampling, and a portable dataset file format.

A dataset is a list of classes, each holding a stack of equally shaped
float64 instances.  Episodic sampling draws N distinct classes and K+Q
distinct instances per class, remapping global class ids to local labels
0..N-1 in selection order so learners cannot exploit global identity.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import as_tensor

DATASET_MAGIC = b"FSDS"
DATASET_VERSION = 1

ROLES = ("train", "validation", "test")


@dataclass
class ClassRecord:
    class_id: int
    instances: np.ndarray  # (count, *instance_shape)

    def __post_init__(self):
        self.instances = as_tensor(self.instances)
        if self.instances.shape[0] < 1:
            raise ValueError(f"class {self.class_id} has no instances")


@dataclass
class Dataset:
    classes: list[ClassRecord]
    role: str = "train"

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

    @property
    def instance_shape(self) -> tuple:
        return self.classes[0].instances.shape[1:]

    @property
    def n_classes(self) -> int:
        return len(self.classes)


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
    """

    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    class_ids: list[int] = field(default_factory=list)

    @property
    def ways(self) -> int:
        return len(self.class_ids)


def sample_task(dataset: Dataset, spec: TaskSpec, rng: np.random.Generator) -> Task:
    """Draw one episode: N classes without replacement, K+Q distinct
    instances each, first K to the support set."""
    if dataset.n_classes < spec.ways:
        raise ValueError(
            f"dataset has {dataset.n_classes} classes, task needs {spec.ways}"
        )
    need = spec.shots + spec.query_shots
    chosen = rng.choice(dataset.n_classes, size=spec.ways, replace=False)
    support, query, class_ids = [], [], []
    for local, ci in enumerate(chosen):
        record = dataset.classes[int(ci)]
        count = record.instances.shape[0]
        if count < need:
            raise ValueError(
                f"class {record.class_id} has {count} instances, task needs {need}"
            )
        picks = rng.choice(count, size=need, replace=False)
        support.append(record.instances[picks[: spec.shots]])
        query.append(record.instances[picks[spec.shots :]])
        class_ids.append(record.class_id)
    support_y = np.repeat(np.arange(spec.ways), spec.shots)
    query_y = np.repeat(np.arange(spec.ways), spec.query_shots)
    return Task(
        support_x=np.concatenate(support),
        support_y=support_y,
        query_x=np.concatenate(query),
        query_y=query_y,
        class_ids=class_ids,
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
    if class_separation < 0 or noise_scale < 0:
        raise ValueError("separation and noise must be non-negative")
    shape = tuple(shape)
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


def _read_exact(fh, n: int, what: str) -> bytes:
    """Exactly ``n`` bytes of ``fh``; a short read raises ``ValueError``."""
    buf = fh.read(n)
    if len(buf) < n:
        raise ValueError(f"truncated dataset {what}: {len(buf)} of {n} bytes")
    return buf


def _check_header(header) -> None:
    if not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS):
        raise ValueError(f"dataset header must be an object with keys {_HEADER_KEYS}")
    ids, counts, shape = header["class_ids"], header["per_class_counts"], header["instance_shape"]
    if not all(isinstance(v, list) for v in (ids, counts, shape)):
        raise ValueError("class_ids, per_class_counts and instance_shape must be lists")
    if not header["n_classes"] == len(ids) == len(counts):
        raise ValueError(
            f"dataset header lists n_classes={header['n_classes']}, "
            f"{len(ids)} class ids and {len(counts)} per-class counts"
        )
    for value in [*counts, *shape]:
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"bad count or extent {value!r} in dataset header")


def load_dataset(path) -> Dataset:
    """Read a dataset file; a malformed or truncated file raises ``ValueError``."""
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
        per_item = int(np.prod(shape)) if shape else 1
        classes = []
        for cid, count in zip(header["class_ids"], header["per_class_counts"]):
            buf = _read_exact(fh, count * per_item * 8, "payload")
            arr = np.frombuffer(buf, dtype="<f8").reshape((count, *shape))
            classes.append(ClassRecord(cid, arr))
        if fh.read(1):
            raise ValueError("trailing bytes after dataset payload")
    return Dataset(classes, role=header["role"])
