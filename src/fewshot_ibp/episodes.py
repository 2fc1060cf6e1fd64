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

:func:`draw_task_rows` draws a block of tasks, one per generator, and gives
the classes and pool rows :func:`sample_task` would draw with each,
leaving every generator in the state :func:`sample_task` leaves it in.
Without replacement, numpy's ``Generator.choice`` runs Floyd's algorithm
and then a Fisher-Yates shuffle, each draw below a bound taken from a raw
32-bit word by Lemire's method (arXiv 1805.10941).  The block drawer takes
all of a task's words with one ``integers`` call per generator (two where a
class has exactly K+Q instances), and resolves both algorithms across the
whole block with array operations.  Where numpy shuffles the tail of a full
range instead, it draws with :func:`sample_task`'s calls.
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


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy int, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_int(value, name: str) -> int:
    """``value`` as a Python int; a value that is not an integer (a float, a
    bool) raises ``ValueError`` naming ``name``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _ints(values, name: str) -> tuple:
    """``values`` as a tuple of Python ints; a value that is not an integer
    (a float, a bool) raises ``ValueError`` naming ``name``."""
    values = tuple(values)
    for v in values:
        if not _is_integer(v):
            raise ValueError(f"dataset {name} must be integers, got {v!r}")
    return tuple(map(int, values))


@dataclass
class Dataset:
    """A pool of equally shaped instances, class after class.

    Class ``i`` has id ``class_ids[i]`` and ``counts[i]`` instances, the
    rows ``offsets[i]`` to ``offsets[i] + counts[i]`` of ``pool``.  A
    read-only, C-contiguous float64 pool is kept as it is; any other is
    copied and frozen.  Each instance has one or more axes, none of them
    empty.  Counts and ids must be integers, and are kept as Python ints.
    A non-finite instance raises ``NonFiniteError``.  A dataset is fixed
    once made: task draws and gathers cache per task spec what they have
    checked and built.
    """

    pool: np.ndarray = field(repr=False)
    counts: tuple
    class_ids: tuple
    role: str = "train"
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _label_cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.counts = _ints(self.counts, "counts")
        self.class_ids = _ints(self.class_ids, "class_ids")
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
        for name in ("ways", "shots", "query_shots"):
            object.__setattr__(self, name, as_int(getattr(self, name), f"task spec {name}"))
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
        """Local labels 0..N-1: one more than the largest support label."""
        return int(np.max(self.support_y, initial=-1)) + 1


def check_supply(dataset: Dataset, spec: TaskSpec, name: str = "dataset") -> None:
    """Raise ``ValueError`` unless every task of ``spec`` can be drawn from
    ``dataset``: at least N classes, each with at least K+Q instances."""
    if dataset.n_classes < spec.ways:
        raise ValueError(f"{name} has {dataset.n_classes} classes, tasks need {spec.ways}")
    need = spec.shots + spec.query_shots
    for cid, count in zip(dataset.class_ids, dataset.counts):
        if count < need:
            raise ValueError(f"{name} class {cid} has {count} instances, tasks need {need}")


def spec_labels(dataset: Dataset, spec: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
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


def _task_rows(dataset: Dataset, spec: TaskSpec, rng: np.random.Generator):
    """The class indices (ways,) and pool rows (ways, K+Q) of one task:
    the classes from one ``rng.choice`` call, then each class's instances
    from one call of its own, in the order the classes were chosen."""
    need = spec.shots + spec.query_shots
    chosen = rng.choice(dataset.n_classes, size=spec.ways, replace=False).tolist()
    rows = np.array([rng.choice(dataset.counts[ci], size=need, replace=False) for ci in chosen])
    rows += dataset.offsets[chosen][:, None]
    return chosen, rows


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
    support_y, query_y = spec_labels(dataset, spec)
    chosen, rows = _task_rows(dataset, spec, rng)
    return Task(
        support_x=dataset.pool.take(rows[:, : spec.shots].ravel(), axis=0),
        support_y=support_y,
        query_x=dataset.pool.take(rows[:, spec.shots :].ravel(), axis=0),
        query_y=query_y,
        class_ids=[dataset.class_ids[ci] for ci in chosen],
    )


def _tail_shuffled(items: int, size: int) -> bool:
    """Whether ``Generator.choice(items, size, replace=False)`` shuffles the
    tail of a full range instead of running Floyd's algorithm."""
    return items > 10_000 and size > items // 50


def _replayed(rng, words, items, size: int) -> list:
    """``rng.choice(m, size, replace=False)`` for each ``m`` of ``items`` in
    turn, one draw at a time, from the iterator ``words`` and then from
    ``rng``: the path for a block stream whose words include a rejection."""

    def below(bound):
        if bound == 1:
            return 0
        while True:
            word = next(words, None)
            if word is None:
                word = int(rng.integers(0, 2**32, size=1, dtype=np.uint32)[0])
            m = word * bound
            if (m & 0xFFFFFFFF) >= 2**32 % bound:
                return m >> 32

    drawn = []
    for m in items:
        out = []
        for j in range(m - size, m):
            value = below(j + 1)
            out.append(j if value in out else value)
        for i in range(size - 1, 0, -1):
            t = below(i + 1)
            out[i], out[t] = out[t], out[i]
        drawn.append(out)
    return drawn


def _resolved(words: np.ndarray, items: np.ndarray, size: int, dtype):
    """``choice(items[s, i], size, replace=False)`` for every stream ``s``
    and each ``i``, from ``words`` laid out (n, k, 2 size - 1): an (n, k,
    size) array of ``dtype``, and whether each stream had a word rejected.

    Each choice draws ``size`` values for Floyd's algorithm, the ``j``-th
    below ``items - size + j + 1``, then ``size - 1`` for the shuffle, below
    ``size`` down to 2; a bound of 1 (the first draw when ``items ==
    size``) takes no word, and its slot is left free.  The draws are
    resolved one slot at a time across the block, each choice a column of
    a (size, n k) array.  A word that Lemire's method rejects shifts every
    later draw of its stream onto the next word, so such a stream must be
    drawn again one draw at a time (:func:`_replayed`).
    """
    n, k = items.shape
    flat = words.reshape(n * k, -1)
    rejected = np.zeros(n * k, dtype=bool)

    def below(slot, bound):
        bound = np.asarray(bound, dtype=np.uint64)
        m = flat[:, slot].astype(np.uint64) * bound
        np.logical_or(rejected, (m & 0xFFFFFFFF) < np.uint64(2**32) % bound, out=rejected)
        return (m >> 32).astype(np.int64)

    out = np.empty((size, n * k), dtype=dtype)
    last = items.reshape(-1) - size  # Floyd's j before its first draw
    for c in range(size):  # Floyd's algorithm
        value = below(c, last + c + 1)
        out[c] = np.where((out[:c] == value).any(axis=0), last + c, value)
    choices = np.arange(n * k)
    for c, i in enumerate(range(size - 1, 0, -1), start=size):  # the shuffle
        t = below(c, i + 1)
        swapped = out[t, choices]
        out[t, choices] = out[i]
        out[i] = swapped
    return np.ascontiguousarray(out.T).reshape(n, k, size), rejected.reshape(n, k).any(axis=1)


def _block_choices(rngs, items: np.ndarray, size: int, dtype) -> np.ndarray:
    """``rngs[s].choice(items[s, i], size, replace=False)`` for each ``i`` in
    turn, for every stream ``s``, from one ``integers`` call per stream: an
    (n, k, size) array of ``dtype`` (:func:`_resolved`)."""
    slots = np.ones(items.shape + (2 * size - 1,), dtype=bool)  # which slots take a word
    slots[items == size, 0] = False
    words = np.empty(slots.shape, dtype=np.uint32)
    for s, rng in enumerate(rngs):
        words[s][slots[s]] = rng.integers(0, 2**32, size=int(slots[s].sum()), dtype=np.uint32)
    out, rejected = _resolved(words, items, size, dtype)
    for s in np.flatnonzero(rejected).tolist():
        out[s] = _replayed(rngs[s], iter(words[s][slots[s]].tolist()), items[s].tolist(), size)
    return out


def draw_task_rows(dataset: Dataset, spec: TaskSpec, rngs) -> tuple[np.ndarray, np.ndarray]:
    """The class indices (n, ways) and pool rows (n, ways, K+Q) that
    :func:`sample_task` draws with each of the ``n`` generators ``rngs``,
    each generator left in the state :func:`sample_task` leaves it in.
    Both are int32, so that a block's rows take half the memory, unless
    the pool has 2**31 rows or more.

    The classes of the whole block are resolved first, then their
    instances (:func:`_resolved`), from one ``integers`` call per generator
    (a stream with a rejected word drawn again as a whole task), or from
    two where a class has exactly K+Q instances, since a task's words then
    depend on its classes (:func:`_block_choices`).  Where numpy would
    shuffle the tail of a full range (more than 10,000 classes, or
    instances of a class, and a sample of more than 1/50 of them) every
    generator draws with :func:`sample_task`'s calls.  The supply is
    checked first, as :func:`sample_task` checks it.
    """
    rngs = list(rngs)
    spec_labels(dataset, spec)
    n, ways, need = len(rngs), spec.ways, spec.shots + spec.query_shots
    dtype = np.int32 if len(dataset.pool) < 2**31 else np.int64
    if not rngs:
        return np.empty((0, ways), dtype=dtype), np.empty((0, ways, need), dtype=dtype)
    if _tail_shuffled(dataset.n_classes, ways) or any(
        _tail_shuffled(count, need) for count in dataset.counts
    ):
        drawn = zip(*(_task_rows(dataset, spec, rng) for rng in rngs))
        return tuple(np.array(part, dtype=dtype) for part in drawn)
    counts, n_classes = np.array(dataset.counts), np.full((n, 1), dataset.n_classes)
    if need in dataset.counts:  # a task's words depend on its classes
        classes = _block_choices(rngs, n_classes, ways, dtype)[:, 0]
        rows = _block_choices(rngs, counts[classes], need, dtype)
    else:
        first, split = int(dataset.n_classes == ways), 2 * ways - 1  # the class words' slots
        words = np.empty((n, split + ways * (2 * need - 1)), dtype=np.uint32)
        for s, rng in enumerate(rngs):
            words[s, first:] = rng.integers(0, 2**32, size=len(words[s]) - first, dtype=np.uint32)
        classes, rejected = _resolved(words[:, None, :split], n_classes, ways, dtype)
        classes = classes[:, 0]
        rows, also = _resolved(words[:, split:].reshape(n, ways, -1), counts[classes], need, dtype)
        for s in np.flatnonzero(rejected | also).tolist():
            taken = iter(words[s, first:].tolist())
            classes[s] = _replayed(rngs[s], taken, [dataset.n_classes], ways)[0]
            rows[s] = _replayed(rngs[s], taken, counts[classes[s]].tolist(), need)
    rows += dataset.offsets[classes][..., None]
    return classes, rows


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
