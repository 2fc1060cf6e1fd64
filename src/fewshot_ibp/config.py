"""Run configuration: one dataclass describing a full experiment.

Configs load from JSON files whose keys mirror the field names.  Dataset
entries under ``data``, keyed by split (``train``, ``val``, ``test``), are
either ``{"path": ...}`` (the portable dataset format) or ``{"synth":
{...}}`` with :func:`fewshot_ibp.episodes.synth_dataset` keyword arguments.
Each entry's split, keys and types are checked when the config is built,
naming its split and field before any file is opened; its values (a role,
a class count) when the data is made (:func:`resolve_data`), naming its split.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

from .episodes import Dataset, TaskSpec, check_supply, load_dataset, synth_dataset
from .layers import check_instance_shape, check_layer_descs
from .learners import DISTANCES
from .objective import WeightTriple

LEARNERS = ("protonet", "maml")
OBJECTIVES = (
    "vanilla",
    "ibp",
    "ibpi",
    "ibpi_no_bound_loss",
    "mixup_input",
    "mixup_embedding",
)
SCHEMA_VERSION = 1
# the dataset splits a run reads; any other name under ``data`` would be
# materialized and then ignored
SPLITS = ("train", "val", "test")

# tuned defaults: softmax temperature differs per learner
DEFAULT_GAMMA = {"maml": 0.1, "protonet": 1.0}
# fields annotated ``int``, ``bool`` or ``str`` hold exactly that type: no
# bool for an int, no float or string for either
_EXACT_TYPES = {"int": (int, "an integer"), "bool": (bool, "true or false"), "str": (str, "text")}
# fields annotated ``float`` hold a real number that is not a bool (an int
# too: a JSON config may write 0 for 0.0); ``float | None`` may also hold None
_REAL_TYPES = ("float", "float | None")


def _type_fault(annotation, value):
    """What ``value`` must be and is not, for a field annotated
    ``annotation`` (see above), or None."""
    kind, noun = _EXACT_TYPES.get(annotation, (None, None))
    if kind is not None and type(value) is not kind:
        return noun
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if annotation in _REAL_TYPES and not (real or (value is None and annotation == "float | None")):
        return "a number"
    return None


def _check_data_entry(split, entry) -> None:
    """Raise ``ValueError`` naming the split and the field unless ``split``
    is one of :data:`SPLITS` and ``entry`` is ``{"path": <file path>}`` or
    ``{"synth": {<synth_dataset arguments>}}``."""
    if split not in SPLITS:
        raise ValueError(f"unknown data split {split!r}, expected one of {SPLITS}")
    where = f"data.{split}"
    if not isinstance(entry, dict) or set(entry) not in ({"path"}, {"synth"}):
        raise ValueError(f"{where} must be {{'path': ...}} or {{'synth': {{...}}}}, got {entry!r}")
    if "path" in entry:  # an int would open, and then close, that file descriptor
        if not isinstance(entry["path"], (str, os.PathLike)):
            raise ValueError(f"{where}.path must be a file path, got {entry['path']!r}")
        return
    synth, params = entry["synth"], inspect.signature(synth_dataset).parameters
    if not isinstance(synth, dict):
        raise ValueError(f"{where}.synth must be an object, got {synth!r}")
    unknown = sorted(map(str, synth.keys() - params.keys()))
    if unknown:
        raise ValueError(f"{where}.synth: unknown keys {unknown}")
    for name, param in params.items():
        value = synth.get(name, param.default)
        if value is param.empty:
            raise ValueError(f"{where}.synth needs '{name}'")
        fault = _type_fault(param.annotation, value)
        if name == "shape" and not (isinstance(value, (list, tuple)) and all(type(n) is int for n in value)):
            fault = "a list of integers"  # not annotated
        if fault is not None:
            raise ValueError(f"{where}.synth.{name} must be {fault}, got {value!r}")


@dataclass
class RunConfig:
    learner: str
    objective: str
    layers: list = field(default_factory=list)
    split_index: int = 1
    data: dict = field(default_factory=dict)
    train_ways: int = 5
    train_shots: int = 1
    train_query_shots: int = 15
    eval_ways: int = 5
    eval_shots: int = 1
    eval_query_shots: int = 15
    max_steps: int = 2000
    meta_batch: int = 4
    meta_lr: float = 0.001
    inner_lr: float = 0.01
    inner_steps: int = 5
    eval_inner_steps: int = 10
    first_order: bool = True
    epsilon: float = 0.1
    gamma: float | None = None
    static_weights: list | None = None
    alpha: float = 0.5
    beta: float = 0.5
    shared_mix_coeffs: bool = True
    interp_probability: float | None = None
    bounds_on_adapted: bool = True
    distance: str = "sqeuclidean"
    seed: int = 0
    eval_interval: int = 200
    n_val_tasks: int = 100
    n_eval_tasks: int = 600
    out_dir: str | None = None

    def __post_init__(self):
        if self.learner not in LEARNERS:
            raise ValueError(f"learner must be one of {LEARNERS}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.distance not in DISTANCES:
            raise ValueError(f"distance must be one of {DISTANCES}")
        for f in fields(self):
            value = getattr(self, f.name)
            noun = _type_fault(f.type, value)
            if noun is not None:
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        for name in ("train_ways", "eval_ways"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        for name in ("max_steps", "meta_batch", "eval_interval", "n_val_tasks", "n_eval_tasks",
                     "train_shots", "train_query_shots", "eval_shots", "eval_query_shots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("inner_steps", "eval_inner_steps", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("epsilon", "meta_lr", "inner_lr"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        for name in ("alpha", "beta") + (() if self.gamma is None else ("gamma",)):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        p = self.interp_probability
        if p is not None and not 0 <= p <= 1:
            raise ValueError("interp_probability must lie in [0, 1]")
        if not isinstance(self.data, dict):
            raise ValueError(f"data must be an object of dataset entries, got {self.data!r}")
        for split, entry in self.data.items():
            _check_data_entry(split, entry)
        if not self.layers:
            raise ValueError("config needs a network layer list")
        check_layer_descs(self.layers)
        last = self.layers[-1]  # a MAML head scores the ways of each split read
        head = last["out"] if self.learner == "maml" and last["kind"] == "fully_connected" else 0
        for name, splits in (("train_ways", {"train"}), ("eval_ways", {"val", "test"})):
            if 0 < head < getattr(self, name) and splits & self.data.keys():
                raise ValueError(f"layer {len(self.layers) - 1} (fully_connected): a MAML head "
                                 f"of 'out' {head} cannot score {name} = {getattr(self, name)}")
        if not 0 < self.split_index <= len(self.layers):
            raise ValueError("split_index outside the layer range")
        if self.static_weights is not None:
            if len(self.static_weights) != 3:
                raise ValueError("static_weights needs exactly three entries")
            if any(type(w) not in (int, float) for w in self.static_weights):
                raise ValueError(f"static_weights must be numbers, got {self.static_weights!r}")
            try:
                WeightTriple(*self.static_weights)
            except ValueError as err:
                raise ValueError(f"static_weights: {err}") from None

    @property
    def gamma_value(self) -> float:
        return DEFAULT_GAMMA[self.learner] if self.gamma is None else self.gamma

    def train_spec(self) -> TaskSpec:
        return TaskSpec(self.train_ways, self.train_shots, self.train_query_shots)

    def eval_spec(self) -> TaskSpec:
        return TaskSpec(self.eval_ways, self.eval_shots, self.eval_query_shots)

    def to_dict(self) -> dict:
        return asdict(self)

    def fingerprint(self) -> str:
        """Stable digest of everything except seed and output location."""
        d = self.to_dict()
        d.pop("seed")
        d.pop("out_dir")
        blob = json.dumps(d, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def resolve_dataset(entry: dict) -> Dataset:
    """Materialize one checked ``data`` entry: a file path or synth parameters."""
    if "path" in entry:
        return load_dataset(entry["path"])
    return synth_dataset(**entry["synth"])


def resolve_data(config: RunConfig) -> dict[str, Dataset]:
    """Datasets for the splits named in the config (train required).

    A ``ValueError`` from making a split's dataset is raised again with a
    ``data.<split>: `` prefix.  Raises ``ValueError`` unless the train split
    can supply every task of :meth:`RunConfig.train_spec`, the ``val`` and
    ``test`` splits every task of :meth:`RunConfig.eval_spec`, each split's
    instances fit the layers, and, for MAML, the network's output rows have
    a score for each of the split's ways, so a run that cannot finish fails
    before its first step.
    """
    if "train" not in config.data:
        raise ValueError("config data section needs at least a 'train' entry")
    data = {}
    for split, entry in config.data.items():
        try:
            data[split] = resolve_dataset(entry)
        except ValueError as err:
            raise ValueError(f"data.{split}: {err}") from err
    eval_spec = config.eval_spec()
    specs = {"train": config.train_spec(), "val": eval_spec, "test": eval_spec}
    for split, spec in specs.items():
        if split in data:
            check_supply(data[split], spec, f"{split} split")
            shape = data[split].pool.shape[1:]
            out = check_instance_shape(config.layers, shape, f"{split} instances of shape {shape}")
            if config.learner == "maml" and (len(out) != 1 or out[0] < spec.ways):
                raise ValueError(f"a MAML network whose outputs have shape {out} cannot score "
                                 f"the {spec.ways} ways of the {split} split")
    return data
