"""Layer vocabulary, network container, forward pass, and checkpoints.

Supported layer kinds: ``fully_connected``, ``conv2d``, ``batchnorm``,
``relu``, ``maxpool2d``, ``flatten``.  A :class:`Network` is an ordered layer
list plus a split index separating the embedding prefix from the classifier
head.  Batchnorm normalizes with statistics of the current batch, detached
from differentiation, so within one step it acts as a fixed affine map.

With ``task_axis=True`` the forward pass runs T independent tasks at once:
inputs carry a leading task axis, parameters are either shared or stacked
per task (a leading axis of T), and batchnorm takes its statistics per task.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    add,
    as_tensor,
    check_finite,
    conv2d,
    matmul,
    maxpool2d,
    mul,
    relu as relu_op,
    reshape,
    sub,
    transpose,
    value_of,
)

CHECKPOINT_VERSION = 1

AFFINE_KINDS = ("fully_connected", "conv2d", "batchnorm")
LAYER_KINDS = AFFINE_KINDS + ("relu", "maxpool2d", "flatten")


@dataclass
class LayerSpec:
    """One layer: a kind tag, optional parameters, and hyperparameters."""

    kind: str
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    stride: int = 1
    window: int = 0
    eps: float = 1e-5

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "maxpool2d" and (self.window <= 0 or self.stride <= 0):
            raise ValueError("maxpool window and stride must be positive")
        if self.kind == "conv2d" and self.stride <= 0:
            raise ValueError("conv stride must be positive")
        if self.weight is not None:
            self.weight = as_tensor(self.weight)
        if self.bias is not None:
            self.bias = as_tensor(self.bias)

    @property
    def has_params(self) -> bool:
        return self.weight is not None

    def param_items(self):
        if self.weight is not None:
            yield "weight", self.weight
        if self.bias is not None:
            yield "bias", self.bias


def fully_connected(weight, bias) -> LayerSpec:
    w = as_tensor(weight)
    b = as_tensor(bias)
    if w.ndim != 2 or b.shape != (w.shape[0],):
        raise ValueError(f"inconsistent fc shapes {w.shape} / {b.shape}")
    return LayerSpec("fully_connected", weight=w, bias=b)


def conv(weight, bias, stride: int = 1) -> LayerSpec:
    w = as_tensor(weight)
    b = as_tensor(bias)
    if w.ndim != 4 or b.shape != (w.shape[0],):
        raise ValueError(f"inconsistent conv shapes {w.shape} / {b.shape}")
    return LayerSpec("conv2d", weight=w, bias=b, stride=stride)


def batchnorm(channels: int, eps: float = 1e-5) -> LayerSpec:
    return LayerSpec(
        "batchnorm", weight=np.ones(channels), bias=np.zeros(channels), eps=eps
    )


def relu() -> LayerSpec:
    return LayerSpec("relu")


def maxpool(window: int, stride: int | None = None) -> LayerSpec:
    return LayerSpec("maxpool2d", window=window, stride=window if stride is None else stride)


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def init_fully_connected(in_dim: int, out_dim: int, rng) -> LayerSpec:
    # fan-in scaled uniform weights, zero biases
    bound = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
    return fully_connected(w, np.zeros(out_dim))


def init_conv(in_channels: int, out_channels: int, kernel: int, rng, stride: int = 1) -> LayerSpec:
    bound = 1.0 / np.sqrt(in_channels * kernel * kernel)
    w = rng.uniform(-bound, bound, size=(out_channels, in_channels, kernel, kernel))
    return conv(w, np.zeros(out_channels), stride=stride)


@dataclass
class Network:
    """Ordered layers with a split index marking the embedding prefix."""

    layers: list[LayerSpec]
    split_index: int

    def __post_init__(self):
        if not 0 < self.split_index <= len(self.layers):
            raise ValueError(
                f"split index {self.split_index} outside 1..{len(self.layers)}"
            )

    @property
    def prefix(self) -> list[LayerSpec]:
        return self.layers[: self.split_index]

    @property
    def head(self) -> list[LayerSpec]:
        return self.layers[self.split_index :]

    def parameter_arrays(self) -> list[np.ndarray]:
        """Parameters in canonical order: layer by layer, weight then bias."""
        return [arr for layer in self.layers for _, arr in layer.param_items()]

    def set_parameter_arrays(self, arrays) -> None:
        arrays = list(arrays)
        expected = len(self.parameter_arrays())
        if len(arrays) != expected:
            raise ValueError(f"expected {expected} parameter arrays, got {len(arrays)}")
        it = iter(arrays)
        for layer in self.layers:
            if layer.weight is not None:
                layer.weight = as_tensor(next(it))
            if layer.bias is not None:
                layer.bias = as_tensor(next(it))

    def copy(self) -> "Network":
        return Network(
            [
                LayerSpec(
                    l.kind,
                    weight=l.weight,
                    bias=l.bias,
                    stride=l.stride,
                    window=l.window,
                    eps=l.eps,
                )
                for l in self.layers
            ],
            self.split_index,
        )


def make_param_nodes(layers, tape) -> list[dict]:
    """One leaf node per parameter, aligned with ``layers``."""
    params = []
    for layer in layers:
        entry = {}
        for name, arr in layer.param_items():
            entry[name] = tape.leaf(arr)
        params.append(entry)
    return params


def param_nodes_to_list(params) -> list:
    return [entry[name] for entry in params for name in ("weight", "bias") if name in entry]


def batch_stats(x, layer: LayerSpec, task_axis: bool = False):
    """Detached per-channel batch mean and variance for a batchnorm layer,
    of shape (channels,), or (tasks, channels) with a leading task axis."""
    v = value_of(x)
    b = int(task_axis)
    axes = (b,) if v.ndim == 2 + b else (b, b + 2, b + 3)
    mean = v.mean(axis=axes)
    var = v.var(axis=axes)
    return mean, var


def bn_affine(layer: LayerSpec, mean, var, gamma=None, beta=None):
    """Per-channel (scale, shift) of the frozen batchnorm affine map."""
    gamma = layer.weight if gamma is None else gamma
    beta = layer.bias if beta is None else beta
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    scale = mul(gamma, inv_std)
    shift = sub(beta, mul(mean, scale))
    return scale, shift


def _bn_broadcast(x, per_channel, task_axis: bool = False):
    """Align per-channel values, (channels,) or (tasks, channels), with the
    channel axis of ``x``."""
    spatial = np.ndim(value_of(x)) - task_axis == 4
    if task_axis:
        lead = (np.shape(value_of(x))[0], 1, -1)
        return reshape(per_channel, (lead + (1, 1)) if spatial else lead)
    if spatial:
        return reshape(per_channel, (1, -1, 1, 1))
    return per_channel


def apply_layer(
    layer: LayerSpec,
    x,
    weight=None,
    bias=None,
    frozen_stats=None,
    stats_out=None,
    task_axis: bool = False,
):
    """Forward one layer.  ``weight``/``bias`` override the stored parameters
    (typically with tape nodes); ``frozen_stats`` supplies (mean, var) for a
    batchnorm layer instead of computing them from the batch.  With
    ``task_axis`` the first axis of ``x`` indexes tasks (see the module
    docstring)."""
    w = layer.weight if weight is None else weight
    b = layer.bias if bias is None else bias
    kind = layer.kind
    if kind == "fully_connected":
        vx = value_of(x)
        in_dim = value_of(w).shape[-1]
        if vx.ndim != 2 + task_axis or vx.shape[-1] != in_dim:
            lead = "tasks, batch" if task_axis else "batch"
            raise ValueError(f"fc expects ({lead}, {in_dim}), got {vx.shape}")
        if task_axis and np.ndim(value_of(b)) == 2:  # per-task bias (tasks, out)
            b = reshape(b, (vx.shape[0], 1, -1))
        return add(matmul(x, transpose(w)), b)
    if kind == "conv2d":
        return conv2d(x, w, b, stride=layer.stride)
    if kind == "batchnorm":
        if frozen_stats is None:
            mean, var = batch_stats(x, layer, task_axis)
        else:
            mean, var = frozen_stats
        if stats_out is not None:
            stats_out.append((mean, var))
        scale, shift = bn_affine(layer, mean, var, gamma=w, beta=b)
        return add(
            mul(x, _bn_broadcast(x, scale, task_axis)),
            _bn_broadcast(x, shift, task_axis),
        )
    if kind == "relu":
        return relu_op(x)
    if kind == "maxpool2d":
        return maxpool2d(x, layer.window, layer.stride)
    if kind == "flatten":
        v = value_of(x)
        return reshape(x, v.shape[: 1 + task_axis] + (-1,))
    raise ValueError(f"unknown layer kind {kind!r}")


def forward(
    layers,
    x,
    tape=None,
    params=None,
    frozen_stats=None,
    stats_out=None,
    task_axis: bool = False,
):
    """Run ``x`` through an ordered layer sequence.

    When ``tape`` is given without explicit ``params``, leaf nodes are created
    for every parameter so the result is differentiable; pass ``params`` (from
    :func:`make_param_nodes`) to share leaves across several forward passes.
    ``frozen_stats`` replays previously collected batchnorm statistics;
    ``stats_out`` collects them.  ``task_axis`` runs a stack of tasks at once
    (see the module docstring).  Raises on shape mismatches and non-finite
    intermediates.
    """
    check_finite(x, "forward input")
    if params is None and tape is not None:
        params = make_param_nodes(layers, tape)
    stats_iter = iter(frozen_stats) if frozen_stats is not None else None
    out = x
    for i, layer in enumerate(layers):
        entry = params[i] if params is not None else {}
        out = apply_layer(
            layer,
            out,
            weight=entry.get("weight"),
            bias=entry.get("bias"),
            frozen_stats=next(stats_iter) if (stats_iter and layer.kind == "batchnorm") else None,
            stats_out=stats_out,
            task_axis=task_axis,
        )
        check_finite(out, f"activation after layer {i} ({layer.kind})")
    return out


# ---------------------------------------------------------------------------
# Network builders from plain descriptors (used by configs and tests).
# ---------------------------------------------------------------------------


def build_network(layer_descs, split_index: int, rng) -> Network:
    """Instantiate a network from descriptor dicts.

    Descriptor examples::

        {"kind": "fully_connected", "in": 8, "out": 32}
        {"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel": 3}
        {"kind": "batchnorm", "channels": 4}
        {"kind": "relu"} / {"kind": "maxpool2d", "window": 2} / {"kind": "flatten"}
    """
    built = []
    for desc in layer_descs:
        kind = desc["kind"]
        if kind == "fully_connected":
            built.append(init_fully_connected(desc["in"], desc["out"], rng))
        elif kind == "conv2d":
            built.append(
                init_conv(
                    desc["in_channels"],
                    desc["out_channels"],
                    desc["kernel"],
                    rng,
                    stride=desc.get("stride", 1),
                )
            )
        elif kind == "batchnorm":
            built.append(batchnorm(desc["channels"], eps=desc.get("eps", 1e-5)))
        elif kind == "relu":
            built.append(relu())
        elif kind == "maxpool2d":
            built.append(maxpool(desc["window"], desc.get("stride")))
        elif kind == "flatten":
            built.append(flatten())
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return Network(built, split_index)


# ---------------------------------------------------------------------------
# Checkpoints: u32 header length, JSON header, then flat little-endian
# float64 parameter blocks in canonical layer order.
# ---------------------------------------------------------------------------


def _layer_header(layer: LayerSpec) -> dict:
    h = {"kind": layer.kind}
    if layer.kind == "conv2d":
        h["stride"] = layer.stride
    if layer.kind == "maxpool2d":
        h["window"] = layer.window
        h["stride"] = layer.stride
    if layer.kind == "batchnorm":
        h["eps"] = layer.eps
    if layer.weight is not None:
        h["weight_shape"] = list(layer.weight.shape)
    if layer.bias is not None:
        h["bias_shape"] = list(layer.bias.shape)
    return h


def save_checkpoint(network: Network, path, rng_info: dict | None = None) -> None:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "split_index": network.split_index,
        "layers": [_layer_header(l) for l in network.layers],
        "rng": rng_info or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in network.parameter_arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Network, dict]:
    with open(path, "rb") as fh:
        raw = fh.read(4)
        if len(raw) < 4:
            raise ValueError("truncated checkpoint header")
        (hlen,) = struct.unpack("<I", raw)
        blob = fh.read(hlen)
        if len(blob) < hlen:
            raise ValueError("truncated checkpoint header")
        header = json.loads(blob.decode("utf-8"))
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {header.get('format_version')}"
            )
        layers = []
        for lh in header["layers"]:
            kind = lh["kind"]
            weight = bias = None
            for pname in ("weight", "bias"):
                shape = lh.get(f"{pname}_shape")
                if shape is None:
                    continue
                count = int(np.prod(shape))
                buf = fh.read(count * 8)
                if len(buf) < count * 8:
                    raise ValueError("truncated checkpoint payload")
                arr = np.frombuffer(buf, dtype="<f8").reshape(shape)
                if pname == "weight":
                    weight = arr
                else:
                    bias = arr
            layers.append(
                LayerSpec(
                    kind,
                    weight=weight,
                    bias=bias,
                    stride=lh.get("stride", 1),
                    window=lh.get("window", 0),
                    eps=lh.get("eps", 1e-5),
                )
            )
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")
    return Network(layers, header["split_index"]), header
