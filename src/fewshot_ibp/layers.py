"""Layer vocabulary, network container, forward pass, and checkpoints.

Supported layer kinds: ``fully_connected``, ``conv2d``, ``batchnorm``,
``relu``, ``maxpool2d``, ``flatten``.  A :class:`Network` is an ordered layer
list plus a split index separating the embedding prefix from the classifier
head.  Batchnorm normalizes with statistics of the current batch, detached
from differentiation, so within one step it acts as a fixed affine map;
a batchnorm activation ``x·scale + shift`` is one tape node, with ``gamma``
and ``beta`` reaching it through the scale and shift.

The rank of the input says whether it carries a leading task axis
(:func:`has_task_axis`).  Every layout without one has an even rank, (batch,
features) or (batch, c, h, w), and every layer keeps the parity: flatten maps
rank 4 to 2 and rank 5 to 3.  An odd rank is a stack of T independent tasks,
run at once: parameters are either shared or stacked per task (a leading
axis of T), and batchnorm takes its statistics per task.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Node,
    _tape_of,
    _unbroadcast,
    add,
    as_tensor,
    check_finite,
    conv2d,
    linear,
    maxpool2d,
    mul,
    neg,
    relu as relu_op,
    reshape,
    sub,
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


def batchnorm(channels: int, eps: float = 1e-5, gamma=None, beta=None) -> LayerSpec:
    """Batchnorm with scale ``gamma`` (default ones) and shift ``beta``
    (default zeros) over ``channels``."""
    g = np.ones(channels) if gamma is None else as_tensor(gamma)
    b = np.zeros(channels) if beta is None else as_tensor(beta)
    if g.shape != (channels,) or b.shape != (channels,):
        raise ValueError(f"inconsistent batchnorm shapes {g.shape} / {b.shape}")
    if not 0 <= eps < math.inf:
        raise ValueError(f"batchnorm eps must be non-negative and finite, got {eps}")
    return LayerSpec("batchnorm", weight=g, bias=b, eps=eps)


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
        self.set_parameter_arrays(self.parameter_arrays())

    @property
    def prefix(self) -> list[LayerSpec]:
        return self.layers[: self.split_index]

    @property
    def head(self) -> list[LayerSpec]:
        return self.layers[self.split_index :]

    def parameter_arrays(self) -> list[np.ndarray]:
        """Parameters in canonical order (by layer, weight then bias): views of
        ``parameter_vector``."""
        return [arr for layer in self.layers for _, arr in layer.param_items()]

    def set_parameter_arrays(self, arrays) -> None:
        """Copy ``arrays`` (canonical order) into ``parameter_vector``, one new
        read-only vector the network owns, and make each parameter a view of
        it.  A non-finite one raises, keeping the old parameters."""
        arrays = list(map(np.asarray, arrays))
        expected = len(self.parameter_arrays())
        if len(arrays) != expected:
            raise ValueError(f"expected {expected} parameter arrays, got {len(arrays)}")
        vector = np.concatenate([a.ravel() for a in arrays] + [np.empty(0)])
        check_finite(vector, "network parameters")
        self.parameter_vector = vector
        vector.flags.writeable = False
        ends = itertools.accumulate(a.size for a in arrays)
        views = (vector[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends))
        for layer in self.layers:
            for name, _ in list(layer.param_items()):
                setattr(layer, name, next(views))


def param_nodes_to_list(params) -> list:
    return [entry[name] for entry in params for name in ("weight", "bias") if name in entry]


def has_task_axis(x) -> bool:
    """Whether ``x`` (an array or a tape node) is a stack of tasks on a
    leading axis: an odd rank (see the module docstring)."""
    return value_of(x).ndim % 2 == 1


def _rows(v: np.ndarray) -> np.ndarray:
    """``v`` as one row per instance: an image batch (…, batch, c, h, w) as
    (…, batch, c·h·w), a feature batch as it is."""
    return v.reshape(v.shape[:-3] + (-1,)) if v.ndim >= 4 else v


def _per_row(v: np.ndarray, per_channel: np.ndarray) -> np.ndarray:
    """Per-channel values, (channels,) or (tasks, channels), laid along the
    rows of :func:`_rows` of ``v``: each repeated over its channel's h·w
    entries, with a unit batch axis after a task axis."""
    if v.ndim >= 4:
        per_channel = np.repeat(per_channel, v.shape[-2] * v.shape[-1], axis=-1)
    return per_channel[..., None, :] if has_task_axis(v) else per_channel


def batch_stats(x, layer: LayerSpec):
    """Detached per-channel batch mean and variance for a batchnorm layer,
    of shape (channels,), or (tasks, channels) with a leading task axis.

    The mean is subtracted along rows of c·h·w (:func:`_rows`), one long
    loop per instance rather than one per h·w plane, and the centered copy
    squared in place; both sums run over the input's own axes and layout."""
    v = value_of(x)
    b = int(has_task_axis(v))
    axes = (b,) if v.ndim == 2 + b else (b, b + 2, b + 3)
    # the mean is summed once and reused for the variance, as np.var does:
    # bit-equal to np.mean and np.var
    n = math.prod(v.shape[ax] for ax in axes)
    mean = (np.add.reduce(v, axis=axes, keepdims=True) / n).reshape(v.shape[:b] + (-1,))
    centered = np.subtract(_rows(v), _per_row(v, mean))
    np.square(centered, out=centered)
    var = np.add.reduce(centered.reshape(v.shape), axis=axes) / n
    return mean, var


def bn_inv_std(layer: LayerSpec, var):
    """``1 / sqrt(var + eps)``, the factor of the batchnorm scale ``gamma``."""
    return 1.0 / np.sqrt(var + layer.eps)


def check_pool_input(shape) -> None:
    """Reject a max pooling input that is not (batch, c, h, w) or (tasks,
    batch, c, h, w)."""
    if len(shape) not in (4, 5):
        raise ValueError(
            f"maxpool2d expects (batch, c, h, w) or (tasks, batch, c, h, w), got {shape}"
        )


def check_batchnorm_input(channels: int, shape) -> None:
    """Reject a batchnorm input that is not (batch, channels) or (batch,
    channels, h, w), with or without a leading task axis."""
    if len(shape) not in (2, 3, 4, 5) or shape[1 + len(shape) % 2] != channels:
        raise ValueError(
            f"batchnorm over {channels} channels expects (batch, {channels}) or "
            f"(batch, {channels}, h, w), with or without a leading task axis, got {shape}"
        )


def bn_affine(layer: LayerSpec, mean, var, gamma=None, beta=None):
    """Per-channel (scale, shift) of the frozen batchnorm affine map."""
    gamma = layer.weight if gamma is None else gamma
    beta = layer.bias if beta is None else beta
    scale = mul(gamma, bn_inv_std(layer, var))
    shift = sub(beta, mul(mean, scale))
    return scale, shift


def _bn_broadcast(x, per_channel):
    """Align per-channel values, (channels,) or (tasks, channels), with the
    channel axis of ``x``."""
    shape = value_of(x).shape
    if has_task_axis(x):
        lead = (shape[0], 1, -1)
        return reshape(per_channel, (lead + (1, 1)) if len(shape) == 5 else lead)
    if len(shape) == 4:
        return reshape(per_channel, (1, -1, 1, 1))
    return per_channel


def _batchnorm(x, layer: LayerSpec, mean, var, gamma, beta):
    """``x·scale + shift`` with the scale and shift of :func:`bn_affine` as
    one node, ``gamma``/``beta`` through them.  Its value is that of the
    primitive chain bit for bit, and its vjp sums the chain's adjoints in the
    chain's order.  The scale and shift are applied along rows of c·h·w
    (:func:`_per_row`) rather than broadcast over each h·w plane: the same
    products, in long loops."""
    vx = value_of(x)
    inv_std = bn_inv_std(layer, var)
    scale, shift = bn_affine(layer, mean, var, gamma=value_of(gamma), beta=value_of(beta))
    out = np.multiply(_rows(vx), _per_row(vx, scale))
    out += _per_row(vx, shift)
    out = out.reshape(vx.shape)
    tape = _tape_of(x, gamma, beta)
    if tape is None:
        return out
    scale_b, shift_b = _bn_broadcast(vx, scale), _bn_broadcast(vx, shift)

    def vjp(g, inputs, o):
        xx, xg, _ = inputs
        s_b = scale_b
        if isinstance(xg, Node):  # building a graph: the scale as a node of gamma
            s_b = _bn_broadcast(vx, mul(xg, inv_std))
        g_x = g_gamma = g_beta = None
        if isinstance(x, Node):
            g_x = mul(g, s_b)
        if isinstance(gamma, Node) or isinstance(beta, Node):
            g_shift = reshape(_unbroadcast(g, shift_b.shape), shift.shape)
        if isinstance(gamma, Node):
            g_scale = add(
                reshape(_unbroadcast(mul(g, xx), scale_b.shape), scale.shape),
                _unbroadcast(mul(neg(g_shift), mean), scale.shape),
            )
            g_gamma = _unbroadcast(mul(g_scale, inv_std), gamma.shape)
        if isinstance(beta, Node):
            g_beta = _unbroadcast(g_shift, beta.shape)
        return g_x, g_gamma, g_beta

    return Node(tape, out, (x, gamma, beta), vjp)


def apply_layer(
    layer: LayerSpec,
    x,
    weight=None,
    bias=None,
    frozen_stats=None,
    stats_out=None,
):
    """Forward one layer.  ``weight``/``bias`` override the stored parameters
    (typically with tape nodes); ``frozen_stats`` supplies (mean, var) for a
    batchnorm layer instead of computing them from the batch.  An odd-rank
    ``x`` is a stack of tasks (see the module docstring)."""
    w = layer.weight if weight is None else weight
    b = layer.bias if bias is None else bias
    kind = layer.kind
    if kind == "fully_connected":
        vx = value_of(x)
        in_dim = value_of(w).shape[-1]
        if vx.ndim not in (2, 3) or vx.shape[-1] != in_dim:
            raise ValueError(
                f"fc expects (batch, {in_dim}) or (tasks, batch, {in_dim}), got {vx.shape}"
            )
        return linear(x, w, b)
    if kind == "conv2d":
        return conv2d(x, w, b, stride=layer.stride)
    if kind == "batchnorm":
        check_batchnorm_input(value_of(w).shape[-1], value_of(x).shape)
        if frozen_stats is None:
            mean, var = batch_stats(x, layer)
        else:
            mean, var = frozen_stats
        if stats_out is not None:
            stats_out.append((mean, var))
        return _batchnorm(x, layer, mean, var, w, b)
    if kind == "relu":
        return relu_op(x)
    if kind == "maxpool2d":
        check_pool_input(value_of(x).shape)  # maxpool2d itself also takes box faces
        return maxpool2d(x, layer.window, layer.stride)
    if kind == "flatten":
        lead = value_of(x).shape[: 1 + has_task_axis(x)]
        return reshape(x, lead + (-1,))
    raise ValueError(f"unknown layer kind {kind!r}")


def execution_order(layers) -> list:
    """``(index, layer)`` for each of ``layers`` in the order they run: a relu
    directly followed by max pooling runs after the pool, on fewer entries.
    As ``max(relu(a), relu(b)) == relu(max(a, b))``, values and first-order
    gradients are those of the layer order, bit for bit (signed zeros aside)."""
    order = list(enumerate(layers))
    for i in range(1, len(layers)):
        if layers[i].kind == "maxpool2d" and layers[i - 1].kind == "relu":
            order[i - 1], order[i] = order[i], order[i - 1]
    return order


def first_batchnorm(layers) -> int:
    """Index of the first batchnorm in ``layers``, ``len(layers)`` if none.
    Every layer before it maps each instance on its own, whatever batch it
    runs in, and :func:`execution_order` moves no layer across it."""
    return next((i for i, layer in enumerate(layers) if layer.kind == "batchnorm"), len(layers))


def forward(
    layers,
    x,
    params=None,
    frozen_stats=None,
    stats_out=None,
):
    """Run ``x`` through an ordered layer sequence, in :func:`execution_order`.

    ``params``, one dict per layer keyed by the names of
    :meth:`LayerSpec.param_items`, replaces the layers' own parameters;
    tape nodes there make the result differentiable, and can be shared
    across several forward passes.
    ``frozen_stats`` replays previously collected batchnorm statistics;
    ``stats_out`` collects them.  An odd-rank ``x`` is a stack of tasks, run
    at once (see the module docstring).  Raises on shape mismatches and
    non-finite intermediates.
    """
    check_finite(x, "forward input")
    stats_iter = iter(frozen_stats) if frozen_stats is not None else None
    out = x
    for i, layer in execution_order(layers):
        entry = params[i] if params is not None else {}
        out = apply_layer(
            layer,
            out,
            weight=entry.get("weight"),
            bias=entry.get("bias"),
            frozen_stats=next(stats_iter) if (stats_iter and layer.kind == "batchnorm") else None,
            stats_out=stats_out,
        )
        check_finite(out, f"activation after layer {i} ({layer.kind})")
    return out


# ---------------------------------------------------------------------------
# Network builders from plain descriptors (used by configs and tests).
# ---------------------------------------------------------------------------


# the sizes each descriptor kind requires; "stride" (conv2d, maxpool2d) and
# "eps" (batchnorm) are optional
_DESC_SIZES = {
    "fully_connected": ("in", "out"),
    "conv2d": ("in_channels", "out_channels", "kernel"),
    "batchnorm": ("channels",),
    "relu": (),
    "maxpool2d": ("window",),
    "flatten": (),
}


def check_layer_descs(layer_descs) -> None:
    """Reject a malformed descriptor list (see :func:`build_network`).

    Raises ``ValueError`` naming the layer index and the field for a
    descriptor that is not an object, an unknown kind, a missing size, a size
    or stride that is not a positive integer, a batchnorm ``eps`` that is not
    a non-negative finite number, and fully_connected layers whose widths do
    not chain (:func:`check_layer_widths`).
    """
    for i, desc in enumerate(layer_descs):
        if not isinstance(desc, dict):
            raise ValueError(f"layer {i} must be an object, got {desc!r}")
        kind = desc.get("kind")
        if kind not in LAYER_KINDS:
            raise ValueError(f"layer {i}: unknown kind {kind!r}, expected one of {LAYER_KINDS}")
        for key in _DESC_SIZES[kind]:
            if key not in desc:
                raise ValueError(f"layer {i} ({kind}) needs {key!r}")
        for key in _DESC_SIZES[kind] + ("stride",):
            value = desc.get(key, 1)
            if type(value) is not int or value <= 0:
                raise ValueError(
                    f"layer {i} ({kind}): {key!r} must be a positive integer, got {value!r}"
                )
        eps = desc.get("eps", 0.0)
        if type(eps) not in (int, float) or not 0 <= eps < math.inf:
            raise ValueError(
                f"layer {i} ({kind}): 'eps' must be a non-negative finite number, got {eps!r}"
            )
    check_layer_widths(layer_descs)


def check_layer_widths(layer_descs) -> None:
    """Reject fully_connected layers, consecutive but for relu and batchnorm,
    whose widths do not chain, naming the layer, its kind and both widths:
    the sizes alone show it, without an instance."""
    width = None  # output width of the last fully_connected layer
    for i, desc in enumerate(layer_descs):
        kind = desc["kind"]
        if kind == "fully_connected":
            if width is not None and desc["in"] != width:
                raise ValueError(
                    f"layer {i} (fully_connected): 'in' is {desc['in']}, "
                    f"but the layers before it give width {width}"
                )
            width = desc["out"]
        elif kind not in ("relu", "batchnorm"):
            width = None


# the input size each affine descriptor declares, and the input ranks it takes
_DESC_INPUT = {"fully_connected": ("in", (1,)), "conv2d": ("in_channels", (3,)),
               "batchnorm": ("channels", (1, 3))}


def check_instance_shape(layer_descs, shape, source: str) -> tuple:
    """Walk one instance's ``shape`` through checked descriptors by their
    sizes alone, and return the shape of its output.  Raises ``ValueError``
    naming the layer, its kind and both sizes where a declared input size
    differs from the one from ``source``, or a conv or pool window does not
    fit in a (channels, height, width) input.  A conv ``kernel`` may be a
    (height, width) pair, as :func:`layer_descs` gives for a non-square one."""
    for i, desc in enumerate(layer_descs):
        kind = desc["kind"]
        if kind in _DESC_INPUT:
            key, ranks = _DESC_INPUT[kind]
            got = shape[0] if len(shape) in ranks else shape
            if got != desc[key]:
                raise ValueError(
                    f"layer {i} ({kind}): {key!r} is {desc[key]}, but {source} reach it with {got}"
                )
        if kind in ("conv2d", "maxpool2d"):
            key = "kernel" if kind == "conv2d" else "window"
            window, stride = desc[key], desc.get("stride", 1 if kind == "conv2d" else desc[key])
            windows = window if isinstance(window, tuple) else (window, window)
            if len(shape) != 3 or any(n < w for n, w in zip(shape[1:], windows)):
                raise ValueError(
                    f"layer {i} ({kind}): {key!r} is {window}, but {source} reach it with {shape}"
                )
            hw = tuple((n - w) // stride + 1 for n, w in zip(shape[1:], windows))
            shape = (desc.get("out_channels", shape[0]),) + hw
        elif kind in ("fully_connected", "flatten"):
            shape = (desc["out"],) if kind == "fully_connected" else (math.prod(shape),)
    return shape


def layer_descs(layers) -> list[dict]:
    """The descriptors (:func:`build_network`) of built ``layers``, with the
    sizes their parameters give; a non-square conv kernel as a (height,
    width) pair."""
    descs = []
    for layer in layers:
        desc = {"kind": layer.kind}
        if layer.kind == "fully_connected":
            desc["out"], desc["in"] = layer.weight.shape
        elif layer.kind == "conv2d":
            out_c, in_c, kh, kw = layer.weight.shape
            desc.update(in_channels=in_c, out_channels=out_c, kernel=kh if kh == kw else (kh, kw),
                        stride=layer.stride)
        elif layer.kind == "batchnorm":
            desc.update(channels=layer.weight.shape[0], eps=layer.eps)
        elif layer.kind == "maxpool2d":
            desc.update(window=layer.window, stride=layer.stride)
        descs.append(desc)
    return descs


def build_network(layer_descs, split_index: int, rng) -> Network:
    """Instantiate a network from descriptor dicts, checked by
    :func:`check_layer_descs`.

    Descriptor examples::

        {"kind": "fully_connected", "in": 8, "out": 32}
        {"kind": "conv2d", "in_channels": 1, "out_channels": 4, "kernel": 3}
        {"kind": "batchnorm", "channels": 4}
        {"kind": "relu"} / {"kind": "maxpool2d", "window": 2} / {"kind": "flatten"}
    """
    check_layer_descs(layer_descs)
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
        else:  # flatten
            built.append(flatten())
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


def _header_int(h: dict, key: str, default: int) -> int:
    value = h.get(key, default)
    if type(value) is not int:
        raise ValueError(f"checkpoint {key} must be an integer, got {value!r}")
    return value


def _header_shape(h: dict, key: str):
    shape = h.get(key)
    if shape is not None and not (
        isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
    ):
        raise ValueError(f"bad {key} {shape!r} in checkpoint header")
    return shape


def _layer_from_header(h, read_array) -> LayerSpec:
    """Rebuild one layer through its constructor, which checks its shapes;
    ``read_array(shape)`` takes that layer's next parameter block."""
    if not isinstance(h, dict):
        raise ValueError(f"checkpoint layer header must be an object, got {h!r}")
    kind = h.get("kind")
    shapes = [_header_shape(h, f"{p}_shape") for p in ("weight", "bias")]
    if kind not in AFFINE_KINDS:
        if shapes != [None, None]:
            raise ValueError(f"{kind!r} layer takes no parameters")
        if kind == "maxpool2d":
            window = _header_int(h, "window", 0)
            return maxpool(window, _header_int(h, "stride", window))
        return LayerSpec(kind)  # rejects an unknown kind
    if None in shapes:
        raise ValueError(f"{kind} layer needs weight_shape and bias_shape")
    weight, bias = (read_array(shape) for shape in shapes)
    if kind == "fully_connected":
        return fully_connected(weight, bias)
    if kind == "conv2d":
        return conv(weight, bias, stride=_header_int(h, "stride", 1))
    eps = h.get("eps", 1e-5)
    if type(eps) not in (int, float) or not abs(eps) <= sys.float_info.max:
        raise ValueError(f"checkpoint eps must be a finite number, got {eps!r}")
    return batchnorm(weight.size, eps=float(eps), gamma=weight, beta=bias)


def load_checkpoint(path) -> tuple[Network, dict]:
    """Read a checkpoint; a malformed or truncated file, or fully connected
    layers whose widths do not chain (:func:`check_layer_widths`), raises
    ``ValueError``.  Sizes that only an instance reveals, such as a conv
    kernel larger than the image, are checked by walking the instance shape
    (:func:`check_instance_shape` on :func:`layer_descs`)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise ValueError("truncated checkpoint header")
    (hlen,) = struct.unpack("<I", raw[:4])
    offset = 4 + hlen
    if len(raw) < offset:
        raise ValueError("truncated checkpoint header")
    header = json.loads(raw[4:offset].decode("utf-8"))
    if not isinstance(header, dict) or not isinstance(header.get("layers"), list):
        raise ValueError("checkpoint header must be an object with a layer list")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {header.get('format_version')}"
        )

    def read_array(shape):
        nonlocal offset
        end = offset + 8 * math.prod(shape)
        if len(raw) < end:
            raise ValueError("truncated checkpoint payload")
        arr = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape)
        offset = end
        return arr

    layers = [_layer_from_header(h, read_array) for h in header["layers"]]
    if offset != len(raw):
        raise ValueError("trailing bytes after checkpoint payload")
    check_layer_widths(layer_descs(layers))
    return Network(layers, _header_int(header, "split_index", 0)), header
