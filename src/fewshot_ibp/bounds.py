"""Interval propagation of axis-aligned boxes through network prefixes.

An input box ``[x - eps, x + eps]`` is pushed layer by layer.  Every affine
layer (fully connected, conv, batchnorm) goes through one center/radius rule,
:func:`_affine_box`: the center ``mu`` maps through the layer and the radius
``psi`` through its elementwise absolute weights without bias, giving
``[mu' - psi', mu' + psi']`` (the standard interval bound propagation form,
Gowal et al. 2018); a conv box costs two convolutions.  Elementwise monotone
layers and max pooling apply to the lower and upper faces separately.  The
propagated box is guaranteed to contain the image of every point of the
input box, and for a single affine, relu, or maxpool layer each output face
is attained by some input point.

All entry points accept tape nodes as well as plain arrays, so bound
computations are differentiable with respect to the network parameters.
As in the forward pass, an odd rank marks a stack of T tasks, propagated at
once (:func:`~fewshot_ibp.layers.has_task_axis`): boxes carry a leading task
axis, parameters are shared or stacked per task, and batchnorm takes its
statistics per task.
"""

from __future__ import annotations

from dataclasses import dataclass

from .layers import LayerSpec, Network, apply_layer, batch_stats, bn_affine, has_task_axis
from .layers import _bn_broadcast
from .tensor import (
    abs_,
    add,
    check_finite,
    conv2d,
    linear,
    maxpool2d,
    mul,
    relu,
    reshape,
    sub,
    value_of,
)


@dataclass
class IntervalTensor:
    """Axis-aligned box: coordinatewise lower and upper faces (equal shapes)."""

    lower: object
    upper: object

    def values(self) -> "IntervalTensor":
        return IntervalTensor(value_of(self.lower), value_of(self.upper))

    def validate(self, tol: float = 0.0) -> None:
        lo, up = value_of(self.lower), value_of(self.upper)
        if lo.shape != up.shape:
            raise ValueError(f"box face shapes differ: {lo.shape} vs {up.shape}")
        check_finite(lo, "box lower face")
        check_finite(up, "box upper face")
        if (lo > up + tol).any():
            raise ValueError("box has lower > upper")


@dataclass
class BoundResult:
    """Embedding of an instance together with its propagated box."""

    center: object
    box: IntervalTensor

    def values(self) -> "BoundResult":
        return BoundResult(value_of(self.center), self.box.values())

    def validate(self, tol: float = 1e-9) -> None:
        self.box.validate(tol=tol)
        c = value_of(self.center)
        lo, up = value_of(self.box.lower), value_of(self.box.upper)
        if (c < lo - tol).any() or (c > up + tol).any():
            raise ValueError("center outside propagated box")


def epsilon_box(x, eps: float) -> IntervalTensor:
    """The l-infinity ball ``[x - eps, x + eps]`` as a box."""
    if eps < 0:
        raise ValueError(f"epsilon must be non-negative, got {eps}")
    return IntervalTensor(sub(x, eps), add(x, eps))


def _affine_box(box: IntervalTensor, apply_center, apply_radius) -> IntervalTensor:
    mu = mul(add(box.lower, box.upper), 0.5)
    psi = mul(sub(box.upper, box.lower), 0.5)
    mu_out = apply_center(mu)
    psi_out = apply_radius(psi)
    return IntervalTensor(sub(mu_out, psi_out), add(mu_out, psi_out))


def propagate_layer(
    layer: LayerSpec,
    box: IntervalTensor,
    weight=None,
    bias=None,
    frozen_stats=None,
) -> IntervalTensor:
    """Push a box through one layer.

    ``weight``/``bias`` override stored parameters (typically tape nodes).
    Batchnorm uses ``frozen_stats`` when given; otherwise statistics are taken
    from the box midpoint batch, matching the per-step frozen-affine
    treatment of batchnorm.  A box of odd rank is a stack of tasks (see the
    module docstring).
    """
    box.validate()
    w = layer.weight if weight is None else weight
    b = layer.bias if bias is None else bias
    kind = layer.kind

    if kind == "fully_connected":
        return _affine_box(
            box, lambda mu: linear(mu, w, b), lambda psi: linear(psi, abs_(w))
        )
    if kind == "conv2d":
        return _affine_box(
            box,
            lambda mu: conv2d(mu, w, b, stride=layer.stride),
            lambda psi: conv2d(psi, abs_(w), None, stride=layer.stride),
        )
    if kind == "batchnorm":
        if frozen_stats is None:
            frozen_stats = batch_stats(mul(add(box.lower, box.upper), 0.5), layer)
        scale, shift = bn_affine(layer, *frozen_stats, gamma=w, beta=b)
        ref = box.lower
        scale_b = _bn_broadcast(ref, scale)
        shift_b = _bn_broadcast(ref, shift)
        abs_scale_b = _bn_broadcast(ref, abs_(scale))
        return _affine_box(
            box,
            lambda mu: add(mul(mu, scale_b), shift_b),
            lambda psi: mul(psi, abs_scale_b),
        )
    if kind == "relu":
        return IntervalTensor(relu(box.lower), relu(box.upper))
    if kind == "maxpool2d":
        return IntervalTensor(
            maxpool2d(box.lower, layer.window, layer.stride),
            maxpool2d(box.upper, layer.window, layer.stride),
        )
    if kind == "flatten":
        lead = value_of(box.lower).shape[: 1 + has_task_axis(box.lower)]
        return IntervalTensor(
            reshape(box.lower, lead + (-1,)), reshape(box.upper, lead + (-1,))
        )
    raise ValueError(f"unknown layer kind {kind!r}")


def propagate_prefix(network: Network, x, eps: float, params=None) -> BoundResult:
    """Forward ``x`` through the embedding prefix while propagating its box.

    Returns the ordinary layer-``S`` activation as ``center`` and the box
    obtained by pushing ``[x - eps, x + eps]`` through the same layers.
    Batchnorm statistics come from the center activations and are reused for
    the box, so both passes see the identical per-step affine map.  An
    odd-rank ``x`` is a stack of tasks, and each task's batchnorm statistics
    are its own.
    """
    check_finite(x, "bound propagation input")
    center = x
    box = epsilon_box(x, eps)
    for i, layer in enumerate(network.prefix):
        entry = params[i] if params is not None else {}
        w, b = entry.get("weight"), entry.get("bias")
        frozen = None
        if layer.kind == "batchnorm":
            frozen = batch_stats(center, layer)
        center = apply_layer(layer, center, weight=w, bias=b, frozen_stats=frozen)
        box = propagate_layer(layer, box, weight=w, bias=b, frozen_stats=frozen)
        check_finite(box.lower, f"box lower after layer {i}")
        check_finite(box.upper, f"box upper after layer {i}")
    result = BoundResult(center, box)
    result.validate()
    return result

