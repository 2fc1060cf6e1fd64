"""Interval propagation of axis-aligned boxes through network prefixes.

A box is one value: :class:`IntervalTensor` holds its lower and upper faces
stacked on a new leading axis of length 2 (``faces``), one array or one tape
node.  An input box ``[x - eps, x + eps]`` is pushed layer by layer:

- until the first nonlinearity the box stays centered on the clean
  activation, with a radius that is one value per channel (the standard
  interval bound propagation form, Gowal et al. 2018).  :func:`epsilon_box`
  keeps its center ``x`` and its scalar radius ``eps``, and an affine layer
  (fully connected, unpadded conv, batchnorm) maps such a box in two tape
  nodes: the center through the layer's own forward pass
  (:func:`~fewshot_ibp.layers.apply_layer`, the one clean pass of
  :func:`propagate_prefix`) and the radius in closed form (each output
  channel's ``Σ|w|·r`` over its fan-in for fc and conv, ``r·|gamma|·
  inv_std`` for batchnorm with the center's statistics).  The faces
  ``center ∓ radius``, a third node, are made when first read, which no
  affine layer does.  A conv box costs no convolution beyond the forward
  pass's, and the result is again centered;
- relu and max pooling are monotone, so they apply to the stacked faces at
  once (one ``relu`` or ``maxpool2d`` node), and flatten is one ``reshape``;
  each ends the centered run;
- an affine layer given a box without a center maps it by the faces rule,
  built from the tape's own ops: the midpoint ``mu`` of the faces maps
  through the layer and the half-width ``psi`` through its elementwise
  absolute weights without bias (for batchnorm, ``mu·scale + shift`` and
  ``psi·|scale|``), giving ``[mu' - psi', mu' + psi']``; a conv box costs
  two convolutions.

The propagated box is guaranteed to contain the image of every point of the
input box, and for a single affine, relu, or maxpool layer each output face
is attained by some input point.  Each box is validated once (finite, lower
below upper; a centered box by its radius ``≥ 0``, which implies the order
exactly as rounding is monotone): an intermediate box when the next layer
takes it, the last one, with its center, when the result is made.

All entry points accept tape nodes as well as plain arrays, so bound
computations are differentiable with respect to the network parameters.
The faces rule is a chain of tape ops with their own vjps, and each box
node's vjp (radius, faces) is written with tape operations, so
second-order meta-updates differentiate through all of them.  As in
the forward pass, an odd face rank marks a stack of T tasks, propagated at
once (:func:`~fewshot_ibp.layers.has_task_axis`): faces carry a task axis
after their face axis, parameters are shared or stacked per task, a radius
is per task when they are, and batchnorm takes its statistics per task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import (
    AFFINE_KINDS,
    LayerSpec,
    Network,
    _bn_broadcast,
    apply_layer,
    batch_stats,
    bn_affine,
    bn_inv_std,
    check_batchnorm_input,
    check_pool_input,
    has_task_axis,
)
from .tensor import (
    Node,
    _tape_of,
    _unbroadcast,
    abs_,
    add,
    check_finite,
    conv2d,
    linear,
    maxpool2d,
    mul,
    relu,
    reshape,
    stack,
    sub,
    sum_,
    take,
    value_of,
)


class IntervalTensor:
    """Axis-aligned box: coordinatewise lower and upper faces of equal
    shapes, held stacked as ``faces`` (2, ...).  ``lower`` and ``upper``
    read one face (a tape node when the faces are one).

    A centered box also keeps the ``center`` its faces are built around and
    its ``radius``, a scalar or one value per channel, (channels,) or
    (tasks, channels): its faces are ``center ∓ radius``, built when first
    read (see the module docstring).  Any other box has neither (``None``).
    """

    __slots__ = ("_faces", "center", "radius")

    def __init__(self, lower, upper):
        lo_shape, up_shape = value_of(lower).shape, value_of(upper).shape
        if lo_shape != up_shape:
            raise ValueError(f"box face shapes differ: {lo_shape} vs {up_shape}")
        self._faces = stack((lower, upper))
        self.center = self.radius = None

    @classmethod
    def of(cls, faces, center=None, radius=None) -> "IntervalTensor":
        """The box whose stacked faces are ``faces``; a centered one when
        ``center`` and ``radius`` are given (faces None until read)."""
        box = cls.__new__(cls)
        box._faces, box.center, box.radius = faces, center, radius
        return box

    @property
    def faces(self):
        if self._faces is None:
            self._faces = _centered_faces(self.center, self.radius)
        return self._faces

    @property
    def lower(self):
        return take(self.faces, 0)

    @property
    def upper(self):
        return take(self.faces, 1)

    def values(self) -> "IntervalTensor":
        return IntervalTensor.of(*map(value_of, (self.faces, self.center, self.radius)))

    def validate(self, tol: float = 0.0, context: str = "box faces") -> None:
        if self.center is None:
            faces = value_of(self._faces)
            check_finite(faces, context)
            inverted = faces[0] > (faces[1] + tol if tol else faces[1])
        else:  # see the module docstring
            check_finite(self.radius, context)
            check_finite(self.center if self._faces is None else self._faces, context)
            inverted = value_of(self.radius) < 0
        if np.logical_or.reduce(inverted, axis=None):
            raise ValueError("box has lower > upper")


@dataclass
class BoundResult:
    """Embedding of an instance together with its propagated box."""

    center: object
    box: IntervalTensor

    def values(self) -> "BoundResult":
        return BoundResult(value_of(self.center), self.box.values())

    def validate(self, tol: float = 1e-9) -> None:
        faces = value_of(self.box.faces)  # built first, so the box check covers them
        self.box.validate(tol=tol, context="box faces of the result")
        c = value_of(self.center)
        check_finite(c, "box center")  # NaN compares false against both faces
        below = np.logical_or.reduce(c < faces[0] - tol, axis=None)
        if below or np.logical_or.reduce(c > faces[1] + tol, axis=None):
            raise ValueError("center outside propagated box")


def epsilon_box(x, eps: float) -> IntervalTensor:
    """The l-infinity ball ``[x - eps, x + eps]`` as a box centered on ``x``
    with the scalar radius ``eps``."""
    if not 0 <= eps < math.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {eps}")
    return IntervalTensor.of(None, x, eps)


def _faces_rule(layer: LayerSpec, faces, w, b, stats):
    """The box image of an affine layer for a box without a center, from
    tape ops: the midpoint ``mu`` of the faces maps through the layer and the
    half-width ``psi`` through its elementwise absolute weights without bias,
    giving the faces ``mu' ∓ psi'``.  Batchnorm takes ``stats`` (mean,
    variance), or the midpoint's when they are ``None``."""
    lower, upper = take(faces, 0), take(faces, 1)
    mu, psi = mul(add(lower, upper), 0.5), mul(sub(upper, lower), 0.5)
    if layer.kind == "batchnorm":
        mean, var = batch_stats(mu, layer) if stats is None else stats
        scale, shift = bn_affine(layer, mean, var, gamma=w, beta=b)
        scale_b, shift_b = _bn_broadcast(mu, scale), _bn_broadcast(mu, shift)
        abs_scale_b = _bn_broadcast(mu, abs_(scale))
        mu, psi = add(mul(mu, scale_b), shift_b), mul(psi, abs_scale_b)
    elif layer.kind == "conv2d":
        mu = conv2d(mu, w, b, stride=layer.stride)
        psi = conv2d(psi, abs_(w), None, stride=layer.stride)
    else:
        mu, psi = linear(mu, w, b), linear(psi, abs_(w))
    return _centered_faces(mu, psi)


def _radius_layout(center_shape, radius_shape):
    """The shape that aligns a radius, scalar, (channels,) or (tasks,
    channels), with the channel axis of a center of ``center_shape``; a
    radius of the center's own shape is its own layout."""
    if len(radius_shape) in (0, len(center_shape)):
        return radius_shape
    lead = (radius_shape[0], 1) if len(radius_shape) == 2 else ()
    return lead + radius_shape[-1:] + (1, 1) * (len(center_shape) >= 4)


def _centered_faces(center, radius):
    """The stacked faces ``(center - radius, center + radius)`` as one node
    (values off a live tape), the radius laid out by :func:`_radius_layout`."""
    vc, vr = value_of(center), value_of(radius)
    r_shape = np.shape(vr)
    layout = _radius_layout(vc.shape, r_shape)
    vr = vr if layout == r_shape else vr.reshape(layout)
    out = np.empty((2,) + vc.shape)
    np.subtract(vc, vr, out=out[0])
    np.add(vc, vr, out=out[1])
    tape = _tape_of(center, radius)
    if tape is None or not len(tape):  # a released tape lists no nodes
        return out

    def vjp(g, inputs, o):
        g_lower, g_upper = take(g, 0), take(g, 1)
        g_center = add(g_upper, g_lower)
        if type(radius) is not Node:
            return g_center, None
        g_radius = _unbroadcast(sub(g_upper, g_lower), layout)
        return g_center, g_radius if layout == r_shape else reshape(g_radius, r_shape)

    return Node(tape, out, (center, radius), vjp)


def _affine_radius(w, radius, fan_in: int):
    """The radius image of an unpadded fully connected (``fan_in`` 1) or
    conv (``fan_in`` 3) layer as one node: for each output channel, the sum
    of ``|w|·radius`` over its fan-in, for a radius that is a scalar or one
    value per input channel.  Per-task weights or radii give one radius per
    task."""
    vw, vr = value_of(w), value_of(radius)
    r_shape = np.shape(vr)
    r_layout = r_shape[:-1] + (1,) + r_shape[-1:] + (1,) * (fan_in - 1) if r_shape else ()
    abs_w = np.abs(vw)
    out = np.add.reduce(
        np.multiply(abs_w, vr.reshape(r_layout) if r_shape else vr),
        axis=tuple(range(-fan_in, 0)),
    )
    tape = _tape_of(w, radius)
    if tape is None:
        return out
    sign = np.sign(vw)
    g_layout = out.shape + (1,) * fan_in
    # the output channel and the kernel's spatial axes, summed for the radius
    r_axes = (-1 - fan_in,) + tuple(range(1 - fan_in, 0))

    def vjp(g, inputs, o):
        xw, xr = inputs
        g_b = reshape(g, g_layout)
        g_w = g_r = None
        if type(w) is Node:
            x_r = reshape(xr, r_layout) if r_shape else xr
            g_w = _unbroadcast(mul(mul(g_b, x_r), sign), vw.shape)
        if type(radius) is Node:
            aw = abs_(xw) if type(xw) is Node else abs_w
            g_r = _unbroadcast(sum_(mul(g_b, aw), axis=r_axes), r_shape)
        return g_w, g_r

    return Node(tape, out, (w, radius), vjp)


def _batchnorm_radius(layer: LayerSpec, gamma, radius, var):
    """The radius image of a batchnorm layer with variance ``var`` as one
    node: ``radius·|gamma·inv_std|`` per channel, the absolute scale of
    :func:`~fewshot_ibp.layers.bn_affine`."""
    vg, vr = value_of(gamma), value_of(radius)
    inv_std = bn_inv_std(layer, var)
    scale = np.multiply(vg, inv_std)
    abs_scale = np.abs(scale)
    out = np.multiply(vr, abs_scale)
    tape = _tape_of(gamma, radius)
    if tape is None:
        return out
    sign = np.sign(scale)
    r_shape = np.shape(vr)

    def vjp(g, inputs, o):
        xg, xr = inputs
        g_gamma = g_r = None
        if type(gamma) is Node:
            g_gamma = _unbroadcast(mul(mul(mul(g, xr), sign), inv_std), vg.shape)
        if type(radius) is Node:
            a = abs_(mul(xg, inv_std)) if type(xg) is Node else abs_scale
            g_r = _unbroadcast(mul(g, a), r_shape)
        return g_gamma, g_r

    return Node(tape, out, (gamma, radius), vjp)


def propagate_layer(
    layer: LayerSpec,
    box: IntervalTensor,
    weight=None,
    bias=None,
    frozen_stats=None,
) -> IntervalTensor:
    """Push a box through one layer.

    A centered box through an affine layer gives a centered box: its center
    from :func:`~fewshot_ibp.layers.apply_layer`, then a radius node, its
    faces built when read.  Any other box and layer give a box without a center: the
    faces rule's chain of tape ops for an affine layer, one node for relu,
    max pooling and flatten (see the module docstring).  ``weight``/``bias``
    override stored parameters (typically tape nodes).  Batchnorm uses
    ``frozen_stats`` when given; otherwise statistics are taken from the box
    center, or the midpoint of a box without one, matching the per-step
    frozen-affine treatment of batchnorm.  A box of odd face rank is a stack
    of tasks.
    """
    kind = layer.kind
    centered = box.center is not None and kind in AFFINE_KINDS
    faces = None if centered else box.faces  # built before the check covers them
    box.validate(context=f"box faces into a {kind} layer")
    w = layer.weight if weight is None else weight
    b = layer.bias if bias is None else bias
    if kind == "batchnorm":
        shape = value_of(box.center).shape if centered else value_of(faces).shape[1:]
        check_batchnorm_input(value_of(w).shape[-1], shape)

    if centered:
        center = box.center
        if kind == "batchnorm" and frozen_stats is None:
            frozen_stats = batch_stats(center, layer)
        center = apply_layer(layer, center, weight=w, bias=b, frozen_stats=frozen_stats)
        if kind == "batchnorm":
            radius = _batchnorm_radius(layer, w, box.radius, frozen_stats[1])
        else:
            radius = _affine_radius(w, box.radius, 1 if kind == "fully_connected" else 3)
        return IntervalTensor.of(None, center, radius)
    if kind in AFFINE_KINDS:
        out = _faces_rule(layer, faces, w, b, frozen_stats)
    elif kind == "relu":
        out = relu(faces)
    elif kind == "maxpool2d":
        check_pool_input(value_of(faces).shape[1:])
        out = maxpool2d(faces, layer.window, layer.stride)
    elif kind == "flatten":
        shape = value_of(faces).shape
        out = reshape(faces, shape[: 2 + has_task_axis(value_of(faces)[0])] + (-1,))
    else:
        raise ValueError(f"unknown layer kind {kind!r}")
    return IntervalTensor.of(out)


def propagate_prefix(network: Network, x, eps: float, params=None) -> BoundResult:
    """Forward ``x`` through the embedding prefix while propagating its box.

    Returns the ordinary layer-``S`` activation as ``center`` and the box
    obtained by pushing ``[x - eps, x + eps]`` through the same layers.
    Batchnorm statistics come from the center activations and are reused for
    the box, so both passes see the identical per-step affine map.  While
    the box is centered its center is the clean activation, so the clean
    pass runs once per layer either way.  An odd-rank ``x`` is a stack of
    tasks, and each task's batchnorm statistics are its own.  Each box is
    validated once: every intermediate one by the next
    :func:`propagate_layer`, the last with the center by
    :meth:`BoundResult.validate`.
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
        box = propagate_layer(layer, box, weight=w, bias=b, frozen_stats=frozen)
        if box.center is None:
            center = apply_layer(layer, center, weight=w, bias=b, frozen_stats=frozen)
        else:
            center = box.center
    result = BoundResult(center, box)
    result.validate()
    return result
