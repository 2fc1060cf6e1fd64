"""Interval propagation of axis-aligned boxes through network prefixes.

A box is one value: :class:`IntervalTensor` holds its lower and upper faces
stacked on a new leading axis of length 2 (``faces``), one array or one tape
node.  An input box ``[x - eps, x + eps]`` is pushed layer by layer, and
each layer maps the box with one tape node:

- every affine layer (fully connected, conv, batchnorm) goes through one
  center/radius rule: the center ``mu`` maps through the layer and the
  radius ``psi`` through its elementwise absolute weights without bias,
  giving ``[mu' - psi', mu' + psi']`` (the standard interval bound
  propagation form, Gowal et al. 2018); a conv box costs two convolutions;
- relu and max pooling are monotone, so they apply to the stacked faces at
  once (one ``relu`` or ``maxpool2d`` node), and flatten is one ``reshape``.

The propagated box is guaranteed to contain the image of every point of the
input box, and for a single affine, relu, or maxpool layer each output face
is attained by some input point.  Each box is validated once (finite faces,
lower below upper): an intermediate box when the next layer takes it, the
last one, with its center, when the result is made.

All entry points accept tape nodes as well as plain arrays, so bound
computations are differentiable with respect to the network parameters.  An
affine box node's vjp is written with tape operations, so second-order
meta-updates differentiate through it, and it repeats the adjoint sums of
the primitive chain it replaced in the same order, so its gradients are
those of the chain bit for bit.  As in the forward pass, an odd face rank
marks a stack of T tasks, propagated at once
(:func:`~fewshot_ibp.layers.has_task_axis`): faces carry a task axis after
their face axis, parameters are shared or stacked per task, and batchnorm
takes its statistics per task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
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
    _conv_bias_grad,
    _conv_input_grad,
    _conv_weight_grad,
    _linear_bias_grad,
    _linear_input_grad,
    _linear_weight_grad,
    _tape_of,
    _unbroadcast,
    abs_,
    add,
    check_finite,
    conv2d,
    linear,
    maxpool2d,
    mul,
    neg,
    relu,
    reshape,
    stack,
    sub,
    take,
    value_of,
)


class IntervalTensor:
    """Axis-aligned box: coordinatewise lower and upper faces of equal
    shapes, held stacked as ``faces`` (2, ...).  ``lower`` and ``upper``
    read one face (a tape node when the faces are one)."""

    __slots__ = ("faces",)

    def __init__(self, lower, upper):
        lo_shape, up_shape = np.shape(value_of(lower)), np.shape(value_of(upper))
        if lo_shape != up_shape:
            raise ValueError(f"box face shapes differ: {lo_shape} vs {up_shape}")
        self.faces = stack((lower, upper))

    @classmethod
    def of(cls, faces) -> "IntervalTensor":
        """The box whose stacked faces are ``faces``."""
        box = cls.__new__(cls)
        box.faces = faces
        return box

    @property
    def lower(self):
        return take(self.faces, 0)

    @property
    def upper(self):
        return take(self.faces, 1)

    def values(self) -> "IntervalTensor":
        return IntervalTensor.of(value_of(self.faces))

    def validate(self, tol: float = 0.0, context: str = "box faces") -> None:
        faces = value_of(self.faces)
        check_finite(faces, context)
        if np.logical_or.reduce(faces[0] > faces[1] + tol, axis=None):
            raise ValueError("box has lower > upper")


@dataclass
class BoundResult:
    """Embedding of an instance together with its propagated box."""

    center: object
    box: IntervalTensor

    def values(self) -> "BoundResult":
        return BoundResult(value_of(self.center), self.box.values())

    def validate(self, tol: float = 1e-9) -> None:
        self.box.validate(tol=tol, context="box faces of the result")
        c = value_of(self.center)
        check_finite(c, "box center")  # NaN compares false against both faces
        faces = value_of(self.box.faces)
        below = np.logical_or.reduce(c < faces[0] - tol, axis=None)
        if below or np.logical_or.reduce(c > faces[1] + tol, axis=None):
            raise ValueError("center outside propagated box")


def epsilon_box(x, eps: float) -> IntervalTensor:
    """The l-infinity ball ``[x - eps, x + eps]`` as a box."""
    if eps < 0:
        raise ValueError(f"epsilon must be non-negative, got {eps}")
    return IntervalTensor(sub(x, eps), add(x, eps))


def _midpoint_radius(faces):
    """Center and radius of a box from its stacked faces (values, or nodes
    of the faces' tape)."""
    lower, upper = take(faces, 0), take(faces, 1)
    return mul(add(lower, upper), 0.5), mul(sub(upper, lower), 0.5)


def _faces(mu, psi):
    """The stacked faces ``(mu - psi, mu + psi)`` of center and radius
    arrays."""
    out = np.empty((2,) + mu.shape)
    np.subtract(mu, psi, out=out[0])
    np.add(mu, psi, out=out[1])
    return out


def _image_adjoints(g):
    """Adjoints of the center and radius images ``mu'``, ``psi'`` from the
    adjoint ``g`` of the output faces ``(mu' - psi', mu' + psi')``."""
    g_lower, g_upper = take(g, 0), take(g, 1)
    return add(g_upper, g_lower), sub(g_upper, g_lower)


def _face_adjoint(g_mu, g_psi):
    """Adjoint of the input faces from those of the center and radius."""
    g_mid, g_rad = mul(g_mu, 0.5), mul(g_psi, 0.5)
    return stack((sub(g_mid, g_rad), add(g_rad, g_mid)))


def _affine_interval(faces, w, b, apply, input_grad, weight_grad, bias_grad):
    """The box image of ``apply(x, w, b)``, a map linear in ``x`` and in
    ``w`` plus a bias, as one node.  ``input_grad(g, w, x_shape)``,
    ``weight_grad(g, x, w_shape)`` and ``bias_grad(g, b_shape)`` are its
    adjoints for an output adjoint ``g``.

    ``w`` is listed twice among the parents, for the radius image and then
    the center image, so the tape sums its adjoint in the order of the
    primitive chain.
    """
    vf, vw = value_of(faces), value_of(w)
    mu, psi = _midpoint_radius(vf)
    abs_w = np.abs(vw)
    mu_out = apply(mu, vw, None if b is None else value_of(b))
    out = _faces(mu_out, apply(psi, abs_w, None))
    tape = _tape_of(faces, w, b)
    if tape is None:
        return out
    sign = np.sign(vw)

    def vjp(g, inputs, o):
        f, xw, _, _ = inputs
        g_mu, g_psi = _image_adjoints(g)
        g_faces = g_w_radius = g_w_center = g_b = None
        if isinstance(faces, Node):
            aw = abs_(xw) if isinstance(xw, Node) else abs_w
            g_faces = _face_adjoint(
                input_grad(g_mu, xw, mu.shape), input_grad(g_psi, aw, mu.shape)
            )
        if isinstance(w, Node):
            x_mu, x_psi = _midpoint_radius(f) if isinstance(f, Node) else (mu, psi)
            g_w_radius = mul(weight_grad(g_psi, x_psi, vw.shape), sign)
            g_w_center = weight_grad(g_mu, x_mu, vw.shape)
        if isinstance(b, Node):
            g_b = bias_grad(g_mu, b.shape)
        return g_faces, g_w_radius, g_w_center, g_b

    return Node(tape, out, (faces, w, w, b), vjp)


def _batchnorm_interval(faces, layer: LayerSpec, gamma, beta, frozen_stats):
    """The box image of a batchnorm layer with frozen statistics as one
    node, ``gamma``/``beta`` through the scale and shift of
    :func:`~fewshot_ibp.layers.bn_affine`."""
    vf = value_of(faces)
    ref = vf[0]
    mu, psi = _midpoint_radius(vf)
    mean, var = batch_stats(mu, layer) if frozen_stats is None else frozen_stats
    inv_std = bn_inv_std(layer, var)
    scale, shift = bn_affine(layer, mean, var, gamma=value_of(gamma), beta=value_of(beta))
    scale_b, shift_b = _bn_broadcast(ref, scale), _bn_broadcast(ref, shift)
    abs_scale_b = _bn_broadcast(ref, np.abs(scale))
    mu_out = np.add(np.multiply(mu, scale_b), shift_b)
    out = _faces(mu_out, np.multiply(psi, abs_scale_b))
    tape = _tape_of(faces, gamma, beta)
    if tape is None:
        return out
    sign = np.sign(scale)

    def vjp(g, inputs, o):
        f, xg, _ = inputs
        g_mu, g_psi = _image_adjoints(g)
        s_b, abs_s_b = scale_b, abs_scale_b
        if isinstance(xg, Node):  # building a graph: the scale as a node of gamma
            s = mul(xg, inv_std)
            s_b, abs_s_b = _bn_broadcast(ref, s), _bn_broadcast(ref, abs_(s))
        g_faces = g_gamma = g_beta = None
        if isinstance(faces, Node):
            g_faces = _face_adjoint(mul(g_mu, s_b), mul(g_psi, abs_s_b))
        if isinstance(gamma, Node) or isinstance(beta, Node):
            g_shift = reshape(_unbroadcast(g_mu, shift_b.shape), shift.shape)
        if isinstance(gamma, Node):
            x_mu, x_psi = _midpoint_radius(f) if isinstance(f, Node) else (mu, psi)
            g_scale = add(
                mul(reshape(_unbroadcast(mul(g_psi, x_psi), abs_scale_b.shape), scale.shape), sign),
                reshape(_unbroadcast(mul(g_mu, x_mu), scale_b.shape), scale.shape),
            )
            g_scale = add(g_scale, _unbroadcast(mul(neg(g_shift), mean), scale.shape))
            g_gamma = _unbroadcast(mul(g_scale, inv_std), gamma.shape)
        if isinstance(beta, Node):
            g_beta = _unbroadcast(g_shift, beta.shape)
        return g_faces, g_gamma, g_beta

    return Node(tape, out, (faces, gamma, beta), vjp)


def propagate_layer(
    layer: LayerSpec,
    box: IntervalTensor,
    weight=None,
    bias=None,
    frozen_stats=None,
) -> IntervalTensor:
    """Push a box through one layer, as one tape node.

    ``weight``/``bias`` override stored parameters (typically tape nodes).
    Batchnorm uses ``frozen_stats`` when given; otherwise statistics are taken
    from the box midpoint batch, matching the per-step frozen-affine
    treatment of batchnorm.  A box of odd face rank is a stack of tasks (see
    the module docstring).
    """
    kind = layer.kind
    box.validate(context=f"box faces into a {kind} layer")
    w = layer.weight if weight is None else weight
    b = layer.bias if bias is None else bias
    faces = box.faces

    if kind == "fully_connected":
        out = _affine_interval(
            faces, w, b, linear, _linear_input_grad, _linear_weight_grad, _linear_bias_grad
        )
    elif kind == "conv2d":
        stride = layer.stride
        out = _affine_interval(
            faces, w, b,
            lambda x, w_, b_: conv2d(x, w_, b_, stride=stride),
            lambda g, w_, x_shape: _conv_input_grad(g, w_, x_shape, stride),
            lambda g, x, w_shape: _conv_weight_grad(g, x, w_shape, stride),
            _conv_bias_grad,
        )
    elif kind == "batchnorm":
        check_batchnorm_input(value_of(w).shape[-1], value_of(faces).shape[1:])
        out = _batchnorm_interval(faces, layer, w, b, frozen_stats)
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
    the box, so both passes see the identical per-step affine map.  An
    odd-rank ``x`` is a stack of tasks, and each task's batchnorm statistics
    are its own.  Each box is validated once: every intermediate one by the
    next :func:`propagate_layer`, the last with the center by
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
        center = apply_layer(layer, center, weight=w, bias=b, frozen_stats=frozen)
        box = propagate_layer(layer, box, weight=w, bias=b, frozen_stats=frozen)
    result = BoundResult(center, box)
    result.validate()
    return result
