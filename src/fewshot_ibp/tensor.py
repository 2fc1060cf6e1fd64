"""Dense float64 tensors and a reverse-mode differentiation tape.

All numeric values in this package are 64-bit float numpy arrays created
through :func:`as_tensor`, which validates finiteness and freezes the buffer.
Differentiable computations happen on a :class:`Tape`: operations accept a mix
of plain arrays (constants) and :class:`Node` handles, and return a ``Node``
whenever a node participates.  A node has no arithmetic operators; values
combine only through these functions, which record them.  The backward pass
expresses adjoints with the same operation set, so gradients are themselves
tape nodes and can be differentiated again (used for exact second-order
meta-updates).

A node's ``parents`` are its op's operands in call order, constants included
(arrays, floats, ``None``), and its vjp returns one adjoint per operand,
``None`` for a constant.  :meth:`Tape.backward` pairs them strictly: a vjp
that returns too few or too many raises ``ValueError``.

Value mode.  A backward pass that builds no graph (``build_graph=False``,
every first-order and ProtoNet step) hands each vjp plain arrays, so the
tape ops it calls have no node among their operands.  Every tape op tests
each operand once with ``type(x) is Node`` and, when none is a node,
returns its numpy result straight away: it touches no tape and records
nothing.  The same vjp body therefore serves both modes, runs the same
numpy calls in the same order in each, and a value-mode pass pays one type
test per operand for each op, not a tape lookup.  :meth:`Tape.backward`
takes a loss of any shape (one value per task) and differentiates the sum
of its entries.  It sums value-mode adjoints with ``np.add``, keys adjoints
by node, and starts its walk at the first requested parameter on the tape:
nothing recorded earlier is computed from one.  In graph mode it walks only
the nodes with a requested or walked parent, so a requested parameter's own
vjp never runs; an adjoint that depends on none is a plain array.

Hot chains of primitives are single fused nodes with analytic vector-Jacobian
products: ``sub`` (one node, not ``add`` of ``neg``), ``linear`` (``x @ wᵀ +
b``) and ``weighted_sum`` (the total loss, a mixed cross-entropy, a mixup)
here; elsewhere each batchnorm activation (``layers``), each interval box
layer (``bounds``), the prototype scores and cross-entropy (``learners``),
each set's interpolation (``interpolation``) and the bound losses
(``objective``).  The batchnorm, box, score, interpolation and weighted-sum
nodes keep the numpy expressions of the chains they replaced, so their values
are the chains' bit for bit, and their vjps sum the chains' adjoints in the
chains' order.  ``stack`` and ``take`` carry a box's two faces as one value
on a leading axis; each is the other's vjp.  ``conv2d`` and ``maxpool2d`` are
numpy kernels whose vjps are private tape ops, each differentiable again: a
transposed convolution and a kernel gradient; and for pooling, whose taped
forward records the flat index into its input of each window's first maximum,
a scatter of the adjoint to those indices (one ``np.bincount``) whose vjp is
the gather at them (one fancy index of the flattened adjoint), and the other
way round.  Every vjp is written with tape operations, so with
``build_graph=True`` it records the nodes of its own derivative, and
second-order meta-updates differentiate through it.

``matmul``, ``transpose``, ``linear``, ``conv2d`` and ``maxpool2d`` accept a
leading task axis: a stack of T independent problems, each with its own
operands or sharing a weight, evaluated in one call.  ``maxpool2d`` also
takes a box's stacked faces, one more leading axis.

Every node points at its tape and the tape lists every node, so a tape is a
reference cycle.  :meth:`Tape.release` (or leaving a ``with Tape()`` block)
breaks it, so the graph is freed at once instead of by the cyclic collector.
A released tape is spent: recording a node on it or running its backward
pass raises ``ValueError``.
Every training tape is recorded in a ``with Tape()`` block, so a step's
graph is freed when the step ends.  Under glibc's default allocator
thresholds that made each step costlier: the 300-700 KB conv, im2col and
box arrays were mapped afresh, or freed to a heap top that glibc trims past
a few times their size, so every step faulted its ~4 MB of temporaries back
in from the OS.  Importing this module therefore sets glibc's mmap
threshold to 4 MiB and its trim threshold to 16 MiB, once per process:
those arrays come from the heap, and a freed step's pages stay mapped for
the next step.
"""

from __future__ import annotations

import ctypes
import math
import platform

import numpy as np

__all__ = [
    "NonFiniteError",
    "Tape",
    "Node",
    "as_tensor",
    "value_of",
    "check_finite",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "relu",
    "abs_",
    "exp",
    "sqrt",
    "sum_",
    "stack",
    "take",
    "weighted_sum",
    "linear",
    "conv2d",
    "maxpool2d",
]


class NonFiniteError(ValueError):
    """A tensor contains NaN or Inf, which violates the numeric contract."""


# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_pages() -> None:
    """Set glibc's mmap and trim thresholds (see the module docstring);
    a no-op under any other C library."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt  # the C library the process runs on
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


_keep_heap_pages()


def as_tensor(values) -> np.ndarray:
    """Copy ``values`` into an immutable, C-contiguous float64 array.

    Raises:
        NonFiniteError: if any entry is NaN or infinite.
    """
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NonFiniteError("tensor contains non-finite values")
    arr.flags.writeable = False
    return arr


def value_of(x):
    """Underlying ndarray of a node, or ``x`` itself if already plain data."""
    return x.value if type(x) is Node else x


def check_finite(x, context: str = "tensor") -> None:
    if not np.logical_and.reduce(np.isfinite(value_of(x)), axis=None):
        raise NonFiniteError(f"non-finite values in {context}")


class Node:
    """One recorded value on a tape.

    ``parents`` lists the op's operands in call order, nodes and constants
    alike; ``vjp(g, inputs, out)`` maps the output adjoint to exactly one
    adjoint per parent, ``None`` for a constant.  ``inputs`` and ``out`` are
    the operands and the node itself when the backward pass builds a graph,
    or their raw values otherwise, so a single vjp body serves both modes.
    In value mode every tape op the vjp calls sees plain arrays only and
    returns its numpy result without a tape, so the adjoints are arrays; in
    graph mode, so are the adjoints that depend on no node.

    ``Node`` has no subclasses: the tape ops tell a node from plain data with
    ``type(x) is Node``.
    """

    __slots__ = ("tape", "value", "parents", "vjp")

    # a node has no arithmetic operators: values combine through the tape
    # ops, and this makes ``ndarray <op> Node`` raise TypeError as well
    # instead of broadcasting over the node as an object
    __array_ufunc__ = None

    def __init__(self, tape, value, parents=(), vjp=None):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp
        tape._nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


_RELEASED_MESSAGE = "tape was released (Tape.release, or the end of its with block)"


class _Released:
    """The node list of a released tape: empty, and recording on it raises,
    so a node made after the release fails instead of reusing the tape."""

    __slots__ = ()

    def __len__(self):
        return 0

    def append(self, node):
        raise ValueError(f"cannot record a node: {_RELEASED_MESSAGE}")


_RELEASED = _Released()


class Tape:
    """Single-writer record of operations, consumed in reverse by backward.

    Used as a context manager, the tape is released when the block exits.
    """

    def __init__(self):
        self._nodes: list[Node] = []

    def __len__(self):
        return len(self._nodes)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.release()

    def release(self) -> None:
        """Forget the recorded nodes, breaking the node/tape reference cycle.

        Nodes still held elsewhere stay valid as values, but the tape is
        spent: recording on it or calling :meth:`backward` raises
        ``ValueError``.
        """
        self._nodes = _RELEASED

    def leaf(self, value) -> Node:
        """Record an independent variable (typically a parameter)."""
        return Node(self, np.asarray(value, dtype=np.float64))

    def backward(self, loss: Node, params, build_graph: bool = False):
        """Reverse-mode gradients of the sum of ``loss``'s entries (a loss of
        any shape, typically one per task) for each of ``params``.

        The walk is seeded with ``ones_like(loss.value)``, as a :func:`sum_`
        node would seed it, and visits the recorded nodes once in reverse
        order, which is a reverse topological order because recording order
        is execution order, from the last node to the first requested
        parameter on the tape.  With ``build_graph=True`` only nodes with a
        requested or walked parent are walked, so a requested parameter's own
        vjp does not run, and their adjoints are tape nodes (enabling
        differentiation through the gradients); an adjoint that depends on no
        requested parameter is a plain array in either mode, zeros included.
        Adjoints are keyed by node.  Each vjp must return one adjoint per
        operand, or this raises ``ValueError``.  Returns ``{param:
        gradient}``; parameters that do not reach the loss get zero
        gradients.  A parameter may be a computed node rather than a leaf (a
        parameter after an inner update); its gradient is its full adjoint.
        """
        if self._nodes is _RELEASED:
            raise ValueError(f"cannot run backward: {_RELEASED_MESSAGE}")
        if not isinstance(loss, Node) or loss.tape is not self:
            raise ValueError("loss must be a node recorded on this tape")
        params = list(params)
        for p in params:
            if not isinstance(p, Node) or p.tape is not self:
                raise ValueError("every parameter must be a node on this tape")
        if not params:
            return {}
        wanted = set(params)
        # nothing recorded before the first requested parameter is computed from one
        start = next(i for i, node in enumerate(self._nodes) if node in wanted)
        if build_graph:  # only nodes computed from a requested parameter carry its gradient
            live, walk = {id(p) for p in params}, []  # ids: operand lists hold arrays
            for node in self._nodes[start:]:
                if not live.isdisjoint(map(id, node.parents)):
                    live.add(id(node))
                    walk.append(node)
        else:
            walk = self._nodes[start:]

        adjoints = {loss: np.ones_like(loss.value)}
        for node in reversed(walk):
            if node.vjp is None:
                continue  # leaves keep their accumulated adjoints
            if node in wanted:  # a computed parameter keeps its adjoint
                g = adjoints.get(node)
            else:
                g = adjoints.pop(node, None)
            if g is None:
                continue
            if build_graph:
                inputs, out = node.parents, node
            else:
                inputs = [p.value if type(p) is Node else p for p in node.parents]
                out = node.value
            for parent, pg in zip(node.parents, node.vjp(g, inputs, out), strict=True):
                if pg is None:
                    continue
                acc = adjoints.get(parent)
                if acc is not None:
                    pg = add(acc, pg) if build_graph else np.add(acc, pg)
                adjoints[parent] = pg

        return {p: adjoints[p] if p in adjoints else np.zeros_like(p.value) for p in params}


def _tape_of(*operands):
    """The tape the node operands were recorded on, or None if no operand is
    a node."""
    tape = None
    for x in operands:
        if type(x) is Node:
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise ValueError("operands recorded on different tapes")
    return tape


def _shape_of(x):
    if type(x) is Node:
        return x.value.shape
    return x.shape if type(x) is np.ndarray else np.shape(x)


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting: with
    :func:`sum_` on a node, with ``np.add.reduce`` on an array."""
    shape = tuple(shape)
    g_shape = _shape_of(g)
    if g_shape == shape:
        return g
    reduce = sum_ if type(g) is Node else np.add.reduce
    while len(g_shape) > len(shape):
        g = reduce(g, axis=0)
        g_shape = g_shape[1:]
    for axis, extent in enumerate(shape):
        if extent == 1 and g_shape[axis] != 1:
            g = reduce(g, axis=axis, keepdims=True)
    return g


def add(a, b):
    if type(a) is not Node and type(b) is not Node:
        return np.add(a, b)
    out = np.add(value_of(a), value_of(b))
    sa, sb = _shape_of(a), _shape_of(b)

    def vjp(g, inputs, o):
        ga = _unbroadcast(g, sa) if type(a) is Node else None
        gb = _unbroadcast(g, sb) if type(b) is Node else None
        return ga, gb

    return Node(_tape_of(a, b), out, (a, b), vjp)


def sub(a, b):
    if type(a) is not Node and type(b) is not Node:
        return np.subtract(a, b)
    out = np.subtract(value_of(a), value_of(b))  # bit-equal to a + (-b)
    sa, sb = _shape_of(a), _shape_of(b)

    def vjp(g, inputs, o):
        ga = _unbroadcast(g, sa) if type(a) is Node else None
        gb = _unbroadcast(neg(g), sb) if type(b) is Node else None
        return ga, gb

    return Node(_tape_of(a, b), out, (a, b), vjp)


def neg(a):
    if type(a) is not Node:
        return np.negative(a)
    return Node(a.tape, np.negative(a.value), (a,), lambda g, inputs, o: (neg(g),))


def mul(a, b):
    if type(a) is not Node and type(b) is not Node:
        return np.multiply(a, b)
    out = np.multiply(value_of(a), value_of(b))
    sa, sb = _shape_of(a), _shape_of(b)

    def vjp(g, inputs, o):
        xa, xb = inputs
        ga = _unbroadcast(mul(g, xb), sa) if type(a) is Node else None
        gb = _unbroadcast(mul(g, xa), sb) if type(b) is Node else None
        return ga, gb

    return Node(_tape_of(a, b), out, (a, b), vjp)


def div(a, b):
    if type(a) is not Node and type(b) is not Node:
        return np.divide(a, b)
    out = np.divide(value_of(a), value_of(b))
    sa, sb = _shape_of(a), _shape_of(b)

    def vjp(g, inputs, o):
        xa, xb = inputs
        ga = _unbroadcast(div(g, xb), sa) if type(a) is Node else None
        gb = (
            _unbroadcast(neg(div(mul(g, xa), mul(xb, xb))), sb)
            if type(b) is Node
            else None
        )
        return ga, gb

    return Node(_tape_of(a, b), out, (a, b), vjp)


def matmul(a, b):
    """Matrix product over the last two axes, broadcast over leading axes.

    An operand without the leading axes of the other (a weight shared by
    every task) receives the sum of the per-task gradients.
    """
    if type(a) is not Node and type(b) is not Node:
        return a @ b
    out = value_of(a) @ value_of(b)

    def vjp(g, inputs, o):
        xa, xb = inputs
        ga = matmul(g, transpose(xb)) if type(a) is Node else None
        gb = matmul(transpose(xa), g) if type(b) is Node else None
        if len(_shape_of(g)) > 2:
            ga = None if ga is None else _unbroadcast(ga, _shape_of(xa))
            gb = None if gb is None else _unbroadcast(gb, _shape_of(xb))
        return ga, gb

    return Node(_tape_of(a, b), out, (a, b), vjp)


def transpose(a):
    """Swap the last two axes; leading (task) axes stay in place."""
    if type(a) is not Node:
        return a.swapaxes(-1, -2)
    return Node(a.tape, a.value.swapaxes(-1, -2), (a,), lambda g, inputs, o: (transpose(g),))


def linear(x, w, b=None):
    """``x @ wᵀ + b`` as one node: rows ``x`` (n, in), weight ``w`` (out, in)
    and bias ``b`` (out,), or no bias when ``b`` is None.

    With a leading task axis ``x`` is (tasks, n, in) and ``w``/``b`` are
    shared or stacked per task as (tasks, out, in) / (tasks, out); a shared
    operand receives the sum of the per-task gradients.
    """
    if type(x) is not Node and type(w) is not Node and type(b) is not Node:
        out = x @ w.swapaxes(-1, -2)
        if b is not None:
            out += b[:, None, :] if b.ndim == 2 else b
        return out
    vx, vw = value_of(x), value_of(w)
    out = linear(vx, vw, value_of(b))
    sx, sw = vx.shape, vw.shape

    def vjp(g, inputs, o):
        xx, xw, _ = inputs
        gx = _linear_input_grad(g, xw, sx) if type(x) is Node else None
        gw = _linear_weight_grad(g, xx, sw) if type(w) is Node else None
        gb = _linear_bias_grad(g, b.shape) if type(b) is Node else None
        return gx, gw, gb

    return Node(_tape_of(x, w, b), out, (x, w, b), vjp)


# The adjoints of ``linear``'s input, weight and bias for output adjoint
# ``g``, shared with the fused interval node of a fully connected layer.


def _linear_input_grad(g, w, x_shape):
    return _unbroadcast(matmul(g, w), x_shape)


def _linear_weight_grad(g, x, w_shape):
    return _unbroadcast(matmul(transpose(g), x), w_shape)


def _linear_bias_grad(g, b_shape):
    # a per-task bias sums over its own rows only
    return sum_(g, axis=-2) if len(b_shape) == 2 else _unbroadcast(g, b_shape)


def reshape(a, shape):
    if type(a) is not Node:
        return a.reshape(shape)
    orig = a.value.shape
    return Node(a.tape, a.value.reshape(shape), (a,), lambda g, inputs, o: (reshape(g, orig),))


def relu(a):
    if type(a) is not Node:
        return np.maximum(a, 0.0)
    out = np.maximum(a.value, 0.0)
    mask = np.greater(a.value, 0.0)  # g·mask is g·1.0 or g·0.0, bit for bit
    return Node(a.tape, out, (a,), lambda g, inputs, o: (mul(g, mask),))


def abs_(a):
    if type(a) is not Node:
        return np.abs(a)
    out = np.abs(a.value)
    sign = np.sign(a.value)
    return Node(a.tape, out, (a,), lambda g, inputs, o: (mul(g, sign),))


def exp(a):
    if type(a) is not Node:
        return np.exp(a)
    return Node(a.tape, np.exp(a.value), (a,), lambda g, inputs, o: (mul(g, o),))


def sqrt(a):
    if type(a) is not Node:
        return np.sqrt(a)
    return Node(a.tape, np.sqrt(a.value), (a,), lambda g, inputs, o: (div(mul(g, 0.5), o),))


def sum_(a, axis=None, keepdims=False):
    if type(a) is not Node:
        return np.add.reduce(a, axis=axis, keepdims=keepdims)  # np.sum, without its wrapper
    shape = a.value.shape
    out = np.add.reduce(a.value, axis=axis, keepdims=keepdims)

    def vjp(g, inputs, o):
        if axis is not None and not keepdims:
            kept = list(_shape_of(g))
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            for ax in sorted(ax % len(shape) for ax in axes):
                kept.insert(ax, 1)
            g = reshape(g, tuple(kept))
        return (mul(g, np.ones(shape)),)

    return Node(a.tape, out, (a,), vjp)


def stack(values):
    """``values`` (equal shapes) stacked on a new leading axis.  Each node
    operand's adjoint is its slice of the output adjoint (:func:`take`)."""
    if Node not in map(type, values):  # one type test per operand
        return np.array(values)  # np.stack, without its wrapper
    out = np.array([value_of(v) for v in values])

    def vjp(g, inputs, o):
        return tuple(take(g, i) if type(v) is Node else None for i, v in enumerate(values))

    return Node(_tape_of(*values), out, tuple(values), vjp)


def take(a, index: int):
    """Entry ``index`` of ``a``'s leading axis.  The adjoint is the output
    adjoint at that entry and zeros at the others (:func:`stack`)."""
    if type(a) is not Node:
        return a[index]
    out = a.value[index]
    n = a.value.shape[0]

    def vjp(g, inputs, o):
        zeros = np.zeros(out.shape)
        return (stack([g if i == index else zeros for i in range(n)]),)

    return Node(a.tape, out, (a,), vjp)


def weighted_sum(terms, weights):
    """``terms[0]·weights[0] + terms[1]·weights[1] + …`` as one node, added
    left to right, with constant weights.  A node term's adjoint is the
    output adjoint times its weight, summed down to the term's shape."""
    if len(terms) != len(weights):
        raise ValueError(f"{len(terms)} terms but {len(weights)} weights")
    values = [value_of(t) for t in terms]
    out = np.multiply(values[0], weights[0])
    for v, w in zip(values[1:], weights[1:]):
        out = np.add(out, np.multiply(v, w))
    if Node not in map(type, terms):
        return out

    def vjp(g, inputs, o):
        return tuple(
            _unbroadcast(mul(g, w), v.shape) if type(t) is Node else None
            for t, v, w in zip(terms, values, weights)
        )

    return Node(_tape_of(*terms), out, tuple(terms), vjp)


# ---------------------------------------------------------------------------
# Spatial operations.  A convolution is a bilinear op, and so are its two
# gradients: the input gradient (a transposed convolution) and the weight
# gradient.  Each one's vjp is written with the other two, so the three are
# closed under differentiation and gradients of gradients are tape nodes.
# Max pooling's vjp scatters into the flat indices of the window maxima; the
# scatter's vjp is the gather at them, and the gather's the scatter.  Each
# public op defines its vjp inside itself, so its nodes carry its name; vjps
# call only the private kernels, so a wrapper around a public op sees forward
# calls only.
# ---------------------------------------------------------------------------


def _out_hw(h, w, kh, kw, stride):
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"window {kh}x{kw} too large for input {h}x{w}")
    return oh, ow


def _offset_views(a, kh, kw, stride, out_hw):
    """The kh·kw strided views of ``a`` (..., h, w), one per offset in a
    (kh, kw) window in row-major order, each (..., oh, ow): view ``k`` holds
    offset ``k`` of every window."""
    rows, cols = stride * (out_hw[0] - 1) + 1, stride * (out_hw[1] - 1) + 1
    return [
        a[..., i : i + rows : stride, j : j + cols : stride]
        for i in range(kh)
        for j in range(kw)
    ]


def _bilinear(tape, out, a, b, grad_a, grad_b):
    """Node for an op linear in each of ``a`` and ``b``: ``grad_a(h, b)`` and
    ``grad_b(h, a)`` map the output adjoint ``h`` to each operand's."""

    def vjp(h, inputs, o):
        xa, xb = inputs
        ga = grad_a(h, xb) if type(a) is Node else None
        gb = grad_b(h, xa) if type(b) is Node else None
        return ga, gb

    return Node(tape, out, (a, b), vjp)


def _im2col(vx, kh, kw, stride):
    """Every kernel window of ``vx`` (..., n, c, h, w) as the columns of a
    (..., n, c·kh·kw, oh·ow) matrix, built with one copy, and (oh, ow)."""
    *lead, c, h, w = vx.shape
    oh, ow = _out_hw(h, w, kh, kw, stride)
    flat = vx.reshape((-1, c, h, w))
    s0, s1, s2, s3 = flat.strides
    windows = np.lib.stride_tricks.as_strided(
        flat,
        shape=(flat.shape[0], c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows.reshape(tuple(lead) + (c * kh * kw, oh * ow)), (oh, ow)


def _kernel_matrix(vw):
    """Kernel (..., out_c, in_c, kh, kw) as an (out_c, in_c·kh·kw) matrix; a
    per-task stack gains a broadcast axis for the batch."""
    w_mat = vw.reshape(vw.shape[:-3] + (-1,))
    return w_mat[:, None] if w_mat.ndim == 3 else w_mat


def _conv_value(cols, out_hw, vw):
    return (_kernel_matrix(vw) @ cols).reshape(cols.shape[:-2] + vw.shape[-4:-3] + out_hw)


def _conv(x, w, stride):
    """``conv2d`` without bias, as a tape op of its own."""
    if type(x) is not Node and type(w) is not Node:
        return _conv_value(*_im2col(x, *w.shape[-2:], stride), w)
    x_shape, w_shape = _shape_of(x), _shape_of(w)
    return _bilinear(
        _tape_of(x, w), _conv(value_of(x), value_of(w), stride), x, w,
        lambda g, w_: _conv_input_grad(g, w_, x_shape, stride),
        lambda g, x_: _conv_weight_grad(g, x_, w_shape, stride),
    )


def _conv_input_grad(g, w, x_shape, stride):
    """Adjoint of a convolution's input for output adjoint ``g``: the
    transposed convolution ``w_matᵀ @ g``, folded back onto ``x_shape`` one
    kernel offset at a time."""
    if type(g) is not Node and type(w) is not Node:
        in_c, kh, kw = w.shape[-3:]
        out_hw = g.shape[-2:]
        g_mat = g.reshape(g.shape[:-2] + (-1,))
        dcols = (np.swapaxes(_kernel_matrix(w), -1, -2) @ g_mat).reshape(
            g.shape[:-3] + (in_c, kh * kw) + out_hw
        )
        dx = np.zeros(x_shape)
        for k, view in enumerate(_offset_views(dx, kh, kw, stride, out_hw)):
            view += dcols[..., k, :, :]
        return dx
    w_shape = _shape_of(w)
    return _bilinear(
        _tape_of(g, w), _conv_input_grad(value_of(g), value_of(w), x_shape, stride), g, w,
        lambda h, w_: _conv(h, w_, stride),
        lambda h, g_: _conv_weight_grad(g_, h, w_shape, stride),
    )


def _conv_weight_grad(g, x, w_shape, stride, cols=None):
    """Adjoint of a convolution's kernel for output adjoint ``g`` and input
    ``x``: ``g @ colsᵀ`` summed over the batch, and over the tasks when the
    kernel is shared.  ``cols`` is the column matrix of ``x`` if known."""
    if type(g) is not Node and type(x) is not Node:
        if cols is None:
            cols, _ = _im2col(x, *w_shape[-2:], stride)
        g_mat = g.reshape(g.shape[:-2] + (-1,))
        prod = g_mat @ np.swapaxes(cols, -1, -2)  # (..., n, out_c, in_c·kh·kw)
        dw = np.add.reduce(prod, axis=-3)  # prod.sum, without its wrapper
        return _unbroadcast(dw, w_shape[:-3] + prod.shape[-1:]).reshape(w_shape)
    x_shape = _shape_of(x)
    dw = _conv_weight_grad(value_of(g), value_of(x), w_shape, stride, cols)
    return _bilinear(
        _tape_of(g, x), dw, g, x,
        lambda k, x_: _conv(x_, k, stride),
        lambda k, g_: _conv_input_grad(g_, k, x_shape, stride),
    )


def _conv_bias_grad(g, b_shape):
    """Adjoint of a convolution's bias for output adjoint ``g``."""
    return _unbroadcast(sum_(g, axis=(-4, -2, -1)), b_shape)


def conv2d(x, weight, bias, stride: int = 1):
    """2-D cross correlation with no padding.

    ``x`` is (batch, in_c, h, w); ``weight`` is (out_c, in_c, kh, kw);
    ``bias`` is (out_c,), or None for no bias.  Output is (batch, out_c, oh,
    ow).  With a leading task axis ``x`` is (tasks, batch, in_c, h, w), the
    output gains the same axis, and ``weight``/``bias`` are shared or stacked
    per task as (tasks, out_c, in_c, kh, kw) / (tasks, out_c).
    """
    if stride <= 0:
        raise ValueError("conv stride must be positive")
    vx, vw, vb = value_of(x), value_of(weight), value_of(bias)
    if (
        vx.ndim not in (4, 5)
        or vw.ndim not in (4, 5)
        or vw.shape[:-4] not in ((), vx.shape[:-4])
        or vx.shape[-3] != vw.shape[-3]
        or (vb is not None and vb.shape != vw.shape[:-3])
    ):
        raise ValueError(
            f"conv2d input shape {vx.shape} incompatible with kernel {vw.shape} "
            f"and bias {None if vb is None else vb.shape}"
        )
    cols, out_hw = _im2col(vx, *vw.shape[-2:], stride)
    out = _conv_value(cols, out_hw, vw)
    if vb is not None:
        out += vb.reshape(vb.shape[:-1] + (1, -1, 1, 1))
    if type(x) is not Node and type(weight) is not Node and type(bias) is not Node:
        return out
    x_shape, w_shape = vx.shape, vw.shape
    cols = cols if type(weight) is Node else None  # only the weight gradient reads it

    def vjp(g, inputs, o):
        xx, xw, _ = inputs
        gx = _conv_input_grad(g, xw, x_shape, stride) if type(x) is Node else None
        gw = _conv_weight_grad(g, xx, w_shape, stride, cols) if type(weight) is Node else None
        gb = _conv_bias_grad(g, bias.shape) if type(bias) is Node else None
        return gx, gw, gb

    return Node(_tape_of(x, weight, bias), out, (x, weight, bias), vjp)


def _pool_scatter(g, idx, x_shape):
    """Adjoint of max pooling: each entry of ``g`` added into a zero array of
    ``x_shape`` at its flat index ``idx`` (one ``np.bincount``, which sums
    entries sharing an index in the row-major order of ``idx``)."""
    if type(g) is not Node:
        dx = np.bincount(idx.ravel(), weights=g.ravel(), minlength=math.prod(x_shape))
        return dx.reshape(x_shape)
    dx = _pool_scatter(g.value, idx, x_shape)
    return Node(g.tape, dx, (g,), lambda h, inputs, o: (_pool_gather(h, idx),))


def _pool_gather(h, idx):
    """The entries of ``h`` at the flat indices ``idx``: the adjoint of
    :func:`_pool_scatter`."""
    if type(h) is not Node:
        return h.reshape(-1)[idx]
    x_shape = h.value.shape
    out = h.value.reshape(-1)[idx]
    return Node(h.tape, out, (h,), lambda g, inputs, o: (_pool_scatter(g, idx, x_shape),))


def _window_starts(x_shape, out_hw, stride):
    """Flat index into an array of ``x_shape`` (..., h, w) of each pooling
    window's top-left entry, as an array (..., oh, ow)."""
    *lead, h, w = x_shape
    (in_image,) = _offset_views(np.arange(h * w).reshape(h, w), 1, 1, stride, out_hw)
    images = np.arange(0, math.prod(x_shape), h * w)
    # one row per image keeps the inner loop of the broadcast add oh·ow long
    return (images[:, None] + in_image.ravel()).reshape(tuple(lead) + out_hw)


def maxpool2d(x, window: int, stride: int | None = None):
    """Max pooling over (window, window) patches with the given stride.

    Stride defaults to the window size (non-overlapping pooling).  ``x`` is
    (batch, c, h, w), or (tasks, batch, c, h, w) with a leading task axis,
    and may carry one more leading axis: the two faces of a box.  The
    gradient goes to the first maximum of each window, in row-major order:
    a taped call records that entry's flat index into ``x`` for every
    window, so the vjp is one ``np.bincount`` of the output adjoint over
    those indices, and its own vjp one fancy index at them.  One index
    array serves every window, stride and leading axis.
    """
    if window <= 0:
        raise ValueError("pool window must be positive")
    stride = window if stride is None else stride
    if stride <= 0:
        raise ValueError("pool stride must be positive")
    vx = value_of(x)
    if vx.ndim not in (4, 5, 6):
        raise ValueError(
            f"maxpool2d expects (batch, c, h, w) with up to two leading axes, got {vx.shape}"
        )
    out_hw = _out_hw(*vx.shape[-2:], window, window, stride)
    first, *rest = _offset_views(vx, window, window, stride, out_hw)
    out = first.copy()
    # on a tie np.maximum returns its second operand, the earlier max
    if type(x) is not Node:
        for view in rest:
            np.maximum(view, out, out=out)
        return out
    # flat offset of each window entry from the window's top-left, row-major:
    # increasing, so the offset of the last strict maximum is the largest
    w = vx.shape[-1]
    offsets = [i * w + j for i in range(window) for j in range(window)]
    off_type = np.min_scalar_type(offsets[-1])
    off = np.zeros(out.shape, dtype=off_type)
    above = np.empty(out.shape, dtype=bool)
    for k, view in enumerate(rest, 1):
        np.greater(view, out, out=above)  # strict: ties keep the first max, as argmax does
        np.maximum(off, np.multiply(above, offsets[k], dtype=off_type), out=off)
        np.maximum(view, out, out=out)
    idx = _window_starts(vx.shape, out_hw, stride)
    idx += off
    x_shape = vx.shape

    def vjp(g, inputs, o):
        return (_pool_scatter(g, idx, x_shape),)

    return Node(x.tape, out, (x,), vjp)
