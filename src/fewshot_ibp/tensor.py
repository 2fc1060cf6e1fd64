"""Dense float64 tensors and a reverse-mode differentiation tape.

All numeric values in this package are 64-bit float numpy arrays created
through :func:`as_tensor`, which validates finiteness and freezes the buffer.
Differentiable computations happen on a :class:`Tape`: operations accept a mix
of plain arrays (constants) and :class:`Node` handles, and return a ``Node``
whenever a node participates.  The backward pass expresses adjoints with the
same operation set, so gradients are themselves tape nodes and can be
differentiated again (used for exact second-order meta-updates on networks
whose layers are all graph-safe).

``matmul``, ``transpose``, ``conv2d`` and ``maxpool2d`` accept a leading
task axis: a stack of T independent problems, each with its own operands or
sharing a weight, evaluated in one call.

Every node points at its tape and the tape lists every node, so a tape is a
reference cycle.  :meth:`Tape.release` (or leaving a ``with Tape()`` block)
breaks it, so the graph is freed at once instead of by the cyclic collector.
"""

from __future__ import annotations

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
    "log",
    "sqrt",
    "sum_",
    "mean_",
    "conv2d",
    "maxpool2d",
]


class NonFiniteError(ValueError):
    """A tensor contains NaN or Inf, which violates the numeric contract."""


def as_tensor(values, shape=None) -> np.ndarray:
    """Copy ``values`` into an immutable, C-contiguous float64 array.

    Raises:
        NonFiniteError: if any entry is NaN or infinite.
        ValueError: if ``shape`` is given and the element count mismatches.
    """
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if shape is not None:
        if arr.size != int(np.prod(shape)):
            raise ValueError(
                f"data length {arr.size} does not match shape {tuple(shape)}"
            )
        arr = arr.reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("tensor contains non-finite values")
    arr.flags.writeable = False
    return arr


def value_of(x):
    """Underlying ndarray of a node, or ``x`` itself if already plain data."""
    return x.value if isinstance(x, Node) else x


def check_finite(x, context: str = "tensor") -> None:
    if not np.all(np.isfinite(value_of(x))):
        raise NonFiniteError(f"non-finite values in {context}")


class Node:
    """One recorded value on a tape.

    ``parents`` lists the node operands; ``vjp(g, inputs, out)`` maps the
    output adjoint to one adjoint per parent.  ``inputs`` and ``out`` are the
    parent nodes and the node itself when the backward pass builds a graph,
    or their raw values otherwise, so a single vjp body serves both modes.
    Nodes whose vjp falls back to raw numpy are marked ``graph_safe=False``
    and reject graph-building backward passes.
    """

    __slots__ = ("tape", "value", "parents", "vjp", "graph_safe")

    # make ndarray <op> Node defer to the reflected Node operators
    __array_ufunc__ = None

    def __init__(self, tape, value, parents=(), vjp=None, graph_safe=True):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.graph_safe = graph_safe
        tape._nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


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

        Nodes still held elsewhere stay valid as values, but the tape must
        not be used for another backward pass.
        """
        self._nodes.clear()

    def leaf(self, value) -> Node:
        """Record an independent variable (typically a parameter)."""
        return Node(self, np.asarray(value, dtype=np.float64))

    def backward(self, loss: Node, params, build_graph: bool = False):
        """Reverse-mode gradients of a scalar ``loss`` for each of ``params``.

        Walks the recorded nodes once in reverse order, which is a reverse
        topological order because recording order is execution order.  With
        ``build_graph=True`` the adjoints are created as tape nodes (enabling
        differentiation through the gradients); every node on the path must
        then be graph-safe.  Returns ``{param: gradient}``; parameters that do
        not reach the loss get zero gradients.
        """
        if not isinstance(loss, Node) or loss.tape is not self:
            raise ValueError("loss must be a node recorded on this tape")
        if np.size(loss.value) != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        params = list(params)
        for p in params:
            if not isinstance(p, Node) or p.tape is not self:
                raise ValueError("every parameter must be a node on this tape")

        adjoints: dict[int, object] = {id(loss): np.ones_like(loss.value)}
        order = list(self._nodes)  # snapshot: graph mode appends while walking
        for node in reversed(order):
            if node.vjp is None:
                continue  # leaves keep their accumulated adjoints
            g = adjoints.pop(id(node), None)
            if g is None:
                continue
            if build_graph and not node.graph_safe:
                raise ValueError(
                    "operation does not support differentiation through its "
                    "gradient (graph-unsafe node on the backward path)"
                )
            if build_graph:
                inputs, out = node.parents, node
            else:
                inputs, out = tuple(p.value for p in node.parents), node.value
            for parent, pg in zip(node.parents, node.vjp(g, inputs, out)):
                if pg is None:
                    continue
                acc = adjoints.get(id(parent))
                adjoints[id(parent)] = pg if acc is None else add(acc, pg)

        result = {}
        for p in params:
            g = adjoints.get(id(p))
            if g is None:
                g = np.zeros_like(p.value)
                if build_graph:
                    g = Node(self, g)
            result[id(p)] = g
        return {p: result[id(p)] for p in params}


def _tape_of(*operands):
    tape = None
    for x in operands:
        if isinstance(x, Node):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise ValueError("operands recorded on different tapes")
    return tape


def _node_only(pairs):
    """Keep gradients for node operands, aligned with Node.parents order."""
    return tuple(g for g, op in pairs if isinstance(op, Node))


def _shape_of(x):
    return np.shape(value_of(x))


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    shape = tuple(shape)
    if _shape_of(g) == shape:
        return g
    while len(_shape_of(g)) > len(shape):
        g = sum_(g, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and _shape_of(g)[axis] != 1:
            g = sum_(g, axis=axis, keepdims=True)
    return g


def add(a, b):
    tape = _tape_of(a, b)
    out = np.add(value_of(a), value_of(b))
    if tape is None:
        return out
    sa, sb = _shape_of(a), _shape_of(b)

    def vjp(g, inputs, o):
        return _node_only(((_unbroadcast(g, sa), a), (_unbroadcast(g, sb), b)))

    return Node(tape, out, _node_only(((a, a), (b, b))), vjp)


def sub(a, b):
    return add(a, neg(b))


def neg(a):
    tape = _tape_of(a)
    out = np.negative(value_of(a))
    if tape is None:
        return out
    return Node(tape, out, (a,), lambda g, inputs, o: (neg(g),))


def mul(a, b):
    tape = _tape_of(a, b)
    out = np.multiply(value_of(a), value_of(b))
    if tape is None:
        return out
    sa, sb = _shape_of(a), _shape_of(b)

    def vjp(g, inputs, o):
        ops = iter(inputs)
        xa = next(ops) if isinstance(a, Node) else a
        xb = next(ops) if isinstance(b, Node) else b
        ga = _unbroadcast(mul(g, xb), sa) if isinstance(a, Node) else None
        gb = _unbroadcast(mul(g, xa), sb) if isinstance(b, Node) else None
        return _node_only(((ga, a), (gb, b)))

    return Node(tape, out, _node_only(((a, a), (b, b))), vjp)


def div(a, b):
    tape = _tape_of(a, b)
    out = np.divide(value_of(a), value_of(b))
    if tape is None:
        return out
    sa, sb = _shape_of(a), _shape_of(b)

    def vjp(g, inputs, o):
        ops = iter(inputs)
        xa = next(ops) if isinstance(a, Node) else a
        xb = next(ops) if isinstance(b, Node) else b
        ga = _unbroadcast(div(g, xb), sa) if isinstance(a, Node) else None
        gb = (
            _unbroadcast(neg(div(mul(g, xa), mul(xb, xb))), sb)
            if isinstance(b, Node)
            else None
        )
        return _node_only(((ga, a), (gb, b)))

    return Node(tape, out, _node_only(((a, a), (b, b))), vjp)


def matmul(a, b):
    """Matrix product over the last two axes, broadcast over leading axes.

    An operand without the leading axes of the other (a weight shared by
    every task) receives the sum of the per-task gradients.
    """
    tape = _tape_of(a, b)
    out = value_of(a) @ value_of(b)
    if tape is None:
        return out

    def vjp(g, inputs, o):
        ops = iter(inputs)
        xa = next(ops) if isinstance(a, Node) else a
        xb = next(ops) if isinstance(b, Node) else b
        ga = matmul(g, transpose(xb)) if isinstance(a, Node) else None
        gb = matmul(transpose(xa), g) if isinstance(b, Node) else None
        if np.ndim(value_of(g)) > 2:
            ga = None if ga is None else _unbroadcast(ga, _shape_of(xa))
            gb = None if gb is None else _unbroadcast(gb, _shape_of(xb))
        return _node_only(((ga, a), (gb, b)))

    return Node(tape, out, _node_only(((a, a), (b, b))), vjp)


def transpose(a):
    """Swap the last two axes; leading (task) axes stay in place."""
    tape = _tape_of(a)
    out = value_of(a).swapaxes(-1, -2)
    if tape is None:
        return out
    return Node(tape, out, (a,), lambda g, inputs, o: (transpose(g),))


def reshape(a, shape):
    tape = _tape_of(a)
    va = value_of(a)
    out = va.reshape(shape)
    if tape is None:
        return out
    orig = va.shape
    return Node(tape, out, (a,), lambda g, inputs, o: (reshape(g, orig),))


def relu(a):
    tape = _tape_of(a)
    va = value_of(a)
    out = np.maximum(va, 0.0)
    if tape is None:
        return out
    mask = (va > 0.0).astype(np.float64)
    return Node(tape, out, (a,), lambda g, inputs, o: (mul(g, mask),))


def abs_(a):
    tape = _tape_of(a)
    va = value_of(a)
    out = np.abs(va)
    if tape is None:
        return out
    sign = np.sign(va)
    return Node(tape, out, (a,), lambda g, inputs, o: (mul(g, sign),))


def exp(a):
    tape = _tape_of(a)
    out = np.exp(value_of(a))
    if tape is None:
        return out
    return Node(tape, out, (a,), lambda g, inputs, o: (mul(g, o),))


def log(a):
    tape = _tape_of(a)
    out = np.log(value_of(a))
    if tape is None:
        return out
    return Node(tape, out, (a,), lambda g, inputs, o: (div(g, inputs[0]),))


def sqrt(a):
    tape = _tape_of(a)
    out = np.sqrt(value_of(a))
    if tape is None:
        return out
    return Node(tape, out, (a,), lambda g, inputs, o: (div(mul(g, 0.5), o),))


def sum_(a, axis=None, keepdims=False):
    tape = _tape_of(a)
    va = value_of(a)
    out = np.sum(va, axis=axis, keepdims=keepdims)
    if tape is None:
        return out
    shape = va.shape

    def vjp(g, inputs, o):
        if axis is not None and not keepdims:
            kept = list(_shape_of(g))
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            for ax in sorted(ax % len(shape) for ax in axes):
                kept.insert(ax, 1)
            g = reshape(g, tuple(kept))
        return (mul(g, np.ones(shape)),)

    return Node(tape, out, (a,), vjp)


def mean_(a, axis=None, keepdims=False):
    va = value_of(a)
    if axis is None:
        n = va.size
    else:
        axes = (axis,) if np.isscalar(axis) else tuple(axis)
        n = int(np.prod([va.shape[ax] for ax in axes]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


# ---------------------------------------------------------------------------
# Spatial operations.  Backward passes are plain numpy (im2col based); their
# vjps return raw arrays, so these nodes are graph-unsafe: first-order
# gradients are exact, but gradients of gradients are not available.
# ---------------------------------------------------------------------------


def _window_view(x, kh, kw, stride):
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"window {kh}x{kw} too large for input {h}x{w}")
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    return view, oh, ow


def conv2d(x, weight, bias, stride: int = 1):
    """2-D cross correlation with no padding.

    ``x`` is (batch, in_c, h, w); ``weight`` is (out_c, in_c, kh, kw);
    ``bias`` is (out_c,).  Output is (batch, out_c, oh, ow).  With a leading
    task axis ``x`` is (tasks, batch, in_c, h, w), the output gains the same
    axis, and ``weight``/``bias`` are shared or stacked per task as
    (tasks, out_c, in_c, kh, kw) / (tasks, out_c).
    """
    if stride <= 0:
        raise ValueError("conv stride must be positive")
    tape = _tape_of(x, weight, bias)
    vx, vw, vb = value_of(x), value_of(weight), value_of(bias)
    out_c, in_c, kh, kw = vw.shape[-4:]
    lead = vx.shape[:-4]
    if (
        vx.ndim not in (4, 5)
        or vx.shape[-3] != in_c
        or vw.shape[:-4] not in ((), lead)
        or vb.shape != vw.shape[:-3]
    ):
        raise ValueError(
            f"conv2d input shape {vx.shape} incompatible with kernel {vw.shape} "
            f"and bias {vb.shape}"
        )
    n = vx.shape[-4]
    windows, oh, ow = _window_view(vx.reshape((-1,) + vx.shape[-3:]), kh, kw, stride)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(lead + (n, oh, ow, -1))
    w_mat = vw.reshape(vw.shape[:-3] + (-1,))
    out = np.einsum("...nijk,...ok->...noij", cols, w_mat) + vb.reshape(
        vb.shape[:-1] + (1, out_c, 1, 1)
    )
    if tape is None:
        return out

    x_shape = vx.shape

    def vjp(g, inputs, o):
        g = value_of(g)
        g_mat = np.moveaxis(g, -3, -1).reshape(lead + (-1, out_c))
        grads = []
        if isinstance(x, Node):
            dcols = (g_mat @ w_mat).reshape(lead + (n, oh, ow, in_c, kh, kw))
            dx = np.zeros(x_shape)
            for i in range(oh):
                for j in range(ow):
                    dx[..., i * stride : i * stride + kh, j * stride : j * stride + kw] += dcols[..., i, j, :, :, :]
            grads.append(dx)
        if isinstance(weight, Node):
            gw = np.swapaxes(g_mat, -1, -2) @ cols.reshape(lead + (-1, cols.shape[-1]))
            grads.append(_unbroadcast(gw, w_mat.shape).reshape(vw.shape))
        if isinstance(bias, Node):
            grads.append(_unbroadcast(g.sum(axis=(-4, -2, -1)), vb.shape))
        return tuple(grads)

    parents = tuple(p for p in (x, weight, bias) if isinstance(p, Node))
    return Node(tape, out, parents, vjp, graph_safe=False)


def maxpool2d(x, window: int, stride: int | None = None):
    """Max pooling over (window, window) patches with the given stride.

    Stride defaults to the window size (non-overlapping pooling).  ``x`` is
    (batch, c, h, w), or (tasks, batch, c, h, w) with a leading task axis.
    """
    if window <= 0:
        raise ValueError("pool window must be positive")
    stride = window if stride is None else stride
    if stride <= 0:
        raise ValueError("pool stride must be positive")
    tape = _tape_of(x)
    vx = value_of(x)
    if vx.ndim not in (4, 5):
        raise ValueError(
            f"maxpool2d expects (batch, c, h, w) or (tasks, batch, c, h, w), got {vx.shape}"
        )
    flat_x = vx.reshape((-1,) + vx.shape[-3:])
    windows, oh, ow = _window_view(flat_x, window, window, stride)
    n, c = flat_x.shape[:2]
    flat = windows.reshape(n, c, oh, ow, -1)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    out = out.reshape(vx.shape[:-2] + (oh, ow))
    if tape is None:
        return out

    def vjp(g, inputs, o):
        g = value_of(g).reshape(arg.shape)
        dx = np.zeros_like(flat_x)
        ki, kj = np.unravel_index(arg, (window, window))
        b_idx, c_idx, i_idx, j_idx = np.indices(arg.shape)
        np.add.at(dx, (b_idx, c_idx, i_idx * stride + ki, j_idx * stride + kj), g)
        return (dx.reshape(vx.shape),)

    return Node(tape, out, (x,), vjp, graph_safe=False)
