"""Composite training objective: neighborhood-preservation losses, dynamic
convex weighting, and the perturbation-radius ramp schedule.

The two bound losses measure, over the query instances only, the mean squared
Euclidean distance between an embedding and the lower/upper face of its
propagated box.  The total loss is a convex combination of classification and
bound losses; in dynamic mode the weights are a softmax over the three loss
values (temperature ``gamma``), recomputed every step and treated as
constants of the step, so no gradient flows through the weighting.
Odd-rank centers stack tasks (:func:`~fewshot_ibp.layers.has_task_axis`):
each loss then holds one value per task, with one weight triple per task.

Each bound loss is one tape node reading the box's stacked faces, and the
total is one ``tensor.weighted_sum`` node.  Their vjps are written with tape
operations, so they can be differentiated again.  A :class:`WeightTriple` is
checked to lie on the simplex when made, so the total trusts its triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import IntervalTensor
from .layers import has_task_axis
from .tensor import (
    Node,
    NonFiniteError,
    _tape_of,
    mul,
    neg,
    reshape,
    stack,
    sub,
    take,
    value_of,
    weighted_sum,
)


@dataclass
class LossTriple:
    """Classification, lower-bound, and upper-bound loss terms.

    Entries may be tape nodes during training; :meth:`values` extracts plain
    floats for logging and weight computation.
    """

    l_ce: object
    l_lb: object
    l_ub: object

    def values(self) -> tuple[float, float, float]:
        vals = tuple(float(value_of(x)) for x in (self.l_ce, self.l_lb, self.l_ub))
        if not all(math.isfinite(v) for v in vals):
            raise NonFiniteError(f"non-finite loss values {vals}")
        if vals[1] < 0 or vals[2] < 0:
            raise ValueError("bound losses must be non-negative")
        return vals

    def per_task(self, n_tasks: int) -> list["LossTriple"]:
        """Detached triples, one per task, of losses that hold one value per
        task; a plain number (an absent bound loss) counts for every task."""
        cols = [value_of(x) for x in (self.l_ce, self.l_lb, self.l_ub)]
        cols = [
            c.tolist() if isinstance(c, np.ndarray) and c.ndim else [float(c)] * n_tasks
            for c in cols
        ]
        return [LossTriple(*row) for row in zip(*cols, strict=True)]


@dataclass(frozen=True)
class WeightTriple:
    """Weights of the three losses, on the probability simplex (within
    1e-9): checked once, when the triple is made."""

    w_ce: float
    w_lb: float
    w_ub: float

    def __post_init__(self):
        t = self.as_tuple()
        if not (all(w >= -1e-9 for w in t) and abs(sum(t) - 1.0) <= 1e-9):
            raise ValueError(f"weights {t} are not on the probability simplex")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_ce, self.w_lb, self.w_ub)


def bound_losses(centers, box: IntervalTensor):
    """Mean squared distance from each embedding row to the box faces.

    ``centers`` has one row per query instance; ``box`` faces are aligned
    row-for-row.  These losses apply to query instances only; support
    instances never contribute.  Returns ``(l_lb, l_ub)``.  Centers of odd
    rank stack several tasks on their first axis, and each loss holds one
    value per task.  Each loss is one tape node, whose vjp
    ``2(c - f) * g / n`` (and its negation for the face) is written with
    tape operations, so it can be differentiated again.
    """
    shape = value_of(centers).shape
    faces = box.faces
    vf = value_of(faces)
    if vf.shape[1:] != shape:
        raise ValueError(f"box face shape {vf.shape[1:]} does not match centers {shape}")
    tasks = has_task_axis(centers)
    n = shape[int(tasks)]
    axes = tuple(range(1, len(shape))) if tasks else None
    g_shape = shape[:1] + (1,) * (len(shape) - 1) if tasks else ()

    def mean_sq_distance(i):
        d = np.subtract(value_of(centers), vf[i])
        out = np.add.reduce(d * d, axis=axes) * (1.0 / n)  # np.sum, without its wrapper
        tape = _tape_of(centers, faces)
        if tape is None:
            return out

        def vjp(g, inputs, o):
            c, f = inputs[0], take(inputs[1], i)
            gc = mul(sub(c, f), reshape(mul(g, 2.0 / n), g_shape))
            g_faces = None
            if isinstance(faces, Node):  # the other face gets zeros
                zeros = np.zeros(shape)
                g_faces = stack((neg(gc), zeros) if i == 0 else (zeros, neg(gc)))
            return (gc if isinstance(centers, Node) else None), g_faces

        return Node(tape, out, (centers, faces), vjp)

    return mean_sq_distance(0), mean_sq_distance(1)


def dynamic_weights(losses, gamma: float) -> WeightTriple:
    """Softmax across the three loss values with temperature ``gamma``.

    Larger losses receive larger weights, prioritizing whichever term
    currently dominates.  Computed with max-shift stabilization on detached
    loss values.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    vals = losses.values() if isinstance(losses, LossTriple) else tuple(losses)
    scaled = [v / gamma for v in vals]
    shift = max(scaled)
    e = [math.exp(s - shift) for s in scaled]
    z = sum(e)
    return WeightTriple(e[0] / z, e[1] / z, e[2] / z)


def total_loss(losses: LossTriple, weights):
    """Convex combination of the three losses; weights are step constants.

    Losses holding one value per task take one :class:`WeightTriple` per
    task, and the result holds each task's own combination.  One
    :func:`~fewshot_ibp.tensor.weighted_sum` node.
    """
    if isinstance(weights, WeightTriple):
        w = weights.as_tuple()
    else:
        w = np.array([t.as_tuple() for t in weights]).T
    return weighted_sum((losses.l_ce, losses.l_lb, losses.l_ub), w)


def epsilon_schedule(t: int, max_steps: int, eps: float) -> float:
    """Linear ramp from 0 to ``eps`` over the first 90% of training.

    After step ``ceil(0.9 * max_steps)`` the radius stays at ``eps``; the ramp
    is clamped so the value never exceeds ``eps``.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    if t < 0 or t > max_steps:
        raise ValueError(f"step {t} outside 0..{max_steps}")
    if not 0 <= eps < math.inf:  # NaN fails too
        raise ValueError(f"epsilon must be finite and non-negative, got {eps}")
    if t > math.ceil(0.9 * max_steps):
        return eps
    return min(t / (0.9 * max_steps), 1.0) * eps
