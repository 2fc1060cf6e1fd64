"""Artificial-task construction by interpolating toward propagated bounds.

For each class k of a task, a coefficient pair is drawn: a mixing weight
``lam_k ~ Beta(alpha, beta)`` and a fair coin ``nu_k`` choosing the lower or
upper face.  Every instance of class k is then replaced by the convex
combination ``(1 - lam_k) * embedding + lam_k * face`` of its own embedding
and the chosen face of its own box, so interpolated instances always stay
inside their boxes.  Labels are unchanged.  The interpolation of one set is
one tape node (:func:`interpolate_batch`), which reads the box's stacked
faces.  Two plain mixup variants (at the
input or at the embedding layer) pair two tasks position-by-position and are
kept as ablation baselines.

All four modes are one task-interpolation operator,
:func:`make_interpolated_task`, the only code that branches on the mode: it
maps one set of a task to the input of the classifier head, and both
learners run the head on its result.  An odd-rank input is a stack of tasks
on a leading task axis (:func:`~fewshot_ibp.layers.has_task_axis`), with one
row of coefficients per task; a task whose weights are all zero gets its own
embeddings back bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundResult, IntervalTensor, propagate_prefix
from .layers import Network, forward
from .tensor import Node, _tape_of, mul, value_of, weighted_sum


MODES = ("ibpi", "ibpi_no_bound_loss", "mixup_input", "mixup_embedding")
# the modes that interpolate toward propagated boxes
BOUND_MODES = MODES[:2]


@dataclass(frozen=True)
class MixCoefficients:
    """Per-class mixing weights ``lam`` in [0,1] and face choices ``nu`` in
    {0,1}: shape (ways,), or (tasks, ways) for a stack of tasks."""

    lam: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        lam, nu = np.asarray(self.lam), np.asarray(self.nu)
        if not ((lam >= 0) & (lam <= 1)).all():  # NaN fails too
            raise ValueError("mixing weights must lie in [0, 1]")
        if not ((nu == 0) | (nu == 1)).all():
            raise ValueError("face choices must be 0 or 1")

    def rows(self, labels) -> tuple:
        """Each row's ``lam``, ``1 - lam`` and face weights ``(1 - nu, nu)``
        in a set labelled ``labels``; labels (tasks, n) pick task by task."""
        labels = np.asarray(labels)
        lam, nu = (np.take_along_axis(np.asarray(c), labels, axis=-1) for c in (self.lam, self.nu))
        lam, nu = lam.astype(np.float64), nu.astype(np.float64)
        return lam, 1.0 - lam, np.array((1.0 - nu, nu))


def sample_mix(n_classes: int, alpha: float, beta: float, rng) -> MixCoefficients:
    """Independent Beta(alpha, beta) weight and fair face choice per class."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0 < value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite, got {value}")
    lam = rng.beta(alpha, beta, size=n_classes)
    nu = rng.integers(0, 2, size=n_classes)
    return MixCoefficients(lam, nu)


def _rows(coeffs, labels, reference) -> list:
    """Row weights of per-class ``coeffs``, or given rows, laid out over ``reference``."""
    rows = coeffs.rows(labels) if isinstance(coeffs, MixCoefficients) else coeffs
    trail = (1,) * (value_of(reference).ndim - rows[0].ndim)
    return [a.reshape(a.shape + trail) for a in rows]


def interpolate_batch(centers, box: IntervalTensor, labels, coeffs):
    """Apply per-class coefficients row-wise over a labeled batch.

    One tape node over the centers and the box's stacked faces.  Its vjp,
    written with tape operations, scales the output adjoint by each row's
    weights: the centers' by ``1 - lam``, each face's by ``lam`` times that
    face's choice weight.
    """
    lam, stay, face_weights = _rows(coeffs, labels, centers)
    keep, nu = face_weights
    faces = box.faces
    vf = value_of(faces)
    face = np.add(np.multiply(vf[0], keep), np.multiply(vf[1], nu))
    out = np.add(np.multiply(value_of(centers), stay), np.multiply(face, lam))
    tape = _tape_of(centers, faces)
    if tape is None:
        return out

    def vjp(g, inputs, o):
        g_centers = mul(g, stay) if isinstance(centers, Node) else None
        g_faces = mul(mul(g, lam), face_weights) if isinstance(faces, Node) else None
        return g_centers, g_faces

    return Node(tape, out, (centers, faces), vjp)


def mix_batch(first, second, labels, coeffs):
    """Per-class convex combination of two aligned batches: one ``weighted_sum`` node."""
    if value_of(first).shape != value_of(second).shape:
        raise ValueError("mixed batches must have identical shapes")
    lam, stay, _ = _rows(coeffs, labels, first)
    return weighted_sum((first, second), (stay, lam))


def make_interpolated_task(
    mode: str,
    network: Network,
    x,
    y,
    coeffs: MixCoefficients,
    params,
    eps: float,
    bounds: BoundResult | None = None,
    pair_x=None,
):
    """Classifier-head input of one set (support or query) of an artificial task.

    ``x`` and ``y`` are the set's instances and local labels, ``coeffs`` its
    per-class coefficients, and ``params`` the prefix parameters (tape nodes,
    or None for the stored arrays).  The bound modes interpolate every prefix
    embedding toward a face of its box: ``bounds``, when the caller has
    already propagated the set, otherwise a box propagated here at ``eps``.
    ``mixup_input`` embeds the mix of ``x`` with the aligned batch ``pair_x``;
    ``mixup_embedding`` mixes the embeddings of the two batches.  When ``x``
    stacks the sets of several tasks on a leading axis, ``y`` and ``coeffs``
    hold one row per task.  ``coeffs`` may also be the set's row weights
    (:meth:`MixCoefficients.rows`).
    """
    if mode in BOUND_MODES:
        if bounds is None:
            bounds = propagate_prefix(network, x, eps, params=params)
        return interpolate_batch(bounds.center, bounds.box, y, coeffs)
    if mode not in MODES:
        raise ValueError(f"unknown interpolation mode {mode!r}")
    if pair_x is None:
        raise ValueError(f"mode {mode!r} requires a second batch to mix with")

    def embed(batch):
        return forward(network.prefix, batch, params=params)

    if mode == "mixup_input":
        return embed(mix_batch(x, pair_x, y, coeffs))
    return mix_batch(embed(x), embed(pair_x), y, coeffs)


def should_interpolate(learner: str, batch_size: int, rng, probability: float | None = None):
    """Boolean mask over batch positions marking where interpolation fires.

    The meta-learner interpolates exactly one uniformly chosen task per batch;
    the prototype learner (batch size 1) interpolates with probability 0.25
    per step.  ``probability`` overrides the firing rate; 0 disables.
    """
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    if probability is not None and not 0 <= probability <= 1:  # NaN fails too
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    mask = np.zeros(batch_size, dtype=bool)
    if learner == "maml":
        p = 1.0 if probability is None else probability
        if p > 0 and rng.uniform() < p:
            mask[rng.integers(0, batch_size)] = True
    elif learner == "protonet":
        p = 0.25 if probability is None else probability
        mask[:] = rng.uniform(size=batch_size) < p
    else:
        raise ValueError(f"unknown learner {learner!r}")
    return mask
