"""Adam parameter updates, one pass over every parameter entry at once."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tensor import NonFiniteError

# Adam's moment decay rates, and the stabilizer added to the second moment's root
BETA1, BETA2, STABILIZER = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adam's learning rate plus its running moments: first and second moments
    of every parameter entry as flat vectors (None before the first step) and
    a non-decreasing step counter used for bias correction."""

    lr: float
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")


def adam(lr: float) -> OptimizerState:
    return OptimizerState(lr)


def optimizer_step(params, grads, state: OptimizerState):
    """Apply one bias-corrected Adam update; returns (new_params, state).

    ``params`` and ``grads`` are aligned lists of arrays, updated as one vector
    (Adam is elementwise); the new parameters are read-only views of one fresh
    vector.  Raises on shape mismatches and non-finite gradients.
    """
    params, grads = list(params), list(grads)
    if len(params) != len(grads):
        raise ValueError(f"{len(grads)} gradients for {len(params)} parameters")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    g = np.concatenate([g.ravel() for g in grads] + [np.empty(0)])
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise NonFiniteError("non-finite gradient")
    p = np.concatenate([p.ravel() for p in params] + [np.empty(0)])

    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    if state.m.shape != p.shape:
        raise ValueError("optimizer state does not match parameter count")
    state.step += 1
    t = state.step
    state.m = BETA1 * state.m + (1.0 - BETA1) * g
    state.v = BETA2 * state.v + (1.0 - BETA2) * g * g
    m_hat = state.m / (1.0 - BETA1**t)
    v_hat = state.v / (1.0 - BETA2**t)
    new = p - state.lr * m_hat / (np.sqrt(v_hat) + STABILIZER)
    new.flags.writeable = False
    ends = itertools.accumulate(q.size for q in params)
    return [new[end - q.size : end].reshape(q.shape) for q, end in zip(params, ends)], state
