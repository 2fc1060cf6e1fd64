"""Adam parameter updates over flat lists of arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import NonFiniteError, as_tensor

# Adam's moment decay rates, and the stabilizer added to the second moment's root
BETA1, BETA2, STABILIZER = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adam's learning rate plus its running moments: first and second moments
    per parameter and a non-decreasing step counter used for bias correction.
    """

    lr: float
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")


def adam(lr: float) -> OptimizerState:
    return OptimizerState(lr)


def optimizer_step(params, grads, state: OptimizerState):
    """Apply one bias-corrected Adam update; returns (new_params, state).

    ``params`` and ``grads`` are aligned lists of arrays.  Raises on shape
    mismatches and non-finite gradients.
    """
    params = list(params)
    grads = list(grads)
    if len(params) != len(grads):
        raise ValueError(f"{len(grads)} gradients for {len(params)} parameters")
    for p, g in zip(params, grads):
        if np.shape(p) != np.shape(g):
            raise ValueError(f"gradient shape {np.shape(g)} != parameter shape {np.shape(p)}")
        if not np.logical_and.reduce(np.isfinite(g), axis=None):
            raise NonFiniteError("non-finite gradient")

    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    if len(state.m) != len(params):
        raise ValueError("optimizer state does not match parameter count")
    state.step += 1
    t = state.step
    new_params = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        m_hat = state.m[i] / (1.0 - BETA1**t)
        v_hat = state.v[i] / (1.0 - BETA2**t)
        new_params.append(as_tensor(p - state.lr * m_hat / (np.sqrt(v_hat) + STABILIZER)))
    return new_params, state
