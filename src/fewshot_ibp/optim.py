"""Adam parameter updates over flat lists of arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import NonFiniteError, as_tensor


@dataclass
class OptimizerState:
    """Adam's settings plus its running moments: first and second moments
    per parameter and a non-decreasing step counter used for bias correction.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    stabilizer: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")


def adam(lr: float, beta1: float = 0.9, beta2: float = 0.999, stabilizer: float = 1e-8) -> OptimizerState:
    return OptimizerState(lr, beta1=beta1, beta2=beta2, stabilizer=stabilizer)


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
        if not np.isfinite(g).all():
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
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        m_hat = state.m[i] / (1.0 - state.beta1**t)
        v_hat = state.v[i] / (1.0 - state.beta2**t)
        new_params.append(
            as_tensor(p - state.lr * m_hat / (np.sqrt(v_hat) + state.stabilizer))
        )
    return new_params, state
