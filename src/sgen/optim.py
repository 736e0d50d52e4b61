"""Adam with bias correction, operating on a flat parameter store.

Moments are kept per parameter name inside AdamState; the update is the
standard form

    m_hat = m / (1 - beta1^t),  v_hat = v / (1 - beta2^t)
    p    -= lr * m_hat / (sqrt(v_hat) + eps)

so the very first step with unit gradients moves each weight by almost
exactly lr.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ParamStore

__all__ = ["AdamState", "init_adam", "adam_step"]


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: ParamStore) -> AdamState:
    state = AdamState()
    for name, tensor in params.items():
        state.m[name] = np.zeros_like(tensor.data)
        state.v[name] = np.zeros_like(tensor.data)
    return state


def adam_step(params: ParamStore, state: AdamState, lr: float) -> None:
    """Apply one update in place from each tensor's grad buffer.

    A missing gradient is an error naming the parameter, catching
    forgotten backward passes early.
    """
    state.step += 1
    t = state.step
    corr1 = 1.0 - BETA1**t
    corr2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise ValueError(f"adam_step: missing gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(
                f"adam_step: gradient shape {g.shape} does not match parameter"
                f" {name!r} shape {p.data.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        # in place, one operation at a time in the formula's left-to-right
        # order, so every value is rounded as in lr * (m / corr1) / (sqrt(v /
        # corr2) + eps): the same bits with two arrays instead of nine
        scratch = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - BETA2
        v *= BETA2
        v += scratch
        np.divide(v, corr2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS  # the denominator
        step = np.divide(m, corr1)
        step *= lr
        step /= scratch
        p.data -= step
