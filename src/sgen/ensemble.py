"""Sequential gating unit and the baseline ensemble merges.

The SGU combines an active input (the fresh feature) with a passive input
(the accumulated ensemble): both gates are computed from the active input,

    f = sigmoid(conv_a(active)) * active + sigmoid(conv_p(active)) * passive

with two independent channel-preserving 3x3 convs, each applying its
sigmoid in the conv op itself.  The gating itself is one tape node,
``autodiff.gated_sum``, which keeps the gates and the inputs but neither
product; its numbers are those of two muls and an add, bit for bit.
Gates initialized to zero make this exactly the average of its inputs,
so training starts at the average-ensemble operating point.

``merge`` dispatches between sgu and the three baselines: elementwise max
(ties go to the active input), plain averaging, and channel concatenation
followed by a learned 1x1 projection back to the original width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat_channels,
    gated_sum,
    maximum,
    mul_const,
)
from .nn import ConvParams, conv2d, conv_params

__all__ = ["SguParams", "sgu", "merge", "sgu_params", "MERGE_MODES"]

MERGE_MODES = ("sgu", "max", "average", "concat")


@dataclass
class SguParams:
    """Two independent gate convolutions, both reading the active input."""

    gate_a: ConvParams  # gates the active input
    gate_p: ConvParams  # gates the passive input

    def __post_init__(self):
        for name, p in (("gate_a", self.gate_a), ("gate_p", self.gate_p)):
            if p.in_channels != p.out_channels:
                raise ValueError(
                    f"SguParams: {name} must preserve channels,"
                    f" got {p.in_channels} -> {p.out_channels}"
                )
            if p.stride != 1:
                raise ValueError(f"SguParams: {name} must have stride 1, got {p.stride}")
        if self.gate_a.weight is self.gate_p.weight:
            raise ValueError("SguParams: gate convs must not share weights")


def sgu_params(
    channels: int,
    rng: np.random.Generator,
    dtype=np.float32,
    weight_std: float = 0.0,
) -> SguParams:
    """Fresh gate convs; zero weights by default (average operating point)."""
    return SguParams(
        gate_a=conv_params(channels, channels, 1, rng, dtype=dtype, weight_std=weight_std),
        gate_p=conv_params(channels, channels, 1, rng, dtype=dtype, weight_std=weight_std),
    )


def sgu(active: Tensor, passive: Tensor, params: SguParams) -> Tensor:
    """Gated fusion of two same-shape feature maps; see module docstring."""
    if active.shape != passive.shape:
        raise ValueError(f"sgu: shape mismatch {active.shape} vs {passive.shape}")
    if active.shape[1] != params.gate_a.in_channels:
        raise ValueError(
            f"sgu: inputs have {active.shape[1]} channels,"
            f" gates expect {params.gate_a.in_channels}"
        )
    gate_a = conv2d(active, params.gate_a, "sigmoid")
    gate_p = conv2d(active, params.gate_p, "sigmoid")
    return gated_sum(gate_a, active, gate_p, passive)


def merge(mode: str, new: Tensor, prev: Tensor, params=None) -> Tensor:
    """Fuse the new feature with the ensemble so far.

    mode 'sgu' needs SguParams, 'concat' needs a 1x1 projection ConvParams
    mapping 2c -> c; 'max' and 'average' are parameter-free.
    """
    if mode == "sgu":
        if not isinstance(params, SguParams):
            raise ValueError("merge: mode 'sgu' requires SguParams")
        return sgu(new, prev, params)
    if mode == "max":
        return maximum(new, prev)
    if mode == "average":
        return mul_const(add(new, prev), 0.5)
    if mode == "concat":
        if not isinstance(params, ConvParams):
            raise ValueError("merge: mode 'concat' requires a projection ConvParams")
        c = new.shape[1]
        if params.in_channels != 2 * c or params.out_channels != c:
            raise ValueError(
                f"merge: concat projection must map {2 * c} -> {c} channels,"
                f" got {params.in_channels} -> {params.out_channels}"
            )
        return conv2d(concat_channels(new, prev), params)
    raise ValueError(f"merge: unknown mode {mode!r}; expected one of {MERGE_MODES}")
