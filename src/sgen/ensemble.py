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

``MERGE_SITES`` is the one statement of what a merge site holds: per mode,
the checkpoint prefix of its convs and each conv's name and shape.
``sgen.model.generator_sites`` turns them into rows of the generator's
site table, the one place their weights are drawn, and ``merge`` takes
them as a name -> ConvParams dict.
The convs' own ops check their shapes: ``conv2d`` rejects a wrong input
width, and ``gated_sum`` any gate whose output differs from the inputs.
"""

from __future__ import annotations

from .autodiff import (
    Tensor,
    add,
    concat_channels,
    gated_sum,
    maximum,
    mul_const,
)
from .nn import ConvParams, conv2d

__all__ = ["sgu", "merge", "MERGE_SITES", "MERGE_MODES"]

# mode -> (checkpoint prefix, convs in draw order); each conv reads
# (input width in merged widths, kernel, init std, None for the He scale)
MERGE_SITES: dict[str, tuple[str, dict[str, tuple[int, int, float | None]]]] = {
    "sgu": ("sgu", {"gate_a": (1, 3, 0.0), "gate_p": (1, 3, 0.0)}),
    "max": ("merge", {}),
    "average": ("merge", {}),
    "concat": ("merge", {"proj": (2, 1, None)}),
}
MERGE_MODES = tuple(MERGE_SITES)


def sgu(active: Tensor, passive: Tensor, convs: dict[str, ConvParams]) -> Tensor:
    """Gated fusion of two same-shape feature maps; see module docstring."""
    gate_a = conv2d(active, convs["gate_a"], "sigmoid")
    gate_p = conv2d(active, convs["gate_p"], "sigmoid")
    return gated_sum(gate_a, active, gate_p, passive)


def merge(mode: str, new: Tensor, prev: Tensor, convs: dict[str, ConvParams] | None = None) -> Tensor:
    """Fuse the new feature with the ensemble so far.

    ``convs`` holds exactly the convs ``MERGE_SITES`` names for the mode
    ('sgu': gate_a and gate_p, 'concat': proj); 'max' and 'average' take none.
    """
    if mode not in MERGE_SITES:
        raise ValueError(f"merge: unknown mode {mode!r}; expected one of {MERGE_MODES}")
    convs = convs or {}
    if convs.keys() != MERGE_SITES[mode][1].keys():
        raise ValueError(
            f"merge: mode {mode!r} takes convs {sorted(MERGE_SITES[mode][1])}, got {sorted(convs)}"
        )
    if mode == "sgu":
        return sgu(new, prev, convs)
    if mode == "max":
        return maximum(new, prev)
    if mode == "average":
        return mul_const(add(new, prev), 0.5)
    return conv2d(concat_channels(new, prev), convs["proj"])
