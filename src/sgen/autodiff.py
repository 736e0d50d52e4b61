"""Dense 4-D tensors with tape-based reverse-mode differentiation.

Every value in the network is a (batch, channel, height, width) array of
float32 or float64.  Operations executed while a ``Tape`` is active append
their backward rules in execution order; ``backward`` replays the tape in
reverse and accumulates gradients into the leaves.  Running without an
active tape gives plain forward evaluation with no recording overhead,
which is what inference and finite-difference probes use.

Two precision paths are supported: float32 for training, float64 for
gradient checks.  Mixing them inside one graph is rejected.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "grad_check",
    "record",
    "add",
    "sub",
    "mul",
    "add_const",
    "mul_const",
    "const_minus",
    "relu",
    "lrelu",
    "sigmoid",
    "tanh",
    "log",
    "clamp",
    "sum_all",
    "mean_all",
    "concat_channels",
    "maximum",
]

_REAL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A dense 4-D (n, c, h, w) array plus an optional gradient buffer.

    Data is treated as fixed after construction; only ``grad`` mutates
    during backward passes.  Non-float input is converted to float32.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _REAL_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim != 4:
            raise ValueError(
                f"tensor data must be 4-D (n, c, h, w), got shape {arr.shape}"
            )
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A view of the same values, cut loose from any recorded graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"


class _Node:
    """One recorded operation: inputs, the produced tensor, a backward rule.

    ``backward`` maps the output adjoint to one gradient array (or None)
    per input, in input order.  The strong reference to ``output`` keeps
    id() values unique for the lifetime of the tape.
    """

    __slots__ = ("inputs", "output", "backward")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor, backward):
        self.inputs = inputs
        self.output = output
        self.backward = backward


_tls = threading.local()


def _active_tape():
    return getattr(_tls, "tape", None)


class Tape:
    """Records one forward pass.  Use as a context manager; one per thread."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a Tape is already active in this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)


def record(inputs: Sequence[Tensor], output: Tensor, backward_fn) -> Tensor:
    """Attach a backward rule to the active tape.

    No-op when no tape is active or no input requires grad, so forward
    evaluation outside a tape costs nothing extra.
    """
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        tape._nodes.append(_Node(tuple(inputs), output, backward_fn))
    return output


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's grad buffer.

    Walks the tape in reverse execution order, which is a valid reverse
    topological order because operations were recorded as they ran.
    Adjoints are computed fresh per call, so calling backward twice
    without zeroing grads accumulates twice.
    """
    if loss.shape != (1, 1, 1, 1):
        raise ValueError(f"backward: loss must have shape (1, 1, 1, 1), got {loss.shape}")
    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    produced = {id(node.output) for node in tape._nodes}
    for node in reversed(tape._nodes):
        out_adj = adjoints.pop(id(node.output), None)
        if out_adj is None:
            continue  # not on the path from loss
        holders.pop(id(node.output), None)
        for tensor, grad in zip(node.inputs, node.backward(out_adj)):
            if grad is None:
                continue
            key = id(tensor)
            if key in adjoints:
                adjoints[key] = adjoints[key] + grad
            else:
                adjoints[key] = grad
                holders[key] = tensor
    for key, adj in adjoints.items():
        tensor = holders[key]
        if tensor.requires_grad and key not in produced:
            tensor.grad = adj.copy() if tensor.grad is None else tensor.grad + adj


# ---------------------------------------------------------------------------
# shape / domain guards

def _check_binary(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise ValueError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def _require_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op}: input contains non-finite values")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "add")
    out = Tensor(a.data + b.data)
    return record((a, b), out, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "sub")
    out = Tensor(a.data - b.data)
    return record((a, b), out, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_binary(a, b, "mul")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data
    return record((a, b), out, lambda g: (g * bd, g * ad))


def add_const(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data + x.dtype.type(c))
    return record((x,), out, lambda g: (g,))


def mul_const(x: Tensor, c: float) -> Tensor:
    c = x.dtype.type(c)
    out = Tensor(x.data * c)
    return record((x,), out, lambda g: (g * c,))


def const_minus(c: float, x: Tensor) -> Tensor:
    """c - x with c a plain scalar."""
    out = Tensor(x.dtype.type(c) - x.data)
    return record((x,), out, lambda g: (-g,))


# ---------------------------------------------------------------------------
# activations

def relu(x: Tensor) -> Tensor:
    _require_finite(x.data, "relu")
    xd = x.data
    out = Tensor(np.maximum(xd, 0))
    return record((x,), out, lambda g: (g * (xd > 0),))


def lrelu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"lrelu: slope must lie in (0, 1), got {slope}")
    _require_finite(x.data, "lrelu")
    xd = x.data
    deriv = np.array([slope, 1.0], dtype=x.dtype)  # for x <= 0 and x > 0
    # with 0 < slope < 1, max(x, slope * x) is x where x > 0, else slope * x
    out = Tensor(np.maximum(xd, xd * deriv[0]))
    # derivative at exactly 0 is defined as slope
    return record((x,), out, lambda g: (g * deriv.take((xd > 0).view(np.uint8)),))


def sigmoid(x: Tensor) -> Tensor:
    _require_finite(x.data, "sigmoid")
    xd = x.data
    # exp(-|x|) cannot overflow: y = 1 / (1 + e) for x >= 0, else e / (1 + e)
    e = np.exp(-np.abs(xd))
    y = np.maximum(e, xd >= 0) / (1.0 + e)
    out = Tensor(y)
    return record((x,), out, lambda g: (g * y * (1.0 - y),))


def tanh(x: Tensor) -> Tensor:
    _require_finite(x.data, "tanh")
    y = np.tanh(x.data)
    out = Tensor(y)
    return record((x,), out, lambda g: (g * (1.0 - y * y),))


def log(x: Tensor) -> Tensor:
    if (x.data <= 0).any():
        raise ValueError("log: input must be strictly positive")
    out = Tensor(np.log(x.data))
    xd = x.data
    return record((x,), out, lambda g: (g / xd,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes through only where x was inside."""
    if not lo < hi:
        raise ValueError(f"clamp: need lo < hi, got [{lo}, {hi}]")
    xd = x.data
    out = Tensor(np.clip(xd, lo, hi))
    return record((x,), out, lambda g: (g * ((xd >= lo) & (xd <= hi)),))


# ---------------------------------------------------------------------------
# reductions and structure

def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum().reshape(1, 1, 1, 1))
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        return (np.full(shape, g.reshape(()), dtype=dtype),)

    return record((x,), out, bwd)


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.mean().reshape(1, 1, 1, 1))
    shape, dtype = x.shape, x.dtype
    inv = 1.0 / x.data.size

    def bwd(g):
        return (np.full(shape, g.reshape(()) * inv, dtype=dtype),)

    return record((x,), out, bwd)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ValueError(f"concat_channels: shape mismatch {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise ValueError(f"concat_channels: dtype mismatch {a.dtype} vs {b.dtype}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))

    def bwd(g):
        ga = g[:, :ca] if a.requires_grad else None
        gb = g[:, ca:] if b.requires_grad else None
        return ga, gb

    return record((a, b), out, bwd)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first argument."""
    _check_binary(a, b, "maximum")
    take_a = a.data >= b.data
    out = Tensor(np.where(take_a, a.data, b.data))

    def bwd(g):
        ga = g * take_a if a.requires_grad else None
        gb = g * ~take_a if b.requires_grad else None
        return ga, gb

    return record((a, b), out, bwd)


# ---------------------------------------------------------------------------
# finite-difference checking

def _eval_scalar(build: Callable[[Tensor], Tensor], t: Tensor) -> np.ndarray:
    out = build(t)
    if not isinstance(out, Tensor) or out.shape != (1, 1, 1, 1):
        raise ValueError("grad_check: build must return a scalar (1, 1, 1, 1) tensor")
    return out.data


def grad_check(build: Callable[[Tensor], Tensor], x: Tensor, eps: float) -> float:
    """Max relative error between taped and central-difference gradients.

    ``build`` maps a tensor to a scalar loss and must be deterministic;
    two probe evaluations are compared bitwise to enforce that.  The
    relative error per element is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8).
    """
    if eps <= 0:
        raise ValueError(f"grad_check: eps must be positive, got {eps}")
    if _active_tape() is not None:
        raise RuntimeError("grad_check must run outside an active Tape")
    probe1 = _eval_scalar(build, Tensor(x.data.copy()))
    probe2 = _eval_scalar(build, Tensor(x.data.copy()))
    if probe1.tobytes() != probe2.tobytes():
        raise ValueError("grad_check: build is not deterministic (forward passes disagree)")

    seed = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        loss = build(seed)
        if loss.shape != (1, 1, 1, 1):
            raise ValueError("grad_check: build must return a scalar loss")
    backward(tape, loss)
    analytic = seed.grad if seed.grad is not None else np.zeros_like(x.data)
    analytic = analytic.reshape(-1)

    base = x.data.copy()
    flat = base.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = float(_eval_scalar(build, Tensor(base.copy())).reshape(()))
        flat[i] = orig - eps
        lm = float(_eval_scalar(build, Tensor(base.copy())).reshape(()))
        flat[i] = orig
        numeric = (lp - lm) / (2.0 * eps)
        a = float(analytic[i])
        denom = max(abs(a), abs(numeric), 1e-8)
        err = abs(a - numeric) / denom
        if err > worst:
            worst = err
    return worst
