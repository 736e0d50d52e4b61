"""Dense 4-D tensors with tape-based reverse-mode differentiation.

Every value in the network is a (batch, channel, height, width) array of
float32 or float64.  Operations executed while a ``Tape`` is active append
their backward rules in execution order; ``backward`` consumes the tape in
reverse, freeing each node as it runs, and accumulates gradients into the
leaves.  A consumed tape cannot be replayed or re-entered.  Running without
an active tape gives plain forward evaluation with no recording overhead,
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
    "activation",
    "LRELU_SLOPE",
    "add",
    "sub",
    "mul",
    "gated_sum",
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

    Ops never write their inputs' data, and a backward pass writes only
    ``grad``.  Between steps, however, ``adam_step`` updates every
    parameter's ``data`` in place, so nothing may cache values derived from
    a parameter's data across optimizer steps; that is why the conv kernels
    relay out their weight on every call.  Non-float input is converted to
    float32.
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
    per input, in input order.  Adjoints are keyed by id(): the strong
    reference to ``output`` keeps a node's key unique until the node runs,
    and each adjoint entry holds its tensor until it is popped, so a tensor
    freed once its node ran cannot lend its id to a live key.
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
    """Records one forward pass.  Use as a context manager; one per thread.

    ``backward`` consumes the tape: afterwards it holds no node, reads
    length 0, and both another ``backward`` and re-entering it raise.
    """

    def __init__(self):
        self._nodes: list[_Node] | None = []  # None once consumed

    def __enter__(self) -> "Tape":
        if self._nodes is None:
            raise RuntimeError("this Tape was consumed by backward")
        if _active_tape() is not None:
            raise RuntimeError("a Tape is already active in this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
        return False

    def __len__(self) -> int:
        return 0 if self._nodes is None else len(self._nodes)


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

    Consumes the tape in reverse execution order, which is a valid reverse
    topological order because operations were recorded as they ran.  Each
    node is popped before its rule runs, and nothing here refers to it, its
    inputs or its output by the time the next rule runs, so the arrays a
    rule captured are freed as the pass goes.  A second call on the same
    tape raises, and so does a call inside the tape's own ``with`` block;
    calling backward on two tapes of the same graph without zeroing grads
    accumulates twice.
    """
    if loss.shape != (1, 1, 1, 1):
        raise ValueError(f"backward: loss must have shape (1, 1, 1, 1), got {loss.shape}")
    if _active_tape() is tape:
        raise RuntimeError("backward: the Tape is still recording; call backward after its with block")
    nodes, tape._nodes = tape._nodes, None
    if nodes is None:
        raise RuntimeError("backward: this Tape was already consumed by an earlier backward")
    adjoints: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones_like(loss.data))}
    while nodes:
        node = nodes.pop()
        key = id(node.output)
        if key not in adjoints:
            continue  # not on the path from loss
        inputs, rule = node.inputs, node.backward
        del node  # the rule's closure is now the only owner of what it captured
        # the adjoint is popped into the call and nothing else here refers to
        # it, so a rule that maps it first (a fused activation) frees it
        # before its heavy work
        _accumulate(adjoints, inputs, rule(adjoints.pop(key)[1]))
    # every node's output adjoint was popped when the node ran, since all its
    # consumers were recorded after it: only leaves hold an adjoint here
    for tensor, adj in adjoints.values():
        if tensor.requires_grad:
            tensor.grad = adj.copy() if tensor.grad is None else tensor.grad + adj


def _accumulate(adjoints: dict, inputs: tuple[Tensor, ...], grads) -> None:
    for tensor, grad in zip(inputs, grads):
        if grad is None:
            continue
        held = adjoints.get(id(tensor))
        adjoints[id(tensor)] = (tensor, grad if held is None else held[1] + grad)


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


def gated_sum(ga: Tensor, a: Tensor, gp: Tensor, p: Tensor) -> Tensor:
    """ga*a + gp*p as one node that keeps no product.

    The numbers are those of ``add(mul(ga, a), mul(gp, p))`` bit for bit.
    The inputs are recorded passive pair first, the order in which the two
    mul nodes ran backward, so each input receives the same gradient terms
    in the same order even when an input is passed twice.
    """
    for other in (a, gp, p):
        _check_binary(ga, other, "gated_sum")
    gad, ad, gpd, pd = ga.data, a.data, gp.data, p.data
    # the sum goes to a third array, not += onto the first product: with
    # the output placed there, eval-multiscale's peak RSS rose from 104 to
    # 113 MB (heap placement).  Named products keep numpy from reusing one.
    first, second = gad * ad, gpd * pd
    out = first + second
    return record((gp, p, ga, a), Tensor(out), lambda g: (g * pd, g * gpd, g * ad, g * gad))


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
#
# One definition per activation: an in-place forward on a fresh
# pre-activation array, and its derivative read off the output y alone.
# relu and lrelu take theirs from y > 0, which holds exactly where x > 0
# (for lrelu because 0 < slope < 1), so the derivative at 0 is the x <= 0
# one; sigmoid takes y(1 - y) and tanh 1 - y^2.  A node that applies one
# keeps y and never the pre-activation.  The standalone ops below and the
# conv epilogue in ``sgen.nn`` both go through ``activation``.

# the negative-side slope of every lrelu in the network
LRELU_SLOPE = 0.2


def _lrelu(a: np.ndarray) -> None:
    # with 0 < slope < 1, max(x, slope * x) is x where x > 0, else slope * x
    np.maximum(a, a * a.dtype.type(LRELU_SLOPE), out=a)


def _lrelu_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    deriv = np.array([LRELU_SLOPE, 1.0], dtype=y.dtype)  # for y <= 0 and y > 0
    out = deriv.take((y > 0).view(np.uint8))
    out *= g
    return out


def _sigmoid(a: np.ndarray) -> None:
    # exp(-|x|) cannot overflow: y = 1 / (1 + e) for x >= 0, else e / (1 + e)
    positive = a >= 0
    np.exp(np.negative(np.abs(a, out=a), out=a), out=a)
    denominator = 1.0 + a
    np.maximum(a, positive, out=a)
    np.divide(a, denominator, out=a)


# name -> (forward in place on a, adjoint of x from the adjoint g of y and y)
_ACTIVATIONS = {
    "relu": (lambda a: np.maximum(a, 0, out=a), lambda g, y: g * (y > 0)),
    "lrelu": (_lrelu, _lrelu_grad),
    "sigmoid": (_sigmoid, lambda g, y: g * y * (1.0 - y)),
    "tanh": (lambda a: np.tanh(a, out=a), lambda g, y: g * (1.0 - y * y)),
}


def _passthrough(g: np.ndarray) -> np.ndarray:
    return g


def activation(name: str | None):
    """Activation ``name`` as a function ``act(a) -> grad``.

    ``act`` requires the fresh pre-activation array ``a`` to be finite (a
    check on the output would miss -inf, which relu, sigmoid and tanh map
    to finite values), overwrites it with its activation y, and returns
    ``grad``, which maps the adjoint of y to the adjoint of the
    pre-activation, read off y alone.  ``None`` is the identity: it checks
    and writes nothing.
    """
    if name is None:
        return lambda a: _passthrough
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}; expected one of {tuple(_ACTIVATIONS)}")
    forward, derivative = _ACTIVATIONS[name]

    def act(a: np.ndarray):
        _require_finite(a, name)
        forward(a)
        return lambda g: derivative(g, a)

    return act


def _activated(x: Tensor, name: str) -> Tensor:
    act = activation(name)
    y = x.data.copy()
    grad = act(y)
    return record((x,), Tensor(y), lambda g: (grad(g),))


def relu(x: Tensor) -> Tensor:
    return _activated(x, "relu")


def lrelu(x: Tensor) -> Tensor:
    return _activated(x, "lrelu")


def sigmoid(x: Tensor) -> Tensor:
    return _activated(x, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    return _activated(x, "tanh")


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
