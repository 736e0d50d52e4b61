"""Strided convolution, transposed convolution, and global average pooling.

Convolutions use cross-correlation semantics with zero padding.  Spatial
pooling by a factor f is a single strided conv: stride f with a 2f kernel
and f/2 padding (3x3, pad 1 at stride 1), so the output is exactly the
input divided by the stride.  ``deconv2d`` is defined as the adjoint of
the conv with the same geometry plus a bias, which makes upsampling by f
produce exactly f times the input size and ties the two operators
together for testing.

Kernels: phase split.  Call the conv input the fine side and its output
the coarse side.  At stride s, padding p and kernel offset i, coarse row q
reads fine row s*(q + d) + r with (d, r) = divmod(i - p, s); for every
geometry above d lies in {-1, 0, 1}.  So the fine image is cut into its s*s
phase planes (fine pixels with the same (row, col) residue mod s), each
plane gets a zero border of b = max |d| pixels and is flattened over
(n, h + 2b, w + 2b): the batch is folded into the columns, and every
kernel tap is one plane read at a fixed column shift.  Unfolding a tap is
then a contiguous slice copy and its adjoint a shifted add.  The coarse
side uses the same column layout as a single plane.  Three primitives,
``_gather`` (conv forward), ``_scatter`` (its adjoint) and ``_wgrad``
(weight gradient), each run one GEMM per phase plane, or per group of
planes whose unfold is no larger than the planes themselves, with the
batch summed inside the GEMM.  A backward that needs both the input and
the weight gradient reads both off the same unfold.

Unfold the thinner side: unfolding costs taps x channels x columns, so the
kernels stack shifted copies of whichever side has fewer channels.  When
that is the coarse side (a 64 -> 3 output conv, say), the GEMM runs first
on the unshifted wide plane and its thin per-tap results are shift-added
into place.  The choice depends only on the weight shape, so a run repeats
bit for bit.

``deconv2d`` reuses the three primitives with the roles swapped: its
forward is the conv input gradient, its input gradient the conv forward,
and its weight gradient the conv weight gradient with its input as the
coarse side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, record

__all__ = [
    "ConvParams",
    "DeconvParams",
    "conv_params",
    "deconv_params",
    "conv2d",
    "deconv2d",
    "global_avg_pool",
    "he_std",
]


def _pool_kernel(factor: int) -> int:
    # factor-1 "pooling" is an ordinary 3x3 conv
    return 3 if factor == 1 else 2 * factor


def he_std(in_channels: int, kh: int, kw: int) -> float:
    """Kaiming-style init scale for relu-family activations."""
    return float(np.sqrt(2.0 / (in_channels * kh * kw)))


@dataclass
class ConvParams:
    """Weights for one convolution.

    weight: (out_channels, in_channels, kh, kw)
    bias:   (1, out_channels, 1, 1); per-channel offsets live in the
            channel slot because every tensor in the engine is 4-D.
    """

    weight: Tensor
    bias: Tensor
    stride: int
    padding: int

    def __post_init__(self):
        if self.weight.data.ndim != 4:
            raise ValueError("ConvParams: weight must be 4-D")
        out_c, _, kh, kw = self.weight.shape
        if kh != kw:
            raise ValueError(f"ConvParams: kernel must be square, got {kh}x{kw}")
        if self.bias.shape != (1, out_c, 1, 1):
            raise ValueError(
                f"ConvParams: bias shape {self.bias.shape} does not match"
                f" {out_c} output channels"
            )
        if self.stride < 1:
            raise ValueError(f"ConvParams: stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"ConvParams: padding must be >= 0, got {self.padding}")

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]


@dataclass
class DeconvParams:
    """Weights for one transposed convolution (upsampling by ``stride``).

    weight: (in_channels, out_channels, kh, kw); a DeconvParams with the
    same weight array as a ConvParams is its exact adjoint.
    """

    weight: Tensor
    bias: Tensor
    stride: int
    padding: int

    def __post_init__(self):
        if self.weight.data.ndim != 4:
            raise ValueError("DeconvParams: weight must be 4-D")
        _, out_c, kh, kw = self.weight.shape
        if kh != kw:
            raise ValueError(f"DeconvParams: kernel must be square, got {kh}x{kw}")
        if self.bias.shape != (1, out_c, 1, 1):
            raise ValueError(
                f"DeconvParams: bias shape {self.bias.shape} does not match"
                f" {out_c} output channels"
            )
        s = self.stride
        if s < 2 or (s & (s - 1)) != 0:
            raise ValueError(f"DeconvParams: stride must be a power of two >= 2, got {s}")

    @property
    def in_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]


def conv_params(
    in_channels: int,
    out_channels: int,
    factor: int,
    rng: np.random.Generator,
    dtype=np.float32,
    kernel: int | None = None,
    weight_std: float | None = None,
) -> ConvParams:
    """Fresh conv weights for spatial pooling by ``factor``.

    kernel defaults to the pooling rule (3 at factor 1, else 2*factor) but
    may be overridden, e.g. 1 for channel-projection convs.  weight_std
    defaults to the He scale; pass 0.0 for zero-initialized gates.
    """
    if factor < 1:
        raise ValueError(f"conv_params: factor must be >= 1, got {factor}")
    k = _pool_kernel(factor) if kernel is None else kernel
    if (k - factor) % 2 != 0:
        raise ValueError(f"conv_params: kernel {k} incompatible with stride {factor}")
    pad = (k - factor) // 2
    std = he_std(in_channels, k, k) if weight_std is None else weight_std
    if std > 0:
        w = rng.normal(0.0, std, size=(out_channels, in_channels, k, k))
    else:
        w = np.zeros((out_channels, in_channels, k, k))
    weight = Tensor(w.astype(dtype), requires_grad=True)
    bias = Tensor(np.zeros((1, out_channels, 1, 1), dtype=dtype), requires_grad=True)
    return ConvParams(weight=weight, bias=bias, stride=factor, padding=pad)


def deconv_params(
    in_channels: int,
    out_channels: int,
    factor: int,
    rng: np.random.Generator,
    dtype=np.float32,
    weight_std: float | None = None,
) -> DeconvParams:
    """Fresh transposed-conv weights for upsampling by ``factor``."""
    k = 2 * factor
    pad = factor // 2
    std = he_std(in_channels, k, k) if weight_std is None else weight_std
    if std > 0:
        w = rng.normal(0.0, std, size=(in_channels, out_channels, k, k))
    else:
        w = np.zeros((in_channels, out_channels, k, k))
    weight = Tensor(w.astype(dtype), requires_grad=True)
    bias = Tensor(np.zeros((1, out_channels, 1, 1), dtype=dtype), requires_grad=True)
    return DeconvParams(weight=weight, bias=bias, stride=factor, padding=pad)


# ---------------------------------------------------------------------------
# Phase-split kernels.  The conv input is the "fine" side, its output the
# "coarse" side; see the module docstring for the column layout.


class _Grid:
    """The shared column space of one conv geometry at one coarse size.

    ``order`` lists the flat kernel taps grouped by fine phase plane
    ``ry * s + rx`` (``unorder`` is its inverse).  ``phases`` holds, per
    plane, the slice of ``order`` that reads it and a (plane, column shift)
    pair per tap; ``groups`` merges consecutive phases while they hold at
    most s*s taps, so that an unfold of a group's fine windows never
    outgrows the phase planes themselves.  Values live on the window
    [margin, margin + span) of the ``size`` columns, which holds every
    image pixel.
    """

    def __init__(self, n: int, h: int, w: int, k: int, s: int, pad: int):
        steps = [divmod(i - pad, s) for i in range(k)]  # (d, r) per offset
        b = max(abs(d) for d, _ in steps)
        self.n, self.h, self.w, self.s, self.border = n, h, w, s, b
        self.row = w + 2 * b
        self.size = n * (h + 2 * b) * self.row
        self.margin = b * self.row + b
        self.span = self.size - 2 * self.margin
        by_phase: dict[int, list[tuple[int, int]]] = {}
        for i, (dy, ry) in enumerate(steps):
            for j, (dx, rx) in enumerate(steps):
                by_phase.setdefault(ry * s + rx, []).append((i * k + j, dy * self.row + dx))
        self.order: list[int] = []
        self.phases: list[tuple[slice, list[tuple[int, int]]]] = []
        self.groups: list[tuple[slice, list[tuple[int, int]]]] = []
        for ph, taps in sorted(by_phase.items()):
            at = len(self.order)
            self.order += [t for t, _ in taps]
            pairs = [(ph, d) for _, d in taps]
            self.phases.append((slice(at, len(self.order)), pairs))
            if self.groups and len(self.groups[-1][1]) + len(pairs) <= s * s:
                prev, merged = self.groups.pop()
                self.groups.append((slice(prev.start, len(self.order)), merged + pairs))
            else:
                self.groups.append(self.phases[-1])
        self.unorder = np.argsort(self.order)


def _planes(x: np.ndarray, g: _Grid, s: int) -> np.ndarray:
    """(n, c, s*h, s*w) -> (s*s, c, size): zero-bordered phase planes."""
    n, c = x.shape[:2]
    b = g.border
    buf = np.zeros((s, s, c, n, g.h + 2 * b, g.row), dtype=x.dtype)
    buf[..., b : b + g.h, b : b + g.w] = x.reshape(n, c, g.h, s, g.w, s).transpose(3, 5, 1, 0, 2, 4)
    return buf.reshape(s * s, c, g.size)


def _image(planes: np.ndarray, g: _Grid, s: int, bias: np.ndarray | None = None) -> np.ndarray:
    """Inverse of ``_planes`` on the window, plus an optional (1, c, 1, 1) bias."""
    c = planes.shape[1]
    b = g.border
    grid = planes.reshape(s, s, c, g.n, g.h + 2 * b, g.row)[..., b : b + g.h, b : b + g.w]
    out = np.empty((g.n, c, g.h, s, g.w, s), dtype=planes.dtype)
    for rx in range(s):  # one column phase at a time keeps the inner loop w long
        src = grid[:, rx].transpose(2, 1, 3, 0, 4)
        if bias is None:
            out[..., rx] = src
        else:
            np.add(src, bias.reshape(1, c, 1, 1, 1), out=out[..., rx])
    return out.reshape(g.n, c, g.h * s, g.w * s)


def _taps_first(weight: np.ndarray, g: _Grid) -> np.ndarray:
    """(o, c, k, k) -> (o, k*k, c), taps in phase order: a phase or group is a slice."""
    o, c = weight.shape[:2]
    return np.ascontiguousarray(weight.reshape(o, c, -1).transpose(0, 2, 1)).take(g.order, axis=1)


def _fine_cols(xf: np.ndarray, pairs, g: _Grid) -> np.ndarray:
    """Unfold the fine side: each (plane, shift) window of ``xf``, (taps * c, span)."""
    m, span = g.margin, g.span
    return np.stack([xf[ph, :, m + d : m + d + span] for ph, d in pairs]).reshape(-1, span)


def _coarse_cols(cf: np.ndarray, pairs, g: _Grid) -> np.ndarray:
    """Unfold the coarse side (o, size) against one phase's taps, (o * taps, span)."""
    m, span = g.margin, g.span
    return np.stack([cf[:, m - d : m - d + span] for _, d in pairs], axis=1).reshape(-1, span)


def _dw_taps(cf, xf, pairs, g: _Grid, fine=None, coarse=None) -> np.ndarray:
    """Weight gradient of some taps, (o, taps, c): coarse times shifted fine.

    Reads it off the ``fine`` (a group's) or ``coarse`` (a phase's) unfold
    when the caller already built one, else unfolds the thinner side.
    """
    o, c = cf.shape[0], xf.shape[1]
    m, span = g.margin, g.span
    if fine is None and coarse is None:
        if c <= o:
            fine = _fine_cols(xf, pairs, g)
        else:
            coarse = _coarse_cols(cf, pairs, g)
    if fine is not None:
        prod = np.matmul(cf[:, m : m + span], fine.T)
    else:
        prod = np.matmul(coarse, xf[pairs[0][0], :, m : m + span].T)
    return prod.reshape(o, len(pairs), c)


# Fine unfolds, and GEMMs that run first on the coarse side, cover a group
# of phases at a time; coarse unfolds, and GEMMs that run first on one fine
# plane, cover one phase.


def _gather(xf: np.ndarray, weight: np.ndarray, g: _Grid, cf=None):
    """Conv forward: fine planes (s*s, c, size) -> coarse (o, size).

    Given coarse planes ``cf``, also returns the weight gradient of
    <cf, gather(xf)> (taps in phase order, see ``_untap``), else None.
    """
    o, c = weight.shape[:2]
    wt = _taps_first(weight, g)
    m, span = g.margin, g.span
    unfold = c <= o
    # only the window is ever read back; an unfold writes all of it
    out = (np.empty if unfold else np.zeros)((o, g.size), dtype=xf.dtype)
    win = out[:, m : m + span]
    dw = None if cf is None else np.empty_like(wt)
    for i, (sl, pairs) in enumerate(g.groups if unfold else g.phases):
        cols = None
        if unfold:  # the first group writes the window, the rest add
            cols = _fine_cols(xf, pairs, g)
            z = np.matmul(wt[:, sl].reshape(o, -1), cols, out=None if i else win)
            if i:
                win += z
        else:
            z = np.matmul(wt[:, sl].reshape(-1, c), xf[pairs[0][0]]).reshape(o, len(pairs), g.size)
            for j, (_, d) in enumerate(pairs):  # shift-add the thin coarse result
                win += z[:, j, m + d : m + d + span]
        if dw is not None:
            dw[:, sl] = _dw_taps(cf, xf, pairs, g, fine=cols)
    return out, dw


def _scatter(cf: np.ndarray, weight: np.ndarray, g: _Grid, xf=None):
    """Adjoint of ``_gather``: coarse (o, size) -> fine planes (s*s, c, size).

    Given fine planes ``xf``, also returns the weight gradient of
    <cf, gather(xf)> (taps in phase order), else None.
    """
    o, c = weight.shape[:2]
    wt = _taps_first(weight, g)
    m, span = g.margin, g.span
    unfold = o <= c
    # unfolds write every window, unless some plane has no tap (1x1 at stride 2)
    fills = unfold and len(g.phases) == g.s**2
    out = (np.empty if fills else np.zeros)((g.s**2, c, g.size), dtype=cf.dtype)
    dw = None if xf is None else np.empty_like(wt)
    for sl, pairs in g.phases if unfold else g.groups:
        cols = None
        if unfold:
            cols = _coarse_cols(cf, pairs, g)
            np.matmul(wt[:, sl].reshape(-1, c).T, cols, out=out[pairs[0][0], :, m : m + span])
        else:
            z = np.matmul(wt[:, sl].reshape(o, -1).T, cf).reshape(len(pairs), c, g.size)
            for j, (ph, d) in enumerate(pairs):  # shift-add the thin fine result
                out[ph, :, m : m + span] += z[j, :, m - d : m - d + span]
        if dw is not None:
            dw[:, sl] = _dw_taps(cf, xf, pairs, g, coarse=cols)
    return out, dw


def _wgrad(cf: np.ndarray, xf: np.ndarray, g: _Grid) -> np.ndarray:
    """The weight gradient alone, (o, k*k, c) with taps in phase order."""
    o, c = cf.shape[0], xf.shape[1]
    dw = np.empty((o, len(g.order), c), dtype=cf.dtype)
    for sl, pairs in g.groups if c <= o else g.phases:
        dw[:, sl] = _dw_taps(cf, xf, pairs, g)
    return dw


def _untap(dw: np.ndarray, g: _Grid, shape) -> np.ndarray:
    """Inverse of ``_taps_first``: (o, k*k, c) in phase order -> (o, c, k, k)."""
    return np.ascontiguousarray(dw.take(g.unorder, axis=1).transpose(0, 2, 1)).reshape(shape)


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """Strided cross-correlation plus bias; output spatial dims = input / stride."""
    n, c, h, w = x.shape
    if c != p.in_channels:
        raise ValueError(f"conv2d: input has {c} channels, kernel expects {p.in_channels}")
    if x.dtype != p.weight.dtype:
        raise ValueError(f"conv2d: dtype mismatch {x.dtype} vs weight {p.weight.dtype}")
    s = p.stride
    if h % s or w % s:
        raise ValueError(f"conv2d: spatial dims ({h}, {w}) not divisible by stride {s}")
    g = _Grid(n, h // s, w // s, p.kernel, s, p.padding)
    xd, wd = x.data, p.weight.data
    y = Tensor(_image(_gather(_planes(xd, g, s), wd, g)[0][None], g, 1, p.bias.data))
    weight, bias = p.weight, p.bias

    def bwd(gy):
        cf = _planes(gy, g, 1)[0]
        xf = _planes(xd, g, s) if weight.requires_grad else None
        dx = dw = db = None
        if x.requires_grad:
            fine, dw = _scatter(cf, wd, g, xf)
            xf = None  # free before the image copy doubles the fine side
            dx = _image(fine, g, s)
        elif xf is not None:
            dw = _wgrad(cf, xf, g)
        if dw is not None:
            dw = _untap(dw, g, wd.shape)
        if bias.requires_grad:
            db = gy.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        return dx, dw, db

    return record((x, weight, bias), y, bwd)


def deconv2d(x: Tensor, p: DeconvParams) -> Tensor:
    """Adjoint of the matching conv2d, plus bias; upsamples by p.stride."""
    n, c, h, w = x.shape
    if c != p.in_channels:
        raise ValueError(f"deconv2d: input has {c} channels, kernel expects {p.in_channels}")
    if x.dtype != p.weight.dtype:
        raise ValueError(f"deconv2d: dtype mismatch {x.dtype} vs weight {p.weight.dtype}")
    s = p.stride
    g = _Grid(n, h, w, p.kernel, s, p.padding)
    xd, wd = x.data, p.weight.data
    y = Tensor(_image(_scatter(_planes(xd, g, 1)[0], wd, g)[0], g, s, p.bias.data))
    weight, bias = p.weight, p.bias

    def bwd(gy):
        xf = _planes(gy, g, s)
        cf = _planes(xd, g, 1)[0] if weight.requires_grad else None
        dx = dw = db = None
        if x.requires_grad:
            coarse, dw = _gather(xf, wd, g, cf)
            dx = _image(coarse[None], g, 1)
        elif cf is not None:
            dw = _wgrad(cf, xf, g)
        if dw is not None:
            dw = _untap(dw, g, wd.shape)
        if bias.requires_grad:
            db = gy.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        return dx, dw, db

    return record((x, weight, bias), y, bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial dims: (n, c, h, w) -> (n, c, 1, 1)."""
    n, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))
    inv = 1.0 / (h * w)

    def bwd(g):
        return (np.broadcast_to(g * inv, (n, c, h, w)).copy(),)

    return record((x,), out, bwd)
