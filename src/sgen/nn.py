"""Strided convolution, transposed convolution, and global average pooling.

One layer type serves both convolutions: ``conv2d(x, p)`` applies a
``ConvParams`` and ``deconv2d(x, p)`` applies its adjoint, the transposed
conv on the same weight, plus a bias as wide as its own output.  Both use
cross-correlation semantics with zero padding.  A kernel fixes its own
stride and padding by one rule, ``geometry``: an even kernel 2f pools by
stride f with f/2 padding, an odd kernel k runs at stride 1 with (k-1)/2
padding.  So a conv's output is exactly its input divided by the stride,
its adjoint upsamples by exactly the stride, and a ``ConvParams`` is
just its weight and bias.  One factory, ``draw(op, ...)``, draws either
op's from the kernel a site declares, so ``geometry`` is the only place a
kernel becomes a stride.  It lays the weight out by ``param_shapes``, the
one statement of the weight layout, which the checkpoint shape check
reads too.

Kernels: pad-first phase planes.  Call the conv input the fine side and
its output the coarse side.  Pad the fine side first: fine pixel y sits at
padded row Y = y + p.  At stride s, kernel offset i = s*dy + ry of coarse
row q reads padded row s*(q + dy) + ry, so cutting the padded image into
its s*s phase planes (rows and columns with the same residue mod s) makes
coarse row q read row q + dy of plane ry, with dy in [0, t) and
t = k / s: the same t*t shifts for every plane (t = 2 for the 2s kernels,
k for an odd kernel at stride 1).  All planes stack into one
(s*s*c, size) matrix flattened over (n, rows, cols): the batch is folded
into the columns, the coarse side sits top-left in the same column grid,
and every shift is one contiguous column slice at offset dy*cols + dx.
The weight is relaid out by one transpose to match.

Both directions are one kernel.  A side is mapped onto by its valid
columns [lo, hi) and the direction e in which it reads the other side:
(0, span, 1) onto the coarse side, whose column f reads fine column
f + d, and (lo, hi, -1) onto the fine side, whose column f reads coarse
column f - d, for each shift d.  ``_cols`` unfolds one side onto the
other's columns, ``_onto`` maps one side onto the other (the conv
forward at e = 1, its adjoint at e = -1) and ``_wgrad`` takes the weight
gradient's share off an unfold's columns.  Each runs one GEMM whatever the
stride, with the batch summed inside it, and every GEMM goes through
``_gemm``, looked up at call time, so one wrapper sees them all.

One body, ``_apply``, runs both ops once ``conv2d`` or ``deconv2d`` has
checked its input and geometry and built its ``_Grid``; only the side the
input sits on differs.  Each side is one tuple: its phase count and
padding, then its (lo, hi, e): (s, pad, lo, hi, -1) on the fine side,
(1, 0, 0, span, 1) on the coarse side.  An unfold and the map that runs
on it are handed the triple of the side they land on.  ``conv2d`` takes
its input on the fine side, ``deconv2d`` on the coarse side, so the deconv
forward is the conv input gradient, its input gradient the conv forward,
and both take the same weight gradient.  A side has (phase count)^2 x
channels rows.

Unfold the thinner side: unfolding costs t*t x rows x columns.  One
rule, compared only in ``_apply``, picks every unfold.  The forward
unfolds its input side when its rows are <= the output side's; otherwise
the GEMM runs first on the unshifted wide side and its t*t thin results
are shift-added into place.  The backward unfolds its output side when
its rows are <= the input side's (the same rule seen from the other end),
else its input side, and ``_wgrad`` reads the weight gradient off that
unfold.  The input gradient runs on the output-side unfold when there is
one, GEMM-first otherwise.  The choice depends only on shapes, not on
which inputs need gradients, so a weight gradient has the same bits
whether or not its input needs one, and a run repeats bit for bit.

The backward streams its unfold: ``_blocks`` builds it in column order,
one block of at most ``_BLOCK`` bytes (about a core's L2) at a time, so
one block is alive however large the map is.  The weight gradient is the
sum of the blocks' GEMMs, added in column order, and each block's input
gradient lands in its own columns of one buffer.  The input planes are
built for the weight gradient and freed after its last block.  The input
gradient rides the same pass, unless the unfold is the smaller buffer
(t*t x the output rows < the input rows, as at the 64 -> 3 output conv):
then it is built again for dx once the planes are gone.  On a one-phase
input side (a conv at stride 1, or a deconv) dx off the unfold already
lies in place in that buffer, and is passed on as a view of it with no
``_image`` copy.  Two or more blocks change dw's summation order (and
the GEMM's own split of dx); every shape a tier-1 digest pins fits in one
block, so those bits are those of a whole unfold.  The forward is not
blocked.

Epilogue: each op adds the bias on the GEMM's own contiguous buffer,
over the columns that buffer holds values for ([0, span) on the coarse
side, [lo, hi) on the fine side), so ``_image`` is a pure layout copy.
``conv2d(x, p, act)`` and ``deconv2d`` then apply the activation ``act``
(relu, lrelu, sigmoid or tanh, defined once in
``sgen.autodiff.activation``) in place on that output image, after
checking that it is finite.  The op records one node whose output is the
activated y.  Its backward first maps the adjoint through the derivative
read off y alone (y > 0 for relu and lrelu, y(1 - y) for sigmoid, 1 - y^2
for tanh) and drops its reference to y (relu and lrelu drop it once the
mask is read, before the product exists), takes the bias gradient, and drops
the adjoint once its planes are built, before the kernel backward.  Since
``backward`` frees each node before running its rule, y is then freed
unless a later consumer still holds it.  So the pre-activation is never a
tensor and never held on the tape, and the numbers are those of the
activation applied after the op, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, activation, record

__all__ = ["ConvParams", "geometry", "param_shapes", "draw", "conv2d", "deconv2d", "global_avg_pool"]


def geometry(k: int) -> tuple[int, int]:
    """The (stride, padding) a k x k kernel runs at: the pooling rule.

    An even kernel 2f pools by f with padding f/2, so f must be even; an
    odd kernel runs at stride 1 with the padding that keeps the size.  A
    kernel below 1 has no taps and no stride.
    """
    if k < 1:
        raise ValueError(f"kernel {k} pools by no factor: a kernel must be at least 1")
    if k % 2:
        return 1, (k - 1) // 2
    if k % 4:
        raise ValueError(f"kernel {k} pools by no factor: an even kernel must be a multiple of 4")
    return k // 2, k // 4


@dataclass
class ConvParams:
    """Weights for one convolution, whose adjoint is the transposed conv;
    ``draw`` makes fresh ones for either op.

    weight: (c_out, c_in, kh, kw) of the conv; ``deconv2d``
            reads the same array as (c_in, c_out, kh, kw).
    bias:   (1, c, 1, 1) for the c output channels of the op it is applied
            by; per-channel offsets live in the channel slot because every
            tensor in the engine is 4-D.
    stride, padding: set from the kernel size by ``geometry``.
    """

    weight: Tensor
    bias: Tensor
    stride: int = field(init=False)
    padding: int = field(init=False)

    def __post_init__(self):
        _, _, kh, kw = self.weight.shape
        if kh != kw:
            raise ValueError(f"ConvParams: kernel must be square, got {kh}x{kw}")
        self.stride, self.padding = geometry(kh)

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]


def param_shapes(op: str, c_in: int, c_out: int, kernel: int) -> tuple[tuple, tuple]:
    """The (weight, bias) shapes of a ``kernel`` x ``kernel`` ``op``
    ("conv" or "deconv") from c_in to c_out channels: the weight layout.

    A weight is always laid out as the conv's (out, in, k, k), so a deconv,
    the adjoint of a conv from c_out to c_in, stores (c_in, c_out, k, k).
    The bias is (1, c_out, 1, 1), as wide as the op's own output.
    """
    if op not in ("conv", "deconv"):
        raise ValueError(f"unknown op {op!r}: an op is 'conv' or 'deconv'")
    pair = (c_out, c_in) if op == "conv" else (c_in, c_out)
    return (*pair, kernel, kernel), (1, c_out, 1, 1)


def draw(
    op: str, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
    dtype=np.float32, std: float | None = None,
) -> ConvParams:
    """Fresh weights of a ``kernel`` x ``kernel`` ``op`` from c_in to c_out
    channels, laid out by ``param_shapes``; the kernel sets the stride (see
    ``geometry``).  The weight is normal with the He scale for relu-family
    activations, sqrt(2 / (c_in k^2)), or with ``std`` when given (zeros at
    0.0, for zero-initialized gates); the bias is zero."""
    shape, bias_shape = param_shapes(op, c_in, c_out, kernel)
    if std is None:
        std = np.sqrt(2.0 / (c_in * kernel * kernel))
    w = rng.normal(0.0, std, size=shape) if std > 0 else np.zeros(shape)
    weight = Tensor(w.astype(dtype), requires_grad=True)
    bias = Tensor(np.zeros(bias_shape, dtype=dtype), requires_grad=True)
    return ConvParams(weight, bias)


# ---------------------------------------------------------------------------
# Phase-split kernels.  The conv input is the "fine" side, its output the
# "coarse" side; see the module docstring for the column layout.


class _Grid:
    """The shared column space of one layer's geometry at one coarse size.

    Each of the s*s phase planes of the zero-padded fine side is ``rows`` x
    ``cols`` pixels, flattened over (n, rows, cols) into ``size`` columns;
    the coarse side sits top-left in the same grid, zero elsewhere.  Coarse
    column f reads plane column f + d for each of the t*t ``shifts`` d, and
    every coarse pixel lies in [0, span).  Every fine pixel lies in
    [lo, hi), the only plane columns ``_image`` reads of the fine side.
    """

    def __init__(self, n: int, hc: int, wc: int, p: ConvParams):
        s, pad = p.stride, p.padding
        t = p.kernel // s  # plane rows a coarse pixel reads
        self.n, self.hc, self.wc, self.s, self.t = n, hc, wc, s, t
        # room for every read; the padded fine side, hc + ceil(pad / s) plane
        # rows, fits in it because geometry gives pad <= (t - 1) * s
        self.rows = hc + t - 1
        self.cols = wc + t - 1
        self.size = n * self.rows * self.cols
        self.shifts = [dy * self.cols + dx for dy in range(t) for dx in range(t)]
        self.span = self.size - self.shifts[-1]
        first, last = pad // s, pad // s + (pad % s > 0)  # plane offsets, see _runs
        self.lo = first * self.cols + first
        self.hi = ((n - 1) * self.rows + last + hc - 1) * self.cols + last + wc


def _runs(s: int, pad: int):
    """Fine residues mod s as (fine, plane) residue slices plus a plane offset.

    Fine pixel y sits at padded row y + pad, that is plane (y + pad) % s,
    plane row (y + pad) // s: at most two runs of residues per axis.
    """
    p0, off = pad % s, pad // s
    runs = [(slice(0, s - p0), slice(p0, s), off)]
    if p0:
        runs.append((slice(s - p0, s), slice(0, p0), off + 1))
    return runs


def _planes(x: np.ndarray, g: _Grid, s: int, pad: int) -> np.ndarray:
    """(n, c, s*hc, s*wc) -> (s*s*c, size): the image padded by ``pad``, cut
    into its phase planes.  The coarse side is the case s = 1, pad = 0."""
    n, c = x.shape[:2]
    buf = np.zeros((s, s, c, n, g.rows, g.cols), dtype=x.dtype)
    x6 = x.reshape(n, c, g.hc, s, g.wc, s)
    for fy, py, oy in _runs(s, pad):
        for fx, px, ox in _runs(s, pad):
            buf[py, px, :, :, oy : oy + g.hc, ox : ox + g.wc] = x6[:, :, :, fy, :, fx].transpose(3, 5, 1, 0, 2, 4)
    return buf.reshape(s * s * c, g.size)


def _image(planes: np.ndarray, g: _Grid, s: int, pad: int) -> np.ndarray:
    """Inverse of ``_planes`` on the image: a pure layout copy."""
    c = planes.shape[0] // (s * s)
    grid = planes.reshape(s, s, c, g.n, g.rows, g.cols)
    out = np.empty((g.n, c, g.hc, s, g.wc, s), dtype=planes.dtype)
    for rx in range(s):  # one column phase at a time keeps the inner loop w long
        ox, px = divmod(rx + pad, s)
        for fy, py, oy in _runs(s, pad):
            out[:, :, :, fy, :, rx] = grid[py, px, :, :, oy : oy + g.hc, ox : ox + g.wc].transpose(2, 1, 3, 0, 4)
    return out.reshape(g.n, c, g.hc * s, g.wc * s)


def _taps(weight: np.ndarray, g: _Grid, coarse: bool) -> np.ndarray:
    """(o, c, k, k) as a GEMM operand, relaid out by one transpose.

    Kernel offset i = s*dy + ry, with k = t*s.  Rows o and columns
    (dy, dx, ry, rx, c) when the shifts go with the fine side; rows
    (dy, dx, o) and columns (ry, rx, c) when they go with the ``coarse``
    side.  The transposed GEMMs read the same matrix transposed.
    """
    o, c = weight.shape[:2]
    t, s = g.t, g.s
    w6 = weight.reshape(o, c, t, s, t, s)
    if coarse:
        return w6.transpose(2, 4, 0, 3, 5, 1).reshape(t * t * o, s * s * c)
    return w6.transpose(0, 2, 4, 3, 5, 1).reshape(o, t * t * s * s * c)


def _untap(dw: np.ndarray, g: _Grid, coarse: bool) -> np.ndarray:
    """Inverse of ``_taps`` on a gradient: (o, c, k, k).

    Two copies: first to (o, k*k, c), which keeps c innermost as both
    layouts have it, then one transpose of each (k*k, c) block.  A direct
    permute reads c at a large stride: 2-4x slower at strides 2 and 4.
    """
    t, s = g.t, g.s
    if coarse:
        d6 = dw.reshape(t, t, -1, s, s, dw.shape[1] // (s * s)).transpose(2, 0, 3, 1, 4, 5)
    else:
        d6 = dw.reshape(dw.shape[0], t, t, s, s, -1).transpose(0, 1, 3, 2, 4, 5)
    o, c, k = d6.shape[0], d6.shape[5], t * s
    taps = np.ascontiguousarray(d6).reshape(o, k * k, c)
    return np.ascontiguousarray(taps.transpose(0, 2, 1)).reshape(o, c, k, k)


def _gemm(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b, into ``out`` when given: every GEMM of the kernels, looked up
    here at call time, so a wrapper set on the module sees each one."""
    return np.matmul(a, b, out=out)


def _cols(m: np.ndarray, g: _Grid, lo: int, hi: int, e: int) -> np.ndarray:
    """Unfold the side ``m`` (rows, size) onto the other side's columns
    [lo, hi): window d's column f reads m[:, f + e*d], zero where that is
    below 0.  (t*t * rows, hi - lo)."""
    out = np.empty((len(g.shifts), m.shape[0], hi - lo), dtype=m.dtype)
    for u, d in zip(out, g.shifts):
        head = max(-e * d - lo, 0)  # columns that would read before the grid
        u[:, :head] = 0
        u[:, head:] = m[:, lo + e * d + head : hi + e * d]
    return out.reshape(-1, hi - lo)


def _onto(src: np.ndarray, weight: np.ndarray, g: _Grid, lo: int, hi: int, e: int, cols=None, out=None) -> np.ndarray:
    """Map the side ``src`` onto the other side, valid on its columns [lo, hi):
    the conv forward at e = 1 (fine planes onto the coarse side), its
    adjoint at e = -1.

    One GEMM on ``cols``, the unfold ``_cols(src, g, lo, hi, e)``, when
    given, into columns [lo, hi) of ``out`` (a fresh buffer unless given),
    so a streamed unfold fills one buffer block by block; else one GEMM on
    ``src`` whose t*t thin per-shift results are shift-added over [lo, hi).
    """
    taps = _taps(weight, g, (cols is None) == (e > 0))
    taps = taps if e > 0 else taps.T
    if cols is not None:
        if out is None:
            out = np.empty((taps.shape[0], g.size), dtype=src.dtype)
        _gemm(taps, cols, out=out[:, lo:hi])
        return out
    z = _gemm(taps, src).reshape(len(g.shifts), -1, g.size)
    out = z[0]  # shift 0
    for zt, d in zip(z[1:], g.shifts[1:]):
        a = max(lo, -e * d)
        out[:, a:hi] += zt[:, a + e * d : hi + e * d]
    return out


def _wgrad(b: np.ndarray, cols: np.ndarray, lo: int, hi: int, e: int, acc=None) -> np.ndarray:
    """The weight gradient's share from columns [lo, hi), read off ``cols``,
    one side's unfold onto the other side's columns [lo, hi), and ``b``,
    that other side's planes, added to ``acc`` when given.  It stays in the
    tap layout of the side the shifts go with (the coarse side at e < 0)
    until ``_untap``.  The caller picks which side is unfolded; see
    ``_apply``."""
    part = _gemm(b[:, lo:hi], cols.T) if e > 0 else _gemm(cols, b[:, lo:hi].T)
    if acc is None:
        return part
    acc += part
    return acc


# the most bytes one block of a backward unfold holds: about a core's L2
_BLOCK = 1 << 21


def _blocks(m: np.ndarray, g: _Grid, lo: int, hi: int, e: int):
    """The unfold ``_cols(m, g, lo, hi, e)`` streamed in column order, one
    block of at most ``_BLOCK`` bytes (and at least one column) at a time:
    (a, b, the unfold's columns [a, b)) for each block."""
    width = max(1, _BLOCK // (len(g.shifts) * m.shape[0] * m.itemsize))
    for a in range(lo, hi, width):
        b = min(a + width, hi)
        yield a, b, _cols(m, g, a, b, e)


def _unpadded(planes: np.ndarray, g: _Grid, pad: int) -> np.ndarray:
    """``_image`` of a one-phase side as a view of its planes, no copy."""
    c = planes.shape[0]
    return planes.reshape(c, g.n, g.rows, g.cols)[:, :, pad : pad + g.hc, pad : pad + g.wc].transpose(1, 0, 2, 3)


def _check(op: str, x: Tensor, p: ConvParams, c_in: int, c_out: int) -> None:
    """``op`` maps c_in to c_out channels in the weight's dtype."""
    if x.shape[1] != c_in:
        raise ValueError(f"{op}: input has {x.shape[1]} channels, kernel expects {c_in}")
    if x.dtype != p.weight.dtype:
        raise ValueError(f"{op}: dtype mismatch {x.dtype} vs weight {p.weight.dtype}")
    if p.bias.shape != (1, c_out, 1, 1):
        raise ValueError(f"{op}: bias shape {p.bias.shape} does not match {c_out} output channels")


def conv2d(x: Tensor, p: ConvParams, act: str | None = None) -> Tensor:
    """Strided cross-correlation plus bias, then the activation ``act``, if
    given, in place on that output; output spatial dims = input / stride."""
    _check("conv2d", x, p, p.c_in, p.c_out)
    n, _, h, w = x.shape
    s = p.stride
    if h % s or w % s:
        raise ValueError(f"conv2d: spatial dims ({h}, {w}) not divisible by stride {s}")
    return _apply(x, p, act, _Grid(n, h // s, w // s, p), True)


def deconv2d(x: Tensor, p: ConvParams, act: str | None = None) -> Tensor:
    """Adjoint of conv2d on p, plus p's bias, then the activation ``act``,
    if given, in place on that output; upsamples by p.stride, so it runs
    every kernel ``geometry`` admits, as ``conv2d`` does.  Its input and
    output channels are the conv's output and input channels."""
    _check("deconv2d", x, p, p.c_out, p.c_in)
    n, _, h, w = x.shape
    return _apply(x, p, act, _Grid(n, h, w, p), False)


def _apply(x: Tensor, p: ConvParams, act: str | None, g: _Grid, fine_in: bool) -> Tensor:
    """The op body of ``conv2d`` (``fine_in``: its input is the fine side)
    and of ``deconv2d`` (its input is the coarse side); see the module
    docstring."""
    epilogue = activation(act)
    # each side: its phase count and padding, then what maps onto it: its
    # valid columns [lo, hi) and the direction e it reads the other side in
    fine, coarse = (g.s, p.padding, g.lo, g.hi, -1), (1, 0, 0, g.span, 1)
    (si, pi, *onto_in), (so, po, *onto_out) = (fine, coarse) if fine_in else (coarse, fine)
    rows_in, rows_out = si * si * x.shape[1], so * so * p.bias.shape[1]
    xd, wd = x.data, p.weight.data
    xp = _planes(xd, g, si, pi)
    out = _onto(xp, wd, g, *onto_out, _cols(xp, g, *onto_out) if rows_in <= rows_out else None)
    del xp  # free before the output image is built
    lo, hi = onto_out[:2]
    out.reshape(so * so, -1, g.size)[:, :, lo:hi] += p.bias.data.reshape(1, -1, 1)
    yd = _image(out, g, so, po)
    del out  # free before the epilogue's scratch
    pre_activation_grad = epilogue(yd)
    weight, bias = p.weight, p.bias

    def bwd(gy):
        nonlocal pre_activation_grad
        gy = pre_activation_grad(gy)
        pre_activation_grad = None  # this node's last hold on y: free it before the kernel backward
        db = gy.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1) if bias.requires_grad else None
        gp = _planes(gy, g, so, po)
        del gy  # free before the kernel backward
        xp = _planes(xd, g, si, pi) if weight.requires_grad else None
        dx = dw = back = None
        thin_out = rows_out <= rows_in  # the forward's rule, seen from the output side
        if thin_out:  # unfold the output side onto the input side: dw, and dx block by block
            lo, hi, e = onto_in
            # dx rides the weight gradient's pass unless the unfold is the
            # smaller buffer: then it is redone once the input planes are freed
            redo = x.requires_grad and xp is not None and len(g.shifts) * rows_out < rows_in
            for a, b, cols in _blocks(gp, g, lo, hi, e):
                if xp is not None:
                    dw = _wgrad(xp, cols, a, b, e, dw)
                if x.requires_grad and not redo:
                    back = _onto(gp, wd, g, a, b, e, cols, back)
                del cols  # free before the next block is built
            xp = None
            for a, b, cols in _blocks(gp, g, lo, hi, e) if redo else ():
                back = _onto(gp, wd, g, a, b, e, cols, back)
                del cols
        else:  # unfold the input side onto the output side for dw; dx runs GEMM-first
            lo, hi, e = onto_out
            for a, b, cols in _blocks(xp, g, lo, hi, e) if xp is not None else ():
                dw = _wgrad(gp, cols, a, b, e, dw)
                del cols
            xp = None
            if x.requires_grad:
                back = _onto(gp, wd, g, *onto_in)
        if dw is not None:
            dw = _untap(dw, g, e < 0)
        if back is not None:
            # a one-phase side's dx off the unfold is already laid out in
            # place in its buffer: pass on a view of it
            dx = _unpadded(back, g, pi) if thin_out and si == 1 else _image(back, g, si, pi)
        return dx, dw, db

    return record((x, weight, bias), Tensor(yd), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial dims: (n, c, h, w) -> (n, c, 1, 1)."""
    n, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))
    inv = 1.0 / (h * w)

    def bwd(g):
        return (np.broadcast_to(g * inv, (n, c, h, w)).copy(),)

    return record((x,), out, bwd)
