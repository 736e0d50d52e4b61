"""Slow, independent reference implementations used to check the fast paths.

Everything here is written as plain nested loops over definitions, with no
im2col, no stride tricks, and no separable filtering, so a bug in the
package's vectorized code cannot hide in a shared formulation.
"""

import numpy as np


def conv2d_loops(x, weight, bias, stride, pad):
    """Direct cross-correlation with zero padding.

    x: (n, cin, h, w), weight: (cout, cin, kh, kw), bias: (cout,).
    """
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    assert cin == cin_w
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for b in range(n):
        for oc in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - pad
                                ix = ox * stride + kx - pad
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += float(x[b, ic, iy, ix]) * float(
                                        weight[oc, ic, ky, kx]
                                    )
                    out[b, oc, oy, ox] = acc + float(bias[oc])
    return out


def deconv2d_scatter(x, weight, bias, stride, pad):
    """Transposed convolution by scattering each input pixel through the kernel.

    x: (n, cin, h, w), weight: (cin, cout, kh, kw), bias: (cout,).
    Output is (n, cout, h*stride, w*stride).
    """
    n, cin, h, w = x.shape
    cin_w, cout, kh, kw = weight.shape
    assert cin == cin_w
    oh, ow = h * stride, w * stride
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for b in range(n):
        for ic in range(cin):
            for iy in range(h):
                for ix in range(w):
                    v = float(x[b, ic, iy, ix])
                    for oc in range(cout):
                        for ky in range(kh):
                            for kx in range(kw):
                                oy = iy * stride + ky - pad
                                ox = ix * stride + kx - pad
                                if 0 <= oy < oh and 0 <= ox < ow:
                                    out[b, oc, oy, ox] += v * float(weight[ic, oc, ky, kx])
    for oc in range(cout):
        out[:, oc] += float(bias[oc])
    return out


def _tap_slices(k, stride, oh, ow):
    """Kernel offset (i, j) and the strided slices of the padded fine side
    it reads for every coarse pixel."""
    for i in range(k):
        for j in range(k):
            yield i, j, (slice(None), slice(None), slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))


def conv2d_taps(x, weight, bias, stride, pad, gy):
    """A conv's y, dx, dw and db in float64, one ``einsum`` per kernel offset.

    x: (n, cin, h, w), weight: (cout, cin, k, k), bias: (cout,), gy: the
    adjoint of y, (n, cout, h / stride, w / stride).  The vectorized twin of
    ``conv2d_loops``, fast enough for full-size layers: each offset (i, j)
    pairs ``weight[:, :, i, j]`` with a strided slice of the zero-padded
    input, forward, in the adjoint direction (dx) and against the output
    adjoint (dw).  It builds no phase plane, unfold or GEMM operand.
    """
    n, cin, h, w = x.shape
    cout, _, k, _ = weight.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    wd, gy = weight.astype(np.float64), gy.astype(np.float64)
    oh, ow = gy.shape[2:]
    y = np.zeros((n, cout, oh, ow))
    dxp, dw = np.zeros_like(xp), np.zeros((cout, cin, k, k))
    for i, j, window in _tap_slices(k, stride, oh, ow):
        y += np.einsum("oc,bcqr->boqr", wd[:, :, i, j], xp[window])
        dxp[window] += np.einsum("oc,boqr->bcqr", wd[:, :, i, j], gy)
        dw[:, :, i, j] = np.einsum("boqr,bcqr->oc", gy, xp[window])
    y += np.asarray(bias, dtype=np.float64).reshape(1, -1, 1, 1)
    return y, dxp[:, :, pad : pad + h, pad : pad + w], dw, gy.sum(axis=(0, 2, 3))


def deconv2d_taps(x, weight, bias, stride, pad, gy):
    """A transposed conv's y, dx, dw and db in float64, as ``conv2d_taps``
    read backwards: its forward is the conv's dx, its dx the conv's
    forward, and its dw the conv's with x and gy swapped.

    x: (n, cin, h, w), weight: (cin, cout, k, k), bias: (cout,), gy:
    (n, cout, h * stride, w * stride).
    """
    # the conv this is the adjoint of maps gy's side onto x's side
    dx, y, dw, _ = conv2d_taps(gy, weight, np.zeros(x.shape[1]), stride, pad, x)
    y += np.asarray(bias, dtype=np.float64).reshape(1, -1, 1, 1)
    return y, dx, dw, gy.astype(np.float64).sum(axis=(0, 2, 3))


def ssim_windows(a, b, size=11, sigma=1.5, c1=(0.01 * 255) ** 2, c2=(0.03 * 255) ** 2):
    """Structural similarity from explicit per-window statistics.

    a, b: (h, w) single-channel float arrays.  Returns the mean over all
    valid window positions.
    """
    h, w = a.shape
    half = size // 2
    win = np.zeros((size, size), dtype=np.float64)
    for i in range(size):
        for j in range(size):
            dy = i - half
            dx = j - half
            win[i, j] = np.exp(-(dy * dy + dx * dx) / (2.0 * sigma * sigma))
    win /= win.sum()
    values = []
    for y in range(h - size + 1):
        for x in range(w - size + 1):
            pa = a[y : y + size, x : x + size].astype(np.float64)
            pb = b[y : y + size, x : x + size].astype(np.float64)
            mu_a = float((win * pa).sum())
            mu_b = float((win * pb).sum())
            var_a = float((win * pa * pa).sum()) - mu_a * mu_a
            var_b = float((win * pb * pb).sum()) - mu_b * mu_b
            cov = float((win * pa * pb).sum()) - mu_a * mu_b
            num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
            den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
            values.append(num / den)
    return float(np.mean(values))


def numeric_gradient(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an ndarray."""
    g = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        fp = f(x)
        flat_x[i] = orig - eps
        fm = f(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2 * eps)
    return g


def bilinear_resize_expression(arr, out_h, out_w):
    """Bilinear resize with half-pixel centers and edge replication, written
    as one float64 expression per blend over freshly gathered copies.

    arr: (n, c, h, w).  Returns float64 (n, c, out_h, out_w).  The fast path
    must match it bit for bit once cast to the input dtype.
    """

    def axis(src, dst):
        coords = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
        lo = np.floor(coords).astype(np.int64)
        frac = coords - lo
        return np.clip(lo, 0, src - 1), np.clip(lo + 1, 0, src - 1), frac

    arr = arr.astype(np.float64)
    _, _, h, w = arr.shape
    ylo, yhi, fy = axis(h, out_h)
    xlo, xhi, fx = axis(w, out_w)
    top = arr[:, :, ylo][:, :, :, xlo] * (1 - fx) + arr[:, :, ylo][:, :, :, xhi] * fx
    bot = arr[:, :, yhi][:, :, :, xlo] * (1 - fx) + arr[:, :, yhi][:, :, :, xhi] * fx
    return top * (1 - fy)[:, np.newaxis] + bot * fy[:, np.newaxis]
