"""Convolution stack tests: values vs loop oracles, adjointness, shape laws."""

import tracemalloc

import numpy as np
import pytest

from oracles import conv2d_loops, deconv2d_scatter, numeric_gradient

from sgen import (
    ConvParams,
    DeconvParams,
    Tape,
    Tensor,
    backward,
    conv2d,
    conv_params,
    deconv2d,
    deconv_params,
    global_avg_pool,
)
from sgen.autodiff import mul, sum_all
from sgen.nn import he_std


def _conv(rng, cin, cout, factor, dtype=np.float64, kernel=None):
    return conv_params(cin, cout, factor, rng, dtype=dtype, kernel=kernel)


# ---------------------------------------------------------------------------
# parameter construction


def test_pooling_kernel_rule():
    rng = np.random.default_rng(0)
    for factor, kernel, pad in [(1, 3, 1), (2, 4, 1), (4, 8, 2), (8, 16, 4)]:
        p = _conv(rng, 2, 3, factor)
        assert p.kernel == kernel
        assert p.padding == pad
        assert p.stride == factor


def test_kernel_override_and_compatibility():
    rng = np.random.default_rng(0)
    p1 = conv_params(4, 2, 1, rng, kernel=1)
    assert (p1.kernel, p1.padding) == (1, 0)
    p5 = conv_params(4, 2, 1, rng, kernel=5)
    assert (p5.kernel, p5.padding) == (5, 2)
    with pytest.raises(ValueError, match="kernel 4 incompatible with stride 1"):
        conv_params(4, 2, 1, rng, kernel=4)


def test_fresh_params_shapes_and_flags():
    rng = np.random.default_rng(1)
    p = conv_params(3, 8, 2, rng, dtype=np.float32)
    assert p.weight.shape == (8, 3, 4, 4)
    assert p.bias.shape == (1, 8, 1, 1)
    assert p.weight.requires_grad and p.bias.requires_grad
    assert p.weight.dtype == np.float32
    np.testing.assert_array_equal(p.bias.data, 0.0)
    d = deconv_params(8, 3, 2, rng)
    assert d.weight.shape == (8, 3, 4, 4)
    assert d.bias.shape == (1, 3, 1, 1)


def test_he_std_formula():
    assert he_std(4, 3, 3) == pytest.approx(np.sqrt(2.0 / 36.0))
    rng = np.random.default_rng(2)
    # large sample: empirical std within 5% of the target scale
    p = conv_params(8, 256, 1, rng)
    assert np.std(p.weight.data) == pytest.approx(he_std(8, 3, 3), rel=0.05)


def test_zero_weight_std_gives_zero_weights():
    rng = np.random.default_rng(3)
    p = conv_params(2, 2, 1, rng, weight_std=0.0)
    np.testing.assert_array_equal(p.weight.data, 0.0)


def test_deconv_stride_must_be_power_of_two():
    rng = np.random.default_rng(4)
    w = Tensor(np.zeros((2, 3, 6, 6), dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32), requires_grad=True)
    for bad in (1, 3, 6):
        with pytest.raises(ValueError, match="power of two"):
            DeconvParams(weight=w, bias=b, stride=bad, padding=1)


def test_bias_shape_is_validated():
    w = Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32))
    bad_bias = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError, match="bias shape"):
        ConvParams(weight=w, bias=bad_bias, stride=1, padding=1)


# ---------------------------------------------------------------------------
# conv2d forward values


def test_delta_kernel_is_identity():
    rng = np.random.default_rng(5)
    w = np.zeros((2, 2, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    w[1, 1, 1, 1] = 1.0
    p = ConvParams(
        weight=Tensor(w),
        bias=Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32)),
        stride=1,
        padding=1,
    )
    x = Tensor(rng.normal(size=(1, 2, 5, 6)).astype(np.float32))
    np.testing.assert_array_equal(conv2d(x, p).data, x.data)


def test_zero_weights_output_bias():
    bias = np.array([1.5, -2.0], dtype=np.float32).reshape(1, 2, 1, 1)
    p = ConvParams(
        weight=Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32)),
        bias=Tensor(bias),
        stride=1,
        padding=1,
    )
    x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32))
    out = conv2d(x, p)
    np.testing.assert_array_equal(out.data, np.broadcast_to(bias, (2, 2, 4, 4)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor", [1, 2, 4])
def test_conv2d_matches_loop_oracle(seed, factor):
    rng = np.random.default_rng(seed)
    cin, cout = 3, 2
    h = w = 8
    p = _conv(rng, cin, cout, factor)
    p.bias.data[:] = rng.normal(size=p.bias.shape)
    x = Tensor(rng.normal(size=(2, cin, h, w)))
    got = conv2d(x, p).data
    want = conv2d_loops(
        x.data, p.weight.data, p.bias.data.ravel(), p.stride, p.padding
    )
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor", [2, 4])
def test_deconv2d_matches_scatter_oracle(seed, factor):
    rng = np.random.default_rng(seed)
    cin, cout = 2, 3
    p = deconv_params(cin, cout, factor, rng, dtype=np.float64)
    p.bias.data[:] = rng.normal(size=p.bias.shape)
    x = Tensor(rng.normal(size=(2, cin, 4, 4)))
    got = deconv2d(x, p).data
    want = deconv2d_scatter(
        x.data, p.weight.data, p.bias.data.ravel(), p.stride, p.padding
    )
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("factor", [2, 4, 8])
def test_conv_deconv_adjoint_identity(factor):
    """<conv(x), y> must equal <x, deconv(y)> when both share one weight array."""
    rng = np.random.default_rng(factor)
    cin, cout = 4, 2
    h = w = 16
    cp = _conv(rng, cin, cout, factor)
    cp.bias.data[:] = 0.0
    dp = DeconvParams(
        weight=cp.weight,  # (cout, cin, k, k) read as (in, out, k, k)
        bias=Tensor(np.zeros((1, cin, 1, 1), dtype=np.float64)),
        stride=cp.stride,
        padding=cp.padding,
    )
    x = Tensor(rng.normal(size=(2, cin, h, w)))
    y = Tensor(rng.normal(size=(2, cout, h // factor, w // factor)))
    lhs = float((conv2d(x, cp).data * y.data).sum())
    rhs = float((x.data * deconv2d(y, dp).data).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ---------------------------------------------------------------------------
# shape laws and guards


@pytest.mark.parametrize("factor", [1, 2, 4, 8])
def test_conv_halving_and_deconv_doubling_shapes(factor):
    rng = np.random.default_rng(6)
    x = Tensor(np.zeros((1, 2, 16, 32), dtype=np.float32))
    p = conv_params(2, 5, factor, rng, dtype=np.float32)
    assert conv2d(x, p).shape == (1, 5, 16 // factor, 32 // factor)
    if factor >= 2:
        d = deconv_params(2, 5, factor, rng, dtype=np.float32)
        assert deconv2d(x, d).shape == (1, 5, 16 * factor, 32 * factor)


def test_conv2d_rejects_channel_mismatch():
    rng = np.random.default_rng(7)
    p = conv_params(3, 4, 1, rng, dtype=np.float32)
    x = Tensor(np.zeros((1, 5, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="input has 5 channels, kernel expects 3"):
        conv2d(x, p)


def test_conv2d_rejects_indivisible_spatial_dims():
    rng = np.random.default_rng(8)
    p = conv_params(1, 1, 2, rng, dtype=np.float32)
    x = Tensor(np.zeros((1, 1, 7, 8), dtype=np.float32))
    with pytest.raises(ValueError, match=r"\(7, 8\) not divisible by stride 2"):
        conv2d(x, p)


def test_conv2d_rejects_dtype_mismatch():
    rng = np.random.default_rng(9)
    p = conv_params(1, 1, 1, rng, dtype=np.float64)
    x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="dtype mismatch"):
        conv2d(x, p)


def test_deconv2d_rejects_channel_mismatch():
    rng = np.random.default_rng(10)
    d = deconv_params(2, 3, 2, rng, dtype=np.float32)
    x = Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="input has 4 channels, kernel expects 2"):
        deconv2d(x, d)


# ---------------------------------------------------------------------------
# gradients vs the standalone numeric oracle


def test_conv2d_weight_and_bias_gradients_match_numeric():
    rng = np.random.default_rng(11)
    cin, cout = 2, 3
    x_arr = rng.normal(size=(2, cin, 6, 6))
    w_arr = rng.normal(0.0, 0.3, size=(cout, cin, 4, 4))
    b_arr = rng.normal(size=(1, cout, 1, 1))
    proj = rng.normal(size=(2, cout, 3, 3))

    def run(w, b):
        p = ConvParams(
            weight=Tensor(w, requires_grad=True),
            bias=Tensor(b, requires_grad=True),
            stride=2,
            padding=1,
        )
        return p, conv2d(Tensor(x_arr), p)

    with Tape() as tape:
        p, out = run(w_arr, b_arr)
        loss = sum_all(mul(out, Tensor(proj)))
    backward(tape, loss)

    num_w = numeric_gradient(
        lambda w: float((conv2d_loops(x_arr, w, b_arr.ravel(), 2, 1) * proj).sum()),
        w_arr.copy(),
    )
    num_b = numeric_gradient(
        lambda b: float((conv2d_loops(x_arr, w_arr, b.ravel(), 2, 1) * proj).sum()),
        b_arr.copy(),
    )
    np.testing.assert_allclose(p.weight.grad, num_w, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(p.bias.grad, num_b, rtol=1e-6, atol=1e-8)


def test_deconv2d_input_gradient_matches_numeric():
    rng = np.random.default_rng(12)
    d = deconv_params(2, 2, 2, rng, dtype=np.float64)
    x_arr = rng.normal(size=(1, 2, 3, 3))
    proj = rng.normal(size=(1, 2, 6, 6))

    x = Tensor(x_arr, requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(deconv2d(x, d), Tensor(proj)))
    backward(tape, loss)

    num = numeric_gradient(
        lambda a: float(
            (deconv2d_scatter(a, d.weight.data, d.bias.data.ravel(), 2, 1) * proj).sum()
        ),
        x_arr.copy(),
    )
    np.testing.assert_allclose(x.grad, num, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# global average pooling


def test_global_avg_pool_values_and_gradient():
    x_arr = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
    x = Tensor(x_arr, requires_grad=True)
    out = global_avg_pool(x)
    assert out.shape == (2, 3, 1, 1)
    np.testing.assert_allclose(out.data.ravel(), x_arr.mean(axis=(2, 3)).ravel())

    proj = np.ones((2, 3, 1, 1), dtype=np.float32)
    with Tape() as tape:
        loss = sum_all(mul(global_avg_pool(x), Tensor(proj)))
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, np.full_like(x_arr, 0.25))


# ---------------------------------------------------------------------------
# both unfold sides: the kernels unfold whichever side has fewer channels, so
# (1 -> 5), (5 -> 1) and (4 -> 4) run each branch of forward and backward

_CHANNEL_PAIRS = [(1, 5), (5, 1), (4, 4)]


@pytest.mark.parametrize("cin, cout", _CHANNEL_PAIRS)
@pytest.mark.parametrize("factor, kernel", [(1, None), (2, None), (4, None), (8, None), (1, 1)])
def test_conv2d_matches_loop_oracle_on_both_unfold_sides(cin, cout, factor, kernel):
    rng = np.random.default_rng(20 + factor)
    p = _conv(rng, cin, cout, factor, kernel=kernel)
    p.bias.data[:] = rng.normal(size=p.bias.shape)
    h, w = (5, 7) if factor == 1 else (3 * factor, 2 * factor)
    x = Tensor(rng.normal(size=(3, cin, h, w)))
    got = conv2d(x, p).data
    want = conv2d_loops(x.data, p.weight.data, p.bias.data.ravel(), p.stride, p.padding)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("cin, cout", _CHANNEL_PAIRS)
@pytest.mark.parametrize("factor", [2, 4, 8])
def test_deconv2d_matches_scatter_oracle_on_both_unfold_sides(cin, cout, factor):
    rng = np.random.default_rng(30 + factor)
    p = deconv_params(cin, cout, factor, rng, dtype=np.float64)
    p.bias.data[:] = rng.normal(size=p.bias.shape)
    x = Tensor(rng.normal(size=(3, cin, 3, 2)))
    got = deconv2d(x, p).data
    want = deconv2d_scatter(x.data, p.weight.data, p.bias.data.ravel(), p.stride, p.padding)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("cin, cout", [(2, 3), (3, 2)])
def test_deconv2d_weight_and_bias_gradients_match_numeric(cin, cout):
    rng = np.random.default_rng(13)
    x_arr = rng.normal(size=(2, cin, 3, 2))
    w_arr = rng.normal(0.0, 0.3, size=(cin, cout, 4, 4))
    b_arr = rng.normal(size=(1, cout, 1, 1))
    proj = rng.normal(size=(2, cout, 6, 4))

    d = DeconvParams(
        weight=Tensor(w_arr, requires_grad=True),
        bias=Tensor(b_arr, requires_grad=True),
        stride=2,
        padding=1,
    )
    with Tape() as tape:
        loss = sum_all(mul(deconv2d(Tensor(x_arr), d), Tensor(proj)))
    backward(tape, loss)

    num_w = numeric_gradient(
        lambda w: float((deconv2d_scatter(x_arr, w, b_arr.ravel(), 2, 1) * proj).sum()),
        w_arr.copy(),
    )
    num_b = numeric_gradient(
        lambda b: float((deconv2d_scatter(x_arr, w_arr, b.ravel(), 2, 1) * proj).sum()),
        b_arr.copy(),
    )
    np.testing.assert_allclose(d.weight.grad, num_w, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(d.bias.grad, num_b, rtol=1e-6, atol=1e-8)


def _forward_backward(op, p, x_arr, proj):
    x = Tensor(x_arr.copy(), requires_grad=True)
    p.weight.grad = p.bias.grad = None
    with Tape() as tape:
        y = op(x, p)
        loss = sum_all(mul(y, Tensor(proj)))
    backward(tape, loss)
    return [a.tobytes() for a in (y.data, x.grad, p.weight.grad, p.bias.grad)]


@pytest.mark.parametrize("cin, cout", _CHANNEL_PAIRS)
@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_forward_and_backward_repeat_byte_for_byte(kind, cin, cout):
    rng = np.random.default_rng(40)
    if kind == "conv":
        op, p = conv2d, conv_params(cin, cout, 2, rng, dtype=np.float32)
        x_arr, out_hw = rng.normal(size=(3, cin, 8, 12)), (4, 6)
    else:
        op, p = deconv2d, deconv_params(cin, cout, 4, rng, dtype=np.float32)
        x_arr, out_hw = rng.normal(size=(3, cin, 2, 3)), (8, 12)
    x_arr = x_arr.astype(np.float32)
    proj = rng.normal(size=(3, cout) + out_hw).astype(np.float32)
    assert _forward_backward(op, p, x_arr, proj) == _forward_backward(op, p, x_arr, proj)


def test_thin_output_conv_does_not_unfold_its_wide_input():
    """A 64 -> 3 conv must not build the 9x-wide unfold of its input."""
    rng = np.random.default_rng(50)
    p = conv_params(64, 3, 1, rng, dtype=np.float32)
    x = Tensor(rng.normal(size=(2, 64, 64, 48)).astype(np.float32), requires_grad=True)
    proj = Tensor(rng.normal(size=(2, 3, 64, 48)).astype(np.float32))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = sum_all(mul(conv2d(x, p), proj))
        backward(tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None and p.weight.grad is not None
    assert peak < 4 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input"


@pytest.mark.parametrize("kernel, stride, pad", [(1, 2, 0), (2, 2, 0), (5, 1, 2), (6, 4, 1)])
def test_other_geometries_match_oracles(kernel, stride, pad):
    """A reach of two pixels, uneven taps per phase, and phase planes no tap reads."""
    rng = np.random.default_rng(60 + kernel)
    w = rng.normal(size=(2, 3, kernel, kernel))
    b = rng.normal(size=(1, 2, 1, 1))
    p = ConvParams(weight=Tensor(w), bias=Tensor(b), stride=stride, padding=pad)
    x_arr = rng.normal(size=(2, 3, 3 * stride, 2 * stride))
    want = conv2d_loops(x_arr, w, b.ravel(), stride, pad)
    proj = rng.normal(size=want.shape)
    x = Tensor(x_arr.copy(), requires_grad=True)
    with Tape() as tape:
        out = conv2d(x, p)
        loss = sum_all(mul(out, Tensor(proj)))
    backward(tape, loss)
    np.testing.assert_allclose(out.data, want, rtol=1e-6, atol=1e-12)
    num = numeric_gradient(
        lambda a: float((conv2d_loops(a, w, b.ravel(), stride, pad) * proj).sum()), x_arr.copy()
    )
    np.testing.assert_allclose(x.grad, num, rtol=1e-6, atol=1e-8)
    if stride >= 2:
        d_bias = Tensor(rng.normal(size=(1, 3, 1, 1)))
        d = DeconvParams(weight=Tensor(w), bias=d_bias, stride=stride, padding=pad)
        y = rng.normal(size=(2, 2, 3, 2))
        want_d = deconv2d_scatter(y, w, d.bias.data.ravel(), stride, pad)
        np.testing.assert_allclose(deconv2d(Tensor(y), d).data, want_d, rtol=1e-6, atol=1e-12)
