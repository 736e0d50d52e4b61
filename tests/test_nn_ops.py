"""Convolution stack tests: values vs loop oracles, adjointness, shape laws."""

import hashlib
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from oracles import conv2d_loops, conv2d_taps, deconv2d_scatter, deconv2d_taps, numeric_gradient

from sgen import (
    ConvParams,
    RunConfig,
    Tape,
    Tensor,
    backward,
    conv2d,
    deconv2d,
    global_avg_pool,
)
from sgen.autodiff import activation, lrelu, mul, record, relu, sigmoid, sum_all, tanh
from sgen.checks import CONV_ROWS
from sgen.model import (
    build_discriminator,
    build_generator,
    discriminator_forward,
    discriminator_sites,
    generator_forward,
    generator_sites,
)
from sgen.nn import draw, param_shapes


# the kernel these tests draw a conv or deconv with at each stride
KERNEL = {1: 3, 2: 4, 4: 8, 6: 12, 8: 16}


def _conv(rng, cin, cout, factor, dtype=np.float64, kernel=None):
    return draw("conv", cin, cout, kernel or KERNEL[factor], rng, dtype=dtype)


# ---------------------------------------------------------------------------
# parameter construction


def test_pooling_kernel_rule():
    rng = np.random.default_rng(0)
    for factor, kernel, pad in [(1, 3, 1), (2, 4, 1), (4, 8, 2), (8, 16, 4)]:
        p = draw("conv", 2, 3, kernel, rng)
        assert p.kernel == kernel
        assert p.padding == pad
        assert p.stride == factor


def test_odd_kernels_keep_the_size():
    rng = np.random.default_rng(0)
    p1 = draw("conv", 4, 2, 1, rng)
    assert (p1.kernel, p1.stride, p1.padding) == (1, 1, 0)
    p5 = draw("conv", 4, 2, 5, rng)
    assert (p5.kernel, p5.stride, p5.padding) == (5, 1, 2)


def test_fresh_params_shapes_and_flags():
    rng = np.random.default_rng(1)
    p = draw("conv", 3, 8, 4, rng, dtype=np.float32)
    assert p.weight.shape == (8, 3, 4, 4)
    assert p.bias.shape == (1, 8, 1, 1)
    assert p.weight.requires_grad and p.bias.requires_grad
    assert p.weight.dtype == np.float32
    np.testing.assert_array_equal(p.bias.data, 0.0)
    d = draw("deconv", 8, 3, 4, rng)
    assert d.weight.shape == (8, 3, 4, 4)
    assert d.bias.shape == (1, 3, 1, 1)


def test_param_shapes_lay_a_deconv_out_as_the_conv_it_is_the_adjoint_of():
    assert param_shapes("conv", 3, 8, 4) == ((8, 3, 4, 4), (1, 8, 1, 1))
    assert param_shapes("deconv", 8, 3, 4) == ((8, 3, 4, 4), (1, 3, 1, 1))


def test_param_shapes_and_draw_reject_an_unknown_op():
    with pytest.raises(ValueError, match="unknown op 'dconv': an op is 'conv' or 'deconv'"):
        param_shapes("dconv", 3, 2, 4)
    with pytest.raises(ValueError, match="unknown op 'conv2d'"):
        draw("conv2d", 3, 2, 4, np.random.default_rng(0))


def test_he_std_formula():
    rng = np.random.default_rng(2)
    # large sample: empirical std within 5% of the He scale sqrt(2 / (c_in k^2))
    p = draw("conv", 8, 256, 3, rng)
    assert np.std(p.weight.data) == pytest.approx(np.sqrt(2.0 / (8 * 3 * 3)), rel=0.05)


def test_zero_weight_std_gives_zero_weights():
    rng = np.random.default_rng(3)
    p = draw("conv", 2, 2, 3, rng, std=0.0)
    np.testing.assert_array_equal(p.weight.data, 0.0)


def test_params_take_their_geometry_from_the_kernel_alone():
    b = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
    for k in (0, 2, 6):
        w = Tensor(np.zeros((2, 3, k, k), dtype=np.float32))
        with pytest.raises(ValueError, match=f"kernel {k} pools by no factor"):
            ConvParams(weight=w, bias=b)
    with pytest.raises(ValueError, match="kernel must be square, got 4x8"):
        ConvParams(weight=Tensor(np.zeros((2, 3, 4, 8), dtype=np.float32)), bias=b)
    w = Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32))
    with pytest.raises(TypeError):
        ConvParams(weight=w, bias=b, stride=1, padding=1)


def test_bias_shape_is_validated():
    w = Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32))
    bad_bias = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
    x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="bias shape"):
        conv2d(x, ConvParams(weight=w, bias=bad_bias))


# ---------------------------------------------------------------------------
# conv2d forward values


def test_delta_kernel_is_identity():
    rng = np.random.default_rng(5)
    w = np.zeros((2, 2, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    w[1, 1, 1, 1] = 1.0
    p = ConvParams(weight=Tensor(w), bias=Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32)))
    x = Tensor(rng.normal(size=(1, 2, 5, 6)).astype(np.float32))
    np.testing.assert_array_equal(conv2d(x, p).data, x.data)


def test_zero_weights_output_bias():
    bias = np.array([1.5, -2.0], dtype=np.float32).reshape(1, 2, 1, 1)
    p = ConvParams(weight=Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32)), bias=Tensor(bias))
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
@pytest.mark.parametrize("factor", [1, 2, 4, 6])
def test_deconv2d_matches_scatter_oracle(seed, factor):
    rng = np.random.default_rng(seed)
    cin, cout = 2, 3
    p = draw("deconv", cin, cout, KERNEL[factor], rng, dtype=np.float64)
    p.bias.data[:] = rng.normal(size=p.bias.shape)
    x = Tensor(rng.normal(size=(2, cin, 4, 4)))
    got = deconv2d(x, p).data
    want = deconv2d_scatter(
        x.data, p.weight.data, p.bias.data.ravel(), p.stride, p.padding
    )
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("factor", [1, 2, 4, 6, 8])
def test_conv_deconv_adjoint_identity(factor):
    """<conv(x), y> must equal <x, deconv(y)> when both share one weight array."""
    rng = np.random.default_rng(factor)
    cin, cout = 4, 2
    h = w = 24  # every factor divides it
    cp = _conv(rng, cin, cout, factor)
    cp.bias.data[:] = 0.0
    dp = ConvParams(
        weight=cp.weight,  # (cout, cin, k, k) read as (in, out, k, k)
        bias=Tensor(np.zeros((1, cin, 1, 1), dtype=np.float64)),
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
    p = draw("conv", 2, 5, KERNEL[factor], rng, dtype=np.float32)
    assert conv2d(x, p).shape == (1, 5, 16 // factor, 32 // factor)
    d = draw("deconv", 2, 5, KERNEL[factor], rng, dtype=np.float32)
    assert deconv2d(x, d).shape == (1, 5, 16 * factor, 32 * factor)


def test_conv2d_rejects_channel_mismatch():
    rng = np.random.default_rng(7)
    p = draw("conv", 3, 4, 3, rng, dtype=np.float32)
    x = Tensor(np.zeros((1, 5, 8, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="input has 5 channels, kernel expects 3"):
        conv2d(x, p)


def test_conv2d_rejects_indivisible_spatial_dims():
    rng = np.random.default_rng(8)
    p = draw("conv", 1, 1, 4, rng, dtype=np.float32)
    x = Tensor(np.zeros((1, 1, 7, 8), dtype=np.float32))
    with pytest.raises(ValueError, match=r"\(7, 8\) not divisible by stride 2"):
        conv2d(x, p)


def test_conv2d_rejects_dtype_mismatch():
    rng = np.random.default_rng(9)
    p = draw("conv", 1, 1, 3, rng, dtype=np.float64)
    x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="dtype mismatch"):
        conv2d(x, p)


def test_deconv2d_rejects_channel_mismatch():
    rng = np.random.default_rng(10)
    d = draw("deconv", 2, 3, 4, rng, dtype=np.float32)
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
        p = ConvParams(weight=Tensor(w, requires_grad=True), bias=Tensor(b, requires_grad=True))
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
    d = draw("deconv", 2, 2, 4, rng, dtype=np.float64)
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


@pytest.mark.parametrize("factor", [1, 6])
def test_deconv2d_input_weight_and_bias_gradients_match_numeric(factor):
    """Strides that are not powers of two run the same body."""
    rng = np.random.default_rng(14 + factor)
    k = KERNEL[factor]
    x_arr = rng.normal(size=(1, 2, 2, 3))
    w_arr = rng.normal(0.0, 0.3, size=(2, 1, k, k))
    b_arr = rng.normal(size=(1, 1, 1, 1))
    proj = rng.normal(size=(1, 1, 2 * factor, 3 * factor))
    x = Tensor(x_arr, requires_grad=True)
    d = ConvParams(weight=Tensor(w_arr, requires_grad=True), bias=Tensor(b_arr, requires_grad=True))

    def value(x, w, b):
        return float((deconv2d_scatter(x, w, b.ravel(), d.stride, d.padding) * proj).sum())

    with Tape() as tape:
        loss = sum_all(mul(deconv2d(x, d), Tensor(proj)))
    backward(tape, loss)

    num_x = numeric_gradient(lambda a: value(a, w_arr, b_arr), x_arr.copy())
    num_w = numeric_gradient(lambda w: value(x_arr, w, b_arr), w_arr.copy())
    num_b = numeric_gradient(lambda b: value(x_arr, w_arr, b), b_arr.copy())
    np.testing.assert_allclose(x.grad, num_x, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(d.weight.grad, num_w, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(d.bias.grad, num_b, rtol=1e-6, atol=1e-8)


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
    p = draw("deconv", cin, cout, KERNEL[factor], rng, dtype=np.float64)
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

    d = ConvParams(weight=Tensor(w_arr, requires_grad=True), bias=Tensor(b_arr, requires_grad=True))
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
        op, p = conv2d, draw("conv", cin, cout, 4, rng, dtype=np.float32)
        x_arr, out_hw = rng.normal(size=(3, cin, 8, 12)), (4, 6)
    else:
        op, p = deconv2d, draw("deconv", cin, cout, 8, rng, dtype=np.float32)
        x_arr, out_hw = rng.normal(size=(3, cin, 2, 3)), (8, 12)
    x_arr = x_arr.astype(np.float32)
    proj = rng.normal(size=(3, cout) + out_hw).astype(np.float32)
    assert _forward_backward(op, p, x_arr, proj) == _forward_backward(op, p, x_arr, proj)


def test_thin_output_conv_does_not_unfold_its_wide_input():
    """A 64 -> 3 conv must not build the 9x-wide unfold of its input."""
    rng = np.random.default_rng(50)
    p = draw("conv", 64, 3, 3, rng, dtype=np.float32)
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


@pytest.mark.parametrize("kernel, stride, pad", [(5, 1, 2)])
def test_other_geometries_match_oracles(kernel, stride, pad):
    """A reach of two pixels."""
    rng = np.random.default_rng(60 + kernel)
    w = rng.normal(size=(2, 3, kernel, kernel))
    b = rng.normal(size=(1, 2, 1, 1))
    p = ConvParams(weight=Tensor(w), bias=Tensor(b))
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


# ---------------------------------------------------------------------------
# (o, c) = (2, 3) runs the GEMM first on the fine side, (5, 1) unfolds it


@pytest.mark.parametrize("x_grad", [False, True])
@pytest.mark.parametrize("o, c", [(2, 3), (5, 1)])
@pytest.mark.parametrize("kernel, stride, pad", [pytest.param(5, 1, 2, id="conv-5-1-2")])
def test_other_geometries_weight_and_bias_gradients_match_numeric(kernel, stride, pad, o, c, x_grad):
    rng = np.random.default_rng(70 + kernel)
    w_arr = rng.normal(size=(o, c, kernel, kernel))
    x_arr = rng.normal(size=(2, c, 3 * stride, 2 * stride))
    b_arr = rng.normal(size=(1, o, 1, 1))

    def value(w, b):
        return conv2d_loops(x_arr, w, b.ravel(), stride, pad)

    proj = rng.normal(size=value(w_arr, b_arr).shape)
    p = ConvParams(
        weight=Tensor(w_arr.copy(), requires_grad=True), bias=Tensor(b_arr.copy(), requires_grad=True)
    )
    with Tape() as tape:
        loss = sum_all(mul(conv2d(Tensor(x_arr, requires_grad=x_grad), p), Tensor(proj)))
    backward(tape, loss)

    num_w = numeric_gradient(lambda w: float((value(w, b_arr) * proj).sum()), w_arr.copy())
    num_b = numeric_gradient(lambda b: float((value(w_arr, b) * proj).sum()), b_arr.copy())
    np.testing.assert_allclose(p.weight.grad, num_w, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(p.bias.grad, num_b, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# one GEMM per primitive, whatever the stride


def _gemms_per_step(monkeypatch, op, p, x_arr, proj) -> int:
    import sgen.nn as nn_module

    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, *args, **kwargs):
            calls.append(1)
            return np.matmul(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(nn_module, "np", CountingNumpy())
        _forward_backward(op, p, x_arr, proj)
    return len(calls)


# 65 channels keep s*s*c <= o at stride 8 as well, so both strides take the
# same branch of every primitive
@pytest.mark.parametrize("cin, cout", _CHANNEL_PAIRS + [(1, 65), (65, 1)])
@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_gemm_count_does_not_grow_with_stride(monkeypatch, kind, cin, cout):
    """A taped forward + backward: one GEMM forward, one each for dx and dw."""
    counts = {}
    for stride in (2, 8):
        rng = np.random.default_rng(80 + stride)
        if kind == "conv":
            op, p = conv2d, draw("conv", cin, cout, KERNEL[stride], rng, dtype=np.float64)
            x_arr, out_hw = rng.normal(size=(2, cin, 2 * stride, 3 * stride)), (2, 3)
        else:
            op, p = deconv2d, draw("deconv", cin, cout, KERNEL[stride], rng, dtype=np.float64)
            x_arr, out_hw = rng.normal(size=(2, cin, 2, 3)), (2 * stride, 3 * stride)
        proj = rng.normal(size=(2, cout) + out_hw)
        counts[stride] = _gemms_per_step(monkeypatch, op, p, x_arr, proj)
    assert counts[8] <= counts[2] == 3, counts


@pytest.mark.parametrize("thin", ["fine", "coarse", "tie"])
@pytest.mark.parametrize("stride", [1, 2, 8])
@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_every_gemm_goes_through_the_seam(monkeypatch, kind, stride, thin):
    """A taped forward + backward makes its three GEMMs through
    ``sgen.nn._gemm`` and no other matmul, whichever side is the thinner:
    the fine side has s*s*c rows and the coarse side o."""
    import sgen.nn as nn_module

    rng = np.random.default_rng(90 + stride)
    seam, gemm = [], nn_module._gemm

    def counted(*args, **kwargs):
        seam.append(1)
        return gemm(*args, **kwargs)

    monkeypatch.setattr(nn_module, "_gemm", counted)
    o, c = {"fine": (stride**2 + 1, 1), "coarse": (1, 3), "tie": (2 * stride**2, 2)}[thin]
    if kind == "conv":
        op, p = conv2d, draw("conv", c, o, KERNEL[stride], rng, dtype=np.float64)
        x_arr, out_hw = rng.normal(size=(2, c, 2 * stride, 3 * stride)), (2, 3)
    else:
        op, p = deconv2d, draw("deconv", o, c, KERNEL[stride], rng, dtype=np.float64)
        x_arr, out_hw = rng.normal(size=(2, o, 2, 3)), (2 * stride, 3 * stride)
    proj = rng.normal(size=(2, p.bias.shape[1]) + out_hw)
    matmuls = _gemms_per_step(monkeypatch, op, p, x_arr, proj)
    assert (len(seam), matmuls) == (3, 3)


# ---------------------------------------------------------------------------
# fused activation epilogue

_STANDALONE = {"relu": relu, "lrelu": lrelu, "sigmoid": sigmoid, "tanh": tanh}


def _kink_case(kind, dtype):
    """Integer-valued data, so every sum is exact and many pre-activations
    are exactly 0: the zero weights into output channel 0 leave it its bias
    of -0.0, and channel 1 cancels its integer sums with a bias of -1.  The
    GEMM returns +0.0 for a zero channel and +0.0 + -0.0 is +0.0, so no
    pre-activation here is -0.0; test_autodiff checks the table there."""
    rng = np.random.default_rng(11)
    w = rng.integers(-1, 2, size=(3, 4, 4, 4)).astype(dtype)  # conv 4 -> 3, deconv 3 -> 4
    if kind == "conv":
        op, x_shape, w[0] = conv2d, (2, 4, 8, 8), 0.0
    else:
        op, x_shape, w[:, 0] = deconv2d, (2, 3, 4, 4), 0.0
    x = rng.integers(-1, 2, size=x_shape).astype(dtype)
    c_out = 3 if kind == "conv" else 4
    b = np.zeros((1, c_out, 1, 1), dtype=dtype)
    b[0, 0], b[0, 1], b[0, 2:] = -0.0, -1.0, 0.5
    return op, x, w, b


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["conv", "deconv"])
@pytest.mark.parametrize("act", ["relu", "lrelu", "sigmoid", "tanh"])
def test_fused_activation_equals_unfused_bit_for_bit(act, kind, dtype):
    """op(x, p, act) and act(op(x, p)): same output and input, weight and
    bias gradients, byte for byte, with the masks exercised at the kink."""
    op, x0, w0, b0 = _kink_case(kind, dtype)
    pre = op(Tensor(x0), ConvParams(Tensor(w0), Tensor(b0))).data
    assert (pre == 0).sum() > 10 and (pre > 0).any() and (pre < 0).any()
    proj = np.random.default_rng(12).normal(size=pre.shape).astype(dtype)

    def run(fused):
        x = Tensor(x0.copy(), requires_grad=True)
        p = ConvParams(Tensor(w0.copy(), requires_grad=True), Tensor(b0.copy(), requires_grad=True))
        with Tape() as tape:
            y = op(x, p, act) if fused else _STANDALONE[act](op(x, p))
            loss = sum_all(mul(y, Tensor(proj)))
        nodes = len(tape)
        backward(tape, loss)
        return [y.data, x.grad, p.weight.grad, p.bias.grad], nodes

    (fused, fused_nodes), (plain, plain_nodes) = run(True), run(False)
    for got, want in zip(fused, plain):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
    assert fused_nodes == plain_nodes - 1


@pytest.mark.parametrize(
    "kind, act", [("conv", "relu"), ("conv", "sigmoid"), ("conv", "tanh"), ("deconv", "relu")]
)
def test_fused_activation_rejects_non_finite_pre_activation(kind, act):
    """A float32 weight so large that every pre-activation overflows to -inf.
    relu, sigmoid and tanh map -inf to finite values, so only a check on the
    pre-activation can see it."""
    w = np.full((1, 1, 4, 4), -3e38, dtype=np.float32)
    p = ConvParams(Tensor(w), Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32)))
    op = conv2d if kind == "conv" else deconv2d
    x = Tensor(np.full((1, 1, 4, 4), 2.0, dtype=np.float32))  # each tap alone overflows
    with np.errstate(over="ignore"):
        assert np.isneginf(op(x, p).data).all()
        with pytest.raises(FloatingPointError, match=f"{act}: input contains non-finite values"):
            op(x, p, act)


def test_unknown_activation_is_rejected():
    p = draw("conv", 1, 1, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown activation 'gelu'"):
        conv2d(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)), p, "gelu")


@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_backward_frees_the_output_adjoint_before_the_weight_gradient(monkeypatch, kind):
    """The bias gradient is taken first and the incoming adjoint dropped
    once its planes are built, so it is gone when the weight-gradient
    kernel runs."""
    import sgen.nn as nn_module

    rng = np.random.default_rng(31)
    if kind == "conv":
        op, p, x_shape = conv2d, draw("conv", 2, 3, 4, rng), (2, 2, 8, 8)
    else:
        op, p, x_shape = deconv2d, draw("deconv", 3, 2, 4, rng), (2, 3, 4, 4)
    x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
    incoming, freed = [], []
    wgrad = nn_module._wgrad

    def watched(*args, **kwargs):
        freed.append(incoming[0]() is None)
        return wgrad(*args, **kwargs)

    def rule(g):
        gy = np.ones(y.shape, dtype=np.float32)
        incoming.append(weakref.ref(gy))
        return (gy,)

    monkeypatch.setattr(nn_module, "_wgrad", watched)
    with Tape() as tape:
        y = op(x, p)
        loss = sum_all(record((y,), Tensor(y.data.copy()), rule))
    backward(tape, loss)
    assert freed == [True]
    assert x.grad is not None and p.bias.grad is not None


@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_backward_frees_the_activated_output_before_the_weight_gradient(monkeypatch, kind):
    """The epilogue's derivative is the last hold on y: the backward drops it
    once the adjoint is mapped, so y is gone when the weight-gradient kernel
    runs."""
    import sgen.nn as nn_module

    rng = np.random.default_rng(32)
    if kind == "conv":
        op, p, x_shape = conv2d, draw("conv", 2, 3, 4, rng), (2, 2, 8, 8)
    else:
        op, p, x_shape = deconv2d, draw("deconv", 3, 2, 4, rng), (2, 3, 4, 4)
    x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
    output, freed = [], []
    wgrad = nn_module._wgrad

    def watched(*args, **kwargs):
        freed.append(output[0]() is None)
        return wgrad(*args, **kwargs)

    monkeypatch.setattr(nn_module, "_wgrad", watched)
    with Tape() as tape:
        y = op(x, p, "sigmoid")
        loss = sum_all(y)
    output.append(weakref.ref(y.data))
    del y
    backward(tape, loss)
    assert freed == [True]
    assert x.grad is not None and p.weight.grad is not None


@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_backward_frees_the_input_planes_before_the_input_gradient_copy(monkeypatch, kind):
    """The weight gradient builds the input's planes inside its own call, so
    they, like the forward's, are gone when dx's image copy runs."""
    import sgen.nn as nn_module

    rng = np.random.default_rng(33)
    if kind == "conv":
        op, p, x_shape = conv2d, draw("conv", 2, 3, 4, rng), (2, 2, 8, 8)
    else:
        op, p, x_shape = deconv2d, draw("deconv", 3, 2, 4, rng), (2, 3, 4, 4)
    x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
    built, dead = [], []
    planes, image = nn_module._planes, nn_module._image

    def watched_planes(a, *args):
        out = planes(a, *args)
        if a is x.data:
            built.append(weakref.ref(out))
        return out

    def watched_image(*args):
        dead.append([ref() is None for ref in built])
        return image(*args)

    monkeypatch.setattr(nn_module, "_planes", watched_planes)
    with Tape() as tape:
        loss = sum_all(op(x, p))
    monkeypatch.setattr(nn_module, "_image", watched_image)
    backward(tape, loss)
    assert dead == [[True, True]]
    assert x.grad is not None and p.weight.grad is not None


@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_the_tie_unfolds_the_input_forward_and_the_output_backward(monkeypatch, kind):
    """At s*s*c == o both sides have as many rows: the forward unfolds its
    input side and the backward its output side, one unfold each, and the
    kernel that maps that side onto the other runs on it.  e = 1 maps onto
    the coarse side, e = -1 onto the fine side."""
    import sgen.nn as nn_module

    rng = np.random.default_rng(34)
    coarse = [("_cols", 1), ("_onto", 1, True)]
    fine = [("_cols", -1), ("_onto", -1, True)]
    if kind == "conv":  # 1 -> 4 at stride 2: input fine, output coarse
        op, p, x_shape, want = conv2d, draw("conv", 1, 4, 4, rng), (2, 1, 8, 8), (coarse, fine)
    else:  # 4 -> 1 at stride 2: input coarse, output fine
        op, p, x_shape, want = deconv2d, draw("deconv", 4, 1, 4, rng), (2, 4, 4, 4), (fine, coarse)
    calls = []
    cols, onto = nn_module._cols, nn_module._onto

    def watched_cols(m, g, lo, hi, e):
        calls.append(("_cols", e))
        return cols(m, g, lo, hi, e)

    def watched_onto(src, weight, g, lo, hi, e, unfold=None, *rest):
        calls.append(("_onto", e, unfold is not None))
        return onto(src, weight, g, lo, hi, e, unfold, *rest)

    monkeypatch.setattr(nn_module, "_cols", watched_cols)
    monkeypatch.setattr(nn_module, "_onto", watched_onto)
    x = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(op(x, p))
    forward = calls[:]
    calls.clear()
    backward(tape, loss)
    assert (forward, calls) == want
    assert x.grad is not None and p.weight.grad is not None


@pytest.mark.parametrize("dtype, shape", [(np.float32, (4, 64, 64, 48)), (np.float64, (2, 4, 6, 5))])
def test_the_tie_takes_the_same_weight_gradient_whether_or_not_the_input_needs_one(dtype, shape):
    """Every SGU gate is a stride-1 3x3 conv that keeps its channels, so
    s*s*c == o: the tie of the unfold rule.  Its backward unfolds the same
    side either way, so the parameter gradients match bit for bit."""
    rng = np.random.default_rng(35)
    p = draw("conv", shape[1], shape[1], 3, rng, dtype=dtype)
    p.bias.data[...] = rng.normal(size=p.bias.shape)
    xd, proj = (rng.normal(size=shape).astype(dtype) for _ in range(2))

    def grads(input_needs_grad):
        p.weight.zero_grad()
        p.bias.zero_grad()
        x = Tensor(xd, requires_grad=input_needs_grad)
        with Tape() as tape:
            loss = sum_all(mul(conv2d(x, p, "sigmoid"), Tensor(proj)))
        backward(tape, loss)
        assert (x.grad is not None) == input_needs_grad
        return p.weight.grad, p.bias.grad

    for got, want in zip(grads(False), grads(True)):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_kernel_bits_are_pinned(golden):
    """The y, dx, dw and db bytes of every op, stride, unfold side and
    activation, as ``tools/golden.py`` prints them on its ``kernels`` line."""
    assert hashlib.sha256(golden.kernel_bytes()).hexdigest()[:16] == "d2c5ed384fd14e54"


# ---------------------------------------------------------------------------
# every generator and critic site at the paper config, against the float64
# tap-sum oracle: the only check of the kernels at full size, where a
# backward unfold spans several blocks

_PAPER = RunConfig()  # 3 levels, widths 32/64, sgu merges, critic widths 32..256
_PAPER_SITES = {**generator_sites(_PAPER), **discriminator_sites(_PAPER)}
# largest |kernel - oracle| over the largest |oracle| of each tensor; float32
# roundoff read at most 6.9e-7 at these shapes
_PAPER_TOL = 1e-5


@pytest.fixture(scope="module")
def paper_site_inputs():
    """Each site's input on a taped batch-1 128x96 forward of both networks."""
    rng = np.random.default_rng(36)
    gen = build_generator(_PAPER, rng)
    disc = build_discriminator(_PAPER, rng)
    image = Tensor(rng.uniform(-1.0, 1.0, size=(1, 3, 128, 96)).astype(np.float32))
    with Tape() as tape:
        discriminator_forward(generator_forward(image, gen, _PAPER), disc, _PAPER)
    store = {**gen, **disc}
    site_of = {id(store[f"{name}.weight"]): name for name in _PAPER_SITES}
    return {site_of[id(inputs[1])]: inputs[0].data for inputs, _ in tape.records()
            if len(inputs) > 1 and id(inputs[1]) in site_of}


@pytest.mark.parametrize("name", list(_PAPER_SITES))
def test_paper_sites_match_the_tap_sum_oracle(paper_site_inputs, name):
    """y, dx, dw and db of the site's op on its own paper-size input, with
    freshly drawn weights (the gates start at zero) and a random bias and
    output adjoint."""
    site = _PAPER_SITES[name]
    rng = np.random.default_rng([36, zlib.crc32(name.encode())])
    p = draw(site.op, site.c_in, site.c_out, site.kernel, rng, np.float32)
    p.bias.data[...] = rng.normal(size=p.bias.shape)
    x = Tensor(paper_site_inputs[name].copy(), requires_grad=True)
    op, oracle = (conv2d, conv2d_taps) if site.op == "conv" else (deconv2d, deconv2d_taps)
    with Tape() as tape:
        y = op(x, p)
        gy = rng.normal(size=y.shape).astype(np.float32)
        loss = sum_all(mul(y, Tensor(gy)))
    backward(tape, loss)
    want = oracle(x.data, p.weight.data, p.bias.data.ravel(), p.stride, p.padding, gy)
    got = (y.data, x.grad, p.weight.grad, p.bias.grad.ravel())
    errors = {part: float(np.abs(a - b).max() / np.abs(b).max()) for part, a, b in zip(("y", "dx", "dw", "db"), got, want)}
    assert max(errors.values()) < _PAPER_TOL, errors


# ---------------------------------------------------------------------------
# the streamed backward: blocks, buffers and lifetimes


def _loop_patches(a, k, stride, pad):
    """(n, c, k*k, oh, ow): what each kernel offset of a conv reads, by
    ``conv2d_loops`` with one delta kernel per offset, channel by channel."""
    delta = np.eye(k * k).reshape(k * k, 1, k, k)
    return np.stack([conv2d_loops(a[:, c : c + 1], delta, np.zeros(k * k), stride, pad) for c in range(a.shape[1])], axis=1)


@pytest.mark.parametrize("op, c_in, c_out, kernel, hw", sorted({row[:1] + row[2:] for row in CONV_ROWS}))
def test_a_backward_over_several_blocks_matches_the_loop_oracles(monkeypatch, op, c_in, c_out, kernel, hw):
    """Each conv and deconv shape of the gradient battery, with the block
    shrunk so each pass of its backward unfold runs at least three blocks,
    the last one short.  y, dx, dw and db against ``conv2d_loops`` and
    ``deconv2d_scatter``: dx through the adjoint identity, dw off the
    oracle's per-offset patches."""
    import sgen.nn as nn_module

    rng = np.random.default_rng(41)
    p = draw(op, c_in, c_out, kernel, rng, np.float64)
    p.bias.data[...] = rng.normal(size=p.bias.shape)
    s, pad = p.stride, p.padding
    apply = conv2d if op == "conv" else deconv2d
    x_arr = rng.normal(size=(2, c_in, hw, hw))
    unfolds, cols = [], nn_module._cols

    def watched(m, g, lo, hi, e):
        unfolds.append((len(g.shifts) * m.shape[0] * m.itemsize, hi - lo))
        return cols(m, g, lo, hi, e)

    def run():
        x = Tensor(x_arr.copy(), requires_grad=True)
        p.weight.grad = p.bias.grad = None
        with Tape() as tape:
            y = apply(x, p)
            proj = rng.normal(size=y.shape)
            loss = sum_all(mul(y, Tensor(proj)))
        unfolds.clear()
        with monkeypatch.context() as m:
            m.setattr(nn_module, "_cols", watched)
            backward(tape, loss)
        return y.data, x.grad, p.weight.grad, p.bias.grad.ravel(), proj

    run()
    column_bytes, span = unfolds[0]
    width = 2 * span // 7
    width -= span % width == 0  # so the last block is short
    monkeypatch.setattr(nn_module, "_BLOCK", column_bytes * width)
    y, dx, dw, db, proj = run()
    assert len(unfolds) >= 3 and max(cols for _, cols in unfolds) == width, unfolds

    w, k = p.weight.data, kernel
    if op == "conv":
        want_y = conv2d_loops(x_arr, w, p.bias.data.ravel(), s, pad)
        want_dx = deconv2d_scatter(proj, w, np.zeros(c_in), s, pad)
        want_dw = np.einsum("boqr,bcpqr->ocp", proj, _loop_patches(x_arr, k, s, pad)).reshape(w.shape)
    else:
        want_y = deconv2d_scatter(x_arr, w, p.bias.data.ravel(), s, pad)
        want_dx = conv2d_loops(proj, w, np.zeros(c_in), s, pad)
        want_dw = np.einsum("bcqr,bopqr->cop", x_arr, _loop_patches(proj, k, s, pad)).reshape(w.shape)
    np.testing.assert_allclose(y, want_y, rtol=1e-6, atol=1e-12)
    for got, want in ((dx, want_dx), (dw, want_dw), (db, proj.sum(axis=(0, 2, 3)))):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("act", ["relu", "lrelu"])
def test_relu_and_lrelu_free_y_before_the_product_exists(act):
    """The derivative reads y's mask and drops y before it allocates the
    product, so y, its mask and the product are never alive at once: the
    rule's peak above what it was handed is the one-byte mask, where
    holding y would add the product too."""
    n = 1 << 18
    rng = np.random.default_rng(42)
    tracemalloc.start()
    try:
        a = rng.normal(size=n).astype(np.float32)
        g = rng.normal(size=n).astype(np.float32)
        grad = activation(act)(a)
        y = weakref.ref(a)
        del a
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = grad(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y() is None and out.shape == (n,)
    assert peak - held < 2 * n, (peak - held) / n


@pytest.mark.parametrize("kind, stride, view", [("conv", 1, True), ("deconv", 2, True), ("conv", 2, False)])
def test_an_unstrided_input_gradient_is_a_view_of_the_unfold_map(monkeypatch, kind, stride, view):
    """With the output side unfolded, dx lands in the buffer the map fills.
    On a one-phase input side (a conv at stride 1, any deconv) that buffer
    already holds dx in place, and dx is handed on as a view of it; a
    strided conv's dx is an image copy."""
    import sgen.nn as nn_module

    rng = np.random.default_rng(43)
    if kind == "conv":  # 4 -> 3: the output side is the thinner
        op, p, x_shape = conv2d, draw("conv", 4, 3, KERNEL[stride], rng), (2, 4, 4 * stride, 6 * stride)
    else:  # 5 -> 1 at stride 2: 4 output rows against 5
        op, p, x_shape = deconv2d, draw("deconv", 5, 1, KERNEL[stride], rng), (2, 5, 4, 6)
    maps, handed = [], []
    onto = nn_module._onto

    def watched(*args):
        maps.append(onto(*args))
        return maps[-1]

    def rule(g):
        handed.append(g)
        return (g,)

    leaf = Tensor(rng.normal(size=x_shape).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        y = op(record((leaf,), Tensor(leaf.data.copy()), rule), p)
        loss = sum_all(mul(y, Tensor(rng.normal(size=y.shape).astype(np.float32))))
    monkeypatch.setattr(nn_module, "_onto", watched)
    backward(tape, loss)
    assert len(maps) == len(handed) == 1
    assert np.shares_memory(handed[0], maps[0]) == view
    np.testing.assert_array_equal(handed[0], leaf.grad)


@pytest.mark.parametrize(
    "op, c_in, c_out, kernel, hw, passes",
    [
        pytest.param("conv", 64, 64, 3, (64, 48), 1, id="sgu-gate"),
        pytest.param("conv", 64, 3, 3, (128, 96), 2, id="out-conv"),
        pytest.param("deconv", 64, 64, 4, (32, 24), 1, id="dec-up"),
    ],
)
def test_no_backward_unfold_is_wider_than_one_block(monkeypatch, op, c_in, c_out, kernel, hw, passes):
    """Paper sites at batch 4.  Each backward pass streams its unfold in
    blocks of at most ``_BLOCK`` bytes that tile one column range in
    order.  A gate unfolds its output for dw and dx in one pass; out.conv's
    27-row unfold is the smaller buffer, so it is built once for dw and
    again for dx after the input planes are freed; dec.up unfolds its
    input for dw and runs dx GEMM-first."""
    import sgen.nn as nn_module

    rng = np.random.default_rng(44)
    p = draw(op, c_in, c_out, kernel, rng, np.float32)
    x = Tensor(rng.normal(size=(4, c_in) + hw).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        y = (conv2d if op == "conv" else deconv2d)(x, p)
        loss = sum_all(mul(y, Tensor(rng.normal(size=y.shape).astype(np.float32))))
    calls, cols = [], nn_module._cols

    def watched(m, g, lo, hi, e):
        out = cols(m, g, lo, hi, e)
        calls.append((lo, hi, out.nbytes))
        return out

    monkeypatch.setattr(nn_module, "_cols", watched)
    backward(tape, loss)
    assert max(nbytes for _, _, nbytes in calls) <= nn_module._BLOCK
    runs = [[calls[0]]]
    for call in calls[1:]:
        if call[0] == runs[-1][-1][1]:
            runs[-1].append(call)
        else:
            runs.append([call])
    assert len(runs) == passes
    assert len({(run[0][0], run[-1][1]) for run in runs}) == 1  # every pass covers the same columns
    assert all(len(run) >= 2 for run in runs)
