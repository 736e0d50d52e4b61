"""Engine-level tests: tensor invariants, taped ops, backward semantics."""

import weakref

import numpy as np
import pytest

from conftest import scalar, t4
from oracles import numeric_gradient

from sgen import Tape, Tensor, backward, grad_check
from sgen.autodiff import (
    LRELU_SLOPE,
    add,
    add_const,
    clamp,
    concat_channels,
    const_minus,
    gated_sum,
    log,
    lrelu,
    maximum,
    mean_all,
    mul,
    mul_const,
    record,
    relu,
    sigmoid,
    sub,
    sum_all,
    tanh,
)
from sgen.nn import conv2d, draw


# ---------------------------------------------------------------------------
# tensor construction


def test_tensor_rejects_non_4d():
    for shape in [(3,), (2, 3), (2, 3, 4), (1, 2, 3, 4, 5)]:
        with pytest.raises(ValueError, match="4-D"):
            Tensor(np.zeros(shape))


def test_tensor_casts_int_input_to_float32():
    t = Tensor(np.arange(4, dtype=np.int64).reshape(1, 1, 2, 2))
    assert t.dtype == np.float32
    assert t.data.flags["C_CONTIGUOUS"]


def test_tensor_keeps_float64():
    t = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64))
    assert t.dtype == np.float64


def test_item_requires_single_element():
    assert scalar(2.5).item() == 2.5
    with pytest.raises(ValueError, match="single-element"):
        t4([[1.0, 2.0]]).item()


def test_detach_shares_values_but_not_graph():
    x = t4([1.0, -2.0], requires_grad=True)
    d = x.detach()
    assert not d.requires_grad
    np.testing.assert_array_equal(d.data, x.data)
    with Tape() as tape:
        loss = sum_all(mul(d, d))
    backward(tape, loss)
    assert x.grad is None


# ---------------------------------------------------------------------------
# forward values


def test_elementwise_forward_examples():
    a = t4([1.0, 2.0, 3.0])
    b = t4([10.0, 20.0, 30.0])
    np.testing.assert_array_equal(add(a, b).data.ravel(), [11, 22, 33])
    np.testing.assert_array_equal(sub(a, b).data.ravel(), [-9, -18, -27])
    np.testing.assert_array_equal(mul(a, b).data.ravel(), [10, 40, 90])


def test_scalar_constant_forward_examples():
    x = t4([1.0, -2.0])
    np.testing.assert_array_equal(add_const(x, 3.0).data.ravel(), [4, 1])
    np.testing.assert_array_equal(mul_const(x, -2.0).data.ravel(), [-2, 4])
    np.testing.assert_array_equal(const_minus(1.0, x).data.ravel(), [0, 3])


def test_activation_forward_examples():
    x = t4([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(relu(x).data.ravel(), [0, 0, 3])
    np.testing.assert_allclose(lrelu(x).data.ravel(), [-2.0 * LRELU_SLOPE, 0, 3], rtol=1e-6)
    np.testing.assert_allclose(
        sigmoid(t4([0.0])).data.ravel(), [0.5], rtol=0, atol=0
    )
    np.testing.assert_allclose(tanh(t4([0.0])).data.ravel(), [0.0])


def test_lrelu_slope_is_one_fifth():
    """The slope's value itself, which otherwise only digests pin."""
    assert lrelu(t4([-1.0])).data.item() == np.float32(-0.2)


def test_sigmoid_stable_at_extreme_inputs():
    y = sigmoid(t4([-500.0, 500.0], dtype=np.float64)).data.ravel()
    assert np.all(np.isfinite(y))
    assert 0.0 <= y[0] < 1e-100
    assert 1.0 - y[1] < 1e-100


def test_reductions_and_clamp_forward():
    x = t4([[1.0, 2.0], [3.0, 4.0]])
    assert sum_all(x).item() == 10.0
    assert mean_all(x).item() == 2.5
    np.testing.assert_allclose(
        clamp(t4([-5.0, 0.3, 5.0]), 0.0, 1.0).data.ravel(), [0.0, 0.3, 1.0], rtol=1e-6
    )


def test_concat_channels_forward():
    a = Tensor(np.ones((2, 3, 4, 5), dtype=np.float32))
    b = Tensor(np.zeros((2, 2, 4, 5), dtype=np.float32))
    out = concat_channels(a, b)
    assert out.shape == (2, 5, 4, 5)
    np.testing.assert_array_equal(out.data[:, :3], 1.0)
    np.testing.assert_array_equal(out.data[:, 3:], 0.0)


# ---------------------------------------------------------------------------
# guards


def test_binary_ops_reject_shape_mismatch():
    a = Tensor(np.zeros((1, 2, 3, 4), dtype=np.float32))
    b = Tensor(np.zeros((1, 2, 4, 3), dtype=np.float32))
    for op in (add, sub, mul, maximum):
        with pytest.raises(ValueError, match=r"\(1, 2, 3, 4\) vs \(1, 2, 4, 3\)"):
            op(a, b)


def test_binary_ops_reject_dtype_mismatch():
    a = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    b = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float64))
    with pytest.raises(ValueError, match="dtype mismatch"):
        add(a, b)


def test_log_rejects_nonpositive_input():
    with pytest.raises(ValueError, match="strictly positive"):
        log(t4([1.0, 0.0]))
    with pytest.raises(ValueError, match="strictly positive"):
        log(t4([-1.0]))


def test_activations_reject_non_finite_input():
    bad = t4([np.nan])
    for fn in (relu, sigmoid, tanh):
        with pytest.raises(FloatingPointError, match="non-finite"):
            fn(bad)
    with pytest.raises(FloatingPointError, match="non-finite"):
        lrelu(t4([np.inf]))


def test_backward_requires_scalar_loss():
    x = t4([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ValueError, match=r"\(1, 1, 1, 1\)"):
        backward(tape, y)


def test_nested_tapes_are_rejected():
    with Tape():
        with pytest.raises(RuntimeError, match="already active"):
            with Tape():
                pass


def test_tape_context_resets_after_exception():
    with pytest.raises(KeyError):
        with Tape():
            raise KeyError("boom")
    # a fresh tape must be usable afterwards
    with Tape() as tape:
        x = t4([1.0], requires_grad=True)
        loss = sum_all(x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones((1, 1, 1, 1), dtype=np.float32))


# ---------------------------------------------------------------------------
# backward semantics


def test_recording_is_skipped_without_grad_or_tape():
    x = t4([1.0, 2.0])
    with Tape() as tape:
        add(x, x)  # no input requires grad
    assert len(tape) == 0
    y = t4([1.0], requires_grad=True)
    relu(y)  # no tape active
    assert y.grad is None


def test_backward_lets_a_rule_free_its_incoming_adjoint():
    """A rule that maps its adjoint first (a fused activation) and drops it
    holds the only reference: backward keeps none while the rule runs."""
    x = t4([1.0, 2.0], requires_grad=True)
    freed = []

    def rule(g):
        ref = weakref.ref(g)
        g = g * 2.0
        freed.append(ref() is None)
        return (g,)

    with Tape() as tape:
        loss = sum_all(record((x,), Tensor(x.data * 2.0), rule))
    backward(tape, loss)
    assert freed == [True]
    np.testing.assert_array_equal(x.grad.ravel(), [2.0, 2.0])


def _gating_grads(dtype, fused, alias):
    """A gating node whose active input has a consumer before it and whose
    passive input has one before and one after it (or is the active input
    itself), so each input's adjoint sums three terms in tape order."""
    rng = np.random.default_rng(21)
    shape = (2, 3, 4, 5)
    a0, p0, ga0, gp0, w0, w1, w2, proj = (rng.normal(size=shape).astype(dtype) for _ in range(8))
    a = Tensor(a0, requires_grad=True)
    p = a if alias else Tensor(p0, requires_grad=True)
    ga, gp = Tensor(ga0, requires_grad=True), Tensor(gp0, requires_grad=True)
    with Tape() as tape:
        before = add(mul(a, Tensor(w0)), mul(p, Tensor(w1)))
        out = gated_sum(ga, a, gp, p) if fused else add(mul(ga, a), mul(gp, p))
        after = mul(p, Tensor(w2))
        loss = sum_all(mul(add(add(before, out), after), Tensor(proj)))
    nodes = len(tape)
    backward(tape, loss)
    return [out.data, ga.grad, a.grad, gp.grad, p.grad], nodes


@pytest.mark.parametrize("alias", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gated_sum_equals_two_muls_and_an_add_bit_for_bit(dtype, alias):
    (fused, fused_nodes), (plain, plain_nodes) = (_gating_grads(dtype, f, alias) for f in (True, False))
    for got, want in zip(fused, plain):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
    assert fused_nodes == plain_nodes - 2


def test_gated_sum_rejects_mismatched_inputs():
    x, y = t4([1.0, 2.0]), t4([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="gated_sum: shape mismatch"):
        gated_sum(x, x, x, y)
    with pytest.raises(ValueError, match="gated_sum: dtype mismatch"):
        gated_sum(x, x, t4([1.0, 2.0], dtype=np.float64), x)


def test_diamond_graph_accumulates_both_paths():
    # loss = sum(x*x + x) so dloss/dx = 2x + 1
    x = t4([1.0, -2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(add(mul(x, x), x))
    backward(tape, loss)
    np.testing.assert_allclose(x.grad.ravel(), [3.0, -3.0, 7.0], rtol=1e-6)


def test_backward_over_two_tapes_of_one_forward_accumulates():
    x = t4([2.0], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        backward(tape, loss)
    np.testing.assert_allclose(x.grad.ravel(), [8.0], rtol=1e-6)
    x.zero_grad()
    assert x.grad is None


def test_records_are_each_ops_inputs_and_output_in_order():
    x = t4([2.0], requires_grad=True)
    c = t4([3.0])
    with Tape() as tape:
        y = mul(x, c)
        add(c, c)  # no input requires grad: not recorded
        loss = sum_all(y)
    records = tape.records()
    assert [len(inputs) for inputs, _ in records] == [2, 1]
    (mul_in, mul_out), (sum_in, sum_out) = records
    assert mul_in[0] is x and mul_in[1] is c and mul_out is y
    assert sum_in[0] is y and sum_out is loss
    backward(tape, loss)
    assert tape.records() == []


def test_a_consumed_tape_cannot_be_replayed_or_reentered():
    x = t4([2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
        with pytest.raises(RuntimeError, match="still recording"):
            backward(tape, loss)
    assert len(tape) == 2
    backward(tape, loss)
    assert len(tape) == 0
    with pytest.raises(RuntimeError, match="already consumed by an earlier backward"):
        backward(tape, loss)
    np.testing.assert_allclose(x.grad.ravel(), [4.0], rtol=1e-6)
    with pytest.raises(RuntimeError, match="consumed by backward"):
        with tape:
            pass
    with Tape() as fresh:  # the refused enter left no tape active
        loss = sum_all(x)
    backward(fresh, loss)
    np.testing.assert_allclose(x.grad.ravel(), [5.0], rtol=1e-6)


def test_backward_frees_what_only_finished_nodes_used():
    """b is used only by the two nodes recorded after the first one, which
    run before it: by the time the first node's rule runs, backward and the
    spent nodes hold nothing that keeps b's array alive."""
    x = t4([1.0, -2.0], requires_grad=True)
    watched, freed = [], []

    def rule(g):
        freed.append(watched[0]() is None)
        return (g * 2.0,)

    with Tape() as tape:
        a = record((x,), Tensor(x.data * 2.0), rule)
        b = mul(a, a)
        loss = sum_all(mul(b, b))
    watched.append(weakref.ref(b.data))
    del a, b
    backward(tape, loss)
    assert freed == [True]
    np.testing.assert_allclose(x.grad.ravel(), [64.0, -512.0], rtol=1e-6)  # d/dx (2x)^4 = 64x^3


def test_non_grad_input_receives_no_gradient():
    x = t4([1.0, 2.0], requires_grad=True)
    c = t4([5.0, 7.0])
    with Tape() as tape:
        loss = sum_all(mul(x, c))
    backward(tape, loss)
    np.testing.assert_allclose(x.grad.ravel(), [5.0, 7.0])
    assert c.grad is None


def test_unreachable_branch_gets_no_adjoint():
    x = t4([1.0], requires_grad=True)
    y = t4([1.0], requires_grad=True)
    with Tape() as tape:
        mul(y, y)  # recorded but not part of the loss
        loss = sum_all(x)
    backward(tape, loss)
    assert x.grad is not None
    assert y.grad is None


def test_maximum_routes_ties_to_first_argument():
    a = t4([1.0, 5.0, 2.0], requires_grad=True)
    b = t4([1.0, 3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(maximum(a, b))
    backward(tape, loss)
    np.testing.assert_array_equal(a.grad.ravel(), [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(b.grad.ravel(), [0.0, 0.0, 1.0])


def test_lrelu_derivative_at_zero_is_slope():
    x = t4([0.0, -1.0, 1.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(lrelu(x))
    backward(tape, loss)
    np.testing.assert_allclose(x.grad.ravel(), [LRELU_SLOPE, LRELU_SLOPE, 1.0], rtol=1e-6)


@pytest.mark.parametrize(
    "fn, slope",
    [(relu, 0.0), (lrelu, LRELU_SLOPE), (sigmoid, 0.25), (tanh, 1.0)],
    ids=["relu", "lrelu", "sigmoid", "tanh"],
)
def test_derivative_read_off_the_output_at_signed_zero(fn, slope):
    """Read off y, the derivative at x = +0.0 and -0.0 is the x <= 0 one (0
    for relu, the slope for lrelu); sigmoid and tanh are smooth there.  The
    input is left as it was."""
    x = t4([0.0, -0.0, -1.0], dtype=np.float64, requires_grad=True)
    before = x.data.tobytes()
    with Tape() as tape:
        loss = sum_all(fn(x))
    backward(tape, loss)
    assert x.data.tobytes() == before
    np.testing.assert_array_equal(x.grad.ravel()[:2], [slope, slope])


def test_clamp_gradient_mask_includes_boundaries():
    x = t4([-1.0, 0.0, 0.5, 1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(clamp(x, 0.0, 1.0))
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad.ravel(), [0.0, 1.0, 1.0, 1.0, 0.0])


def test_concat_channels_splits_gradient():
    a = Tensor(np.ones((1, 2, 2, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        cat = concat_channels(a, b)
        loss = sum_all(mul(cat, cat))
    backward(tape, loss)
    assert a.grad.shape == (1, 2, 2, 2)
    assert b.grad.shape == (1, 1, 2, 2)
    np.testing.assert_allclose(a.grad, 2.0)
    np.testing.assert_allclose(b.grad, 2.0)


def test_leaf_gradients_do_not_alias_each_other():
    # add's backward hands the same adjoint array to both inputs; each
    # leaf must still end up with its own buffer
    x = t4([1.0, 1.0], requires_grad=True)
    y = t4([2.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(add(x, y))
    backward(tape, loss)
    x.grad[0, 0, 0, 0] = 99.0
    np.testing.assert_array_equal(y.grad.ravel(), [1.0, 1.0])


# ---------------------------------------------------------------------------
# finite-difference agreement


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("shape", [(1, 1, 2, 3), (2, 3, 4, 4)])
def test_taped_gradients_match_numeric_oracle(seed, shape):
    """Cross-check the tape against the standalone loop-based oracle."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=shape)
    # keep every element away from the relu/lrelu kinks
    base = np.where(np.abs(base) < 0.3, np.sign(base) * 0.5 + base, base)
    w = rng.normal(size=shape)

    def f_np(arr):
        y = np.where(arr > 0, arr, LRELU_SLOPE * arr)
        return float((np.tanh(y) * w).sum())

    def f_tape(t):
        return sum_all(mul(tanh(lrelu(t)), Tensor(w)))

    x = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        loss = f_tape(x)
    backward(tape, loss)
    numeric = numeric_gradient(f_np, base.copy(), eps=1e-6)
    np.testing.assert_allclose(x.grad, numeric, rtol=1e-4, atol=1e-7)


def test_grad_check_passes_float64_composite():
    rng = np.random.default_rng(3)
    p = draw("conv", 2, 3, 3, rng, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 2, 6, 6)) + 0.4, requires_grad=True)
    err = grad_check(lambda t: mean_all(lrelu(conv2d(t, p))), x, eps=1e-5)
    assert err < 1e-5


def test_grad_check_passes_float32_composite_at_loose_tolerance():
    rng = np.random.default_rng(4)
    p = draw("conv", 2, 3, 3, rng, dtype=np.float32)
    x = Tensor(
        (rng.normal(size=(1, 2, 6, 6)) + 0.4).astype(np.float32), requires_grad=True
    )
    err = grad_check(lambda t: mean_all(lrelu(conv2d(t, p))), x, eps=1e-2)
    assert err < 1e-2


def test_grad_check_detects_corrupted_backward_rule():
    def broken_double(t):
        out = Tensor(t.data * 2.0)
        # wrong rule on purpose: claims d(out)/d(t) = 3
        return record((t,), out, lambda g: (g * 3.0,))

    x = t4([1.0, 2.0], dtype=np.float64, requires_grad=True)
    err = grad_check(lambda t: sum_all(broken_double(t)), x, eps=1e-6)
    assert err > 0.3


def test_grad_check_rejects_nondeterministic_build():
    state = {"calls": 0}

    def build(t):
        state["calls"] += 1
        return sum_all(mul_const(t, float(state["calls"])))

    with pytest.raises(ValueError, match="not deterministic"):
        grad_check(build, t4([1.0], dtype=np.float64), eps=1e-6)


def test_grad_check_rejects_running_inside_tape():
    with Tape():
        with pytest.raises(RuntimeError, match="outside"):
            grad_check(lambda t: sum_all(t), t4([1.0]), eps=1e-6)


def test_grad_check_requires_positive_eps():
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda t: sum_all(t), t4([1.0]), eps=0.0)


def test_forward_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    p = draw("conv", 3, 4, 4, rng)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
    a = conv2d(x, p).data.tobytes()
    b = conv2d(x, p).data.tobytes()
    assert a == b
