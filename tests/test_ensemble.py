"""Gating unit and merge-mode tests."""

import weakref

import numpy as np
import pytest

from sgen import MERGE_MODES, MERGE_SITES, Tape, Tensor, backward, merge, sgu
from sgen.autodiff import mul, sum_all
from sgen.nn import ConvParams, draw


def _pair(rng, shape=(2, 3, 4, 4), dtype=np.float32):
    a = Tensor(rng.normal(size=shape).astype(dtype))
    p = Tensor(rng.normal(size=shape).astype(dtype))
    return a, p


def _convs(rng, mode="sgu", c=3, dtype=np.float32, std=0.0):
    """Probe convs for one ``mode`` merge site on ``c``-wide features, each
    drawn at ``std`` (None for the He scale)."""
    return {name: draw("conv", fan * c, c, k, rng, dtype, std) for name, (fan, k, _) in MERGE_SITES[mode][1].items()}


# ---------------------------------------------------------------------------
# gating algebra


@pytest.mark.parametrize("seed", range(4))
def test_zero_gates_reduce_to_exact_average(seed):
    """sigmoid(0) = 1/2, so fresh zero-weight gates average the inputs."""
    rng = np.random.default_rng(seed)
    active, passive = _pair(rng)
    params = _convs(rng)
    got = sgu(active, passive, params).data
    want = 0.5 * active.data + 0.5 * passive.data
    np.testing.assert_array_equal(got, want)


def test_saturated_gates_pass_sum_through():
    """Huge gate biases drive both sigmoids to 1, leaving active + passive."""
    rng = np.random.default_rng(1)
    active, passive = _pair(rng, dtype=np.float64)
    params = _convs(rng, dtype=np.float64)
    params["gate_a"].bias.data[:] = 1e4
    params["gate_p"].bias.data[:] = 1e4
    got = sgu(active, passive, params).data
    np.testing.assert_allclose(got, active.data + passive.data, atol=1e-6)


def test_gates_read_only_the_active_input():
    """Holding the active input fixed must freeze both gate values."""
    rng = np.random.default_rng(2)
    active, passive_1 = _pair(rng)
    _, passive_2 = _pair(rng)
    params = _convs(rng, std=0.3)
    out_1 = sgu(active, passive_1, params).data
    out_2 = sgu(active, passive_2, params).data
    # difference must be exactly gate_p * (passive_1 - passive_2), i.e. linear
    # in the passive input; verify via a third point on the same line
    mid = Tensor(0.5 * (passive_1.data + passive_2.data))
    out_mid = sgu(active, mid, params).data
    np.testing.assert_allclose(out_mid, 0.5 * (out_1 + out_2), rtol=1e-5, atol=1e-6)


_derived = []


class _Tracked(np.ndarray):
    """An array that keeps a weakref to the memory owner of every array
    numpy derives from it: a view's owner is its root base."""

    def __array_finalize__(self, obj):
        owner = self
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        _derived.append(weakref.ref(owner))


def test_taped_sgu_keeps_no_product():
    """Every buffer computed from the inputs (the products ga*a and gp*p
    among them) is freed by the end of a taped forward, except the
    output's own."""
    rng = np.random.default_rng(5)
    active, passive = (Tensor(x.data, requires_grad=True) for x in _pair(rng))
    params = _convs(rng, std=0.3)
    active.data, passive.data = active.data.view(_Tracked), passive.data.view(_Tracked)
    _derived.clear()
    with Tape() as tape:
        out = sgu(active, passive, params)
    assert len(tape) == 3
    alive = [a for a in (ref() for ref in _derived) if a is not None]
    held = [a for a in alive if not any(np.shares_memory(a, x.data) for x in (active, passive))]
    assert held and all(np.shares_memory(a, out.data) for a in held)


def test_sgu_is_asymmetric_in_its_inputs():
    rng = np.random.default_rng(3)
    active, passive = _pair(rng)
    params = _convs(rng, std=0.5)
    ab = sgu(active, passive, params).data
    ba = sgu(passive, active, params).data
    assert np.abs(ab - ba).max() > 1e-3


# ---------------------------------------------------------------------------
# parameter validation


def test_sgu_params_must_preserve_channels():
    rng = np.random.default_rng(4)
    active, passive = _pair(rng)
    gates = {"gate_a": draw("conv", 3, 4, 3, rng), "gate_p": draw("conv", 3, 3, 3, rng)}
    with pytest.raises(ValueError, match="gated_sum: shape mismatch"):
        sgu(active, passive, gates)
    gates["gate_a"] = draw("conv", 4, 3, 3, rng)
    with pytest.raises(ValueError, match="input has 3 channels, kernel expects 4"):
        sgu(active, passive, gates)


def test_sgu_params_must_have_stride_1():
    rng = np.random.default_rng(5)
    active, passive = _pair(rng)
    gates = {"gate_a": draw("conv", 3, 3, 3, rng), "gate_p": draw("conv", 3, 3, 4, rng)}
    with pytest.raises(ValueError, match="gated_sum: shape mismatch"):
        sgu(active, passive, gates)


def test_sgu_rejects_shape_and_channel_mismatch():
    rng = np.random.default_rng(7)
    params = _convs(rng)
    a = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    b = Tensor(np.zeros((1, 3, 4, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="shape mismatch"):
        sgu(a, b, params)
    c = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="kernel expects 3"):
        sgu(c, c.detach(), params)


def test_a_gate_in_both_slots_gets_both_gradients():
    """One conv passed as both gates is legal: its gradient is the sum of
    the two gradients that distinct copies of it receive."""
    rng = np.random.default_rng(6)
    active, passive = _pair(rng, dtype=np.float64)
    w = Tensor(rng.normal(size=active.shape))

    def weight_grads(gates):
        with Tape() as tape:
            loss = sum_all(mul(sgu(active, passive, gates), w))
        backward(tape, loss)
        return [gates[name].weight.grad for name in ("gate_a", "gate_p")]

    gate = _convs(rng, dtype=np.float64, std=0.3)["gate_a"]
    shared, _ = weight_grads({"gate_a": gate, "gate_p": gate})
    copies = {
        name: ConvParams(Tensor(gate.weight.data.copy(), requires_grad=True), Tensor(gate.bias.data.copy()))
        for name in ("gate_a", "gate_p")
    }
    grad_a, grad_p = weight_grads(copies)
    np.testing.assert_allclose(shared, grad_a + grad_p, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# merge dispatch


def test_merge_rejects_convs_its_mode_does_not_take():
    rng = np.random.default_rng(14)
    new, prev = _pair(rng)
    with pytest.raises(ValueError, match=r"mode 'average' takes convs \[\], got \['gate_a', 'gate_p'\]"):
        merge("average", new, prev, _convs(rng))


def test_merge_average_and_max_values():
    new = Tensor(np.array([[1.0, 4.0], [2.0, 2.0]], dtype=np.float32).reshape(1, 1, 2, 2))
    prev = Tensor(np.array([[3.0, 0.0], [2.0, 5.0]], dtype=np.float32).reshape(1, 1, 2, 2))
    np.testing.assert_array_equal(
        merge("average", new, prev).data.ravel(), [2.0, 2.0, 2.0, 3.5]
    )
    np.testing.assert_array_equal(
        merge("max", new, prev).data.ravel(), [3.0, 4.0, 2.0, 5.0]
    )


def test_merge_max_ties_route_gradient_to_new():
    new = Tensor(np.full((1, 1, 2, 2), 2.0, dtype=np.float32), requires_grad=True)
    prev = Tensor(np.full((1, 1, 2, 2), 2.0, dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(merge("max", new, prev))
    backward(tape, loss)
    np.testing.assert_array_equal(new.grad, 1.0)
    np.testing.assert_array_equal(prev.grad, 0.0)


def test_merge_concat_projection_can_select_either_input():
    """A [I | 0] projection returns the new input, [0 | I] the previous one."""
    rng = np.random.default_rng(8)
    c = 3
    new, prev = _pair(rng, shape=(2, c, 4, 4))
    eye = np.eye(c, dtype=np.float32)
    for grab_new in (True, False):
        w = np.zeros((c, 2 * c, 1, 1), dtype=np.float32)
        block = w[:, :c, 0, 0] if grab_new else w[:, c:, 0, 0]
        block[:] = eye
        proj = ConvParams(weight=Tensor(w), bias=Tensor(np.zeros((1, c, 1, 1), dtype=np.float32)))
        got = merge("concat", new, prev, {"proj": proj}).data
        want = new.data if grab_new else prev.data
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)


def test_merge_sgu_with_zero_gates_matches_average():
    rng = np.random.default_rng(9)
    new, prev = _pair(rng)
    params = _convs(rng)
    np.testing.assert_array_equal(
        merge("sgu", new, prev, params).data,
        merge("average", new, prev).data,
    )


def test_merge_validates_params_and_mode():
    rng = np.random.default_rng(10)
    new, prev = _pair(rng)
    with pytest.raises(ValueError, match=r"takes convs \['gate_a', 'gate_p'\], got \[\]"):
        merge("sgu", new, prev)
    with pytest.raises(ValueError, match=r"takes convs \['proj'\]"):
        merge("concat", new, prev)
    with pytest.raises(ValueError, match="input has 6 channels, kernel expects 4"):
        merge("concat", new, prev, {"proj": draw("conv", 4, 3, 1, rng)})
    with pytest.raises(ValueError, match="unknown mode"):
        merge("blend", new, prev)


@pytest.mark.parametrize("mode", MERGE_MODES)
@pytest.mark.parametrize("shape", [(1, 2, 4, 4), (2, 5, 8, 6)])
def test_merge_preserves_shape_in_every_mode(mode, shape):
    rng = np.random.default_rng(11)
    new, prev = _pair(rng, shape=shape)
    c = shape[1]
    params = _convs(rng, mode, c, std=0.2 if mode == "sgu" else None)
    assert merge(mode, new, prev, params).shape == shape


@pytest.mark.parametrize("mode", MERGE_MODES)
def test_merge_propagates_gradients_to_both_inputs(mode):
    rng = np.random.default_rng(12)
    c = 2
    new = Tensor(rng.normal(size=(1, c, 4, 4)).astype(np.float32), requires_grad=True)
    prev = Tensor(rng.normal(size=(1, c, 4, 4)).astype(np.float32), requires_grad=True)
    params = _convs(rng, mode, c, std=0.2 if mode == "sgu" else None)
    with Tape() as tape:
        loss = sum_all(merge(mode, new, prev, params))
    backward(tape, loss)
    assert new.grad is not None and np.abs(new.grad).sum() > 0
    assert prev.grad is not None
    if mode != "max":  # max routes each element to one side only
        assert np.abs(prev.grad).sum() > 0
