"""Objective and optimizer tests with hand-derived reference values."""

import math

import numpy as np
import pytest

from conftest import scalar, t4

from sgen import ParamStore, Tape, Tensor, backward
from sgen.losses import CLAMP_EPS, d_loss, g_loss, mse_loss
from sgen.nn import ConvParams, conv2d
from sgen.optim import adam_step, init_adam


# ---------------------------------------------------------------------------
# mse


def test_mse_hand_example():
    pred = t4([1.0, 2.0, 3.0], dtype=np.float64)
    target = t4([2.0, 4.0, 3.0], dtype=np.float64)
    assert mse_loss(pred, target).item() == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_mse_zero_on_identical_inputs():
    x = t4([0.5, -0.25], dtype=np.float64)
    assert mse_loss(x, x.detach()).item() == 0.0


def test_mse_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        mse_loss(t4([1.0]), t4([1.0, 2.0]))


# ---------------------------------------------------------------------------
# adversarial objectives


def test_d_loss_at_coin_flip_scores_is_two_log_two():
    val = d_loss(scalar(0.5, np.float64), scalar(0.5, np.float64)).item()
    assert val == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_d_loss_near_zero_for_a_perfect_critic():
    val = d_loss(scalar(1.0, np.float64), scalar(0.0, np.float64)).item()
    assert 0.0 < val < 1e-6


def test_d_loss_stays_finite_at_saturated_scores():
    # the worst case: confidently wrong on both halves
    val = d_loss(scalar(0.0, np.float64), scalar(1.0, np.float64)).item()
    assert val == pytest.approx(-2.0 * math.log(CLAMP_EPS), rel=1e-6)
    assert math.isfinite(val)


def test_d_loss_monotonicity():
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    fixed = scalar(0.5, np.float64)
    real_curve = [d_loss(scalar(v, np.float64), fixed).item() for v in grid]
    fake_curve = [d_loss(fixed, scalar(v, np.float64)).item() for v in grid]
    assert all(a > b for a, b in zip(real_curve, real_curve[1:]))  # better real => lower
    assert all(a < b for a, b in zip(fake_curve, fake_curve[1:]))  # fooled => higher


def test_g_loss_minimax_hand_value():
    pred = t4([0.0], dtype=np.float64)
    val = g_loss(scalar(0.5, np.float64), pred, pred.detach(), 0.0, "minimax").item()
    assert val == pytest.approx(math.log(0.5), rel=1e-12)


def test_g_loss_nonsaturating_hand_value():
    pred = t4([0.0], dtype=np.float64)
    val = g_loss(scalar(0.5, np.float64), pred, pred.detach(), 0.0, "nonsaturating").item()
    assert val == pytest.approx(math.log(2.0), rel=1e-12)


def test_g_loss_adds_weighted_mse():
    pred = t4([1.0, 3.0], dtype=np.float64)
    target = t4([0.0, 0.0], dtype=np.float64)
    base = g_loss(scalar(0.5, np.float64), pred, target, 0.0, "minimax").item()
    val = g_loss(scalar(0.5, np.float64), pred, target, 0.25, "minimax").item()
    assert val == pytest.approx(base + 0.25 * 5.0, rel=1e-12)


@pytest.mark.parametrize("variant", ["minimax", "nonsaturating"])
def test_g_loss_decreases_as_the_critic_is_fooled(variant):
    pred = t4([0.0], dtype=np.float64)
    curve = [
        g_loss(scalar(v, np.float64), pred, pred.detach(), 0.0, variant).item()
        for v in [0.1, 0.3, 0.5, 0.7, 0.9]
    ]
    assert all(a > b for a, b in zip(curve, curve[1:]))


@pytest.mark.parametrize("variant", ["minimax", "nonsaturating"])
def test_g_loss_gradient_pushes_scores_up(variant):
    f = scalar(0.3, np.float64, requires_grad=True)
    pred = t4([0.0], dtype=np.float64)
    with Tape() as tape:
        loss = g_loss(f, pred, pred.detach(), 0.0, variant)
    backward(tape, loss)
    assert f.grad.item() < 0  # raising the score lowers the loss


def test_g_loss_validates_arguments():
    pred = t4([0.0])
    with pytest.raises(ValueError, match="unknown variant"):
        g_loss(scalar(0.5), pred, pred.detach(), 0.0, "hinge")
    with pytest.raises(ValueError, match="lambda_mse"):
        g_loss(scalar(0.5), pred, pred.detach(), -1.0, "minimax")


def test_losses_are_scalar_tensors():
    rng = np.random.default_rng(0)
    scores = Tensor(rng.uniform(0.1, 0.9, size=(4, 1, 1, 1)))
    pred = Tensor(rng.normal(size=(4, 2, 3, 3)))
    target = Tensor(rng.normal(size=(4, 2, 3, 3)))
    assert d_loss(scores, scores.detach()).shape == (1, 1, 1, 1)
    assert g_loss(scores, pred, target, 0.1, "minimax").shape == (1, 1, 1, 1)
    assert mse_loss(pred, target).shape == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# Adam


def _one_param(value, shape=(1, 1, 1, 1)):
    store = ParamStore()
    store["p"] = Tensor(np.full(shape, value, dtype=np.float64), requires_grad=True)
    return store


def test_adam_first_step_moves_by_almost_lr():
    store = _one_param(1.0)
    state = init_adam(store)
    store["p"].grad = np.ones((1, 1, 1, 1), dtype=np.float64)
    adam_step(store, state, lr=0.01)
    moved = 1.0 - store["p"].item()
    # bias correction makes m_hat = v_hat = 1 on step one
    assert moved == pytest.approx(0.01 / (1.0 + 1e-8), rel=1e-12)
    assert state.step == 1


def test_adam_step_direction_follows_gradient_sign():
    store = _one_param(0.0, shape=(1, 1, 1, 2))
    state = init_adam(store)
    store["p"].grad = np.array([1.0, -2.0]).reshape(1, 1, 1, 2)
    adam_step(store, state, lr=0.1)
    vals = store["p"].data.ravel()
    assert vals[0] < 0 < vals[1]


def test_adam_zero_gradient_keeps_parameter_fixed():
    store = _one_param(3.0)
    state = init_adam(store)
    store["p"].grad = np.zeros((1, 1, 1, 1))
    adam_step(store, state, lr=0.5)
    assert store["p"].item() == 3.0


def test_adam_zero_lr_updates_moments_only():
    store = _one_param(3.0)
    state = init_adam(store)
    store["p"].grad = np.ones((1, 1, 1, 1))
    adam_step(store, state, lr=0.0)
    assert store["p"].item() == 3.0
    assert state.m["p"].item() == pytest.approx(0.1)
    assert state.v["p"].item() == pytest.approx(0.001)


def test_adam_reads_each_tensors_grad_buffer():
    store = _one_param(1.0)
    store["p"].grad = np.full((1, 1, 1, 1), 2.0)
    state = init_adam(store)
    adam_step(store, state, lr=0.01)
    assert store["p"].item() < 1.0


def test_adam_missing_gradient_names_the_parameter():
    store = _one_param(1.0)
    state = init_adam(store)
    with pytest.raises(ValueError, match="missing gradient for parameter 'p'"):
        adam_step(store, state, lr=0.01)


def test_adam_rejects_gradient_shape_mismatch():
    store = _one_param(1.0)
    state = init_adam(store)
    store["p"].grad = np.zeros((1, 1, 1, 2))
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(store, state, lr=0.01)


def test_adam_trajectory_is_deterministic():
    def run():
        store = _one_param(1.0, shape=(1, 1, 2, 2))
        state = init_adam(store)
        rng = np.random.default_rng(42)
        for _ in range(25):
            store["p"].grad = rng.normal(size=(1, 1, 2, 2))
            adam_step(store, state, lr=0.01)
        return store["p"].data.tobytes()

    assert run() == run()


def test_adam_fits_linear_model_to_least_squares_solution():
    """Full loop: tape -> backward -> adam on a 2-parameter affine model.

    The model is a 1x1 conv with one input and one output channel, so its
    weight is the slope and its bias the intercept.
    """
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1.0, 1.0, size=(1, 1, 1, 32))
    ys = 2.0 * xs + 0.5 + rng.normal(0.0, 0.05, size=xs.shape)

    # closed-form least squares target
    design = np.stack([xs.ravel(), np.ones(32)], axis=1)
    (slope_ref, bias_ref), *_ = np.linalg.lstsq(design, ys.ravel(), rcond=None)

    store = ParamStore()
    store["s"] = Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
    store["b"] = Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
    state = init_adam(store)
    x_t, y_t = Tensor(xs), Tensor(ys)
    affine = ConvParams(weight=store["s"], bias=store["b"])
    for _ in range(2000):
        store.zero_grad()
        with Tape() as tape:
            pred = conv2d(x_t, affine)
            loss = mse_loss(pred, y_t)
        backward(tape, loss)
        adam_step(store, state, lr=0.01)
    assert store["s"].item() == pytest.approx(slope_ref, abs=1e-4)
    assert store["b"].item() == pytest.approx(bias_ref, abs=1e-4)
