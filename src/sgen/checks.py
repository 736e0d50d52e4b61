"""Double-precision finite-difference battery over every backward rule.

Each entry builds a scalar loss from a probe tensor and compares the
taped gradient against central differences via ``grad_check``.  Per-op
checks must stay under 1e-5 relative error; whole-network composites
(generator, discriminator, adversarial loss through both) get 1e-4.
Probe values are nudged away from kinks (relu/lrelu corners, max ties,
clamp edges) so the finite-difference oracle is valid everywhere it
samples.  The fused conv epilogues (a conv or deconv with its activation
in one op) and then the SGU's gating node are checked last, each from its
own stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .ensemble import sgu
from .losses import d_loss, g_loss, mse_loss
from .model import (
    ParamStore,
    SgenConfig,
    build_discriminator,
    build_generator,
    discriminator_forward,
    generator_forward,
)
from .nn import conv2d, deconv2d, draw, global_avg_pool

__all__ = ["CheckResult", "run_gradient_battery", "OP_TOL", "NET_TOL"]

OP_TOL = 1e-5
NET_TOL = 1e-4

_SHAPES = ((1, 1, 2, 3), (2, 3, 4, 4), (1, 2, 5, 7))

# every probe stream is derived from this one seed
_SEED = 7

_BINARY_OPS = {"add": ad.add, "sub": ad.sub, "mul": ad.mul}
_ACTIVATIONS = {
    "relu": ad.relu,
    "lrelu": ad.lrelu,
    "sigmoid": ad.sigmoid,
    "tanh": ad.tanh,
}


@dataclass
class CheckResult:
    name: str
    error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.error < self.tolerance


def _rand(rng, shape):
    return rng.normal(0.0, 1.0, size=shape)  # float64


def _signed_unit(rng, shape):
    """Random magnitudes in [0.5, 1.5] with random signs.

    Used for loss projections: keeping every weight away from zero keeps
    every per-element gradient large enough that central-difference
    cancellation noise cannot dominate the relative error.
    """
    return rng.uniform(0.5, 1.5, size=shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _away_from_zero(arr, margin=0.2):
    pushed = np.where(arr >= 0, arr + margin, arr - margin)
    return np.where(np.abs(arr) < margin, pushed, arr)


def _weighted_sum(t, weights):
    """Random projection to a scalar so every element influences the loss."""
    return ad.sum_all(ad.mul(t, Tensor(weights)))


def _with_param(store: ParamStore, name: str, tensor: Tensor) -> ParamStore:
    """A copy of store whose parameter ``name`` is the probe tensor."""
    return ParamStore({**store, name: tensor})


def run_gradient_battery(on_result=None) -> list[CheckResult]:
    """Run every check; returns the results and optionally streams them."""
    rng = np.random.default_rng(_SEED)
    results: list[CheckResult] = []

    def check(name, build, probe, tol=OP_TOL):
        err = grad_check(build, Tensor(probe), 1e-5)
        result = CheckResult(name, err, tol)
        results.append(result)
        if on_result is not None:
            on_result(result)

    # --- elementwise arithmetic, both arguments --------------------------
    for kind, op in _BINARY_OPS.items():
        for shape in _SHAPES:
            other = _rand(rng, shape)
            weights = _signed_unit(rng, shape)
            check(
                f"{kind}.lhs.{shape}",
                lambda x, op=op, o=other, w=weights: _weighted_sum(op(x, Tensor(o)), w),
                _rand(rng, shape),
            )
            check(
                f"{kind}.rhs.{shape}",
                lambda x, op=op, o=other, w=weights: _weighted_sum(op(Tensor(o), x), w),
                _rand(rng, shape),
            )

    # --- scalar-constant ops ---------------------------------------------
    shape = _SHAPES[1]
    weights = _signed_unit(rng, shape)
    check("add_const", lambda x: _weighted_sum(ad.add_const(x, 1.7), weights), _rand(rng, shape))
    check("mul_const", lambda x: _weighted_sum(ad.mul_const(x, -2.3), weights), _rand(rng, shape))
    check("const_minus", lambda x: _weighted_sum(ad.const_minus(0.9, x), weights), _rand(rng, shape))

    # --- activations ------------------------------------------------------
    for kind, act in _ACTIVATIONS.items():
        for shape in _SHAPES:
            probe = _rand(rng, shape)
            if kind in ("relu", "lrelu"):
                probe = _away_from_zero(probe)  # keep eps-steps off the corner
            weights = _signed_unit(rng, shape)
            check(
                f"{kind}.{shape}",
                lambda x, act=act, w=weights: _weighted_sum(act(x), w),
                probe,
            )

    # --- log / clamp / maximum / concat / reductions ----------------------
    shape = _SHAPES[2]
    weights = _signed_unit(rng, shape)
    check(
        "log",
        lambda x: _weighted_sum(ad.log(x), weights),
        rng.uniform(0.2, 2.0, size=shape),
    )
    clamp_probe = rng.uniform(-1.0, 1.0, size=shape)
    clamp_probe = np.where(np.abs(np.abs(clamp_probe) - 0.5) < 0.05, clamp_probe * 0.8, clamp_probe)
    check(
        "clamp",
        lambda x: _weighted_sum(ad.clamp(x, -0.5, 0.5), weights),
        clamp_probe,
    )
    rival = _rand(rng, shape)
    max_probe = rival + np.where(_rand(rng, shape) > 0, 0.3, -0.3)  # no near-ties
    check(
        "maximum.lhs",
        lambda x: _weighted_sum(ad.maximum(x, Tensor(rival)), weights),
        max_probe,
    )
    check(
        "maximum.rhs",
        lambda x: _weighted_sum(ad.maximum(Tensor(max_probe), x), weights),
        rival,
    )
    cat_w = _signed_unit(rng, (1, 4, 5, 7))
    check(
        "concat_channels",
        lambda x: _weighted_sum(ad.concat_channels(x, Tensor(_rand(np.random.default_rng(3), shape))), cat_w),
        _rand(rng, shape),
    )
    check("sum_all", lambda x: ad.sum_all(x), _rand(rng, shape))
    check("mean_all", lambda x: ad.mean_all(x), _rand(rng, shape))
    check("global_avg_pool", lambda x: _weighted_sum(global_avg_pool(x), _signed_unit(np.random.default_rng(4), (2, 3, 1, 1))), _rand(rng, (2, 3, 4, 5)))

    # --- conv2d / deconv2d: input, weight, and bias gradients -------------
    # Both channel orders, so every kernel runs with either side unfolded,
    # plus kernel 16 (stride 8), the kernel of enc.base.1 and dec.base.3 in
    # the paper config.  The added shapes draw from their own streams, so
    # every other probe stays as it was.  A 1 -> 5 conv and a 5 -> 1 deconv at stride 2
    # have s*s*c <= o, so they unfold the fine side where the other pairs
    # run the GEMM first, and the deconv's scatter shift-adds.
    def layer_checks(label, op, p, x0, w_out, act=None):
        def loss(x, **probe):
            return _weighted_sum((conv2d if op == "conv" else deconv2d)(x, replace(p, **probe), act), w_out)

        check(f"{label}.input", lambda x: loss(x), x0)
        check(f"{label}.weight", lambda wt: loss(Tensor(x0), weight=wt), p.weight.data.copy())
        check(f"{label}.bias", lambda b: loss(Tensor(x0), bias=b), p.bias.data.copy())

    more = np.random.default_rng([_SEED, 1])
    thin = np.random.default_rng([_SEED, 2])
    for r, op, cin, cout, k, hw in (
        (rng, "conv", 2, 3, 3, 6), (rng, "conv", 2, 3, 4, 6), (rng, "conv", 2, 3, 8, 8),
        (more, "conv", 3, 2, 3, 6), (more, "conv", 3, 2, 4, 6), (more, "conv", 3, 2, 8, 8),
        (more, "conv", 2, 3, 16, 16), (thin, "conv", 1, 5, 4, 6),
        (rng, "deconv", 3, 2, 4, 3), (rng, "deconv", 3, 2, 8, 2),
        (more, "deconv", 2, 3, 4, 3), (more, "deconv", 2, 3, 8, 2), (more, "deconv", 3, 2, 16, 2),
        (thin, "deconv", 5, 1, 4, 3),
    ):
        p = draw(op, cin, cout, k, r, np.float64)
        x0 = _rand(r, (2, cin, hw, hw))
        out_hw = hw // p.stride if op == "conv" else hw * p.stride
        w_out = _signed_unit(r, (2, cout, out_hw, out_hw))
        layer_checks(f"{op}2d.{cin}to{cout}.s{p.stride}", op, p, x0, w_out)

    # --- SGU: both inputs and all four gate parameters ---------------------
    gates = {gate: draw("conv", 3, 3, 3, rng, np.float64, 0.15) for gate in ("gate_a", "gate_p")}
    active0 = _rand(rng, (2, 3, 5, 5))
    passive0 = _rand(rng, (2, 3, 5, 5))
    sgu_w = _signed_unit(rng, (2, 3, 5, 5))

    def sgu_loss(active, passive, gate=None, **probe):
        convs = {**gates, gate: replace(gates[gate], **probe)} if gate else gates
        return _weighted_sum(sgu(active, passive, convs), sgu_w)

    check("sgu.active", lambda x: sgu_loss(x, Tensor(passive0)), active0)
    check("sgu.passive", lambda x: sgu_loss(Tensor(active0), x), passive0)
    for part in ("weight", "bias"):
        for gate in ("gate_a", "gate_p"):
            check(
                f"sgu.{gate}.{part}",
                lambda t, g=gate, f=part: sgu_loss(Tensor(active0), Tensor(passive0), g, **{f: t}),
                getattr(gates[gate], part).data.copy(),
            )

    # --- losses -------------------------------------------------------------
    scores_shape = (4, 1, 1, 1)
    real0 = rng.uniform(0.2, 0.8, size=scores_shape)
    fake0 = rng.uniform(0.2, 0.8, size=scores_shape)
    check("d_loss.real", lambda x: d_loss(x, Tensor(fake0)), real0)
    check("d_loss.fake", lambda x: d_loss(Tensor(real0), x), fake0)
    pred0 = _rand(rng, (2, 3, 4, 4))
    target0 = _rand(rng, (2, 3, 4, 4))
    check("mse_loss.pred", lambda x: mse_loss(x, Tensor(target0)), pred0)
    for variant in ("minimax", "nonsaturating"):
        check(
            f"g_loss.{variant}.scores",
            lambda x, v=variant: g_loss(x, Tensor(pred0), Tensor(target0), 0.1, v),
            fake0,
        )
        check(
            f"g_loss.{variant}.pred",
            lambda x, v=variant: g_loss(Tensor(fake0), x, Tensor(target0), 0.1, v),
            pred0,
        )

    # --- whole networks, double precision -----------------------------------
    tiny = SgenConfig(
        n_levels=2,
        base_channels=3,
        bottleneck_channels=3,
        disc_channels=(2, 3, 4, 5),
        merge_mode="sgu",
    )
    gen_rng = np.random.default_rng(_SEED + 1)
    gen = build_generator(tiny, gen_rng, dtype=np.float64)
    # non-zero gates so their backward rules are exercised off the init point
    for name in gen:
        if ".gate_" in name and name.endswith("weight"):
            gen[name].data += gen_rng.normal(0.0, 0.1, size=gen[name].shape)
    gen_in = rng.uniform(-0.9, 0.9, size=(1, 3, 16, 16))
    gen_w = _signed_unit(rng, (1, 3, 16, 16))

    def gen_loss(x):
        return _weighted_sum(generator_forward(x, gen, tiny), gen_w)

    check("generator.n2.input", gen_loss, gen_in, tol=NET_TOL)

    def gen_param_loss(w, name):
        probed = _with_param(gen, name, w)
        return _weighted_sum(generator_forward(Tensor(gen_in), probed, tiny), gen_w)

    for pname in ("out.conv.weight", "enc.trunk.0.bias", "sgu.enc.2.gate_a.weight"):
        check(
            f"generator.n2.{pname}",
            lambda w, n=pname: gen_param_loss(w, n),
            gen[pname].data.copy(),
            tol=NET_TOL,
        )

    disc = build_discriminator(tiny, np.random.default_rng(_SEED + 2), dtype=np.float64)
    disc_in = rng.uniform(-0.9, 0.9, size=(1, 3, 16, 16))

    def disc_loss(x):
        return ad.mean_all(discriminator_forward(x, disc, tiny))

    check("discriminator.input", disc_loss, disc_in, tol=NET_TOL)

    def disc_param_loss(w, name):
        probed = _with_param(disc, name, w)
        return ad.mean_all(discriminator_forward(Tensor(disc_in), probed, tiny))

    check(
        "discriminator.head.weight",
        lambda w: disc_param_loss(w, "disc.head.weight"),
        disc["disc.head.weight"].data.copy(),
        tol=NET_TOL,
    )

    # adversarial objective end to end: d(g_loss)/d(generator weight)
    target = rng.uniform(-0.9, 0.9, size=(1, 3, 16, 16))

    def adv_param_loss(w):
        pred = generator_forward(Tensor(gen_in), _with_param(gen, "dec.up.1.weight", w), tiny)
        score = discriminator_forward(pred, disc, tiny)
        return g_loss(score, pred, Tensor(target), 0.1, "minimax")

    check(
        "g_loss.through_networks.dec.up.1.weight",
        adv_param_loss,
        gen["dec.up.1.weight"].data.copy(),
        tol=NET_TOL,
    )

    # --- fused conv epilogues: input, weight and bias through the activation --
    # Their own stream, so every probe above stays as it was.  A relu or
    # lrelu layer is redrawn until no pre-activation lies within 1e-3 of the
    # kink, far more than an eps-step moves one.
    fused = np.random.default_rng([_SEED, 3])
    for op, act, cin, cout, k, hw, out_hw in (
        ("conv", "lrelu", 2, 3, 4, 6, 3),
        ("deconv", "relu", 3, 2, 4, 3, 6),
        ("conv", "sigmoid", 2, 3, 3, 5, 5),
        ("conv", "tanh", 2, 3, 3, 5, 5),
    ):
        apply = conv2d if op == "conv" else deconv2d
        while True:
            p = draw(op, cin, cout, k, fused, np.float64)
            x0 = _rand(fused, (2, cin, hw, hw))
            if act not in ("relu", "lrelu") or np.abs(apply(Tensor(x0), p).data).min() > 1e-3:
                break
        w_out = _signed_unit(fused, (2, cout, out_hw, out_hw))
        layer_checks(f"{op}2d.{act}.{cin}to{cout}.s{p.stride}", op, p, x0, w_out, act)

    # --- the SGU's gating node, ga*a + gp*p: all four inputs -----------------
    gating = np.random.default_rng([_SEED, 4])
    gating0 = [_rand(gating, (2, 3, 4, 4)) for _ in range(4)]
    gating_w = _signed_unit(gating, (2, 3, 4, 4))

    def gating_loss(x, i):
        args = [x if j == i else Tensor(v) for j, v in enumerate(gating0)]
        return _weighted_sum(ad.gated_sum(*args), gating_w)

    for i, name in enumerate(("ga", "a", "gp", "p")):
        check(f"gated_sum.{name}", lambda x, i=i: gating_loss(x, i), gating0[i])

    return results
