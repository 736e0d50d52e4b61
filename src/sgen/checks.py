"""Double-precision finite-difference battery over every backward rule.

Each entry builds a scalar loss from a probe tensor and compares the
taped gradient against central differences via ``grad_check``.  Per-op
checks must stay under 1e-5 relative error; whole-network composites
(generator, discriminator, adversarial loss through both) get 1e-4.
Probe values are nudged away from kinks (relu/lrelu corners, max ties,
clamp edges) so the finite-difference oracle is valid everywhere it
samples.

A check of one input of a many-input function goes through
``each_input``, which probes each named input in turn and holds the rest
at fixed values: the binary ops, ``maximum``, ``gated_sum``, the losses,
the SGU's two inputs and four gate parameters, and each conv layer's
input, weight and bias.  A row that probes one input alone (the
scalar-constant ops, activations, ``log``, ``clamp``, the left side of
``concat_channels``, the reductions) calls ``check`` itself, and
``net_check`` probes a whole network's input or one of its named
parameters.

Every probe, projection and network weight comes from ``_stream(label)``,
keyed by ``_SEED`` and one label per group of checks that share data: the
common prefix of their names where they have one (``add.(1, 1, 2, 3)``,
``conv2d.lrelu.2to3.s2``, ``sgu``, ``gated_sum``), else a word for the
group (``const``, ``losses``, ``networks``).  So adding, dropping or
moving a check changes no other check's probe.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .config import RunConfig
from .ensemble import sgu
from .losses import d_loss, g_loss, mse_loss
from .model import (
    ParamStore,
    build_discriminator,
    build_generator,
    discriminator_forward,
    generator_forward,
)
from .nn import ConvParams, conv2d, deconv2d, draw, geometry, global_avg_pool

__all__ = ["CheckResult", "run_gradient_battery", "OP_TOL", "NET_TOL"]

OP_TOL = 1e-5
NET_TOL = 1e-4

_SHAPES = ((1, 1, 2, 3), (2, 3, 4, 4), (1, 2, 5, 7))

# the one seed of every probe stream; see _stream
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


def _stream(label: str) -> np.random.Generator:
    """The probe stream of the checks in group ``label``: it depends on
    ``_SEED`` and the label alone, not on any other check."""
    return np.random.default_rng([_SEED, zlib.crc32(label.encode())])


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
    results: list[CheckResult] = []

    def check(name, build, probe, tol=OP_TOL):
        err = grad_check(build, Tensor(probe), 1e-5)
        result = CheckResult(name, err, tol)
        results.append(result)
        if on_result is not None:
            on_result(result)

    def each_input(names, fn, base, probes=None, weights=None):
        """Check input i of ``fn``, for each of ``names`` in order, at
        ``probes[i]`` (by default ``base[i]``) while every other input j is
        held at ``base[j]``; with ``weights``, project the output to a
        scalar by ``_weighted_sum``."""
        for i, (name, probe) in enumerate(zip(names, probes or base)):
            def loss(x):
                out = fn(*(x if j == i else Tensor(v) for j, v in enumerate(base)))
                return out if weights is None else _weighted_sum(out, weights)

            check(name, loss, probe)

    # --- elementwise arithmetic, both arguments --------------------------
    for kind, op in _BINARY_OPS.items():
        for shape in _SHAPES:
            s = _stream(f"{kind}.{shape}")
            other = _rand(s, shape)
            weights = _signed_unit(s, shape)
            each_input(
                [f"{kind}.lhs.{shape}", f"{kind}.rhs.{shape}"], op, [other, other],
                probes=[_rand(s, shape), _rand(s, shape)], weights=weights,
            )

    # --- scalar-constant ops ---------------------------------------------
    s = _stream("const")
    shape = _SHAPES[1]
    weights = _signed_unit(s, shape)
    check("add_const", lambda x: _weighted_sum(ad.add_const(x, 1.7), weights), _rand(s, shape))
    check("mul_const", lambda x: _weighted_sum(ad.mul_const(x, -2.3), weights), _rand(s, shape))
    check("const_minus", lambda x: _weighted_sum(ad.const_minus(0.9, x), weights), _rand(s, shape))

    # --- activations ------------------------------------------------------
    for kind, act in _ACTIVATIONS.items():
        for shape in _SHAPES:
            s = _stream(f"{kind}.{shape}")
            probe = _rand(s, shape)
            if kind in ("relu", "lrelu"):
                probe = _away_from_zero(probe)  # keep eps-steps off the corner
            weights = _signed_unit(s, shape)
            check(
                f"{kind}.{shape}",
                lambda x, act=act, w=weights: _weighted_sum(act(x), w),
                probe,
            )

    # --- log / clamp / maximum / concat / reductions ----------------------
    shape = _SHAPES[2]
    s = _stream("log")
    log_w = _signed_unit(s, shape)
    check("log", lambda x: _weighted_sum(ad.log(x), log_w), s.uniform(0.2, 2.0, size=shape))
    s = _stream("clamp")
    clamp_w = _signed_unit(s, shape)
    clamp_probe = s.uniform(-1.0, 1.0, size=shape)
    clamp_probe = np.where(np.abs(np.abs(clamp_probe) - 0.5) < 0.05, clamp_probe * 0.8, clamp_probe)
    check("clamp", lambda x: _weighted_sum(ad.clamp(x, -0.5, 0.5), clamp_w), clamp_probe)
    s = _stream("maximum")
    max_w = _signed_unit(s, shape)
    rival = _rand(s, shape)
    max_probe = rival + np.where(_rand(s, shape) > 0, 0.3, -0.3)  # no near-ties
    each_input(["maximum.lhs", "maximum.rhs"], ad.maximum, [max_probe, rival], weights=max_w)
    s = _stream("concat_channels")
    cat_w = _signed_unit(s, (1, 4, 5, 7))
    cat_rhs = _rand(s, shape)
    check("concat_channels", lambda x: _weighted_sum(ad.concat_channels(x, Tensor(cat_rhs)), cat_w), _rand(s, shape))
    check("sum_all", lambda x: ad.sum_all(x), _rand(_stream("sum_all"), shape))
    check("mean_all", lambda x: ad.mean_all(x), _rand(_stream("mean_all"), shape))
    s = _stream("global_avg_pool")
    gap_w = _signed_unit(s, (2, 3, 1, 1))
    check("global_avg_pool", lambda x: _weighted_sum(global_avg_pool(x), gap_w), _rand(s, (2, 3, 4, 5)))

    # --- conv2d / deconv2d: input, weight and bias gradients ---------------
    # Both channel orders, so every kernel runs with either side unfolded,
    # plus kernel 16 (stride 8), the kernel of enc.base.1 and dec.base.3 in
    # the paper config.  A 1 -> 5 conv and a 5 -> 1 deconv at stride 2 have
    # s*s*c <= o, so they unfold the fine side where the other pairs run the
    # GEMM first, and the deconv's scatter shift-adds.  A row with an
    # activation checks the fused epilogue through it; a relu or lrelu layer
    # is redrawn until no pre-activation lies within 1e-3 of the kink, far
    # more than an eps-step moves one.
    for op, act, cin, cout, k, hw in (
        ("conv", None, 2, 3, 3, 6), ("conv", None, 2, 3, 4, 6), ("conv", None, 2, 3, 8, 8),
        ("conv", None, 3, 2, 3, 6), ("conv", None, 3, 2, 4, 6), ("conv", None, 3, 2, 8, 8),
        ("conv", None, 2, 3, 16, 16), ("conv", None, 1, 5, 4, 6),
        ("deconv", None, 3, 2, 4, 3), ("deconv", None, 3, 2, 8, 2),
        ("deconv", None, 2, 3, 4, 3), ("deconv", None, 2, 3, 8, 2), ("deconv", None, 3, 2, 16, 2),
        ("deconv", None, 5, 1, 4, 3),
        ("conv", "lrelu", 2, 3, 4, 6), ("deconv", "relu", 3, 2, 4, 3),
        ("conv", "sigmoid", 2, 3, 3, 5), ("conv", "tanh", 2, 3, 3, 5),
    ):
        label = f"{op}2d.{act + '.' if act else ''}{cin}to{cout}.s{geometry(k)[0]}"
        s = _stream(label)
        apply = conv2d if op == "conv" else deconv2d
        while True:
            p = draw(op, cin, cout, k, s, np.float64)
            x0 = _rand(s, (2, cin, hw, hw))
            pre = apply(Tensor(x0), p).data
            if act not in ("relu", "lrelu") or np.abs(pre).min() > 1e-3:
                break
        each_input(
            [f"{label}.{part}" for part in ("input", "weight", "bias")],
            lambda x, w, b: apply(x, ConvParams(w, b), act),
            [x0, p.weight.data, p.bias.data],
            weights=_signed_unit(s, pre.shape),
        )

    # --- SGU: both inputs and all four gate parameters ---------------------
    s = _stream("sgu")
    gates = {gate: draw("conv", 3, 3, 3, s, np.float64, 0.15) for gate in ("gate_a", "gate_p")}
    active0 = _rand(s, (2, 3, 5, 5))
    passive0 = _rand(s, (2, 3, 5, 5))
    each_input(
        ["sgu.active", "sgu.passive"] + [f"sgu.{g}.{part}" for part in ("weight", "bias") for g in gates],
        lambda a, p, wa, wp, ba, bp: sgu(a, p, {"gate_a": ConvParams(wa, ba), "gate_p": ConvParams(wp, bp)}),
        [active0, passive0] + [getattr(gates[g], part).data for part in ("weight", "bias") for g in gates],
        weights=_signed_unit(s, (2, 3, 5, 5)),
    )

    # --- losses -------------------------------------------------------------
    s = _stream("losses")
    scores_shape = (4, 1, 1, 1)
    real0 = s.uniform(0.2, 0.8, size=scores_shape)
    fake0 = s.uniform(0.2, 0.8, size=scores_shape)
    each_input(["d_loss.real", "d_loss.fake"], d_loss, [real0, fake0])
    pred0 = _rand(s, (2, 3, 4, 4))
    target0 = _rand(s, (2, 3, 4, 4))
    each_input(["mse_loss.pred"], mse_loss, [pred0, target0])
    for variant in ("minimax", "nonsaturating"):
        each_input(
            [f"g_loss.{variant}.scores", f"g_loss.{variant}.pred"],
            lambda scores, pred, target: g_loss(scores, pred, target, 0.1, variant),
            [fake0, pred0, target0],
        )

    # --- whole networks, double precision -----------------------------------
    tiny = RunConfig(
        n_levels=2,
        base_channels=3,
        bottleneck_channels=3,
        disc_channels=(2, 3, 4, 5),
        merge_mode="sgu",
    )
    s = _stream("networks")
    gen = build_generator(tiny, s, dtype=np.float64)
    # non-zero gates so their backward rules are exercised off the init point
    for name in gen:
        if ".gate_" in name and name.endswith("weight"):
            gen[name].data += s.normal(0.0, 0.1, size=gen[name].shape)
    disc = build_discriminator(tiny, s, dtype=np.float64)
    gen_in = s.uniform(-0.9, 0.9, size=(1, 3, 16, 16))
    gen_w = _signed_unit(s, (1, 3, 16, 16))
    disc_in = s.uniform(-0.9, 0.9, size=(1, 3, 16, 16))
    target = s.uniform(-0.9, 0.9, size=(1, 3, 16, 16))

    def gen_loss(x, g):
        return _weighted_sum(generator_forward(x, g, tiny), gen_w)

    def disc_loss(x, d):
        return ad.mean_all(discriminator_forward(x, d, tiny))

    def adv_loss(x, g):
        """The adversarial objective end to end, through both networks."""
        pred = generator_forward(x, g, tiny)
        return g_loss(discriminator_forward(pred, disc, tiny), pred, Tensor(target), 0.1, "minimax")

    def net_check(name, loss, store, x0, param):
        """Probe the input, or with ``param`` that parameter of ``store``."""
        if param is None:
            check(name, lambda x: loss(x, store), x0, NET_TOL)
        else:
            check(name, lambda w: loss(Tensor(x0), _with_param(store, param, w)), store[param].data.copy(), NET_TOL)

    for row in (
        ("generator.n2.input", gen_loss, gen, gen_in, None),
        ("generator.n2.out.conv.weight", gen_loss, gen, gen_in, "out.conv.weight"),
        ("generator.n2.enc.trunk.0.bias", gen_loss, gen, gen_in, "enc.trunk.0.bias"),
        ("generator.n2.sgu.enc.2.gate_a.weight", gen_loss, gen, gen_in, "sgu.enc.2.gate_a.weight"),
        ("discriminator.input", disc_loss, disc, disc_in, None),
        ("discriminator.head.weight", disc_loss, disc, disc_in, "disc.head.weight"),
        ("g_loss.through_networks.dec.up.1.weight", adv_loss, gen, gen_in, "dec.up.1.weight"),
    ):
        net_check(*row)

    # --- the SGU's gating node, ga*a + gp*p: all four inputs -----------------
    s = _stream("gated_sum")
    gating0 = [_rand(s, (2, 3, 4, 4)) for _ in range(4)]
    each_input(
        [f"gated_sum.{name}" for name in ("ga", "a", "gp", "p")], ad.gated_sum, gating0,
        weights=_signed_unit(s, (2, 3, 4, 4)),
    )

    return results
