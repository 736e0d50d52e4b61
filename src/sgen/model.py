"""Network assembly: the multi-scale gated generator and the discriminator.

The generator runs an N-level trunk of stride-2 convs, projects every
trunk level down to a shared bottleneck resolution (1/2^(N+1) of the
input) with one strided "base encoder" conv per level, fuses the level
features sequentially with the configured merge, then mirrors the process
upward: one strided deconv per level back from the bottleneck, a second
sequential fusion cascade interleaved with factor-2 deconvs, and a final
3x3 conv + tanh.  Nothing shares parameters; every site has its own conv.

Parameters live in a flat name -> Tensor store so checkpointing and the
optimizer stay structure-agnostic.  Forward passes reconstruct per-site
geometry from the config plus stored weight shapes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, lrelu, relu, sigmoid, tanh
from .ensemble import MERGE_MODES, SguParams, merge
from .nn import ConvParams, DeconvParams, conv2d, conv_params, deconv2d, deconv_params, global_avg_pool

__all__ = [
    "SgenConfig",
    "ParamStore",
    "build_generator",
    "build_discriminator",
    "generator_forward",
    "discriminator_forward",
]


@dataclass
class SgenConfig:
    """The network architecture; training settings live in RunConfig.

    n_levels is the trunk depth N; inputs must be divisible by 2^(N+1).
    base_channels is the width of the first trunk level (doubling per
    level); bottleneck_channels is the shared width of all base-encoder
    and decoder features.  in_channels covers grayscale test rigs; image
    data is RGB.
    """

    n_levels: int = 3
    base_channels: int = 32
    bottleneck_channels: int = 64
    merge_mode: str = "sgu"
    lrelu_slope: float = 0.2
    in_channels: int = 3
    disc_channels: tuple[int, ...] = (32, 64, 128, 256)

    def __post_init__(self):
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")
        for key in ("base_channels", "bottleneck_channels"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if self.merge_mode not in MERGE_MODES:
            raise ValueError(f"merge_mode {self.merge_mode!r} not in {MERGE_MODES}")
        if not 0.0 < self.lrelu_slope < 1.0:
            raise ValueError(f"lrelu_slope must lie in (0, 1), got {self.lrelu_slope}")
        if len(self.disc_channels) != 4:
            raise ValueError("disc_channels must list four widths")

    @property
    def divisor(self) -> int:
        """Required divisibility of input height and width."""
        return 1 << (self.n_levels + 1)

    def fits(self, h: int, w: int) -> bool:
        """Whether an h x w input passes through the generator."""
        return h % self.divisor == 0 and w % self.divisor == 0

    def trunk_channels(self, k: int) -> int:
        """Width of trunk level k (1-based): base_channels * 2^(k-1)."""
        return self.base_channels << (k - 1)


class ParamStore:
    """Flat ordered mapping of parameter names to leaf tensors."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> None:
        if name in self._tensors:
            raise ValueError(f"ParamStore: duplicate parameter name {name!r}")
        self._tensors[name] = tensor

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"ParamStore: no parameter named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    @contextmanager
    def frozen(self):
        """Within the block no parameter requires grad, so a backward run
        inside it passes gradients through them but computes none for them."""
        flags = [(t, t.requires_grad) for t in self._tensors.values()]
        for t, _ in flags:
            t.requires_grad = False
        try:
            yield self
        finally:
            for t, flag in flags:
                t.requires_grad = flag

    def count_values(self) -> int:
        return sum(t.data.size for t in self._tensors.values())


# ---------------------------------------------------------------------------
# generator

def _add_conv(store: ParamStore, name: str, p) -> None:
    store.add(f"{name}.weight", p.weight)
    store.add(f"{name}.bias", p.bias)


def build_generator(cfg: SgenConfig, rng: np.random.Generator, dtype=np.float32) -> ParamStore:
    """He-initialized trunk/encoder/decoder convs; merge gates start at zero."""
    n, c_bot = cfg.n_levels, cfg.bottleneck_channels
    store = ParamStore()
    _add_conv(store, "enc.trunk.0", conv_params(cfg.in_channels, cfg.base_channels, 1, rng, dtype))
    _add_conv(store, "enc.trunk.1", conv_params(cfg.base_channels, cfg.trunk_channels(1), 2, rng, dtype))
    for k in range(2, n + 1):
        _add_conv(
            store,
            f"enc.trunk.{k}",
            conv_params(cfg.trunk_channels(k - 1), cfg.trunk_channels(k), 2, rng, dtype),
        )
    for k in range(1, n + 1):
        _add_conv(
            store,
            f"enc.base.{k}",
            conv_params(cfg.trunk_channels(k), c_bot, 1 << (n - k + 1), rng, dtype),
        )
    _build_merge_sites(store, cfg, "enc", rng, dtype)
    for k in range(1, n + 1):
        _add_conv(store, f"dec.base.{k}", deconv_params(c_bot, c_bot, 1 << k, rng, dtype))
    _build_merge_sites(store, cfg, "dec", rng, dtype)
    for k in range(1, n + 1):
        _add_conv(store, f"dec.up.{k}", deconv_params(c_bot, c_bot, 2, rng, dtype))
    _add_conv(store, "out.conv", conv_params(c_bot, cfg.in_channels, 1, rng, dtype))
    return store


def _build_merge_sites(store, cfg, stage: str, rng, dtype) -> None:
    c = cfg.bottleneck_channels
    for k in range(2, cfg.n_levels + 1):
        if cfg.merge_mode == "sgu":
            # zero-initialized gates: training starts as the average ensemble
            _add_conv(store, f"sgu.{stage}.{k}.gate_a", conv_params(c, c, 1, rng, dtype, weight_std=0.0))
            _add_conv(store, f"sgu.{stage}.{k}.gate_p", conv_params(c, c, 1, rng, dtype, weight_std=0.0))
        elif cfg.merge_mode == "concat":
            _add_conv(store, f"merge.{stage}.{k}.proj", conv_params(2 * c, c, 1, rng, dtype, kernel=1))


def _conv_at(store: ParamStore, name: str, stride: int) -> ConvParams:
    weight = store[f"{name}.weight"]
    k = weight.shape[2]
    return ConvParams(weight=weight, bias=store[f"{name}.bias"], stride=stride, padding=(k - stride) // 2)


def _deconv_at(store: ParamStore, name: str, factor: int) -> DeconvParams:
    return DeconvParams(
        weight=store[f"{name}.weight"],
        bias=store[f"{name}.bias"],
        stride=factor,
        padding=factor // 2,
    )


def _merge_params_at(store: ParamStore, cfg: SgenConfig, stage: str, k: int):
    if cfg.merge_mode == "sgu":
        return SguParams(
            gate_a=_conv_at(store, f"sgu.{stage}.{k}.gate_a", 1),
            gate_p=_conv_at(store, f"sgu.{stage}.{k}.gate_p", 1),
        )
    if cfg.merge_mode == "concat":
        return _conv_at(store, f"merge.{stage}.{k}.proj", 1)
    return None


def _nearest_multiples(size: int, d: int) -> str:
    """The multiples of d just below and just above size, as "lo/hi"."""
    return f"{size // d * d}/{(size + d - 1) // d * d}"


def generator_forward(
    s: Tensor, params: ParamStore, cfg: SgenConfig, trace: dict | None = None
) -> Tensor:
    """Restore a normalized image batch; output is tanh-bounded in (-1, 1).

    ``trace``, when given, collects named intermediate tensors (trunk.k,
    base_enc.k, merged_enc.k, base_dec.k, up_dec.k) for shape inspection.
    """
    n_batch, c, h, w = s.shape
    n = cfg.n_levels
    slope = cfg.lrelu_slope
    if c != cfg.in_channels:
        raise ValueError(f"generator: input has {c} channels, config expects {cfg.in_channels}")
    if not cfg.fits(h, w):
        d = cfg.divisor
        raise ValueError(
            f"generator: input spatial dims ({h}, {w}) must be divisible by {d}"
            f" (n_levels={n}); nearest valid heights {_nearest_multiples(h, d)},"
            f" widths {_nearest_multiples(w, d)}"
        )
    peak = float(np.max(np.abs(s.data))) if s.data.size else 0.0
    if peak > 1.0 + 1e-5:
        raise ValueError(
            f"generator: input must be normalized to [-1, 1], max |value| = {peak:.3f}"
        )

    def note(key, t):
        if trace is not None:
            trace[key] = t

    x = lrelu(conv2d(s, _conv_at(params, "enc.trunk.0", 1)), slope)
    x = lrelu(conv2d(x, _conv_at(params, "enc.trunk.1", 2)), slope)
    trunk = [x]
    note("trunk.1", x)
    for k in range(2, n + 1):
        x = lrelu(conv2d(x, _conv_at(params, f"enc.trunk.{k}", 2)), slope)
        trunk.append(x)
        note(f"trunk.{k}", x)

    # every level lands on the same bottleneck grid: 1/2^(n+1) of the input
    enc = []
    for k in range(1, n + 1):
        e = lrelu(conv2d(trunk[k - 1], _conv_at(params, f"enc.base.{k}", 1 << (n - k + 1))), slope)
        enc.append(e)
        note(f"base_enc.{k}", e)

    fused = [enc[0]]
    for k in range(2, n + 1):
        m = merge(cfg.merge_mode, enc[k - 1], fused[-1], _merge_params_at(params, cfg, "enc", k))
        fused.append(m)
        note(f"merged_enc.{k}", m)

    # decode level k from the deepest unused fusion: deconv by 2^k
    dec = []
    for k in range(1, n + 1):
        y = relu(deconv2d(fused[n - k], _deconv_at(params, f"dec.base.{k}", 1 << k)))
        dec.append(y)
        note(f"base_dec.{k}", y)

    up = relu(deconv2d(dec[0], _deconv_at(params, "dec.up.1", 2)))
    note("up_dec.1", up)
    for k in range(2, n + 1):
        m = merge(cfg.merge_mode, dec[k - 1], up, _merge_params_at(params, cfg, "dec", k))
        up = relu(deconv2d(m, _deconv_at(params, f"dec.up.{k}", 2)))
        note(f"up_dec.{k}", up)

    return tanh(conv2d(up, _conv_at(params, "out.conv", 1)))


# ---------------------------------------------------------------------------
# discriminator

def build_discriminator(cfg: SgenConfig, rng: np.random.Generator, dtype=np.float32) -> ParamStore:
    store = ParamStore()
    widths = cfg.disc_channels
    prev = cfg.in_channels
    for i, width in enumerate(widths, start=1):
        _add_conv(store, f"disc.conv.{i}", conv_params(prev, width, 2, rng, dtype))
        prev = width
    _add_conv(store, "disc.head", conv_params(prev, 1, 1, rng, dtype, kernel=1))
    return store


def discriminator_forward(x: Tensor, params: ParamStore, cfg: SgenConfig) -> Tensor:
    """Realness score in (0, 1) per batch element, shape (n, 1, 1, 1).

    Four stride-2 convs need height and width divisible by 16; global
    average pooling then makes the head size-independent.
    """
    n_batch, c, h, w = x.shape
    if c != cfg.in_channels:
        raise ValueError(f"discriminator: input has {c} channels, config expects {cfg.in_channels}")
    if h < 16 or w < 16 or h % 16 or w % 16:
        raise ValueError(
            f"discriminator: input spatial dims ({h}, {w}) must be >= 16 and divisible by 16"
        )
    slope = cfg.lrelu_slope
    out = x
    for i in range(1, 5):
        out = lrelu(conv2d(out, _conv_at(params, f"disc.conv.{i}", 2)), slope)
    out = conv2d(out, _conv_at(params, "disc.head", 1))
    return sigmoid(global_avg_pool(out))
