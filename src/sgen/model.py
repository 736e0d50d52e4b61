"""Network assembly: the multi-scale gated generator and the discriminator.

The generator runs an N-level trunk of stride-2 convs, projects every
trunk level down to a shared bottleneck resolution (1/2^(N+1) of the
input) with one strided "base encoder" conv per level, fuses the level
features sequentially with the configured merge, then mirrors the process
upward: one strided deconv per level back from the bottleneck, a second
sequential fusion cascade interleaved with factor-2 deconvs, and a final
3x3 conv + tanh.  Nothing shares parameters; every site has its own conv.
Each conv applies its activation in its own op (lrelu on the trunk, the
base encoders and the discriminator, relu on the deconvs, tanh at the
output), so a taped pass records one node per conv site.

Parameters live in a flat name -> Tensor store so checkpointing and the
optimizer stay structure-agnostic.  The build fixes each site's geometry
in the size of its kernel; forward passes wrap each stored kernel in a
``ConvParams``, which reads its stride back, and never state one.  Each
merge site's convs and their names come from ``sgen.ensemble.MERGE_SITES``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, sigmoid
from .ensemble import MERGE_MODES, MERGE_SITES, merge, merge_convs
from .nn import ConvParams, conv2d, conv_params, deconv2d, deconv_params, global_avg_pool
from .settings import WIDTHS, Settings, at_least, choice, setting

__all__ = [
    "SgenConfig",
    "ParamStore",
    "build_generator",
    "build_discriminator",
    "generator_forward",
    "discriminator_forward",
]


@dataclass(frozen=True)
class SgenConfig(Settings):
    """The network architecture; RunConfig adds degradation and training.

    n_levels is the trunk depth N; inputs must be divisible by 2^(N+1).
    base_channels is the width of the first trunk level (doubling per
    level); bottleneck_channels is the shared width of all base-encoder
    and decoder features.  in_channels covers grayscale test rigs; image
    data is RGB.  Every lrelu uses ``sgen.autodiff.LRELU_SLOPE``.
    """

    n_levels: int = setting(3, at_least(2))
    base_channels: int = setting(32, at_least(1))
    bottleneck_channels: int = setting(64, at_least(1))
    merge_mode: str = setting("sgu", choice(MERGE_MODES))
    in_channels: int = setting(3, at_least(1))
    disc_channels: tuple[int, ...] = setting((32, 64, 128, 256), WIDTHS)

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
    prefix = MERGE_SITES[cfg.merge_mode][0]
    for k in range(2, cfg.n_levels + 1):
        for name, p in merge_convs(cfg.merge_mode, cfg.bottleneck_channels, rng, dtype).items():
            _add_conv(store, f"{prefix}.{stage}.{k}.{name}", p)


def _at(store: ParamStore, name: str) -> ConvParams:
    return ConvParams(store[f"{name}.weight"], store[f"{name}.bias"])


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

    prefix, conv_names = MERGE_SITES[cfg.merge_mode]

    def merged(stage, k, new, prev):
        site = f"{prefix}.{stage}.{k}"
        return merge(cfg.merge_mode, new, prev, {name: _at(params, f"{site}.{name}") for name in conv_names})

    x = conv2d(s, _at(params, "enc.trunk.0"), "lrelu")
    x = conv2d(x, _at(params, "enc.trunk.1"), "lrelu")
    trunk = [x]
    note("trunk.1", x)
    for k in range(2, n + 1):
        x = conv2d(x, _at(params, f"enc.trunk.{k}"), "lrelu")
        trunk.append(x)
        note(f"trunk.{k}", x)

    # every level lands on the same bottleneck grid: 1/2^(n+1) of the input
    enc = []
    for k in range(1, n + 1):
        e = conv2d(trunk[k - 1], _at(params, f"enc.base.{k}"), "lrelu")
        enc.append(e)
        note(f"base_enc.{k}", e)

    fused = [enc[0]]
    for k in range(2, n + 1):
        m = merged("enc", k, enc[k - 1], fused[-1])
        fused.append(m)
        note(f"merged_enc.{k}", m)

    # decode level k from the deepest unused fusion: deconv by 2^k
    dec = []
    for k in range(1, n + 1):
        y = deconv2d(fused[n - k], _at(params, f"dec.base.{k}"), "relu")
        dec.append(y)
        note(f"base_dec.{k}", y)

    up = deconv2d(dec[0], _at(params, "dec.up.1"), "relu")
    note("up_dec.1", up)
    for k in range(2, n + 1):
        m = merged("dec", k, dec[k - 1], up)
        up = deconv2d(m, _at(params, f"dec.up.{k}"), "relu")
        note(f"up_dec.{k}", up)

    return conv2d(up, _at(params, "out.conv"), "tanh")


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

    One stride-2 conv per ``disc_channels`` width: height and width must be
    divisible by 2^depth (16 for four widths); global average pooling then
    makes the head size-independent.
    """
    n_batch, c, h, w = x.shape
    if c != cfg.in_channels:
        raise ValueError(f"discriminator: input has {c} channels, config expects {cfg.in_channels}")
    depth = len(cfg.disc_channels)
    d = 1 << depth
    if h < d or w < d or h % d or w % d:
        raise ValueError(
            f"discriminator: input spatial dims ({h}, {w}) must be >= {d} and divisible by {d}"
        )
    out = x
    for i in range(1, depth + 1):
        out = conv2d(out, _at(params, f"disc.conv.{i}"), "lrelu")
    out = conv2d(out, _at(params, "disc.head"))
    return sigmoid(global_avg_pool(out))
