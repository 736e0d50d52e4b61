"""Network assembly: the multi-scale gated generator and the discriminator.

The generator runs an N-level trunk of stride-2 convs, projects every
trunk level down to a shared bottleneck resolution (1/2^(N+1) of the
input) with one strided "base encoder" conv per level, fuses the level
features sequentially with the configured merge, then mirrors the process
upward: one strided deconv per level back from the bottleneck, a second
sequential fusion cascade interleaved with factor-2 deconvs, and a final
3x3 conv + tanh.  Nothing shares parameters; every site has its own conv.

Each network is one ordered table of sites, ``generator_sites(cfg)`` and
``discriminator_sites(cfg)``: per site, its op (conv or deconv), input and
output width, kernel, the activation its op applies (lrelu on the trunk,
the base encoders and the critic, relu on the deconvs, tanh at the
output) and its init std.  Merge-conv rows come from
``sgen.ensemble.MERGE_SITES`` and carry no activation, since ``merge``
applies it.  The builders draw each row from its own kernel and init std
in table order, and the forwards apply a site by its name alone, so a
taped pass records one node per conv site and the widths, kernels and
activations are stated nowhere else.

The tables read a ``RunConfig``'s architecture fields (``n_levels``,
``base_channels``, ``bottleneck_channels``, ``merge_mode`` and
``disc_channels``), and every image the networks read or write is RGB,
``IMAGE_CHANNELS`` wide, so the config file's keys state the whole
network.

Parameters live in a ``ParamStore``, a flat dict of names to leaf
tensors, so checkpointing and the optimizer stay structure-agnostic; it
adds to a dict only ``zero_grad``, ``frozen`` and ``count_values``.  The
site tables are the only place network weights are drawn.  A forward
reads every width from the stored weights and wraps each stored kernel in
a ``ConvParams``, which reads its stride back, so it never states one.
``shape_mismatches`` compares a store with a table: every row's weight
and bias must be stored with the shapes ``sgen.nn.param_shapes`` lays the
row out in, and nothing else may be stored.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager

import numpy as np

from .autodiff import Tensor, sigmoid
from .config import RunConfig
from .ensemble import MERGE_SITES, merge
from .nn import ConvParams, conv2d, deconv2d, draw, global_avg_pool, param_shapes

__all__ = [
    "IMAGE_CHANNELS", "ParamStore", "Site", "generator_sites", "discriminator_sites",
    "shape_mismatches", "build_generator", "build_discriminator", "generator_forward", "discriminator_forward",
]


class ParamStore(dict):
    """Flat ordered dict of parameter names to leaf tensors."""

    def zero_grad(self) -> None:
        for t in self.values():
            t.zero_grad()

    @contextmanager
    def frozen(self):
        """Within the block no parameter requires grad, so a backward run
        inside it passes gradients through them but computes none for them."""
        flags = [(t, t.requires_grad) for t in self.values()]
        for t, _ in flags:
            t.requires_grad = False
        try:
            yield self
        finally:
            for t, flag in flags:
                t.requires_grad = flag

    def count_values(self) -> int:
        return sum(t.data.size for t in self.values())


# ---------------------------------------------------------------------------
# site tables

# the width of every image the networks read or write: RGB
IMAGE_CHANNELS = 3

# a site's row: its op ("conv" or "deconv"), the op's input and output
# widths, its kernel (which fixes its stride), the activation the op
# applies, and the init std (None for the He scale)
Site = namedtuple("Site", "op c_in c_out kernel act std", defaults=(None,))


def generator_sites(cfg: RunConfig) -> dict[str, Site]:
    """Every generator site in draw order, keyed by its parameter prefix.

    The trunk widths are stated here and nowhere else: trunk levels 0 and
    1 are ``base_channels`` wide, and each later level doubles the width,
    so level k >= 1 is ``base_channels << (k - 1)``.  A conv with an even
    kernel 2f pools by f, and a deconv with one upsamples by f.  Merge-conv
    rows come from ``MERGE_SITES`` and carry no activation: ``merge``
    applies it.
    """
    n, bot = cfg.n_levels, cfg.bottleneck_channels
    levels = range(1, n + 1)
    width = [cfg.base_channels] + [cfg.base_channels << (k - 1) for k in levels]
    prefix, convs = MERGE_SITES[cfg.merge_mode]

    def merges(stage):
        return {f"{prefix}.{stage}.{k}.{name}": Site("conv", fan * bot, bot, kernel, None, std)
                for k in range(2, n + 1) for name, (fan, kernel, std) in convs.items()}

    return {
        "enc.trunk.0": Site("conv", IMAGE_CHANNELS, width[0], 3, "lrelu"),
        **{f"enc.trunk.{k}": Site("conv", width[k - 1], width[k], 4, "lrelu") for k in levels},
        # every level lands on the same bottleneck grid: 1/2^(n+1) of the input
        **{f"enc.base.{k}": Site("conv", width[k], bot, 2 << (n - k + 1), "lrelu") for k in levels},
        **merges("enc"),
        # level k's deconv upsamples the bottleneck by 2^k
        **{f"dec.base.{k}": Site("deconv", bot, bot, 2 << k, "relu") for k in levels},
        **merges("dec"),
        **{f"dec.up.{k}": Site("deconv", bot, bot, 4, "relu") for k in levels},
        "out.conv": Site("conv", bot, IMAGE_CHANNELS, 3, "tanh"),
    }


def discriminator_sites(cfg: RunConfig) -> dict[str, Site]:
    """One stride-2 lrelu conv per ``disc_channels`` width, then a 1x1 head."""
    w = (IMAGE_CHANNELS, *cfg.disc_channels)
    sites = {f"disc.conv.{i}": Site("conv", w[i - 1], w[i], 4, "lrelu") for i in range(1, len(w))}
    return {**sites, "disc.head": Site("conv", w[-1], 1, 1, None)}


def shape_mismatches(store: ParamStore, sites: dict[str, Site]) -> list[str]:
    """One line per parameter whose stored shape is not the one its site
    row gives: a wrong width or kernel, a row not stored, a name no row
    declares.  Empty when ``store`` holds exactly the table."""
    want = {f"{name}.{part}": shape for name, s in sites.items()
            for part, shape in zip(("weight", "bias"), param_shapes(s.op, s.c_in, s.c_out, s.kernel))}
    have = {name: t.shape for name, t in store.items()}
    return [f"{name!r} is stored as {have.get(name, 'nothing')} where the site table gives {want.get(name, 'nothing')}"
            for name in {**want, **have} if have.get(name) != want.get(name)]


def _build(sites: dict[str, Site], rng: np.random.Generator, dtype) -> ParamStore:
    store = ParamStore()
    for name, s in sites.items():
        p = draw(s.op, s.c_in, s.c_out, s.kernel, rng, dtype, s.std)
        store[f"{name}.weight"], store[f"{name}.bias"] = p.weight, p.bias
    return store


def _at(store: ParamStore, name: str) -> ConvParams:
    return ConvParams(store[f"{name}.weight"], store[f"{name}.bias"])


def _applier(sites: dict[str, Site], params: ParamStore):
    """``apply(name, x)`` runs site ``name``'s op, weights and activation on x."""
    def apply(name: str, x: Tensor) -> Tensor:
        s = sites[name]
        return (conv2d if s.op == "conv" else deconv2d)(x, _at(params, name), s.act)
    return apply


# ---------------------------------------------------------------------------
# generator

def build_generator(cfg: RunConfig, rng: np.random.Generator, dtype=np.float32) -> ParamStore:
    """He-initialized trunk/encoder/decoder convs; merge gates start at zero."""
    return _build(generator_sites(cfg), rng, dtype)


def _nearest_multiples(size: int, d: int) -> str:
    """The multiples of d just below and just above size, as "lo/hi"."""
    return f"{size // d * d}/{(size + d - 1) // d * d}"


def generator_forward(
    s: Tensor, params: ParamStore, cfg: RunConfig, trace: dict | None = None
) -> Tensor:
    """Restore a normalized image batch; output is tanh-bounded in (-1, 1).

    ``trace``, when given, collects named intermediate tensors (trunk.k,
    base_enc.k, merged_enc.k, base_dec.k, up_dec.k) for shape inspection.
    """
    n_batch, c, h, w = s.shape
    n = cfg.n_levels
    if c != IMAGE_CHANNELS:
        raise ValueError(f"generator: input has {c} channels, expected {IMAGE_CHANNELS} (RGB)")
    if not cfg.fits(h, w):
        d = cfg.divisor
        raise ValueError(
            f"generator: input spatial dims ({h}, {w}) must be divisible by {d}"
            f" (n_levels={n}); nearest valid heights {_nearest_multiples(h, d)},"
            f" widths {_nearest_multiples(w, d)}"
        )
    peak = float(np.max(np.abs(s.data))) if s.data.size else 0.0
    if not peak <= 1.0 + 1e-5:  # so a NaN fails too
        raise ValueError(
            f"generator: input must be normalized to [-1, 1], max |value| = {peak:.3f}"
        )

    def note(key, t):
        if trace is not None:
            trace[key] = t
        return t

    apply = _applier(generator_sites(cfg), params)
    prefix, conv_names = MERGE_SITES[cfg.merge_mode]

    def merged(stage, k, new, prev):
        site = f"{prefix}.{stage}.{k}"
        return merge(cfg.merge_mode, new, prev, {name: _at(params, f"{site}.{name}") for name in conv_names})

    x = apply("enc.trunk.0", s)
    trunk = []  # without trunk.0's output, which only trunk.1 reads
    for k in range(1, n + 1):
        x = note(f"trunk.{k}", apply(f"enc.trunk.{k}", x))
        trunk.append(x)
    enc = [note(f"base_enc.{k}", apply(f"enc.base.{k}", trunk[k - 1])) for k in range(1, n + 1)]
    fused = [enc[0]]
    for k in range(2, n + 1):
        fused.append(note(f"merged_enc.{k}", merged("enc", k, enc[k - 1], fused[-1])))
    # level k decodes from the deepest unused fusion
    dec = [note(f"base_dec.{k}", apply(f"dec.base.{k}", fused[n - k])) for k in range(1, n + 1)]
    up = note("up_dec.1", apply("dec.up.1", dec[0]))
    for k in range(2, n + 1):
        up = note(f"up_dec.{k}", apply(f"dec.up.{k}", merged("dec", k, dec[k - 1], up)))
    return apply("out.conv", up)


# ---------------------------------------------------------------------------
# discriminator

def build_discriminator(cfg: RunConfig, rng: np.random.Generator, dtype=np.float32) -> ParamStore:
    return _build(discriminator_sites(cfg), rng, dtype)


def discriminator_forward(x: Tensor, params: ParamStore, cfg: RunConfig) -> Tensor:
    """Realness score in (0, 1) per batch element, shape (n, 1, 1, 1).

    One stride-2 conv per ``disc_channels`` width: height and width must be
    divisible by ``cfg.disc_divisor``, 2^len(disc_channels); global average
    pooling then makes the head size-independent, and a sigmoid of the
    pooled head is the score.
    """
    n_batch, c, h, w = x.shape
    if c != IMAGE_CHANNELS:
        raise ValueError(f"discriminator: input has {c} channels, expected {IMAGE_CHANNELS} (RGB)")
    d = cfg.disc_divisor
    if h < d or w < d or h % d or w % d:
        raise ValueError(
            f"discriminator: input spatial dims ({h}, {w}) must be >= {d} and divisible by {d}"
        )
    sites = discriminator_sites(cfg)
    apply = _applier(sites, params)
    for name in sites:
        x = apply(name, x)
    return sigmoid(global_avg_pool(x))
