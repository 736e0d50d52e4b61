"""Degradation protocol, synthetic corpus, resizing, and batching.

Degradation reproduces the evaluation recipe: box-average downsample by a
factor (default 4), add white Gaussian noise (default sigma 30) in the
low-resolution domain with clamping to [0, 255], then nearest-neighbor
upsample back to the original size.  Values stay float throughout; the
only quantization in the pipeline is PPM I/O.  The recipe's settings are a
``RunConfig``'s degradation fields (``scales``, ``down_factor``,
``noise_sigma``, ``seed``), which hold ``EVAL_SCALES`` as their default,
and ``RunConfig.label`` names the recipe in a report.

``degraded_pair`` is the one recipe from a corpus image to its pair at
one scale: it resizes the image to that scale, corrupts the copy with
``degrade`` and seeds that noise with (seed, image index, scale index).
``degraded_dataset`` runs it for every image at every scale; training and
``evaluate`` take their pairs from it, and ``sgen degrade`` runs one
``degraded_pair`` per pool task.  A pair holds its clean and corrupted
images only: its scale is its size, which ``batch_iter`` groups by and
``evaluate`` reports by.

All randomness flows through explicitly seeded numpy Generators, so every
dataset and batch order is reproducible from integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tensor

if TYPE_CHECKING:  # sgen.config reads EVAL_SCALES from here
    from .config import RunConfig

__all__ = [
    "EVAL_SCALES",
    "SamplePair",
    "degrade",
    "degraded_pair",
    "degraded_dataset",
    "box_downsample",
    "nearest_upsample",
    "bilinear_resize",
    "make_synthetic_corpus",
    "batch_iter",
    "normalize",
    "denormalize",
]

# the six evaluation sizes, (height, width), smallest first
EVAL_SCALES: tuple[tuple[int, int], ...] = (
    (128, 96),
    (144, 112),
    (160, 128),
    (176, 144),
    (192, 160),
    (208, 176),
)


@dataclass
class SamplePair:
    """One clean/corrupted training or evaluation pair; its scale is its
    size, ``clean.shape[2:]``."""

    clean: Tensor
    corrupted: Tensor


def normalize(t: Tensor) -> Tensor:
    """Pixel range [0, 255] -> network range [-1, 1]."""
    return Tensor(t.data / np.float32(127.5) - np.float32(1.0))


def denormalize(t: Tensor) -> Tensor:
    """Network range [-1, 1] -> pixel range [0, 255]."""
    return Tensor((t.data + np.float32(1.0)) * np.float32(127.5))


def box_downsample(arr: np.ndarray, factor: int) -> np.ndarray:
    """Average non-overlapping factor x factor blocks."""
    n, c, h, w = arr.shape
    if h % factor or w % factor:
        raise ValueError(f"box_downsample: dims ({h}, {w}) not divisible by {factor}")
    return arr.reshape(n, c, h // factor, factor, w // factor, factor).mean(axis=(3, 5))


def nearest_upsample(arr: np.ndarray, factor: int) -> np.ndarray:
    """Repeat each pixel into a factor x factor block.

    Each row is widened once, then one broadcast copy writes it factor
    times; broadcasting the pixels themselves copies runs only factor long.
    """
    n, c, h, w = arr.shape
    out = np.empty((n, c, h, factor, w * factor), arr.dtype)
    out[...] = arr.repeat(factor, axis=3)[:, :, :, np.newaxis]
    return out.reshape(n, c, h * factor, w * factor)


def degrade(clean: Tensor, spec: RunConfig, rng: np.random.Generator) -> Tensor:
    """The corrupted copy of one clean image; draws its noise from ``rng``."""
    small = box_downsample(clean.data, spec.down_factor)
    if spec.noise_sigma > 0:
        noise = rng.normal(0.0, spec.noise_sigma, size=small.shape)
        small = np.clip(small + noise, 0.0, 255.0).astype(clean.dtype)
    return Tensor(nearest_upsample(small, spec.down_factor))


def degraded_pair(image: Tensor, index: int, j: int, spec: RunConfig) -> SamplePair:
    """Corpus image ``index`` resized to ``spec.scales[j]`` and corrupted.

    The noise comes from a generator seeded with (spec.seed, index, j), so
    a pair depends only on its image, its place in the corpus and its
    scale, not on what else is processed or in which order.
    """
    clean = bilinear_resize(image, *spec.scales[j])
    return SamplePair(clean=clean, corrupted=degrade(clean, spec, np.random.default_rng((spec.seed, index, j))))


def degraded_dataset(images: list[Tensor], spec: RunConfig) -> list[SamplePair]:
    """Every image's ``degraded_pair`` at every scale: the images in corpus
    order, each one's scales in order."""
    return [degraded_pair(image, i, j, spec) for i, image in enumerate(images) for j in range(len(spec.scales))]


# ---------------------------------------------------------------------------
# resizing

def _axis_weights(src: int, dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-pixel-center bilinear sampling positions along one axis."""
    coords = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    lo = np.floor(coords).astype(np.int64)
    frac = coords - lo
    hi = np.clip(lo + 1, 0, src - 1)
    lo = np.clip(lo, 0, src - 1)
    return lo, hi, frac


def bilinear_resize(t: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear interpolation with half-pixel centers and edge replication.

    A resize to the same size returns a copy of the input: every sample
    then lies on its source pixel with weight 1 and on a neighbour with
    weight 0, so for finite input the weighted sum gives the same values
    (it could only turn a -0.0 into +0.0).
    """
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bilinear_resize: bad target size ({out_h}, {out_w})")
    _, _, h, w = t.shape
    if (h, w) == (out_h, out_w):
        return Tensor(t.data.copy())
    ylo, yhi, fy = _axis_weights(h, out_h)
    xlo, xhi, fx = _axis_weights(w, out_w)
    # each product is float64, as if the source were cast first (the cast is
    # exact).  Every source row is interpolated across once, then the output
    # rows gather those sums, so each output value is formed by the same
    # float64 operations in the same order as the direct expression; the
    # sums are formed in place.  take() returns C-order arrays, where fancy
    # indexing would return a transposed layout that every pass would walk
    across = t.data.take(xlo, axis=3) * (1 - fx)
    across += t.data.take(xhi, axis=3) * fx
    top = across.take(ylo, axis=2)
    top *= (1 - fy)[:, np.newaxis]
    bot = across.take(yhi, axis=2)
    bot *= fy[:, np.newaxis]
    top += bot
    return Tensor(top.astype(t.dtype))


# ---------------------------------------------------------------------------
# synthetic corpus

def _fill_ellipse(img: np.ndarray, yy, xx, cy, cx, ry, rx, color) -> None:
    mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    for ch in range(3):
        img[ch][mask] = color[ch]


def make_synthetic_corpus(count: int, seed: int, size: tuple[int, int] = (128, 96)) -> list[Tensor]:
    """Procedural face-like images: gradient background, skin ellipse,
    two eye dots, and a mouth arc.  Deterministic per (count, seed, size)."""
    if count < 1:
        raise ValueError(f"make_synthetic_corpus: count must be >= 1, got {count}")
    h, w = size
    if h < 8 or w < 8:
        raise ValueError(f"make_synthetic_corpus: size ({h}, {w}) too small")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    images = []
    for _ in range(count):
        img = np.empty((3, h, w), dtype=np.float64)
        # background: smooth two-corner gradient per channel
        for ch in range(3):
            c00, c11 = rng.uniform(20.0, 235.0, size=2)
            img[ch] = c00 + (c11 - c00) * (yy / max(h - 1, 1) + xx / max(w - 1, 1)) / 2.0
        # head
        cy = h * rng.uniform(0.42, 0.58)
        cx = w * rng.uniform(0.42, 0.58)
        ry = h * rng.uniform(0.28, 0.38)
        rx = w * rng.uniform(0.26, 0.36)
        skin = (
            rng.uniform(170.0, 230.0),
            rng.uniform(120.0, 180.0),
            rng.uniform(90.0, 150.0),
        )
        _fill_ellipse(img, yy, xx, cy, cx, ry, rx, skin)
        # eyes: dark dots mirrored around the face center
        eye_dy = ry * rng.uniform(0.25, 0.4)
        eye_dx = rx * rng.uniform(0.3, 0.45)
        eye_r = max(min(h, w) * rng.uniform(0.02, 0.04), 1.5)
        dark = (rng.uniform(10, 60), rng.uniform(10, 60), rng.uniform(10, 60))
        for side in (-1.0, 1.0):
            _fill_ellipse(img, yy, xx, cy - eye_dy, cx + side * eye_dx, eye_r, eye_r, dark)
        # mouth: a parabolic band below center
        mouth_y = cy + ry * rng.uniform(0.35, 0.55)
        curve = rng.uniform(0.02, 0.08)
        thick = max(h * rng.uniform(0.015, 0.03), 1.0)
        span = rx * rng.uniform(0.35, 0.55)
        arc = np.abs(yy - (mouth_y + curve * (xx - cx) ** 2 / max(w, 1))) <= thick
        band = arc & (np.abs(xx - cx) <= span)
        red = (rng.uniform(120, 190), rng.uniform(30, 80), rng.uniform(30, 80))
        for ch in range(3):
            img[ch][band] = red[ch]
        images.append(Tensor(np.clip(img, 0.0, 255.0)[np.newaxis].astype(np.float32)))
    return images


# ---------------------------------------------------------------------------
# batching

def batch_iter(pairs: list[SamplePair], batch_size: int, seed: int):
    """One epoch of single-size normalized batches.

    Pairs are grouped by size (``clean.shape[2:]``) and each group is
    shuffled, in the order its size first appears; each batch draws its
    size uniformly among groups that still have samples, so every pair
    appears exactly once per epoch and no batch mixes sizes.  Yields
    (corrupted, clean) with pixels mapped to [-1, 1].
    """
    if not pairs:
        raise ValueError("batch_iter: empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_iter: batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    groups: dict[tuple[int, int], list[SamplePair]] = {}
    for pair in pairs:
        groups.setdefault(pair.clean.shape[2:], []).append(pair)
    queues = {}
    for key, bucket in groups.items():
        order = rng.permutation(len(bucket))
        queues[key] = [bucket[i] for i in order]
    keys = list(queues)
    while keys:
        key = keys[rng.integers(len(keys))]
        queue = queues[key]
        take, queues[key] = queue[:batch_size], queue[batch_size:]
        if not queues[key]:
            keys.remove(key)
        s = np.concatenate([p.corrupted.data for p in take], axis=0)
        t = np.concatenate([p.clean.data for p in take], axis=0)
        yield normalize(Tensor(s)), normalize(Tensor(t))
