"""Degradation, resizing, synthetic corpus, and batching tests."""

import hashlib

import numpy as np
import pytest

from sgen import (
    EVAL_SCALES,
    RunConfig,
    SamplePair,
    Tensor,
    batch_iter,
    bilinear_resize,
    degrade,
    degraded_dataset,
    degraded_pair,
    denormalize,
    make_synthetic_corpus,
    normalize,
)
from sgen.data import box_downsample, nearest_upsample

from oracles import bilinear_resize_expression


# ---------------------------------------------------------------------------
# spec validation


def test_degrade_spec_defaults():
    spec = RunConfig()
    assert spec.scales == EVAL_SCALES
    assert spec.down_factor == 4
    assert spec.noise_sigma == 30.0


def test_degrade_spec_validation():
    with pytest.raises(ValueError, match="down_factor"):
        RunConfig(down_factor=0)
    with pytest.raises(ValueError, match="noise_sigma"):
        RunConfig(noise_sigma=-1.0)
    with pytest.raises(ValueError, match="scales must not be empty"):
        RunConfig(scales=())
    with pytest.raises(ValueError, match=r"\(130, 96\) not divisible by down_factor 4"):
        RunConfig(scales=((130, 96),))


def test_eval_scales_are_ascending_and_divisible():
    assert EVAL_SCALES == tuple(sorted(EVAL_SCALES))
    assert all(h % 16 == 0 and w % 16 == 0 for h, w in EVAL_SCALES)
    assert len(EVAL_SCALES) == 6


# ---------------------------------------------------------------------------
# range mapping


def test_normalize_endpoints():
    t = Tensor(np.array([0.0, 127.5, 255.0], dtype=np.float32).reshape(1, 1, 1, 3))
    np.testing.assert_allclose(normalize(t).data.ravel(), [-1.0, 0.0, 1.0], atol=1e-7)


def test_denormalize_endpoints():
    t = Tensor(np.array([-1.0, 0.0, 1.0], dtype=np.float32).reshape(1, 1, 1, 3))
    np.testing.assert_allclose(denormalize(t).data.ravel(), [0.0, 127.5, 255.0], atol=1e-5)


def test_normalize_round_trip():
    rng = np.random.default_rng(0)
    t = Tensor(rng.uniform(0, 255, size=(1, 3, 8, 8)).astype(np.float32))
    back = denormalize(normalize(t))
    np.testing.assert_allclose(back.data, t.data, atol=1e-4)


# ---------------------------------------------------------------------------
# resampling primitives


def test_box_downsample_hand_example():
    arr = np.array(
        [[1.0, 3.0, 0.0, 0.0], [5.0, 7.0, 0.0, 4.0], [2.0, 2.0, 8.0, 8.0], [2.0, 2.0, 8.0, 8.0]]
    ).reshape(1, 1, 4, 4)
    got = box_downsample(arr, 2)
    np.testing.assert_array_equal(got.reshape(2, 2), [[4.0, 1.0], [2.0, 8.0]])


def test_box_downsample_rejects_indivisible():
    with pytest.raises(ValueError, match=r"\(5, 4\) not divisible by 2"):
        box_downsample(np.zeros((1, 1, 5, 4)), 2)


def test_nearest_upsample_hand_example():
    arr = np.array([[1.0, 2.0]]).reshape(1, 1, 1, 2)
    got = nearest_upsample(arr, 2)
    np.testing.assert_array_equal(got.reshape(2, 4), [[1, 1, 2, 2], [1, 1, 2, 2]])


@pytest.mark.parametrize("factor", [*range(1, 10), 12, 16])
def test_resamplers_match_the_numpy_expressions_bit_for_bit(factor):
    """``box_downsample`` is numpy's ``mean(axis=(3, 5))`` over the blocks
    and ``nearest_upsample`` is a copy, so both give the bits of the plain
    numpy expressions on random float32 arrays."""
    rng = np.random.default_rng(factor)
    for _ in range(100):
        n, hb, wb = rng.integers(1, 3), rng.integers(1, 6), rng.integers(2, 6)
        scale = rng.choice([1.0, 255.0, 1e4])
        arr = (rng.standard_normal((n, 3, hb * factor, wb * factor)) * scale).astype(np.float32)
        blocks = arr.reshape(n, 3, hb, factor, wb, factor)
        small = box_downsample(arr, factor)
        assert small.dtype == np.float32
        assert small.tobytes() == blocks.mean(axis=(3, 5)).tobytes()
        big = nearest_upsample(small, factor)
        assert big.flags.c_contiguous
        assert big.tobytes() == small.repeat(factor, axis=2).repeat(factor, axis=3).tobytes()


def test_down_then_up_is_identity_on_block_constant_images():
    rng = np.random.default_rng(1)
    blocks = rng.uniform(0, 255, size=(1, 3, 8, 6))
    arr = nearest_upsample(blocks, 4)
    np.testing.assert_array_equal(nearest_upsample(box_downsample(arr, 4), 4), arr)


# ---------------------------------------------------------------------------
# degradation


def test_degrade_sigma_zero_is_pure_resampling():
    rng = np.random.default_rng(2)
    clean = Tensor(rng.uniform(0, 255, size=(1, 3, 32, 32)).astype(np.float32))
    spec = RunConfig(scales=((32, 32),), noise_sigma=0.0)
    corrupted = degrade(clean, spec, np.random.default_rng(0))
    want = nearest_upsample(box_downsample(clean.data, 4), 4)
    np.testing.assert_array_equal(corrupted.data, want)


def test_degrade_noise_statistics_match_sigma():
    """Mean ~0 and std ~30 measured in the low-resolution domain."""
    spec = RunConfig(scales=((208, 176),), noise_sigma=30.0)
    clean = Tensor(np.full((1, 3, 208, 176), 128.0, dtype=np.float32))
    small_clean = box_downsample(clean.data, 4)
    samples = []
    for trial in range(20):
        corrupted = degrade(clean, spec, np.random.default_rng(trial))
        small_noisy = box_downsample(corrupted.data, 4)  # exact: blocks constant
        samples.append((small_noisy - small_clean).ravel())
    noise = np.concatenate(samples)  # 20 * 52 * 44 * 3 = 137k draws
    assert abs(noise.mean()) < 0.5
    assert noise.std() == pytest.approx(30.0, rel=0.02)


def test_degrade_clamps_to_pixel_range():
    spec = RunConfig(scales=((32, 32),), noise_sigma=200.0)
    clean = Tensor(np.full((1, 3, 32, 32), 128.0, dtype=np.float32))
    corrupted = degrade(clean, spec, np.random.default_rng(3)).data
    assert corrupted.min() >= 0.0
    assert corrupted.max() <= 255.0
    # sigma 200 on mid-gray saturates both ends somewhere in the image
    assert (corrupted == 0.0).any()
    assert (corrupted == 255.0).any()


def test_degrade_output_is_blockwise_constant():
    rng = np.random.default_rng(4)
    clean = Tensor(rng.uniform(0, 255, size=(1, 3, 16, 16)).astype(np.float32))
    spec = RunConfig(scales=((16, 16),))
    arr = degrade(clean, spec, np.random.default_rng(5)).data
    blocks = arr.reshape(1, 3, 4, 4, 4, 4)
    np.testing.assert_array_equal(blocks, np.broadcast_to(blocks[:, :, :, :1, :, :1], blocks.shape))


def test_degraded_dataset_layout_and_determinism():
    images = make_synthetic_corpus(2, seed=10)
    spec = RunConfig(seed=123)
    pairs = degraded_dataset(images, spec)
    assert len(pairs) == 2 * 6
    for idx, pair in enumerate(pairs):
        j = idx % 6
        h, w = spec.scales[j]
        assert pair.clean.shape == (1, 3, h, w)
        assert pair.corrupted.shape == (1, 3, h, w)
    again = degraded_dataset(make_synthetic_corpus(2, seed=10), spec)
    for a, b in zip(pairs, again):
        assert a.corrupted.data.tobytes() == b.corrupted.data.tobytes()


def test_degraded_dataset_noise_is_per_image_and_scale():
    """Appending an image must not disturb earlier pairs' noise."""
    images = make_synthetic_corpus(2, seed=11)
    spec = RunConfig(seed=7)
    solo = degraded_dataset(images[:1], spec)
    both = degraded_dataset(images, spec)
    for a, b in zip(solo, both[:6]):
        assert a.corrupted.data.tobytes() == b.corrupted.data.tobytes()


def test_degraded_dataset_is_each_images_pairs_in_corpus_order():
    images = make_synthetic_corpus(3, seed=12)
    spec = RunConfig(scales=((32, 32), (48, 32)), seed=4)
    want = [degraded_pair(image, i, j, spec) for i, image in enumerate(images) for j in range(2)]
    got = degraded_dataset(images, spec)
    assert [p.clean.shape[2:] for p in got] == [(32, 32), (48, 32)] * 3
    for a, b in zip(got, want, strict=True):
        assert a.clean.data.tobytes() == b.clean.data.tobytes()
        assert a.corrupted.data.tobytes() == b.corrupted.data.tobytes()


def test_pair_recipe_bits_are_pinned():
    """The clean and corrupted bytes of one seeded 208x176 image at the six
    evaluation scales, as ``tools/golden.py`` prints them on its ``pairs``
    line: a change to the resize, downsample, noise or upsample bits, or to
    the noise seeds, moves this digest."""
    image = make_synthetic_corpus(1, seed=3, size=EVAL_SCALES[-1])
    pairs = degraded_dataset(image, RunConfig(scales=EVAL_SCALES, seed=3))
    blob = b"".join(p.clean.data.tobytes() + p.corrupted.data.tobytes() for p in pairs)
    assert hashlib.sha256(blob).hexdigest()[:16] == "82b0efbb65acdaa3"


# ---------------------------------------------------------------------------
# bilinear resize


def test_bilinear_identity_when_size_is_unchanged():
    rng = np.random.default_rng(6)
    t = Tensor(rng.uniform(0, 255, size=(1, 3, 7, 5)).astype(np.float32))
    np.testing.assert_array_equal(bilinear_resize(t, 7, 5).data, t.data)


def test_bilinear_preserves_constant_images():
    t = Tensor(np.full((1, 3, 8, 8), 77.0, dtype=np.float32))
    for h, w in [(3, 3), (8, 8), (13, 21), (128, 96)]:
        out = bilinear_resize(t, h, w)
        assert out.shape == (1, 3, h, w)
        np.testing.assert_allclose(out.data, 77.0, rtol=1e-6)


def test_bilinear_checkerboard_upsample_frozen_grid():
    """2x2 checkerboard -> 4x4, values derived by hand from half-pixel centers."""
    t = Tensor(np.array([[255.0, 0.0], [0.0, 255.0]], dtype=np.float32).reshape(1, 1, 2, 2))
    got = bilinear_resize(t, 4, 4).data.reshape(4, 4)
    unit = np.array(
        [
            [1.0, 0.75, 0.25, 0.0],
            [0.75, 0.625, 0.375, 0.25],
            [0.25, 0.375, 0.625, 0.75],
            [0.0, 0.25, 0.75, 1.0],
        ]
    )
    np.testing.assert_allclose(got, 255.0 * unit, rtol=1e-6)


def test_bilinear_downsample_averages_neighbors():
    # 1x4 row [0, 100, 200, 300] -> 1x2 at half-pixel centers: [50, 250]
    t = Tensor(np.array([0.0, 100.0, 200.0, 300.0], dtype=np.float32).reshape(1, 1, 1, 4))
    np.testing.assert_allclose(
        bilinear_resize(t, 1, 2).data.ravel(), [50.0, 250.0], rtol=1e-6
    )


_RESIZES = (
    [((64, 48), s) for s in EVAL_SCALES]  # every evaluation scale, upscaling
    + [((256, 224), s) for s in EVAL_SCALES]  # and downscaling
    + [((37, 53), (300, 11)), ((37, 53), (5, 400)), ((37, 53), (37, 53))]
    + [((208, 176), (208, 176)), ((45, 31), (45, 31))]  # same size: a copy
)


@pytest.mark.parametrize("src,dst", _RESIZES, ids=lambda s: "x".join(map(str, s)))
def test_bilinear_matches_the_direct_expression_bit_for_bit(src, dst):
    """Interpolating each source row across once, gathering output rows
    from those sums and summing in place keeps every float64 operation and
    its order, so the result is the same bits; a same-size resize is a
    copy, which the direct expression matches for finite input."""
    rng = np.random.default_rng(src[0] * 1000 + dst[1])
    arr = rng.uniform(0, 255, size=(2, 3, *src)).astype(np.float32)
    want = bilinear_resize_expression(arr, *dst).astype(np.float32)
    got = bilinear_resize(Tensor(arr), *dst).data
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def test_bilinear_same_size_is_a_fresh_array():
    arr = np.random.default_rng(5).uniform(0, 255, size=(1, 3, 45, 31)).astype(np.float32)
    t = Tensor(arr.copy())
    out = bilinear_resize(t, 45, 31)
    out.data[...] = -1.0
    assert t.data.tobytes() == arr.tobytes()


def test_bilinear_rejects_bad_target():
    t = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="bad target size"):
        bilinear_resize(t, 0, 4)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_corpus_shapes_range_and_dtype():
    images = make_synthetic_corpus(3, seed=0, size=(64, 48))
    assert len(images) == 3
    for img in images:
        assert img.shape == (1, 3, 64, 48)
        assert img.dtype == np.float32
        assert img.data.min() >= 0.0 and img.data.max() <= 255.0
        assert img.data.std() > 10.0  # non-trivial structure


def test_corpus_is_deterministic_per_seed():
    a = make_synthetic_corpus(2, seed=5)
    b = make_synthetic_corpus(2, seed=5)
    for x, y in zip(a, b):
        assert x.data.tobytes() == y.data.tobytes()
    c = make_synthetic_corpus(2, seed=6)
    assert a[0].data.tobytes() != c[0].data.tobytes()


def test_corpus_images_differ_from_each_other():
    images = make_synthetic_corpus(4, seed=1)
    blobs = {img.data.tobytes() for img in images}
    assert len(blobs) == 4


def test_corpus_validation():
    with pytest.raises(ValueError, match="count"):
        make_synthetic_corpus(0, seed=0)
    with pytest.raises(ValueError, match="too small"):
        make_synthetic_corpus(1, seed=0, size=(4, 4))


# ---------------------------------------------------------------------------
# batching


def _manual_pairs(count, h=16, w=16):
    pairs = []
    for i in range(count):
        clean = Tensor(np.full((1, 3, h, w), 255.0, dtype=np.float32))
        corrupted = Tensor(np.full((1, 3, h, w), float(i), dtype=np.float32))
        pairs.append(SamplePair(clean=clean, corrupted=corrupted))
    return pairs


def test_batch_iter_sizes_cover_epoch():
    pairs = _manual_pairs(10)
    sizes = [s.shape[0] for s, _ in batch_iter(pairs, 4, seed=0)]
    assert sorted(sizes, reverse=True) == [4, 4, 2]


def test_batch_iter_yields_each_pair_exactly_once():
    pairs = _manual_pairs(10)
    seen = []
    for s, _ in batch_iter(pairs, 3, seed=1):
        seen.extend(np.round(denormalize(s).data[:, 0, 0, 0]).astype(int).tolist())
    assert sorted(seen) == list(range(10))


def test_batch_iter_never_mixes_scales():
    """A pair's scale is its size: pairs of two sizes passed interleaved
    are grouped by it, so no batch mixes them and each pair comes once."""
    small, big = _manual_pairs(6, h=16, w=16), _manual_pairs(4, h=32, w=32)
    pairs = [p for duo in zip(small, big) for p in duo] + small[4:]
    seen = {(16, 16): [], (32, 32): []}
    for s, t in batch_iter(pairs, 4, seed=2):
        assert s.shape == t.shape
        seen[s.shape[2:]].extend(np.round(denormalize(s).data[:, 0, 0, 0]).astype(int).tolist())
    assert sorted(seen[(16, 16)]) == list(range(6))
    assert sorted(seen[(32, 32)]) == list(range(4))


def test_batch_iter_orders_size_groups_by_first_appearance():
    """The groups are shuffled and drawn in the order their sizes first
    appear, not in sorted order: interleaved pairs batch as if listed group
    by group, the larger size first as it was passed."""
    big, small = _manual_pairs(3, h=32, w=32), _manual_pairs(5, h=16, w=16)
    interleaved = [big[0], small[0], big[1], small[1], big[2], *small[2:]]

    def run(pairs):
        return [(s.data.tobytes(), t.data.tobytes()) for s, t in batch_iter(pairs, 2, seed=4)]

    assert run(interleaved) == run(big + small)
    assert run(interleaved) != run(small + big)


def test_batch_iter_outputs_are_normalized():
    pairs = _manual_pairs(4)
    for s, t in batch_iter(pairs, 2, seed=3):
        assert s.data.min() >= -1.0 and s.data.max() <= 1.0
        np.testing.assert_allclose(t.data, 1.0, atol=1e-6)  # clean was 255


def test_batch_iter_is_seed_deterministic():
    pairs = _manual_pairs(9) + _manual_pairs(7, h=32, w=32)

    def run(seed):
        return [
            (s.shape, s.data.tobytes(), t.data.tobytes())
            for s, t in batch_iter(pairs, 4, seed=seed)
        ]

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_batch_iter_validates_arguments():
    with pytest.raises(ValueError, match="empty dataset"):
        list(batch_iter([], 4, seed=0))
    with pytest.raises(ValueError, match="batch_size"):
        list(batch_iter(_manual_pairs(2), 0, seed=0))
