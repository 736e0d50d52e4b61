"""Metric tests: closed-form PSNR, SSIM vs the naive oracle, report shape."""

import math

import numpy as np
import pytest

from oracles import ssim_windows

from sgen import (
    QualityReport,
    RunConfig,
    SamplePair,
    Tensor,
    build_generator,
    degrade,
    degraded_dataset,
    evaluate,
    psnr,
    restore,
    ssim,
)
import sgen.metrics as metrics_module
from sgen.data import denormalize, normalize
from sgen.metrics import ScaleRow
from sgen.model import generator_forward
from sgen.train import load_corpus


def _img(rng, shape=(1, 3, 16, 16)):
    return Tensor(rng.uniform(0, 255, size=shape).astype(np.float32))


# ---------------------------------------------------------------------------
# psnr


def test_psnr_identical_images_is_infinite():
    rng = np.random.default_rng(0)
    a = _img(rng)
    assert psnr(a, a.detach()) == math.inf


def test_psnr_uniform_difference_closed_form():
    """|a - b| = 30 everywhere: psnr = 10*log10(255^2 / 900) ~ 18.5887 dB."""
    a = Tensor(np.full((1, 3, 8, 8), 100.0, dtype=np.float32))
    b = Tensor(np.full((1, 3, 8, 8), 130.0, dtype=np.float32))
    want = 10.0 * math.log10(255.0**2 / 900.0)
    assert psnr(a, b) == pytest.approx(want, abs=1e-12)
    assert psnr(a, b) == pytest.approx(18.588379, abs=1e-4)


def test_psnr_is_symmetric():
    rng = np.random.default_rng(1)
    a, b = _img(rng), _img(rng)
    assert psnr(a, b) == pytest.approx(psnr(b, a), rel=1e-12)


def test_psnr_respects_peak():
    a = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    b = Tensor(np.full((1, 1, 4, 4), 25.5, dtype=np.float32))
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-5)  # a tenth of the 255 peak


def test_psnr_one_db_per_mse_decade():
    a = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float64))
    b10 = Tensor(np.full((1, 1, 4, 4), 10.0, dtype=np.float64))
    b100 = Tensor(np.full((1, 1, 4, 4), 100.0, dtype=np.float64))
    assert psnr(a, b10) - psnr(a, b100) == pytest.approx(20.0, rel=1e-12)


def test_psnr_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        psnr(
            Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)),
            Tensor(np.zeros((1, 1, 4, 5), dtype=np.float32)),
        )


# ---------------------------------------------------------------------------
# ssim


def test_ssim_identical_images_is_exactly_one():
    rng = np.random.default_rng(2)
    a = _img(rng)
    assert ssim(a, a.detach()) == 1.0


def test_ssim_constant_images_closed_form():
    """Flat 100 vs flat 150: zero variances leave only the luminance term."""
    a = Tensor(np.full((1, 1, 16, 16), 100.0, dtype=np.float32))
    b = Tensor(np.full((1, 1, 16, 16), 150.0, dtype=np.float32))
    c1 = (0.01 * 255.0) ** 2
    want = (2.0 * 100.0 * 150.0 + c1) / (100.0**2 + 150.0**2 + c1)
    assert ssim(a, b) == pytest.approx(want, rel=1e-12)
    assert ssim(a, b) == pytest.approx(0.923092, abs=1e-5)


@pytest.mark.parametrize("seed", range(3))
def test_ssim_matches_naive_window_oracle(seed):
    rng = np.random.default_rng(seed)
    a = _img(rng, shape=(1, 2, 14, 15))
    b = Tensor(
        np.clip(a.data + rng.normal(0, 25, size=a.shape), 0, 255).astype(np.float32)
    )
    want = np.mean(
        [
            ssim_windows(a.data[0, ch], b.data[0, ch])
            for ch in range(a.shape[1])
        ]
    )
    assert ssim(a, b) == pytest.approx(want, rel=1e-6)


def test_ssim_is_symmetric_and_below_one_for_noisy_pairs():
    rng = np.random.default_rng(3)
    a = _img(rng)
    b = Tensor(np.clip(a.data + rng.normal(0, 30, a.shape), 0, 255).astype(np.float32))
    val = ssim(a, b)
    assert val == pytest.approx(ssim(b, a), rel=1e-12)
    assert -1.0 < val < 1.0


def test_ssim_degrades_with_noise_level():
    rng = np.random.default_rng(4)
    a = _img(rng, shape=(1, 1, 32, 32))
    vals = []
    for sigma in (5.0, 20.0, 60.0):
        noisy = Tensor(np.clip(a.data + rng.normal(0, sigma, a.shape), 0, 255).astype(np.float32))
        vals.append(ssim(a, noisy))
    assert vals[0] > vals[1] > vals[2]


def test_ssim_rejects_small_images_and_mismatch():
    small = Tensor(np.zeros((1, 1, 10, 16), dtype=np.float32))
    with pytest.raises(ValueError, match="smaller than the 11x11 window"):
        ssim(small, small.detach())
    with pytest.raises(ValueError, match="shape mismatch"):
        ssim(
            Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)),
            Tensor(np.zeros((1, 1, 16, 12), dtype=np.float32)),
        )


# ---------------------------------------------------------------------------
# report plumbing


def test_scale_row_label():
    assert ScaleRow(128, 96, 20.0, 0.9, 4).scale == "128x96"


def test_report_csv_layout():
    report = QualityReport(model_id="m", degradation="d")
    report.rows.append(ScaleRow(128, 96, 20.5, 0.75, 4))
    report.rows.append(ScaleRow(144, 112, math.nan, math.nan, 0, "skipped"))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "scale,psnr,ssim,count"
    assert lines[1] == "128x96,20.5,0.75,4"
    assert lines[2].startswith("144x112,nan,nan,0")


def test_report_text_mentions_ids_and_rows():
    report = QualityReport(model_id="gen-1", degradation="noise30")
    report.rows.append(ScaleRow(128, 96, 20.5, 0.75, 4))
    text = report.to_text()
    assert "model: gen-1" in text
    assert "degradation: noise30" in text
    assert "128x96" in text and "20.5000" in text


def test_report_text_is_pinned_with_infinite_and_skipped_rows():
    """The whole table: a finite row, an exact restore's inf PSNR, a -inf
    and a skipped scale's nan, each printed by the one column format."""
    report = QualityReport(model_id="gen-1", degradation="down4 sigma30 nearest")
    report.rows += [
        ScaleRow(208, 176, 31.25, 0.875, 2),
        ScaleRow(192, 160, math.inf, 1.0, 1),
        ScaleRow(176, 144, -math.inf, -0.5, 3),
        ScaleRow(36, 36, math.nan, math.nan, 0, "skipped: dims not divisible by 16"),
    ]
    assert report.to_text() == (
        "model: gen-1\n"
        "degradation: down4 sigma30 nearest\n"
        "\n"
        "     scale    psnr_db     ssim  count  note\n"
        "   208x176    31.2500   0.8750      2\n"
        "   192x160        inf   1.0000      1\n"
        "   176x144       -inf  -0.5000      3\n"
        "     36x36        nan      nan      0  skipped: dims not divisible by 16\n"
    )


# ---------------------------------------------------------------------------
# evaluate


def _tiny_cfg(n_levels=2):
    return RunConfig(n_levels=n_levels, base_channels=2, bottleneck_channels=2)


def _pairs_at(rng, sizes, sigma=30.0):
    pairs = []
    for h, w in sizes:
        clean = Tensor(np.full((1, 3, h, w), 128.0, dtype=np.float32))
        spec = RunConfig(scales=((h, w),), noise_sigma=sigma)
        pairs.append(SamplePair(clean, degrade(clean, spec, rng)))
    return pairs


def _restoring_with(monkeypatch, restorer):
    """Make ``evaluate`` restore each corrupted image with ``restorer``."""
    monkeypatch.setattr(metrics_module, "restore", lambda image, params, cfg: restorer(image))


def test_evaluate_with_perfect_restorer(monkeypatch):
    rng = np.random.default_rng(5)
    cfg = _tiny_cfg()
    store = build_generator(cfg, rng)
    pairs = _pairs_at(rng, [(32, 32), (32, 32), (48, 32)])
    # a perfect restorer maps each corrupted tensor back to its clean source
    lookup = {id(p.corrupted): p.clean for p in pairs}
    _restoring_with(monkeypatch, lambda c: lookup[id(c)])
    report = evaluate(params=store, cfg=cfg, pairs=pairs, model_id="perfect")
    assert [(r.height, r.width, r.count) for r in report.rows] == [
        (32, 32, 2),
        (48, 32, 1),
    ]
    for row in report.rows:
        assert row.mean_psnr == math.inf
        assert row.mean_ssim == 1.0
        assert row.note == ""


def test_evaluate_identity_restorer_reports_noise_psnr(monkeypatch):
    rng = np.random.default_rng(6)
    cfg = _tiny_cfg()
    store = build_generator(cfg, rng)
    pairs = _pairs_at(rng, [(64, 64)] * 8)
    _restoring_with(monkeypatch, lambda c: c)
    report = evaluate(store, cfg, pairs)
    row = report.rows[0]
    assert row.count == 8
    # corruption of a flat image is pure sigma-30 noise
    assert row.mean_psnr == pytest.approx(18.59, abs=0.3)
    assert 0.0 < row.mean_ssim < 0.5


def test_evaluate_emits_warning_rows_for_indivisible_scales():
    rng = np.random.default_rng(7)
    cfg = _tiny_cfg(n_levels=2)  # divisor 8
    store = build_generator(cfg, rng)
    pairs = _pairs_at(rng, [(32, 32), (36, 36)])
    report = evaluate(store, cfg, pairs)
    rows = {(r.height, r.width): r for r in report.rows}
    bad = rows[(36, 36)]
    assert bad.count == 0
    assert math.isnan(bad.mean_psnr) and math.isnan(bad.mean_ssim)
    assert "not divisible by 8" in bad.note
    good = rows[(32, 32)]
    assert good.count == 1 and math.isfinite(good.mean_psnr)


def test_evaluate_emits_warning_rows_for_scales_below_the_ssim_window():
    """8x8 passes config validation at n_levels=2 (divisor 8, down factor
    4) but is smaller than SSIM's 11x11 window: a warning row, not a
    ValueError that loses the whole report."""
    cfg = RunConfig(
        n_levels=2, base_channels=4, bottleneck_channels=4,
        scales=((8, 8), (16, 16)), synthetic_count=2, synthetic_size=(16, 16),
    )
    store = build_generator(cfg, np.random.default_rng(9))
    report = evaluate(store, cfg, degraded_dataset(load_corpus(cfg), cfg))
    small, large = report.rows
    assert (small.height, small.width, small.count) == (8, 8, 0)
    assert math.isnan(small.mean_psnr) and math.isnan(small.mean_ssim)
    assert small.note == "skipped: smaller than the 11x11 SSIM window"
    assert (large.height, large.width, large.count, large.note) == (16, 16, 2, "")
    assert math.isfinite(large.mean_psnr) and math.isfinite(large.mean_ssim)


def test_evaluate_rows_are_sorted_by_scale(monkeypatch):
    rng = np.random.default_rng(8)
    cfg = _tiny_cfg()
    store = build_generator(cfg, rng)
    pairs = _pairs_at(rng, [(48, 32), (32, 48), (32, 32)])
    _restoring_with(monkeypatch, lambda c: c)
    report = evaluate(store, cfg, pairs)
    assert [(r.height, r.width) for r in report.rows] == [(32, 32), (32, 48), (48, 32)]


def test_evaluate_restores_the_largest_scale_first(monkeypatch):
    rng = np.random.default_rng(8)
    cfg = _tiny_cfg()
    store = build_generator(cfg, rng)
    pairs = _pairs_at(rng, [(32, 32), (48, 32), (32, 48), (32, 32)])
    seen = []

    def restorer(c):
        seen.append(c.shape[2:])
        return c

    _restoring_with(monkeypatch, restorer)
    report = evaluate(store, cfg, pairs)
    assert seen == [(48, 32), (32, 48), (32, 32), (32, 32)]
    assert [(r.height, r.width, r.count) for r in report.rows] == [
        (32, 32, 2),
        (32, 48, 1),
        (48, 32, 1),
    ]


def test_evaluate_default_restorer_runs_the_generator():
    rng = np.random.default_rng(9)
    cfg = _tiny_cfg()
    store = build_generator(cfg, rng)
    images = [Tensor(rng.uniform(0, 255, size=(1, 3, 64, 64)).astype(np.float32))]
    spec = RunConfig(scales=((32, 32), (48, 48)), seed=1)
    pairs = degraded_dataset(images, spec)
    before = [t.data.tobytes() for t in store.values()]
    report = evaluate(store, cfg, pairs, model_id="fresh")
    after = [t.data.tobytes() for t in store.values()]
    assert before == after  # evaluation must not touch the weights
    assert [r.count for r in report.rows] == [1, 1]
    for row in report.rows:
        assert math.isfinite(row.mean_psnr)
        assert -1.0 < row.mean_ssim <= 1.0


def test_restore_is_the_generator_between_pixel_ranges(monkeypatch):
    """restore maps 0-255 pixels through normalize, the generator and
    denormalize, and evaluate restores every pair with it."""
    rng = np.random.default_rng(11)
    cfg = _tiny_cfg()
    store = build_generator(cfg, rng)
    image = _img(rng, (1, 3, 32, 32))
    want = denormalize(generator_forward(normalize(image), store, cfg))
    np.testing.assert_array_equal(restore(image, store, cfg).data, want.data)
    pairs = _pairs_at(rng, [(32, 32), (48, 48)])
    calls = []

    def spy(image, params, c):
        calls.append((image, params, c))
        return restore(image, params, c)

    monkeypatch.setattr(metrics_module, "restore", spy)
    evaluate(store, cfg, pairs)
    assert sorted(id(image) for image, _, _ in calls) == sorted(id(p.corrupted) for p in pairs)
    assert all(params is store and c is cfg for _, params, c in calls)


def test_evaluate_is_deterministic():
    rng = np.random.default_rng(10)
    cfg = _tiny_cfg()
    store = build_generator(cfg, rng)
    pairs = _pairs_at(rng, [(32, 32), (48, 48)])
    a = evaluate(store, cfg, pairs).to_csv()
    b = evaluate(store, cfg, pairs).to_csv()
    assert a == b
