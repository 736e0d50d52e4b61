"""PSNR, SSIM, and per-scale quality reports.

PSNR uses peak 255 and returns +inf for identical inputs; infinite values
are excluded from report means.  SSIM is the classic single-scale form:
an 11x11 Gaussian window (sigma 1.5), stability constants (0.01*255)^2
and (0.03*255)^2, local statistics over valid window positions, averaged
per channel and then across channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tensor
from .config import RunConfig
from .data import SamplePair, denormalize, normalize
from .model import ParamStore, generator_forward

__all__ = ["psnr", "ssim", "ScaleRow", "QualityReport", "restore", "evaluate"]

_WINDOW = 11
_SIGMA = 1.5
_PEAK = 255.0  # the dynamic range of an 8-bit image
_C1 = (0.01 * _PEAK) ** 2
_C2 = (0.03 * _PEAK) ** 2


def psnr(a: Tensor, b: Tensor) -> float:
    """10*log10(255^2 / mse); +inf when the inputs are identical."""
    if a.shape != b.shape:
        raise ValueError(f"psnr: shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a.data.astype(np.float64) - b.data.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(_PEAK * _PEAK / mse)


def _gaussian_window() -> np.ndarray:
    offsets = np.arange(_WINDOW, dtype=np.float64) - (_WINDOW - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * _SIGMA * _SIGMA))
    return g / g.sum()


def _filter_valid(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable 2-D correlation, valid region only; img is (h, w)."""
    rows = sliding_window_view(img, len(kernel), axis=0) @ kernel
    return sliding_window_view(rows, len(kernel), axis=1) @ kernel


def ssim(a: Tensor, b: Tensor) -> float:
    """Mean structural similarity over valid windows, averaged over channels."""
    if a.shape != b.shape:
        raise ValueError(f"ssim: shape mismatch {a.shape} vs {b.shape}")
    n, c, h, w = a.shape
    if h < _WINDOW or w < _WINDOW:
        raise ValueError(f"ssim: image ({h}, {w}) smaller than the {_WINDOW}x{_WINDOW} window")
    kernel = _gaussian_window()
    total = 0.0
    count = 0
    for i in range(n):
        for ch in range(c):
            x = a.data[i, ch].astype(np.float64)
            y = b.data[i, ch].astype(np.float64)
            mu_x = _filter_valid(x, kernel)
            mu_y = _filter_valid(y, kernel)
            var_x = _filter_valid(x * x, kernel) - mu_x * mu_x
            var_y = _filter_valid(y * y, kernel) - mu_y * mu_y
            cov = _filter_valid(x * y, kernel) - mu_x * mu_y
            num = (2.0 * mu_x * mu_y + _C1) * (2.0 * cov + _C2)
            den = (mu_x * mu_x + mu_y * mu_y + _C1) * (var_x + var_y + _C2)
            total += float(np.mean(num / den))
            count += 1
    return total / count


@dataclass
class ScaleRow:
    height: int
    width: int
    mean_psnr: float
    mean_ssim: float
    count: int
    note: str = ""

    @property
    def scale(self) -> str:
        return f"{self.height}x{self.width}"


@dataclass
class QualityReport:
    """Per-scale metric summary with text-table and CSV renderings."""

    model_id: str
    degradation: str
    rows: list[ScaleRow] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"model: {self.model_id}",
            f"degradation: {self.degradation}",
            "",
            f"{'scale':>10}  {'psnr_db':>9}  {'ssim':>7}  {'count':>5}  note",
        ]
        for r in self.rows:
            row = f"{r.scale:>10}  {r.mean_psnr:>9.4f}  {r.mean_ssim:>7.4f}  {r.count:>5}  {r.note}"
            lines.append(row.rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["scale,psnr,ssim,count"]
        for r in self.rows:
            lines.append(f"{r.scale},{r.mean_psnr},{r.mean_ssim},{r.count}")
        return "\n".join(lines) + "\n"


def restore(image: Tensor, params: ParamStore, cfg: RunConfig) -> Tensor:
    """Restore a batch of 0-255 images with the generator, in 0-255."""
    return denormalize(generator_forward(normalize(image), params, cfg))


def evaluate(
    params: ParamStore,
    cfg: RunConfig,
    pairs: list[SamplePair],
    model_id: str = "",
    degradation: str = "",
) -> QualityReport:
    """Restore every pair and aggregate PSNR/SSIM per scale.

    Scales whose dimensions the model cannot process (see
    ``RunConfig.fits``), or that are smaller than the SSIM window, get a
    warning row with count 0 instead of failing the whole run.  Infinite
    PSNR values are excluded from the means; a scale where every image
    restores perfectly reports inf.
    """
    by_scale: dict[tuple[int, int], list[SamplePair]] = {}
    for pair in pairs:
        _, _, h, w = pair.clean.shape
        by_scale.setdefault((h, w), []).append(pair)

    report = QualityReport(model_id=model_id, degradation=degradation)
    # largest scale first: smaller scales then reuse the heap its arrays
    # freed, which lowers peak RSS; the rows are reversed to read ascending
    for (h, w) in sorted(by_scale, reverse=True):
        bucket = by_scale[(h, w)]
        if not cfg.fits(h, w):
            note = f"skipped: dims not divisible by {cfg.divisor}"
        elif h < _WINDOW or w < _WINDOW:
            note = f"skipped: smaller than the {_WINDOW}x{_WINDOW} SSIM window"
        else:
            note = ""
        if note:
            report.rows.append(ScaleRow(h, w, math.nan, math.nan, 0, note))
            continue
        psnrs, ssims = [], []
        for pair in bucket:
            restored = restore(pair.corrupted, params, cfg)
            psnrs.append(psnr(restored, pair.clean))
            ssims.append(ssim(restored, pair.clean))
        finite = [v for v in psnrs if math.isfinite(v)]
        mean_psnr = sum(finite) / len(finite) if finite else math.inf
        mean_ssim = sum(ssims) / len(ssims)
        report.rows.append(ScaleRow(h, w, mean_psnr, mean_ssim, len(bucket)))
    report.rows.reverse()
    return report
