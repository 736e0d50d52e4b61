"""The four workloads, their seeded inputs and their output checks.

Each workload drives the public sgen API in a closed loop: the next op
starts when the previous one returns.  An op is one training step (timed
between consecutive lines of the loss log that ``run_training`` writes)
or one ``evaluate`` pass over the whole multi-scale set.

Why these four:
- train-mse: paper configuration, MSE only, periodic checkpoint saves.
  About 87% of the step is conv/deconv, so it shows ``nn`` kernel work and
  the checkpoint write path, and never runs the discriminator.
- train-adv: the same configuration with the minimax GAN loss.  The only
  workload that runs the discriminator, both losses, two Adam updates and
  the second untaped generator forward per step.
- train-tiny: a small network at 32x32, where Python dispatch, tape
  bookkeeping and the Adam loop dominate; it keeps ``autodiff`` above the
  noise and shows hooks that are not free when switched off.
- eval-multiscale: checkpoint load, degradation at all six evaluation
  scales and repeated ``evaluate`` passes: forward only at batch 1, up to
  208x176, plus PSNR/SSIM.  The only workload that reads a checkpoint.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import math
import resource
import statistics
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

# sgen functions are looked up on their modules at call time, so that the
# tracer's wrappers are the ones called while it is installed
import sgen
import sgen.train
from sgen import EVAL_SCALES, RunConfig

from tracer import Tracer, per_layer_metrics, site_table


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "eval"
    n_levels: int = 3
    base_channels: int = 32
    bottleneck_channels: int = 64
    gan_loss: str = "none"
    image_size: tuple[int, int] = (128, 96)
    images: int = 8
    batch_size: int = 4
    eval_every: int = 0


WORKLOADS = {
    "train-mse": Workload("train", eval_every=4),
    "train-adv": Workload("train", gan_loss="minimax", eval_every=4),
    "train-tiny": Workload("train", n_levels=2, base_channels=8, bottleneck_channels=16,
                           image_size=(32, 32)),
    "eval-multiscale": Workload("eval", image_size=EVAL_SCALES[-1], images=1),
}

# setup-only entries per run, on top of the measured one: at least the
# minimum, then more until the budget is spent, so cheap setups get more samples
SETUP_REPEATS = (5, 50)
SETUP_BUDGET_S = 1.0
MIN_WARM_OPS = 11  # so that a percentile with ten samples beyond it exists
CHECK_STEPS = 2  # steps of the replay and reference training probes
REFERENCE_SEED = 20180507
# How far the reference probe may drift, e.g. when a kernel sums in another
# order.  One Adam step at the paper config moves the next MSE by about 6e-5
# of its value, so the MSE tolerance is set below that.
REFERENCE_TOLERANCE = {"mse_rel": 1e-5, "psnr_abs": 1e-3, "ssim_abs": 1e-5}


class _Stop(Exception):
    """Raised from the loss log to end run_training at the deadline."""


class LossLog:
    """A log stream for run_training that timestamps every line.

    The header marks the end of setup and each later line the end of a
    step.  Writing a line past the deadline (once ``min_warm`` warm steps
    are in) ends the run.  With a tracer, each step becomes an "op" span.
    """

    def __init__(self, deadline=math.inf, min_warm=0, tracer=None, setup_only=False):
        self.lines: list[str] = []
        self.times: list[float] = []
        self.deadline = deadline
        self.min_warm = min_warm
        self.tracer = tracer
        self.setup_only = setup_only
        self._op = None

    def write(self, text: str) -> int:
        if not text.strip():
            return len(text)  # print() writes the newline on its own
        now = perf_counter()
        self.lines.append(text)
        self.times.append(now)
        if self._op is not None:
            self.tracer.close(self._op)
            self._op = None
        warm = len(self.lines) - 2
        if self.setup_only or (now >= self.deadline and warm >= self.min_warm):
            raise _Stop
        if self.tracer is not None:
            self._op = self.tracer.open("op")
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Segment:
    """Timings and failures of one measured stretch of a workload."""

    setup_s: list[float] = field(default_factory=list)
    first_op_s: float = math.nan
    warm_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    log: list[str] = field(default_factory=list)
    reports: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# inputs


def synthetic_images(count: int, size: tuple[int, int], seed: int) -> list[np.ndarray]:
    """Smooth coloured scenes (gradient, ellipses, stripes) as (h, w, 3) uint8."""
    rng = np.random.default_rng(seed)
    h, w = size
    yy, xx = np.mgrid[0:h, 0:w] / np.array([h, w]).reshape(2, 1, 1)
    images = []
    for _ in range(count):
        img = rng.uniform(30, 220, 3) + (rng.uniform(-60, 60, 3) * (yy + xx)[..., None] / 2)
        for _ in range(3):
            cy, cx, ry, rx = rng.uniform(0.2, 0.8, 2).tolist() + rng.uniform(0.1, 0.3, 2).tolist()
            inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
            img[inside] = rng.uniform(0, 255, 3)
        freq, phase = rng.uniform(4, 12), rng.uniform(0, 2 * np.pi)
        img += 12.0 * np.sin(2 * np.pi * freq * yy + phase)[..., None]
        images.append(np.clip(np.rint(img), 0, 255).astype(np.uint8))
    return images


def write_corpus(folder: Path, spec: Workload, seed: int) -> None:
    """Write the seeded corpus as binary PPM (P6) files."""
    folder.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(synthetic_images(spec.images, spec.image_size, seed)):
        h, w, _ = img.shape
        (folder / f"img{i:03d}.ppm").write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def run_config(spec: Workload, seed: int, workdir: Path) -> RunConfig:
    return RunConfig(
        n_levels=spec.n_levels,
        base_channels=spec.base_channels,
        bottleneck_channels=spec.bottleneck_channels,
        gan_loss=spec.gan_loss,
        batch_size=spec.batch_size,
        steps=10**9,  # the loss log ends the run
        eval_every=spec.eval_every,
        seed=seed,
        scales=(spec.image_size,) if spec.kind == "train" else EVAL_SCALES,
        data_root=str(workdir / "corpus"),
        checkpoint_out=str(workdir / "gen.ckpt"),
    )


def prepare(spec: Workload, seed: int, workdir: Path) -> RunConfig:
    """Write the inputs for one seed; for eval also a checkpoint built from it."""
    cfg = run_config(spec, seed, workdir)
    write_corpus(workdir / "corpus", spec, seed)
    if spec.kind == "eval":
        gen = sgen.build_generator(cfg.sgen_config(), np.random.default_rng(seed))
        sgen.save_checkpoint(gen, cfg.checkpoint_out)
    return cfg


# ---------------------------------------------------------------------------
# training


def _finite_losses(line: str, adversarial: bool) -> bool:
    _, g, d, mse = (float(v) for v in line.split(","))
    return math.isfinite(mse) and (not adversarial or (math.isfinite(g) and math.isfinite(d)))


def settle_heap() -> None:
    """Collect garbage and hand free heap pages back to the OS (glibc only).

    Every set-up then starts from the same heap state, as in a fresh
    process, instead of from whatever the previous set-up left behind;
    otherwise the allocator's history decides how many pages fault.
    """
    gc.collect()
    libc = ctypes.util.find_library("c")
    trim = getattr(ctypes.CDLL(libc), "malloc_trim", None) if libc else None
    if trim is not None:
        trim(0)


def train_setup_s(cfg: RunConfig) -> float:
    log = LossLog(setup_only=True)
    start = perf_counter()
    try:
        sgen.run_training(cfg, log_stream=log)
    except _Stop:
        pass
    return log.times[0] - start


def train_segment(cfg: RunConfig, seconds: float, min_warm: int, tracer=None) -> Segment:
    seg = Segment()
    start = perf_counter()
    log = LossLog(start + seconds, min_warm, tracer)
    try:
        sgen.run_training(cfg, log_stream=log)
    except _Stop:
        pass
    except Exception:  # an op raised: count it and keep the steps already done
        seg.failed += 1
        seg.attempted += 1
        seg.errors.append(traceback.format_exc(limit=3))
    if tracer is not None:
        tracer.close_open_spans()
    if log.times:
        seg.setup_s.append(log.times[0] - start)
    steps = np.diff(log.times).tolist()
    if steps:
        seg.first_op_s, seg.warm_s = steps[0], steps[1:]
    seg.log = log.lines
    seg.attempted += len(steps)
    bad = [line for line in log.lines[1:] if not _finite_losses(line, cfg.adversarial)]
    seg.failed += len(bad)
    seg.errors += [f"non-finite loss: {line}" for line in bad]
    return seg


def train_probe(cfg: RunConfig) -> list[str]:
    """The loss log of a short run that runs to completion."""
    return sgen.run_training(replace(cfg, steps=CHECK_STEPS, eval_every=0)).log_lines


# ---------------------------------------------------------------------------
# evaluation


def eval_setup(cfg: RunConfig):
    params = sgen.load_checkpoint(cfg.checkpoint_out)
    pairs = sgen.degraded_dataset(sgen.train.load_corpus(cfg), cfg.degrade_spec())
    return params, pairs


def eval_report(cfg: RunConfig, params, pairs) -> str:
    return sgen.evaluate(params, cfg.sgen_config(), pairs).to_csv()


def _report_ok(csv: str) -> bool:
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    return len(rows) == len(EVAL_SCALES) and all(
        math.isfinite(float(p)) and math.isfinite(float(s)) and int(n) > 0 for _, p, s, n in rows
    )


def eval_segment(cfg: RunConfig, seconds: float, min_warm: int, tracer=None) -> Segment:
    seg = Segment()
    start = perf_counter()
    params, pairs = eval_setup(cfg)
    seg.setup_s.append(perf_counter() - start)
    deadline = start + seconds
    times = []
    while not times or perf_counter() < deadline or len(times) - 1 < min_warm:
        op = tracer.open("op") if tracer is not None else None
        t0 = perf_counter()
        try:
            csv = eval_report(cfg, params, pairs)
        except Exception:  # an op raised: count it and stop
            seg.failed += 1
            seg.attempted += 1
            seg.errors.append(traceback.format_exc(limit=3))
            break
        finally:
            if op is not None:
                tracer.close(op)
        times.append(perf_counter() - t0)
        seg.attempted += 1
        # every pass over the same inputs must give the same report, byte for byte
        if not _report_ok(csv) or (seg.reports and csv != seg.reports[0]):
            seg.failed += 1
            seg.errors.append(f"evaluate pass {len(times)} gave an unexpected report:\n{csv}")
        seg.reports.append(csv)
    if times:
        seg.first_op_s, seg.warm_s = times[0], times[1:]
    return seg


# ---------------------------------------------------------------------------
# checks against the replay and the recorded reference


def reference_values(spec: Workload, workdir: Path) -> dict:
    """What the reference probe yields: the MSE of each step, or per-scale PSNR/SSIM."""
    cfg = prepare(spec, REFERENCE_SEED, workdir / "reference")
    if spec.kind == "train":
        return {"mse": [float(line.split(",")[3]) for line in train_probe(cfg)[1:]]}
    rows = [line.split(",") for line in eval_report(cfg, *eval_setup(cfg)).strip().splitlines()[1:]]
    return {"psnr": {r[0]: float(r[1]) for r in rows}, "ssim": {r[0]: float(r[2]) for r in rows}}


def reference_mismatches(got: dict, want: dict, tolerance: dict) -> list[str]:
    errors = []
    for step, value in enumerate(want.get("mse", []), start=1):
        have = got["mse"][step - 1] if step <= len(got["mse"]) else math.nan
        if not math.isclose(have, value, rel_tol=tolerance["mse_rel"]):
            errors.append(f"MSE at step {step}: {have!r} vs reference {value!r}")
    for key in ("psnr", "ssim"):
        for scale, value in want.get(key, {}).items():
            have = got[key].get(scale, math.nan)
            if not abs(have - value) <= tolerance[f"{key}_abs"]:
                errors.append(f"{key} at {scale}: {have!r} vs reference {value!r}")
    return errors


def _replay_mismatches(spec: Workload, cfg: RunConfig, seg: Segment, workdir: Path) -> list[str]:
    if spec.kind == "train":
        replay = train_probe(replace(cfg, checkpoint_out=str(workdir / "replay.ckpt")))
        return [f"replay of seed {cfg.seed} differs: {got!r} vs {want!r}"
                for got, want in zip(replay, seg.log[: CHECK_STEPS + 1]) if got != want]
    replay = eval_report(cfg, *eval_setup(cfg))
    if seg.reports and replay != seg.reports[0]:
        return [f"replay of seed {cfg.seed} differs:\n{replay}\nvs\n{seg.reports[0]}"]
    return []


def check_outputs(spec: Workload, cfg: RunConfig, seg: Segment, reference: dict, workdir: Path) -> None:
    """Replay the seed and compare logs; compare the reference probe with its record.

    Each probe counts as one attempted op, and as one failed op if it raises
    or disagrees.
    """
    probes = (
        lambda: _replay_mismatches(spec, cfg, seg, workdir),
        lambda: reference_mismatches(reference_values(spec, workdir), reference["values"],
                                     reference["tolerance"]),
    )
    for probe in probes:
        seg.attempted += 1
        try:
            errors = probe()
        except Exception:  # a probe op raised: count it, keep checking
            errors = [traceback.format_exc(limit=3)]
        if errors:
            seg.failed += 1
            seg.errors += errors


# ---------------------------------------------------------------------------
# the run


def images_per_op(spec: Workload) -> int:
    return spec.batch_size if spec.kind == "train" else len(EVAL_SCALES) * spec.images


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(samples)
    index = len(ordered) - 11
    if index < 0:
        return math.nan, math.nan
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure(spec: Workload, seed: int, seconds: float, workdir: Path, reference: dict) -> dict:
    """An untraced run: every end-to-end metric with its unit and sample count."""
    cfg = prepare(spec, seed, workdir)
    training = spec.kind == "train"
    setups = []
    budget_end = perf_counter() + SETUP_BUDGET_S
    while len(setups) < SETUP_REPEATS[0] or (
        perf_counter() < budget_end and len(setups) < SETUP_REPEATS[1]
    ):
        settle_heap()
        setups.append(train_setup_s(cfg) if training else _timed(eval_setup, cfg))
    settle_heap()
    segment = (train_segment if training else eval_segment)(cfg, seconds, MIN_WARM_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_outputs(spec, cfg, segment, reference, workdir)
    setups += segment.setup_s
    warm = segment.warm_s
    tail_s, tail_pct = tail(warm)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "first_op_s": _metric(segment.first_op_s, "s", 1),
        "op_ms_p50": _metric(1000.0 * _median(warm), "ms", len(warm)),
        "op_ms_tail": _metric(1000.0 * tail_s, "ms", len(warm), percentile=tail_pct),
        "images_per_s": _metric(images_per_op(spec) * len(warm) / sum(warm) if warm else math.nan,
                                "1/s", len(warm)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
        "ops_failed": _metric(segment.failed / max(segment.attempted, 1), "share", segment.attempted),
    }
    return {"metrics": metrics, "attempted": segment.attempted, "failed": segment.failed,
            "errors": segment.errors, "setup_samples_s": setups, "warm_samples_s": warm}


def trace(spec: Workload, seed: int, seconds: float, workdir: Path, reference: dict,
          expected, spans_path: Path) -> dict:
    """Half the time untraced, half traced: per-layer metrics and the overhead."""
    cfg = prepare(spec, seed, workdir)
    training = spec.kind == "train"
    run_segment = train_segment if training else eval_segment
    plain = run_segment(cfg, seconds / 2, 3)
    tracer = Tracer()
    with tracer.installed():
        traced = run_segment(cfg, seconds / 2, 3, tracer)
    tracer.write_spans(spans_path)
    # tracing must not change what the program computes
    same = plain.log[: len(traced.log)] == traced.log[: len(plain.log)]
    if not same or plain.reports[:1] != traced.reports[:1]:
        traced.failed += 1
        traced.errors.append("the traced run's output differs from the untraced run's")
    check_outputs(spec, cfg, plain, reference, workdir)
    layer = per_layer_metrics(tracer, training, expected)
    traced_p50 = _median(traced.warm_s)
    layer["trace.overhead_pct"] = 100.0 * (traced_p50 / _median(plain.warm_s) - 1.0)
    errors = plain.errors + traced.errors
    if training and not layer["trace.coverage"] >= 0.9:
        errors.append(f"trace coverage {layer['trace.coverage']:.3f} of the step is below 0.9")
    return {
        "per_layer": layer,
        "site_table": site_table(layer, 1000.0 * traced_p50),
        "missing": tracer.missing,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "errors": errors,
    }


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else math.nan


def _timed(fn, *args) -> float:
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def _metric(value: float, unit: str, samples: int, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}
