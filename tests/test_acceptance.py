"""End-to-end acceptance gate.

One test per numbered acceptance property.  Each test prints a single
PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s`` to see them
inline); tolerances are pinned as literals here so a drift in library
constants cannot silently weaken the gate.
"""

import contextlib
import hashlib
import math
import time
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from oracles import conv2d_loops, deconv2d_scatter, ssim_windows
from sgen import (
    EVAL_SCALES,
    RunConfig,
    Tensor,
    CheckpointError,
    degrade,
    degraded_dataset,
    evaluate,
    load_checkpoint,
    make_synthetic_corpus,
    normalize,
    psnr,
    run_training,
    save_checkpoint,
    ssim,
)
from sgen.checks import run_gradient_battery
from sgen.data import nearest_upsample
from sgen.ensemble import MERGE_MODES, merge, sgu
from sgen.model import (
    build_discriminator,
    build_generator,
    discriminator_forward,
    generator_forward,
)
from sgen.nn import ConvParams, conv2d, deconv2d, draw
from sgen.train import load_corpus


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"acceptance {num:2d} FAIL  {title}")
        raise
    print(f"acceptance {num:2d} PASS  {title}")


# small-width generator/discriminator family shared by the smoke tests;
# "width w" means trunk width w with the default 1:2 bottleneck ratio
def smoke_config(**overrides):
    base = dict(
        n_levels=2,
        base_channels=8,
        bottleneck_channels=16,
        gan_loss="none",
        batch_size=4,
        steps=2000,
        scales=((32, 32),),
        synthetic_count=4,
        synthetic_size=(32, 32),
        learning_rate=0.0002,
        seed=0,
        noise_sigma=30.0,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_criterion_01_gradient_battery():
    with criterion(1, "gradient battery, double precision, < 60 s"):
        t0 = time.perf_counter()
        results = run_gradient_battery()
        elapsed = time.perf_counter() - t0

        assert elapsed < 60.0, f"battery took {elapsed:.1f} s"
        bad = [(r.name, r.error) for r in results if not r.ok]
        assert bad == [], f"failing checks: {bad}"
        # ops individually < 1e-5, network composites < 1e-4
        for r in results:
            limit = 1e-4 if r.tolerance > 1e-5 else 1e-5
            assert r.error < limit, f"{r.name}: {r.error:.3e} >= {limit:g}"
        names = [r.name for r in results]
        # the 119 check names: sorted, no check can be dropped or renamed
        # unseen; in order, none can be moved unseen either
        assert len(names) == 119
        assert hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest()[:16] == "62809a56ba38588c"
        assert hashlib.sha256("\n".join(names).encode()).hexdigest()[:16] == "dc447826310480e9"
        # every (name, error) pair as tools/golden.py prints its battery line:
        # a moved draw or probe moves the errors, and this digest
        pairs = "".join(f"{r.name} {r.error!r}\n" for r in results)
        assert hashlib.sha256(pairs.encode()).hexdigest()[:16] == "3083ae7fb341a690"
        assert any(r.tolerance == 1e-5 for r in results)
        assert any(r.tolerance == 1e-4 for r in results)


def test_criterion_02_shape_suite():
    with criterion(2, "N=3 fully-convolutional shape suite, six scales, < 30 s"):
        t0 = time.perf_counter()
        cfg = RunConfig(n_levels=3, base_channels=16, bottleneck_channels=32)
        rng = np.random.default_rng(11)
        params = build_generator(cfg, rng)
        for h, w in EVAL_SCALES:
            x = Tensor(rng.uniform(-0.9, 0.9, (1, 3, h, w)).astype(np.float32))
            trace = {}
            y = generator_forward(x, params, cfg, trace)
            assert y.shape == (1, 3, h, w)
            # every base-encoder feature lands on the /16 grid
            for k in (1, 2, 3):
                feat = trace[f"base_enc.{k}"]
                assert feat.shape == (1, 32, h // 16, w // 16)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"shape suite took {elapsed:.1f} s"


def test_criterion_03_sgu_algebra():
    with criterion(3, "SGU algebra: zero gates, saturated gates, asymmetry"):
        rng = np.random.default_rng(3)
        x_a = Tensor(rng.normal(0.0, 1.0, (2, 3, 8, 6)).astype(np.float32))
        x_p = Tensor(rng.normal(0.0, 1.0, (2, 3, 8, 6)).astype(np.float32))

        def gates(std):
            return {gate: draw("conv", 3, 3, 3, rng, std=std) for gate in ("gate_a", "gate_p")}

        # zero-initialized gates reproduce the average ensemble bit for bit
        p0 = gates(0.0)
        assert_array_equal(sgu(x_a, x_p, p0).data, merge("average", x_a, x_p).data)

        # saturated-positive gate bias passes both inputs through unscaled
        p1 = gates(0.0)
        p1["gate_a"].bias.data[:] = 1e4
        p1["gate_p"].bias.data[:] = 1e4
        np.testing.assert_allclose(
            sgu(x_a, x_p, p1).data, x_a.data + x_p.data, rtol=0.0, atol=1e-6
        )

        # nonzero gates are not symmetric in their arguments
        p2 = gates(0.5)
        swap_gap = np.abs(sgu(x_a, x_p, p2).data - sgu(x_p, x_a, p2).data).max()
        assert swap_gap > 1e-3


def test_criterion_04_convolution_oracles():
    with criterion(4, "conv/deconv vs loop oracles 1e-6, adjoint identity 1e-5"):
        rng = np.random.default_rng(4)
        for n, cin, cout, k in product((1, 2), (1, 4), (2, 3), (3, 4, 8, 16)):
            p = draw("conv", cin, cout, k, rng, dtype=np.float64)
            factor = p.stride
            p.bias.data[:] = rng.normal(0.0, 0.5, p.bias.shape)
            x = Tensor(rng.uniform(-1.0, 1.0, (n, cin, 16, 16)))
            ref = conv2d_loops(
                x.data, p.weight.data, p.bias.data.ravel(), p.stride, p.padding
            )
            np.testing.assert_allclose(
                conv2d(x, p).data, ref, rtol=1e-6, atol=1e-12
            )

            if factor == 1:
                continue  # no transposed counterpart below factor 2
            pd = draw("deconv", cin, cout, k, rng, dtype=np.float64)
            pd.bias.data[:] = rng.normal(0.0, 0.5, pd.bias.shape)
            xs = Tensor(rng.uniform(-1.0, 1.0, (n, cin, 16 // factor, 16 // factor)))
            ref = deconv2d_scatter(
                xs.data, pd.weight.data, pd.bias.data.ravel(), pd.stride, pd.padding
            )
            np.testing.assert_allclose(
                deconv2d(xs, pd).data, ref, rtol=1e-6, atol=1e-12
            )

            # <conv(x), y> == <x, deconv(y)> when the kernel is shared
            pc = draw("conv", cin, cout, k, rng, dtype=np.float64)
            pc.bias.data[:] = 0.0
            pt = ConvParams(weight=Tensor(pc.weight.data), bias=Tensor(np.zeros((1, cin, 1, 1))))
            xa = Tensor(rng.uniform(-1.0, 1.0, (n, cin, 16, 16)))
            ya = Tensor(rng.uniform(-1.0, 1.0, (n, cout, 16 // factor, 16 // factor)))
            lhs = float(np.sum(conv2d(xa, pc).data * ya.data))
            rhs = float(np.sum(xa.data * deconv2d(ya, pt).data))
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
            assert rel < 1e-5, f"adjoint identity off by {rel:.3e} at factor {factor}"


def test_criterion_05_degradation_statistics():
    with criterion(5, "sigma=30 PSNR 18.59 +/- 0.15 over 64 trials; sigma=0 identity"):
        clean = Tensor(np.full((1, 3, 128, 96), 128.0, dtype=np.float32))
        spec = RunConfig(noise_sigma=30.0)
        values = []
        for trial in range(64):
            corrupted = degrade(clean, spec, np.random.default_rng(1000 + trial))
            values.append(psnr(corrupted, clean))
        mean = sum(values) / len(values)
        assert abs(mean - 18.59) < 0.15, f"mean PSNR {mean:.4f}"

        # sigma=0 reproduces any image that is constant on 4x4 blocks
        rng = np.random.default_rng(5)
        grid = rng.integers(0, 256, (1, 3, 8, 6)).astype(np.float32)
        block = Tensor(nearest_upsample(grid, 4))
        corrupted = degrade(block, RunConfig(noise_sigma=0.0), np.random.default_rng(0))
        assert_array_equal(corrupted.data, block.data)


def test_criterion_06_metric_oracles():
    with criterion(6, "PSNR closed forms 1e-3 dB; SSIM identity and naive reference"):
        base = Tensor(np.full((1, 3, 16, 16), 100.0, dtype=np.float64))
        for diff, expected in ((30.0, 18.588379), (51.0, 13.979400)):
            shifted = Tensor(base.data + diff)
            assert abs(psnr(base, shifted) - expected) < 1e-3

        rng = np.random.default_rng(6)
        img = Tensor(rng.uniform(0.0, 255.0, (1, 3, 16, 16)))
        assert ssim(img, img) == 1.0

        for trial in range(3):
            a = Tensor(rng.uniform(0.0, 255.0, (1, 3, 15, 17)))
            b = Tensor(np.clip(a.data + rng.normal(0.0, 20.0, a.shape), 0.0, 255.0))
            ref = np.mean(
                [ssim_windows(a.data[0, ch], b.data[0, ch]) for ch in range(3)]
            )
            assert abs(ssim(a, b) - ref) < 1e-6


def test_criterion_07_overfit_smoke(tmp_path):
    with criterion(7, "MSE-only overfit reaches < 1e-3 within 2000 steps, < 10 min"):
        cfg = smoke_config(checkpoint_out=str(tmp_path / "overfit.ckpt"))
        t0 = time.perf_counter()
        result = run_training(cfg)
        elapsed = time.perf_counter() - t0

        assert elapsed < 600.0, f"training took {elapsed:.1f} s"
        assert len(result.log_lines) == 2001
        _, _, _, final_mse = (float(v) for v in result.log_lines[-1].split(","))
        assert final_mse < 1e-3, f"final MSE {final_mse:.3e}"

        # deterministic per seed: identical logs and checkpoint bytes
        runs = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"det_{tag}.ckpt"
            short = smoke_config(steps=40, checkpoint_out=str(ckpt))
            res = run_training(short)
            runs.append((res.log_lines, ckpt.read_bytes()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]


def test_criterion_08_adversarial_smoke(tmp_path):
    with criterion(8, "500 adversarial steps: finite, D in (0,1), G in (-1,1)"):
        ckpt = tmp_path / "adv.ckpt"
        cfg = smoke_config(
            gan_loss="nonsaturating",
            lambda_mse=10.0,
            disc_channels=(4, 8, 16, 32),
            steps=500,
            checkpoint_out=str(ckpt),
        )
        result = run_training(cfg)
        assert len(result.log_lines) == 501

        logged = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in result.log_lines[1:]]
        )
        assert logged.shape[0] == 500
        assert np.isfinite(logged).all(), "non-finite training losses"

        gen = load_checkpoint(ckpt)
        disc = load_checkpoint(str(ckpt) + ".disc")
        images = make_synthetic_corpus(4, seed=cfg.seed, size=(32, 32))
        pairs = degraded_dataset(images, cfg)
        for pair in pairs:
            fake = generator_forward(normalize(pair.corrupted), gen, cfg)
            assert np.isfinite(fake.data).all()
            assert np.abs(fake.data).max() < 1.0
            for probe in (fake, normalize(pair.clean)):
                score = discriminator_forward(Tensor(probe.data), disc, cfg).item()
                assert 0.0 < score < 1.0


def test_criterion_09_ensemble_mode_matrix(tmp_path):
    with criterion(9, "train + evaluate across 4 merge modes x N in {2,3,4}"):
        skipped_at_32 = {(144, 112), (176, 144), (208, 176)}
        for mode, n in product(MERGE_MODES, (2, 3, 4)):
            ckpt = tmp_path / f"{mode}_{n}.ckpt"
            cfg = RunConfig(
                n_levels=n,
                base_channels=4,
                bottleneck_channels=8,
                merge_mode=mode,
                gan_loss="none",
                batch_size=2,
                steps=2,
                scales=EVAL_SCALES,
                synthetic_count=2,
                synthetic_size=(128, 96),
                learning_rate=0.0002,
                seed=0,
                noise_sigma=30.0,
                checkpoint_out=str(ckpt),
            )
            result = run_training(cfg)
            assert len(result.log_lines) == 3
            _, _, _, final_mse = (float(v) for v in result.log_lines[-1].split(","))
            assert math.isfinite(final_mse)

            params = load_checkpoint(ckpt)
            images = load_corpus(cfg, split="test")
            pairs = degraded_dataset(images, cfg)
            report = evaluate(params, cfg, pairs, model_id=f"{mode}-n{n}")

            assert [(r.height, r.width) for r in report.rows] == list(EVAL_SCALES)
            for row in report.rows:
                if n == 4 and (row.height, row.width) in skipped_at_32:
                    assert row.count == 0
                    assert row.note == "skipped: dims not divisible by 32"
                    assert math.isnan(row.mean_psnr) and math.isnan(row.mean_ssim)
                else:
                    assert row.count == 2
                    assert row.note == ""
                    assert row.mean_psnr > 0.0
                    assert -1.0 <= row.mean_ssim <= 1.0
            text = report.to_text()
            for column in ("scale", "psnr_db", "ssim", "count"):
                assert column in text
            assert len(report.to_csv().strip().splitlines()) == 7


def test_criterion_10_checkpoint_matrix(tmp_path):
    with criterion(10, "bit-exact checkpoint round trip per mode/N; corruption rejected"):
        rng = np.random.default_rng(10)
        for mode, n in product(MERGE_MODES, (2, 3, 4)):
            cfg = RunConfig(
                n_levels=n, base_channels=2, bottleneck_channels=4, merge_mode=mode
            )
            stores = [build_generator(cfg, rng)]
            if (mode, n) == ("sgu", 2):
                cfg_d = RunConfig(
                    n_levels=n, base_channels=2, disc_channels=(2, 3, 4, 5)
                )
                stores.append(build_discriminator(cfg_d, rng))
            for idx, store in enumerate(stores):
                path = tmp_path / f"{mode}_{n}_{idx}.ckpt"
                save_checkpoint(store, path)
                loaded = load_checkpoint(path)
                assert sorted(loaded) == sorted(store)
                for name in store:
                    a, b = store[name], loaded[name]
                    assert b.requires_grad
                    assert a.shape == b.shape and a.dtype == b.dtype
                    assert a.data.tobytes() == b.data.tobytes()

        good = (tmp_path / "sgu_2_0.ckpt").read_bytes()
        cases = (
            (b"XXXX" + good[4:], "magic"),
            (good[:8] + (99).to_bytes(4, "little") + good[12:], "version"),
            (good[: len(good) - 5], "entry"),
            (good + b"junk", "trailing"),
        )
        for payload, fragment in cases:
            bad = tmp_path / f"bad_{fragment}.ckpt"
            bad.write_bytes(payload)
            with pytest.raises(CheckpointError, match=fragment):
                load_checkpoint(bad)
