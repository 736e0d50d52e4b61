"""End-to-end command-line tests driving main() in process."""

import warnings

import numpy as np
import pytest

import sgen.cli
import sgen.model
from sgen import (
    RunConfig,
    Tensor,
    build_generator,
    degraded_dataset,
    load_checkpoint,
    load_config,
    restore,
    save_checkpoint,
    save_image,
    serialize_config,
)
from sgen.checks import CheckResult
from sgen.cli import main
from sgen.ppm import load_image


def write_cfg(tmp_path, name="run.cfg", **kw):
    base = dict(
        n_levels=2,
        base_channels=4,
        bottleneck_channels=4,
        gan_loss="none",
        batch_size=2,
        steps=2,
        scales=((32, 32),),
        synthetic_count=2,
        synthetic_size=(32, 32),
        checkpoint_out=str(tmp_path / "model.ckpt"),
        report_out=str(tmp_path / "report"),
        disc_channels=(2, 2, 2, 2),
        seed=3,
    )
    base.update(kw)
    path = tmp_path / name
    path.write_text(serialize_config(RunConfig(**base)), encoding="utf-8")
    return path


def _random_ppm(path, h, w, seed=0):
    rng = np.random.default_rng(seed)
    img = Tensor(rng.integers(0, 256, size=(1, 3, h, w)).astype(np.float32))
    save_image(img, path)


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    log_path = tmp_path / "loss.csv"
    cfg_path = write_cfg(tmp_path, log_out=str(log_path))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == f"trained 2 steps, checkpoint -> {tmp_path / 'model.ckpt'}\n"
    store = load_checkpoint(tmp_path / "model.ckpt")
    assert "out.conv.weight" in store
    lines = log_path.read_text().strip().split("\n")
    assert lines[0] == "step,loss_g,loss_d,loss_mse"
    assert len(lines) == 3


def test_train_seed_override_changes_the_run(tmp_path):
    logs = {}
    for seed in (1, 2, 1):
        log_path = tmp_path / f"log{len(logs)}.csv"
        cfg_path = write_cfg(tmp_path, name=f"cfg{len(logs)}.cfg", log_out=str(log_path))
        assert main(["train", "--config", str(cfg_path), "--seed", str(seed)]) == 0
        logs[len(logs)] = log_path.read_text()
    assert logs[0] == logs[2]  # same seed, same trajectory
    assert logs[0] != logs[1]


def test_train_without_data_sources_fails_cleanly(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, synthetic_count=0)
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "error:" in capsys.readouterr().err


def _assert_clean_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err, err
    return err


def test_train_with_non_finite_activations_fails_cleanly(tmp_path, capsys):
    """A learning rate of 1e30 drives a conv's pre-activation non-finite by
    step 2, before any loss is computed from it.  The GEMM overflows before
    the epilogue's finite check raises, and that error alone is reported,
    without numpy's overflow or invalid-value warnings."""
    cfg_path = write_cfg(tmp_path, learning_rate=1e30, steps=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", str(cfg_path)])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "non-finite" in _assert_clean_error(code, capsys)


@pytest.mark.parametrize(
    "line, key",
    [
        ("merge_mode = blend", "merge_mode"),
        ("n_levels = 1", "n_levels"),
        ("gan_loss = wasserstein", "gan_loss"),
        ("lambda_mse = -1", "lambda_mse"),
        ("down_factor = 0", "down_factor"),
        ("noise_sigma = -1", "noise_sigma"),
        ("scales = 30x30", "scales"),
        ("batch_size = 0", "batch_size"),
        ("steps = -5", "steps"),
        ("eval_every = -1", "eval_every"),
        ("learning_rate = -1", "learning_rate"),
    ],
)
def test_train_rejects_invalid_config_values(tmp_path, capsys, line, key):
    cfg_path = write_cfg(tmp_path)
    with open(cfg_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_rejects_a_negative_seed_override(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


def test_train_with_a_checkpoint_out_in_a_missing_directory_keeps_the_old_log(tmp_path, capsys):
    log_path = tmp_path / "loss.csv"
    log_path.write_text("step,loss_g,loss_d,loss_mse\n1,0.5,0,0.5\n", encoding="utf-8")
    out = str(tmp_path / "nodir" / "model.ckpt")
    cfg_path = write_cfg(tmp_path, log_out=str(log_path), checkpoint_out=out)
    err = _assert_clean_error(main(["train", "--config", str(cfg_path)]), capsys)
    assert err == f"error: checkpoint_out {out!r} names no file in an existing directory\n"
    assert log_path.read_text(encoding="utf-8") == "step,loss_g,loss_d,loss_mse\n1,0.5,0,0.5\n"


def test_train_with_a_log_out_naming_a_directory_fails_cleanly(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, log_out=str(tmp_path))
    err = _assert_clean_error(main(["train", "--config", str(cfg_path)]), capsys)
    assert err == f"error: log_out {str(tmp_path)!r} names no file in an existing directory\n"
    assert not (tmp_path / "model.ckpt").exists()


# ---------------------------------------------------------------------------
# restore


def test_restore_zero_checkpoint_outputs_mid_gray(tmp_path):
    cfg_path = write_cfg(tmp_path)
    model_cfg = RunConfig(n_levels=2, base_channels=4, bottleneck_channels=4)
    store = build_generator(model_cfg, np.random.default_rng(0))
    for t in store.values():
        t.data[:] = 0.0
    ckpt = tmp_path / "zero.ckpt"
    save_checkpoint(store, ckpt)
    src = tmp_path / "in.ppm"
    _random_ppm(src, 32, 32)
    dst = tmp_path / "out.ppm"
    assert (
        main(
            [
                "restore",
                "--config",
                str(cfg_path),
                "--checkpoint",
                str(ckpt),
                "--in",
                str(src),
                "--out",
                str(dst),
            ]
        )
        == 0
    )
    out = load_image(dst)
    assert out.shape == (1, 3, 32, 32)
    # tanh(0) = 0 maps to pixel 127.5, which rounds to 128
    np.testing.assert_array_equal(out.data, 128.0)


def test_restore_trained_checkpoint_round_trips(tmp_path):
    cfg_path = write_cfg(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    src = tmp_path / "in.ppm"
    _random_ppm(src, 32, 32, seed=4)
    dst = tmp_path / "restored.ppm"
    args = [
        "restore",
        "--config",
        str(cfg_path),
        "--checkpoint",
        str(tmp_path / "model.ckpt"),
        "--in",
        str(src),
        "--out",
        str(dst),
    ]
    assert main(args) == 0
    first = dst.read_bytes()
    assert main(args) == 0
    assert dst.read_bytes() == first  # restoration is deterministic


def test_restore_writes_what_the_restore_function_returns(tmp_path):
    cfg_path = write_cfg(tmp_path)
    cfg = load_config(cfg_path)
    store = build_generator(cfg, np.random.default_rng(5))
    ckpt = tmp_path / "fresh.ckpt"
    save_checkpoint(store, ckpt)
    src, dst, want = tmp_path / "in.ppm", tmp_path / "out.ppm", tmp_path / "want.ppm"
    _random_ppm(src, 32, 32, seed=6)
    args = ["restore", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--in", str(src), "--out", str(dst)]
    assert main(args) == 0
    save_image(restore(load_image(src), store, cfg), want)
    assert dst.read_bytes() == want.read_bytes()


def test_restore_reports_nearest_valid_sizes(tmp_path, capsys):
    # default config: 3 levels, so dims must divide 16
    ckpt = tmp_path / "zero.ckpt"
    store = build_generator(RunConfig(), np.random.default_rng(0))
    save_checkpoint(store, ckpt)
    src = tmp_path / "odd.ppm"
    _random_ppm(src, 100, 100)
    code = main(
        ["restore", "--checkpoint", str(ckpt), "--in", str(src), "--out", str(tmp_path / "x.ppm")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "divisible by 16" in err
    assert "96/112" in err


def test_restore_rejects_architecture_mismatch(tmp_path, capsys):
    # checkpoint trained at 2 levels, CLI invoked with the 3-level default
    store = build_generator(
        RunConfig(n_levels=2, base_channels=4, bottleneck_channels=4),
        np.random.default_rng(0),
    )
    ckpt = tmp_path / "n2.ckpt"
    save_checkpoint(store, ckpt)
    src = tmp_path / "in.ppm"
    _random_ppm(src, 32, 32)
    code = main(
        ["restore", "--checkpoint", str(ckpt), "--in", str(src), "--out", str(tmp_path / "x.ppm")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "does not fit the configured architecture" in err
    assert "--config" in err


def test_evaluate_rejects_architecture_mismatch(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    store = build_generator(RunConfig(), np.random.default_rng(0))
    ckpt = tmp_path / "n3.ckpt"
    save_checkpoint(store, ckpt)
    code = main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ckpt)])
    assert code == 2
    assert "does not fit the configured architecture" in capsys.readouterr().err


def test_restore_and_evaluate_draw_no_weights(tmp_path, monkeypatch):
    """The architecture check lists the expected names from the site table:
    neither command builds a generator or draws a single weight."""
    cfg_path = write_cfg(tmp_path, steps=0)
    assert main(["train", "--config", str(cfg_path)]) == 0
    src = tmp_path / "in.ppm"
    _random_ppm(src, 32, 32)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew weights")

    monkeypatch.setattr(sgen.model, "draw", no_draw)  # _build draws every conv and deconv through it
    with pytest.raises(AssertionError, match="drew weights"):  # the patch takes effect
        build_generator(RunConfig(), np.random.default_rng(0))
    monkeypatch.setattr(sgen.model, "build_generator", no_draw)
    common = ["--config", str(cfg_path), "--checkpoint", str(tmp_path / "model.ckpt")]
    assert main(["restore", *common, "--in", str(src), "--out", str(tmp_path / "x.ppm")]) == 0
    assert main(["evaluate", *common]) == 0


def test_restore_of_a_checkpoint_with_a_nan_weight_fails_cleanly(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    store = build_generator(load_config(cfg_path), np.random.default_rng(0))
    next(iter(store.values())).data.flat[0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(store, ckpt)
    src = tmp_path / "in.ppm"
    _random_ppm(src, 32, 32)
    args = ["restore", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--in", str(src)]
    _assert_clean_error(main([*args, "--out", str(tmp_path / "out.ppm")]), capsys)


def _restore_with_out_conv_weight(tmp_path, capsys, shape):
    """Run ``sgen restore`` on a checkpoint whose ``out.conv`` weight has
    ``shape``; it must fail cleanly, and its error text is returned."""
    cfg_path = write_cfg(tmp_path)
    store = build_generator(load_config(cfg_path), np.random.default_rng(0))
    store["out.conv.weight"].data = np.zeros(shape, dtype=np.float32)
    ckpt = tmp_path / "odd.ckpt"
    save_checkpoint(store, ckpt)
    assert load_checkpoint(ckpt)["out.conv.weight"].shape == shape
    src = tmp_path / "in.ppm"
    _random_ppm(src, 32, 32)
    args = ["restore", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--in", str(src)]
    err = _assert_clean_error(main([*args, "--out", str(tmp_path / "out.ppm")]), capsys)
    assert not (tmp_path / "out.ppm").exists()
    return err


def test_restore_of_a_checkpoint_with_an_empty_kernel_fails_cleanly(tmp_path, capsys):
    """A (3, 4, 0, 0) weight loads, but a kernel without taps has no stride."""
    err = _restore_with_out_conv_weight(tmp_path, capsys, (3, 4, 0, 0))
    assert "'out.conv.weight' is stored as (3, 4, 0, 0) where the site table gives (3, 4, 3, 3)" in err


def test_restore_of_a_checkpoint_with_the_wrong_kernel_names_the_site(tmp_path, capsys):
    """A 5x5 kernel would run, at stride 1 with padding 2, where the site
    declares 3x3: the check compares each stored shape with its site row."""
    err = _restore_with_out_conv_weight(tmp_path, capsys, (3, 4, 5, 5))
    assert "'out.conv.weight' is stored as (3, 4, 5, 5) where the site table gives (3, 4, 3, 3)" in err


@pytest.mark.parametrize("command", ["restore", "evaluate"])
def test_a_checkpoint_of_other_widths_names_the_site_and_both_shapes(tmp_path, capsys, command):
    """A base_channels = 4 checkpoint under a config saying 8 would run,
    since a forward reads its widths off the weights; the check stops it."""
    cfg_path = write_cfg(tmp_path, base_channels=8)
    store = build_generator(load_config(write_cfg(tmp_path, "four.cfg", base_channels=4)), np.random.default_rng(0))
    ckpt = tmp_path / "four.ckpt"
    save_checkpoint(store, ckpt)
    src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
    _random_ppm(src, 32, 32)
    io = ["--in", str(src), "--out", str(dst)] if command == "restore" else []
    err = _assert_clean_error(main([command, "--config", str(cfg_path), "--checkpoint", str(ckpt), *io]), capsys)
    assert "'enc.trunk.0.weight' is stored as (4, 3, 3, 3) where the site table gives (8, 3, 3, 3)" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["four.cfg", "four.ckpt", "in.ppm", "run.cfg"]


def test_restore_missing_checkpoint_fails_cleanly(tmp_path, capsys):
    src = tmp_path / "in.ppm"
    _random_ppm(src, 32, 32)
    code = main(
        [
            "restore",
            "--checkpoint",
            str(tmp_path / "nope.ckpt"),
            "--in",
            str(src),
            "--out",
            str(tmp_path / "out.ppm"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,extra,named",
    [
        ("restore", ["--in", "in.ppm", "--out", "nodir/x.ppm"], "--out 'nodir/x.ppm'"),
        ("evaluate", [], "report path 'nodir/rep.txt'"),
    ],
)
def test_an_output_path_in_a_missing_directory_fails_before_the_checkpoint_loads(
    tmp_path, capsys, monkeypatch, command, extra, named
):
    def no_load(*args, **kwargs):
        raise AssertionError("loaded the checkpoint")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sgen.cli, "load_checkpoint", no_load)
    cfg_path = write_cfg(tmp_path, report_out="nodir/rep")
    _random_ppm(tmp_path / "in.ppm", 32, 32)
    assert main([command, "--config", str(cfg_path), "--checkpoint", "model.ckpt", *extra]) == 2
    assert capsys.readouterr().err == f"error: {named} names no file in an existing directory\n"


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_writes_reports_with_warning_rows(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, scales=((32, 32), (36, 36), (48, 48)), steps=0)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (
        main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(tmp_path / "model.ckpt")])
        == 0
    )
    csv = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert csv[0] == "scale,psnr,ssim,count"
    assert len(csv) == 4  # three configured scales
    rows = {line.split(",")[0]: line for line in csv[1:]}
    assert rows["36x36"].endswith(",0")
    assert "nan" in rows["36x36"]
    assert rows["32x32"].endswith(",2")  # both test images at this scale
    text = (tmp_path / "report.txt").read_text()
    assert "model:" in text and "not divisible by 8" in text
    out = capsys.readouterr().out
    assert "32x32" in out  # table echoed to stdout


def test_evaluate_is_repeatable(tmp_path):
    cfg_path = write_cfg(tmp_path, steps=0)
    assert main(["train", "--config", str(cfg_path)]) == 0
    args = ["evaluate", "--config", str(cfg_path), "--checkpoint", str(tmp_path / "model.ckpt")]
    assert main(args) == 0
    first = (tmp_path / "report.csv").read_text()
    assert main(args) == 0
    assert (tmp_path / "report.csv").read_text() == first


def test_evaluate_names_the_degradation_recipe(tmp_path):
    cfg_path = write_cfg(tmp_path, steps=0, down_factor=2, noise_sigma=12.5)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(tmp_path / "model.ckpt")]) == 0
    assert "degradation: down2 sigma12.5 nearest\n" in (tmp_path / "report.txt").read_text()


def test_evaluate_without_a_test_folder_fails_before_the_checkpoint_loads(tmp_path, capsys, monkeypatch):
    """A flat data_root holds the training images, so evaluate refuses it."""
    def no_load(*args, **kwargs):
        raise AssertionError("loaded the checkpoint")

    root = tmp_path / "faces"
    root.mkdir()
    _random_ppm(root / "a.ppm", 32, 32)
    cfg_path = write_cfg(tmp_path, data_root=str(root), synthetic_count=0)
    monkeypatch.setattr(sgen.cli, "load_checkpoint", no_load)
    assert main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(tmp_path / "model.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(root / "test")) in err
    assert not (tmp_path / "report.txt").exists()


def test_evaluate_scores_the_test_folder(tmp_path):
    root = tmp_path / "faces"
    (root / "test").mkdir(parents=True)
    _random_ppm(root / "a.ppm", 32, 32, seed=1)
    _random_ppm(root / "b.ppm", 32, 32, seed=2)
    _random_ppm(root / "test" / "c.ppm", 32, 32, seed=3)
    cfg_path = write_cfg(tmp_path, data_root=str(root), synthetic_count=0, steps=0)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(tmp_path / "model.ckpt")]) == 0
    # one test image, not the two training images
    assert (tmp_path / "report.csv").read_text().strip().split("\n")[1].endswith(",1")


# ---------------------------------------------------------------------------
# degrade


def _degrade_setup(tmp_path, sigma=30.0):
    cfg_path = write_cfg(tmp_path, scales=((16, 16), (32, 32)), noise_sigma=sigma)
    in_dir = tmp_path / "input"
    in_dir.mkdir()
    _random_ppm(in_dir / "faceA.ppm", 64, 48, seed=1)
    _random_ppm(in_dir / "faceB.ppm", 64, 48, seed=2)
    out_dir = tmp_path / "output"
    return cfg_path, in_dir, out_dir


def test_degrade_writes_named_pairs(tmp_path):
    cfg_path, in_dir, out_dir = _degrade_setup(tmp_path)
    code = main(
        ["degrade", "--config", str(cfg_path), "--in", str(in_dir), "--out", str(out_dir)]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "faceA_scale16x16_clean.ppm",
        "faceA_scale16x16_noisy.ppm",
        "faceA_scale32x32_clean.ppm",
        "faceA_scale32x32_noisy.ppm",
        "faceB_scale16x16_clean.ppm",
        "faceB_scale16x16_noisy.ppm",
        "faceB_scale32x32_clean.ppm",
        "faceB_scale32x32_noisy.ppm",
    ]
    clean = load_image(out_dir / "faceA_scale32x32_clean.ppm")
    assert clean.shape == (1, 3, 32, 32)


def test_degrade_is_deterministic_across_worker_counts(tmp_path, monkeypatch):
    cfg_path, in_dir, _ = _degrade_setup(tmp_path)
    blobs = {}
    for label, cpus in [("serial", 1), ("pooled", 4)]:
        out_dir = tmp_path / f"out_{label}"
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert (
            main(["degrade", "--config", str(cfg_path), "--in", str(in_dir), "--out", str(out_dir)])
            == 0
        )
        blobs[label] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert blobs["serial"] == blobs["pooled"]


@pytest.mark.parametrize("affinity, cpus, workers", [(1, 64, 1), (3, 64, 3), (12, 1, 8), (None, 5, 5)])
def test_degrade_pool_follows_the_usable_cpus(tmp_path, monkeypatch, affinity, cpus, workers):
    """The pool takes the CPUs in the affinity set, capped at 8, not the
    machine's count; without an affinity call it takes the machine's."""
    cfg_path, in_dir, out_dir = _degrade_setup(tmp_path)
    if affinity is None:
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    sizes = []
    pool = sgen.cli.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(sgen.cli, "ThreadPoolExecutor", recording)
    assert main(["degrade", "--config", str(cfg_path), "--in", str(in_dir), "--out", str(out_dir)]) == 0
    assert sizes == [workers]
    assert len(list(out_dir.iterdir())) == 2 * 2 * 2


def test_degrade_writes_the_pairs_degraded_dataset_makes(tmp_path):
    cfg_path, in_dir, out_dir = _degrade_setup(tmp_path, sigma=30.0)
    assert (
        main(["degrade", "--config", str(cfg_path), "--in", str(in_dir), "--out", str(out_dir)])
        == 0
    )
    paths = sorted(in_dir.glob("*.ppm"))
    cfg = load_config(cfg_path)
    pairs = degraded_dataset([load_image(p) for p in paths], cfg)
    want_dir = tmp_path / "want"
    want_dir.mkdir()
    for k, pair in enumerate(pairs):
        stem = paths[k // len(cfg.scales)].stem
        h, w = pair.clean.shape[2:]
        for kind, image in (("clean", pair.clean), ("noisy", pair.corrupted)):
            save_image(image, want_dir / f"{stem}_scale{h}x{w}_{kind}.ppm")
    written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert written == {p.name: p.read_bytes() for p in want_dir.iterdir()}
    assert len(written) == 2 * 2 * 2


def test_degrade_sigma_zero_noisy_equals_block_average(tmp_path):
    cfg_path, in_dir, out_dir = _degrade_setup(tmp_path, sigma=0.0)
    assert (
        main(["degrade", "--config", str(cfg_path), "--in", str(in_dir), "--out", str(out_dir)])
        == 0
    )
    clean = load_image(out_dir / "faceA_scale32x32_clean.ppm").data
    noisy = load_image(out_dir / "faceA_scale32x32_noisy.ppm").data
    blocks = clean.reshape(1, 3, 8, 4, 8, 4).mean(axis=(3, 5))
    want = np.rint(np.clip(blocks.repeat(4, axis=2).repeat(4, axis=3), 0, 255))
    # the saved clean is quantized, the pipeline averages floats: off by <= 1
    np.testing.assert_allclose(noisy, want, atol=1.0)


def test_degrade_empty_input_dir_fails_cleanly(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    empty = tmp_path / "none"
    empty.mkdir()
    code = main(
        ["degrade", "--config", str(cfg_path), "--in", str(empty), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "no .ppm files" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck and argument plumbing


def _canned_battery(monkeypatch, *results):
    """Stand in for the battery, which acceptance criterion 1 runs for real."""

    def battery(on_result=None):
        for r in results:
            on_result(r)
        return list(results)

    monkeypatch.setattr(sgen.cli, "run_gradient_battery", battery)


def test_gradcheck_command_passes(capsys, monkeypatch):
    _canned_battery(monkeypatch, CheckResult("add.lhs", 1e-9, 1e-5), CheckResult("generator", 1e-6, 1e-4))
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "2/2 gradient checks passed" in out
    assert "FAIL" not in out


def test_gradcheck_command_exits_1_on_a_failing_check(capsys, monkeypatch):
    _canned_battery(monkeypatch, CheckResult("add.lhs", 1e-9, 1e-5), CheckResult("generator", 2e-4, 1e-4))
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 1 and "FAIL  generator" in out
    assert "1/2 gradient checks passed" in out


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_config_key_is_reported(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("n_level = 3\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err
