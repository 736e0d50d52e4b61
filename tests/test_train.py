"""Training-loop tests: corpora, scale filtering, logging, determinism."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from sgen import (
    ConfigError,
    RunConfig,
    Tensor,
    batch_iter,
    build_generator,
    degraded_dataset,
    load_checkpoint,
    run_training,
    save_image,
)
import sgen.model
import sgen.train as train_module
from sgen.train import (
    LOG_HEADER,
    _derived_seed,
    _epoch_batches,
    advance,
    build_training_pairs,
    load_corpus,
    start,
)


def fast_cfg(tmp_path, **kw):
    base = dict(
        n_levels=2,
        base_channels=4,
        bottleneck_channels=4,
        gan_loss="none",
        batch_size=2,
        steps=3,
        scales=((32, 32),),
        synthetic_count=2,
        synthetic_size=(32, 32),
        checkpoint_out=str(tmp_path / "model.ckpt"),
        disc_channels=(2, 2, 2, 2),
        learning_rate=0.0002,
        seed=1,
    )
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# corpus loading


def test_load_corpus_synthetic():
    cfg = RunConfig(synthetic_count=3, synthetic_size=(32, 32), seed=5)
    images = load_corpus(cfg)
    assert len(images) == 3
    assert all(img.shape == (1, 3, 32, 32) for img in images)


def test_load_corpus_reads_split_directory(tmp_path):
    rng = np.random.default_rng(0)
    train_dir = tmp_path / "train"
    train_dir.mkdir()
    for name in ["b.ppm", "a.ppm"]:
        img = Tensor(rng.integers(0, 256, size=(1, 3, 8, 8)).astype(np.float32))
        save_image(img, train_dir / name)
    cfg = RunConfig(data_root=str(tmp_path))
    images = load_corpus(cfg, split="train")
    assert len(images) == 2


def test_load_corpus_falls_back_to_root(tmp_path):
    rng = np.random.default_rng(1)
    save_image(
        Tensor(rng.integers(0, 256, size=(1, 3, 8, 8)).astype(np.float32)),
        tmp_path / "only.ppm",
    )
    cfg = RunConfig(data_root=str(tmp_path))
    assert len(load_corpus(cfg, split="test")) == 1


def test_load_corpus_errors(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_corpus(RunConfig(data_root=str(tmp_path / "missing")))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigError, match="no .ppm files"):
        load_corpus(RunConfig(data_root=str(empty)))
    with pytest.raises(ConfigError, match="no training data"):
        load_corpus(RunConfig())


# ---------------------------------------------------------------------------
# scale filtering


def test_build_training_pairs_drops_incompatible_scales(tmp_path, capsys):
    cfg = fast_cfg(tmp_path, scales=((32, 32), (36, 36)))  # divisor 8 at 2 levels
    images = load_corpus(cfg)
    pairs = build_training_pairs(cfg, images)
    assert len(pairs) == 2  # one usable scale per image
    assert all(p.clean.shape[2:] == (32, 32) for p in pairs)
    err = capsys.readouterr().err
    assert "36x36" in err and "divisible by 8" in err


def test_kept_training_pairs_are_those_of_degraded_dataset(tmp_path):
    """Dropping the first scale leaves each 32x32 pair with the noise seed
    it has in ``degraded_dataset``, not that of a re-indexed scale list."""
    cfg = fast_cfg(tmp_path, scales=((36, 36), (32, 32)))
    images = load_corpus(cfg)
    want = [p for p in degraded_dataset(images, cfg) if p.clean.shape[2:] == (32, 32)]
    got = build_training_pairs(cfg, images)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.clean.data.tobytes() == w.clean.data.tobytes()
        assert g.corrupted.data.tobytes() == w.corrupted.data.tobytes()


def test_adversarial_training_drops_scales_the_critic_cannot_take(tmp_path, capsys):
    """40x40 fits the 2-level generator (divisor 8) but not the critic's
    four stride-2 convs (divisor 16): an adversarial run drops it, an MSE
    run keeps it, and so does a run with a three-width critic (divisor 8)."""
    cfg = fast_cfg(tmp_path, gan_loss="minimax", scales=((40, 40), (32, 32)), steps=2)
    assert (cfg.divisor, cfg.disc_divisor) == (8, 16)
    pairs = build_training_pairs(cfg, load_corpus(cfg))
    assert {p.clean.shape[2:] for p in pairs} == {(32, 32)}
    assert "scale 40x40 skipped for training, not divisible by 16" in capsys.readouterr().err
    assert len(run_training(cfg).log_lines) == 3
    mse = replace(cfg, gan_loss="none")
    assert {p.clean.shape[2:] for p in build_training_pairs(mse, load_corpus(mse))} == {(40, 40), (32, 32)}

    shallow = replace(cfg, disc_channels=(2, 2, 2), scales=((40, 40),))
    assert shallow.disc_divisor == 8
    assert {p.clean.shape[2:] for p in build_training_pairs(shallow, load_corpus(shallow))} == {(40, 40)}
    lines = run_training(shallow).log_lines
    assert len(lines) == 3
    assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))
    assert "disc.conv.4.weight" not in load_checkpoint(shallow.checkpoint_out + ".disc")


def test_build_training_pairs_requires_a_usable_scale(tmp_path):
    cfg = fast_cfg(tmp_path, scales=((36, 36),))
    with pytest.raises(ConfigError, match="no configured scale is divisible by 8"):
        build_training_pairs(cfg, load_corpus(cfg))


def test_a_config_without_a_usable_scale_fails_before_any_weight_is_drawn(tmp_path, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew weights")

    monkeypatch.setattr(sgen.model, "draw", no_draw)  # _build draws every conv and deconv through it
    with pytest.raises(AssertionError, match="drew weights"):  # the patch takes effect
        build_generator(RunConfig(), np.random.default_rng(0))
    for gan in ("none", "minimax"):
        with pytest.raises(ConfigError, match="no configured scale is divisible by"):
            run_training(fast_cfg(tmp_path, gan_loss=gan, scales=((36, 36),)))


@pytest.mark.parametrize("out", ["", "nodir/m.ckpt", "."])
def test_a_checkpoint_out_naming_no_file_fails_before_any_pair_or_weight(tmp_path, monkeypatch, out):
    def no_call(*args, **kwargs):
        raise AssertionError("built pairs or drew weights")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(train_module, "build_training_pairs", no_call)
    monkeypatch.setattr(sgen.model, "draw", no_call)
    with pytest.raises(AssertionError, match="drew weights"):  # the patch takes effect
        build_generator(RunConfig(), np.random.default_rng(0))
    with pytest.raises(ConfigError, match=f"checkpoint_out {out!r} names no file in an existing directory"):
        run_training(fast_cfg(tmp_path, checkpoint_out=out))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# run_training basics


def test_zero_steps_writes_initial_checkpoint(tmp_path):
    cfg = fast_cfg(tmp_path, steps=0)
    result = run_training(cfg)
    assert result.log_lines == [LOG_HEADER]
    store = load_checkpoint(cfg.checkpoint_out)
    assert list(store) == list(build_generator(cfg, np.random.default_rng(0)))
    assert not (tmp_path / "model.ckpt.disc").exists()  # mse-only: no critic


def test_zero_steps_adversarial_also_saves_the_critic(tmp_path):
    cfg = fast_cfg(tmp_path, steps=0, gan_loss="minimax")
    run_training(cfg)
    disc = load_checkpoint(cfg.checkpoint_out + ".disc")
    assert "disc.head.weight" in disc


def test_mse_log_format(tmp_path):
    cfg = fast_cfg(tmp_path, steps=3)
    result = run_training(cfg)
    assert len(result.log_lines) == 4
    assert result.log_lines[0] == "step,loss_g,loss_d,loss_mse"
    for i, line in enumerate(result.log_lines[1:], start=1):
        step, g, d, mse = line.split(",")
        assert int(step) == i
        assert math.isnan(float(d))  # no critic in mse-only training
        assert float(g) == float(mse)
        assert math.isfinite(float(mse))


def test_log_stream_receives_the_same_lines(tmp_path):
    cfg = fast_cfg(tmp_path, steps=2)
    stream = io.StringIO()
    result = run_training(cfg, log_stream=stream)
    assert stream.getvalue().strip().split("\n") == result.log_lines


def test_training_is_seed_deterministic(tmp_path):
    cfg_a = fast_cfg(tmp_path, steps=3, checkpoint_out=str(tmp_path / "a.ckpt"))
    cfg_b = fast_cfg(tmp_path, steps=3, checkpoint_out=str(tmp_path / "b.ckpt"))
    res_a = run_training(cfg_a)
    res_b = run_training(cfg_b)
    assert res_a.log_lines == res_b.log_lines
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


# tools/golden.py's small lines: merge, gan_loss -> digests
SMALL_LINES = {
    ("sgu", "none"): ["92512d9139af4ea4", "a947873864cdae57"],
    ("sgu", "minimax"): ["72b2bd47689ec151", "db95c5e4aa7aad94", "c1cda93b7a6e7d4f"],
    ("concat", "none"): ["15fdaf79e7b9076a", "33012c28be7effd7"],
    ("concat", "minimax"): ["b4b64fc1dd409489", "ccbb22aade69c91c", "5132d07e35efa7fd"],
    ("max", "none"): ["0dfbb1ea7f2acc0b", "aff3cf311f01cb19"],
    ("max", "minimax"): ["d9692ffbbe9e68c4", "6ce111721c1fa725", "e03983282679ab63"],
}


def test_seeded_training_and_evaluate_bits_are_pinned(tmp_path, golden):
    """``tools/golden.py``'s six small lines and its ``evaluate``,
    ``dropped`` and ``epochs`` lines, which read the same at one and two
    BLAS threads (its paper lines do not, so they stay out)."""
    tmp, small = str(tmp_path), golden.SMALL
    for (merge, gan), digests in SMALL_LINES.items():
        cfg, got = golden.train(tmp, "small", small, merge, gan)
        assert got == digests, (merge, gan)
        if (merge, gan) == ("sgu", "none"):
            assert golden.report_digest(cfg) == "623d5cbc12b5c5b2"
    dropped = golden.train(tmp, "dropped", golden.DROPPED, "sgu", "none")[1]
    assert dropped == ["c8c151465393a7b0", "38ee23cf137ec020"]
    epochs = [d for gan in ("none", "minimax") for d in golden.train(tmp, "epochs", small, "sgu", gan, 9)[1]]
    assert epochs == [
        "f7415ee750d900bc", "2d5e5bb49db7bed5", "fab1fae9b463457b", "08ffaa49362e9ed8", "de632a64f0c22131",
    ]


def test_seed_changes_the_trajectory(tmp_path):
    res_a = run_training(fast_cfg(tmp_path, steps=2, seed=1))
    res_b = run_training(fast_cfg(tmp_path, steps=2, seed=2))
    assert res_a.log_lines != res_b.log_lines


def test_mse_training_reduces_the_loss(tmp_path):
    cfg = fast_cfg(tmp_path, steps=40, learning_rate=0.001)
    result = run_training(cfg)
    losses = [float(line.split(",")[3]) for line in result.log_lines[1:]]
    early = sum(losses[:5]) / 5
    late = sum(losses[-5:]) / 5
    assert late < early


def test_adversarial_step_logs_all_three_losses(tmp_path):
    cfg = fast_cfg(tmp_path, steps=2, gan_loss="minimax", lambda_mse=0.1)
    result = run_training(cfg)
    for line in result.log_lines[1:]:
        _, g, d, mse = line.split(",")
        assert math.isfinite(float(g))
        assert math.isfinite(float(d))
        assert math.isfinite(float(mse))
    assert (tmp_path / "model.ckpt").exists()
    assert (tmp_path / "model.ckpt.disc").exists()


def test_epochs_continue_until_step_budget(tmp_path):
    # 2 images / batch 2 = 1 batch per epoch, so 5 steps spans 5 epochs
    cfg = fast_cfg(tmp_path, steps=5)
    result = run_training(cfg)
    assert len(result.log_lines) == 6


def test_periodic_saves_happen_at_eval_every(tmp_path, monkeypatch):
    calls = []
    real_save = train_module.save_checkpoint
    monkeypatch.setattr(
        train_module,
        "save_checkpoint",
        lambda store, path: (calls.append(str(path)), real_save(store, path))[1],
    )
    cfg = fast_cfg(tmp_path, steps=4, eval_every=2)
    run_training(cfg)
    # saves after steps 2 and 4, plus the final save
    assert calls.count(cfg.checkpoint_out) == 3


def test_non_finite_loss_aborts_with_context(tmp_path, monkeypatch):
    real_mse = train_module.mse_loss

    def poisoned(pred, target):
        loss = real_mse(pred, target)
        loss.data[:] = np.nan
        return loss

    monkeypatch.setattr(train_module, "mse_loss", poisoned)
    cfg = fast_cfg(tmp_path, steps=2)
    with pytest.raises(RuntimeError, match="non-finite loss at step 1"):
        run_training(cfg)


@pytest.mark.parametrize("gan", ["none", "minimax"])
def test_start_and_advance_by_hand_match_run_training(tmp_path, gan):
    """Advancing one state over the epoch batches, past an epoch boundary
    with two scale groups, then saving gives run_training's log, checkpoint
    and critic byte for byte."""
    cfg = fast_cfg(
        tmp_path, gan_loss=gan, steps=6, scales=((32, 32), (48, 32)),
        synthetic_count=3, synthetic_size=(48, 32),
    )
    pairs = build_training_pairs(cfg, load_corpus(cfg))
    assert len(list(_epoch_batches(pairs, cfg, 0))) == 4  # 2 per scale, so step 5 opens epoch 1

    state = start(cfg)
    lines = [LOG_HEADER]
    epoch = 0
    while state.step < cfg.steps:
        for s, t in _epoch_batches(pairs, cfg, epoch):
            if state.step == cfg.steps:
                break
            g, d, mse = advance(state, s, t)
            lines.append(f"{state.step},{g:.8e},{d:.8e},{mse:.8e}")
        epoch += 1
    assert epoch == 2
    by_hand = tmp_path / "by_hand.ckpt"
    train_module.save_checkpoint(state.gen, by_hand)
    if cfg.adversarial:
        assert state.disc_adam.step == state.step == cfg.steps
        train_module.save_checkpoint(state.disc, f"{by_hand}.disc")
    else:
        assert state.disc is None and state.disc_adam is None

    assert run_training(cfg).log_lines == lines
    assert by_hand.read_bytes() == (tmp_path / "model.ckpt").read_bytes()
    if cfg.adversarial:
        assert (tmp_path / "by_hand.ckpt.disc").read_bytes() == (tmp_path / "model.ckpt.disc").read_bytes()


@pytest.mark.parametrize("gan", ["none", "minimax"])
def test_advance_runs_the_step_of_the_config_its_state_started_from(tmp_path, gan):
    """The state carries its config: a minimax state takes a critic step
    with every generator step, an MSE state none."""
    cfg = fast_cfg(tmp_path, gan_loss=gan)
    state = start(cfg)
    assert state.cfg is cfg
    s, t = next(_epoch_batches(build_training_pairs(cfg, load_corpus(cfg)), cfg, 0))
    for step in (1, 2):
        g, d, mse = advance(state, s, t)
        assert state.step == step
        assert math.isfinite(g) and math.isfinite(mse)
        if cfg.adversarial:
            assert math.isfinite(d)
            assert state.disc_adam.step == state.step
        else:
            assert math.isnan(d) and g == mse
            assert state.disc is None and state.disc_adam is None


@pytest.mark.parametrize("gan", ["none", "minimax"])
def test_generator_gradients_live_from_the_backward_to_the_next_step(tmp_path, monkeypatch, gan):
    """A step's generator forward starts with no gradient held, so its tape
    can reuse the last step's gradient memory; when ``advance`` returns,
    every generator parameter holds a finite gradient of that step."""
    cfg = fast_cfg(tmp_path, gan_loss=gan)
    state = start(cfg)
    s, t = next(_epoch_batches(build_training_pairs(cfg, load_corpus(cfg)), cfg, 0))
    held = []
    forward = train_module.generator_forward

    def watched(x, params, *rest):
        held.append(sorted(name for name, p in params.items() if p.grad is not None))
        return forward(x, params, *rest)

    monkeypatch.setattr(train_module, "generator_forward", watched)
    last = {}
    for step in (1, 2):
        advance(state, s, t)
        assert len(held) == step  # the patch took effect
        assert held[-1] == []
        for name, p in state.gen.items():
            assert p.grad is not None and p.grad is not last.get(name), name
            assert p.grad.shape == p.data.shape and np.isfinite(p.grad).all(), name
            last[name] = p.grad


def test_each_epoch_shuffles_with_its_own_seed(tmp_path):
    """Epoch e's batches are ``batch_iter`` under ``_derived_seed(seed, 1,
    e)``, so two epochs see the pairs in two different orders."""
    cfg = fast_cfg(tmp_path, scales=((32, 32), (48, 32)), synthetic_count=3, synthetic_size=(48, 32))
    pairs = build_training_pairs(cfg, load_corpus(cfg))

    def batch_bytes(batches):
        return [s.data.tobytes() + t.data.tobytes() for s, t in batches]

    epochs = [batch_bytes(_epoch_batches(pairs, cfg, e)) for e in (0, 1)]
    for e, got in enumerate(epochs):
        assert got == batch_bytes(batch_iter(pairs, cfg.batch_size, _derived_seed(cfg.seed, 1, e))), e
    assert epochs[0] != epochs[1]


def test_the_critic_step_takes_no_gradient_into_a_generator_tensor(tmp_path, monkeypatch):
    """The critic scores a detached fake: after a minimax step no tensor
    the critic read holds a gradient.  Scoring ``pred`` itself moves no
    pinned bit but leaves the critic's adjoint on it."""
    cfg = fast_cfg(tmp_path, gan_loss="minimax")
    state = start(cfg)
    s, t = next(_epoch_batches(build_training_pairs(cfg, load_corpus(cfg)), cfg, 0))
    read = []
    forward = train_module.discriminator_forward

    def watched(x, *rest):
        read.append(x)
        return forward(x, *rest)

    monkeypatch.setattr(train_module, "discriminator_forward", watched)
    advance(state, s, t)
    assert len(read) == 3  # real and fake for the critic, fake for the generator
    assert [x.grad is None for x in read] == [True] * 3


def test_the_critic_holds_no_gradient_when_a_minimax_step_returns(tmp_path, monkeypatch):
    """The critic's gradients are dropped right after its Adam update, so
    the generator's backward can reuse their memory: every critic parameter
    holds one when that update runs, and none when ``advance`` returns."""
    cfg = fast_cfg(tmp_path, gan_loss="minimax")
    state = start(cfg)
    s, t = next(_epoch_batches(build_training_pairs(cfg, load_corpus(cfg)), cfg, 0))
    updated = []
    adam = train_module.adam_step

    def watched(store, *rest):
        if store is state.disc:
            updated.append(sorted(name for name, p in store.items() if p.grad is None))
        return adam(store, *rest)

    monkeypatch.setattr(train_module, "adam_step", watched)
    for step in (1, 2):
        advance(state, s, t)
        assert updated == [[]] * step
        assert [name for name, p in state.disc.items() if p.grad is not None] == []


# ---------------------------------------------------------------------------
# seed derivation


def test_derived_seed_is_stable_and_injective_enough():
    assert _derived_seed(1, 2, 3) == _derived_seed(1, 2, 3)
    seen = {_derived_seed(s, k) for s in range(10) for k in range(10)}
    assert len(seen) == 100
