"""Training loops: plain MSE and alternating adversarial.

Adversarial training runs one discriminator step then one generator step
per minibatch.  The generator forward runs once per minibatch: the
discriminator step scores real targets against a detached copy of its
output, and the generator step re-enters its tape to backpropagate through
the discriminator into the generator weights.  Every step appends one
``step,loss_g,loss_d,loss_mse`` line to the loss log (loss_g/loss_d are
nan under MSE-only training) and a non-finite loss aborts immediately.

Everything is driven by integer seeds: parameter init, corpus synthesis,
per-pair corruption noise, and per-epoch batch shuffles are all derived
from RunConfig.seed, so two runs with the same config produce identical
logs and checkpoints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor, backward
from .checkpoint import save_checkpoint
from .config import ConfigError, RunConfig
from .data import SamplePair, batch_iter, degraded_dataset, make_synthetic_corpus
from .losses import d_loss, g_loss, mse_loss
from .model import (
    ParamStore,
    build_discriminator,
    build_generator,
    discriminator_forward,
    generator_forward,
)
from .optim import adam_step, init_adam
from .ppm import load_image

__all__ = ["TrainResult", "run_training", "load_corpus", "build_training_pairs"]

LOG_HEADER = "step,loss_g,loss_d,loss_mse"


@dataclass
class TrainResult:
    steps: int
    final_mse: float
    final_g: float
    final_d: float
    checkpoint_path: str
    log_lines: list[str]


def _derived_seed(*parts: int) -> int:
    """Stable scalar seed from a tuple, for components that take one int."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def load_corpus(cfg: RunConfig, split: str = "train") -> list[Tensor]:
    """Images from data_root/<split> (or data_root itself), else synthetic."""
    if cfg.data_root:
        root = Path(cfg.data_root)
        if not root.exists():
            raise ConfigError(f"data_root {str(root)!r} does not exist")
        folder = root / split if (root / split).is_dir() else root
        paths = sorted(folder.glob("*.ppm"))
        if not paths:
            raise ConfigError(f"no .ppm files under {str(folder)!r}")
        return [load_image(p) for p in paths]
    if cfg.synthetic_count > 0:
        return make_synthetic_corpus(cfg.synthetic_count, cfg.seed, cfg.synthetic_size)
    raise ConfigError("no training data: set data_root or synthetic_count")


def build_training_pairs(cfg: RunConfig, images: list[Tensor]) -> list[SamplePair]:
    """Degrade the corpus at every configured scale the model can consume.

    Scales the generator cannot take (see ``SgenConfig.fits``) are
    dropped here with a warning on stderr.
    """
    usable = tuple(s for s in cfg.scales if cfg.fits(*s))
    for h, w in cfg.scales:
        if (h, w) not in usable:
            print(
                f"warning: scale {h}x{w} skipped for training, not divisible by {cfg.divisor}",
                file=sys.stderr,
            )
    if not usable:
        raise ConfigError(f"no configured scale is divisible by {cfg.divisor}")
    return degraded_dataset(images, replace(cfg.degrade_spec(), scales=usable))


def _epoch_batches(pairs, cfg: RunConfig, epoch: int):
    return batch_iter(pairs, cfg.batch_size, _derived_seed(cfg.seed, 1, epoch))


def run_training(cfg: RunConfig, log_stream=None) -> TrainResult:
    """Train per the config; returns final losses and the checkpoint path."""
    init_rng = np.random.default_rng(_derived_seed(cfg.seed, 0))
    gen = build_generator(cfg, init_rng)
    gen_state = init_adam(gen)
    disc = disc_state = None
    if cfg.adversarial:
        disc = build_discriminator(cfg, init_rng)
        disc_state = init_adam(disc)

    images = load_corpus(cfg)
    pairs = build_training_pairs(cfg, images)

    log_lines = [LOG_HEADER]
    if log_stream is not None:
        print(LOG_HEADER, file=log_stream)

    step = 0
    epoch = 0
    last_g = last_d = last_mse = math.nan
    while step < cfg.steps:
        for s, t, _scale in _epoch_batches(pairs, cfg, epoch):
            if step >= cfg.steps:
                break
            step += 1
            if cfg.adversarial:
                last_g, last_d, last_mse = _adversarial_step(
                    s, t, gen, disc, gen_state, disc_state, cfg
                )
            else:
                last_g, last_d, last_mse = _mse_step(s, t, gen, gen_state, cfg)
            line = f"{step},{last_g:.8e},{last_d:.8e},{last_mse:.8e}"
            log_lines.append(line)
            if log_stream is not None:
                print(line, file=log_stream)
            if not math.isfinite(last_mse) or (
                cfg.adversarial and not (math.isfinite(last_g) and math.isfinite(last_d))
            ):
                raise RuntimeError(f"non-finite loss at step {step}: {line}")
            if cfg.eval_every and step % cfg.eval_every == 0:
                _save(gen, disc, cfg)
        epoch += 1
    _save(gen, disc, cfg)
    return TrainResult(
        steps=step,
        final_mse=last_mse,
        final_g=last_g,
        final_d=last_d,
        checkpoint_path=cfg.checkpoint_out,
        log_lines=log_lines,
    )


def _save(gen: ParamStore, disc: ParamStore | None, cfg: RunConfig) -> None:
    save_checkpoint(gen, cfg.checkpoint_out)
    if disc is not None:
        save_checkpoint(disc, cfg.checkpoint_out + ".disc")


def _mse_step(s, t, gen, gen_state, cfg: RunConfig):
    gen.zero_grad()
    with Tape() as tape:
        pred = generator_forward(s, gen, cfg)
        loss = mse_loss(pred, t)
    backward(tape, loss)
    adam_step(gen, None, gen_state, cfg.learning_rate)
    value = loss.item()
    return value, math.nan, value


def _adversarial_step(s, t, gen, disc, gen_state, disc_state, cfg: RunConfig):
    # one generator forward, recorded for the generator step below
    with Tape() as gen_tape:
        pred = generator_forward(s, gen, cfg)

    # discriminator step: real targets vs detached fakes
    disc.zero_grad()
    with Tape() as tape:
        score_real = discriminator_forward(t, disc, cfg)
        score_fake = discriminator_forward(pred.detach(), disc, cfg)
        loss_d = d_loss(score_real, score_fake)
    backward(tape, loss_d)
    del tape  # release the critic graph before the generator backward
    adam_step(disc, None, disc_state, cfg.learning_rate)

    # generator step: gradient flows through the updated discriminator,
    # whose frozen weights take no gradient of their own
    gen.zero_grad()
    with disc.frozen():
        with gen_tape:
            score = discriminator_forward(pred, disc, cfg)
            loss_g = g_loss(score, pred, t, cfg.lambda_mse, cfg.gan_loss)
        backward(gen_tape, loss_g)
    adam_step(gen, None, gen_state, cfg.learning_rate)
    mse_value = float(np.mean((pred.data - t.data) ** 2))
    return loss_g.item(), loss_d.item(), mse_value
