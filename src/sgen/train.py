"""Training: one state advanced one step at a time, and the loop around it.

``TrainState`` holds what a training step reads and advances: the config
it was started from, the generator and, in an adversarial run, the critic,
each with its Adam state.  Its position is the generator Adam's step
count; the critic takes one update per step too, so its count always
equals it.  ``start(cfg)`` builds a fresh state from the config's seed and
``advance(state, s, t)`` runs one step of that config on one batch; no
step takes a config of its own.  These are the per-step entry points for
any driver other than ``run_training``, such as resume or per-step
telemetry.

A step starts with no generator gradient: ``advance`` drops the last
step's before it dispatches, and a step's gradients live from its backward
until the next step starts, so the caller can read them in between.  The
critic's live only from its backward to its Adam update.  An
MSE step is one generator forward, backward and Adam update.  An
adversarial step runs one discriminator update then one generator update
per minibatch, with one generator forward: the discriminator step scores
real targets against a detached copy of its output, and the generator step
re-enters its tape to backpropagate through the discriminator into the
generator weights.

``run_training`` is the driver the ``sgen train`` command uses: it starts a
state, advances it over the seeded epoch stream for ``cfg.steps`` batches,
logs each step, saves checkpoints and returns the log (see its docstring).

Everything is driven by integer seeds: parameter init, corpus synthesis,
per-pair corruption noise, and per-epoch batch shuffles are all derived
from RunConfig.seed, so two runs with the same config produce identical
logs and checkpoints.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor, backward
from .checkpoint import save_checkpoint
from .config import ConfigError, RunConfig, output_file
from .data import SamplePair, batch_iter, degraded_dataset, make_synthetic_corpus
from .losses import d_loss, g_loss, mse_loss
from .model import (
    ParamStore,
    build_discriminator,
    build_generator,
    discriminator_forward,
    generator_forward,
)
from .optim import AdamState, adam_step, init_adam
from .ppm import load_image

__all__ = [
    "TrainResult", "TrainState", "start", "advance", "run_training", "ppm_paths", "load_corpus", "build_training_pairs",
]

LOG_HEADER = "step,loss_g,loss_d,loss_mse"


@dataclass
class TrainResult:
    """The loss log: ``LOG_HEADER``, then one line per step."""

    log_lines: list[str]


def _derived_seed(*parts: int) -> int:
    """Stable scalar seed from a tuple, for components that take one int."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def ppm_paths(folder: Path) -> list[Path]:
    """The ``*.ppm`` files in ``folder``, sorted; a ConfigError if it holds none."""
    paths = sorted(folder.glob("*.ppm"))
    if not paths:
        raise ConfigError(f"no .ppm files under {str(folder)!r}")
    return paths


def load_corpus(cfg: RunConfig, split: str = "train") -> list[Tensor]:
    """Images from data_root/<split> (or data_root itself), else synthetic.

    A synthetic corpus ignores ``split``: it is drawn from ``cfg.seed``
    alone, so the "test" split returns the training images, and a held-out
    synthetic set needs a config with another seed.
    """
    if cfg.data_root:
        root = Path(cfg.data_root)
        if not root.exists():
            raise ConfigError(f"data_root {str(root)!r} does not exist")
        folder = root / split if (root / split).is_dir() else root
        return [load_image(p) for p in ppm_paths(folder)]
    if cfg.synthetic_count > 0:
        return make_synthetic_corpus(cfg.synthetic_count, cfg.seed, cfg.synthetic_size)
    raise ConfigError("no training data: set data_root or synthetic_count")


def build_training_pairs(cfg: RunConfig, images: list[Tensor]) -> list[SamplePair]:
    """Degrade the corpus at every configured scale the networks can consume.

    A scale must fit the generator (see ``RunConfig.fits``) and, in an
    adversarial run, the critic (``RunConfig.disc_divisor``); the others
    are dropped here with a warning on stderr.  The kept pairs are those of
    ``degraded_dataset(images, cfg)``, so each keeps its noise seed.
    """
    d = math.lcm(cfg.divisor, cfg.disc_divisor) if cfg.adversarial else cfg.divisor
    usable = [(h, w) for h, w in cfg.scales if h % d == 0 and w % d == 0]
    for h, w in cfg.scales:
        if (h, w) not in usable:
            print(f"warning: scale {h}x{w} skipped for training, not divisible by {d}", file=sys.stderr)
    if not usable:
        raise ConfigError(f"no configured scale is divisible by {d}")
    return [p for p in degraded_dataset(images, cfg) if p.clean.shape[2:] in usable]


def _epoch_batches(pairs, cfg: RunConfig, epoch: int):
    return batch_iter(pairs, cfg.batch_size, _derived_seed(cfg.seed, 1, epoch))


@dataclass
class TrainState:
    """The config, networks and optimizer state one training step advances.

    ``disc`` and ``disc_adam`` are None in an MSE-only run.
    """

    cfg: RunConfig
    gen: ParamStore
    gen_adam: AdamState
    disc: ParamStore | None
    disc_adam: AdamState | None

    @property
    def step(self) -> int:
        """Training steps taken: the generator Adam's update count."""
        return self.gen_adam.step


def start(cfg: RunConfig) -> TrainState:
    """Freshly initialized networks and zero Adam moments, seeded by cfg.seed."""
    init_rng = np.random.default_rng(_derived_seed(cfg.seed, 0))
    gen = build_generator(cfg, init_rng)
    disc = build_discriminator(cfg, init_rng) if cfg.adversarial else None
    return TrainState(cfg, gen, init_adam(gen), disc, None if disc is None else init_adam(disc))


def advance(state: TrainState, s: Tensor, t: Tensor) -> tuple[float, float, float]:
    """Run one step of ``state.cfg``'s kind (MSE or adversarial) on batch
    (s, t) in place.

    The step starts by dropping the generator's gradients from the step
    before, so its forward tape can reuse their memory; the gradients this
    step's backward leaves stay set when ``advance`` returns, for a caller
    to read, until the next step starts.  The critic's do not: an
    adversarial step drops them right after the critic's Adam update, so
    the generator's backward can reuse their memory.  Returns
    ``(loss_g, loss_d, loss_mse)``; under MSE-only training loss_g is the
    MSE and loss_d is nan.
    """
    state.gen.zero_grad()
    return (_adversarial_step if state.cfg.adversarial else _mse_step)(state, s, t)


def run_training(cfg: RunConfig, log_stream=None) -> TrainResult:
    """Train per the config; returns the loss log.

    Refuses a ``checkpoint_out`` that names no file in an existing
    directory, then degrades the corpus (see ``build_training_pairs``,
    which rejects a config with no usable scale), both with ``ConfigError``
    before any weight is drawn.  Then it starts a state
    and advances it over ``cfg.steps`` batches of the epoch stream, epoch
    after epoch.  Every step appends one
    ``step,loss_g,loss_d,loss_mse`` line to the log (and to ``log_stream``)
    and a non-finite loss aborts with ``RuntimeError``.  A non-finite
    activation aborts too, already in the forward, with the conv
    epilogue's ``FloatingPointError``; the ``sgen`` command reports either
    as ``error:`` and exits 2.  The generator (and critic, to
    ``<checkpoint_out>.disc``) is saved every ``eval_every`` steps and at
    the end.
    """
    output_file("checkpoint_out", cfg.checkpoint_out)
    pairs = build_training_pairs(cfg, load_corpus(cfg))
    state = start(cfg)

    log_lines = [LOG_HEADER]
    if log_stream is not None:
        print(LOG_HEADER, file=log_stream)

    stream = itertools.chain.from_iterable(_epoch_batches(pairs, cfg, e) for e in itertools.count())
    for s, t in itertools.islice(stream, cfg.steps):
        g, d, mse = advance(state, s, t)
        line = f"{state.step},{g:.8e},{d:.8e},{mse:.8e}"
        log_lines.append(line)
        if log_stream is not None:
            print(line, file=log_stream)
        if not all(map(math.isfinite, (g, d, mse) if cfg.adversarial else (mse,))):
            raise RuntimeError(f"non-finite loss at step {state.step}: {line}")
        if cfg.eval_every and state.step % cfg.eval_every == 0:
            _save(state)
    _save(state)
    return TrainResult(log_lines)


def _save(state: TrainState) -> None:
    save_checkpoint(state.gen, state.cfg.checkpoint_out)
    if state.disc is not None:
        save_checkpoint(state.disc, state.cfg.checkpoint_out + ".disc")


def _mse_step(state: TrainState, s, t):
    with Tape() as tape:
        pred = generator_forward(s, state.gen, state.cfg)
        loss = mse_loss(pred, t)
    backward(tape, loss)
    adam_step(state.gen, state.gen_adam, state.cfg.learning_rate)
    value = loss.item()
    return value, math.nan, value


def _adversarial_step(state: TrainState, s, t):
    cfg, gen, disc = state.cfg, state.gen, state.disc
    # one generator forward, recorded for the generator step below
    with Tape() as gen_tape:
        pred = generator_forward(s, gen, cfg)

    # discriminator step: real targets vs detached fakes; its gradients are
    # dropped once applied, so every step starts and ends without them
    with Tape() as tape:
        score_real = discriminator_forward(t, disc, cfg)
        score_fake = discriminator_forward(pred.detach(), disc, cfg)
        loss_d = d_loss(score_real, score_fake)
    backward(tape, loss_d)
    adam_step(disc, state.disc_adam, cfg.learning_rate)
    disc.zero_grad()

    # generator step: gradient flows through the updated discriminator,
    # whose frozen weights take no gradient of their own
    with disc.frozen():
        with gen_tape:
            score = discriminator_forward(pred, disc, cfg)
            loss_g = g_loss(score, pred, t, cfg.lambda_mse, cfg.gan_loss)
        backward(gen_tape, loss_g)
    adam_step(gen, state.gen_adam, cfg.learning_rate)
    return loss_g.item(), loss_d.item(), mse_loss(pred, t).item()
