"""Golden-hash check for refactors that must not change what sgen computes.

Runs seeded 3-step trainings, an evaluation and the gradient battery, and
prints a sha256 prefix of every output.  A pure refactor leaves every line
of the output unchanged, so run it before and after a change and diff.

    PYTHONPATH=src python tools/golden.py

Runs (all seed 3, eval_every 2, 3 steps, so each saves twice):
  small  2 levels, widths 4/4, scales 32x32 and 48x32, 3 synthetic 48x32
         images, batch 2; merges sgu/concat/max x gan_loss none/minimax
  paper  3 levels, widths 32/64, 128x96, 4 images, batch 4; sgu x none/minimax
Then the ``evaluate`` report of the small sgu/none checkpoint on its own
degraded corpus, the battery's (name, error) pairs, and the clean and
corrupted bytes of ``degraded_dataset`` at the six ``EVAL_SCALES`` from one
seeded 208x176 synthetic image, which pins the resize and degradation bits.
Then ``kernels``: the float32 bytes of y, dx, dw and db of a taped
``conv2d`` and ``deconv2d`` on seeded inputs at strides 1 (conv only), 2, 4
and 8, with the input unfolded, the GEMM first and the two at the tie, each
without an activation and with each of the four.  Last, ``dropped``: the
small sgu/none run with scales 36x36 and 32x32, whose first scale training
drops, which pins the noise seeds of the pairs it keeps.  And ``epochs``:
the small sgu none and minimax runs at 9 steps.  An epoch there is 4
batches, two per scale with a partial last one, so the runs cross two
epoch boundaries with both scale groups in play.

The tier-1 suite pins every line but the two ``paper`` lines, whose bits
depend on the BLAS thread count: the six ``small`` lines, ``evaluate``,
``dropped`` and ``epochs`` in ``tests/test_train.py``, ``battery`` in
``tests/test_acceptance.py``, ``pairs`` in ``tests/test_data.py`` and
``kernels`` in ``tests/test_nn_ops.py``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from sgen import (
    EVAL_SCALES,
    ConvParams,
    RunConfig,
    Tape,
    Tensor,
    backward,
    conv2d,
    deconv2d,
    degraded_dataset,
    evaluate,
    load_checkpoint,
    make_synthetic_corpus,
    run_training,
)
from sgen.autodiff import mul, sum_all
from sgen.checks import run_gradient_battery
from sgen.train import load_corpus

SMALL = dict(
    n_levels=2,
    base_channels=4,
    bottleneck_channels=4,
    scales=((32, 32), (48, 32)),
    synthetic_count=3,
    synthetic_size=(48, 32),
    batch_size=2,
)
PAPER = dict(
    n_levels=3,
    base_channels=32,
    bottleneck_channels=64,
    scales=((128, 96),),
    synthetic_count=4,
    synthetic_size=(128, 96),
    batch_size=4,
)
# the small sgu/none run with a first scale that training drops
DROPPED = {**SMALL, "scales": ((36, 36), (32, 32))}
RUNS = [
    ("small", SMALL, merge, gan)
    for merge in ("sgu", "concat", "max")
    for gan in ("none", "minimax")
] + [("paper", PAPER, "sgu", gan) for gan in ("none", "minimax")]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def kernel_bytes() -> bytes:
    """y, dx, dw and db of every op, stride, unfold side and activation.

    At stride s a conv's input side has s*s*c rows and its output side o;
    a deconv's input side has the conv's o and its output side s*s*c.  The
    (conv o, conv c) pairs below make either side the thinner one, and the
    two the same width.
    """
    rng = np.random.default_rng(3)
    out = []
    for op, strides in ((conv2d, (1, 2, 4, 8)), (deconv2d, (2, 4, 8))):
        for s in strides:
            k = 3 if s == 1 else 2 * s
            thin, wide, tie = (s * s + 1, 1), (1, 3), (2 * s * s, 2)
            for o, c in (thin, wide, tie):
                c_in, c_out, hw = (c, o, (3 * s, 4 * s)) if op is conv2d else (o, c, (3, 4))
                for act in (None, "relu", "lrelu", "sigmoid", "tanh"):
                    x = Tensor(rng.normal(size=(2, c_in) + hw).astype(np.float32), requires_grad=True)
                    p = ConvParams(
                        Tensor(rng.normal(size=(o, c, k, k)).astype(np.float32), requires_grad=True),
                        Tensor(rng.normal(size=(1, c_out, 1, 1)).astype(np.float32), requires_grad=True),
                    )
                    with Tape() as tape:
                        y = op(x, p, act)
                        proj = Tensor(rng.normal(size=y.shape).astype(np.float32))
                        loss = sum_all(mul(y, proj))
                    backward(tape, loss)
                    out += [a.tobytes() for a in (y.data, x.grad, p.weight.grad, p.bias.grad)]
    return b"".join(out)


def train(
    tmp: str, label: str, arch: dict, merge: str, gan: str, steps: int = 3
) -> tuple[RunConfig, list[str]]:
    """Run one seeded training; its config and the digests of its log,
    checkpoint and, when adversarial, critic checkpoint."""
    ckpt = Path(tmp) / f"{label}-{merge}-{gan}.ckpt"
    cfg = RunConfig(
        **arch, merge_mode=merge, gan_loss=gan, seed=3, eval_every=2, steps=steps,
        checkpoint_out=str(ckpt),
    )
    log = "\n".join(run_training(cfg).log_lines)
    files = [log.encode(), ckpt.read_bytes()]
    if cfg.adversarial:
        files.append(Path(f"{ckpt}.disc").read_bytes())
    return cfg, [digest(f) for f in files]


def report_digest(cfg: RunConfig) -> str:
    """The digest of the ``evaluate`` report of ``cfg``'s checkpoint on its
    own degraded corpus."""
    pairs = degraded_dataset(load_corpus(cfg), cfg)
    return digest(evaluate(load_checkpoint(cfg.checkpoint_out), cfg, pairs).to_text().encode())


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for label, arch, merge, gan in RUNS:
            cfg, digests = train(tmp, label, arch, merge, gan)
            print(f"{label} {merge} {gan}", *digests)
            if (label, merge, gan) == ("small", "sgu", "none"):
                report = report_digest(cfg)
        print("evaluate", report)
        results = run_gradient_battery()
        pairs = "".join(f"{r.name} {r.error!r}\n" for r in results)
        print(f"battery {len(results)} checks", digest(pairs.encode()))
        image = make_synthetic_corpus(1, seed=3, size=EVAL_SCALES[-1])
        pairs = degraded_dataset(image, RunConfig(scales=EVAL_SCALES, seed=3))
        print("pairs", digest(b"".join(p.clean.data.tobytes() + p.corrupted.data.tobytes() for p in pairs)))
        print("kernels", digest(kernel_bytes()))
        print("dropped", *train(tmp, "dropped", DROPPED, "sgu", "none")[1])
        print("epochs", *(d for gan in ("none", "minimax") for d in train(tmp, "epochs", SMALL, "sgu", gan, 9)[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
