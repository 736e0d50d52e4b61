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
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from sgen import (
    EVAL_SCALES,
    DegradeSpec,
    RunConfig,
    degraded_dataset,
    evaluate,
    load_checkpoint,
    make_synthetic_corpus,
    run_training,
)
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
RUNS = [
    ("small", SMALL, merge, gan)
    for merge in ("sgu", "concat", "max")
    for gan in ("none", "minimax")
] + [("paper", PAPER, "sgu", gan) for gan in ("none", "minimax")]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for label, arch, merge, gan in RUNS:
            ckpt = Path(tmp) / f"{label}-{merge}-{gan}.ckpt"
            cfg = RunConfig(
                **arch, merge_mode=merge, gan_loss=gan, seed=3, eval_every=2, steps=3,
                checkpoint_out=str(ckpt),
            )
            log = "\n".join(run_training(cfg).log_lines)
            files = [log.encode(), ckpt.read_bytes()]
            if cfg.adversarial:
                files.append(Path(f"{ckpt}.disc").read_bytes())
            print(f"{label} {merge} {gan}", *map(digest, files))
            if (label, merge, gan) == ("small", "sgu", "none"):
                pairs = degraded_dataset(load_corpus(cfg), cfg)
                report = evaluate(load_checkpoint(ckpt), cfg, pairs).to_text()
    print("evaluate", digest(report.encode()))
    results = run_gradient_battery()
    pairs = "".join(f"{r.name} {r.error!r}\n" for r in results)
    print(f"battery {len(results)} checks", digest(pairs.encode()))
    image = make_synthetic_corpus(1, seed=3, size=EVAL_SCALES[-1])
    pairs = degraded_dataset(image, DegradeSpec(scales=EVAL_SCALES, seed=3))
    print("pairs", digest(b"".join(p.clean.data.tobytes() + p.corrupted.data.tobytes() for p in pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
