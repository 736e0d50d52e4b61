"""Command-line entry point.

Subcommands: train, restore, evaluate, degrade, gradcheck.  Settings come
from a key=value config file (--config); --seed overrides the config
seed.  train, restore and evaluate first check that each output path
names a file in an existing directory, so train never truncates its old
log for a run that cannot save; evaluate with a ``data_root`` also needs
its ``test/`` folder, so it never scores the training images.  restore
and evaluate then check every stored parameter shape against the
configured generator's site table, so a checkpoint trained under another
config fails before it runs.  degrade loads each image once and writes
one pair per (image, scale) task on a pool of min(usable CPUs, 8)
threads.  A failure prints one ``error:`` line and exits 2; numpy's
overflow and invalid-value warnings are off, since the finite checks
report a diverging run.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .checks import run_gradient_battery
from .config import ConfigError, RunConfig, load_config, output_file
from .data import degraded_dataset, degraded_pair
from .metrics import evaluate, restore
from .model import ParamStore, generator_sites, shape_mismatches
from .ppm import load_image, save_image
from .train import load_corpus, ppm_paths, run_training

__all__ = ["main"]


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    output_file("checkpoint_out", cfg.checkpoint_out)
    if cfg.log_out:
        with open(output_file("log_out", cfg.log_out), "w", encoding="utf-8") as fh:
            run_training(cfg, log_stream=fh)
    else:
        run_training(cfg, log_stream=sys.stdout)
    print(f"trained {cfg.steps} steps, checkpoint -> {cfg.checkpoint_out}", file=sys.stderr)
    return 0


def _load_fitting_checkpoint(cfg: RunConfig, path) -> ParamStore:
    """The checkpoint, which must store every ``generator_sites(cfg)``
    parameter with the shape its row gives, and nothing else."""
    params = load_checkpoint(path)
    wrong = shape_mismatches(params, generator_sites(cfg))
    if wrong:
        raise CheckpointError(
            f"checkpoint {path} does not fit the configured architecture"
            f" ({wrong[0]}); pass the --config the model was trained with"
        )
    return params


def cmd_restore(args) -> int:
    cfg = _resolve_config(args)
    out = output_file("--out", args.out_path)
    params = _load_fitting_checkpoint(cfg, args.checkpoint)
    image = load_image(args.in_path)
    save_image(restore(image, params, cfg), out)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    text_path = output_file("report path", cfg.report_out + ".txt")
    csv_path = output_file("report path", cfg.report_out + ".csv")
    # load_corpus falls back to a flat data_root, which holds the training images
    test_dir = Path(cfg.data_root) / "test"
    if cfg.data_root and not test_dir.is_dir():
        raise ConfigError(f"evaluate needs held-out images in {str(test_dir)!r}, which is not a directory")
    params = _load_fitting_checkpoint(cfg, args.checkpoint)
    images = load_corpus(cfg, split="test")
    # no scale filtering here: evaluate() reports incompatible scales as
    # warning rows instead of dropping them
    pairs = degraded_dataset(images, cfg)
    report = evaluate(
        params,
        cfg,
        pairs,
        model_id=str(args.checkpoint),
        degradation=cfg.label,
    )
    text_path.write_text(report.to_text(), encoding="utf-8")
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    sys.stdout.write(report.to_text())
    print(f"report -> {text_path} {csv_path}", file=sys.stderr)
    return 0


def cmd_degrade(args) -> int:
    cfg = _resolve_config(args)
    paths = ppm_paths(Path(args.in_path))
    out_dir = Path(args.out_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    # one task per (image, scale); a pair's noise depends on its image's
    # place in the sorted list and its scale's, not on worker order
    def write_pair(index: int, j: int) -> None:
        pair = degraded_pair(images[index], index, j, cfg)
        stem, (h, w) = paths[index].stem, cfg.scales[j]
        save_image(pair.clean, out_dir / f"{stem}_scale{h}x{w}_clean.ppm")
        save_image(pair.corrupted, out_dir / f"{stem}_scale{h}x{w}_noisy.ppm")

    # the CPUs this process may run on, where the platform can say
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    tasks = [(i, j) for i in range(len(paths)) for j in range(len(cfg.scales))]
    with ThreadPoolExecutor(max_workers=min(cpus, 8)) as pool:
        images = list(pool.map(load_image, paths))
        list(pool.map(write_pair, *zip(*tasks)))
    print(f"wrote {2 * len(paths) * len(cfg.scales)} images to {out_dir}", file=sys.stderr)
    return 0


def cmd_gradcheck(_args) -> int:
    start = time.perf_counter()
    results = run_gradient_battery(
        on_result=lambda r: print(
            f"{'PASS' if r.ok else 'FAIL'}  {r.name:<44s} err={r.error:.3e}  tol={r.tolerance:.0e}"
        )
    )
    elapsed = time.perf_counter() - start
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} gradient checks passed in {elapsed:.1f}s")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgen", description="Multi-scale image restoration with gated ensembles"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, checkpoint=False, in_out=False):
        p.set_defaults(run=run)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint path")
        if in_out:
            p.add_argument("--in", dest="in_path", required=True, help="input path")
            p.add_argument("--out", dest="out_path", required=True, help="output path")

    common(sub.add_parser("train", help="train a model"), cmd_train)
    common(sub.add_parser("restore", help="restore one image"), cmd_restore, checkpoint=True, in_out=True)
    common(sub.add_parser("evaluate", help="evaluate a checkpoint"), cmd_evaluate, checkpoint=True)
    common(sub.add_parser("degrade", help="write clean/noisy pairs"), cmd_degrade, in_out=True)
    sub.add_parser("gradcheck", help="run the gradient-check battery").set_defaults(run=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        # a diverging run overflows in a GEMM before the epilogue's finite check raises
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(args)
    except (ValueError, RuntimeError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
