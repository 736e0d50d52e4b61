"""Seeded one-line faults, and which of them the tier-1 suite catches
without its digest pins.

Each row of ``FAULTS`` is one fault: a label, a file under the repo root,
a search text that occurs exactly once in that file, and its replacement.
The tool copies the repo into a fresh temporary directory and works only
there.  In the copy it turns the digest pins off: it deselects the tests in
``DIGEST_TESTS`` (the kernel, training/evaluate and pairs pins) and
applies ``DIGEST_ASSERT``, which skips criterion 1's ``(name, error)``
digest but keeps its per-check bounds.  It also leaves out
``tests/test_mutants.py``, which would fail on every fault's changed text.
It runs the tier-1 suite once unmutated, which must pass, then once per
row with that row's substitution applied, and prints one line per row:
``killed`` with the tests that failed, or ``survived``.  Then it prints
the two counts.

    python3 tools/mutants.py [ROW ...]     # 1-based rows of FAULTS; all by default

Exits 1 if the unmutated copy fails.  Each run is a whole tier-1 suite,
about a minute on two CPUs, so all eleven rows take about 12 minutes.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# label, file, search text, replacement
FAULTS = [
    ("Adam corr2 uses t + 1", "src/sgen/optim.py", "corr2 = 1.0 - BETA2**t", "corr2 = 1.0 - BETA2**(t + 1)"),
    ("Adam eps inside the sqrt", "src/sgen/optim.py",
     "np.sqrt(scratch, out=scratch)\n        scratch += EPS", "scratch += EPS\n        np.sqrt(scratch, out=scratch)"),
    ("SSIM _C2 x 1.01", "src/sgen/metrics.py", "_C2 = (0.03 * _PEAK) ** 2", "_C2 = (0.03 * _PEAK) ** 2 * 1.01"),
    ("g_loss ignores lambda_mse", "src/sgen/losses.py",
     "mul_const(mse_loss(pred, target), lambda_mse)", "mul_const(mse_loss(pred, target), 1.0)"),
    ("SGU gate_p reads the passive input", "src/sgen/ensemble.py",
     'gate_p = conv2d(active, convs["gate_p"]', 'gate_p = conv2d(passive, convs["gate_p"]'),
    ("pair noise seeded (seed, j, index)", "src/sgen/data.py",
     "default_rng((spec.seed, index, j))", "default_rng((spec.seed, j, index))"),
    ("one shuffle for every epoch", "src/sgen/train.py",
     "_derived_seed(cfg.seed, 1, epoch)", "_derived_seed(cfg.seed, 1, 0)"),
    ("decoder level k reads fused[k - 1]", "src/sgen/model.py", "fused[n - k]", "fused[k - 1]"),
    ("LRELU_SLOPE 0.25", "src/sgen/autodiff.py", "LRELU_SLOPE = 0.2\n", "LRELU_SLOPE = 0.25\n"),
    ("periodic save at step % N == 1", "src/sgen/train.py",
     "state.step % cfg.eval_every == 0", "state.step % cfg.eval_every == 1"),
    ("critic scores pred, not pred.detach()", "src/sgen/train.py",
     "discriminator_forward(pred.detach(), disc, cfg)", "discriminator_forward(pred, disc, cfg)"),
]

# file, test function: the pins of tools/golden.py's lines
DIGEST_TESTS = [
    ("tests/test_nn_ops.py", "test_kernel_bits_are_pinned"),
    ("tests/test_train.py", "test_seeded_training_and_evaluate_bits_are_pinned"),
    ("tests/test_data.py", "test_pair_recipe_bits_are_pinned"),
]
DIGEST_ASSERT = ("tests/test_acceptance.py", "assert hashlib.sha256(pairs.encode())",
                 "assert True or hashlib.sha256(pairs.encode())")


def substitute(path: Path, search: str, replace: str) -> str:
    """Replace the one occurrence of ``search`` in the file; returns the old text."""
    text = path.read_text(encoding="utf-8")
    if text.count(search) != 1:
        raise ValueError(f"{path}: {search!r} occurs {text.count(search)} times, not once")
    path.write_text(text.replace(search, replace), encoding="utf-8")
    return text


def failures(copy: Path) -> list[str] | None:
    """The tier-1 suite in ``copy`` without the digest tests: the ids of the
    tests that failed, or None if it passed."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    cmd += [f"--deselect={file}::{name}" for file, name in DIGEST_TESTS]
    cmd += ["--ignore=tests/test_mutants.py"]  # it reads the search texts a fault replaces
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE) or [f"exit {run.returncode}"]


def main(argv: list[str]) -> int:
    rows = [int(a) for a in argv] or range(1, len(FAULTS) + 1)
    with tempfile.TemporaryDirectory(prefix="sgen-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_build")
        shutil.copytree(ROOT, copy, ignore=skip)
        substitute(copy / DIGEST_ASSERT[0], *DIGEST_ASSERT[1:])
        failed = failures(copy)
        if failed is not None:
            print(f"the unmutated copy fails: {' '.join(failed)}")
            return 1
        killed = 0
        for row in rows:
            label, file, search, replace = FAULTS[row - 1]
            old = substitute(copy / file, search, replace)
            failed = failures(copy)
            (copy / file).write_text(old, encoding="utf-8")
            killed += failed is not None
            print(f"{row:2d} {'killed  ' if failed else 'survived'} {label}", *(failed or []), flush=True)
        print(f"{killed} of {len(rows)} killed, {len(rows) - killed} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
