"""Run the gradient battery at a range of probe seeds.

The battery draws every probe from streams keyed by ``sgen.checks._SEED``;
this tool sets that seed to each of COUNT values from FIRST on, runs the
whole battery and prints one line per seed: the number of checks and the
digest of their ordered (name, error) pairs, in the form of the battery
line of ``tools/golden.py``; the checks that failed (or ``ok``); then the
worst error/tolerance ratio and the check that reached it.  A refactor
that must not change the battery leaves every line unchanged, so run it
before and after and diff.

    PYTHONPATH=src python tools/battery_sweep.py [FIRST] [COUNT]   # 7 20

Exits 1 if any seed failed a check.  A run takes about 3-5 s per seed.
"""

from __future__ import annotations

import hashlib
import sys

import sgen.checks
from sgen.checks import run_gradient_battery


def main(argv: list[str]) -> int:
    first = int(argv[0]) if argv else 7
    count = int(argv[1]) if len(argv) > 1 else 20
    failed = 0
    for seed in range(first, first + count):
        sgen.checks._SEED = seed
        results = run_gradient_battery()
        bad = [r.name for r in results if not r.ok]
        worst = max(results, key=lambda r: r.error / r.tolerance)
        failed += bool(bad)
        pairs = "".join(f"{r.name} {r.error!r}\n" for r in results)
        print(
            f"seed {seed} {len(results)} checks {hashlib.sha256(pairs.encode()).hexdigest()[:16]}"
            f" {' '.join(bad) or 'ok'}"
            f" worst {worst.error / worst.tolerance:.3g} {worst.name}",
            flush=True,
        )
    print(f"{count - failed}/{count} seeds passed every check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
