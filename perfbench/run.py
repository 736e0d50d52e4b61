"""Benchmark of sgen training and evaluation.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload train-mse --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` wraps the public functions of each sgen module in this
process and reports the per-layer metrics, a per-site table and a span
file.  Other modes:

    python3 perfbench/run.py --all --seed 1 --seconds 30      # every workload, one table
    python3 perfbench/run.py --compare OLD NEW                # medians of two result sets
    python3 perfbench/run.py --write-reference                # re-record reference.json

``--heldout`` derives the inputs from the seed through a separate stream,
so a gain found while tuning on plain seeds can be confirmed on inputs
that were never looked at.  Results and spans are written under
``.bench_build/perfbench`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
HELDOUT_STREAM = 0x5E6E  # mixes held-out seeds away from every plain seed


def _pin_blas_threads() -> None:
    """BLAS threads = usable CPUs; must happen before numpy is imported."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def _load_json(path: Path, what: str) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read {what} {path}: {exc}")


def _finite(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def run_one(args, bench: dict) -> int:
    import numpy as np

    import machine
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    seed = args.seed
    if args.heldout:
        seed = int(np.random.SeedSequence([HELDOUT_STREAM, args.seed]).generate_state(1)[0])
    recorded = _load_json(HERE / "reference.json", "reference values")
    reference = {"values": recorded["workloads"][args.workload], "tolerance": recorded["tolerance"]}
    tag = f"{args.workload}-s{args.seed}{'-heldout' if args.heldout else ''}-t{args.trace}-{os.getpid()}"
    workdir = OUT / f"work-{tag}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            wanted = bench["per_layer"]
            res = workloads.trace(spec, seed, args.seconds, workdir, reference,
                                  [m["name"] for m in wanted], results / f"{tag}.spans.jsonl")
            values = {m["name"]: res["per_layer"][m["name"]] for m in wanted}
        else:
            res = workloads.measure(spec, seed, args.seconds, workdir, reference)
            wanted = bench["end_to_end"]
            values = {m["name"]: res["metrics"][m["name"]]["value"] for m in wanted}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "seed_set": "heldout" if args.heldout else "plain",
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine.machine_record(),
        "calibration": machine.calibrate(),
        **res,
    }
    correct = res["failed"] == 0 and not res["errors"]
    result_path = results / f"{tag}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for error in res["errors"]:
        print(f"check failed: {error}")
    if res.get("missing"):
        print(f"missing (reported as null): {', '.join(res['missing'])}")
    if args.trace:
        print(res["site_table"])
        for m in wanted:
            print(f"{m['name']:<40} {_fmt(values[m['name']])} {m['unit']}")
    else:
        print(_table(args.workload, res["metrics"]))
    for key in ("gemm_gflops", "copy_gbps"):
        print(f"machine.{key} {record['calibration'][f'machine.{key}']:.2f}")
    print(f"result: {result_path}")
    line = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": _finite(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line), flush=True)
    return 0


def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def _table(workload: str, metrics: dict) -> str:
    lines = [f"{'workload':<16} {'metric':<13} {'value':>12} {'unit':<6} {'samples':>7}  note"]
    for name, m in metrics.items():
        note = f"p{m['percentile']:.0f}" if "percentile" in m else ""
        lines.append(f"{workload:<16} {name:<13} {_fmt(m['value']):>12} {m['unit']:<6} {m['samples']:>7}  {note}")
    return "\n".join(lines)


def run_all(args) -> int:
    """Each workload in its own process, one after the other; one table."""
    from workloads import WORKLOADS

    status = 0
    tables = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.heldout:
            cmd.append("--heldout")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        tables.append("\n".join(line for line in lines[:-1] if not line.startswith("result:")))
        tables.append(f"ops_failed {result['failed']}/{result['attempted']}  correct={result['correct']}"
                      f"  ({next(line for line in lines if line.startswith('result:'))})\n")
    print("\n".join(tables))
    return status


def _load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [r for r in (_load_json(f, "result") for f in files) if not r.get("trace")]


def run_compare(args, bench: dict) -> int:
    """Medians per workload and metric of two result sets, against the bounds."""
    import machine

    sides = [_load_results(Path(p)) for p in args.compare]
    if not all(sides):
        sys.exit("perfbench: each side needs at least one untraced result file")
    # results are comparable only from equal machines and equal run lengths
    identities = {json.dumps({**machine.identity(r["machine"]), "seconds": r["seconds"]}, sort_keys=True)
                  for side in sides for r in side}
    if len(identities) > 1:
        print("refusing to compare results from different machine records or run lengths:")
        for ident in sorted(identities):
            print(f"  {ident}")
        return 2
    print(f"{'workload':<16} {'metric':<13} {'old':>12} {'new':>12} {'change':>8} {'bound':>6}  verdict")
    worse = False
    for workload in sorted({r["workload"] for side in sides for r in side}):
        for m in bench["end_to_end"]:
            name = m["name"]
            medians = []
            for side in sides:
                vals = [r["metrics"][name]["value"] for r in side if r["workload"] == workload]
                vals = [v for v in vals if v is not None]
                medians.append(statistics.median(vals) if vals else math.nan)
            old, new = medians
            change = (new - old) / old if old else math.nan
            regress = change > m["bound"] if m["better"] == "lower" else change < -m["bound"]
            worse |= regress
            verdict = "worse" if regress else ("-" if math.isnan(change) else "within bound")
            print(f"{workload:<16} {name:<13} {_fmt(old):>12} {_fmt(new):>12} "
                  f"{100 * change:7.1f}% {m['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


def run_write_reference(args, bench: dict) -> int:
    import machine
    import workloads

    out = {"seed": workloads.REFERENCE_SEED, "tolerance": workloads.REFERENCE_TOLERANCE,
           "machine": machine.machine_record(), "workloads": {}}
    for name, spec in workloads.WORKLOADS.items():
        workdir = OUT / f"work-reference-{name}-{os.getpid()}"
        try:
            out["workloads"][name] = workloads.reference_values(spec, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {out['workloads'][name]}")
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true", help="run every workload, one process each")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="result files or directories")
    mode.add_argument("--write-reference", action="store_true", help="re-record reference.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true", help="derive inputs from the held-out seed stream")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sgen" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sgen sources under {ROOT / 'src'}; run from a full checkout")
    bench = _load_json(ROOT / "BENCHMARK.json", "benchmark definition")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")

    _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; expected one of {list(WORKLOADS)}")
    if args.all:
        return run_all(args)
    if args.compare:
        return run_compare(args, bench)
    if args.write_reference:
        return run_write_reference(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
