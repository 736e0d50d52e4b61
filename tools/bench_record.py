"""Perf-trajectory record: the medians of two perfbench result sets as JSON.

    python3 tools/bench_record.py OLD_RESULTS/ NEW_RESULTS/ > BENCH_<n>.json

OLD and NEW hold the untraced result files that
``perfbench/run.py --workload W --seed S --trace 0`` writes under
``.bench_build/perfbench/results/``, one per run, for the parent commit and
the change, run as alternating pairs with one seed per pair.  Per workload
and per end-to-end metric of ``BENCHMARK.json`` the record gives each
side's median (the number ``perfbench/run.py --compare OLD NEW`` prints),
its quartiles and run count, and how many same-seed pairs the change won;
ties count for neither side.  Two verdicts follow the claim rule:
``gain_resolved`` when the change won at least nine tenths of the pairs and
its median beats the parent's by more than the parent's quartile distance
(q3 - q1), and ``regressed`` when its median is worse than the parent's by
more than the metric's ``BENCHMARK.json`` bound times the parent's median.
Runs made with ``--heldout`` are kept out of
those figures and listed per seed under ``heldout``, with the pairs won.
Two runs of one workload, side and seed set with the same seed stop the
tool with an error, since pairing by seed would drop one of them.
It also gives the GEMM calibration of each side and the machine record of
the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(folder: str) -> list[dict]:
    runs = [json.loads(f.read_text(encoding="utf-8")) for f in sorted(Path(folder).glob("*.json"))]
    return [r for r in runs if not r.get("trace")]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def compare(runs: dict[str, list[dict]], m: dict) -> tuple[dict, dict]:
    """Each side's value of metric m by seed, and the same-seed pairs won and lost."""
    by_seed = {label: {r["seed"]: r["metrics"][m["name"]]["value"] for r in side} for label, side in runs.items()}
    seeds = sorted(set(by_seed["parent"]) & set(by_seed["change"]))
    sign = 1 if m["better"] == "lower" else -1
    won = sum(sign * (by_seed["parent"][s] - by_seed["change"][s]) > 0 for s in seeds)
    lost = sum(sign * (by_seed["parent"][s] - by_seed["change"][s]) < 0 for s in seeds)
    return by_seed, dict(pairs=len(seeds), change_won=won, change_lost=lost)


def verdicts(parent: dict, change: dict, wins: dict, m: dict) -> dict:
    """The claim rule on one metric: a resolved gain, and a regression beyond the bound."""
    sign = 1 if m["better"] == "lower" else -1
    gain = sign * (parent["median"] - change["median"])
    return dict(
        gain_resolved=wins["pairs"] > 0
        and wins["change_won"] >= 0.9 * wins["pairs"]
        and gain > parent["q3"] - parent["q1"],
        regressed=-gain > m["bound"] * parent["median"],
    )


def workload_record(workload: str, sides: dict[str, list[dict]], metrics: list[dict]) -> dict:
    ours = {label: [r for r in side if r["workload"] == workload] for label, side in sides.items()}
    runs = {label: [r for r in side if r.get("seed_set") != "heldout"] for label, side in ours.items()}
    heldout = {label: [r for r in side if r.get("seed_set") == "heldout"] for label, side in ours.items()}
    for group in (runs, heldout):
        for label, side in group.items():
            seeds = [r["seed"] for r in side]
            for seed in seeds:
                if seeds.count(seed) > 1:
                    sys.exit(f"bench_record: {workload}: the {label} side has {seeds.count(seed)} runs with seed {seed}")
    record = {
        label: {
            "all_correct": all(r["failed"] == 0 and not r["errors"] for r in side),
            "ops_failed": sum(r["failed"] for r in side),
            "ops_attempted": sum(r["attempted"] for r in side),
            "gemm_gflops_median": statistics.median(r["calibration"]["machine.gemm_gflops"] for r in side),
        }
        for label, side in ours.items()
    }
    record["metrics"] = {}
    for m in metrics:
        by_seed, wins = compare(runs, m)
        entry = {label: summary(list(values.values())) for label, values in by_seed.items()}
        entry.update(unit=m["unit"], better=m["better"], **wins, **verdicts(entry["parent"], entry["change"], wins, m))
        record["metrics"][m["name"]] = entry
    if all(heldout.values()):
        record["heldout"] = {}
        for m in metrics:
            by_seed, wins = compare(heldout, m)
            record["heldout"][m["name"]] = {**by_seed, **wins}
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.exit(__doc__)
    sides = {"parent": load_runs(argv[1]), "change": load_runs(argv[2])}
    if not all(sides.values()):
        sys.exit("bench_record: each side needs at least one untraced result file")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    first = sides["parent"][0]
    out = {
        "machine": first["machine"],
        "seconds": first["seconds"],
        "workloads": {
            w: workload_record(w, sides, metrics)
            for w in sorted({r["workload"] for side in sides.values() for r in side})
        },
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
