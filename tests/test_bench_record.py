"""tools/bench_record.py: the perf-trajectory record of two result sets."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_record.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(seed: int, value: float) -> dict:
    """The fields of an untraced perfbench result file that the tool reads."""
    return {
        "workload": "train-mse",
        "seed": seed,
        "trace": 0,
        "seconds": 30,
        "machine": {"cpus": 2},
        "failed": 0,
        "errors": [],
        "attempted": 10,
        "calibration": {"machine.gemm_gflops": 150.0},
        "metrics": {name: {"value": value} for name in METRICS},
    }


def test_runs_with_the_same_seed_are_refused_not_collapsed(tmp_path):
    """Pairing by seed would keep one of two same-seed runs and silently
    drop the other from the medians and the run count."""
    tool = _load_tool()
    old, new = tmp_path / "old", tmp_path / "new"
    sides = {old: [(3, 400.0), (4, 410.0)], new: [(3, 380.0), (3, 390.0), (4, 395.0)]}
    for folder, runs in sides.items():
        folder.mkdir()
        for i, (seed, value) in enumerate(runs):
            (folder / f"run{i}.json").write_text(json.dumps(_result(seed, value)), encoding="utf-8")
    with pytest.raises(SystemExit, match="train-mse: the change side has 2 runs with seed 3"):
        tool.main(["bench_record.py", str(old), str(new)])
