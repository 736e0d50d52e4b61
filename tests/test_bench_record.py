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


PARENT = [100.0 + i for i in range(10)]  # seeds 1-10: median 104.5, quartiles 102.25 and 106.75


def _record(tmp_path, capsys, change: list[float]) -> dict:
    tool = _load_tool()
    for name, values in (("old", PARENT), ("new", change)):
        folder = tmp_path / name
        folder.mkdir()
        for seed, value in enumerate(values, start=1):
            (folder / f"run{seed}.json").write_text(json.dumps(_result(seed, value)), encoding="utf-8")
    assert tool.main(["bench_record.py", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    return json.loads(capsys.readouterr().out)["workloads"]["train-mse"]["metrics"]


@pytest.mark.parametrize(
    "change, gain_resolved",
    [
        ([v - 10.0 for v in PARENT[:9]] + [PARENT[9] + 1.0], True),  # 9/10 wins, gap 10 > IQR 4.5
        ([v - 10.0 for v in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]], False),  # 8/10 wins
        ([v - 1.0 for v in PARENT], False),  # 10/10 wins, but the gap lies inside the IQR
    ],
    ids=["nine_of_ten_beyond_the_iqr", "eight_of_ten", "gap_inside_the_iqr"],
)
def test_a_gain_is_resolved_only_by_the_claim_rule(tmp_path, capsys, change, gain_resolved):
    entry = _record(tmp_path, capsys, change)["op_ms_p50"]
    assert entry["gain_resolved"] is gain_resolved
    assert entry["regressed"] is False


def test_a_regression_is_a_median_worse_than_the_bound(tmp_path, capsys):
    """Every metric here reads 1.3x the parent: beyond op_ms_p50's 0.24
    bound, while on images_per_s (higher is better) it is a gain."""
    metrics = _record(tmp_path, capsys, [v * 1.3 for v in PARENT])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["op_ms_p50"] < 0.3
    assert metrics["op_ms_p50"]["regressed"] is True
    assert metrics["op_ms_p50"]["gain_resolved"] is False
    assert metrics["images_per_s"]["regressed"] is False
    assert metrics["images_per_s"]["gain_resolved"] is True


def test_a_change_within_the_bound_is_no_regression(tmp_path, capsys):
    metrics = _record(tmp_path, capsys, [v * 1.2 for v in PARENT])
    assert metrics["op_ms_p50"]["regressed"] is False
