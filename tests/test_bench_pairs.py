"""The summary of ``tools/bench_pairs.py`` on synthetic runs (no benchmark
process is started)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "points_per_s", "better": "higher", "bound": 0.25},
                       {"name": "exp_s_p50", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
                       {"name": "setup_s", "better": "lower", "bound": 0.25}]}


def run(pair, side, values, failed=0):
    metrics = {name: {"value": value} for name, value in values.items()}
    return {"workload": "w", "seed": 100 + pair, "side": side, "pair": pair,
            "order": 0 if (pair % 2 == 0) == (side == "parent") else 1,
            "exit_code": 0,
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_summary_quartiles_wins_and_verdicts():
    runs = []
    for k in range(10):
        runs.append(run(k, "parent", {"points_per_s": 100.0 + k, "exp_s_p50": 1.0 + 0.1 * k,
                                      "peak_rss_mb": 50.0, "setup_s": 0.5}))
        runs.append(run(k, "change", {
            "points_per_s": 120.0 + k if k else 90.0,   # wins 9 of 10, far beyond the IQR
            "exp_s_p50": 1.0 + 0.1 * (9 - k),          # parent IQR 0.45 > 0.25 * 1.45
            "peak_rss_mb": 65.0,                       # 30% worse, bound 20%
            "setup_s": 0.5 + (0.01 if k % 2 else -0.01)}, failed=int(k == 3)))
    runs.append({**run(10, "parent", {}), "exit_code": 1, "result": None})
    runs.append(run(10, "change", {"points_per_s": 1.0, "exp_s_p50": 9.0,
                                   "peak_rss_mb": 99.0, "setup_s": 9.0}))
    got = bench_pairs.summarize(runs, SPEC)["w"]
    assert got["pairs"] == 10 and got["runs"] == 22 and got["no_result"] == 1
    assert got["seeds"] == list(range(100, 110)) and not got["all_correct"]
    assert got["parent_failed_attempted"] == [0, 100]
    assert got["change_failed_attempted"] == [1, 110]
    points = got["points_per_s"]
    assert points["parent_q1_median_q3"] == [102.25, 104.5, 106.75]
    assert points["change_better_pairs"] == 9 and points["verdict"] == "better"
    assert got["exp_s_p50"]["verdict"] == "unresolved"
    assert got["peak_rss_mb"]["change_better_pairs"] == 0
    assert got["peak_rss_mb"]["verdict"] == "worse"
    assert got["setup_s"]["change_better_pairs"] == 5
    assert got["setup_s"]["verdict"] == "within bound"
    # four pairs never read better; with the parent's IQR of 1.5 wider than
    # 0.25 x 2.5, they are unresolved unless every change run beats every parent run
    parent = [1.0, 2.0, 3.0, 4.0]
    assert bench_pairs.verdict(parent, [0.5, 0.6, 0.7, 0.8], False, 0.25) == (4, "within bound")
    assert bench_pairs.verdict(parent, [4.0, 1.0, 1.5, 2.0], False, 0.25) == (3, "unresolved")
