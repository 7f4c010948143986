"""python3 tools/bench_pairs.py --pr N --parent REV --workload W --pairs K --seed S:
alternating parent/change pairs of ``bench/run.py``, kept in BENCH_<N>.json.

The parent side is a ``git archive`` of REV, the change side a copy of this
tree's src/, bench/ and BENCHMARK.json.  Each run starts from a fresh copy
of its side under .bench_build/pairs/, so no run sees another's
.bench_out/.  Pair k runs seed S + (k - first pair of this call) on both
sides, the parent first when k is even.  Every run is kept, one that exits
non-zero or prints no result line too, with its exit code.  Each run lasts
BENCHMARK.json's run_seconds, as in bench/record_baseline.py.

Runs accumulate across calls in BENCH_<N>.json, and its summary is
recomputed from all of them: per workload, the pairs in which both sides
printed a result, and per end-to-end metric of BENCHMARK.json each side's
q1/median/q3, the pairs the change won (ties count for neither) and a
verdict.  It is "better" where there are at least ten pairs, the change
wins at least 9/10 of them and its median beats the parent's by more than
the parent's IQR;
"unresolved" where the parent's IQR is wider than the metric's bound
(relative to the parent's median), unless every change run beats every
parent run; "worse" where the change's median is worse than the parent's by
more than the bound; else "within bound".
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "pairs"
COMMAND = "python3 bench/run.py --workload <workload> --seed <seed> --seconds <seconds> --trace 0"
METHOD = ("each run from a fresh copy of the side's files (parent: git archive of the "
          "parent; change: this tree's src/, bench/ and BENCHMARK.json), one at a time; "
          "in pair k both sides run one seed and the parent runs first when k is even; "
          "'order' is the run's position within its pair.  The summary covers the pairs "
          "in which both sides printed a result; every run made is listed.")


def quartiles(values: list) -> list:
    """[q1, median, q3] by the inclusive method (numpy's linear percentile)."""
    if len(values) < 2:
        return list(values) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def verdict(parent: list, change: list, higher: bool, bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric over paired runs."""
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - median)
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > q3 - q1:
        return wins, "better"
    every = min(change) > max(parent) if higher else max(change) < min(parent)
    if q3 - q1 > bound * abs(median) and not every:
        return wins, "unresolved"
    if gap < -bound * abs(median):
        return wins, "worse"
    return wins, "within bound"


def summarize(runs: list, spec: dict) -> dict:
    """The summary of BENCH_<N>.json for ``runs`` and the benchmark ``spec``."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        sides = {}
        for run in mine:
            if run["result"] is not None:
                sides.setdefault(run["pair"], {})[run["side"]] = run
        pairs = sorted(k for k, got in sides.items() if len(got) == 2)
        entry = {"pairs": len(pairs), "seeds": [sides[k]["parent"]["seed"] for k in pairs],
                 "runs": len(mine),
                 "no_result": sum(run["result"] is None for run in mine),
                 "all_correct": all(run["result"] is not None and run["result"]["correct"]
                                    for run in mine)}
        for side in ("parent", "change"):
            done = [run["result"] for run in mine
                    if run["side"] == side and run["result"] is not None]
            entry[f"{side}_failed_attempted"] = [sum(r["failed"] for r in done),
                                                 sum(r["attempted"] for r in done)]
        for metric in spec["end_to_end"] if pairs else ():
            name = metric["name"]
            values = {side: [sides[k][side]["result"]["metrics"][name]["value"] for k in pairs]
                      for side in ("parent", "change")}
            wins, word = verdict(values["parent"], values["change"],
                                 metric["better"] == "higher", metric["bound"])
            entry[name] = {"parent_q1_median_q3": quartiles(values["parent"]),
                           "change_q1_median_q3": quartiles(values["change"]),
                           "change_better_pairs": wins, "bound": metric["bound"],
                           "verdict": word}
        summary[workload] = entry
    return summary


def _fresh(pristine: Path) -> Path:
    """A fresh copy of ``pristine`` to run in."""
    target = BUILD / "run"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(pristine, target)
    return target


def _sides(parent: str) -> dict:
    """The pristine trees of both sides under BUILD."""
    shutil.rmtree(BUILD, ignore_errors=True)
    trees = {"parent": BUILD / "parent-tree", "change": BUILD / "change-tree"}
    archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(trees["parent"], filter="data")
    skip = shutil.ignore_patterns("__pycache__", ".bench_out", ".bench_build")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, trees["change"] / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", trees["change"] / "BENCHMARK.json")
    return trees


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(exit code, result line or None) of one untraced ``bench/run.py`` run."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=_fresh(tree), capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of this call's first pair")
    args = parser.parse_args(argv)

    out = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees = _sides(args.parent)
    first = 1 + max((run["pair"] for run in doc["runs"] if run["workload"] == args.workload),
                    default=-1)
    for k in range(first, first + args.pairs):
        seed = args.seed + k - first
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            code, result = _run(trees[side], args.workload, seed, seconds)
            doc["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                "pair": k, "order": position, "seconds": seconds,
                                "nproc": os.cpu_count(), "exit_code": code,
                                "result": result})
            print(f"{args.workload} pair {k} seed {seed} {side}: exit {code}"
                  + ("" if result else ", no result line"), flush=True)
        doc.update(pr=args.pr, parent=parent, command=COMMAND, method=METHOD,
                   host=f"{platform.machine()}, nproc {os.cpu_count()}, "
                        f"Python {platform.python_version()}",
                   summary=summarize(doc["runs"], spec))
        doc = {key: doc[key] for key in
               ("pr", "parent", "command", "method", "host", "summary", "runs")}
        out.write_text(json.dumps(doc, indent=1) + "\n")      # after every pair
    shutil.rmtree(BUILD, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
