"""Record the benchmark baseline into bench/baseline.json.

    python3 bench/record_baseline.py

Runs every workload once per seed 1..10 with tracing off and once traced, from the
repository root, and writes the sizing facts (nproc, threads, versions, the
config menus and the input properties they vary), the median and quartiles
of every end-to-end metric, each metric's spread (interquartile distance
over median, as the regression gate computes it) against its bound, and the
traced run's per-layer numbers.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

QUANTIZED = ("triangular", "gauss-trunc")    # difference density on 4096 cells
SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def _family(spec) -> str:
    return spec.split("[")[0] if isinstance(spec, str) else spec.get("type", "?")


def describe(workload: str) -> dict:
    """The menu of one workload and the input properties it varies."""
    templates = {}
    for name, cfg in workloads.ConfigStream(workload, 0).top_round():
        entry = {"kind": cfg["kind"]}
        if "measure" in cfg:
            entry["weight_family"] = _family(cfg["measure"])
        if "grid" in cfg:
            g = cfg["grid"]
            top = g["start"] * g["factor"] ** (g["count"] - 1)
            lo = top * min(workloads.START_MENU) / max(workloads.START_MENU)
            entry["t_max"] = [lo, top]
            entry["points"] = g["count"]
        for key in ("spectral", "flow", "observable", "power", "depth", "box"):
            if key in cfg:
                entry[key] = cfg[key] if key != "box" else "seed-drawn"
        samples = cfg.get("samples", {})
        if "n_x" in samples:
            entry["n_x_times_n_r"] = samples["n_x"] * samples["n_r"]
            entry["block_elements"] = 8_000_000
        if "n_pairs" in samples:
            entry["n_pairs"] = samples["n_pairs"]
        corr = cfg.get("correlation")
        if corr is not None:
            entry["spikes"] = len(corr["centers"]) if isinstance(corr, dict) else 8
            entry["difference_density"] = (
                "exact, 3 knots" if entry.get("weight_family") == "uniform"
                else "quantized, 8193 knots" if entry.get("weight_family") in QUANTIZED
                else "none: sampling path")
        templates[name] = entry
    return {"templates": templates,
            "menus": {"grid_start_multiplier": workloads.START_MENU,
                      "weight_left_endpoint": workloads.SHIFT_MENU,
                      "box_sides": workloads.BOX_MENU,
                      "spike_growth": workloads.SPIKE_GROWTH_MENU},
            "determinism_rerun": workloads.DETERMINISM_TEMPLATE[workload]}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    import numpy
    import scipy
    doc = {
        "machine": {"nproc": os.cpu_count(), "threads": min(2, os.cpu_count() or 1),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "scipy": scipy.__version__, "platform": platform.platform()},
        "load_model": "closed loop, one client: one worker process issues the workload's "
                      "configs back to back through homavg.cli.main; whole blocks of "
                      "rounds for run_seconds and at least 40 configs",
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in doc["seeds"]:
            res = _run(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"]})
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, res["correct"], res["failed"], res["attempted"],
                  {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        e2e = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            e2e[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "bound": bounds[name],
                         "values": vals}
            print(f"  {name:14s} median {med:.4g}  spread {(q3 - q1) / med:.3f}  "
                  f"bound {bounds[name]}", flush=True)
        traced = _run(workload, doc["seeds"][0], spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "why": why[workload],
            **describe(workload),
            "runs": runs,
            "end_to_end": e2e,
            "traced_run": {"seed": doc["seeds"][0], "correct": traced["correct"],
                           "report": [line for line in traced["report"]
                                      if len(line.split()) != 3],
                           "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}},
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
