"""homavg benchmark: one command, every metric, checked outputs.

    python3 bench/run.py --workload spectral-decay --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (homavg is imported from ./src).  The run:

1. times set-up in fresh processes: one discarded warm import, then the
   median of SETUP_PROBES probes of `import homavg` + resolving every preset
   the workload names + one tiny warm-up call per weight;
2. measures peak RSS per config in the discarded probe's process: it forks
   one child per template, each running that template's config at the
   largest grid start, as one `homavg run` process would; the metric is the
   largest child's ru_maxrss;
3. starts a fresh worker process that issues the workload's configs through
   homavg.cli.main back to back for --seconds (whole blocks of rounds),
   records each config's wall time, then checks every output, re-runs one
   config with --threads 2 and --threads 1 for the determinism gate, and
   writes per-point check gaps under .bench_out/;
4. prints each metric by name with its unit, then one JSON line.

With --trace 0 the JSON carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 the worker runs every config twice, untraced and with the
layer tracer installed, in alternating order, and the JSON carries the
per-layer metrics.  The exit code is 0 only when the run completed; a
failed check sets "correct": false and counts in "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
SETUP_PROBES = 3
RUN_LIMIT_S = 170          # a run must end within 180 s


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group; past `deadline` the whole
    group (forked memory probes included) is killed and waited for."""
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark worker {args[0]} exceeded {timeout} s") from None
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"benchmark worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, memory_dir: Path | None,
                  deadline: float) -> tuple[list, dict]:
    """Set-up probes; the first one's timing is discarded (warm import) and
    that process measures per-config peak RSS when `memory_dir` is given."""
    first = _child(["setup", workload, str(seed)] + ([str(memory_dir)] if memory_dir else []),
                   deadline)
    probes = [_child(["setup", workload, str(seed)], deadline) for _ in range(SETUP_PROBES)]
    return probes, first.get("memory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if not Path("src/homavg/__init__.py").is_file():
        print("bench: run from the root of a homavg checkout (src/homavg missing)",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())

    OUT_DIR.mkdir(exist_ok=True)
    outdir = OUT_DIR / f"{args.workload}-{args.seed}"
    probes, mem = measure_setup(args.workload, args.seed,
                                None if args.trace else outdir, deadline)
    res = _child(["run", args.workload, str(args.seed), str(args.seconds),
                  str(args.trace), str(outdir)], deadline)
    _clean(outdir)

    setup = {key: statistics.median(p[key] for p in probes)
             for key in ("setup_s", "import_s", "presets_s")}
    if args.trace:
        values = dict(res["layers"])
        values["setup.import_s"] = setup["import_s"]
        values["setup.presets_s"] = setup["presets_s"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup["setup_s"],
            "points_per_s": res["points"] / res["loop_wall_s"],
            "exp_s_p50": res["exp_s_p50"],
            "exp_s_tail": res["exp_s_tail"],
            "peak_rss_mb": mem["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {min(2, os.cpu_count() or 1)}  nproc {os.cpu_count()}")
    print(f"  closed loop, 1 client: {res['configs']} configs, {res['points']} points, "
          f"{res['loop_wall_s']:.2f} s")
    if mem:
        print(f"  exp_s_tail is the p{res['tail_pct']:g} of {res['configs']} config times "
              f"({res['tail_beyond']} beyond it)")
        heaviest = max(mem["per_template_mb"], key=mem["per_template_mb"].get)
        print(f"  peak_rss_mb is the largest of {len(mem['per_template_mb'])} fresh per-config "
              f"processes ({heaviest}); the worker itself peaked at "
              f"{res['worker_peak_rss_mb']:.1f} MB")
    print(f"  fail_share = {res['failed']}/{res['attempted']} "
          f"(base: configs run through cli.main, timed loop plus determinism reruns)")
    stats = res["statistics"]
    if stats.get("comparisons"):
        print(f"  statistical checks: {stats['comparisons']} comparisons, "
              f"|z| limit {stats['z_limit']:.2f}, {stats['beyond_3_sigma']} beyond 3 sigma"
              + (f", pooled adversary z {stats['pooled_z']:.2f}" if "pooled_z" in stats else ""))
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        overhead, gap = values["trace.overhead_s"], values["trace.top_level_gap_s"]
        untraced = values["trace.untraced_s"]
        # the two runs of a config differ by timing noise too: allow 2% of it
        covered = abs(gap) <= abs(overhead) + 0.02 * untraced
        print(f"  tracing overhead: {overhead:.3f} s on {untraced:.3f} s untraced; "
              f"top-level spans leave {gap:.3f} s of untraced time uncovered "
              f"({'within' if covered else 'NOT within'} the overhead plus 2%)")
        print("  computed, not measured: quadrature.peak_bytes and "
              "engine.l1_deviation.block_bytes come from array shapes")

    metrics = {}
    for m in wanted:
        # a layer the workload never reached has no spans: it reports 0
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:52s} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _clean(outdir: Path) -> None:
    """Drop per-config outputs; the check and trace files stay in OUT_DIR."""
    if outdir.is_dir():
        for path in outdir.iterdir():
            path.unlink()
        outdir.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
