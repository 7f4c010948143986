"""Child process of the benchmark; run.py starts it, fresh each time.

    worker.py setup <workload> <seed> [<outdir>]
        Time `import homavg`, resolving every preset the workload names and
        one tiny warm-up call per weight.  With <outdir>, then measure the
        peak RSS of one config per template, each in a forked child.  Print
        one JSON line.

    worker.py run <workload> <seed> <seconds> <trace> <outdir>
        Issue the workload's configs through homavg.cli.main back to back
        (one client, closed loop) in whole blocks of rounds until <seconds>
        have passed and at least MIN_CONFIGS ran; then check every output
        and re-run one config for the determinism gate.  With <trace> 1
        every config runs twice, untraced and traced, and the per-layer
        numbers come from the spans.  Print one JSON line.

The working directory is the checkout root; homavg is imported from ./src.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

THREADS = min(2, os.cpu_count() or 1)
SETUP_ROUNDS = 4          # rounds whose presets the set-up resolves
MIN_CONFIGS = 40          # enough for a 75th percentile with ten samples beyond
COMPLEX_BYTES = 16        # one quadrature node value
FAMILIES = ("uniform", "triangular", "gauss-trunc", "self-similar")
# per-layer metric name -> the aggregated span key it reports
ALIASES = {
    "quadrature.nodes": "quadrature.fixed_gl.nodes",
    "presets.resolve_s": "presets.resolve.s",
    "serialize.write_s": "serialize.write.s",
    "serialize.bytes": "serialize.write.bytes",
    "adversary.candidates": "adversary.correlation_deviation.calls",
}


def _import_homavg():
    import homavg
    import homavg.cli
    src = Path("src").resolve()
    if src not in Path(homavg.__file__).resolve().parents:
        raise SystemExit(f"homavg imported from {homavg.__file__}, not from {src}")
    return homavg.cli


def setup(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    _import_homavg()
    imported = time.perf_counter()
    from homavg import presets
    stream = workloads.ConfigStream(workload, seed)
    cfgs = [cfg for r in range(SETUP_ROUNDS) for _, cfg in stream.round(r)]
    weights = []
    for field, spec in workloads.preset_specs(cfgs):
        if field == "measure":
            weights.append(presets.resolve_measure(spec))
        elif field == "flow":
            presets.resolve_flow(spec)
        elif field == "spectral":
            presets.resolve_spectral(spec)
        elif field == "correlation":
            presets.resolve_correlation(spec)
    for cfg in cfgs:
        if "observable" in cfg:
            presets.resolve_observable(cfg["observable"], presets.resolve_flow(cfg["flow"]))
    resolved = time.perf_counter()
    for weight in weights:          # fills lazy caches (leggauss nodes, scipy.stats)
        weight.char_fn(1.0)
        weight.sample(4, 0)
    done = time.perf_counter()
    return {"import_s": imported - start, "presets_s": resolved - imported,
            "warmup_s": done - resolved, "setup_s": done - start}


def memory(workload: str, seed: int, outdir: Path) -> dict:
    """Peak RSS of each template's config at the largest grid start, each in
    a child forked from this process (homavg imported, no config run), as a
    fresh `homavg run` process would see it.  THREADS children at a time:
    the peaks are per process, and nothing here is timed."""
    cli = _import_homavg()
    outdir.mkdir(parents=True, exist_ok=True)
    pending = list(workloads.ConfigStream(workload, seed).top_round())
    running, peaks = {}, {}
    while pending or running:
        while pending and len(running) < THREADS:
            name, cfg = pending.pop(0)
            path = outdir / f"mem-{name}.json"
            path.write_text(json.dumps(cfg))
            pid = os.fork()
            if pid == 0:                                # child
                code = 1
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(["run", str(path), "--out", str(outdir / f"mem-{name}"),
                                         "--threads", str(THREADS)])
                finally:
                    os._exit(code)
            running[pid] = name
        pid, status, usage = os.wait4(-1, 0)
        name = running.pop(pid)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"memory probe {name} failed with status {status}")
        peaks[name] = usage.ru_maxrss / 1024.0
    return {"peak_rss_mb": max(peaks.values()), "per_template_mb": peaks}


def run_config(cli, outdir: Path, cid: str, cfg: dict, threads: int, tag: str) -> dict:
    """One `homavg run`, timed from main() entry to its outputs written."""
    path = outdir / f"{tag}-{cid}.json"
    path.write_text(json.dumps(cfg))
    prefix = str(outdir / f"{tag}-{cid}")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", str(path), "--out", prefix, "--threads", str(threads)])
    except Exception as exc:  # noqa: BLE001 - a crash is a counted failure
        rc = f"exception: {exc!r}"
    wall = time.perf_counter() - start
    return {"id": cid, "prefix": prefix, "rc": rc, "wall": wall}


def per_block(workload: str) -> int:
    return len(workloads.START_MENU) * len(workloads.WORKLOADS[workload])


def rounds_until(stream, seconds: float, min_rounds: int):
    """Yield rounds of (config id, template, config) in whole blocks until
    `seconds` have passed and at least `min_rounds` were issued.  A block is
    one pass through the grid-start menu, so every seed runs the same
    multiset of (template, grid start), hence the same work."""
    block = len(workloads.START_MENU)
    start = time.perf_counter()
    index = 0
    while index % block or index < min_rounds or time.perf_counter() - start < seconds:
        yield [(f"r{index}-{name}", name, cfg) for name, cfg in stream.round(index)]
        index += 1


def points_of(rec: dict) -> int:
    """Grid points (or verified adversary levels) with a finite value."""
    from checks import parse_csv
    if rec["rc"] != 0:
        return 0
    try:
        _, rows = parse_csv(Path(rec["prefix"] + ".csv").read_text())
    except OSError:
        return 0
    return sum(1 for row in rows if row[1] == row[1])


def check_all(workload: str, cli, outdir: Path, records: list[dict]):
    """Correctness and determinism; returns (failed ids, findings, summary)."""
    import checks
    found = checks.Findings()
    for rec in records:
        if rec["rc"] != 0:
            found.fail(rec["id"], f"exit code {rec['rc']}")
            continue
        try:
            csv_text, meta = checks.load(rec["prefix"])
        except (OSError, ValueError) as exc:
            found.fail(rec["id"], f"unreadable output: {exc}")
            continue
        checks.check_config(rec["id"], rec["template"], rec["cfg"], csv_text, meta, found)

    det = next(r for r in records if r["template"] == workloads.DETERMINISM_TEMPLATE[workload])
    reruns = []
    for threads in (THREADS, 1):
        rerun = run_config(cli, outdir, det["id"], det["cfg"], threads, f"det{threads}")
        rerun["id"] = f"{det['id']}-rerun-threads-{threads}"
        reruns.append(rerun)
        try:
            same = rerun["rc"] == 0 and (checks.read_outputs(rerun["prefix"])
                                         == checks.read_outputs(det["prefix"]))
        except OSError:
            same = False
        found.gaps.append({"config": rerun["id"], "check": "bytes-identical", "ok": same})
        if not same:
            found.fail(rerun["id"], f"rerun with --threads {threads} differs")
    summary = checks.judge_statistics(found)
    failed = {msg.split(":", 1)[0] for msg in found.failures}
    return failed, found, summary, reruns


def tail_percentile(design_n: int) -> float:
    """The highest of the 50/75/90/95/99th percentiles that leaves at least
    ten of `design_n` samples beyond it.  It is fixed by the workload's
    guaranteed sample count, so a faster program (more samples per run)
    does not move the tail to a higher percentile."""
    pct = 50.0
    for p in (75.0, 90.0, 95.0, 99.0):
        if design_n - math.ceil(p * design_n / 100.0) >= 10:
            pct = p
    return pct


def _percentile(values: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond it) of the nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(pct * len(ordered) / 100.0)
    return ordered[rank - 1], len(ordered) - rank


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    cli = _import_homavg()
    outdir.mkdir(parents=True, exist_ok=True)
    stream = workloads.ConfigStream(workload, seed)
    if trace:
        return traced_run(workload, cli, stream, seconds, outdir)
    min_configs = -(-MIN_CONFIGS // per_block(workload)) * per_block(workload)
    timed = []
    start = time.perf_counter()
    for batch in rounds_until(stream, seconds, min_configs // len(workloads.WORKLOADS[workload])):
        for cid, template, cfg in batch:
            rec = run_config(cli, outdir, cid, cfg, THREADS, "u")
            timed.append({**rec, "template": template, "cfg": cfg})
    wall = time.perf_counter() - start
    walls = [r["wall"] for r in timed]
    pct = tail_percentile(min_configs)
    tail, beyond = _percentile(walls, pct)
    result = {"configs": len(timed), "loop_wall_s": wall,
              "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "points": sum(points_of(r) for r in timed),
              "exp_s_p50": statistics.median(walls), "exp_s_tail": tail,
              "tail_pct": pct, "tail_beyond": beyond}
    result.update(finish(workload, cli, outdir, timed))
    return result


def traced_run(workload, cli, stream, seconds: float, outdir: Path) -> dict:
    """Each config twice, untraced and traced, in alternating order so that
    machine drift cancels in the overhead; whole blocks until half of
    `seconds` has passed (the pairs take the other half)."""
    import tracer as tracing
    tr = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    for batch in rounds_until(stream, seconds / 2, 1):
        for k, (cid, template, cfg) in enumerate(batch):
            for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
                patches = tracing.install(tr) if traced_pass else None
                tr.config_id = cid
                try:
                    rec = run_config(cli, outdir, cid, cfg, THREADS, "t" if traced_pass else "u")
                finally:
                    if patches:
                        patches.undo()
                (traced if traced_pass else untraced).append(
                    {**rec, "template": template, "cfg": cfg})
    tr.write(outdir.parent / f"{workload}.trace.jsonl")
    result = {"configs": len(untraced), "loop_wall_s": time.perf_counter() - start,
              "points": sum(points_of(r) for r in untraced),
              "layers": layer_metrics(tr, untraced, traced)}
    result.update(finish(workload, cli, outdir, untraced, traced))
    return result


def finish(workload, cli, outdir: Path, timed: list[dict], traced=()) -> dict:
    """Run every check, write the per-point gaps, and count failures."""
    import checks
    failed, found, summary, reruns = check_all(workload, cli, outdir, timed)
    for rec, again in zip(timed, traced):      # tracing must not change bytes
        if checks.read_outputs(rec["prefix"]) != checks.read_outputs(again["prefix"]):
            found.fail(rec["id"], "traced rerun differs")
            failed.add(rec["id"])
    with open(outdir.parent / f"{workload}.checks.json", "w") as fh:
        json.dump({"failures": found.failures, "statistics": summary,
                   "gaps": found.gaps}, fh, indent=1)
    return {"attempted": len(timed) + len(reruns), "failed": len(failed),
            "failures": found.failures[:20], "statistics": summary}


def layer_metrics(tr, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer numbers from the spans of the traced configs.  A `.s` metric
    is busy time summed over threads; `.self_s` excludes child spans."""
    selfs = tr.self_times()
    tot: dict[str, float] = {}
    peak: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    top_by_config: dict[str, float] = {}
    main_ids = {s[0]: s[6] for s in tr.spans if s[1] == "cli.main"}
    links = {s[0]: (s[1], s[4]) for s in tr.spans}

    def outermost(name, parent):
        while parent is not None:
            if links[parent][0] == name:
                return False
            parent = links[parent][1]
        return True

    for span_id, name, start, end, parent, thread, config, counts in tr.spans:
        dur = end - start
        if outermost(name, parent):       # nested calls of one layer count once
            add(name + ".s", dur)
        add(name + ".self_s", selfs[span_id])
        add(name + ".calls", 1)
        for key, value in (counts or {}).items():
            add(f"{name}.{key}", value)
            peak[f"{name}.{key}"] = max(peak.get(f"{name}.{key}", 0), value)
        if parent in main_ids:
            top_by_config[config] = top_by_config.get(config, 0.0) + dur
    get = lambda key: tot.get(key, 0.0)
    ratio = lambda num, den: get(num) / get(den) if get(den) else 0.0

    out = dict(tot)
    for name, source in ALIASES.items():
        out[name] = get(source)
    for family in FAMILIES:
        out[f"measures.sample.{family}.draws_per_s"] = ratio(
            f"measures.sample.{family}.draws", f"measures.sample.{family}.s")
    out.update({
        "quadrature.node_yield": ratio("quadrature.adaptive_gl.accepted_nodes",
                                       "quadrature.fixed_gl.nodes"),
        "quadrature.peak_bytes": peak.get("quadrature.fixed_gl.nodes", 0) * COMPLEX_BYTES,
        "engine.l1_deviation.block_bytes": peak.get("engine.l1_deviation.block_bytes", 0),
        "engine.convergence_scan.cpu_per_wall": ratio("engine.convergence_scan.cpu_s",
                                                      "engine.convergence_scan.s"),
        "adversary.levels_built_share": ratio("adversary.build.levels_built",
                                              "adversary.build.levels_requested"),
    })
    untraced_s = sum(r["wall"] for r in untraced)
    traced_s = sum(r["wall"] for r in traced)
    top_s = sum(top_by_config.values())
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.top_level_gap_s"] = untraced_s - top_s
    out["trace.untraced_s"] = untraced_s
    out["trace.spans"] = float(len(tr.spans))
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(argv[1], int(argv[2]))
        if len(argv) > 3:
            result["memory"] = memory(argv[1], int(argv[2]), Path(argv[3]))
        print(json.dumps(result))
    elif mode == "run":
        print(json.dumps(run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1",
                             Path(argv[5]))))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
