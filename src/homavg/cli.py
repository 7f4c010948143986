"""Batch experiment runner.

    homavg run <config.json> [--out PREFIX] [--threads N]
    homavg presets

A config is one JSON document naming the experiment kind plus its inputs;
``run`` writes ``<prefix>.csv`` and ``<prefix>.meta`` (the fully resolved
config and library versions).  Reruns of an identical config are
byte-identical, and the thread count never changes any output byte.

Exit codes: 0 success (numeric failures at single grid points are flagged
in the CSV, and a partial adversary plan is reported on stderr, neither
fatal), 2 config/preset validation failure (the message names the field),
3 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import presets, serialize
from .adversary import build_adversarial_measure, verify_non_almost_mixing
from .engine import (DecayCurve, convergence_scan, descent_check,
                     almost_mixing_probe, geometric_grid, l1_deviation,
                     l2_norm_spectral)
from .errors import PresetError
from .flows import BoxSet
from .spectral import FourierObservable, SpikeCorrelation, spectrum_of_observable

KINDS = ("avg-scan", "spectral-scan", "convolution-root",
         "almost-mixing-probe", "adversary")


def _require(cfg: dict, field: str):
    if field not in cfg:
        raise PresetError(field, "missing required config field")
    return cfg[field]


def _grid(cfg: dict) -> tuple[float, ...]:
    spec = _require(cfg, "grid")
    try:
        return geometric_grid(float(spec["start"]), float(spec["factor"]),
                              int(spec["count"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise PresetError("grid", f"bad geometric grid spec: {exc}") from None


def _spectrum_for(cfg: dict):
    """Spectral model from an explicit spec or from (flow, observable)."""
    if "spectral" in cfg:
        return presets.resolve_spectral(cfg["spectral"]), None, None
    flow = presets.resolve_flow(_require(cfg, "flow"))
    obs = presets.resolve_observable(_require(cfg, "observable"), flow)
    if not isinstance(obs, FourierObservable):
        raise PresetError("observable",
                          "spectral evaluation needs a finite Fourier observable")
    return spectrum_of_observable(flow, obs), flow, obs


def _run_avg_scan(cfg: dict, threads: int) -> DecayCurve:
    flow = presets.resolve_flow(_require(cfg, "flow"))
    measure = presets.resolve_measure(_require(cfg, "measure"))
    obs = presets.resolve_observable(_require(cfg, "observable"), flow)
    grid = _grid(cfg)
    seed = int(_require(cfg, "seed"))
    samples = cfg.get("samples", {})
    n_x = int(samples.get("n_x", 10_000))
    n_r = int(samples.get("n_r", 10_000))
    evaluator_name = cfg.get("evaluator", "auto")
    if evaluator_name not in ("auto", "spectral", "l1-mc"):
        raise PresetError("evaluator", f"unknown evaluator {evaluator_name!r}")
    if evaluator_name == "auto":
        evaluator_name = ("spectral" if isinstance(obs, FourierObservable)
                          else "l1-mc")
    meta = {"kind": "avg-scan", "evaluator": evaluator_name,
            "n_x": n_x, "n_r": n_r}
    if evaluator_name == "spectral":
        spectrum = spectrum_of_observable(flow, obs)

        def point(t, _seed):
            return l2_norm_spectral(spectrum, measure, t), 0.0
    else:
        def point(t, point_seed):
            dev = l1_deviation(flow, obs, measure, t, n_x=n_x, n_r=n_r,
                               seed=point_seed)
            return dev.value, dev.error

    return convergence_scan(point, grid, seed=seed, threads=threads,
                            metadata=meta)


def _run_spectral_scan(cfg: dict, threads: int) -> DecayCurve:
    spectrum, _, _ = _spectrum_for(cfg)
    measure = presets.resolve_measure(_require(cfg, "measure"))
    grid = _grid(cfg)
    seed = int(_require(cfg, "seed"))

    def point(t, _seed):
        return l2_norm_spectral(spectrum, measure, t), 0.0

    return convergence_scan(point, grid, seed=seed, threads=threads,
                            metadata={"kind": "spectral-scan"})


def _run_convolution_root(cfg: dict, threads: int) -> DecayCurve:
    spectrum, _, _ = _spectrum_for(cfg)
    measure = presets.resolve_measure(_require(cfg, "measure"))
    order = int(cfg.get("power", 2))
    grid = _grid(cfg)
    seed = int(_require(cfg, "seed"))
    reports = {}

    def point(t, _seed):
        rep = descent_check(spectrum, measure, t=t, order=order)
        reports[t] = (rep.lhs, rep.rhs, rep.passed)
        return rep.rhs - rep.lhs, 0.0

    curve = convergence_scan(point, grid, seed=seed, threads=threads,
                             metadata={"kind": "convolution-root",
                                       "power": order})
    curve.metadata["descent"] = {f"{t:.17g}": list(reports[t])
                                 for t in grid if t in reports}
    return curve


def _run_probe(cfg: dict, threads: int) -> DecayCurve:
    model = presets.resolve_correlation(_require(cfg, "correlation"))
    if not isinstance(model, SpikeCorrelation):
        raise PresetError("correlation", "the probe needs a spike correlation")
    measure = presets.resolve_measure(_require(cfg, "measure"))
    grid = _grid(cfg)
    seed = int(_require(cfg, "seed"))
    samples = int(cfg.get("samples", {}).get("n_pairs", 10_000))
    band = float(cfg.get("band_halfwidth", 1.0))
    return almost_mixing_probe(model, measure, grid, band_halfwidth=band,
                               n_samples=samples, seed=seed, threads=threads)


def _run_adversary(cfg: dict) -> tuple[str, dict]:
    flow = presets.resolve_flow(_require(cfg, "flow"))
    sides = _require(cfg, "box")
    try:
        box = BoxSet(tuple(float(a) for a in sides))
    except (TypeError, ValueError) as exc:
        raise PresetError("box", f"bad box sides: {exc}") from None
    depth = int(_require(cfg, "depth"))
    seed = int(_require(cfg, "seed"))
    samples = int(cfg.get("samples", {}).get("n_pairs", 100_000))
    plan = build_adversarial_measure(flow, box, depth,
                                     max_index=int(cfg.get("max_index", 2000)))
    if plan.failure_level is not None:
        print(f"adversary plan partial: failure_level {plan.failure_level}: "
              f"{plan.failure_reason}", file=sys.stderr)
    estimates = verify_non_almost_mixing(plan, n_samples=samples, seed=seed)
    csv_text = serialize.level_report_csv(estimates)
    meta = {"plan": serialize.plan_to_doc(plan), "n_pairs": samples,
            "seed": seed}
    return csv_text, meta


def run_config(cfg: dict, out_prefix: str | None, threads: int) -> int:
    kind = _require(cfg, "kind")
    if kind not in KINDS:
        raise PresetError("kind", f"unknown experiment kind {kind!r}")
    prefix = out_prefix or cfg.get("out")
    if not prefix:
        raise PresetError("out", "no output prefix given (config `out` or --out)")
    _require(cfg, "seed")

    resolved = {"config": cfg, "versions": serialize.versions()}
    if kind == "adversary":
        csv_text, extra = _run_adversary(cfg)
        resolved.update(extra)
    else:
        runner = {"avg-scan": _run_avg_scan, "spectral-scan": _run_spectral_scan,
                  "convolution-root": _run_convolution_root,
                  "almost-mixing-probe": _run_probe}[kind]
        curve = runner(cfg, threads)
        csv_text = curve.to_csv()
        resolved["metadata"] = curve.metadata
    try:
        paths = serialize.write_outputs(prefix, csv_text, resolved)
    except OSError as exc:
        print(f"error writing outputs: {exc}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homavg", description="weighted-averaging experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", help="path to a JSON experiment config")
    runp.add_argument("--out", default=None, help="output path prefix")
    runp.add_argument("--threads", type=int, default=1,
                      help="worker threads (never changes results)")
    sub.add_parser("presets", help="list named presets")
    args = parser.parse_args(argv)

    if args.command == "presets":
        print(presets.list_presets(), end="")
        return 0
    try:
        cfg = json.loads(open(args.config).read())
    except OSError as exc:
        print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        return run_config(cfg, args.out, max(1, args.threads))
    except PresetError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
