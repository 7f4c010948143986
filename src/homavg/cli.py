"""Batch experiment runner.

    homavg run <config.json> [--out PREFIX] [--threads N]
    homavg presets

A config is one JSON document naming the experiment kind plus its inputs;
``run`` writes ``<prefix>.csv`` and ``<prefix>.meta`` (the config as given,
each list of more than 64 floats recorded by its length and SHA-256 digest,
and library versions).  Reruns of an identical config are
byte-identical, and the thread count never changes any output byte.

Exit codes: 0 success (numeric failures at single grid points are flagged
in the CSV, and a partial adversary plan is reported on stderr, neither
fatal), 2 config/preset validation failure (the message names the field),
3 output I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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


_REQUIRED = object()


def _number(cfg: dict, field: str, kind: type, above, default=_REQUIRED):
    """The numeric config field ``field`` ("samples.n_x" names
    ``cfg["samples"]["n_x"]``) converted by ``kind`` (int or float).  It
    must be finite and exceed ``above``, and an int field takes no fraction.
    A missing field gives ``default``; anything else raises a PresetError
    naming the field."""
    *parents, name = field.split(".")
    node = cfg
    for key in parents:
        node = node.get(key, {})
        if not isinstance(node, dict):
            raise PresetError(key, "must be a JSON object")
    if name not in node:
        if default is _REQUIRED:
            raise PresetError(field, "missing required config field")
        return default
    value = node[name]
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        number = None if isinstance(value, bool) or fraction else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not above < number < math.inf:
        want = (f"an integer >= {above + 1}" if kind is int
                else f"a finite number > {above}")
        raise PresetError(field, f"must be {want}, got {value!r}")
    return number


def _grid(cfg: dict) -> tuple[float, ...]:
    _require(cfg, "grid")
    try:
        grid = geometric_grid(_number(cfg, "grid.start", float, 0),
                              _number(cfg, "grid.factor", float, 1),
                              _number(cfg, "grid.count", int, 1))
    except OverflowError:       # factor ** k beyond the float range
        grid = (math.inf,)
    if not (math.isfinite(grid[-1]) and all(a < b for a, b in zip(grid, grid[1:]))):
        raise PresetError("grid", "start * factor ** k must stay finite and "
                                  "strictly increasing in float")
    return grid


def _measure(cfg: dict):
    """The config's weight, refused here if it has an atom: every kind averages with it."""
    measure = presets.resolve_measure(_require(cfg, "measure"))
    if not measure.atomless:
        raise PresetError("measure", "the weight has an atom; averaging needs an atomless weight")
    return measure


def _observable_spectrum(flow, obs):
    """Spectral model of a finite Fourier observable of unit L2 norm."""
    if not isinstance(obs, FourierObservable):
        raise PresetError("observable",
                          "spectral evaluation needs a finite Fourier observable")
    try:
        return spectrum_of_observable(flow, obs)
    except ValueError as exc:    # an observable of L2 norm other than 1
        raise PresetError("observable", str(exc)) from None


def _spectrum_for(cfg: dict):
    """Spectral model from an explicit spec or from (flow, observable)."""
    if "spectral" in cfg:
        return presets.resolve_spectral(cfg["spectral"])
    flow = presets.resolve_flow(_require(cfg, "flow"))
    obs = presets.resolve_observable(_require(cfg, "observable"), flow)
    return _observable_spectrum(flow, obs)


def _run_avg_scan(cfg: dict, seed: int, threads: int) -> DecayCurve:
    flow = presets.resolve_flow(_require(cfg, "flow"))
    measure = _measure(cfg)
    obs = presets.resolve_observable(_require(cfg, "observable"), flow)
    grid = _grid(cfg)
    n_x = _number(cfg, "samples.n_x", int, 0, 10_000)
    n_r = _number(cfg, "samples.n_r", int, 0, 10_000)
    evaluator_name = cfg.get("evaluator", "auto")
    if evaluator_name not in ("auto", "spectral", "l1-mc"):
        raise PresetError("evaluator", f"unknown evaluator {evaluator_name!r}")
    if evaluator_name == "auto":
        evaluator_name = ("spectral" if isinstance(obs, FourierObservable)
                          else "l1-mc")
    meta = {"kind": "avg-scan", "evaluator": evaluator_name,
            "n_x": n_x, "n_r": n_r}
    if evaluator_name == "spectral":
        spectrum = _observable_spectrum(flow, obs)

        def point(t, _seed):
            return l2_norm_spectral(spectrum, measure, t), 0.0
    else:
        def point(t, point_seed):
            dev = l1_deviation(flow, obs, measure, t, n_x=n_x, n_r=n_r,
                               seed=point_seed)
            return dev.value, dev.error

    return convergence_scan(point, grid, seed=seed, threads=threads,
                            metadata=meta)


def _run_spectral_scan(cfg: dict, seed: int, threads: int) -> DecayCurve:
    spectrum = _spectrum_for(cfg)
    measure = _measure(cfg)
    grid = _grid(cfg)

    def point(t, _seed):
        return l2_norm_spectral(spectrum, measure, t), 0.0

    return convergence_scan(point, grid, seed=seed, threads=threads,
                            metadata={"kind": "spectral-scan"})


def _run_convolution_root(cfg: dict, seed: int, threads: int) -> DecayCurve:
    spectrum = _spectrum_for(cfg)
    measure = _measure(cfg)
    order = _number(cfg, "power", int, 1, 2)
    grid = _grid(cfg)
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


def _run_probe(cfg: dict, seed: int, threads: int) -> DecayCurve:
    model = presets.resolve_correlation(_require(cfg, "correlation"))
    if not isinstance(model, SpikeCorrelation):
        raise PresetError("correlation", "the probe needs a spike correlation")
    measure = _measure(cfg)
    grid = _grid(cfg)
    samples = _number(cfg, "samples.n_pairs", int, 0, 10_000)
    band = _number(cfg, "band_halfwidth", float, 0, 1.0)
    return almost_mixing_probe(model, measure, grid, band_halfwidth=band,
                               n_samples=samples, seed=seed, threads=threads)


def _run_adversary(cfg: dict, seed: int) -> tuple[str, dict]:
    flow = presets.resolve_flow(_require(cfg, "flow"))
    if flow.dimension != 2:
        raise PresetError("flow", f"the adversary needs a d = 2 winding, not d = {flow.dimension}")
    sides = _require(cfg, "box")
    try:
        box = BoxSet(tuple(float(a) for a in sides))
    except (TypeError, ValueError) as exc:
        raise PresetError("box", f"bad box sides: {exc}") from None
    if len(box.sides) != 2:
        raise PresetError("box", f"needs 2 sides, one per winding coordinate, got {len(box.sides)}")
    depth = _number(cfg, "depth", int, 0)
    samples = _number(cfg, "samples.n_pairs", int, 0, 100_000)
    plan = build_adversarial_measure(
        flow, box, depth, max_index=_number(cfg, "max_index", int, 0, 2000))
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
    if not isinstance(prefix, str):
        raise PresetError("out", f"must be a non-empty string, got {prefix!r}")
    seed = _number(cfg, "seed", int, -1)

    if kind == "adversary":
        csv_text, resolved = _run_adversary(cfg, seed)
    else:
        runner = {"avg-scan": _run_avg_scan, "spectral-scan": _run_spectral_scan,
                  "convolution-root": _run_convolution_root,
                  "almost-mixing-probe": _run_probe}[kind]
        curve = runner(cfg, seed, threads)
        csv_text = curve.to_csv()
        resolved = {"metadata": curve.metadata}
    # digested after the run: float64 buffers freed before a dense probe
    # stayed in the heap and raised its peak memory
    resolved.update(config=serialize.digest_float_lists(cfg),
                    versions=serialize.versions())
    try:
        paths = serialize.write_outputs(prefix, csv_text, resolved)
    except OSError as exc:
        print(f"error writing outputs: {exc}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and building it costs more than a parse."""
    parser = argparse.ArgumentParser(
        prog="homavg", description="weighted-averaging experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", help="path to a JSON experiment config")
    runp.add_argument("--out", default=None, help="output path prefix")
    runp.add_argument("--threads", type=int, default=1,
                      help="worker threads (never changes results)")
    sub.add_parser("presets", help="list named presets")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "presets":
        print(presets.list_presets(), end="")
        return 0
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"the top level must be an object, not {type(cfg).__name__}")
    except OSError as exc:
        print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, not a JSON object, or nested too deeply to read
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        return run_config(cfg, args.out, max(1, args.threads))
    except PresetError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    except RecursionError:       # a document nested too deeply to read or to record
        print("config: nested too deeply", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
