"""Layer tracer: wraps the public calls into each homavg module in spans.

Installed around each traced config from the benchmark's own files and
removed after it; the library's files are not edited.  A wrapper goes into
every homavg module namespace that binds the original function (``engine``,
``measures`` and ``spectral`` each bind their own ``adaptive_gl``), and in
as a class attribute for the per-class hooks that the engine calls directly
(``_char``, ``_sample``, ``PiecewiseLinearDensity.mass``, the exact-slope
methods, observable evaluation).

Each span records name, start, end, parent span, thread id, config id and
a few counts.  Spans stay in memory; ``write`` dumps them when the run ends.
The parent is the open span on the same thread, so the points a scan runs
in its worker threads start their own trees there.  Self time is a span's
duration minus its direct children's durations (children nest, so no
interval union is needed).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from functools import wraps

# Measure families by class name, named as in the serialized documents.
FAMILIES = {
    "Uniform": "uniform", "Triangular": "triangular",
    "TruncatedGaussian": "gauss-trunc", "TableDensity": "table",
    "SelfSimilar": "self-similar", "NestedIntervals": "nested-intervals",
    "Convolution": "convolution", "Scaled": "scaled", "PointMass": "point-mass",
}
FLOAT_BYTES = 8


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.config_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, counts=None, rename=None, cpu=False):
        """Run fn(*args, **kwargs) inside a span.  ``counts(args, kwargs,
        result)`` returns the span's counts; ``rename(result)`` may refine
        the span name once the result is known; ``cpu`` adds the process
        CPU seconds spent during the span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        cpu_start = time.process_time() if cpu else 0.0
        start = time.perf_counter()
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
        finally:
            end = time.perf_counter()
            stack.pop()
            if raised:
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), self.config_id,
                                   {"raised": 1}))
        extra = counts(args, kwargs, result) if counts else None
        if cpu:
            extra = {**(extra or {}), "cpu_s": time.process_time() - cpu_start}
        if rename:
            name = rename(result)
        self.spans.append((span_id, name, start, end, parent,
                           threading.get_ident(), self.config_id, extra))
        return result

    def wrap(self, name, fn, counts=None, rename=None, cpu=False):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counts, rename, cpu)

        return wrapper

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "config", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- aggregation ---------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for span_id, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return {s[0]: (s[3] - s[2]) - covered.get(s[0], 0.0) for s in self.spans}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

_MISSING = object()


class Patches:
    """Installed wrappers, so that ``undo`` restores the library exactly."""

    def __init__(self, tracer: Tracer, modules):
        self.tracer = tracer
        self.modules = modules
        self.saved: list[tuple] = []

    def _set(self, owner, attr, value) -> None:
        self.saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def function(self, module, attr, name, counts=None, rename=None, cpu=False) -> None:
        """Wrap a module-level function in every namespace that binds it."""
        original = getattr(module, attr)
        wrapper = self.tracer.wrap(name, original, counts, rename, cpu)
        bound = [(mod, key) for mod in self.modules
                 for key, val in vars(mod).items() if val is original]
        for mod, key in bound:
            self._set(mod, key, wrapper)

    def method(self, cls, attr, name, counts=None) -> None:
        """Wrap a method as a class attribute (inherited ones included)."""
        self._set(cls, attr, self.tracer.wrap(name, getattr(cls, attr), counts))

    def undo(self) -> None:
        for owner, attr, value in reversed(self.saved):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self.saved.clear()


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def install(tracer: Tracer) -> Patches:
    """Patch homavg in place; ``.undo()`` on the result removes the spans."""
    from homavg import (adversary, cli, engine, flows, measures, presets,
                        quadrature, serialize, spectral)
    patch = Patches(tracer, [adversary, cli, engine, flows, measures, presets,
                             quadrature, serialize, spectral])
    fn = patch.function

    fn(cli, "main", "cli.main")

    for attr in ("resolve_measure", "resolve_flow", "resolve_spectral",
                 "resolve_correlation", "resolve_observable"):
        fn(presets, attr, "presets.resolve")

    def written_bytes(args, kwargs, result):
        return {"bytes": sum(p.stat().st_size for p in result)}
    fn(serialize, "write_outputs", "serialize.write", counts=written_bytes)
    for attr in ("plan_to_doc", "level_report_csv", "versions"):
        fn(serialize, attr, "serialize.write")

    # quadrature: nodes counted per fixed_gl pass; adaptive_gl records the
    # nodes of its accepted (last) pass.
    def fixed_counts(args, kwargs, result):
        cells = _arg(args, kwargs, 3, "cells")
        order = _arg(args, kwargs, 4, "order", 64)
        tracer._local.last_nodes = cells * order
        return {"nodes": cells * order}
    fn(quadrature, "fixed_gl", "quadrature.fixed_gl", counts=fixed_counts)
    fn(quadrature, "adaptive_gl", "quadrature.adaptive_gl",
       counts=lambda a, k, r: {"accepted_nodes": getattr(tracer._local, "last_nodes", 0)})

    for cls_name, family in FAMILIES.items():
        cls = getattr(measures, cls_name)
        patch.method(cls, "_char", f"measures.char_fn.{family}",
                     counts=lambda a, k, r: {"freqs": len(a[1])})
        patch.method(cls, "_sample", f"measures.sample.{family}",
                     counts=lambda a, k, r: {"draws": int(a[1])})

    fn(engine, "convergence_scan", "engine.convergence_scan", cpu=True)
    fn(engine, "almost_mixing_probe", "engine.almost_mixing_probe")
    fn(engine, "l2_norm_spectral", "engine.l2_norm_spectral")
    fn(engine, "descent_check", "engine.descent_check")
    fn(engine, "difference_density", "engine.difference_density")

    def l1_counts(args, kwargs, result):
        flow = args[0]
        n_x = _arg(args, kwargs, 4, "n_x", 10_000)
        n_r = _arg(args, kwargs, 5, "n_r", 10_000)
        block = max(1, int(8e6) // max(n_r, 1))
        rows = min(block, n_x)
        return {"pairs": n_x * n_r,
                "block_bytes": rows * n_r * flow.dimension * FLOAT_BYTES}
    fn(engine, "l1_deviation", "engine.l1_deviation", counts=l1_counts)
    fn(engine, "pair_correlation_integral", "engine.pair_correlation_integral",
       rename=lambda r: f"engine.pair_correlation_integral.{r.method}")
    patch.method(engine.PiecewiseLinearDensity, "mass", "engine.density_mass")

    patch.method(spectral.SpectralModel, "expect", "spectral.expect")
    obs_counts = lambda a, k, r: {"points": int(getattr(r, "size", 1))}
    for cls in (spectral.FourierObservable, spectral.BoxIndicator):
        patch.method(cls, "__call__", "spectral.observable", counts=obs_counts)

    fn(flows, "rigidity_times", "flows.rigidity_times")
    fn(flows, "arc_overlap", "flows.arc_overlap")
    for attr in ("frac_multiple", "lattice_distance"):
        patch.method(flows.QuadraticIrrational, attr, "flows.exact")
    patch.method(flows.QuadraticIrrational, "_dist_fixed", "flows.exact",
                 counts=lambda a, k, r: {"zero_dist": int(r[0] == 0)})

    def built(args, kwargs, result):
        return {"levels_built": len(result.levels),
                "levels_requested": result.requested_depth}
    fn(adversary, "build_adversarial_measure", "adversary.build", counts=built)
    fn(adversary, "verify_non_almost_mixing", "adversary.verify",
       counts=lambda a, k, r: {"pairs": _arg(a, k, 1, "n_samples", 100_000) * len(r)})
    fn(adversary, "correlation_deviation", "adversary.correlation_deviation")
    fn(adversary, "_exact_distance", "adversary.exact_distance")
    fn(adversary, "_quadrature_level_value", "adversary.quad_level")
    return patch
