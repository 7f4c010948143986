"""The benchmark's four workloads: seed-driven config generators.

A workload is a list of templates.  One *round* issues every template once,
in order; the closed loop repeats rounds until the measuring time is spent.
The seed fixes every config's ``seed`` field and draws parameters from fixed
menus (box sides, weight endpoints, the grid start within its decade).  The
grid-start multiplier of each template cycles through ``START_MENU`` in a
seed-shuffled order, so every block of three rounds carries the same work
whatever the seed: the menus vary the inputs, never the amount of work.
"""

from __future__ import annotations

import random

START_MENU = (1.0, 1.2, 1.45)               # grid start within its decade
SHIFT_MENU = (0.0, 0.25, 0.5, 1.0, 2.0)     # weight left endpoints (a shift keeps |nu_hat|)
BOX_MENU = ((0.5, 0.5), (0.4, 0.6), (0.3, 0.5), (0.6, 0.45), (0.25, 0.25))
SPIKE_GROWTH_MENU = (8.0, 10.0, 12.0)

DENSE_EXACT_SPIKES = 50_001      # arithmetic spikes probed on a 3-knot density
DENSE_QUANTIZED_SPIKES = 65      # ... and on an 8193-knot quantized density
MC_N_R = 1000
PROBE_PAIRS = 20_000
ADVERSARY_PAIRS = 150_000
ADVERSARY_DEPTH = 4

GOLDEN_SLOPE = (5 ** 0.5 - 1) / 2
PELL_SLOPE = 2 ** 0.5 - 1
SLOPES = {"winding-golden": GOLDEN_SLOPE, "winding-pell": PELL_SLOPE}


def _grid(start: float, factor: float, count: int) -> dict:
    return {"start": start, "factor": factor, "count": count}


def _arithmetic_spikes(count: int) -> dict:
    """Inline spike document on the progression 1, 2, ..., count."""
    centers = [float(j + 1) for j in range(count)]
    return {"type": "spike", "baseline": 0.25, "centers": centers,
            "halfwidths": [0.25] * count, "heights": [1.0] * count,
            "growth": count / (count - 1.0) * (1.0 - 1e-12)}


class Draw:
    """Seeded menu picks for one config."""

    def __init__(self, rng: random.Random, start: float):
        self.rng = rng
        self.start = start

    def pick(self, menu):
        return menu[self.rng.randrange(len(menu))]

    def uniform(self) -> str:
        c = self.pick(SHIFT_MENU)
        return f"uniform[{c},{c + 1}]"

    def triangular(self) -> str:
        c = self.pick(SHIFT_MENU)
        return f"triangular[{c},{c + 2}]"

    def gauss(self) -> str:
        c = self.pick(SHIFT_MENU)
        return f"gauss-trunc[{c + 0.5},0.2,{c},{c + 1}]"

    def quantized(self) -> str:
        """A weight whose difference density is quantized to 4096 cells."""
        return self.triangular() if self.rng.random() < 0.5 else self.gauss()

    def box(self) -> list[float]:
        return list(self.pick(BOX_MENU))


# Each template: (name, builder).  A builder returns the config body without
# ``seed``; the generator adds it.  Names are stable identifiers used by the
# checks and in the trace output.

def _band(kind, measure, start, factor, count, **extra):
    return {"kind": kind, "spectral": "spectral-lebesgue", "measure": measure,
            "grid": _grid(start, factor, count), **extra}


def _atoms(kind, flow, measure, start, factor, count, **extra):
    return {"kind": kind, "flow": flow, "observable": "cos-x2",
            "measure": measure, "grid": _grid(start, factor, count), **extra}


def _mc(flow, observable, measure, d: Draw, n_x: int):
    """Sample sizes per weight family keep each config near the same cost;
    every n_x * n_r stays below the engine's 8e6-element block."""
    return {"kind": "avg-scan", "evaluator": "l1-mc", "flow": flow,
            "observable": observable, "measure": measure,
            "grid": _grid(10 * d.start, 10, 3), "samples": {"n_x": n_x, "n_r": MC_N_R}}


def _indicator(d: Draw) -> str:
    a, b = d.box()
    return f"indicator[{a},{b}]"


def _probe(correlation, measure, grid):
    return {"kind": "almost-mixing-probe", "correlation": correlation,
            "measure": measure, "grid": grid, "samples": {"n_pairs": PROBE_PAIRS}}


def _sparse(d: Draw) -> str:
    return f"spike({d.pick(SPIKE_GROWTH_MENU)},0.25,1)"


def _adversary(flow, d: Draw):
    return {"kind": "adversary", "flow": flow, "box": d.box(),
            "depth": ADVERSARY_DEPTH, "samples": {"n_pairs": ADVERSARY_PAIRS}}


WORKLOADS = {
    "spectral-decay": [
        ("band-uniform", lambda d: _band("spectral-scan", d.uniform(), 10 * d.start, 10, 4)),
        ("band-triangular", lambda d: _band("spectral-scan", d.triangular(), 10 * d.start, 20, 3)),
        ("band-gauss", lambda d: _band("spectral-scan", d.gauss(), d.start, 2, 2)),
        ("band-cantor", lambda d: _band("spectral-scan", "cantor-thirds", 10 * d.start, 5, 3)),
        ("golden-gauss", lambda d: _atoms("spectral-scan", "winding-golden", d.gauss(), 10 * d.start, 10, 3)),
        ("root-band-uniform", lambda d: _band("convolution-root", d.uniform(), 10 * d.start, 20, 3, power=2)),
        ("root-band-triangular", lambda d: _band("convolution-root", d.triangular(), 10 * d.start, 20, 3, power=3)),
        ("root-golden-gauss", lambda d: _atoms("convolution-root", "winding-golden", d.gauss(), 10 * d.start, 10, 3, power=2)),
    ],
    "mc-deviation": [
        ("cos-golden-uniform", lambda d: _mc("winding-golden", "cos-x2", d.uniform(), d, 800)),
        ("cos-pell-gauss", lambda d: _mc("winding-pell", "cos-x2", d.gauss(), d, 400)),
        ("cos-golden-cantor", lambda d: _mc("winding-golden", "cos-x2", "cantor-thirds", d, 200)),
        ("box-pell-uniform", lambda d: _mc("winding-pell", _indicator(d), d.uniform(), d, 800)),
        ("box-golden-gauss", lambda d: _mc("winding-golden", _indicator(d), d.gauss(), d, 400)),
        ("box-pell-cantor", lambda d: _mc("winding-pell", _indicator(d), "cantor-thirds", d, 200)),
    ],
    "spike-probe": [
        ("dense-uniform", lambda d: _probe(_arithmetic_spikes(DENSE_EXACT_SPIKES), d.uniform(),
                                           _grid(100 * d.start, 10, 3))),
        ("dense-quantized", lambda d: _probe(_arithmetic_spikes(DENSE_QUANTIZED_SPIKES), d.quantized(),
                                             _grid(10 * d.start, 10, 2))),
        ("sparse-cantor", lambda d: _probe(_sparse(d), "cantor-thirds", _grid(10 * d.start, 5, 4))),
        ("sparse-uniform", lambda d: _probe(_sparse(d), d.uniform(), _grid(10 * d.start, 3, 6))),
        ("sparse-triangular", lambda d: _probe(_sparse(d), d.triangular(), _grid(10 * d.start, 3, 6))),
        ("sparse-gauss", lambda d: _probe(_sparse(d), d.gauss(), _grid(10 * d.start, 3, 6))),
    ],
    "rigidity-adversary": [
        ("golden", lambda d: _adversary("winding-golden", d)),
        ("pell", lambda d: _adversary("winding-pell", d)),
    ],
}

# The config re-run per benchmark run for the determinism gate (same seed
# with --threads 2, then with --threads 1).
DETERMINISM_TEMPLATE = {
    "spectral-decay": "band-gauss",
    "mc-deviation": "cos-pell-gauss",
    "spike-probe": "sparse-cantor",
    "rigidity-adversary": "golden",
}


class ConfigStream:
    """Deterministic, endless sequence of (template name, config) by round."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise KeyError(workload)
        self.templates = WORKLOADS[workload]
        self.key = f"{workload}:{seed}"
        self.rng = random.Random(self.key)
        self.start_orders = []
        for _ in self.templates:
            order = list(START_MENU)
            self.rng.shuffle(order)
            self.start_orders.append(order)

    def round(self, index: int) -> list[tuple[str, dict]]:
        return [self._config(name, build, order[index % len(order)], self.rng)
                for (name, build), order in zip(self.templates, self.start_orders)]

    def top_round(self) -> list[tuple[str, dict]]:
        """One config per template at the largest grid start, drawn from a
        separate stream so the timed rounds stay the same."""
        rng = random.Random(f"{self.key}:top")
        return [self._config(name, build, max(START_MENU), rng)
                for name, build in self.templates]

    @staticmethod
    def _config(name, build, start, rng) -> tuple[str, dict]:
        cfg = build(Draw(rng, start))
        cfg["seed"] = rng.getrandbits(32)
        return name, cfg


def preset_specs(cfgs) -> list[tuple[str, object]]:
    """Every (field, spec) a batch of configs names, deduplicated in order."""
    seen, out = set(), []
    for cfg in cfgs:
        for field in ("measure", "flow", "spectral", "correlation", "observable"):
            if field in cfg:
                spec = cfg[field]
                key = (field, spec if isinstance(spec, str) else id(spec))
                if key not in seen:
                    seen.add(key)
                    out.append((field, spec))
    return out
