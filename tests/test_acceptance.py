"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line with its measured figures.  Tolerances are pinned
here, not deferred; every randomized check runs under a fixed seed."""

import time

import numpy as np
from scipy.signal import fftconvolve

from homavg import (BochnerCorrelation, FrequencyBand, SpectralModel,
                    TableDensity, Triangular, Uniform,
                    arithmetic_spikes, build_adversarial_measure, convolve,
                    cos_mode, descent_check, geometric_grid,
                    geometric_spikes, golden_winding, l1_deviation,
                    l2_norm_spectral, almost_mixing_probe,
                    pair_correlation_integral, rescale,
                    spectrum_of_observable, verify_non_almost_mixing)
from homavg.cli import run_config
from homavg.flows import BoxSet
from homavg.measures import SelfSimilar

CANTOR = SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))


def report(name: str, checks: list[tuple[bool, str]]):
    passed = all(ok for ok, _ in checks)
    print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    for ok, msg in checks:
        assert ok, f"{name}: {msg}"


def random_spectral(rng, allow_band=True) -> SpectralModel:
    k = int(rng.integers(1, 4))
    masses = rng.dirichlet(np.ones(k))
    freqs = rng.uniform(-8.0, 8.0, size=k)
    if allow_band and rng.random() < 0.5:
        lo, hi = np.sort(rng.uniform(-4.0, 4.0, size=2))
        if hi - lo > 0.05:
            share = float(rng.uniform(0.2, 0.8))
            atoms = tuple((float(w), float(m * (1 - share)))
                          for w, m in zip(freqs, masses))
            return SpectralModel(atoms=atoms,
                                 band=FrequencyBand(float(lo), float(hi), share))
    return SpectralModel(atoms=tuple(
        (float(w), float(m)) for w, m in zip(freqs, masses)))


def random_weight(rng):
    kind = rng.integers(0, 5)
    if kind == 0:
        a = float(rng.uniform(-1, 1))
        return Uniform(a, a + float(rng.uniform(0.2, 2.0)))
    if kind == 1:
        a = float(rng.uniform(-1, 0))
        return Triangular(a, a + float(rng.uniform(0.5, 2.0)))
    if kind == 2:
        return TableDensity(0.0, float(rng.uniform(0.5, 2.0)),
                            rng.random(int(rng.integers(8, 64))))
    if kind == 3:
        return CANTOR
    return rescale(Uniform(0, 1), float(rng.uniform(0.3, 3.0)))


def test_criterion_1_uniform_weight_decay():
    flow = golden_winding()
    obs = cos_mode(2, 1)
    spectrum = spectrum_of_observable(flow, obs)
    weight = Uniform(0, 1)
    grid = [10.0, 100.0, 1000.0, 10000.0]
    start = time.perf_counter()
    spectral = [l2_norm_spectral(spectrum, weight, t) for t in grid]
    elapsed = time.perf_counter() - start
    checks = [
        (all(a > b for a, b in zip(spectral, spectral[1:])),
         f"spectral values not strictly decreasing: {spectral}"),
        (spectral[-1] < 0.01, f"final value {spectral[-1]} >= 0.01"),
        (elapsed < 1.0, f"spectral evaluation took {elapsed:.3f}s >= 1s"),
    ]
    # the 2/|xi| envelope of the uniform-weight transform backs the bound
    xi = 2 * np.pi * flow.alpha[1] * grid[-1]
    checks.append((abs(weight.char_fn(xi)) <= 2.0 / abs(xi),
                   "transform exceeded its 2/|xi| envelope"))
    for t, sval in zip(grid, spectral):
        dev = l1_deviation(flow, obs, weight, t, n_x=2000, n_r=2000, seed=101)
        checks.append((dev.value <= sval + 3.0 * dev.error,
                       f"t={t}: L1 {dev.value} > spectral {sval} + 3 err"))
    report(f"criterion 1: spectral decay {spectral[0]:.4f} -> "
           f"{spectral[-1]:.2e} in {elapsed * 1e3:.1f} ms", checks)


def test_criterion_2_descent_inequality():
    start = time.perf_counter()
    closed = descent_check(SpectralModel(band=FrequencyBand(0.0, 1.0, 1.0)),
                           lambda r: np.asarray(r, float), t=1.0, order=2)
    checks = [
        (abs(closed.lhs - 1.0 / 3.0) < 1e-12,
         f"closed-form lhs {closed.lhs} != 1/3"),
        (abs(closed.rhs - np.sqrt(0.2)) < 1e-12,
         f"closed-form rhs {closed.rhs} != sqrt(1/5)"),
    ]
    rng = np.random.default_rng(202)
    failures = 0
    for k in range(200):
        spec = random_spectral(rng)
        weight = random_weight(rng)
        order = int(rng.choice([2, 3, 5]))
        t = float(rng.uniform(0.1, 50.0))
        rep = descent_check(spec, weight, t=t, order=order)
        failures += 0 if rep.passed else 1
    elapsed = time.perf_counter() - start
    checks.append((failures == 0, f"{failures}/200 randomized instances failed"))
    checks.append((elapsed < 10.0, f"took {elapsed:.2f}s >= 10s"))
    report(f"criterion 2: descent inequality 200/200 in {elapsed:.2f}s", checks)


def test_criterion_3_convolution_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(20):
        a, b = random_weight(rng), random_weight(rng)
        xi = rng.uniform(-60.0, 60.0, size=50)
        gap = np.max(np.abs(convolve(a, b).char_fn(xi)
                            - a.char_fn(xi) * b.char_fn(xi)))
        worst = max(worst, float(gap))
    n = 1 << 14
    cells = np.full(n, 1.0 / n)
    oracle = fftconvolve(cells, cells)
    edges = np.clip((np.arange(2 * n) + 0.5) / n / 2.0, 0.0, 1.0)
    tri_cdf = np.where(edges < 0.5, 2.0 * edges ** 2, 1.0 - 2.0 * (1.0 - edges) ** 2)
    tri_masses = np.diff(tri_cdf)
    l1 = float(np.abs(oracle - tri_masses).sum())
    elapsed = time.perf_counter() - start
    checks = [
        (worst < 1e-9, f"char product mismatch {worst:.2e} >= 1e-9"),
        (l1 < 1e-3, f"uniform*uniform vs triangular L1 {l1:.2e} >= 1e-3"),
        (elapsed < 30.0, f"took {elapsed:.2f}s >= 30s"),
    ]
    report(f"criterion 3: product law gap {worst:.1e}, grid L1 {l1:.1e}, "
           f"{elapsed:.2f}s", checks)


def test_criterion_4_pair_integral_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    checks = []
    disagreements = 0
    for k in range(50):
        weight = random_weight(rng)
        while isinstance(weight, SelfSimilar):
            weight = random_weight(rng)  # quadrature path needs a density
        if rng.random() < 0.5:
            model = geometric_spikes(growth=float(rng.uniform(3, 12)),
                                     halfwidth=float(rng.uniform(0.05, 0.3)),
                                     height=float(rng.uniform(0.5, 2.0)),
                                     count=5, baseline=0.3)
        else:
            model = BochnerCorrelation(random_spectral(rng, allow_band=False))
        t = float(rng.uniform(2.0, 200.0))
        quad = pair_correlation_integral(model, weight, t, method="quadrature")
        samp = pair_correlation_integral(model, weight, t, method="sampling",
                                         n_samples=20_000, seed=500 + k)
        if abs(quad.value - samp.value) > 3.0 * (quad.error + samp.error) + 1e-12:
            disagreements += 1
    checks.append((disagreements == 0,
                   f"{disagreements}/50 sampling-vs-quadrature disagreements"))
    flow = golden_winding()
    bridge_worst = 0.0
    for k in range(20):
        spec = random_spectral(rng, allow_band=False)
        weight = Uniform(0, 1) if k % 2 else TableDensity(
            0.0, 1.0, rng.random(32))
        t = float(rng.uniform(1.0, 100.0))
        pair = pair_correlation_integral(BochnerCorrelation(spec), weight, t,
                                         method="quadrature", tol=1e-9)
        bridge_worst = max(bridge_worst, abs(
            pair.value - l2_norm_spectral(spec, weight, t) ** 2))
    elapsed = time.perf_counter() - start
    checks.append((bridge_worst < 1e-6,
                   f"transform bridge off by {bridge_worst:.2e} >= 1e-6"))
    checks.append((elapsed < 60.0, f"took {elapsed:.2f}s >= 60s"))
    report(f"criterion 4: 50/50 path agreements, bridge gap "
           f"{bridge_worst:.1e}, {elapsed:.2f}s", checks)


def test_criterion_5_spike_localization():
    start = time.perf_counter()
    weight = Uniform(0, 1)
    grid = geometric_grid(10.0, 10.0, 5)  # 10 .. 10^5
    sparse = geometric_spikes(growth=10.0, halfwidth=0.25, height=1.0,
                              count=7, baseline=0.25)
    decay = almost_mixing_probe(sparse, weight, grid)
    dense = arithmetic_spikes(step=1.0, halfwidth=0.25, height=1.0,
                              count=100_001, baseline=0.25)
    flat = almost_mixing_probe(dense, weight, grid)
    elapsed = time.perf_counter() - start
    ratio_sparse = decay.values[-1] / decay.values[0]
    ratio_dense = flat.values[-1] / flat.values[0]
    checks = [
        (ratio_sparse < 0.05,
         f"sparse-spike curve ratio {ratio_sparse:.4f} >= 0.05"),
        (ratio_dense > 0.5,
         f"dense-progression curve ratio {ratio_dense:.4f} <= 0.5"),
        (elapsed < 60.0, f"took {elapsed:.2f}s >= 60s"),
    ]
    report(f"criterion 5: sparse ratio {ratio_sparse:.1e}, dense ratio "
           f"{ratio_dense:.3f}, {elapsed:.2f}s", checks)


def test_criterion_6_rigidity_construction():
    start = time.perf_counter()
    flow = golden_winding()
    box = BoxSet((0.5, 0.5))
    plan = build_adversarial_measure(flow, box, 4)
    checks = [(plan.failure_level is None, "plan did not reach depth 4")]
    plan.check_invariants()
    checks.append((True, "invariants hold"))
    estimates = verify_non_almost_mixing(plan, n_samples=100_000, seed=606)
    for e in estimates:
        n = e.level
        lower = 0.25 - 1.0 / n - 2.0 ** (-n + 1) - 3.0 * e.mc_std_error
        checks.append((e.mc_value >= lower,
                       f"level {n}: estimate {e.mc_value:.4f} < bound {lower:.4f}"))
        checks.append((abs(e.mc_value - e.quad_value) <= 3.0 * e.mc_std_error,
                       f"level {n}: MC and quadrature disagree"))
        if n >= 2:
            checks.append((e.mc_value > 1.0 / 16.0,
                           f"level {n}: estimate {e.mc_value:.4f} <= 1/16"))
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 120.0, f"took {elapsed:.2f}s >= 120s"))
    final = estimates[-1]
    report(f"criterion 6: depth-4 plan, level-4 estimate "
           f"{final.mc_value:.4f} vs mixing {final.mixing_value:.4f}, "
           f"{elapsed:.2f}s", checks)


def test_criterion_7_singular_weight_evidence():
    spectrum = SpectralModel(atoms=((1.0, 1.0),))
    scales = [2 * np.pi * 3.0 ** k for k in range(10)]
    values = [l2_norm_spectral(spectrum, CANTOR, t) for t in scales]
    oracle = [abs(CANTOR.char_fn(t)) for t in scales]
    gap = max(abs(v - o) for v, o in zip(values, oracle))
    checks = [
        (gap < 1e-8, f"spectral values off the transform oracle by {gap:.2e}"),
    ]
    floor = min(values)
    report(f"criterion 7: values stay >= {floor:.4f} along tripling scales "
           f"(recorded non-decay; oracle gap {gap:.1e})", checks)


def test_criterion_8_thread_count_determinism(tmp_path):
    configs = {
        "avg": {"kind": "avg-scan", "flow": "winding-golden",
                "measure": "uniform[0,1]", "observable": "cos-x2",
                "grid": {"start": 10, "factor": 10, "count": 4}, "seed": 808},
        "mc": {"kind": "avg-scan", "flow": "winding-golden",
               "measure": "uniform[0,1]", "observable": "cos-x2",
               "evaluator": "l1-mc", "samples": {"n_x": 300, "n_r": 300},
               "grid": {"start": 10, "factor": 10, "count": 3}, "seed": 808},
        "root": {"kind": "convolution-root", "measure": "cantor-thirds",
                 "flow": "winding-golden", "observable": "cos-x2",
                 "power": 2, "grid": {"start": 1, "factor": 10, "count": 3},
                 "seed": 808},
        "probe": {"kind": "almost-mixing-probe", "measure": "uniform[0,1]",
                  "correlation": "spike(10,0.25,1)",
                  "grid": {"start": 10, "factor": 10, "count": 4}, "seed": 808},
        "adv": {"kind": "adversary", "flow": "winding-golden",
                "box": [0.5, 0.5], "depth": 3,
                "samples": {"n_pairs": 20000}, "seed": 808},
    }
    checks = []
    for name, cfg in configs.items():
        blobs = []
        for threads in (1, 4):
            prefix = tmp_path / f"{name}-t{threads}"
            assert run_config(cfg, str(prefix), threads) == 0
            blobs.append((prefix.with_suffix(".csv").read_bytes(),
                          prefix.with_suffix(".meta").read_bytes()))
        checks.append((blobs[0] == blobs[1],
                       f"{name}: outputs differ across thread counts"))
    report("criterion 8: byte-identical outputs across thread counts "
           f"({len(configs)} experiment kinds)", checks)
