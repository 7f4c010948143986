"""Weighted averaging operators and their deviation diagnostics.

The rescaled operator averages an observable along the flow with the weight
measure stretched by t:  (A_t f)(x) = Int f(T_{r t} x) dnu(r).  This module
estimates how far A_t f sits from the space mean, three ways:

* nested Monte Carlo for the L1 deviation (with an explicit inner-bias bound),
* the exact spectral channel  ||A_t f||_2 = (Int |nu_hat(t r)|^2 dsigma)^(1/2)
  on the cyclic subspace of f,
* pair-correlation integrals  Int Int rho(t (r - s)) dnu(r) dnu(s),
  by difference-distribution sampling and by exact piecewise quadrature.

Scans across a t-grid derive one seed per grid point, so results are
bitwise independent of the number of worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import sici

from . import rng
from .flows import TorusWinding
from .measures import (Scaled, TableDensity, Triangular, TruncatedGaussian,
                       Uniform, WeightMeasure, require_atomless)
from .quadrature import adaptive_gl, oscillation_cells
from .spectral import (BochnerCorrelation, CorrelationModel, FrequencyBand,
                       Observable, SpectralModel, SpikeCorrelation)

DESCENT_SLACK = 1e-9


def _point_seed(master: int, index: int) -> int:
    return int(rng.seed_sequence(master, 1000 + index).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Monte Carlo averaging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointAverage:
    value: float
    std_error: float


@dataclass(frozen=True)
class DeviationEstimate:
    """Nested-MC deviation with the inner bias made explicit.

    The outer average of |inner mean - space mean| is biased upward by at
    most sup|f| / sqrt(n_r); ``error`` adds that bound to the statistical
    standard error so downstream inequalities stay honest.
    """

    value: float
    std_error: float
    bias_bound: float

    @property
    def error(self) -> float:
        return self.std_error + self.bias_bound


def weighted_average_pointwise(flow: TorusWinding, observable: Observable,
                               weight: WeightMeasure, t: float, x,
                               n_r: int = 10_000, seed: int = 0) -> PointAverage:
    """Monte Carlo estimate of Int f(T_{r t} x) dnu(r) at one point x."""
    require_atomless(weight, "weighted averaging")
    r = weight.sample(n_r, seed)
    vals = observable(flow.advance(x, t * r))
    return PointAverage(float(np.mean(vals)),
                        float(np.std(vals) / np.sqrt(n_r)))


def l1_deviation(flow: TorusWinding, observable: Observable,
                 weight: WeightMeasure, t: float, n_x: int = 10_000,
                 n_r: int = 10_000, seed: int = 0) -> DeviationEstimate:
    """E_x | (A_t f)(x) - mean f |, nested Monte Carlo."""
    require_atomless(weight, "weighted averaging")
    d = flow.dimension
    xs = rng.generator(seed, rng.OUTER_POINTS).random((n_x, d))
    block = max(1, int(8e6) // max(n_r, 1))
    devs = np.empty(n_x)
    for b, start in enumerate(range(0, n_x, block)):
        xb = xs[start:start + block]
        rs = weight._sample(len(xb) * n_r, seed, (rng.INNER_WEIGHT, b))
        rs = rs.reshape(len(xb), n_r)
        pts = np.mod(xb[:, None, :] + (t * rs)[:, :, None] * np.asarray(flow.alpha), 1.0)
        inner = observable(pts).mean(axis=1)
        devs[start:start + len(xb)] = np.abs(inner - observable.mean)
    return DeviationEstimate(float(devs.mean()),
                             float(devs.std() / np.sqrt(n_x)),
                             float(observable.sup_norm / np.sqrt(n_r)))


def l2_deviation_mc(flow: TorusWinding, observable: Observable,
                    weight: WeightMeasure, t: float, n_x: int = 2_000,
                    n_r: int = 2_000, seed: int = 0) -> PointAverage:
    """Monte Carlo ||A_t f - mean f||_2 via two independent inner halves.

    E[(inner_a - m)(inner_b - m)] = ((A_t f)(x) - m)^2 exactly, so the outer
    mean of the half products is an unbiased estimate of the squared norm
    with no inner-noise floor.
    """
    require_atomless(weight, "weighted averaging")
    d = flow.dimension
    xs = rng.generator(seed, rng.OUTER_POINTS).random((n_x, d))
    alpha = np.asarray(flow.alpha)
    block = max(1, int(4e6) // max(n_r, 1))
    prods = np.empty(n_x)
    for b, start in enumerate(range(0, n_x, block)):
        xb = xs[start:start + block]
        halves = []
        for half in (0, 1):
            rs = weight._sample(len(xb) * n_r, seed, (rng.INNER_WEIGHT, b, half))
            rs = rs.reshape(len(xb), n_r)
            pts = np.mod(xb[:, None, :] + (t * rs)[:, :, None] * alpha, 1.0)
            halves.append(observable(pts).mean(axis=1) - observable.mean)
        prods[start:start + len(xb)] = halves[0] * halves[1]
    est = float(prods.mean())
    spread = float(prods.std() / np.sqrt(n_x))
    value = float(np.sqrt(max(est, 0.0)))
    err = 0.5 * spread / value if value > np.sqrt(spread) > 0 else float(np.sqrt(spread))
    return PointAverage(value, err)


# ---------------------------------------------------------------------------
# spectral channel
# ---------------------------------------------------------------------------

def l2_norm_spectral(spectrum: SpectralModel, weight: WeightMeasure,
                     t: float, tol: float = 1e-8) -> float:
    """||A_t f||_2 on the cyclic subspace carried by ``spectrum``:
    the square root of Int |nu_hat(t r)|^2 dsigma(r)."""
    total, _ = _spectral_power(spectrum, weight, float(t), tol)
    return float(np.sqrt(max(total, 0.0)))


def _spectral_power(spectrum: SpectralModel, weight: WeightMeasure, t: float,
                    tol: float) -> tuple[float, float]:
    """(Int |nu_hat(t r)|^2 dsigma(r), quadrature difference of its band
    term).  Atoms are exact; the band term is ``_band_power``."""
    total, error = 0.0, 0.0
    if spectrum.atoms:
        w = np.array([w for w, _ in spectrum.atoms])
        m = np.array([m for _, m in spectrum.atoms])
        total += float(m @ (np.abs(weight.char_fn(t * w)) ** 2))
    if spectrum.band is not None:
        val, error = _band_power(spectrum.band, weight, t, tol)
        total += val
    return total, error


def _exact_difference(weight: WeightMeasure) -> bool:
    """Whether ``difference_density`` is exact for ``weight``, decided from
    its type before anything is built."""
    while isinstance(weight, Scaled):
        weight = weight.inner
    return isinstance(weight, (Uniform, TableDensity))


def _band_power(band: FrequencyBand, weight: WeightMeasure, t: float,
                tol: float) -> tuple[float, float]:
    """(Int |nu_hat(t r)|^2 band.density(r) dr, quadrature difference).

    When the difference density g of the weight is exactly piecewise
    linear, |nu_hat|^2 is its cosine transform, so a band cell [c, c'] of
    density d contributes exactly d (F(t c') - F(t c)) / t with
    F = ``g.si_transform``: the cost does not grow with t.  Every other
    weight integrates adaptively at ``tol``.
    """
    if _exact_difference(weight):
        if t == 0.0:
            return band.mass, 0.0
        g, _ = difference_density(weight)
        edges, dens = band.cells()
        return float(dens @ np.diff(g.si_transform(t * edges))) / t, 0.0
    lo, hi = weight.support()
    cells = oscillation_cells(band.hi - band.lo, t * max(hi - lo, 1e-9))
    val, diff = adaptive_gl(
        lambda r: np.abs(weight.char_fn(t * r)) ** 2 * band.density(r),
        band.lo, band.hi, tol, cells=cells)
    return val.real, diff


@dataclass(frozen=True)
class DescentReport:
    lhs: float
    rhs: float
    order: int
    passed: bool


def descent_check(spectrum: SpectralModel, weight, t: float = 1.0,
                  order: int = 2, tol: float = 1e-11) -> DescentReport:
    """Convolution-root descent inequality on the spectral side:

        Int |g(t r)|^2 dsigma  <=  ( Int |g(t r)|^(2 order) dsigma )^(1/order)

    with g the multiplier magnitude (|nu_hat| for a weight measure, or any
    synthetic magnitude callable).  Holds for every probability sigma by
    Jensen; ``passed`` allows 1e-9 slack for quadrature roundoff.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if isinstance(weight, WeightMeasure):
        lo, hi = weight.support()
        diam = max(hi - lo, 1e-9)
        mag = lambda r: np.abs(weight.char_fn(t * r))
    else:
        diam = 1.0
        mag = lambda r: np.abs(np.asarray(weight(t * r), dtype=float))
    cells = 2
    if spectrum.band is not None:
        cells = oscillation_cells(spectrum.band.hi - spectrum.band.lo, t * diam)
    if isinstance(weight, WeightMeasure):
        lhs, _ = _spectral_power(spectrum, weight, t, tol)
    else:
        lhs = spectrum.expect(lambda r: mag(r) ** 2, tol=tol, cells=cells)
    rhs = spectrum.expect(lambda r: mag(r) ** (2 * order), tol=tol, cells=cells)
    rhs = rhs ** (1.0 / order)
    return DescentReport(lhs, rhs, order, lhs <= rhs + DESCENT_SLACK)


# ---------------------------------------------------------------------------
# difference distributions (piecewise-linear densities of r - s)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseLinearDensity:
    """Continuous piecewise-linear density, zero outside its knot range."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __call__(self, u):
        return np.interp(u, self.knots, self.values, left=0.0, right=0.0)

    def mass(self, a: float, b: float) -> float:
        """Integral over [a, b] (exact for the piecewise-linear shape)."""
        if b <= a:
            return 0.0
        k = np.asarray(self.knots)
        pts = np.unique(np.concatenate(
            ([a, b], k[(k > a) & (k < b)])))
        vals = self(pts)
        return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(pts)))

    def si_transform(self, lam) -> np.ndarray:
        """F(lam) = Int g(u) sin(lam u) / u du for an array of ``lam``.

        Exact per knot segment: with g = p + q u there, the segment gives
        p [Si(lam u)] - q [cos(lam u)] / lam, the cosine difference taken as
        -2 sin(lam m) sin(lam h) with m, h the segment's midpoint and half
        width, so small lam loses nothing and F(0) = 0.
        """
        k = np.asarray(self.knots)
        v = np.asarray(self.values)
        q = np.diff(v) / np.diff(k)
        p = v[:-1] - q * k[:-1]
        mid, half = 0.5 * (k[1:] + k[:-1]), 0.5 * np.diff(k)
        lam = np.asarray(lam, dtype=float)[:, None]
        si, _ = sici(lam * k)
        dcos_over_lam = -2.0 * np.sin(lam * mid) * half * np.sinc(lam * half / np.pi)
        return np.diff(si, axis=1) @ p - dcos_over_lam @ q


def _cell_masses(measure) -> tuple[np.ndarray, float]:
    """(masses, cell width) of a piecewise-constant view of a density
    measure; exact only where ``_exact_difference`` says so."""
    if isinstance(measure, Uniform):
        return np.array([1.0]), measure.b - measure.a
    if isinstance(measure, TableDensity):
        delta = (measure.hi - measure.lo) / len(measure.masses)
        return measure.masses.copy(), delta
    if isinstance(measure, (Triangular, TruncatedGaussian)):
        lo, hi = measure.support()
        cells = 4096
        edges = np.linspace(lo, hi, cells + 1)
        masses = np.diff(measure.cdf(edges))
        return masses, (hi - lo) / cells
    raise TypeError(f"no density view for {type(measure).__name__}")


def difference_density(measure: WeightMeasure) -> tuple[PiecewiseLinearDensity, bool]:
    """Density of r - s for independent r, s ~ measure, as an exactly
    piecewise-linear function (exact flag False when the measure had to be
    quantized first).  Raises TypeError when no density view exists."""
    if isinstance(measure, Scaled):
        inner, exact = difference_density(measure.inner)
        f = measure.factor
        return PiecewiseLinearDensity(tuple(k * f for k in inner.knots),
                                      tuple(v / f for v in inner.values)), exact
    masses, delta = _cell_masses(measure)
    corr = np.correlate(masses, masses, mode="full")
    n = len(masses)
    knots = delta * np.arange(-n, n + 1)
    vals = np.concatenate(([0.0], corr / delta, [0.0]))
    return PiecewiseLinearDensity(tuple(knots), tuple(vals)), _exact_difference(measure)


def _tri_eval(u, t, hv, lv):
    """Triangular bump 1 - ||t u| - h| / L, clipped at zero; vectorized."""
    return np.maximum(0.0, 1.0 - np.abs(np.abs(t * np.asarray(u)) - hv) / lv)


def _simpson_band(g: PiecewiseLinearDensity, t, hv, lv, a, b):
    """Exact Simpson for Int g(u) * bump(u) du over segments [a, b] on which
    both factors are linear (their product is quadratic)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    return (b - a) / 6.0 * (g(a) * _tri_eval(a, t, hv, lv)
                            + 4.0 * g(mid) * _tri_eval(mid, t, hv, lv)
                            + g(b) * _tri_eval(b, t, hv, lv))


def _spike_band_integrals(g: PiecewiseLinearDensity, spike: SpikeCorrelation,
                          t: float) -> np.ndarray:
    """Int bump_j(|t u|) g(u) du for every spike, both signs of u, exact.

    Bands never straddle a bump kink other than the apex (h - L > 0), so a
    two-segment Simpson is exact unless a g-knot falls into the band; those
    few bands get their breakpoints merged in explicitly.
    """
    h = np.asarray(spike.centers)
    L = np.asarray(spike.halfwidths)
    knots = np.asarray(g.knots)
    out = np.zeros(len(h))
    for sign in (1.0, -1.0):
        if sign > 0:
            lo, hi, apex = (h - L) / t, (h + L) / t, h / t
        else:
            lo, hi, apex = -(h + L) / t, -(h - L) / t, -h / t
        lo = np.maximum(lo, knots[0])
        hi = np.minimum(hi, knots[-1])
        idx = np.nonzero(hi > lo)[0]
        if len(idx) == 0:
            continue
        a, b = lo[idx], hi[idx]
        ap = np.clip(apex[idx], a, b)
        hv, lv = h[idx], L[idx]
        crossed = np.searchsorted(knots, a, side="right") != \
            np.searchsorted(knots, b, side="left")
        res = np.zeros(len(idx))
        plain = ~crossed
        res[plain] = (_simpson_band(g, t, hv[plain], lv[plain], a[plain], ap[plain])
                      + _simpson_band(g, t, hv[plain], lv[plain], ap[plain], b[plain]))
        for j in np.nonzero(crossed)[0]:
            inner = knots[(knots > a[j]) & (knots < b[j])]
            pts = np.unique(np.concatenate(([a[j], ap[j], b[j]], inner)))
            res[j] = float(np.sum(_simpson_band(
                g, t, hv[j], lv[j], pts[:-1], pts[1:])))
        out[idx] += res
    return out


# ---------------------------------------------------------------------------
# pair-correlation integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairIntegral:
    value: float
    error: float
    method: str


def pair_correlation_integral(correlation: CorrelationModel,
                              weight: WeightMeasure, t: float,
                              method: str = "auto", n_samples: int = 10_000,
                              seed: int = 0, tol: float = 1e-7) -> PairIntegral:
    """Int Int rho(t (r - s)) dnu(r) dnu(s).

    ``sampling`` draws independent pairs and averages; ``quadrature``
    integrates rho(t u) against the exact piecewise-linear density of the
    difference u = r - s (available when nu has a density view).  For a
    ``BochnerCorrelation`` it is the Parseval twin of the spectral channel,
    Int |nu_hat(t r)|^2 dsigma(r), evaluated for any weight as
    ``l2_norm_spectral`` does.  The two paths must agree within their
    combined errors.
    """
    require_atomless(weight, "pair correlation")
    if method not in ("auto", "sampling", "quadrature"):
        raise ValueError("method must be auto, sampling or quadrature")
    if method in ("auto", "quadrature"):
        if isinstance(correlation, BochnerCorrelation):
            value, error = _spectral_power(correlation.spectrum, weight,
                                           float(t), tol)
            return PairIntegral(value, error, "quadrature")
        try:
            g, exact = difference_density(weight)
        except TypeError:
            if method == "quadrature":
                raise
            g = None
        if g is not None:
            return _pair_quadrature(correlation, g, exact, float(t), tol)
    r = weight._sample(n_samples, seed, (rng.PAIR_LEFT,))
    s = weight._sample(n_samples, seed, (rng.PAIR_RIGHT,))
    vals = np.asarray(correlation.value(t * (r - s)), dtype=float)
    return PairIntegral(float(vals.mean()),
                        float(vals.std() / np.sqrt(n_samples)), "sampling")


def _pair_quadrature(correlation, g: PiecewiseLinearDensity, exact: bool,
                     t: float, tol: float) -> PairIntegral:
    if isinstance(correlation, SpikeCorrelation):
        contributions = _spike_band_integrals(g, correlation, t)
        value = correlation.baseline + float(
            np.asarray(correlation.heights) @ contributions)
        return PairIntegral(value, 0.0 if exact else 1e-4, "quadrature")
    lo, hi = g.knots[0], g.knots[-1]
    cells = oscillation_cells(hi - lo, abs(t), minimum=max(8, len(g.knots)))
    val, diff = adaptive_gl(
        lambda u: np.asarray(correlation.value(t * u), dtype=float) * g(u),
        lo, hi, tol, cells=cells)
    return PairIntegral(float(val.real), diff + (0.0 if exact else 1e-4),
                        "quadrature")


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayCurve:
    """A sampled map t -> deviation with per-point errors and reproduction
    metadata.  Serializes to CSV with a `t,value,error` header at 17
    significant digits."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.grid) != len(self.values) or len(self.grid) != len(self.errors):
            raise ValueError("grid, values and errors must align")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        for e in self.errors:
            if not np.isnan(e) and e < 0:
                raise ValueError("errors must be nonnegative")

    def to_csv(self) -> str:
        lines = ["t,value,error"]
        for t, v, e in zip(self.grid, self.values, self.errors):
            lines.append(f"{t:.17g},{v:.17g},{e:.17g}")
        return "\n".join(lines) + "\n"


def geometric_grid(start: float, factor: float, count: int) -> tuple[float, ...]:
    if count < 2:
        raise ValueError("grid needs at least 2 points")
    if start <= 0 or factor <= 1.0:
        raise ValueError("grid needs start > 0 and factor > 1")
    return tuple(start * factor ** k for k in range(count))


def convergence_scan(evaluator: Callable[[float, int], tuple[float, float]],
                     t_grid, seed: int = 0, threads: int = 1,
                     metadata: dict | None = None) -> DecayCurve:
    """Evaluate ``evaluator(t, point_seed)`` over a strictly increasing grid.

    Point seeds derive from (seed, index), so the curve is bitwise identical
    for any thread count.  A point that raises is flagged: its value and
    error become NaN and its index lands in metadata['failed_points'].
    """
    grid = tuple(float(t) for t in t_grid)
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t grid must be strictly increasing with >= 2 points")

    def run(idx_t):
        idx, t = idx_t
        try:
            value, error = evaluator(t, _point_seed(seed, idx))
            return idx, float(value), float(error), None
        except Exception as exc:  # noqa: BLE001 - flagged per point
            return idx, float("nan"), float("nan"), repr(exc)

    tasks = list(enumerate(grid))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(task) for task in tasks]
    results.sort(key=lambda r: r[0])
    values = tuple(r[1] for r in results)
    errors = tuple(r[2] for r in results)
    meta = dict(metadata or {})
    meta["seed"] = int(seed)
    failed = {r[0]: r[3] for r in results if r[3] is not None}
    if failed:
        meta["failed_points"] = failed
    return DecayCurve(grid, values, errors, meta)


def almost_mixing_probe(spike: SpikeCorrelation, weight: WeightMeasure,
                        t_grid, band_halfwidth: float = 1.0,
                        n_samples: int = 10_000, seed: int = 0,
                        threads: int = 1) -> DecayCurve:
    """Per grid point, |pair integral - baseline| for a spike correlation,
    plus bookkeeping of where the weight's difference distribution can see
    the spikes at all: metadata records the diagonal-band mass
    (nu x nu){ |t (r - s)| < band_halfwidth } and the per-spike captured
    mass (nu x nu){ t (r - s) in [h_j - L_j, h_j + L_j] } for every t.
    """
    require_atomless(weight, "almost-mixing probe")
    grid = tuple(float(t) for t in t_grid)
    try:
        g, _ = difference_density(weight)
    except TypeError:
        g = None

    h = np.asarray(spike.centers)
    L = np.asarray(spike.halfwidths)
    band_masses: dict[int, float] = {}
    spike_masses: dict[int, dict] = {}

    def evaluator(t, point_seed):
        result = pair_correlation_integral(spike, weight, t, seed=point_seed,
                                           n_samples=n_samples)
        idx = grid.index(t)
        if g is not None:
            band_masses[idx] = g.mass(-band_halfwidth / t, band_halfwidth / t)
            per = np.array([g.mass((hj - lj) / t, (hj + lj) / t)
                            for hj, lj in zip(h, L)]) if len(h) <= 64 else None
            if per is None:
                lo_all = (h - L) / t
                hi_all = (h + L) / t
                total = float(sum(g.mass(a, b) for a, b in zip(lo_all, hi_all)
                                  if a < g.knots[-1] and b > g.knots[0]))
                spike_masses[idx] = {"total": total}
            else:
                spike_masses[idx] = {"total": float(per.sum()),
                                     "per_spike": [float(v) for v in per]}
        else:
            u = (weight._sample(n_samples, point_seed, (rng.PAIR_LEFT,))
                 - weight._sample(n_samples, point_seed, (rng.PAIR_RIGHT,)))
            band_masses[idx] = float(np.mean(np.abs(t * u) < band_halfwidth))
            if len(h) <= 64:
                per = [float(np.mean((t * u >= hj - lj) & (t * u <= hj + lj)))
                       for hj, lj in zip(h, L)]
                spike_masses[idx] = {"total": float(np.sum(per)), "per_spike": per}
        return abs(result.value - spike.baseline), result.error

    meta = {"baseline": spike.baseline, "band_halfwidth": band_halfwidth,
            "kind": "almost-mixing-probe", "n_samples": n_samples}
    curve = convergence_scan(evaluator, grid, seed=seed, threads=threads,
                             metadata=meta)
    curve.metadata["band_mass"] = [band_masses.get(i) for i in range(len(grid))]
    curve.metadata["spike_mass"] = [spike_masses.get(i) for i in range(len(grid))]
    return curve
