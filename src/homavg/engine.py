"""Weighted averaging operators and their deviation diagnostics.

The rescaled operator averages an observable along the flow with the weight
measure stretched by t:  (A_t f)(x) = Int f(T_{r t} x) dnu(r).  This module
estimates how far A_t f sits from the space mean, three ways:

* nested Monte Carlo for the L1 deviation (with an explicit inner-bias bound),
* the exact spectral channel  ||A_t f||_2 = (Int |nu_hat(t r)|^2 dsigma)^(1/2)
  on the cyclic subspace of f,
* pair-correlation integrals  Int Int rho(t (r - s)) dnu(r) dnu(s),
  by difference-distribution sampling and exactly against a pair view of
  r - s: its exact density, or the kink walk over its digit law.

Scans across a t-grid derive one seed per grid point, so results are
bitwise independent of the number of worker threads.
"""

from __future__ import annotations

import functools
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import rng
from .flows import TorusWinding
from .measures import DigitPairs, PiecewiseLinearDensity, WeightMeasure, require_atomless
from .quadrature import BLOCK
from .spectral import (BochnerCorrelation, BoxAutocorrelation, CorrelationModel,
                       Observable, SpectralModel, SpikeCorrelation)

DESCENT_SLACK = 1e-9
PROBE_META_SPIKES = 64   # per-spike probe masses go into metadata up to this count
WILSON_Z = 3.0           # the z of the hit share's upper bound in a sampled spike error


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


def _inner_means(flow: TorusWinding, observable: Observable, weight: WeightMeasure,
                 t: float, xb: np.ndarray, n_r: int, seed: int, path: tuple) -> np.ndarray:
    """The observable averaged over n_r draws of the weight at each point of
    ``xb``, (A_t f)(x) by Monte Carlo, the draws from the stream ``path``;
    the observable's ``orbit_mean`` takes at most max(BLOCK, n_r) pairs at once."""
    rs = weight._sample(len(xb) * n_r, seed, path).reshape(len(xb), n_r)
    alpha, rows = np.asarray(flow.alpha), max(1, BLOCK // max(n_r, 1))
    out = np.empty(len(xb))
    for i in range(0, len(xb), rows):
        out[i:i + rows] = observable.orbit_mean(xb[i:i + rows], t * rs[i:i + rows], alpha)
    return out


def l1_deviation(flow: TorusWinding, observable: Observable,
                 weight: WeightMeasure, t: float, n_x: int = 10_000,
                 n_r: int = 10_000, seed: int = 0) -> DeviationEstimate:
    """E_x | (A_t f)(x) - mean f |, nested Monte Carlo.  The weight is drawn
    per block of 8e6 (point, draw) pairs, each block from its own stream, and
    the inner averages evaluated per chunk of ``quadrature.BLOCK`` pairs."""
    require_atomless(weight, "weighted averaging")
    d = flow.dimension
    xs = rng.generator(seed, rng.OUTER_POINTS).random((n_x, d))
    block = max(1, int(8e6) // max(n_r, 1))
    devs = np.empty(n_x)
    for b, start in enumerate(range(0, n_x, block)):
        xb = xs[start:start + block]
        inner = _inner_means(flow, observable, weight, t, xb, n_r, seed, (rng.INNER_WEIGHT, b))
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
    block = max(1, int(4e6) // max(n_r, 1))
    prods = np.empty(n_x)
    for b, start in enumerate(range(0, n_x, block)):
        xb = xs[start:start + block]
        halves = [_inner_means(flow, observable, weight, t, xb, n_r, seed,
                               (rng.INNER_WEIGHT, b, half)) - observable.mean for half in (0, 1)]
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


def _spectral_power(spectrum: SpectralModel, multiplier, t: float, tol: float,
                    power: int = 1) -> tuple[float, float]:
    """(Int |g(t r)|^(2 power) dsigma(r), quadrature difference of its band
    term), g = nu_hat for a weight measure, or a magnitude callable.  The
    atoms take |g(t r)|^(2 power).  A weight's band term is band.mass at
    t = 0 (nu_hat(0) = 1), else its own exact ``band_term``, difference 0.
    Where that is None, for a callable or without a band, all of it goes to
    ``spectrum.expect`` at ``tol``, g(t r) oscillating at frequency t times
    the support width of nu (t for a callable)."""
    power = operator.index(power)
    band, term = spectrum.band, None
    if isinstance(multiplier, WeightMeasure):
        require_atomless(multiplier, "spectral channel")
        lo, hi = multiplier.support()
        mag = lambda r: np.abs(multiplier.char_fn(t * r))
        frequency = t * max(hi - lo, 1e-9)
        if band is not None:
            term = band.mass if t == 0.0 else multiplier.band_term(band, t, power)
    else:
        mag = lambda r: np.abs(np.asarray(multiplier(t * r), dtype=float))
        frequency = t
    fn = lambda r: mag(r) ** (2 * power)
    if term is None:
        return spectrum.expect(fn, tol, frequency)
    return spectrum.atom_sum(fn) + term, 0.0


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
    lhs, _ = _spectral_power(spectrum, weight, t, tol)
    rhs, _ = _spectral_power(spectrum, weight, t, tol, power=order)
    rhs = rhs ** (1.0 / order)
    return DescentReport(lhs, rhs, order, lhs <= rhs + DESCENT_SLACK)


# ---------------------------------------------------------------------------
# difference distributions: pair views of the law of r - s
# ---------------------------------------------------------------------------

def difference_density(measure: WeightMeasure) -> PiecewiseLinearDensity | DigitPairs | None:
    """The pair view of r - s for independent r, s ~ measure, its
    ``pair_view()``: the exact density of a density weight, error 0, or the
    kink walk over a digit law (``DigitPairs``); None where pairs are
    sampled.  Each view answers ``mass(a, b)``, ``pair_integral`` and
    ``spike_probe``, a walk declining (None) where sampling costs less."""
    return measure.pair_view()


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
    integrates a spike or box correlation rho(t u) exactly against the pair
    view of the difference u = r - s (``difference_density``): the exact
    density of a density weight, the kink walk over the digit law of a
    self-similar weight with M ratio <= 1.  Under
    ``auto`` the walk takes a t only when it computes no more than the
    sampler does for ``n_samples`` pairs.  For a ``BochnerCorrelation`` it
    is the Parseval twin of the spectral channel,
    Int |nu_hat(t r)|^2 dsigma(r), evaluated for any weight as
    ``l2_norm_spectral`` does.  Any other correlation, or
    a weight without a pair view, is sampled under ``auto`` and raises
    TypeError under ``quadrature``.  The two paths must agree within their
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
        kernel = isinstance(correlation, (SpikeCorrelation, BoxAutocorrelation))
        view = difference_density(weight) if kernel else None
        draws = None if method == "quadrature" else n_samples
        exact = None if view is None else _pair_quadrature(correlation, view, float(t), draws)
        if exact is not None:
            return exact
        if method == "quadrature":
            raise TypeError(f"no pair quadrature for {type(correlation).__name__}"
                            f" and {type(weight).__name__}")
    return _pair_sampling(correlation, t,
                          _pair_differences(weight, n_samples, seed))


def _pair_differences(weight: WeightMeasure, n_samples: int,
                      seed: int) -> np.ndarray:
    """``n_samples`` draws of r - s for independent r, s ~ ``weight``."""
    return (weight._sample(n_samples, seed, (rng.PAIR_LEFT,))
            - weight._sample(n_samples, seed, (rng.PAIR_RIGHT,)))


def _pair_sampling(correlation: CorrelationModel, t: float,
                   u: np.ndarray) -> PairIntegral:
    """The mean of rho(t u) over the drawn differences ``u``, with error
    std / sqrt(n).  A spike correlation equals its baseline outside the
    spike windows, so when few pairs hit one the sample std understates the
    spread; its error is at least H sqrt(p_up / n), H the largest |height|
    and p_up the Wilson upper bound (z = WILSON_Z) of the share of hits,
    the pairs whose value leaves the baseline: the excess over the baseline
    has variance at most H^2 p.  At t = 0 no pair hits, every window lying
    off 0, and the error stays std / sqrt(n)."""
    vals = np.asarray(correlation.value(t * u), dtype=float)
    n = len(u)
    error = float(vals.std() / np.sqrt(n))
    if isinstance(correlation, SpikeCorrelation) and correlation.centers and t != 0:
        share = np.count_nonzero(vals != correlation.baseline) / n
        z2 = WILSON_Z ** 2
        p_up = (share + z2 / (2 * n) + WILSON_Z * np.sqrt(
            share * (1 - share) / n + z2 / (4 * n * n))) / (1 + z2 / n)
        error = max(error, float(np.max(np.abs(correlation.arrays[2])) * np.sqrt(p_up / n)))
    return PairIntegral(float(vals.mean()), error, "sampling")


def _pair_quadrature(correlation, view, t: float, draws=None) -> PairIntegral | None:
    """Exact pair integral of a spike or box correlation against the pair
    view of r - s, with the view's error; None when the view declines at
    ``draws`` sampled pairs.  Both correlations are even in t, so they are
    integrated at |t|, and the view integrates rho(t u) less the spike
    baseline."""
    got = view.pair_integral(correlation, abs(t), draws)
    if got is None:
        return None
    baseline = correlation.baseline if isinstance(correlation, SpikeCorrelation) else 0.0
    return PairIntegral(baseline + got[0], got[1], "quadrature")


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


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The process's pool of ``threads`` workers: started on first use and
    kept while the process lives, so a scan pays no thread start or join."""
    return ThreadPoolExecutor(max_workers=threads)


# A forked child inherits the pools but not their threads: it starts its own.
if hasattr(os, "register_at_fork"):     # absent where there is no fork
    os.register_at_fork(after_in_child=_pool.cache_clear)


def convergence_scan(evaluator: Callable[[float, int], tuple[float, float]],
                     t_grid, seed: int = 0, threads: int = 1,
                     metadata: dict | None = None) -> DecayCurve:
    """Evaluate ``evaluator(t, point_seed)`` over a strictly increasing grid.

    Point seeds derive from (seed, index), so the curve is bitwise identical
    for any thread count.  A point that raises is flagged: its value and
    error become NaN and its index lands in metadata['failed_points'].
    With ``threads > 1`` the points run on the process's pool of that many
    workers (``_pool``), so an evaluator must not itself run a threaded
    scan: its points would wait for workers that are busy waiting on them.
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
        results = list(_pool(threads).map(run, tasks))
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
    the spikes at all: metadata records for every t the diagonal-band mass
    (nu x nu){ |t (r - s)| < band_halfwidth } and the captured spike mass
    (nu x nu){ t (r - s) in [h_j - L_j, h_j + L_j] }, as a total and, for at
    most ``PROBE_META_SPIKES`` spikes, per spike.

    The pair view of r - s (``difference_density``) is built once per
    probe.  The density of a density weight gives the pair integral
    and every mass exactly; the kink walk over a digit law gives them
    exactly too, with the masses as differences of one cumulative
    walk over all interval ends, at every t where the two walks compute no
    more than the sampler does for ``n_samples`` pairs.  Otherwise each
    grid point draws one set of pair differences, and the masses are counts
    among the same draws that the sampled pair integral averages over.
    """
    require_atomless(weight, "almost-mixing probe")
    grid = tuple(float(t) for t in t_grid)
    view = difference_density(weight)
    h, L, _ = spike.arrays
    lo = np.append(h - L, -band_halfwidth)     # the spike windows, then the band
    hi = np.append(h + L, band_halfwidth)
    band_masses: dict[float, float] = {}
    spike_masses: dict[float, dict] = {}

    def evaluator(t, point_seed):
        # the view is even, so the masses are taken at |t|; at t = 0 every
        # t (r - s) is 0, which the sampling branch counts without dividing by t
        exact = None
        if view is not None and t != 0.0:
            exact = view.spike_probe(spike, abs(t), lo, hi, n_samples)
        if exact is not None:
            # the view integrates the deviation itself: adding the baseline
            # and taking it off again would cost an ulp of the baseline
            value, error, masses = exact
            deviation = abs(value)
            per, band = masses[:-1], masses[-1]
        else:
            u = _pair_differences(weight, n_samples, point_seed)
            result = _pair_sampling(spike, t, u)
            deviation, error = abs(result.value - spike.baseline), result.error
            tu = np.sort(t * u)
            band = (np.searchsorted(tu, band_halfwidth, side="left")
                    - np.searchsorted(tu, -band_halfwidth, side="right")) / len(tu)
            per = (np.searchsorted(tu, hi[:-1], side="right")
                   - np.searchsorted(tu, lo[:-1], side="left")) / len(tu)
        band_masses[t] = float(band)
        spike_masses[t] = {"total": float(per.sum())}
        if len(per) <= PROBE_META_SPIKES:
            spike_masses[t]["per_spike"] = per.tolist()
        return deviation, error

    meta = {"baseline": spike.baseline, "band_halfwidth": band_halfwidth,
            "kind": "almost-mixing-probe", "n_samples": n_samples}
    curve = convergence_scan(evaluator, grid, seed=seed, threads=threads,
                             metadata=meta)
    curve.metadata["band_mass"] = [band_masses.get(t) for t in grid]
    curve.metadata["spike_mass"] = [spike_masses.get(t) for t in grid]
    return curve
