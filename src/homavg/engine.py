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

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable

import numpy as np
from scipy.special import sici

from . import rng
from .flows import TorusWinding, arc_overlap_integral
from .measures import WeightMeasure, require_atomless
from .quadrature import GL_NODES, GL_WEIGHTS
from .spectral import (BochnerCorrelation, BoxAutocorrelation, CorrelationModel,
                       Observable, SpectralModel, SpikeCorrelation)

DESCENT_SLACK = 1e-9
PROBE_META_SPIKES = 64   # per-spike probe masses go into metadata up to this count
SPIKE_BLOCK = 4096       # spikes per breakpoint array: bounds the pair kernel's memory


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


def _spectral_power(spectrum: SpectralModel, multiplier, t: float, tol: float,
                    power: int = 1) -> tuple[float, float]:
    """(Int |g(t r)|^(2 power) dsigma(r), quadrature difference of its band
    term), g = nu_hat for a weight measure, or a magnitude callable.

    The band term takes the first path the weight's ``difference_law()`` allows:

    * at ``power`` 1, when the law's difference density is exact, |nu_hat|^2
      is its cosine transform, so a band cell [c, c'] of density d
      contributes exactly d (F(t c') - F(t c)) / t with F = ``si_transform``;
    * when the law has a sinc form |nu_hat(xi)| = |sinc(q xi)|^m,
      |g(t r)|^(2 power) = sinc^n(lam r) with lam = |t| q and
      n = 2 m power, and the cell contributes d I_n(lam c, lam c') / lam
      with I_n = ``_sinc_power_integral``;
    * everything else goes to ``spectrum.expect`` at ``tol``, with g(t r)
      oscillating at frequency t times the support width of nu (t for a
      callable).

    The two closed forms report difference 0, and their cost does not grow
    with t.
    """
    power = operator.index(power)
    law = None
    if isinstance(multiplier, WeightMeasure):
        require_atomless(multiplier, "spectral channel")
        lo, hi = multiplier.support()
        mag = lambda r: np.abs(multiplier.char_fn(t * r))
        frequency = t * max(hi - lo, 1e-9)
        law = multiplier.difference_law()
    else:
        mag = lambda r: np.abs(np.asarray(multiplier(t * r), dtype=float))
        frequency = t
    fn = lambda r: mag(r) ** (2 * power)
    si_path = power == 1 and law is not None and law.exact
    form = None if si_path or law is None else law.sinc
    if form is not None:
        lam, n = abs(t) * form[0], 2 * form[1] * power
        fn = lambda r: np.sinc(lam * np.asarray(r, dtype=float) / np.pi) ** n
    band = spectrum.band
    if band is None or (not si_path and form is None):
        return spectrum.expect(fn, tol, frequency)
    total = spectrum.atom_sum(fn)
    if t == 0.0:
        return total + band.mass, 0.0
    edges, dens = band.cells()
    if si_path:
        g, _ = difference_density(multiplier)
        return total + float(dens @ np.diff(g.si_transform(t * edges))) / t, 0.0
    cells = _sinc_power_integral(n, lam * edges[:-1], lam * edges[1:])
    return total + float(dens @ cells) / lam, 0.0


_SINC_NEAR = 40          # sinc^n is integrated by quadrature up to x = 2 n + _SINC_NEAR
_SINC_TERMS = 40         # terms of each asymptotic tail series
_SINC_BLOCK = 1 << 20    # quadrature nodes evaluated at once


@lru_cache(maxsize=16)
def _sinc_power_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constants of ``_sinc_power_integral`` for one even n: composite
    Gauss-Legendre nodes and weights on [0, 1] (n + 20 cells of 64 nodes),
    and the a_k of sin^n x = sum_{k=0}^{n/2} a_k cos(2 k x)."""
    cells = n + _SINC_NEAR // 2
    nodes = ((np.arange(cells)[:, None] + 0.5 * (GL_NODES + 1.0)) / cells).ravel()
    weights = np.tile(0.5 * GL_WEIGHTS / cells, cells)
    m = n // 2
    coef = np.array([comb(n, m) / 2 ** n]
                    + [(-1) ** k * comb(n, m - k) / 2 ** (n - 1) for k in range(1, m + 1)])
    for arr in (nodes, weights, coef):      # shared by every caller through the cache
        arr.flags.writeable = False
    return nodes, weights, coef


def _sinc_power_integral(n: int, a, b) -> np.ndarray:
    """Int_a^b sinc^n(x) dx, sinc(x) = sin(x) / x, for even n >= 2,
    elementwise over arrays a <= b.  The cost is bounded in n and does not
    depend on a or b.

    The integrand is even and nonnegative, so [a, b] folds onto one or two
    pieces [A, B] in [0, inf), and with X0 = 2 n + 40

        Int_A^B = Q(min(A, X0), min(B, X0)) + T(max(A, X0)) - T(max(B, X0)).

    Q is a fixed composite Gauss-Legendre rule on its own interval, no cell
    wider than 2, so a piece far from 0 keeps its relative precision.  T is
    the tail Int_X^inf for X >= X0: with w = 2k,
    T(X) = a_0 X^(1-n) / (n-1) + sum_k a_k Re Int_X^inf e^(i w x) x^-n dx,
    each integral its asymptotic series
    i e^(i w X) X^-n / w sum_j (n)_j (-i / (w X))^j.  At w X >= 4 n + 80 the
    terms fall geometrically, and 40 of them leave a remainder far below
    rounding.  (Integrating by parts down to Si(2 k X) instead is exact, but
    cancels catastrophically in floating point from about n = 12.)
    """
    nodes, weights, coef = _sinc_power_rule(n)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    # the pieces [lo, hi]: [min |.|, max |.|] per cell, and a cell across 0
    # is [0, |a|] + [0, b], its second piece appended after all the others
    across = (a < 0.0) & (b > 0.0)
    near, far = np.minimum(np.abs(a), np.abs(b)), np.maximum(np.abs(a), np.abs(b))
    lo = np.concatenate((np.where(across, 0.0, near), np.zeros(np.count_nonzero(across))))
    hi = np.concatenate((far, near[across]))
    x0 = 2 * n + _SINC_NEAR
    out = (_sinc_power_tail(n, coef, np.maximum(lo, x0))
           - _sinc_power_tail(n, coef, np.maximum(hi, x0)))
    qa, qb = np.minimum(lo, x0), np.minimum(hi, x0)
    live = np.flatnonzero(qb > qa)
    step = max(1, _SINC_BLOCK // len(nodes))
    for first in range(0, len(live), step):
        idx = live[first:first + step]
        span = qb[idx] - qa[idx]
        pts = qa[idx, None] + span[:, None] * nodes     # > 0: the nodes are interior
        out[idx] += span * ((np.sin(pts) / pts) ** n @ weights)
    out = np.maximum(out, 0.0)      # rounding must not make a piece negative
    total = out[:a.size]
    total[across] += out[a.size:]
    return total.reshape(shape)


def _sinc_power_tail(n: int, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Int_x^inf sinc^n(u) du for an array x >= 2 n + 40 (see
    ``_sinc_power_integral``)."""
    xs = x[:, None]
    w = 2.0 * np.arange(1, n // 2 + 1)
    ratios = (n + np.arange(_SINC_TERMS - 1)) * (-1j / (w * xs))[..., None]
    series = 1.0 + np.cumprod(ratios, axis=-1).sum(axis=-1)
    waves = (1j * np.exp(1j * w * xs) * xs ** -n / w * series).real
    return coef[0] * x ** (1 - n) / (n - 1) + waves @ coef[1:]


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
# difference distributions (piecewise-linear densities of r - s)
# ---------------------------------------------------------------------------

class PiecewiseLinearDensity:
    """Continuous piecewise-linear density, zero outside its knot range.

    ``knots`` and ``values`` are read-only float64 arrays fixed at
    construction, and ``cumulative`` holds the integral G from the first
    knot up to each knot, so G is piecewise quadratic in between.
    """

    def __init__(self, knots, values):
        self.knots = np.array(knots, dtype=float)
        self.values = np.array(values, dtype=float)
        self.cumulative = np.concatenate(([0.0], np.cumsum(
            0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.knots))))
        for a in (self.knots, self.values, self.cumulative):
            a.flags.writeable = False

    def __call__(self, u):
        return np.interp(u, self.knots, self.values, left=0.0, right=0.0)

    def mass(self, a, b):
        """Integral over [a, b], elementwise over array arguments and 0
        where b <= a; a float for scalar arguments.

        This is G(b) - G(a), exact for the piecewise-linear shape.  The
        knots strictly between a and b come in as one difference of
        ``cumulative``, the partial segments at either end as trapezoids, so
        an interval inside one knot segment keeps its relative precision.
        """
        k, v = self.knots, self.values
        a, b = np.broadcast_arrays(np.clip(a, k[0], k[-1]), np.clip(b, k[0], k[-1]))
        out = np.zeros(a.shape)
        live = b > a
        a, b = a[live], b[live]
        ia = np.minimum(np.searchsorted(k, a, side="right") - 1, len(k) - 2)
        ib = np.minimum(np.searchsorted(k, b, side="right") - 1, len(k) - 2)
        ga, gb = self(a), self(b)
        inside = 0.5 * (ga + gb) * (b - a)
        across = (0.5 * (ga + v[ia + 1]) * (k[ia + 1] - a)
                  + (self.cumulative[ib] - self.cumulative[ia + 1])
                  + 0.5 * (v[ib] + gb) * (b - k[ib]))
        out[live] = np.where(ia == ib, inside, across)
        return float(out) if out.ndim == 0 else out

    def si_transform(self, lam) -> np.ndarray:
        """F(lam) = Int g(u) sin(lam u) / u du for an array of ``lam``.

        Exact per knot segment: with g = p + q u there, the segment gives
        p [Si(lam u)] - q [cos(lam u)] / lam, the cosine difference taken as
        -2 sin(lam m) sin(lam h) with m, h the segment's midpoint and half
        width, so small lam loses nothing and F(0) = 0.
        """
        k, v = self.knots, self.values
        q = np.diff(v) / np.diff(k)
        p = v[:-1] - q * k[:-1]
        mid, half = 0.5 * (k[1:] + k[:-1]), 0.5 * np.diff(k)
        lam = np.asarray(lam, dtype=float)[:, None]
        si, _ = sici(lam * k)
        dcos_over_lam = -2.0 * np.sin(lam * mid) * half * np.sinc(lam * half / np.pi)
        return np.diff(si, axis=1) @ p - dcos_over_lam @ q


def difference_density(measure: WeightMeasure) -> tuple[PiecewiseLinearDensity, bool] | None:
    """Density of r - s for independent r, s ~ measure, exactly piecewise
    linear from the cells of its ``difference_law()``, with the law's exact
    flag (False for a quantized measure); None when it has no law."""
    law = measure.difference_law()
    if law is None:
        return None
    masses, delta = law.cells()
    corr = np.correlate(masses, masses, mode="full")
    knots = delta * np.arange(-len(masses), len(masses) + 1)
    vals = np.concatenate(([0.0], corr / delta, [0.0]))
    for f in law.factors:
        knots, vals = knots * f, vals / f
    return PiecewiseLinearDensity(knots, vals), law.exact


def _tri_eval(u, t, hv, lv):
    """Triangular bump 1 - ||t u| - h| / L, clipped at zero; vectorized."""
    return np.maximum(0.0, 1.0 - np.abs(np.abs(t * np.asarray(u)) - hv) / lv)


def _spike_band_integrals(g: PiecewiseLinearDensity, h: np.ndarray,
                          L: np.ndarray, t: float) -> np.ndarray:
    """Int bump_j(|t u|) g(u) du for every spike (centers ``h``, halfwidths
    ``L``), both signs of u, exact.

    A spike band [a_j, b_j] on one side of u = 0 (h - L > 0), clipped to the
    support of g, splits at its apex and at the g-knots inside it into
    segments on which both factors are linear.  The breakpoints of a block
    of J spikes go band after band into one array, at most 3J + K long and
    laid out without a sort; Simpson is exact on each of its segments, and
    ``np.bincount`` adds the segments up per spike.
    """
    knots = g.knots
    out = np.zeros(len(h))
    for first_spike in range(0, len(h), SPIKE_BLOCK):
        block = slice(first_spike, first_spike + SPIKE_BLOCK)
        hb, lb = h[block], L[block]
        for sign in (1.0, -1.0):
            if sign > 0:
                lo, hi = (hb - lb) / t, (hb + lb) / t
            else:
                lo, hi = -(hb + lb) / t, -(hb - lb) / t
            lo = np.maximum(lo, knots[0])
            hi = np.minimum(hi, knots[-1])
            idx = np.nonzero(hi > lo)[0]
            if len(idx) == 0:
                continue
            a, b = lo[idx], hi[idx]
            ap = np.clip(sign * hb[idx] / t, a, b)
            k0 = np.searchsorted(knots, a, side="right")    # first knot inside
            inner = np.searchsorted(knots, b, side="left") - k0
            below = np.clip(np.searchsorted(knots, ap, side="left") - k0, 0, inner)
            count = inner + 3
            start = np.cumsum(count) - count
            pts = np.empty(int(count.sum()))
            pts[start] = a
            pts[start + 1 + below] = ap
            pts[start + count - 1] = b
            owner = np.repeat(np.arange(len(idx)), inner)
            rank = np.arange(len(owner)) - (np.cumsum(inner) - inner)[owner]
            pts[start[owner] + 1 + rank + (rank >= below[owner])] = knots[k0[owner] + rank]
            band = np.repeat(np.arange(len(idx)), count)
            hv, lv = hb[idx][band], lb[idx][band]
            f = g(pts) * _tri_eval(pts, t, hv, lv)
            x0, x1 = pts[:-1], pts[1:]
            mid = 0.5 * (x0 + x1)
            simpson = (x1 - x0) / 6.0 * (f[:-1] + 4.0 * g(mid) * _tri_eval(
                mid, t, hv[:-1], lv[:-1]) + f[1:])
            simpson[start[1:] - 1] = 0.0    # the gaps from one band to the next
            out[first_spike + idx] += np.bincount(band[:-1], weights=simpson,
                                                  minlength=len(idx))
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
    integrates a spike or box correlation rho(t u) exactly against the
    piecewise-linear density of the difference u = r - s (available when nu
    has a difference law).  For a ``BochnerCorrelation`` it is the Parseval
    twin of the spectral channel, Int |nu_hat(t r)|^2 dsigma(r), evaluated
    for any weight as ``l2_norm_spectral`` does.  Any other correlation, or
    a weight without a difference law, is sampled under ``auto`` and raises
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
        density = difference_density(weight) if kernel else None
        if density is not None:
            return _pair_quadrature(correlation, *density, float(t))
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
    vals = np.asarray(correlation.value(t * u), dtype=float)
    return PairIntegral(float(vals.mean()),
                        float(vals.std() / np.sqrt(len(u))), "sampling")


def _pair_quadrature(correlation, g: PiecewiseLinearDensity, exact: bool,
                     t: float) -> PairIntegral:
    """Exact pair integral of a spike or box correlation against the
    difference density g; a quantized g reports its 1e-4 quantization
    slack.  Both correlations are even in t, so they are integrated at |t|."""
    if isinstance(correlation, SpikeCorrelation):
        h, L, heights = correlation.arrays
        bands = _spike_band_integrals(g, h, L, abs(t))
        value = correlation.baseline + float(heights @ bands)
    else:
        slope = abs(t) * np.asarray(correlation.flow.alpha)
        value = arc_overlap_integral(correlation.box.sides, 0.0 * slope, slope,
                                     g.knots, g.values)
    return PairIntegral(value, 0.0 if exact else 1e-4, "quadrature")


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
    the spikes at all: metadata records for every t the diagonal-band mass
    (nu x nu){ |t (r - s)| < band_halfwidth } and the captured spike mass
    (nu x nu){ t (r - s) in [h_j - L_j, h_j + L_j] }, as a total and, for at
    most ``PROBE_META_SPIKES`` spikes, per spike.

    With a difference law, the difference density is built once per probe and
    gives the pair integral and every mass in closed form.  Otherwise each
    grid point draws one set of pair differences, and the masses are counts
    among the same draws that the sampled pair integral averages over.
    """
    require_atomless(weight, "almost-mixing probe")
    grid = tuple(float(t) for t in t_grid)
    g, exact = difference_density(weight) or (None, False)
    h, L, _ = spike.arrays
    lo, hi = h - L, h + L
    band_masses: dict[float, float] = {}
    spike_masses: dict[float, dict] = {}

    def evaluator(t, point_seed):
        # g is even, so the masses are taken at |t|; at t = 0 every t (r - s)
        # is 0, which the sampling branch counts without dividing by t
        if g is not None and t != 0.0:
            result = _pair_quadrature(spike, g, exact, t)
            band = g.mass(-band_halfwidth / abs(t), band_halfwidth / abs(t))
            per = g.mass(lo / abs(t), hi / abs(t))
        else:
            u = _pair_differences(weight, n_samples, point_seed)
            result = _pair_sampling(spike, t, u)
            tu = np.sort(t * u)
            band = (np.searchsorted(tu, band_halfwidth, side="left")
                    - np.searchsorted(tu, -band_halfwidth, side="right")) / len(tu)
            per = (np.searchsorted(tu, hi, side="right")
                   - np.searchsorted(tu, lo, side="left")) / len(tu)
        band_masses[t] = float(band)
        spike_masses[t] = {"total": float(per.sum())}
        if len(per) <= PROBE_META_SPIKES:
            spike_masses[t]["per_spike"] = per.tolist()
        return abs(result.value - spike.baseline), result.error

    meta = {"baseline": spike.baseline, "band_halfwidth": band_halfwidth,
            "kind": "almost-mixing-probe", "n_samples": n_samples}
    curve = convergence_scan(evaluator, grid, seed=seed, threads=threads,
                             metadata=meta)
    curve.metadata["band_mass"] = [band_masses.get(t) for t in grid]
    curve.metadata["spike_mass"] = [spike_masses.get(t) for t in grid]
    return curve
