"""Probability measures on the real line with exact characteristic functions.

A weight measure answers four queries:

* ``char_fn(xi)``                -- the transform  nu_hat(xi) = Int e^{i xi x} dnu(x),
* ``sample(n, seed)``            -- deterministic i.i.d. draws,
* ``band_term(band, t, power)``  -- Int |nu_hat(t r)|^(2 power) over a spectral
  band by the weight's exact rule, or None,
* ``pair_view()``                -- the exact view of the law of r - s for pair
  integrals, or None.

Measures combine by convolution (characteristic functions multiply, samples
add) and rescale by a positive factor t (char_fn at t*xi, samples times t).
All values are immutable after construction and safe to share across threads.

Point masses exist only as a utility for convolution identities; every
averaging entry point downstream rejects measures that are not atomless.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import ceil, log
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erf, erfcx, log1p, log_ndtr, logsumexp, ndtr, ndtri_exp, sici, wofz

from . import quadrature
from .errors import InvalidMeasureError
from .quadrature import (SELF_SIMILAR_NODES, digit_walk, digit_walk_work, gl_pieces,
                         kink_integral, legendre, sinc_power_integral)
from .rng import generator

_CHAR_TOL = 1e-10
_SAMPLE_RESOLUTION = 1e-12
GAUSS_REACH = 40.0       # a truncated Gaussian lives within e^-GAUSS_REACH of its peak density
GAUSS_NODES = 10         # nodes of the rule on each knot segment of its pair view


def _require_finite(what: str, *params) -> None:
    if not np.all(np.isfinite(params)):
        raise InvalidMeasureError(f"{what} needs finite parameters")


def _sinc(u):
    """sin(u)/u with the removable singularity filled in."""
    return np.sinc(np.asarray(u) / np.pi)


def interval_transform(x, centers, half, masses, real: bool = False) -> np.ndarray:
    """sum_j masses_j e^{i x c_j} sinc(x h_j) at a 1-d array x: uniform masses
    on [c_j - h_j, c_j + h_j], atoms where h_j = 0, or its cosine part if
    ``real``, for at most ``quadrature.BLOCK`` (x, interval) pairs at a time;
    a single width ``half`` factors its sinc out.  ``einsum`` sums the row of
    each x in one order whatever the block, as BLAS products do not."""
    centers, shared = np.asarray(centers, dtype=float), np.ndim(half) == 0
    step, blocks = max(1, quadrature.BLOCK // len(centers)), []
    for first in range(0, max(len(x), 1), step):     # one block even for no x
        part = x[first:first + step, None]
        terms = np.cos(part * centers) if real else np.exp(1j * (part * centers))
        sinc = _sinc(part * half)       # one column for all intervals, or one each
        blocks.append(np.einsum("ij,j->i", terms if shared else terms * sinc, masses))
        if shared:
            blocks[-1] *= sinc[:, 0]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


class WeightMeasure:
    """Base class of the four queries; subclasses implement ``_char``, ``_sample`` and support()."""

    atomless: bool = True

    # -- characteristic function ------------------------------------------
    def char_fn(self, xi):
        """nu_hat(xi); accepts a scalar or an array of frequencies."""
        arr = np.asarray(xi, dtype=float)
        out = self._char(np.atleast_1d(arr))
        return complex(out[0]) if arr.ndim == 0 else out

    def _char(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- sampling ----------------------------------------------------------
    def sample(self, count: int, seed: int) -> np.ndarray:
        """``count`` i.i.d. draws, bitwise-deterministic per (seed, count)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._sample(int(count), int(seed), ())

    def _sample(self, count: int, master: int, path: tuple) -> np.ndarray:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """An interval certainly containing all the mass."""
        raise NotImplementedError

    def band_term(self, band, t: float, power: int) -> float | None:
        """Int |nu_hat(t r)|^(2 power) over a spectral ``band``, t != 0, by
        the weight's own exact rule; None where ``expect`` must do it."""
        return None

    def pair_view(self) -> PiecewiseLinearDensity | DigitPairs | None:
        """The exact view of r - s for independent r, s ~ the weight."""
        return None


class IntervalMixture(WeightMeasure):
    """A mixture of uniform laws on intervals and of atoms whose ``intervals()``, computed
    once per weight, are the one exact source of its float view, transform, support and equality."""

    def intervals(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
        """(centers, half-widths, masses) as Fractions, the masses summing to 1."""
        raise NotImplementedError

    _exact = cached_property(lambda self: self.intervals())

    @cached_property
    def _floats(self) -> tuple:
        """(centers, half-widths, masses, lower ends, upper ends): read-only
        float64 arrays rounded once from the exact values, the half-widths one
        float where all are equal, so ``interval_transform`` factors its sinc out."""
        centers, halves, masses = self._exact
        # c -+ h rounded once as one int / int division (correctly rounded, as
        # float() of a Fraction is), without normalizing the Fraction c -+ h
        ends = ([(c.numerator * h.denominator + sign * h.numerator * c.denominator)
                 / (c.denominator * h.denominator) for c, h in zip(centers, halves)]
                for sign in (-1, 1))
        view = [np.array([float(v) for v in values]) for values in (centers, halves, masses)]
        view += [np.array(values) for values in ends]
        for a in view:      # shared by every caller of the weight
            a.flags.writeable = False
        if all(h == halves[0] for h in halves):     # no Fraction hashing
            view[1] = float(halves[0])
        return tuple(view)

    def _char(self, xi):
        return interval_transform(xi, *self._floats[:3])

    def support(self):
        return (float(self._floats[3].min()), float(self._floats[4].max()))

    def __eq__(self, other):
        return type(other) is type(self) and other._exact == self._exact

    def __hash__(self):
        return hash(self._exact)


class PiecewiseLinearDensity:
    """The density of r - s as a pair view (named for its first shape): a
    vectorized ``shape``, zero outside the sorted read-only ``knots`` and
    between them a polynomial of ``degree`` (1 for cells, 3 for a spline),
    or smooth with knots that Gauss-Legendre of degree // 2 + 1 nodes, the
    rule of each segment, resolves to rounding.  ``cumulative`` holds the
    integral up to each knot.  Its pair integrals are exact: error 0.
    """

    def __init__(self, knots, shape: Callable[[np.ndarray], np.ndarray], degree: int):
        self.knots = np.array(knots, dtype=float)
        self.shape = shape
        self.degree = degree
        self.cumulative = np.concatenate(([0.0], np.cumsum(
            self._rule(self.knots[:-1], self.knots[1:]))))
        for a in (self.knots, self.cumulative):
            a.flags.writeable = False

    def __call__(self, u):
        return self.shape(np.asarray(u, dtype=float))

    def scaled(self, f: float) -> PiecewiseLinearDensity:
        """The density of f (r - s), f > 0."""
        shape = self.shape
        return PiecewiseLinearDensity(self.knots * f, lambda u: shape(u / f) / f, self.degree)

    def _rule(self, a, b) -> np.ndarray:
        """Int_a^b shape(u) du elementwise over 1-d arrays a, b inside one
        knot segment each, by Gauss-Legendre of degree // 2 + 1 nodes."""
        return gl_pieces(lambda u, part: self.shape(u), a, b, self.degree // 2 + 1)

    def mass(self, a, b):
        """Integral over [a, b], elementwise over array arguments and 0
        where b <= a; a float for scalar arguments.

        The knots strictly between a and b come in as one difference of
        ``cumulative``, the partial segments at either end by the segment
        rule, so an interval inside one knot segment keeps its relative
        precision.
        """
        k = self.knots
        a, b = np.broadcast_arrays(np.clip(a, k[0], k[-1]), np.clip(b, k[0], k[-1]))
        out = np.zeros(a.shape)
        live = b > a
        a, b = a[live], b[live]
        ia = np.minimum(np.searchsorted(k, a, side="right") - 1, len(k) - 2)
        ib = np.minimum(np.searchsorted(k, b, side="right") - 1, len(k) - 2)
        inner = self.cumulative[ib] - self.cumulative[ia + 1] + self._rule(k[ib], b)
        out[live] = (self._rule(a, np.where(ia == ib, b, k[ia + 1]))
                     + np.where(ia == ib, 0.0, inner))
        return float(out) if out.ndim == 0 else out

    def pair_integral(self, correlation, t: float, draws=None) -> tuple[float, float]:
        """(Int K(u) g(u) du, 0) for the kernel K of ``correlation`` at
        t >= 0 (rho(t u) less any baseline), by ``kink_integral``.  Exact
        at any cost: ``draws`` is not consulted."""
        reach = max(-self.knots[0], self.knots[-1])
        kernel = correlation.kernel(t, reach)
        return float(kink_integral(kernel, self.knots, self.shape, self.degree)[0]), 0.0

    def spike_probe(self, spike, t: float, lo, hi, draws=None):
        """(Int K(u) g(u) du, 0, masses) for the kernel K of the spike
        correlation ``spike`` at t >= 0, the masses those of the intervals
        [lo_j, hi_j] of t (r - s) (t > 0 unless there are none).  Exact at
        any cost: ``draws`` is not consulted."""
        return (*self.pair_integral(spike, t), self.mass(lo / t, hi / t))


def _cell_pairs(masses: np.ndarray, delta: float) -> tuple:
    """The piecewise-linear density of r - s for a weight of cell ``masses``
    on cells of width ``delta``: the masses' correlation over delta at the
    multiples of delta."""
    corr = np.correlate(masses, masses, mode="full")
    knots = delta * np.arange(-len(masses), len(masses) + 1)
    values = np.concatenate(([0.0], corr / delta, [0.0]))
    return knots, lambda u: np.interp(u, knots, values, left=0.0, right=0.0), 1


def _si_band_term(band, t: float, k: np.ndarray, v: np.ndarray) -> float:
    """The band term at power 1, t != 0, where r - s has the piecewise-linear
    density g of values v at knots k: |nu_hat|^2 is its cosine transform,
    so a band cell [c, c'] of density d gives d (F(t c') - F(t c)) / t with
    F(lam) = Int g(u) sin(lam u) / u du, exact per knot segment: with
    g = p + q u there, p [Si(lam u)] - q [cos(lam u)] / lam, the cosine
    difference taken as -2 sin(lam m) sin(lam h) with m, h the segment's
    midpoint and half width, so small lam loses nothing and F(0) = 0."""
    edges, dens = band.cells()
    q = np.diff(v) / np.diff(k)
    p = v[:-1] - q * k[:-1]
    mid, half = 0.5 * (k[1:] + k[:-1]), 0.5 * np.diff(k)
    lam = t * edges[:, None]
    si, _ = sici(lam * k)
    dcos_over_lam = -2.0 * np.sin(lam * mid) * half * np.sinc(lam * half / np.pi)
    transform = np.diff(si, axis=1) @ p - dcos_over_lam @ q
    return float(dens @ np.diff(transform)) / t


def _sinc_band_term(band, t: float, q: float, n: int) -> float:
    """The band term (t != 0) of a weight with |nu_hat(t r)|^(2 power) =
    sinc^n(lam r), lam = |t| q: a band cell [c, c'] of density d gives
    d I_n(lam c, lam c') / lam with I_n = ``sinc_power_integral``."""
    edges, dens = band.cells()
    lam = abs(t) * q
    cells = sinc_power_integral(n, lam * edges[:-1], lam * edges[1:])
    return float(dens @ cells) / lam


@dataclass(frozen=True)
class DigitLaw:
    """The law of sum_{j >= 0} ratio^j d_j for i.i.d. digits d_j taking
    ``values`` (distinct, increasing) with probabilities ``weights``, all
    exact Fractions of the float inputs, so equal digits merge exactly."""

    ratio: Fraction
    values: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    @staticmethod
    def merged(ratio: Fraction, pairs) -> DigitLaw:
        """The law with digits and probabilities ``pairs`` (value, weight),
        equal values merged."""
        acc: dict[Fraction, Fraction] = {}
        for value, weight in pairs:
            acc[value] = acc.get(value, 0) + weight
        values = tuple(sorted(acc))
        return DigitLaw(ratio, values, tuple(acc[v] for v in values))

    def plus(self, other: DigitLaw) -> DigitLaw:
        """The law of D + D' for independent D ~ self and D' ~ ``other`` of
        the same ratio: pairwise digit sums and weight products."""
        return DigitLaw.merged(self.ratio, (
            (a + b, u * w) for a, u in zip(self.values, self.weights)
            for b, w in zip(other.values, other.weights)))

    def power(self, p: int) -> DigitLaw:
        """The law of a sum of ``p`` independent copies: p-fold digit sums,
        built once per (law, p > 1)."""
        return self if p == 1 else _digit_power(self, p)

    def scaled(self, factor: float) -> DigitLaw:
        f = Fraction(factor)
        return DigitLaw(self.ratio, tuple(v * f for v in self.values), self.weights)

    @cached_property
    def floats(self) -> DigitFloats:
        """The law in float64, converted once per law."""
        values = np.array([float(v) for v in self.values])
        probs = np.array([float(w) for w in self.weights])
        for a in (values, probs):      # shared by every walk of the law
            a.flags.writeable = False
        return DigitFloats(float(self.ratio), values, probs,
                           float(self.values[0] / (1 - self.ratio)),
                           float(self.values[-1] / (1 - self.ratio)))


class DigitFloats(NamedTuple):
    """A ``DigitLaw``'s ratio, digit values and probabilities in float64, and
    its support [lo, hi] rounded from the exact bounds."""

    ratio: float
    values: np.ndarray
    probs: np.ndarray
    lo: float
    hi: float


@lru_cache(maxsize=64)
def _digit_power(law: DigitLaw, p: int) -> DigitLaw:
    return reduce(DigitLaw.plus, (law,) * p)


class DigitPairs:
    """The law of r - s as a self-similar digit law D with M ratio <= 1,
    seen by ``digit_walk``: interval masses, the box pair integral and the
    spike pair integral with the masses of any intervals, exact up to the
    walk's reported bound.

    A walk's cost grows with the kinks of its kernel inside supp(D), while
    sampling costs the same at every t.  Given ``draws``, a pair integral
    or a probe point declines (returns None) when its walks' work
    (``digit_walk_work``: copies placed and kernel evaluations) exceeds the
    sampler's: ``pair_work``, 2 draws per pair, each a chaos game of the
    weight's ``SelfSimilar._depth()`` map choices.
    """

    def __init__(self, law: DigitLaw, pair_work: int):
        self.law = law
        self.lo, self.hi = law.floats.lo, law.floats.hi
        self.pair_work = pair_work

    def scaled(self, f: float) -> DigitPairs:
        """The view of f (r - s), f > 0: the sampler scales its draws, so a
        pair costs what it did."""
        return DigitPairs(self.law.scaled(f), self.pair_work)

    def _work(self, kinks: np.ndarray, kernel, degree: int, lipschitz: float,
              spread: float) -> int:
        """``digit_walk_work`` of a walk given by its arguments after the law."""
        reach = np.count_nonzero((kinks > self.lo) & (kinks < self.hi))
        return digit_walk_work(self.law, int(reach), degree, lipschitz, spread)

    def _declines(self, work: int, draws) -> bool:
        return draws is not None and work > draws * self.pair_work

    def _mass_walk(self, ends: np.ndarray) -> tuple:
        """``digit_walk``'s arguments after the law for the cumulative at the
        sorted ``ends``: the indicators of every end, a jump kernel."""
        return ends, lambda u, w: np.bincount(
            np.searchsorted(ends, u, side="right"), w, minlength=len(ends) + 1), 0, np.inf, 1.0

    def _ends(self, a, b) -> np.ndarray:
        """The sorted distinct interval ends inside supp(D): the kinks of
        the cumulative walk."""
        ends = np.concatenate((np.ravel(a), np.ravel(b)))
        return np.unique(ends[(ends > self.lo) & (ends < self.hi)])

    def mass(self, a, b):
        """Mass of [a, b], elementwise over array arguments and 0 where
        b <= a; a float for scalar arguments.  One walk of the indicator
        kernels of every end inside supp(D) gives the cumulative F there,
        F is 0 below the support and the walk's total above it, and each
        mass is F(b) - F(a); no interval takes no walk."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if a.size == 0:
            return np.zeros(a.shape)
        ends = self._ends(a, b)
        bins, _ = digit_walk(self.law, *self._mass_walk(ends))
        points = np.concatenate(([self.lo], ends, [self.hi]))
        cdf = np.concatenate(([0.0], np.cumsum(bins)))
        at = lambda x: cdf[np.searchsorted(points, np.clip(x, self.lo, self.hi))]
        out = np.where(b > a, at(b) - at(a), 0.0)
        return float(out) if out.ndim == 0 else out

    def _walk(self, correlation, t: float) -> tuple:
        """``digit_walk``'s arguments after the law for the kernel of
        ``correlation`` at t >= 0 over supp(D)."""
        kernel = correlation.kernel(t, self.hi)
        return (kernel.kinks[0], lambda u, w: float(w @ kernel.value(u)), kernel.degree,
                kernel.lipschitz, kernel.spread)

    def pair_integral(self, correlation, t: float, draws=None):
        """(E[K(D)], the walk's bound) for the kernel K of ``correlation`` at
        t >= 0, or None when its degree exceeds the Gauss rule's or the walk
        would cost more than ``draws`` sampled pairs."""
        walk = self._walk(correlation, t)
        degree = walk[2]
        if degree >= 2 * SELF_SIMILAR_NODES or self._declines(self._work(*walk), draws):
            return None
        return digit_walk(self.law, *walk)

    def spike_probe(self, spike, t: float, lo, hi, draws=None):
        """(E[K(D)], the walk's bound, masses) for the kernel K of the spike
        correlation ``spike`` at t >= 0, the masses those of the intervals
        [lo_j, hi_j] of t (r - s) (t > 0 unless there are none), or None
        when the two walks together would cost more than ``draws`` sampled
        pairs; with no intervals the mass walk costs nothing."""
        walk = self._walk(spike, t)
        work = self._work(*self._mass_walk(self._ends(lo / t, hi / t))) + self._work(*walk)
        if self._declines(work, draws):
            return None
        return (*digit_walk(self.law, *walk), self.mass(lo / t, hi / t))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

class DensityMeasure(WeightMeasure):
    """Absolutely continuous measure on a bounded interval.

    Subclasses provide ppf, elementwise; sampling is inverse-CDF on a shared
    uniform stream.
    """

    def ppf(self, u):
        raise NotImplementedError

    def _sample(self, count, master, path):
        """ppf of one ``random(count)``, quadrature.BLOCK uniforms at a time,
        each block written back over its uniforms: ppf's temporaries stay
        BLOCK long whatever the count, and the draws are those of one call."""
        u = generator(master, *path).random(count)
        for first in range(0, count, quadrature.BLOCK):
            block = u[first:first + quadrature.BLOCK]
            block[...] = self.ppf(block)
        return u

    def pair_view(self):
        """The exact density of r - s, ``_pairs()``: knots, shape, degree."""
        return PiecewiseLinearDensity(*self._pairs())


@dataclass(frozen=True, eq=False)
class Uniform(IntervalMixture, DensityMeasure):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        _require_finite("uniform", self.a, self.b)
        if not self.b > self.a:
            raise InvalidMeasureError("uniform needs a < b")

    def intervals(self):
        a, b = Fraction(float(self.a)), Fraction(float(self.b))
        return ((a + b) / 2,), ((b - a) / 2,), (Fraction(1),)

    def ppf(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)

    def band_term(self, band, t, power):
        """The Si form of its piecewise-linear r - s at power 1, a sinc power
        (|nu_hat| = |sinc((b - a) xi / 2)|) above."""
        if power > 1:
            return _sinc_band_term(band, t, 0.5 * (self.b - self.a), 2 * power)
        knots, shape, _ = self._pairs()
        return _si_band_term(band, t, knots, shape(knots))

    def _pairs(self):
        return _cell_pairs(np.array([1.0]), self.b - self.a)


@dataclass(frozen=True)
class Triangular(DensityMeasure):
    """Symmetric triangular density on [a, b]: the law of the sum of two
    independent Uniform(a/2, b/2) draws."""

    a: float
    b: float

    def __post_init__(self):
        _require_finite("triangular", self.a, self.b)
        if not self.b > self.a:
            raise InvalidMeasureError("triangular needs a < b")

    def _char(self, xi):
        mid, quarter = 0.5 * (self.a + self.b), 0.25 * (self.b - self.a)
        return np.exp(1j * xi * mid) * _sinc(xi * quarter) ** 2

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        w = self.b - self.a
        left = self.a + w * np.sqrt(np.maximum(u, 0.0) / 2.0)
        right = self.b - w * np.sqrt(np.maximum(1.0 - u, 0.0) / 2.0)
        return np.where(u < 0.5, left, right)

    def support(self):
        return (self.a, self.b)

    def band_term(self, band, t, power):
        """A sinc power at every power: |nu_hat| = sinc^2((b - a) xi / 4)."""
        return _sinc_band_term(band, t, 0.25 * (self.b - self.a), 4 * power)

    def _pairs(self):
        """r - s = U1 + U2 - U3 - U4, the U_i uniform of width h = (b - a) / 2,
        has the cubic B-spline density with knots 0, +-h and +-2h: at x = |u| / h,
        (4 - 6 x^2 + 3 x^3) / 6h up to 1, (2 - x)^3 / 6h up to 2, 0 beyond."""
        h = 0.5 * (self.b - self.a)

        def shape(u):
            x = np.abs(u) / h
            return np.where(x < 1.0, 4.0 + x * x * (3.0 * x - 6.0),
                            np.maximum(2.0 - x, 0.0) ** 3) / (6.0 * h)

        return h * np.arange(-2.0, 3.0), shape, 3


@dataclass(frozen=True)
class TruncatedGaussian(DensityMeasure):
    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self):
        _require_finite("truncated gaussian", self.mu, self.sigma, self.lo, self.hi)
        if not (self.hi > self.lo and self.sigma > 0):
            raise InvalidMeasureError("truncated gaussian needs lo < hi, sigma > 0")

    def _bounds(self):
        return (self.lo - self.mu) / self.sigma, (self.hi - self.mu) / self.sigma

    def _char(self, xi):
        # nu_hat(xi) = e^{i mu xi} [Phi(be - i s) - Phi(al - i s)] / Z with
        # s = sigma xi, each term written through the Faddeeva function w in
        # the closed upper half-plane.  A truncation lying wholly above the
        # mean is reflected (x -> -x, conjugate), so al <= 0 below and Z
        # never comes from a difference of two numbers near 1.
        al, be = self._bounds()
        mu = self.mu
        flip = al > 0
        if flip:
            al, be, mu = -be, -al, -mu
        s = self.sigma * xi
        # One-sided truncations carry a common factor e^{-be^2/2}, divided
        # out of numerator and Z alike so far tails do not underflow.
        shift = 0.5 * be * be if be <= 0 else 0.0
        num = _gauss_term(be, s, shift) - _gauss_term(al, s, shift)
        z = (_gauss_term(be, 0.0, shift) - _gauss_term(al, 0.0, shift)).real
        out = np.exp(1j * mu * xi) * num / z
        return np.conj(out) if flip else out

    # ppf ports scipy's truncnorm (scipy 1.17.1) operation for operation on
    # scipy.special alone, so draws are bit-identical to it; only the log
    # mass of the truncation is hoisted out of the per-point work.
    def ppf(self, u):
        al, be = self._bounds()
        q = np.asarray(u, dtype=float)
        out = np.full(q.shape, np.nan)
        out[q == 0] = al * self.sigma + self.mu
        out[q == 1] = be * self.sigma + self.mu
        inside = (0 < q) & (q < 1)
        if inside.any():
            q = q[inside]
            log_mass = _log_gauss_mass(al, be)
            # Phi(x) = Phi(al) + q Z, or in the upper tail by symmetry.
            if al < 0:
                z = ndtri_exp(_log_sum(log_ndtr(al), np.log(q) + log_mass))
            else:
                z = -ndtri_exp(_log_sum(log_ndtr(-be), np.log1p(-q) + log_mass))
            out[inside] = z * self.sigma + self.mu
        return out[()] if out.ndim == 0 else out

    def support(self):
        return (self.lo, self.hi)

    def _pairs(self):
        """r - s has the density G(u / sigma) / sigma: with y0 = al + |v| / 2,
        y1 = be - |v| / 2 and Z = Phi(be) - Phi(al), for |v| < be - al,
        G(v) = e^{-v^2/4} [Phi(sqrt2 y1) - Phi(sqrt2 y0)] / (2 sqrt(pi) Z^2),
        the range reflected to be > 0 (the law of r - s keeps under x -> -x).
        Around the mean Z is a sum of erfs; above it (al > 0) ``_erfcx_drop``
        takes the e^{-al^2} out of both differences, exact for narrow ranges.
        G is analytic on each side of 0.  r lives, to e^-GAUSS_REACH of its
        peak density, on [za, zb], so r - s on |v| <= zb - za; log G turns
        by at most about R = max(|za|, |zb|) per unit of v there, and knots
        2 / R apart, a few e-folds, are resolved by GAUSS_NODES nodes."""
        al, be = self._bounds()
        if be <= 0:
            al, be = -be, -al
        width = (self.hi - self.lo) / self.sigma    # be - al cancels for a narrow range far out
        reach = np.sqrt(max(0.0, al) ** 2 + 2.0 * GAUSS_REACH)
        za, zb = max(al, -reach), min(be, reach)
        side = np.linspace(0.0, zb - za, ceil((zb - za) * max(-za, zb) / 2.0) + 1)
        side = np.unique(np.append(side, width))      # on to the full width
        if al > 0:      # G at a = |v| with the e^{-al^2} of both differences taken out
            norm = np.sqrt(np.pi) * _erfcx_drop(al / np.sqrt(2.0), width / np.sqrt(2.0)) ** 2
            inside = lambda a: np.exp(-0.5 * a * a - al * a) * _erfcx_drop(
                al + 0.5 * a, width - a) / norm
        else:   # G at a = |v| through 2 Phi(sqrt2 y) = 1 + erf(y): Z by erfs of both signs
            norm = np.sqrt(np.pi) * (erf(be / np.sqrt(2.0)) - erf(al / np.sqrt(2.0))) ** 2
            inside = lambda a: np.exp(-0.25 * a * a) * (erf(be - 0.5 * a) - erf(al + 0.5 * a)) / norm

        def shape(u):
            a = np.minimum(np.abs(u) / self.sigma, width)    # no mass at the full width
            return np.where(a < width, inside(a), 0.0) / self.sigma

        return self.sigma * np.concatenate((-side[:0:-1], side)), shape, 2 * GAUSS_NODES - 1


def _erfcx_drop(x, w):
    """erfcx(x) - erfcx(x + w) e^{-w (2x + w)} = 2 / sqrt(pi) Int_0^w e^{-s (2x + s)} ds
    for x, w >= 0: by GAUSS_NODES-node Gauss-Legendre where the exponential falls by
    at most e (the closed form cancels there), else in closed form."""
    nodes, weights = legendre(GAUSS_NODES)
    s = 0.5 * np.multiply.outer(w, 1.0 + nodes)     # the last axis runs over the nodes
    quad = w / np.sqrt(np.pi) * (np.exp(-s * (2.0 * np.asarray(x)[..., None] + s)) @ weights)
    closed = erfcx(x) - erfcx(x + w) * np.exp(-w * (2.0 * x + w))
    return np.where(w * (2.0 * x + w) <= 1.0, quad, closed)


def _log_sum(log_p, log_q):
    """log(p + q) elementwise; ``log_p`` may be a scalar.  The arithmetic of
    ``scipy.special.logsumexp`` on the pair, log1p(e^(lo - hi)) + hi, without
    its stacking, masking and second pass."""
    hi, lo = np.maximum(log_p, log_q), np.minimum(log_p, log_q)
    with np.errstate(invalid="ignore"):     # lo - hi is NaN where both are infinite
        out = np.log1p(np.exp(lo - hi)) + hi
    return np.where(np.isinf(hi), hi, out)


def _log_gauss_mass(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)) for a < b, taken in the lower tail (reflected if
    the interval lies above 0), log(p - q) through -q = q e^{i pi}, or, if it
    straddles 0, as 1 minus both tails."""
    if b <= 0:
        return logsumexp([log_ndtr(b), log_ndtr(a) + np.pi * 1j]).real
    if a > 0:
        return logsumexp([log_ndtr(-a), log_ndtr(-b) + np.pi * 1j]).real
    return log1p(-ndtr(a) - ndtr(-b))


def _gauss_term(b, s, shift):
    """e^{shift - s^2/2} Phi(b - i s) for real b and real s (array or scalar),
    with w evaluated only where Im >= 0."""
    s = np.asarray(s, dtype=float)
    phase = np.exp(shift - 0.5 * b * b + 1j * b * s)
    if b <= 0:
        return 0.5 * phase * wofz((-s - 1j * b) / np.sqrt(2.0))
    return np.exp(shift - 0.5 * s * s) - 0.5 * phase * wofz((s + 1j * b) / np.sqrt(2.0))


def _numerators(values) -> tuple[list[int], int]:
    """Floats as integer numerators over their largest denominator, which every
    other one divides (all are powers of two)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(b for _, b in ratios)
    return [a * (den // b) for a, b in ratios], den


class TableDensity(IntervalMixture, DensityMeasure):
    """Piecewise-constant density on an equispaced grid over [lo, hi].

    The characteristic function is the exact mixture of per-cell uniforms
    (``interval_transform``, one shared width), so no quadrature error
    enters.  ``intervals()`` normalizes the given ``masses`` exactly.
    """

    def __init__(self, lo: float, hi: float, masses):
        masses = np.array(masses, dtype=float)
        _require_finite("table", lo, hi)
        if not hi > lo:
            raise InvalidMeasureError("table needs lo < hi")
        if masses.ndim != 1 or len(masses) == 0:
            raise InvalidMeasureError("table needs a 1-d mass vector")
        if np.any(~np.isfinite(masses)) or np.any(masses < 0):
            raise InvalidMeasureError("table masses must be finite and nonnegative")
        if not np.any(masses > 0):
            raise InvalidMeasureError("table masses must have positive sum")
        self.lo, self.hi, self.masses = float(lo), float(hi), masses
        self.edges = np.linspace(self.lo, self.hi, len(masses) + 1)

    def intervals(self):
        """The centers (2 n lo + (2 j + 1)(hi - lo)) / (2 n) and the masses
        m_j / sum m from integer numerators over one common denominator, one
        Fraction per value and no Fraction arithmetic."""
        (lo, hi), q = _numerators((self.lo, self.hi))
        nums, _ = _numerators(self.masses.tolist())
        n, den, total = len(nums), 2 * len(nums) * q, sum(nums)
        return (tuple(Fraction(2 * n * lo + (2 * j + 1) * (hi - lo), den) for j in range(n)),
                (Fraction(hi - lo, den),) * n, tuple(Fraction(m, total) for m in nums))

    def ppf(self, u):
        cum = np.cumsum(self._floats[2])
        return np.interp(u, np.concatenate(([0.0], cum[:-1], [1.0])), self.edges)

    def band_term(self, band, t, power):
        """The Si form of its piecewise-linear r - s at power 1."""
        if power > 1:
            return None
        knots, shape, _ = self._pairs()
        return _si_band_term(band, t, knots, shape(knots))

    def _pairs(self):
        return _cell_pairs(self._floats[2], (self.hi - self.lo) / len(self.masses))


# ---------------------------------------------------------------------------
# self-similar (iterated-function-system) measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfSimilar(WeightMeasure):
    """Invariant measure of the maps x -> ratios[k] * x + shifts[k], chosen
    with probabilities ``weights``.  Its characteristic function satisfies

        nu_hat(xi) = sum_k weights[k] * exp(i xi shifts[k]) * nu_hat(ratios[k] xi)

    run over the finite set of scales (products of the ratios) at which
    nu_hat can still differ from 1 by more than 1e-10.
    """

    ratios: tuple[float, ...]
    shifts: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        m = len(self.ratios)
        if m < 2 or len(self.shifts) != m or len(self.weights) != m:
            raise InvalidMeasureError("need >= 2 maps with matching shifts/weights")
        if any(not (0.0 < r < 1.0) for r in self.ratios):
            raise InvalidMeasureError("contraction ratios must lie in (0, 1)")
        if not np.all(np.isfinite((*self.shifts, *self.weights))):
            raise InvalidMeasureError("shifts and weights must be finite")
        if any(w <= 0 for w in self.weights):
            raise InvalidMeasureError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise InvalidMeasureError("weights must sum to 1 within 1e-12")
        fixed = {Fraction(c) / (1 - Fraction(r)) for r, c in zip(self.ratios, self.shifts)}
        if len(fixed) == 1:
            raise InvalidMeasureError(
                "self-similar maps with one common fixed point give a point mass")

    def support(self):
        fixed = [c / (1.0 - r) for r, c in zip(self.ratios, self.shifts)]
        return (min(fixed), max(fixed))

    def _digits(self, power: int) -> DigitLaw | None:
        """The digit law of a sum of ``power`` copies of r - s where its M
        merged digits have M ratio <= 1, so the walk's copies grow <= t.
        With one common ratio, r - s is self-similar with that ratio and the
        digits c_a - c_b, of probability p_a p_b / (sum p)^2."""
        if len(set(self.ratios)) > 1:
            return None
        law = _self_similar_difference(self.ratios[0], self.shifts, self.weights).power(power)
        return law if len(law.values) * law.ratio <= 1 else None

    def band_term(self, band, t, power):
        """E[Re rho_band(t D)] for the digit law D of the power: one walk of
        the band's entire kernel, turning at |t| max|band edge|."""
        law = self._digits(power)
        if law is None:
            return None
        kernel = lambda u, w: band.real_transform_sum(t * u, w)
        value, _ = digit_walk(law, np.empty(0), kernel, 2 * SELF_SIMILAR_NODES - 1, 0.0, 0.0,
                              abs(t) * max(abs(band.lo), abs(band.hi)))
        return value

    def pair_view(self):
        """The kink walk over the digit law of r - s where it serves p = 1."""
        law = self._digits(1)
        return None if law is None else DigitPairs(law, 2 * self._depth())

    def _depth(self) -> int:
        """Levels of its chaos game: they resolve its support to _SAMPLE_RESOLUTION."""
        lo, hi = self.support()
        return max(1, ceil(log(_SAMPLE_RESOLUTION / max(hi - lo, 1e-300))
                           / log(max(self.ratios))))

    def _bound(self):
        lo, hi = self.support()
        return max(abs(lo), abs(hi), 1e-300)

    def _char(self, xi):
        """nu_hat(s xi) = sum_k p_k e^{i s xi c_k} nu_hat(s r_k xi) over the
        scales s with s max|xi| max|supp| >= 1e-10 (``_transform_scales``),
        nu_hat taken as 1 below them, one generation of scales at a time.
        Each step is elementwise in xi, and the frequencies go in blocks of
        quadrature.BLOCK // (scales + 1), so a call holds 3 + (distinct
        ratios) tables of at most BLOCK complex values (1 MB) each, and its
        values do not depend on the block."""
        out = np.ones(len(xi), dtype=complex)
        top = float(np.max(np.abs(xi)))
        if not np.isfinite(top):      # no scale would fall below the truncation
            raise ValueError("a self-similar transform needs finite frequencies")
        if top * self._bound() < _CHAR_TOL:
            return out
        ratios = tuple(dict.fromkeys(self.ratios))
        scales, children, ends = _transform_scales(ratios, _CHAR_TOL / (top * self._bound()))
        norm = sum(self.weights)       # so that |nu_hat| <= 1
        block = max(1, quadrature.BLOCK // (len(scales) + 1))
        for first in range(0, len(xi), block):
            arg = scales[:, None] * xi[first:first + block]
            phases = [np.broadcast_to(sum(   # a map of shift 0 adds its probability
                p / norm * (np.exp(1j * c * arg) if c else 1.0) for r, c, p in zip(
                    self.ratios, self.shifts, self.weights) if r == q), arg.shape) for q in ratios]
            table = np.ones((len(scales) + 1, arg.shape[1]), dtype=complex)  # last row: below
            for lo, hi in zip(ends, ends[1:]):
                gen = table[lo:hi]
                np.multiply(phases[0][lo:hi], table[children[0][lo:hi]], out=gen)
                for f, c in zip(phases[1:], children[1:]):
                    gen += f[lo:hi] * table[c[lo:hi]]
            out[first:first + block] = table[-2]
        return out

    def _sample(self, count, master, path):
        """The chaos game from the support's midpoint, ``_depth()`` maps
        deep.  Each level draws its map index as ``Generator.choice``
        with probabilities would, byte for byte (checked against numpy
        2.4): the cdf of the weights divided by its last entry, and the
        count of its edges below one uniform draw.

        Every level reuses one buffer each for the uniforms, the indices
        and the gathered ratios and shifts, and applies the maps as
        x *= r[idx]; x += c[idx], which rounds as c[idx] + r[idx] * x
        does.  What is left is the stream itself: Philox takes about 5.2 ns
        a uniform (2-core Xeon, numpy 2.4), so cantor-thirds' 26 levels
        cost 136 ns a draw in uniforms alone, a floor short of changing the
        stream and so every draw."""
        lo, hi = self.support()
        rng = generator(master, *path)
        r = np.array(self.ratios)
        c = np.array(self.shifts)
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        x = np.full(count, 0.5 * (lo + hi))
        u, step = np.empty(count), np.empty(count)
        idx, above = np.empty(count, dtype=np.intp), np.empty(count, dtype=bool)
        for _ in range(self._depth()):
            rng.random(out=u)
            np.greater_equal(u, cdf[0], out=idx)
            for edge in cdf[1:-1]:
                idx += np.greater_equal(u, edge, out=above)
            x *= r.take(idx, out=step, mode="clip")    # idx < len(r): clip moves none
            x += c.take(idx, out=step, mode="clip")
        return x


def _transform_scales(ratios: tuple[float, ...], floor: float) -> tuple:
    """(scales, children, ends): the products s >= ``floor`` of ``ratios``,
    by generation (longest word), the deepest first and 1 last; per ratio q
    the rows of the scales times q, -1 below ``floor``; the generations'
    bounds.  A ratio is an odd numerator over a power of two, and a scale's
    key packs the exponents of the distinct numerators and of two into one
    integer, so equal products such as 1/2 1/2 and 1/4 share one scale."""
    pairs = [q.as_integer_ratio() for q in ratios]
    odd = sorted({a for a, _ in pairs} - {1})
    steps = [b.bit_length() - 1 + (a > 1 and 1 << 64 * (1 + odd.index(a))) for a, b in pairs]
    value, generation, level, depth = {0: 1.0}, {}, [0], 0
    while level:
        found = {}
        for key in level:
            generation[key] = depth
            for step, q in zip(steps, ratios):
                child = key + step
                if child not in found and value.setdefault(child, value[key] * q) >= floor:
                    found[child] = None
        level, depth = found, depth + 1
    order = sorted(generation, key=generation.get, reverse=True)
    index = {key: i for i, key in enumerate(order)}
    children = [np.array([index.get(key + step, -1) for key in order]) for step in steps]
    sizes = [0] * depth
    for g in generation.values():
        sizes[depth - 1 - g] += 1
    return np.array([value[key] for key in order]), children, [0, *accumulate(sizes)]


@lru_cache(maxsize=16)
def _self_similar_difference(ratio: float, shifts: tuple[float, ...],
                             weights: tuple[float, ...]) -> DigitLaw:
    """The digit law of r - s for ``SelfSimilar._digits``, built once per
    measure: its Fraction arithmetic costs more than the band term.  It is
    the law of r, digits the shifts with the weights normalized, plus its
    mirror."""
    total = sum(Fraction(p) for p in weights)
    law = DigitLaw.merged(Fraction(ratio), (
        (Fraction(c), Fraction(p) / total) for c, p in zip(shifts, weights)))
    return law.plus(DigitLaw.merged(law.ratio, zip((-v for v in law.values), law.weights)))


# ---------------------------------------------------------------------------
# nested-interval (Cantor-tree) measures
# ---------------------------------------------------------------------------

class NestedIntervals(IntervalMixture):
    """Uniform measure on a binary tree of closed intervals inside [0, 1].

    ``levels[n-1]`` lists the 2**n level-n intervals as exact Fractions,
    ordered so that the children of interval j are 2j and 2j+1 one level
    down.  Each level-n interval carries mass 2**-n; within the deepest
    intervals the mass is spread uniformly.
    """

    def __init__(self, levels):
        self.levels = tuple(tuple((Fraction(a), Fraction(b)) for a, b in lev) for lev in levels)
        self._validate()

    def _validate(self):
        parents = ((Fraction(0), Fraction(1)),)
        for n, level in enumerate(self.levels, start=1):
            if len(level) != 2 ** n:
                raise InvalidMeasureError(f"level {n} must hold {2 ** n} intervals")
            for j, (a, b) in enumerate(level):
                pa, pb = parents[j // 2]
                if not (pa <= a < b <= pb):
                    raise InvalidMeasureError(
                        f"level {n} interval {j} not inside its parent")
            for (a1, b1), (a2, b2) in zip(level, level[1:]):
                if not b1 < a2:
                    raise InvalidMeasureError(f"level {n} intervals overlap")
            parents = level

    @property
    def depth(self) -> int:
        return len(self.levels)

    def intervals(self):
        leaves = self.levels[-1] if self.levels else ((Fraction(0), Fraction(1)),)
        return (tuple((a + b) / 2 for a, b in leaves), tuple((b - a) / 2 for a, b in leaves),
                (Fraction(1, len(leaves)),) * len(leaves))

    def _sample(self, count, master, path):
        rng = generator(master, *path)
        lo, hi = self._floats[3:]
        idx = rng.integers(0, len(lo), size=count)
        u = rng.random(count)
        return lo[idx] + u * (hi[idx] - lo[idx])


# ---------------------------------------------------------------------------
# algebra: convolution, rescaling, point masses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PointMass(IntervalMixture):
    """Dirac mass; a convolution-identity utility, never a valid weight for
    averaging (every averaging entry point rejects non-atomless measures)."""

    at: float = 0.0
    atomless = False

    def __post_init__(self):
        _require_finite("point mass", self.at)

    def intervals(self):
        return (Fraction(float(self.at)),), (Fraction(0),), (Fraction(1),)

    def _sample(self, count, master, path):
        return np.full(count, self.at)


@dataclass(frozen=True)
class Convolution(WeightMeasure):
    components: tuple[WeightMeasure, ...]

    def __post_init__(self):
        if len(self.components) < 2:
            raise InvalidMeasureError("convolution needs >= 2 components")

    @property
    def atomless(self):  # noqa: D401 - sum with an atomless part is atomless
        return any(c.atomless for c in self.components)

    def _char(self, xi):
        out = np.ones(len(xi), dtype=complex)
        for comp in self.components:
            out = out * comp._char(xi)
        return out

    def _sample(self, count, master, path):
        total = np.zeros(count)
        for k, comp in enumerate(self.components):
            total += comp._sample(count, master, (*path, k))
        return total

    def support(self):
        los, his = zip(*(c.support() for c in self.components))
        return (sum(los), sum(his))


@dataclass(frozen=True)
class Scaled(WeightMeasure):
    factor: float
    inner: WeightMeasure

    def __post_init__(self):
        _require_finite("scaled", self.factor)
        if not self.factor > 0:
            raise InvalidMeasureError("scale factor must be positive")

    @property
    def atomless(self):
        return self.inner.atomless

    def _char(self, xi):
        return self.inner._char(xi * self.factor)

    def _sample(self, count, master, path):
        return self.factor * self.inner._sample(count, master, path)

    def support(self):
        lo, hi = self.inner.support()
        return (self.factor * lo, self.factor * hi)

    def band_term(self, band, t, power):
        """The inner weight's at time t times the factor."""
        return self.inner.band_term(band, t * self.factor, power)

    def pair_view(self):
        view = self.inner.pair_view()
        return None if view is None else view.scaled(self.factor)


def convolve(a: WeightMeasure, b: WeightMeasure) -> WeightMeasure:
    """Law of the sum of independent draws; char fns multiply."""
    parts = []
    for m in (a, b):
        parts.extend(m.components if isinstance(m, Convolution) else (m,))
    return Convolution(tuple(parts))


def convolution_power(measure: WeightMeasure, n: int) -> WeightMeasure:
    """n-fold convolution of ``measure`` with itself; n >= 1."""
    if n < 1:
        raise InvalidMeasureError(
            "convolution power needs n >= 1 (n = 0 would be a point mass)")
    if n == 1:
        return measure
    return Convolution(tuple([measure] * n))


def rescale(measure: WeightMeasure, factor: float) -> WeightMeasure:
    """Pushforward under x -> factor * x, factor > 0."""
    if not factor > 0:
        raise InvalidMeasureError("scale factor must be positive")
    if factor == 1.0:
        return measure
    if isinstance(measure, Scaled):
        return Scaled(factor * measure.factor, measure.inner)
    return Scaled(float(factor), measure)


def require_atomless(measure: WeightMeasure, where: str) -> None:
    if not measure.atomless:
        raise InvalidMeasureError(f"{where} requires an atomless weight measure")
