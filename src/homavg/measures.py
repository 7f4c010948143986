"""Probability measures on the real line with exact characteristic functions.

A weight measure answers three queries:

* ``char_fn(xi)``      -- the transform  nu_hat(xi) = Int e^{i xi x} dnu(x),
* ``sample(n, seed)``  -- deterministic i.i.d. draws,
* ``difference_law()`` -- the exact forms of the law of r - s, or None.

Measures combine by convolution (characteristic functions multiply, samples
add) and rescale by a positive factor t (char_fn at t*xi, samples times t).
All values are immutable after construction and safe to share across threads.

Point masses exist only as a utility for convolution identities; every
averaging entry point downstream rejects measures that are not atomless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, log
from typing import Callable

import numpy as np
from scipy.special import log1p, log_ndtr, logsumexp, ndtr, ndtri_exp, wofz

from .errors import AccuracyError, InvalidMeasureError
from .rng import generator

_CHAR_TOL = 1e-10
_SAMPLE_RESOLUTION = 1e-12


def _require_finite(what: str, *params) -> None:
    if not np.all(np.isfinite(params)):
        raise InvalidMeasureError(f"{what} needs finite parameters")


def _sinc(u):
    """sin(u)/u with the removable singularity filled in."""
    return np.sinc(np.asarray(u) / np.pi)


class WeightMeasure:
    """Base class; subclasses implement the two queries plus support()."""

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

    def difference_law(self) -> DifferenceLaw | None:
        return None


@dataclass(frozen=True)
class DifferenceLaw:
    """The law of r - s for independent r, s ~ nu, in the forms nu has:

    * ``cells()``, called only when a caller needs the density: (masses,
      width) of equal cells whose correlation is a piecewise-linear density
      of r - s, nu's own when ``exact``, then rescaled by each of ``factors``
      in turn (knots times it, values over it), innermost first;
    * ``sinc``: (q, m) with |nu_hat(xi)| = |sinc(q xi)|^m, or None.
    """

    cells: Callable[[], tuple[np.ndarray, float]]
    exact: bool
    sinc: tuple[float, int] | None = None
    factors: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

class DensityMeasure(WeightMeasure):
    """Absolutely continuous measure on a bounded interval.

    Subclasses provide cdf/ppf; sampling is inverse-CDF on a shared uniform
    stream.
    """

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    def _sample(self, count, master, path):
        u = generator(master, *path).random(count)
        return self.ppf(u)

    def difference_law(self):
        return DifferenceLaw(self.cells, exact=False)

    def cells(self):
        """Masses of 4096 equal cells of the support, by cdf, and their width."""
        lo, hi = self.support()
        return np.diff(self.cdf(np.linspace(lo, hi, 4097))), (hi - lo) / 4096


@dataclass(frozen=True)
class Uniform(DensityMeasure):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        _require_finite("uniform", self.a, self.b)
        if not self.b > self.a:
            raise InvalidMeasureError("uniform needs a < b")

    def _char(self, xi):
        mid, half = 0.5 * (self.a + self.b), 0.5 * (self.b - self.a)
        return np.exp(1j * xi * mid) * _sinc(xi * half)

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def ppf(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)

    def support(self):
        return (self.a, self.b)

    def difference_law(self):
        return DifferenceLaw(self.cells, exact=True, sinc=(0.5 * (self.b - self.a), 1))

    def cells(self):
        return np.array([1.0]), self.b - self.a


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

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        w = self.b - self.a
        t = np.clip((x - self.a) / w, 0.0, 1.0)
        return np.where(t < 0.5, 2.0 * t * t, 1.0 - 2.0 * (1.0 - t) ** 2)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        w = self.b - self.a
        left = self.a + w * np.sqrt(np.maximum(u, 0.0) / 2.0)
        right = self.b - w * np.sqrt(np.maximum(1.0 - u, 0.0) / 2.0)
        return np.where(u < 0.5, left, right)

    def support(self):
        return (self.a, self.b)

    def difference_law(self):
        return DifferenceLaw(self.cells, exact=False, sinc=(0.25 * (self.b - self.a), 2))


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

    # cdf and ppf port scipy's truncnorm (scipy 1.17.1) operation for
    # operation on scipy.special alone, so draws and cell masses are
    # bit-identical to it; only the log mass of the truncation is hoisted
    # out of the per-point work.
    def cdf(self, x):
        al, be = self._bounds()
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        out = np.zeros(z.shape)
        out[np.isnan(z)] = np.nan
        out[z >= be] = 1.0
        inside = (al < z) & (z < be)
        if inside.any():
            log_mass = _log_gauss_mass(al, be)[0]
            out[inside] = np.exp(_log_cdf(z[inside], al, be, log_mass))
        return out[()] if out.ndim == 0 else out

    def ppf(self, u):
        al, be = self._bounds()
        q = np.asarray(u, dtype=float)
        out = np.full(q.shape, np.nan)
        out[q == 0] = al * self.sigma + self.mu
        out[q == 1] = be * self.sigma + self.mu
        inside = (0 < q) & (q < 1)
        if inside.any():
            q = q[inside]
            log_mass = _log_gauss_mass(al, be)[0]
            # Phi(x) = Phi(al) + q Z, or in the upper tail by symmetry.
            if al < 0:
                z = ndtri_exp(_log_sum(log_ndtr(al), np.log(q) + log_mass))
            else:
                z = -ndtri_exp(_log_sum(log_ndtr(-be), np.log1p(-q) + log_mass))
            out[inside] = z * self.sigma + self.mu
        return out[()] if out.ndim == 0 else out

    def support(self):
        return (self.lo, self.hi)


def _log_sum(log_p, log_q):
    """log(p + q) elementwise; ``log_p`` may be a scalar."""
    log_p, log_q = np.broadcast_arrays(log_p, log_q)
    return logsumexp([log_p, log_q], axis=0)


def _log_diff(log_p, log_q):
    """log(p - q) elementwise, through -q = q e^{i pi}."""
    return logsumexp([log_p, log_q + np.pi * 1j], axis=0)


def _log_gauss_mass(a, b):
    """log(Phi(b) - Phi(a)) elementwise as a 1-d array, each interval taken in
    the lower tail (reflected if it lies above 0) or, if it straddles 0, as
    1 minus both tails."""
    a, b = np.broadcast_arrays(np.atleast_1d(a), np.atleast_1d(b))
    left = b <= 0
    right = a > 0
    central = ~(left | right)
    out = np.full(a.shape, np.nan, dtype=complex)
    if left.any():
        out[left] = _log_diff(log_ndtr(b[left]), log_ndtr(a[left]))
    if right.any():
        out[right] = _log_diff(log_ndtr(-a[right]), log_ndtr(-b[right]))
    if central.any():
        out[central] = log1p(-ndtr(a[central]) - ndtr(-b[central]))
    return out.real


def _log_cdf(z, a, b, log_mass):
    """log P(Z <= z) for the standard normal truncated to (a, b), a < z < b;
    near 1 it is taken from the survival function to avoid cancellation."""
    out = _log_gauss_mass(a, z) - log_mass
    high = out > -0.1
    if high.any():
        out[high] = np.log1p(-np.exp(_log_sf(z[high], a, b, log_mass)))
    return out


def _log_sf(z, a, b, log_mass):
    """log P(Z > z), the mirror of _log_cdf."""
    out = _log_gauss_mass(z, b) - log_mass
    high = out > -0.1
    if high.any():
        out[high] = np.log1p(-np.exp(_log_cdf(z[high], a, b, log_mass)))
    return out


def _gauss_term(b, s, shift):
    """e^{shift - s^2/2} Phi(b - i s) for real b and real s (array or scalar),
    with w evaluated only where Im >= 0."""
    s = np.asarray(s, dtype=float)
    phase = np.exp(shift - 0.5 * b * b + 1j * b * s)
    if b <= 0:
        return 0.5 * phase * wofz((-s - 1j * b) / np.sqrt(2.0))
    return np.exp(shift - 0.5 * s * s) - 0.5 * phase * wofz((s + 1j * b) / np.sqrt(2.0))


class TableDensity(DensityMeasure):
    """Piecewise-constant density on an equispaced grid over [lo, hi].

    The characteristic function is the exact mixture of per-cell uniforms,
    so no quadrature error enters.  Cell masses are normalized on input.
    """

    atomless = True

    def __init__(self, lo: float, hi: float, masses):
        masses = np.asarray(masses, dtype=float)
        _require_finite("table", lo, hi)
        if not hi > lo:
            raise InvalidMeasureError("table needs lo < hi")
        if masses.ndim != 1 or len(masses) == 0:
            raise InvalidMeasureError("table needs a 1-d mass vector")
        if np.any(~np.isfinite(masses)) or np.any(masses < 0):
            raise InvalidMeasureError("table masses must be finite and nonnegative")
        total = masses.sum()
        if not total > 0:
            raise InvalidMeasureError("table masses must have positive sum")
        self.lo = float(lo)
        self.hi = float(hi)
        self.masses = masses / total
        self.edges = np.linspace(self.lo, self.hi, len(masses) + 1)
        self._cum = np.concatenate(([0.0], np.cumsum(self.masses)))
        self._cum[-1] = 1.0

    def _char(self, xi):
        delta = (self.hi - self.lo) / len(self.masses)
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        out = np.empty(len(xi), dtype=complex)
        step = max(1, int(5e6 // max(len(centers), 1)))
        for s in range(0, len(xi), step):
            f = xi[s:s + step]
            phases = np.exp(1j * np.outer(f, centers))
            out[s:s + step] = phases @ self.masses
        return out * _sinc(xi * delta / 2.0)

    def cdf(self, x):
        return np.interp(x, self.edges, self._cum)

    def ppf(self, u):
        return np.interp(u, self._cum, self.edges)

    def support(self):
        return (self.lo, self.hi)

    def difference_law(self):
        return DifferenceLaw(self.cells, exact=True)

    def cells(self):
        return self.masses.copy(), (self.hi - self.lo) / len(self.masses)

    def __eq__(self, other):
        return (isinstance(other, TableDensity) and self.lo == other.lo
                and self.hi == other.hi and np.array_equal(self.masses, other.masses))

    def __hash__(self):
        return hash((self.lo, self.hi, len(self.masses)))


# ---------------------------------------------------------------------------
# self-similar (iterated-function-system) measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfSimilar(WeightMeasure):
    """Invariant measure of the maps x -> ratios[k] * x + shifts[k], chosen
    with probabilities ``weights``.  Its characteristic function satisfies

        nu_hat(xi) = sum_k weights[k] * exp(i xi shifts[k]) * nu_hat(ratios[k] xi)

    which for a common contraction ratio collapses to an infinite product,
    truncated once the remaining-scale bound certifies error < 1e-10.
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

    def support(self):
        fixed = [c / (1.0 - r) for r, c in zip(self.ratios, self.shifts)]
        return (min(fixed), max(fixed))

    def _bound(self):
        lo, hi = self.support()
        return max(abs(lo), abs(hi), 1e-300)

    def _char(self, xi):
        top = float(np.max(np.abs(xi)))
        if top == 0.0:
            return np.ones(len(xi), dtype=complex)
        bound = self._bound()
        r = np.array(self.ratios)
        c = np.array(self.shifts)
        p = np.array(self.weights)
        if np.all(r == r[0]):
            ratio = float(r[0])
            depth = max(0, ceil(log(_CHAR_TOL / (top * bound)) / log(ratio)))
            out = np.ones(len(xi), dtype=complex)
            scaled = np.array(xi, dtype=float)
            for _ in range(depth):
                out *= np.exp(1j * np.outer(scaled, c)) @ p
                scaled = scaled * ratio
            return out
        return np.array([self._char_scalar(float(f), bound) for f in xi])

    def _char_scalar(self, xi, bound):
        # Distinct products of ratios coincide across reordered words, so the
        # recursion is polynomial when memoized on the accumulated scale.
        memo: dict[float, complex] = {}
        budget = [500_000]

        def rec(scale: float) -> complex:
            key = float(np.format_float_scientific(scale, precision=12))
            got = memo.get(key)
            if got is not None:
                return got
            if abs(scale * xi) * bound < _CHAR_TOL:
                return 1.0 + 0.0j
            budget[0] -= 1
            if budget[0] <= 0:
                raise AccuracyError(
                    "self-similar char fn recursion budget exhausted",
                    achieved=abs(scale * xi) * bound)
            val = complex(sum(
                p * np.exp(1j * scale * xi * c) * rec(scale * r)
                for r, c, p in zip(self.ratios, self.shifts, self.weights)))
            memo[key] = val
            return val

        return rec(1.0)

    def _sample(self, count, master, path):
        lo, hi = self.support()
        diam = max(hi - lo, 1e-300)
        rmax = max(self.ratios)
        depth = max(1, ceil(log(_SAMPLE_RESOLUTION / diam) / log(rmax)))
        rng = generator(master, *path)
        r = np.array(self.ratios)
        c = np.array(self.shifts)
        x = np.full(count, 0.5 * (lo + hi))
        for _ in range(depth):
            idx = rng.choice(len(r), size=count, p=np.array(self.weights))
            x = c[idx] + r[idx] * x
        return x


# ---------------------------------------------------------------------------
# nested-interval (Cantor-tree) measures
# ---------------------------------------------------------------------------

class NestedIntervals(WeightMeasure):
    """Uniform measure on a binary tree of closed intervals inside [0, 1].

    ``levels[n-1]`` lists the 2**n level-n intervals as exact Fractions,
    ordered so that the children of interval j are 2j and 2j+1 one level
    down.  Each level-n interval carries mass 2**-n; within the deepest
    intervals the mass is spread uniformly.
    """

    atomless = True

    def __init__(self, levels):
        norm = []
        for lev in levels:
            norm.append(tuple((Fraction(a), Fraction(b)) for a, b in lev))
        self.levels = tuple(norm)
        self._validate()
        leaves = self.levels[-1] if self.levels else ((Fraction(0), Fraction(1)),)
        self._leaf_lo = np.array([float(a) for a, _ in leaves])
        self._leaf_hi = np.array([float(b) for _, b in leaves])

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
            if not (level[0][0] >= 0 and level[-1][1] <= 1):
                raise InvalidMeasureError("support must stay inside [0, 1]")
            parents = level

    @property
    def depth(self) -> int:
        return len(self.levels)

    def support(self):
        return (float(self._leaf_lo.min()), float(self._leaf_hi.max()))

    def _char(self, xi):
        centers = 0.5 * (self._leaf_lo + self._leaf_hi)
        halves = 0.5 * (self._leaf_hi - self._leaf_lo)
        n = len(centers)
        phases = np.exp(1j * np.outer(xi, centers)) * _sinc(np.outer(xi, halves))
        return phases.sum(axis=1) / n

    def _sample(self, count, master, path):
        rng = generator(master, *path)
        idx = rng.integers(0, len(self._leaf_lo), size=count)
        u = rng.random(count)
        return self._leaf_lo[idx] + u * (self._leaf_hi[idx] - self._leaf_lo[idx])

    def __eq__(self, other):
        return isinstance(other, NestedIntervals) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)


# ---------------------------------------------------------------------------
# algebra: convolution, rescaling, point masses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointMass(WeightMeasure):
    """Dirac mass; a convolution-identity utility, never a valid weight for
    averaging (every averaging entry point rejects non-atomless measures)."""

    at: float = 0.0
    atomless = False

    def __post_init__(self):
        _require_finite("point mass", self.at)

    def _char(self, xi):
        return np.exp(1j * xi * self.at)

    def _sample(self, count, master, path):
        return np.full(count, self.at)

    def support(self):
        return (self.at, self.at)


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

    def difference_law(self):
        law = self.inner.difference_law()
        if law is None:
            return None
        sinc = law.sinc and (law.sinc[0] * self.factor, law.sinc[1])
        return replace(law, sinc=sinc, factors=(*law.factors, self.factor))


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
