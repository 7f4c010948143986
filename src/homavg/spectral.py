"""Spectral and correlation models of flows.

A spectral model is a probability measure on the frequency line (finitely
many atoms plus an optional bounded piecewise-constant density); it carries
the unitary action of a flow on one cyclic subspace, and its transform

    rho(t) = Int e^{i r t} dsigma(r)

is the correlation function of the cyclic vector.  Correlation models come
in three flavours: the closed-form box autocorrelation of a winding, the
transform of a spectral model, and a synthetic spike profile (a baseline
plus narrow triangular bumps at sparsely spaced centers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flows import BoxSet, TorusWinding, arc_correlation
from .quadrature import adaptive_gl

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class FrequencyBand:
    """Piecewise-constant spectral density over [lo, hi] carrying ``mass``.

    ``profile`` lists relative cell weights (normalized internally); a
    single-entry profile is a flat band.
    """

    lo: float
    hi: float
    mass: float
    profile: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("band needs lo < hi")
        if self.mass <= 0:
            raise ValueError("band mass must be positive")
        if any(v < 0 for v in self.profile) or sum(self.profile) <= 0:
            raise ValueError("band profile must be nonnegative with positive sum")

    @property
    def cell_width(self) -> float:
        return (self.hi - self.lo) / len(self.profile)

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, densities): the len(profile) + 1 cell edges and the
        constant density on each cell."""
        prof = np.asarray(self.profile, dtype=float)
        edges = np.linspace(self.lo, self.hi, len(prof) + 1)
        return edges, prof * (self.mass / (prof.sum() * self.cell_width))

    def density(self, r):
        """Density value at frequencies ``r`` (zero outside the band)."""
        r = np.asarray(r, dtype=float)
        _, dens = self.cells()
        idx = np.clip(((r - self.lo) / self.cell_width).astype(int), 0, len(dens) - 1)
        inside = (r >= self.lo) & (r <= self.hi)
        return np.where(inside, dens[idx], 0.0)


@dataclass(frozen=True)
class SpectralModel:
    """Probability measure on frequencies: atoms plus an optional band."""

    atoms: tuple[tuple[float, float], ...] = ()
    band: FrequencyBand | None = None

    def __post_init__(self):
        if any(m <= 0 for _, m in self.atoms):
            raise ValueError("atom masses must be positive")
        total = sum(m for _, m in self.atoms) + (self.band.mass if self.band else 0.0)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"spectral mass {total} differs from 1 beyond 1e-9")

    def correlation(self, t):
        """rho(t) = sum_k m_k e^{i w_k t} + Int e^{i r t} density(r) dr.

        Each band cell [c, c + w] with density d contributes exactly
        d w e^{i t (c + w/2)} sinc(t w / 2), which is d w at t = 0.
        """
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        out = np.zeros(len(tt), dtype=complex)
        if self.atoms:
            w = np.array([w for w, _ in self.atoms])
            m = np.array([m for _, m in self.atoms])
            out += np.exp(1j * np.outer(tt, w)) @ m
        if self.band is not None:
            edges, dens = self.band.cells()
            width = self.band.cell_width
            mids = 0.5 * (edges[:-1] + edges[1:])
            out += (np.exp(1j * np.outer(tt, mids)) @ dens) * (
                width * np.sinc(tt * width / (2.0 * np.pi)))
        return complex(out[0]) if scalar else out

    def expect(self, fn, tol: float = 1e-8, cells: int = 2) -> float:
        """Int fn(r) dsigma(r) for a real vectorized integrand."""
        total = 0.0
        if self.atoms:
            w = np.array([w for w, _ in self.atoms])
            m = np.array([m for _, m in self.atoms])
            total += float(fn(w) @ m)
        if self.band is not None:
            band = self.band
            val, _ = adaptive_gl(lambda r: fn(r) * band.density(r),
                                 band.lo, band.hi, tol, cells=cells)
            total += val.real
        return total


def lebesgue_band(lo: float = -1.0, hi: float = 1.0) -> SpectralModel:
    return SpectralModel(band=FrequencyBand(lo, hi, 1.0))


# ---------------------------------------------------------------------------
# observables on the torus
# ---------------------------------------------------------------------------

class Observable:
    """A bounded function on the d-torus with a declared space mean and
    sup-norm bound; callable on point arrays of shape (..., d)."""

    mean: float
    sup_norm: float

    def __call__(self, points):
        raise NotImplementedError


class FourierObservable(Observable):
    """Finite combination sum_k c_k e^{2 pi i k.x} over integer vectors k.

    The coefficient set must be conjugate-symmetric (c_{-k} = conj(c_k)) so
    the observable is real-valued; the zero mode is excluded, so the mean
    is exactly zero.
    """

    def __init__(self, coefficients: dict[tuple[int, ...], complex]):
        if not coefficients:
            raise ValueError("need at least one coefficient")
        dims = {len(k) for k in coefficients}
        if len(dims) != 1:
            raise ValueError("all wave vectors must share one dimension")
        if any(all(v == 0 for v in k) for k in coefficients):
            raise ValueError("zero-mean contract: the constant mode is not allowed")
        for k, c in coefficients.items():
            mirror = tuple(-v for v in k)
            if mirror not in coefficients or abs(np.conj(c) - coefficients[mirror]) > 1e-12:
                raise ValueError("coefficients must be conjugate-symmetric (real observable)")
        self.coefficients = {tuple(k): complex(c) for k, c in sorted(coefficients.items())}
        self.dimension = dims.pop()
        self._K = np.array(list(self.coefficients.keys()), dtype=float)
        self._C = np.array(list(self.coefficients.values()))
        self.mean = 0.0
        self.sup_norm = float(np.sum(np.abs(self._C)))
        self.l2_norm = float(np.sqrt(np.sum(np.abs(self._C) ** 2)))

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        phases = np.exp(2j * np.pi * (pts @ self._K.T))
        return np.real(phases @ self._C)


def cos_mode(dimension: int, axis: int) -> FourierObservable:
    """sqrt(2) * cos(2 pi x_axis): zero mean, unit L2 norm."""
    k = tuple(1 if j == axis else 0 for j in range(dimension))
    mk = tuple(-v for v in k)
    c = 1.0 / np.sqrt(2.0)
    return FourierObservable({k: c + 0j, mk: c + 0j})


class BoxIndicator(Observable):
    """Indicator of a box set; mean is the box volume."""

    def __init__(self, box: BoxSet):
        self.box = box
        self.mean = box.volume
        self.sup_norm = 1.0

    def __call__(self, points):
        return self.box.contains(points).astype(float)


def spectrum_of_observable(flow: TorusWinding, obs: FourierObservable,
                           merge_tol: float = 1e-12) -> SpectralModel:
    """Spectral measure of the cyclic subspace of ``obs``: one atom of mass
    |c_k|^2 at frequency 2 pi k.alpha, equal frequencies merged.  Requires
    unit L2 norm so the result is a probability measure."""
    if obs.dimension != flow.dimension:
        raise ValueError("observable dimension must match the winding")
    if abs(obs.l2_norm - 1.0) > 1e-9:
        raise ValueError("observable must have unit L2 norm")
    alpha = np.asarray(flow.alpha)
    freqs = 2.0 * np.pi * (obs._K @ alpha)
    masses = np.abs(obs._C) ** 2
    order = np.argsort(freqs)
    merged: list[list[float]] = []
    for w, m in zip(freqs[order], masses[order]):
        if merged and abs(w - merged[-1][0]) <= merge_tol:
            merged[-1][1] += m
        else:
            merged.append([float(w), float(m)])
    return SpectralModel(atoms=tuple((w, m) for w, m in merged))


# ---------------------------------------------------------------------------
# correlation models
# ---------------------------------------------------------------------------

class CorrelationModel:
    """Correlation function rho(t); ``value`` is vectorized over t."""

    def value(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class BoxAutocorrelation(CorrelationModel):
    """rho(t) = mu(A intersect T_t A) for a box set A of a winding."""

    flow: TorusWinding
    box: BoxSet

    def value(self, t):
        return arc_correlation(self.flow, self.box, self.box, t)


@dataclass(frozen=True)
class BochnerCorrelation(CorrelationModel):
    """Real part of the spectral-model transform."""

    spectrum: SpectralModel

    def value(self, t):
        return np.real(self.spectrum.correlation(t))


@dataclass(frozen=True)
class SpikeCorrelation(CorrelationModel):
    """Baseline plus triangular bumps: rho(|t|) = baseline outside every
    [h_j - L_j, h_j + L_j] and baseline + height_j * (1 - |t - h_j| / L_j)
    inside.  Evaluated at |t| (correlation functions are even).

    Centers must grow: h_{j+1} / h_j >= growth for the declared growth > 1.
    Positive-definiteness is NOT enforced: this is a modeling device for
    localized deviations from mixing, not a transform of any spectral
    measure, and its apexes intentionally exceed the baseline.
    """

    baseline: float
    centers: tuple[float, ...] = ()
    halfwidths: tuple[float, ...] = ()
    heights: tuple[float, ...] = ()
    growth: float = 2.0

    def __post_init__(self):
        j = len(self.centers)
        if len(self.halfwidths) != j or len(self.heights) != j:
            raise ValueError("centers, halfwidths and heights must align")
        if self.baseline < 0:
            raise ValueError("baseline must be nonnegative")
        if not self.growth > 1.0:
            raise ValueError("declared growth factor must exceed 1")
        h, w, _ = self.arrays
        if not np.all((w > 0) & (h - w > 0)):  # NaN (e.g. a null entry) fails too
            raise ValueError("spikes need positive halfwidths and h - L > 0")
        # the first offending neighbour pair decides; at one pair the growth
        # test comes before the disjointness test
        with np.errstate(invalid="ignore"):  # inf / inf compares False
            slow = h[1:] / h[:-1] < self.growth * (1.0 - 1e-12)
        bad = np.flatnonzero(slow | (h[:-1] + w[:-1] >= h[1:] - w[1:]))
        if len(bad) and slow[bad[0]]:
            raise ValueError("centers must grow by at least the declared factor")
        if len(bad):
            raise ValueError("spike intervals must be pairwise disjoint")

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centers, halfwidths, heights) as read-only float64 arrays,
        converted once per model."""
        out = tuple(np.array(v, dtype=float)
                    for v in (self.centers, self.halfwidths, self.heights))
        for a in out:
            a.flags.writeable = False
        return out

    def value(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        out = np.full(len(tt), self.baseline)
        if self.centers:
            h, halfwidths, heights = self.arrays
            j = np.clip(np.searchsorted(h, tt), 0, len(h) - 1)
            jm = np.maximum(j - 1, 0)
            for cand, active in ((j, np.ones(len(tt), bool)), (jm, jm != j)):
                hw = halfwidths[cand]
                ht = heights[cand]
                dist = np.abs(tt - h[cand])
                bump = np.where(active & (dist < hw), ht * (1.0 - dist / hw), 0.0)
                out = out + bump
        return float(out[0]) if scalar else out


def geometric_spikes(growth: float = 10.0, halfwidth: float = 0.25,
                     height: float = 1.0, count: int = 8,
                     baseline: float = 0.25, first: float = 1.0) -> SpikeCorrelation:
    centers = tuple(first * growth ** j for j in range(count))
    return SpikeCorrelation(baseline, centers, (halfwidth,) * count,
                            (height,) * count, growth)


def arithmetic_spikes(step: float = 1.0, halfwidth: float = 0.25,
                      height: float = 1.0, count: int = 1000,
                      baseline: float = 0.25) -> SpikeCorrelation:
    """Spikes on the progression step, 2*step, ..., count*step.  The growth
    ratio of consecutive centers tends to 1, so the declared factor is the
    smallest consecutive ratio in the family."""
    centers = tuple(step * (j + 1) for j in range(count))
    growth = (count) / (count - 1.0) * (1.0 - 1e-12)
    return SpikeCorrelation(baseline, centers, (halfwidth,) * count,
                            (height,) * count, growth)
