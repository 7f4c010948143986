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

import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .flows import BoxSet, TorusWinding, arc_correlation, overlap_kernel, wrap
from .measures import interval_transform
from .quadrature import Kinked, adaptive_gl

_MASS_TOL = 1e-9
MERGE_TOL = 1e-12       # atom frequencies this close merge in ``spectrum_of_observable``


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
        if not np.all(np.isfinite((self.lo, self.hi, self.mass, *self.profile))):
            raise ValueError("band bounds, mass and profile must be finite")
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

    def transform(self, t: np.ndarray, real: bool = False) -> np.ndarray:
        """Int e^{i r t} density(r) dr at a 1-d array of t, or its real part:
        each cell [c, c + w] with density d contributes exactly
        d w e^{i t (c + w/2)} sinc(t w / 2), which is d w at t = 0
        (``interval_transform``, one shared width)."""
        edges, dens = self.cells()
        width = self.cell_width
        return interval_transform(t, 0.5 * (edges[:-1] + edges[1:]), 0.5 * width,
                                  dens * width, real)

    def real_transform_sum(self, t: np.ndarray, weights: np.ndarray) -> float:
        """sum_i weights_i Re transform(t_i) for 1-d arrays."""
        return float(weights @ self.transform(t, real=True))

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
        if not np.all(np.isfinite([v for atom in self.atoms for v in atom])):
            raise ValueError("atom frequencies and masses must be finite")
        if any(m <= 0 for _, m in self.atoms):
            raise ValueError("atom masses must be positive")
        total = sum(m for _, m in self.atoms) + (self.band.mass if self.band else 0.0)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"spectral mass {total} differs from 1 beyond 1e-9")

    def correlation(self, t):
        """rho(t) = sum_k m_k e^{i w_k t} + Int e^{i r t} density(r) dr, the
        atoms by ``interval_transform`` (width 0), the band by its transform."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        out = np.zeros(len(tt), dtype=complex)
        if self.atoms:
            w, m = np.array(self.atoms).T
            out += interval_transform(tt, w, 0.0, m)
        if self.band is not None:
            out += self.band.transform(tt)
        return complex(out[0]) if scalar else out

    def atom_sum(self, fn) -> float:
        """sum_k m_k fn(w_k) over the atoms, one vectorized call of ``fn``."""
        if not self.atoms:
            return 0.0
        w = np.array([w for w, _ in self.atoms])
        m = np.array([m for _, m in self.atoms])
        return float(fn(w) @ m)

    def expect(self, fn, tol: float = 1e-8,
               frequency: float = 0.0) -> tuple[float, float]:
        """(Int fn(r) dsigma(r), quadrature difference of the band term) for
        a real vectorized function oscillating like exp(i*frequency*r): the
        atoms exactly, the band by ``adaptive_gl`` on whole band cells, so
        the density jumps only at cell edges."""
        total, diff = self.atom_sum(fn), 0.0
        if self.band is not None:
            band = self.band
            val, diff = adaptive_gl(lambda r: fn(r) * band.density(r),
                                    band.lo, band.hi, tol, len(band.profile),
                                    frequency)
            total += val.real
        return total, diff


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

    def orbit_mean(self, x, shifts, alpha) -> np.ndarray:
        """The mean over each row i of f(x_i + shifts[i, j] alpha mod 1), for
        points ``x`` of shape (n, d) and ``shifts`` of shape (n, m): the inner
        average of (A_t f)(x_i) from m draws of t r.  This body builds the
        (n, m, d) point cloud; an observable may answer it coordinate by
        coordinate instead."""
        pts = wrap(x[:, None, :] + shifts[:, :, None] * np.asarray(alpha))
        return self(pts).mean(axis=1)


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
        # c_k e^{i theta} + c_{-k} e^{-i theta} = (Re c_k + Re c_{-k}) cos theta
        # - (Im c_k - Im c_{-k}) sin theta, theta = 2 pi k.x, once for each k > -k;
        # the mirror need not be the exact conjugate
        self._pairs = []
        for k, c in self.coefficients.items():
            mirror = tuple(-v for v in k)
            if k > mirror:
                m = self.coefficients[mirror]
                self._pairs.append((tuple((d, v) for d, v in enumerate(k) if v),
                                    c.real + m.real, c.imag - m.imag))
        self.mean = 0.0
        self.sup_norm = float(np.sum(np.abs(self._C)))
        self.l2_norm = float(np.sqrt(np.sum(np.abs(self._C) ** 2)))

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        phases = np.exp(2j * np.pi * (pts @ self._K.T))
        return np.real(phases @ self._C)

    def orbit_mean(self, x, shifts, alpha) -> np.ndarray:
        """One real cos per pair of mirrored modes (and a sin where their
        imaginary parts do not cancel), on only the coordinates some mode uses."""
        y = {d: wrap(x[:, d, None] + shifts * alpha[d])
             for d in {d for modes, _, _ in self._pairs for d, _ in modes}}
        total = None
        for modes, cos_coef, sin_coef in self._pairs:
            phase = reduce(operator.add, (y[d] if v == 1 else v * y[d] for d, v in modes))
            theta = (2.0 * np.pi) * phase
            term = cos_coef * np.cos(theta)
            if sin_coef:
                term -= sin_coef * np.sin(theta)
            total = term if total is None else np.add(total, term, out=total)
        return total.mean(axis=1)


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

    def orbit_mean(self, x, shifts, alpha) -> np.ndarray:
        """The share of each row inside the box, one arc test per coordinate."""
        inside = np.ones(shifts.shape, dtype=bool)
        for d, a in enumerate(self.box.sides):
            inside &= wrap(x[:, d, None] + shifts * alpha[d]) < a
        return np.count_nonzero(inside, axis=1) / shifts.shape[1]


def spectrum_of_observable(flow: TorusWinding, obs: FourierObservable) -> SpectralModel:
    """Spectral measure of the cyclic subspace of ``obs``: one atom of mass
    |c_k|^2 at frequency 2 pi k.alpha, frequencies within ``MERGE_TOL`` of
    the previous merged.  Requires unit L2 norm so the result is a
    probability measure."""
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
        if merged and abs(w - merged[-1][0]) <= MERGE_TOL:
            merged[-1][1] += m
        else:
            merged.append([float(w), float(m)])
    return SpectralModel(atoms=tuple((w, m) for w, m in merged))


# ---------------------------------------------------------------------------
# correlation models
# ---------------------------------------------------------------------------

class CorrelationModel:
    """Correlation function rho(t); ``value`` is vectorized over t.  A model
    whose pair integral has a quadrature also describes rho(t u) - baseline
    over |u| <= reach at t >= 0 by ``kernel(t, reach)``, a ``Kinked``."""

    def value(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class BoxAutocorrelation(CorrelationModel):
    """rho(t) = mu(A intersect T_t A) for a box set A of a winding."""

    flow: TorusWinding
    box: BoxSet

    def value(self, t):
        return arc_correlation(self.flow, self.box, self.box, t)

    def kernel(self, t: float, reach: float) -> Kinked:
        """rho(t u), the product of the coordinate overlaps at the shifts
        u t alpha_k (``overlap_kernel``)."""
        slope = t * np.asarray(self.flow.alpha)
        return overlap_kernel(self.box.sides, 0.0 * slope, slope, reach)


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
        h, w, heights = self.arrays
        if h.ndim != 1 or w.ndim != 1 or heights.ndim != 1:
            raise ValueError("spikes need 1-d centers, halfwidths and heights")
        if not np.all((w > 0) & (h - w > 0)):  # NaN (e.g. a null entry) fails too
            raise ValueError("spikes need positive halfwidths and h - L > 0")
        if not (np.isfinite(self.baseline) and np.all(np.isfinite(heights))):
            raise ValueError("baseline and spike heights must be finite")
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

    @cached_property
    def _cells(self) -> np.ndarray:
        """The midpoints of the gaps between consecutive windows: the
        windows are disjoint, so these split [0, inf) into one cell per
        spike that holds its window."""
        h, w, _ = self.arrays
        return 0.5 * ((h + w)[:-1] + (h - w)[1:])

    def _excess(self, x: np.ndarray) -> np.ndarray:
        """sum_j heights_j max(0, 1 - |x - h_j| / L_j) at x >= 0: only the
        spike whose cell holds x can be nonzero there."""
        if not self.centers:
            return np.zeros(np.shape(x))
        h, w, heights = self.arrays
        j = np.searchsorted(self._cells, x)
        return heights[j] * np.maximum(0.0, 1.0 - np.abs(x - h[j]) / w[j])

    def value(self, t):
        out = self.baseline + self._excess(np.abs(np.asarray(t, dtype=float)))
        return float(out) if out.ndim == 0 else out

    def kernel(self, t: float, reach: float) -> Kinked:
        """rho(t u) - baseline: piecewise linear with kinks at +-(h_j - L_j)
        / t, +-h_j / t and +-(h_j + L_j) / t of the spikes whose window
        starts below t reach (the others are 0 there), sorted as laid out
        since the windows are disjoint; Lipschitz t max |height_j| / L_j
        and range from min(height_j, 0) to max(height_j, 0) over them."""
        h, w, heights = self.arrays
        seen = int(np.searchsorted(h - w, t * reach))
        h, w, heights = h[:seen], w[:seen], heights[:seen]
        ends = np.column_stack((h - w, h, h + w)).ravel() / t
        lipschitz = t * float(np.max(np.abs(heights) / w, initial=0.0))
        spread = float(max(heights.max(initial=0.0), 0.0) - min(heights.min(initial=0.0), 0.0))
        return Kinked(np.concatenate((-ends[::-1], ends))[None, :],
                      lambda u, column=0, factor=1.0: factor * self._excess(np.abs(t * u)),
                      1, lipschitz, spread)


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
    if count < 1:
        raise ValueError("arithmetic spikes need count >= 1")
    centers = tuple(step * (j + 1) for j in range(count))
    # one spike has no consecutive ratio: it keeps the default growth
    growth = count / (count - 1.0) * (1.0 - 1e-12) if count > 1 else SpikeCorrelation.growth
    return SpikeCorrelation(baseline, centers, (halfwidth,) * count,
                            (height,) * count, growth)
