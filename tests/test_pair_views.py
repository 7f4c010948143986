"""The exact pair views of the absolutely continuous weights against
independent oracles: the triangular weight's difference density as a
4-fold uniform convolution in truncated powers, the truncated Gaussian's as
an mpmath autocorrelation, and their masses, spike and box pair integrals
within 1e-13."""

import time
from fractions import Fraction
from math import comb

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from homavg import (BoxAutocorrelation, BoxSet, Triangular, TruncatedGaussian,
                    difference_density, geometric_spikes, golden_winding, rescale)
from homavg.flows import arc_overlap, overlap_kernel

mp.mp.dps = 20
GOLDEN_BOX = BoxAutocorrelation(golden_winding(), BoxSet((0.5, 0.4)))
GL_NODES, GL_WEIGHTS = leggauss(16)


def split_reference(density, kernel, breaks, step, reach):
    """Int kernel(u) density(u) du over [-reach, reach], between the
    ``breaks`` there, each piece cut into parts at most ``step`` wide and
    taken by 16-node Gauss-Legendre: the kernel is a float polynomial on
    each piece, the density an mpmath function analytic there."""
    breaks = np.unique(np.clip(np.append(breaks, (-reach, reach)), -reach, reach))
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(a, b, max(1, int(np.ceil((b - a) / step))) + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * GL_NODES
            dens = np.array([float(density(x)) for x in u])
            total += 0.5 * (hi - lo) * float(np.sum(GL_WEIGHTS * kernel(u) * dens))
    return total


def spike_kernel(spike, t):
    h, L, _ = spike.arrays
    breaks = np.concatenate([(h - L) / t, h / t, (h + L) / t])
    return (lambda u: spike.value(t * u) - spike.baseline), np.concatenate((breaks, -breaks))


def box_kernel(sides, slope, width):
    def kernel(u):
        out = np.ones(len(u))
        for a, s in zip(sides, slope):
            out = out * arc_overlap(a, a, u * s)
        return out
    return kernel, overlap_kernel(sides, 0.0 * slope, slope, width).kinks[0]


# -- triangular: the cubic B-spline of U1 + U2 - U3 - U4 ----------------------------

def truncated_power(x: Fraction, order: int) -> Fraction:
    """sum_k (-1)^k C(4, k) (x + 2 - k)_+^order / order!: the centered cubic
    B-spline (order 3) and its integral from -2 (order 4)."""
    fact = 6 if order == 3 else 24
    return sum((-1) ** k * comb(4, k) * max(x + 2 - k, 0) ** order for k in range(5)) / fact


TRIANGULAR = [Triangular(0.5, 2.5), Triangular(-1.0, 0.3), rescale(Triangular(1.0, 3.0), 0.7)]


@pytest.mark.parametrize("weight", TRIANGULAR, ids=["tri", "tri-negative", "tri-scaled"])
def test_triangular_view_matches_its_convolution(weight):
    g = difference_density(weight)
    lo, hi = weight.support()
    half = Fraction((hi - lo) / 2)
    u = np.linspace(-1.1 * (hi - lo), 1.1 * (hi - lo), 801)
    want = [float(truncated_power(Fraction(x) / half, 3) / half) for x in u]
    np.testing.assert_allclose(g(u), want, rtol=0, atol=1e-13 / float(half))
    # masses of random intervals, exact in Fractions
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.2, 1.2, 60) * (hi - lo)
    b = a + rng.exponential(0.3, 60) * (hi - lo)
    exact = [float(truncated_power(Fraction(y) / half, 4) - truncated_power(Fraction(x) / half, 4))
             for x, y in zip(a, b)]
    np.testing.assert_allclose(g.mass(a, b), exact, rtol=0, atol=1e-13)
    assert g.mass(-2 * (hi - lo), 2 * (hi - lo)) == pytest.approx(1.0, rel=0, abs=1e-15)
    density = lambda x: truncated_power(Fraction(x) / half, 3) / half
    spike = geometric_spikes(3.0, 0.4, count=6, first=1.5)
    h, L, _ = spike.arrays
    for t in (1.0, 4.0, 30.0):
        kernel, breaks = spike_kernel(spike, t)
        breaks = np.concatenate((breaks, float(half) * np.arange(-2, 3)))
        got, error, _ = g.spike_probe(spike, t, h - L, h + L)
        assert error == 0.0
        assert got == pytest.approx(split_reference(density, kernel, breaks, np.inf,
                                                    2 * float(half)), rel=0, abs=1e-13)
    for t in (3.0, 30.0):
        slope = t * np.asarray(golden_winding().alpha)
        kernel, breaks = box_kernel((0.5, 0.4), slope, 2 * float(half))
        breaks = np.concatenate((breaks, float(half) * np.arange(-2, 3)))
        got, error = g.pair_integral(GOLDEN_BOX, t)
        assert error == 0.0
        assert got == pytest.approx(split_reference(density, kernel, breaks, np.inf,
                                                    2 * float(half)), rel=0, abs=1e-13)


# -- truncated gaussian: the autocorrelation of its density --------------------------

GAUSS_GRID = [(0.5, 0.2, 0.0, 1.0), (0.3, 0.05, 0.0, 1.0), (3.0, 0.5, 0.0, 1.0),
              (-4.0, 0.3, 0.0, 1.0), (0.5, 5.0, 0.0, 1.0), (0.5, 1e-3, 0.0, 1.0),
              (0.999, 1e-3, 0.0, 1.0), (-1.0, 1.0, 2.0, 3.5), (0.5, 5000.0, 0.0, 1.0),
              (-1.0, 1.0, 0.0, 1e-4)]
GAUSS_IDS = ["central", "narrow", "tail-above", "tail-below", "wide", "sigma-1e-3",
             "sigma-1e-3-edge", "far-right", "nearly-flat", "thin-tail"]


class GaussOracle:
    """The truncated Gaussian in mpmath: density, cdf and the law of r - s."""

    def __init__(self, mu, sigma, lo, hi):
        self.mu, self.sigma, self.lo, self.hi = map(mp.mpf, (mu, sigma, lo, hi))
        self.alpha = (self.lo - self.mu) / self.sigma
        self.beta = (self.hi - self.mu) / self.sigma
        self.z = self.phi_diff(self.alpha, self.beta)

    @staticmethod
    def phi_diff(a, b):
        """Phi(b) - Phi(a), taken in the tail it lies in."""
        return mp.ncdf(-a) - mp.ncdf(-b) if a > 0 else mp.ncdf(b) - mp.ncdf(a)

    def pdf(self, x):
        if not self.lo <= x <= self.hi:
            return mp.mpf(0)
        return mp.npdf((x - self.mu) / self.sigma) / (self.sigma * self.z)

    def cdf(self, x):
        z = min(max((mp.mpf(x) - self.mu) / self.sigma, self.alpha), self.beta)
        return self.phi_diff(self.alpha, z) / self.z

    def peak_splits(self, lo, hi):
        """Points around the peak of the density, for splitting quadratures."""
        peak = min(max(self.mu, self.lo), self.hi)
        rate = max(abs(peak - self.mu), self.sigma) / self.sigma ** 2   # decay near the peak
        steps = [mp.mpf(2) ** k for k in range(-3, 8)]
        pts = [peak] + [peak + d * s / rate for s in steps for d in (-1, 1)]
        return sorted({p for p in pts if lo < p < hi} | {lo, hi})

    def autocorrelation(self, u):
        """g(u) = Int f(x) f(x - u) dx, split at the peak of the product."""
        u = mp.mpf(u)
        x0, x1 = max(self.lo, self.lo + u), min(self.hi, self.hi + u)
        if x1 <= x0:
            return mp.mpf(0)
        top = min(max(self.mu + u / 2, x0), x1)
        return mp.quad(lambda x: self.pdf(x) * self.pdf(x - u),
                       sorted({x0, top, x1} | set(self.peak_splits(x0, x1))))

    def closed_form(self, u):
        """g(u) = e^{-v^2/4} [Phi(sqrt2 y1) - Phi(sqrt2 y0)] / (2 sqrt(pi) sigma Z^2)."""
        v = abs(mp.mpf(u)) / self.sigma
        y0, y1 = self.alpha + v / 2, self.beta - v / 2
        if y1 <= y0:
            return mp.mpf(0)
        root2 = mp.sqrt(2)
        return (mp.exp(-v * v / 4) * self.phi_diff(root2 * y0, root2 * y1)
                / (2 * mp.sqrt(mp.pi) * self.sigma * self.z ** 2))

    def mass(self, a, b):
        """P(a <= r - s <= b) = Int f(r) [F(r - a) - F(r - b)] dr, with no use
        of the density of r - s."""
        a, b = mp.mpf(a), mp.mpf(b)
        splits = {p for p in (self.lo + a, self.lo + b, self.hi + a, self.hi + b)
                  if self.lo < p < self.hi}
        pts = sorted(set(self.peak_splits(self.lo, self.hi)) | splits)
        return mp.quad(lambda r: self.pdf(r) * (self.cdf(r - a) - self.cdf(r - b)), pts,
                       method="gauss-legendre")


@pytest.mark.parametrize("params", GAUSS_GRID, ids=GAUSS_IDS)
def test_gauss_view_matches_the_autocorrelation(params):
    weight = TruncatedGaussian(*params)
    oracle = GaussOracle(*params)
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        g = difference_density(weight)
        builds.append(time.perf_counter() - start)
    assert min(builds) < 0.01      # a narrow weight's knots follow its mass
    width = params[3] - params[2]
    # where the mass lives: a few sigma, or sigma^2 / distance from a far mean;
    # the references integrate over |u| <= reach and the rest carries no mass
    scale = min(width, 12 * params[1], 40 * params[1] ** 2 / max(
        params[2] - params[0], params[0] - params[3], params[1]))
    reach = min(4 * scale, width)
    assert reach == width or oracle.mass(reach, width) < 1e-30
    peak = float(oracle.closed_form(0))
    for u in np.concatenate((np.linspace(0, scale, 4), [0.5 * width, 0.97 * width])):
        with mp.workdps(30):
            want = oracle.autocorrelation(u)
            assert float(oracle.closed_form(u)) == pytest.approx(float(want), rel=1e-15,
                                                                 abs=1e-20 * peak)
        assert g(u) == g(-u) == pytest.approx(float(want), rel=1e-12, abs=1e-15 * peak)
    assert g.mass(-width, width) == pytest.approx(1.0, rel=0, abs=1e-13)
    cuts = np.linspace(-scale, scale, 4)
    for a, b in zip(cuts[:-1], cuts[1:]):
        assert g.mass(a, b) == pytest.approx(float(oracle.mass(a, b)), rel=0, abs=1e-13)
    # spikes whose bands fall where the mass lives, and the box pair integral
    spike = geometric_spikes(3.0, 0.4, count=6, first=1.5)
    h, L, _ = spike.arrays
    for t in (1.0 / scale, 6.0 / scale):
        kernel, breaks = spike_kernel(spike, t)
        got, error, _ = g.spike_probe(spike, t, h - L, h + L)
        assert error == 0.0
        assert got == pytest.approx(split_reference(
            oracle.closed_form, kernel, np.append(breaks, 0.0), scale / 8, reach),
            rel=0, abs=1e-13)
    slope = 2.0 / scale * np.asarray(golden_winding().alpha)
    kernel, breaks = box_kernel((0.5, 0.4), slope, width)
    got, error = g.pair_integral(GOLDEN_BOX, 2.0 / scale)
    assert error == 0.0
    assert got == pytest.approx(split_reference(
        oracle.closed_form, kernel, np.append(breaks, 0.0), scale / 8, reach),
        rel=0, abs=1e-13)
