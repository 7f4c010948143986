import re
import subprocess
import sys
from fractions import Fraction
from math import ceil, log
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, logsumexp

import homavg
from homavg import (Convolution, InvalidMeasureError, NestedIntervals,
                    PointMass, Scaled, SelfSimilar, TableDensity, Triangular,
                    TruncatedGaussian, Uniform, convolution_power, convolve,
                    rescale)
from homavg import measures, quadrature
from homavg.measures import (DigitLaw, DigitPairs, PiecewiseLinearDensity,
                             interval_transform, require_atomless)
from homavg.presets import resolve_measure
from homavg.rng import generator
from homavg.spectral import FrequencyBand

CANTOR = SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))
DYADIC_ODD = SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5))
DYADIC_EVEN = SelfSimilar((0.25, 0.25), (0.0, 0.25), (0.5, 0.5))
THREE_RATIOS = SelfSimilar((0.3, 0.45, 0.2), (0.0, 0.4, 0.8), (0.3, 0.3, 0.4))


def cantor_char_oracle(xi):
    """Centered product form e^{i xi/2} prod_k cos(xi / 3^k), independently
    of the IFS recursion under test."""
    val = np.exp(1j * xi / 2.0)
    k = 1
    while abs(xi) / 3 ** k > 1e-14:
        val *= np.cos(xi / 3 ** k)
        k += 1
    return val


def ternary_cantor_samples(n, seed):
    """Digit-based sampler: x = sum 2 b_k / 3^k with fair bits b_k."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, 40))
    return bits @ (2.0 / 3.0 ** np.arange(1, 41))


# -- characteristic functions -------------------------------------------------

def test_char_at_zero_is_one():
    for m in (Uniform(0, 1), Triangular(0, 2), CANTOR,
              TruncatedGaussian(0.5, 0.2, 0.0, 1.0),
              TableDensity(0.0, 1.0, [1.0, 2.0, 1.0])):
        assert m.char_fn(0.0) == pytest.approx(1.0, abs=1e-12)


def test_uniform_char_vanishes_at_two_pi():
    assert abs(Uniform(0, 1).char_fn(2 * np.pi)) < 1e-12


def test_cantor_char_at_pi():
    value = CANTOR.char_fn(np.pi)
    assert abs(value) == pytest.approx(0.466, abs=1e-3)
    assert value == pytest.approx(cantor_char_oracle(np.pi), abs=1e-9)
    emp = np.mean(np.exp(1j * np.pi * ternary_cantor_samples(10 ** 6, 4)))
    assert abs(value - emp) < 5e-3


def test_char_magnitude_and_hermitian_symmetry():
    rng = np.random.default_rng(1)
    xi = rng.uniform(-80, 80, size=32)
    for m in (Uniform(-1, 2), Triangular(0, 1), CANTOR, DYADIC_EVEN,
              convolve(Uniform(0, 1), CANTOR), rescale(CANTOR, 2.5),
              TableDensity(0.0, 2.0, rng.random(64)),
              TruncatedGaussian(0.5, 0.2, 0.0, 1.0),
              TruncatedGaussian(0.0, 0.2, 1.0, 2.0)):
        vals = m.char_fn(xi)
        assert np.all(np.abs(vals) <= 1.0 + 1e-9)
        np.testing.assert_allclose(m.char_fn(-xi), np.conj(vals), atol=1e-9)


def truncated_gaussian_oracle(m, xs):
    """Int e^{i xi x} pdf(x) dx / Z by 30-digit Gauss-Legendre quadrature,
    one subinterval per half period, independently of the Faddeeva form."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        mu, sg, lo, hi = (mp.mpf(v) for v in (m.mu, m.sigma, m.lo, m.hi))
        pdf = lambda x: mp.exp(-((x - mu) / sg) ** 2 / 2)
        z = mp.quad(pdf, [lo, hi])
        out = []
        for xi in xs:
            pts = mp.linspace(lo, hi, 2 + int(abs(xi) * (m.hi - m.lo) / np.pi))
            val = mp.quad(lambda x: mp.expj(xi * x) * pdf(x), pts,
                          method="gauss-legendre")
            out.append(complex(val / z))
    return np.array(out)


@pytest.mark.parametrize("params", [(0.5, 0.2, 0.0, 1.0),   # centred
                                    (0.0, 0.2, 1.0, 2.0),   # above the mean
                                    (3.0, 0.2, 1.0, 2.0),   # below the mean
                                    (0.5, 2.0, 0.0, 1.0)])  # wide
def test_truncated_gaussian_char_matches_mpmath_oracle(params):
    m = TruncatedGaussian(*params)
    xs = np.array([0.0, 0.7, 5.0, 60.0, 200.0])
    np.testing.assert_allclose(m.char_fn(xs), truncated_gaussian_oracle(m, xs),
                               rtol=0, atol=1e-12)
    assert m.char_fn(0.0) == 1.0


def test_self_similar_fixed_point_identity():
    rng = np.random.default_rng(2)
    for m, top in ((CANTOR, 40), (DYADIC_ODD, 40), (THREE_RATIOS, 1e3)):
        for xi in rng.uniform(-top, top, size=12):
            rhs = sum(p * np.exp(1j * xi * c) * m.char_fn(r * xi)
                      for r, c, p in zip(m.ratios, m.shifts, m.weights))
            assert m.char_fn(xi) == pytest.approx(rhs, abs=1e-9)


def test_unequal_ratio_self_similar_char():
    m = SelfSimilar((0.5, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))
    xi = 7.3
    rhs = sum(p * np.exp(1j * xi * c) * m.char_fn(r * xi)
              for r, c, p in zip(m.ratios, m.shifts, m.weights))
    assert m.char_fn(xi) == pytest.approx(rhs, abs=1e-8)
    # two partitions of [0, 1] into scaled copies give Uniform(0, 1), whose
    # transform is exact, as does the common-ratio chain (1/2, 1/2)
    xi = np.linspace(0.0, 200.0, 201)
    for m in (SelfSimilar((0.5, 0.25, 0.25), (0.0, 0.5, 0.75), (0.5, 0.25, 0.25)),
              SelfSimilar((1 / 3, 2 / 3), (0.0, 1 / 3), (1 / 3, 2 / 3)),
              SelfSimilar((0.5, 0.5), (0.0, 0.5), (0.5, 0.5))):
        np.testing.assert_allclose(m.char_fn(xi), Uniform(0, 1).char_fn(xi), rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [CANTOR, THREE_RATIOS], ids=["cantor", "three-ratios"])
def test_self_similar_transform_does_not_depend_on_the_block(monkeypatch, m):
    """Blocks of 64 values split the frequencies into many blocks."""
    xi = np.linspace(-300.0, 300.0, 1001)
    want = m.char_fn(xi)
    monkeypatch.setattr(quadrature, "BLOCK", 64)
    assert np.array_equal(m.char_fn(xi), want)


@pytest.mark.parametrize("xi", [np.inf, np.nan])
def test_self_similar_transform_rejects_non_finite_frequencies(xi):
    with pytest.raises(ValueError, match="finite"):
        THREE_RATIOS.char_fn(np.array([1.0, xi]))


def interval_reference(x, centers, half, masses, real):
    """sum_j m_j e^{i x c_j} sinc(x h_j), one interval at a time."""
    out = np.zeros(len(x), dtype=complex)
    for c, h, m in zip(centers, np.broadcast_to(half, np.shape(centers)), masses):
        u = x * h
        sinc = np.divide(np.sin(u), u, out=np.ones_like(u), where=u != 0.0)
        out += m * np.exp(1j * x * c) * sinc
    return out.real if real else out


INTERVAL_RNG = np.random.default_rng(47)
INTERVAL_CENTERS = INTERVAL_RNG.uniform(-1.0, 1.0, 13)
INTERVAL_MASSES = INTERVAL_RNG.uniform(0.1, 1.0, 13)
INTERVAL_HALVES = {
    "shared": 0.3,
    "per-interval": np.where(np.arange(13) % 4 == 0, 0.0,
                             INTERVAL_RNG.uniform(0.0, 0.5, 13)),   # every fourth an atom
    "atoms": 0.0,
}


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("half", INTERVAL_HALVES.values(), ids=INTERVAL_HALVES.keys())
def test_interval_transform_matches_per_interval_sum(monkeypatch, half, real):
    """x = 0 gives the total mass; |x| up to 1e4 leaves only the rounding of
    the sinc's argument, about 1e4 eps; blocks of 7 pairs, one x at a time,
    change no bit; no x gives no value."""
    x = np.concatenate(([0.0, 1e-9, -2.5], INTERVAL_RNG.uniform(-1e4, 1e4, 200)))
    got = interval_transform(x, INTERVAL_CENTERS, half, INTERVAL_MASSES, real)
    assert got.dtype == (float if real else complex)
    assert got[0] == pytest.approx(INTERVAL_MASSES.sum(), rel=1e-15)
    want = interval_reference(x, INTERVAL_CENTERS, half, INTERVAL_MASSES, real)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * INTERVAL_MASSES.sum())
    monkeypatch.setattr(quadrature, "BLOCK", 7)
    assert np.array_equal(interval_transform(x, INTERVAL_CENTERS, half, INTERVAL_MASSES, real), got)
    assert interval_transform(x[:0], INTERVAL_CENTERS, half, INTERVAL_MASSES, real).shape == (0,)


# -- interval mixtures: one exact source --------------------------------------

NESTED_LEVELS = [[("0/1", "2/5"), ("1/2", "1/1")],
                 [("0/1", "1/10"), ("3/10", "2/5"), ("1/2", "11/20"), ("4/5", "1/1")]]


def golden_weight(depth):
    """The golden adversary weight on the box (0.5, 0.5), built afresh."""
    return homavg.build_adversarial_measure(homavg.golden_winding(), homavg.BoxSet((0.5, 0.5)),
                                            depth).measure()


def test_interval_mixture_transforms_keep_their_float_formulas():
    """The transforms read from the exact intervals equal the float formulas
    they replace bit for bit, and the nested sampler rounds the same leaf
    ends as before."""
    xi = np.linspace(0.0, 1e4, 2001)
    a, b, at, edges, masses = 0.25, 1.25, 0.3, np.linspace(0.0, 1.5, 4), np.array([1.0, 3.0, 2.0])
    cases = [(Uniform(a, b), [0.5 * (a + b)], 0.5 * (b - a), [1.0]),
             (PointMass(at), [at], 0.0, [1.0]),
             (TableDensity(0, 1.5, masses), 0.5 * (edges[:-1] + edges[1:]), 0.5 * 1.5 / 3,
              masses / masses.sum())]
    for measure, centers, half, weights in cases:
        assert np.array_equal(measure.char_fn(xi), interval_transform(xi, centers, half, weights))
    for weight in (NestedIntervals(NESTED_LEVELS), golden_weight(4)):
        lo = np.array([float(a) for a, _ in weight.levels[-1]])
        hi = np.array([float(b) for _, b in weight.levels[-1]])
        rng = generator(9)
        idx, u = rng.integers(0, len(lo), size=1000), rng.random(1000)
        assert np.array_equal(weight.sample(1000, 9), lo[idx] + u * (hi[idx] - lo[idx]))


def test_intervals_run_once_per_weight(monkeypatch):
    """Transform, support, sampling and equality read one computation of
    ``intervals()``, also through the spectral channel, which asks for the
    support at every grid point."""
    calls = []
    for cls in (Uniform, TableDensity, NestedIntervals, PointMass):
        monkeypatch.setattr(cls, "intervals",
                            lambda self, f=cls.intervals: calls.append(self) or f(self))
    weights = [Uniform(0, 1), TableDensity(0, 1, [1, 2]), NestedIntervals(NESTED_LEVELS),
               golden_weight(4), PointMass(0.3)]
    spectrum = homavg.SpectralModel(atoms=((0.5, 0.5),), band=FrequencyBand(-1.0, 1.0, 0.5))
    for weight in weights:
        for _ in range(2):
            weight.char_fn(np.linspace(-50.0, 50.0, 11))
            weight.support()
            weight.sample(10, 1)
            assert weight == weight and hash(weight) == hash(weight)
            if weight.atomless:
                for t in (1.0, 2.0, 5.0):
                    homavg.l2_norm_spectral(spectrum, weight, t)
        assert sum(call is weight for call in calls) == 1
    assert len(calls) == len(weights)
    half = weights[3]._floats[1]        # 7.0e-52, where the float leaf ends coincide
    assert half == float(weights[3].intervals()[1][0]) and half > 0


def table_by_fractions(lo, hi, masses):
    """A table's exact intervals by Fraction arithmetic per cell, and their
    float view rounded from those Fractions."""
    low, n, total = Fraction(lo), len(masses), sum(map(Fraction, masses))
    half = (Fraction(hi) - low) / (2 * n)
    exact = (tuple(low + (2 * j + 1) * half for j in range(n)), (half,) * n,
             tuple(Fraction(m) / total for m in masses))
    ends = [[float(c + sign * half) for c in exact[0]] for sign in (-1, 1)]
    return exact, [[float(v) for v in exact[0]], float(half), [float(v) for v in exact[2]], *ends]


@settings(max_examples=60, deadline=None)
@given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-9, 1e6),
       masses=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40).filter(any))
def test_table_intervals_over_one_denominator_keep_the_fraction_values(lo, width, masses):
    """The integer numerators give the Fractions of per-cell arithmetic, the
    float view their bytes (int / int is correctly rounded), and the
    transform its bits."""
    hi = lo + width
    if not hi > lo:
        return
    weight = TableDensity(lo, hi, masses)
    exact, floats = table_by_fractions(lo, hi, masses)
    assert weight._exact == exact
    view = weight._floats
    assert view[1] == floats[1]
    for got, want in zip(view[:1] + view[2:], floats[:1] + floats[2:]):
        assert np.array_equal(got, want)
    xi = np.linspace(-1e3, 1e3, 41) / width
    assert np.array_equal(weight.char_fn(xi),
                          interval_transform(xi, floats[0], floats[1], floats[2]))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_log_sum_is_scipys_logsumexp_bit_for_bit():
    """On ties, gaps past exp underflow (> 745), infinities, NaN, a scalar
    first term, and the pairs that both of the truncated Gaussian's ppf
    tails take."""
    rng = np.random.default_rng(7)
    p = rng.uniform(-1e3, 0.0, 4000)
    nan, inf = np.nan, np.inf
    cases = [(p, p), (p, p - rng.uniform(745.0, 2e3, p.size)),
             (p, p + rng.normal(0.0, 30.0, p.size)),
             (p, p + rng.normal(0.0, 1e-14, p.size)), (-3.5, p),
             (np.array([-inf, -inf, 2.0, -inf, nan, 1.0, nan, -0.0]),
              np.array([-inf, 2.0, -inf, 0.0, 1.0, nan, -inf, -0.0]))]
    for mu, sigma, lo, hi in [(0.5, 0.2, 0.0, 1.0), (3.0, 0.5, 0.0, 1.0),
                              (-1.0, 0.5, 0.0, 1.0), (0.3, 0.05, 0.0, 1.0)]:
        al, be = (lo - mu) / sigma, (hi - mu) / sigma
        u, log_mass = generator(5).random(4000), measures._log_gauss_mass(al, be)
        cases += [(log_ndtr(al), np.log(u) + log_mass), (log_ndtr(-be), np.log1p(-u) + log_mass)]
    for log_p, log_q in cases:
        want = logsumexp(list(np.broadcast_arrays(log_p, log_q)), axis=0)
        assert same_bits(measures._log_sum(log_p, log_q), want)
        assert same_bits(measures._log_sum(log_q, log_p), want)


def test_interval_mixtures_are_equal_when_their_intervals_are():
    assert TableDensity(0, 1, [1, 2]) == TableDensity(0, 1, [2, 4])
    assert hash(TableDensity(0, 1, [1, 2])) == hash(TableDensity(0, 1, [2, 4]))
    assert TableDensity(0, 1, [1, 2]) != TableDensity(0, 1, [2, 1])
    assert Uniform(0, 1) != TableDensity(0, 1, [1])
    assert Uniform(0, 1) == Uniform(0.0, 1.0) and PointMass(0.3) != PointMass(0.30000000000000004)
    assert NestedIntervals(NESTED_LEVELS) == NestedIntervals(NESTED_LEVELS)


# -- convolution algebra ------------------------------------------------------

def test_convolve_char_is_product():
    rng = np.random.default_rng(3)
    xi = rng.uniform(-60, 60, size=20)
    a, b = Uniform(0, 1), CANTOR
    np.testing.assert_allclose(convolve(a, b).char_fn(xi),
                               a.char_fn(xi) * b.char_fn(xi), atol=1e-9)


def test_convolve_point_mass_identity():
    rng = np.random.default_rng(4)
    m = convolve(CANTOR, PointMass(0.0))
    for xi in rng.uniform(-50, 50, size=20):
        assert m.char_fn(xi) == pytest.approx(CANTOR.char_fn(xi), abs=1e-12)


def test_uniform_convolution_is_triangular():
    conv = convolve(Uniform(0, 1), Uniform(0, 1))
    tri = Triangular(0, 2)
    xi = np.linspace(-30, 30, 41)
    np.testing.assert_allclose(conv.char_fn(xi), tri.char_fn(xi), atol=1e-9)


def test_uniform_convolution_grid_oracle():
    # Independent oracle: convolve quantized cell masses at resolution 2^-14
    # and compare with the exact triangular cell masses in L1.
    from scipy.signal import fftconvolve
    n = 1 << 14
    delta = 1.0 / n
    cells = np.full(n, 1.0 / n)
    oracle = fftconvolve(cells, cells)  # lattice mass k sits at (k + 1) delta
    edges = np.clip(delta * (np.arange(2 * n) + 0.5) / 2.0, 0.0, 1.0)
    tri_cdf = np.where(edges < 0.5, 2.0 * edges ** 2, 1.0 - 2.0 * (1.0 - edges) ** 2)
    tri_masses = np.diff(tri_cdf)
    assert np.abs(oracle - tri_masses).sum() < 1e-3


def test_dyadic_interleave_gives_uniform():
    # Digits at odd places plus digits at even places fill every place once.
    m = convolve(DYADIC_ODD, DYADIC_EVEN)
    draws = np.sort(m.sample(10 ** 6, 9))
    grid = (np.arange(1, len(draws) + 1)) / len(draws)
    ks = np.max(np.abs(draws - grid))
    assert ks < 0.01
    xi = np.linspace(-25, 25, 11)
    np.testing.assert_allclose(m.char_fn(xi), Uniform(0, 1).char_fn(xi),
                               atol=1e-9)


@pytest.mark.parametrize("t", [10.0, 100.0, 1e3])
def test_dyadic_presets_convolve_to_uniform_on_the_flat_band(t):
    """The paper's absolutely continuous convolution of two singular weights:
    the presets' digits at odd and at even places sum to Uniform(0, 1), so its
    spectral norm on the flat band is Uniform(0, 1)'s."""
    from homavg.engine import l2_norm_spectral
    from homavg.spectral import lebesgue_band
    odd, even = resolve_measure("dyadic-odd"), resolve_measure("dyadic-even")
    assert (odd, even) == (DYADIC_ODD, DYADIC_EVEN)
    band, m = lebesgue_band(), convolve(odd, even)
    assert l2_norm_spectral(band, m, t) == pytest.approx(
        l2_norm_spectral(band, Uniform(0, 1), t), rel=1e-14, abs=0)


def test_convolution_power_basics():
    assert convolution_power(CANTOR, 1) is CANTOR
    sq = convolution_power(Uniform(0, 1), 2)
    assert sq.char_fn(np.pi) == pytest.approx(Uniform(0, 1).char_fn(np.pi) ** 2,
                                              abs=1e-12)
    with pytest.raises(InvalidMeasureError):
        convolution_power(CANTOR, 0)


def test_cantor_square_sample_mean():
    # The middle-thirds measure is symmetric about 1/2, so the two-fold
    # convolution has mean exactly 1.
    draws = convolution_power(CANTOR, 2).sample(10 ** 6, 10)
    assert abs(draws.mean() - 1.0) < 3e-3


# -- rescaling ----------------------------------------------------------------

def test_rescale_identity_and_closed_form():
    rng = np.random.default_rng(5)
    xi = rng.uniform(-40, 40, size=20)
    assert rescale(CANTOR, 1.0) is CANTOR
    np.testing.assert_allclose(rescale(Uniform(0, 1), 3.0).char_fn(xi),
                               Uniform(0, 3).char_fn(xi), atol=1e-12)


def test_rescale_composition_and_char_law():
    rng = np.random.default_rng(6)
    xi = rng.uniform(-30, 30, size=20)
    ab = rescale(rescale(CANTOR, 1.7), 2.3)
    np.testing.assert_allclose(ab.char_fn(xi), rescale(CANTOR, 1.7 * 2.3).char_fn(xi),
                               atol=1e-12)
    np.testing.assert_allclose(rescale(CANTOR, 2.0).char_fn(xi),
                               CANTOR.char_fn(2.0 * xi), atol=1e-12)


def test_rescale_samples_elementwise():
    base = CANTOR.sample(1000, 42)
    scaled = rescale(CANTOR, 7.5).sample(1000, 42)
    np.testing.assert_array_equal(scaled, 7.5 * base)


NESTED = NestedIntervals([[("1/8", "2/8"), ("5/8", "7/8")]])


THIRD = Fraction(1 / 3)
CANTOR_DIGITS = DigitLaw(THIRD, (-2 * THIRD, Fraction(0), 2 * THIRD),
                         (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))


UNIFORM = Uniform(0.5, 2.0)
UNIT = Uniform(0.0, 1.0)
TABLE = TableDensity(0.0, 1.5, [1.0, 3.0, 2.0])
TRIANGULAR = Triangular(1.0, 3.0)
GAUSS = TruncatedGaussian(0.5, 0.2, 0.0, 1.0)


GAUSS_DEGREE = 2 * measures.GAUSS_NODES - 1
CELLS = 0.5 * np.arange(-3.0, 4.0)       # the knots of TABLE's r - s


@pytest.mark.parametrize("measure, powers, view", [
    (UNIFORM, {1, 2, 3}, (1.5 * np.arange(-1.0, 2.0), 1)),
    (TABLE, {1}, (CELLS, 1)),
    (TRIANGULAR, {1, 2, 3}, (np.arange(-2.0, 3.0), 3)),
    (GAUSS, set(), ((-1.0, 1.0), GAUSS_DEGREE)),
    (Scaled(2.0, TRIANGULAR), {1, 2, 3}, (2.0 * np.arange(-2.0, 3.0), 3)),
    (Scaled(3.0, Scaled(0.5, UNIT)), {1, 2, 3}, (1.5 * np.arange(-1.0, 2.0), 1)),
    (Scaled(4.0, TABLE), {1}, (4.0 * CELLS, 1)),
    (CANTOR, {1}, CANTOR_DIGITS),
    (Scaled(2.0, CANTOR), {1}, DigitLaw(
        THIRD, tuple(2 * v for v in CANTOR_DIGITS.values), CANTOR_DIGITS.weights)),
    (NESTED, set(), None),
    (convolve(Uniform(0, 1), Uniform(0, 1)), set(), None),
    (PointMass(0.5), set(), None),
    (SelfSimilar((0.5, 1 / 3), (0.0, 2 / 3), (0.5, 0.5)), set(), None),
    (Scaled(3.0, GAUSS), set(), ((-3.0, 3.0), GAUSS_DEGREE)),
], ids=["uniform", "table", "triangular", "gauss-trunc", "scaled-triangular",
        "nested-scaled-uniform", "scaled-table", "self-similar", "scaled-self-similar",
        "nested-intervals", "convolution", "point-mass", "unequal-ratios",
        "scaled-gauss-trunc"])
def test_difference_law_per_class(measure, powers, view):
    """The powers each class's own band term serves, and its pair view of
    r - s: a density's knots (all of them, or the two ends of a gaussian's),
    zero at both ends, and its degree; or the digit law of the kink walk."""
    band = FrequencyBand(-1.0, 1.0, 1.0)
    assert {p for p in (1, 2, 3) if measure.band_term(band, 5.0, p) is not None} == powers
    got = measure.pair_view()
    if view is None:
        assert got is None
    elif isinstance(view, DigitLaw):
        assert isinstance(got, DigitPairs) and got.law == view
    else:
        knots, degree = view
        assert isinstance(got, PiecewiseLinearDensity) and got.degree == degree
        ends = got.knots if len(knots) > 2 else got.knots[[0, -1]]
        np.testing.assert_allclose(ends, knots, rtol=1e-15, atol=0)
        assert got(got.knots[[0, -1]]).tolist() == [0.0, 0.0]


def test_digit_law_powers_merge_equal_sums_exactly():
    sixteenth = Fraction(1, 16)
    assert CANTOR_DIGITS.power(1) == CANTOR_DIGITS
    assert CANTOR_DIGITS.power(2) == DigitLaw(
        THIRD, tuple(k * 2 * THIRD for k in range(-2, 3)),
        tuple(k * sixteenth for k in (1, 4, 6, 4, 1)))
    assert len(CANTOR_DIGITS.power(3).values) == 7
    assert CANTOR_DIGITS.power(3) is CANTOR_DIGITS.power(3)      # built once per (law, p)
    assert CANTOR_DIGITS.plus(CANTOR_DIGITS.power(2)) == CANTOR_DIGITS.power(3)
    # dyadic digits {0, 1/2} and {0, 1/4}: r - s has three digits either way
    for m, step in ((DYADIC_ODD, Fraction(1, 2)), (DYADIC_EVEN, Fraction(1, 4))):
        law = m.pair_view().law
        assert law.ratio == Fraction(1, 4) and law.values == (-step, 0, step)
    # weights summing to 1 only within 1e-12 are normalized exactly
    near = SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5 + 5e-13)).pair_view()
    assert sum(near.law.weights) == 1


@pytest.mark.parametrize("factor", [1e-3, 0.7, 1000.0])
def test_scaled_self_similar_walk_budget_is_the_inner_samplers(factor):
    """A scaled weight draws by the inner chaos game, 26 maps deep for
    Cantor at any factor, so its walk budget is 2 x 26 map choices a pair."""
    assert Scaled(factor, CANTOR).pair_view().pair_work == 2 * CANTOR._depth() == 52


@pytest.mark.parametrize("ratios, xi", [
    ((0.25, 0.25), np.linspace(0.0, 1e4, 100_001)),
    ((0.5, 1 / 3), np.geomspace(1e-8, 50.0, 201)),
], ids=["product", "recursion"])
def test_self_similar_transform_of_near_one_weights_stays_in_the_unit_disc(ratios, xi):
    """Weights summing to 1 only within 1e-12 are normalized in the transform,
    so |nu_hat| never exceeds 1 (unnormalized, it reached 1 + 1.15e-11)."""
    m = SelfSimilar(ratios, (0.0, 0.5), (0.5, 0.5 + 5e-13))
    assert np.max(np.abs(m.char_fn(xi))) <= 1.0


@pytest.mark.parametrize("ratios, shifts", [((0.5, 0.5), (0.25, 0.25)),
                                            ((0.5, 0.75), (0.25, 0.125)),
                                            ((1 / 3, 1 / 3), (0.0, 0.0))])
def test_self_similar_with_one_fixed_point_is_rejected(ratios, shifts):
    """Maps sharing their fixed point make a point mass, which no averaging
    entry point accepts."""
    with pytest.raises(InvalidMeasureError, match="point mass"):
        SelfSimilar(ratios, shifts, (0.5, 0.5))
    SelfSimilar(ratios, (shifts[0], shifts[1] + 0.125), (0.5, 0.5))    # distinct


def test_rescale_rejects_nonpositive():
    with pytest.raises(InvalidMeasureError):
        rescale(CANTOR, 0.0)


# -- sampling -----------------------------------------------------------------

def test_sample_determinism_bitwise():
    for m in (Uniform(0, 1), CANTOR, convolve(Uniform(0, 1), CANTOR),
              TruncatedGaussian(0.5, 0.3, 0.0, 1.0)):
        np.testing.assert_array_equal(m.sample(2000, 77), m.sample(2000, 77))
    assert not np.array_equal(CANTOR.sample(2000, 77), CANTOR.sample(2000, 78))


def choice_chaos_game(measure, count, master, path):
    """The self-similar sampler as one ``Generator.choice`` per level draws
    its map indices: the reference for the sampler's bytes.  The sampler
    re-implements ``choice`` with probabilities as numpy 2.4 has it, so a
    numpy that changes that algorithm fails this comparison first."""
    lo, hi = measure.support()
    depth = max(1, ceil(log(1e-12 / max(hi - lo, 1e-300)) / log(max(measure.ratios))))
    rng = generator(master, *path)
    r, c = np.array(measure.ratios), np.array(measure.shifts)
    x = np.full(count, 0.5 * (lo + hi))
    for _ in range(depth):
        idx = rng.choice(len(r), size=count, p=np.array(measure.weights))
        x = c[idx] + r[idx] * x
    return x


@pytest.mark.parametrize("measure", [
    CANTOR, DYADIC_ODD, DYADIC_EVEN,
    SelfSimilar((0.3, 0.3, 0.3), (0.0, 0.35, 0.7), (0.2, 0.5, 0.3)),
    SelfSimilar((0.25, 0.25, 0.25), (0.0, 0.4, 0.75), (0.2, 0.5, 0.3)),
    SelfSimilar((0.5, 1 / 3), (0.0, 2 / 3), (0.3, 0.7)),
    THREE_RATIOS,
    SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5 + 5e-13)),
], ids=["cantor", "dyadic-odd", "dyadic-even", "three-maps", "three-maps-quarters",
        "mixed-ratios", "three-ratios", "near-one"])
def test_self_similar_sampler_bytes_match_per_level_choice(measure):
    for count in (1, 7, 20_000):
        for seed in (3, 4):
            got = measure._sample(count, seed, (5,))
            assert got.tobytes() == choice_chaos_game(measure, count, seed, (5,)).tobytes()


@pytest.mark.parametrize("name", ["gauss-trunc", "triangular"])
def test_density_draws_in_blocks_equal_one_whole_ppf_call(name):
    m = resolve_measure(name)
    count = quadrature.BLOCK + 1
    want = m.ppf(generator(9).random(count))
    assert m.sample(count, 9).tobytes() == want.tobytes()


def test_uniform_sample_mean_clt():
    draws = Uniform(0, 1).sample(10 ** 6, 11)
    assert abs(draws.mean() - 0.5) < 0.002  # 3 sigma = 3 / (sqrt(12) 10^3)


def test_cantor_samples_inside_level8_intervals():
    draws = CANTOR.sample(20000, 12)
    idx = np.floor(draws * 3.0 ** 8).astype(int)
    ok = np.ones(len(idx), dtype=bool)
    for _ in range(8):
        ok &= (idx % 3) != 1
        idx //= 3
    assert ok.all()


def test_empirical_char_convergence_rate():
    xi = 3.7
    exact = CANTOR.char_fn(xi)
    for n, seed in ((10 ** 4, 13), (10 ** 6, 14)):
        emp = np.mean(np.exp(1j * xi * CANTOR.sample(n, seed)))
        assert abs(emp - exact) <= 5.0 / np.sqrt(n)


def test_convolution_sample_is_sum_of_component_streams():
    conv = convolve(Uniform(0, 1), CANTOR)
    total = conv.sample(500, 21)
    part_a = Uniform(0, 1)._sample(500, 21, (0,))
    part_b = CANTOR._sample(500, 21, (1,))
    np.testing.assert_allclose(total, part_a + part_b, atol=0)


# -- validation ---------------------------------------------------------------

def test_self_similar_rejects_bad_weights():
    with pytest.raises(InvalidMeasureError):
        SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.5, 0.6))
    with pytest.raises(InvalidMeasureError):
        SelfSimilar((1.2, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))


def test_nested_intervals_reject_bad_trees():
    with pytest.raises(InvalidMeasureError):
        NestedIntervals([[(0, "3/4"), ("1/2", 1)]])  # overlapping children
    with pytest.raises(InvalidMeasureError):
        NestedIntervals([[(0, "1/4"), ("3/4", "5/4")]])  # escapes [0, 1]


def test_point_mass_rejected_for_averaging():
    with pytest.raises(InvalidMeasureError):
        require_atomless(PointMass(0.0), "test")
    # a convolution with an atomless factor is atomless and acceptable
    require_atomless(convolve(Uniform(0, 1), PointMass(0.3)), "test")
    assert not Convolution((PointMass(0.0), PointMass(1.0))).atomless
    assert Scaled(2.0, CANTOR).atomless


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("shifts, weights", [((0.0, NAN), (0.5, 0.5)),
                                             ((0.0, INF), (0.5, 0.5)),
                                             ((0.0, 2 / 3), (NAN, 0.5)),
                                             ((0.0, 2 / 3), (0.5, NAN))])
def test_self_similar_rejects_non_finite(shifts, weights):
    with pytest.raises(InvalidMeasureError, match="finite"):
        SelfSimilar((1 / 3, 1 / 3), shifts, weights)


@pytest.mark.parametrize("mu", [NAN, INF, -INF])
def test_truncated_gaussian_rejects_non_finite_mu(mu):
    with pytest.raises(InvalidMeasureError, match="finite"):
        TruncatedGaussian(mu, 0.2, 0.0, 1.0)


# -- truncated gaussian ppf ----------------------------------------------------

@pytest.mark.parametrize("params", [
    (0.5, 0.2, 0.0, 1.0), (0.0, 1.0, -2.5, 2.5), (0.0, 1.0, 0.0, 1.0),
    (0.0, 1.0, -30.0, -29.0), (0.0, 1.0, 3.0, 6.0), (0.0, 1.0, -1.0, 8.0),
    (2.0, 0.3, -1.0, 10.0),
    (0.5, 0.2, 0.6, 0.9),  # lo > mu: ppf takes the upper-tail form
])
def test_truncated_gaussian_cdf_ppf_bit_identical_to_scipy(params):
    """ppf is a port of scipy.stats.truncnorm; sampling depends on every bit
    of it."""
    from scipy.stats import truncnorm

    g = TruncatedGaussian(*params)
    mu, sigma, lo, hi = params
    frozen = truncnorm((lo - mu) / sigma, (hi - mu) / sigma, loc=mu, scale=sigma)
    u = np.concatenate(([0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53],
                        np.random.default_rng(11).random(200_000)))
    np.testing.assert_array_equal(g.ppf(u), frozen.ppf(u))
    for ours, ref in ((g.ppf(0.3), frozen.ppf(0.3)), (g.ppf(0.0), frozen.ppf(0.0))):
        assert type(ours) is type(ref) is np.float64 and ours == ref
    assert g.ppf(0.0) == lo and g.ppf(1.0) == hi


def test_package_reduces_mod_1_only_through_flows_wrap():
    # a torus reduction goes through flows.wrap, x - floor(x), which is
    # bit for bit numpy's mod by 1 at a fraction of its cost
    pattern = re.compile(r"np\.(mod|remainder|fmod)\(")
    package = Path(homavg.__file__).resolve().parent
    found = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert not found, found


def test_package_takes_box_overlaps_only_through_flows():
    # flows.box_overlap is the one box product: no other module names its
    # factor, so no caller can inline a second copy of the product
    package = Path(homavg.__file__).resolve().parent
    found = [f"{path.name}:{n}" for path in sorted(package.glob("*.py")) if path.name != "flows.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if "arc_overlap" in line]
    assert not found, found


def test_package_never_imports_scipy_stats():
    src = str(Path(homavg.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import homavg.cli\n"
        "from homavg.presets import resolve_measure\n"
        "g = resolve_measure('gauss-trunc')\n"
        "g.sample(1000, 1); g.char_fn([1.0, 2.0])\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
