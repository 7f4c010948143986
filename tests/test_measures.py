import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homavg
from homavg import (Convolution, InvalidMeasureError, NestedIntervals,
                    PointMass, Scaled, SelfSimilar, TableDensity, Triangular,
                    TruncatedGaussian, Uniform, convolution_power, convolve,
                    rescale)
from homavg.measures import require_atomless

CANTOR = SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))
DYADIC_ODD = SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5))
DYADIC_EVEN = SelfSimilar((0.25, 0.25), (0.0, 0.25), (0.5, 0.5))


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
    for m in (CANTOR, DYADIC_ODD):
        for xi in rng.uniform(-40, 40, size=12):
            rhs = sum(p * np.exp(1j * xi * c) * m.char_fn(r * xi)
                      for r, c, p in zip(m.ratios, m.shifts, m.weights))
            assert m.char_fn(xi) == pytest.approx(rhs, abs=1e-9)


def test_unequal_ratio_self_similar_char():
    m = SelfSimilar((0.5, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))
    xi = 7.3
    rhs = sum(p * np.exp(1j * xi * c) * m.char_fn(r * xi)
              for r, c, p in zip(m.ratios, m.shifts, m.weights))
    assert m.char_fn(xi) == pytest.approx(rhs, abs=1e-8)


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
    edges = delta * (np.arange(2 * n) + 0.5)
    tri_masses = np.diff(Triangular(0, 2).cdf(edges))
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


@pytest.mark.parametrize("measure, exact, sinc, factors", [
    (Uniform(0.5, 2.0), True, (0.75, 1), ()),
    (TableDensity(0.0, 1.5, [1.0, 3.0, 2.0]), True, None, ()),
    (Triangular(1.0, 3.0), False, (0.5, 2), ()),
    (TruncatedGaussian(0.5, 0.2, 0.0, 1.0), False, None, ()),
    (Scaled(2.0, Triangular(1.0, 3.0)), False, (1.0, 2), (2.0,)),
    (Scaled(3.0, Scaled(0.5, Uniform(0.0, 1.0))), True, (0.75, 1), (0.5, 3.0)),
    (Scaled(4.0, TableDensity(0.0, 1.5, [1.0, 3.0, 2.0])), True, None, (4.0,)),
    (CANTOR, None, None, None),
    (Scaled(2.0, CANTOR), None, None, None),
    (NESTED, None, None, None),
    (convolve(Uniform(0, 1), Uniform(0, 1)), None, None, None),
    (PointMass(0.5), None, None, None),
], ids=["uniform", "table", "triangular", "gauss-trunc", "scaled-triangular",
        "nested-scaled-uniform", "scaled-table", "self-similar", "scaled-self-similar",
        "nested-intervals", "convolution", "point-mass"])
def test_difference_law_per_class(measure, exact, sinc, factors):
    law = measure.difference_law()
    if exact is None:
        assert law is None
        return
    assert (law.exact, law.sinc, law.factors) == (exact, sinc, factors)
    inner = measure
    while isinstance(inner, Scaled):
        inner = inner.inner
    masses, width = law.cells()       # the unscaled measure's cells
    lo, hi = inner.support()
    assert width * len(masses) == pytest.approx(hi - lo)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_rescale_rejects_nonpositive():
    with pytest.raises(InvalidMeasureError):
        rescale(CANTOR, 0.0)


# -- sampling -----------------------------------------------------------------

def test_sample_determinism_bitwise():
    for m in (Uniform(0, 1), CANTOR, convolve(Uniform(0, 1), CANTOR),
              TruncatedGaussian(0.5, 0.3, 0.0, 1.0)):
        np.testing.assert_array_equal(m.sample(2000, 77), m.sample(2000, 77))
    assert not np.array_equal(CANTOR.sample(2000, 77), CANTOR.sample(2000, 78))


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


# -- truncated gaussian cdf/ppf ------------------------------------------------

@pytest.mark.parametrize("params", [
    (0.5, 0.2, 0.0, 1.0), (0.0, 1.0, -2.5, 2.5), (0.0, 1.0, 0.0, 1.0),
    (0.0, 1.0, -30.0, -29.0), (0.0, 1.0, 3.0, 6.0), (0.0, 1.0, -1.0, 8.0),
    (2.0, 0.3, -1.0, 10.0),
    (0.5, 0.2, 0.6, 0.9),  # lo > mu: ppf takes the upper-tail form
])
def test_truncated_gaussian_cdf_ppf_bit_identical_to_scipy(params):
    """cdf/ppf are a port of scipy.stats.truncnorm; sampling and the
    quantized cell masses depend on every bit of them."""
    from scipy.stats import truncnorm

    g = TruncatedGaussian(*params)
    mu, sigma, lo, hi = params
    frozen = truncnorm((lo - mu) / sigma, (hi - mu) / sigma, loc=mu, scale=sigma)
    u = np.concatenate(([0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53],
                        np.random.default_rng(11).random(200_000)))
    np.testing.assert_array_equal(g.ppf(u), frozen.ppf(u))
    w = hi - lo
    x = np.concatenate(([lo, hi, -np.inf, np.inf, lo - w, hi + w],
                        np.linspace(lo - 0.1 * w, hi + 0.1 * w, 200_001)))
    np.testing.assert_array_equal(g.cdf(x), frozen.cdf(x))
    for ours, ref in ((g.ppf(0.3), frozen.ppf(0.3)), (g.ppf(0.0), frozen.ppf(0.0)),
                      (g.cdf(lo + 0.3 * w), frozen.cdf(lo + 0.3 * w)),
                      (g.cdf(hi + w), frozen.cdf(hi + w))):
        assert type(ours) is type(ref) is np.float64 and ours == ref
    assert g.ppf(0.0) == lo and g.ppf(1.0) == hi
    assert g.cdf(lo - 1.0) == 0.0 and g.cdf(hi + 1.0) == 1.0


def test_package_never_imports_scipy_stats():
    src = str(Path(homavg.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import homavg.cli\n"
        "from homavg.presets import resolve_measure\n"
        "g = resolve_measure('gauss-trunc')\n"
        "g.sample(1000, 1); g.cdf([0.2, 0.5]); g.char_fn([1.0, 2.0])\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
