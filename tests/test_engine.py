import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from homavg import engine, quadrature, spectral
from homavg import (BochnerCorrelation, DecayCurve, FrequencyBand,
                    InvalidMeasureError, Observable, PointMass,
                    SpectralModel, SpikeCorrelation, Uniform,
                    almost_mixing_probe, arithmetic_spikes, circle_rotation,
                    convergence_scan, convolve, cos_mode, descent_check,
                    difference_density, geometric_grid, geometric_spikes,
                    golden_winding, l1_deviation, l2_deviation_mc,
                    l2_norm_spectral, pair_correlation_integral, rescale,
                    spectrum_of_observable, weighted_average_pointwise)
from homavg.measures import (Scaled, SelfSimilar, TableDensity, Triangular,
                             TruncatedGaussian)
from homavg.spectral import BoxAutocorrelation, BoxIndicator, CorrelationModel
from homavg.flows import BoxSet, TorusWinding

CANTOR = SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))
GAUSS = TruncatedGaussian(0.5, 0.2, 0.0, 1.0)


class ConstantOne(Observable):
    mean = 1.0
    sup_norm = 1.0

    def __call__(self, points):
        return np.ones(np.asarray(points).shape[:-1])


# -- pointwise averages ---------------------------------------------------------

def test_average_of_constant_is_exact():
    res = weighted_average_pointwise(golden_winding(), ConstantOne(),
                                     Uniform(0, 1), 17.0, np.array([0.2, 0.4]),
                                     n_r=500, seed=1)
    assert res.value == 1.0
    assert res.std_error == 0.0


def test_point_mass_weight_rejected():
    with pytest.raises(InvalidMeasureError):
        weighted_average_pointwise(golden_winding(), ConstantOne(),
                                   PointMass(1.0), 5.0, np.array([0.0, 0.0]))


def test_spectral_entry_points_reject_point_mass():
    spec = spectral.lebesgue_band()
    for call in (lambda t: l2_norm_spectral(spec, PointMass(0.5), t),
                 lambda t: descent_check(spec, PointMass(0.5), t),
                 lambda t: pair_correlation_integral(BochnerCorrelation(spec),
                                                     PointMass(0.5), t)):
        with pytest.raises(InvalidMeasureError):
            call(10.0)
        curve = convergence_scan(lambda t, _seed: (call(t), 0.0), (1.0, 10.0))
        assert sorted(curve.metadata["failed_points"]) == [0, 1]
    # an atom shifted by an atomless part is atomless: a shift keeps |nu_hat|
    shifted = convolve(Uniform(0, 1), PointMass(0.3))
    assert l2_norm_spectral(spec, shifted, 10.0) == pytest.approx(
        l2_norm_spectral(spec, Uniform(0, 1), 10.0), rel=0, abs=1e-8)


def test_classical_time_average_on_circle():
    # Uniform weight stretched by t averages the indicator over [x, x + t]:
    # the classical time average, exactly 1/2 at integer t and 1/2 + O(1/t)
    # in general.
    flow = circle_rotation()
    obs = BoxIndicator(BoxSet((0.5,)))
    for t in (200.0, 800.0):
        res = weighted_average_pointwise(flow, obs, Uniform(0, 1), t,
                                         np.array([0.3]), n_r=20_000, seed=2)
        assert abs(res.value - 0.5) <= 3.0 * res.std_error + 1.0 / t


def test_mc_l2_norm_matches_spectral_channel():
    flow = golden_winding()
    obs = cos_mode(2, 1)
    spec = spectrum_of_observable(flow, obs)
    mc = l2_deviation_mc(flow, obs, Uniform(0, 1), 10.0, n_x=4000, n_r=2000,
                         seed=3)
    exact = l2_norm_spectral(spec, Uniform(0, 1), 10.0)
    assert abs(mc.value - exact) <= 3.0 * mc.std_error


# -- L1 deviation -----------------------------------------------------------------

def test_l1_deviation_constant_is_zero():
    dev = l1_deviation(golden_winding(), ConstantOne(), Uniform(0, 1), 100.0,
                       n_x=200, n_r=50, seed=4)
    assert dev.value == 0.0


def test_l1_deviation_decays_over_decades():
    flow = golden_winding()
    obs = cos_mode(2, 1)
    small = l1_deviation(flow, obs, Uniform(0, 1), 10.0, n_x=2000, n_r=2000,
                         seed=5)
    large = l1_deviation(flow, obs, Uniform(0, 1), 1e4, n_x=2000, n_r=2000,
                         seed=5)
    assert large.value < small.value


def test_l1_bounded_by_spectral_plus_errors():
    # Cauchy-Schwarz bridge: the L1 deviation sits below the L2 value once
    # statistical error and the inner bias bound are granted.
    flow = golden_winding()
    obs = cos_mode(2, 1)
    spec = spectrum_of_observable(flow, obs)
    for t in (10.0, 100.0, 1e3):
        dev = l1_deviation(flow, obs, Uniform(0, 1), t, n_x=1500, n_r=1500,
                           seed=6)
        assert dev.value <= l2_norm_spectral(spec, Uniform(0, 1), t) + 3 * dev.error


def test_l1_singular_weight_need_not_decay():
    # With the middle-thirds weight the spectral values along t = 3^k stay
    # bounded below (recorded, not asserted as decay): |nu_hat| is constant
    # along that orbit of scales.
    spec = SpectralModel(atoms=((1.0, 1.0),))
    vals = [l2_norm_spectral(spec, CANTOR, 2 * np.pi * 3 ** k)
            for k in range(8)]
    assert min(vals) > 0.3  # non-vanishing subsequence
    np.testing.assert_allclose(vals, vals[0], atol=1e-9)


# -- spectral norms -----------------------------------------------------------------

def test_l2_single_atom_is_char_magnitude():
    spec = SpectralModel(atoms=((2.5, 1.0),))
    u = Uniform(0, 1)
    for t in (0.3, 4.0, 77.0):
        assert l2_norm_spectral(spec, u, t) == pytest.approx(
            abs(u.char_fn(2.5 * t)), abs=1e-12)


def test_l2_uniform_weight_kills_two_pi_atom():
    spec = SpectralModel(atoms=((2 * np.pi, 1.0),))
    assert l2_norm_spectral(spec, Uniform(0, 1), 1.0) < 1e-12


def test_l2_band_against_fine_trapezoid_oracle():
    spec = SpectralModel(band=FrequencyBand(1.0, 2.0, 1.0))
    u = Uniform(0, 1)
    t = 10.0
    r = np.linspace(1.0, 2.0, 1 << 21 | 1)
    oracle = np.sqrt(np.trapezoid(np.abs(u.char_fn(t * r)) ** 2, r))
    assert l2_norm_spectral(spec, u, t) == pytest.approx(oracle, abs=1e-8)


def table_band_oracle(masses, delta, band, t):
    """Int |nu_hat(t r)|^2 band.density(r) dr for a table of equal cells of
    width ``delta`` (one cell: a uniform), from the pair expansion
    |nu_hat(x)|^2 = sum_kl m_k m_l cos(d_kl x) sinc^2(delta x / 2) and the
    antiderivative -cos(c x)/x - c Si(c x) of cos(c x)/x^2."""
    m = np.asarray(masses, dtype=float) / np.sum(masses)
    n = len(m)
    d = delta * (np.arange(n)[:, None] - np.arange(n)[None, :]).ravel()
    w = np.outer(m, m).ravel()

    def antiderivative(x):
        def a(c):
            return -np.cos(c * x) / x - c * sici(c * x)[0]
        return 2.0 / delta ** 2 * float(
            w @ (a(d) - 0.5 * a(d + delta) - 0.5 * a(d - delta)))

    edges, dens = band.cells()
    return float(dens @ np.diff([antiderivative(t * e) for e in edges])) / t


TABLE_MASSES = np.random.default_rng(3).random(64)


@pytest.mark.parametrize("weight, masses, delta", [
    (Uniform(0, 1), [1.0], 1.0),
    (rescale(Uniform(-0.2, 0.5), 2.5), [1.0], 0.7 * 2.5),
    (TableDensity(0.0, 2.0, TABLE_MASSES), TABLE_MASSES, 2.0 / 64),
], ids=["uniform", "scaled-uniform", "table"])
@pytest.mark.parametrize("band", [
    FrequencyBand(-1.0, 1.0, 1.0),
    FrequencyBand(-1.0, 1.0, 1.0, (1.0, 3.0, 2.0)),
    FrequencyBand(0.1, 2.3, 1.0, (2.0, 1.0, 0.5, 4.0)),
], ids=["flat", "profiled", "one-sided"])
def test_l2_exact_density_band_against_si_formula(weight, masses, delta, band):
    spec = SpectralModel(band=band)
    for t in (1.0, 10.0, 1e3, 1.45e4, 1e5):
        got = l2_norm_spectral(spec, weight, t) ** 2
        assert got == pytest.approx(
            table_band_oracle(masses, delta, band, t), rel=0, abs=1e-12)


def test_closed_form_paths_run_no_quadrature(monkeypatch):
    calls = []
    original = spectral.adaptive_gl

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "adaptive_gl", counting)
    l2_norm_spectral(spectral.lebesgue_band(), Uniform(0, 1), 1e5)
    assert l2_norm_spectral(spectral.lebesgue_band(), Uniform(0, 1), 0.0) == 1.0
    TruncatedGaussian(0.5, 0.2, 0.0, 1.0).char_fn(np.linspace(-300, 300, 101))
    # a triangular transform is a power of sinc
    l2_norm_spectral(spectral.lebesgue_band(), Triangular(0, 1), 10.0)
    assert calls == []
    # weights with neither closed form keep adaptive quadrature
    l2_norm_spectral(spectral.lebesgue_band(), GAUSS, 10.0)
    assert len(calls) == 1


def test_l2_never_exceeds_one():
    rng = np.random.default_rng(7)
    spec = SpectralModel(atoms=((0.7, 0.5), (-3.0, 0.5)))
    for m in (Uniform(0, 1), CANTOR, rescale(CANTOR, 3.0)):
        for t in rng.uniform(0.1, 500.0, size=10):
            assert l2_norm_spectral(spec, m, t) <= 1.0 + 1e-12


def test_l2_scaling_consistency():
    spec = SpectralModel(atoms=((1.7, 0.6), (-0.4, 0.4)))
    for a, t in ((2.0, 5.0), (0.3, 41.0)):
        lhs = l2_norm_spectral(spec, rescale(Uniform(0, 1), a), t)
        rhs = l2_norm_spectral(spec, Uniform(0, 1), a * t)
        assert lhs == pytest.approx(rhs, abs=1e-10)


# -- descent inequality ----------------------------------------------------------

def test_descent_equality_for_constant_multiplier():
    spec = SpectralModel(atoms=((0.3, 0.25), (1.1, 0.75),))
    rep = descent_check(spec, lambda r: np.full_like(np.asarray(r, float), 0.7),
                        order=3)
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)
    assert rep.passed


def test_descent_closed_form_uniform_ramp():
    spec = SpectralModel(band=FrequencyBand(0.0, 1.0, 1.0))
    rep = descent_check(spec, lambda r: np.asarray(r, float), t=1.0, order=2)
    assert rep.lhs == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.rhs == pytest.approx(np.sqrt(1.0 / 5.0), abs=1e-12)
    assert rep.passed


def test_descent_randomized_instances():
    rng = np.random.default_rng(8)
    measures = [Uniform(0, 1), CANTOR, rescale(Uniform(0, 2), 0.7),
                TableDensity(0.0, 1.0, rng.random(32))]
    for k in range(30):
        masses = rng.dirichlet(np.ones(3))
        if k % 2:
            spec = SpectralModel(atoms=tuple(
                (float(w), float(m)) for w, m in
                zip(rng.uniform(-8, 8, 3), masses)))
        else:
            spec = SpectralModel(
                atoms=tuple((float(w), float(m * 0.5)) for w, m in
                            zip(rng.uniform(-8, 8, 3), masses)),
                band=FrequencyBand(*sorted(rng.uniform(-4, 4, 2)), 0.5))
        rep = descent_check(spec, measures[k % len(measures)],
                            t=float(rng.uniform(0.1, 30)),
                            order=int(rng.choice([2, 3, 5])))
        assert rep.passed



def test_descent_check_is_two_spectral_integrals(monkeypatch):
    counts = {"engine": 0, "spectral": 0}
    original = spectral.adaptive_gl

    def counted(binding):
        def wrapper(*args, **kwargs):
            counts[binding] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral, "adaptive_gl", counted("spectral"))
    spec = SpectralModel(band=FrequencyBand(-1.0, 1.0, 1.0))
    descent_check(spec, GAUSS, t=20.0, order=3)
    assert counts["engine"] + counts["spectral"] == 2
    # both sides of a sinc-power weight are closed forms (Si or sinc power)
    for weight in (Triangular(0, 1), Uniform(0, 1)):
        counts.update(engine=0, spectral=0)
        descent_check(spec, weight, t=20.0, order=3)
        assert counts["engine"] + counts["spectral"] == 0


def test_descent_callable_multiplier_matches_its_weight():
    # at support width 1 the callable and the weight share integrand and cells
    spec = SpectralModel(atoms=((0.8, 0.3),),
                         band=FrequencyBand(-2.0, 1.0, 0.7, (1.0, 2.0)))
    tri = Triangular(0, 1)
    for t, order in ((3.0, 2), (40.0, 3)):
        by_weight = descent_check(spec, GAUSS, t=t, order=order)
        by_callable = descent_check(spec, lambda xi: np.abs(GAUSS.char_fn(xi)),
                                    t=t, order=order)
        assert by_callable == by_weight
        # the triangular weight's closed form against quadrature of its callable
        by_weight = descent_check(spec, tri, t=t, order=order)
        by_callable = descent_check(spec, lambda xi: np.abs(tri.char_fn(xi)),
                                    t=t, order=order)
        assert by_callable.lhs == pytest.approx(by_weight.lhs, rel=0, abs=1e-11)
        assert by_callable.rhs == pytest.approx(by_weight.rhs, rel=0, abs=1e-11)


# -- sinc-power band kernel ------------------------------------------------------------

def sinc_power_oracle(n, x, dps=40):
    """Int_0^x sinc^n for even n at ``dps`` digits, by integrating by parts
    down to Si(2 k x) with sin^n = sum_k a_k cos(2 k u); that cancels heavily
    in doubles, not at this precision."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        x, m = mp.mpf(x), n // 2
        a = [mp.binomial(n, m) / mp.mpf(2) ** n] + [
            2 * (-1) ** k * mp.binomial(n, m - k) / mp.mpf(2) ** n for k in range(1, m + 1)]
        deriv = lambda j: sum(a[k] * (2 * k) ** j * mp.cos(2 * k * x + j * mp.pi / 2)
                              for k in range(m + 1))
        ends = -sum(deriv(j) * x ** (j + 1 - n) * mp.factorial(n - 2 - j)
                    for j in range(n - 1))
        si = sum(a[k] * (2 * k) ** (n - 1) * mp.si(2 * k * x) for k in range(1, m + 1))
        return (ends + (-1) ** m * si) / mp.factorial(n - 1)


@pytest.mark.parametrize("n", [2, 4, 8, 12, 16])
def test_sinc_power_integral_matches_mpmath(n):
    switch = 2 * n + engine._SINC_NEAR     # quadrature below, tail series above
    xs = np.array([0.3, 1.0, 7.5, switch - 0.5, switch, switch + 0.5, 300.0, 2000.0])
    want = np.array([float(sinc_power_oracle(n, x)) for x in xs])
    got = engine._sinc_power_integral(n, 0.0, xs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    assert np.array_equal(engine._sinc_power_integral(n, -xs, 0.0), got)
    # a cell away from 0 keeps its relative precision, on either side of the switch
    for a, b in ((40.1, 41.8), (switch - 3.0, switch + 2.0), (1e3, 1e3 + 1.5)):
        want = float(sinc_power_oracle(n, b, 120) - sinc_power_oracle(n, a, 120))
        assert engine._sinc_power_integral(n, a, b) == pytest.approx(want, rel=1e-13)


def test_sinc_square_integral_is_si_form():
    xs = np.array([0.01, 0.5, 3.0, 43.5, 44.5, 1e3, 1e5])
    want = sici(2.0 * xs)[0] - np.sin(xs) ** 2 / xs
    np.testing.assert_allclose(engine._sinc_power_integral(2, 0.0, xs), want,
                               rtol=0, atol=1e-14)


SINC_SPEC = SpectralModel(atoms=((0.8, 0.2), (-2.5, 0.1)),
                          band=FrequencyBand(-1.5, 1.0, 0.7, (1.0, 3.0, 2.0)))


def test_triangular_power_is_uniform_double_power():
    # |nu_hat| of Triangular(0, 2) = U(0, 1) * U(0, 1) is |nu_hat_U|^2
    for t in (0.0, 3.0, 1e3, 5.8e3):
        for p in (1, 2, 3):
            assert (engine._spectral_power(SINC_SPEC, Triangular(0, 2), t, 1e-8, p)
                    == engine._spectral_power(SINC_SPEC, Uniform(0, 1), t, 1e-8, 2 * p))


@pytest.mark.parametrize("weight, width", [(Triangular(0, 1), 1.0),
                                           (rescale(Uniform(0, 2), 0.5), 1.0)],
                         ids=["triangular", "scaled-uniform"])
def test_sinc_power_band_matches_expect(weight, width):
    for t in (10.0, 1e3, 5.8e3):
        for p in (1, 2, 3):
            got, diff = engine._spectral_power(SINC_SPEC, weight, t, 1e-13, p)
            assert diff == 0.0
            want, _ = SINC_SPEC.expect(
                lambda r: np.abs(weight.char_fn(t * r)) ** (2 * p), 1e-13, t * width)
            assert got == pytest.approx(want, rel=0, abs=1e-13)


def test_sinc_power_cost_does_not_grow_with_t(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "adaptive_gl", lambda *a, **k: calls.append(a))
    t = 1e7
    got, diff = engine._spectral_power(spectral.lebesgue_band(), Uniform(0, 1), t, 1e-8, 3)
    assert calls == [] and diff == 0.0
    # flat density 1/2 on [-1, 1]: S_6(t / 2) / (t / 2), and S_6(inf) = 11 pi / 40
    assert got == pytest.approx(11.0 * np.pi / 40.0 / (0.5 * t), rel=1e-12)
    assert descent_check(spectral.lebesgue_band(), Triangular(0, 1), t=t, order=3).passed
    assert calls == []


def test_spectral_power_takes_numpy_integer_powers():
    spec = SpectralModel(atoms=((0.8, 0.3),), band=FrequencyBand(-2.0, 1.0, 0.7, (1.0, 2.0)))
    for weight in (Triangular(0, 1), Uniform(0, 1), GAUSS):
        for p in (1, 3):
            assert (engine._spectral_power(spec, weight, 20.0, 1e-11, np.int64(p))
                    == engine._spectral_power(spec, weight, 20.0, 1e-11, p))
    assert descent_check(SINC_SPEC, Triangular(0, 1), t=20.0, order=np.int64(5)).passed

PROFILED_SPEC = SpectralModel(atoms=((2.0, 0.3),),
                              band=FrequencyBand(-1.5, 1.0, 0.7, (1.0, 3.0, 2.0)))


def profiled_power_oracle(weight, t):
    """Int |nu_hat(t r)|^2 dsigma over PROFILED_SPEC, band cell by band cell
    with scipy's adaptive quad."""
    f = lambda r: abs(complex(weight.char_fn(t * r))) ** 2
    edges, dens = PROFILED_SPEC.band.cells()
    cells = [quad(f, lo, hi, limit=500, epsabs=1e-14, epsrel=1e-14)[0]
             for lo, hi in zip(edges[:-1], edges[1:])]
    return 0.3 * f(2.0) + float(dens @ cells)


def test_profiled_band_quadrature_follows_band_cells(monkeypatch):
    passes = []
    original = quadrature.fixed_gl

    def counting(*args):
        passes.append(args[3])
        return original(*args)

    monkeypatch.setattr(quadrature, "fixed_gl", counting)
    for t in (5.0, 20.0, 100.0):
        passes.clear()
        got, diff = engine._spectral_power(PROFILED_SPEC, GAUSS, t, 1e-11)
        assert 0 < len(passes) <= 4 and diff < 1e-11
        assert all(cells % 3 == 0 for cells in passes)
        assert got == pytest.approx(profiled_power_oracle(GAUSS, t), rel=0, abs=1e-10)
    assert descent_check(PROFILED_SPEC, GAUSS, t=20.0).passed


# -- pair-correlation integrals -----------------------------------------------------

def test_pair_integral_of_constant_correlation():
    flat = SpikeCorrelation(0.37)
    for weight in (Uniform(0, 1), CANTOR):
        for method in ("sampling", "quadrature") if weight is not CANTOR \
                else ("sampling",):
            res = pair_correlation_integral(flat, weight, 11.0, method=method,
                                            n_samples=2000, seed=9)
            assert res.value == pytest.approx(0.37, abs=1e-12)


def test_pair_integral_concentrated_uniform_closed_form():
    # nu = Uniform(0.95, 1.05): the difference r - s is triangular on
    # [-0.1, 0.1].  One spike at h = 1, L = 1/4, height 1, t = 20 gives
    # exactly 1/16 per side (hand integration), so the pair integral is
    # baseline + 2/16 = 0.375.
    spike = SpikeCorrelation(0.25, (1.0,), (0.25,), (1.0,), growth=2.0)
    res = pair_correlation_integral(spike, Uniform(0.95, 1.05), 20.0,
                                    method="quadrature")
    assert res.value == pytest.approx(0.375, abs=1e-12)
    mc = pair_correlation_integral(spike, Uniform(0.95, 1.05), 20.0,
                                   method="sampling", n_samples=200_000,
                                   seed=10)
    assert abs(mc.value - 0.375) <= 3.0 * mc.error


def test_pair_integral_bochner_bridge():
    # Both code paths compute Int |nu_hat(t r)|^2 dsigma: the pair integral
    # of the transform equals the squared spectral norm.
    flow = golden_winding()
    spec = spectrum_of_observable(flow, cos_mode(2, 1))
    u = Uniform(0, 1)
    for t in (3.0, 25.0, 111.0):
        pair = pair_correlation_integral(BochnerCorrelation(spec), u, t)
        assert pair.value == pytest.approx(l2_norm_spectral(spec, u, t) ** 2,
                                           abs=1e-6)


def test_bochner_pair_quadrature_is_the_spectral_kernel():
    spec = SpectralModel(atoms=((2.0, 0.4),),
                         band=FrequencyBand(-1.5, 0.5, 0.6, (1.0, 2.0)))
    model = BochnerCorrelation(spec)
    for weight in (Uniform(0, 1), TableDensity(0.0, 1.0, [1.0, 3.0, 2.0])):
        pair = pair_correlation_integral(model, weight, 37.0)
        assert pair.method == "quadrature"
        assert pair.error == 0.0
        assert pair.value == pytest.approx(
            l2_norm_spectral(spec, weight, 37.0) ** 2, rel=1e-14)
    # quantized weights fall back to adaptive quadrature and report its gap
    pair = pair_correlation_integral(model, Triangular(0, 1), 37.0, tol=1e-9)
    assert 0.0 <= pair.error < 1e-9
    samp = pair_correlation_integral(model, Triangular(0, 1), 37.0,
                                     method="sampling", n_samples=40_000)
    assert abs(pair.value - samp.value) < 4 * samp.error


def test_pair_integral_paths_agree_on_random_densities():
    rng = np.random.default_rng(11)
    for k in range(10):
        weight = TableDensity(0.0, float(rng.uniform(0.5, 2.0)),
                              rng.random(64))
        spike = geometric_spikes(growth=float(rng.uniform(3, 12)),
                                 halfwidth=0.2, height=1.0, count=5,
                                 baseline=0.3)
        t = float(rng.uniform(2, 200))
        quad = pair_correlation_integral(spike, weight, t, method="quadrature")
        samp = pair_correlation_integral(spike, weight, t, method="sampling",
                                         n_samples=40_000, seed=100 + k)
        assert abs(quad.value - samp.value) <= 3.0 * (quad.error + samp.error) \
            + 1e-12


def test_spike_pair_quadrature_is_even_in_t():
    spike = geometric_spikes(10, 0.25, count=4)
    neg = pair_correlation_integral(spike, Uniform(0, 1), -20.0,
                                    method="quadrature")
    pos = pair_correlation_integral(spike, Uniform(0, 1), 20.0,
                                    method="quadrature")
    assert neg.value == pos.value
    assert neg.value > spike.baseline
    samp = pair_correlation_integral(spike, Uniform(0, 1), -20.0,
                                     method="sampling", n_samples=100_000,
                                     seed=4)
    assert abs(neg.value - samp.value) <= 3.0 * samp.error


def fine_pair_reference(model, weight, t, cells=65536, parts=16):
    """65,536-cell composite Gauss-Legendre value of Int rho(t u) g(u) du,
    taken in 16 runs of equal cells to keep the node arrays small."""
    g, _ = difference_density(weight)
    edges = np.linspace(g.knots[0], g.knots[-1], parts + 1)
    return sum(quadrature.fixed_gl(lambda u: model.value(t * u) * g(u), a, b,
                                   cells // parts).real
               for a, b in zip(edges[:-1], edges[1:]))


GOLDEN_BOX = BoxAutocorrelation(golden_winding(), BoxSet((0.5, 0.4)))


@pytest.mark.parametrize("model, weight, t", [
    (GOLDEN_BOX, TableDensity(0.0, 1.0, np.linspace(1.0, 2.0, 16)), 30.0),
    (GOLDEN_BOX, Uniform(0, 1), 3.0),
    (BoxAutocorrelation(circle_rotation(), BoxSet((0.3,))), Uniform(0, 1), 50.0),
    (BoxAutocorrelation(TorusWinding((1.0, 0.6180339887498949, 0.4142135623730951)),
                        BoxSet((0.5, 0.4, 0.3))), Uniform(0, 1), 40.0),
], ids=["golden-table", "golden-uniform", "circle", "d3"])
def test_box_pair_quadrature_is_exact(model, weight, t):
    pair = pair_correlation_integral(model, weight, t, method="quadrature")
    assert pair.error == 0.0
    assert pair.value == pytest.approx(fine_pair_reference(model, weight, t),
                                       rel=0, abs=1e-9)


def test_box_pair_quadrature_error_and_symmetry():
    tri = pair_correlation_integral(GOLDEN_BOX, Triangular(0, 2), 100.0)
    assert tri.method == "quadrature" and tri.error == 1e-4
    table = TableDensity(0.0, 1.0, np.linspace(1.0, 2.0, 16))
    for t in (3.0, 30.0, 300.0):
        neg = pair_correlation_integral(GOLDEN_BOX, table, -t)
        assert neg.value == pair_correlation_integral(GOLDEN_BOX, table, t).value
    at_zero = pair_correlation_integral(GOLDEN_BOX, table, 0.0)
    assert at_zero.value == pytest.approx(0.2, rel=0, abs=1e-15)


def test_exact_pair_quadrature_needs_no_gauss_cells(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fixed_gl called")

    monkeypatch.setattr(quadrature, "fixed_gl", refuse)
    for model in (geometric_spikes(10, 0.25, count=4), GOLDEN_BOX):
        for weight in (Uniform(0, 1), Triangular(0, 2)):
            pair = pair_correlation_integral(model, weight, 20.0, method="quadrature")
            assert pair.method == "quadrature"


def test_other_correlations_are_sampled():
    class Flat(CorrelationModel):
        def value(self, t):
            return np.full(np.shape(t), 0.5)

    pair = pair_correlation_integral(Flat(), Uniform(0, 1), 3.0, n_samples=100)
    assert pair.method == "sampling" and pair.value == 0.5
    with pytest.raises(TypeError):
        pair_correlation_integral(Flat(), Uniform(0, 1), 3.0, method="quadrature")


def test_difference_density_is_a_probability_density():
    for m in (Uniform(0, 1), TableDensity(0.0, 1.5, [1.0, 3.0, 2.0])):
        g, exact = difference_density(m)
        assert exact
        assert g.mass(g.knots[0], g.knots[-1]) == pytest.approx(1.0, abs=1e-12)
        lo, hi = m.support()
        assert g.knots[0] == pytest.approx(-(hi - lo))


@pytest.mark.parametrize("inner", [
    Uniform(0.25, 1.75), TableDensity(0.0, 1.5, [1.0, 3.0, 2.0]),
    Triangular(0.0, 2.0), GAUSS])
def test_rescaled_difference_density_is_the_inner_one_rescaled(inner):
    g, exact = difference_density(inner)
    for f in (0.3, 7.0):
        scaled, scaled_exact = difference_density(rescale(inner, f))
        assert scaled_exact == exact
        assert np.array_equal(scaled.knots, g.knots * f)
        assert np.array_equal(scaled.values, g.values / f)
    # nested rescalings apply innermost first
    nested, _ = difference_density(Scaled(7.0, Scaled(0.3, inner)))
    assert np.array_equal(nested.knots, g.knots * 0.3 * 7.0)
    assert np.array_equal(nested.values, g.values / 0.3 / 7.0)


def test_no_difference_law_means_no_density_and_sampled_pairs():
    spikes = geometric_spikes(10, 0.25, count=4)
    for weight in (CANTOR, rescale(CANTOR, 2.0), convolve(Uniform(0, 1), Uniform(0, 1))):
        assert difference_density(weight) is None
        pair = pair_correlation_integral(spikes, weight, 20.0, n_samples=500)
        assert pair.method == "sampling"
        with pytest.raises(TypeError):
            pair_correlation_integral(spikes, weight, 20.0, method="quadrature")


def test_sinc_path_never_builds_the_density(monkeypatch):
    calls = []
    for name in ("cdf", "cells"):
        def counted(self, *args, _name=name, _original=getattr(Triangular, name)):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(Triangular, name, counted)
    for p in (1, 2, 3):
        value, diff = engine._spectral_power(SINC_SPEC, Triangular(0, 2), 100.0, 1e-8, p)
        assert diff == 0.0 and 0.0 < value < 1.0
    assert calls == []
    difference_density(Triangular(0, 2))       # the counters do see a build
    assert calls == ["cells", "cdf"]


def test_engine_binds_no_concrete_measure_class():
    # the exact path is read off the weight's difference_law(), never its type
    for name in ("Uniform", "Triangular", "TruncatedGaussian", "TableDensity", "Scaled"):
        assert not hasattr(engine, name), name


# -- scans -----------------------------------------------------------------------

def test_scan_constant_evaluator_gives_zero_curve():
    curve = convergence_scan(lambda t, s: (0.0, 0.0), (1.0, 10.0, 100.0),
                             seed=12)
    assert curve.values == (0.0, 0.0, 0.0)


def test_scan_rerun_identical_bytes():
    flow = golden_winding()
    obs = cos_mode(2, 1)

    def point(t, seed):
        dev = l1_deviation(flow, obs, Uniform(0, 1), t, n_x=100, n_r=100,
                           seed=seed)
        return dev.value, dev.error

    grid = geometric_grid(10.0, 10.0, 3)
    a = convergence_scan(point, grid, seed=13).to_csv()
    b = convergence_scan(point, grid, seed=13, threads=3).to_csv()
    assert a == b


def test_scan_decay_last_below_first():
    flow = golden_winding()
    spec = spectrum_of_observable(flow, cos_mode(2, 1))
    curve = convergence_scan(
        lambda t, s: (l2_norm_spectral(spec, Uniform(0, 1), t), 0.0),
        geometric_grid(10.0, 10.0, 4), seed=14)
    assert curve.values[-1] < curve.values[0]


def test_scan_flags_failing_points():
    def flaky(t, seed):
        if t == 10.0:
            raise RuntimeError("synthetic failure")
        return 1.0, 0.0

    curve = convergence_scan(flaky, (1.0, 10.0, 100.0), seed=15)
    assert np.isnan(curve.values[1]) and curve.values[2] == 1.0
    assert 1 in curve.metadata["failed_points"]


def test_curve_csv_format():
    curve = DecayCurve((1.0, 2.0), (0.1, 0.2), (0.0, 0.0), {})
    lines = curve.to_csv().strip().split("\n")
    assert lines[0] == "t,value,error"
    assert len(lines) == 3 and lines[1].startswith("1,")


def test_grid_validation():
    with pytest.raises(ValueError):
        convergence_scan(lambda t, s: (0.0, 0.0), (1.0,), seed=0)
    with pytest.raises(ValueError):
        convergence_scan(lambda t, s: (0.0, 0.0), (2.0, 1.0), seed=0)


# -- almost-mixing probe ------------------------------------------------------------

def test_probe_zero_heights_gives_zero_curve():
    flat = SpikeCorrelation(0.25, (1.0, 10.0), (0.25, 0.25), (0.0, 0.0),
                            growth=5.0)
    curve = almost_mixing_probe(flat, Uniform(0, 1), geometric_grid(10, 10, 4))
    np.testing.assert_allclose(curve.values, 0.0, atol=1e-15)


def test_probe_sparse_spikes_decay():
    spikes = geometric_spikes(growth=10.0, halfwidth=0.25, height=1.0,
                              count=7, baseline=0.25)
    curve = almost_mixing_probe(spikes, Uniform(0, 1),
                                geometric_grid(10.0, 10.0, 5))
    assert curve.values[-1] < 0.05 * curve.values[0]
    # independent oracle at the first grid point: adaptive quadrature of each
    # reachable bump against the exact triangular difference density (spike 2
    # at h = 10 still clips the support edge at t = 10)
    from scipy.integrate import quad
    L, t0 = 0.25, 10.0
    val = 0.0
    for h in (1.0, 10.0):
        for sign in (1.0, -1.0):
            lo, hi = sorted((sign * (h - L) / t0, sign * (h + L) / t0))
            lo, hi = max(lo, -1.0), min(hi, 1.0)
            if hi <= lo:
                continue
            val += quad(lambda u: (1 - abs(t0 * abs(u) - h) / L) * (1 - abs(u)),
                        lo, hi, points=[min(max(sign * h / t0, lo), hi)])[0]
    assert curve.values[0] == pytest.approx(val, abs=1e-10)


def test_probe_arithmetic_progression_does_not_decay():
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, height=1.0,
                               count=100_001, baseline=0.25)
    curve = almost_mixing_probe(spikes, Uniform(0, 1),
                                geometric_grid(10.0, 10.0, 5))
    assert curve.values[-1] > 0.5 * curve.values[0]


def test_probe_reports_band_and_spike_masses():
    spikes = geometric_spikes(growth=10.0, halfwidth=0.25, height=1.0,
                              count=4, baseline=0.25)
    grid = geometric_grid(10.0, 10.0, 3)
    curve = almost_mixing_probe(spikes, Uniform(0, 1), grid,
                                band_halfwidth=1.0)
    band = curve.metadata["band_mass"]
    assert all(b > nxt for b, nxt in zip(band, band[1:]))
    per = curve.metadata["spike_mass"][0]["per_spike"]
    assert len(per) == 4
    # spike 1 at h=1, t=10: the one-sided band [0.075, 0.125] carries the
    # triangular-density mass of that interval
    g, _ = difference_density(Uniform(0, 1))
    assert per[0] == pytest.approx(g.mass(0.075, 0.125), abs=1e-12)


def test_probe_supports_singular_weights_by_sampling():
    spikes = geometric_spikes(growth=10.0, halfwidth=0.25, height=1.0,
                              count=4, baseline=0.25)
    curve = almost_mixing_probe(spikes, CANTOR, geometric_grid(10.0, 10.0, 3),
                                n_samples=20_000, seed=16)
    assert all(v >= 0 for v in curve.values)
    assert curve.metadata["band_mass"][0] is not None



def test_probe_masses_are_even_in_t():
    spikes = geometric_spikes(10, 0.25, count=4)
    grid = (-10.0, 10.0)
    exact = almost_mixing_probe(spikes, Triangular(0, 1), grid)
    band, per = exact.metadata["band_mass"], exact.metadata["spike_mass"]
    assert band[0] == band[1] > 0.0
    assert per[0] == per[1]
    assert per[0]["total"] > 0.0
    # the same law without a density view goes through the sampling path
    n = 200_000
    sampled = almost_mixing_probe(spikes, convolve(Uniform(0, 0.5), Uniform(0, 0.5)),
                                  grid, n_samples=n, seed=12)
    for k in (0, 1):
        for got, want in ((sampled.metadata["band_mass"][k], band[k]),
                          (sampled.metadata["spike_mass"][k]["total"], per[k]["total"])):
            assert abs(got - want) <= 5.0 * np.sqrt(want * (1 - want) / n) + 1e-4



def test_probe_at_zero_matches_sampling_path():
    # at t = 0 every difference t (r - s) is 0: deviation 0, band mass 1, no spike mass
    spikes = geometric_spikes(10, 0.25, count=4)
    exact = almost_mixing_probe(spikes, Triangular(0, 1), (0.0, 1.0))
    sampled = almost_mixing_probe(spikes, convolve(Uniform(0, 0.5), Uniform(0, 0.5)),
                                  (0.0, 1.0), n_samples=2000, seed=3)
    for curve in (exact, sampled):
        assert "failed_points" not in curve.metadata
        assert (curve.values[0], curve.errors[0]) == (0.0, 0.0)
        assert curve.metadata["band_mass"][0] == 1.0
        assert curve.metadata["spike_mass"][0] == {"total": 0.0, "per_spike": [0.0] * 4}

# -- vectorized difference-density kernels -------------------------------------------

def trapezoid_mass_reference(g, a, b):
    """Scalar interval mass by merging the knots into [a, b] and applying the
    trapezoid rule (exact for a continuous piecewise-linear density)."""
    if b <= a:
        return 0.0
    k = np.asarray(g.knots)
    pts = np.unique(np.concatenate(([a, b], k[(k > a) & (k < b)])))
    vals = g(pts)
    return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(pts)))


def test_density_mass_matches_trapezoid_reference():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(2, 60))
        knots = np.sort(rng.uniform(-3.0, 3.0, n + 1))
        values = np.concatenate(([0.0], rng.random(n - 1), [0.0]))
        g = engine.PiecewiseLinearDensity(knots, values)
        lo = rng.uniform(-4.0, 4.0, 200)
        hi = lo + rng.choice([-1.0, 1.0], 200) * rng.exponential(0.5, 200)
        hi[:10] = lo[:10]                          # empty intervals
        lo[10:20], hi[10:20] = -9.0, -8.0          # wholly left of the support
        lo[20:30], hi[20:30] = 7.0, 9.0            # wholly right of it
        lo[30:40], hi[30:40] = knots[3], knots[-2] # knot-aligned, across knots
        lo[40:50] = knots[1] + 0.3 * (knots[2] - knots[1])   # inside one segment
        hi[40:50] = knots[1] + 0.6 * (knots[2] - knots[1])
        ref = [trapezoid_mass_reference(g, a, b) for a, b in zip(lo, hi)]
        got = g.mass(lo, hi)
        assert isinstance(got, np.ndarray) and got.shape == lo.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)
        for a, b, r in zip(lo[::17], hi[::17], ref[::17]):
            one = g.mass(a, b)
            assert isinstance(one, float)
            assert one == pytest.approx(r, rel=0, abs=1e-13)
    assert g.mass(1.0, -1.0) == 0.0
    # an interval inside one knot segment keeps its relative precision
    u = knots[1] + 0.5 * (knots[2] - knots[1])
    assert g.mass(u, u + 1e-9) == pytest.approx(
        trapezoid_mass_reference(g, u, u + 1e-9), rel=1e-13, abs=0)
    assert g.mass(-10.0, 10.0) == pytest.approx(g.cumulative[-1], abs=1e-15)


def spike_band_reference(g, h, L, t):
    """One spike and one sign at a time: merge the band's ends, apex and
    inner knots, then Simpson on each piece."""
    knots = np.asarray(g.knots)
    out = np.zeros(len(h))
    for j in range(len(h)):
        bump = lambda u: np.maximum(0.0, 1.0 - np.abs(np.abs(t * u) - h[j]) / L[j])
        for sign in (1.0, -1.0):
            lo, hi = sorted((sign * (h[j] - L[j]) / t, sign * (h[j] + L[j]) / t))
            lo, hi = max(lo, knots[0]), min(hi, knots[-1])
            if hi <= lo:
                continue
            apex = min(max(sign * h[j] / t, lo), hi)
            pts = np.unique(np.concatenate(
                ([lo, apex, hi], knots[(knots > lo) & (knots < hi)])))
            x0, x1 = pts[:-1], pts[1:]
            mid = 0.5 * (x0 + x1)
            out[j] += np.sum((x1 - x0) / 6.0 * (g(x0) * bump(x0)
                                                + 4.0 * g(mid) * bump(mid)
                                                + g(x1) * bump(x1)))
    return out


@pytest.mark.parametrize("block", [engine.SPIKE_BLOCK, 7])
def test_spike_band_integrals_match_per_spike_reference(monkeypatch, block):
    monkeypatch.setattr(engine, "SPIKE_BLOCK", block)
    g, exact = difference_density(Triangular(0.0, 1.0))
    assert len(g.knots) == 8193 and not exact
    cases = [
        # bands 0.5/t wide: about 20 knots each at t = 100; at t = 4096 the
        # apexes j / 4096 sit exactly on knots and bands cross one or two
        (arithmetic_spikes(step=1.0, halfwidth=0.25, count=150), 100.0),
        (arithmetic_spikes(step=1.0, halfwidth=0.25, count=4200), 4096.0),
        (geometric_spikes(growth=3.0, halfwidth=0.4, count=12, first=1.5), 7.3),
        # unequal halfwidths on a unit step: on the u < 0 side the span from
        # one band's end to the next band's start reaches back into a bump
        (SpikeCorrelation(0.25, tuple(float(j) for j in range(1, 41)),
                          (0.45, 0.05) * 20, (1.0,) * 40,
                          growth=40 / 39 * (1 - 1e-12)), 30.0),
    ]
    for spike, t in cases:
        h, L, _ = spike.arrays
        got = engine._spike_band_integrals(g, h, L, t)
        np.testing.assert_allclose(got, spike_band_reference(g, h, L, t),
                                   rtol=0, atol=1e-13)
        assert np.count_nonzero(got) > 0


def test_probe_builds_once_and_counts_calls(monkeypatch):
    counts = {"density": 0, "mass": 0, "sample": 0}
    build, mass = engine.difference_density, engine.PiecewiseLinearDensity.mass
    sample = SelfSimilar._sample

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "difference_density", counted("density", build))
    monkeypatch.setattr(engine.PiecewiseLinearDensity, "mass", counted("mass", mass))
    monkeypatch.setattr(SelfSimilar, "_sample", counted("sample", sample))
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, count=500)
    grid = geometric_grid(10.0, 10.0, 4)
    for weight in (Uniform(0, 1), Triangular(0, 1)):
        counts.update(density=0, mass=0)
        almost_mixing_probe(spikes, weight, grid, threads=2)
        assert counts["density"] == 1
        assert counts["mass"] <= 2 * len(grid)
    counts.update(density=0, mass=0, sample=0)
    almost_mixing_probe(spikes, CANTOR, grid, n_samples=2000, seed=3)
    assert counts == {"density": 1, "mass": 0, "sample": 2 * len(grid)}


@pytest.mark.parametrize("count", [64, 65])
def test_probe_spike_mass_shape_on_both_paths(count):
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, count=count)
    grid = geometric_grid(10.0, 10.0, 3)
    n, seed, bw = 3000, 17, 1.0
    sampled = almost_mixing_probe(spikes, CANTOR, grid, n_samples=n, seed=seed,
                                  band_halfwidth=bw)
    exact = almost_mixing_probe(spikes, Uniform(0, 1), grid)
    h, L, _ = spikes.arrays
    g, _ = difference_density(Uniform(0, 1))
    for k, t in enumerate(grid):
        # sampling path: counts among the pair integral's own draws equal the
        # fractions of the draws that fall in each window
        u = engine._pair_differences(CANTOR, n, engine._point_seed(seed, k))
        per = [float(np.mean((t * u >= hj - lj) & (t * u <= hj + lj)))
               for hj, lj in zip(h, L)]
        entry = sampled.metadata["spike_mass"][k]
        assert entry["total"] == float(np.sum(per))
        assert sampled.metadata["band_mass"][k] == float(np.mean(np.abs(t * u) < bw))
        # density path: the same total as one scalar mass per spike
        per_exact = [g.mass((hj - lj) / t, (hj + lj) / t) for hj, lj in zip(h, L)]
        entry_exact = exact.metadata["spike_mass"][k]
        assert entry_exact["total"] == pytest.approx(sum(per_exact), rel=0, abs=1e-13)
        if count <= engine.PROBE_META_SPIKES:
            assert entry["per_spike"] == per
            np.testing.assert_allclose(entry_exact["per_spike"], per_exact,
                                       rtol=0, atol=1e-13)
        else:
            assert list(entry) == ["total"] and list(entry_exact) == ["total"]


def test_probe_dense_progression_on_quantized_triangular_weight():
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, height=1.0,
                               count=100_001, baseline=0.25)
    start = time.perf_counter()
    curve = almost_mixing_probe(spikes, Triangular(0, 2),
                                geometric_grid(10.0, 10.0, 5))
    elapsed = time.perf_counter() - start
    assert curve.values[-1] > 0.5 * curve.values[0]     # criterion 5's dense check
    assert elapsed < 15.0
