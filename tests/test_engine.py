import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from homavg import engine, measures, presets, quadrature, spectral
from homavg import (BochnerCorrelation, DecayCurve, FrequencyBand,
                    InvalidMeasureError, Observable, PointMass,
                    SpectralModel, SpikeCorrelation, Uniform,
                    almost_mixing_probe, arithmetic_spikes,
                    build_adversarial_measure, circle_rotation,
                    convergence_scan, convolve, cos_mode, descent_check,
                    difference_density, geometric_grid, geometric_spikes,
                    golden_winding, l1_deviation, l2_deviation_mc,
                    l2_norm_spectral, pair_correlation_integral, rescale,
                    spectrum_of_observable, weighted_average_pointwise)
from homavg.measures import (DigitLaw, Scaled, SelfSimilar, TableDensity, Triangular,
                             TruncatedGaussian)
from homavg.spectral import BoxAutocorrelation, BoxIndicator, CorrelationModel
from homavg.flows import BoxSet, TorusWinding

CANTOR = SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))
BERNOULLI = SelfSimilar((0.45, 0.45), (0.0, 0.55), (0.5, 0.5))   # M ratio = 1.35: sampled
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


# l1_deviation (n_x 300, n_r 700, seed 11) and l2_deviation_mc (n_x 200,
# n_r 300, seed 12) on the golden winding, (value, std_error, value, error)
# as the point-cloud inner average wrote them
MC_PINS = {
    ("uniform[0,1]", "cos", 3.0):
        ("0x1.2951e075044b9p-4", "0x1.52fc1f0449c31p-9",
         "0x1.2dbbdd3e1c00dp-4", "0x1.de0e34e037165p-9"),
    ("uniform[0,1]", "cos", 100.0):
        ("0x1.e728ab74aed2ep-6", "0x1.4a93e50744712p-10",
         "0x1.4a8e53642a96ep-6", "0x1.824f5394c6d72p-8"),
    ("uniform[0,1]", "box", 3.0):
        ("0x1.14bbcab6868b3p-5", "0x1.1f44d89466ebbp-10",
         "0x1.234e52f77aa27p-5", "0x1.8639cd6f30621p-10"),
    ("uniform[0,1]", "box", 100.0):
        ("0x1.69625ccdbc797p-7", "0x1.ef1251e90e5dcp-12",
         "0x0.0p+0", "0x1.86e7fde8c5ab2p-8"),
    ("gauss-trunc[0.5,0.2,0,1]", "cos", 3.0):
        ("0x1.d1dc7742bc8acp-5", "0x1.29a5640e9f370p-9",
         "0x1.d812c40623f00p-5", "0x1.0c013e709030cp-8"),
    ("gauss-trunc[0.5,0.2,0,1]", "cos", 100.0):
        ("0x1.ed22223eda480p-6", "0x1.5cb1e0340e325p-10",
         "0x0.0p+0", "0x1.e24e9ff02d3bap-7"),
    ("gauss-trunc[0.5,0.2,0,1]", "box", 3.0):
        ("0x1.a2ce663e74499p-5", "0x1.2d6bd647d15c9p-9",
         "0x1.1c223a9d66f63p-4", "0x1.9c43de7e8c0f5p-9"),
    ("gauss-trunc[0.5,0.2,0,1]", "box", 100.0):
        ("0x1.5e2644b21e138p-7", "0x1.d8164ef36b041p-12",
         "0x1.6c3c07e2c906cp-9", "0x1.671fc536fae39p-8"),
    ("cantor-thirds", "cos", 3.0):
        ("0x1.44d8dd2355841p-3", "0x1.4129ec4554f8bp-8",
         "0x1.7ec64344d5ecdp-3", "0x1.46c1fd3347180p-8"),
    ("cantor-thirds", "cos", 100.0):
        ("0x1.e1a1b3b64996fp-6", "0x1.511ed6c8ff5f9p-10",
         "0x0.0p+0", "0x1.dc06ba38bf938p-7"),
    ("cantor-thirds", "box", 3.0):
        ("0x1.5d6886a92f2eap-4", "0x1.a99ffc99622b7p-9",
         "0x1.76ad7ba602d8bp-4", "0x1.fb4b03c01e6b9p-9"),
    ("cantor-thirds", "box", 100.0):
        ("0x1.ef6bc389055d0p-7", "0x1.565381a17df3bp-11",
         "0x1.d6c0c4428c5a6p-7", "0x1.85bd47cf102cbp-10"),
}
PIN_OBSERVABLES = {"cos": cos_mode(2, 1), "box": BoxIndicator(BoxSet((0.5, 0.3)))}


@pytest.mark.parametrize("weight,obs,t", list(MC_PINS))
def test_nested_mc_keeps_its_bits(weight, obs, t):
    """The chunked orbit means give the point cloud's deviations bit for bit,
    the gauss-trunc draws through ``_log_sum`` included."""
    flow, w, f = golden_winding(), presets.resolve_measure(weight), PIN_OBSERVABLES[obs]
    one = l1_deviation(flow, f, w, t, n_x=300, n_r=700, seed=11)
    two = l2_deviation_mc(flow, f, w, t, n_x=200, n_r=300, seed=12)
    got = [one.value, one.std_error, two.value, two.std_error]
    assert [v.hex() for v in got] == list(MC_PINS[weight, obs, t])


# the same four numbers over several outer blocks: l1_deviation at n_x 6 and
# l2_deviation_mc at n_x 5, n_r 1.5e6 and t = 3 on Uniform(0, 1), seeds 13
# and 14, run 2 and 3 blocks of 5 and 2 points, each block on its own streams
MULTI_BLOCK_PINS = {
    "cos": ("0x1.071a8b9e59c6cp-4", "0x1.9a83668dd337dp-7",
            "0x1.fea5efc660f18p-5", "0x1.cc44a6ac4aeebp-7"),
    "box": ("0x1.fac2c139c1da8p-6", "0x1.55729fd63daf0p-8",
            "0x1.a57c6e84a2e63p-7", "0x1.42bffb4ff2fa9p-10"),
}


@pytest.mark.parametrize("obs", list(MULTI_BLOCK_PINS))
def test_nested_mc_keeps_its_bits_over_several_blocks(obs):
    flow, w, f = golden_winding(), Uniform(0, 1), PIN_OBSERVABLES[obs]
    one = l1_deviation(flow, f, w, 3.0, n_x=6, n_r=1_500_000, seed=13)
    two = l2_deviation_mc(flow, f, w, 3.0, n_x=5, n_r=1_500_000, seed=14)
    got = [one.value, one.std_error, two.value, two.std_error]
    assert [v.hex() for v in got] == list(MULTI_BLOCK_PINS[obs])


def test_l1_deviation_chunks_rows_longer_than_a_block():
    """n_r above ``quadrature.CHUNK`` takes one row per chunk, same bits."""
    dev = l1_deviation(golden_winding(), cos_mode(2, 1), Uniform(0, 1), 7.0,
                       n_x=30, n_r=70_000, seed=3)
    assert quadrature.CHUNK < 70_000 and dev.value.hex() == "0x1.051eb51a5574dp-4"


def test_l1_deviation_memory_stays_chunk_sized():
    """cos-x2 with Uniform(0, 1) at n_x 800, n_r 1000: the draws (6.1 MiB) and
    chunk-sized temporaries; the point cloud and its complex phases took 67 MiB."""
    tracemalloc.start()
    try:
        l1_deviation(golden_winding(), cos_mode(2, 1), Uniform(0, 1), 100.0,
                     n_x=800, n_r=1000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


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
    # a self-similar weight with sparse digits takes its digit rule
    l2_norm_spectral(spectral.lebesgue_band(), CANTOR, 1e3)
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


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 16])
def test_sinc_power_integral_matches_mpmath(n):
    switch = 2 * n + quadrature._SINC_NEAR     # quadrature below, tail series above
    xs = np.array([0.3, 1.0, 7.5, switch - 0.5, switch, switch + 0.5, switch + 20.5,
                   300.0, 2000.0, 5e6])
    want = np.array([float(sinc_power_oracle(n, x)) for x in xs])
    got = quadrature.sinc_power_integral(n, 0.0, xs)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # relative precision too, also past the switch, where each value holds
    # the whole near part: within 1e-15 for n <= 12 (9e-16 at n = 12)
    np.testing.assert_allclose(got, want, rtol=1e-15 if n <= 12 else 2e-15, atol=0)
    assert np.array_equal(quadrature.sinc_power_integral(n, -xs, 0.0), got)
    # a cell away from 0 keeps its relative precision, on either side of the switch
    for a, b in ((40.1, 41.8), (switch - 3.0, switch + 2.0), (1e3, 1e3 + 1.5)):
        want = float(sinc_power_oracle(n, b, 120) - sinc_power_oracle(n, a, 120))
        assert quadrature.sinc_power_integral(n, a, b) == pytest.approx(want, rel=1e-13)


def test_sinc_square_integral_is_si_form():
    xs = np.array([0.01, 0.5, 3.0, 43.5, 44.5, 1e3, 1e5])
    want = sici(2.0 * xs)[0] - np.sin(xs) ** 2 / xs
    np.testing.assert_allclose(quadrature.sinc_power_integral(2, 0.0, xs), want,
                               rtol=0, atol=1e-14)


SINC_SPEC = SpectralModel(atoms=((0.8, 0.2), (-2.5, 0.1)),
                          band=FrequencyBand(-1.5, 1.0, 0.7, (1.0, 3.0, 2.0)))


def test_triangular_power_is_uniform_double_power():
    # |nu_hat| of Triangular(0, 2) = U(0, 1) * U(0, 1) is |nu_hat_U|^2: the
    # same sinc power for the band, bit for bit; the atoms take each weight's
    # own |nu_hat|, equal to rounding
    for t in (0.0, 3.0, 1e3, 5.8e3):
        for p in (1, 2, 3):
            tri = engine._spectral_power(SINC_SPEC, Triangular(0, 2), t, 1e-8, p)
            uni = engine._spectral_power(SINC_SPEC, Uniform(0, 1), t, 1e-8, 2 * p)
            assert tri[1] == uni[1] == 0.0 and tri[0] == pytest.approx(uni[0], rel=0, abs=1e-15)
            if t:
                assert (Triangular(0, 2).band_term(SINC_SPEC.band, t, p)
                        == Uniform(0, 1).band_term(SINC_SPEC.band, t, 2 * p))


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


# recorded before the near part's cells went through ``gl_pieces``
SINC_TIMES = (1e-2, 1.0, 145.0, 1e4, 1e7)
SINC_BANDS = {"flat": FrequencyBand(-1.0, 1.0, 1.0), "profiled": SINC_SPEC.band}
UNIT, TRI = Uniform(0, 1), Triangular(0, 1)
SINC_RECORDED = {
    ("flat", UNIT, 2): (0.9999944444694447, 0.9468659992502935, 0.014444099587557858,
        0.0002094395102391195, 2.0943951023931947e-07),
    ("flat", UNIT, 3): (0.9999916667249997, 0.9222092367724146, 0.01191638592697271,
        0.00017278759594743825, 1.7278759594743823e-07),
    ("flat", TRI, 1): (0.9999986111126733, 0.9862661136512506, 0.028888136886257722,
        0.0004188790204754414, 4.1887902047863894e-07),
    ("flat", TRI, 2): (0.9999972222288193, 0.9728702963415543, 0.02077199740303325,
        0.00030119396234416383, 3.011939623441638e-07),
    ("flat", TRI, 3): (0.9999958333484379, 0.9598026552863246, 0.017069705677472576,
        0.00024751073232335223, 2.475107323233522e-07),
    ("profiled", UNIT, 2): (0.6999953549727714, 0.6567938668225599, 0.012132922308908532,
        0.00017592918859471235, 1.7592918860102833e-07),
    ("profiled", UNIT, 3): (0.6999930324879075, 0.6376246898752035, 0.01000976381514317,
        0.00014514158059584806, 1.451415805958481e-07),
    ("profiled", TRI, 1): (0.6999988387367242, 0.6885996411794274, 0.02426421920176015,
        0.0003518583771016304, 3.5185837720205666e-07),
    ("profiled", TRI, 2): (0.6999976774782399, 0.6776542747745946, 0.017448477555093562,
        0.0002530029283690976, 2.530029283690976e-07),
    ("profiled", TRI, 3): (0.6999965162245475, 0.6671385495755693, 0.014338552769021181,
        0.00020790901515161582, 2.0790901515161581e-07),
}


@pytest.mark.parametrize("band, weight, power", list(SINC_RECORDED),
                         ids=[f"{b}-{type(w).__name__}-{p}" for b, w, p in SINC_RECORDED])
def test_sinc_power_band_terms_keep_their_recorded_values(band, weight, power):
    """Sinc powers n = 4, 6 and 4, 8, 12 keep their recorded values within
    3e-15 relative: the recorded values were up to 2.3e-15 off mpmath at
    n = 6 (x >= 72), while ``sinc_power_integral`` is within 1e-15 of it for
    n <= 12 (test_sinc_power_integral_matches_mpmath; at t = 1e7 the flat
    n = 6 term is 11 pi / 40 / (t / 2) to 1.5e-16)."""
    got = [weight.band_term(SINC_BANDS[band], t, power) for t in SINC_TIMES]
    np.testing.assert_allclose(got, SINC_RECORDED[band, weight, power], rtol=3e-15, atol=0)


def test_sinc_power_cost_does_not_grow_with_t(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "adaptive_gl", lambda *a, **k: calls.append(a))
    t = 1e7
    got, diff = engine._spectral_power(spectral.lebesgue_band(), Uniform(0, 1), t, 1e-8, 3)
    assert calls == [] and diff == 0.0
    # flat density 1/2 on [-1, 1]: S_6(t / 2) / (t / 2), and S_6(inf) = 11 pi / 40
    assert got == pytest.approx(11.0 * np.pi / 40.0 / (0.5 * t), rel=4e-16)
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


# -- self-similar digit rule ------------------------------------------------------

DYADIC_ODD = SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5))
DYADIC_EVEN = SelfSimilar((0.25, 0.25), (0.0, 0.25), (0.5, 0.5))
# weights summing to 1 only within 1e-12: the digit rule and the char fn
# both normalize them
NEAR_ONE = SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5 + 5e-13))


def adaptive_gl_raises(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive_gl called")
    monkeypatch.setattr(spectral, "adaptive_gl", refuse)


@pytest.mark.parametrize("spec", [spectral.lebesgue_band(), PROFILED_SPEC],
                         ids=["flat", "profiled"])
@pytest.mark.parametrize("weight, reference", [
    (CANTOR, CANTOR), (DYADIC_ODD, DYADIC_ODD), (DYADIC_EVEN, DYADIC_EVEN),
    (NEAR_ONE, NEAR_ONE), (rescale(CANTOR, 0.7), rescale(CANTOR, 0.7)),
], ids=["cantor", "dyadic-odd", "dyadic-even", "near-one", "scaled-cantor"])
def test_digit_rule_matches_expect(monkeypatch, spec, weight, reference):
    lo, hi = reference.support()
    fn = lambda m, t: lambda r: np.abs(m.char_fn(t * r)) ** 2
    # the band against the reference, the atoms by the weight's own char fn
    want = {t: (spec.expect(fn(reference, t), 1e-12, t * (hi - lo))[0]
                - spec.atom_sum(fn(reference, t)) + spec.atom_sum(fn(weight, t)))
            for t in (0.3, 1.0, 10.0, 14.5, 50.0, 362.5)}
    adaptive_gl_raises(monkeypatch)
    for t, value in want.items():
        got, diff = engine._spectral_power(spec, weight, t, 1e-12)
        assert diff == 0.0
        assert got == pytest.approx(value, rel=0, abs=1e-12)


@pytest.mark.parametrize("t", [1.0, 10.0])
def test_cantor_flat_band_matches_mpmath(t):
    """Cantor's |nu_hat(t r)|^2 = prod_{j >= 1} cos^2(t r / 3^j), averaged over
    the flat band [-1, 1], at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        depth = int(mp.log(t * 1e20, 3)) + 1
        f = lambda r: mp.fprod(mp.cos(t * r / mp.mpf(3) ** j) ** 2
                               for j in range(1, depth + 1))
        want = float(mp.quad(f, mp.linspace(-1, 1, 9)) / 2)
    got = l2_norm_spectral(spectral.lebesgue_band(), CANTOR, t) ** 2
    assert got == pytest.approx(want, rel=0, abs=1e-13)


def test_digit_rule_symmetries(monkeypatch):
    adaptive_gl_raises(monkeypatch)
    for t in (0.7, 13.0, 250.0):
        value = engine._spectral_power(PROFILED_SPEC, CANTOR, t, 1e-8)[0]
        assert engine._spectral_power(PROFILED_SPEC, CANTOR, -t, 1e-8)[0] == \
            pytest.approx(value, rel=0, abs=1e-15)
        assert engine._spectral_power(PROFILED_SPEC, rescale(CANTOR, 3.0), t, 1e-8)[0] == \
            pytest.approx(engine._spectral_power(PROFILED_SPEC, CANTOR, 3.0 * t, 1e-8)[0],
                          rel=0, abs=1e-14)
    assert engine._spectral_power(spectral.lebesgue_band(), CANTOR, 0.0, 1e-8) == (1.0, 0.0)
    assert engine._spectral_power(PROFILED_SPEC, CANTOR, 0.0, 1e-8) == (0.3 + 0.7, 0.0)


def test_digit_rule_bochner_pair_against_sampling(monkeypatch):
    model = BochnerCorrelation(PROFILED_SPEC)
    adaptive_gl_raises(monkeypatch)
    for t in (3.0, 40.0):
        exact = pair_correlation_integral(model, CANTOR, t, method="quadrature")
        sampled = pair_correlation_integral(model, CANTOR, t, method="sampling",
                                            n_samples=40_000, seed=13)
        assert exact.error == 0.0
        assert abs(exact.value - sampled.value) <= 4.0 * sampled.error + exact.error


def test_digit_rule_at_large_t_in_bounded_memory():
    """Cantor at power 1 on the flat band, t = 1e5 and 1e6: 3^12 and 3^14
    atoms times the rule's nodes, visited in blocks, with adaptive
    quadrature refused."""
    src = str(Path(engine.__file__).resolve().parent.parent)
    for t in (1e5, 1e6):
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from homavg import engine, spectral\n"
            "from homavg.presets import cantor_thirds\n"
            "def refuse(*a, **k): raise AssertionError('adaptive_gl called')\n"
            "spectral.adaptive_gl = refuse\n"
            f"value, diff = engine._spectral_power(spectral.lebesgue_band(), cantor_thirds(), {t!r}, 1e-8)\n"
            "assert diff == 0.0 and 0.0 < value < 1e-3, value\n"
            # VmHWM is this process's own peak; ru_maxrss would carry the
            # parent's across fork and exec
            "peak = next(line for line in open('/proc/self/status') if line.startswith('VmHWM'))\n"
            "assert int(peak.split()[1]) < 100 * 1024, peak\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (t, proc.stderr)


@pytest.mark.parametrize("weight, rho, rest", [
    (CANTOR, 1 / 3, 1 / 2),
    (SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5)), 1 / 4, 3 / 8),
    (SelfSimilar((0.25, 0.25), (0.0, 0.25), (0.5, 0.5)), 1 / 4, 3 / 4),
    (rescale(CANTOR, 0.7), 1 / 3, 1 / (2 * 0.7)),
], ids=["cantor", "dyadic-odd", "dyadic-even", "scaled-cantor"])
def test_digit_walk_at_large_t_obeys_self_similarity(weight, rho, rest):
    """With nu_hat(xi) = m(xi) nu_hat(rho xi), m(xi) = sum_k p_k e^{i xi c_k},
    Phi(t) = ||A_t f||^2 on the flat band obeys
    Phi(t / rho) = (sum p^2) Phi(t) + sum_{a != b} p_a p_b E[sinc(t (D + w_ab))]
    with D = r - s and w_ab = (c_a - c_b) / rho.  Here sum p^2 = 1/2, and
    |sinc(x)| <= 1 / |x| bounds the remainder by ``rest`` / t, ``rest`` the
    sum of p_a p_b / dist(-w_ab, supp D) over the rescaling factor.  The
    walk at t / rho takes one more level than at t, so a wrong level count,
    scale, node or block join shows."""
    phi = lambda t: l2_norm_spectral(spectral.lebesgue_band(), weight, t) ** 2
    for t in (1e3, 1e4, 1e5):
        assert abs(phi(t / rho) - phi(t) / 2) <= rest / t + quadrature.ROUNDING


def test_digit_band_term_does_not_depend_on_the_block(monkeypatch):
    """Blocks of 64 evaluations make the walk join levels into the rule's
    nodes and evaluate its copies over many kernel calls."""
    want = {t: CANTOR.band_term(PROFILED_SPEC.band, t, 1) for t in (14.5, 362.5, 1e4)}
    monkeypatch.setattr(quadrature, "BLOCK", 64)
    for t, value in want.items():
        assert CANTOR.band_term(PROFILED_SPEC.band, t, 1) == pytest.approx(value, rel=1e-13)


def test_digit_rule_needs_sparse_digits(monkeypatch):
    """M digits of the power-p law of r - s with M ratio > 1 keep adaptive
    quadrature: Cantor at p >= 2 (5 and 7 digits at ratio 1/3) and a
    Bernoulli-type ratio 0.45 (3 digits)."""
    calls = []
    original = spectral.adaptive_gl

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "adaptive_gl", counting)
    bernoulli = SelfSimilar((0.45, 0.45), (0.0, 0.55), (0.5, 0.5))
    for weight, power in ((CANTOR, 2), (CANTOR, 3), (bernoulli, 1)):
        calls.clear()
        engine._spectral_power(spectral.lebesgue_band(), weight, 10.0, 1e-10, power)
        assert len(calls) == 1
    calls.clear()
    descent_check(spectral.lebesgue_band(), CANTOR, t=10.0, order=2)
    assert len(calls) == 1      # the power-2 side only


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


@pytest.mark.parametrize("weight, t, n, seed, within", [
    (Uniform(0.5, 1.5), 2916.0, 20_000, 1199921073, 5.26),
    (Uniform(0, 1), 1e6, 1000, 3, 1.0),
], ids=["few-hits", "no-hit"])
def test_sampled_spike_error_counts_the_hit_share(weight, t, n, seed, within):
    """A spike correlation is its baseline outside the spike windows, so the
    std of a sample with few hits shrinks with them; the sampled error is
    at least H sqrt(p_up / n) with p_up the hit share's Wilson bound.  With
    std / sqrt(n) alone, the few-hits point sat 8.67 errors from the exact
    value, and the no-hit sample had error 0."""
    spike = geometric_spikes(10.0, 0.25, 1.0)
    exact = pair_correlation_integral(spike, weight, t, method="quadrature").value
    samp = pair_correlation_integral(spike, weight, t, method="sampling",
                                     n_samples=n, seed=seed)
    assert samp.error > 0.0
    assert 0.0 < abs(samp.value - exact) <= within * samp.error
    assert (samp.value == spike.baseline) == (n == 1000)    # no pair hit a window


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
    g = difference_density(weight)
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
    (GOLDEN_BOX, Triangular(0.5, 2.5), 30.0),
    (GOLDEN_BOX, GAUSS, 30.0),
    (GOLDEN_BOX, TruncatedGaussian(3.0, 0.5, 0.0, 1.0), 100.0),
], ids=["golden-table", "golden-uniform", "circle", "d3", "golden-triangular", "golden-gauss",
        "golden-gauss-tail"])
def test_box_pair_quadrature_is_exact(model, weight, t):
    pair = pair_correlation_integral(model, weight, t, method="quadrature")
    assert pair.error == 0.0
    assert pair.value == pytest.approx(fine_pair_reference(model, weight, t),
                                       rel=0, abs=1e-9)


def test_box_pair_quadrature_error_and_symmetry():
    tri = pair_correlation_integral(GOLDEN_BOX, Triangular(0, 2), 100.0)
    assert tri.method == "quadrature" and tri.error == 0.0
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
    for m in (Uniform(0, 1), TableDensity(0.0, 1.5, [1.0, 3.0, 2.0]), Triangular(0.5, 2.5),
              GAUSS):
        g = difference_density(m)
        assert g.mass(g.knots[0], g.knots[-1]) == pytest.approx(1.0, abs=1e-12)
        lo, hi = m.support()
        assert g.knots[0] == pytest.approx(-(hi - lo)) == -g.knots[-1]


@pytest.mark.parametrize("inner", [
    Uniform(0.25, 1.75), TableDensity(0.0, 1.5, [1.0, 3.0, 2.0]),
    Triangular(0.0, 2.0), GAUSS])
def test_rescaled_difference_density_is_the_inner_one_rescaled(inner):
    """The view of a rescaling by f: knots times f, density over f, and so
    the same masses, spike and box integrals at u f and t / f."""
    g = difference_density(inner)
    u = np.linspace(g.knots[0], g.knots[-1], 1001)
    spikes = geometric_spikes(3.0, 0.4, count=5, first=1.5)
    h, L, _ = spikes.arrays
    for scaled, f in ((difference_density(rescale(inner, f)), f) for f in (0.3, 7.0)):
        assert scaled.degree == g.degree
        assert np.array_equal(scaled.knots, g.knots * f)
        np.testing.assert_allclose(scaled(u * f), g(u) / f, rtol=1e-13, atol=1e-13 / f)
        np.testing.assert_allclose(scaled.mass(u[:-1] * f, u[1:] * f), g.mass(u[:-1], u[1:]),
                                   rtol=0, atol=1e-15)
        for t in (2.0, 9.0):
            want, _, masses = g.spike_probe(spikes, t, h - L, h + L)
            got, error, scaled_masses = scaled.spike_probe(spikes, t / f, h - L, h + L)
            assert error == 0.0 and got == pytest.approx(want, rel=0, abs=1e-14)
            np.testing.assert_allclose(scaled_masses, masses, rtol=0, atol=1e-15)
        assert scaled.pair_integral(GOLDEN_BOX, 30.0 / f) == pytest.approx(
            g.pair_integral(GOLDEN_BOX, 30.0), rel=0, abs=1e-14)
    # nested rescalings apply their factors innermost first
    nested = difference_density(Scaled(7.0, Scaled(0.3, inner)))
    assert np.array_equal(nested.knots, g.knots * 0.3 * 7.0)
    np.testing.assert_allclose(nested(u * 2.1), g(u) / 2.1, rtol=1e-13, atol=1e-13)


def test_no_difference_law_means_no_density_and_sampled_pairs():
    spikes = geometric_spikes(10, 0.25, count=4)
    for weight in (BERNOULLI, rescale(BERNOULLI, 2.0), convolve(Uniform(0, 1), Uniform(0, 1))):
        assert difference_density(weight) is None
        pair = pair_correlation_integral(spikes, weight, 20.0, n_samples=500)
        assert pair.method == "sampling"
        with pytest.raises(TypeError):
            pair_correlation_integral(spikes, weight, 20.0, method="quadrature")


def test_sinc_path_never_builds_the_density(monkeypatch):
    calls = []
    original = Triangular._pairs

    def counted(self):
        calls.append("pairs")
        return original(self)

    monkeypatch.setattr(Triangular, "_pairs", counted)
    for p in (1, 2, 3):
        value, diff = engine._spectral_power(SINC_SPEC, Triangular(0, 2), 100.0, 1e-8, p)
        assert diff == 0.0 and 0.0 < value < 1.0
    assert calls == []
    difference_density(Triangular(0, 2))       # the counter does see a build
    assert calls == ["pairs"]


def test_engine_binds_no_concrete_measure_class():
    # the exact path is read off the weight's own band_term and pair_view,
    # never its type
    for name in ("Uniform", "Triangular", "TruncatedGaussian", "TableDensity", "Scaled",
                 "sici", "self_similar_rule", "sinc_power_integral", "_sinc_power_integral",
                 "digit_band_term", "_digit_band_term"):
        assert not hasattr(engine, name), name


@pytest.mark.parametrize("weight, power, rule", [
    (Uniform(0, 1), 1, "si"), (Uniform(0, 1), 2, "sinc"), (Triangular(0, 2), 1, "sinc"),
    (CANTOR, 1, "digit"), (CANTOR, 2, "expect"),
    (TableDensity(0.0, 1.5, [1.0, 3.0, 2.0]), 2, "expect"), (GAUSS, 1, "expect"),
], ids=["uniform-1", "uniform-2", "triangular-1", "cantor-1", "cantor-2", "table-2",
        "gauss-1"])
def test_band_term_comes_from_the_first_form_that_serves(monkeypatch, weight, power, rule):
    """The one rule that evaluates the band term: the Si form, a sinc
    power, the digit walk, or ``expect`` where the weight has none."""
    taken = []
    for owner, attr, name in ((measures, "_si_band_term", "si"),
                              (measures, "_sinc_band_term", "sinc"),
                              (measures, "digit_walk", "digit"),
                              (spectral.SpectralModel, "expect", "expect")):
        def recording(*args, _original=getattr(owner, attr), _name=name):
            taken.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, attr, recording)
    engine._spectral_power(PROFILED_SPEC, weight, 5.0, 1e-8, power)
    assert taken == [rule]


SCALED_INNER = {
    "uniform": Uniform(0.25, 1.25), "table": TableDensity(0.0, 1.5, [1.0, 3.0, 2.0]),
    "triangular": Triangular(0.5, 2.5), "cantor": CANTOR,
    "dyadic-odd": SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5)),
    "dyadic-even": SelfSimilar((0.25, 0.25), (0.0, 0.25), (0.5, 0.5)),
}
# _spectral_power of Scaled(0.7, weight) at p = 1, 2, 3 and t = 3, 40, tol
# 1e-10, as the forms' `scaled` computed them (commit 94266f2)
SCALED_POWERS = {
    ("uniform", "flat"): (0.8877192886682184, 0.10961804797402257, 0.7973968004462697,
                          0.0747963531053869, 0.72397727122238, 0.06170984608586526),
    ("uniform", "profiled"): (0.6616658269100796, 0.09049709003515208, 0.5557487979107367,
                              0.06278340213836413, 0.5005196895702729, 0.05183424902349384),
    ("table", "flat"): (0.8256406378147805, 0.0858825050432479, 0.7028801634898321,
                        0.058869214817302236, 0.6139040314624798, 0.04835342964881065),
    ("table", "profiled"): (0.5833896899581555, 0.0713490991051721, 0.48670069838493557,
                            0.04944036172794153, 0.43088638063299184, 0.040616705932639774),
    ("triangular", "flat"): (0.7973968004462697, 0.0747963531053869, 0.6636661212015835,
                             0.053784636099052784, 0.5716044780994808, 0.04419834505774094),
    ("triangular", "profiled"): (0.5557487979107367, 0.06278340213836413, 0.4615229997519346,
                                 0.04517898183910962, 0.4051674230156026, 0.03712660933041336),
    ("cantor", "flat"): (0.8370554729366025, 0.16316544434111072, 0.7197812308708845,
                         0.07471862275850473, 0.6331752781459924, 0.05298235745516988),
    ("cantor", "profiled"): (0.5800535489329487, 0.15553940205329492, 0.49586934590475834,
                             0.0642275181134378, 0.44232116382006437, 0.04446681989629929),
    ("dyadic-odd", "flat"): (0.9079014242011972, 0.22040064200371734, 0.8307146239316014,
                             0.12292818943720316, 0.7655882946465332, 0.08552022647112426),
    ("dyadic-odd", "profiled"): (0.6949097235292082, 0.1807169142352153, 0.5857290278564389,
                                 0.10020448755749321, 0.5295115277478515, 0.07020089015654256),
    ("dyadic-even", "flat"): (0.9758781619432124, 0.3962032289354161, 0.952797492677365,
                              0.23745189394763314, 0.9307045983845315, 0.1689517648852348),
    ("dyadic-even", "profiled"): (0.9005677123036542, 0.2663217464201598, 0.823572186780293,
                                  0.167087183794738, 0.7633035517490966, 0.1267364395318377),
}


@pytest.mark.parametrize("name, label", list(SCALED_POWERS), ids=[
    f"{name}-{label}" for name, label in SCALED_POWERS])
def test_scaled_weight_is_its_inner_weight_at_scaled_time(name, label):
    """Scaled(f, w) at t is w at f t: the band term by the inner weight's
    own rule, within 1e-15 of the values the form layer gave, and of the
    inner weight's whole spectral power at f t."""
    spec = {"flat": spectral.lebesgue_band(), "profiled": PROFILED_SPEC}[label]
    inner = SCALED_INNER[name]
    got = [engine._spectral_power(spec, Scaled(0.7, inner), t, 1e-10, p)[0]
           for p in (1, 2, 3) for t in (3.0, 40.0)]
    at_scaled_time = [engine._spectral_power(spec, inner, 0.7 * t, 1e-10, p)[0]
                      for p in (1, 2, 3) for t in (3.0, 40.0)]
    np.testing.assert_allclose(got, SCALED_POWERS[name, label], rtol=0, atol=1e-15)
    np.testing.assert_allclose(got, at_scaled_time, rtol=0, atol=1e-15)


def test_twice_scaled_uniform_probe_keeps_its_values():
    """The density view of Scaled(3, Scaled(0.5, U(0, 1))) scales the inner
    view twice; its probe values and masses stay within 1e-15 of those the
    form layer gave with the one factor 1.5 (commit 94266f2)."""
    curve = almost_mixing_probe(geometric_spikes(10, 0.25, count=8),
                                Scaled(3.0, Scaled(0.5, Uniform(0.0, 1.0))),
                                (2.0, 10.0, 50.0), n_samples=2000, seed=5)
    close = lambda got, want: np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    close(curve.values, (0.11111111111111113, 0.0422222222222222, 0.012355555555555528))
    assert curve.errors == (0.0, 0.0, 0.0)
    close(curve.metadata["band_mass"],
          (0.5555555555555556, 0.12888888888888891, 0.026488888888888888))
    masses = curve.metadata["spike_mass"]
    close([m["total"] for m in masses],
          (0.11111111111111112, 0.04222222222222221, 0.012355555555555547))
    close([m["per_spike"][:2] for m in masses],
          ((0.11111111111111112, 0.0), (0.031111111111111114, 0.011111111111111098),
           (0.00657777777777778, 0.005777777777777767)))
    assert all(m["per_spike"][2:] == [0.0] * 6 for m in masses)


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


def test_threaded_scans_share_one_pool():
    # the first scan's points meet at a barrier, so both workers exist after it
    meet = threading.Barrier(2, timeout=30)
    first, second = [], []

    def point(t, _seed, seen):
        seen.append((threading.current_thread(), threading.active_count()))
        if seen is first and len(seen) <= 2:
            meet.wait()
        return t, 0.0

    grid = (1.0, 2.0, 3.0, 4.0, 5.0)
    a = convergence_scan(lambda t, s: point(t, s, first), grid, seed=3, threads=2)
    alive = threading.active_count()
    b = convergence_scan(lambda t, s: point(t, s, second), grid, seed=3, threads=2)
    assert a.values == b.values == grid
    workers = {thread for thread, _ in first}
    assert len(workers) == 2 and threading.current_thread() not in workers
    assert {thread for thread, _ in second} <= workers
    assert {count for _, count in second} == {alive}
    assert threading.active_count() == alive


def test_single_thread_scan_runs_inline_without_a_pool(monkeypatch):
    def no_pool(threads):
        raise AssertionError(f"a pool of {threads} was asked for")

    monkeypatch.setattr(engine, "_pool", no_pool)
    before = threading.active_count()
    seen = []
    curve = convergence_scan(
        lambda t, s: (seen.append((threading.current_thread(), threading.active_count())) or t,
                      0.0),
        (1.0, 2.0, 3.0), seed=3, threads=1)
    assert curve.values == (1.0, 2.0, 3.0)
    assert seen == [(threading.current_thread(), before)] * 3


FORKED_SCAN = """
import os, signal, sys, time
from homavg.engine import convergence_scan

def scan():
    curve = convergence_scan(lambda t, s: (2 * t, 0.0), (1.0, 2.0, 3.0, 4.0),
                             seed=5, threads=2)
    return curve.values == (2.0, 4.0, 6.0, 8.0)

assert scan()                       # the parent's pool is up before the fork
pid = os.fork()
if pid == 0:
    os._exit(0 if scan() else 1)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, signal.SIGKILL)        # the child hung on the parent's pool
os.waitpid(pid, 0)
sys.exit("the forked child's threaded scan hung")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_its_own_threaded_scan():
    src = str(Path(engine.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", FORKED_SCAN], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def test_exact_probe_reports_the_views_own_integral():
    # far out the deviation is about 3.4e-7 against a 0.25 baseline; taking
    # it as (baseline + v) - baseline would round it to an ulp of 0.25
    spikes = geometric_spikes(10, 0.25, count=8)
    grid = (1e6, 1e7)
    curve = almost_mixing_probe(spikes, Uniform(0, 1), grid)
    none = np.empty(0)
    for t, value in zip(grid, curve.values):
        own = difference_density(Uniform(0, 1)).spike_probe(spikes, t, none, none)[0]
        assert value == pytest.approx(abs(own), rel=1e-15, abs=0)


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
    g = difference_density(Uniform(0, 1))
    assert per[0] == pytest.approx(g.mass(0.075, 0.125), abs=1e-12)


def test_probe_supports_singular_weights_by_sampling():
    spikes = geometric_spikes(growth=10.0, halfwidth=0.25, height=1.0,
                              count=4, baseline=0.25)
    curve = almost_mixing_probe(spikes, BERNOULLI, geometric_grid(10.0, 10.0, 3),
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


@pytest.mark.parametrize("weight", [Uniform(0, 1), Triangular(0, 2), CANTOR],
                         ids=["uniform", "triangular", "cantor"])
def test_spike_pair_quadrature_at_zero_is_the_baseline(weight):
    # every spike has h - L > 0, so at t = 0 no difference reaches a spike
    spikes = geometric_spikes(10, 0.25, 1.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pair_correlation_integral(spikes, weight, 0.0, method="quadrature")
    assert (got.value, got.method) == (spikes.baseline, "quadrature")
    # a density view reports 0, and so does the digit walk's bound here
    assert got.error == 0.0

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
        g = engine.PiecewiseLinearDensity(
            knots, lambda u, k=knots, v=values: np.interp(u, k, v, left=0.0, right=0.0), 1)
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


@pytest.mark.parametrize("block", [quadrature.BLOCK, 7])
def test_spike_band_integrals_match_per_spike_reference(monkeypatch, block):
    """The kink integral of a spike kernel, pieces taken ``block`` values at
    a time, against the per-spike reference weighted by random unequal
    heights, so that an error on any one spike shows in the total."""
    monkeypatch.setattr(quadrature, "BLOCK", block)
    masses = np.random.default_rng(41).random(4096)
    g = difference_density(TableDensity(0.0, 1.0, masses))
    assert len(g.knots) == 8193 and g.degree == 1
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
    rng = np.random.default_rng(43)
    for spike, t in cases:
        heights = rng.uniform(0.1, 2.0, len(spike.centers))
        spike = SpikeCorrelation(spike.baseline, spike.centers, spike.halfwidths,
                                 tuple(heights), spike.growth)
        h, L, _ = spike.arrays
        bands = spike_band_reference(g, h, L, t)
        assert np.count_nonzero(bands) > 0
        got, error = g.pair_integral(spike, t)
        assert error == 0.0
        assert got == pytest.approx(heights @ bands, rel=0, abs=1e-13)


def test_kink_integral_memory_stays_within_its_blocks():
    """20,000 arithmetic spikes on gauss-trunc at a t that sees all of them:
    about 120,000 pieces of 11 nodes each.  An unblocked pass holds 10.6 MB
    of nodes alone and peaked at 83 MB; in blocks of BLOCK values the
    peak is that of a few arrays of one value per piece, about 8 MB."""
    g = difference_density(GAUSS)
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, count=20_000)
    t = 20_300.0
    kernel = spikes.kernel(t, max(-g.knots[0], g.knots[-1]))
    assert kernel.kinks.size == 6 * 20_000 and (kernel.degree + g.degree) // 2 + 1 == 11
    bound = 30e6
    g.pair_integral(spikes, t)      # caches the rule and the spike cells
    tracemalloc.start()
    try:
        value, _ = g.pair_integral(spikes, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert 0.0 < value < 1.0


def test_nested_interval_spectral_norm_memory_stays_within_its_blocks():
    """The depth-4 golden adversary weight, 16 leaves, on the flat band at
    t = 3000: ``expect`` evaluates its transform at 63,872 and then 127,744
    nodes, which as (nodes x leaves) matrices peaked at 111 MiB; in blocks
    of BLOCK (node, leaf) pairs it stays near 8 MB."""
    weight = build_adversarial_measure(golden_winding(), BoxSet((0.5, 0.5)), 4).measure()
    bound = 32 * 2 ** 20
    l2_norm_spectral(spectral.lebesgue_band(), weight, 10.0)     # caches the rules
    tracemalloc.start()
    try:
        value = l2_norm_spectral(spectral.lebesgue_band(), weight, 3000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert value == pytest.approx(0.5025572784757295, rel=0, abs=1e-15)


def test_expect_memory_does_not_grow_with_t():
    """gauss-trunc has no exact band term: on the flat band at t = 3000
    ``expect`` runs 2,866 and then 5,732 cells of 64 nodes, which as one
    node array peaked at 36.5 MiB; through ``gl_pieces`` it stays near
    7 MiB."""
    l2_norm_spectral(spectral.lebesgue_band(), GAUSS, 10.0)     # caches the rules
    tracemalloc.start()
    try:
        value = l2_norm_spectral(spectral.lebesgue_band(), GAUSS, 3000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert value == pytest.approx(0.03890770613309645, rel=1e-15, abs=0)


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
    almost_mixing_probe(spikes, BERNOULLI, grid, n_samples=2000, seed=3)
    assert counts == {"density": 1, "mass": 0, "sample": 2 * len(grid)}
    # at the default 10k pairs the walk is the cheaper path at t = 10 and 100
    counts.update(density=0, mass=0, sample=0)
    almost_mixing_probe(spikes, CANTOR, grid[:2], seed=3)
    assert counts == {"density": 1, "mass": 0, "sample": 0}


@pytest.mark.parametrize("count", [64, 65])
def test_probe_spike_mass_shape_on_both_paths(count):
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, count=count)
    grid = geometric_grid(10.0, 10.0, 3)
    n, seed, bw = 3000, 17, 1.0
    sampled = almost_mixing_probe(spikes, BERNOULLI, grid, n_samples=n, seed=seed,
                                  band_halfwidth=bw)
    exact = almost_mixing_probe(spikes, Uniform(0, 1), grid)
    h, L, _ = spikes.arrays
    g = difference_density(Uniform(0, 1))
    for k, t in enumerate(grid):
        # sampling path: counts among the pair integral's own draws equal the
        # fractions of the draws that fall in each window
        u = engine._pair_differences(BERNOULLI, n, engine._point_seed(seed, k))
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


def test_probe_dense_progression_on_triangular_weight():
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, height=1.0,
                               count=100_001, baseline=0.25)
    start = time.perf_counter()
    curve = almost_mixing_probe(spikes, Triangular(0, 2),
                                geometric_grid(10.0, 10.0, 5))
    elapsed = time.perf_counter() - start
    assert curve.values[-1] > 0.5 * curve.values[0]     # criterion 5's dense check
    assert elapsed < 15.0


# -- kink walk over digit laws ------------------------------------------------------

WALKED = [CANTOR, DYADIC_ODD, rescale(CANTOR, 0.7)]
WALKED_IDS = ["cantor", "dyadic-odd", "scaled-cantor"]


@pytest.mark.parametrize("weight", WALKED, ids=WALKED_IDS)
def test_walk_pairs_against_sampling(weight):
    spikes = geometric_spikes(10, 0.25, count=4)
    for model in (spikes, GOLDEN_BOX):
        for t in (7.0, 60.0):
            exact = pair_correlation_integral(model, weight, t)
            assert exact.method == "quadrature" and exact.error < 1e-15
            assert pair_correlation_integral(model, weight, -t) == exact
            sampled = pair_correlation_integral(model, weight, t, method="sampling",
                                                n_samples=200_000, seed=21)
            assert abs(exact.value - sampled.value) <= 4.0 * (sampled.error + exact.error)


@pytest.mark.parametrize("weight", WALKED, ids=WALKED_IDS)
def test_walk_probe_against_sampling(weight):
    probe_against_sampling(weight, (-50.0, 10.0, 50.0))


@pytest.mark.parametrize("weight", [
    Triangular(0.5, 2.5), GAUSS, TruncatedGaussian(0.3, 0.05, 0.0, 1.0),
    TruncatedGaussian(3.0, 0.5, 0.0, 1.0)], ids=["triangular", "gauss", "gauss-narrow",
                                                 "gauss-tail"])
def test_density_probe_against_sampling(weight):
    probe_against_sampling(weight, (-30.0, 4.0, 30.0, 300.0))


def probe_against_sampling(weight, grid):
    """The exact probe's values and masses, even in t, within four errors of
    fresh samples at every grid point."""
    spikes = geometric_spikes(10, 0.25, count=4)
    h, L, _ = spikes.arrays
    n = 200_000
    curve = almost_mixing_probe(spikes, weight, grid)
    assert "failed_points" not in curve.metadata
    band, spike = curve.metadata["band_mass"], curve.metadata["spike_mass"]
    assert (curve.values[0], band[0], spike[0]) == (curve.values[2], band[2], spike[2])
    for k, t in enumerate(grid):
        assert curve.errors[k] < 1e-15
        u = t * engine._pair_differences(weight, n, 30 + k)
        vals = spikes.value(u)
        assert abs(curve.values[k] - abs(vals.mean() - spikes.baseline)) <= \
            4.0 * vals.std() / np.sqrt(n) + curve.errors[k]
        counted = [np.mean(np.abs(u) < 1.0)] + [np.mean((u >= hj - lj) & (u <= hj + lj))
                                                for hj, lj in zip(h, L)]
        for got, want in zip([band[k], *spike[k]["per_spike"]], counted):
            assert abs(got - want) <= 4.0 * np.sqrt(got * (1 - got) / n) + 1e-12


def test_walk_rescaled_weight_at_t_is_the_weight_at_scaled_t():
    spikes = geometric_spikes(10, 0.25, count=4)
    for t in (5.0, 40.0):
        for model in (spikes, GOLDEN_BOX):
            scaled = pair_correlation_integral(model, rescale(CANTOR, 3.0), t)
            assert scaled.value == pytest.approx(
                pair_correlation_integral(model, CANTOR, 3.0 * t).value, rel=0, abs=1e-14)
    scaled = almost_mixing_probe(spikes, rescale(CANTOR, 3.0), (5.0, 40.0))
    plain = almost_mixing_probe(spikes, CANTOR, (15.0, 120.0))
    np.testing.assert_allclose(scaled.values, plain.values, rtol=0, atol=1e-14)
    # the cumulative of a digit law is only Hoelder continuous (exponent
    # log 2 / log 3 for Cantor), so the rounding of 3 * (2/3) in the scaled
    # digits moves a mass by more than rounding: 1.4e-14 at t = 40
    np.testing.assert_allclose(scaled.metadata["band_mass"], plain.metadata["band_mass"],
                               rtol=0, atol=1e-12)


def digit_cdf(law, x):
    """P(D < x) in Fractions for a digit law D = d + ratio D': the
    self-similarity F(y) = sum_i w_i F((y - v_i) / ratio), with F = 0 at or
    below the support and 1 at or above it, solved by elimination over the
    points reached from x.  Needs an x whose orbit is finite."""
    lo, hi = law.values[0] / (1 - law.ratio), law.values[-1] / (1 - law.ratio)
    points, rows = [x], []
    while len(rows) < len(points):
        row = [Fraction(0)] * len(points) + [Fraction(0)]    # coefficients, then the constant
        for v, w in zip(law.values, law.weights):
            z = (points[len(rows)] - v) / law.ratio
            if z >= hi:
                row[-1] += w
            elif z > lo:
                if z not in points:
                    points.append(z)
                    row.insert(-1, Fraction(0))
                row[points.index(z)] -= w
        row[len(rows)] += 1
        rows.append(row)
    n = len(points)
    system = [row[:-1] + [Fraction(0)] * (n + 1 - len(row)) + row[-1:] for row in rows]
    for c in range(n):
        pivot = next(r for r in range(c, n) if system[r][c] != 0)
        system[c], system[pivot] = system[pivot], system[c]
        system[c] = [v / system[c][c] for v in system[c]]
        for r in range(n):
            if r != c:
                system[r] = [a - system[r][c] * b for a, b in zip(system[r], system[c])]
    return system[0][n]


def test_walk_cantor_band_mass_is_five_twenty_firsts():
    third = Fraction(1, 3)
    law = DigitLaw(third, (-2 * third, Fraction(0), 2 * third),
                   (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    tenth = Fraction(1, 10)
    exact = digit_cdf(law, tenth) - digit_cdf(law, -tenth)
    assert exact == Fraction(5, 21)
    spikes = geometric_spikes(10, 0.25, count=4)
    curve = almost_mixing_probe(spikes, CANTOR, (10.0, 20.0))
    assert curve.metadata["band_mass"][0] == pytest.approx(float(exact), rel=0, abs=1e-15)
    assert difference_density(CANTOR).mass(-0.1, 0.1) == pytest.approx(
        float(exact), rel=0, abs=1e-15)


def test_walk_error_is_its_bound():
    """A ramp with its kink at 0.1, walked to rounding and, with a looser
    spread, stopped near 1e-10: each reported bound is positive and covers
    the gap between the two."""
    law = difference_density(CANTOR).law
    kinks = np.array([0.1])
    ramp = lambda u, w: float(w @ np.maximum(u - 0.1, 0.0))
    fine, fine_error = quadrature.digit_walk(law, kinks, ramp, 1, 1.0, 2.0)
    coarse, coarse_error = quadrature.digit_walk(law, kinks, ramp, 1, 1.0, 2e6)
    assert 0.0 < fine_error <= 2.0 * quadrature.ROUNDING
    assert 1e-13 < coarse_error <= 2e6 * quadrature.ROUNDING
    assert abs(coarse - fine) <= coarse_error + fine_error


def test_walk_mass_at_a_heavy_kink_stops_with_its_bound():
    """A kink at 0 sits inside the heavy all-middle-digit copy of r - s at
    every level; the walk stops once that copy no longer shrinks in float,
    and the mass it reports as its error covers the exact P(0 <= D < 1/2)."""
    p = Fraction(99, 10_000)      # r - s of weights (0.99, 0.01): digit 2/3 with 0.01 * 0.99
    law = DigitLaw(Fraction(1, 3), (Fraction(-2, 3), Fraction(0), Fraction(2, 3)),
                   (p, 1 - 2 * p, p))
    exact = float(digit_cdf(law, Fraction(1, 2)) - digit_cdf(law, Fraction(0)))
    view = measures.DigitPairs(law, 52)
    start = time.perf_counter()
    bins, error = quadrature.digit_walk(law, *view._mass_walk(np.array([0.0, 0.5])))
    assert time.perf_counter() - start < 5.0
    assert 1e-7 < error < 1e-5
    assert abs(bins[1] - exact) <= error
    weight = SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.99, 0.01))
    assert difference_density(weight).mass(0.0, 0.5) == pytest.approx(exact, rel=0, abs=1e-5)


@pytest.mark.parametrize("weight", [CANTOR, DYADIC_ODD], ids=["cantor", "dyadic-odd"])
def test_walk_work_covers_its_kernel_evaluations(weight):
    """``digit_walk_work`` counts copies placed plus kernel evaluations; the
    evaluations alone, over its Gauss rule's nodes, stay within it."""
    view = difference_density(weight)
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, height=1.0, count=500, baseline=0.25)
    h, L, _ = spikes.arrays
    for t in (10.0, 100.0, 1000.0):
        ends = view._ends(np.append(h - L, -1.0) / t, np.append(h + L, 1.0) / t)
        for kinks, kernel, degree, lipschitz, spread in (
                view._walk(spikes, t), view._mass_walk(ends)):
            seen = []
            counted = lambda u, w: seen.append(len(u)) or kernel(u, w)
            quadrature.digit_walk(view.law, kinks, counted, degree, lipschitz, spread)
            size = degree // 2 + 1
            work = view._work(kinks, kernel, degree, lipschitz, spread)
            assert 0 < sum(seen) <= work * size / (1 + size)


def test_walk_budget_on_dense_spikes():
    """100,001 arithmetic spikes on Cantor: the walk takes a t while its
    kinks in reach keep it cheaper than sampling, and sampling the rest."""
    spikes = arithmetic_spikes(step=1.0, halfwidth=0.25, height=1.0,
                               count=100_001, baseline=0.25)
    start = time.perf_counter()
    curve = almost_mixing_probe(spikes, CANTOR, geometric_grid(10.0, 10.0, 5))
    assert time.perf_counter() - start < 15.0
    assert curve.errors[0] <= 1e-12        # t = 10 walks
    assert curve.errors[-1] > 1e-4         # t = 1e5 samples
    assert pair_correlation_integral(spikes, CANTOR, 1e5).method == "sampling"
    assert pair_correlation_integral(spikes, CANTOR, 100.0, n_samples=10).method == "sampling"
    forced = pair_correlation_integral(spikes, CANTOR, 100.0, n_samples=10, method="quadrature")
    assert forced.method == "quadrature"
    assert forced.value == pair_correlation_integral(spikes, CANTOR, 100.0).value
