import numpy as np
import pytest

from homavg import (BochnerCorrelation, BoxAutocorrelation, BoxIndicator,
                    BoxSet, FourierObservable, FrequencyBand, SpectralModel,
                    SpikeCorrelation, TorusWinding, arithmetic_spikes,
                    cos_mode, geometric_spikes, golden_winding,
                    spectrum_of_observable)

# -- spectra of observables ---------------------------------------------------

def test_single_mode_gives_one_atom():
    w = golden_winding()
    obs = FourierObservable({(2, -1): 0.5 + 0.25j, (-2, 1): 0.5 - 0.25j})
    # not unit norm: |c|^2 sums to 2 * (0.3125)
    with pytest.raises(ValueError):
        spectrum_of_observable(w, obs)
    c = 1.0 / np.sqrt(2.0)
    obs = FourierObservable({(2, -1): c, (-2, 1): c})
    model = spectrum_of_observable(w, obs)
    freqs = sorted(f for f, _ in model.atoms)
    expected = 2 * np.pi * (2 * 1.0 - 1 * w.alpha[1])
    assert freqs == pytest.approx([-expected, expected])
    assert all(m == pytest.approx(0.5) for _, m in model.atoms)


def test_cos_mode_masses():
    w = golden_winding()
    model = spectrum_of_observable(w, cos_mode(2, 1))
    assert len(model.atoms) == 2
    freqs = sorted(f for f, _ in model.atoms)
    assert freqs[1] == pytest.approx(2 * np.pi * w.alpha[1])
    assert [m for _, m in model.atoms] == pytest.approx([0.5, 0.5])


def test_constant_mode_rejected():
    with pytest.raises(ValueError):
        FourierObservable({(0, 0): 1.0 + 0j})


def test_collision_merging():
    # On a rational winding two distinct modes can share a frequency.
    w = TorusWinding((1.0, 0.5))
    obs = FourierObservable({(1, 0): 0.5, (-1, 0): 0.5,
                             (0, 2): 0.5, (0, -2): 0.5})
    model = spectrum_of_observable(w, obs)
    assert len(model.atoms) == 2
    assert sorted(m for _, m in model.atoms) == pytest.approx([0.5, 0.5])
    assert sum(m for _, m in model.atoms) == pytest.approx(1.0)


def test_observable_evaluation():
    obs = cos_mode(2, 1)
    pts = np.array([[0.1, 0.0], [0.3, 0.25], [0.7, 0.5]])
    expected = np.sqrt(2.0) * np.cos(2 * np.pi * pts[:, 1])
    np.testing.assert_allclose(obs(pts), expected, atol=1e-12)
    assert obs.l2_norm == pytest.approx(1.0)


def test_box_indicator_mean():
    ind = BoxIndicator(BoxSet((0.5, 0.5)))
    assert ind.mean == pytest.approx(0.25)
    assert ind(np.array([0.2, 0.2])) == 1.0


# -- correlation transforms ---------------------------------------------------

def test_atom_at_zero_gives_constant_one():
    model = SpectralModel(atoms=((0.0, 1.0),))
    for t in (0.0, 5.0, 123.0):
        assert model.correlation(t) == pytest.approx(1.0)


def test_two_atoms_give_cosine():
    w = 3.0
    model = SpectralModel(atoms=((w, 0.5), (-w, 0.5)))
    ts = np.linspace(0, 10, 21)
    np.testing.assert_allclose(model.correlation(ts).real, np.cos(w * ts),
                               atol=1e-12)
    assert BochnerCorrelation(model).value(np.pi / w) == pytest.approx(-1.0)


def test_uniform_band_gives_sinc():
    model = SpectralModel(band=FrequencyBand(-1.0, 1.0, 1.0))
    for t in (0.5, 2.0, 9.0, 40.0):
        assert model.correlation(t).real == pytest.approx(np.sin(t) / t,
                                                          abs=1e-9)


def test_profiled_band_correlation_against_simpson_oracle():
    band = FrequencyBand(-0.5, 2.5, 0.7, (1.0, 0.0, 3.0, 2.0))
    model = SpectralModel(atoms=((1.5, 0.3),), band=band)
    ts = np.array([0.0, 1e-9, 0.8, 13.0, 250.0])
    got = model.correlation(ts)
    for t, val in zip(ts, got):
        edges, dens = band.cells()
        oracle = 0.3 * np.exp(1.5j * t)
        for a, b, d in zip(edges[:-1], edges[1:], dens):
            r = np.linspace(a, b, 1 << 14 | 1)
            f = np.exp(1j * t * r)
            h = r[1] - r[0]
            oracle += d * h / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum()
                                   + 2 * f[2:-1:2].sum())
        assert abs(val - oracle) < 1e-12
    assert model.correlation(0.0) == pytest.approx(1.0, abs=1e-15)


def test_correlation_at_zero_is_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        masses = rng.dirichlet(np.ones(3))
        model = SpectralModel(
            atoms=tuple((float(w), float(m)) for w, m in
                        zip(rng.uniform(-5, 5, 3), masses * 0.6)),
            band=FrequencyBand(-2.0, 3.0, 0.4))
        assert model.correlation(0.0).real == pytest.approx(1.0, abs=1e-9)


def test_mass_validation():
    with pytest.raises(ValueError):
        SpectralModel(atoms=((1.0, 0.7),))
    with pytest.raises(ValueError):
        SpectralModel(atoms=((1.0, 0.5),), band=FrequencyBand(0, 1, 0.6))


# -- spike profiles -------------------------------------------------------------

def test_spike_baseline_and_apex():
    model = geometric_spikes(growth=10.0, halfwidth=0.5, height=1.0,
                             count=4, baseline=0.25)
    mid = np.sqrt(10.0)  # geometric midpoint between consecutive spikes
    assert model.value(mid) == pytest.approx(0.25)
    assert model.value(10.0) == pytest.approx(1.25)
    assert model.value(10.25) == pytest.approx(0.25 + 0.5)


def test_spike_even_in_time():
    model = geometric_spikes(count=3)
    for t in (1.0, 9.9, 10.1, 55.0):
        assert model.value(-t) == model.value(t)


def test_spike_validation():
    with pytest.raises(ValueError):
        SpikeCorrelation(0.25, (1.0, 1.5), (0.1, 0.1), (1.0, 1.0), growth=2.0)
    with pytest.raises(ValueError):
        SpikeCorrelation(0.25, (0.2,), (0.3,), (1.0,), growth=2.0)  # h - L <= 0
    with pytest.raises(ValueError):
        SpikeCorrelation(0.25, (1.0, 2.0), (0.6, 0.6), (1.0, 1.0), growth=2.0)
    arithmetic_spikes(count=50)  # ratio (j+1)/j stays above the declared growth


@pytest.mark.parametrize("args, kwargs, message", [
    ((0.25, (1.0, 4.0), (0.1,), (1.0, 1.0)), {}, "must align"),
    ((-0.1, (1.0,), (0.1,), (1.0,)), {}, "baseline must be nonnegative"),
    ((0.25, (1.0,), (0.1,), (1.0,)), {"growth": 1.0}, "growth factor must exceed 1"),
    ((0.25, (1.0, 4.0), (0.1, 0.0), (1.0, 1.0)), {}, "positive halfwidths"),
    ((0.25, (1.0, 4.0), (0.1, 4.0), (1.0, 1.0)), {}, "positive halfwidths"),
    ((0.25, (1.0, 4.0), (0.1, None), (1.0, 1.0)), {}, "positive halfwidths"),
    # a later non-positive band is reported before an earlier pair failure
    ((0.25, (1.0, 1.5, 5.0), (0.1, 0.1, 6.0), (1.0,) * 3), {}, "positive halfwidths"),
    ((0.25, (1.0, 1.5), (0.1, 0.1), (1.0, 1.0)), {}, "must grow by at least"),
    ((0.25, (1.0, 2.0), (0.6, 0.6), (1.0, 1.0)), {}, "pairwise disjoint"),
    # the first offending pair decides, growth before disjointness at a pair
    ((0.25, (1.0, 2.0, 2.5), (0.6, 0.6, 0.1), (1.0,) * 3), {}, "pairwise disjoint"),
    ((0.25, (1.0, 2.0, 4.0, 5.0), (0.1, 0.1, 0.1, 0.1), (1.0,) * 4), {}, "must grow by at least"),
    ((0.25, (1.0, 1.5), (0.4, 0.4), (1.0, 1.0)), {}, "must grow by at least"),
])
def test_spike_validation_messages(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        SpikeCorrelation(*args, **{"growth": 2.0, **kwargs})


def test_spike_arrays_are_read_only_copies():
    model = geometric_spikes(count=3)
    h, L, heights = model.arrays
    assert h.tolist() == list(model.centers) and L.tolist() == list(model.halfwidths)
    assert heights.tolist() == list(model.heights)
    with pytest.raises(ValueError):
        h[0] = 2.0


def test_positive_definite_models_bounded_by_value_at_zero():
    # For transform-based and box-set correlations |rho(t)| <= rho(0);
    # spike profiles are exempt by design (their apexes model deviation).
    rng = np.random.default_rng(4)
    w = golden_winding()
    box_model = BoxAutocorrelation(w, BoxSet((0.4, 0.7)))
    rho0 = box_model.value(0.0)
    spec = SpectralModel(atoms=((1.3, 0.5), (-1.3, 0.5)))
    boch = BochnerCorrelation(spec)
    for t in rng.uniform(-200, 200, size=50):
        assert abs(box_model.value(t)) <= rho0 + 1e-12
        assert abs(boch.value(t)) <= boch.value(0.0) + 1e-12
