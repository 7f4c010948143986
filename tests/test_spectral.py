import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homavg import (BochnerCorrelation, BoxAutocorrelation, BoxIndicator,
                    BoxSet, FourierObservable, FrequencyBand, Observable, SpectralModel,
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


# -- orbit means ----------------------------------------------------------------

EPS = np.finfo(float).eps


def point_cloud_mean(obs, x, shifts, alpha):
    """The mean over each row of f at the explicit (n, m, d) point cloud."""
    pts = np.mod(x[:, None, :] + shifts[:, :, None] * np.asarray(alpha), 1.0)
    return obs(pts).mean(axis=1)


@st.composite
def orbit_blocks(draw, d):
    """(x, shifts, alpha): a few points, shifts t r up to 1e4, a winding in d."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    x = np.array(draw(st.lists(unit, min_size=n * d, max_size=n * d))).reshape(n, d)
    shifts = np.array(draw(st.lists(st.floats(-1e4, 1e4), min_size=n * m, max_size=n * m)))
    alpha = (1.0, *draw(st.lists(st.floats(0.01, 3.0), min_size=d - 1, max_size=d - 1)))
    return x, shifts.reshape(n, m), alpha


@st.composite
def fourier_cases(draw):
    """A real Fourier observable in d = 1-3 with off-axis modes, complex
    coefficients, its mirrors conjugate only to within 5e-13, and a block."""
    d = draw(st.integers(1, 3))
    wave = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    part = st.floats(-2.0, 2.0)
    coeffs = {}
    for k in draw(st.lists(wave.map(tuple), min_size=1, max_size=4)):
        c = complex(draw(part), draw(part))
        slip = complex(draw(st.floats(-2.5e-13, 2.5e-13)), draw(st.floats(-2.5e-13, 2.5e-13)))
        mirror = tuple(-v for v in k)
        if k != mirror and mirror not in coeffs:
            coeffs[k], coeffs[mirror] = c, c.conjugate() + slip
    return FourierObservable(coeffs), draw(orbit_blocks(d))


@settings(max_examples=150, deadline=None)
@given(case=fourier_cases())
def test_fourier_orbit_mean_matches_the_point_cloud(case):
    """One cos (and sin) per mirrored pair equals the complex sum over every
    mode at the explicit point cloud to a few ulp of sup|f| for each unit of
    |k|_1, the size of the phase whose rounding the two paths share."""
    obs, (x, shifts, alpha) = case
    reach = max(sum(map(abs, k)) for k in obs.coefficients)
    got = obs.orbit_mean(x, shifts, alpha)
    assert got.shape == (len(x),)
    np.testing.assert_allclose(got, point_cloud_mean(obs, x, shifts, alpha),
                               rtol=0, atol=2 * reach * EPS * obs.sup_norm)


@st.composite
def box_cases(draw):
    """A box in d = 1-3 and a block whose points are often exactly on a side."""
    d = draw(st.integers(1, 3))
    sides = tuple(draw(st.lists(st.sampled_from([0.25, 0.5, 0.3, 0.75, 0.1]),
                                min_size=d, max_size=d)))
    x, shifts, alpha = draw(orbit_blocks(d))
    on_side = np.array(draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
    x = np.where(on_side.reshape(x.shape), np.broadcast_to(sides, x.shape), x)
    zero = np.array(draw(st.lists(st.booleans(), min_size=shifts.size, max_size=shifts.size)))
    shifts = np.where(zero.reshape(shifts.shape), 0.0, shifts)
    return BoxIndicator(BoxSet(sides)), (x, shifts, alpha)


@settings(max_examples=150, deadline=None)
@given(case=box_cases())
def test_box_orbit_mean_equals_the_point_cloud_exactly(case):
    """The arc tests' count over n_r is the mean of the 0/1 point cloud, bit
    for bit, with points exactly on a side outside (the test is <)."""
    obs, (x, shifts, alpha) = case
    got = obs.orbit_mean(x, shifts, alpha)
    assert np.array_equal(got, point_cloud_mean(obs, x, shifts, alpha))


def test_box_orbit_mean_excludes_the_sides():
    obs = BoxIndicator(BoxSet((0.5, 0.25)))
    x = np.array([[0.5, 0.1], [0.1, 0.25], [0.4999999999999999, 0.2]])
    assert obs.orbit_mean(x, np.zeros((3, 2)), (1.0, 0.7)).tolist() == [0.0, 0.0, 1.0]


def test_observable_base_answers_its_orbit_mean_from_the_point_cloud():
    """An observable with only ``__call__`` gets the point-cloud body: the
    mean of f along each point's orbit under the winding."""

    class Product(Observable):
        mean, sup_norm = 0.25, 1.0

        def __call__(self, points):
            return points[..., 0] * points[..., 1] ** 2

    flow = TorusWinding((1.0, 0.4))
    x, shifts = np.array([[0.2, 0.9], [0.6, 0.1]]), np.array([[0.0, 1.5, 0.25], [3.25, -7.0, 2.0]])
    orbits = [np.mean(Product()(flow.advance(xi, si))) for xi, si in zip(x, shifts)]
    assert np.array_equal(Product().orbit_mean(x, shifts, flow.alpha), orbits)


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


def test_arithmetic_spikes_count():
    # one spike has no consecutive ratio and keeps the default growth
    one = arithmetic_spikes(step=2.0, count=1)
    assert one.centers == (2.0,) and one.growth == SpikeCorrelation.growth
    for count in (0, -1):
        with pytest.raises(ValueError, match="count"):
            arithmetic_spikes(count=count)


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


@st.composite
def spike_models(draw):
    """Disjoint windows of unequal halfwidths: each takes a share of the
    room to its nearer neighbour (or to 0), signed heights, and a growth
    declared below every drawn ratio of consecutive centers."""
    count = draw(st.integers(1, 12))
    ratios = draw(st.lists(st.floats(1.05, 6.0), min_size=count - 1, max_size=count - 1))
    h = draw(st.floats(0.5, 50.0)) * np.cumprod([1.0, *ratios])
    room = np.minimum(np.diff(h, prepend=0.0), np.diff(h, append=np.inf))
    shares = draw(st.lists(st.floats(0.01, 0.95), min_size=count, max_size=count))
    heights = draw(st.lists(st.floats(-3.0, 3.0), min_size=count, max_size=count))
    return SpikeCorrelation(draw(st.floats(0.0, 2.0)), tuple(h), tuple(0.5 * room * shares),
                            tuple(heights), growth=1.04)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model=spike_models(), draws=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=20))
def test_spike_value_is_baseline_plus_every_bump(model, draws):
    """The single-window lookup of ``value`` against the sum of every
    spike's bump, at random times, the window ends and the apexes, both
    signs; the windows are disjoint, so the sum has one nonzero term."""
    h, L, heights = model.arrays
    at = np.concatenate((h - L, h, h + L))
    x = np.concatenate((np.asarray(draws) * 1.2 * (h[-1] + L[-1]), at, -at))
    bumps = heights * np.maximum(0.0, 1.0 - np.abs(np.abs(x)[:, None] - h) / L)
    want = model.baseline + bumps.sum(axis=1)
    np.testing.assert_array_equal(model.value(x), want)
    assert [model.value(v) for v in x[:3]] == want[:3].tolist()


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


def test_expect_returns_value_and_band_difference():
    spec = SpectralModel(atoms=((0.5, 0.5),), band=FrequencyBand(-1.0, 1.0, 0.5))
    value, diff = spec.expect(lambda r: np.cos(7.0 * r), tol=1e-10, frequency=7.0)
    assert 0.0 <= diff < 1e-10
    assert value == pytest.approx(0.5 * np.cos(3.5) + 0.5 * np.sin(7.0) / 7.0,
                                  abs=1e-12)
    atoms_only = SpectralModel(atoms=((0.5, 0.5), (2.0, 0.5)))
    assert atoms_only.expect(lambda r: r, tol=1e-10) == (1.25, 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("args", [(NAN, 1.0, 1.0), (-1.0, INF, 1.0), (-1.0, 1.0, NAN),
                                  (-1.0, 1.0, 1.0, (1.0, NAN)), (-1.0, 1.0, 1.0, (INF,))])
def test_frequency_band_rejects_non_finite(args):
    with pytest.raises(ValueError, match="finite"):
        FrequencyBand(*args)


@pytest.mark.parametrize("atoms", [((1.0, NAN),), ((NAN, 1.0),),
                                   ((INF, 0.5), (0.0, 0.5))])
def test_spectral_model_rejects_non_finite_atoms(atoms):
    with pytest.raises(ValueError, match="finite"):
        SpectralModel(atoms=atoms)


@pytest.mark.parametrize("baseline, heights", [(NAN, (1.0,)), (INF, (1.0,)),
                                               (0.25, (NAN,)), (0.25, (-INF,))])
def test_spike_rejects_non_finite_levels(baseline, heights):
    with pytest.raises(ValueError, match="finite"):
        SpikeCorrelation(baseline, (1.0,), (0.1,), heights)
