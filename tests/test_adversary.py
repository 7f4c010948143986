from fractions import Fraction

import numpy as np
import pytest

from homavg import (AdversaryPlan, BoxSet, arc_correlation,
                    build_adversarial_measure, choose_multiplier,
                    golden_winding, lattice_distance, pell_winding,
                    periodic_winding, rigidity_times,
                    verify_non_almost_mixing)
from homavg import adversary, rng
from homavg.adversary import MULTIPLIER_CAP, correlation_deviation
from homavg.flows import GOLDEN, TorusWinding, _exact_shifts, arc_overlap, box_overlap
from homavg.quadrature import CHUNK

GOLDEN_FLOW = golden_winding()
HALF_BOX = BoxSet((0.5, 0.5))


# -- multipliers -----------------------------------------------------------------

def test_multiplier_at_index_ten():
    # Exact continued-fraction oracle: q_10 = 89, dist(89 slope) = 0.0050250,
    # eps = sqrt(dist) = 0.0708873, m = floor(eps / dist) = 14.
    m = choose_multiplier(GOLDEN_FLOW, HALF_BOX, 10)
    assert m == 14
    dist = lattice_distance(GOLDEN_FLOW, 89)
    assert m == int(np.sqrt(1.0 / dist))
    # the guarantee the multiplier buys: small symmetric difference for
    # every k <= m, checked through the closed-form correlation
    lip = 1.0 + sum(GOLDEN_FLOW.alpha)
    bound = 2.0 * lip * np.sqrt(dist)
    for k in range(1, m + 1):
        sym = 2.0 * (0.25 - arc_correlation(GOLDEN_FLOW, HALF_BOX, HALF_BOX,
                                            float(k * 89)))
        assert sym <= bound


def test_multiplier_grows_every_other_index():
    ms = [choose_multiplier(GOLDEN_FLOW, HALF_BOX, i) for i in range(1, 13)]
    assert ms[:10] == [1, 2, 2, 3, 4, 5, 6, 8, 11, 14]
    for a, c in zip(ms, ms[2:]):
        assert c > a


@pytest.mark.parametrize("flow", [GOLDEN_FLOW, pell_winding()],
                         ids=["golden", "pell"])
def test_multiplier_matches_mpmath_oracle(flow):
    # m = floor(1 / sqrt(dist(q_i slope))) with 1 / sqrt(dist) within about
    # sqrt(dist) of an integer at every other index: the oracle needs dist
    # to about q_i**-2 absolute, i.e. three times the digits of q_i.
    mp = pytest.importorskip("mpmath")
    count = 300
    times = rigidity_times(flow, count)
    slope = flow.slope
    with mp.workdps(3 * len(str(times[-1])) + 40):
        value = (slope.p + mp.sqrt(slope.d)) / slope.q
        for i, q in enumerate(times, start=1):
            x = q * value
            oracle = int(mp.floor(1 / mp.sqrt(abs(x - mp.nint(x)))))
            assert choose_multiplier(flow, HALF_BOX, i) == oracle, i


def test_multiplier_cap_for_exact_period():
    assert choose_multiplier(periodic_winding(2), HALF_BOX, 5) == MULTIPLIER_CAP


def test_multiplier_cap_at_multiples_of_a_float_slopes_denominator():
    flow = TorusWinding((1.0, float(GOLDEN)))
    times = rigidity_times(flow, 60)
    i = times.index(Fraction(float(GOLDEN)).denominator) + 1
    assert choose_multiplier(flow, HALF_BOX, i - 1) < MULTIPLIER_CAP
    assert [choose_multiplier(flow, HALF_BOX, j) for j in (i, i + 1, 60)] == [MULTIPLIER_CAP] * 3


def test_multiplier_is_the_largest_m_with_m_squared_dist_at_most_one(monkeypatch):
    """m = floor(1 / sqrt(num / den)) for distances next to perfect squares and huge ones."""
    rng_ = np.random.default_rng(37)
    pairs = [(1, 1), (2, 1), (1, 3), (1, 4), (4, 1), (3, 27), (3, 28), (3, 26), (7, 7 * 10 ** 40)]
    pairs += [(int(n) + 1, int(n) * int(k) + int(r)) for n, k, r in
              rng_.integers(1, 1 << 40, size=(200, 3))]
    pairs += [((1 << 200) + 3, (1 << 330) - 1), (5 ** 90, 3 ** 400)]
    for num, den in pairs:
        monkeypatch.setattr(adversary, "_exact_distance", lambda flow, time: (num, den))
        m = adversary._multiplier(GOLDEN_FLOW, 1)
        assert m >= 0 and m * m * num <= den < (m + 1) * (m + 1) * num, (num, den)


# -- plan construction ---------------------------------------------------------------

def test_depth_one_plan():
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 1)
    assert plan.failure_level is None
    level = plan.levels[0]
    assert len(level.intervals) == 2
    assert level.scale == level.multiplier * level.time
    for a, b in level.intervals:
        assert 0 <= a < b <= 1
    measure = plan.measure()
    assert measure.depth == 1


def test_depth_four_plan_invariants():
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 4)
    assert plan.failure_level is None
    plan.check_invariants()
    scales = plan.scales()
    assert all(a < b for a, b in zip(scales, scales[1:]))
    for lev in plan.levels:
        assert len(lev.intervals) == 2 ** lev.level
        # centers are exactly p t / s and the two children stay disjoint
        for j, (a, b) in enumerate(lev.intervals):
            p = lev.p_values[j // 2] + (j % 2)
            assert (a + b) / 2 == Fraction(p * lev.time, lev.scale)
        for (a1, b1), (a2, b2) in zip(lev.intervals, lev.intervals[1:]):
            assert b1 < a2
    # midpoint correlations within 1/n of mu(A), via exact arithmetic
    for lev in plan.levels:
        for j in range(len(lev.intervals)):
            p = lev.p_values[j // 2] + (j % 2)
            assert correlation_deviation(GOLDEN_FLOW, HALF_BOX,
                                         p * lev.time) < 1.0 / lev.level


def test_depth_four_masses_are_dyadic():
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 4)
    measure = plan.measure()
    # 2^n intervals at level n, uniform leaf sampling: each leaf carries 2^-4
    assert [len(lev) for lev in measure.levels] == [2, 4, 8, 16]
    draws = measure.sample(4000, 17)
    lo, hi = measure.support()
    assert np.all((draws >= lo) & (draws <= hi))


def test_partial_plan_when_indices_run_out():
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 4, max_index=20)
    assert plan.failure_level == 3
    assert plan.depth == 2
    assert "20" in plan.failure_reason


def test_candidate_with_too_large_a_deviation_is_skipped(monkeypatch):
    """Level 1 takes golden's index 4 (t = 5, m = 3); made to deviate by 1 at
    5 and 10, that candidate is skipped for the next one, index 5 (t = 8)."""
    assert build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 1).levels[0].index == 4
    real = adversary.correlation_deviation
    calls = []

    def deviation(flow, box, time, den=1):
        calls.append(time)
        return 1.0 if time in (5, 10) else real(flow, box, time, den)
    monkeypatch.setattr(adversary, "correlation_deviation", deviation)
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 1)
    assert plan.failure_level is None
    assert (plan.levels[0].index, plan.levels[0].time) == (5, 8)
    assert calls[:4] == [5, 10, 8, 16]


def test_candidate_whose_centers_miss_a_parent_is_skipped(monkeypatch):
    """m (b - a) >= 2 leaves room for two centers p / m, (p + 1) / m strictly
    inside [a, b] unless m a is an integer and m (b - a) is exactly 2.  With a
    safety factor of 1/4, golden's t = 1 at m = 3 makes the level-1 intervals
    [1/4, 5/12] and [7/12, 3/4], which m = 12 meets at exactly both ends: that
    level-2 candidate (t = 2) is skipped before any correlation is taken, for
    t = 3 at m = 13."""
    box = BoxSet((0.1, 0.1))
    monkeypatch.setattr(adversary, "_DELTA_SAFETY", Fraction(1, 4))
    monkeypatch.setattr(adversary, "_multiplier", lambda flow, t: {1: 3, 2: 12, 3: 13}.get(t, 1))
    real = adversary.correlation_deviation
    calls = []

    def deviation(flow, box, time, den=1):
        calls.append(time)
        return real(flow, box, time, den)
    monkeypatch.setattr(adversary, "correlation_deviation", deviation)
    plan = build_adversarial_measure(GOLDEN_FLOW, box, 2)
    assert plan.failure_level is None
    assert plan.levels[0].intervals == ((Fraction(1, 4), Fraction(5, 12)),
                                        (Fraction(7, 12), Fraction(3, 4)))
    assert [(lev.index, lev.time, lev.multiplier) for lev in plan.levels] == [(1, 1, 3), (3, 3, 13)]
    assert plan.levels[1].p_values == (4, 8)
    assert calls[:6] == [1, 2, 12, 15, 24, 27]   # level 1 at t = 1, level 2 at t = 3 only


def test_float_golden_plan_runs_out_past_its_denominator():
    """Float golden's own times leave golden's at the 38th and reach multiples of
    2**49 from the 53rd, whose distance 0 caps m: three levels build, level 4 fits none."""
    plan = build_adversarial_measure(TorusWinding((1.0, float(GOLDEN))), HALF_BOX, 4)
    assert [lev.time for lev in plan.levels] == [5, 987, 31123167203]
    assert plan.failure_level == 4 and "2000" in plan.failure_reason
    plan.check_invariants()


def test_plan_on_pell_winding():
    plan = build_adversarial_measure(pell_winding(), HALF_BOX, 2)
    assert plan.failure_level is None
    plan.check_invariants()


# -- verification ----------------------------------------------------------------------

def test_zero_level_plan_gives_empty_report():
    plan = AdversaryPlan(GOLDEN_FLOW, HALF_BOX, 0, ())
    assert verify_non_almost_mixing(plan) == []


@pytest.mark.parametrize("n_samples", [0, -3])
def test_verification_needs_a_sample(n_samples):
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 2)
    with pytest.raises(ValueError, match="n_samples"):
        verify_non_almost_mixing(plan, n_samples=n_samples)


def test_verification_bounds_and_agreement():
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 4)
    estimates = verify_non_almost_mixing(plan, n_samples=100_000, seed=18)
    assert [e.level for e in estimates] == [1, 2, 3, 4]
    for e in estimates:
        n = e.level
        assert e.target == pytest.approx(0.25)
        assert e.mixing_value == pytest.approx(0.0625)
        lower = e.target - 1.0 / n - 2.0 ** (-n + 1) - 3.0 * e.mc_std_error
        assert e.mc_value >= lower
        assert abs(e.mc_value - e.quad_value) <= 3.0 * e.mc_std_error
        if n >= 2:
            assert e.mc_value > e.mixing_value
            assert e.quad_value > e.mixing_value


@pytest.mark.parametrize("flow", [GOLDEN_FLOW, pell_winding()],
                         ids=["golden", "pell"])
def test_depth_six_plan_builds_and_verifies(flow):
    plan = build_adversarial_measure(flow, HALF_BOX, 6)
    assert plan.failure_level is None
    plan.check_invariants()
    scales = plan.scales()
    assert all(a < b for a, b in zip(scales, scales[1:]))
    assert scales[-1] > 10 ** 400
    estimates = verify_non_almost_mixing(plan, n_samples=100_000, seed=0)
    assert [e.level for e in estimates] == [1, 2, 3, 4, 5, 6]
    for e in estimates:
        assert abs(e.mc_value - e.quad_value) <= 3.0 * e.mc_std_error
        assert e.mc_value > e.mixing_value
        assert e.quad_value > e.mixing_value


def record_leaf_bases(plan, scale_n):
    """The leaf shifts and amplitude as derived from the last level's record:
    centers p / m and (p + 1) / m, half-width delta / s."""
    last = plan.levels[-1]
    ks = [p + r for p in last.p_values for r in (0, 1)]
    base = np.array([_exact_shifts(plan.flow, scale_n * k, last.multiplier) for k in ks]).T
    return base, float(Fraction(scale_n) * last.delta / last.scale)


@pytest.mark.parametrize("depth", [4, 6])
@pytest.mark.parametrize("flow", [GOLDEN_FLOW, pell_winding()], ids=["golden", "pell"])
def test_leaf_bases_read_the_weight_bit_for_bit(flow, depth):
    """The weight's reduced leaf centers k / m give the shifts and amplitude
    of the level record's own layout, though ``_fixed`` runs at another
    width."""
    plan = build_adversarial_measure(flow, HALF_BOX, depth)
    for lev in plan.levels:
        base, alpha, amp = adversary._leaf_bases(plan, lev.scale)
        want_base, want_amp = record_leaf_bases(plan, lev.scale)
        assert np.array_equal(base, want_base) and amp == want_amp
        assert np.array_equal(alpha, flow.alpha)


def test_verification_keeps_its_recorded_values():
    # recorded before the Monte Carlo product went through flows.box_overlap
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 4)
    got = [(e.mc_value, e.mc_std_error, e.quad_value)
           for e in verify_non_almost_mixing(plan, n_samples=20_000, seed=0)]
    assert got == [
        (0.12229225558167155, 0.00028790750939039885, 0.12290235860627666),
        (0.18687240711140665, 0.00012573221956683914, 0.18700856645370859),
        (0.20920746059342782, 8.801598863014134e-05, 0.20918966779876952),
        (0.2134839234576182, 0.0001459029431750776, 0.21325141619793306)]


# (mc_value, mc_std_error, quad_value) per level at 150,000 samples, recorded
# before the Monte Carlo product was taken in chunks
RECORDED_150K = {
    ("golden", (0.5, 0.4), 4, 7): [
        (0.08929294281479985, 9.971894450573505e-05, 0.08920694669507646),
        (0.1453529335305596, 3.9509485790370594e-05, 0.1453716790155082),
        (0.164488494553958, 2.7778117534103653e-05, 0.16446828880225645),
        (0.1680710689790809, 4.6323320662091854e-05, 0.1680259913385564)],
    ("pell", (0.5, 0.4), 4, 7): [
        (0.09412569216432833, 0.00010425420848795345, 0.09419853301489173),
        (0.14417215125567542, 8.802426532933281e-05, 0.14419536312684925),
        (0.16386394131708223, 5.282529668031805e-05, 0.16379548364303959),
        (0.17008886646400653, 4.360152688083504e-05, 0.17004659659185967)],
    ("golden", (0.5, 0.5), 6, 3): [
        (0.12292782159659144, 0.00010575682155350237, 0.12290235860627652),
        (0.18703350840786379, 4.610732271725862e-05, 0.1870085664537085),
        (0.20916775865179257, 3.211762581543741e-05, 0.2091896677987695),
        (0.21767555906114772, 4.576066506102182e-05, 0.21766792905147464),
        (0.22427964792169738, 3.137858714603509e-05, 0.22422639480087303),
        (0.22510613165712945, 3.655358372073187e-05, 0.2250834906886715)],
}


@pytest.mark.parametrize("key", RECORDED_150K, ids=lambda k: f"{k[0]}-{k[2]}")
def test_verification_keeps_its_values_at_150k_samples(key):
    name, sides, depth, seed = key
    flow = GOLDEN_FLOW if name == "golden" else pell_winding()
    plan = build_adversarial_measure(flow, BoxSet(sides), depth)
    got = [(e.mc_value, e.mc_std_error, e.quad_value)
           for e in verify_non_almost_mixing(plan, n_samples=150_000, seed=seed)]
    assert got == RECORDED_150K[key]


# negative, integral, -0, tiny, and just below 1, where s + 1 rounds up to 2
EDGE_SHIFTS = [-3.75, -1.0, -0.0, 0.0, 1.0, 2.0, -1e-300, 0.5, -0.5,
               1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 1.0 - 1e-9, -(1.0 - 2.0 ** -53), 7.0 - 2.0 ** -50]


@pytest.mark.parametrize("sides", [(1.0, 1.0), (1e-9, 0.5), (0.5, 0.4), (0.5, 0.3, 0.7)])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 150_000])
def test_chunked_overlap_product_is_the_full_length_expression(sides, n):
    """The Monte Carlo's chunk kernel against the one-pass expression it
    replaced, bit for bit: random shifts, and every edge shift taken as is
    (eta 0 or -0) at the start and around the first chunk's end."""
    gen = np.random.default_rng(n)
    d = len(sides)
    edges = np.array(EDGE_SHIFTS)
    base = np.concatenate([np.tile(edges, (d, 1)), gen.uniform(-5.0, 5.0, (d, 40))], axis=1)
    alpha = np.array([1.0, 0.6180339887498949, -2.5][:d])
    leaf = gen.integers(0, base.shape[1], n)
    eta = gen.uniform(-1.0, 1.0, n) * gen.choice([1e-12, 1e-3, 3.0], n)
    at = np.flatnonzero((np.arange(n) < len(edges)) | (abs(np.arange(n) - CHUNK) < len(edges)))
    leaf[at] = at % len(edges)
    eta[at] = np.where(at % 2, -0.0, 0.0)
    want = box_overlap(sides, sides, [b[leaf] + eta * al for b, al in zip(base, alpha)])
    got = adversary._leaf_overlaps(sides, base, alpha, leaf, eta)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_level_quadrature_matches_fine_grid():
    plan = build_adversarial_measure(GOLDEN_FLOW, BoxSet((0.4, 0.6)), 4)
    sides = np.asarray(plan.box.sides)[:, None, None]
    eta = np.linspace(-1.0, 1.0, 200_001)
    for lev in plan.levels:
        base, alpha, amp = adversary._leaf_bases(plan, lev.scale)
        shift = base[:, :, None] + eta * (amp * alpha)[:, None, None]
        corr = np.prod(arc_overlap(sides, sides, shift), axis=0)
        # trapezoid rule at step 1e-5, averaged over eta and the leaves
        ref = np.mean(corr.sum(axis=1) - 0.5 * (corr[:, 0] + corr[:, -1])) / (len(eta) - 1)
        got = adversary._quadrature_level_value(plan.box, base, alpha, amp)
        assert got == pytest.approx(ref, rel=0, abs=1e-9)


def test_verification_gap_over_mixing_value():
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 3)
    estimates = verify_non_almost_mixing(plan, n_samples=50_000, seed=19)
    for e in estimates:
        gap = e.mc_value - e.mixing_value
        assert gap >= 3.0 / 16.0 - 1.0 / e.level - 3.0 * e.mc_std_error


def test_conditional_estimate_agrees_with_point_sampling():
    # the indicator estimator verify used to run: the same leaf and eta
    # draws, plus a uniform point x tested for x in A and x + shift in A
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 4)
    n, seed = 100_000, 18
    sides = np.asarray(HALF_BOX.sides)
    for lev_idx, e in enumerate(verify_non_almost_mixing(plan, n_samples=n, seed=seed)):
        base, alpha, amp = adversary._leaf_bases(plan, e.scale)
        leaf = rng.generator(seed, rng.LEAF_CHOICE, lev_idx).integers(0, base.shape[1], size=n)
        eta = rng.generator(seed, rng.LEAF_OFFSET, lev_idx).uniform(-1.0, 1.0, size=n)
        x = rng.generator(seed, rng.OUTER_POINTS, lev_idx).random((n, 2))
        y = np.mod(x + base[:, leaf].T + np.outer(eta * amp, alpha), 1.0)
        hits = (np.all(x < sides, axis=1) & np.all(y < sides, axis=1)).astype(float)
        point_value, point_error = hits.mean(), hits.std() / np.sqrt(n)
        assert abs(e.mc_value - point_value) <= 3.0 * np.hypot(e.mc_std_error, point_error)
        assert 4.0 * e.mc_std_error <= point_error


@pytest.mark.parametrize("flow", [GOLDEN_FLOW, pell_winding()], ids=["golden", "pell"])
def test_conditional_estimate_is_calibrated_against_quadrature(flow):
    plan = build_adversarial_measure(flow, HALF_BOX, 4)
    z = [(e.mc_value - e.quad_value) / e.mc_std_error
         for seed in range(20)
         for e in verify_non_almost_mixing(plan, n_samples=20_000, seed=seed)]
    assert len(z) == 80
    assert abs(sum(z) / np.sqrt(len(z))) <= 4.0
    assert max(map(abs, z)) <= 5.0


def test_verification_keeps_the_leaf_and_offset_streams():
    # recorded before verify stopped drawing points: the mean of the exact
    # overlap product over the same (leaf, eta) draws, which is now the
    # estimate itself
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 4)
    estimates = verify_non_almost_mixing(plan, n_samples=20_000, seed=7)
    assert [e.mc_value for e in estimates] == [
        0.12333909302436018, 0.18710142401927207, 0.20922573628048566, 0.21301665751537793]
