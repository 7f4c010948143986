from fractions import Fraction

import numpy as np
import pytest

from homavg import (AdversaryPlan, BoxSet, arc_correlation,
                    build_adversarial_measure, choose_multiplier,
                    golden_winding, lattice_distance, pell_winding,
                    periodic_winding, rigidity_times,
                    verify_non_almost_mixing)
from homavg.adversary import MULTIPLIER_CAP, correlation_deviation

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


def test_plan_on_pell_winding():
    plan = build_adversarial_measure(pell_winding(), HALF_BOX, 2)
    assert plan.failure_level is None
    plan.check_invariants()


# -- verification ----------------------------------------------------------------------

def test_zero_level_plan_gives_empty_report():
    plan = AdversaryPlan(GOLDEN_FLOW, HALF_BOX, 0, ())
    assert verify_non_almost_mixing(plan) == []


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
        # sampled-mass rigidity: nearly all weight mass moves A by < 2/n
        assert e.rigid_fraction >= 1.0 - 2.0 ** (-n)
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


def test_verification_gap_over_mixing_value():
    plan = build_adversarial_measure(GOLDEN_FLOW, HALF_BOX, 3)
    estimates = verify_non_almost_mixing(plan, n_samples=50_000, seed=19)
    for e in estimates:
        gap = e.mc_value - e.mixing_value
        assert gap >= 3.0 / 16.0 - 1.0 / e.level - 3.0 * e.mc_std_error
