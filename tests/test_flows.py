import numpy as np
import pytest

from homavg import (BoxSet, QuadraticIrrational, TorusWinding,
                    arc_correlation, arc_correlation_exact, golden_winding,
                    lattice_distance, pell_winding, periodic_winding,
                    rigidity_times)
from homavg.flows import GOLDEN, PELL

HALF_BOX = BoxSet((0.5, 0.5))


def test_advance_identity_at_zero():
    w = golden_winding()
    x = np.array([0.3, 0.9])
    np.testing.assert_array_equal(w.advance(x, 0.0), x)


def test_advance_group_law():
    w = golden_winding()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.random(2)
        s, t = rng.uniform(-50, 50, size=2)
        lhs = w.advance(w.advance(x, s), t)
        rhs = w.advance(x, s + t)
        diff = np.abs(lhs - rhs)
        np.testing.assert_array_less(np.minimum(diff, 1.0 - diff), 1e-12)


def test_golden_unit_time_image():
    w = golden_winding()
    out = w.advance(np.array([0.0, 0.0]), 1.0)
    assert out[0] == pytest.approx(0.0, abs=1e-15)
    assert out[1] == pytest.approx(0.6180339887498949, abs=1e-12)


# -- arc correlations -----------------------------------------------------------

def test_correlation_at_zero_is_volume():
    w = golden_winding()
    assert arc_correlation(w, HALF_BOX, HALF_BOX, 0.0) == pytest.approx(0.25)


def test_disjoint_arcs_on_circle():
    from homavg import circle_rotation
    w = circle_rotation()
    a = BoxSet((0.5,))
    assert arc_correlation(w, a, a, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_fibonacci_correlation_approaches_volume():
    # Monte Carlo overlap oracle at the rigidity time q_10 = 89.
    w = golden_winding()
    t = 89.0
    corr = arc_correlation(w, HALF_BOX, HALF_BOX, t)
    rng = np.random.default_rng(1)
    pts = rng.random((10 ** 6, 2))
    inside = np.all(pts < 0.5, axis=1)
    moved = np.mod(pts + t * np.asarray(w.alpha), 1.0)
    both = inside & np.all(moved < 0.5, axis=1)
    assert corr == pytest.approx(both.mean(), abs=3e-3)
    # the sequence of correlations at rigidity times climbs to mu(A) = 1/4
    values = [arc_correlation(w, HALF_BOX, HALF_BOX, float(q))
              for q in rigidity_times(w, 10)]
    assert values[-1] == pytest.approx(0.25, abs=0.01)
    assert abs(values[-1] - 0.25) < abs(values[0] - 0.25)


def test_measure_preservation_monte_carlo():
    w = pell_winding()
    rng = np.random.default_rng(2)
    n = 200_000
    for _ in range(3):
        box = BoxSet(tuple(rng.uniform(0.2, 0.8, size=2)))
        t = rng.uniform(0, 500)
        pts = np.mod(rng.random((n, 2)) + t * np.asarray(w.alpha), 1.0)
        est = np.all(pts < np.asarray(box.sides), axis=1).mean()
        assert abs(est - box.volume) < 3.0 / np.sqrt(n)


def test_exact_correlation_matches_float_path():
    w = golden_winding()
    for t in (5, 89, 10946):
        assert arc_correlation_exact(w, HALF_BOX, HALF_BOX, t) == pytest.approx(
            arc_correlation(w, HALF_BOX, HALF_BOX, float(t)), abs=1e-9)


def test_correlation_matches_monte_carlo_on_random_instances():
    w = golden_winding()
    rng = np.random.default_rng(5)
    n = 300_000
    pts = rng.random((n, 2))
    for _ in range(4):
        a = BoxSet(tuple(rng.uniform(0.2, 0.9, size=2)))
        b = BoxSet(tuple(rng.uniform(0.2, 0.9, size=2)))
        t = float(rng.uniform(0.0, 300.0))
        exact = arc_correlation(w, a, b, t)
        # x lies in T_t B exactly when x - t alpha lies in B
        pulled = np.mod(pts - t * np.asarray(w.alpha), 1.0)
        hits = (np.all(pts < np.asarray(a.sides), axis=1)
                & np.all(pulled < np.asarray(b.sides), axis=1))
        assert abs(exact - hits.mean()) < 3.0 * hits.std() / np.sqrt(n)


# -- rigidity times ---------------------------------------------------------------

def test_rigidity_times_golden_are_fibonacci():
    assert rigidity_times(golden_winding(), 7) == [1, 2, 3, 5, 8, 13, 21]


def test_rigidity_times_pell_recurrence():
    # Pell oracle: q_{k+1} = 2 q_k + q_{k-1}
    times = rigidity_times(pell_winding(), 8)
    assert times[:5] == [2, 5, 12, 29, 70]
    for a, b, c in zip(times, times[1:], times[2:]):
        assert c == 2 * b + a


def test_rigidity_distances_decrease_with_convergent_bound():
    for w in (golden_winding(), pell_winding()):
        times = rigidity_times(w, 12)
        dists = [lattice_distance(w, q) for q in times]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        for k in range(11):
            assert dists[k] < 1.0 / times[k + 1]


def test_rigidity_times_synthetic_period():
    assert rigidity_times(periodic_winding(2), 4) == [2, 4, 6, 8]


def test_rational_float_slope_rejected():
    w = TorusWinding((1.0, 0.5))
    with pytest.raises(ValueError):
        rigidity_times(w, 3)


def test_float_slope_extraction_matches_exact():
    w = TorusWinding((1.0, float(GOLDEN)))
    assert rigidity_times(w, 15) == rigidity_times(golden_winding(), 15)


def test_float_slope_depth_refusal():
    w = TorusWinding((1.0, float(GOLDEN)))
    with pytest.raises(ValueError, match="2\\*\\*52"):
        rigidity_times(w, 500)


# -- exact quadratic irrationals ----------------------------------------------

def test_partial_quotients():
    assert GOLDEN.partial_quotients(6) == [0, 1, 1, 1, 1, 1]
    assert PELL.partial_quotients(5) == [0, 2, 2, 2, 2]
    root3 = QuadraticIrrational(0, 3, 1)
    assert root3.partial_quotients(6) == [1, 1, 2, 1, 2, 1]


def test_lattice_distance_matches_float_at_small_times():
    for q in (1, 2, 3, 5, 8, 13, 89):
        exact = GOLDEN.lattice_distance(q)
        naive = abs(q * float(GOLDEN) - round(q * float(GOLDEN)))
        assert exact == pytest.approx(naive, abs=1e-9)


@pytest.mark.parametrize("surd", [QuadraticIrrational(1, 7, 3), GOLDEN])
@pytest.mark.parametrize("num", [-5, -1, 1, 5])
def test_negative_operands_match_mpmath_oracle(surd, num):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        x = num * (surd.p + mp.sqrt(surd.d)) / surd.q
        frac = float(x - mp.floor(x))
        dist = float(abs(x - mp.nint(x)))
    assert surd.frac_multiple(num) == pytest.approx(frac, abs=1e-15)
    assert surd.lattice_distance(num) == pytest.approx(dist, abs=1e-15)
    assert surd.lattice_distance(num) == surd.lattice_distance(-num)


def test_lattice_distance_huge_argument_consistency():
    # The fixed-point path must stay consistent with convergent theory:
    # dist(q_k slope) = 1 / (q_{k+1} + q_k * slope') decays geometrically.
    qs = [q for _, q in GOLDEN.convergents(120)]
    d_100 = GOLDEN.lattice_distance(qs[99])
    d_101 = GOLDEN.lattice_distance(qs[100])
    golden_val = float(GOLDEN)
    assert d_101 / d_100 == pytest.approx(golden_val, rel=1e-6)


def test_symmetric_difference_rigidity_realized():
    # mu(A symdiff T_{q_i} A) = 2 (mu(A) - corr(q_i)); nonincreasing along
    # the preset and below 0.02 by i = 10.
    w = golden_winding()
    times = rigidity_times(w, 10)
    sym = [2.0 * (0.25 - arc_correlation(w, HALF_BOX, HALF_BOX, float(q)))
           for q in times]
    assert all(a >= b - 1e-12 for a, b in zip(sym, sym[1:]))
    assert sym[-1] < 0.02


def test_box_validation():
    with pytest.raises(ValueError):
        BoxSet((0.5, 1.0))
    with pytest.raises(ValueError):
        BoxSet(())
