from fractions import Fraction

import numpy as np
import pytest

from homavg import (BoxSet, QuadraticIrrational, TorusWinding,
                    arc_correlation, arc_correlation_exact, golden_winding,
                    lattice_distance, pell_winding, periodic_winding,
                    rigidity_times)
from homavg.flows import GOLDEN, PELL, arc_overlap, box_overlap, wrap

HALF_BOX = BoxSet((0.5, 0.5))


def test_advance_identity_at_zero():
    w = golden_winding()
    x = np.array([0.3, 0.9])
    np.testing.assert_array_equal(w.advance(x, 0.0), x)


@pytest.mark.parametrize("alpha", [(1.0, np.nan), (1.0, -np.inf), (1.0, "0.3"),
                                   (1.0, True), (True, 0.5), (1.0, None)])
def test_winding_alpha_must_be_finite_reals(alpha):
    with pytest.raises(ValueError, match="finite real"):
        TorusWinding(alpha)


def test_winding_alpha_takes_any_finite_real():
    assert TorusWinding((1, np.float64(0.5), np.int64(2))).exact_slope == Fraction(1, 2)


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


def same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_wrap_is_np_mod_bit_for_bit_on_random_floats():
    rng = np.random.default_rng(33)
    bits = rng.integers(0, 1 << 64, size=1 << 20, dtype=np.uint64, endpoint=False).view(float)
    bits = bits[np.isfinite(bits)]       # both signs, every exponent
    scaled = rng.standard_normal(1 << 20) * 10.0 ** rng.uniform(-20, 20, 1 << 20)
    for x in (bits, scaled):
        assert same_bits(wrap(x), np.mod(x, 1.0))


def test_wrap_is_np_mod_bit_for_bit_on_edges():
    edges = np.array([0.0, -0.0, 1.0, -1.0, 7.0, -7.0, 0.5, -0.5, 2.0 ** 52, -2.0 ** 52,
                      2.0 ** 53, -2.0 ** 53, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53),
                      -2.0 ** -1074, 2.0 ** -1074, -1e-300, 1e300, -1e300])
    assert same_bits(wrap(edges), np.mod(edges, 1.0))
    assert wrap(-1e-300) == 1.0       # -1e-300 + 1 rounds to 1, as np.mod has it
    assert np.signbit(wrap(edges)).sum() == 0
    for x in edges:                   # a 0-d input gives the same numpy scalar
        got, want = wrap(x), np.mod(np.asarray(x), 1.0)
        assert type(got) is type(want) and same_bits(got, want)
    assert np.isnan(wrap(np.nan)) and np.isnan(np.mod(np.nan, 1.0))


@pytest.mark.parametrize("x", [np.inf, -np.inf])
def test_wrap_warns_as_np_mod_on_infinities(x):
    # the suite turns RuntimeWarning into an error
    for fn in (wrap, lambda v: np.mod(v, 1.0)):
        with pytest.raises(RuntimeWarning, match="invalid value"):
            fn(np.array([x]))
        with np.errstate(invalid="ignore"):
            assert np.isnan(fn(np.array([x]))).all()


def np_mod_arc_overlap(a, b, shift):
    """arc_overlap as it was through np.mod: the reference for its bits."""
    s = np.mod(np.asarray(shift, dtype=float), 1.0)
    first = np.maximum(0.0, np.minimum(np.minimum(s + b, 1.0), a) - s)
    wrapped = np.maximum(0.0, np.minimum(s + b - 1.0, a))
    return first + wrapped


def test_arc_overlap_keeps_the_np_mod_bits():
    rng = np.random.default_rng(5)
    shifts = np.concatenate((rng.uniform(-40.0, 40.0, 5000), [0.0, -0.0, 0.5, -0.5, 1.0, 3.0]))
    column = rng.uniform(0.05, 0.95, (7, 1))
    for a, b, s in [(0.5, 0.5, shifts), (0.3, 0.9, shifts), (column, 0.4, shifts),
                    (0.4, column, shifts[:50]), (column, column.T, 0.25),
                    (np.array([0.2, 0.5]), np.array([0.7, 0.5]), np.array(-2.3))]:
        got, want = arc_overlap(a, b, s), np_mod_arc_overlap(a, b, s)
        assert same_bits(got, want)
    shift = shifts.copy()
    arc_overlap(0.5, 0.5, shift)
    assert same_bits(shift, shifts)   # the caller's shifts are left as they were


@pytest.mark.parametrize("shift", [0.1, -0.7, np.float64(2.25), np.array(-0.0)])
def test_arc_overlap_of_a_0d_shift_is_a_numpy_scalar(shift):
    got, want = arc_overlap(0.5, 0.3, shift), np_mod_arc_overlap(0.5, 0.3, shift)
    assert type(got) is type(want) is np.float64
    assert same_bits(got, want)


@pytest.mark.parametrize("factor", [1.0, 0.25])
def test_box_overlap_is_the_per_coordinate_product(factor):
    rng = np.random.default_rng(11)
    shifts = rng.uniform(-3.0, 3.0, (3, 50))
    a_sides, b_sides = (0.5, 0.2, 0.9), (0.3, 0.7, 0.05)
    want = factor
    for a, b, s in zip(a_sides, b_sides, shifts):
        want = want * arc_overlap(a, b, s)
    assert np.array_equal(box_overlap(a_sides, b_sides, shifts, factor), want)
    single = box_overlap(a_sides[:1], b_sides[:1], [0.1], factor)
    assert single == factor * arc_overlap(0.5, 0.3, 0.1)


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


def test_float_slope_is_the_rational_it_stores():
    # 0.5 is the flow of periodic_winding(2), and one rule serves both
    w = TorusWinding((1.0, 0.5))
    assert rigidity_times(w, 4) == rigidity_times(periodic_winding(2), 4) == [2, 4, 6, 8]
    assert [lattice_distance(w, t) for t in (1, 2, 3)] == [0.5, 0.0, 0.5]
    assert w.slope_fraction_of(3) == 0.5 and w.slope_fraction_of(1, 4) == 0.125


def test_float_slope_extraction_matches_exact():
    w = TorusWinding((1.0, float(GOLDEN)))
    assert rigidity_times(w, 15) == rigidity_times(golden_winding(), 15)


def test_declared_rational_gains_its_convergents_before_its_denominator():
    # 2/5 = [0; 2, 2]: convergent denominators 2 and 5, then the multiples of 5
    w = TorusWinding((1.0, 0.4), Fraction(2, 5))
    assert rigidity_times(w, 4) == [2, 5, 10, 15]
    assert [lattice_distance(w, t) for t in (2, 5, 10)] == [0.2, 0.0, 0.0]


@pytest.mark.parametrize("w", [TorusWinding((1.0, 3.0)), TorusWinding((1.0, -2.0), Fraction(-2)),
                               periodic_winding(1)])
def test_integer_slope_times_are_every_integer(w):
    assert rigidity_times(w, 3) == [1, 2, 3]
    assert lattice_distance(w, 7) == 0.0


def float_continued_fraction(x: Fraction) -> list[int]:
    """Convergent denominators of x past the integer part, by 1 / frac in Fractions."""
    out, (qm1, q0), rem = [], (0, 1), x - (x.numerator // x.denominator)
    while rem:
        inv = 1 / rem
        digit = inv.numerator // inv.denominator
        rem = inv - digit
        qm1, q0 = q0, digit * q0 + qm1
        out.append(q0)
    return out


def test_float_golden_slope_keeps_golden_times_then_its_own():
    w, x = TorusWinding((1.0, float(GOLDEN))), Fraction(float(GOLDEN))
    times, golden = rigidity_times(w, 200), rigidity_times(golden_winding(), 38)
    assert times[:37] == golden[:37]
    assert (times[37], golden[37]) == (102_334_155, 63_245_986)
    own = float_continued_fraction(x)
    assert own[-1] == x.denominator == 1 << 49
    assert times[:len(own)] == own
    assert times[len(own):] == [k * x.denominator for k in range(2, 202 - len(own))]
    assert all(lattice_distance(w, t) == 0.0 for t in times[len(own) - 1:])


def test_float_golden_lattice_distance_is_the_float_slopes_exact_value():
    w, x = TorusWinding((1.0, float(GOLDEN))), Fraction(float(GOLDEN))
    times = rigidity_times(w, 40)
    for i in (36, 39, 40):
        frac = times[i - 1] * x % 1
        assert lattice_distance(w, times[i - 1]) == float(min(frac, 1 - frac)) > 0.0
    assert lattice_distance(w, times[38]) == pytest.approx(9.96e-10, rel=1e-3)
    assert lattice_distance(w, times[39]) == pytest.approx(1.92e-10, rel=1e-2)


def test_rigidity_times_need_a_second_coordinate():
    from homavg import circle_rotation
    with pytest.raises(ValueError, match="second coordinate"):
        rigidity_times(circle_rotation(), 3)


# -- exact quadratic irrationals ----------------------------------------------

def test_normalized_surd_matches_mpmath_oracle():
    """sqrt(2) / 3 = (0 + sqrt(2)) / 3 needs normalizing: 3 does not divide 2 - 0**2."""
    mp = pytest.importorskip("mpmath")
    surd = QuadraticIrrational(0, 2, 3)
    assert (surd.p, surd.d, surd.q) == (0, 18, 9)
    nums = [1, 2, -3, 7, 10 ** 6 + 1] + [q for _, q in surd.convergents(12)]
    with mp.workdps(50):
        value = mp.sqrt(2) / 3
        quotients, x = [], value
        for _ in range(20):
            quotients.append(int(mp.floor(x)))
            x = 1 / (x - mp.floor(x))
        fracs = [float(n * value - mp.floor(n * value)) for n in nums]
        dists = [float(abs(n * value - mp.nint(n * value))) for n in nums]
    assert surd.partial_quotients(20) == quotients
    for n, frac, dist in zip(nums, fracs, dists):
        assert surd.frac_multiple(n) == pytest.approx(frac, rel=1e-14, abs=1e-15)
        assert surd.lattice_distance(n) == pytest.approx(dist, rel=1e-14)
        flow = TorusWinding((1.0, float(surd)), surd)
        assert lattice_distance(flow, n) == surd.lattice_distance(n)


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


def test_lattice_distance_of_a_fraction_slope_is_exact():
    # 5 / 3 lies 1 / 3 from the nearest integer
    assert lattice_distance(periodic_winding(3), 5) == 1 / 3
    assert lattice_distance(periodic_winding(3), 6) == 0.0


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
