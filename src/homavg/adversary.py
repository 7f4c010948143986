"""Rigidity-adapted Cantor-tree weights that defeat homothetic averaging.

For a winding with rigidity times t(1) < t(2) < ... (convergent
denominators of the slope) and a box set A, the construction nests closed
intervals inside [0, 1]: each level-(n-1) interval [a, b] receives two
children centered on consecutive multiples p*t(i_n) and (p+1)*t(i_n) of a
rigidity time, rescaled by s(i_n) = m(i_n) * t(i_n).  Radii are chosen so
that the set correlation mu(A intersect T_u A) stays within 1/n of mu(A)
for every u in the rescaled child.  The uniform measure on the resulting
tree then keeps the pair average (A_{s(i_n)} chi_A, chi_A) near mu(A),
far above the mixing level mu(A)^2, at the unbounded scale sequence s(i_n).

Scales grow triple-exponentially in the level, so every piece of interval
bookkeeping is exact: integer times and multipliers at arbitrary
magnitude, Fraction endpoints, and lattice distances from the one
fixed-point routine of ``flows.QuadraticIrrational``, whose error stays
below dist**2 at any magnitude, so the multiplier floor(1 / sqrt(dist)) is
exact even where 1 / sqrt(dist) sits within sqrt(dist) of an integer.
Shifts and correlations are the exact ones of ``flows``.  Nothing here
ever rounds an interval endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isqrt

import numpy as np

from . import rng
from .flows import (BoxSet, QuadraticIrrational, TorusWinding, _exact_shifts,
                    arc_correlation_exact, arc_overlap, rigidity_times)
from .measures import NestedIntervals

MULTIPLIER_CAP = 1 << 30     # only reachable for an exactly periodic (Fraction) slope
_DELTA_SAFETY = Fraction((1 << 20) - 1, 1 << 20)


def _exact_distance(flow: TorusWinding, time: int) -> tuple[int, int]:
    """dist(time * slope, Z) as an exact(ly bounded) integer pair num/den."""
    if isinstance(flow.slope, QuadraticIrrational):
        return flow.slope._dist_fixed(int(time))
    if isinstance(flow.slope, Fraction):
        frac = Fraction(int(time)) * flow.slope
        frac -= frac.numerator // frac.denominator
        dist = min(frac, 1 - frac)
        return dist.numerator, dist.denominator
    raise ValueError("adversary construction needs a winding with an exact slope")


def _floor_inv_sqrt(num: int, den: int) -> int:
    """max { m >= 0 : m^2 * num <= den }, i.e. floor(sqrt(den / num))."""
    m = isqrt(den // num)
    while (m + 1) * (m + 1) * num <= den:
        m += 1
    while m > 0 and m * m * num > den:
        m -= 1
    return m


def _multiplier(flow: TorusWinding, time: int) -> int:
    """floor(1 / sqrt(dist(time * slope, Z))), or MULTIPLIER_CAP when the
    distance is exactly 0 (only an exactly periodic Fraction slope)."""
    num, den = _exact_distance(flow, time)
    return MULTIPLIER_CAP if num == 0 else _floor_inv_sqrt(num, den)


def correlation_deviation(flow: TorusWinding, box: BoxSet, time: int,
                          den: int = 1) -> float:
    """|mu(A intersect T_{time/den} A) - mu(A)| via exact shifts."""
    return abs(arc_correlation_exact(flow, box, box, int(time), den) - box.volume)


def _lipschitz(flow: TorusWinding) -> float:
    """Upper bound on the |d corr / d t| slope used for radius certificates."""
    return 1.0 + float(np.sum(np.abs(flow.alpha)))


def choose_multiplier(flow: TorusWinding, box: BoxSet, i: int) -> int:
    """Largest m with m * dist(t(i) * slope) <= sqrt(dist(t(i) * slope)).

    Guarantees mu(A symdiff T_{k t(i)} A) <= 2 (1 + |alpha|_1) sqrt(dist)
    for every k <= m, while m grows without bound along i.  A displacement
    of exactly zero (synthetically periodic windings) caps m at 2**30.
    """
    if i < 1:
        raise ValueError("rigidity index starts at 1")
    return _multiplier(flow, rigidity_times(flow, i)[i - 1])


@dataclass(frozen=True)
class LevelRecord:
    """One level of the construction: the common rigidity index i_n, its
    time, multiplier and scale, the certified radius, and the 2**n closed
    intervals (children ordered under their parents, two per parent with
    left centers p * t / s and right centers (p + 1) * t / s)."""

    level: int
    index: int
    time: int
    multiplier: int
    scale: int
    delta: Fraction
    p_values: tuple[int, ...]
    intervals: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class AdversaryPlan:
    flow: TorusWinding
    box: BoxSet
    requested_depth: int
    levels: tuple[LevelRecord, ...]
    failure_level: int | None = None
    failure_reason: str = ""

    @property
    def depth(self) -> int:
        return len(self.levels)

    def measure(self) -> NestedIntervals:
        """The uniform nested-interval weight carried by the plan."""
        return NestedIntervals([lev.intervals for lev in self.levels])

    def check_invariants(self) -> None:
        """Re-verify nesting/disjointness/mass structure and the midpoint
        correlation contract |corr(s(i_n) * midpoint) - mu(A)| < 1/n."""
        self.measure()  # NestedIntervals validates the tree geometry
        for lev in self.levels:
            if lev.scale != lev.multiplier * lev.time:
                raise AssertionError("scale must equal multiplier * time exactly")
            if len(lev.intervals) != 2 ** lev.level:
                raise AssertionError("level must carry 2**n intervals")
            for j, (a, b) in enumerate(lev.intervals):
                p = lev.p_values[j // 2] + (j % 2)
                center = Fraction(p, lev.multiplier)
                if (a + b) / 2 != center:
                    raise AssertionError("interval centers must be p * t / s")
                dev = correlation_deviation(self.flow, self.box, p * lev.time)
                if not dev < 1.0 / lev.level:
                    raise AssertionError(
                        f"midpoint correlation off by {dev} >= 1/{lev.level}")

    def scales(self) -> list[int]:
        return [lev.scale for lev in self.levels]


def build_adversarial_measure(flow: TorusWinding, box: BoxSet, depth: int,
                              max_index: int = 2000) -> AdversaryPlan:
    """Construct the nested-interval weight level by level.

    Per level n the smallest rigidity index is selected whose scale fits
    two consecutive center multiples with certified radii inside every
    level-(n-1) interval; if no index up to ``max_index`` works, the plan
    is returned partial with ``failure_level`` set.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if flow.dimension != 2:
        raise ValueError("the construction is built on d = 2 windings")
    if len(box.sides) != 2:
        raise ValueError("box dimension must match the winding")
    lip_up = Fraction(ceil(_lipschitz(flow) * (1 << 40)) + 1, 1 << 40)
    times = rigidity_times(flow, 64)
    parents: tuple[tuple[Fraction, Fraction], ...] = ((Fraction(0), Fraction(1)),)
    levels: list[LevelRecord] = []

    for n in range(1, depth + 1):
        selected = None
        for i in range(1, max_index + 1):
            while i > len(times):
                times = rigidity_times(flow, min(2 * len(times), max_index))
            t = times[i - 1]
            m = _multiplier(flow, t)
            if m < 3:
                continue
            if any(m * (b - a) < 2 for a, b in parents):
                continue
            ps, devs, feasible = [], [], True
            for a, b in parents:
                p = max(1, ceil(m * a))
                if Fraction(p) == m * a:
                    p += 1
                if not (p + 1 < m and Fraction(p + 1) < m * b):
                    feasible = False
                    break
                dev_pair = (correlation_deviation(flow, box, p * t),
                            correlation_deviation(flow, box, (p + 1) * t))
                if max(dev_pair) > 0.5 / n:
                    feasible = False
                    break
                ps.append(p)
                devs.append(max(dev_pair))
            if feasible:
                selected = (i, t, m, tuple(ps), max(devs))
                break
        if selected is None:
            return AdversaryPlan(
                flow, box, depth, tuple(levels), failure_level=n,
                failure_reason=(f"no rigidity index up to {max_index} fits "
                                f"level {n}"))
        i, t, m, ps, worst_dev = selected
        s = m * t
        dev_up = Fraction(worst_dev) + Fraction(1, 1 << 60)
        delta = (Fraction(1, n) - dev_up) / lip_up
        delta = min(delta, Fraction(t) * Fraction(49, 100))
        for (a, b), p in zip(parents, ps):
            delta = min(delta,
                        (Fraction(p * t) - s * a) * _DELTA_SAFETY,
                        (s * b - Fraction((p + 1) * t)) * _DELTA_SAFETY)
        if delta <= 0:
            return AdversaryPlan(
                flow, box, depth, tuple(levels), failure_level=n,
                failure_reason="no positive certified radius at this level")
        children = []
        for p in ps:
            for k in (p, p + 1):
                center = Fraction(k * t, s)
                children.append((center - delta / s, center + delta / s))
        record = LevelRecord(n, i, t, m, s, delta, ps, tuple(children))
        levels.append(record)
        parents = record.intervals

    plan = AdversaryPlan(flow, box, depth, tuple(levels))
    plan.check_invariants()
    return plan


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelEstimate:
    """Pair average (A_{s(i_n)} chi_A, chi_A) at one level, two ways:
    Monte Carlo over (r, x) and exact per-leaf quadrature.  ``target`` is
    mu(A), ``mixing_value`` is mu(A)^2, and ``rigid_fraction`` is the share
    of sampled weight mass whose translate differs from A by less than 2/n
    in measure."""

    level: int
    scale: int
    mc_value: float
    mc_std_error: float
    quad_value: float
    target: float
    mixing_value: float
    rigid_fraction: float


def _leaf_bases(plan: AdversaryPlan, scale_n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact per-leaf shift bases of T_{scale_n * leaf center} plus the
    float shift amplitude contributed by the leaf half-width."""
    last = plan.levels[-1]
    ks = [p + r for p in last.p_values for r in (0, 1)]
    base = np.empty((2, len(ks)))
    for j, k in enumerate(ks):
        num = scale_n * k
        base[:, j] = _exact_shifts(plan.flow, num, last.multiplier)
    amp = float(Fraction(scale_n) * last.delta / last.scale)
    return base, np.asarray(plan.flow.alpha), amp


def verify_non_almost_mixing(plan: AdversaryPlan, n_samples: int = 100_000,
                             seed: int = 0) -> list[LevelEstimate]:
    """Estimate (A_{s(i_n)} chi_A, chi_A) per level against mu(A) and
    mu(A)^2.  All interval positions enter through exact integer/rational
    splits, so the huge scales of deep levels never touch float times."""
    if not plan.levels:
        return []
    box = plan.box
    vol = box.volume
    sides = np.asarray(box.sides)
    out = []
    for lev_idx, lev in enumerate(plan.levels):
        n = lev.level
        base, alpha, amp = _leaf_bases(plan, lev.scale)
        n_leaves = base.shape[1]

        leaf = rng.generator(seed, rng.LEAF_CHOICE, lev_idx).integers(
            0, n_leaves, size=n_samples)
        eta = rng.generator(seed, rng.LEAF_OFFSET, lev_idx).uniform(
            -1.0, 1.0, size=n_samples)
        x = rng.generator(seed, rng.OUTER_POINTS, lev_idx).random(
            (n_samples, 2))
        shift = np.mod(base[:, leaf].T + np.outer(eta * amp, alpha), 1.0)
        y = np.mod(x + shift, 1.0)
        prod = (np.all(x < sides, axis=1) & np.all(y < sides, axis=1)).astype(float)
        mc = float(prod.mean())
        mc_err = float(prod.std() / np.sqrt(n_samples))

        corr_samples = np.ones(n_samples)
        for c in range(2):
            corr_samples *= arc_overlap(sides[c], sides[c], shift[:, c])
        rigid = float(np.mean(2.0 * (vol - corr_samples) < 2.0 / n + 1e-12))

        quad = _quadrature_level_value(box, base, alpha, amp)
        out.append(LevelEstimate(n, lev.scale, mc, mc_err, quad, vol,
                                 vol * vol, rigid))
    return out


def _quadrature_level_value(box: BoxSet, base: np.ndarray, alpha: np.ndarray,
                            amp: float) -> float:
    """Exact average over leaves of E_eta prod_k overlap(a_k, base_k + eta
    * amp * alpha_k); the integrand is piecewise quadratic in eta with
    kinks where a coordinate shift crosses an overlap breakpoint."""
    total = 0.0
    n_leaves = base.shape[1]
    offs = amp * alpha
    for j in range(n_leaves):
        cuts = {-1.0, 1.0}
        for c in range(2):
            for target_base in (0.0, box.sides[c], 1.0 - box.sides[c], 1.0):
                for wrap in (-1.0, 0.0, 1.0):
                    # |gap| < |offs| is -1 < eta < 1 without overflowing
                    # gap / offs at deep levels, where offs is tiny
                    gap = target_base + wrap - base[c, j]
                    if abs(gap) < abs(offs[c]):
                        cuts.add(float(gap / offs[c]))

        def corr(e):
            val = np.ones_like(np.asarray(e, dtype=float))
            for c in range(2):
                val = val * arc_overlap(box.sides[c], box.sides[c],
                                        (base[c, j] + np.asarray(e) * offs[c]) % 1.0)
            return val

        pts = np.array(sorted(cuts))
        mids = 0.5 * (pts[:-1] + pts[1:])
        seg = (pts[1:] - pts[:-1]) / 6.0 * (
            corr(pts[:-1]) + 4.0 * corr(mids) + corr(pts[1:]))
        total += float(np.sum(seg)) / 2.0
    return total / n_leaves
