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
from functools import cached_property
from math import ceil, isqrt

import numpy as np

from . import rng
from .flows import (BoxSet, TorusWinding, _exact_distance, _exact_shifts,
                    arc_correlation_exact, box_overlap, overlap_kernel, rigidity_times)
from .measures import NestedIntervals
from .quadrature import CHUNK, kink_integral

MULTIPLIER_CAP = 1 << 30     # m at multiples of a rational (or float) slope's denominator
_DELTA_SAFETY = Fraction((1 << 20) - 1, 1 << 20)


def _multiplier(flow: TorusWinding, time: int) -> int:
    """floor(1 / sqrt(dist(time * slope, Z))), or MULTIPLIER_CAP when the
    distance is exactly 0 (a multiple of a rational slope's denominator).
    For dist = num / den that floor is m = isqrt(den // num): m^2 <= den // num
    gives m^2 * num <= den, and (m + 1)^2 >= den // num + 1 > den / num."""
    num, den = _exact_distance(flow, time)
    return MULTIPLIER_CAP if num == 0 else isqrt(den // num)


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
    of exactly zero (a rational slope, past its denominator) caps m at 2**30.
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
        """The uniform nested-interval weight carried by the plan, built once."""
        return self._weight

    _weight = cached_property(lambda self: NestedIntervals([lev.intervals for lev in self.levels]))

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
                if not Fraction(p + 1) < m * b:
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
        # delta > 0: p > m a, p + 1 < m b, and the worst deviation, <= 0.5 / n, is below 1 / n
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
    """Pair average (A_{s(i_n)} chi_A, chi_A) at one level, two ways: a
    conditional Monte Carlo over (leaf, eta) of the exact set correlation
    mu(A intersect T_u A), with its standard error, and exact per-leaf
    quadrature.  ``target`` is mu(A) and ``mixing_value`` is mu(A)^2."""

    level: int
    scale: int
    mc_value: float
    mc_std_error: float
    quad_value: float
    target: float
    mixing_value: float


def _leaf_bases(plan: AdversaryPlan, scale_n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The exact shifts of T_{scale_n c}, one column per leaf center c of the plan's weight,
    the winding's alpha, and the float shift amplitude scale_n h for the leaves' half-width h."""
    centers, halves, _ = plan.measure()._exact       # the weight's intervals(), computed once
    (half,) = set(halves)
    base = np.array([_exact_shifts(plan.flow, scale_n * c.numerator, c.denominator)
                     for c in centers]).T
    return base, np.asarray(plan.flow.alpha), float(scale_n * half)


def verify_non_almost_mixing(plan: AdversaryPlan, n_samples: int = 100_000,
                             seed: int = 0) -> list[LevelEstimate]:
    """Estimate (A_{s(i_n)} chi_A, chi_A) per level against mu(A) and
    mu(A)^2.  All interval positions enter through exact integer/rational
    splits, so the huge scales of deep levels never touch float times.

    A weight point r = leaf center + eta * half-width shifts the torus by
    u = s(i_n) r, and the mean of chi_A(x) chi_A(x + u) over x is the exact
    product of coordinate overlaps.  So only the leaf and eta are drawn,
    and the estimate averages that product (Rao-Blackwell): no point x is
    drawn, and the error is that of the product alone."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not plan.levels:
        return []
    box = plan.box
    vol = box.volume
    out = []
    for lev_idx, lev in enumerate(plan.levels):
        base, alpha, amp = _leaf_bases(plan, lev.scale)
        leaf = rng.generator(seed, rng.LEAF_CHOICE, lev_idx).integers(
            0, base.shape[1], size=n_samples)
        eta = rng.generator(seed, rng.LEAF_OFFSET, lev_idx).uniform(
            -1.0, 1.0, size=n_samples)
        eta *= amp
        corr = _leaf_overlaps(box.sides, base, alpha, leaf, eta)
        mc = float(corr.mean())
        mc_err = float(corr.std() / np.sqrt(n_samples))
        quad = _quadrature_level_value(box, base, alpha, amp)
        out.append(LevelEstimate(lev.level, lev.scale, mc, mc_err, quad, vol, vol * vol))
    return out


def _leaf_overlaps(sides, base: np.ndarray, alpha: np.ndarray, leaf: np.ndarray,
                   eta: np.ndarray) -> np.ndarray:
    """box_overlap(sides, sides, [b[leaf] + eta * al for b, al in zip(base, alpha)]),
    taken CHUNK pairs at a time so that every pass over a chunk stays in cache."""
    corr = np.empty(leaf.size)
    for lo in range(0, leaf.size, CHUNK):
        shifts = base.take(leaf[lo:lo + CHUNK], axis=1)
        shifts += np.multiply.outer(alpha, eta[lo:lo + CHUNK])
        corr[lo:lo + CHUNK] = box_overlap(sides, sides, shifts)
    return corr


def _quadrature_level_value(box: BoxSet, base: np.ndarray, alpha: np.ndarray,
                            amp: float) -> float:
    """Exact average over leaves of E_eta prod_k overlap(a_k, base_k + eta
    * amp * alpha_k), eta uniform on [-1, 1], every leaf in one pass."""
    per_leaf = kink_integral(overlap_kernel(box.sides, base, amp * alpha, 1.0), (-1.0, 1.0),
                             lambda x: 0.5 + 0.0 * x, 0)
    return sum(per_leaf.tolist()) / base.shape[1]
