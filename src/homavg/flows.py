"""Torus windings: linear flows x -> x + t*alpha (mod 1) on the d-torus.

Box sets have exact arc-overlap correlations, and every winding of
dimension >= 2 exposes exact continued-fraction rigidity times through
integer-only arithmetic on its exact slope: a quadratic irrational or a
rational (a float slope is the dyadic rational it stores).  A surd is
tracked symbolically, and every multiple num * slope comes from one
fixed-point integer square root whose precision grows with num
(``QuadraticIrrational._fixed``): the error of dist(num * slope, Z) stays
far below dist**2 at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, isqrt
from numbers import Real

import numpy as np

from .quadrature import Kinked


@dataclass(frozen=True)
class QuadraticIrrational:
    """The number (p + sqrt(d)) / q with integer p, q and non-square d > 0.

    Partial quotients come from the classical integer recurrence.
    ``__float__``, ``frac_multiple`` and ``lattice_distance`` are views of
    one fixed-point routine, ``_fixed``, exact to below 2**-128 / num**2
    for integers num of any size and sign.
    """

    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.q <= 0 or self.d <= 0:
            raise ValueError("need q > 0, d > 0")
        if isqrt(self.d) ** 2 == self.d:
            raise ValueError("d must not be a perfect square")
        if (self.d - self.p * self.p) % self.q != 0:
            # standard normalization so the CF recurrence stays integral
            object.__setattr__(self, "p", self.p * self.q)
            object.__setattr__(self, "d", self.d * self.q * self.q)
            object.__setattr__(self, "q", self.q * self.q)

    def _fixed(self, num: int, den: int = 1) -> tuple[int, int]:
        """num * value / den as the integer pair (total, modulus).

        The fixed point carries 2 * bitlen(num) + 128 fraction bits, so the
        absolute error stays below 2**-128 / num**2.  Bounded partial
        quotients keep dist(num * value, Z) >= c / num for a constant c of
        the surd, so the error stays far below dist**2, which is what an
        exact floor of 1 / sqrt(dist) needs.
        """
        if den < 1:
            raise ValueError("need den >= 1")
        bits = 2 * num.bit_length() + 128
        root = isqrt(self.d * num * num << 2 * bits)
        total = (num * self.p << bits) + (root if num >= 0 else -root)
        return total, self.q * den << bits

    def __float__(self):
        total, modulus = self._fixed(1)
        return total / modulus

    def partial_quotients(self, count: int) -> list[int]:
        out = []
        p, q = self.p, self.q
        s = isqrt(self.d)
        for _ in range(count):
            a = (p + s) // q
            out.append(a)
            p = a * q - p
            q = (self.d - p * p) // q
        return out

    def convergents(self, count: int) -> list[tuple[int, int]]:
        """(numerator, denominator) pairs of the first ``count`` convergents
        past the integer part, i.e. (p_1, q_1), (p_2, q_2), ..."""
        quots = self.partial_quotients(count + 1)
        pm1, qm1 = 1, 0
        p0, q0 = quots[0], 1
        out = []
        for a in quots[1:]:
            p1, q1 = a * p0 + pm1, a * q0 + qm1
            out.append((p1, q1))
            pm1, qm1, p0, q0 = p0, q0, p1, q1
        return out

    def frac_multiple(self, num: int, den: int = 1) -> float:
        """Fractional part of num * value / den (any sign of num, den >= 1)."""
        total, modulus = self._fixed(num, den)
        return total % modulus / modulus

    def lattice_distance(self, num: int, den: int = 1) -> float:
        """Distance from num * value / den to the nearest integer, computed
        on the integer side so that distances far below float resolution
        of the fractional part (near 0 or near 1) survive."""
        dist, modulus = self._dist_fixed(num, den)
        return dist / modulus

    def _dist_fixed(self, num: int, den: int = 1) -> tuple[int, int]:
        """(dist, modulus): the lattice distance of num * value / den as
        the integer pair dist / modulus, to the precision of ``_fixed``."""
        total, modulus = self._fixed(num, den)
        rem = total % modulus
        return min(rem, modulus - rem), modulus


GOLDEN = QuadraticIrrational(-1, 5, 2)    # (sqrt(5) - 1) / 2
PELL = QuadraticIrrational(-1, 2, 1)      # sqrt(2) - 1


@dataclass(frozen=True)
class TorusWinding:
    """Flow T_t x = x + t * alpha (mod 1) with time-normalized alpha[0] = 1.

    ``slope`` optionally carries the exact value of alpha[1] (a quadratic
    irrational, or a Fraction for synthetically periodic test flows); the
    float vector drives generic dynamics while the exact slope drives the
    rigidity machinery.  Without it the exact slope is the dyadic rational
    that the float alpha[1] stores (``exact_slope``).
    """

    alpha: tuple[float, ...]
    slope: QuadraticIrrational | Fraction | None = None
    name: str = ""

    def __post_init__(self):
        if not all(isinstance(v, Real) and not isinstance(v, bool) and isfinite(v)
                   for v in self.alpha):
            raise ValueError(f"alpha entries must be finite real numbers, got {self.alpha!r}")
        if len(self.alpha) < 1 or self.alpha[0] != 1.0:
            raise ValueError("alpha must start with the normalized component 1")
        if self.slope is not None and len(self.alpha) < 2:
            raise ValueError("an exact slope needs dimension >= 2")

    @property
    def dimension(self) -> int:
        return len(self.alpha)

    def advance(self, x, t):
        """T_t x, vectorized over points (last axis = coordinates)."""
        a = np.asarray(self.alpha)
        return wrap(np.asarray(x, dtype=float) + np.multiply.outer(np.asarray(t, dtype=float), a))

    @property
    def exact_slope(self) -> QuadraticIrrational | Fraction:
        """alpha[1] exactly: the declared surd or Fraction, else Fraction(alpha[1]),
        the dyadic rational its float stores."""
        if self.dimension < 2:
            raise ValueError("rigidity times need a second coordinate")
        return Fraction(self.alpha[1]) if self.slope is None else self.slope

    def slope_fraction_of(self, num: int, den: int = 1) -> float:
        """frac(num * alpha[1] / den) through the exact slope."""
        slope = self.exact_slope
        if isinstance(slope, QuadraticIrrational):
            return slope.frac_multiple(num, den)
        val = Fraction(num, den) * slope
        return float(val - (val.numerator // val.denominator))


def golden_winding() -> TorusWinding:
    return TorusWinding((1.0, float(GOLDEN)), GOLDEN, name="winding-golden")


def pell_winding() -> TorusWinding:
    return TorusWinding((1.0, float(PELL)), PELL, name="winding-pell")


def periodic_winding(period: int = 2) -> TorusWinding:
    """Synthetic rational winding: T_{k*period} is exactly the identity."""
    if period < 1:
        raise ValueError("period must be >= 1")
    return TorusWinding((1.0, float(Fraction(1, period))), Fraction(1, period),
                        name="winding-periodic")


def circle_rotation() -> TorusWinding:
    """Degenerate d = 1 winding: the unit-speed rotation flow."""
    return TorusWinding((1.0,), name="winding-circle")


@dataclass(frozen=True)
class BoxSet:
    """Product of arcs [0, a_k) with a_k in (0, 1); volume is the product."""

    sides: tuple[float, ...]

    def __post_init__(self):
        if len(self.sides) < 1 or any(not (0.0 < a < 1.0) for a in self.sides):
            raise ValueError("box sides must lie strictly inside (0, 1)")

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.all(x < np.asarray(self.sides), axis=-1)


def wrap(x):
    """x mod 1 on the circle, as x - floor(x): bit for bit numpy's ``mod(x, 1.0)``
    for float64 x, at a fraction of its cost.

    fmod(x, 1) is exact, and for x < 0 numpy adds 1 to it with one rounding;
    x - floor(x) is that same exact value, rounded once.  Integers and -0
    give +0 on both paths, and +-inf gives NaN with the same ``invalid``
    warning.  A 0-d input gives a numpy scalar, as ``np.mod`` does.  The
    difference is written over the floors: a second fresh buffer would
    cost more than the arithmetic."""
    x = np.asarray(x, dtype=float)
    frac = np.floor(x)
    return np.subtract(x, frac, out=frac) if frac.ndim else x - frac


def arc_overlap(a: float, b: float, shift) -> np.ndarray:
    """Length of [0, a) intersected with the circle arc [shift, shift + b):
    max(0, min(s + b, min(a, 1)) - s) + max(0, min(s + b - 1, a)) for s = wrap(shift).

    The subtractions and the sum are taken in place over arrays this call
    made, never over ``shift``; a 0-d shift with scalar sides stays on
    numpy scalars."""
    s = wrap(shift)
    end = s + b
    first = np.minimum(end, np.minimum(a, 1.0))
    first -= s
    first = np.maximum(0.0, first)
    end -= 1.0
    first += np.maximum(0.0, np.minimum(end, a))
    return first


def box_overlap(a_sides, b_sides, shifts, factor=1.0):
    """``factor`` prod_k arc_overlap(a_k, b_k, shift_k), multiplied in order of k:
    mu(A intersect T B) for boxes of sides a, b and T the translation by ``shifts``."""
    for a, b, s in zip(a_sides, b_sides, shifts):
        factor = factor * arc_overlap(a, b, s)
    return factor


def overlap_kernel(sides, bases, slope, reach: float) -> Kinked:
    """prod_k arc_overlap(a_k, a_k, base_k + u slope_k) over |u| <= reach as
    a kink description, one column per column of the (d, L) ``bases`` (a
    (d,) base is one column): degree d, Lipschitz bound
    sum_k |slope_k| prod_{j != k} a_j and range prod_k a_k.

    Factor k bends where its shift crosses Z, Z + a_k or Z - a_k.  Those
    places come from the integers the shift sweeps over, so no gap is ever
    divided by a slope far smaller than itself.
    """
    bases = np.asarray(bases, dtype=float).reshape(len(sides), -1)
    kinks = np.sort(_kink_rows(sides, bases, slope, -reach, reach), axis=1)
    a = np.array(sides, dtype=float)
    lipschitz = float(sum(abs(s) * np.prod(np.delete(a, k)) for k, s in enumerate(slope)))

    def value(u, column=0, factor=1.0):
        return box_overlap(sides, sides, [b[column] + u * s for b, s in zip(bases, slope)], factor)

    return Kinked(kinks, value, len(sides), lipschitz, float(np.prod(a)))


def _kink_rows(sides, bases: np.ndarray, slope, x0: float, x1: float) -> np.ndarray:
    """The x in [x0, x1], unsorted, where a factor of ``overlap_kernel``
    bends, for every column j of the (d, L) ``bases`` at once: row j holds
    the kinks of base_k = bases[k, j], padded with NaN to the longest row."""
    cols = [np.empty((bases.shape[1], 0))]
    for a, b, s in zip(sides, bases, slope, strict=True):
        if s == 0.0:
            continue
        ends = (b + x0 * s, b + x1 * s)
        lo, hi = np.minimum(*ends), np.maximum(*ends)
        for c in (0.0, a, -a):
            n0, n1 = np.ceil(lo - c), np.floor(hi - c)
            n = n0[:, None] + np.arange(max(int(np.max(n1 - n0)) + 1, 0))
            cols.append(np.where(n <= n1[:, None], (n + c - b[:, None]) / s, np.nan))
    return np.concatenate(cols, axis=1)


def arc_correlation(flow: TorusWinding, a: BoxSet, b: BoxSet, t) -> np.ndarray | float:
    """mu(A intersect T_t B) as the exact product of coordinate overlaps."""
    if len(a.sides) != flow.dimension or len(b.sides) != flow.dimension:
        raise ValueError("box dimension must match the winding")
    t = np.asarray(t, dtype=float)
    out = box_overlap(a.sides, b.sides, [t * alk for alk in flow.alpha])
    return float(out) if out.ndim == 0 else out


def _exact_shifts(flow: TorusWinding, num: int, den: int = 1) -> list[float]:
    """Per-coordinate shifts of T_{num/den} using the exact slope; requires
    a two-coordinate winding with alpha = (1, slope)."""
    if flow.dimension == 1:
        return [(num % den) / den]
    if flow.dimension != 2:
        raise ValueError("exact shifts are provided for d <= 2 windings")
    return [(num % den) / den, flow.slope_fraction_of(num, den)]


def arc_correlation_exact(flow: TorusWinding, a: BoxSet, b: BoxSet,
                          num: int, den: int = 1) -> float:
    """arc_correlation at the rational time num/den, evaluated through the
    exact slope so arbitrarily large times keep full precision."""
    return float(box_overlap(a.sides, b.sides, _exact_shifts(flow, num, den)))


def rigidity_times(flow: TorusWinding, count: int):
    """The first ``count`` rigidity times of alpha[1] by the exact slope's rule.

    A surd's times are its convergent denominators q_1, q_2, ..., with
    dist(q_i * alpha[1]) strictly decreasing.  A rational p/q (a declared
    Fraction, or a float slope, which is the dyadic rational it stores) has
    its convergent denominators up to q, where T_q is the identity, and then
    the multiples of q, whose distance 0 caps the adversary's multiplier at
    ``MULTIPLIER_CAP``.  So an irrational's own times need the slope declared
    as a surd: a float slope's agree with them only while its convergents do
    (through the 37th for the golden slope).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    slope = flow.exact_slope
    if isinstance(slope, QuadraticIrrational):
        return [q for _, q in slope.convergents(count)]
    period = slope.denominator
    num, den, prev, q, times = slope.numerator % period, period, 0, 1, []
    while num and len(times) < count:      # Euclid on frac(slope)
        a, num, den = den // num, den % num, num
        prev, q = q, a * q + prev
        times.append(q)
    last = times[-1] if times else 0
    return times + [last + k * period for k in range(1, count - len(times) + 1)]


def _exact_distance(flow: TorusWinding, time: int) -> tuple[int, int]:
    """dist(time * slope, Z) as the integer pair num / den: exact for a
    rational slope, to the precision of ``_fixed`` for a surd."""
    slope = flow.exact_slope
    if isinstance(slope, QuadraticIrrational):
        return slope._dist_fixed(int(time))
    frac = int(time) * slope % 1
    dist = min(frac, 1 - frac)
    return dist.numerator, dist.denominator


def lattice_distance(flow: TorusWinding, time: int) -> float:
    """dist(time * alpha[1], Z) through the exact slope."""
    num, den = _exact_distance(flow, time)
    return num / den
