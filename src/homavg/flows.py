"""Torus windings: linear flows x -> x + t*alpha (mod 1) on the d-torus.

Box sets have exact arc-overlap correlations, and windings whose second
slope is a quadratic irrational expose exact continued-fraction rigidity
times through integer-only arithmetic.  The surd is tracked symbolically,
and every multiple num * slope comes from one fixed-point integer square
root whose precision grows with num (``QuadraticIrrational._fixed``): the
error of dist(num * slope, Z) stays far below dist**2 at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

FLOAT_SAFE_DENOMINATOR = 1 << 52   # float CF extraction refused past this


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
    rigidity machinery.
    """

    alpha: tuple[float, ...]
    slope: QuadraticIrrational | Fraction | None = None
    name: str = ""

    def __post_init__(self):
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
        return np.mod(np.asarray(x, dtype=float) + np.multiply.outer(
            np.asarray(t, dtype=float), a), 1.0)

    def slope_fraction_of(self, num: int, den: int = 1) -> float:
        """frac(num * alpha[1] / den) through the exact slope."""
        if isinstance(self.slope, QuadraticIrrational):
            return self.slope.frac_multiple(num, den)
        if isinstance(self.slope, Fraction):
            val = Fraction(num, den) * self.slope
            return float(val - (val.numerator // val.denominator))
        raise ValueError("winding carries no exact slope")


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


def arc_overlap(a: float, b: float, shift) -> np.ndarray:
    """Length of [0, a) intersected with the circle arc [shift, shift + b)."""
    s = np.mod(np.asarray(shift, dtype=float), 1.0)
    first = np.maximum(0.0, np.minimum(np.minimum(s + b, 1.0), a) - s)
    wrapped = np.maximum(0.0, np.minimum(s + b - 1.0, a))
    return first + wrapped


def arc_correlation(flow: TorusWinding, a: BoxSet, b: BoxSet, t) -> np.ndarray | float:
    """mu(A intersect T_t B) as the exact product of coordinate overlaps."""
    if len(a.sides) != flow.dimension or len(b.sides) != flow.dimension:
        raise ValueError("box dimension must match the winding")
    t = np.asarray(t, dtype=float)
    out = np.ones(t.shape)
    for ak, bk, alk in zip(a.sides, b.sides, flow.alpha):
        out = out * arc_overlap(ak, bk, t * alk)
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
    shifts = _exact_shifts(flow, num, den)
    out = 1.0
    for ak, bk, s in zip(a.sides, b.sides, shifts):
        out *= float(arc_overlap(ak, bk, s))
    return out


def rigidity_times(flow: TorusWinding, count: int):
    """Denominators q_1, ..., q_count of the convergents of alpha[1].

    Guarantees dist(q_i * alpha[1]) strictly decreasing.  For synthetically
    periodic windings the times are the multiples of the exact period.
    Windings carrying only a float slope are served by float continued
    fractions up to denominators below 2**52 and refused beyond.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(flow.slope, QuadraticIrrational):
        return [q for _, q in flow.slope.convergents(count)]
    if isinstance(flow.slope, Fraction):
        period = flow.slope.denominator
        return [period * (i + 1) for i in range(count)]
    if flow.dimension < 2:
        raise ValueError("rigidity times need a second coordinate")
    return _float_convergent_denominators(flow.alpha[1], count)


def _float_convergent_denominators(x: float, count: int) -> list[int]:
    val = Fraction(x)
    if val.denominator <= 1 << 20:
        raise ValueError("slope is rational; no rigidity-time expansion exists")
    a0 = val.numerator // val.denominator
    rem = val - a0
    pm1, qm1, p0, q0 = 1, 0, a0, 1
    out = []
    while len(out) < count:
        if rem == 0:
            raise ValueError(
                "float continued fraction exhausted its precision-safe depth "
                "(the expansion terminated, denominators approaching 2**52); "
                "supply an exact slope")
        inv = 1 / rem
        digit = inv.numerator // inv.denominator
        rem = inv - digit
        p0, pm1 = digit * p0 + pm1, p0
        q0, qm1 = digit * q0 + qm1, q0
        if q0 >= FLOAT_SAFE_DENOMINATOR:
            raise ValueError(
                "float continued fraction exhausted its precision-safe depth "
                f"(denominator {q0} >= 2**52); supply an exact slope")
        out.append(q0)
    return out


def lattice_distance(flow: TorusWinding, time: int) -> float:
    """dist(time * alpha[1], Z) via the exact slope when available."""
    if isinstance(flow.slope, QuadraticIrrational):
        return flow.slope.lattice_distance(int(time))
    if isinstance(flow.slope, Fraction):
        f = flow.slope_fraction_of(int(time))
        return min(f, 1.0 - f)
    f = (time * flow.alpha[1]) % 1.0
    return min(f, 1.0 - f)
