"""Gauss-Legendre over pieces, a block at a time, and on it composite
quadrature with cell-doubling refinement; Gauss rules of self-similar laws built from their exact moments, the exact
sinc-power band integral, and the two integrators of a kernel against the
law of r - s: the kink integral against a piecewise-polynomial density,
and the digit walk over a digit law, which takes a piecewise-polynomial
kernel split at its kinks, or an entire one (a band term) split by how far
it turns across a copy."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, log
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError

ORDER = 64            # Gauss-Legendre nodes per cell
MAX_DOUBLINGS = 14    # cell doublings before adaptive_gl gives up
SELF_SIMILAR_NODES = 8   # nodes of a self-similar law's Gauss rule
BLOCK = 1 << 16   # values of any vectorized pass at once: bounds its memory
CHUNK = BLOCK // 4   # pairs per pass of a Monte Carlo product, sized to stay in cache
legendre = lru_cache(maxsize=None)(leggauss)   # a bare leggauss(2) takes about 0.1 ms


def gl_pieces(f: Callable[[np.ndarray, slice], np.ndarray], left: np.ndarray,
              right: np.ndarray, n: int) -> np.ndarray:
    """Int f over [left_i, right_i] for every piece i of the 1-d arrays,
    by ``n``-node Gauss-Legendre.  ``f(x, part)`` returns f at the nodes
    x of the pieces ``part`` (a slice), a row of n per piece, at most
    BLOCK values per call, so the pass holds O(pieces + BLOCK) values."""
    nodes, weights = legendre(n)
    rows = max(1, BLOCK // n)
    out = np.empty(len(left))
    for first in range(0, len(left), rows):
        part = slice(first, first + rows)
        half = 0.5 * (right[part] - left[part])
        x = 0.5 * (right[part] + left[part])[:, None] + half[:, None] * nodes
        out[part] = half * (f(x, part) @ weights)
    return out


def fixed_gl(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
             cells: int) -> complex:
    """Composite Gauss-Legendre integral of ``f`` over [a, b] with a fixed
    number of equal cells of ORDER nodes.  ``f`` must accept 1-d node
    arrays; it gets at most BLOCK nodes per call (``gl_pieces``)."""
    edges = np.linspace(a, b, cells + 1)
    parts = gl_pieces(lambda x, part: np.asarray(f(x.ravel())).reshape(x.shape),
                      edges[:-1], edges[1:], ORDER)
    return complex(np.sum(parts))


def adaptive_gl(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                tol: float, pieces: int = 1,
                frequency: float = 0.0) -> tuple[complex, float]:
    """Integral of ``f`` over [a, b] for a function that is smooth on each
    of ``pieces`` equal parts of [a, b] and oscillates like
    exp(i*frequency*x).  Returns (value, difference at acceptance).

    The first ``fixed_gl`` pass takes about three cells per period, at least
    two, rounded up to a multiple of ``pieces`` so that no cell straddles a
    piece edge; each further pass doubles the cells until two successive
    estimates differ by less than ``tol``.  Raises AccuracyError carrying
    the best difference if MAX_DOUBLINGS doublings do not get there.
    """
    if b <= a:
        return 0.0 + 0.0j, 0.0
    per_period = abs(frequency) * (b - a) / (2.0 * np.pi)
    cells = -(-max(2, int(np.ceil(3.0 * per_period)) + 1) // pieces) * pieces
    prev = fixed_gl(f, a, b, cells)
    best = np.inf
    for _ in range(MAX_DOUBLINGS):
        cells *= 2
        cur = fixed_gl(f, a, b, cells)
        diff = abs(cur - prev)
        if diff < tol:
            return cur, diff
        best = min(best, diff)
        prev = cur
    raise AccuracyError(
        f"quadrature on [{a}, {b}] did not reach tol={tol:g}", achieved=best)


@lru_cache(maxsize=16)
def self_similar_rule(ratio: Fraction, values: tuple[Fraction, ...],
                      weights: tuple[Fraction, ...],
                      size: int = SELF_SIMILAR_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``size``-point Gauss rule (at most
    SELF_SIMILAR_NODES) of the law of D = sum_{j >= 0} ratio^j d_j, i.i.d.
    digits d_j taking ``values`` with probabilities ``weights`` (exact
    Fractions summing to 1).  It integrates polynomials of degree
    < 2 ``size`` exactly; the 1-point rule is the mean of D.

    The moments are exact rationals from D = d + ratio D':
    (1 - ratio^m) E[D^m] = sum_{j=1}^m C(m, j) E[d^j] ratio^(m-j) E[D^(m-j)].
    The Chebyshev algorithm (Gautschi, Orthogonal Polynomials: Computation
    and Approximation, 2004, sec. 2.1.7) turns them into the three-term
    recurrence coefficients in Fraction arithmetic, where the ill-conditioned
    moment map loses nothing.  The nodes are the eigenvalues of the Jacobi
    matrix in float64, the weights the squared first components of its
    eigenvectors, normalized.
    """
    n = 2 * size
    digit = [sum(w * v ** j for v, w in zip(values, weights)) for j in range(n)]
    moments = [Fraction(1)]
    for m in range(1, n):
        moments.append(sum(comb(m, j) * digit[j] * ratio ** (m - j) * moments[m - j]
                           for j in range(1, m + 1)) / (1 - ratio ** m))
    # sigma_k(l) = E[pi_k(D) D^l] for the monic orthogonal polynomials pi_k
    alpha, beta = [moments[1]], [Fraction(1)]
    prev, cur = [Fraction(0)] * n, moments
    for k in range(1, size):
        nxt = [Fraction(0)] * n
        for l in range(k, n - k):
            nxt[l] = cur[l + 1] - alpha[-1] * cur[l] - beta[-1] * prev[l]
        alpha.append(nxt[k + 1] / nxt[k] - cur[k] / cur[k - 1])
        beta.append(nxt[k] / cur[k - 1])
        prev, cur = cur, nxt
    off = np.sqrt([float(b) for b in beta[1:]])
    jacobi = np.diag([float(a) for a in alpha]) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    rule = (nodes, weights / weights.sum())    # mass 1 to rounding
    for arr in rule:      # shared by every caller through the cache
        arr.flags.writeable = False
    return rule


ROUNDING = np.finfo(float).eps / 2   # unit roundoff of float64: where a digit walk stops


def digit_walk(law, kinks: np.ndarray, kernel, degree: int, lipschitz: float,
               spread: float, frequency: float = 0.0) -> tuple:
    """(E[K(D)], error bound) for the self-similar ``law`` D (``ratio``,
    ``values`` and ``weights`` as in ``self_similar_rule``, and their float
    view ``floats``) and a kernel K that is a polynomial of degree <=
    ``degree`` < 2 SELF_SIMILAR_NODES between the sorted ``kinks``, with
    Lipschitz bound ``lipschitz`` there (inf for a kernel that jumps at its
    kinks) and max K - min K <= ``spread``, or an entire kernel turning at
    most ``frequency`` radians per unit of u.  ``kernel(u, w)`` returns
    sum_i w_i K(u_i), a float or an array.

    The walk splits D = A_k + ratio^k D' level by level.  While the kernel
    turns more than one radian across a copy, |frequency| ratio^k diam(D)
    > 1, every copy splits into its M children; once that would hold more
    than one block of kernel evaluations, the next levels join the rule's
    nodes instead (D = d + ratio D'), as long as the nodes fit in a block,
    and the copies are evaluated a block at a time.  After that, a copy
    a + ratio^k supp(D) with no kink inside contributes its weight times
    the smallest Gauss rule of D exact to ``degree``, scaled by ratio^k:
    exact for a piecewise polynomial, and to rounding for an entire kernel
    that turns at most one radian across it.  A copy that straddles a kink
    splits into its M children.  The rule misses a straddling copy by at
    most its mass times min(lipschitz ratio^k diam(D), spread).  A
    straddling copy whose children would no longer shrink in float is taken
    by the rule at once, and its bound kept.  The walk stops once the
    straddling copies' bound is below the rounding of ``spread``, takes
    them by the rule as well, and returns that bound plus the kept ones.
    """
    size = degree // 2 + 1
    nodes, node_weights = self_similar_rule(law.ratio, law.values, law.weights, size)
    ratio, values, probs, lo, hi = law.floats
    rows = max(1, BLOCK // size)   # copies per kernel call: bounds the walk's memory
    atoms, weights, scale = np.zeros(1), np.ones(1), 1.0
    total, pending, waiting = 0.0, [], 0   # the copies the rule takes, not yet evaluated
    stuck = 0.0     # the bound of straddling copies whose children would not shrink
    # every atom lies within max(-lo, hi) of 0, so children wider than this
    # still shrink in float
    narrow = 8.0 * ROUNDING * max(-lo, hi)
    turn, fine = abs(frequency) * (hi - lo), 1.0   # the rule resolves D into copies of scale fine
    while True:
        if turn * scale * fine > 1.0:     # no copy settles yet: all split, or the rule joins a level
            if len(atoms) * len(values) > rows and len(nodes) * len(values) <= BLOCK:
                nodes = (values[:, None] + ratio * nodes).ravel()
                node_weights = (probs[:, None] * node_weights).ravel()
                fine *= ratio
                rows = max(1, BLOCK // len(nodes))
            else:
                atoms = (atoms[:, None] + scale * values).ravel()
                weights = (weights[:, None] * probs).ravel()
                scale *= ratio
            continue
        inside = (kinks.searchsorted(atoms + scale * hi, side="left")
                  > kinks.searchsorted(atoms + scale * lo, side="right"))
        miss = spread if lipschitz == np.inf else min(lipschitz * scale * (hi - lo), spread)
        if ratio * scale * (hi - lo) <= narrow:
            children = atoms[:, None] + scale * values
            stops = inside & np.any(children + ratio * scale * hi
                                    == children + ratio * scale * lo, axis=1)
            stuck += float(weights @ stops) * miss
            inside &= ~stops
        error = float(weights @ inside) * miss
        last = error <= ROUNDING * spread
        settle = slice(None) if last else ~inside
        pending.append((atoms[settle], weights[settle], scale))
        waiting += len(pending[-1][0])
        if last or waiting >= rows:
            total = total + _rule_sum(kernel, nodes, node_weights, pending, rows)
            pending, waiting = [], 0
        if last:
            return total, error + stuck
        atoms = (atoms[inside, None] + scale * values).ravel()
        weights = (weights[inside, None] * probs).ravel()
        scale *= ratio


class Kinked(NamedTuple):
    """A kernel K_j(u) of columns j = 0, 1, ...: a polynomial of ``degree``
    in u between the kinks of row j of ``kinks`` (sorted, NaN padding last)
    within the reach it was described for, with Lipschitz bound
    ``lipschitz`` there and max K - min K <= ``spread``.
    ``value(u, column=0, factor=1.0)`` is factor * K_column(u) elementwise,
    ``column`` an index array broadcasting against u; a product kernel
    multiplies its factors into ``factor`` one at a time."""

    kinks: np.ndarray
    value: Callable[..., np.ndarray]
    degree: int
    lipschitz: float
    spread: float


def kink_integral(kernel: Kinked, knots, shape, degree: int) -> np.ndarray:
    """Int K_j(u) w(u) du over [knots[0], knots[-1]] for every column j of
    ``kernel``, w = ``shape`` a polynomial of ``degree`` between the sorted
    ``knots`` (or resolved as one); exact up to rounding.

    Per column, the knots and the kinks split the range into pieces on
    which K_j w is a polynomial of degree kernel.degree + ``degree``, which
    Gauss-Legendre with (kernel.degree + degree) // 2 + 1 nodes integrates
    exactly.  The pieces of every column are evaluated together by
    ``gl_pieces``, as w(u) times the kernel.
    """
    knots = np.asarray(knots, dtype=float)
    x0, x1 = knots[0], knots[-1]
    cuts = kernel.kinks
    # per column, the sorted distinct knots and cuts; the NaN padding sorts
    # last, and a step onto a repeat or onto NaN is no piece
    pts = np.concatenate((np.broadcast_to(knots, (len(cuts), len(knots))), cuts), axis=1)
    np.clip(pts, x0, x1, out=pts)
    pts.sort(axis=1)
    piece = pts[:, 1:] > pts[:, :-1]
    ends = np.cumsum(np.count_nonzero(piece, axis=1))   # column j's pieces end at ends[j]
    left, right = pts[:, :-1][piece], pts[:, 1:][piece]
    del pts, piece      # the pass holds the pieces' ends and one block's columns

    def value(x, part):
        column = ends.searchsorted(np.arange(part.start, part.start + len(x)), side="right")
        return kernel.value(x, column[:, None], shape(x))

    parts = gl_pieces(value, left, right, (kernel.degree + degree) // 2 + 1)
    # np.sum per column (not np.add.reduceat, which adds in another order),
    # so each column sums as it would alone
    return np.array([np.sum(parts[i:j]) for i, j in zip(np.append(0, ends[:-1]), ends)])


def _rule_sum(kernel, nodes, node_weights, copies, rows: int):
    """The kernel summed over the scaled Gauss rule of every copy in
    ``copies`` (atoms, weights, scale), ``rows`` copies per call."""
    atoms = np.concatenate([a for a, _, _ in copies])
    weights = np.concatenate([w for _, w, _ in copies])
    scales = np.repeat([s for _, _, s in copies], [len(a) for a, _, _ in copies])
    total = 0.0
    for first in range(0, len(atoms), rows):
        part = slice(first, first + rows)
        total = total + kernel((atoms[part, None] + scales[part, None] * nodes).ravel(),
                               (weights[part, None] * node_weights).ravel())
    return total


def digit_walk_work(law, reach: int, degree: int, lipschitz: float, spread: float) -> int:
    """What ``digit_walk`` computes over ``reach`` kinks inside supp(D):
    per level, each kink splits a copy, of mass at most w_max^k, into its M
    children, and each child is placed against the kinks once and, once
    settled, evaluated at the rule's degree // 2 + 1 nodes.  The levels run
    to the first k at which reach w_max^k min(lipschitz ratio^k diam(D),
    spread) is below the rounding of ``spread``.  A kink straddles one
    copy per level when the copies do not overlap; the count is an
    estimate where they do."""
    if reach == 0 or spread == 0.0:
        return 0
    heaviest = float(law.floats.probs.max())
    levels = log(ROUNDING / reach) / log(heaviest)          # mass times spread
    if lipschitz < np.inf:
        bound = reach * lipschitz * (law.floats.hi - law.floats.lo)
        shrink = log(heaviest * law.floats.ratio)
        levels = min(levels, log(ROUNDING * spread / bound) / shrink) if bound > 0 else 0
    return reach * (1 + max(0, ceil(levels))) * len(law.values) * (2 + degree // 2)


_SINC_NEAR = 40          # sinc^n is integrated by quadrature up to x = 2 n + _SINC_NEAR
_SINC_TERMS = 40         # terms of each asymptotic tail series


def sinc_power_integral(n: int, a, b) -> np.ndarray:
    """Int_a^b sinc^n(x) dx, sinc(x) = sin(x) / x, for even n >= 2,
    elementwise over arrays a <= b.  The cost is bounded in n and does not
    depend on a or b.

    sinc^n is even and nonnegative, so [a, b] folds onto one or two
    pieces [A, B] in [0, inf), and with X0 = 2 n + 40

        Int_A^B = Q(min(A, X0), min(B, X0)) + T(max(A, X0)) - T(max(B, X0)).

    Q is a composite Gauss-Legendre rule of n + 20 equal cells on its own
    interval (``gl_pieces``), no cell wider than 2, so a piece far from 0
    keeps its relative precision.  T is
    the tail Int_X^inf for X >= X0: with w = 2k,
    T(X) = a_0 X^(1-n) / (n-1) + sum_k a_k Re Int_X^inf e^(i w x) x^-n dx,
    each integral its asymptotic series
    i e^(i w X) X^-n / w sum_j (n)_j (-i / (w X))^j.  At w X >= 4 n + 80 the
    terms fall geometrically, and 40 of them leave a remainder far below
    rounding.  (Integrating by parts down to Si(2 k X) instead is exact, but
    cancels catastrophically in floating point from about n = 12.)
    """
    m = n // 2      # the a_k of sin^n x = sum_{k=0}^{n/2} a_k cos(2 k x)
    coef = np.array([comb(n, m) / 2 ** n]
                    + [(-1) ** k * comb(n, m - k) / 2 ** (n - 1) for k in range(1, m + 1)])
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    # the pieces [lo, hi]: [min |.|, max |.|] per cell, and a cell across 0
    # is [0, |a|] + [0, b], its second piece appended after all the others
    across = (a < 0.0) & (b > 0.0)
    near, far = np.minimum(np.abs(a), np.abs(b)), np.maximum(np.abs(a), np.abs(b))
    lo = np.concatenate((np.where(across, 0.0, near), np.zeros(np.count_nonzero(across))))
    hi = np.concatenate((far, near[across]))
    x0 = 2 * n + _SINC_NEAR
    out = (_sinc_power_tail(n, coef, np.maximum(lo, x0))
           - _sinc_power_tail(n, coef, np.maximum(hi, x0)))
    qa, qb = np.minimum(lo, x0), np.minimum(hi, x0)
    live = np.flatnonzero(qb > qa)
    cells = n + _SINC_NEAR // 2
    cuts = qa[live, None] + (qb - qa)[live, None] * (np.arange(cells + 1) / cells)
    # x > 0: the nodes are interior; pow of a negative base is about 15x slower
    parts = gl_pieces(lambda x, part: np.abs(np.sin(x) / x) ** n,
                      cuts[:, :-1].ravel(), cuts[:, 1:].ravel(), ORDER)
    out[live] += parts.reshape(len(live), cells).sum(axis=1)
    out = np.maximum(out, 0.0)      # rounding must not make a piece negative
    total = out[:a.size]
    total[across] += out[a.size:]
    return total.reshape(shape)


def _sinc_power_tail(n: int, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Int_x^inf sinc^n(u) du for an array x >= 2 n + 40 (see
    ``sinc_power_integral``)."""
    xs = x[:, None]
    w = 2.0 * np.arange(1, n // 2 + 1)
    ratios = (n + np.arange(_SINC_TERMS - 1)) * (-1j / (w * xs))[..., None]
    series = 1.0 + np.cumprod(ratios, axis=-1).sum(axis=-1)
    waves = (1j * np.exp(1j * w * xs) * xs ** -n / w * series).real
    return coef[0] * x ** (1 - n) / (n - 1) + waves @ coef[1:]
