"""Composite Gauss-Legendre quadrature with cell-doubling refinement, and
Gauss rules of self-similar laws built from their exact moments."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError

ORDER = 64            # Gauss-Legendre nodes per cell
MAX_DOUBLINGS = 14    # cell doublings before adaptive_gl gives up
GL_NODES, GL_WEIGHTS = leggauss(ORDER)
GL_NODES.flags.writeable = GL_WEIGHTS.flags.writeable = False   # shared by every caller
SELF_SIMILAR_NODES = 8   # nodes of a self-similar law's Gauss rule


def fixed_gl(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
             cells: int) -> complex:
    """Composite Gauss-Legendre integral of ``f`` over [a, b] with a fixed
    number of equal cells.  ``f`` must accept node arrays."""
    edges = np.linspace(a, b, cells + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * GL_NODES[None, :]).ravel()
    vals = np.asarray(f(pts)).reshape(cells, ORDER)
    return complex(np.sum(half * (vals @ GL_WEIGHTS)))


def adaptive_gl(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                tol: float, pieces: int = 1,
                frequency: float = 0.0) -> tuple[complex, float]:
    """Integral of ``f`` over [a, b] for an integrand that is smooth on each
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
                      weights: tuple[Fraction, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the SELF_SIMILAR_NODES-point Gauss rule of the
    law of D = sum_{j >= 0} ratio^j d_j, i.i.d. digits d_j taking ``values``
    with probabilities ``weights`` (exact Fractions summing to 1).

    The moments are exact rationals from D = d + ratio D':
    (1 - ratio^m) E[D^m] = sum_{j=1}^m C(m, j) E[d^j] ratio^(m-j) E[D^(m-j)].
    The Chebyshev algorithm (Gautschi, Orthogonal Polynomials: Computation
    and Approximation, 2004, sec. 2.1.7) turns them into the three-term
    recurrence coefficients in Fraction arithmetic, where the ill-conditioned
    moment map loses nothing.  The nodes are the eigenvalues of the Jacobi
    matrix in float64, the weights the squared first components of its
    eigenvectors, normalized.
    """
    n = 2 * SELF_SIMILAR_NODES
    digit = [sum(w * v ** j for v, w in zip(values, weights)) for j in range(n)]
    moments = [Fraction(1)]
    for m in range(1, n):
        moments.append(sum(comb(m, j) * digit[j] * ratio ** (m - j) * moments[m - j]
                           for j in range(1, m + 1)) / (1 - ratio ** m))
    # sigma_k(l) = E[pi_k(D) D^l] for the monic orthogonal polynomials pi_k
    alpha, beta = [moments[1]], [Fraction(1)]
    prev, cur = [Fraction(0)] * n, moments
    for k in range(1, SELF_SIMILAR_NODES):
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
