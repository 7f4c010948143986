"""Composite Gauss-Legendre quadrature with cell-doubling refinement."""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError

ORDER = 64            # Gauss-Legendre nodes per cell
MAX_DOUBLINGS = 14    # cell doublings before adaptive_gl gives up
GL_NODES, GL_WEIGHTS = leggauss(ORDER)
GL_NODES.flags.writeable = GL_WEIGHTS.flags.writeable = False   # shared by every caller


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
