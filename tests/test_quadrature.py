import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from homavg import quadrature
from homavg.errors import AccuracyError
from homavg.quadrature import adaptive_gl, fixed_gl


def first_pass_cells(monkeypatch, a, b, pieces, frequency):
    """Cells of the first ``fixed_gl`` pass of one ``adaptive_gl`` call."""
    cells = []
    original = quadrature.fixed_gl

    def recording(f, lo, hi, n):
        cells.append(n)
        return original(f, lo, hi, n)

    monkeypatch.setattr(quadrature, "fixed_gl", recording)
    adaptive_gl(lambda x: np.cos(frequency * x), a, b, 1e-10, pieces, frequency)
    return cells[0]


@pytest.mark.parametrize("a, b, frequency", [(0.0, 1.0, 0.0), (-1.0, 1.0, 7.0),
                                             (-1.5, 1.0, 20.0), (0.0, 2.0, 1e3)])
def test_first_pass_is_three_cells_per_period(monkeypatch, a, b, frequency):
    # the count of the former oscillation_cells(b - a, frequency)
    want = max(2, math.ceil(3.0 * frequency * (b - a) / (2.0 * np.pi)) + 1)
    assert first_pass_cells(monkeypatch, a, b, 1, frequency) == want
    for pieces in (2, 3, 7, 16):
        cells = first_pass_cells(monkeypatch, a, b, pieces, frequency)
        assert cells % pieces == 0 and want <= cells < want + pieces


def test_piece_aligned_cells_integrate_a_step_exactly():
    # a jump at a piece edge never falls inside a cell: the first two passes agree
    step = lambda x: np.where(x < 1.0, 1.0, 3.0)
    value, diff = adaptive_gl(step, 0.0, 3.0, 1e-14, pieces=3)
    assert value.real == pytest.approx(7.0, rel=0, abs=1e-13) and diff < 1e-14



@pytest.mark.parametrize("n", [1, 2, 11, 64])
def test_gl_pieces_matches_each_piece_alone(monkeypatch, n):
    """Twenty pieces in blocks of three: each piece's integral is that of
    its own n-node leggauss rule, and f never sees more than a block."""
    monkeypatch.setattr(quadrature, "BLOCK", 3 * n)
    rng = np.random.default_rng(27)
    left = rng.uniform(-3.0, 3.0, 20)
    right = left + rng.uniform(0.01, 2.0, 20)
    f = lambda x: np.exp(np.sin(3.0 * x))
    sizes = []
    got = quadrature.gl_pieces(lambda x, part: sizes.append(x.size) or f(x), left, right, n)
    nodes, weights = leggauss(n)
    want = [0.5 * (b - a) * (weights @ f(0.5 * (a + b) + 0.5 * (b - a) * nodes))
            for a, b in zip(left, right)]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    assert len(sizes) == 7 and max(sizes) <= 3 * n


def test_adaptive_gl_that_never_converges_reports_its_best_difference(monkeypatch):
    """A jump at 0.4 keeps every estimate about a cell width off: four doublings
    from 2 cells never reach 1e-12, and ``achieved`` is the least difference,
    which here is not the last one."""
    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 4)
    step = lambda x: np.where(x < 0.4, 0.0, 1.0)
    with pytest.raises(AccuracyError, match="did not reach tol=1e-12") as info:
        adaptive_gl(step, 0.0, 1.0, 1e-12)
    estimates = [fixed_gl(step, 0.0, 1.0, 2 << k) for k in range(5)]
    diffs = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    assert info.value.achieved == min(diffs) < diffs[-1]
