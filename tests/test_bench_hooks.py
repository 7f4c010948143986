"""The traced benchmark patches homavg by name; installing and removing its
tracer must find every name it hooks and leave the library as it was."""

import sys
from pathlib import Path

from homavg import engine, quadrature, spectral

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402


def test_tracer_installs_and_undoes_cleanly():
    originals = {
        (engine, "l2_norm_spectral"): engine.l2_norm_spectral,
        (spectral.SpectralModel, "expect"): spectral.SpectralModel.expect,
        (quadrature, "adaptive_gl"): quadrature.adaptive_gl,
        (engine, "adaptive_gl"): engine.adaptive_gl,
        (spectral, "adaptive_gl"): spectral.adaptive_gl,
    }
    patches = tracer.install(tracer.Tracer())
    try:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, attr
    finally:
        patches.undo()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr
