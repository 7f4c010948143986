"""The benchmark's tracer patches homavg by name; installing and removing it
must find every name it hooks and leave the library as it was.  The
benchmark's workload generator is imported read-only to guard which configs
reach adaptive quadrature."""

import json
import sys
from pathlib import Path

from homavg import cli, engine, quadrature, spectral

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_undoes_cleanly():
    originals = {
        (engine, "l2_norm_spectral"): engine.l2_norm_spectral,
        (spectral.SpectralModel, "expect"): spectral.SpectralModel.expect,
        (quadrature, "adaptive_gl"): quadrature.adaptive_gl,
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


def test_spectral_decay_quadrature_stays_on_gauss(tmp_path, monkeypatch):
    """Uniform and triangular weights take closed-form band terms at every
    power, and Cantor takes its self-similar digit rule on its band at power
    1, so one round of the benchmark's spectral-decay workload calls adaptive
    quadrature only for its truncated-gaussian band."""
    callers = set()
    template = None
    original = spectral.adaptive_gl

    def counting(*args, **kwargs):
        callers.add(template)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "adaptive_gl", counting)
    for template, cfg in workloads.ConfigStream("spectral-decay", 1).round(0):
        path = tmp_path / f"{template}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out", str(tmp_path / template)]) == 0
    assert callers == {"band-gauss"}


def test_tracer_reads_the_quadrature_signature(tmp_path):
    """The tracer counts fixed_gl nodes from its positional cell count: a
    traced band-gauss run must record whole 64-node cells on every pass."""
    stream = workloads.ConfigStream("spectral-decay", 1)
    template, cfg = next(entry for entry in stream.round(0)
                         if entry[0] == "band-gauss")
    path = tmp_path / f"{template}.json"
    path.write_text(json.dumps(cfg))
    trace = tracer.Tracer()
    patches = tracer.install(trace)
    try:
        assert cli.main(["run", str(path), "--out", str(tmp_path / template)]) == 0
    finally:
        patches.undo()
    nodes = [span[7]["nodes"] for span in trace.spans if span[1] == "quadrature.fixed_gl"]
    assert nodes and all(n > 0 and n % 64 == 0 for n in nodes)


def test_tracer_reaches_the_adversary_level_quadrature(tmp_path):
    """A traced depth-4 golden adversary run records one level-quadrature
    span per level, with the box overlaps it evaluates nested inside."""
    template, cfg = next(entry for entry in
                         workloads.ConfigStream("rigidity-adversary", 1).round(0)
                         if entry[0] == "golden")
    path = tmp_path / f"{template}.json"
    path.write_text(json.dumps(cfg))
    trace = tracer.Tracer()
    patches = tracer.install(trace)
    try:
        assert cli.main(["run", str(path), "--out", str(tmp_path / template)]) == 0
    finally:
        patches.undo()
    levels = {span[0] for span in trace.spans if span[1] == "adversary.quad_level"}
    assert len(levels) == 4
    assert any(span[1] == "flows.arc_overlap" and span[4] in levels
               for span in trace.spans)


def test_tracer_sees_the_probe_density_hooks(tmp_path):
    """The probe builds its difference density through
    ``engine.difference_density`` and takes masses from
    ``engine.PiecewiseLinearDensity``, both patched by name: a traced round
    records them for a quantized weight, and no mass for sampled Cantor."""
    spans = {}
    for template, cfg in workloads.ConfigStream("spike-probe", 1).round(0):
        if template not in ("dense-quantized", "sparse-cantor"):
            continue
        path = tmp_path / f"{template}.json"
        path.write_text(json.dumps(cfg))
        trace = tracer.Tracer()
        patches = tracer.install(trace)
        try:
            assert cli.main(["run", str(path), "--out", str(tmp_path / template)]) == 0
        finally:
            patches.undo()
        spans[template] = [span[1] for span in trace.spans]
    assert spans["dense-quantized"].count("engine.difference_density") >= 1
    assert "engine.density_mass" in spans["dense-quantized"]
    assert "engine.density_mass" not in spans["sparse-cantor"]


def test_round_zero_meta_stays_small(tmp_path):
    """No workload's .meta echoes its inputs at length: a long inline float
    list is recorded by digest, so the 50,001-spike probe writes a few KiB."""
    sizes = {}
    for workload in workloads.WORKLOADS:
        for template, cfg in workloads.ConfigStream(workload, 1).round(0):
            path = tmp_path / f"{template}.json"
            path.write_text(json.dumps(cfg))
            assert cli.main(["run", str(path), "--out", str(tmp_path / template)]) == 0
            sizes[template] = (tmp_path / f"{template}.meta").stat().st_size
    assert max(sizes.values()) < 32 * 1024, sizes
    assert sizes["dense-uniform"] < 4 * 1024
