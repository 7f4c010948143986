import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homavg
from homavg import presets
from homavg.cli import main
from homavg.presets import list_presets


def write_config(tmp_path: Path, name: str, cfg: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().strip().split("\n")
    return [line.split(",") for line in lines[1:]]


AVG_CONFIG = {
    "kind": "avg-scan",
    "flow": "winding-golden",
    "measure": "uniform[0,1]",
    "observable": "cos-x2",
    "grid": {"start": 10, "factor": 10, "count": 4},
    "seed": 20260810,
}


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    text = capsys.readouterr().out
    assert "winding-golden" in text
    assert "cantor-thirds" in text
    assert text == list_presets()  # stable across calls
    assert list_presets() == list_presets()


def test_module_entry_point_runs_the_cli():
    src = str(Path(homavg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "homavg.cli", "presets"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stdout == list_presets()


def test_minimal_avg_scan(tmp_path):
    cfg = write_config(tmp_path, "avg.json", AVG_CONFIG)
    out = tmp_path / "out" / "avg"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out.with_suffix(".csv"))
    assert len(rows) == 4
    values = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert meta["config"]["flow"] == "winding-golden"
    assert "homavg" in meta["versions"]


def test_rerun_and_threads_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "avg.json", AVG_CONFIG)
    outs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out),
                     "--threads", threads]) == 0
        outs.append(out)
    blobs = [o.with_suffix(".csv").read_bytes() for o in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    metas = [o.with_suffix(".meta").read_bytes() for o in outs]
    assert metas[0] == metas[1] == metas[2]


def test_avg_scan_monte_carlo_evaluator(tmp_path):
    cfg = dict(AVG_CONFIG)
    cfg["evaluator"] = "l1-mc"
    cfg["samples"] = {"n_x": 200, "n_r": 200}
    cfg["grid"] = {"start": 10, "factor": 100, "count": 2}
    path = write_config(tmp_path, "mc.json", cfg)
    out = tmp_path / "mc"
    assert main(["run", str(path), "--out", str(out)]) == 0
    rows = read_rows(out.with_suffix(".csv"))
    assert len(rows) == 2
    assert all(float(r[2]) > 0 for r in rows)  # statistical error reported
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert meta["metadata"]["evaluator"] == "l1-mc"


def test_spectral_scan_with_inline_atoms(tmp_path):
    cfg = {
        "kind": "spectral-scan",
        "measure": "cantor-thirds",
        "spectral": {"type": "spectral", "atoms": [[1.0, 1.0]], "band": None},
        "grid": {"start": 6.283185307179586, "factor": 3, "count": 6},
        "seed": 5,
    }
    path = write_config(tmp_path, "spec.json", cfg)
    out = tmp_path / "spec"
    assert main(["run", str(path), "--out", str(out)]) == 0
    values = [float(r[1]) for r in read_rows(out.with_suffix(".csv"))]
    # scales tripling from 2 pi leave the middle-thirds transform magnitude
    # unchanged: a non-vanishing subsequence
    assert min(values) > 0.3
    np.testing.assert_allclose(values, values[0], atol=1e-8)


def test_convolution_root_margins(tmp_path):
    cfg = {
        "kind": "convolution-root",
        "measure": "cantor-thirds",
        "flow": "winding-golden",
        "observable": "cos-x2",
        "power": 3,
        "grid": {"start": 1, "factor": 10, "count": 4},
        "seed": 6,
    }
    path = write_config(tmp_path, "root.json", cfg)
    out = tmp_path / "root"
    assert main(["run", str(path), "--out", str(out)]) == 0
    margins = [float(r[1]) for r in read_rows(out.with_suffix(".csv"))]
    assert all(m >= -1e-9 for m in margins)
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert meta["metadata"]["power"] == 3


def test_probe_config(tmp_path):
    cfg = {
        "kind": "almost-mixing-probe",
        "measure": "uniform[0,1]",
        "correlation": "spike(10,0.25,1)",
        "grid": {"start": 10, "factor": 10, "count": 4},
        "seed": 7,
    }
    path = write_config(tmp_path, "probe.json", cfg)
    out = tmp_path / "probe"
    assert main(["run", str(path), "--out", str(out)]) == 0
    values = [float(r[1]) for r in read_rows(out.with_suffix(".csv"))]
    assert values[-1] < values[0]


def dense_probe_config(count: int) -> dict:
    return {
        "kind": "almost-mixing-probe",
        "measure": "uniform[0.5,1.5]",
        "correlation": {"type": "spike", "baseline": 0.25,
                        "centers": [float(j + 1) for j in range(count)],
                        "halfwidths": [0.25] * count, "heights": [1.0] * count,
                        "growth": count / (count - 1.0) * (1.0 - 1e-12)},
        "grid": {"start": 100, "factor": 10, "count": 2},
        "seed": 11,
    }


def float_digest(values: list) -> dict:
    """The .meta record of a long float list, from the packed doubles."""
    data = struct.pack(f"<{len(values)}d", *values)
    return {"length": len(values), "sha256": hashlib.sha256(data).hexdigest()}


def run_meta(tmp_path: Path, name: str, cfg: dict) -> str:
    path = write_config(tmp_path, f"{name}.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / name)]) == 0
    return (tmp_path / f"{name}.meta").read_text()


def test_dense_inline_probe_meta_is_the_stdlib_encoding(tmp_path):
    cfg = dense_probe_config(5001)
    text = run_meta(tmp_path, "dense", cfg)
    doc = json.loads(text)
    spikes = cfg["correlation"]
    assert doc["config"] == dict(cfg, correlation=dict(
        spikes, **{key: float_digest(spikes[key])
                   for key in ("centers", "halfwidths", "heights")}))
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_meta_digest_follows_each_float_list(tmp_path):
    """A rerun writes the same .meta bytes; moving one center by one ulp
    changes that list's digest and nothing else."""
    cfg = dense_probe_config(101)
    text = run_meta(tmp_path, "first", cfg)
    assert run_meta(tmp_path, "again", cfg) == text
    moved = json.loads(json.dumps(cfg))
    centers = moved["correlation"]["centers"]
    centers[50] = math.nextafter(centers[50], math.inf)
    before, after = json.loads(text), json.loads(run_meta(tmp_path, "moved", moved))
    assert after["config"]["correlation"]["centers"] == float_digest(centers)
    assert float_digest(centers) != float_digest(cfg["correlation"]["centers"])
    after["config"]["correlation"]["centers"] = before["config"]["correlation"]["centers"]
    assert after["config"] == before["config"]


def test_meta_metadata_lists_are_never_digested(tmp_path):
    cfg = dict(PROBE_CONFIG, grid={"start": 10, "factor": 1.01, "count": 65})
    doc = json.loads(run_meta(tmp_path, "long-grid", cfg))
    assert len(doc["metadata"]["band_mass"]) == 65
    assert all(isinstance(v, float) for v in doc["metadata"]["band_mass"])


def test_adversary_config(tmp_path):
    cfg = {
        "kind": "adversary",
        "flow": "winding-golden",
        "box": [0.5, 0.5],
        "depth": 4,
        "samples": {"n_pairs": 20000},
        "seed": 8,
    }
    path = write_config(tmp_path, "adv.json", cfg)
    out = tmp_path / "adv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    rows = read_rows(out.with_suffix(".csv"))
    assert len(rows) == 4
    for row in rows:
        n = int(row[0])
        estimate, err = float(row[2]), float(row[3])
        target = float(row[5])
        assert estimate >= target - 1.0 / n - 2.0 ** (-n + 1) - 3.0 * err
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert meta["plan"]["levels"][3]["level"] == 4


def test_partial_adversary_plan_reported_on_stderr(tmp_path, capsys):
    cfg = {
        "kind": "adversary",
        "flow": "winding-golden",
        "box": [0.5, 0.5],
        "depth": 4,
        "max_index": 20,
        "samples": {"n_pairs": 2000},
        "seed": 8,
    }
    path = write_config(tmp_path, "adv.json", cfg)
    out = tmp_path / "adv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "failure_level 3" in err
    assert "no rigidity index up to 20 fits level 3" in err
    assert len(read_rows(out.with_suffix(".csv"))) == 2
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert meta["plan"]["failure_level"] == 3


def test_unknown_flow_exit_2(tmp_path, capsys):
    cfg = dict(AVG_CONFIG, flow="winding-gold")
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "flow" in capsys.readouterr().err


def test_missing_seed_exit_2(tmp_path, capsys):
    cfg = dict(AVG_CONFIG)
    del cfg["seed"]
    path = write_config(tmp_path, "noseed.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "seed" in capsys.readouterr().err



SCAN_CONFIG = {
    "kind": "spectral-scan",
    "spectral": "spectral-lebesgue",
    "measure": "uniform[0,1]",
    "grid": {"start": 1, "factor": 2, "count": 2},
    "seed": 3,
}


def run_bad(tmp_path, capsys, cfg) -> str:
    """Run ``cfg``, require exit 2 with no file written and return the error message."""
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert not list(tmp_path.glob("x.*"))
    return capsys.readouterr().err


def test_invalid_measure_arguments_exit_2(tmp_path, capsys):
    for spec in ("uniform[1,0]", "triangular[2,1]"):
        err = run_bad(tmp_path, capsys, dict(SCAN_CONFIG, measure=spec))
        assert "measure" in err and "a < b" in err


def test_inline_measure_missing_field_exit_2(tmp_path, capsys):
    err = run_bad(tmp_path, capsys,
                  dict(SCAN_CONFIG, measure={"type": "uniform", "a": 0}))
    assert "measure" in err and "'b'" in err


def test_fourier_observable_without_unit_norm_exit_2(tmp_path, capsys):
    doubled = {"type": "fourier",
               "coefficients": [[[0, 1], 1.0, 0.0], [[0, -1], 1.0, 0.0]]}
    for cfg in (dict(AVG_CONFIG, observable=doubled),
                dict(SCAN_CONFIG, spectral=None, flow="winding-golden",
                     observable=doubled)):
        cfg = {k: v for k, v in cfg.items() if v is not None}
        err = run_bad(tmp_path, capsys, cfg)
        assert "observable" in err and "unit L2 norm" in err


def test_spectral_evaluator_needs_a_fourier_observable_exit_2(tmp_path, capsys):
    cfg = dict(AVG_CONFIG, evaluator="spectral", observable="indicator[0.5,0.5]")
    err = run_bad(tmp_path, capsys, cfg)
    assert "observable" in err and "Fourier" in err

def test_unreadable_config_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"5",
    b"null",
    json.dumps(dict(SCAN_CONFIG, note="caf\u00e9"), ensure_ascii=False).encode("latin-1"),
], ids=["number", "null", "latin-1"])
def test_config_not_a_utf8_json_object_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config: invalid JSON: ")
    assert not list(tmp_path.glob("x.*"))


def test_output_io_failure_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "avg.json", AVG_CONFIG)
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    out = blocker / "sub" / "prefix"  # parent is a regular file
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "writing outputs" in capsys.readouterr().err


@pytest.mark.parametrize("out", [5, {"x": 1}, True])
def test_config_out_that_is_not_a_string_exit_2(tmp_path, monkeypatch, capsys, out):
    cfg = write_config(tmp_path, "avg.json", {**AVG_CONFIG, "out": out})
    monkeypatch.chdir(tmp_path)     # a stringified prefix would land here
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error at out: must be a non-empty string")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["avg.json"]


def test_successive_main_calls_keep_no_state(tmp_path, capsys):
    cfg = write_config(tmp_path, "avg.json",
                       {**AVG_CONFIG, "out": str(tmp_path / "from-config")})
    given = tmp_path / "given"
    assert main(["run", str(cfg), "--out", str(given), "--threads", "2"]) == 0
    assert capsys.readouterr().out.split() == [str(given) + ".csv", str(given) + ".meta"]
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().out.split() == [str(tmp_path / "from-config.csv"),
                                               str(tmp_path / "from-config.meta")]
    assert main(["presets"]) == 0
    assert capsys.readouterr().out == list_presets()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg), "--threads", "x"])
        assert exc.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
    assert given.with_suffix(".csv").read_bytes() == (tmp_path / "from-config.csv").read_bytes()


def test_threaded_run_process_exits_promptly(tmp_path):
    cfg = write_config(tmp_path, "avg.json", AVG_CONFIG)
    src = str(Path(homavg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "homavg.cli", "run", str(cfg),
                           "--out", str(tmp_path / "avg"), "--threads", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "avg.meta").exists()


PROFILED_SCAN = {
    "kind": "spectral-scan",
    "measure": "gauss-trunc",
    "spectral": {"type": "spectral", "atoms": [[2.0, 0.3]],
                 "band": {"lo": -1.5, "hi": 1.0, "mass": 0.7, "profile": [1, 3, 2]}},
    "grid": {"start": 5, "factor": 4, "count": 2},
    "seed": 1,
}


def test_profiled_band_scan_has_no_failed_points(tmp_path):
    path = write_config(tmp_path, "profiled.json", PROFILED_SCAN)
    out = tmp_path / "profiled"
    assert main(["run", str(path), "--out", str(out)]) == 0
    values = [float(r[1]) for r in read_rows(out.with_suffix(".csv"))]
    assert len(values) == 2 and all(np.isfinite(values))
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert "failed_points" not in meta["metadata"]


def test_unconverged_band_quadrature_lands_in_failed_points(tmp_path, monkeypatch):
    """A self-similar weight of ratio sum 1.1 has no exact band term, so its
    band goes to ``adaptive_gl``; allowed no doubling, that raises AccuracyError."""
    from homavg import quadrature
    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 0)
    measure = {"type": "self-similar", "ratios": [0.55, 0.55], "shifts": [0.0, 0.45],
               "weights": [0.5, 0.5]}
    path = write_config(tmp_path, "scan.json", dict(SCAN_CONFIG, measure=measure))
    out = tmp_path / "scan"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert [r[1:] for r in read_rows(out.with_suffix(".csv"))] == [["nan", "nan"]] * 2
    failed = json.loads(out.with_suffix(".meta").read_text())["metadata"]["failed_points"]
    assert sorted(failed) == ["0", "1"]
    assert all(reason.startswith("AccuracyError('quadrature on [-1.0, 1.0] did not reach")
               for reason in failed.values())


def test_self_similar_point_mass_exit_2(tmp_path, capsys):
    """Maps sharing one fixed point make a point mass, not a singular weight."""
    doc = {"type": "self-similar", "ratios": [0.5, 0.5], "shifts": [0.25, 0.25],
           "weights": [0.5, 0.5]}
    err = run_bad(tmp_path, capsys, dict(SCAN_CONFIG, measure=doc))
    assert err.startswith("config error at measure: ") and "point mass" in err


ROOT_CONFIG = dict(SCAN_CONFIG, kind="convolution-root")
MC_CONFIG = dict(AVG_CONFIG, evaluator="l1-mc", samples={"n_x": 10, "n_r": 10})
PROBE_CONFIG = {"kind": "almost-mixing-probe", "measure": "uniform[0,1]",
                "correlation": "spike(10,0.25,1)",
                "grid": {"start": 10, "factor": 10, "count": 2}, "seed": 7}
ADVERSARY_CONFIG = {"kind": "adversary", "flow": "winding-golden",
                    "box": [0.5, 0.5], "depth": 2, "seed": 8}
POINT_MASS = {"type": "point-mass", "at": 0.5}


@pytest.mark.parametrize("cfg", [
    pytest.param(dict(AVG_CONFIG, evaluator="spectral"), id="avg-scan-spectral"),
    pytest.param(MC_CONFIG, id="avg-scan-l1-mc"),
    pytest.param(SCAN_CONFIG, id="spectral-scan"),
    pytest.param(ROOT_CONFIG, id="convolution-root"),
    pytest.param(PROBE_CONFIG, id="almost-mixing-probe"),
])
@pytest.mark.parametrize("measure", [
    pytest.param(POINT_MASS, id="point-mass"),
    pytest.param({"type": "convolution", "components": [POINT_MASS, POINT_MASS]}, id="two-atoms"),
])
def test_weight_with_an_atom_exit_2(tmp_path, capsys, cfg, measure):
    err = run_bad(tmp_path, capsys, dict(cfg, measure=measure))
    assert err.startswith("config error at measure: ") and "atom" in err


def test_point_mass_still_resolves_for_the_library():
    # a point mass is the identity of convolution, so presets keep accepting it
    assert not presets.resolve_measure(POINT_MASS).atomless


def test_float_golden_adversary_builds_a_partial_plan(tmp_path, capsys):
    """A float slope is the dyadic rational it stores: its times run past golden's
    and then along the multiples of its denominator 2**49, where no level 4 fits."""
    flow = {"type": "torus-winding", "alpha": [1.0, 0.6180339887498949]}
    cfg = dict(ADVERSARY_CONFIG, flow=flow, depth=4, samples={"n_pairs": 2000})
    path = write_config(tmp_path, "adv.json", cfg)
    out = tmp_path / "adv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "adversary plan partial: failure_level 4" in err
    assert len(read_rows(out.with_suffix(".csv"))) == 3
    levels = json.loads(out.with_suffix(".meta").read_text())["plan"]["levels"]
    assert [lev["time"] for lev in levels] == [5, 987, 31123167203]


@pytest.mark.parametrize("base, change, field", [
    (SCAN_CONFIG, {"seed": "x"}, "seed"),
    (SCAN_CONFIG, {"seed": -1}, "seed"),
    (SCAN_CONFIG, {"seed": 2.5}, "seed"),
    (SCAN_CONFIG, {"grid": {"start": 0, "factor": 2, "count": 2}}, "grid.start"),
    (SCAN_CONFIG, {"grid": {"start": 1, "factor": float("inf"), "count": 2}}, "grid.factor"),
    (SCAN_CONFIG, {"grid": {"start": 1, "factor": 2, "count": "two"}}, "grid.count"),
    (SCAN_CONFIG, {"grid": [1, 2, 2]}, "grid"),
    (ROOT_CONFIG, {"power": 1}, "power"),
    (MC_CONFIG, {"samples": 5}, "samples"),
    (MC_CONFIG, {"samples": {"n_x": 0}}, "samples.n_x"),
    (MC_CONFIG, {"samples": {"n_r": True}}, "samples.n_r"),
    (PROBE_CONFIG, {"samples": {"n_pairs": -3}}, "samples.n_pairs"),
    (PROBE_CONFIG, {"band_halfwidth": -1}, "band_halfwidth"),
    (PROBE_CONFIG, {"band_halfwidth": float("nan")}, "band_halfwidth"),
    (ADVERSARY_CONFIG, {"depth": "x"}, "depth"),
    (ADVERSARY_CONFIG, {"depth": 0}, "depth"),
    (ADVERSARY_CONFIG, {"max_index": 0}, "max_index"),
    (ADVERSARY_CONFIG, {"samples": {"n_pairs": 1e3 + 0.5}}, "samples.n_pairs"),
    (PROBE_CONFIG, {"correlation": "spike(10,0.25,1,2.5)"}, "correlation"),
    (PROBE_CONFIG, {"correlation": "spike(10,0.25,1,400)"}, "correlation"),
    (ADVERSARY_CONFIG, {"flow": "winding-periodic[2.5]"}, "flow"),
    # a grid that leaves the float range: inf, or OverflowError from factor ** k
    (SCAN_CONFIG, {"grid": {"start": 1e300, "factor": 1e10, "count": 3}}, "grid"),
    (SCAN_CONFIG, {"grid": {"start": 1, "factor": 1e10, "count": 40}}, "grid"),
    # the adversary is built on d = 2 windings, with one box side per coordinate
    (ADVERSARY_CONFIG, {"box": [0.5, 0.5, 0.5]}, "box"),
    (ADVERSARY_CONFIG, {"box": [0.5]}, "box"),
    (ADVERSARY_CONFIG, {"flow": "winding-circle"}, "flow"),
    (ADVERSARY_CONFIG, {"flow": "winding-circle", "box": [0.5]}, "flow"),
    (ADVERSARY_CONFIG, {"box": [0.5, "x"]}, "box"),
    (ADVERSARY_CONFIG, {"box": 5}, "box"),
    # a winding's alpha entries are finite real numbers, not strings or booleans
    (MC_CONFIG, {"flow": {"alpha": [1.0, math.nan]}}, "flow"),
    (MC_CONFIG, {"flow": {"alpha": [1.0, "0.3"]}}, "flow"),
    (MC_CONFIG, {"flow": {"alpha": [1.0, True]}}, "flow"),
    (ADVERSARY_CONFIG, {"flow": {"alpha": [1.0, math.inf]}}, "flow"),
    (SCAN_CONFIG, {"kind": "scan"}, "kind"),
    (AVG_CONFIG, {"evaluator": "exact"}, "evaluator"),
    (PROBE_CONFIG, {"correlation": {"type": "bochner", "spectrum": {
        "type": "spectral", "atoms": [[1.0, 1.0]], "band": None}}}, "correlation"),
])
def test_bad_numeric_field_exit_2(tmp_path, capsys, base, change, field):
    err = run_bad(tmp_path, capsys, {**base, **change})
    assert err.startswith(f"config error at {field}: ")


def spike_document(centers, halfwidths, heights) -> dict:
    return {"type": "spike", "baseline": 0.25, "centers": centers,
            "halfwidths": halfwidths, "heights": heights, "growth": 2.0}


@pytest.mark.parametrize("centers", [
    [[2.0]],
    [[2.0]] * 100,
    [[2.0 * 3.0 ** j] for j in range(100)],
], ids=["one", "100-equal", "100-growing"])
def test_nested_spike_lists_exit_2(tmp_path, capsys, centers):
    """Lists of one-item lists are no spike vectors: they ran to all-NaN
    rows, or failed as centers that do not grow."""
    count = len(centers)
    doc = spike_document(centers, [[0.25]] * count, [[1.0]] * count)
    err = run_bad(tmp_path, capsys, dict(PROBE_CONFIG, correlation=doc))
    assert err.startswith("config error at correlation: ") and "1-d" in err


def test_long_string_spike_lists_exit_2(tmp_path, capsys):
    doc = spike_document(["2"] * 100, ["0.25"] * 100, ["1"] * 100)
    err = run_bad(tmp_path, capsys, dict(PROBE_CONFIG, correlation=doc))
    assert err.startswith("config error at correlation: ")


@pytest.mark.parametrize("depth", [600, 100_000])
def test_deeply_nested_config_exit_2(tmp_path, capsys, depth):
    """A config nested deeper than the reader or the .meta writer recurses
    exits 2 and writes nothing."""
    notes = "[" * depth + "]" * depth
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(SCAN_CONFIG)[:-1] + f', "notes": {notes}}}')
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config: ")
    assert not list(tmp_path.glob("x.*"))


def test_non_finite_atom_document_exit_2(tmp_path, capsys):
    doc = {"type": "spectral", "atoms": [[1.0, float("nan")]], "band": None}
    err = run_bad(tmp_path, capsys, dict(SCAN_CONFIG, spectral=doc))
    assert err.startswith("config error at spectral: ") and "finite" in err


def test_non_finite_preset_argument_exit_2(tmp_path, capsys):
    err = run_bad(tmp_path, capsys, dict(SCAN_CONFIG, measure="gauss-trunc[nan,0.2,0,1]"))
    assert err.startswith("config error at measure: ") and "finite" in err


INF = float("inf")


@pytest.mark.parametrize("measure", [
    "uniform[0,inf]",
    "triangular[-inf,0]",
    "gauss-trunc[0.5,inf,0,1]",
    "gauss-trunc[0,1,0,inf]",
    pytest.param({"type": "scaled", "factor": INF,
                  "inner": {"type": "uniform", "a": 0, "b": 1}}, id="scaled-factor"),
    pytest.param({"type": "point-mass", "at": INF}, id="point-mass-at"),
    pytest.param({"type": "table", "lo": 0.0, "hi": INF, "masses": [1.0, 2.0]},
                 id="table-hi"),
])
def test_infinite_measure_parameter_exit_2(tmp_path, capsys, measure):
    err = run_bad(tmp_path, capsys, dict(SCAN_CONFIG, measure=measure))
    assert err.startswith("config error at measure: ") and "finite" in err


def test_no_output_prefix_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "noout.json", SCAN_CONFIG)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error at out: ")
    assert list(tmp_path.iterdir()) == [path]


def test_auto_evaluator_takes_l1_mc_on_an_indicator(tmp_path):
    cfg = dict(AVG_CONFIG, observable="indicator[0.5,0.5]", samples={"n_x": 10, "n_r": 10})
    out = tmp_path / "auto"
    assert main(["run", str(write_config(tmp_path, "auto.json", cfg)), "--out", str(out)]) == 0
    meta = json.loads(out.with_suffix(".meta").read_text())
    assert meta["metadata"]["evaluator"] == "l1-mc"
    assert len(read_rows(out.with_suffix(".csv"))) == 4
