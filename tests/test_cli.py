import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import homavg
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


def test_unreadable_config_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "config" in capsys.readouterr().err


def test_output_io_failure_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "avg.json", AVG_CONFIG)
    blocker = tmp_path / "blocker"
    blocker.write_text("plain file")
    out = blocker / "sub" / "prefix"  # parent is a regular file
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "writing outputs" in capsys.readouterr().err
