"""The output ledger: ``tools/output_sweep.py --compare`` on two tiny
synthetic sweep trees (the sweep itself takes about 40 s and is not run)."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_sweep", ROOT / "tools" / "output_sweep.py")
output_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_sweep)


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_compare_reports_bytes_gaps_groups_and_threads(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    meta = {"metadata": {"band_mass": [0.5, 0.125], "kind": "probe"}, "versions": {"numpy": "2"}}
    for root in (old, new):
        for threads in ("1", "2"):
            write(root, f"spectral-decay/s1-r0-band-uniform-t{threads}.csv",
                  "t,value,error\n2,0.5,0\n10,0.25,nan\n")
            value = "0.5000000000000001" if root == new else "0.5"
            write(root, f"laws/nested-scaled-uniform-flat-scan-t{threads}.csv",
                  f"t,value,error\n2,{value},0\n10,0.25,0\n")
            meta["metadata"]["band_mass"][1] = 0.126 if root == new else 0.125
            meta["metadata"]["kind"] = "other" if (root, threads) == (new, "2") else "probe"
            write(root, f"laws/cantor-probe-t{threads}.meta", json.dumps(meta))
    write(old, "deep/winding-golden-depth6.json", "{}")

    report = output_sweep.compare(old, new)
    files = report["files"]
    assert files["spectral-decay/s1-r0-band-uniform-t1.csv"] == "same"     # NaN included
    assert files["deep/winding-golden-depth6.json"] == "only in old"
    ulp = 2.0 ** -53
    assert files["laws/nested-scaled-uniform-flat-scan-t2.csv"] == {
        "value": pytest.approx((ulp, ulp / (0.5 + ulp)), rel=1e-12)}
    assert files["laws/cantor-probe-t1.meta"] == {
        "metadata.band_mass[]": pytest.approx((1e-3, 1e-3 / 0.126), rel=1e-9)}
    assert files["laws/cantor-probe-t2.meta"]["metadata.kind"] == (math.inf, math.inf)

    groups = report["groups"]
    assert groups["spectral-decay/band-uniform", "-"] == [2, 0, 0.0, 0.0]
    assert groups["flat-scan", "nested-scaled-uniform"][:3] == [2, 2, pytest.approx(ulp)]
    assert groups["probe", "cantor"][:3] == [2, 2, math.inf]
    assert groups["deep/winding-golden-depth6", "-"] == [1, 1, math.inf, math.inf]
    assert report["threads"] == {"old": (3, []), "new": (3, ["laws/cantor-probe-t1.meta"])}

    output_sweep.print_report(report)
    printed = capsys.readouterr().out
    assert "DIFFERS  laws/cantor-probe-t1.meta" in printed
    assert "2 of 7 files byte-identical" in printed
    assert "--threads 1 vs 2 in new: 3 pairs, 1 differ" in printed
    assert "probe | cantor | 2 | 2 | inf | inf" in printed
