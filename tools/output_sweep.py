"""python3 tools/output_sweep.py <outdir>: the outputs of every benchmark
template and of a law matrix, through ``homavg.cli.main`` at ``--threads 1``
and ``2``, for ``--compare`` between two trees.  Templates run at seeds 1 and
2001, rounds 0-2 and the top round (round 0 and the top round for
rigidity-adversary).  The law matrix runs sixteen weights, covering every
exact band term and pair view, two more truncated Gaussians whose pair views
place their knots where the mass lives (``gauss-narrow``, sigma 0.05, and
``gauss-tail``, the mean 3 above [0, 1]), a self-similar weight too dense
for the digit walk (``bernoulli``, M ratio > 1) and one of unequal ratios with no digit
law (``uniform-split``: Uniform(0, 1) as the maps of ratios 1/2, 1/4, 1/4,
so its spectral rows match ``uniform``'s within the ``expect`` tolerance,
a shift keeping |nu_hat|), a nested-interval weight with unequal
widths at one level (``nested``), whose transform takes one width per
interval, and the depth-4 golden adversary weight on the box (0.5, 0.5)
(``golden-adversary``), whose leaf widths, 7.0e-52, are far below the
rounding of its leaf ends, on three spectra as ``spectral-scan``
and ``convolution-root`` at powers 2 and 3, plus one probe per weight and
a 500-spike arithmetic probe on ``cantor-thirds`` at t = 2 ... 50, where
the kink walk meets many kinks.  Each weight also takes two ``avg-scan``
``l1-mc`` rows that no benchmark template reaches: an inline Fourier
observable of three complex mode pairs, two of them off the axes, on the
golden winding (``fourier-l1``), and an indicator on an inline d = 3
winding (``box3-l1``).  The weights with a digit law also take a
wide ``spectral-scan`` on the flat and the atom-profiled spectrum, t = 2 ...
1250, where the digit walk runs up to 8 levels.  Two depth-6 adversary runs
(golden and Pell windings, box (0.5, 0.5)) reach scales near 10^465.
Every law-matrix weight with a pair view also writes
``laws/<weight>-pairs.json``: ``pair_correlation_integral`` by quadrature
of ``spike(10,0.25,1)``, the 500-spike arithmetic correlation and the
golden box (0.5, 0.4) at t = 0, 2, 10 and 50, a pair path that no CLI kind
reaches for the box and the walked spikes.

python3 tools/output_sweep.py --compare <old> <new>: for two such trees,
whether each file's bytes match, the largest absolute and relative gap of
every numeric CSV column and JSON leaf (list indices written []) in each
file that differs, a summary by template and weight, and whether each
tree's ``--threads 1`` and ``2`` outputs are byte-identical (exit 1 if not).
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
from homavg import (BoxAutocorrelation, BoxSet, build_adversarial_measure, cli,  # noqa: E402
                    golden_winding, presets, serialize)
from homavg.engine import difference_density, pair_correlation_integral  # noqa: E402
import workloads  # noqa: E402

CANTOR = {"type": "self-similar", "ratios": [1 / 3, 1 / 3], "shifts": [0.0, 2 / 3],
          "weights": [0.5, 0.5]}
WEIGHTS = {
    "uniform": "uniform[0.25,1.25]", "triangular": "triangular[0.5,2.5]",
    "gauss-trunc": "gauss-trunc[0.5,0.2,0,1]", "gauss-narrow": "gauss-trunc[0.3,0.05,0,1]",
    "gauss-tail": "gauss-trunc[3,0.5,0,1]", "cantor": "cantor-thirds",
    "dyadic-odd": "dyadic-odd", "dyadic-even": "dyadic-even",
    "table": {"type": "table", "lo": 0.0, "hi": 1.5, "masses": [1.0, 3.0, 2.0]},
    "nested-scaled-uniform": {"type": "scaled", "factor": 3.0, "inner": {
        "type": "scaled", "factor": 0.5, "inner": {"type": "uniform", "a": 0.0, "b": 1.0}}},
    "scaled-triangular": {"type": "scaled", "factor": 2.0,
                          "inner": {"type": "triangular", "a": 1.0, "b": 3.0}},
    "scaled-cantor": {"type": "scaled", "factor": 0.7, "inner": CANTOR},
    "bernoulli": {"type": "self-similar", "ratios": [0.45, 0.45], "shifts": [0.0, 0.55],
                  "weights": [0.5, 0.5]},
    "uniform-split": {"type": "self-similar", "ratios": [0.5, 0.25, 0.25],
                      "shifts": [0.0, 0.5, 0.75], "weights": [0.5, 0.25, 0.25]},
    "nested": {"type": "nested-intervals", "levels": [
        [["0/1", "2/5"], ["1/2", "1/1"]],
        [["0/1", "1/10"], ["3/10", "2/5"], ["1/2", "11/20"], ["4/5", "1/1"]]]},
    "golden-adversary": serialize.measure_to_doc(
        build_adversarial_measure(golden_winding(), BoxSet((0.5, 0.5)), 4).measure()),
}
SPECTRA = {"flat": {"spectral": "spectral-lebesgue"},
           "golden-atoms": {"flow": "winding-golden", "observable": "cos-x2"},
           "atom-profiled": {"spectral": {"type": "spectral", "atoms": [[2.0, 0.3]], "band": {
               "lo": -1.5, "hi": 1.0, "mass": 0.7, "profile": [1.0, 3.0, 2.0]}}}}
GRID = {"start": 2.0, "factor": 5.0, "count": 3}
MC_ROWS = {
    "fourier-l1": {"flow": "winding-golden", "observable": {"type": "fourier", "coefficients": [
        [[1, 2], 0.3, 0.2], [[-1, -2], 0.3, -0.2], [[2, -1], -0.15, 0.1], [[-2, 1], -0.15, -0.1],
        [[0, 1], 0.25, -0.4], [[0, -1], 0.25, 0.4]]}},
    "box3-l1": {"flow": {"type": "torus-winding", "alpha": [1.0, 0.6180339887498949,
                                                          0.41421356237309503]},
                "observable": "indicator[0.5,0.3,0.7]"},
}
MC_SAMPLES = {"n_x": 200, "n_r": 500}
WIDE = ("cantor", "dyadic-odd", "dyadic-even", "scaled-cantor")
WIDE_GRID = {"start": 2.0, "factor": 5.0, "count": 5}
PAIR_TIMES = (0.0, 2.0, 10.0, 50.0)
PAIR_CORRELATIONS = {
    "spike": presets.resolve_correlation("spike(10,0.25,1)"),
    "arithmetic-500": presets.resolve_correlation(workloads._arithmetic_spikes(500)),
    "golden-box": BoxAutocorrelation(golden_winding(), BoxSet((0.5, 0.4))),
}


def configs():
    for workload in workloads.WORKLOADS:
        rounds = (0,) if workload == "rigidity-adversary" else (0, 1, 2)
        for seed in (1, 2001):
            stream = workloads.ConfigStream(workload, seed)
            batches = [(f"r{k}", stream.round(k)) for k in rounds]
            for tag, batch in batches + [("top", stream.top_round())]:
                for template, cfg in batch:
                    yield f"{workload}/s{seed}-{tag}-{template}", cfg
    for name, weight in WEIGHTS.items():
        for label, spectrum in SPECTRA.items():
            base = {"measure": weight, "grid": GRID, "seed": 5, **spectrum}
            yield f"laws/{name}-{label}-scan", {"kind": "spectral-scan", **base}
            for power in (2, 3):
                yield (f"laws/{name}-{label}-root{power}",
                       {"kind": "convolution-root", "power": power, **base})
            if name in WIDE and label != "golden-atoms":
                yield f"laws/{name}-{label}-wide", {"kind": "spectral-scan", **base,
                                                    "grid": WIDE_GRID}
        for label, body in MC_ROWS.items():
            yield f"laws/{name}-{label}", {"kind": "avg-scan", "evaluator": "l1-mc",
                                           "measure": weight, "grid": GRID,
                                           "samples": MC_SAMPLES, "seed": 5, **body}
        yield f"laws/{name}-probe", {"kind": "almost-mixing-probe", "measure": weight,
                                     "correlation": "spike(10,0.25,1)", "grid": GRID,
                                     "samples": {"n_pairs": 2000}, "seed": 5}
    for flow in ("winding-golden", "winding-pell"):
        yield f"deep/{flow}-depth6", {"kind": "adversary", "flow": flow, "box": [0.5, 0.5],
                                      "depth": 6, "samples": {"n_pairs": 100_000}, "seed": 5}
    yield "laws/cantor-dense-probe", {"kind": "almost-mixing-probe", "measure": "cantor-thirds",
                                      "correlation": workloads._arithmetic_spikes(500),
                                      "grid": GRID, "samples": {"n_pairs": 2000}, "seed": 5}


def pair_values(weight) -> dict | None:
    """{correlation: [[t, value, error], ...]} by pair quadrature, or None
    for a weight without a pair view."""
    measure = presets.resolve_measure(weight)
    if difference_density(measure) is None:
        return None
    out = {}
    for label, model in PAIR_CORRELATIONS.items():
        out[label] = []
        for t in PAIR_TIMES:
            got = pair_correlation_integral(model, measure, t, method="quadrature")
            out[label].append([t, got.value, got.error])
    return out


def main(outdir: str) -> None:
    out = Path(outdir)
    for name, weight in WEIGHTS.items():
        values = pair_values(weight)
        if values is not None:
            (out / "laws").mkdir(parents=True, exist_ok=True)
            (out / "laws" / f"{name}-pairs.json").write_text(json.dumps(values, indent=1) + "\n")
    for name, cfg in configs():
        path = out / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg))
        for threads in ("1", "2"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(path), "--out", f"{out / name}-t{threads}",
                                 "--threads", threads])
            if code != 0:
                raise SystemExit(f"{name} at --threads {threads}: exit {code}")


def _entries(path: Path) -> dict[str, list]:
    """The numbers of an output file by entry: a CSV's columns by header, a
    JSON document's numeric leaves by path with list indices as []; a cell
    or leaf that is not a number stays as it is."""
    text = path.read_text()
    out: dict[str, list] = {}
    if path.suffix == ".csv":
        header, *rows = [line.split(",") for line in text.splitlines()]
        for row in rows:
            for name, cell in zip(header, row):
                try:
                    out.setdefault(name, []).append(float(cell))
                except ValueError:
                    out.setdefault(name, []).append(cell)
        return out

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key + "[]")
        else:
            out.setdefault(key, []).append(node)
    walk(json.loads(text), "")
    return out


def _gap(a, b) -> tuple[float, float]:
    """(absolute, relative) gap of two entries: 0 for equal ones (NaN
    equals NaN), inf unless both are numbers a finite distance apart."""
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return math.inf, math.inf
    diff = abs(a - b)     # NaN against a number, or an infinity, is not finite
    return (diff, diff / max(abs(a), abs(b))) if math.isfinite(diff) else (math.inf, math.inf)


def file_gaps(old: Path, new: Path) -> dict[str, tuple[float, float]]:
    """{entry: (largest absolute, largest relative gap)} over the entries of
    two files that differ; an entry whose count differs has gap inf."""
    a, b = _entries(old), _entries(new)
    gaps = {}
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, []), b.get(key, [])
        pairs = [_gap(u, v) for u, v in zip(x, y)] if len(x) == len(y) else [(math.inf,) * 2]
        worst = (max(g[0] for g in pairs), max(g[1] for g in pairs)) if pairs else (0.0, 0.0)
        if worst != (0.0, 0.0):
            gaps[key] = worst
    return gaps


def group(rel: str) -> tuple[str, str]:
    """(template, weight) of an output file: a workload's template (seed
    and round dropped), or a law-matrix run without its weight."""
    directory, stem = rel.split("/", 1) if "/" in rel else ("", rel)
    stem = re.sub(r"(-t[12])?\.(csv|meta|json)$", "", stem)
    if directory == "laws":
        weight = max((w for w in WEIGHTS if stem.startswith(w + "-")), key=len, default="")
        return (stem[len(weight) + 1:], weight) if weight else (stem, "-")
    return f"{directory}/{re.sub(r'^s[0-9]+-(r[0-9]+|top)-', '', stem)}", "-"


def thread_mismatches(root: Path) -> tuple[int, list[str]]:
    """(pairs, differing): every ``-t1`` output of a tree against its
    ``-t2`` twin, byte for byte."""
    pairs, differing = 0, []
    for one in sorted(root.rglob("*-t1.*")):
        two = one.with_name(one.name.replace("-t1.", "-t2."))
        pairs += 1
        if not two.is_file() or one.read_bytes() != two.read_bytes():
            differing.append(str(one.relative_to(root)))
    return pairs, differing


def compare(old: Path, new: Path) -> dict:
    """The report of two sweep trees: ``files`` maps each relative path to
    "same", "only in old", "only in new" or its ``file_gaps`` (empty when
    the bytes differ outside any number); ``groups`` maps (template,
    weight) to [files, differing, largest absolute, largest relative gap];
    ``threads`` maps "old" and "new" to ``thread_mismatches``."""
    listing = lambda root: {str(f.relative_to(root)) for f in root.rglob("*") if f.is_file()}
    in_old, in_new = listing(old), listing(new)
    files, groups = {}, {}
    for rel in sorted(in_old | in_new):
        if rel not in in_new or rel not in in_old:
            status = "only in new" if rel in in_new else "only in old"
        elif (old / rel).read_bytes() == (new / rel).read_bytes():
            status = "same"
        else:
            status = file_gaps(old / rel, new / rel)
        files[rel] = status
        row = groups.setdefault(group(rel), [0, 0, 0.0, 0.0])
        row[0] += 1
        if status != "same":
            row[1] += 1
            worst = status.values() if isinstance(status, dict) else [(math.inf,) * 2]
            row[2] = max([row[2], *(g[0] for g in worst)])
            row[3] = max([row[3], *(g[1] for g in worst)])
    return {"files": files, "groups": groups,
            "threads": {"old": thread_mismatches(old), "new": thread_mismatches(new)}}


def print_report(report: dict) -> None:
    files = report["files"]
    for rel, status in files.items():
        print(f"{'same' if status == 'same' else 'DIFFERS':8} {rel}"
              + (f"  ({status})" if isinstance(status, str) and status != "same" else ""))
        if isinstance(status, dict):
            for key, (a, r) in status.items():
                print(f"         {key}: abs {a:.3g}, rel {r:.3g}")
    same = sum(status == "same" for status in files.values())
    print(f"\n{same} of {len(files)} files byte-identical")
    for side, (pairs, differing) in report["threads"].items():
        print(f"--threads 1 vs 2 in {side}: {pairs} pairs, {len(differing)} differ")
        for rel in differing:
            print(f"  {rel}")
    print("\ntemplate | weight | files | differ | max abs | max rel")
    for (template, weight), (count, differ, a, r) in sorted(report["groups"].items()):
        if differ:
            print(f"{template} | {weight} | {count} | {differ} | {a:.3g} | {r:.3g}")
    print(f"({sum(not row[1] for row in report['groups'].values())} more groups byte-identical)")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        report = compare(Path(sys.argv[2]), Path(sys.argv[3]))
        print_report(report)
        raise SystemExit(1 if any(d for _, d in report["threads"].values()) else 0)
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 tools/output_sweep.py <outdir>\n"
                         "       python3 tools/output_sweep.py --compare <old> <new>")
    main(sys.argv[1])
