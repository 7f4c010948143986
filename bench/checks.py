"""Correctness checks on the benchmark's outputs, run outside the timed loop.

Every config the loop ran is checked: exit code, NaN rows, flagged points,
partial adversary plans, and a kind-specific property.  Where an independent
reference exists, the gap to it is recorded per point:

* uniform weight on the flat band:  ||A_t f||^2 = (2/s)(Si(s) - 2 sin^2(s/2)/s),
  s = t * width, via scipy.special.sici;
* l1-mc with cos-x2: the exact L1 deviation (2 sqrt 2 / pi) |nu_hat(2 pi t alpha_2)|,
  with nu_hat computed here (sinc, a fine Simpson rule, or the Cantor product);
* adversary levels: Monte Carlo against exact quadrature, and the level value
  above the mixing value mu(A)^2 for n >= 2;
* sparse probe points on density weights: the quadrature value against an
  independent sampling estimate.

The statistical comparisons (adversary, sparse probe) use the 3-sigma form of
the acceptance criteria, corrected for the number of comparisons in one run
(Bonferroni, family-wise false-alarm rate FAMILY_ALPHA), so that a correct
program fails a run with probability below 1e-4.  Adversary z-scores are also
pooled per run, which catches a systematic bias far smaller than one sigma.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy.special import sici

from workloads import PROBE_PAIRS, SLOPES

FAMILY_ALPHA = 1e-4
POOLED_Z = 4.0
SI_TOL = 1e-9            # the agreement ROADMAP item 3 gates a closed form on
CONTRACTION_SLACK = 1e-9
DESCENT_SLACK = 1e-9
_PRESET = re.compile(r"^([a-z-]+)(?:\[([^\]]*)\])?$")


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().split("\n")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _preset(spec: str) -> tuple[str, list[float]]:
    m = _PRESET.match(spec)
    args = [float(v) for v in m.group(2).split(",")] if m.group(2) else []
    return m.group(1), args


# ---------------------------------------------------------------------------
# independent transforms
# ---------------------------------------------------------------------------

def char_abs(spec: str, xi: float) -> float:
    """|nu_hat(xi)| for the weight presets the workloads use."""
    name, args = _preset(spec)
    if name in ("uniform", "triangular"):
        width = args[1] - args[0]
        half = width / 2 if name == "uniform" else width / 4
        val = abs(np.sinc(xi * half / np.pi))
        return float(val if name == "uniform" else val * val)
    if name == "cantor-thirds":
        # middle thirds: nu_hat(xi) = e^{i xi/2} prod_k cos(xi / 3^k)
        out, scale = 1.0, xi / 3.0
        while abs(scale) > 1e-12:
            out *= math.cos(scale)
            scale /= 3.0
        return abs(out)
    if name == "gauss-trunc":
        mu, sigma, lo, hi = args
        cells = max(4000, int(abs(xi) * (hi - lo)) * 16)
        x = np.linspace(lo, hi, 2 * cells + 1)
        dens = np.exp(-0.5 * ((x - mu) / sigma) ** 2)
        w = np.ones(len(x))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (x[1] - x[0]) / 3.0
        return float(abs(np.sum(w * dens * np.exp(1j * xi * x))) / np.sum(w * dens))
    raise ValueError(f"no reference transform for {spec!r}")


def uniform_band_sq(t: float, width: float) -> float:
    s = t * width
    return 2.0 / s * (sici(s)[0] - 2.0 * math.sin(s / 2.0) ** 2 / s)


# ---------------------------------------------------------------------------
# per-config checks
# ---------------------------------------------------------------------------

class Findings:
    """Failures and per-point gaps of one run."""

    def __init__(self):
        self.failures: list[str] = []
        self.gaps: list[dict] = []
        self.stat: list[dict] = []      # statistical comparisons, judged together

    def gap(self, config: str, check: str, t, gap: float, tol: float) -> None:
        ok = bool(gap <= tol)
        self.gaps.append({"config": config, "check": check, "t": t,
                          "gap": gap, "tol": tol, "ok": ok})
        if not ok:
            self.failures.append(f"{config}: {check} at t={t}: gap {gap:.3g} > {tol:.3g}")

    def fail(self, config: str, what: str) -> None:
        self.failures.append(f"{config}: {what}")


def check_config(cid: str, template: str, cfg: dict, csv_text: str, meta: dict,
                 out: Findings) -> None:
    header, rows = parse_csv(csv_text)
    if not rows:
        out.fail(cid, "no rows")
        return
    if any(math.isnan(v) for row in rows for v in row):
        out.fail(cid, "NaN row")
    kind = cfg["kind"]
    if kind == "adversary":
        _check_adversary(cid, meta, header, rows, out)
        return
    md = meta.get("metadata", {})
    if md.get("failed_points"):
        out.fail(cid, f"failed points {sorted(md['failed_points'])}")
    if kind == "spectral-scan":
        for t, v, _ in rows:
            if not (0.0 <= v <= 1.0 + CONTRACTION_SLACK):
                out.fail(cid, f"||A_t f|| = {v} outside [0, 1] at t={t}")
        if template == "band-uniform":
            name, (a, b) = _preset(cfg["measure"])
            for t, v, _ in rows:
                out.gap(cid, "uniform-band-si", t, abs(v * v - uniform_band_sq(t, b - a)), SI_TOL)
    elif kind == "convolution-root":
        for key, (lhs, rhs, passed) in md.get("descent", {}).items():
            if not passed or lhs > rhs + DESCENT_SLACK:
                out.fail(cid, f"descent inequality fails at t={key}")
    elif kind == "avg-scan":
        for t, v, e in rows:
            if not (0.0 <= v <= 2.0 and e > 0):
                out.fail(cid, f"deviation {v} +- {e} implausible at t={t}")
        if cfg["observable"] == "cos-x2":
            alpha2 = SLOPES[cfg["flow"]]
            for t, v, e in rows:
                nu = char_abs(cfg["measure"], 2 * math.pi * t * alpha2)
                exact = 2.0 * math.sqrt(2.0) / math.pi * nu
                out.gap(cid, "l1-cos-exact", t, abs(v - exact), 3.0 * e)
    elif kind == "almost-mixing-probe":
        for mass in md.get("band_mass", []):
            if mass is None or not (0.0 <= mass <= 1.0 + 1e-9):
                out.fail(cid, f"band mass {mass} outside [0, 1]")
        if template in ("sparse-uniform", "sparse-triangular", "sparse-gauss"):
            _probe_against_sampling(cid, cfg, rows, out)


def _z(gap: float, error: float) -> float:
    """Gap in units of its error; a nonzero gap with zero error is infinite."""
    if error > 0:
        return gap / error
    return 0.0 if gap == 0 else math.copysign(math.inf, gap)


def _check_adversary(cid, meta, header, rows, out: Findings) -> None:
    plan = meta.get("plan", {})
    if plan.get("failure_level") is not None:
        out.fail(cid, f"partial plan: {plan.get('failure_reason')}")
    col = {name: k for k, name in enumerate(header)}
    for row in rows:
        n = int(row[col["n"]])
        mc, sd = row[col["estimate"]], row[col["std_error"]]
        quad, mix = row[col["quad_estimate"]], row[col["mixing_value"]]
        out.stat.append({"config": cid, "check": "adversary-mc-vs-quad", "level": n,
                         "z": _z(mc - quad, sd), "pooled": True})
        if n >= 2 and not mc > mix:
            out.fail(cid, f"level {n} value {mc} not above mixing value {mix}")


def _probe_against_sampling(cid, cfg, rows, out: Findings) -> None:
    from homavg import presets
    from homavg.engine import pair_correlation_integral
    model = presets.resolve_correlation(cfg["correlation"])
    weight = presets.resolve_measure(cfg["measure"])
    for k, (t, v, e) in enumerate(rows):
        samp = pair_correlation_integral(model, weight, t, method="sampling",
                                         n_samples=PROBE_PAIRS, seed=cfg["seed"] + k)
        gap = abs(abs(samp.value - model.baseline) - v)
        out.stat.append({"config": cid, "check": "probe-quad-vs-sampling", "t": t,
                         "z": _z(gap, e + samp.error), "pooled": False})


def judge_statistics(out: Findings) -> dict:
    """Apply the corrected 3-sigma bound to every statistical comparison and
    the pooled bound to the adversary z-scores."""
    count = len(out.stat)
    summary = {"comparisons": count, "family_alpha": FAMILY_ALPHA}
    if not count:
        return summary
    limit = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * count))
    summary["z_limit"] = limit
    summary["beyond_3_sigma"] = sum(abs(s["z"]) > 3.0 for s in out.stat)
    for s in out.stat:
        out.gaps.append({**s, "gap": abs(s["z"]), "tol": limit, "ok": abs(s["z"]) <= limit})
        if abs(s["z"]) > limit:
            out.fail(s["config"], f"{s['check']}: |z| = {abs(s['z']):.2f} > {limit:.2f}")
    pooled = [s["z"] for s in out.stat if s["pooled"]]
    if pooled:
        z = sum(pooled) / math.sqrt(len(pooled))
        summary["pooled_z"] = z
        if abs(z) > POOLED_Z:
            out.fail("run", f"pooled adversary z = {z:.2f} beyond {POOLED_Z}")
    return summary


def read_outputs(prefix: str) -> tuple[bytes, bytes]:
    return Path(f"{prefix}.csv").read_bytes(), Path(f"{prefix}.meta").read_bytes()


def load(prefix: str) -> tuple[str, dict]:
    csv_bytes, meta_bytes = read_outputs(prefix)
    return csv_bytes.decode(), json.loads(meta_bytes)
