"""JSON documents for every value type, plus curve/report file output.

Documents are plain dicts tagged by ``type``; serialize/deserialize is an
identity round trip (Fractions travel as "p/q" strings, integers of any
magnitude stay exact).  Files are written with sorted keys so identical
configs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .adversary import AdversaryPlan, LevelEstimate, LevelRecord
from .engine import PROBE_META_SPIKES
from .errors import PresetError
from .flows import BoxSet, QuadraticIrrational, TorusWinding
from .measures import (Convolution, NestedIntervals, PointMass, Scaled,
                       SelfSimilar, TableDensity, Triangular,
                       TruncatedGaussian, Uniform, WeightMeasure)
from .spectral import (BochnerCorrelation, BoxAutocorrelation,
                       CorrelationModel, FourierObservable, FrequencyBand,
                       Observable, BoxIndicator, SpectralModel,
                       SpikeCorrelation)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


# -- measures ---------------------------------------------------------------

def measure_to_doc(m: WeightMeasure) -> dict:
    if isinstance(m, Uniform):
        return {"type": "uniform", "a": m.a, "b": m.b}
    if isinstance(m, Triangular):
        return {"type": "triangular", "a": m.a, "b": m.b}
    if isinstance(m, TruncatedGaussian):
        return {"type": "gauss-trunc", "mu": m.mu, "sigma": m.sigma,
                "lo": m.lo, "hi": m.hi}
    if isinstance(m, TableDensity):
        return {"type": "table", "lo": m.lo, "hi": m.hi,
                "masses": [float(v) for v in m.masses]}
    if isinstance(m, SelfSimilar):
        return {"type": "self-similar", "ratios": list(m.ratios),
                "shifts": list(m.shifts), "weights": list(m.weights)}
    if isinstance(m, NestedIntervals):
        return {"type": "nested-intervals",
                "levels": [[[_frac(a), _frac(b)] for a, b in lev]
                           for lev in m.levels]}
    if isinstance(m, Convolution):
        return {"type": "convolution",
                "components": [measure_to_doc(c) for c in m.components]}
    if isinstance(m, Scaled):
        return {"type": "scaled", "factor": m.factor,
                "inner": measure_to_doc(m.inner)}
    if isinstance(m, PointMass):
        return {"type": "point-mass", "at": m.at}
    raise TypeError(f"no document form for {type(m).__name__}")


def measure_from_doc(doc: dict) -> WeightMeasure:
    kind = doc.get("type")
    if kind == "uniform":
        return Uniform(doc["a"], doc["b"])
    if kind == "triangular":
        return Triangular(doc["a"], doc["b"])
    if kind == "gauss-trunc":
        return TruncatedGaussian(doc["mu"], doc["sigma"], doc["lo"], doc["hi"])
    if kind == "table":
        return TableDensity(doc["lo"], doc["hi"], doc["masses"])
    if kind == "self-similar":
        return SelfSimilar(tuple(doc["ratios"]), tuple(doc["shifts"]),
                           tuple(doc["weights"]))
    if kind == "nested-intervals":
        return NestedIntervals([[(_parse_frac(a), _parse_frac(b))
                                 for a, b in lev] for lev in doc["levels"]])
    if kind == "convolution":
        return Convolution(tuple(measure_from_doc(c) for c in doc["components"]))
    if kind == "scaled":
        return Scaled(doc["factor"], measure_from_doc(doc["inner"]))
    if kind == "point-mass":
        return PointMass(doc["at"])
    raise PresetError("measure", f"unknown measure document type {kind!r}")


# -- flows and boxes ----------------------------------------------------------

def flow_to_doc(f: TorusWinding) -> dict:
    if isinstance(f.slope, QuadraticIrrational):
        slope = {"surd": [f.slope.p, f.slope.d, f.slope.q]}
    elif isinstance(f.slope, Fraction):
        slope = {"rational": _frac(f.slope)}
    else:
        slope = None
    return {"type": "torus-winding", "alpha": list(f.alpha), "slope": slope,
            "name": f.name}


def flow_from_doc(doc: dict) -> TorusWinding:
    slope = doc.get("slope")
    exact = None
    if slope and "surd" in slope:
        exact = QuadraticIrrational(*slope["surd"])
    elif slope and "rational" in slope:
        exact = _parse_frac(slope["rational"])
    return TorusWinding(tuple(doc["alpha"]), exact, doc.get("name", ""))


def box_to_doc(b: BoxSet) -> dict:
    return {"type": "box", "sides": list(b.sides)}


def box_from_doc(doc: dict) -> BoxSet:
    return BoxSet(tuple(doc["sides"]))


# -- spectral / correlation models -------------------------------------------

def spectral_to_doc(s: SpectralModel) -> dict:
    band = None
    if s.band is not None:
        band = {"lo": s.band.lo, "hi": s.band.hi, "mass": s.band.mass,
                "profile": list(s.band.profile)}
    return {"type": "spectral", "atoms": [[w, m] for w, m in s.atoms],
            "band": band}


def spectral_from_doc(doc: dict) -> SpectralModel:
    band = doc.get("band")
    fb = None
    if band is not None:
        fb = FrequencyBand(band["lo"], band["hi"], band["mass"],
                           tuple(band.get("profile", (1.0,))))
    return SpectralModel(tuple((w, m) for w, m in doc.get("atoms", [])), fb)


def correlation_to_doc(c: CorrelationModel) -> dict:
    if isinstance(c, BoxAutocorrelation):
        return {"type": "box-autocorrelation", "flow": flow_to_doc(c.flow),
                "box": box_to_doc(c.box)}
    if isinstance(c, BochnerCorrelation):
        return {"type": "bochner", "spectrum": spectral_to_doc(c.spectrum)}
    if isinstance(c, SpikeCorrelation):
        return {"type": "spike", "baseline": c.baseline,
                "centers": list(c.centers), "halfwidths": list(c.halfwidths),
                "heights": list(c.heights), "growth": c.growth}
    raise TypeError(f"no document form for {type(c).__name__}")


def correlation_from_doc(doc: dict) -> CorrelationModel:
    kind = doc.get("type")
    if kind == "box-autocorrelation":
        return BoxAutocorrelation(flow_from_doc(doc["flow"]),
                                  box_from_doc(doc["box"]))
    if kind == "bochner":
        return BochnerCorrelation(spectral_from_doc(doc["spectrum"]))
    if kind == "spike":
        return SpikeCorrelation(doc["baseline"], tuple(doc["centers"]),
                                tuple(doc["halfwidths"]),
                                tuple(doc["heights"]), doc["growth"])
    raise PresetError("correlation", f"unknown correlation type {kind!r}")


def observable_to_doc(o: Observable) -> dict:
    if isinstance(o, FourierObservable):
        return {"type": "fourier",
                "coefficients": [[list(k), c.real, c.imag]
                                 for k, c in o.coefficients.items()]}
    if isinstance(o, BoxIndicator):
        return {"type": "indicator", "box": box_to_doc(o.box)}
    raise TypeError(f"no document form for {type(o).__name__}")


def observable_from_doc(doc: dict) -> Observable:
    kind = doc.get("type")
    if kind == "fourier":
        return FourierObservable({tuple(int(v) for v in k): complex(re, im)
                                  for k, re, im in doc["coefficients"]})
    if kind == "indicator":
        return BoxIndicator(box_from_doc(doc["box"]))
    raise PresetError("observable", f"unknown observable type {kind!r}")


# -- adversary plans -----------------------------------------------------------

def plan_to_doc(plan: AdversaryPlan) -> dict:
    return {
        "type": "adversary-plan",
        "flow": flow_to_doc(plan.flow),
        "box": box_to_doc(plan.box),
        "requested_depth": plan.requested_depth,
        "failure_level": plan.failure_level,
        "failure_reason": plan.failure_reason,
        "levels": [{
            "level": lev.level, "index": lev.index, "time": lev.time,
            "multiplier": lev.multiplier, "scale": lev.scale,
            "delta": _frac(lev.delta), "p_values": list(lev.p_values),
            "intervals": [[_frac(a), _frac(b)] for a, b in lev.intervals],
        } for lev in plan.levels],
        "measure": (measure_to_doc(plan.measure()) if plan.levels else None),
    }


def plan_from_doc(doc: dict) -> AdversaryPlan:
    levels = tuple(LevelRecord(
        lev["level"], lev["index"], lev["time"], lev["multiplier"],
        lev["scale"], _parse_frac(lev["delta"]), tuple(lev["p_values"]),
        tuple((_parse_frac(a), _parse_frac(b)) for a, b in lev["intervals"]),
    ) for lev in doc["levels"])
    return AdversaryPlan(flow_from_doc(doc["flow"]), box_from_doc(doc["box"]),
                         doc["requested_depth"], levels,
                         doc.get("failure_level"),
                         doc.get("failure_reason", ""))


# -- files ----------------------------------------------------------------------

def digest_float_lists(doc):
    """``doc`` with every list of more than ``PROBE_META_SPIKES`` items, each
    a Python float, replaced by ``{"length": n, "sha256": hex}``, the SHA-256
    of its little-endian float64 bytes; every other value as it is,
    recursively.  Only bare floats count, so the bytes are the parsed values
    exactly and the conversion cannot fail."""
    if isinstance(doc, dict):
        return {k: digest_float_lists(v) for k, v in doc.items()}
    if not isinstance(doc, list):
        return doc
    if len(doc) > PROBE_META_SPIKES and set(map(type, doc)) == {float}:
        data = np.asarray(doc, dtype="<f8").tobytes()
        return {"length": len(doc), "sha256": hashlib.sha256(data).hexdigest()}
    return [digest_float_lists(v) for v in doc]


def dumps(doc) -> str:
    """The ``.meta`` text: sorted keys, an indent of 2, a closing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def versions() -> dict:
    return {"homavg": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def level_report_csv(estimates: list[LevelEstimate]) -> str:
    lines = ["n,scale,estimate,std_error,quad_estimate,target,mixing_value"]
    for e in estimates:
        lines.append(f"{e.level},{e.scale},{e.mc_value:.17g},"
                     f"{e.mc_std_error:.17g},{e.quad_value:.17g},"
                     f"{e.target:.17g},{e.mixing_value:.17g}")
    return "\n".join(lines) + "\n"


def write_outputs(prefix: str, csv_text: str, meta: dict) -> tuple[Path, Path]:
    """Write <prefix>.csv and <prefix>.meta; returns the two paths.

    The meta is encoded first, so a value it cannot encode leaves no file.
    """
    meta_text = dumps(meta)
    csv_path = Path(f"{prefix}.csv")
    meta_path = Path(f"{prefix}.meta")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(csv_text)
    meta_path.write_text(meta_text)
    return csv_path, meta_path

