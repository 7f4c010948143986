"""Named presets and config-spec resolution.

Specs are either a preset name with optional bracketed arguments, e.g.
``uniform[0,1]`` / ``spike(10,0.25,1)``, or an inline JSON document as
produced by :mod:`homavg.serialize`.  Unresolvable specs raise PresetError
carrying the config field name.
"""

from __future__ import annotations

import re

from . import serialize
from .errors import PresetError
from .flows import (BoxSet, TorusWinding, circle_rotation, golden_winding,
                    pell_winding, periodic_winding)
from .measures import SelfSimilar, Triangular, TruncatedGaussian, Uniform
from .spectral import (BoxIndicator, Observable, cos_mode,
                       geometric_spikes, lebesgue_band)

_SPEC = re.compile(r"^([a-z0-9-]+)(?:[\[(]([^\])]*)[\])])?$")


def cantor_thirds() -> SelfSimilar:
    """The classical middle-thirds singular measure on [0, 1]."""
    return SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))


def dyadic_odd() -> SelfSimilar:
    """Uniform on reals in [0, 1] whose binary digits vanish at even places."""
    return SelfSimilar((0.25, 0.25), (0.0, 0.5), (0.5, 0.5))


def dyadic_even() -> SelfSimilar:
    """Uniform on reals in [0, 1] whose binary digits vanish at odd places."""
    return SelfSimilar((0.25, 0.25), (0.0, 0.25), (0.5, 0.5))


def _int(v: float) -> int:
    """A preset argument that must be a whole number."""
    if v != int(v):
        raise ValueError(f"{v:g} is not an integer")
    return int(v)


_MEASURES = {
    "uniform": ("uniform[a,b]  (defaults [0,1])", lambda *a: Uniform(*a)),
    "triangular": ("triangular[a,b]  (defaults [0,2])",
                   lambda *a: Triangular(*(a or (0.0, 2.0)))),
    "gauss-trunc": ("gauss-trunc[mu,sigma,lo,hi]  (defaults [0.5,0.2,0,1])",
                    lambda *a: TruncatedGaussian(*(a or (0.5, 0.2, 0.0, 1.0)))),
    "cantor-thirds": ("middle-thirds self-similar measure", lambda: cantor_thirds()),
    "dyadic-odd": ("binary digits supported at odd places", lambda: dyadic_odd()),
    "dyadic-even": ("binary digits supported at even places", lambda: dyadic_even()),
}

_FLOWS = {
    "winding-golden": ("d=2 winding, slope (sqrt(5)-1)/2", lambda: golden_winding()),
    "winding-pell": ("d=2 winding, slope sqrt(2)-1", lambda: pell_winding()),
    "winding-periodic": ("winding-periodic[k]: synthetic rational slope 1/k",
                         lambda *a: periodic_winding(*map(_int, a))),
    "winding-circle": ("d=1 unit-speed rotation flow", lambda: circle_rotation()),
}

_SPECTRAL = {
    "spectral-lebesgue": ("flat band on [-1, 1]", lambda: lebesgue_band()),
}

_CORRELATIONS = {
    "spike": ("spike(growth,halfwidth,height[,count,baseline])",
              lambda *a: geometric_spikes(*a[:3], *map(_int, a[3:4]), *a[4:])),
}

_OBSERVABLES = {
    "cos-x1": ("sqrt(2) cos(2 pi x_1)", 0),
    "cos-x2": ("sqrt(2) cos(2 pi x_2)", 1),
}


def _build(field: str, what: str, make, *args):
    """make(*args), a TypeError, ValueError, OverflowError or KeyError it
    raises reported as a PresetError naming ``field``."""
    try:
        return make(*args)
    except PresetError:
        raise
    except KeyError as exc:
        raise PresetError(field, f"{what} lacks the field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise PresetError(field, f"bad {what}: {exc}") from None


def _parse(spec: str, field: str) -> tuple[str, tuple[float, ...]]:
    m = _SPEC.match(spec.strip())
    if not m:
        raise PresetError(field, f"malformed preset spec {spec!r}")
    name, args = m.group(1), m.group(2)
    if args is None or args.strip() == "":
        return name, ()
    try:
        return name, tuple(float(v) for v in args.split(","))
    except ValueError:
        raise PresetError(field, f"non-numeric arguments in {spec!r}") from None


def _resolve(kind: str, table: dict, from_doc, spec, field: str):
    if isinstance(spec, dict):
        return _build(field, f"{kind} document", from_doc, spec)
    name, args = _parse(spec, field)
    entry = table.get(name)
    if entry is None:
        raise PresetError(field, f"unknown {kind} preset {name!r}")
    return _build(field, f"arguments for {name!r}", entry[1], *args)


def resolve_measure(spec, field: str = "measure"):
    return _resolve("measure", _MEASURES, serialize.measure_from_doc, spec, field)


def resolve_flow(spec, field: str = "flow") -> TorusWinding:
    return _resolve("flow", _FLOWS, serialize.flow_from_doc, spec, field)


def resolve_spectral(spec, field: str = "spectral"):
    return _resolve("spectral", _SPECTRAL, serialize.spectral_from_doc, spec, field)


def resolve_correlation(spec, field: str = "correlation"):
    return _resolve("correlation", _CORRELATIONS, serialize.correlation_from_doc,
                    spec, field)


def resolve_observable(spec, flow: TorusWinding, field: str = "observable") -> Observable:
    if isinstance(spec, dict):
        obs = _build(field, "observable document",
                     serialize.observable_from_doc, spec)
    else:
        name, args = _parse(spec, field)
        if name == "indicator":
            if not args:
                raise PresetError(field, "indicator needs box sides")
            obs = BoxIndicator(_build(field, "box sides", BoxSet, tuple(args)))
        elif name in _OBSERVABLES:
            axis = _OBSERVABLES[name][1]
            if axis >= flow.dimension:
                raise PresetError(field, f"{name!r} needs dimension > {axis}")
            obs = cos_mode(flow.dimension, axis)
        else:
            raise PresetError(field, f"unknown observable preset {name!r}")
    dim = getattr(obs, "dimension", None)
    if dim is not None and dim != flow.dimension:
        raise PresetError(field, "observable dimension does not match the flow")
    if isinstance(obs, BoxIndicator) and len(obs.box.sides) != flow.dimension:
        raise PresetError(field, "indicator dimension does not match the flow")
    return obs


def list_presets() -> str:
    """Stable, human-readable preset listing for the CLI."""
    observables = dict(_OBSERVABLES)
    observables["indicator"] = ("indicator[a1,...,ad]: box indicator", None)
    sections = [
        ("measures", _MEASURES), ("flows", _FLOWS), ("spectral", _SPECTRAL),
        ("correlations", _CORRELATIONS), ("observables", observables),
    ]
    lines = []
    for title, table in sections:
        lines.append(f"[{title}]")
        for name in sorted(table):
            desc = table[name][0]
            lines.append(f"  {name:18s} {desc}")
        lines.append("")
    return "\n".join(lines)
