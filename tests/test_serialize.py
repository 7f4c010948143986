import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homavg import (BochnerCorrelation, BoxAutocorrelation, BoxIndicator,
                    BoxSet, FrequencyBand, NestedIntervals, PointMass, Scaled,
                    SelfSimilar, SpectralModel, TableDensity, Triangular,
                    TruncatedGaussian, Uniform, build_adversarial_measure,
                    cos_mode, convolve, geometric_spikes, golden_winding,
                    pell_winding, periodic_winding, rescale)
from homavg import serialize as ser

CANTOR = SelfSimilar((1 / 3, 1 / 3), (0.0, 2 / 3), (0.5, 0.5))


MEASURES = [
    Uniform(0, 1),
    Triangular(-1, 3),
    TruncatedGaussian(0.5, 0.2, 0.0, 1.0),
    TableDensity(0.0, 2.0, [1.0, 2.0, 0.5, 0.5]),
    CANTOR,
    NestedIntervals([[("1/8", "2/8"), ("5/8", "7/8")]]),
    convolve(Uniform(0, 1), CANTOR),
    rescale(CANTOR, 2.5),
    PointMass(0.25),
]


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: type(m).__name__)
def test_measure_round_trip(measure):
    doc = ser.measure_to_doc(measure)
    json.dumps(doc)  # must be JSON-representable
    back = ser.measure_from_doc(doc)
    assert back == measure
    assert ser.measure_to_doc(back) == doc


_COORD = st.floats(-10.0, 10.0)
_WIDTH = st.floats(1e-3, 10.0)
_NESTED_ENDS = st.integers(4, 1000).flatmap(lambda den: st.lists(
    st.integers(0, den), min_size=4, max_size=4, unique=True).map(
        lambda ends: [[(f"{a}/{den}", f"{b}/{den}") for a, b in zip(*[iter(sorted(ends))] * 2)]]))
MEASURE_LEAVES = st.one_of(
    st.tuples(_COORD, _WIDTH).map(lambda p: Uniform(p[0], p[0] + p[1])),
    st.tuples(_COORD, _WIDTH).map(lambda p: Triangular(p[0], p[0] + p[1])),
    st.tuples(_COORD, _WIDTH, _COORD, _WIDTH).map(
        lambda p: TruncatedGaussian(p[0], p[1], p[2], p[2] + p[3])),
    st.tuples(_COORD, _WIDTH, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=19).filter(any))
    .map(lambda p: TableDensity(p[0], p[0] + p[1], p[2])),
    st.tuples(st.floats(0.05, 0.6), st.floats(0.1, 2.0), st.floats(0.05, 0.95)).map(
        lambda p: SelfSimilar((p[0], p[0]), (0.0, p[1]), (p[2], 1.0 - p[2]))),
    _NESTED_ENDS.map(NestedIntervals),
    _COORD.map(PointMass),
)
MEASURE_TREES = st.recursive(MEASURE_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, inner).map(lambda p: convolve(*p)),
    st.tuples(st.floats(0.1, 10.0), inner).map(lambda p: Scaled(*p))), max_leaves=3)


@settings(max_examples=200, deadline=None)
@given(MEASURE_TREES)
@example(TableDensity(0, 1, [0.1, 0.2, 0.3]))
def test_every_measure_document_round_trips(measure):
    """Through JSON text and back, every measure document gives an equal
    weight with a bit-identical transform; a table keeps its given masses."""
    doc = ser.measure_to_doc(measure)
    back = ser.measure_from_doc(json.loads(json.dumps(doc)))
    assert back == measure and hash(back) == hash(measure)
    assert ser.measure_to_doc(back) == doc
    xi = np.array([-7.3, 0.0, 0.5, 7.3, 40.0])
    np.testing.assert_array_equal(back.char_fn(xi), measure.char_fn(xi))


def test_round_trip_preserves_char_fn():
    m = convolve(rescale(CANTOR, 1.5), Uniform(0, 1))
    back = ser.measure_from_doc(ser.measure_to_doc(m))
    xi = np.linspace(-20, 20, 9)
    np.testing.assert_array_equal(back.char_fn(xi), m.char_fn(xi))


def test_flow_round_trip():
    for flow in (golden_winding(), pell_winding(), periodic_winding(3)):
        back = ser.flow_from_doc(ser.flow_to_doc(flow))
        assert back == flow


def test_spectral_round_trip():
    model = SpectralModel(atoms=((1.5, 0.25), (-1.5, 0.25)),
                          band=FrequencyBand(-2.0, 2.0, 0.5, (1.0, 3.0)))
    back = ser.spectral_from_doc(ser.spectral_to_doc(model))
    assert back == model


def test_correlation_round_trips():
    models = [
        BoxAutocorrelation(golden_winding(), BoxSet((0.5, 0.5))),
        BochnerCorrelation(SpectralModel(atoms=((2.0, 0.5), (-2.0, 0.5)))),
        geometric_spikes(),
    ]
    for model in models:
        back = ser.correlation_from_doc(ser.correlation_to_doc(model))
        assert back == model


def test_observable_round_trips():
    obs = cos_mode(2, 1)
    back = ser.observable_from_doc(ser.observable_to_doc(obs))
    assert back.coefficients == obs.coefficients
    ind = BoxIndicator(BoxSet((0.3, 0.4)))
    back = ser.observable_from_doc(ser.observable_to_doc(ind))
    assert back.box == ind.box


def test_plan_round_trip_with_exact_fields():
    plan = build_adversarial_measure(golden_winding(), BoxSet((0.5, 0.5)), 3)
    doc = ser.plan_to_doc(plan)
    json.dumps(doc)
    back = ser.plan_from_doc(doc)
    assert back.levels == plan.levels
    assert back.flow == plan.flow
    assert back.box == plan.box
    # the embedded measure document reloads as the identical tree and is a
    # regular weight measure: usable by any engine operation
    measure = ser.measure_from_doc(doc["measure"])
    assert measure == plan.measure()
    assert measure.char_fn(0.0) == pytest.approx(1.0, abs=1e-12)
    draws = measure.sample(500, 23)
    lo, hi = measure.support()
    assert np.all((draws >= lo) & (draws <= hi))
    from homavg import SpikeCorrelation, pair_correlation_integral
    flat = SpikeCorrelation(0.4)
    res = pair_correlation_integral(flat, measure, 3.0, method="sampling",
                                    n_samples=400, seed=24)
    assert res.value == pytest.approx(0.4, abs=1e-12)


def test_dumps_is_stable():
    doc = {"b": 1, "a": [1.5, 2.25]}
    assert ser.dumps(doc) == ser.dumps(dict(reversed(doc.items())))


def stdlib_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Opaque:
    pass


BAD_DOCS = {
    "set in a long leaf list": {"a": [0.5] * 10 + [{1, 2}]},
    "set in a short list": {"a": [{1, 2}, [1]]},
    "object as a dict value": {"a": {"b": Opaque(), "c": [1]}},
    "object at the top": Opaque(),
    "numpy int in a leaf": [np.int64(3)] * 9,
    "mixed keys in a leaf dict": {"a": dict.fromkeys([1, "b", *"cdefghij"], 0)},
    "mixed keys above a container": {1: [1], "b": [2]},
    "tuple key": {(1, 2): [1]},
    "tuple key in a leaf dict": [{(1, 2): 1}],
}


@pytest.mark.parametrize("doc", BAD_DOCS.values(), ids=list(BAD_DOCS))
def test_dumps_raises_what_stdlib_raises(doc):
    with pytest.raises(Exception) as stdlib_error:
        stdlib_dumps(doc)
    with pytest.raises(stdlib_error.type):
        ser.dumps(doc)


# -- long float lists by digest --------------------------------------------------

def test_digest_is_the_packed_doubles_at_any_depth():
    floats = [math.nan, -math.inf, -0.0, 5e-324] + [j / 7 for j in range(61)]
    digest = {"length": 65,
              "sha256": hashlib.sha256(struct.pack("<65d", *floats)).hexdigest()}
    doc = {"a": [{"b": floats}, floats[:64]], "c": "x", "d": [[floats]]}
    assert ser.digest_float_lists(doc) == {"a": [{"b": digest}, floats[:64]],
                                           "c": "x", "d": [[digest]]}


ODD_ONE_OUT = {"bool": True, "string": "0.5", "null": None, "list": [0.5]}
VERBATIM = {"64 floats": [j / 7 for j in range(64)], "65 ints": list(range(65)),
            **{f"100 items with a {name}": [0.5] * 50 + [item] + [0.5] * 49
               for name, item in ODD_ONE_OUT.items()}}


@pytest.mark.parametrize("items", VERBATIM.values(), ids=list(VERBATIM))
def test_digest_keeps_short_and_mixed_lists(items):
    doc = {"config": {"a": items, "b": [{"c": items}]}}
    assert ser.digest_float_lists(doc) == doc


def test_write_outputs_encodes_the_meta_before_writing(tmp_path):
    meta = {"config": {"kind": "probe"}, "values": [0.1] * 9}
    csv_path, meta_path = ser.write_outputs(str(tmp_path / "out" / "run"),
                                            "t,value\n", meta)
    assert (csv_path.name, meta_path.name) == ("run.csv", "run.meta")
    assert meta_path.read_text() == stdlib_dumps(meta)
    with pytest.raises(TypeError):
        ser.write_outputs(str(tmp_path / "bad" / "run"), "t,value\n",
                          {"config": {"bad": {1, 2}}})
    assert not list((tmp_path / "bad").glob("run.*"))


def test_unknown_documents_rejected():
    from homavg import PresetError
    with pytest.raises(PresetError):
        ser.measure_from_doc({"type": "mystery"})
    with pytest.raises(PresetError):
        ser.correlation_from_doc({"type": "mystery"})
