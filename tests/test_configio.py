"""Schema round trips and strictness."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewstab import configio
from skewstab.arithmetic import lacunary_theta
from skewstab.configio import (
    _format_scalar,
    _parse_scalar,
    load_family,
    load_measure,
    load_system,
    parse_angle,
    read_json,
    save_measure,
    system_diagnostics,
    write_json,
)
from skewstab.dynamics import invariant_measure
from skewstab.measures import (
    FiberMeasure,
    Disintegration,
    l1_norm,
    lebesgue_disintegration,
)
from skewstab.stability import prop_bahh_system

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DOUBLING_DOC = {
    "base": {"kind": "linear", "l": 2},
    "fiber": {"kind": "translation", "theta": "golden",
              "indicator": [["0.5", "1"]]},
}


# ----------------------------------------------------------------- scalars

@given(st.fractions(max_denominator=10 ** 6))
def test_scalar_round_trip(f: Fraction):
    s = _format_scalar(f)
    assert isinstance(s, str)
    assert _parse_scalar(s) == f


def test_scalar_formats():
    assert _format_scalar(Fraction(3, 8)) == "0.375"
    assert _format_scalar(Fraction(-7, 20)) == "-0.35"
    assert _format_scalar(Fraction(1, 3)) == "1/3"
    assert _format_scalar(Fraction(5)) == "5"
    assert _format_scalar(0.125) == 0.125


# ------------------------------------------------------------------ angles

def test_parse_angle_grammars():
    assert parse_angle("golden").provenance == "golden"
    lac = parse_angle("liouville_j:2")
    assert lac.provenance == "lacunary" and lac.j_max == 2
    assert parse_angle("1/3").value == Fraction(1, 3)
    assert parse_angle("0.25").value == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_angle("2/0")
    with pytest.raises(ValueError):
        parse_angle(0.25)


# ------------------------------------------------------------------ system

def test_load_system_doubling():
    sys = load_system(DOUBLING_DOC)
    assert sys.base.branch_count == 2
    assert sys.fiber.indicator == ((Fraction(1, 2), Fraction(1)),)
    assert 0.61 < float(sys.fiber.theta) < 0.62


def test_sigma_and_composite_load():
    doc = {
        "base": {"kind": "linear_precomposed", "l": 2,
                 "sigma": {"kind": "sine", "amplitude": 0.01}},
        "fiber": {"kind": "composite", "theta": "1/16", "delta": "0.001",
                  "orbit_k": 4, "scale": 2},
    }
    sys = load_system(doc)
    assert sys.base.sigma.amplitude == 0.01
    assert sys.fiber.bump.orbit_k == 4
    assert sys.fiber.bump.strength == pytest.approx(0.002)


def test_unknown_keys_fatal():
    bad = [
        {"base": {"kind": "linear", "l": 2, "junk": 1},
         "fiber": {"kind": "translation", "theta": "golden"}},
        {"base": {"kind": "linear", "l": 2},
         "fiber": {"kind": "translation", "theta": "golden", "junk": 1}},
        {"base": {"kind": "linear", "l": 2},
         "fiber": {"kind": "translation", "theta": "golden"}, "junk": 1},
        {"base": {"kind": "linear", "l": 2},
         "fiber": {"kind": "translation", "theta": "golden"},
         "constants": {"junk": 1}},
    ]
    for doc in bad:
        with pytest.raises(ValueError, match="unknown keys"):
            load_system(doc)


def test_diagnostics():
    assert system_diagnostics(DOUBLING_DOC, 1024) == []
    assert system_diagnostics(DOUBLING_DOC, 100) == \
        ["N must be multiple of branch count power"]
    doc = dict(DOUBLING_DOC, constants={"alpha": 2.0})
    assert any("alpha" in d for d in system_diagnostics(doc, 64))
    doc = {"base": {"kind": "linear", "l": 2},
           "fiber": {"kind": "translation", "theta": "0.618"}}
    assert any("precision" in d for d in system_diagnostics(doc))
    # schema failures become diagnostics instead of raising
    assert system_diagnostics({"base": {}, "fiber": {}, "junk": 1}) != []


# ---------------------------------------------------------------- measures

def test_measure_round_trip_exact():
    leb = lebesgue_disintegration(4, 8, exact=True)
    back = load_measure(save_measure(leb))
    assert back.exact
    assert l1_norm(back - leb) == 0


def test_measure_round_trip_float():
    dis = Disintegration(
        [0, 0], [FiberMeasure([(0.1,), (0.7,)], [0.3, -0.2])])
    back = load_measure(save_measure(dis))
    assert not back.exact
    assert float(l1_norm(back - dis)) == pytest.approx(0.0, abs=1e-15)


def test_measure_builtin_and_errors():
    doc = {"builtin": "lebesgue", "n_cells": 4, "fiber_atoms": 8,
           "exact": True}
    assert load_measure(doc).exact
    assert not load_measure(dict(doc, exact=False)).exact
    # only a JSON boolean selects the backend: "false" and 1 are truthy
    for bad in ("false", 1, None):
        with pytest.raises(ValueError, match="exact must be true or false"):
            load_measure(dict(doc, exact=bad))
    with pytest.raises(ValueError, match="unknown builtin"):
        load_measure(dict(doc, builtin="gauss"))
    with pytest.raises(ValueError, match="fibers"):
        load_measure({"n_cells": 3, "dimension": 1, "fibers": [[]]})
    with pytest.raises(ValueError, match="1 coordinate"):
        load_measure({"n_cells": 1, "dimension": 1,
                      "fibers": [[[["0.5", "0.5"], "1"]]]})


# ---------------------------------------------------------------- families

def test_family_prop_bahh():
    doc = {"kind": "prop-bahh", "theta": "liouville_j:3", "js": [1],
           "gamma": 3.0, "gamma_prime": 2.5}
    job = load_family(doc)
    ex = prop_bahh_system(lacunary_theta(3), 1)
    assert job.pairs == [(ex.pspec.delta, Fraction(1, 64))]
    assert job.gamma_prime == 2.5
    # its distances are closed forms: no pipeline, no measure on n_cells
    for extra in ({"n_cells": 16}, {"pipeline": {"n_max": 3}}):
        with pytest.raises(ValueError, match="unknown keys"):
            load_family(dict(doc, **extra))


def test_family_errors():
    for kind in ("mystery", "translation-ladder"):
        with pytest.raises(ValueError, match="unknown family kind"):
            load_family({"kind": kind})
    doc = {"kind": "prop-bahh", "theta": "liouville_j:3", "js": [1],
           "gamma": 3.0, "junk": 1}
    with pytest.raises(ValueError, match="unknown keys"):
        load_family(doc)


def test_write_json_refuses_non_finite_numbers(tmp_path):
    # NaN and Infinity are not JSON; a strict parser rejects such a file
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"x": bad})
        assert not (tmp_path / "bad.json").exists()
    # nor does a refusal deep in the document
    with pytest.raises(ValueError):
        write_json(tmp_path / "bad.json", {"a": [1, {"b": float("nan")}]})
    assert not (tmp_path / "bad.json").exists()


# ------------------------------------------------------------------ writer

def _reference_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308, True, 1, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(st.characters(), max_size=6))
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
_containers = st.one_of(st.lists(_values, max_size=4),
                        st.dictionaries(st.text(max_size=4), _values,
                                        max_size=4))


@given(_containers, _values)
def test_write_json_is_json_dumps(tmp_path_factory, shared, other):
    # one object at one depth (b) and at two depths (b, c.d): each copy
    # takes its own depth's indentation
    doc = {"a": shared, "b": [shared, other, shared],
           "c": {"d": [shared, [shared]], "e": [[], {}, [[]], [{}]]},
           "f": [True, 1, 1.0, -0.0, 5e-324, 1e308, np.float64(0.1)],
           "g": "tab\t quote\" newline\n é \u2603 \U0001f600", "h": other}
    path = tmp_path_factory.mktemp("w") / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == _reference_text(doc).encode("utf-8")


@pytest.mark.parametrize("doc", [{}, [], 0, "x", {"a": {}}, [[[]]],
                                 {"x": [[1, 2], [1, 2]]}])
def test_write_json_small_documents(tmp_path, doc):
    write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == _reference_text(doc)


@pytest.mark.parametrize("bad, error", [
    (float("nan"), ValueError), (float("-inf"), ValueError),
    (np.float64("inf"), ValueError), (np.int64(3), TypeError),
    ({1, 2}, TypeError)], ids=["nan", "-inf", "np-inf", "np-int64", "set"])
@pytest.mark.parametrize("place", [
    lambda v: {"x": v}, lambda v: {"x": [1, [2, v]]},
    lambda v: {"x": {"y": [{"z": v}]}}], ids=["value", "row", "nested"])
def test_write_json_refuses_what_json_dump_refuses(tmp_path, bad, error,
                                                   place):
    doc = place(bad)
    with pytest.raises(error):
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(error):
        write_json(tmp_path / "bad.json", doc)
    assert not (tmp_path / "bad.json").exists()


# ------------------------------------------------------------------ reader

def _measure_doc(rows) -> dict:
    return json.loads(json.dumps(
        {"n_cells": len(rows), "dimension": 1, "fibers": rows}))


def test_load_measure_keeps_json_types_apart(monkeypatch):
    built = []

    def counting_fiber(*args, **kw):
        built.append(args)
        return FiberMeasure(*args, **kw)

    monkeypatch.setattr(configio, "FiberMeasure", counting_fiber)
    exact_row, float_row = [[[0], 1]], [[[0.0], 1.0]]
    both = load_measure(_measure_doc([exact_row, float_row, exact_row]))
    assert len(built) == 2  # one per distinct row
    assert both.ids.tolist() == [0, 1, 0]
    for fm, row in zip(both.table, (exact_row, float_row)):
        alone = load_measure(_measure_doc([row])).table[0]
        assert fm.exact == alone.exact
        assert fm.positions.tolist() == alone.positions.tolist()
        assert fm.weights.tolist() == alone.weights.tolist()
    assert both.table[0].exact and not both.table[1].exact
    # a bool is refused even right after the equal-comparing int row
    with pytest.raises(ValueError, match="got True"):
        load_measure(_measure_doc([[[[0.5], 1]], [[[0.5], True]]]))
    # a document built in Python may hold numpy scalars; they still load
    doc = {"n_cells": 2, "dimension": 1,
           "fibers": [[[[np.float64(0.25)], np.float64(1.0)]]] * 2}
    assert load_measure(doc).table[0].positions.tolist() == [0.25]


@pytest.mark.parametrize("config, distinct", [
    ("precomposed_rotation.json", 64), ("doubling_rotation.json", 1)])
def test_measure_file_round_trip_is_bit_exact(tmp_path, config, distinct):
    system = load_system(read_json(CONFIGS / config))
    dis = invariant_measure(system, n_max=20, n_cells=64,
                            fiber_atoms=64).measure
    assert len(dis.table) == distinct
    packed = save_measure(dis)
    # the per-cell layout of schema version 1: a row per cell, no ids
    per_cell = {"n_cells": dis.n_cells, "dimension": 1,
                "fibers": [packed["fibers"][i] for i in packed["ids"]]}
    for doc in (packed, per_cell):
        write_json(tmp_path / "mu.json", doc)
        back = load_measure(json.loads((tmp_path / "mu.json").read_text()))
        assert back.ids.tolist() == dis.ids.tolist()
        assert len(back.table) == len(dis.table)
        for got, want in zip(back.table, dis.table):
            assert not got.exact and not want.exact
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()


def test_save_measure_writes_each_fiber_once():
    leb = lebesgue_disintegration(2, 4)
    dis = Disintegration([0, 1, 0, 2, 1],
                         [leb.table[0], leb.table[0].scale(0.5),
                          FiberMeasure([0.25], [1.0])])
    doc = save_measure(dis)
    assert doc["ids"] == dis.ids.tolist() == [0, 1, 0, 2, 1]
    # each distinct fiber once, in table order
    assert doc["fibers"] == [
        [[[x], 0.125] for x in (0.0, 0.25, 0.5, 0.75)],
        [[[x], 0.0625] for x in (0.0, 0.25, 0.5, 0.75)],
        [[[0.25], 1.0]]]
