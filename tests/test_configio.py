"""Schema round trips and strictness."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewstab.configio import (
    _format_scalar,
    _parse_scalar,
    load_family,
    load_measure,
    load_system,
    parse_angle,
    save_measure,
    system_diagnostics,
    write_json,
)
from skewstab.measures import (
    FiberMeasure,
    Disintegration,
    l1_norm,
    lebesgue_disintegration,
)

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
    with pytest.raises(ValueError, match="unknown builtin"):
        load_measure(dict(doc, builtin="gauss"))
    with pytest.raises(ValueError, match="fibers"):
        load_measure({"n_cells": 3, "dimension": 1, "fibers": [[]]})
    with pytest.raises(ValueError, match="1 coordinate"):
        load_measure({"n_cells": 1, "dimension": 1,
                      "fibers": [[[["0.5", "0.5"], "1"]]]})


# ---------------------------------------------------------------- families

def test_family_ladder():
    doc = {"kind": "translation-ladder", "system": DOUBLING_DOC,
           "deltas": ["1/256", "1/1024"], "gamma": 1.0,
           "pipeline": {"n_cells": 32, "fiber_atoms": 128, "n_max": 10}}
    job = load_family(doc)
    assert [ps.declared_delta for ps in job.family] == [1 / 256, 1 / 1024]
    ref = job.family[0].reference
    pert = job.family[0].perturbed
    assert pert.fiber.theta - ref.fiber.theta == Fraction(1, 256)
    assert job.pipeline == {"n_cells": 32, "fiber_atoms": 128, "n_max": 10}


def test_family_prop_bahh():
    doc = {"kind": "prop-bahh", "theta": "liouville_j:3", "js": [1],
           "gamma": 3.0, "gamma_prime": 2.5}
    job = load_family(doc)
    assert len(job.family) == 1
    assert job.family[0].invariant_distance == Fraction(1, 64)
    assert job.gamma_prime == 2.5


def test_family_errors():
    with pytest.raises(ValueError, match="unknown family kind"):
        load_family({"kind": "mystery"})
    doc = {"kind": "translation-ladder", "system": DOUBLING_DOC,
           "deltas": ["1/256"], "gamma": 1.0, "junk": 1}
    with pytest.raises(ValueError, match="unknown keys"):
        load_family(doc)
    deform = {"base": {"kind": "linear", "l": 2},
              "fiber": {"kind": "deformation", "delta": "0.001",
                        "orbit_k": 4}}
    with pytest.raises(ValueError, match="translation fiber"):
        load_family({"kind": "translation-ladder", "system": deform,
                     "deltas": ["1/256"], "gamma": 1.0})


def test_write_json_refuses_non_finite_numbers(tmp_path):
    # NaN and Infinity are not JSON; a strict parser rejects such a file
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"x": bad})
