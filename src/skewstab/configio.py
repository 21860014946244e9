"""Strict JSON schemas for systems, measures, and perturbation families.

Unknown keys are fatal everywhere: config files double as the archival
record of each experiment, so silent key drops are worse than errors.
Scalars may be JSON numbers (float backend) or strings (exact backend);
strings parse as decimals or "p/q" fractions.
"""

from __future__ import annotations

import json
import marshal
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .arithmetic import (
    AngleSpec,
    decimal_angle,
    golden_angle,
    lacunary_theta,
    rational_angle,
)
from .dynamics import (
    BaseMap,
    FiberMapFamily,
    SineShift,
    SkewSystem,
    composite_family,
    linear_base,
    precomposed_base,
    translation_family,
)
from .measures import (
    Disintegration,
    FiberMeasure,
    product_disintegration,
    uniform_fiber,
)
from .stability import prop_bahh_system

__all__ = [
    "parse_angle",
    "load_system",
    "system_diagnostics",
    "load_measure",
    "save_measure",
    "SweepJob",
    "load_family",
    "read_json",
    "write_json",
]

SCHEMA_VERSION = 2


def _require(doc: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    keys = set(doc)
    unknown = keys - required - optional
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")


def _parse_scalar(v):
    """JSON number -> float backend; string -> exact Fraction.  json.load
    accepts NaN and Infinity, which no scalar here may take."""
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"expected number or numeric string, got {v!r}")
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return v


def _positive_int(doc: dict, key: str, where: str) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError(f"{where}: {key} must be a positive integer, "
                         f"got {v!r}")
    return v


def _format_scalar(v) -> object:
    """Exact scalars as strings (decimal when the denominator is
    2^a 5^b, else "p/q"), floats as floats."""
    if isinstance(v, (Fraction, int)) and not isinstance(v, bool):
        f = Fraction(v)
        num, den = f.numerator, f.denominator
        if den == 1:
            return str(num)
        twos = fives = 0
        d = den
        while d % 2 == 0:
            d //= 2
            twos += 1
        while d % 5 == 0:
            d //= 5
            fives += 1
        if d != 1:
            return f"{num}/{den}"
        shift = max(twos, fives)
        scaled = num * 10 ** shift // den
        sign = "-" if scaled < 0 else ""
        digits = str(abs(scaled)).rjust(shift + 1, "0")
        return f"{sign}{digits[:-shift]}.{digits[-shift:]}"
    return float(v)


# ------------------------------------------------------------------ angles

def parse_angle(spec: str) -> AngleSpec:
    """Angle grammar: decimal string, "p/q", "golden", or
    "liouville_j:<j_max>"."""
    if not isinstance(spec, str):
        raise ValueError(f"theta must be a string, got {spec!r}")
    text = spec.strip()
    if text == "golden":
        return golden_angle()
    try:
        if text.startswith("liouville_j:"):
            j_max = int(text.split(":", 1)[1])
        elif "/" in text:
            p, q = map(int, text.split("/"))
        else:
            Fraction(text)
    except ValueError:
        raise ValueError(f"malformed angle {spec!r}; expected a decimal, "
                         f"p/q, golden or liouville_j:<j_max>") from None
    if text.startswith("liouville_j:"):
        return lacunary_theta(j_max)
    if "/" in text:
        return rational_angle(p, q)
    frac_digits = len(text.split(".", 1)[1]) if "." in text else 0
    return decimal_angle(text, digits=max(frac_digits, 6))


# ------------------------------------------------------------------ system

def _kind(doc, where: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    return doc.get("kind")


def _load_sigma(doc: dict) -> SineShift:
    _require(doc, {"kind", "amplitude"}, set(), "base.sigma")
    if doc["kind"] != "sine":
        raise ValueError(f"unknown sigma kind {doc['kind']!r}")
    return SineShift(float(_parse_scalar(doc["amplitude"])))


def _load_base(doc: dict) -> BaseMap:
    kind = _kind(doc, "base")
    if kind == "linear":
        _require(doc, {"kind", "l"}, set(), "base")
        return linear_base(_positive_int(doc, "l", "base"))
    if kind == "linear_precomposed":
        _require(doc, {"kind", "l", "sigma"}, set(), "base")
        return precomposed_base(_positive_int(doc, "l", "base"),
                                _load_sigma(doc["sigma"]))
    raise ValueError(f"unknown base kind {kind!r}")


def _load_indicator(doc) -> tuple:
    if not isinstance(doc, list):
        raise ValueError("indicator must be a list of [a, b] pairs")
    out = []
    for iv in doc:
        if not isinstance(iv, list) or len(iv) != 2:
            raise ValueError("indicator entries must be [a, b] pairs")
        a, b = (Fraction(_parse_scalar(e)) for e in iv)
        if not 0 <= a < b <= 1:
            raise ValueError(f"bad indicator interval [{a}, {b}]")
        out.append((a, b))
    return tuple(out)


# each fiber kind's required and optional keys besides "kind": a
# translation rotates, a deformation applies the orbit bump, a composite
# does both
_FIBER_KEYS = {
    "translation": ({"theta"}, {"A", "indicator"}),
    "deformation": ({"delta", "orbit_k"}, {"A", "scale"}),
    "composite": ({"theta", "delta", "orbit_k"}, {"A", "indicator", "scale"}),
}


def _load_fiber(doc: dict) -> FiberMapFamily:
    kind = _kind(doc, "fiber")
    if kind not in _FIBER_KEYS:
        raise ValueError(f"unknown fiber kind {kind!r}")
    required, optional = _FIBER_KEYS[kind]
    _require(doc, {"kind"} | required, optional, "fiber")
    kw = {}
    if "indicator" in doc:
        kw["indicator"] = _load_indicator(doc["indicator"])
    elif "theta" not in doc:
        kw["indicator"] = ()  # no rotation, so no indicator set
    if "A" in doc:
        kw["A"] = float(_parse_scalar(doc["A"]))
    theta = parse_angle(doc["theta"]) if "theta" in doc else 0
    if "orbit_k" not in doc:
        return translation_family(theta, **kw)
    return composite_family(theta, _parse_scalar(doc["delta"]),
                            _positive_int(doc, "orbit_k", "fiber"),
                            scale=float(_parse_scalar(doc.get("scale", 1))),
                            **kw)


_CONSTANT_KEYS = {"alpha", "H_hat", "A", "xi", "ly_base"}


def load_system(doc: dict) -> SkewSystem:
    _require(doc, {"base", "fiber"}, {"constants"}, "system")
    base = _load_base(doc["base"])
    fiber = _load_fiber(doc["fiber"])
    # declared constants are validated; nothing computes with them
    if "constants" in doc:
        consts = doc["constants"]
        _require(consts, set(), _CONSTANT_KEYS, "constants")
        for key, v in consts.items():
            if key == "ly_base":
                if not isinstance(v, list) or len(v) != 2:
                    raise ValueError("constants: ly_base must be a list "
                                     "[A_T, B_T] of two numbers")
                for x in v:
                    _parse_scalar(x)
            else:
                _parse_scalar(v)
    return SkewSystem(base, fiber)


def system_diagnostics(doc: dict, n_cells: int | None = None) -> list[str]:
    """Declared-constant (H_hat at p = 1) and compatibility checks;
    collects messages instead of raising."""
    try:
        sys = load_system(doc)
    except ValueError as e:
        return [str(e)]
    checks = [sys.require_domination]
    if n_cells is not None:
        checks.append(lambda: sys.base.check_grid(n_cells))
    out = []
    for check in checks:
        try:
            check()
        except ValueError as e:
            out.append(str(e))
    declared = doc.get("constants", {})
    computed = {"alpha": sys.fiber.alpha, "A": sys.fiber.A,
                "xi": sys.base.xi, "H_hat": sys.fiber.h_hat(1.0)}
    for key, have in computed.items():
        if key in declared:
            want = float(_parse_scalar(declared[key]))
            if abs(want - have) > 1e-9 * max(1.0, abs(have)):
                out.append(f"declared {key} = {want:g} does not match "
                           f"built-in value {have:g}")
    theta = doc["fiber"].get("theta")
    if theta is not None and parse_angle(theta).provenance == "decimal":
        text = theta.strip()
        digits = len(text.split(".", 1)[1]) if "." in text else 0
        if digits < 12:
            out.append(f"theta precision ({digits} decimal digits) may be "
                       f"insufficient for fine grids")
    return out


# ---------------------------------------------------------------- measures

def _load_atom_row(atoms: list) -> FiberMeasure:
    positions, weights = [], []
    for pair in atoms:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("fiber atoms must be [[pos...], weight]")
        pos, w = pair
        if not isinstance(pos, list) or len(pos) != 1:
            raise ValueError("atom position must list 1 coordinate")
        positions.append(_parse_scalar(pos[0]))
        weights.append(_parse_scalar(w))
    exact = bool(positions) and all(
        isinstance(s, (Fraction, int)) for s in positions + weights)
    return FiberMeasure(positions, weights, exact=exact)


def load_measure(doc: dict) -> Disintegration:
    """Measure JSON: a builtin, or atom lists [[position], weight] on the
    circle ("dimension" must be 1).  With "ids", fibers lists each
    distinct fiber once and ids gives each cell's row; without it,
    fibers lists one row per cell."""
    if not isinstance(doc, dict):
        raise ValueError("measure: expected a JSON object")
    if "builtin" in doc:
        _require(doc, {"builtin", "n_cells", "fiber_atoms"}, {"exact"},
                 "measure")
        if doc["builtin"] != "lebesgue":
            raise ValueError(f"unknown builtin measure {doc['builtin']!r}")
        exact = doc.get("exact", False)
        if not isinstance(exact, bool):
            raise ValueError(f"measure: exact must be true or false, "
                             f"got {exact!r}")
        dis = product_disintegration(
            _positive_int(doc, "n_cells", "measure"),
            uniform_fiber(_positive_int(doc, "fiber_atoms", "measure")))
        return dis if exact else dis.to_float()
    _require(doc, {"n_cells", "dimension", "fibers"}, {"ids"}, "measure")
    n = _positive_int(doc, "n_cells", "measure")
    if _positive_int(doc, "dimension", "measure") != 1:
        raise ValueError(f"measure: dimension must be 1 (fibers are "
                         f"circles), got {doc['dimension']}")
    rows = doc["fibers"]
    if not isinstance(rows, list) or \
            not all(isinstance(atoms, list) for atoms in rows):
        raise ValueError("measure: fibers must be a list of atom lists")
    if "ids" not in doc:
        if len(rows) != n:
            raise ValueError(f"measure: got {len(rows)} fibers for "
                             f"n_cells = {n}")
        ids = range(n)
    else:
        ids = doc["ids"]
        if not isinstance(ids, list) or \
                not all(type(i) is int for i in ids):
            raise ValueError("measure: ids must be a list of integers")
        if len(ids) != n:
            raise ValueError(f"measure: got {len(ids)} ids for "
                             f"n_cells = {n}")
        if set(ids) != set(range(len(rows))):
            raise ValueError(f"measure: ids must lie in [0, {len(rows)}) "
                             f"and name every fiber")
    # a row is parsed once per distinct content; marshal keeps 1, 1.0 and
    # true apart, which == on lists does not
    keys: dict = {}
    row_ids, fibers = [], []
    for i, atoms in enumerate(rows):
        try:
            key = marshal.dumps(atoms)
        except ValueError:  # not JSON-born (e.g. numpy scalars): no sharing
            key = i
        if key not in keys:
            keys[key] = len(fibers)
            fibers.append(_load_atom_row(atoms))
        row_ids.append(keys[key])
    return Disintegration([row_ids[i] for i in ids], fibers)


def save_measure(dis: Disintegration) -> dict:
    """The packed format: an id per cell and each distinct fiber's atom
    list once, in table order."""
    return {"n_cells": dis.n_cells, "dimension": 1, "ids": dis.ids.tolist(),
            "fibers": [[[[_format_scalar(p)], _format_scalar(w)]
                        for p, w in fm.atoms()] for fm in dis.table]}


# ---------------------------------------------------------------- families

@dataclass(frozen=True)
class SweepJob:
    """(delta, closed-form distance) pairs and the family's declared
    Diophantine types."""

    pairs: list[tuple[float, Fraction]]
    gamma: float
    gamma_prime: float | None


def load_family(doc: dict) -> SweepJob:
    """A prop-bahh family: one row per j, at the example's closed-form
    distance; no pipeline runs and no measure is built."""
    kind = _kind(doc, "family")
    if kind != "prop-bahh":
        raise ValueError(f"unknown family kind {kind!r}")
    _require(doc, {"kind", "theta", "js", "gamma"},
             {"gamma_prime", "deformation_scale"}, "family")
    theta = parse_angle(doc["theta"])
    kw = {}
    if "deformation_scale" in doc:
        kw["deformation_scale"] = float(
            _parse_scalar(doc["deformation_scale"]))
    if not isinstance(doc["js"], list):
        raise ValueError(f"family: js must be a list, got {doc['js']!r}")
    js = [_positive_int({"j": j}, "j", "family js") for j in doc["js"]]
    pairs = []
    for j in js:
        ex = prop_bahh_system(theta, j, **kw)
        pairs.append((ex.pspec.delta, ex.closed_form_distance))
    return SweepJob(pairs, float(_parse_scalar(doc["gamma"])),
                    float(_parse_scalar(doc["gamma_prime"]))
                    if "gamma_prime" in doc else None)


# --------------------------------------------------------------------- io

def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _json_text(doc) -> str:
    """Strict JSON text of doc with a trailing newline, as write_json
    writes it."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, doc: dict) -> None:
    """Strict JSON; a document that cannot be encoded leaves no file."""
    text = _json_text(doc)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
    except BaseException:
        Path(path).unlink()
        raise
