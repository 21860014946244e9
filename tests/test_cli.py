"""Runner behavior: artifact shapes, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewstab.arithmetic import lacunary_theta
from skewstab.cli import _print_json, main
from skewstab.configio import load_family, load_measure
from skewstab.measures import l1_norm
from skewstab.stability import prop_bahh_system

ROOT = Path(__file__).resolve().parents[1]

DOUBLING_DOC = {
    "base": {"kind": "linear", "l": 2},
    "fiber": {"kind": "translation", "theta": "golden",
              "indicator": [["0.5", "1"]]},
}

BAHH_FAMILY = {
    "kind": "prop-bahh",
    "theta": "liouville_j:3",
    "js": [1, 2],
    "gamma": 3.0,
    "gamma_prime": 2.5,
}


@pytest.fixture()
def doubling_path(tmp_path):
    p = tmp_path / "doubling.json"
    p.write_text(json.dumps(DOUBLING_DOC))
    return str(p)


def test_bound_prints_value(capsys):
    assert main(["bound", "--phi", "power:1,1", "--M", "1", "--C", "1",
                 "--eps", "0.01"]) == 0
    assert capsys.readouterr().out.strip() == "0.302843"


def test_bound_bad_phi(capsys):
    assert main(["bound", "--phi", "cubic:1", "--M", "1", "--C", "1",
                 "--eps", "0.01"]) == 2
    assert "phi" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["bound", "--phi", "power:1,1", "--M", "nan", "--C", "1", "--eps", "0.01"],
    ["bound", "--phi", "power:1,1", "--M", "1", "--C", "inf", "--eps", "0.01"],
    ["bound", "--phi", "power:1,1", "--M", "1", "--C", "1", "--eps", "nan"],
    ["bound", "--phi", "power:1,1", "--M", "inf", "--C", "1", "--eps", "0.01"],
    ["example", "prop-bahh", "--j", "1", "--scale", "nan"],
    ["example", "prop-bahh", "--j", "1", "--scale", "0"],
    ["sweep", "--config", str(ROOT / "configs" / "bahh_family.json"),
     "--gamma", "nan", "--out", "sweep.csv"],
    ["bound", "--phi", "power:nan,1", "--M", "1", "--C", "1", "--eps", "0.01"],
    ["bound", "--phi", "power:1,nan", "--M", "1", "--C", "1", "--eps", "0.01"],
    ["bound", "--phi", "power:inf,1", "--M", "1", "--C", "1", "--eps", "0.01"],
    ["bound", "--phi", "power:1", "--M", "1", "--C", "1", "--eps", "0.01"],
    ["diophantine", "--theta", "liouville_j:x", "--depth", "5"],
] + [["sweep", "--config", str(ROOT / "configs" / "bahh_family.json"),
      flag, value, "--out", "sweep.csv"]
     for flag, value in (("--gamma-prime", "1"), ("--gamma", "-0.125"),
                         ("--gamma", "0"), ("--gamma-prime", "0.5"))],
    ids=["bound-M-nan", "bound-C-inf", "bound-eps-nan", "bound-M-inf",
         "prop-bahh-scale-nan", "prop-bahh-scale-0", "sweep-gamma-nan",
         "power-C-nan", "power-alpha-nan", "power-C-inf", "power-one-value",
         "liouville-j-not-int", "sweep-gamma-prime-1", "sweep-gamma-negative",
         "sweep-gamma-0", "sweep-gamma-prime-half"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, args):
    assert main(args + ["--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["power:nan,1", "power:1,nan",
                                  "power:inf,1"])
def test_bound_names_non_finite_power_law(capsys, spec):
    assert main(["bound", "--phi", spec, "--M", "1", "--C", "1",
                 "--eps", "0.01"]) == 2
    assert "power law needs finite" in capsys.readouterr().err


@pytest.mark.parametrize("args, form", [
    (["bound", "--phi", "power:1", "--M", "1", "--C", "1", "--eps", "0.01"],
     "power:C,alpha"),
    (["bound", "--phi", "power:1,x", "--M", "1", "--C", "1", "--eps", "0.01"],
     "power:C,alpha"),
    (["diophantine", "--theta", "liouville_j:x", "--depth", "5"],
     "liouville_j:<j_max>"),
] + [(["diophantine", "--theta", theta, "--depth", "5"],
      "malformed angle " + repr(theta) + "; expected a decimal, p/q, "
      "golden or liouville_j:<j_max>")
     for theta in ("1/x", "1/2/3", "abc", "")],
    ids=["power-one-value", "power-not-number", "liouville-j-not-int",
         "angle-denominator-not-int", "angle-two-slashes", "angle-word",
         "angle-empty"])
def test_malformed_spec_names_the_form(capsys, args, form):
    assert main(args) == 2
    assert form in capsys.readouterr().err


def test_stdout_json_is_strict_and_all_or_nothing(capsys):
    with pytest.raises(ValueError):
        _print_json({"a": 1, "b": [2, float("nan")]})
    assert capsys.readouterr().out == ""
    doc = {"b": [1.5, {"c": None}], "a": "x"}
    _print_json(doc)
    assert capsys.readouterr().out == json.dumps(doc, indent=2,
                                                 sort_keys=True) + "\n"


def test_bound_reads_phi_table(tmp_path, capsys):
    table = tmp_path / "phi.json"
    table.write_text('{"xs": [1, 2, 4], "ys": [1, 0.5, 0.25]}')
    assert main(["bound", "--phi", f"table:{table}", "--M", "1", "--C", "1",
                 "--eps", "0.01"]) == 0
    assert float(capsys.readouterr().out) > 0


@pytest.mark.parametrize("text, message", [
    ('{"xs": 5, "ys": [1, 0.5]}', "lists of numbers"),
    ('{"xs": [1, 2], "ys": "ab"}', "lists of numbers"),
    ('{"xs": [1, [2]], "ys": [1, 0.5]}', "lists of numbers"),
    ('{"xs": [1, 2, 4], "ys": [1, NaN, 0.25]}', "finite"),
    ('{"xs": [1, Infinity], "ys": [1, 0.5]}', "finite"),
    ('[["xs", "ys"]]', "exactly keys xs, ys"),
    # phi is interpolated in log-log, so a node at or below 0 has no log
    ('{"xs": [0, 1], "ys": [2, 1]}', "xs must be positive"),
    ('{"xs": [-1, 1], "ys": [2, 1]}', "xs must be positive"),
    ('{"xs": [1, 2, 4], "ys": [2, 1]}', "3 xs but 2 ys"),
], ids=["xs-int", "ys-string", "xs-nested", "ys-nan", "xs-inf", "not-object",
        "xs-zero", "xs-negative", "length-mismatch"])
def test_bound_rejects_malformed_phi_table(tmp_path, capsys, text, message):
    table = tmp_path / "phi.json"
    table.write_text(text)
    assert main(["bound", "--phi", f"table:{table}", "--M", "1", "--C", "1",
                 "--eps", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_validate(doubling_path, capsys):
    assert main(["validate", "--config", doubling_path, "--N", "1024"]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["validate", "--config", doubling_path, "--N", "100"]) == 0
    assert capsys.readouterr().out == (
        "grid/branch mismatch: n_cells = 100 is not a power of the branch "
        "count 2\n")


@pytest.mark.parametrize("scale, message", [
    ("inf", "got inf"),
    ("nan", "got nan"),
    ("0", "got 0.0: at 0 the perturbed system is the bare rotation by "
          "p_j/k_j, which attracts no orbit"),
    ("-1", "got -1.0"),
], ids=["inf", "nan", "0", "-1"])
def test_prop_bahh_scale_refusal_names_its_reason(capsys, scale, message):
    assert main(["example", "prop-bahh", "--j", "1", "--scale", scale]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: deformation_scale must be finite and > 0, {message}\n"


def test_missing_config_exits_2(capsys):
    assert main(["validate", "--config", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(DOUBLING_DOC, junk=1)))
    assert main(["norm", "--config", str(p), "--measure", str(p)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_norm_lebesgue(doubling_path, tmp_path, capsys):
    m = tmp_path / "lebesgue.json"
    m.write_text(json.dumps(
        {"builtin": "lebesgue", "n_cells": 64, "fiber_atoms": 256}))
    assert main(["norm", "--config", doubling_path, "--measure", str(m)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["l1"], doc["var_p"], doc["pbv"]) == (1.0, 0.0, 1.0)


@pytest.mark.parametrize("text", [
    '{"n_cells": 2, "dimension": 1, "fibers": 5}',
    '{"n_cells": [2], "dimension": 1, "fibers": [[], []]}',
    '{"n_cells": 2, "dimension": 1, "fibers": [[[[NaN], 0.5]], [[[0.5], 0.5]]]}',
    '{"n_cells": 2, "dimension": 1, '
    '"fibers": [[[[0.25], Infinity]], [[[0.5], 0.5]]]}',
    '{"n_cells": 1, "dimension": 2, "fibers": [[[[0.5, 0.5], 1.0]]]}',
    '{"n_cells": 2, "dimension": 1, "ids": 0, "fibers": [[[[0.5], 0.5]]]}',
    '{"n_cells": 2, "dimension": 1, "ids": [0], "fibers": [[[[0.5], 0.5]]]}',
    '{"n_cells": 2, "dimension": 1, "ids": [0, 1.0], '
    '"fibers": [[[[0.5], 0.5]], [[[0.25], 0.5]]]}',
    '{"n_cells": 2, "dimension": 1, "ids": [0, true], '
    '"fibers": [[[[0.5], 0.5]], [[[0.25], 0.5]]]}',
    '{"n_cells": 2, "dimension": 1, "ids": [0, -1], '
    '"fibers": [[[[0.5], 0.5]], [[[0.25], 0.5]]]}',
    '{"n_cells": 2, "dimension": 1, "ids": [0, 2], '
    '"fibers": [[[[0.5], 0.5]], [[[0.25], 0.5]]]}',
    '{"n_cells": 2, "dimension": 1, "ids": [1, 1], '
    '"fibers": [[[[0.5], 0.5]], [[[0.25], 0.5]]]}',
], ids=["fibers-not-list", "n-cells-list", "nan-position", "inf-weight",
        "dimension-2", "ids-not-list", "ids-wrong-length", "ids-float",
        "ids-bool", "ids-negative", "ids-past-table", "row-unreferenced"])
def test_norm_rejects_malformed_measure(doubling_path, tmp_path, capsys, text):
    m = tmp_path / "bad.json"
    m.write_text(text)
    assert main(["norm", "--config", doubling_path, "--measure", str(m)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("doc, message", [
    ({"base": {"kind": "linear", "l": [2]}}, "l must be a positive integer"),
    ({"base": {"kind": "linear", "l": 2.5}}, "l must be a positive integer"),
    ({"fiber": {"kind": "deformation", "delta": "0.001", "orbit_k": [4]}},
     "orbit_k must be a positive integer"),
    ({"fiber": {"kind": "translation", "theta": "golden", "indicator": 5}},
     "indicator must be a list"),
    ({"constants": {"ly_base": 5}}, "ly_base must be a list"),
    ({"constants": {"ly_base": ["NaN", 1]}}, "NaN"),
    ({"fiber": {"kind": "translation", "theta": "golden", "A": -3}},
     "A must lie in (0, 1/2]"),
], ids=["l-list", "l-fraction", "orbit-k-list", "indicator-int",
        "ly-base-int", "ly-base-nan", "fiber-a-negative"])
def test_norm_rejects_malformed_system(tmp_path, capsys, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(DOUBLING_DOC, **doc)))
    m = tmp_path / "lebesgue.json"
    m.write_text(json.dumps(
        {"builtin": "lebesgue", "n_cells": 4, "fiber_atoms": 4}))
    assert main(["norm", "--config", str(cfg), "--measure", str(m)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and message in captured.err
    assert captured.out == ""
    assert main(["validate", "--config", str(cfg)]) == 0
    assert message in capsys.readouterr().out


def test_decay_artifacts(doubling_path, tmp_path, capsys):
    args = ["decay", "--config", doubling_path, "--nmax", "12", "--N", "64",
            "--out-dir", str(tmp_path), "--out", "decay.csv"]
    assert main(args) == 0
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert lines[0] == "n,norm"
    assert len(lines) == 14  # header + n = 0..12, no silent drops
    assert lines[1] == "0,0.5"
    meta = json.loads((tmp_path / "decay.csv.meta.json").read_text())
    assert meta["command"] == "decay"
    assert meta["seed"] == 0
    assert meta["config"]["system"] == DOUBLING_DOC
    assert meta["partial"] is False


def test_decay_refuses_observable_on_another_grid(doubling_path, tmp_path,
                                                  capsys):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps(
        {"n_cells": 4, "dimension": 1, "ids": [0, 0, 0, 0],
         "fibers": [[[[0], "1/8"], [["1/2"], "-1/8"]]]}))
    args = ["decay", "--config", doubling_path, "--nmax", "4",
            "--observable", str(obs), "--out-dir", str(tmp_path),
            "--out", "decay.csv"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "n_cells = 4" in captured.err and "1024" in captured.err
    assert not (tmp_path / "decay.csv").exists()
    assert main(args + ["--N", "4"]) == 0
    meta = json.loads((tmp_path / "decay.csv.meta.json").read_text())
    assert meta["config"]["N"] == 4


def test_decay_rerun_byte_identical(doubling_path, tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        assert main(["decay", "--config", doubling_path, "--nmax", "8",
                     "--N", "64", "--out-dir", str(tmp_path / d),
                     "--out", "decay.csv"]) == 0
    for name in ("decay.csv", "decay.csv.meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_decay_control_stays_flat_and_rotation_decays(tmp_path):
    # the identity-fiber control (angle 0, empty indicator) never mixes the
    # dipole delta_0 - delta_1/2, while the golden rotation does
    def run(name):
        assert main(["decay", "--config",
                     str(ROOT / "configs" / f"{name}.json"), "--N", "64",
                     "--nmax", "30", "--out-dir", str(tmp_path),
                     "--out", f"{name}.csv"]) == 0
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        return ({float(row.split(",")[1]) for row in rows},
                meta["results"]["slope"])

    norms, slope = run("doubling_identity")
    assert norms == {0.5}
    assert slope == 0.0
    assert run("doubling_rotation")[1] < 0


def test_sweep_artifacts(tmp_path):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(BAHH_FAMILY))
    assert main(["sweep", "--config", str(p), "--gamma", "3.0",
                 "--out-dir", str(tmp_path), "--out", "sweep.csv"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "delta,distance,lower_bound,upper_bound_fit"
    assert len(lines) == 3  # one row per family member
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    # closed-form rows: nothing is unconverged, nothing is partial
    assert set(meta["results"]) == {"K", "beta", "lower_ok", "upper_ok"}
    assert meta["partial"] is False
    assert meta["results"]["lower_ok"] == [True, True]
    # the smallest-delta row anchors the fit of K, so it checks nothing
    assert meta["results"]["upper_ok"] == [False, None]


def test_sweep_without_gamma_prime_reports_no_lower_bound(tmp_path):
    doc = json.loads((ROOT / "configs" / "bahh_family.json").read_text())
    del doc["gamma_prime"]
    p = tmp_path / "family.json"
    p.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(p), "--out-dir", str(tmp_path),
                 "--out", "sweep.csv"]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    # an empty lower_bound cell, not a 0.0 that every distance passes
    assert [row[2] for row in rows] == ["", ""]
    assert all(float(row[3]) > 0 for row in rows)
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["config"]["gamma_prime"] is None
    assert meta["results"]["lower_ok"] == [None, None]
    assert meta["results"]["upper_ok"] == [False, None]


@pytest.mark.parametrize("doc, message", [
    ({"js": 5}, "js must be a list"),
    ({"gamma": [3]}, "expected number"),
    ({"deformation_scale": [4]}, "expected number"),
    ({"deformation_scale": 0}, "finite and > 0"),
    # a prop-bahh family runs no pipeline and builds no measure
    ({"pipeline": {"n_max": [3]}}, "unknown keys ['pipeline']"),
    ({"js": [1.5]}, "j must be a positive integer"),
    ({"n_cells": 2.5}, "unknown keys ['n_cells']"),
    ({"n_cells": 16, "pipeline": {"n_max": 3}},
     "unknown keys ['n_cells', 'pipeline']"),
], ids=["js-int", "gamma-list", "deformation-scale-list",
        "deformation-scale-zero", "n-max-list",
        "j-fraction", "n-cells-fraction", "n-cells-and-pipeline"])
def test_sweep_rejects_malformed_family(tmp_path, capsys, doc, message):
    p = tmp_path / "family.json"
    p.write_text(json.dumps(dict(BAHH_FAMILY, **doc)))
    assert main(["sweep", "--config", str(p), "--out-dir", str(tmp_path),
                 "--out", "sweep.csv"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and message in captured.err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("theta, reason", [
    ("0.5", "delta_j = 0"),
    ("1/2", "perturbations need an irrational angle"),
], ids=["float", "fraction"])
def test_sweep_rejects_zero_delta(tmp_path, capsys, theta, reason):
    # 1/2 is its own first convergent: delta_1 = 0, no perturbation. As a
    # decimal the family reaches delta_1 = 0; as a fraction the angle is
    # refused as rational before any delta is built
    p = tmp_path / "family.json"
    p.write_text(json.dumps(dict(BAHH_FAMILY, theta=theta)))
    assert main(["sweep", "--config", str(p), "--out-dir", str(tmp_path),
                 "--out", "sweep.csv"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and reason in captured.err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--config", str(ROOT / "configs" / "bahh_family.json"),
     "--out", "sweep.csv"],
    ["example", "prop-30", "--j", "1"],
], ids=["sweep", "example"])
def test_allow_partial_is_invariant_only(tmp_path, capsys, args):
    # only invariant can stop unconverged; elsewhere the flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(args + ["--allow-partial", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-partial" in \
        capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_invariant_exit_codes(tmp_path):
    p = tmp_path / "precomposed.json"
    p.write_text(json.dumps({
        "base": {"kind": "linear_precomposed", "l": 2,
                 "sigma": {"kind": "sine", "amplitude": 0.01}},
        "fiber": {"kind": "translation", "theta": "golden",
                  "indicator": [["0.5", "1"]]},
    }))
    args = ["invariant", "--config", str(p), "--N", "64",
            "--fiber-atoms", "256", "--tol", "1e-12", "--nmax", "3",
            "--out-dir", str(tmp_path), "--out", "inv.json"]
    assert main(args) == 3
    meta = json.loads((tmp_path / "inv.json.meta.json").read_text())
    assert meta["partial"] is True
    assert main(args + ["--allow-partial"]) == 0


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_invariant_without_steps_writes_strict_json(tmp_path):
    # no step measures no residual: the meta file says null, not Infinity
    assert main(["invariant", "--config", str(ROOT / "configs" /
                                              "doubling_rotation.json"),
                 "--N", "8", "--nmax", "0", "--out-dir", str(tmp_path),
                 "--out", "inv.json"]) == 3
    meta = _strict_json((tmp_path / "inv.json.meta.json").read_text())
    assert meta["results"]["residual"] is None
    assert meta["results"]["n_steps"] == 0 and meta["partial"] is True
    _strict_json((tmp_path / "inv.json").read_text())



@pytest.mark.parametrize("args", [
    ["decay", "--N", "0"],
    ["decay", "--N", "64", "--nmax", "-1"],
    ["invariant", "--N", "0"],
    ["invariant", "--N", "64", "--fiber-atoms", "0"],
    ["invariant", "--N", "64", "--fiber-atoms", "64", "--tol", "nan"],
    ["invariant", "--N", "64", "--fiber-atoms", "64", "--tol", "-1"],
    ["invariant", "--N", "64", "--fiber-atoms", "64", "--tol", "inf"],
], ids=["decay-n-0", "decay-nmax-negative", "invariant-n-0",
        "invariant-atoms-0", "tol-nan", "tol-negative", "tol-inf"])
def test_bad_counts_exit_2(tmp_path, args):
    # a fresh interpreter with a timeout: a grid check that loops forever
    # fails this test instead of stalling the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "skewstab.cli", *args,
         "--config", str(ROOT / "configs" / "doubling_rotation.json"),
         "--out-dir", str(tmp_path), "--out", "out"],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert not (tmp_path / "out").exists()


BUMP_DOC = {
    "base": {"kind": "linear", "l": 2},
    "fiber": {"kind": "composite", "theta": "golden", "delta": "1/64",
              "orbit_k": 2, "indicator": [["0.5", "1"]]},
}


def test_invariant_unconverged_reports_residual(tmp_path, capsys):
    p = tmp_path / "bump.json"
    p.write_text(json.dumps(BUMP_DOC))
    # eps_f = 2^-8 keeps the bump's snap band (1/48) within 1/N = 1/32
    assert main(["invariant", "--config", str(p), "--N", "32",
                 "--fiber-atoms", "64", "--tol", "1e-30", "--nmax", "3",
                 "--eps-f", "0.00390625",
                 "--out-dir", str(tmp_path), "--out", "inv.json"]) == 3
    meta = json.loads((tmp_path / "inv.json.meta.json").read_text())
    assert meta["partial"] is True
    assert meta["results"]["converged"] is False
    assert meta["results"]["n_steps"] == 3
    residual = meta["results"]["residual"]
    assert math.isfinite(residual) and residual > 0
    assert f"(residual {residual:.3g})" in capsys.readouterr().err


def test_invariant_runs_without_scipy(tmp_path):
    p = tmp_path / "bump.json"
    p.write_text(json.dumps(BUMP_DOC))
    code = (
        "import sys\n"
        "from skewstab.cli import main\n"
        f"assert main(['invariant', '--config', {str(p)!r}, '--N', '32', "
        f"'--fiber-atoms', '64', '--nmax', '20', '--allow-partial', "
        f"'--eps-f', '0.00390625', "
        f"'--out-dir', {str(tmp_path)!r}, '--out', 'inv.json']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_invariant_writes_measure(doubling_path, tmp_path):
    assert main(["invariant", "--config", doubling_path, "--N", "32",
                 "--fiber-atoms", "128", "--tol", "1e-4", "--nmax", "200",
                 "--out-dir", str(tmp_path), "--out", "inv.json"]) == 0
    doc = json.loads((tmp_path / "inv.json").read_text())
    assert set(doc) == {"n_cells", "dimension", "ids", "fibers"}
    assert doc["n_cells"] == 32
    assert len(doc["ids"]) == 32
    assert sorted(set(doc["ids"])) == list(range(len(doc["fibers"])))


def test_prop_bahh_default_grid_refuses_or_finds_the_orbit(tmp_path):
    # the prop-bahh j = 1 system: its physical measure is mu_orbit
    code = main(["invariant", "--config",
                 str(ROOT / "configs" / "prop_bahh_j1_default_grid.json"),
                 "--N", "1024", "--fiber-atoms", "2048", "--tol", "1e-7",
                 "--nmax", "3000", "--out-dir", str(tmp_path),
                 "--out", "inv.json"])
    if code == 2:
        return
    assert code == 0
    mu = load_measure(json.loads((tmp_path / "inv.json").read_text()))
    ex = prop_bahh_system(lacunary_theta(3), 1, n_cells=1024)
    assert float(l1_norm(mu - ex.mu_orbit.to_float())) <= 4 / 1024


def test_snap_band_refusal_names_a_passing_eps_f(tmp_path, capsys):
    # k = 16 and s = 2^-14: at the default eps_f = 2^-12 the band is
    # w = 1/32 > 1/N; eps_f = 2^-18 gives w = 1/1536 and is not refused
    args = ["invariant", "--config",
            str(ROOT / "configs" / "prop_bahh_j1_default_grid.json"),
            "--N", "1024", "--fiber-atoms", "2048", "--nmax", "1",
            "--out-dir", str(tmp_path), "--out", "inv.json"]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: fiber snap band w = 0.03125 at eps_f = 0.000244140625 "
        "exceeds 1/N = 0.000976562: a lattice point within w of the bump's "
        "orbit can be a spurious fixed point; eps_f = 3.814697265625e-06 "
        "passes\n")
    assert not any(tmp_path.iterdir())
    # eps_f = 2^-17: w = 1/768, within 2/N but not within 1/N
    assert main(args + ["--eps-f", "7.62939453125e-06"]) == 2
    assert "eps_f = 3.814697265625e-06 passes" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert main(args + ["--eps-f", "3.814697265625e-06",
                        "--allow-partial"]) == 0
    assert (tmp_path / "inv.json").exists()


@pytest.mark.parametrize("which, j, digest", [
    ("prop-30", "1",
     "c74ea2bc8b0e7d936904c223b182f341d52136e9280b5de915f1d8abb444182b"),
    ("prop-30", "2",
     "835d386b02af0716b3fc30332acad9811e1486fbd71026457d0c1a6576029a51"),
    ("prop-bahh", "1",
     "5f2c8af1074c18964be3e59ef985fb4dfbb0bb1b1fc59ed36af9c5cfb832e048"),
    ("prop-bahh", "2",
     "f1bcba6d03f2d19ce8b2e26d98555782ea53dc912f5ecb9127dbea4d4f129821"),
], ids=["prop30-j1", "prop30-j2", "prop-bahh-j1", "prop-bahh-j2"])
def test_worked_example_bytes_are_pinned(capsys, which, j, digest):
    # every value printed comes from Fractions, so the bytes do not depend
    # on the platform
    assert main(["example", which, "--j", j]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_example_prop_bahh(capsys):
    assert main(["example", "prop-bahh", "--j", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 16
    assert doc["closed_form_distance"] == "0.015625"
    assert doc["lower_bound_gamma_prime"]["pass"] is True
    assert doc["lower_bound_inverse_k"]["pass"] is True


@pytest.mark.parametrize("theta, angle", [("0.5", "1/2"),
                                          ("1e-3", "1/1000")],
                         ids=["decimal-0.5", "decimal-1e-3"])
def test_example_prop_bahh_refuses_zero_delta(capsys, theta, angle):
    # a decimal angle that is its own j-th convergent gives delta = 0: no
    # perturbation, so no counterexample
    assert main(["example", "prop-bahh", "--j", "1", "--theta", theta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: j = 1:")
    assert f"angle {angle} is its own approximant" in captured.err


def test_example_prop_30(capsys):
    for j, value in [(1, 2 ** -8 + 2 ** -32), (2, 2 ** -32)]:
        assert main(["example", "prop-30", "--j", str(j)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value_float"] == pytest.approx(value)
        assert doc["lebesgue_value"] == "0"
        assert doc["bounds"]["half_amplitude"]["pass"] is True
        assert doc["bounds"]["sqrt_delta"]["pass"] is True


def test_example_prop_30_refusal(capsys):
    assert main(["example", "prop-30", "--j", "3"]) == 2
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("args, limit", [
    (["example", "prop-bahh", "--theta", "liouville_j:4", "--j", "3"],
     "2^18"),
    (["diophantine", "--theta", "liouville_j:5", "--depth", "5"], "cap 4"),
], ids=["prop-bahh-atoms", "lacunary-depth"])
def test_refusal_names_the_fixed_limit(capsys, args, limit):
    # neither limit can be set, so the message names it and no parameter
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and limit in captured.err
    for word in ("raise", "fiber_atom_budget", "depth_cap"):
        assert word not in captured.err


def test_diophantine(capsys):
    assert main(["diophantine", "--theta", "golden",
                 "--depth", "10000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.9 < doc["gamma_hat"] < 1.1
    assert doc["is_rational"] is False
    assert all(len(s) == 3 for s in doc["samples"])


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_checked_in_config_loads(path, capsys):
    doc = json.loads(path.read_text())
    if "base" in doc:
        assert main(["validate", "--config", str(path), "--N", "1024"]) == 0
        assert capsys.readouterr().out == "ok\n"
    elif "builtin" in doc:
        assert load_measure(doc).n_cells == doc["n_cells"]
    else:
        assert load_family(doc).pairs
