"""Acceptance gate: one check per release criterion, one printed
pass/fail line each.

Each test prints `ACCEPTANCE <n> [PASS|FAIL] <detail>` directly to the
terminal (bypassing capture) and then asserts, so a plain `pytest -v`
run shows the full scorecard."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from skewstab.arithmetic import (
    golden_angle,
    lacunary_theta,
    linear_type_estimate,
    local_exponent_dyadic,
)
from skewstab.batteries import (
    positive_disintegrations,
    signed_disintegrations,
    signed_fiber_measures,
)
from skewstab.cli import main
from skewstab.dynamics import (
    FiberMapFamily,
    SineShift,
    SkewSystem,
    deformation_family,
    invariant_measure,
    linear_base,
    ly_check,
    precomposed_base,
    transfer_step,
    translation_family,
)
from skewstab.measures import (
    FiberMeasure,
    l1_norm,
    lebesgue_disintegration,
    marginal_density,
    product_disintegration,
    var_p,
    w1_norm,
)
from skewstab.stability import (
    PowerLaw,
    StabilityBudget,
    equilibrium_decay,
    holder_exponent,
    prop30_example,
    prop_bahh_system,
    stability_bound,
)

from oracles import dense_grid_w1, transfer_density

GOLDEN = golden_angle()


def doubling_system() -> SkewSystem:
    """The doubling x golden-rotation extension (rotation on [1/2, 1])."""
    return SkewSystem(linear_base(2), translation_family(GOLDEN))


def sigma_system() -> SkewSystem:
    return SkewSystem(precomposed_base(2, SineShift(0.01)),
                      translation_family(GOLDEN))


def _line(capsys, num: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_w1_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for fm in signed_fiber_measures(0, 200, max_atoms=6):
        fast = float(w1_norm(fm))
        oracle = dense_grid_w1(fm, nodes=10 ** 4)
        worst = max(worst, abs(fast - oracle))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 60
    _line(capsys, 1, ok,
          f"W1 fast paths vs 10^4-node LP oracle on 200 signed measures: "
          f"max |diff| = {worst:.2e} (tol 1e-3), {dt:.1f}s (< 60s)")


def test_criterion_02_transfer_conservation(capsys):
    worst_mass = worst_marginal = 0.0
    positive_ok = True
    cases = [(doubling_system(), positive_disintegrations(1, 250, 64)),
             (sigma_system(), positive_disintegrations(2, 250, 64))]
    for system, battery in cases:
        for dis in battery:
            out = transfer_step(system, dis)
            worst_mass = max(worst_mass,
                             abs(float(out.mass()) - float(dis.mass())))
            positive_ok &= all(w >= 0 for f in out.fibers
                               for _, w in f.atoms())
            want = transfer_density(system.base,
                                    marginal_density(dis).values)
            got = marginal_density(out).values
            worst_marginal = max(worst_marginal,
                                 float(np.max(np.abs(got - want))))
    ok = worst_mass <= 1e-12 and positive_ok and worst_marginal <= 1e-12
    _line(capsys, 2, ok,
          f"500 transfers: mass drift {worst_mass:.1e} (tol 1e-12), "
          f"positivity exact = {positive_ok}, marginal mismatch "
          f"{worst_marginal:.1e} (tol 1e-12)")


def test_criterion_03_weak_norm_contraction(capsys):
    worst = -math.inf
    deform = SkewSystem(linear_base(2), deformation_family(0.01, 4))
    cases = [(doubling_system(), 0), (deform, 100)]
    for system, seed in cases:
        alpha = system.fiber.alpha
        for dis in signed_disintegrations(seed, 100, 64):
            before = float(l1_norm(dis))
            after = float(l1_norm(transfer_step(system, dis, eps_f=0)))
            worst = max(worst, after - alpha * before * (1 + 1e-9))
    ok = worst <= 0
    _line(capsys, 3, ok,
          f"||L mu||_1 <= alpha ||mu||_1 (1+1e-9) on 200 signed measures "
          f"(translation alpha=1, deformation alpha>1): worst excess "
          f"{worst:.2e}")


def test_criterion_04_lebesgue_invariance(capsys):
    n = 1024
    t0 = time.perf_counter()
    f0 = lebesgue_disintegration(n, 4 * n)
    dist = float(l1_norm(transfer_step(doubling_system(), f0) - f0))
    dt = time.perf_counter() - t0
    ok = dist <= 2.0 / n and dt < 60
    _line(capsys, 4, ok,
          f"||L f0 - f0||_1 = {dist:.2e} <= 2/N = {2.0 / n:.2e} at "
          f"N = {n}, {dt:.1f}s (< 60s)")


def test_criterion_05_ly_and_regularity(capsys):
    system = doubling_system()
    worst = math.inf
    for n in (256, 1024):
        for dis in positive_disintegrations(0, 50, n):
            mu = dis.scale(1.0 / float(dis.mass()))
            margin = ly_check(system, mu, 1.0).margin
            worst = min(worst, margin * n / 2.0)  # in units of 2/N
    battery_ok = worst >= -1.0

    regu_ok = True
    details = []
    for sys_i, n in ((doubling_system(), 256), (sigma_system(), 256)):
        res = invariant_measure(sys_i, tol=1e-6, n_max=800, n_cells=n,
                                fiber_atoms=4 * n)
        f = res.measure
        base, p, a = sys_i.base, 1.0, sys_i.fiber.A
        contraction = base.lam ** p * sys_i.fiber.alpha
        h = sys_i.fiber.h_hat(p) + 3 * base.branch_count * \
            sys_i.fiber.alpha * base.c_h * a ** (base.xi - p)
        bound = h * marginal_density(f).sup_norm / (1 - contraction)
        v = var_p(f, p, a)
        regu_ok &= res.converged and v <= bound + 2.0 / n
        details.append(f"var_p={v:.4f} vs {bound:.3f}")
    ok = battery_ok and regu_ok
    _line(capsys, 5, ok,
          f"LY margins on 50-measure battery at N in {{256, 1024}}: worst "
          f"= {worst:+.2f} x (2/N) (need >= -1); invariant-measure "
          f"regularity bound: {', '.join(details)}")


def test_criterion_06_bound_formula_and_scaling(capsys):
    val = stability_bound(StabilityBudget(PowerLaw(1, 1), 1, 1, 0.01))
    formula_ok = abs(val - 0.302843) <= 1e-6
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        eps = [2.0 ** -k for k in range(16, 49)]
        vals = [stability_bound(StabilityBudget(PowerLaw(1, alpha), 1, 1, e))
                for e in eps]
        slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
        worst = max(worst, abs(slope - holder_exponent(alpha)))
    ok = formula_ok and worst <= 0.02
    _line(capsys, 6, ok,
          f"stability_bound(phi=x^-1, M=C=1, eps=0.01) = {val:.6f} "
          f"(want 0.302843 +- 1e-6); fitted exponent error <= {worst:.4f} "
          f"(tol 0.02) for alpha in {{0.5, 1, 2}}")


def test_criterion_07_attracting_orbit_distances(capsys):
    t0 = time.perf_counter()
    theta = lacunary_theta(3)
    gp = 2.5
    checks = []
    for j in (1, 2):
        ex = prop_bahh_system(theta, j)
        exact_delta = ex.delta == -sum(
            (Fraction(1, 2 ** (2 ** (2 * i)))
             for i in range(j + 1, 4)), Fraction(0))
        dist = ex.closed_form_distance
        closed = l1_norm(ex.mu_reference - ex.mu_orbit) == dist
        lower1 = float(dist) >= abs(float(ex.delta)) ** (1 / (gp - 1)) / 9
        lower2 = float(dist) >= 1.0 / (9 * ex.k)
        checks.append(exact_delta and closed and lower1 and lower2)

    # oracle confirmation of the closed form at k = 16
    ex1 = prop_bahh_system(theta, 1, n_cells=1024)
    diff = (ex1.mu_reference.fibers[0] - ex1.mu_orbit.fibers[0]).scale(1024)
    oracle = dense_grid_w1(diff.to_float(), nodes=2 ** 14)
    oracle_ok = abs(oracle - 1.0 / 64.0) <= 1e-6

    res = invariant_measure(ex1.pspec.perturbed, tol=1e-7, n_max=3000,
                            eps_f=2.0 ** -40, n_cells=1024,
                            fiber_atoms=2048)
    pipeline_dist = float(l1_norm(res.measure - ex1.mu_orbit.to_float()))
    pipeline_ok = res.converged and pipeline_dist <= 4.0 / 1024
    dt = time.perf_counter() - t0
    ok = all(checks) and oracle_ok and pipeline_ok and dt < 300
    _line(capsys, 7, ok,
          f"exact delta_j, ||mu_0 - mu_j||_1 = 1/(4 k_j) (oracle at k=16: "
          f"{oracle:.6f}), both lower bounds, j in {{1,2}}: "
          f"{all(checks)}; pipeline distance {pipeline_dist:.2e} <= 4/N "
          f"in {res.n_steps} steps; {dt:.0f}s (< 300s)")


def test_criterion_08_exact_observable_averages(capsys):
    t0 = time.perf_counter()
    r1 = prop30_example(1)
    r2 = prop30_example(2)
    tail1 = Fraction(1, 2 ** 128) + Fraction(1, 2 ** 512)
    v1_ok = r1.value == Fraction(1, 2 ** 8) + Fraction(1, 2 ** 32) + tail1
    v2_ok = r2.value == Fraction(1, 2 ** 32) + tail1
    cancel_ok = isinstance(r2.term_values[0], Fraction) and \
        r2.term_values[0] == 0
    bounds_ok = all((r.half_amplitude_ok and r.sqrt_delta_ok)
                    for r in (r1, r2))
    dt = time.perf_counter() - t0
    ok = v1_ok and v2_ok and cancel_ok and bounds_ok and dt < 120
    _line(capsys, 8, ok,
          f"rational phase arithmetic: term k < j vanishes exactly "
          f"({cancel_ok}), v1 and v2 match their exact dyadic sums "
          f"({v1_ok}, {v2_ok}), v_j >= (2^(-2^2j))^2/2 and >= "
          f"0.9 sqrt|delta_j| ({bounds_ok}); {dt:.0f}s (< 120s)")


def test_criterion_09_equilibrium_decay(capsys):
    g = product_disintegration(
        1024, FiberMeasure([(0.0,), (0.5,)], [1.0, -1.0]))
    series = equilibrium_decay(doubling_system(), g, 100)
    arr = np.array(series.norms)
    monotone = bool(np.all(np.diff(arr[5:]) <= 1e-12))
    slope_ok = series.slope is not None and series.slope < 0

    control = equilibrium_decay(
        SkewSystem(linear_base(2), FiberMapFamily()),
        product_disintegration(
            64, FiberMeasure([(0.0,), (0.5,)], [1.0, -1.0])), 20)
    const_dev = max(abs(v - control.norms[0]) for v in control.norms)
    ok = monotone and slope_ok and const_dev <= 1e-12
    _line(capsys, 9, ok,
          f"||L^n g||_1 nonincreasing after burn-in 5 ({monotone}), tail "
          f"slope {series.slope:.3f} < 0; identity control constant to "
          f"{const_dev:.1e} (tol 1e-12). Shape check only: the stated "
          f"n^(-1/8 gamma) rate is an upper bound with a non-constructive "
          f"constant and is not reproduced as an equality.")


def test_criterion_10_diophantine(capsys):
    est = linear_type_estimate(GOLDEN, 10 ** 6)
    golden_ok = 0.95 <= est.gamma_hat <= 1.05
    theta = lacunary_theta(3)
    exps = [local_exponent_dyadic(2 ** (2 ** (2 * n)), theta)
            for n in (1, 2)]
    lac_ok = all(e == Fraction(3) for e in exps)
    ok = golden_ok and lac_ok
    _line(capsys, 10, ok,
          f"golden-mean type estimate {est.gamma_hat:.4f} in [0.95, 1.05] "
          f"at depth 10^6; lacunary local exponents at k = 2^4, 2^16 are "
          f"{[str(e) for e in exps]} (want exactly 3)")


def test_criterion_11_determinism(tmp_path, capsys):
    doubling_doc = {"base": {"kind": "linear", "l": 2},
               "fiber": {"kind": "translation", "theta": "golden",
                         "indicator": [["0.5", "1"]]}}
    family_doc = {"kind": "prop-bahh", "theta": "liouville_j:3",
                  "js": [1, 2], "gamma": 3.0, "gamma_prime": 2.5}
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(doubling_doc))
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(family_doc))

    stdouts = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        assert main(["decay", "--config", str(cfg), "--nmax", "25",
                     "--N", "256", "--out-dir", str(d),
                     "--out", "decay.csv"]) == 0
        assert main(["sweep", "--config", str(fam), "--gamma", "3.0",
                     "--out-dir", str(d), "--out", "sweep.csv"]) == 0
        assert main(["invariant", "--config", str(cfg), "--N", "64",
                     "--fiber-atoms", "256", "--tol", "1e-4",
                     "--nmax", "100", "--out-dir", str(d),
                     "--out", "inv.json"]) == 0
        assert main(["bound", "--phi", "power:1,1", "--M", "1", "--C", "1",
                     "--eps", "0.01", "--out-dir", str(d),
                     "--out", "bound.json"]) == 0
        assert main(["example", "prop-bahh", "--j", "1"]) == 0
        stdouts.append(capsys.readouterr().out)

    names = ["decay.csv", "decay.csv.meta.json", "sweep.csv",
             "sweep.csv.meta.json", "inv.json", "inv.json.meta.json",
             "bound.json", "bound.json.meta.json"]
    identical = all((tmp_path / "a" / n).read_bytes() ==
                    (tmp_path / "b" / n).read_bytes() for n in names)
    stdout_ok = stdouts[0] == stdouts[1]
    ok = identical and stdout_ok
    _line(capsys, 11, ok,
          f"repeated runs byte-identical across {len(names)} artifacts "
          f"({identical}) and example stdout ({stdout_ok})")
