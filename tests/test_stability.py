"""Bound calculator arithmetic, decay experiments, and the exact
periodic-orbit counterexamples."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from skewstab import stability
from skewstab.arithmetic import golden_angle, lacunary_theta
from skewstab.cli import main
from skewstab.dynamics import (
    FiberMapFamily,
    SkewSystem,
    linear_base,
    transfer_step,
    translation_family,
)
from skewstab.measures import (
    FiberMeasure,
    l1_norm,
    product_disintegration,
    uniform_fiber,
)
from skewstab.stability import (
    PowerLaw,
    StabilityBudget,
    TabulatedRate,
    decay_rate_formula,
    equilibrium_decay,
    holder_exponent,
    prop30_example,
    prop_bahh_system,
    psi_inverse,
    stability_bound,
    stability_sweep,
)

GOLDEN = golden_angle()


def doubling_system() -> SkewSystem:
    return SkewSystem(linear_base(2), translation_family(GOLDEN))


@pytest.fixture(scope="module")
def bahh_pair():
    theta = lacunary_theta(3)
    return {j: prop_bahh_system(theta, j) for j in (1, 2)}


# ------------------------------------------------------------ bound algebra

def test_stability_bound_frozen_value():
    b = StabilityBudget(PowerLaw(1, 1), 1.0, 1.0, 0.01)
    assert stability_bound(b) == pytest.approx(0.302843, abs=1e-6)


def test_stability_bound_zero_eps():
    assert stability_bound(StabilityBudget(PowerLaw(1, 1), 1, 1, 0.0)) == 0.0


def test_psi_inverse_closed_form():
    # psi(x) = x^-2 so psi^{-1}(0.005) = sqrt(200)
    assert psi_inverse(PowerLaw(1, 1), 0.005) == pytest.approx(
        math.sqrt(200), rel=1e-12)
    assert psi_inverse(PowerLaw(1, 1), 1.0) == pytest.approx(1.0)


def test_psi_inverse_range_errors():
    with pytest.raises(ValueError, match="range"):
        psi_inverse(PowerLaw(1, 1), 2.0)       # above psi(1)
    with pytest.raises(ValueError, match="range"):
        psi_inverse(PowerLaw(1, 1), 2.0 ** -200)  # below psi(2^60)
    with pytest.raises(ValueError, match="positive"):
        psi_inverse(PowerLaw(1, 1), 0.0)


_TABLE_XS = tuple(float(2 ** k) for k in range(61))


def test_psi_inverse_dual_method_agreement():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(100):
        c = float(rng.uniform(0.5, 5.0))
        alpha = float(rng.uniform(0.3, 3.0))
        phi = PowerLaw(c, alpha)
        y = float(rng.uniform(phi(2.0 ** 40) / 2.0 ** 40, c * 0.99))
        x_closed = psi_inverse(phi, y)
        # the same power law sampled as a table is bisected
        tab = TabulatedRate(_TABLE_XS, tuple(phi(x) for x in _TABLE_XS))
        x_bisect = psi_inverse(tab, y)
        assert abs(x_closed - x_bisect) <= 1e-8 * max(1.0, x_closed)
        checked += 1
    assert checked == 100


def test_tabulated_rate_inversion():
    xs = tuple(float(2 ** k) for k in range(0, 40))
    phi_pl = PowerLaw(1, 1)
    tab = TabulatedRate(xs, tuple(phi_pl(x) for x in xs))
    assert psi_inverse(tab, 0.005) == pytest.approx(math.sqrt(200), rel=1e-6)
    with pytest.raises(ValueError, match="decreasing"):
        TabulatedRate((1.0, 2.0), (0.5, 0.7))


def test_bound_monotone_in_constants():
    rng = np.random.default_rng(7)
    phi = PowerLaw(1.5, 1.2)
    for _ in range(20):
        eps = float(rng.uniform(1e-6, 1e-2))
        m, c = float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3))
        base = stability_bound(StabilityBudget(phi, m, c, eps))
        assert stability_bound(StabilityBudget(phi, m, c, eps * 1.5)) >= base
        assert stability_bound(StabilityBudget(phi, m * 1.5, c, eps)) >= base
        assert stability_bound(StabilityBudget(phi, m, c * 1.5, eps)) >= base


def test_bound_scaling_exponent():
    # deep-eps range: the additive +1 in the bound is negligible there
    for alpha in (0.5, 1.0, 2.0):
        eps = [2.0 ** -k for k in range(16, 49)]
        vals = [stability_bound(StabilityBudget(PowerLaw(1, alpha), 1, 1, e))
                for e in eps]
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert abs(slope - holder_exponent(alpha)) < 0.02


def test_bound_ratio_constancy_deep_range():
    for alpha in (0.5, 1.0, 2.0):
        e_exp = holder_exponent(alpha)
        eps = np.array([2.0 ** -k for k in range(20, 37)])
        vals = np.array([
            stability_bound(StabilityBudget(PowerLaw(1, alpha), 1, 1, e))
            for e in eps])
        r = vals / eps ** e_exp
        assert r.max() / r.min() < 1.02


def test_holder_exponent_values():
    assert holder_exponent(1.0) == pytest.approx(0.5)
    assert holder_exponent(1e6) == pytest.approx(1.0, abs=1e-6)
    assert holder_exponent(1.0 / 8.0) == pytest.approx(1.0 / 9.0)
    with pytest.raises(ValueError):
        holder_exponent(0.0)


def test_decay_rate_formula():
    assert decay_rate_formula(1.0, "lipschitz") == pytest.approx(0.5)
    assert decay_rate_formula(2.0, ("holder", 2, 2, 1)) == pytest.approx(0.75)
    p, gamma = 3.0, 1.7
    assert decay_rate_formula(gamma, ("holder", p, p, p)) == \
        pytest.approx(p / (2 * gamma))
    with pytest.raises(ValueError):
        decay_rate_formula(1.0, "quadratic")


# ------------------------------------------------------------ decay series

def dipole_observable(n_cells: int):
    return product_disintegration(
        n_cells, FiberMeasure([(0.0,), (0.5,)], [1.0, -1.0]))


def test_equilibrium_decay_golden():
    ser = equilibrium_decay(doubling_system(), dipole_observable(256), 60)
    arr = np.array(ser.norms)
    assert arr[0] == pytest.approx(0.5)
    assert np.all(arr > 0)
    assert np.all(np.diff(arr[5:]) <= 1e-12)
    assert ser.slope is not None and ser.slope < 0


def test_equilibrium_decay_identity_control():
    sys0 = SkewSystem(linear_base(2), FiberMapFamily())
    ser = equilibrium_decay(sys0, dipole_observable(64), 20)
    assert all(abs(v - 0.5) <= 1e-12 for v in ser.norms)


def test_equilibrium_decay_zero_input():
    zero = product_disintegration(32, FiberMeasure([], []))
    ser = equilibrium_decay(doubling_system(), zero, 10)
    assert all(v == 0.0 for v in ser.norms)
    assert ser.slope is None


def test_equilibrium_decay_rejects_mass():
    bad = product_disintegration(32, FiberMeasure([(0.0,)], [1.0]))
    with pytest.raises(ValueError, match="not in V_s"):
        equilibrium_decay(doubling_system(), bad, 5)


# ----------------------------------------------------------------- sweeps

def test_sweep_validations():
    with pytest.raises(ValueError, match="empty"):
        stability_sweep([], 1.0)
    with pytest.raises(ValueError, match="distinct"):
        stability_sweep([(1e-2, 0.1), (1e-2, 0.2)], 1.0)
    for delta in (0.0, -1e-2):
        with pytest.raises(ValueError, match="positive"):
            stability_sweep([(1e-2, 0.1), (delta, 0.0)], 1.0)


def test_sweep_bahh_rows(bahh_pair):
    # the pairs given in increasing delta come back in decreasing delta
    pairs = [(bahh_pair[j].pspec.delta, bahh_pair[j].closed_form_distance)
             for j in (2, 1)]
    tab = stability_sweep(pairs, gamma=3.0, gamma_prime=2.5)
    assert all(tab.lower_ok())
    # the rigidity counterexample: the Holder upper-bound shape fitted on
    # the smallest delta fails at the larger delta; the smallest-delta row
    # anchors the fit and checks nothing
    assert tab.upper_ok() == [False, None]
    assert tab.beta == pytest.approx(0.25, abs=1e-6)
    assert tab.rows[0].delta > tab.rows[1].delta
    assert tab.rows[0].distance == 1 / 64


# ------------------------------------------------------------- prop bahh

def test_prop_bahh_j1_exact_quantities():
    theta = lacunary_theta(3)
    ex = prop_bahh_system(theta, 1)
    assert ex.k == 16
    assert ex.delta == -(Fraction(1, 2 ** 16) + Fraction(1, 2 ** 64))
    assert ex.closed_form_distance == Fraction(1, 64)
    # closed form confirmed by the exact W1 evaluation at k = 16
    assert l1_norm(ex.mu_reference - ex.mu_orbit) == Fraction(1, 64)
    assert ex.closed_form_distance >= \
        Fraction(1, 9) * Fraction(1, 16)


def test_prop_bahh_lower_bounds(bahh_pair):
    for j in (1, 2):
        ex = bahh_pair[j]
        d = float(ex.closed_form_distance)
        size = abs(float(ex.delta))
        assert d >= (1.0 / 9.0) * size ** (1.0 / (2.5 - 1.0))
        assert d >= (1.0 / 9.0) * (1.0 / ex.k)


def test_prop_bahh_orbit_invariance_and_repeller():
    ex = prop_bahh_system(lacunary_theta(3), 1)
    # the repelling copy: the orbit shifted by half a period gap
    repeller = product_disintegration(
        ex.mu_orbit.n_cells,
        uniform_fiber(ex.k).translate(Fraction(1, 2 * ex.k)))
    for mu in (ex.mu_orbit, repeller):
        out = transfer_step(ex.pspec.perturbed, mu, eps_f=0)
        assert float(l1_norm(out - mu)) == 0.0


def test_prop_bahh_example_builds_no_measure(monkeypatch, capsys):
    # example prop-bahh reads neither exact measure, so neither is built
    calls = []
    real = stability.product_disintegration
    monkeypatch.setattr(stability, "product_disintegration",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    assert main(["example", "prop-bahh", "--j", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 2 ** 16
    assert calls == []
    ex = prop_bahh_system(lacunary_theta(3), 2, n_cells=8)
    assert calls == []
    ex.mu_orbit, ex.mu_reference, ex.mu_orbit
    # the orbit fiber, then the 2 k-atom Lebesgue fiber, once each
    assert [len(f) for f in calls] == [2 ** 16, 2 ** 17]


@pytest.mark.parametrize("j, n_cells", [(1, 64), (1, 4), (2, 2)])
def test_prop_bahh_lazy_measures_equal_eager_construction(j, n_cells):
    ex = prop_bahh_system(lacunary_theta(3), j, n_cells=n_cells)
    assert ex.n_cells == n_cells
    eager = {"mu_reference": product_disintegration(n_cells,
                                                    uniform_fiber(2 * ex.k)),
             "mu_orbit": product_disintegration(n_cells,
                                                uniform_fiber(ex.k))}
    for name, want in eager.items():
        got = getattr(ex, name)
        assert got is getattr(ex, name)
        assert got.ids.tolist() == want.ids.tolist()
        assert [f.content_key() for f in got.table] == \
            [f.content_key() for f in want.table]


def test_prop_bahh_refuses_empty_grid():
    with pytest.raises(ValueError, match="n_cells must be >= 1"):
        prop_bahh_system(lacunary_theta(3), 1, n_cells=0)
    # before the perturbation and the families: j = 3 would be refused for
    # its atom budget
    with pytest.raises(ValueError, match="n_cells must be >= 1"):
        prop_bahh_system(lacunary_theta(4), 3, n_cells=0)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_prop_bahh_scale_must_be_positive_and_finite(scale):
    # at scale 0 the perturbed system is the bare rotation by p_j/k_j: it
    # keeps Lebesgue invariant and attracts nothing; only 0 is refused for
    # that reason
    with pytest.raises(ValueError, match="finite and > 0") as err:
        prop_bahh_system(lacunary_theta(3), 1, deformation_scale=scale)
    assert ("bare rotation" in str(err.value)) == (scale == 0)


def test_prop_bahh_budget_refusal():
    with pytest.raises(ValueError, match="budget"):
        prop_bahh_system(lacunary_theta(4), 3)


# --------------------------------------------------------------- prop 30

@pytest.mark.parametrize("j, exponents", [(1, (8, 32, 128, 512)),
                                           (2, (32, 128, 512))],
                         ids=["j1", "j2"])
def test_prop30_exact(j, exponents):
    # terms i < j vanish exactly; the others read their squared amplitudes
    r = prop30_example(j)
    assert r.value == sum(Fraction(1, 2 ** e) for e in exponents)
    assert r.lebesgue_value == Fraction(0)
    assert isinstance(r.lebesgue_value, Fraction)
    assert r.half_amplitude_ok and r.sqrt_delta_ok
    assert float(r.value) >= 0.9 * math.sqrt(abs(float(r.delta)))
    assert 0 < r.tail_bound < Fraction(1, 2 ** 1000)


def test_prop30_refusals():
    with pytest.raises(ValueError, match="refused"):
        prop30_example(3)
