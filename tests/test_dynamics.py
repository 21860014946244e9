"""Transfer-operator mechanics: exactness of the grid step, conserved
quantities, declared-constant inequalities, perturbation distances."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (hermite_by_search, indicator_member,
                     invariant_by_plain_loop, lebesgue, transfer_density,
                     transfer_step_by_glue)

from skewstab import dynamics
from skewstab.arithmetic import (
    approximant_perturbation,
    golden_angle,
    lacunary_theta,
)
from skewstab.batteries import disintegration_battery
from skewstab.dynamics import (
    BaseMap,
    FiberMapFamily,
    OrbitBump,
    PerturbationSpec,
    SineShift,
    SkewSystem,
    composite_family,
    invariant_measure,
    linear_base,
    ly_check,
    operator_distance,
    precomposed_base,
    transfer_step,
    translation_family,
)
from skewstab.dynamics import (_membership, _OrbitScreen, _hermite_eval,
                               _pieces, _screen_bump)
from skewstab.measures import (
    Disintegration,
    FiberMeasure,
    l1_norm,
    marginal_density,
    product_disintegration,
    uniform_fiber,
)
from skewstab.stability import prop_bahh_system

GOLDEN = golden_angle()
ROOT = Path(__file__).resolve().parents[1]


def doubling_system(n_branches: int = 2) -> SkewSystem:
    return SkewSystem(linear_base(n_branches), translation_family(GOLDEN))


# ---------------------------------------------------------------- exact step

def test_lebesgue_marginal_fixed():
    leb = lebesgue(64, 32)
    out = transfer_step(doubling_system(), leb, eps_f=0)
    assert out.mass() == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(marginal_density(out).values - 1.0)) == 0.0


def test_snapped_lebesgue_is_fixed_point():
    # uniform atoms on the eps_f grid are exactly invariant: the rotated
    # copy snaps back onto the same grid
    mu = lebesgue(64, 256)
    out = transfer_step(doubling_system(), mu, eps_f=1.0 / 256)
    assert float(l1_norm(out - mu)) == 0.0


def test_point_mass_pushforward():
    y = 0.125
    dis = product_disintegration(2, FiberMeasure([(y,)], [1.0]))
    out = transfer_step(doubling_system(), dis, eps_f=0)
    theta = float(GOLDEN.value)
    for fib in out.fibers:
        atoms = dict(fib.atoms())
        assert len(atoms) == 2
        assert atoms[y] == pytest.approx(0.25)
        assert min(abs(p - (y + theta) % 1.0) for p in atoms) < 1e-12


def test_identity_fiber_leaves_products_invariant():
    sys0 = SkewSystem(linear_base(2), FiberMapFamily())
    fib = FiberMeasure([(0.2,), (0.7,)], [0.25, 0.75])
    dis = product_disintegration(8, fib)
    out = transfer_step(sys0, dis, eps_f=0)
    assert float(l1_norm(out - dis)) == 0.0


def test_mass_positivity_marginal_on_battery():
    sys1 = doubling_system()
    for dis in disintegration_battery(5, 4, 64, positive=False):
        out = transfer_step(sys1, dis)
        assert float(out.mass()) == pytest.approx(float(dis.mass()), abs=1e-12)
        m1 = marginal_density(out).values
        m0 = transfer_density(sys1.base, marginal_density(dis).values)
        assert np.max(np.abs(m1 - m0)) < 1e-12
    for dis in disintegration_battery(6, 3, 64, positive=True):
        out = transfer_step(sys1, dis)
        assert all(w >= 0 for f in out.fibers for _, w in f.atoms())


def test_x_constant_structure_preserved():
    out = lebesgue(64, 32)
    for _ in range(3):
        out = transfer_step(doubling_system(), out)
    assert len(out.table) == 1


def test_weak_norm_contraction():
    # |g| <= 1, Lip(g) <= 1 test functions compose with a Lip-alpha fiber
    # map into the same class scaled by alpha
    sys1 = doubling_system()
    alpha = sys1.fiber.alpha
    for dis in disintegration_battery(7, 4, 64, positive=False):
        lhs = float(l1_norm(transfer_step(sys1, dis, eps_f=0)))
        rhs = alpha * float(l1_norm(dis)) * (1 + 1e-9)
        assert lhs <= rhs + 1e-12


def test_grid_branch_mismatch():
    leb = lebesgue(96, 8)
    with pytest.raises(ValueError, match="grid/branch mismatch"):
        transfer_step(doubling_system(), leb)
    with pytest.raises(ValueError, match="grid/branch mismatch: n_cells = "
                       "100 is not a power of the branch count 2"):
        linear_base(2).check_grid(100)
    linear_base(2).check_grid(128)
    linear_base(3).check_grid(81)


def test_indicator_alignment_error():
    fam = translation_family(GOLDEN, indicator=((Fraction(1, 3), 1),))
    sys1 = SkewSystem(linear_base(2), fam)
    with pytest.raises(ValueError, match="indicator"):
        transfer_step(sys1, lebesgue(4, 4))


F = Fraction
MEMBERSHIP_CASES = [
    ((), 8), (((F(1, 2), F(1)),), 16), (((F(1, 4), F(5, 8)),), 8),
    (((0, F(1, 4)), (F(1, 2), F(3, 4))), 32),
    # overlapping intervals: the first one a cell meets decides it
    (((F(1, 4), F(3, 4)), (0, 1)), 4), (((0, 1), (F(1, 3), F(1, 2))), 8),
    (((F(1, 3), F(1, 2)), (0, 1)), 6), (((0.25, 0.75),), 8),
    # degenerate, and endpoints inside a cell
    (((F(1, 2), F(1, 2)),), 8), (((F(3, 10), F(3, 10)),), 8),
    (((F(1, 3), 1),), 4), (((0, F(1, 2)), (F(5, 8), 1)), 4),
    (((0, F(1, 2)), (F(5, 8), 1)), 8), (((0.1, 1),), 16),
]


@pytest.mark.parametrize("indicator, n", MEMBERSHIP_CASES)
def test_membership_matches_cell_by_cell_fractions(indicator, n):
    fam = FiberMapFamily(theta=F(1, 4), indicator=indicator)
    try:
        want = [indicator_member(fam, c, n) for c in range(n)]
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            _membership(fam, n)
        assert str(got.value) == str(err)
    else:
        assert _membership(fam, n).tolist() == [int(m) for m in want]


def _same_measure(got, want):
    assert got.ids.tobytes() == want.ids.tobytes()
    assert [f.content_key() for f in got.table] == \
        [f.content_key() for f in want.table]


def test_transfer_plan_matches_fresh_bookkeeping(monkeypatch):
    # one plan is kept for the last (system object, N, eps_f) and one
    # layout for the last id array: every change of any of them, and of
    # the table's backend, must give what a step built afresh gives
    monkeypatch.setattr(dynamics, "_plan", None)
    orbit = SkewSystem(linear_base(2), composite_family(F(1, 4), 1 / 256, 4))
    quarter = SkewSystem(linear_base(2), translation_family(
        GOLDEN, indicator=((0, F(1, 4)),)))
    sigma = SkewSystem(precomposed_base(2, SineShift(0.05)),
                       translation_family(GOLDEN))
    leb = lebesgue(16, 8)
    exact = lebesgue(16, 8, exact=True)
    two = Disintegration([0, 1] * 8, [uniform_fiber(8).to_float(),
                                      uniform_fiber(3).to_float()])
    swapped = Disintegration([0] * 8 + [1] * 8, two.table)
    grown = disintegration_battery(3, 3, 16, positive=False, n_distinct=8)
    steps = [(orbit, leb, 2.0 ** -20), (orbit, leb, 2.0 ** -20),
             (quarter, leb, 2.0 ** -20), (orbit, leb, 2.0 ** -20),
             (orbit, exact, 2.0 ** -20), (orbit, leb, 2.0 ** -20),
             (orbit, leb, 2.0 ** -6), (orbit, leb, None),
             (orbit, two, None), (orbit, two, None), (orbit, swapped, None),
             (quarter, swapped, None), (sigma, swapped, 2.0 ** -10),
             (sigma, two, 2.0 ** -10),
             (orbit, lebesgue(32, 8), None)]
    steps += [(sys, dis, 2.0 ** -10) for dis in [leb, two] + grown
              for sys in (orbit, sigma)]
    for sys, dis, eps in steps:
        _same_measure(transfer_step(sys, dis, eps_f=eps),
                      transfer_step_by_glue(sys, dis, eps_f=eps))
    # iterates keep their id array from step to step
    mu = want = leb
    for _ in range(5):
        mu = transfer_step(orbit, mu, eps_f=2.0 ** -30)
        want = transfer_step_by_glue(orbit, want, eps_f=2.0 ** -30)
        _same_measure(mu, want)


# --------------------------------------------------------- sigma-precomposed

def test_sigma_base_transfer_conserves_mass():
    base = precomposed_base(2, SineShift(0.05))
    sys1 = SkewSystem(base, translation_family(GOLDEN))
    for dis in disintegration_battery(8, 3, 64, positive=False):
        out = transfer_step(sys1, dis)
        assert float(out.mass()) == pytest.approx(float(dis.mass()), abs=1e-12)
        m1 = marginal_density(out).values
        m0 = transfer_density(base, marginal_density(dis).values)
        assert np.max(np.abs(m1 - m0)) < 1e-11


PIECE_CASES = [(linear_base(2), 64), (linear_base(2), 128),
               (precomposed_base(2, SineShift(0.01)), 64),
               (precomposed_base(2, SineShift(0.01)), 128),
               (linear_base(3), 81), (precomposed_base(3, SineShift(0.3)), 81)]


def _sigma_pieces_reference(base: BaseMap, n: int) -> list:
    """Per output cell, its (source cell, fraction) pieces from a loop
    over branches, output cells and the source-grid cut points inside
    each preimage interval."""
    l = base.branch_count
    xs = base.sigma.inverse(np.arange(l * n + 1) / (l * n))
    xs[0], xs[-1] = 0.0, 1.0
    out = [[] for _ in range(n)]
    for j in range(l):
        for k in range(n):
            x0, x1 = xs[j * n + k], xs[j * n + k + 1]
            c0, c1 = int(x0 * n), min(int(x1 * n), n - 1)
            cuts = [x0] + [c / n for c in range(c0 + 1, c1 + 1)] + [x1]
            for c in range(c0, c1 + 1):
                a, b = cuts[c - c0], cuts[c - c0 + 1]
                if b > a:
                    out[k].append((c, (b - a) * n))
    return out


@pytest.mark.parametrize("base, n", PIECE_CASES)
def test_piece_table(base, n):
    t = _pieces(base, n)
    fracs = np.array(t.fracs, dtype=float)[t.code]
    # every source cell hands out all of its mass
    leaving = np.bincount(t.src, weights=fracs, minlength=n)
    assert np.max(np.abs(leaving - 1.0)) <= 1e-12
    # output cell k receives n times the length of its preimage
    l = base.branch_count
    edges = (np.arange(n)[:, None] + n * np.arange(l)) / (l * n)
    inv = (lambda x: x) if base.sigma is None else base.sigma.inverse
    length = (inv(edges + 1 / (l * n)) - inv(edges)).sum(axis=1)
    entering = np.bincount(t.out, weights=fracs, minlength=n)
    assert np.max(np.abs(entering - n * length)) <= 1e-12
    assert np.array_equal(t.out, np.sort(t.out))
    if base.sigma is not None:
        reference = _sigma_pieces_reference(base, n)
    for k in range(n):
        rows = range(t.start[k], t.start[k + 1])
        assert all(t.out[i] == k for i in rows)
        got = [(int(t.src[i]), t.fracs[t.code[i]]) for i in rows]
        if base.sigma is None:
            assert got == [((k + j * n) // l, Fraction(1, l))
                           for j in range(l)]
            assert all(type(w) is Fraction for _, w in got)
        else:
            assert got == reference[k]
    values = np.random.default_rng(n).random(n)
    want = np.zeros(n)
    for k in range(n):
        for i in range(t.start[k], t.start[k + 1]):
            want[k] += values[t.src[i]] * float(t.fracs[t.code[i]])
    assert want.tobytes() == transfer_density(base, values).tobytes()


def test_sigma_constants():
    base = precomposed_base(2, SineShift(0.05))
    assert base.lam == pytest.approx(1.0 / (2 * 0.95))
    assert base.c_h > 0
    assert base.xi == 1.0
    with pytest.raises(ValueError, match="diffeomorphism"):
        BaseMap(2, sigma=SineShift(1.2))


# ------------------------------------------------------------------ LY side

def test_ly_margins_on_battery():
    sys1 = doubling_system()
    n_cells = 128
    for dis in disintegration_battery(11, 6, n_cells, positive=True):
        mu = dis.scale(1.0 / float(dis.mass()))
        for p in (1.0, 0.5):
            assert ly_check(sys1, mu, p) >= -2.0 / n_cells


def test_ly_rejects_signed_input():
    dis = disintegration_battery(3, 1, 64, positive=False)[0]
    with pytest.raises(ValueError, match="positive"):
        ly_check(doubling_system(), dis, 1.0)


def test_domination_violation():
    base = precomposed_base(2, SineShift(0.6))
    sys1 = SkewSystem(base, translation_family(GOLDEN))
    assert sys1.domination > 1
    with pytest.raises(ValueError, match="Sk2 domination violated"):
        sys1.require_domination()


def test_h_hat_values():
    fam = translation_family(Fraction(1, 4))
    # one interior indicator endpoint at 1/2, jump size 1/4, window 2r
    assert fam.h_hat(1.0) == pytest.approx(0.5)
    assert fam.h_hat(0.5) == pytest.approx(2 * 0.25 * 0.5 ** 0.5)
    assert FiberMapFamily().h_hat(1.0) == 0.0
    assert composite_family(0, 0.001, 4, indicator=()).h_hat(1.0) == 0.0


# ------------------------------------------------------------- deformation

def test_bump_shape():
    bump = OrbitBump(16, 2.0 ** -14)
    assert bump.max_g_prime() == 128.0
    # difference quotients of the unit bump on a fine grid peak at 8, at
    # the grid point 4/9
    n = 9 * 2 ** 14
    slopes = np.abs(np.diff(_hermite_eval(np.arange(n + 1) / n))) * n
    assert 8 - 1e-7 < slopes.max() <= 8 + 1e-9
    assert np.argmax(slopes) == 4 * n // 9
    y = np.array([0.0, 1 / 16, 1 / 32, 3 / 32, 1 / 48, 1 / 24])
    g = bump.g(y)
    assert g[0] == 0 and abs(g[1]) < 1e-12 and abs(g[2]) < 1e-12
    assert abs(g[3]) < 1e-12
    assert g[4] == pytest.approx(-1.0)   # first third of the cell
    assert g[5] == pytest.approx(1.0)    # last third
    # injectivity: strictly increasing images on a fine grid
    ys = np.linspace(0, 1, 4097)[:-1]
    im = ys + bump.strength * bump.g(ys)
    assert np.all(np.diff(im) > 0)


def _bump_reference(bump: OrbitBump, y: np.ndarray):
    """(g(y), bump(y)) by the np.mod / np.clip / fancy-index formula."""
    knots = np.array([0.0, 1 / 3, 1 / 2, 2 / 3, 1.0])
    values = np.array([0.0, -1.0, 0.0, 1.0, 0.0])
    derivs = np.array([-6.0, 0.0, 6.0, 0.0, -6.0])
    t = np.mod(np.asarray(y, dtype=float) * bump.orbit_k, 1.0)
    seg = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, 3)
    h = knots[seg + 1] - knots[seg]
    s = (t - knots[seg]) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s ** 2 * (3 - 2 * s)
    h11 = s ** 2 * (s - 1)
    g = (h00 * values[seg] + h10 * h * derivs[seg]
         + h01 * values[seg + 1] + h11 * h * derivs[seg + 1])
    return g, np.mod(y + bump.strength * g, 1.0)


def test_bump_on_a_rotation_invariant_grid_matches_mod_formula(monkeypatch):
    # k copies of one block shifted by 1/k exactly (dyadic points and k a
    # power of two): g evaluates its profile on one block
    sizes = []
    monkeypatch.setattr(dynamics, "_hermite_eval",
                        lambda t: sizes.append(len(t)) or _hermite_eval(t))
    block = np.unique(np.random.default_rng(73).integers(0, 2 ** 36, 130))
    for bump, ys in ((OrbitBump(16, 2.0 ** -14),
                      (block * 2.0 ** -40 + np.arange(16)[:, None] / 16)),
                     (OrbitBump(4, 0.01), np.arange(4096) / 4096)):
        ys = ys.reshape(-1)
        g_ref, im_ref = _bump_reference(bump, ys)
        assert bump.g(ys).tobytes() == g_ref.tobytes()
        assert bump(ys).tobytes() == im_ref.tobytes()
    assert sizes == [len(block)] * 2 + [1024] * 2
    # a block that repeats only up to rounding is evaluated whole
    ys = np.sort(np.random.default_rng(79).random(99)) / 3
    ys = (ys + np.arange(3)[:, None] / 3).reshape(-1)
    bump = OrbitBump(3, 0.01)
    assert bump.g(ys).tobytes() == _bump_reference(bump, ys)[0].tobytes()
    assert sizes[-1] == len(ys)


def test_bump_bits_match_mod_formula():
    rng = np.random.default_rng(71)
    edge = np.array([-0.0, 0.0, 1.0, -1.0, 3.0, -7.0, 2.0 ** -60,
                     -2.0 ** -60, 1 - 2.0 ** -53, -1e-20, 0.5 - 2.0 ** -54,
                     1 / 3, 2 / 3, 1 / 32, 2.0 ** 53])
    ys = np.concatenate((edge, rng.random(4096), rng.uniform(-3, 3, 1024),
                         np.arange(4096) / 4096))
    for bump in (OrbitBump(16, 2.0 ** -14), OrbitBump(3, 0.01),
                 OrbitBump(5, 0.0)):
        g_ref, im_ref = _bump_reference(bump, ys)
        assert (bump.g(ys).view(np.int64) == g_ref.view(np.int64)).all()
        assert (bump(ys).view(np.int64) == im_ref.view(np.int64)).all()
        # the edge inputs reach the image 1.0, and -0.0 and the integers
        # map to +0.0
        assert (im_ref[:len(edge)] == 1.0).any()
        assert (im_ref[:5].view(np.int64) == 0).all()


def test_bump_refuses_non_injective_strength():
    with pytest.raises(ValueError, match="injective"):
        OrbitBump(16, 0.5)


def test_orbit_measure_exactly_invariant():
    pert = approximant_perturbation(lacunary_theta(3), 1)
    fam = composite_family(Fraction(pert.p, pert.k), pert.delta, pert.k,
                           scale=4.0)
    sysb = SkewSystem(linear_base(2), fam)
    muj = product_disintegration(64, uniform_fiber(pert.k))
    out = transfer_step(sysb, muj, eps_f=0)
    assert float(l1_norm(out - muj)) == 0.0
    assert out.fibers[0].exact
    # the repelling copy (orbit shifted by half a period gap) is invariant too
    rep = product_disintegration(
        64, uniform_fiber(pert.k).translate(Fraction(1, 2 * pert.k)))
    outr = transfer_step(sysb, rep, eps_f=0)
    assert float(l1_norm(outr - rep)) == 0.0


# --------------------------------------------------------------- invariants

def test_invariant_measure_doubling_small():
    res = invariant_measure(doubling_system(), tol=1e-9, n_max=50, n_cells=64,
                            fiber_atoms=256)
    assert res.converged
    assert float(l1_norm(res.measure - lebesgue(64, 256))) \
        < 1e-12
    assert abs(res.mass_drift) < 1e-9


def bump_system() -> SkewSystem:
    # discretized Lebesgue is not a fixed point of this system (it is one
    # of doubling_system's), so its iterates take many steps to settle
    return SkewSystem(linear_base(2), composite_family(GOLDEN, 1 / 64, 2))


def test_invariant_measure_reports_nonconvergence():
    res = invariant_measure(bump_system(), tol=1e-30, n_max=3, n_cells=32,
                            fiber_atoms=64)
    assert not res.converged
    assert res.n_steps == 3


@pytest.mark.parametrize("tol, n_max, converged", [(1e-9, 200, True),
                                                   (1e-30, 3, False)])
def test_invariant_measure_reports_its_own_residual(tol, n_max, converged):
    sys1 = bump_system()
    res = invariant_measure(sys1, tol=tol, n_max=n_max, n_cells=32,
                            fiber_atoms=64)
    assert res.converged is converged and abs(res.mass_drift) <= 1e-9
    residual = float(l1_norm(transfer_step(sys1, res.measure) - res.measure))
    assert residual == res.residual
    assert (residual < tol) is converged


@pytest.mark.parametrize("n_max", [1, 2, 7])
def test_invariant_measure_on_a_cycle_stays_unconverged(n_max):
    # the half rotation on every fiber swaps delta_0 and delta_{1/2}, so L
    # has the eigenvalue -1 and the iterates from one-atom Lebesgue cycle
    cyc = SkewSystem(linear_base(2),
                     translation_family(Fraction(1, 2), indicator=((0, 1),)))
    res = invariant_measure(cyc, tol=1e-9, n_max=n_max, n_cells=4,
                            fiber_atoms=1)
    assert not res.converged and res.n_steps == n_max
    assert res.residual == 0.5
    # the returned measure is L^(n_max - 1) of Lebesgue, whose residual
    # was measured
    atom = 0.0 if n_max % 2 else 0.5
    assert list(res.measure.ids) == [0] * 4
    assert res.measure.table[0].atoms() == [(atom, 0.25)]


def test_invariant_measure_without_steps_is_lebesgue():
    res = invariant_measure(bump_system(), n_max=0, n_cells=32,
                            fiber_atoms=64)
    assert not res.converged and res.n_steps == 0
    assert res.residual == math.inf
    assert float(l1_norm(res.measure - lebesgue(32, 64))) == 0


# ------------------------------------------- residual screen vs plain loop

def _screen_cases() -> dict:
    # (system, invariant_measure keywords); all but the golden one have a
    # bump whose orbit the rotation maps to itself
    ex = prop_bahh_system(lacunary_theta(3), 1, n_cells=16)
    partial = composite_family(Fraction(3, 8), 1 / 256, 8,
                               indicator=((Fraction(1, 4), Fraction(5, 8)),))
    return {
        "prop-bahh-j1": (ex.pspec.perturbed,
                         {"eps_f": 2.0 ** -40, "n_cells": 16,
                          "fiber_atoms": 64}),
        "partial-indicator": (SkewSystem(linear_base(2), partial),
                              {"eps_f": 2.0 ** -30, "n_cells": 16,
                               "fiber_atoms": 32}),
        "precomposed": (SkewSystem(precomposed_base(2, SineShift(0.05)),
                                   composite_family(Fraction(1, 4),
                                                    1 / 256, 4)),
                        {"eps_f": 2.0 ** -12, "n_cells": 16,
                         "fiber_atoms": 32}),
        "golden": (bump_system(), {"n_cells": 16, "fiber_atoms": 32}),
    }


SCREEN_CASES = list(_screen_cases())
SCREEN_STEPS = 40


def _assert_same_result(got, want):
    assert (got.converged, got.n_steps) == (want.converged, want.n_steps)
    assert np.float64(got.residual).tobytes() == \
        np.float64(want.residual).tobytes()
    assert np.float64(got.mass_drift).tobytes() == \
        np.float64(want.mass_drift).tobytes()
    assert _measure_digest()(got.measure) == _measure_digest()(want.measure)


def test_screen_applies_to_orbit_preserving_rotations_only():
    cases = _screen_cases()
    for name, (system, _) in cases.items():
        assert (_screen_bump(system) is None) is (name == "golden")
    # an unperturbed rotation or a zero-strength bump has nothing to screen
    assert _screen_bump(doubling_system()) is None
    assert _screen_bump(SkewSystem(linear_base(2), composite_family(
        Fraction(1, 4), 0.0, 4))) is None


@pytest.mark.parametrize("case", SCREEN_CASES)
def test_screened_loop_matches_plain_loop(monkeypatch, case):
    system, kw = _screen_cases()[case]
    residuals = []
    invariant_by_plain_loop(system, tol=0, n_max=SCREEN_STEPS,
                            on_step=lambda nxt, r: residuals.append(r), **kw)
    # stops exactly at a step (nextafter) or just after it (r_k itself),
    # never reached (0), and the degenerate step counts
    runs = [(0.0, n) for n in (0, 1, 2, SCREEN_STEPS)]
    for k in (3, SCREEN_STEPS // 2, SCREEN_STEPS - 2):
        r = residuals[k]
        runs += [(r, SCREEN_STEPS), (float(np.nextafter(r, np.inf)),
                                     SCREEN_STEPS)]
    # the oracle calls measures.l1_norm, invariant_measure its own binding
    calls = []
    monkeypatch.setattr(dynamics, "l1_norm",
                        lambda dis: calls.append(1) or l1_norm(dis))
    steps = 0
    for tol, n_max in runs:
        got = invariant_measure(system, tol=tol, n_max=n_max, **kw)
        want = invariant_by_plain_loop(system, tol=tol, n_max=n_max, **kw)
        _assert_same_result(got, want)
        steps += got.n_steps
    # the screen skips exact residuals on screened systems only
    if case == "golden":
        assert len(calls) == steps
    else:
        assert len(calls) < steps


@pytest.mark.parametrize("case", SCREEN_CASES)
def test_screen_floor_is_below_every_residual(case):
    # every run above takes a prefix of these steps; the bound holds for
    # any bump, so the unscreened golden system is checked too
    system, kw = _screen_cases()[case]
    screen = _OrbitScreen(system.fiber.bump, lebesgue(
        kw["n_cells"], kw["fiber_atoms"]))
    pairs = []
    invariant_by_plain_loop(
        system, tol=0, n_max=SCREEN_STEPS,
        on_step=lambda nxt, r: pairs.append((screen.floor(nxt), r)), **kw)
    assert len(pairs) == SCREEN_STEPS
    assert all(floor <= r for floor, r in pairs)


# ------------------------------------------------------------ perturbations

def test_operator_distance_translation_shift():
    theta = GOLDEN.value
    delta = 1.0 / 512
    ps = PerturbationSpec(doubling_system(),
                          SkewSystem(linear_base(2),
                                     translation_family(theta + delta)),
                          delta)
    od = operator_distance(ps, battery_size=12, seed=3)
    # the battery contains m (x) delta_y members: the two images differ by a
    # rotation of size delta on half the cells
    assert delta / 2 - 1e-12 <= od <= delta + 1e-12


def test_operator_distance_vanishes_for_equal_systems():
    ps = PerturbationSpec(doubling_system(), doubling_system(), 0.0)
    assert operator_distance(ps, battery_size=4, seed=0) == 0.0


# ------------------------------------ cubic bump against its plain form

def _knot_neighbours() -> list:
    out = []
    for k in [0.0, 1 / 3, 1 / 2, 2 / 3, 1.0]:
        out += [np.nextafter(k, -np.inf), k, np.nextafter(k, np.inf)]
    return out + [-0.0, -(2.0 ** -60)]


@given(t=st.lists(st.floats(0, 1) | st.sampled_from(_knot_neighbours()),
                  min_size=1, max_size=50))
def test_hermite_segments_match_searchsorted(t):
    t = np.array(t, dtype=float)
    assert _hermite_eval(t).tobytes() == hermite_by_search(t).tobytes()


def test_hermite_at_every_knot_and_its_neighbours():
    t = np.concatenate((_knot_neighbours(), np.linspace(0, 1, 30001),
                        np.random.default_rng(5).random(30000)))
    assert _hermite_eval(t).tobytes() == hermite_by_search(t).tobytes()


# -------------------------------------------------------- pinned runs

def _orbit_script():
    spec = importlib.util.spec_from_file_location(
        "run_orbit_pipeline", ROOT / "scripts" / "run_orbit_pipeline.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _measure_digest():
    return _orbit_script().measure_digest


def test_criterion7_loop_bits_are_pinned():
    # 200 steps of criterion 7's perturbed system at N = 64, as the
    # pipeline benchmark runs it but with no stop on the residual
    ex = prop_bahh_system(lacunary_theta(3), 1, n_cells=64)
    res = invariant_measure(ex.pspec.perturbed, tol=0, n_max=200,
                            eps_f=2.0 ** -40, n_cells=64, fiber_atoms=2048)
    assert res.n_steps == 200
    assert res.residual == 3.035987677435515e-05
    assert _measure_digest()(res.measure) == \
        "fe9b847acb205dcbef207c66ba701c25fcb35586a703fbb81912608edc65f80e"


def test_criterion7_full_run_bits_are_pinned():
    # the pipeline benchmark's whole criterion-7 run at N = 64: 1362 steps,
    # 114 of which push the rotated fiber onto other positions than the
    # unrotated one, so that their row sums merge (the 200-step pin above
    # sees 12 of them)
    ex = prop_bahh_system(lacunary_theta(3), 1, n_cells=64)
    res = invariant_measure(ex.pspec.perturbed, tol=1e-7, n_max=3000,
                            eps_f=2.0 ** -40, n_cells=64, fiber_atoms=2048)
    assert res.converged and res.n_steps == 1362
    assert res.residual == 9.986194271505155e-08
    assert _measure_digest()(res.measure) == \
        "fd486dfae7ae5f354c140668dcc49e2b01a085e0b7e4d456bbca071df48e7677"


def test_orbit_pipeline_default_run_bits_are_pinned(monkeypatch, capsys):
    # scripts/run_orbit_pipeline.py at its defaults (N = 1024), the one run
    # whose screen computes more than one exact residual
    mod = _orbit_script()
    results, calls = [], []
    monkeypatch.setattr(mod, "invariant_measure",
                        lambda *a, **kw: results.append(
                            invariant_measure(*a, **kw)) or results[-1])
    monkeypatch.setattr(dynamics, "l1_norm",
                        lambda dis: calls.append(1) or l1_norm(dis))
    monkeypatch.setattr("sys.argv", ["run_orbit_pipeline.py"])
    mod.main()
    (res,) = results
    assert res.converged and res.n_steps == 1362
    assert res.residual == 9.986194271505155e-08
    assert len(calls) == 8
    assert capsys.readouterr().out.splitlines()[0] == "measure sha256: " \
        "3f5fda192563a670b2c5308f728647dcbaf9323e17a2e57a5e9252ad9d47421d"


def test_regularity_measure_bits_are_pinned():
    # the pipeline benchmark's criterion-5 measure: precomposed base,
    # N = 128, converged after 2 steps
    system = SkewSystem(precomposed_base(2, SineShift(0.01)),
                        translation_family(golden_angle()))
    res = invariant_measure(system, tol=1e-6, n_max=800, n_cells=128,
                            fiber_atoms=512)
    assert res.n_steps == 2
    assert _measure_digest()(res.measure) == \
        "60caac941cff2fe55ceacfd9a29ffeed89f78379740b22be334d288505533ed5"
