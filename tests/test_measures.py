"""Tests for fiber measures, disintegrations and the anisotropic norms."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import (
    canonical_by_sort,
    combine_by_sort,
    dense_grid_w1,
    flat_balanced_by_sort,
    indicator_member,
    pair_w1_loop,
    pairwise_lp_w1,
    signed_mass_by_rows,
    var_p_direct,
)
from skewstab import measures
from skewstab.batteries import (
    positive_disintegrations,
    signed_disintegrations,
    signed_fiber_measures,
)
from skewstab.arithmetic import golden_angle, lacunary_theta
from skewstab.dynamics import (
    FiberMapFamily,
    OrbitBump,
    SineShift,
    SkewSystem,
    composite_family,
    linear_base,
    precomposed_base,
    transfer_step,
    translation_family,
)
from skewstab.dynamics import _pieces
from skewstab.measures import (
    Disintegration,
    FiberMeasure,
    coarsen,
    combine_cells,
    l1_norm,
    lebesgue_disintegration,
    marginal_density,
    pbv_norm,
    product_disintegration,
    uniform_fiber,
    var_p,
    w1_norm,
)
from skewstab.measures import (
    _apply_map_many,
    _combine,
    _fiber,
    _fsum_rows,
    _lower_median,
    _pair_w1,
    _signed_mass,
    _sum_interval,
    _w1_flat,
    _w1_tableau,
)
from skewstab.stability import prop_bahh_system


def dipole(a: float, b: float) -> FiberMeasure:
    return FiberMeasure([[a], [b]], [1.0, -1.0])


# ---------------------------------------------------------------- w1_norm

def test_w1_single_atom_attains_cap():
    assert w1_norm(FiberMeasure([[0.3]], [1.0])) == 1.0


def test_w1_dipole_values():
    assert w1_norm(dipole(0.0, 0.1)) == pytest.approx(0.1, abs=1e-12)
    assert w1_norm(dipole(0.0, 0.5)) == pytest.approx(0.5, abs=1e-12)


def test_w1_empty():
    assert w1_norm(FiberMeasure([], [])) == 0.0


def test_w1_dipoles_match_dense_grid_oracle():
    assert dense_grid_w1(dipole(0.0, 0.1)) == pytest.approx(0.1, abs=1e-3)
    assert dense_grid_w1(dipole(0.0, 0.5)) == pytest.approx(0.5, abs=1e-3)


def test_oracle_formulations_agree():
    # validates the difference-variable oracle against the literal one
    for i, fm in enumerate(signed_fiber_measures(101, 8, grid=10_000)):
        lit = dense_grid_w1(fm, formulation="literal")
        diff = dense_grid_w1(fm, formulation="difference")
        assert diff == pytest.approx(lit, abs=1e-9), f"case {i}"


def test_w1_fast_path_matches_oracle_sample():
    for i, fm in enumerate(signed_fiber_measures(5, 30, grid=10_000)):
        assert w1_norm(fm) == pytest.approx(dense_grid_w1(fm), abs=1e-3), \
            f"case {i}"


def test_w1_norm_axioms_500_trials():
    measures = signed_fiber_measures(23, 1000)
    for a, b in zip(measures[:500], measures[500:]):
        na, nb, nab = w1_norm(a), w1_norm(b), w1_norm(a + b)
        assert nab <= na + nb + 1e-9
        assert w1_norm(a.scale(-2.5)) == pytest.approx(2.5 * na, abs=1e-9)


def test_w1_positive_equals_mass():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        fm = FiberMeasure(rng.random((n, 1)), rng.uniform(0.1, 1.0, n))
        assert w1_norm(fm) == fm.mass()


def test_w1_bounded_by_total_variation():
    for fm in signed_fiber_measures(29, 100):
        assert w1_norm(fm) <= fm.abs_mass() + 1e-12


def test_w1_adjacent_equals_full_pairwise_200_trials():
    for i, fm in enumerate(signed_fiber_measures(31, 200)):
        assert _w1_tableau(fm) == pytest.approx(
            pairwise_lp_w1(fm), abs=1e-9), f"case {i}"


def test_w1_balanced_median_equals_lp():
    fm = FiberMeasure([[0.0], [0.25], [0.5], [0.75]], [1, -1, 1, -1])
    assert w1_norm(fm) == pytest.approx(0.5, abs=1e-12)
    assert _w1_tableau(fm) == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        w = rng.uniform(-1, 1, n)
        w[-1] = -np.sum(w[:-1])
        fm = FiberMeasure(rng.random((n, 1)), w)
        assert w1_norm(fm) == pytest.approx(_w1_tableau(fm), abs=1e-9)


def test_w1_exact_backend_returns_fractions():
    fm = FiberMeasure([[F(0)], [F(1, 10)]], [F(1), F(-1)])
    assert w1_norm(fm) == F(1, 10)
    fm = FiberMeasure([[F(0)], [F(1, 4)], [F(1, 2)]], [F(1), F(-1, 2), F(1, 4)])
    exact = w1_norm(fm)
    assert isinstance(exact, F)
    assert w1_norm(fm.to_float()) == pytest.approx(float(exact), abs=1e-12)


def test_w1_uniform_minus_orbit_closed_form():
    # 1/(4k) holds exactly when the finer count is an even multiple of k
    assert w1_norm(uniform_fiber(64) - uniform_fiber(4)) == F(1, 16)
    assert w1_norm(uniform_fiber(2048)
                   - uniform_fiber(16)) == F(1, 64)


def test_w1_flat_matches_pairwise_lp_1000_fibers():
    # one in four fibers up to 96 atoms, the rest up to 24 (the all-pairs
    # oracle costs n^2 rows); a third far-unbalanced of each sign
    rng = np.random.default_rng(53)
    worst = 0.0
    for k in range(1000):
        n = int(rng.integers(1, 97 if k % 4 == 0 else 25))
        w = rng.uniform(-1, 1, n)
        if k % 3 == 1:
            w += rng.uniform(0, 2)
        elif k % 3 == 2:
            w -= rng.uniform(0, 2)
        fm = FiberMeasure(rng.random(n), w)
        worst = max(worst, abs(_w1_flat(fm, _signed_mass(fm))
                                - pairwise_lp_w1(fm)))
    assert worst <= 1e-9


def test_w1_flat_equals_exact_tableau():
    rng = np.random.default_rng(59)
    checked = 0
    for k in range(300):
        n = int(rng.integers(1, 9))
        den = int(rng.integers(2, 40))
        pos = [F(int(x), den) for x in rng.integers(0, den, n)]
        w = [F(int(x), int(rng.integers(1, 7))) for x in rng.integers(-5, 6, n)]
        if k % 3 == 0:
            w = [x + 3 for x in w]
        fm = FiberMeasure(pos, w)
        if len(fm) == 0:
            continue
        value = _w1_flat(fm, _signed_mass(fm))
        assert isinstance(value, F)
        assert value == _w1_tableau(fm), (pos, w)
        checked += 1
    assert checked > 250


def test_w1_exact_fiber_above_eight_atoms_is_fraction():
    fm = FiberMeasure([F(k, 9) for k in range(9)],
                      [F(1), F(-1, 2), F(2), F(-3), F(1, 3), F(1), F(-1),
                       F(5, 2), F(-1, 4)])
    value = w1_norm(fm)
    assert isinstance(value, F)
    assert value == _w1_tableau(fm)


def test_w1_small_scale_never_below_mass():
    rng = np.random.default_rng(61)
    for k in range(300):
        n = int(rng.integers(2, 97))
        w = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-13, -8)
        if k % 2:
            w -= np.mean(w) * rng.uniform(0.5, 1.5)
        fm = FiberMeasure(rng.random(n), w)
        assert w1_norm(fm) >= abs(fm.mass()) >= 0


def test_w1_float_matches_exact_copy_at_small_scale():
    # below about 1e-6 of scale the HiGHS oracle is off, so the float norm
    # is checked against the exact backend on the same atoms instead
    rng = np.random.default_rng(67)
    worst = 0.0
    for k in range(300):
        n = int(rng.integers(2, 97))
        w = rng.uniform(-1, 1, n)
        if k % 3 == 0:
            w -= np.mean(w)
        fm = FiberMeasure(rng.random(n), w * 10.0 ** rng.uniform(-9, 0))
        exact = FiberMeasure([F(p) for p in fm.positions],
                             [F(x) for x in fm.weights])
        gap = abs(w1_norm(fm) - float(w1_norm(exact)))
        worst = max(worst, gap / float(np.abs(fm.weights).sum()))
    assert worst <= 1e-12


def small_alternating_fiber() -> FiberMeasure:
    # 128 atoms at (k + 1/2)/128 with weights +-1e-8 and a mass of
    # 4e-12 |w|_1, just above the near-balanced threshold: the norm is
    # 64 * 2e-8 * (1/128) / 2 + mass = 5.0e-9 + 5.1e-18
    w = np.where(np.arange(128) % 2 == 0, 1e-8, -1e-8)
    w[0] += 4e-12 * np.abs(w).sum()
    return FiberMeasure((np.arange(128) + 0.5) / 128, w)


def test_w1_flat_small_scale_large_fiber():
    fm = small_alternating_fiber()
    assert _w1_flat(fm, _signed_mass(fm)) == pytest.approx(5.0e-9, rel=1e-9)


def test_w1_highs_small_scale_false_zero():
    # an LP solver with absolute tolerances (scipy's HiGHS) reads about
    # |mass| here, a false zero
    assert w1_norm(small_alternating_fiber()) == pytest.approx(5.0e-9,
                                                               rel=1e-9)


# ----------------------------------------------------- certified row sums

# ties (1 + 2^-53 is halfway between two doubles), subnormals, signed zeros
_SUM_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -2.0 ** -1022, 1.0,
              -1.0, 2.0 ** -53, -2.0 ** -53, 3 * 2.0 ** -53, 2.0 ** -110,
              -2.0 ** -110, 1.0 + 2.0 ** -52, 1e16, -1e16, 1e300, -1e300]
_summands = st.one_of(st.floats(-1e300, 1e300), st.sampled_from(_SUM_EDGES))


@st.composite
def sum_rows(draw):
    """Rows padded with 0.0 to one width; some cancel, being a row, its
    negation in reverse and one more term."""
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = draw(st.lists(_summands, min_size=1, max_size=10))
        if draw(st.booleans()):
            row = row + [-x for x in reversed(row)] + [draw(_summands)]
        rows.append(row)
    width = max(map(len, rows))
    return np.array([r + [0.0] * (width - len(r)) for r in rows])


@pytest.mark.parametrize("unit", [None, 2.0 ** -53],
                         ids=["longdouble", "double-unit"])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(w=sum_rows())
def test_fsum_rows_equals_math_fsum(monkeypatch, unit, w):
    # unit 2^-53 stands for a platform whose long double is double
    if unit is not None:
        monkeypatch.setattr(measures, "_LD_UNIT", unit)
    want = np.array([math.fsum(r) for r in w.tolist()])
    want_abs = np.array([math.fsum(r) for r in np.abs(w).tolist()])
    sums = w.sum(axis=1, dtype=np.longdouble)
    abs_sums = np.abs(w).sum(axis=1, dtype=np.longdouble)
    lo, hi = _sum_interval(sums, abs_sums, w.shape[1] - 1)
    abs_lo, abs_hi = _sum_interval(abs_sums, abs_sums, w.shape[1] - 1)
    assert (lo <= want).all() and (want <= hi).all()
    assert (abs_lo <= want_abs).all() and (want_abs <= abs_hi).all()
    assert _fsum_rows(w, lo, hi).tobytes() == want.tobytes()


def test_signed_mass_at_the_balance_threshold():
    # dyadic atoms in +- pairs sum to exactly 0, so the mass is the one
    # extra atom t; t steps across 1e-12 |weights|_1 in relative steps down
    # to 1e-9
    rng = np.random.default_rng(97)
    balanced = set()
    for half in (1, 32, 2050):
        x = rng.integers(1, 2 ** 30, half) * 2.0 ** -30
        threshold = 1e-12 * 2 * math.fsum(x.tolist())
        for step in (0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3, 0.5):
            for t in (threshold * (1 + step), threshold * (1 - step)):
                for sign in (1, -1):
                    fm = FiberMeasure(rng.random(2 * half + 1),
                                      np.concatenate((x, -x, [sign * t])))
                    got = _signed_mass(fm)
                    assert np.float64(got).tobytes() == \
                        np.float64(signed_mass_by_rows(fm)).tobytes()
                    balanced.add(got == 0.0)
    # both outcomes occur
    assert balanced == {True, False}


def test_duplicate_atoms_merge_and_tiny_weights_drop():
    fm = FiberMeasure([[0.2], [0.2], [0.7]], [0.5, 0.5, 1e-16])
    assert len(fm) == 1
    assert fm.mass() == pytest.approx(1.0)


# ---------------------------------------------------------------- coarsen

def test_coarsen_merges_within_bin():
    fm = coarsen(FiberMeasure([[0.101], [0.102]], [1.0, 1.0]), 0.01)
    assert len(fm) == 1
    assert fm.mass() == pytest.approx(2.0)


def test_coarsen_preserves_mass():
    rng = np.random.default_rng(5)
    for _ in range(20):
        fm = FiberMeasure(rng.random((50, 1)), rng.uniform(-1, 1, 50))
        out = coarsen(fm, 1 / 128)
        assert abs(out.mass() - fm.mass()) <= 1e-12


def test_coarsen_w1_perturbation_bound():
    rng = np.random.default_rng(6)
    fm = FiberMeasure(rng.random((1000, 1)), rng.uniform(-1, 1, 1000))
    eps = 1 / 256
    out = coarsen(fm, eps)
    assert abs(w1_norm(out) - w1_norm(fm)) <= eps * fm.abs_mass() + 1e-9


def _bits(fm: FiberMeasure) -> tuple:
    return (fm.positions.view(np.int64).tolist(),
            fm.weights.view(np.int64).tolist())


@pytest.mark.parametrize("eps", [1 / 324, 2.0 ** -8])
def test_float_coarsen_equals_the_full_reduction(eps):
    # the snapped positions stay sorted, so coarsen only merges equal
    # neighbours; at eps = 1/324 the atom at 1 - 2^-53 snaps to 1.0 and
    # must wrap to 0 like the full reduction (mod 1, argsort, merge)
    rng = np.random.default_rng(79)
    fibers = [FiberMeasure(rng.random(n), rng.uniform(-1, 1, n))
              for n in (1, 2, 50, 2048)]
    fibers.append(FiberMeasure([0.0, 0.25, 0.5, 1 - 2.0 ** -53],
                               [0.25, -0.5, 1.0, 0.125]))
    # two atoms of one bin whose sum falls below 1e-15
    fibers.append(FiberMeasure([0.1, 0.1 + 1e-9, 0.7],
                               [1e-3, -1e-3 * (1 + 2.0 ** -52), 1.0]))
    for fm in fibers:
        ref = FiberMeasure(np.floor(fm.positions / eps) * eps, fm.weights)
        assert _bits(coarsen(fm, eps)) == _bits(ref)
    assert len(coarsen(fibers[-1], eps)) == 1
    wraps = np.floor((1 - 2.0 ** -53) / eps) * eps >= 1.0
    assert wraps == (eps == 1 / 324)


def test_combine_on_one_grid_equals_the_concatenated_merge():
    rng = np.random.default_rng(83)
    grid = np.sort(rng.random(64))
    a = FiberMeasure(grid, rng.uniform(-1, 1, 64))
    w = rng.uniform(-1, 1, 64)
    w[5] = -a.weights[5]
    w[9] = -a.weights[9] * (1 + 2.0 ** -52)
    assert 0 < abs(a.weights[9] + w[9]) < 1e-15
    b = FiberMeasure(grid, w)
    off = grid.copy()
    off[3] = np.nextafter(off[3], 1.0)
    c = FiberMeasure(off, w)
    for x, s, y in [(a, 1, b), (a, -1, b), (a, 0.3, b), (b, -1, b),
                    (a, 1, c)]:
        ys = FiberMeasure(y.positions, y.weights * float(s))
        ref = FiberMeasure(np.concatenate((x.positions, ys.positions)),
                           np.concatenate((x.weights, ys.weights)))
        assert _bits(_combine([(x, 1), (y, s)])) == _bits(ref)
    # the exact and the sub-1e-15 cancellations both drop their atom
    assert len(a + b) == 62
    assert len(b - b) == 0


def _cell_keys_by_unique_rows(table, terms, coefs, eps) -> list:
    c = len(coefs)
    rows, inv = np.unique(terms, axis=0, return_inverse=True)
    sums = [coarsen(_combine([(table[t // c], coefs[t % c])
                              for t in row if t >= 0]), eps)
            for row in rows.tolist()]
    return [sums[i].content_key() for i in inv.reshape(-1).tolist()]


def test_combine_cells_groups_rows_like_unique_axis0():
    rng = np.random.default_rng(89)
    table = []
    for n in rng.integers(1, 40, 6).tolist():
        table.append(FiberMeasure(rng.random(n), rng.uniform(-1, 1, n)))
    coefs = (0.5, 0.25, -1 / 3)
    for n in (1, 7, 64, 1024):
        for width in range(1, 5):
            pool = rng.integers(0, len(table) * len(coefs),
                                (max(1, n // 8), width))
            # -1 pads trailing slots; every row keeps its first term
            pad = rng.integers(1, width + 1, len(pool))
            pool[np.arange(width)[None, :] >= pad[:, None]] = -1
            terms = pool[rng.integers(0, len(pool), n)]
            for eps in (0, 2.0 ** -7):
                want = _cell_keys_by_unique_rows(table, terms, coefs, eps)
                for layout in (terms, np.asfortranarray(terms)):
                    out = combine_cells(table, layout, coefs, eps)
                    assert [f.content_key() for f in out.fibers] == want
                    assert not out.ids.flags.writeable


# ---------------------------------------------------------------- l1_norm

def test_l1_lebesgue_probability():
    assert l1_norm(lebesgue_disintegration(64, 16)) == pytest.approx(1.0, abs=1e-12)


def test_l1_zero_measure():
    zero = FiberMeasure([], [])
    assert l1_norm(Disintegration([0] * 8, [zero])) == 0.0


def test_l1_lebesgue_minus_uniform_orbit():
    diff = lebesgue_disintegration(32, 64, exact=True).scale(-1) + \
        product_disintegration(32, uniform_fiber(4))
    assert l1_norm(diff) == F(1, 16)


# ------------------------------------------------------------------ var_p

def single_jump(n: int) -> Disintegration:
    left = FiberMeasure([[0.0]], [1.0 / n])
    right = FiberMeasure([[0.5]], [1.0 / n])
    return Disintegration([0] * (n // 2) + [1] * (n // 2), [left, right])


def test_var_p_x_constant_zero():
    dis = product_disintegration(32, FiberMeasure([[0.1], [0.6]], [0.5, 0.5]))
    assert var_p(dis, 1.0, 0.5) == 0.0


def test_var_p_single_jump_frozen():
    # radius-independent value 1.0 at p = 1; halving n changes nothing
    assert var_p(single_jump(64), 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert var_p(single_jump(32), 1.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert var_p(single_jump(64), 0.5, 0.5) == pytest.approx(
        2 ** -0.5, abs=1e-12)


def test_var_p_homogeneous():
    for dis in signed_disintegrations(59, 5, 16):
        v = var_p(dis, 1.0, 0.5)
        assert var_p(dis.scale(-3.0), 1.0, 0.5) == pytest.approx(3 * v, rel=1e-9)


def test_var_p_matches_direct_definition():
    for dis in signed_disintegrations(61, 4, 12):
        for p, A in ((1.0, 0.5), (0.5, 0.5), (1.0, 0.25)):
            assert var_p(dis, p, A) == pytest.approx(
                var_p_direct(dis, p, A), abs=1e-9)
    for dis in positive_disintegrations(67, 2, 16):
        # A = 1/16 gives jmax = 1: windows do not span all runs
        for p, A in ((1.0, 0.5), (1.0, 1 / 16)):
            assert var_p(dis, p, A) == pytest.approx(
                var_p_direct(dis, p, A), abs=1e-9)


def _pair_norm_cases() -> list[Disintegration]:
    """Tables whose pairs reach every branch of the batched pair norms."""
    rng = np.random.default_rng(101)
    grid = np.sort(rng.random(40))
    base = rng.uniform(0.5, 1.0, 40) / 64
    nudged = base * (1 + 1e-3)
    # differences below 1e-15 of the same sign as the rest (which moves
    # the sum) and of the opposite sign (which leaves it single-signed)
    nudged[3] = base[3] + 9e-16
    nudged[5] = base[5] - 9e-16
    twin = base.copy()
    twin[7] += 5e-16
    off = grid.copy()
    off[11] = np.nextafter(off[11], 1.0)
    shared = [FiberMeasure(grid, w) for w in
              (base, 1.25 * base, 0.5 * base, nudged, twin,
               base * rng.uniform(0.5, 1.5, 40), -base)]
    mixed = shared[:3] + [FiberMeasure(off, base),
                          FiberMeasure(np.sort(rng.random(25)),
                                       rng.uniform(0, 1, 25) / 64)]
    exact = [uniform_fiber(8, F(1, 16)), uniform_fiber(4),
             uniform_fiber(4, F(1, 16))]
    cases = []
    for table in (shared, mixed, exact, exact[:2] + shared[:2]):
        ids = np.repeat(np.arange(len(table)), 2)
        cases.append(Disintegration(rng.permutation(ids), table))
    return cases


@pytest.mark.parametrize("block", [None, 120], ids=["default", "3-pairs"])
def test_batched_pair_norms_equal_the_per_pair_loop(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(measures, "_BLOCK_ATOMS", block)
    calls = []
    w1 = measures.w1_norm
    monkeypatch.setattr(measures, "w1_norm",
                        lambda fm: calls.append(1) or w1(fm))
    cases = _pair_norm_cases()
    n_pairs = 0
    for dis in cases:
        k = len(dis.table)
        pairs = np.array([(u, v) for u in range(k) for v in range(u + 1, k)])
        n_pairs += len(pairs)
        assert _pair_w1(dis.table, pairs).tobytes() == \
            pair_w1_loop(dis.table, pairs).tobytes()
    # the shared grid goes through the batch, the rest through w1_norm
    assert 0 < len(calls) < n_pairs

    def norms():
        return np.array([var_p(dis, p, A) for dis in cases
                         for p, A in ((1.0, 0.5), (0.5, 0.25))])

    got = norms()
    monkeypatch.setattr(measures, "_pair_w1", pair_w1_loop)
    assert got.tobytes() == norms().tobytes()


def test_var_p_parameter_validation():
    dis = lebesgue_disintegration(8, 2)
    with pytest.raises(ValueError, match="p must lie"):
        var_p(dis, 1.5, 0.5)
    with pytest.raises(ValueError, match="A must lie"):
        var_p(dis, 1.0, 0.6)


# --------------------------------------------------------------- pbv_norm

def test_pbv_lebesgue():
    rep = pbv_norm(lebesgue_disintegration(64, 8), 1.0, 0.5)
    assert rep.l1 == pytest.approx(1.0, abs=1e-12)
    assert rep.var_p == 0.0
    assert rep.pbv == rep.l1 + rep.var_p


def test_pbv_zero():
    zero = FiberMeasure([], [])
    rep = pbv_norm(Disintegration([0] * 4, [zero]), 1.0, 0.5)
    assert (rep.l1, rep.var_p, rep.pbv) == (0.0, 0.0, 0.0)


def test_pbv_product_dipole():
    dip = product_disintegration(64, FiberMeasure([[0.0], [0.5]], [1.0, -1.0]))
    rep = pbv_norm(dip, 1.0, 0.5)
    assert rep.l1 == pytest.approx(0.5, abs=1e-12)
    assert rep.var_p == 0.0
    assert rep.pbv == pytest.approx(0.5, abs=1e-12)


def test_pbv_dominates_l1_and_fiber_sup():
    # per-fiber bound: max_i w1(N * fibers[i]) <= A^(p-1) * pbv
    for p in (1.0, 0.5):
        for dis in signed_disintegrations(71, 6, 16):
            rep = pbv_norm(dis, p, 0.5)
            assert rep.l1 <= rep.pbv + 1e-12
            n = dis.n_cells
            sup = max(w1_norm(f.scale(n)) for f in dis.fibers)
            assert sup <= 0.5 ** (p - 1) * rep.pbv + 1e-9


def test_pbv_fiber_sup_bound_on_spike():
    n = 64
    dis = Disintegration([0] + [1] * (n - 1),
                         [FiberMeasure([[0.25]], [1.0]), FiberMeasure([], [])])
    for p in (1.0, 0.5):
        rep = pbv_norm(dis, p, 0.5)
        assert n <= 0.5 ** (p - 1) * rep.pbv + 1e-9


# ------------------------------------------------------- marginal_density

def test_marginal_lebesgue():
    md = marginal_density(lebesgue_disintegration(32, 4))
    assert md.values == pytest.approx(np.ones(32), abs=1e-12)
    assert md.sup_norm == pytest.approx(1.0, abs=1e-12)


def test_marginal_half_support():
    n = 16
    atom = FiberMeasure([[0.3]], [2.0 / n])
    empty = FiberMeasure([], [])
    dis = Disintegration([0] * (n // 2) + [1] * (n // 2), [atom, empty])
    md = marginal_density(dis)
    assert md.values[: n // 2] == pytest.approx(np.full(n // 2, 2.0))
    assert md.values[n // 2:] == pytest.approx(np.zeros(n // 2))
    assert md.sup_norm == pytest.approx(2.0)


def test_marginal_integral_equals_mass():
    for dis in positive_disintegrations(73, 10, 32):
        md = marginal_density(dis)
        assert np.mean(md.values) == pytest.approx(dis.mass(), abs=1e-12)


# ------------------------------------------------------------- structure

def test_disintegration_validation():
    fm1 = FiberMeasure([[0.1]], [1.0])
    with pytest.raises(ValueError, match="empty disintegration"):
        Disintegration([], [])
    with pytest.raises(ValueError, match="out of range"):
        Disintegration([0, 1], [fm1])
    with pytest.raises(ValueError, match="out of range"):
        Disintegration([-1, 0], [fm1])


def _assert_packed(packed: Disintegration, cells: list) -> None:
    """packed against a per-cell list: same content byte for byte, a table
    without content-equal entries, ids numbered by first appearance."""
    assert [f.content_key() for f in packed.fibers] == \
        [f.content_key() for f in cells]
    keys = [f.content_key() for f in packed.table]
    assert len(set(keys)) == len(keys)
    assert list(dict.fromkeys(packed.ids.tolist())) == \
        list(range(len(packed.table)))
    assert np.array_equal(Disintegration(range(len(cells)), cells).ids,
                          packed.ids)


def _transfer_reference(sys: SkewSystem, dis: Disintegration,
                        eps_f: float) -> list:
    n = dis.n_cells
    t = _pieces(sys.base, n)
    out = []
    for k in range(n):
        fib = None
        for i in np.flatnonzero(t.out == k).tolist():
            c = int(t.src[i])
            part = sys.fiber.push_many(
                [(dis.fibers[c], indicator_member(sys.fiber, c, n))])[0]
            part = part.scale(t.fracs[t.code[i]])
            fib = part if fib is None else fib + part
        out.append(coarsen(fib, eps_f))
    return out


def test_packed_operations_match_per_cell_loop():
    batteries = signed_disintegrations(89, 4, 16) + \
        positive_disintegrations(97, 4, 16)
    systems = [SkewSystem(linear_base(2), translation_family(golden_angle())),
               SkewSystem(precomposed_base(2, SineShift(0.01)),
                          translation_family(golden_angle()))]
    for a, b in zip(batteries, batteries[1:] + batteries[:1]):
        _assert_packed(a, list(a.fibers))
        _assert_packed(a.scale(-0.37), [f.scale(-0.37) for f in a.fibers])
        # all fibers vanish: the table merges to one entry
        _assert_packed(a.scale(0.0), [f.scale(0.0) for f in a.fibers])
        _assert_packed(a + b, [f + g for f, g in zip(a.fibers, b.fibers)])
        _assert_packed(a - b, [f - g for f, g in zip(a.fibers, b.fibers)])
        _assert_packed(a.lincomb(0.3, b, -1.7),
                       [f.scale(0.3) + g.scale(-1.7)
                        for f, g in zip(a.fibers, b.fibers)])
        for sys in systems:
            _assert_packed(transfer_step(sys, a, eps_f=2.0 ** -10),
                           _transfer_reference(sys, a, 2.0 ** -10))
    # an exact pair stays exact; an exact-float pair is summed in floats
    a = Disintegration([0, 1, 1, 0], [uniform_fiber(4),
                                      uniform_fiber(3).translate(F(1, 8))])
    b = Disintegration([1, 0, 1, 1], [uniform_fiber(2, F(1, 2)),
                                      uniform_fiber(5)])
    for other, first in ((b, a), (b.to_float(), a.to_float())):
        out = a.lincomb(F(2, 3), other, F(-5, 7))
        assert all(f.exact == (other is b) for f in out.table)
        _assert_packed(out, [f.scale(F(2, 3)) + g.scale(F(-5, 7))
                             for f, g in zip(first.fibers, other.fibers)])


def test_combine_adds_left_to_right_like_the_pairwise_chain():
    # np.add.reduceat would add three coincident atoms as a + (b + c)
    one = FiberMeasure([[0.5]], [1.0])
    assert _combine([(one, 0.1), (one, 0.2), (one, 0.3)]).weights.tolist() \
        == [(0.1 + 0.2) + 0.3]
    # 1 - (1 - 2^-52) falls below 1e-15 and is dropped before 0.1 is added
    assert _combine([(one, 1.0), (one, -(1.0 - 2.0 ** -52)),
                     (one, 0.1)]).weights.tolist() == [0.1]
    # an x-independent fiber map on a precomposed base: three pieces of
    # one cell can carry coincident atoms
    system = SkewSystem(precomposed_base(2, SineShift(0.01)),
                        FiberMapFamily())
    for dis in [lebesgue_disintegration(16, 8)] + \
            positive_disintegrations(11, 2, 16):
        _assert_packed(transfer_step(system, dis, eps_f=2.0 ** -10),
                       _transfer_reference(system, dis, 2.0 ** -10))


@pytest.mark.parametrize("n, m", [(81, 3), (243, 5), (3, 5), (100, 12),
                                  (1024, 256), (64, 3), (27, 512), (1, 1)])
def test_float_lebesgue_is_exact_rounded_once(n, m):
    fm = lebesgue_disintegration(n, m).table[0]
    exact = lebesgue_disintegration(n, m, exact=True).to_float().table[0]
    assert fm.content_key() == exact.content_key()
    assert fm.weights[0] == 1 / (n * m)


# ------------------------------------------------------------ hypothesis

atom_lists = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0, 1, exclude_max=True, allow_nan=False),
                 min_size=n, max_size=n),
        st.lists(st.floats(-2, 2, allow_nan=False, allow_infinity=False),
                 min_size=n, max_size=n)))


def _build(t) -> FiberMeasure:
    pos, w = t
    return FiberMeasure([[x] for x in pos], w)


@given(atom_lists, atom_lists)
def test_hyp_triangle_inequality(ta, tb):
    a, b = _build(ta), _build(tb)
    assert w1_norm(a + b) <= w1_norm(a) + w1_norm(b) + 1e-9


@given(atom_lists, st.floats(-4, 4, allow_nan=False))
def test_hyp_homogeneity(ta, c):
    a = _build(ta)
    assert w1_norm(a.scale(c)) == pytest.approx(abs(c) * w1_norm(a), abs=1e-9)


@given(atom_lists, st.sampled_from([1 / 16, 1 / 64, 1 / 256]))
def test_hyp_coarsen_contract(ta, eps):
    a = _build(ta)
    out = coarsen(a, eps)
    assert abs(out.mass() - a.mass()) <= 1e-12
    assert abs(w1_norm(out) - w1_norm(a)) <= eps * a.abs_mass() + 1e-9


# ------------------------------------- fast kernels against plain forms

# Float arrays compare through tobytes, so -0.0 against 0.0 and any change
# of rounding fail; exact fibers through their integer numerators and
# denominators.

# wrap to 0 (1.0, -0.0, -1.0, tiny negatives), sit next to it, or wrap
# from outside [0, 1)
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 1 - 2.0 ** -53, -(2.0 ** -60),
           2.0 ** -1074, 1.5, -0.25, 0.25]


def _layout(data, values: list) -> list:
    """values sorted, as a cyclic shift of the sorted list, shuffled, or
    as drawn."""
    kind = data.draw(st.sampled_from(["sorted", "rotated", "shuffled",
                                      "drawn"]))
    if kind == "drawn":
        return values
    values = sorted(values)
    if kind == "rotated":
        i = data.draw(st.integers(0, len(values)))
        return values[i:] + values[:i]
    if kind == "shuffled":
        return data.draw(st.permutations(values))
    return values


def _with_copies(data, values: list, offsets: list) -> list:
    """Repeat some atoms once or twice (2 or 3 coincident atoms), each copy
    shifted by a whole number from offsets, so that it meets its original
    only after the reduction mod 1 (across the wrap)."""
    out = list(values)
    for v in data.draw(st.lists(st.sampled_from(values), max_size=4)):
        for _ in range(data.draw(st.integers(1, 2))):
            at = data.draw(st.integers(0, len(out)))
            out.insert(at, v + data.draw(st.sampled_from(offsets)))
    return out


def _same_float(fm: FiberMeasure, want) -> None:
    pos, w, q, r = want
    assert not fm.exact and (fm.q, fm.r) == (q, r)
    assert fm.positions.dtype == w.dtype == np.float64
    assert fm.positions.tobytes() == pos.tobytes()
    assert fm.weights.tobytes() == w.tobytes()


def _same_exact(fm: FiberMeasure, want) -> None:
    pos, w, q, r = want
    assert fm.exact and (fm.q, fm.r) == (q, r)
    assert fm.positions.dtype == fm.weights.dtype == object
    assert fm.positions.tolist() == pos.tolist()
    assert fm.weights.tolist() == w.tolist()
    assert all(type(v) is int for v in fm.positions.tolist()
               + fm.weights.tolist())


@given(data=st.data())
def test_float_canonical_form_matches_full_sort(data):
    values = data.draw(st.lists(
        st.floats(0, 1, exclude_max=True) | st.sampled_from(SPECIAL),
        min_size=1, max_size=30))
    values = _with_copies(data, _layout(data, values), [0.0, 1.0, -1.0])
    w = data.draw(st.lists(
        st.floats(-4, 4) | st.sampled_from([1e-16, -5e-16, 1e-15, 0.0]),
        min_size=len(values), max_size=len(values)))
    pos, w = np.array(values, dtype=float), np.array(w, dtype=float)
    _same_float(_fiber(pos.copy(), w.copy()),
                canonical_by_sort(pos.copy(), w.copy()))


@given(data=st.data())
def test_exact_canonical_form_matches_full_sort(data):
    q = data.draw(st.integers(1, 24))
    values = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                max_size=24))
    values = _with_copies(data, _layout(data, values), [0, q, -q, 2 * q])
    w = data.draw(st.lists(st.integers(-5, 5), min_size=len(values),
                           max_size=len(values)))
    r = data.draw(st.integers(1, 12))
    pos, w = np.array(values, dtype=object), np.array(w, dtype=object)
    _same_exact(_fiber(pos.copy(), w.copy(), q, r),
                canonical_by_sort(pos.copy(), w.copy(), q, r))


@pytest.mark.parametrize("shift", [0, 1, 37, 499, 500])
@pytest.mark.parametrize("offset", [0.0, 1.0, -1.0])
def test_rotated_sorted_fiber_takes_the_same_order(shift, offset):
    # the push of a sorted fiber by a rotation or the bump: one descent
    rng = np.random.default_rng(shift)
    pos = np.roll(np.sort(rng.random(500)), -shift) + offset
    w = rng.normal(size=500)
    _same_float(_fiber(pos.copy(), w.copy()),
                canonical_by_sort(pos.copy(), w.copy()))


def test_pushes_of_a_sorted_fiber_match_full_sort():
    fm = uniform_fiber(2048).to_float()
    fam = composite_family(golden_angle(), 2.0 ** -9, 16)
    rotated = fm.positions + float(fam.theta)
    bumped = fam.bump(rotated - np.floor(rotated))
    for pos in (rotated, bumped, fam.bump(fm.positions)):
        _same_float(_fiber(pos.copy(), fm.weights),
                    canonical_by_sort(pos.copy(), fm.weights))


def test_push_many_shares_the_image_of_a_rotation_invariant_fiber():
    # the float Lebesgue fiber of criterion 7's grid is invariant under
    # the family's rotation by 1/16: both pushes deform one position
    # array, canonicalized once, and keep their own weights
    fam = prop_bahh_system(lacunary_theta(3), 1).pspec.perturbed.fiber
    assert fam.theta == F(1, 16)
    grid = uniform_fiber(2048).to_float().positions
    fm = FiberMeasure(grid, 1 + np.sin(7 * grid))
    rotated = fm.positions + float(fam.theta)
    rotated -= np.floor(rotated)
    out = fam.push_many([(fm, 0), (fm, 1)])
    assert out[0].positions is out[1].positions
    for got, pos in zip(out, (fm.positions, rotated)):
        _same_float(got, canonical_by_sort(fam.bump(pos), fm.weights))


@given(data=st.data())
def test_deformation_of_many_fibers_matches_one_at_a_time(data):
    bump = OrbitBump(data.draw(st.sampled_from([1, 2, 16])), 2.0 ** -9)
    base = [uniform_fiber(7).to_float(), uniform_fiber(12),
            FiberMeasure([[0.1], [0.6]], [1.0, -2.0]),
            FiberMeasure([], [])]
    fibers = data.draw(st.lists(st.sampled_from(base), min_size=1,
                                max_size=6))
    for fm, got in zip(fibers, _apply_map_many(fibers, bump)):
        a = fm.to_float()
        want = canonical_by_sort(bump(a.positions), a.weights)
        _same_float(got, want)


# ------------------------------------------------------ balance test

def _raw_fiber(w) -> FiberMeasure:
    # weights as given: the constructor would drop the subnormal ones
    fm = FiberMeasure.__new__(FiberMeasure)
    fm.exact, fm.q, fm.r, fm._key = False, 1, 1, None
    fm.weights = np.array(w, dtype=float)
    fm.positions = np.arange(len(w)) / len(w)
    return fm


def _same_outcome(fm: FiberMeasure) -> None:
    try:
        want = signed_mass_by_rows(fm)
    except OverflowError:
        with pytest.raises(OverflowError):
            _signed_mass(fm)
        return
    got = _signed_mass(fm)
    assert type(got) is type(want)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(half=st.lists(st.integers(1, 2 ** 30), min_size=1, max_size=40),
       step=st.sampled_from([0, 1e-9, 1e-6, 1e-3, 0.5, -1e-9, -1e-3]),
       sign=st.sampled_from([1, -1]))
def test_balance_test_near_threshold_matches_rows(half, step, sign):
    x = np.array(half) * 2.0 ** -30
    t = 1e-12 * 2 * math.fsum(x.tolist()) * (1 + step)
    _same_outcome(_raw_fiber(np.concatenate((x, -x, [sign * t]))))


@given(w=st.lists(st.sampled_from([5e-324, -5e-324, 1e-310, -3e-310,
                                   2.0 ** -1022, 1e-300, -1e-300]),
                  min_size=1, max_size=30))
def test_balance_test_on_subnormal_rows_matches_rows(w):
    _same_outcome(_raw_fiber(w))


@given(w=st.lists(st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 1.0,
                                   -2.0]),
                  min_size=1, max_size=12))
def test_balance_test_on_overflowing_rows_matches_rows(w):
    with np.errstate(over="ignore"):
        _same_outcome(_raw_fiber(w))


def test_balance_test_on_exact_fibers_matches_rows():
    fm = uniform_fiber(6) - uniform_fiber(4)
    assert _signed_mass(fm) == signed_mass_by_rows(fm) == 0
    fm = uniform_fiber(6, 2) - uniform_fiber(4)
    assert _signed_mass(fm) == signed_mass_by_rows(fm) == fm.r


# ------------------------------------------------------ sums of fibers

def _grid_fiber(data, grid: int, size: int) -> FiberMeasure:
    cells = data.draw(st.lists(st.integers(0, grid - 1), min_size=1,
                               max_size=size, unique=True))
    w = data.draw(st.lists(
        st.floats(-2, 2) | st.sampled_from([1e-16, 3.0, -3.0]),
        min_size=len(cells), max_size=len(cells)))
    return FiberMeasure(np.array(cells) / grid, w)


@given(data=st.data())
def test_combine_matches_merge_by_full_sort(data):
    # coincident atoms on a shared grid, and cancellations to below 1e-15
    grid = data.draw(st.sampled_from([8, 12, 1000]))
    parts = [(_grid_fiber(data, grid, 12),
              data.draw(st.sampled_from([1, -1, 0.5, 2.5, F(1, 3)])))
             for _ in range(data.draw(st.integers(1, 4)))]
    if data.draw(st.booleans()):
        fm, _ = parts[0]
        parts.append((fm, -1))
    _same_float(_combine(parts), (*combine_by_sort(parts), 1, 1))


@given(data=st.data())
def test_combine_on_one_shared_array_matches_merge_by_full_sort(data):
    # parts on one positions object, as push_many returns the pushes of
    # one position array: the elementwise sums, with atoms that the 1e-15
    # drop removes from some scaled parts only (2e-15 * 0.25, 2.0 * 1e-16)
    # or from a sum (a part less itself)
    grid = data.draw(st.sampled_from([8, 12, 1000]))
    cells = data.draw(st.lists(st.integers(0, grid - 1), min_size=1,
                               max_size=12, unique=True))
    pos = np.array(sorted(cells)) / grid
    weights = st.floats(-2, 2).filter(lambda v: abs(v) >= 1e-15) | \
        st.sampled_from([2e-15, -2e-15, 20.0, -20.0])
    parts = []
    for _ in range(data.draw(st.integers(1, 4))):
        w = data.draw(st.lists(weights, min_size=len(pos),
                               max_size=len(pos)))
        parts.append((_fiber(pos, np.array(w), presorted=True),
                      data.draw(st.sampled_from([1, -1, 0.5, 0.25, 1e-16,
                                                 F(1, 3)]))))
    if data.draw(st.booleans()):
        fm, s = data.draw(st.sampled_from(parts))
        parts.append((fm, -s))
    assert all(fm.positions is pos for fm, _ in parts)
    _same_float(_combine(parts), (*combine_by_sort(parts), 1, 1))


# ------------------------------------------------------ balanced W1

@given(data=st.data())
def test_balanced_flat_norm_matches_full_sort(data):
    # positions on a dyadic grid (exact gap sums) or not; weights in +-
    # pairs of dyadic values, so the mass is exactly 0
    grid = data.draw(st.sampled_from([2 ** 5, 2 ** 40, 3 * 2 ** 4, 1000]))
    cells = data.draw(st.lists(st.integers(0, grid - 1), min_size=2,
                               max_size=40, unique=True))
    half = data.draw(st.lists(st.integers(1, 6), min_size=len(cells) // 2,
                              max_size=len(cells) // 2))
    w = [v * 2.0 ** -7 for v in half] + [-v * 2.0 ** -7 for v in half]
    w = data.draw(st.permutations(w + [0.0] * (len(cells) % 2)))
    fm = FiberMeasure(np.array(cells) / grid, w)
    if len(fm) < 2:
        return
    got = _w1_flat(fm, 0.0)
    assert np.float64(got).tobytes() == \
        np.float64(flat_balanced_by_sort(fm)).tobytes()


@pytest.mark.parametrize("pos, w, median", [
    ([0.25, 0.5, 0.75], [1.0, -1.0, 0.0], 0.0),
    # off the dyadic grid, where the gap sums round
    ([0.1, 0.5, 0.7], [1.0, -1.0, 0.0], 0.0),
    # the negative prefix sums hold exactly half the gaps: the median is
    # the last of them
    ([0.0, 0.25, 0.5, 0.75], [-1.0, 1.0, -1.0, 1.0], -1.0),
    # no prefix sum is 0
    ([0.0, 0.5], [1.0, -1.0 + 2.0 ** -20], 2.0 ** -20),
])
def test_lower_median_of_gap_sums(pos, w, median):
    fm = FiberMeasure(pos, w)
    prefix = np.cumsum(fm.weights)
    gaps = np.diff(fm.positions, append=fm.positions[0] + 1)
    assert _lower_median(prefix, gaps) == median
