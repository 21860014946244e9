"""Independent brute-force references used by the test suite.

These are deliberately dumb: a dense-grid linear program and an all-pairs
atom program for the capped Lipschitz dual norm, direct definitional
sums for oscillation and var_p, and the one-difference-at-a-time W1 loop
that var_p's batched pair norms replace.  They share no code paths with
the library shortcuts they check.  The base map's 1D transfer of
piecewise-constant densities reads the piece table that transfer_step
uses, and checks the marginal of each transfer step; the indicator test
cell by cell and the transfer step with its bookkeeping made afresh on
every call check the step's plan.

The last group keeps the plain forms of kernels that have fast paths,
for bit-for-bit comparisons: canonical form by a full stable sort, the
cubic bump by searchsorted, the balance test by two math.fsum values,
and the invariant-measure loop with the exact residual at every step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from skewstab import dynamics, measures
from skewstab.measures import Disintegration, FiberMeasure, w1_norm

GRID_NODES = 10_000


@lru_cache(maxsize=4)
def _literal_rows(nodes: int):
    # rows g_i - g_{i+1} <= h and g_{i+1} - g_i <= h, cyclically
    idx = np.arange(nodes)
    nxt = (idx + 1) % nodes
    data = np.concatenate([np.ones(nodes), -np.ones(nodes),
                           -np.ones(nodes), np.ones(nodes)])
    r = np.concatenate([idx, idx, idx + nodes, idx + nodes])
    c = np.concatenate([idx, nxt, idx, nxt])
    mat = sparse.coo_matrix((data, (r, c)), shape=(2 * nodes, nodes)).tocsc()
    return mat, np.full(2 * nodes, 1.0 / nodes)


def _node_weights(fm: FiberMeasure, nodes: int) -> np.ndarray:
    f = fm.to_float()
    c = np.zeros(nodes)
    if len(f) == 0:
        return c
    atoms = f.atoms()
    pos = np.asarray([a[0] for a in atoms], dtype=float)
    w = np.asarray([a[1] for a in atoms], dtype=float)
    np.add.at(c, np.round(pos * nodes).astype(int) % nodes, w)
    return c


def _solve_literal(c: np.ndarray, nodes: int) -> float:
    mat, b = _literal_rows(nodes)
    res = linprog(-c, A_ub=mat, b_ub=b, bounds=(-1.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(-res.fun)


def _solve_difference(c: np.ndarray, nodes: int) -> float:
    # Same LP after the substitution u_i = g_i - g_{i-1} (i >= 1), with the
    # cap rows kept only at nodes carrying weight: clipping any feasible g
    # to [-1, 1] is a contraction, so it preserves the Lipschitz rows and
    # the objective nodes, and the optimum is unchanged.
    h = 1.0 / nodes
    obj = np.empty(nodes)
    suffix = np.cumsum(c[::-1])[::-1]
    obj[0] = suffix[0]
    obj[1:] = suffix[1:]

    carriers = np.flatnonzero(c)
    if len(carriers) == 0:
        return 0.0
    rows, cols, vals = [], [], []
    row = 0
    for k in carriers:
        span = np.arange(0, k + 1)
        for sign in (1.0, -1.0):
            rows.append(np.full(len(span), row))
            cols.append(span)
            vals.append(np.full(len(span), sign))
            row += 1
    span = np.arange(1, nodes)
    for sign in (1.0, -1.0):
        rows.append(np.full(nodes - 1, row))
        cols.append(span)
        vals.append(np.full(nodes - 1, sign))
        row += 1
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row, nodes)).tocsc()
    b = np.concatenate([np.ones(2 * len(carriers)), [h, h]])
    bounds = [(-1.0, 1.0)] + [(-h, h)] * (nodes - 1)
    res = linprog(-obj, A_ub=mat, b_ub=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(-res.fun)


def dense_grid_w1(fm: FiberMeasure, nodes: int = GRID_NODES,
                  formulation: str = "difference") -> float:
    """Capped-Lipschitz dual norm by LP over a dense circle grid.

    Atom positions are snapped to the nearest grid node; callers that need
    snap-free comparisons should pass measures supported on the grid.
    """
    c = _node_weights(fm, nodes)
    if not np.any(c):
        return 0.0
    if formulation == "literal":
        return _solve_literal(c, nodes)
    if formulation == "difference":
        return _solve_difference(c, nodes)
    raise ValueError(f"unknown formulation {formulation!r}")


def pairwise_lp_w1(fm: FiberMeasure) -> float:
    """Capped-Lipschitz dual norm by scipy LP over the atoms themselves,
    with a Lipschitz constraint for every pair of atoms (no adjacency
    shortcut): max sum w_i g_i, |g_i| <= 1, |g_i - g_j| <= d(y_i, y_j).

    HiGHS's tolerances are absolute, so on fibers whose weights are below
    about 1e-6 the result can be off by more than the norm itself (even
    negative); compare small-scale fibers with the exact backend instead."""
    atoms = fm.to_float().atoms()
    n = len(atoms)
    if n == 0:
        return 0.0
    pos = np.asarray([p for p, _ in atoms], dtype=float)
    w = np.asarray([x for _, x in atoms], dtype=float)
    i, j = np.triu_indices(n, 1)
    d = np.abs(pos[i] - pos[j])
    d = np.minimum(d, 1.0 - d)
    rows = np.zeros((len(i), n))
    rows[np.arange(len(i)), i] = 1.0
    rows[np.arange(len(i)), j] = -1.0
    res = linprog(-w, A_ub=np.vstack([rows, -rows]),
                  b_ub=np.concatenate([d, d]), bounds=(-1.0, 1.0),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(-res.fun)


def oscillation_direct(dis: Disintegration, i: int, r: float) -> float:
    """Oscillation straight from the definition: max over all cell pairs
    within radius r of cell i, no run-length or caching tricks."""
    n = dis.n_cells
    centers = (np.arange(n) + 0.5) / n
    near = np.flatnonzero(np.abs(centers - centers[i]) <= r + 1e-12)
    best = 0.0
    for a in near:
        for b in near:
            if a >= b:
                continue
            diff = dis.fibers[a].scale(n) - dis.fibers[b].scale(n)
            best = max(best, w1_norm(diff))
    return best


def var_p_direct(dis: Disintegration, p: float, A: float) -> float:
    """var_p straight from the definition; quadratic in n_cells, use only
    on small grids."""
    n = dis.n_cells
    best = 0.0
    j_max = int(np.ceil(A * n - 1e-12))
    for j in range(1, j_max + 1):
        r = j / n
        total = sum(oscillation_direct(dis, i, r) for i in range(n))
        best = max(best, (total / n) * r ** (-p))
    return best


def pair_w1_loop(table, pairs) -> np.ndarray:
    """w1_norm(table[u] - table[v]) for each pair (u, v), one FiberMeasure
    difference at a time: the reference for the batched pair norms."""
    return np.array([float(w1_norm(table[u] - table[v])) for u, v in pairs],
                    dtype=float)


def indicator_member(fam, cell: int, n_cells: int) -> bool:
    """Whether cell [c/N, (c+1)/N) lies inside fam's indicator set, by
    Fraction comparisons against each interval in order; a ValueError when
    the first interval the cell meets has an endpoint inside it."""
    lo, hi = Fraction(cell, n_cells), Fraction(cell + 1, n_cells)
    for a, b in fam.indicator:
        if a <= lo and hi <= b:
            return True
        if lo < b and a < hi:
            raise ValueError(
                f"indicator endpoint falls inside cell {cell}/{n_cells}; "
                f"use a grid aligned with the indicator")
    return False


def transfer_step_by_glue(sys, dis: Disintegration, eps_f=None):
    """transfer_step with every piece of its bookkeeping made afresh: the
    grid check, the piece table, the indicator flags cell by cell, the
    used keys and their ranks, the terms matrix and its row sums."""
    n = dis.n_cells
    sys.base.check_grid(n)
    if eps_f is None:
        eps_f = 1.0 / (4 * n)
    t = dynamics._pieces(sys.base, n)
    flags = np.array([indicator_member(sys.fiber, c, n) for c in range(n)],
                     dtype=np.int64)
    key = dis.ids[t.src] * 2 + flags[t.src]
    seen = np.zeros(2 * len(dis.table), dtype=bool)
    seen[key] = True
    used = np.flatnonzero(seen)
    key = (seen.cumsum() - 1)[key]
    pushed = sys.fiber.push_many([(dis.table[k >> 1], k & 1)
                                  for k in used.tolist()])
    terms = np.full((n, t.width), -1, dtype=np.int64)
    terms[t.out, t.slot] = key * len(t.fracs) + t.code
    return measures._sum_rows(pushed,
                              *measures._row_groups(terms, len(t.fracs)),
                              t.fracs, eps_f)


def lebesgue(n_cells: int, fiber_atoms: int,
             exact: bool = False) -> Disintegration:
    """Discretized Lebesgue on n_cells cells: uniform_fiber(fiber_atoms)
    scaled by 1/N on every cell, exact or as its float form."""
    dis = measures.product_disintegration(
        n_cells, measures.uniform_fiber(fiber_atoms))
    return dis if exact else dis.to_float()


def transfer_density(base, values: np.ndarray) -> np.ndarray:
    """One step of the base map's induced 1D transfer on piecewise-constant
    densities, the marginal that transfer_step must reproduce."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    base.check_grid(n)
    t = dynamics._pieces(base, n)
    weights = values[t.src] * np.array(t.fracs, dtype=float)[t.code]
    return np.bincount(t.out, weights=weights, minlength=n)


# -- plain forms of the kernels with fast paths -------------------------


def canonical_by_sort(pos: np.ndarray, w: np.ndarray, q: int | None = None,
                      r: int | None = None):
    """(positions, weights, q, r) of the canonical fiber: positions reduced
    mod 1 (or mod q, exact), a stable argsort, coincident atoms merged by
    np.add.reduceat, weights below 1e-15 (or exact zeros) dropped and
    exact denominators reduced."""
    exact = q is not None
    if len(pos):
        if exact:
            pos = pos % q
        else:
            pos = pos - np.floor(pos)
            pos[pos >= 1.0] = 0.0
        if len(pos) > 1:
            order = np.argsort(pos, kind="stable")
            pos, w = pos[order], w[order]
            fresh = pos[1:] != pos[:-1]
            if not fresh.all():
                starts = np.flatnonzero(np.concatenate(([True], fresh)))
                pos, w = pos[starts], np.add.reduceat(w, starts)
    keep = w != 0 if exact else np.abs(w) >= 1e-15
    pos, w = pos[keep], w[keep]
    if exact:
        g = math.gcd(q, *pos.tolist())
        pos, q = (pos // g, q // g) if g > 1 else (pos, q)
        g = math.gcd(r, *w.tolist())
        w, r = (w // g, r // g) if g > 1 else (w, r)
        return pos, w, q, r
    return pos, w, 1, 1


def hermite_by_search(t: np.ndarray) -> np.ndarray:
    """The bump's cubic Hermite interpolant, its segment found by
    searchsorted and clipped to 0..3."""
    knots, values, derivs = dynamics._KNOTS, dynamics._VALUES, dynamics._DERIVS
    seg = np.minimum(np.maximum(
        np.searchsorted(knots, t, side="right") - 1, 0), 3)
    k0, k1 = knots.take(seg), knots.take(seg + 1)
    h = k1 - k0
    s = (t - k0) / h
    s2, a, b = 2 * s, (1 - s) ** 2, s ** 2
    h00 = (1 + s2) * a
    h10 = s * a
    h01 = b * (3 - s2)
    h11 = b * (s - 1)
    return (h00 * values.take(seg) + h10 * h * derivs.take(seg)
            + h01 * values.take(seg + 1) + h11 * h * derivs.take(seg + 1))


def signed_mass_by_rows(fm: FiberMeasure):
    """The W1 balance test by its definition on the row of the fiber's
    weights: the mass, or 0 when |mass| <= 1e-12 |weights|_1, both sides
    summed by math.fsum."""
    if fm.exact:
        return sum(fm.weights.tolist())
    m = math.fsum(fm.weights.tolist())
    return 0.0 if abs(m) <= 1e-12 * math.fsum(np.abs(fm.weights).tolist()) \
        else m


def combine_by_sort(parts) -> FiberMeasure:
    """Float sum of s * fm over the (fm, s) pairs: each scaled part drops
    weights below 1e-15, then the parts merge one after another, two on
    equal positions elementwise and others through canonical_by_sort of
    their concatenation."""
    out = None
    for fm, s in parts:
        a = fm.to_float()
        pos, w = a.positions, a.weights * float(s)
        keep = np.abs(w) >= 1e-15
        pos, w = pos[keep], w[keep]
        if out is None:
            out = pos, w
        elif np.array_equal(out[0], pos):
            w = out[1] + w
            keep = np.abs(w) >= 1e-15
            out = pos[keep], w[keep]
        else:
            out = canonical_by_sort(np.concatenate((out[0], pos)),
                                    np.concatenate((out[1], w)))[:2]
    return out


def flat_balanced_by_sort(fm: FiberMeasure) -> float:
    """The flat norm of a balanced float fiber, sum g_i |Q_i - c| with c
    the lower weighted median of the prefix sums Q by a stable argsort."""
    prefix = np.cumsum(fm.weights)
    gaps = np.diff(fm.positions, append=fm.positions[0] + 1)
    order = np.argsort(prefix, kind="stable")
    cum = np.cumsum(gaps[order])
    c = prefix[order[np.argmax(2 * cum >= cum[-1])]]
    return float(np.dot(gaps, np.abs(prefix - c)))


def invariant_by_plain_loop(sys, tol: float = 1e-6, n_max: int = 200,
                            eps_f=None, n_cells: int = 1024,
                            fiber_atoms: int = 256, on_step=None):
    """invariant_measure with the exact residual l1_norm(L mu - mu) at
    every step and no screen; on_step(L mu, residual) sees each step."""
    sys.require_domination()
    mu = lebesgue(n_cells, fiber_atoms)
    residual = math.inf
    steps = 0
    while steps < n_max:
        nxt = dynamics.transfer_step(sys, mu, eps_f=eps_f)
        residual = float(measures.l1_norm(nxt - mu))
        if on_step is not None:
            on_step(nxt, residual)
        steps += 1
        if residual < tol or steps == n_max:
            break
        mu = nxt
    drift = float(mu.mass()) - 1.0
    if abs(drift) > 1e-9:
        mu = mu.scale(1.0 / (1.0 + drift))
    return dynamics.InvariantResult(mu, residual < tol, steps, residual,
                                    drift)
