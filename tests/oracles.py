"""Independent brute-force references used by the test suite.

These are deliberately dumb: a dense-grid linear program and an all-pairs
atom program for the capped Lipschitz dual norm, direct definitional
sums for oscillation and var_p, and the one-difference-at-a-time W1 loop
that var_p's batched pair norms replace.  They share no code paths with
the library shortcuts they check.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

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
