"""Seeded generators of test measures.

Every generator is a pure function of its seed, so batteries are
reproducible across runs.  Disintegrations are
built from a small pool of distinct fibers laid out in runs: norm
evaluation cost then scales with the pool size, not the cell count.
"""

from __future__ import annotations

import numpy as np

from .measures import (
    Disintegration,
    FiberMeasure,
    pbv_norm,
    product_disintegration,
)

__all__ = [
    "signed_fiber_measures",
    "disintegration_battery",
    "unit_pbv_battery",
]


def _random_fiber(rng: np.random.Generator, max_atoms: int, positive: bool,
                  grid: int | None = None) -> FiberMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    pos = rng.random(n)
    if grid is not None:
        pos = np.round(pos * grid) / grid
    w = rng.uniform(-1.0, 1.0, n)
    if positive:
        w = np.abs(w) + 1e-3
    return FiberMeasure(pos, w)


def signed_fiber_measures(seed: int, count: int, max_atoms: int = 6,
                          grid: int | None = None) -> list[FiberMeasure]:
    """Signed atom measures mixing the dispatch regimes of w1_norm:
    general signed, single-signed, and exactly balanced."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        fm = _random_fiber(rng, max_atoms, positive=False, grid=grid)
        style = int(rng.integers(0, 4))
        atoms = fm.atoms()
        if style == 2:
            fm = FiberMeasure([a for a, _ in atoms],
                              [abs(w) for _, w in atoms])
        elif style == 3 and len(atoms) >= 2:
            w = [wt for _, wt in atoms]
            w[-1] = -sum(w[:-1])
            fm = FiberMeasure([a for a, _ in atoms], w)
        out.append(fm)
    return out


def _run_ids(rng: np.random.Generator, n_cells: int, n_distinct: int) -> np.ndarray:
    n_runs = int(rng.integers(n_distinct, 2 * n_distinct + 1))
    cuts = np.sort(rng.choice(np.arange(1, n_cells), size=min(n_cells - 1, n_runs - 1),
                              replace=False))
    edges = np.concatenate([[0], cuts, [n_cells]])
    ids = np.empty(n_cells, dtype=int)
    for k in range(len(edges) - 1):
        ids[edges[k]:edges[k + 1]] = rng.integers(0, n_distinct)
    return ids


def _run_disintegration(rng: np.random.Generator, n_cells: int, *,
                        n_distinct: int, max_atoms: int,
                        positive: bool) -> Disintegration:
    pool = [_random_fiber(rng, max_atoms, positive)
            for _ in range(n_distinct)]
    scaled = [f.scale(1.0 / n_cells) for f in pool]
    ids = _run_ids(rng, n_cells, n_distinct)
    return Disintegration(ids, scaled)


def disintegration_battery(seed: int, count: int, n_cells: int,
                           positive: bool, n_distinct: int = 6,
                           max_atoms: int = 4) -> list[Disintegration]:
    """count run-structured disintegrations, with positive weights or
    signed ones."""
    rng = np.random.default_rng(seed)
    return [_run_disintegration(rng, n_cells, n_distinct=n_distinct,
                                max_atoms=max_atoms, positive=positive)
            for _ in range(count)]


def unit_pbv_battery(seed: int, size: int,
                     n_cells: int) -> list[Disintegration]:
    """Measures normalized to pbv_norm 1 (p = 1, A = 1/2), led by
    m x delta_y members (already unit) and padded with normalized
    run-structured measures."""
    rng = np.random.default_rng(seed)
    out: list[Disintegration] = []
    n_point = min(size, 3)
    for _ in range(n_point):
        y = float(rng.random())
        out.append(product_disintegration(
            n_cells, FiberMeasure([y], [1.0])))
    while len(out) < size:
        positive = bool(rng.integers(0, 2))
        dis = _run_disintegration(rng, n_cells, n_distinct=4, max_atoms=3,
                                  positive=positive)
        norm = pbv_norm(dis).pbv
        if norm <= 1e-12:
            continue
        out.append(dis.scale(1.0 / norm))
    return out
