"""Signed measures on [0,1] x T^d disintegrated along a uniform base grid.

A FiberMeasure is a finite signed atomic measure on the d-torus.  A
Disintegration packs the fiber restrictions to the base cells
[i/N,(i+1)/N) as an id per cell plus a table of content-distinct fibers
numbered by first appearance; algebra, coarsening and the norms work on
the table and the id array, so their cost scales with the number of
distinct fibers rather than N.

The W1 norm here is the dual Lipschitz norm with the extra sup bound
(|g| <= 1, Lip(g) <= 1), evaluated by linear programming with exact
rational arithmetic on small programs, plus two closed-form fast paths:
single-signed measures (norm = |total mass|) and balanced measures on the
circle (cdf median formula; the cap constraint never binds there because
transporting over distance <= 1/2 always beats creating mass at cost 1).

var_p reads window oscillations off one interval-max table over the runs
of equal ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .simplex import solve_simplex

__all__ = [
    "FiberMeasure",
    "Disintegration",
    "NormReport",
    "MarginalDensity",
    "w1_norm",
    "l1_norm",
    "oscillation",
    "var_p",
    "pbv_norm",
    "marginal_density",
    "pushforward_fiber",
    "coarsen",
    "coarsen_disintegration",
    "piecewise_constant_approx",
    "uniform_fiber",
    "rotation_orbit_fiber",
    "lebesgue_disintegration",
    "product_disintegration",
]

_DROP_TOL = 1e-15
# exact rational LP is used up to this atom count (oracle-grade path)
_EXACT_LP_MAX_ATOMS = 8
# own dense float simplex up to here, scipy linprog beyond
_DENSE_LP_MAX_ATOMS = 96
_BALANCE_RTOL = 1e-12


def _is_exact_scalar(v) -> bool:
    return isinstance(v, (Fraction, int)) and not isinstance(v, bool)


def _mod1(v):
    if isinstance(v, Fraction):
        return v % 1
    return v - math.floor(v)


class FiberMeasure:
    """Finite signed atomic measure on T^d with a float or exact backend.

    Atoms are canonicalized at construction: positions reduced mod 1,
    coincident atoms merged, and (float backend) weights below 1e-15
    dropped; the exact backend only drops exact zeros so that total mass
    stays an identity.  Atoms are kept sorted by position, which makes the
    byte-level content key deterministic.
    """

    __slots__ = ("dimension", "exact", "positions", "weights", "_key")

    def __init__(self, positions, weights, dimension: int | None = None,
                 exact: bool | None = None):
        if (exact is False and isinstance(positions, np.ndarray)
                and isinstance(weights, np.ndarray)):
            arr = np.asarray(positions, dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            self.dimension = int(dimension) if dimension else \
                (arr.shape[1] if arr.size else 1)
            self.exact = False
            self._init_float(arr, np.asarray(weights, dtype=float))
            self._key = None
            return
        pos_list = []
        w_list = []
        for p, w in zip(positions, weights):
            if isinstance(p, (tuple, list, np.ndarray)):
                pos_list.append(tuple(p))
            else:
                pos_list.append((p,))
            w_list.append(w)
        if dimension is None:
            dimension = len(pos_list[0]) if pos_list else 1
        if exact is None:
            # exact iff there are atoms and every position coordinate is
            # exact; float weights are then converted exactly
            exact = bool(pos_list) and all(
                _is_exact_scalar(c) for p in pos_list for c in p)
        self.dimension = int(dimension)
        self.exact = bool(exact)
        if self.exact:
            merged: dict[tuple, Fraction] = {}
            for p, w in zip(pos_list, w_list):
                key = tuple(_mod1(Fraction(c)) for c in p)
                merged[key] = merged.get(key, Fraction(0)) + Fraction(w)
            items = sorted((k, v) for k, v in merged.items() if v != 0)
            self.positions = tuple(k for k, _ in items)
            self.weights = tuple(v for _, v in items)
        else:
            arr = np.asarray(pos_list, dtype=float).reshape(
                len(pos_list), self.dimension)
            self._init_float(arr, np.asarray(w_list, dtype=float))
        self._key = None

    def _init_float(self, arr: np.ndarray, w: np.ndarray) -> None:
        if len(w) == 0:
            self.positions = np.empty((0, self.dimension), dtype=float)
            self.weights = np.empty(0, dtype=float)
            return
        arr = arr - np.floor(arr)
        arr[arr >= 1.0] = 0.0
        order = np.lexsort(arr.T[::-1])
        arr = arr[order]
        w = w[order]
        if len(w) > 1:
            fresh = np.any(arr[1:] != arr[:-1], axis=1)
            starts = np.flatnonzero(np.concatenate(([True], fresh)))
            w = np.add.reduceat(w, starts)
            arr = arr[starts]
        keep = np.abs(w) >= _DROP_TOL
        if not keep.all():
            arr, w = arr[keep], w[keep]
        self.positions = arr
        self.weights = w

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def mass(self):
        if self.exact:
            return sum(self.weights, Fraction(0))
        return float(math.fsum(self.weights))

    def abs_mass(self):
        if self.exact:
            return sum((abs(w) for w in self.weights), Fraction(0))
        return float(math.fsum(abs(w) for w in self.weights))

    def content_key(self):
        if self._key is None:
            if self.exact:
                self._key = (self.dimension, True, self.positions, self.weights)
            else:
                self._key = (self.dimension, False, self.positions.tobytes(),
                             self.weights.tobytes())
        return self._key

    def atoms(self) -> list[tuple[tuple, object]]:
        return [(tuple(p), w) for p, w in zip(self.positions, self.weights)]

    # -- conversions -----------------------------------------------------

    def to_float(self) -> "FiberMeasure":
        if not self.exact:
            return self
        return FiberMeasure([tuple(float(c) for c in p) for p in self.positions],
                            [float(w) for w in self.weights],
                            dimension=self.dimension, exact=False)

    # -- algebra ----------------------------------------------------------

    def scale(self, s) -> "FiberMeasure":
        if self.exact and _is_exact_scalar(s):
            return FiberMeasure(self.positions, [Fraction(s) * w for w in self.weights],
                                dimension=self.dimension, exact=True)
        a = self.to_float()
        return FiberMeasure(a.positions, a.weights * float(s),
                            dimension=self.dimension, exact=False)

    def __add__(self, other: "FiberMeasure") -> "FiberMeasure":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        if self.exact and other.exact:
            return FiberMeasure(self.positions + other.positions,
                                self.weights + other.weights,
                                dimension=self.dimension, exact=True)
        a, b = self.to_float(), other.to_float()
        return FiberMeasure(np.concatenate([a.positions, b.positions]),
                            np.concatenate([a.weights, b.weights]),
                            dimension=self.dimension, exact=False)

    def __sub__(self, other: "FiberMeasure") -> "FiberMeasure":
        return self + other.scale(-1)

    def __neg__(self) -> "FiberMeasure":
        return self.scale(-1)

    def translate(self, shift) -> "FiberMeasure":
        """Pushforward by y -> y + shift on T^d."""
        if isinstance(shift, (tuple, list)):
            vec = tuple(shift)
        else:
            vec = (shift,) * self.dimension
        if self.exact and all(_is_exact_scalar(c) for c in vec):
            new_pos = [tuple(_mod1(c + Fraction(s)) for c, s in zip(p, vec))
                       for p in self.positions]
            return FiberMeasure(new_pos, self.weights, dimension=self.dimension,
                                exact=True)
        a = self.to_float()
        arr = a.positions + np.asarray([float(s) for s in vec])
        return FiberMeasure(arr, a.weights, dimension=self.dimension, exact=False)

    def apply_map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "FiberMeasure":
        """Pushforward by a vectorized float map on positions (d = 1)."""
        a = self.to_float()
        if len(a) == 0:
            return a
        new = fn(a.positions[:, 0]) if self.dimension == 1 else fn(a.positions)
        new = np.asarray(new, dtype=float).reshape(len(a), -1)
        return FiberMeasure(new, a.weights, dimension=self.dimension, exact=False)


# --------------------------------------------------------------------------
# W1 norm
# --------------------------------------------------------------------------


def _circle_dist(a, b):
    d = abs(a - b)
    if isinstance(d, Fraction):
        return min(d, 1 - d)
    return min(d, 1.0 - d)


def _torus_dist(p, q, exact: bool):
    if len(p) == 1:
        return _circle_dist(p[0], q[0])
    acc = 0.0
    for a, b in zip(p, q):
        c = float(_circle_dist(a, b))
        acc += c * c
    return math.sqrt(acc)


def _w1_balanced_circle(fm: FiberMeasure):
    """min_c integral |F(t) - c| dt on the circle: exact transport value
    of a balanced measure, equal to the capped dual norm (cap never binds)."""
    if fm.exact:
        pos = [p[0] for p in fm.positions]
        w = list(fm.weights)
        n = len(w)
        prefix = []
        acc = Fraction(0)
        for wi in w:
            acc += wi
            prefix.append(acc)
        gaps = [pos[i + 1] - pos[i] for i in range(n - 1)]
        gaps.append(pos[0] + 1 - pos[n - 1])
        pairs = sorted(zip(prefix, gaps))
        total = sum(gaps, Fraction(0))
        half = total / 2
        acc = Fraction(0)
        c = pairs[-1][0]
        for f, g in pairs:
            acc += g
            if acc >= half:
                c = f
                break
        return sum((g * abs(f - c) for f, g in zip(prefix, gaps)), Fraction(0))
    pos = fm.positions[:, 0]
    w = fm.weights
    n = len(w)
    prefix = np.cumsum(w)
    gaps = np.empty(n)
    gaps[:-1] = np.diff(pos)
    gaps[-1] = pos[0] + 1.0 - pos[-1]
    order = np.argsort(prefix, kind="stable")
    cum = np.cumsum(gaps[order])
    half = cum[-1] / 2.0
    idx = int(np.searchsorted(cum, half, side="left"))
    c = prefix[order[min(idx, n - 1)]]
    return float(np.dot(gaps, np.abs(prefix - c)))


def _w1_lp(fm: FiberMeasure, adjacent: bool, force_solver: str | None = None):
    """Capped-Lipschitz dual LP.  adjacent=True uses only cyclically
    consecutive constraints (valid on the circle: chaining along either arc
    reproduces every pairwise constraint)."""
    n = len(fm)
    exact_ok = fm.exact and fm.dimension == 1 and n <= _EXACT_LP_MAX_ATOMS
    solver = force_solver
    if solver is None:
        if exact_ok:
            solver = "exact"
        elif n <= _DENSE_LP_MAX_ATOMS:
            solver = "dense"
        else:
            solver = "scipy"

    if fm.dimension == 1 and adjacent:
        pos = [p[0] for p in fm.positions]
        pairs = []
        for i in range(n - 1):
            pairs.append((i, i + 1, _circle_dist(pos[i], pos[i + 1])))
        if n > 2:
            pairs.append((n - 1, 0, _circle_dist(pos[n - 1], pos[0])))
    else:
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                pairs.append((i, j, _torus_dist(fm.positions[i], fm.positions[j],
                                                fm.exact)))

    if solver == "scipy":
        from scipy import sparse
        from scipy.optimize import linprog

        w = np.asarray([float(x) for x in fm.weights])
        rows, cols, data, rhs = [], [], [], []
        r = 0
        for i, j, d in pairs:
            rows += [r, r, r + 1, r + 1]
            cols += [i, j, i, j]
            data += [1.0, -1.0, -1.0, 1.0]
            rhs += [float(d), float(d)]
            r += 2
        A = sparse.coo_matrix((data, (rows, cols)), shape=(r, n))
        res = linprog(-w, A_ub=A.tocsc(), b_ub=np.asarray(rhs), bounds=(-1.0, 1.0),
                      method="highs")
        if not res.success:
            raise RuntimeError(f"linprog failed: {res.message}")
        return float(-res.fun)

    exact = solver == "exact"
    if exact:
        w = [Fraction(x) for x in fm.weights]
        two = Fraction(2)
    else:
        w = [float(x) for x in fm.weights]
        two = 2.0
    # substitute h = g + 1 in [0, 2] so the slack basis is feasible
    A = []
    b = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        A.append(row)
        b.append(two)
    for i, j, d in pairs:
        dd = d if exact else float(d)
        row = [0] * n
        row[i] = 1
        row[j] = -1
        A.append(row)
        b.append(dd)
        A.append([-v for v in row])
        b.append(dd)
    val, x = solve_simplex(w, A, b, exact=exact)
    total = sum(w) if exact else math.fsum(w)
    out = val - total
    return out if exact else float(out)


def w1_norm(fm: FiberMeasure, *, method: str = "auto"):
    """Dual norm sup { integral g d(fm) : |g| <= 1, Lip(g) <= 1 } on T^d.

    method: "auto" picks closed forms where valid, "lp" forces the linear
    program (adjacent constraints for d = 1), "lp_full" forces the full
    pairwise program.  Returns a Fraction on fully exact fast paths.
    Near-balanced float measures (|mass| <= 1e-12 * |weights|_1) reuse the
    balanced closed form; the error of that shortcut is <= 2|mass|.
    """
    n = len(fm)
    if n == 0:
        return Fraction(0) if fm.exact else 0.0
    if method == "lp":
        return _w1_lp(fm, adjacent=True)
    if method == "lp_full":
        return _w1_lp(fm, adjacent=False)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if fm.exact:
        signs_pos = all(w >= 0 for w in fm.weights)
        signs_neg = all(w <= 0 for w in fm.weights)
    else:
        signs_pos = bool(np.all(fm.weights >= 0))
        signs_neg = bool(np.all(fm.weights <= 0))
    if signs_pos or signs_neg:
        return abs(fm.mass())
    if fm.dimension == 1:
        m = fm.mass()
        if m == 0:
            return _w1_balanced_circle(fm)
        if not fm.exact and abs(m) <= _BALANCE_RTOL * fm.abs_mass():
            return _w1_balanced_circle(fm)
        return _w1_lp(fm, adjacent=True)
    return _w1_lp(fm, adjacent=False)


# --------------------------------------------------------------------------
# Disintegration
# --------------------------------------------------------------------------


class Disintegration:
    """Grid disintegration packed as an id per cell plus a table of
    distinct fibers: table[ids[i]] is the restriction to cell i x T^d, so
    its mass() is the measure of that slab and the marginal density reads
    N * mass on each cell.

    The table holds no two content-equal fibers and is numbered in order
    of first appearance by cell, so equal ids mean equal fibers and runs
    of equal ids are runs of equal fibers.  Operations map over the table
    and pair id arrays instead of looping over cells.
    """

    __slots__ = ("n_cells", "dimension", "ids", "table")

    def __init__(self, fibers: Sequence[FiberMeasure], n_cells: int | None = None):
        fibers = list(fibers)
        if n_cells is None:
            n_cells = len(fibers)
        if len(fibers) != n_cells:
            raise ValueError("fiber count must equal n_cells")
        self._pack(np.arange(n_cells, dtype=np.int64), fibers)

    @classmethod
    def from_ids(cls, ids, table: Sequence[FiberMeasure]) -> "Disintegration":
        """Disintegration with fiber table[ids[i]] on cell i; the table is
        canonicalized (unreferenced entries dropped, equal ones merged)."""
        out = cls.__new__(cls)
        out._pack(np.array(ids, dtype=np.int64).reshape(-1), table)
        return out

    def _pack(self, ids: np.ndarray, table: Sequence[FiberMeasure]) -> None:
        if len(ids) == 0 or not table:
            raise ValueError("empty disintegration")
        if ids.min() < 0 or ids.max() >= len(table):
            raise ValueError("fiber id out of range")
        self.dimension = table[0].dimension
        if any(f.dimension != self.dimension for f in table):
            raise ValueError("fiber dimension mismatch")
        self.n_cells = len(ids)
        self.ids, self.table = _canonical(ids, table)
        self.ids.flags.writeable = False

    @property
    def fibers(self) -> tuple[FiberMeasure, ...]:
        """Per-cell view: fibers[i] = table[ids[i]]."""
        return tuple(self.table[i] for i in self.ids.tolist())

    @property
    def exact(self) -> bool:
        return all(f.exact for f in self.table)

    def is_uniform(self) -> bool:
        """True when every fiber has identical content (x-constant measure)."""
        return len(self.table) == 1

    def _cell_sum(self, per_fiber):
        # exactly rounded sum over cells, as if summed cell by cell
        if self.exact:
            counts = np.bincount(self.ids, minlength=len(self.table))
            return sum((v * int(c) for v, c in zip(per_fiber, counts)),
                       Fraction(0))
        vals = np.array([float(v) for v in per_fiber])
        return float(math.fsum(vals[self.ids]))

    def mass(self):
        return self._cell_sum([f.mass() for f in self.table])

    def total_weight_abs(self):
        return self._cell_sum([f.abs_mass() for f in self.table])

    def fiber_ids(self) -> tuple[np.ndarray, tuple[FiberMeasure, ...]]:
        """(id per cell, distinct fibers), numbered by first appearance."""
        return self.ids, self.table

    def scale(self, s) -> "Disintegration":
        return Disintegration.from_ids(self.ids, [f.scale(s) for f in self.table])

    def _zip_op(self, other: "Disintegration", op) -> "Disintegration":
        self._check_compatible(other)
        pairs, inv = np.unique(np.stack([self.ids, other.ids], axis=1),
                               axis=0, return_inverse=True)
        return Disintegration.from_ids(
            inv, [op(self.table[a], other.table[b]) for a, b in pairs.tolist()])

    def __add__(self, other: "Disintegration") -> "Disintegration":
        return self._zip_op(other, lambda a, b: a + b)

    def __sub__(self, other: "Disintegration") -> "Disintegration":
        return self._zip_op(other, lambda a, b: a - b)

    def _check_compatible(self, other: "Disintegration") -> None:
        if self.n_cells != other.n_cells or self.dimension != other.dimension:
            raise ValueError("incompatible disintegrations")

    def to_float(self) -> "Disintegration":
        return Disintegration.from_ids(self.ids, [f.to_float() for f in self.table])


def _canonical(ids: np.ndarray, table: Sequence[FiberMeasure]
               ) -> tuple[np.ndarray, tuple[FiberMeasure, ...]]:
    """Drop unreferenced table entries, merge content-equal ones and
    renumber by first appearance; hashes each referenced entry once, and
    nothing when the table has a single entry."""
    if len(table) == 1:
        return ids, (table[0],)
    used, first, inv = np.unique(ids, return_index=True, return_inverse=True)
    slot: dict = {}
    out: list[FiberMeasure] = []
    remap = np.empty(len(used), dtype=np.int64)
    for u in np.argsort(first).tolist():
        f = table[used[u]]
        j = slot.setdefault(f.content_key(), len(out))
        if j == len(out):
            out.append(f)
        remap[u] = j
    return remap[inv.reshape(-1)], tuple(out)


# -- constructors -----------------------------------------------------------


def uniform_fiber(n_atoms: int, exact: bool = False, weight_total=1) -> FiberMeasure:
    """Uniform probability-like measure: n atoms at j/n, total weight as given."""
    if exact:
        w = Fraction(weight_total) / n_atoms
        return FiberMeasure([Fraction(j, n_atoms) for j in range(n_atoms)],
                            [w] * n_atoms, dimension=1, exact=True)
    w = float(weight_total) / n_atoms
    return FiberMeasure(np.arange(n_atoms) / n_atoms, np.full(n_atoms, w),
                        dimension=1, exact=False)


def rotation_orbit_fiber(p: int, q: int, exact: bool = True,
                         offset=0) -> FiberMeasure:
    """Orbit measure of the rotation by p/q started at `offset`: q atoms of
    weight 1/q at offset + j p/q mod 1."""
    if math.gcd(p, q) != 1:
        raise ValueError("p/q must be reduced")
    if exact:
        off = Fraction(offset)
        pos = [_mod1(off + Fraction(j * p, q)) for j in range(q)]
        return FiberMeasure(pos, [Fraction(1, q)] * q, dimension=1, exact=True)
    pos = (float(offset) + np.arange(q) * (p / q)) % 1.0
    return FiberMeasure(pos, np.full(q, 1.0 / q), dimension=1, exact=False)


def lebesgue_disintegration(n_cells: int, fiber_atoms: int,
                            exact: bool = False) -> Disintegration:
    """Discretized Lebesgue probability on [0,1] x T^1: every cell carries a
    uniform fiber grid with total weight 1/N."""
    if exact:
        f = uniform_fiber(fiber_atoms, exact=True, weight_total=Fraction(1, n_cells))
    else:
        f = uniform_fiber(fiber_atoms, exact=False, weight_total=1.0 / n_cells)
    return Disintegration.from_ids(np.zeros(n_cells), [f])


def product_disintegration(n_cells: int, fiber: FiberMeasure) -> Disintegration:
    """m (x) fiber: each cell carries fiber scaled by 1/N."""
    if fiber.exact:
        f = fiber.scale(Fraction(1, n_cells))
    else:
        f = fiber.scale(1.0 / n_cells)
    return Disintegration.from_ids(np.zeros(n_cells), [f])


# --------------------------------------------------------------------------
# norms on disintegrations
# --------------------------------------------------------------------------


def l1_norm(dis: Disintegration):
    """Sum of fiberwise W1 norms: the grid reading of the disintegrated
    L1 norm (the per-length fiber is N * fibers[i] on a cell of length 1/N,
    so the factors cancel)."""
    vals = [w1_norm(f) for f in dis.table]
    counts = np.bincount(dis.ids, minlength=len(dis.table))
    if all(isinstance(v, Fraction) for v in vals):
        return sum((v * int(c) for v, c in zip(vals, counts)), Fraction(0))
    return float(math.fsum(float(v) * int(c) for v, c in zip(vals, counts)))


def _interval_max(ids: np.ndarray, table, n: int, span: int):
    """Interval-max table over the runs of equal ids.

    Returns (M, run), run[i] being the run of cell i and M[a, b] the
    largest per-length W1 distance between the fibers of runs a..b,
    filled by M[a, b] = max(M[a+1, b], M[a, b-1], d(a, b)).  Distances
    are evaluated once per fiber pair, and only for pairs of runs at most
    `span` cells apart; M is exact for every interval no wider than that.
    """
    change = ids[1:] != ids[:-1]
    run = np.concatenate(([0], np.cumsum(change)))
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    ends = np.append(starts[1:] - 1, len(ids) - 1)
    rfid = ids[starts]
    a, b = np.nonzero(np.triu(starts[None, :] - ends[:, None] <= span, 1))
    lo, hi = np.minimum(rfid[a], rfid[b]), np.maximum(rfid[a], rfid[b])
    fid_pairs = np.unique(np.stack([lo, hi], axis=1)[lo != hi], axis=0)
    dist = np.zeros((len(table), len(table)))
    for u, v in fid_pairs.tolist():
        dist[u, v] = dist[v, u] = float(w1_norm(table[u] - table[v])) * n
    m = dist[rfid[:, None], rfid[None, :]]
    for k in range(1, len(rfid)):
        i = np.arange(len(rfid) - k)
        m[i, i + k] = np.maximum(m[i, i + k],
                                 np.maximum(m[i + 1, i + k], m[i, i + k - 1]))
    return m, run


def _radius_cells(dis: Disintegration, r) -> int:
    scaled = float(r) * dis.n_cells
    if scaled < 1 - 1e-9:
        raise ValueError("radius unresolvable")
    j = int(round(scaled))
    if abs(scaled - j) > 1e-9:
        raise ValueError("radius must be a multiple of 1/n_cells")
    return j


def oscillation(dis: Disintegration, i: int, r) -> float:
    """Max W1 distance between per-length fibers over pairs of cells whose
    centers lie within r of cell i's center (the grid essential sup)."""
    if not 0 <= i < dis.n_cells:
        raise ValueError("cell index out of range")
    j = _radius_cells(dis, r)
    lo = max(0, i - j)
    hi = min(dis.n_cells - 1, i + j)
    m, _ = _interval_max(dis.ids[lo:hi + 1], dis.table, dis.n_cells, hi - lo)
    return float(m[0, -1])


def var_p(dis: Disintegration, p: float = 1.0, A: float = 0.5) -> float:
    """sup over grid radii r = j/N <= ~A of (1/N) sum_i r^-p osc(i, r).

    The window of cell i covers a contiguous range of runs of equal ids,
    so osc(i, r) is one lookup in the interval-max table of those runs;
    W1 is evaluated once per pair of distinct fibers that share a window,
    and cost scales with the number of distinct fibers and runs, not N.
    """
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if not 0 < A <= 0.5:
        raise ValueError("A must lie in (0, 1/2]")
    n = dis.n_cells
    if len(dis.table) == 1:
        return 0.0
    jmax = max(1, math.ceil(A * n - 1e-12))
    m, run = _interval_max(dis.ids, dis.table, n, 2 * jmax)
    cells = np.arange(n)
    best = 0.0
    for j in range(1, jmax + 1):
        lo = run[np.maximum(cells - j, 0)]
        hi = run[np.minimum(cells + j, n - 1)]
        # windows covering the same runs form segments; summing osc * length
        # segment by segment, left to right, fixes the rounding
        seg = np.flatnonzero(np.concatenate(
            ([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]))))
        length = np.diff(np.append(seg, n))
        total = float(np.cumsum(m[lo[seg], hi[seg]] * length)[-1])
        r = j / n
        val = (total / n) * r ** (-p)
        if val > best:
            best = val
    return best


@dataclass(frozen=True)
class NormReport:
    """l1 + var_p decomposition of the p-bounded-variation norm."""
    l1: float
    var_p: float
    pbv: float
    p: float
    A: float


def pbv_norm(dis: Disintegration, p: float = 1.0, A: float = 0.5) -> NormReport:
    l1 = float(l1_norm(dis))
    vp = var_p(dis, p=p, A=A)
    return NormReport(l1=l1, var_p=vp, pbv=l1 + vp, p=p, A=A)


@dataclass(frozen=True)
class MarginalDensity:
    """Piecewise-constant base marginal: values[i] = N * fibers[i].mass()."""
    values: np.ndarray
    sup_norm: float
    bv_jump_sum: float

    @property
    def integral(self) -> float:
        return float(np.mean(self.values))


def marginal_density(dis: Disintegration) -> MarginalDensity:
    vals = np.array([float(f.mass()) for f in dis.table])[dis.ids] * dis.n_cells
    sup = float(np.max(np.abs(vals))) if len(vals) else 0.0
    bv = float(np.sum(np.abs(np.diff(vals))))
    return MarginalDensity(values=vals, sup_norm=sup, bv_jump_sum=bv)


# --------------------------------------------------------------------------
# coarsening and block averaging
# --------------------------------------------------------------------------


def pushforward_fiber(fm: FiberMeasure, f) -> FiberMeasure:
    """Pushforward of an atom measure by a circle map.

    f may expose .apply(FiberMeasure) (structured maps keep exactness
    where they can) or be a plain vectorized callable on positions."""
    if hasattr(f, "apply"):
        return f.apply(fm)
    return fm.apply_map(f)


def coarsen(fm: FiberMeasure, eps) -> FiberMeasure:
    """Snap atoms to the left edges of a uniform eps-grid and merge.

    Mass is preserved exactly; each atom moves by < eps, so any W1-type
    norm changes by at most eps * sum |w_i|.  eps = 0 disables snapping."""
    if eps == 0:
        return fm
    if fm.exact:
        e = Fraction(eps)
        if not 0 < e < 1:
            raise ValueError("eps must lie in (0, 1)")
        new_pos = [tuple((c / e).__floor__() * e for c in p) for p in fm.positions]
        return FiberMeasure(new_pos, fm.weights, dimension=fm.dimension, exact=True)
    e = float(eps)
    if not 0.0 < e < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if len(fm) == 0:
        return fm
    snapped = np.floor(fm.positions / e) * e
    return FiberMeasure(snapped, fm.weights, dimension=fm.dimension, exact=False)


def coarsen_disintegration(dis: Disintegration, eps) -> Disintegration:
    if eps == 0:
        return dis
    return Disintegration.from_ids(dis.ids, [coarsen(f, eps) for f in dis.table])


def piecewise_constant_approx(dis: Disintegration, eps) -> Disintegration:
    """Average fibers over each eps-block of base cells (eps = 1/m, m | N);
    the result is x-constant on blocks and unchanged on x-constant input."""
    m = int(round(1.0 / float(eps)))
    if abs(m * float(eps) - 1.0) > 1e-9:
        raise ValueError("eps must equal 1/m for an integer m")
    if dis.n_cells % m != 0:
        raise ValueError("block count must divide n_cells")
    s = dis.n_cells // m
    out: list[FiberMeasure] = []
    for block in dis.ids.reshape(m, s).tolist():
        acc = dis.table[block[0]]
        if any(i != block[0] for i in block):
            for i in block[1:]:
                acc = acc + dis.table[i]
            acc = acc.scale(Fraction(1, s) if acc.exact else 1.0 / s)
        out.append(acc)
    return Disintegration.from_ids(np.repeat(np.arange(m), s), out)
