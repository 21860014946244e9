"""Signed measures on [0,1] x T disintegrated along a uniform base grid.

A FiberMeasure is a finite signed atomic measure on the circle T = R/Z,
stored as sorted 1-D position and weight arrays.  A Disintegration packs
the fiber restrictions to the base cells [i/N,(i+1)/N) as an id per cell
plus a table of content-distinct fibers numbered by first appearance, and
Disintegration(ids, table) is its public constructor; algebra, coarsening
and the norms work on the table and the id array, so their cost scales
with the number of distinct fibers rather than N.  Every sum of scaled
fibers goes through _combine, one pass over arrays per distinct row of
per-cell terms in _sum_rows; the pushes of one position array share
its image, put in canonical order once, and add elementwise.  The
uniform fiber is built exact, and discretized Lebesgue is its product
measure; their float form is the exact one rounded once.

The W1 norm here is the dual Lipschitz norm with the extra sup bound
(|g| <= 1, Lip(g) <= 1), the flat norm of the circle, in one closed form
on the numerator arrays (delete the excess mass, transport the rest).  A
float fiber counts as balanced when |mass| <= 1e-12 |weights|_1, both
sides being math.fsum values.

var_p reads the largest fiber distance in each window off one
interval-max table over the runs of equal ids.  Pair differences on a
shared grid are formed in blocks, and the single-signed ones are summed
by one long-double row-sum kernel with a certified error bound that
returns math.fsum's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .simplex import solve_simplex

__all__ = [
    "FiberMeasure",
    "Disintegration",
    "NormReport",
    "MarginalDensity",
    "w1_norm",
    "l1_norm",
    "var_p",
    "pbv_norm",
    "marginal_density",
    "coarsen",
    "uniform_fiber",
    "product_disintegration",
]

_DROP_TOL = 1e-15
_BALANCE_RTOL = 1e-12
_LD_UNIT = np.finfo(np.longdouble).eps / 2
_LD_TINY = np.finfo(np.longdouble).smallest_subnormal
# weights per block of pair differences in var_p, about 128 KiB of doubles
_BLOCK_ATOMS = 2 ** 14


def _is_exact_scalar(v) -> bool:
    return isinstance(v, (Fraction, int)) and not isinstance(v, bool)


def _over_common_denominator(values) -> tuple[np.ndarray, int]:
    """Exact scalars as integer numerators over their least common
    denominator."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return np.array([f.numerator * (den // f.denominator) for f in fracs],
                    dtype=object), den


def _reduce(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    g = math.gcd(den, *nums.tolist())
    return (nums // g, den // g) if g > 1 else (nums, den)


def _merge_runs(pos: np.ndarray, ws: list[np.ndarray]
                ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted positions with the weights of equal neighbours added by one
    np.add.reduceat, in each weight array of ws."""
    fresh = pos[1:] != pos[:-1]
    if fresh.all():
        return pos, ws
    starts = np.flatnonzero(np.concatenate(([True], fresh)))
    return pos[starts], [np.add.reduceat(w, starts) for w in ws]


def _kept(pos: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float atoms whose weights are at least 1e-15."""
    a = np.abs(w)
    if not len(a) or a.min() >= _DROP_TOL:
        return pos, w
    keep = a >= _DROP_TOL
    return pos[keep], w[keep]


def _order(pos: np.ndarray, ws: list[np.ndarray], q: int | None
           ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Positions reduced mod 1 (mod q, exact) and put in the order of a
    stable argsort, coincident atoms merged by np.add.reduceat, each
    weight array of ws moved the same way.

    A strictly increasing run is already in that order, and a cyclic
    shift of one (one descent, last below first: the push of a sorted
    fiber by a rotation or another orientation-preserving circle map) is
    rotated back by two slices; neither has ties, so only other inputs are
    sorted."""
    if not len(pos):
        return pos, ws
    if q is not None:
        pos = pos % q
    else:
        pos = pos - np.floor(pos)
        pos[pos >= 1.0] = 0.0
    if len(pos) > 1:
        rising = pos[1:] > pos[:-1]
        up = np.count_nonzero(rising)
        if up == len(rising) - 1 and pos[-1] < pos[0]:
            i = int(rising.argmin()) + 1
            return (np.concatenate((pos[i:], pos[:i])),
                    [np.concatenate((w[i:], w[:i])) for w in ws])
        if up < len(rising):
            order = np.argsort(pos, kind="stable")
            return _merge_runs(pos[order], [w[order] for w in ws])
    return pos, ws


def _fiber(pos: np.ndarray, w: np.ndarray, q: int | None = None,
           r: int | None = None, presorted: bool = False) -> "FiberMeasure":
    out = FiberMeasure.__new__(FiberMeasure)
    out._set(pos, w, q, r, presorted)
    return out


def _moved(pos: np.ndarray, w: np.ndarray, n: int) -> "FiberMeasure":
    """The float fiber on canonical arrays that hold n atoms of canonical
    fibers, moved by _order or _merge_runs or added and kept: unless a
    merge left fewer, their weights are all still at least 1e-15."""
    if len(pos) < n:
        return _fiber(pos, w, presorted=True)
    out = FiberMeasure.__new__(FiberMeasure)
    out.exact, out.positions, out.weights, out.q, out.r, out._key = \
        False, pos, w, 1, 1, None
    return out


class FiberMeasure:
    """Finite signed atomic measure on the circle with a float or exact
    backend.

    Atom i sits at positions[i] / q with weight weights[i] / r; positions
    are sorted and distinct, in [0, q).  The float backend holds float64
    arrays with q = r = 1.  The exact backend holds integer numerators
    (Python ints in object arrays, so any denominator fits) over shared
    denominators q and r in lowest terms.  Weights below 1e-15 are dropped
    on the float side; the exact side drops only exact zeros, so that
    total mass stays an identity.

    The constructor takes positions as scalars or 1-element sequences;
    exact=None picks the exact backend when there are atoms and every
    position is a Fraction or int (float weights then convert exactly).
    """

    __slots__ = ("exact", "positions", "weights", "q", "r", "_key")

    def __init__(self, positions, weights, exact: bool | None = None):
        pos = []
        for p in positions:
            if isinstance(p, (tuple, list, np.ndarray)):
                if len(p) != 1:
                    raise ValueError("atom positions take one coordinate")
                p = p[0]
            pos.append(p)
        if len(pos) != len(weights):
            raise ValueError("positions and weights differ in length")
        if exact is None:
            exact = len(pos) > 0 and all(_is_exact_scalar(p) for p in pos)
        if exact:
            pn, q = _over_common_denominator(pos)
            wn, r = _over_common_denominator(weights)
            self._set(pn, wn, q, r)
        else:
            self._set(np.array(pos, dtype=float),
                      np.array(weights, dtype=float))

    def _set(self, pos: np.ndarray, w: np.ndarray, q: int | None = None,
             r: int | None = None, presorted: bool = False) -> None:
        """Canonical form from 1-D arrays: float64 values, or (q and r
        given) integer numerators over the denominators q and r.

        Positions are put in canonical order by _order; presorted=True
        says that has been done.  Weights below 1e-15 (float) or exactly
        zero (exact) are dropped, and exact denominators are reduced by
        their gcd with the numerators, so equal content means equal arrays
        and denominators.
        """
        exact = q is not None
        if not presorted:
            pos, (w,) = _order(pos, [w], q)
        self.exact = exact
        if exact:
            keep = w != 0
            if not keep.all():
                pos, w = pos[keep], w[keep]
            self.positions, self.q = _reduce(pos, q)
            self.weights, self.r = _reduce(w, r)
        else:
            self.positions, self.weights = _kept(pos, w)
            self.q = self.r = 1
        self._key = None

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.weights)

    def mass(self):
        if self.exact:
            return Fraction(sum(self.weights.tolist()), self.r)
        return math.fsum(self.weights.tolist())

    def abs_mass(self):
        if self.exact:
            return Fraction(sum(np.abs(self.weights).tolist()), self.r)
        return math.fsum(np.abs(self.weights).tolist())

    def content_key(self):
        if self._key is None:
            if self.exact:
                self._key = (True, self.q, self.r,
                             tuple(self.positions.tolist()),
                             tuple(self.weights.tolist()))
            else:
                self._key = (False, self.positions.tobytes(),
                             self.weights.tobytes())
        return self._key

    def atoms(self) -> list[tuple[object, object]]:
        """(position, weight) pairs: Fractions on the exact backend."""
        pos, w = self.positions.tolist(), self.weights.tolist()
        if self.exact:
            return [(Fraction(p, self.q), Fraction(v, self.r))
                    for p, v in zip(pos, w)]
        return list(zip(pos, w))

    # -- conversions -----------------------------------------------------

    def to_float(self) -> "FiberMeasure":
        if not self.exact:
            return self
        # int / int true division rounds correctly, like float(Fraction)
        return _fiber((self.positions / self.q).astype(float),
                      (self.weights / self.r).astype(float))

    # -- algebra ----------------------------------------------------------

    def scale(self, s) -> "FiberMeasure":
        return _combine([(self, s)])

    def __add__(self, other: "FiberMeasure") -> "FiberMeasure":
        return _combine([(self, 1), (other, 1)])

    def __sub__(self, other: "FiberMeasure") -> "FiberMeasure":
        return _combine([(self, 1), (other, -1)])

    def translate(self, shift) -> "FiberMeasure":
        """Pushforward by the rotation y -> y + shift."""
        if self.exact and _is_exact_scalar(shift):
            s = Fraction(shift)
            q = math.lcm(self.q, s.denominator)
            return _fiber(self.positions * (q // self.q)
                          + s.numerator * (q // s.denominator),
                          self.weights, q, self.r)
        a = self.to_float()
        pos, (w,) = _order(a.positions + float(shift), [a.weights], None)
        return _moved(pos, w, len(a))


def _apply_map_many(fibers: Sequence[FiberMeasure],
                    fn: Callable[[np.ndarray], np.ndarray]
                    ) -> list[FiberMeasure]:
    """Pushforward of each fiber by a vectorized float map fn that acts
    atom by atom: one call of fn on the distinct position arrays (by
    identity, then equality), concatenated, and one _order of each image
    for all the weight arrays on it, whose pushes share its positions.
    _order reduces the images mod 1, so fn may return a lift of the
    circle map."""
    floats = [fm.to_float() for fm in fibers]
    # distinct arrays bucketed by (length, first, last), so that only
    # arrays that may be equal are compared
    buckets: dict = {}
    for i, f in enumerate(floats):
        if len(f):
            pos = f.positions
            bucket = buckets.setdefault((len(pos), pos[0], pos[-1]), [])
            for other, members in bucket:
                if other is pos or np.array_equal(other, pos):
                    members.append(i)
                    break
            else:
                bucket.append((pos, [i]))
    groups = [g for bucket in buckets.values() for g in bucket]
    if not groups:
        return floats
    images = np.asarray(fn(np.concatenate([pos for pos, _ in groups])),
                        dtype=float).reshape(-1)
    out, start = list(floats), 0
    for pos, members in groups:
        image, ws = _order(images[start:start + len(pos)],
                           [floats[i].weights for i in members], None)
        start += len(pos)
        for i, w in zip(members, ws):
            out[i] = _moved(image, w, len(pos))
    return out


def _times(values: np.ndarray, factor) -> np.ndarray:
    return values if factor == 1 else values * factor


def _combine(parts) -> FiberMeasure:
    """Sum of s * fm over the (fm, s) pairs.

    Exact when every fiber and coefficient is exact: one merge of the
    numerators over common denominators.  Otherwise one pass in floats
    over the parts' arrays, building no fiber per part: each scaled part
    and each running sum drops its weights below 1e-15, and the parts add
    one after another, ((p1 + p2) + p3), because a float sum depends on
    the order (one np.add.reduceat adds three coincident atoms as
    a + (b + c)).  A part on the running sum's positions (the same array,
    as the pushes of one array share, or an equal one) adds elementwise;
    any other goes through _order with the sum, whose reduction mod 1
    leaves their canonical positions (in [0, 1), never -0.0) as they are.
    Each position then occurs at most twice, and np.add.reduceat adds a
    pair o + a, left to right.
    """
    if all(fm.exact and _is_exact_scalar(s) for fm, s in parts):
        dens = [fm.r * Fraction(s).denominator for fm, s in parts]
        q, r = math.lcm(*(fm.q for fm, _ in parts)), math.lcm(*dens)
        pos = [_times(fm.positions, q // fm.q) for fm, _ in parts]
        w = [_times(fm.weights, Fraction(s).numerator * (r // d))
             for (fm, s), d in zip(parts, dens)]
        return _fiber(np.concatenate(pos), np.concatenate(w), q, r,
                      presorted=len(parts) == 1)
    pos = w = None
    for fm, s in parts:
        a = fm.to_float()
        p, v = a.positions, a.weights
        if s != 1:
            p, v = _kept(p, v * float(s))
        if w is None:
            pos, w = p, v
        elif pos is p or np.array_equal(pos, p):
            pos, w = _kept(pos, w + v)
        else:
            pos, (w,) = _order(np.concatenate((pos, p)),
                               [np.concatenate((w, v))], None)
            pos, w = _kept(pos, w)
    return _moved(pos, w, len(pos))


# --------------------------------------------------------------------------
# W1 norm
# --------------------------------------------------------------------------


def _lower_median(values: np.ndarray, weights: np.ndarray):
    """Smallest value v with weight{values <= v} >= half the total."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    return values[order[np.argmax(2 * cum >= cum[-1])]]


def _isotonic_l1(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted-L1 nondecreasing fit of y by pool adjacent violators, each
    pool at the lower weighted median of its values (so at a value of y)."""
    starts: list[int] = []
    vals: list = []
    for i in range(len(y)):
        starts.append(i)
        vals.append(y[i])
        while len(vals) > 1 and vals[-2] > vals[-1]:
            del vals[-1], starts[-1]
            vals[-1] = _lower_median(y[starts[-1]:i + 1],
                                     weights[starts[-1]:i + 1])
    return np.repeat(np.array(vals, dtype=y.dtype), np.diff(starts + [len(y)]))


def _sum_interval(sums: np.ndarray, abs_sums: np.ndarray, k: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Doubles (lo, hi) per row such that math.fsum of the row lies in
    [lo, hi], given the np.longdouble sums of rows of k + 1 float64 terms
    and the long-double sums of the rows' |terms|.

    np.longdouble is an IEEE format with unit u = _LD_UNIT.  In any order,
    a sum of n terms is off by at most gamma_k sum|w| (k = n - 1,
    gamma_k = k u / (1 - k u)), and with a the computed sum of |w| that is
    at most k u a / (1 - 2 k u).  The factor 1 + 8u covers the four
    roundings in evaluating it, and two smallest subnormals cover its
    underflow.  Each end moves one long-double step outward and is rounded
    to double; rounding is monotone, so the rounded exact sum lies between
    the rounded ends.
    """
    u = _LD_UNIT
    err = (k * u) / (1 - 2 * k * u) * (1 + 8 * u) * abs_sums + 2 * _LD_TINY
    return (np.nextafter(sums - err, -np.inf).astype(float),
            np.nextafter(sums + err, np.inf).astype(float))


def _fsum_rows(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """math.fsum of each row of the 2-D float64 array w, bit for bit, given
    its (lo, hi) from _sum_interval.  A row whose bounds are one finite
    nonzero double is that double; every other row goes to math.fsum,
    which settles the sign of a zero sum and raises on overflow."""
    out = lo.copy()
    for i in np.flatnonzero((lo != hi) | (lo == 0) | ~np.isfinite(lo)):
        out[i] = math.fsum(w[i].tolist())
    return out


def _signed_mass(fm: FiberMeasure):
    """Mass in weight units (the numerator on the exact side); 0 for a
    near-balanced float fiber, |mass| <= 1e-12 |weights|_1, both sides
    of that test being math.fsum values."""
    if fm.exact:
        return sum(fm.weights.tolist())
    m = fm.mass()
    return 0.0 if abs(m) <= _BALANCE_RTOL * fm.abs_mass() else m


def _w1_flat(fm: FiberMeasure, m):
    """Flat norm on the circle from the numerator arrays, both backends,
    given m = _signed_mass(fm).

    Q are the prefix sums, g the arcs (the last one wraps) and m >= 0 the
    mass (the weights negated otherwise).  A balanced fiber costs
    min_c sum g_i |Q_i - c|, c a weighted median of Q.  Otherwise mass m
    is deleted and the rest transported at cost
    m + min_a (g[-1] |a| + sum_i g_i |Q_i - clip(R_i, a, a + m)|), R the
    weighted-L1 nondecreasing fit of Q[:-1]; the bracket is convex and
    piecewise linear in a with breakpoints in Q and Q - m, so a binary
    search over those finds its minimum.  Exact values are one Fraction
    over q * r.
    """
    prefix = np.cumsum(fm.weights)
    pos = fm.positions
    gaps = np.empty_like(pos)
    np.subtract(pos[1:], pos[:-1], out=gaps[:-1])
    gaps[-1] = (pos[0] + fm.q) - pos[-1]
    if m == 0:
        best = np.dot(gaps, np.abs(prefix - _lower_median(prefix, gaps)))
    else:
        if m < 0:
            prefix, m = -prefix, -m
        prefix[-1] = m
        head, g = prefix[:-1], gaps[:-1]
        fit = _isotonic_l1(head, g)

        def cost(a):
            clipped = np.minimum(np.maximum(fit, a), a + m)
            return gaps[-1] * abs(a) + np.dot(g, np.abs(head - clipped))

        cand = np.unique(np.concatenate((prefix, prefix - m)))
        lo, hi = 0, len(cand) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cost(cand[mid]) <= cost(cand[mid + 1]):
                hi = mid
            else:
                lo = mid + 1
        best = cost(cand[lo])
    if fm.exact:
        return Fraction(m * fm.q + best, fm.q * fm.r)
    return float(m + best)


def _w1_tableau(fm: FiberMeasure):
    """The same LP by the exact tableau over the atoms' exact values, the
    reference the tests hold w1_norm to; float fibers convert through
    Fraction and get a float back."""
    atoms = [(Fraction(p), Fraction(v)) for p, v in fm.atoms()]
    n, w = len(atoms), [v for _, v in atoms]
    # h = g + 1 in [0, 2] keeps the slack basis feasible
    A = [[int(i == k) for k in range(n)] for i in range(n)]
    b = [2] * n
    for i in range(n if n > 2 else n - 1):
        j = (i + 1) % n
        d = abs(atoms[i][0] - atoms[j][0])
        row = [int(k == i) - int(k == j) for k in range(n)]
        A += [row, [-v for v in row]]
        b += [min(d, 1 - d)] * 2
    val = solve_simplex(w, A, b)[0] - sum(w)
    return val if fm.exact else float(val)


def w1_norm(fm: FiberMeasure):
    """Dual norm sup { integral g d(fm) : |g| <= 1, Lip(g) <= 1 } on the
    circle (the flat norm), in closed form at every size and scale (exact
    fibers give Fractions).  Near-balanced float fibers count as balanced,
    an error <= 2|mass|; there is no solver tolerance, so a small l1_norm
    (such as the residual that invariant_measure stops on) is never a
    false zero.
    """
    if len(fm) == 0:
        return Fraction(0) if fm.exact else 0.0
    # weights are never zero, so this is the single-signed test
    if not (fm.weights < 0).any() or not (fm.weights > 0).any():
        return abs(fm.mass())
    return _w1_flat(fm, _signed_mass(fm))


# --------------------------------------------------------------------------
# Disintegration
# --------------------------------------------------------------------------


class Disintegration:
    """Grid disintegration packed as an id per cell plus a table of
    distinct fibers: table[ids[i]] is the restriction to cell i x T, so
    its mass() is the measure of that slab and the marginal density reads
    N * mass on each cell.

    The table holds no two content-equal fibers and is numbered in order
    of first appearance by cell, so equal ids mean equal fibers and runs
    of equal ids are runs of equal fibers.  Operations map over the table
    and pair id arrays instead of looping over cells.
    """

    __slots__ = ("n_cells", "ids", "table")

    def __init__(self, ids, table: Sequence[FiberMeasure]):
        """Fiber table[ids[i]] on cell i; the table is canonicalized
        (unreferenced entries dropped, equal ones merged)."""
        ids = np.array(ids, dtype=np.int64).reshape(-1)
        if len(ids) == 0 or not table:
            raise ValueError("empty disintegration")
        if ids.min() < 0 or ids.max() >= len(table):
            raise ValueError("fiber id out of range")
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

    def mass(self):
        # exactly rounded sum over cells, as if summed cell by cell
        masses = [f.mass() for f in self.table]
        if self.exact:
            counts = np.bincount(self.ids, minlength=len(self.table))
            return sum((v * int(c) for v, c in zip(masses, counts)),
                       Fraction(0))
        return float(math.fsum(np.array(masses, dtype=float)[self.ids]))

    def fiber_ids(self) -> tuple[np.ndarray, tuple[FiberMeasure, ...]]:
        """(id per cell, distinct fibers), numbered by first appearance."""
        return self.ids, self.table

    def scale(self, s) -> "Disintegration":
        return Disintegration(self.ids, [f.scale(s) for f in self.table])

    def lincomb(self, a, other: "Disintegration", b) -> "Disintegration":
        """a * self + b * other, summed once per distinct pair of ids."""
        if self.n_cells != other.n_cells:
            raise ValueError("incompatible disintegrations")
        terms = np.empty((self.n_cells, 2), dtype=np.int64)
        terms[:, 0] = 2 * self.ids
        terms[:, 1] = 2 * (other.ids + len(self.table)) + 1
        return _sum_rows(self.table + other.table, *_row_groups(terms, 2),
                         (a, b), 0)

    def __add__(self, other: "Disintegration") -> "Disintegration":
        return self.lincomb(1, other, 1)

    def __sub__(self, other: "Disintegration") -> "Disintegration":
        return self.lincomb(1, other, -1)

    def to_float(self) -> "Disintegration":
        return Disintegration(self.ids, [f.to_float() for f in self.table])


def _canonical(ids: np.ndarray, table: Sequence[FiberMeasure]
               ) -> tuple[np.ndarray, tuple[FiberMeasure, ...]]:
    """Drop unreferenced table entries, merge content-equal ones and
    renumber by first appearance; hashes each referenced entry once."""
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


def _row_groups(terms: np.ndarray, c: int) -> tuple[list, np.ndarray]:
    """The distinct rows of terms, each as the (t // c, t % c) pairs of its
    entries t >= 0, and the read-only array of each row's group.

    Rows are grouped by a 1-D np.unique over an np.void view of each
    int64 row; all-equal rows make the one group 0."""
    terms = np.ascontiguousarray(terms, dtype=np.int64)
    keys = terms.view(np.dtype((np.void, terms.itemsize * terms.shape[1])))
    _, first, groups = np.unique(keys.reshape(-1), return_index=True,
                                 return_inverse=True)
    groups.flags.writeable = False
    return [[divmod(t, c) for t in row if t >= 0]
            for row in terms[first].tolist()], groups


def _sum_rows(table: Sequence[FiberMeasure], rows: list, groups: np.ndarray,
              coefs: Sequence, eps) -> Disintegration:
    """Cell i sums coefs[j] * table[k] over the (k, j) of rows[groups[i]],
    snapped by coarsen; the table is renumbered by first appearance, and
    one row's groups (all 0) are already canonical."""
    sums = [coarsen(_combine([(table[k], coefs[j]) for k, j in row]), eps)
            for row in rows]
    if len(sums) != 1:
        return Disintegration(groups, sums)
    out = Disintegration.__new__(Disintegration)
    out.n_cells, out.ids, out.table = len(groups), groups, (sums[0],)
    return out


# -- constructors -----------------------------------------------------------


def uniform_fiber(n_atoms: int) -> FiberMeasure:
    """Uniform exact probability: n atoms at j/n, each of weight 1/n (the
    orbit of 0 under the rotation by p/n for any p prime to n).  Other
    totals are its .scale(s); discretized Lebesgue on N cells is
    product_disintegration(N, uniform_fiber(n)), and its float form
    that measure's .to_float()."""
    if n_atoms < 1:
        raise ValueError(f"fiber atom count must be >= 1, got {n_atoms}")
    # already canonical: positions j over n_atoms, weights 1 over n_atoms
    return _fiber(np.arange(n_atoms, dtype=object),
                  np.ones(n_atoms, dtype=object), n_atoms, n_atoms,
                  presorted=True)


def product_disintegration(n_cells: int, fiber: FiberMeasure) -> Disintegration:
    """m (x) fiber: each cell carries fiber scaled by 1/N."""
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    return Disintegration(np.zeros(n_cells),
                          [fiber.scale(Fraction(1, n_cells))])


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


def _pair_w1(table: Sequence[FiberMeasure], pairs: np.ndarray) -> np.ndarray:
    """w1_norm(table[u] - table[v]) for each row (u, v) of pairs, bit for
    bit.

    Two float fibers on equal positions differ by w_u - w_v elementwise,
    less the weights below 1e-15 (the equal-grid branch of _combine).
    Those differences are gathered from the grid's stacked weight table a
    block of about _BLOCK_ATOMS weights at a time, and a single-signed
    one has the norm |sum|, read off _fsum_rows.  Mixed-sign differences,
    pairs on different positions and exact fibers go through w1_norm.
    """
    out = np.empty(len(pairs))
    # one id per distinct float position array, -1 for exact fibers, and
    # the grid each pair shares (-1 for none)
    grids: dict[bytes, int] = {}
    grid = np.array([-1 if f.exact else
                     grids.setdefault(f.positions.tobytes(), len(grids))
                     for f in table], dtype=np.int64)
    gu = grid[pairs[:, 0]]
    shared = np.where(gu == grid[pairs[:, 1]], gu, -1)
    rest = np.flatnonzero(shared < 0).tolist()
    for g in np.unique(shared[shared >= 0]).tolist():
        idx = np.flatnonzero(shared == g)
        # the grid's weights, stacked once; pair idx[i] is the difference
        # of rows rows[i, 0] and rows[i, 1] of w
        fibers, rows = np.unique(pairs[idx], return_inverse=True)
        w = np.stack([table[j].weights for j in fibers.tolist()])
        rows = rows.reshape(-1, 2)
        step = max(1, _BLOCK_ATOMS // w.shape[1])
        for b in range(0, len(idx), step):
            blk = idx[b:b + step]
            d = w[rows[b:b + step, 0]] - w[rows[b:b + step, 1]]
            d[np.abs(d) < _DROP_TOL] = 0.0
            mixed = (d > 0).any(axis=1) & (d < 0).any(axis=1)
            rest += blk[mixed].tolist()
            d = d[~mixed]
            # a single-signed row has sum |d| = |sum d|, bit for bit when
            # both are summed in one order, so one long-double pass serves
            s = d.sum(axis=1, dtype=np.longdouble)
            lo, hi = _sum_interval(s, np.abs(s), d.shape[1] - 1)
            out[blk[~mixed]] = np.abs(_fsum_rows(d, lo, hi))
    for i in rest:
        u, v = pairs[i].tolist()
        out[i] = float(w1_norm(table[u] - table[v]))
    return out


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
    t = len(table)  # the distinct pairs in (lo, hi) order, as lo t + hi
    code = np.unique((lo * t + hi)[lo != hi])
    pairs = np.stack([code // t, code % t], axis=1)
    u, v = pairs.T
    dist = np.zeros((len(table), len(table)))
    dist[u, v] = dist[v, u] = _pair_w1(table, pairs) * n
    m = dist[rfid[:, None], rfid[None, :]]
    for k in range(1, len(rfid)):
        i = np.arange(len(rfid) - k)
        m[i, i + k] = np.maximum(m[i, i + k],
                                 np.maximum(m[i + 1, i + k], m[i, i + k - 1]))
    return m, run


def var_p(dis: Disintegration, p: float = 1.0, A: float = 0.5) -> float:
    """sup over grid radii r = j/N <= ~A of (1/N) sum_i r^-p osc(i, r),
    osc(i, r) the largest per-length W1 distance between fibers of cells
    within r of cell i (the grid essential sup).

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


def marginal_density(dis: Disintegration) -> MarginalDensity:
    vals = np.array([float(f.mass()) for f in dis.table])[dis.ids] * dis.n_cells
    sup = float(np.max(np.abs(vals))) if len(vals) else 0.0
    return MarginalDensity(values=vals, sup_norm=sup)


# --------------------------------------------------------------------------
# coarsening
# --------------------------------------------------------------------------


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
        # floor(y / e) * e with y = n / q and e = a / b, over denominator b
        a, b = e.numerator, e.denominator
        return _fiber(fm.positions * b // (fm.q * a) * a, fm.weights, b, fm.r)
    e = float(eps)
    if not 0.0 < e < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n = len(fm)
    if n == 0:
        return fm
    # floor(p / e) * e is monotone, so the sorted positions stay sorted
    # and only equal neighbours merge; when e is not a power of two the
    # last one can round up to 1.0 and needs the full reduction mod 1
    pos = np.floor(fm.positions / e) * e
    if pos[-1] >= 1.0:
        return _fiber(pos, fm.weights)
    pos, (w,) = _merge_runs(pos, [fm.weights])
    return _moved(pos, w, n)
