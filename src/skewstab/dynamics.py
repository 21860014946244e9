"""Skew-product systems and their transfer operators.

Systems are pairs of a piecewise-expanding base map of [0,1] and a fiber
map family on the circle, together with the declared uniformity
constants (lambda, alpha, xi, C_h, H_hat, A).  The transfer operator
acts on Disintegrations; for the built-in linear bases the base
direction is exact at grid level (cell preimages land inside single
cells and the branch weights are constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .batteries import unit_pbv_battery
from .measures import (
    _BALANCE_RTOL,
    _DROP_TOL,
    Disintegration,
    FiberMeasure,
    _apply_map_many,
    _row_groups,
    _sum_rows,
    l1_norm,
    marginal_density,
    product_disintegration,
    uniform_fiber,
    var_p,
)

__all__ = [
    "SineShift",
    "BaseMap",
    "linear_base",
    "precomposed_base",
    "OrbitBump",
    "FiberMapFamily",
    "translation_family",
    "composite_family",
    "SkewSystem",
    "PerturbationSpec",
    "transfer_step",
    "InvariantResult",
    "invariant_measure",
    "ly_check",
    "operator_distance",
]

DEFAULT_INDICATOR = ((Fraction(1, 2), Fraction(1)),)


# ------------------------------------------------------------- base maps

@dataclass(frozen=True)
class SineShift:
    """sigma(x) = x + a sin(2 pi x) / (2 pi); a diffeomorphism of [0,1]
    fixing the endpoints whenever |a| < 1."""

    amplitude: float

    def __call__(self, x):
        return x + self.amplitude * np.sin(2 * np.pi * x) / (2 * np.pi)

    def deriv(self, x):
        return 1.0 + self.amplitude * np.cos(2 * np.pi * x)

    def inverse(self, t):
        t = np.asarray(t, dtype=float)
        x = t.copy()
        for _ in range(60):
            step = (self(x) - t) / self.deriv(x)
            x = x - step
            if np.max(np.abs(step)) < 1e-15:
                break
        return x


@dataclass(frozen=True)
class BaseMap:
    """Full-branch expanding map of [0,1]: x -> l * sigma(x) mod 1."""

    branch_count: int
    sigma: SineShift | None = None

    def __post_init__(self):
        if self.branch_count < 2:
            raise ValueError("branch count must be >= 2")
        if self.sigma is not None and abs(self.sigma.amplitude) >= 1:
            raise ValueError("sigma is not a diffeomorphism")

    @property
    def lam(self) -> float:
        if self.sigma is None:
            return 1.0 / self.branch_count
        return 1.0 / (self.branch_count * (1.0 - abs(self.sigma.amplitude)))

    @property
    def c_h(self) -> float:
        # Lipschitz constant of gamma -> 1/|T'(T_i^{-1} gamma)|; zero for
        # constant-derivative branches
        if self.sigma is None:
            return 0.0
        a = abs(self.sigma.amplitude)
        return 2 * np.pi * a / (self.branch_count ** 2 * (1 - a) ** 3)

    @property
    def xi(self) -> float:
        return 1.0

    def check_grid(self, n_cells: int) -> None:
        l, n = self.branch_count, n_cells
        while n > 1 and n % l == 0:
            n //= l
        if n != 1:
            raise ValueError(
                f"grid/branch mismatch: n_cells = {n_cells} is not a power "
                f"of the branch count {self.branch_count}")


class _Pieces(NamedTuple):
    """The base map's action on the N-cell grid, one row per piece: the
    fraction fracs[code] of the mass of source cell src lands in output
    cell out.  Rows are ordered by output cell, then branch, then source
    cell from left to right; cell k's rows are start[k]:start[k + 1],
    and row i is number slot[i] of its cell, below width."""

    out: np.ndarray
    src: np.ndarray
    code: np.ndarray
    fracs: tuple
    start: np.ndarray
    slot: np.ndarray
    width: int


@lru_cache(maxsize=64)
def _pieces(base: BaseMap, n: int) -> _Pieces:
    l = base.branch_count
    if base.sigma is None:
        # output cell k takes the exact fraction 1/l of each source cell
        # (k + j n) // l
        out = np.repeat(np.arange(n), l)
        src = (out + n * np.tile(np.arange(l), n)) // l
        code, fracs = np.zeros(len(out), dtype=np.int64), (Fraction(1, l),)
    else:
        # preimage i = j n + k of output cell k under branch j, split at
        # source-grid boundaries; the fraction n * (piece length) encodes
        # 1/|T'| exactly
        xs = base.sigma.inverse(np.arange(l * n + 1) / (l * n))
        xs[0], xs[-1] = 0.0, 1.0
        x0, x1 = xs[:-1], xs[1:]
        c0 = (x0 * n).astype(np.int64)
        c1 = np.minimum((x1 * n).astype(np.int64), n - 1)
        count = np.maximum(c1 - c0 + 1, 0)
        i = np.repeat(np.arange(l * n), count)
        c = c0[i] + np.arange(len(i)) - np.repeat(np.cumsum(count) - count,
                                                  count)
        a = np.where(c == c0[i], x0[i], c / n)
        b = np.where(c == c1[i], x1[i], (c + 1) / n)
        keep = b > a
        order = np.argsort(i[keep] % n, kind="stable")
        out, src = (i[keep] % n)[order], c[keep][order]
        fracs, code = np.unique((b - a)[keep][order] * n, return_inverse=True)
        fracs = tuple(fracs.tolist())
    start = np.searchsorted(out, np.arange(n + 1))
    slot = np.arange(len(out)) - start[out]
    for arr in (out, src, code, start, slot):
        arr.flags.writeable = False
    return _Pieces(out, src, code, fracs, start, slot, int(slot.max()) + 1)


def linear_base(l: int) -> BaseMap:
    return BaseMap(l)


def precomposed_base(l: int, sigma: SineShift) -> BaseMap:
    return BaseMap(l, sigma=sigma)


# ------------------------------------------------------------ fiber maps

# the bump's cubic Hermite knots, values and derivatives
_KNOTS = np.array([0.0, 1 / 3, 1 / 2, 2 / 3, 1.0])
_VALUES = np.array([0.0, -1.0, 0.0, 1.0, 0.0])
_DERIVS = np.array([-6.0, 0.0, 6.0, 0.0, -6.0])
# per segment: its width (the bits of k1 - k0), and the value and
# derivative at its right end
_WIDTHS = _KNOTS[1:] - _KNOTS[:-1]
_VALUES_1, _DERIVS_1 = _VALUES[1:], _DERIVS[1:]


def _hermite_eval(t: np.ndarray) -> np.ndarray:
    # segment 0..3 holding t; t < 0 counts as 0 and t >= 1 as 3
    seg = (t >= _KNOTS[1]).astype(np.intp)
    seg += t >= _KNOTS[2]
    seg += t >= _KNOTS[3]
    h = _WIDTHS.take(seg)
    # the products and sums of
    #   h00 v0 + h10 h d0 + h01 v1 + h11 h d1,
    # h00 = (1 + 2s)(1 - s)^2, h10 = s (1 - s)^2, h01 = s^2 (3 - 2s) and
    # h11 = s^2 (s - 1), in that order, updated in place
    s = t - _KNOTS.take(seg)
    s /= h
    s2 = 2 * s
    a = 1 - s
    a *= a
    b = s * s
    out = 1 + s2
    out *= a
    out *= _VALUES.take(seg)
    a *= s
    a *= h
    a *= _DERIVS.take(seg)
    out += a
    np.subtract(3, s2, out=s2)
    s2 *= b
    s2 *= _VALUES_1.take(seg)
    out += s2
    s -= 1
    s *= b
    s *= h
    s *= _DERIVS_1.take(seg)
    out += s
    return out


@dataclass(frozen=True)
class OrbitBump:
    """Deformation y -> y + strength * g(y): g is the periodized cubic
    bump vanishing on the period-k orbit {i/k} (attracting, g' < 0
    there) and on the midpoints {i/k + 1/(2k)} (repelling, g' > 0)."""

    orbit_k: int
    strength: float

    def __post_init__(self):
        if not (math.isfinite(self.strength) and self.strength >= 0):
            raise ValueError("strength must be finite and >= 0")
        if self.strength * self.max_g_prime() >= 1:
            raise ValueError("deformation too strong to stay injective")

    # x - floor(x) is np.mod(x, 1.0) bit for bit on finite doubles
    # (-0.0 and integers give +0.0, tiny negatives round to 1.0), at a
    # fraction of its cost.  g has period 1/k: on k copies of one block of
    # points, each shifted by 1/k (a sorted fiber that the rotation by 1/k
    # maps onto itself), t repeats exactly and the profile is evaluated
    # on one block
    def g(self, y: np.ndarray) -> np.ndarray:
        x = np.asarray(y, dtype=float) * self.orbit_k
        t = x - np.floor(x)
        m, rest = divmod(t.size, self.orbit_k)
        if t.ndim == 1 and m and not rest and np.array_equal(t[m:], t[:-m]):
            return _hermite_eval(t[:m])[None].repeat(self.orbit_k, 0).ravel()
        return _hermite_eval(t)

    def lift(self, y: np.ndarray) -> np.ndarray:
        """y + strength * g(y), the deformation before reduction mod 1."""
        return y + self.strength * self.g(y)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        x = self.lift(y)
        return x - np.floor(x)

    def phi(self, y: np.ndarray) -> np.ndarray:
        """phi(y) = -dist(y, {i/k}), minus the circle distance to the
        orbit: |phi| <= 1/(2k) and Lip(phi) = 1, so |integral phi d nu| is
        at most the flat norm of nu.  g has the sign of phi's slope, so
        the bump raises phi: it is the bump's Lyapunov function.

        Within 1.5u of the exact value (u the unit roundoff) on [0, 1]:
        x = y k is rounded once, its distance |x - rint(x)| to the
        nearest integer is exact, and the division by -k is rounded
        once."""
        x = np.asarray(y, dtype=float) * self.orbit_k
        x -= np.rint(x)
        np.abs(x, out=x)
        x /= -self.orbit_k
        return x

    def max_g_prime(self) -> float:
        # the cubic bump's |g'| peaks at 8 (t = 4/9 and 5/9), scaled by k
        return 8.0 * self.orbit_k

    @property
    def lipschitz(self) -> float:
        return 1.0 + self.strength * self.max_g_prime()

    def snap_band(self, eps_f: float) -> float:
        """min(eps_f / (6 k s), 1/(2k)) for s > 0: at distance d below an
        orbit point the bump lifts by about 6 k s d, so within this band
        the floor snap to the eps_f-grid can undo the lift."""
        return min(eps_f / (6 * self.orbit_k * self.strength),
                   0.5 / self.orbit_k)

    def fixes(self, fm: FiberMeasure) -> bool:
        # exact atoms on the half-orbit grid {i/(2k)} are fixed points of
        # the bump; the position denominator q is in lowest terms, so all
        # atoms lie on that grid exactly when q divides 2k
        return fm.exact and (2 * self.orbit_k) % fm.q == 0


@dataclass(frozen=True)
class FiberMapFamily:
    """x-dependent fiber maps G(x, .): a rotation applied on the
    indicator set, followed by an x-independent deformation."""

    theta: object = 0
    indicator: tuple = ()
    bump: OrbitBump | None = None
    A: float = 0.5

    def __post_init__(self):
        if not 0 < self.A <= 0.5:
            raise ValueError(f"fiber A must lie in (0, 1/2], got {self.A}")

    @property
    def alpha(self) -> float:
        return 1.0 if self.bump is None else self.bump.lipschitz

    def rotation_distance(self) -> float:
        t = float(self.theta) % 1.0
        return min(t, 1.0 - t)

    def h_hat(self, p: float) -> float:
        # Sk3: sup_{r<=A} r^-p Int sup_{y, x1,x2 in B(x,r)} |G(x1,y)-G(x2,y)| dx;
        # each interior indicator endpoint contributes a jump of size
        # alpha_D * d(theta, 0) over a 2r window
        jumps = sum(1 for iv in self.indicator for e in iv if 0 < e < 1)
        if jumps == 0:
            return 0.0
        return 2 * jumps * self.alpha * self.rotation_distance() \
            * self.A ** (1.0 - p)

    def push_many(self, items) -> list[FiberMeasure]:
        """Pushforward of each fiber fm of the (fm, member) pairs by
        G(x, .) for x inside (member true) or outside the indicator set:
        the rotation by theta on the indicator set, then the deformation.
        The deformation acts atom by atom, so its lift is evaluated once, on
        the distinct position arrays of the rotated fibers together; fibers
        on one array share its canonical image, reduced mod 1 once (see
        _apply_map_many)."""
        out = [fm.translate(self.theta) if member and self.theta != 0 else fm
               for fm, member in items]
        bump = self.bump
        if bump is None or bump.strength == 0:
            return out
        moved = [i for i, f in enumerate(out) if not bump.fixes(f)]
        for i, f in zip(moved, _apply_map_many([out[i] for i in moved],
                                               bump.lift)):
            out[i] = f
        return out


def _membership(fam: FiberMapFamily, n_cells: int) -> np.ndarray:
    """1 for the cells [c/N, (c+1)/N) inside the indicator set, else 0.

    A cell is decided by the first interval [a, b] of fam.indicator that
    it meets, floor(a N) <= c < ceil(b N): inside when a <= c/N and
    (c+1)/N <= b, ceil(a N) <= c < floor(b N), and otherwise a ValueError
    naming the first such cell, inside which an endpoint falls."""
    cells, state = np.arange(n_cells), np.zeros(n_cells, dtype=np.int64)
    for a, b in fam.indicator:
        an, bn = Fraction(a) * n_cells, Fraction(b) * n_cells
        meet = (state == 0) & (math.floor(an) <= cells) \
            & (cells < math.ceil(bn))
        inside = (math.ceil(an) <= cells) & (cells < math.floor(bn))
        state[meet] = 2 - inside[meet]
    if (state == 2).any():
        raise ValueError(
            f"indicator endpoint falls inside cell {int(state.argmax())}/"
            f"{n_cells}; use a grid aligned with the indicator")
    return state


def _angle_value(theta):
    return theta.value if hasattr(theta, "value") else theta


def translation_family(theta, indicator=DEFAULT_INDICATOR,
                       A: float = 0.5) -> FiberMapFamily:
    iv = tuple((Fraction(a), Fraction(b)) for a, b in indicator)
    return FiberMapFamily(theta=_angle_value(theta), indicator=iv, A=A)


def composite_family(theta, delta, orbit_k: int, scale: float = 1.0,
                     indicator=DEFAULT_INDICATOR, A: float = 0.5
                     ) -> FiberMapFamily:
    iv = tuple((Fraction(a), Fraction(b)) for a, b in indicator)
    bump = OrbitBump(orbit_k, abs(float(delta)) * scale)
    return FiberMapFamily(theta=_angle_value(theta), indicator=iv,
                          bump=bump, A=A)


# ---------------------------------------------------------------- system

@dataclass(frozen=True)
class SkewSystem:
    base: BaseMap
    fiber: FiberMapFamily

    @property
    def domination(self) -> float:
        return self.base.lam ** self.base.xi * self.fiber.alpha

    def require_domination(self) -> None:
        if self.domination >= 1:
            raise ValueError(
                f"Sk2 domination violated: lambda^xi * alpha = "
                f"{self.domination:.6f} >= 1")


@dataclass(frozen=True)
class PerturbationSpec:
    """A reference system, its perturbation, and the perturbation size
    delta that sweep rows report."""

    reference: SkewSystem
    perturbed: SkewSystem
    delta: float


# ------------------------------------------------------------- transfer

def _default_eps(n_cells: int) -> float:
    return 1.0 / (4 * n_cells)


class _Plan:
    """What transfer_step reads of one (system, N, eps_f) besides the
    measure: the pieces with their indicator flags, eps_f, the fractions
    as floats (for all-float pushes) and the last id array's layout."""

    def __init__(self, sys: SkewSystem, n: int, eps_f):
        sys.base.check_grid(n)
        self.sys, self.n, self.eps_given = sys, n, eps_f
        self.eps_f = _default_eps(n) if eps_f is None else eps_f
        self.pieces = t = _pieces(sys.base, n)
        self.flags = _membership(sys.fiber, n)[t.src]
        self.float_fracs = tuple(float(f) for f in t.fracs)
        self.last = (None, None)

    def layout(self, dis: Disintegration) -> tuple:
        """The (fiber id, flag) keys to push, in increasing order, and the
        _row_groups of the cells' (pushed key, fraction code) terms, for
        dis's id array; rebuilt only when it differs from the last one."""
        ids = dis.ids.tobytes()
        last, layout = self.last
        if ids == last:
            return layout
        t = self.pieces
        key = dis.ids[t.src] * 2 + self.flags
        # the used keys in increasing order, and each piece's rank among them
        seen = np.zeros(2 * len(dis.table), dtype=bool)
        seen[key] = True
        used = np.flatnonzero(seen)
        key = (seen.cumsum() - 1)[key]
        terms = np.full((self.n, t.width), -1, dtype=np.int64)
        terms[t.out, t.slot] = key * len(t.fracs) + t.code
        layout = ([(k >> 1, k & 1) for k in used.tolist()],
                  *_row_groups(terms, len(t.fracs)))
        self.last = (ids, layout)
        return layout


_plan: _Plan | None = None


def transfer_step(sys: SkewSystem, dis: Disintegration,
                  eps_f: float | None = None) -> Disintegration:
    """One application of the transfer operator on the grid: output cell k
    sums its pieces' source fibers, each pushed by its source cell's fiber
    map and scaled by the piece's fraction.  Each used (source fiber id,
    indicator flag) key is pushed once, and cells with equal rows of
    (pushed fiber, fraction code) terms share one sum, snapped to the
    eps_f-grid as it is made; pushes that share positions add elementwise
    (see measures._combine).  The grid check, pieces, indicator flags and
    float fractions are built once per (system object, N, eps_f), kept
    for the last such triple, and the used keys and row groups again only
    when the id array differs from the previous step's."""
    global _plan
    plan = _plan
    if plan is None or plan.sys is not sys or plan.n != dis.n_cells \
            or plan.eps_given != eps_f:
        plan = _plan = _Plan(sys, dis.n_cells, eps_f)
    used, rows, groups = plan.layout(dis)
    pushed = sys.fiber.push_many([(dis.table[i], f) for i, f in used])
    coefs = plan.pieces.fracs if any(f.exact for f in pushed) \
        else plan.float_fracs
    return _sum_rows(pushed, rows, groups, coefs, plan.eps_f)


@dataclass(frozen=True)
class InvariantResult:
    measure: Disintegration
    converged: bool
    n_steps: int
    residual: float
    mass_drift: float


_UNIT = np.finfo(float).eps / 2


def _screen_bump(sys: SkewSystem) -> OrbitBump | None:
    """The bump of a system whose rotation maps the bump's orbit to
    itself (theta k an integer, checked exactly), so that the bump's phi
    is a Lyapunov function of every fiber map; None for other systems."""
    bump, theta = sys.fiber.bump, sys.fiber.theta
    if bump is None or bump.strength == 0 or not math.isfinite(theta):
        return None
    return bump if (Fraction(theta) * bump.orbit_k).denominator == 1 \
        else None


class _OrbitScreen:
    """Certified lower bounds on invariant_measure's residuals from the
    integrals of the bump's phi, kept per cell for the last measure seen;
    a one-fiber table keeps its one integral, which floor multiplies by N
    (see invariant_measure)."""

    def __init__(self, bump: OrbitBump, mu: Disintegration):
        self.bump, self.n = bump, mu.n_cells
        self.stats = self._stats(mu)

    def _stats(self, dis: Disintegration) -> tuple:
        # the integral of phi on each cell, sum_x |dis_x|_1, the total
        # atom count and the largest fiber's; a one-fiber table gives its
        # one integral, and its dots with the counts are single products
        if len(dis.table) == 1:
            f, n = dis.table[0].to_float(), dis.n_cells
            i = np.dot(self.bump.phi(f.positions), f.weights)
            return i, n * float(np.abs(f.weights).sum()), n * len(f), len(f)
        table = [f.to_float() for f in dis.table]
        integrals = np.array([np.dot(self.bump.phi(f.positions), f.weights)
                              for f in table])
        counts = np.bincount(dis.ids, minlength=len(table))
        sizes = [len(f) for f in table]
        vol = float(np.dot(counts, [np.abs(f.weights).sum() for f in table]))
        return integrals[dis.ids], vol, int(np.dot(counts, sizes)), \
            max(sizes)

    def floor(self, nxt: Disintegration) -> float:
        """A number at most float(l1_norm(nxt - mu)), mu the measure last
        seen; nxt becomes the measure last seen."""
        stats = self._stats(nxt)
        (i1, v1, t1, n1), (i0, v0, t0, n0) = stats, self.stats
        d = np.abs(i1 - i0)
        s = float(self.n * d if d.ndim == 0 else d.sum())
        vol = v1 + v0
        slack = 2 * (_DROP_TOL * min(t1, t0) + 3 * _BALANCE_RTOL * vol
                     + (4 * (n1 + n0) + self.n + 32) * _UNIT * (vol + s))
        self.stats = stats
        return s - slack


def invariant_measure(sys: SkewSystem, tol: float = 1e-6, n_max: int = 200,
                      eps_f: float | None = None, n_cells: int = 1024,
                      fiber_atoms: int = 256) -> InvariantResult:
    """Transfer iterates mu <- L mu from discretized Lebesgue, stopped on
    their own residual.

    Step n computes L mu and the residual l1_norm(L mu - mu) of the
    current mu; the loop stops once that residual is below tol or after
    n_max steps, and returns the mu whose residual was measured.  So
    converged means l1_norm(L mu - mu) < tol for the returned measure,
    and residual is that number (math.inf when n_max = 0), unless the
    mass drift exceeded 1e-9 and the measure was rescaled to mass 1.

    Every step is a transfer_step of one system at one N and eps_f, so
    its plan is built on the first step, and its layout only when the
    ids change (never, while the table holds one fiber).

    Systems with an OrbitBump(k, s > 0) whose rotation maps the orbit
    {i/k} to itself (theta k an integer) skip the exact residual on steps
    where a certified lower bound already proves it >= tol; the returned
    result is the same, bit for bit.  The bound: the flat norm is a dual
    norm, and phi(y) = -dist(y, {i/k}) has |phi| <= 1 and Lip 1, so with
    d_x = (L mu - mu)_x and I(f) = integral phi df per table fiber,
    S = sum_x |I(L mu)_x - I(mu)_x| <= sum_x ||d_x|| = R, and I(L mu)
    is kept for the next step.  phi is the bump's Lyapunov function and
    is rotation invariant, so S follows R closely (to about 8 digits on
    criterion 7).  The screen skips a step when the float S less
    slack = 2 (1e-15 P + 3e-12 V + (4 n + N + 32) u (V + S))
    is >= tol, with u = 2^-53, N cells, V = sum_x (|L mu_x|_1 +
    |mu_x|_1), P = min(sum_x #L mu_x, sum_x #mu_x) >= the number of
    atom pairs, and n = max_x #L mu_x + max_x #mu_x; a last step
    (steps == n_max) always gets the exact residual.  Each term bounds
    one gap between S and the computed residual, and the factor 2 covers
    their second-order products and the rounding of the slack itself:
      - phi and the dot products: phi is within 1.5u, so a computed I
        is within (n + 2) u |f|_1, and the N-term sum of differences adds
        (N + 2) u S (when L mu and mu are both one fiber, S is the one
        product N |I(L mu) - I(mu)|, which rounds once, by u S);
      - the float difference d~ of nxt - mu: each paired weight rounds
        once (u V in all), and pairs whose sum falls below 1e-15 are
        dropped (at most 1e-15 P);
      - w1_norm counts a fiber with |mass| <= 1e-12 |d~|_1 as balanced,
        an error of at most 2 |mass| (the 3e-12 V term);
      - its cumsum and dot of at most n terms, and l1_norm's products and
        math.fsum, round by at most (3 n + 24) u |d~|_1 in all.
    Before rounding, every closed form of w1_norm is the cost of a
    feasible transport (the balanced one at some median), so it is at
    least the flat norm of d~.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    sys.require_domination()
    mu = product_disintegration(n_cells,
                                uniform_fiber(fiber_atoms)).to_float()
    bump = _screen_bump(sys)
    screen = None if bump is None else _OrbitScreen(bump, mu)
    residual = math.inf
    steps = 0
    while steps < n_max:
        nxt = transfer_step(sys, mu, eps_f=eps_f)
        steps += 1
        if screen is None or steps == n_max or screen.floor(nxt) < tol:
            residual = float(l1_norm(nxt - mu))
            if residual < tol or steps == n_max:
                break
        mu = nxt
    drift = float(mu.mass()) - 1.0
    if abs(drift) > 1e-9:
        mu = mu.scale(1.0 / (1.0 + drift))
    return InvariantResult(mu, residual < tol, steps, residual, drift)


# -------------------------------------------------------------- LY checks

def ly_check(sys: SkewSystem, dis: Disintegration, p: float) -> float:
    """Margin rhs - lhs of the fiberwise variation inequality
    var_p(L mu) <= lambda^p alpha var_p(mu) + (H_hat + 3 q alpha C_h
    A^(xi-p)) sup|mu_x| for a positive measure, at the fiber family's
    A."""
    if any((f.weights < 0).any() for f in dis.table):
        raise ValueError("ly_check requires a positive measure")
    sys.require_domination()
    A = sys.fiber.A
    base = sys.base
    lam, alpha = base.lam, sys.fiber.alpha
    lhs = var_p(transfer_step(sys, dis, eps_f=0), p, A)
    sup = marginal_density(dis).sup_norm
    h_hat = sys.fiber.h_hat(p)
    extra = 3 * base.branch_count * alpha * base.c_h * A ** (base.xi - p)
    rhs = lam ** p * alpha * var_p(dis, p, A) + (h_hat + extra) * sup
    return rhs - lhs


# ------------------------------------------------------ operator distance

def operator_distance(pspec: PerturbationSpec, battery_size: int = 32,
                      seed: int = 0) -> float:
    """Empirical sup of ||(L0 - L_delta) f||_"1" over a seeded battery of
    unit p-BV measures on 64 cells; a lower estimate of the
    strong-to-weak operator distance."""
    eps_f = 2.0 ** -40
    battery = unit_pbv_battery(seed, battery_size, 64)
    best = 0.0
    for f in battery:
        d = l1_norm(transfer_step(pspec.reference, f, eps_f=eps_f)
                    - transfer_step(pspec.perturbed, f, eps_f=eps_f))
        best = max(best, float(d))
    return best

