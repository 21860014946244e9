"""Quantitative stability bounds and the counterexample laboratory.

Three layers: the abstract bound calculator (rate-function inversion,
Holder exponents), decay-of-equilibrium experiments on skew systems, and
the explicit periodic-orbit counterexample constructions with their
exact lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arithmetic import AngleSpec, approximant_perturbation, lacunary_theta
from .dynamics import (
    PerturbationSpec,
    SkewSystem,
    composite_family,
    linear_base,
    transfer_step,
    translation_family,
)
from .measures import (
    Disintegration,
    l1_norm,
    lebesgue_disintegration,
    product_disintegration,
    uniform_fiber,
)

__all__ = [
    "PowerLaw",
    "TabulatedRate",
    "StabilityBudget",
    "psi_inverse",
    "stability_bound",
    "holder_exponent",
    "decay_rate_formula",
    "DecaySeries",
    "equilibrium_decay",
    "SweepRow",
    "SweepTable",
    "stability_sweep",
    "PropBahhSystem",
    "prop_bahh_system",
    "Prop30Report",
    "prop30_example",
]

_X_LO, _X_HI = 1.0, 2.0 ** 60
# largest fiber (2 k_j atoms) prop_bahh_system builds
FIBER_ATOM_BUDGET = 2 ** 18


# ------------------------------------------------------- rate functions

@dataclass(frozen=True)
class PowerLaw:
    """phi(x) = C * x^(-alpha), strictly decreasing to 0."""

    C: float
    alpha: float

    def __post_init__(self):
        if not (0 < self.C < math.inf and 0 < self.alpha < math.inf):
            raise ValueError("power law needs finite C > 0 and alpha > 0")

    def __call__(self, x: float) -> float:
        return self.C * float(x) ** (-self.alpha)


@dataclass(frozen=True)
class TabulatedRate:
    """Strictly decreasing samples of phi; evaluated by log-log
    interpolation between nodes."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        xs, ys = np.asarray(self.xs, float), np.asarray(self.ys, float)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("phi table values must be finite")
        if len(xs) != len(ys):
            raise ValueError(f"phi table has {len(xs)} xs but {len(ys)} ys")
        if len(xs) < 2 or xs[0] <= 0 or np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be positive (phi is interpolated in "
                             "log-log) and strictly increasing")
        if np.any(np.diff(ys) >= 0) or np.any(ys <= 0):
            raise ValueError("phi must be strictly decreasing and positive")

    def __call__(self, x: float) -> float:
        lx = np.log(np.clip(x, self.xs[0], self.xs[-1]))
        return float(np.exp(np.interp(lx, np.log(self.xs),
                                      np.log(self.ys))))


@dataclass(frozen=True)
class StabilityBudget:
    """Constants of the abstract two-system comparison: phi bounds the
    convergence to equilibrium of the reference, M_tilde the strong
    norms of both fixed points, C_tilde the weak-norm iterate bound,
    epsilon the strong-to-weak operator distance."""

    phi: object
    M_tilde: float
    C_tilde: float
    epsilon: float

    def __post_init__(self):
        vals = (self.M_tilde, self.C_tilde, self.epsilon)
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ValueError("budget constants must be finite and >= 0")


def _psi(phi, x: float) -> float:
    return phi(x) / x


def psi_inverse(phi, y: float) -> float:
    """Solve psi(x) = phi(x)/x = y on [1, 2^60]; psi is strictly
    decreasing so bisection applies; power laws invert in closed form."""
    if y <= 0:
        raise ValueError("y must be positive")
    if isinstance(phi, PowerLaw):
        x = (phi.C / y) ** (1.0 / (phi.alpha + 1.0))
        if not _X_LO <= x <= _X_HI:
            raise ValueError("y outside the range of psi")
        return x
    lo, hi = _X_LO, _X_HI
    if y > _psi(phi, lo) * (1 + 1e-12):
        raise ValueError("y outside the range of psi")
    if y < _psi(phi, hi):
        raise ValueError("y outside the range of psi")
    while hi - lo > 1e-9 * lo:
        mid = 0.5 * (lo + hi)
        if _psi(phi, mid) >= y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stability_bound(budget: StabilityBudget) -> float:
    """2 * M~ * C~ * eps * (psi^{-1}(eps * C~ / 2) + 1)."""
    eps = budget.epsilon
    if eps == 0:
        return 0.0
    x = psi_inverse(budget.phi, eps * budget.C_tilde / 2.0)
    return 2.0 * budget.M_tilde * budget.C_tilde * eps * (x + 1.0)


def holder_exponent(alpha: float) -> float:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return 1.0 - 1.0 / (alpha + 1.0)


def decay_rate_formula(gamma: float, observable_class) -> float:
    """Decay exponent for the mixing-rate upper bounds: 1/(2 gamma) for
    Lipschitz observables, max(p, q, p+q-d)/(2 gamma) for the mixed
    Holder class (p, q, d)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if observable_class == "lipschitz":
        return 1.0 / (2.0 * gamma)
    kind, *params = observable_class
    if kind != "holder" or len(params) != 3:
        raise ValueError("observable class must be 'lipschitz' or "
                         "('holder', p, q, d)")
    p, q, d = params
    return max(p, q, p + q - d) / (2.0 * gamma)


# ----------------------------------------------------------- decay series

@dataclass(frozen=True)
class DecaySeries:
    ns: tuple
    norms: tuple
    description: str
    slope: float | None
    intercept: float | None


def _tail_fit(ns, norms):
    start = len(ns) // 2
    xs, ys = [], []
    for n, v in zip(ns[start:], norms[start:]):
        if n > 0 and v > 0:
            xs.append(math.log(n))
            ys.append(math.log(v))
    if len(xs) < 2:
        return None, None
    if len(set(ys)) == 1:
        # a flat tail: polyfit would report its rounding as a slope
        return 0.0, ys[0]
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def equilibrium_decay(sys: SkewSystem, g: Disintegration, n_max: int,
                      eps_f: float = 2.0 ** -16) -> DecaySeries:
    """Record ||L^n g||_"1" for n = 0..n_max for a zero-mass g.

    eps_f keeps the signed atom clouds bounded by snapping the atoms down
    to the eps_f-grid every step, so a rotation fiber turns by theta_eff =
    floor(theta / eps_f) * eps_f, not theta, and the error accumulates
    over n: on golden at eps_f = 2^-16 (N = 256) it is 9.5e-6, 8.3e-5 and
    6.0e-5 at n = 100, 400 and 1600 (against eps_f = 1e-13), not the
    eps_f * |g| = 3.05e-5 of a single snap.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if abs(float(g.mass())) > 1e-12:
        raise ValueError("not in V_s: input must have zero total mass")
    norms = [max(0.0, float(l1_norm(g)))]
    cur = g
    for _ in range(n_max):
        cur = transfer_step(sys, cur, eps_f=eps_f)
        norms.append(max(0.0, float(l1_norm(cur))))
    ns = tuple(range(n_max + 1))
    slope, intercept = _tail_fit(ns, norms)
    description = f"zero-mass disintegration on {g.n_cells} cells"
    return DecaySeries(ns, tuple(norms), description, slope, intercept)


# ---------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class SweepRow:
    delta: float
    distance: float
    lower_bound: float | None
    upper_bound_fit: float


@dataclass(frozen=True)
class SweepTable:
    """Rows in decreasing delta; the last one, the smallest delta, is
    the anchor that K is fitted on."""

    rows: tuple
    beta: float | None
    K: float

    def upper_ok(self) -> list[bool | None]:
        """Per row, whether the distance is within the fitted upper
        shape; None on the anchor row, which meets it by construction."""
        return [r.distance <= r.upper_bound_fit * (1 + 1e-9) + 1e-15
                for r in self.rows[:-1]] + [None]

    def lower_ok(self) -> list[bool | None]:
        """Per row, whether the distance is at least the lower bound;
        None where no lower bound was evaluated (no gamma_prime)."""
        return [None if r.lower_bound is None
                else r.distance >= r.lower_bound - 1e-15 for r in self.rows]


def stability_sweep(pairs: list, gamma: float,
                    gamma_prime: float | None = None) -> SweepTable:
    """Distances ||f_delta - f_0||_"1", given as (delta, distance) pairs,
    against the Holder upper-bound shape K * delta^(1/(8 gamma + 1)) (K
    fitted on the smallest delta) and, when gamma_prime is given, the
    counterexample lower bound (1/9) * delta^(1/(gamma_prime - 1)) (None
    otherwise)."""
    if not pairs:
        raise ValueError("empty family")
    if not (1 <= gamma < math.inf
            and (gamma_prime is None or 1 < gamma_prime < math.inf)):
        raise ValueError(f"need a finite gamma >= 1 (the linear type of an "
                         f"irrational angle) and a finite gamma_prime > 1, "
                         f"got {gamma} and {gamma_prime}")
    points = sorted(((float(d), float(x)) for d, x in pairs), reverse=True)
    deltas = [d for d, _ in points]
    if len(set(deltas)) != len(deltas):
        raise ValueError("delta values must be distinct")
    if not all(d > 0 for d in deltas):
        raise ValueError("delta values must be positive")

    exponent = 1.0 / (8.0 * gamma + 1.0)
    K = points[-1][1] / points[-1][0] ** exponent
    rows = tuple(
        SweepRow(delta, dist,
                 None if gamma_prime is None
                 else delta ** (1.0 / (gamma_prime - 1.0)) / 9.0,
                 K * delta ** exponent)
        for delta, dist in points)

    pts = [(math.log(r.delta), math.log(r.distance))
           for r in rows if r.distance > 0]
    beta = None
    if len(pts) >= 2:
        beta = float(np.polyfit([p[0] for p in pts],
                                [p[1] for p in pts], 1)[0])
    return SweepTable(rows, beta, K)


# --------------------------------------------------- periodic-orbit example

@dataclass(frozen=True)
class PropBahhSystem:
    """The attracting-periodic-orbit perturbation of a translation skew
    product, with its exact invariant measures on n_cells cells (built
    on first use) and closed-form distance."""

    pspec: PerturbationSpec
    j: int
    k: int
    delta: Fraction
    closed_form_distance: Fraction
    deformation_scale: float
    n_cells: int

    @cached_property
    def mu_reference(self) -> Disintegration:
        """Exact Lebesgue, 2 k atoms per fiber: invariant for the
        reference rotation."""
        return lebesgue_disintegration(self.n_cells, 2 * self.k, exact=True)

    @cached_property
    def mu_orbit(self) -> Disintegration:
        """m (x) the uniform measure on the period-k orbit of 0: invariant
        for the perturbed system."""
        return product_disintegration(self.n_cells, uniform_fiber(self.k))


def prop_bahh_system(theta: AngleSpec, j: int,
                     deformation_scale: float = 4.0, n_cells: int = 64
                     ) -> PropBahhSystem:
    """Perturb translation by theta to the rational p_j/k_j composed
    with a deformation attracting the period-k_j orbit of 0.

    The perturbed rotation amount is exactly p_j/k_j (theta + delta_j by
    construction), so the orbit product measures are exactly invariant.
    The deformation strength is |delta_j| * deformation_scale: the
    paper-scale size |delta_j| times a configurable gain that sets the
    attraction rate of the orbit; it must be finite and > 0.
    """
    if not 0 < deformation_scale < math.inf:
        raise ValueError(
            f"deformation_scale must be finite and > 0, got "
            f"{deformation_scale}: at 0 the perturbed system is the bare "
            f"rotation by p_j/k_j, which attracts no orbit")
    pert = approximant_perturbation(theta, j)
    k = pert.k
    if 2 * k > FIBER_ATOM_BUDGET:
        raise ValueError(
            f"k_{j} = {k} needs {2 * k} fiber atoms, exceeding the budget "
            f"of 2^18 = {FIBER_ATOM_BUDGET} atoms")
    size = abs(pert.delta)
    fam0 = translation_family(theta.value)
    fam_d = composite_family(Fraction(pert.p, pert.k), size, k,
                             scale=deformation_scale)
    reference = SkewSystem(linear_base(2), fam0)
    perturbed = SkewSystem(linear_base(2), fam_d)
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    pspec = PerturbationSpec(reference, perturbed, float(size))
    return PropBahhSystem(pspec, j, k, pert.delta, Fraction(1, 4 * k),
                          deformation_scale, n_cells)


# ----------------------------------------------------------- observable

# frequencies 2^(2^(2i)) and squared amplitudes 2^(-2^(2i+1)), i = 1..4
_OBS_TERMS = tuple(
    (i, 2 ** (2 ** (2 * i)), Fraction(1, 2 ** (2 ** (2 * i + 1))))
    for i in (1, 2, 3, 4))

_EXACT_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 2): Fraction(-1),
    Fraction(1, 4): Fraction(0),
    Fraction(3, 4): Fraction(0),
    Fraction(1, 3): Fraction(-1, 2),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(5, 6): Fraction(1, 2),
}


def _cos_sum_exact(res: np.ndarray, w: np.ndarray, q: int, r: int):
    """Sum of (w / r) * cos(2 pi res / q) over phase groups (sorted
    distinct residues res, weight numerators w), or None when no exact
    route applies."""
    L = len(res)
    if L > 1 and (w == w[0]).all() and \
            (L * (res - res[0]) == q * np.arange(L, dtype=object)).all():
        # full coset of L-th roots of unity: cosines cancel exactly
        return Fraction(0)
    # every tabulated phase has a denominator dividing 12
    if (12 * res % q == 0).all():
        cos = [_EXACT_COS.get(Fraction(x, q)) for x in res.tolist()]
        if None not in cos:
            return sum((c * x for c, x in zip(cos, w.tolist())),
                       Fraction(0)) / r
    return None


def _term_value(fm, freq: int):
    """integral of cos(2 pi freq y) against one exact fiber measure, with
    the phases reduced mod 1 in rational arithmetic before the cosine, so
    cancellations at magnitudes ~2^-32 are exact."""
    if len(fm) == 0:
        return Fraction(0)
    # phases freq * y mod 1 as integer residues over q, grouped
    q = fm.q
    res = (freq % q) * fm.positions % q
    order = np.argsort(res, kind="stable")
    res = res[order]
    starts = np.flatnonzero(np.concatenate(([True], res[1:] != res[:-1])))
    res, w = res[starts], np.add.reduceat(fm.weights[order], starts)
    val = _cos_sum_exact(res, w, q, fm.r)
    if val is not None:
        return val
    # int / int true division rounds correctly, like float(Fraction)
    return float(math.fsum(
        (x / fm.r) * math.cos(2 * math.pi * (p / q))
        for p, x in zip(res.tolist(), w.tolist())))


# sup-norm of the observable's terms beyond the four modeled ones (the
# analytic remainder of the full series is below 2^-2046)
_PROP30_TAIL_BOUND = Fraction(2, 2 ** 2048)


@dataclass(frozen=True)
class Prop30Report:
    j: int
    k: int
    delta: Fraction
    value: Fraction
    term_values: tuple
    lebesgue_value: Fraction
    tail_bound: Fraction
    bound_half_amplitude: Fraction
    bound_sqrt_delta: float
    half_amplitude_ok: bool
    sqrt_delta_ok: bool


def prop30_example(j: int) -> Prop30Report:
    """The observable averaged against the orbit measure mu_j (Lebesgue
    on the base times the uniform measure on the period-k_j orbit of 0),
    with the lower bounds it certifies; j <= 2 (j = 3 needs period 2^64
    orbits, out of desk scale, refused).

    Its Lebesgue average is 0: every term is cos(2 pi f y) with an
    integer frequency f >= 1, whose integral over the circle vanishes,
    so this holds for all four terms."""
    if j not in (1, 2):
        raise ValueError(
            f"j = {j} needs period 2^(2^{2 * j}) orbits; refused as out of "
            f"desk scale (supported: j in {{1, 2}})")
    theta = lacunary_theta(3)
    pert = approximant_perturbation(theta, j)
    # mu_j has the same fiber over every base point
    fm = uniform_fiber(pert.k)
    terms = [amp * _term_value(fm, freq) for _, freq, amp in _OBS_TERMS]
    value = sum(terms, Fraction(0))

    amp_j = _OBS_TERMS[j - 1][2]
    half_amp = amp_j / 2
    sqrt_delta = 0.9 * math.sqrt(abs(float(pert.delta)))
    return Prop30Report(
        j, pert.k, pert.delta, value, tuple(terms), Fraction(0),
        _PROP30_TAIL_BOUND, half_amp, sqrt_delta,
        value >= half_amp, float(value) >= sqrt_delta)
