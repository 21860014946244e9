"""Continued fractions, Diophantine type estimation, and exact dyadic
construction of the lacunary rotation angle.

Angles are exact rationals, or rational surrogates for irrational values
(golden mean, decimal strings).  Surrogate-backed angles carry a guard
`max_exact_k`: requests involving larger multiples are refused rather
than silently degraded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np

__all__ = [
    "AngleSpec",
    "ContinuedFraction",
    "TypeEstimate",
    "ApproximantPerturbation",
    "rational_angle",
    "decimal_angle",
    "golden_angle",
    "lacunary_theta",
    "continued_fraction",
    "nearest_integer_norm",
    "floor_log2",
    "local_exponent_dyadic",
    "linear_type_estimate",
    "approximant_perturbation",
]

LACUNARY_DEPTH_CAP = 4


@dataclass(frozen=True)
class AngleSpec:
    """A rotation angle in [0, 1) with provenance.

    `value` is the exact rational used in all computations.  For
    irrational provenances it is a surrogate and `max_exact_k` bounds the
    multiples k for which ||k theta|| is trusted.  `tail_bound` is the
    distance to the untruncated angle (lacunary truncations only).
    """

    value: Fraction
    provenance: str
    j_max: int | None = None
    tail_bound: Fraction = Fraction(0)
    max_exact_k: int | None = None

    def __post_init__(self):
        if not 0 <= self.value < 1:
            raise ValueError("angle must lie in [0, 1)")

    def check_multiple(self, k: int) -> None:
        if self.max_exact_k is not None and k > self.max_exact_k:
            raise ValueError(
                f"k = {k} exceeds the precision guard {self.max_exact_k} "
                f"of this {self.provenance} angle")


def rational_angle(p: int, q: int) -> AngleSpec:
    if q <= 0:
        raise ValueError("denominator must be positive")
    return AngleSpec(Fraction(p, q) % 1, "rational")


def decimal_angle(text: str, digits: int = 50) -> AngleSpec:
    # the string itself is exact, but is treated as a digits-accurate
    # stand-in for the intended angle
    value = Fraction(text) % 1
    return AngleSpec(value, "decimal", max_exact_k=10 ** (digits // 2))


def golden_angle() -> AngleSpec:
    # (sqrt(5) - 1) / 2 rounded down at 10^-60, exact for k up to 10^30
    b = 10 ** 60
    value = Fraction(isqrt(5 * b * b) - b, 2 * b)
    return AngleSpec(value, "golden", max_exact_k=10 ** 30)


def lacunary_theta(j_max: int) -> AngleSpec:
    """Truncation of sum_i 2^(-2^(2i)) with its exact tail bound."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if j_max > LACUNARY_DEPTH_CAP:
        raise ValueError(
            f"j_max = {j_max} refused: denominator needs 2^(2*{j_max}) bits "
            f"(cap {LACUNARY_DEPTH_CAP})")
    value = sum(Fraction(1, 2 ** (2 ** (2 * i))) for i in range(1, j_max + 1))
    tail = Fraction(1, 2 ** (2 ** (2 * (j_max + 1)) - 1))
    return AngleSpec(value, "lacunary", j_max=j_max, tail_bound=tail)


@dataclass(frozen=True)
class ContinuedFraction:
    quotients: list[int]
    convergents: list[tuple[int, int]]
    terminated: bool


def continued_fraction(theta: AngleSpec, depth: int,
                       q_cap: int | None = None) -> ContinuedFraction:
    """Partial quotients and convergents of theta, exact Euclid.

    Stops after `depth` quotients, or once a convergent denominator
    passes `q_cap`.  Surrogate-backed angles refuse depths whose
    convergents outrun the recorded precision.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    num, den = theta.value.numerator, theta.value.denominator
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    while den and len(quotients) < depth:
        a = num // den
        num, den = den, num - a * den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if theta.max_exact_k is not None and q > theta.max_exact_k ** 2:
            raise ValueError("requested depth exceeds angle precision")
        quotients.append(a)
        convergents.append((p, q))
        if q_cap is not None and q > q_cap:
            break
    return ContinuedFraction(quotients, convergents, terminated=(den == 0))


def nearest_integer_norm(k: int, theta: AngleSpec) -> Fraction:
    """||k theta||: distance from k*theta to the nearest integer."""
    if k < 1:
        raise ValueError("k must be >= 1")
    theta.check_multiple(k)
    frac = (k * theta.value) % 1
    return min(frac, 1 - frac)


def floor_log2(x: Fraction) -> int:
    if x <= 0:
        raise ValueError("x must be positive")
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** e > x:
        e -= 1
    return e


def local_exponent_dyadic(k: int, theta: AngleSpec) -> Fraction:
    """Leading-dyadic-exponent ratio log2(1/||k theta||) / log2(k), exact
    in rational arithmetic; k must be a power of two."""
    m = k.bit_length() - 1
    if k != 2 ** m or m == 0:
        raise ValueError("k must be a power of two, k >= 2")
    return Fraction(-floor_log2(nearest_integer_norm(k, theta)), m)


@dataclass(frozen=True)
class TypeEstimate:
    """Diophantine linear-type estimate from convergent denominators.

    gamma_hat is the least-squares slope of log(1/||q theta||) against
    log q; max_local_exponent is the monotone-in-K max of the per-sample
    ratios (it over-weights small denominators, see the ledger note).
    """

    gamma_hat: float
    K: int
    samples: list[tuple[int, float, float]] = field(repr=False)
    is_rational: bool
    c0: float
    max_local_exponent: float


def linear_type_estimate(theta: AngleSpec, K: int) -> TypeEstimate:
    if K < 2:
        raise ValueError("K must be >= 2")
    cf = continued_fraction(theta, depth=10_000, q_cap=K)
    if cf.terminated and cf.convergents[-1][1] <= K:
        # theta rational at this scale: ||q theta|| = 0 at its denominator
        return TypeEstimate(math.inf, K, [], True, 0.0, math.inf)
    samples = []
    for _, q in cf.convergents:
        if q > K:
            break
        if q < 2:
            continue
        norm = nearest_integer_norm(q, theta)
        if norm == 0:
            return TypeEstimate(math.inf, K, [], True, 0.0, math.inf)
        expo = math.log(1 / float(norm)) / math.log(q)
        samples.append((q, float(norm), expo))
    if len(samples) < 2:
        raise ValueError("not enough convergents below K for an estimate")
    xs = np.log([s[0] for s in samples])
    ys = np.log([1 / s[1] for s in samples])
    slope, intercept = np.polyfit(xs, ys, 1)
    return TypeEstimate(float(slope), K, samples, False,
                        float(np.exp(-intercept)),
                        max(s[2] for s in samples))


@dataclass(frozen=True)
class ApproximantPerturbation:
    delta: Fraction
    p: int
    k: int


def approximant_perturbation(theta: AngleSpec, j: int
                             ) -> ApproximantPerturbation:
    """delta_j = p_j/k_j - theta for the j-th rational approximant.

    Lacunary angles use the dyadic partial sums as approximants; other
    irrational angles use continued-fraction convergents.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if theta.provenance == "lacunary":
        if j > theta.j_max:
            raise ValueError(f"j = {j} beyond available depth {theta.j_max}")
        if j == theta.j_max:
            raise ValueError(
                f"j = {j} needs a deeper truncation: delta_j would be pure "
                f"tail; build lacunary_theta(j_max > {j})")
        partial = sum(Fraction(1, 2 ** (2 ** (2 * i))) for i in range(1, j + 1))
        k = partial.denominator
        p = partial.numerator
        delta = partial - theta.value
    else:
        if theta.provenance == "rational":
            raise ValueError("perturbations need an irrational angle")
        cf = continued_fraction(theta, depth=j + 1)
        if len(cf.convergents) <= j:
            raise ValueError(f"j = {j} beyond available depth")
        p, k = cf.convergents[j]
        delta = Fraction(p, k) - theta.value
    if delta == 0:
        raise ValueError(f"j = {j}: the {theta.provenance} angle "
                         f"{theta.value} is its own approximant, delta_j = 0")
    return ApproximantPerturbation(delta, p, k)
