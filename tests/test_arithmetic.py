"""Tests for continued fractions, type estimates and lacunary angles."""

import math
from fractions import Fraction as F

import pytest

from skewstab.arithmetic import (
    approximant_perturbation,
    continued_fraction,
    decimal_angle,
    floor_log2,
    golden_angle,
    lacunary_theta,
    linear_type_estimate,
    local_exponent_dyadic,
    nearest_integer_norm,
    rational_angle,
)


def test_golden_partial_quotients_all_one():
    cf = continued_fraction(golden_angle(), depth=30)
    assert cf.quotients[0] == 0
    assert all(a == 1 for a in cf.quotients[1:])
    assert not cf.terminated
    flat = cf.convergents
    for want in [(1, 2), (2, 3), (3, 5), (5, 8), (8, 13)]:
        assert want in flat


def test_one_third_terminates():
    cf = continued_fraction(rational_angle(1, 3), depth=10)
    assert cf.quotients == [0, 3]
    assert cf.terminated
    assert cf.convergents[-1] == (1, 3)


def test_lacunary_convergents_contain_partial_sums():
    cf = continued_fraction(lacunary_theta(3), depth=40)
    assert (1, 16) in cf.convergents
    assert (4097, 65536) in cf.convergents
    assert cf.terminated


def test_convergent_recurrences_hold():
    for theta in (golden_angle(), lacunary_theta(3)):
        cf = continued_fraction(theta, depth=25)
        p = [c[0] for c in cf.convergents]
        q = [c[1] for c in cf.convergents]
        a = cf.quotients
        for i in range(2, len(p)):
            assert p[i] == a[i] * p[i - 1] + p[i - 2]
            assert q[i] == a[i] * q[i - 1] + q[i - 2]


def test_convergent_quality():
    # strict inequality, except at the penultimate convergent of a
    # terminating expansion where the gap is exactly 1/(q q_next)
    for theta in (golden_angle(), lacunary_theta(3)):
        cf = continued_fraction(theta, depth=20)
        conv = cf.convergents
        for i, ((p, q), (_, q_next)) in enumerate(zip(conv[1:], conv[2:])):
            gap = abs(theta.value - F(p, q))
            if cf.terminated and i + 2 == len(conv) - 1:
                assert gap <= F(1, q * q_next)
            else:
                assert gap < F(1, q * q_next)


def test_nearest_integer_norm_values():
    assert nearest_integer_norm(3, rational_angle(1, 3)) == 0
    theta4 = lacunary_theta(4)
    expected = F(1, 2 ** 12) + F(1, 2 ** 60) + F(1, 2 ** 252)
    assert nearest_integer_norm(16, theta4) == expected
    golden = golden_angle()
    cf = continued_fraction(golden, depth=20)
    conv = cf.convergents
    for (_, q), (_, q_next) in zip(conv[1:], conv[2:]):
        assert nearest_integer_norm(q, golden) < F(1, q_next)


def test_precision_guard_refuses_large_multiples():
    golden = golden_angle()
    with pytest.raises(ValueError, match="precision guard"):
        nearest_integer_norm(10 ** 31, golden)
    narrow = decimal_angle("0.37", digits=2)
    with pytest.raises(ValueError, match="precision guard"):
        nearest_integer_norm(11, narrow)


def test_floor_log2():
    assert floor_log2(F(1, 8)) == -3
    assert floor_log2(F(3, 8)) == -2
    assert floor_log2(F(1)) == 0
    assert floor_log2(F(5, 4)) == 0
    assert floor_log2(F(2)) == 1
    assert floor_log2(F(1, 2 ** 48) + F(1, 2 ** 96)) == -48


def test_golden_type_estimate_near_one():
    est = linear_type_estimate(golden_angle(), K=10 ** 6)
    assert not est.is_rational
    assert 0.95 <= est.gamma_hat <= 1.05
    assert est.c0 > 0
    assert est.max_local_exponent >= est.gamma_hat
    assert len(est.samples) >= 20


def test_rational_type_estimate_flagged():
    est = linear_type_estimate(rational_angle(1, 3), K=100)
    assert est.is_rational
    assert math.isinf(est.gamma_hat)


def test_max_local_exponent_monotone_in_K():
    for theta in (golden_angle(), lacunary_theta(3)):
        prev = 0.0
        for K in (100, 10_000, 1_000_000):
            est = linear_type_estimate(theta, K)
            assert est.max_local_exponent >= prev - 1e-12
            prev = est.max_local_exponent


def test_lacunary_local_exponents_exactly_three():
    theta = lacunary_theta(3)
    for n in (1, 2):
        k = 2 ** (2 ** (2 * n))
        expo = local_exponent_dyadic(k, theta)
        assert isinstance(expo, F)
        assert expo == 3
    with pytest.raises(ValueError, match="power of two"):
        local_exponent_dyadic(12, theta)


def test_lacunary_theta_values():
    assert lacunary_theta(1).value == F(1, 16)
    assert lacunary_theta(2).value == F(4097, 65536)
    assert lacunary_theta(3).value == F(2 ** 60 + 2 ** 48 + 1, 2 ** 64)


def test_lacunary_depth_cap():
    with pytest.raises(ValueError, match="refused"):
        lacunary_theta(5)
    # the cap itself is accepted
    assert lacunary_theta(4).value.denominator == 2 ** 256


def test_lacunary_tail_bound_is_sound():
    t3 = lacunary_theta(3)
    t4 = lacunary_theta(4)
    gap = t4.value - t3.value
    assert 0 < gap <= t3.tail_bound


def test_approximant_perturbation_lacunary():
    theta = lacunary_theta(3)
    j1 = approximant_perturbation(theta, 1)
    assert (j1.p, j1.k) == (1, 16)
    assert j1.delta == F(1, 16) - theta.value
    assert j1.delta < 0
    assert theta.value + j1.delta == F(1, 16)
    assert abs(j1.delta) + theta.tail_bound <= F(1, j1.k) ** (2.5 - 1)
    j2 = approximant_perturbation(theta, 2)
    assert (j2.p, j2.k) == (4097, 65536)
    assert j2.delta == -F(1, 2 ** 64)
    assert math.gcd(j2.p, j2.k) == 1
    assert abs(j2.delta) + theta.tail_bound <= F(1, j2.k) ** (2.5 - 1)
    with pytest.raises(ValueError, match="deeper truncation"):
        approximant_perturbation(theta, 3)
    with pytest.raises(ValueError, match="beyond available depth"):
        approximant_perturbation(theta, 4)


def test_approximant_perturbation_golden():
    golden = golden_angle()
    pert = approximant_perturbation(golden, 5)
    assert (pert.p, pert.k) == (5, 8)
    assert float(pert.delta) == pytest.approx(0.0069660, abs=1e-6)
    assert abs(pert.delta) <= F(1, 64)
    assert abs(pert.delta) + golden.tail_bound <= F(1, pert.k) ** (3.0 - 1)
    with pytest.raises(ValueError, match="irrational"):
        approximant_perturbation(rational_angle(1, 3), 1)


def test_decimal_angle_roundtrip():
    assert decimal_angle("0.25").value == F(1, 4)
    est = linear_type_estimate(decimal_angle("0.5"), K=100)
    assert est.is_rational


def test_angle_domain_checked():
    with pytest.raises(ValueError, match="denominator"):
        rational_angle(1, 0)
