"""Tests for the exact dense-tableau simplex solver."""

from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import linprog

from skewstab.simplex import SimplexError, solve_simplex


def test_small_lp_float():
    # float entries convert exactly, and the optimum comes back as Fractions
    value, x = solve_simplex([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0])
    assert value == F(14, 5)
    assert x == [F(8, 5), F(6, 5)]


def test_small_lp_exact():
    value, x = solve_simplex([F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]],
                             [F(4), F(6)])
    assert value == F(14, 5)
    assert x == [F(8, 5), F(6, 5)]


def test_beale_degenerate_terminates():
    # classic cycling example; Bland's rule must terminate at 1/20
    c = [F(3, 4), F(-150), F(1, 50), F(-6)]
    A = [[F(1, 4), F(-60), F(-1, 25), F(9)],
         [F(1, 2), F(-90), F(-1, 50), F(3)],
         [F(0), F(0), F(1), F(0)]]
    value, _ = solve_simplex(c, A, [F(0), F(0), F(1)])
    assert value == F(1, 20)


def test_zero_objective():
    value, x = solve_simplex([0, 0], [[1, 1]], [1])
    assert value == 0


def test_unbounded_detected():
    with pytest.raises(SimplexError, match="unbounded"):
        solve_simplex([1], [[-1]], [1])


def test_negative_rhs_rejected():
    with pytest.raises(SimplexError, match="right-hand side"):
        solve_simplex([1], [[1]], [-1])


def test_agrees_with_scipy_on_seeded_lps():
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        A = rng.uniform(-1, 2, (m, n))
        b = rng.uniform(0.1, 2, m)
        c = rng.uniform(-1, 1, n)
        res = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        try:
            value, _ = solve_simplex(c, A, b)
        except SimplexError:
            assert res.status == 3
            continue
        assert res.status == 0
        assert float(value) == pytest.approx(-res.fun, abs=1e-8)
        solved += 1
    assert solved > 50


def test_exact_matches_float():
    # integer programs given as floats and as Fractions have one optimum
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        A = rng.integers(-3, 5, (m, n))
        b = rng.integers(1, 6, m)
        c = rng.integers(-3, 4, n)
        exact = ([F(int(v)) for v in c], [[F(int(v)) for v in row] for row in A],
                 [F(int(v)) for v in b])
        try:
            vf, _ = solve_simplex(c.astype(float), A.astype(float),
                                  b.astype(float))
        except SimplexError:
            with pytest.raises(SimplexError):
                solve_simplex(*exact)
            continue
        ve, _ = solve_simplex(*exact)
        assert vf == ve
