"""Small dense exact simplex solver behind measures._w1_tableau, the exact
reference that the tests compare w1_norm with.

Solves  max c.x  subject to  A x <= b, x >= 0  with b >= 0, so the slack
basis is feasible and no phase-one step is needed.  Every entry converts
to fractions.Fraction (floats exactly), so the optimum is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class SimplexError(Exception):
    pass


def solve_simplex(c: Sequence, A: Sequence[Sequence], b: Sequence,
                  max_pivots: int = 20000):
    """Return (optimal value, x) for max c.x s.t. A x <= b, x >= 0, in
    Fractions.

    Requires b >= 0.  Uses Bland's rule, so it terminates on degenerate
    programs.
    """
    m = len(A)
    n = len(c)
    if any(Fraction(v) < 0 for v in b):
        raise SimplexError("negative right-hand side")
    # m constraint rows [A | I | b], then the objective row [-c | 0 | 0]
    T = [[Fraction(v) for v in A[i]] + [Fraction(int(j == i)) for j in range(m)]
         + [Fraction(b[i])] for i in range(m)]
    T.append([-Fraction(v) for v in c] + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))

    for _ in range(max_pivots):
        # Bland: entering = lowest index with negative reduced cost
        enter = next((j for j in range(n + m) if T[m][j] < 0), -1)
        if enter < 0:
            break
        # ratio test, Bland tie-break on leaving basic variable index
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise SimplexError("unbounded program")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m + 1):
            f = T[i][enter]
            if i != leave and f != 0:
                T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
        basis[leave] = enter
    else:
        raise SimplexError("pivot limit exceeded")

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return T[m][-1], x
