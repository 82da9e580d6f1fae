"""Rational LDL^T and solves, kept as an independent test oracle.

The library does all exact elimination with fraction-free Bareiss steps
(`spherefield.exact`). This module reaches the same pivots, solves and
projections by a different route, Fraction arithmetic in a textbook
LDL^T, so the two can be compared entry for entry. `snap_dyadic` is plain
rounding to the dyadic grid, without the clamping of `snap_sq_dist`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def ldlt(g: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Full rational LDL^T of a positive definite matrix.

    Returns (L, d) with unit lower-triangular L and positive pivots d such
    that L diag(d) L^T equals g exactly. Raises ArithmeticError on a
    non-positive pivot; use `leading_minors` when rejection is an expected
    outcome.
    """
    n = len(g)
    L = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    d: list[Fraction] = []
    for j in range(n):
        dj = g[j][j] - sum(L[j][k] * L[j][k] * d[k] for k in range(j))
        if dj <= 0:
            raise ArithmeticError(f"non-positive pivot {dj} at index {j}")
        d.append(dj)
        for i in range(j + 1, n):
            s = g[i][j] - sum(L[i][k] * L[j][k] * d[k] for k in range(j))
            L[i][j] = s / dj
    return L, d


def solve_posdef(g: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Exact solution of g x = rhs for symmetric positive definite rational g."""
    L, d = ldlt(g)
    n = len(rhs)
    y = list(rhs)
    for i in range(n):
        y[i] -= sum(L[i][k] * y[k] for k in range(i))
    for i in range(n):
        y[i] /= d[i]
    for i in reversed(range(n)):
        y[i] -= sum(L[k][i] * y[k] for k in range(i + 1, n))
    return y


def snap_dyadic(x: float, bits: int) -> Fraction:
    """Round a float to the nearest multiple of 2^-bits."""
    q = 1 << bits
    return Fraction(round(x * q), q)
