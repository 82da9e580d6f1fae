"""The rational linear algebra layer: minors, span projections, snapping."""

from fractions import Fraction as F

import numpy as np
import pytest

from exact_oracle import ldlt, snap_dyadic, solve_posdef
from spherefield.exact import (
    _span_products,
    leading_minors,
    snap_sq_dist,
    snap_sq_dist_floor,
)


def random_rational_symmetric(rng, n, max_den=16):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = F(1)
        for j in range(i + 1, n):
            v = F(int(rng.integers(-max_den, max_den + 1)), int(rng.integers(1, max_den + 1)))
            v = max(min(v, F(99, 100)), F(-99, 100))
            m[i][j] = m[j][i] = v
    return m


def test_minors_match_ldlt_pivots_on_pd_matrices():
    # two independent exact routes must produce identical pivots
    rng = np.random.default_rng(1)
    found = 0
    while found < 25:
        g = random_rational_symmetric(rng, int(rng.integers(1, 7)))
        minors, stop = leading_minors(g)
        if stop is not None:
            continue
        found += 1
        pivots = [m / p for m, p in zip(minors, [F(1)] + minors[:-1])]
        L, d = ldlt(g)
        assert pivots == d
        # reconstruct L D L^T exactly
        n = len(g)
        for i in range(n):
            for j in range(n):
                got = sum(L[i][k] * L[j][k] * d[k] for k in range(n))
                assert got == g[i][j]


def test_minors_early_stop_matches_float_determinants():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_rational_symmetric(rng, int(rng.integers(2, 7)))
        minors, stop = leading_minors(g)
        gf = np.array([[float(v) for v in row] for row in g])
        for k, m in enumerate(minors):
            det = np.linalg.det(gf[: k + 1, : k + 1])
            assert abs(det - float(m)) < 1e-8 * max(1.0, abs(det))
        if stop is not None:
            assert minors[stop] <= 0
            assert all(m > 0 for m in minors[:stop])


def test_ldlt_raises_on_nonpositive_pivot():
    g = [[F(1), F(1)], [F(1), F(1)]]
    with pytest.raises(ArithmeticError):
        ldlt(g)


def test_solve_posdef_exact():
    rng = np.random.default_rng(3)
    found = 0
    while found < 20:
        n = int(rng.integers(1, 6))
        g = random_rational_symmetric(rng, n)
        minors, stop = leading_minors(g)
        if stop is not None:
            continue
        found += 1
        rhs = [F(int(rng.integers(-5, 6)), int(rng.integers(1, 7))) for _ in range(n)]
        x = solve_posdef(g, rhs)
        for i in range(n):
            assert sum(g[i][j] * x[j] for j in range(n)) == rhs[i]


def test_span_products_match_oracle_solves():
    # g21 g11^-1 g12 through the Bareiss rows and through LDL^T solves
    rng = np.random.default_rng(4)
    found = 0
    while found < 25:
        n = int(rng.integers(1, 7))
        g = random_rational_symmetric(rng, n)
        if leading_minors(g)[1] is not None:
            continue
        found += 1
        for k in range(n + 1):
            g11 = [row[:k] for row in g[:k]]
            w = {j: solve_posdef(g11, [g[a][j] for a in range(k)]) for j in range(k, n)}
            expect = [[sum((g[i][a] * w[j][a] for a in range(k)), F(0))
                       for j in range(k, n)] for i in range(k, n)]
            rows = [row[:k] for row in g[k:]]
            assert _span_products(g11, rows, rows) == expect
            # probes and points apart: only the probe x point block
            half = (n - k) // 2
            assert _span_products(g11, rows[half:], rows[:half]) == [
                row[half:] for row in expect[:half]
            ]


def test_span_products_edge_cases():
    g = [[F(1), F(1, 3)], [F(1, 3), F(1, 2)]]
    assert _span_products([], [[], []], [[], []]) == [[0, 0], [0, 0]]
    assert _span_products(g, [], []) == []
    assert _span_products(g, [], [[F(1), F(0)]]) == [[]]
    assert _span_products(g, [[F(1), F(0)]], []) == []
    assert _span_products([[F(1)]], [[F(1, 3)]], [[F(1, 3)]]) == [[F(1, 9)]]
    singular = [[F(1), F(1), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    rows = [row[:1] for row in singular[1:]]
    assert _span_products([[F(1)]], rows, rows) == [[F(1), F(0)], [F(0), F(0)]]
    g11 = [row[:2] for row in singular[:2]]
    for points in ([], [singular[2][:2]]):
        with pytest.raises(ArithmeticError):
            _span_products(g11, points, points)
        with pytest.raises(ArithmeticError):
            _span_products([[F(-1)]], [[F(0)] for _ in points], [[F(0)] for _ in points])


def test_empty_matrix_is_trivially_pd():
    minors, stop = leading_minors([])
    assert minors == [] and stop is None


def test_snapping():
    assert snap_dyadic(0.5, 4) == F(1, 2)
    assert snap_dyadic(0.3, 2) == F(1, 4)
    assert snap_sq_dist(0.0, 8) == F(1, 256)  # clamped into (0, 4)
    assert snap_sq_dist(7.0, 8) == F(4) - F(1, 256)
    x = 1.73
    assert snap_sq_dist_floor(x, 20) <= F(x)  # never exceeds the float
    assert abs(float(snap_sq_dist(x, 32)) - x) <= 2.0**-32
