"""Closed-form orthant probabilities validated against quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from orthant_quadrature import bvn_cdf, orthant_3d
from spherefield.orthant import orthant_2d, orthant_3d_arcsine


def orthant_2d_quadrature(rho: float) -> float:
    """Brute-force oracle: integrate the bivariate density over the orthant."""
    det = 1.0 - rho * rho

    def density(y, x):
        return math.exp(-0.5 * (x * x - 2 * rho * x * y + y * y) / det) / (
            2 * math.pi * math.sqrt(det)
        )

    val, err = dblquad(density, 0, 9, 0, 9, epsabs=1e-9)
    return val


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, -0.7, 0.99, -0.99])
def test_sheppard_matches_quadrature(rho):
    assert abs(orthant_2d(rho) - orthant_2d_quadrature(rho)) < 1e-6


def test_sheppard_special_values():
    assert orthant_2d(0.0) == 0.25
    assert abs(orthant_2d(1.0) - 0.5) < 1e-15
    assert abs(orthant_2d(-1.0)) < 1e-15


def test_bvn_cdf_against_independent_product():
    for h in (-1.3, 0.0, 0.4, 2.0):
        for k in (-0.5, 0.0, 1.1):
            ref = (
                0.5 * (1 + math.erf(h / math.sqrt(2)))
                * 0.5 * (1 + math.erf(k / math.sqrt(2)))
            )
            assert abs(bvn_cdf(h, k, 0.0) - ref) < 1e-12


def test_bvn_cdf_symmetry_and_monotonicity():
    assert abs(bvn_cdf(0.3, -0.2, 0.6) - bvn_cdf(-0.2, 0.3, 0.6)) < 1e-14
    vals = [bvn_cdf(h, 0.5, -0.4) for h in (-2, -1, 0, 1, 2)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_orthant_3d_matches_arcsine_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(3, 5))
        cov = a @ a.T
        s = np.sqrt(np.diag(cov))
        corr = cov / np.outer(s, s)
        assert abs(orthant_3d(cov) - orthant_3d_arcsine(corr)) < 1e-7


def test_orthant_3d_monte_carlo_sanity():
    cov = np.array([[2.0, -1.0, 0.3], [-1.0, 1.5, 0.2], [0.3, 0.2, 1.0]])
    rng = np.random.default_rng(1)
    draws = rng.multivariate_normal(np.zeros(3), cov, size=400_000)
    mc = float(np.mean(np.all(draws > 0, axis=1)))
    assert abs(orthant_3d(cov) - mc) < 4 * math.sqrt(mc * (1 - mc) / 400_000)
    s = np.sqrt(np.diag(cov))
    corr = cov / np.outer(s, s)
    assert abs(orthant_3d_arcsine(corr) - mc) < 4 * math.sqrt(mc * (1 - mc) / 400_000)


def test_orthant_3d_rejects_singular_conditioning():
    # perfectly correlated with the conditioning coordinate
    cov = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        orthant_3d(cov)
