"""Orthant probabilities of centered Gaussian vectors, in closed form.

Dimension 2 is Sheppard's arcsine formula. Dimension 3 is its classical
extension, 1/8 plus the sum of the three pairwise arcsines over 4 pi. Both
are exact up to floating-point roundoff.
"""

from __future__ import annotations

import math

import numpy as np


def orthant_2d(rho: float) -> float:
    """P(X > 0, Y > 0) for standard bivariate normal with correlation rho."""
    rho = min(max(rho, -1.0), 1.0)
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def orthant_3d_arcsine(corr: np.ndarray) -> float:
    """P(X1 > 0, X2 > 0, X3 > 0) for a centered trivariate normal with
    correlation matrix corr: 1/8 + sum of pairwise arcsines / (4 pi)."""
    corr = np.asarray(corr, dtype=float)
    return 0.125 + (
        math.asin(corr[0, 1]) + math.asin(corr[0, 2]) + math.asin(corr[1, 2])
    ) / (4.0 * math.pi)
