"""Quadrature route to trivariate orthant probabilities, kept as a test oracle.

The library evaluates P(X1 > 0, X2 > 0, X3 > 0) with the arcsine closed form.
This module reaches the same value independently: it conditions on the third
coordinate and integrates the conditional bivariate CDF, evaluated in closed
form through Owen's T function, with adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import owens_t
from scipy.stats import norm

_RHO_CAP = 1.0 - 1e-12


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k) for standard bivariate normal, via Owen's T."""
    rho = min(max(rho, -_RHO_CAP), _RHO_CAP)
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    s = math.sqrt(1.0 - rho * rho)
    # guard the removable singularities of the T arguments at h=0 or k=0
    hh = h if h != 0.0 else math.copysign(1e-300, 1.0)
    kk = k if k != 0.0 else math.copysign(1e-300, 1.0)
    t1 = owens_t(hh, (kk - rho * hh) / (hh * s))
    t2 = owens_t(kk, (hh - rho * kk) / (kk * s))
    delta = 0.0 if h * k > 0 or (h * k == 0.0 and (h + k) >= 0.0) else 0.5
    return 0.5 * (norm.cdf(h) + norm.cdf(k)) - t1 - t2 - delta


def orthant_3d(cov: np.ndarray, epsabs: float = 1e-9) -> float:
    """P(X1 > 0, X2 > 0, X3 > 0) for a centered trivariate normal.

    Conditions on the third coordinate and integrates the conditional
    bivariate upper-orthant probability with adaptive quadrature.
    """
    cov = np.asarray(cov, dtype=float)
    s = np.sqrt(np.diag(cov))
    if np.any(s <= 0):
        raise ValueError("covariance must have positive diagonal")
    corr = cov / np.outer(s, s)
    r12, r13, r23 = corr[0, 1], corr[0, 2], corr[1, 2]
    v1 = 1.0 - r13 * r13
    v2 = 1.0 - r23 * r23
    if v1 <= 0 or v2 <= 0:
        raise ValueError("covariance is singular in the conditioning direction")
    # conditional correlation of (X1, X2) given X3
    rc = (r12 - r13 * r23) / math.sqrt(v1 * v2)

    def integrand(t: float) -> float:
        # P(X1 > 0, X2 > 0 | X3 = t) = BVN CDF at the standardized means
        h = r13 * t / math.sqrt(v1)
        k = r23 * t / math.sqrt(v2)
        return norm.pdf(t) * bvn_cdf(h, k, rc)

    val, _ = quad(integrand, 0.0, 9.0, epsabs=epsabs, epsrel=0.0, limit=200)
    return val
