"""Reproducible random number generation.

Standard normals come from a counter-based Philox stream through an
explicit Box-Muller transform, so a (seed, shape, offset) triple fully
determines the output. Bit-exact reproducibility is promised for a fixed
build of this package and its maths libraries, not across library
versions. Workers can partition a sampling job by drawing disjoint row
ranges: row blocks consume a fixed stride of the underlying stream.
"""

from __future__ import annotations

import numpy as np


def _stride_per_row(cols: int) -> int:
    # one uniform per normal, padded up to whole 4-double Philox blocks so
    # row offsets land exactly on counter boundaries
    return 4 * ((cols + 3) // 4)


def normal_matrix(seed: int, rows: int, cols: int, row_offset: int = 0) -> np.ndarray:
    """(rows, cols) of iid standard normals, deterministic in (seed, row_offset).

    `normal_matrix(s, r, c, k)` equals rows [k, k+r) of `normal_matrix(s, k+r, c)`.
    """
    if rows < 0:
        raise ValueError("rows must be nonnegative")
    if cols <= 0:
        return np.empty((rows, max(cols, 0)))
    bitgen = np.random.Philox(key=seed)
    stride = _stride_per_row(cols)
    if row_offset:
        bitgen.advance(row_offset * (stride // 4))
    gen = np.random.Generator(bitgen)
    # Box-Muller in place: r and the angle are half-width each, so at most two
    # (rows, stride) arrays are alive at once
    u = gen.random((rows, stride // 2, 2))
    r = np.negative(u[..., 0])
    np.log1p(r, out=r)  # 1-u in (0,1], log finite
    r *= -2.0
    np.sqrt(r, out=r)
    ang = u[..., 1] * (2.0 * np.pi)
    del u
    z = np.empty((rows, stride))
    np.cos(ang, out=z[:, 0::2])
    z[:, 0::2] *= r
    np.sin(ang, out=z[:, 1::2])
    z[:, 1::2] *= r
    del r, ang
    return np.ascontiguousarray(z[:, :cols])


def random_unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform points on the unit sphere of R^dim (rows)."""
    v = rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # resample the measure-zero degenerate draws
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms
