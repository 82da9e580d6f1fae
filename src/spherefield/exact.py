"""Exact rational linear algebra used by the certification layer.

Positive-definiteness is decided over the rationals, never in floating
point: the leading principal minors are computed with fraction-free
(Bareiss) elimination on an integer-scaled copy of the matrix, so the only
big-number operations are integer multiply and exact divide. The same
elimination, stopped after k steps, gives the exact Schur complement over
the leading k x k block: every projection onto a common span that the
constructions need comes from one such complement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

FracMatrix = tuple[tuple[Fraction, ...], ...]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and [num, den] pairs to Fraction; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        num, den = value
        if isinstance(num, int) and isinstance(den, int):
            return Fraction(num, den)
    raise TypeError(f"expected an exact rational, got {value!r}")


def frac_to_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def freeze_matrix(rows) -> FracMatrix:
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


def _integer_scaled(g: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Return (L*g as integers, L) where L is the lcm of all denominators."""
    scale = 1
    for row in g:
        for v in row:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
    m = [[int(v * scale) for v in row] for row in g]
    return m, scale


def _eliminate(a: list[list[int]], steps: int) -> tuple[list[int], int | None]:
    """Run `steps` symmetric Bareiss steps on the integer matrix `a`, in place.

    Pivot k is det(a[:k+1, :k+1]). After k steps every entry of the trailing
    block a[k:, k:] is the determinant of the leading k x k block bordered by
    its row and column (Sylvester's identity), so each division is exact.
    Returns (pivots, stop): stop is the index of the first non-positive
    pivot, where elimination halts, or None.
    """
    n = len(a)
    pivots: list[int] = []
    prev = 1
    for k in range(steps):
        piv = a[k][k]
        pivots.append(piv)
        if piv <= 0:
            return pivots, k
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(i, n):
                row_i[j] = (row_i[j] * piv - aik * row_k[j]) // prev
            for j in range(k + 1, i):
                row_i[j] = a[j][i]
        prev = piv
    return pivots, None


def leading_minors(g: Sequence[Sequence[Fraction]]) -> tuple[list[Fraction], int | None]:
    """Leading principal minors of a symmetric rational matrix.

    Fraction-free elimination; stops at the first non-positive minor.
    Returns (minors, stop) where minors[k] = det of the (k+1)x(k+1) leading
    block. stop is the index of the first non-positive minor, or None when
    every minor is positive (the matrix is positive definite by Sylvester's
    criterion).
    """
    a, scale = _integer_scaled(g)
    pivots, stop = _eliminate(a, len(a))
    return [Fraction(p, scale ** (k + 1)) for k, p in enumerate(pivots)], stop


def schur_complement(g: Sequence[Sequence[Fraction]], k: int) -> list[list[Fraction]]:
    """Exact g[k:,k:] - g[k:,:k] g[:k,:k]^-1 g[:k,k:] of a symmetric rational g.

    Runs k elimination steps; each trailing entry is then divided, once, by
    the scaled determinant of the leading block. Raises ArithmeticError when
    g[:k,:k] is not positive definite.
    """
    a, scale = _integer_scaled(g)
    pivots, stop = _eliminate(a, k)
    if stop is not None:
        raise ArithmeticError(f"leading block not positive definite: pivot {stop} is <= 0")
    den = scale * (pivots[-1] if k else 1)
    return [[Fraction(v, den) for v in row[k:]] for row in a[k:]]


def pivots_from_minors(minors: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """LDL^T pivots d_k = M_k / M_{k-1} from the leading minors."""
    out = []
    prev = Fraction(1)
    for m in minors:
        out.append(m / prev)
        prev = m
    return tuple(out)


def snap_sq_dist(x: float, bits: int) -> Fraction:
    """Snap a squared distance into the open interval (0, 4) on the dyadic grid."""
    q = 1 << bits
    n = round(x * q)
    n = min(max(n, 1), 4 * q - 1)
    return Fraction(n, q)


def snap_sq_dist_floor(x: float, bits: int) -> Fraction:
    """Snap a squared distance downward (never exceeding x); stays positive."""
    q = 1 << bits
    n = math.floor(x * q)
    n = min(max(n, 1), 4 * q - 1)
    return Fraction(n, q)
