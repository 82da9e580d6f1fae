"""Exact rational linear algebra used by the certification layer.

Positive-definiteness is decided over the rationals, never in floating
point, by fraction-free (Bareiss) elimination in bordering form: each
integer-scaled row takes its steps against the rows stored before it, with
only integer multiply and exact divide. Certificates keep these rows, so an
extension borders only its new rows; a row stopped after a span's k steps
gives its projection onto that span.
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


def _scaled(row, scale: int) -> list[int]:
    return [v.numerator * (scale // v.denominator) for v in row]


def _eliminate(rows: list, new: Sequence[list[int]], steps: int | None = None) -> int | None:
    """Border each integer row x of `new` onto the stored Bareiss rows.

    Step t updates column c of x with multiplier B[c][t] (x[t] on x's own
    diagonal, column len(rows)); each entry is a bordered minor, so each
    division is exact. By default x takes a step per stored row and is
    appended; the loop stops at the first non-positive diagonal and returns
    its index (else None). With `steps`, x only takes that many, in place.
    """
    for x in new:
        j, prev = len(rows), 1
        for t in range(j if steps is None else steps):
            piv, xt = rows[t][t], x[t]
            for c in range(t + 1, min(len(x), j)):
                x[c] = (piv * x[c] - xt * rows[c][t]) // prev
            if len(x) > j:
                x[j] = (piv * x[j] - xt * xt) // prev
            prev = piv
        if steps is None:
            rows.append(tuple(x))
            if x[j] <= 0:
                return j
    return None


def _border(rows: Sequence[tuple[int, ...]], scale: int, new: Sequence[Sequence[Fraction]]):
    """Border lower rational rows onto Bareiss rows at `scale`: (rows, scale, stop).
    If `new` needs a scale u times finer, stored rows are rescaled by u^(k+1)."""
    fine = math.lcm(scale, *(v.denominator for row in new for v in row))
    powers = [(fine // scale) ** (k + 1) for k in range(len(rows))]
    rows = [tuple(v * p for v, p in zip(row, powers)) for row in rows] if fine > scale else [*rows]
    stop = _eliminate(rows, [_scaled(row, fine) for row in new])
    return tuple(rows), fine, stop


def leading_minors(g: Sequence[Sequence[Fraction]]) -> tuple[list[Fraction], int | None]:
    """Leading principal minors of a symmetric rational matrix up to the first
    non-positive one: (minors, stop), minors[k] the det of the leading
    (k+1)x(k+1) block, stop that minor's index or None (positive definite)."""
    rows, scale, stop = _border((), 1, [row[: j + 1] for j, row in enumerate(g)])
    return [Fraction(row[k], scale ** (k + 1)) for k, row in enumerate(rows)], stop


def _span_products(g_span, points, probes) -> list[list[Fraction]]:
    """<proj p, proj q> onto a span (of Gram matrix g_span) for each probe row p
    and point row q, rows holding inner products with the span's basis. Point
    rows take the k steps of the span's rows; probe rows, with a zero column
    per point, take them against both, leaving -det(g_span) <proj p, proj q>
    in q's column. ArithmeticError when g_span is not positive definite."""
    k = len(g_span)
    scale = math.lcm(*(v.denominator for row in [*points, *probes] for v in row))
    span, scale, stop = _border((), scale, [row[: j + 1] for j, row in enumerate(g_span)])
    if stop is not None:
        raise ArithmeticError(f"span Gram matrix not positive definite: pivot {stop} is <= 0")
    pts = [_scaled(row, scale) for row in points]
    _eliminate(span, pts, k)
    crossed = [_scaled(row, scale) + [0] * len(pts) for row in probes]
    _eliminate([*span, *pts], crossed, k)
    den = -scale * (span[-1][-1] if k else 1)
    return [[Fraction(v, den) for v in row[k:]] for row in crossed]


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
