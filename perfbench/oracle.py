"""Exact positive-definiteness oracle for the correctness gates.

It is written apart from spherefield's own certification code, so that a
change to that code cannot also change the judge of its outputs. It
decides membership the same way the library documents it: the polarized
Gram matrix 1 - d^2/2 must have only positive leading principal minors.
"""

from __future__ import annotations

import math
from fractions import Fraction


def leading_minors(sq) -> list[Fraction]:
    """Leading principal minors of the Gram matrix of a squared-distance
    matrix, up to and including the first non-positive one."""
    n = len(sq)
    gram = [[Fraction(1) if i == j else 1 - Fraction(sq[i][j]) / 2 for j in range(n)]
            for i in range(n)]
    scale = 1
    for row in gram:
        for v in row:
            scale = math.lcm(scale, v.denominator)
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in gram]
    minors = []
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        minors.append(Fraction(pivot, scale ** (k + 1)))
        if pivot <= 0:
            break
        # the trailing block stays symmetric, so only its upper half is kept
        # and a[k][i] stands in for a[i][k]
        row_k = a[k]
        for i in range(k + 1, n):
            aki, row_i = row_k[i], a[i]
            for j in range(i, n):
                row_i[j] = (pivot * row_i[j] - aki * row_k[j]) // prev
        prev = pivot
    return minors


def pivots(sq) -> list[Fraction]:
    """LDL^T pivots M_k / M_{k-1}; the last one is non-positive for a non-member."""
    out, prev = [], Fraction(1)
    for m in leading_minors(sq):
        out.append(m / prev)
        prev = m
    return out


def is_member(sq) -> bool:
    p = pivots(sq)
    return len(p) == len(sq) and all(v > 0 for v in p)
