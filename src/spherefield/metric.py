"""Finite pointed unit-sphere metric spaces and their exact membership certificates.

A space is stored as the exact rational matrix of squared pairwise
distances between points on the unit sphere; the base point at the origin
is implicit (at distance exactly 1 from every point, never stored).
Membership in the hereditary class of such spaces in general position is
equivalent to the polarized Gram matrix being positive definite, decided
exactly; float coordinates are the certificate's exact factor, rounded.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import MalformedSpaceError, NotMemberError, PrecisionError, SnapError
from .errors import UnrealizableTypeError
from .exact import (
    FracMatrix,
    _border,
    as_fraction,
    frac_to_pair,
    freeze_matrix,
    snap_sq_dist,
)

FOUR = Fraction(4)


@dataclass(frozen=True)
class SpaceDistances:
    """Candidate member of the class: labels plus exact squared distances.

    Off-diagonal entries must be positive rationals. Certified members
    always satisfy 0 < d^2 < 4 (distance in (0, 2), no antipodal pairs);
    the boundary and beyond are representable so that certification can
    reject them with an explicit witness.
    """

    labels: tuple[str, ...]
    sq_dist: FracMatrix
    _cert: GramMatrix | Rejection | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _base: SpaceDistances | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "sq_dist", freeze_matrix(self.sq_dist))
        n = len(self.labels)
        if len(self.sq_dist) != n or any(len(row) != n for row in self.sq_dist):
            raise MalformedSpaceError(f"sq_dist must be a full {n}x{n} matrix")
        if len(set(self.labels)) != n:
            raise MalformedSpaceError("labels must be unique")
        for i in range(n):
            if self.sq_dist[i][i] != 0:
                raise MalformedSpaceError(f"diagonal entry at {i} must be exactly 0")
            for j in range(i + 1, n):
                v = self.sq_dist[i][j]
                if v != self.sq_dist[j][i]:
                    raise MalformedSpaceError(f"sq_dist not symmetric at ({i},{j})")
                if v <= 0:
                    raise MalformedSpaceError(
                        f"off-diagonal sq_dist[{i}][{j}] = {v} must be positive"
                    )

    @property
    def n(self) -> int:
        return len(self.labels)

    def restrict(self, indices: Sequence[int]) -> "SpaceDistances":
        """Principal sub-space on the given point indices (order preserved)."""
        idx = list(indices)
        return SpaceDistances(
            labels=tuple(self.labels[i] for i in idx),
            sq_dist=tuple(tuple(self.sq_dist[i][j] for j in idx) for i in idx),
        )


@dataclass(frozen=True)
class GramMatrix:
    """Exact inner-product matrix of a space; unit diagonal, |off-diagonal| < 1.

    `pd_certificate`, when set, holds the exact LDL^T pivots (all > 0):
    L diag(d) L^T reproduces the matrix exactly, and `_bareiss` keeps the
    rows B (L[i][k] = B[i][k] / B[k][k]) and scale of its elimination for
    extensions to border onto and the float factor to round. A space's
    certificate is computed at most once per instance and stored on it.
    """

    g: FracMatrix
    pd_certificate: tuple[Fraction, ...] | None = None
    _bareiss: tuple = field(default=((), 1), init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "g", freeze_matrix(self.g))
        n = len(self.g)
        for i in range(n):
            if self.g[i][i] != 1:
                raise MalformedSpaceError("Gram diagonal must be exactly 1")
            for j in range(i + 1, n):
                if self.g[i][j] != self.g[j][i]:
                    raise MalformedSpaceError("Gram matrix not symmetric")
                if abs(self.g[i][j]) >= 1:
                    raise MalformedSpaceError(
                        "off-diagonal Gram entries must have absolute value < 1"
                    )
        if self.pd_certificate is not None:
            object.__setattr__(
                self, "pd_certificate", tuple(as_fraction(p) for p in self.pd_certificate)
            )

    @property
    def n(self) -> int:
        return len(self.g)


@dataclass(frozen=True)
class Rejection:
    """Witness that a candidate is not a member: first non-positive LDL^T pivot.

    `leading_minor` is the exact determinant of the (pivot_index+1)-point
    leading principal block, which is <= 0.
    """

    pivot_index: int
    leading_minor: Fraction


@dataclass(frozen=True)
class EmbeddedSpace:
    """Floating-point unit-sphere coordinates realizing a certified space."""

    coords: np.ndarray
    tol: float

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def sq_distances(self) -> np.ndarray:
        d = self.coords[:, None, :] - self.coords[None, :, :]
        return np.einsum("ijk,ijk->ij", d, d)


@dataclass(frozen=True)
class PartialIsometry:
    """Index correspondence between two spaces that preserves sq_dist exactly."""

    domain_indices: tuple[int, ...]
    codomain_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain_indices", tuple(int(i) for i in self.domain_indices))
        object.__setattr__(self, "codomain_indices", tuple(int(i) for i in self.codomain_indices))
        if len(self.domain_indices) != len(self.codomain_indices):
            raise ValueError("index lists must have equal length")


def polarize(sq: Fraction) -> Fraction:
    """Inner product of two unit vectors from their squared distance: 1 - d^2/2."""
    return 1 - sq / 2


def gram_entries(space: SpaceDistances) -> FracMatrix:
    """Polarized entries 1 - d^2/2 with no range restriction (internal use)."""
    n = space.n
    return tuple(
        tuple(Fraction(1) if i == j else polarize(space.sq_dist[i][j]) for j in range(n))
        for i in range(n)
    )


def gram_from_distances(space: SpaceDistances) -> GramMatrix:
    """Exact Gram matrix of a well-formed space via polarization.

    Rejects any off-diagonal squared distance outside (0, 4): such a value
    cannot arise between distinct, non-antipodal unit vectors.
    """
    n = space.n
    for i in range(n):
        for j in range(i + 1, n):
            v = space.sq_dist[i][j]
            if not (0 < v < FOUR):
                raise MalformedSpaceError(
                    f"sq_dist[{i}][{j}] = {v} outside (0, 4); not realizable on the unit sphere"
                )
    return GramMatrix(g=gram_entries(space))


def certify_membership(space: SpaceDistances) -> GramMatrix | Rejection:
    """Decide membership exactly: PD certificate or a rejection witness.

    Returns the Gram matrix carrying its exact LDL^T pivots (all > 0) on
    acceptance; on rejection returns the index of the first non-positive
    pivot with the exact leading principal minor (a result, not an error).
    Either is computed at most once per (frozen) instance and stored on it;
    an `extend_space` result borders only its new rows onto its base's.
    """
    pending = [space]  # uncertified bases first, oldest first, without recursion
    while pending[-1]._cert is None and pending[-1]._base is not None:
        pending.append(pending[-1]._base)
    for s in reversed(pending):
        if s._cert is None:
            cert = s._base._cert if s._base is not None else GramMatrix((), ())
            if isinstance(cert, GramMatrix):
                new = [[polarize(d) for d in row[:j]] + [Fraction(1)]
                       for j, row in enumerate(s.sq_dist) if j >= cert.n]
                cert = _extend_certificate(cert, new)
            object.__setattr__(s, "_cert", cert)
            object.__setattr__(s, "_base", None)
    return space._cert


def _rows(cert: GramMatrix):
    """cert's Bareiss rows and scale; from one elimination if it has pivots only."""
    if len(cert._bareiss[0]) < cert.n:
        rows, scale, _ = _border((), 1, [row[: j + 1] for j, row in enumerate(cert.g)])
        object.__setattr__(cert, "_bareiss", (rows, scale))
    return cert._bareiss


def _factor(cert: GramMatrix) -> np.ndarray:
    """L sqrt(D) rounded entry by entry: C[i][k] = B[i][k] / B[k][k] * sqrt(d_k)."""
    rows = _rows(cert)[0]
    roots = [math.sqrt(d) for d in cert.pd_certificate]
    out = np.zeros((cert.n, cert.n))
    for i, row in enumerate(rows):
        out[i, : i + 1] = [b / rows[k][k] * roots[k] for k, b in enumerate(row)]
    return out


def _extend_certificate(cert: GramMatrix, new) -> GramMatrix | Rejection:
    """cert's matrix bordered by the lower Gram rows `new`: certificate or rejection."""
    rows, scale, stop = _border(*_rows(cert), new)
    if stop is not None:
        return Rejection(stop, Fraction(rows[stop][stop], scale ** (stop + 1)))
    g = [list(row) for row in cert.g]
    for row in new:
        g = [g_row + [v] for g_row, v in zip(g, row)] + [list(row)]
    pivots = cert.pd_certificate + tuple(
        Fraction(rows[k][k], scale * (rows[k - 1][k - 1] if k else 1))
        for k in range(cert.n, len(rows))
    )
    out = GramMatrix(g=g, pd_certificate=pivots)
    object.__setattr__(out, "_bareiss", (rows, scale))
    return out


def _border_point(cert: GramMatrix, dists, what: str) -> GramMatrix:
    """cert bordered by one point at squared distances `dists`, or UnrealizableTypeError."""
    bordered = _extend_certificate(cert, [[polarize(d) for d in dists] + [Fraction(1)]])
    if isinstance(bordered, Rejection):
        msg = f"{what} not realizable: non-positive pivot at index {bordered.pivot_index}"
        raise UnrealizableTypeError(msg, bordered)
    return bordered


def _store_certificate(space: SpaceDistances, cert) -> None:
    """Store a derived certificate on `space`: a bordered GramMatrix, or
    LDL^T pivots; AssertionError unless n pivots, all > 0."""
    if not isinstance(cert, GramMatrix):
        cert = GramMatrix(g=gram_entries(space), pd_certificate=cert)
    pivots = cert.pd_certificate
    if cert.n != space.n or len(pivots) != space.n or any(p <= 0 for p in pivots):
        raise AssertionError(f"{len(pivots)} pivots for {space.n} points, or a pivot <= 0")
    object.__setattr__(space, "_cert", cert)
    object.__setattr__(space, "_base", None)


def is_member(space: SpaceDistances) -> bool:
    return isinstance(certify_membership(space), GramMatrix)


def require_member(space: SpaceDistances, what: str, error=NotMemberError) -> GramMatrix:
    """Certificate of `space`; raises `error` carrying the rejection witness."""
    cert = certify_membership(space)
    if isinstance(cert, Rejection):
        raise error(f"{what} is not a certified member: {cert}", cert)
    return cert


def extend_space(space: SpaceDistances, to_old, among, names) -> SpaceDistances:
    """`space` followed by one new point per entry of `names`.

    to_old[t][i] is the squared distance from new point t to old point i,
    among[t][s] the one between new points t and s (the diagonal is
    ignored). A name that is already taken gets primes appended. The
    result is not certified here; it remembers `space`, to border onto it.
    """
    labels = list(space.labels)
    used = set(labels)
    for name in names:
        while name in used:
            name += "'"
        used.add(name)
        labels.append(name)
    m = len(names)
    rows = [list(row) + [to_old[t][i] for t in range(m)] for i, row in enumerate(space.sq_dist)]
    rows += [
        list(to_old[t]) + [Fraction(0) if s == t else among[t][s] for s in range(m)]
        for t in range(m)
    ]
    out = SpaceDistances(labels=tuple(labels), sq_dist=rows)
    object.__setattr__(out, "_base", space)
    return out


def snap_and_certify(
    build: Callable[[list[Fraction]], SpaceDistances],
    values: Sequence[float],
    denom_bits: int,
    snap=snap_sq_dist,
) -> tuple[SpaceDistances, list[Fraction]]:
    """Snap float `values` onto a dyadic grid and certify `build(snapped)`.

    Tries grids of denom_bits times 1, 2, 4 and 8 bits and returns the
    first certified (space, snapped values). It stops early once a finer
    grid moves no snapped value, because the same matrix gets the same
    verdict; from 64 bits up every squared distance >= 2^-12 snaps to the
    float itself. Raises SnapError when no grid certifies.
    """
    snapped = None
    for rung in range(4):
        bits = denom_bits << rung
        finer = [snap(v, bits) for v in values]
        if finer == snapped:
            break
        snapped = finer
        space = build(snapped)
        cert = certify_membership(space)
        if isinstance(cert, GramMatrix):
            return space, snapped
        tried = bits
    raise SnapError(f"snapped matrix failed re-certification up to {tried} bits: {cert}")


def embed(space: SpaceDistances, tol: float = 1e-9) -> EmbeddedSpace:
    """Unit-sphere coordinates (n rows in n dimensions) realizing the space.

    The coordinates are the rows of the exact factor L sqrt(D) of the Gram
    matrix, read from the certificate's Bareiss rows and rounded entry by
    entry; no float matrix is factored. Raises NotMemberError when
    certification fails and PrecisionError when a row norm or the
    squared-distance round-trip error exceeds tol.
    """
    cert = require_member(space, "space")
    if space.n == 0:
        return EmbeddedSpace(coords=np.zeros((0, 0)), tol=tol)
    emb = EmbeddedSpace(coords=_factor(cert), tol=tol)
    if np.max(np.abs(np.linalg.norm(emb.coords, axis=1) - 1.0)) > tol:
        raise PrecisionError("embedded row norms deviate from 1 beyond tol")
    exact = np.array([[float(v) for v in row] for row in space.sq_dist], dtype=float)
    err = np.max(np.abs(emb.sq_distances() - exact))
    if err > tol:
        raise PrecisionError(f"embedding round-trip error {err:.3e} exceeds tol")
    return emb


def verify_isometry(a: SpaceDistances, b: SpaceDistances, mapping: PartialIsometry) -> bool:
    """True iff corresponding squared distances agree exactly as rationals."""
    dom, cod = mapping.domain_indices, mapping.codomain_indices
    for i in dom:
        if not 0 <= i < a.n:
            raise IndexError(f"domain index {i} out of range")
    for j in cod:
        if not 0 <= j < b.n:
            raise IndexError(f"codomain index {j} out of range")
    k = len(dom)
    return all(
        a.sq_dist[dom[p]][dom[q]] == b.sq_dist[cod[p]][cod[q]]
        for p in range(k)
        for q in range(k)
    )


# ---------------------------------------------------------------------------
# file format: {"labels": [...], "sq_dist": [[[num, den], ...], ...]}
# ---------------------------------------------------------------------------

def space_to_json(space: SpaceDistances) -> dict:
    return {
        "labels": list(space.labels),
        "sq_dist": [[frac_to_pair(v) for v in row] for row in space.sq_dist],
    }


def space_from_json(obj: dict) -> SpaceDistances:
    try:
        labels = obj["labels"]
        rows = obj["sq_dist"]
    except (KeyError, TypeError) as exc:
        raise MalformedSpaceError("space file must contain 'labels' and 'sq_dist'") from exc
    try:
        sq = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    except (TypeError, ZeroDivisionError) as exc:
        raise MalformedSpaceError(f"bad rational entry: {exc}") from exc
    return SpaceDistances(labels=tuple(labels), sq_dist=sq)


def _space_bytes(space: SpaceDistances) -> bytes:
    return (json.dumps(space_to_json(space), sort_keys=True) + "\n").encode()


def save_space(space: SpaceDistances, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_space_bytes(space))


def load_space(path) -> SpaceDistances:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedSpaceError(f"invalid JSON: {exc}") from exc
    return space_from_json(obj)


def space_hash(space: SpaceDistances) -> str:
    return hashlib.sha256(_space_bytes(space)[:-1]).hexdigest()  # the file without its newline


def space_from_sq(sq, labels=None) -> SpaceDistances:
    """Convenience constructor; auto-labels points p0, p1, ..."""
    rows = freeze_matrix(sq)
    if labels is None:
        labels = tuple(f"p{i}" for i in range(len(rows)))
    return SpaceDistances(labels=tuple(labels), sq_dist=rows)


def empty_space() -> SpaceDistances:
    return SpaceDistances(labels=(), sq_dist=())


def certificate_to_json(cert: GramMatrix | Rejection, space: SpaceDistances) -> dict:
    """Serialized certificate or rejection witness in the rational pair encoding."""
    out: dict = {"space_hash": space_hash(space), "n": space.n}
    if isinstance(cert, GramMatrix):
        out["member"] = True
        out["pivots"] = [frac_to_pair(p) for p in cert.pd_certificate]
    else:
        out["member"] = False
        out["pivot_index"] = cert.pivot_index
        out["leading_minor"] = frac_to_pair(cert.leading_minor)
    return out
