"""Constructive geometry of one-point extensions over a finite configuration C.

The points at prescribed exact distances from C form a round 2-sphere:
C is embedded in dim |C| and exactly three orthogonal coordinates are
adjoined, so the locus is always a genuine 2-sphere of radius rho with
rho^2 = 1 - |center|^2, where center is the projection of any realization
onto span(C). Everything emitted back into the exact layer (pair spaces,
rotation triples, connectedness witnesses, chains) is snapped onto the
dyadic rational grid and re-certified; membership is verified, never
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PrecisionError, SearchError, SnapError, UnrealizableTypeError
from .exact import as_fraction, snap_sq_dist_floor
from .sampling import random_unit_vectors
from .metric import (
    EmbeddedSpace,
    SpaceDistances,
    _border_point,
    _factor,
    embed,
    extend_space,
    require_member,
    snap_and_certify,
)


@dataclass(frozen=True)
class TypeSphere:
    """Sphere of realizations of a distance profile over the base configuration."""

    space: SpaceDistances          # the configuration C
    dists: tuple[Fraction, ...]    # prescribed squared distances to C
    base: EmbeddedSpace            # C embedded in |C|+3 ambient dimensions
    center: np.ndarray             # projection of any realization onto span(C)
    radius_sq: float
    radius_sq_exact: Fraction
    orth_basis: np.ndarray         # 3 orthonormal ambient vectors orthogonal to span(C)
    tol: float

    def __post_init__(self):
        c = np.array(self.center, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        b = np.array(self.orth_basis, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "orth_basis", b)

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_sq)

    @property
    def ambient_dim(self) -> int:
        return self.center.shape[0]


def type_sphere(
    C: SpaceDistances, dists_to_C, tol: float = 1e-9
) -> TypeSphere:
    """Construct the realization sphere for the profile `dists_to_C` over C.

    Requires C certified and the extended configuration C u {x} certified
    (strictly positive definite); otherwise the profile is not realizable
    and UnrealizableTypeError carries the pivot witness. rho^2 is the bordered
    pivot; if the profile's row is r = L D l, the centre is sqrt(D) l, that
    row of the bordered factor rounded like `embed`'s coordinates. Raises
    PrecisionError when `embed(C)` does, or 1 - |center|^2 drifts from rho^2.
    """
    dists = tuple(as_fraction(d) for d in dists_to_C)
    if len(dists) != C.n:
        raise ValueError(f"expected {C.n} prescribed distances, got {len(dists)}")
    if any(d < 0 for d in dists):
        raise ValueError("prescribed squared distances must be nonnegative")
    cert = require_member(C, "base configuration", UnrealizableTypeError)
    bordered = _border_point(cert, dists, "profile")
    rho_sq_exact = bordered.pd_certificate[-1]
    n = C.n

    base = EmbeddedSpace(coords=np.pad(embed(C, tol=tol).coords, ((0, 0), (0, 3))), tol=tol)
    center = np.pad(_factor(bordered)[n, :n], (0, 3))
    radius_sq = 1.0 - float(center @ center)
    if abs(radius_sq - float(rho_sq_exact)) > max(tol, 1e-8):
        raise PrecisionError(
            f"float radius^2 {radius_sq} drifts from exact {float(rho_sq_exact)}"
        )
    orth = np.eye(n + 3)[n:]
    return TypeSphere(
        space=C,
        dists=dists,
        base=base,
        center=center,
        radius_sq=radius_sq,
        radius_sq_exact=rho_sq_exact,
        orth_basis=orth,
        tol=tol,
    )


def realize_type(ts: TypeSphere, direction) -> np.ndarray:
    """Point of the sphere in ambient coordinates: center + rho * direction.

    `direction` is a unit 3-vector expressed in the orthogonal basis.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError("direction must be a 3-vector in the orthogonal subspace")
    norm = np.linalg.norm(d)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"direction must be normalized (|d| = {norm})")
    return ts.center + ts.radius * (d / norm) @ ts.orth_basis


def _orth_coords(ts: TypeSphere, p: np.ndarray) -> np.ndarray:
    return ts.orth_basis @ np.asarray(p, dtype=float)


def _check_on_sphere(ts: TypeSphere, p: np.ndarray, name: str) -> np.ndarray:
    """Validate p lies on the sphere (radius and subspace); return orth coords of p - center."""
    p = np.asarray(p, dtype=float)
    u_full = p - ts.center
    u = _orth_coords(ts, p) - _orth_coords(ts, ts.center)
    tol = max(ts.tol, 1e-9)
    if abs(np.linalg.norm(u_full) - ts.radius) > 1e3 * tol * max(1.0, ts.radius):
        raise ValueError(f"{name} is not on the sphere (radius mismatch)")
    if np.linalg.norm(u_full - u @ ts.orth_basis) > 1e3 * tol:
        raise ValueError(f"{name} is not on the sphere (leaves the orthogonal subspace)")
    return u


def sphere_angle(ts: TypeSphere, p, q) -> float:
    """Central angle between two points of the sphere."""
    u = _check_on_sphere(ts, p, "p")
    v = _check_on_sphere(ts, q, "q")
    c = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.acos(min(max(c, -1.0), 1.0))


def rotate_about_axis(ts: TypeSphere, x, y, theta: float) -> np.ndarray:
    """Image of x under rotation of the sphere about the axis through y.

    Orientation is fixed right-handed with respect to orth_basis. Raises
    when x and y are coincident or antipodal on the sphere (axis through y
    leaves x with no well-defined rotation plane, or x sits on the axis).
    """
    u = _check_on_sphere(ts, x, "x")
    a = _check_on_sphere(ts, y, "y")
    a = a / np.linalg.norm(a)
    u_par = a * float(a @ u)
    u_perp = u - u_par
    if np.linalg.norm(u_perp) <= 1e-9 * ts.radius:
        raise ValueError("x and y coincident or antipodal on the sphere: axis undefined")
    rotated = (
        u * math.cos(theta)
        + np.cross(a, u) * math.sin(theta)
        + u_par * (1.0 - math.cos(theta))
    )
    return ts.center + rotated @ ts.orth_basis


def epsilon_threshold(ts: TypeSphere, x, y) -> float:
    """The displacement |x(pi) - x| of the half-turn about the axis through y."""
    x = np.asarray(x, dtype=float)
    moved = rotate_about_axis(ts, x, y, math.pi)
    return float(np.linalg.norm(moved - x))


def solve_theta_for_distance(
    ts: TypeSphere, x, y, target_sq, theta_tol: float = 1e-12
) -> float:
    """Angle theta in (0, pi) with |x(theta) - x|^2 equal to target_sq.

    The displacement is continuous and strictly increasing in theta, so
    plain bisection converges; target_sq must lie strictly between 0 and
    the squared threshold epsilon^2.
    """
    target = float(target_sq)
    eps = epsilon_threshold(ts, x, y)
    if not (0.0 < target < eps * eps):
        raise ValueError(f"target_sq must lie strictly in (0, {eps * eps})")
    x = np.asarray(x, dtype=float)

    def moved_sq(theta: float) -> float:
        d = rotate_about_axis(ts, x, y, theta) - x
        return float(d @ d)

    lo, hi = 0.0, math.pi
    while hi - lo > theta_tol:
        mid = 0.5 * (lo + hi)
        if moved_sq(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _over_profile(ts: TypeSphere, among, names) -> SpaceDistances:
    """C u {new points}: every new point realizes ts's profile, `among`
    holds the squared distances between new points (diagonal ignored)."""
    return extend_space(ts.space, [ts.dists] * len(names), among, names)


def _pair(ts: TypeSphere, names):
    """Build for snap_and_certify: C u {two points} at one snapped distance."""
    return lambda snapped: _over_profile(ts, [[None, snapped[0]], [snapped[0], None]], names)


def realized_pair_space(
    ts: TypeSphere, x, y, denom_bits: int = 32
) -> tuple[SpaceDistances, Fraction]:
    """Certified exact space C u {x, y}; the x-y distance is snapped to the grid.

    Returns (space, snapped squared distance). Retries on finer grids when
    the snapped matrix fails re-certification.
    """
    d_sq = float(np.sum((np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) ** 2))
    space, (sq,) = snap_and_certify(_pair(ts, ["x", "y"]), [d_sq], denom_bits)
    return space, sq


def rotation_triple(
    ts: TypeSphere,
    x,
    y,
    sq_xy: Fraction,
    target_sq,
    theta_tol: float = 1e-12,
) -> tuple[float, SpaceDistances]:
    """Solve for theta and emit the certified exact space C u {x, y, x(theta)}.

    The rotation about the axis through y preserves the distance to y and
    every distance to C, so the only genuinely new entry is the exact
    target itself: x(theta) sits at squared distance sq_xy from y and
    target_sq from x. The emitted matrix is certified, never assumed.
    """
    sq_xy = as_fraction(sq_xy)
    target = as_fraction(target_sq)
    theta = solve_theta_for_distance(ts, x, y, target, theta_tol=theta_tol)
    moved = rotate_about_axis(ts, x, y, theta)
    err = abs(float(np.sum((moved - np.asarray(x, float)) ** 2)) - float(target))
    if err > 1e-8:
        raise PrecisionError(f"bisection landed {err:.2e} away from the target")
    cross = [
        [None, sq_xy, target],
        [sq_xy, None, sq_xy],
        [target, sq_xy, None],
    ]
    triple = _over_profile(ts, cross, ["x", "y", "xt"])
    require_member(triple, "rotation triple", UnrealizableTypeError)
    return theta, triple


@dataclass(frozen=True)
class ConnectWitness:
    """A third realization close to both a and b, certified together with them."""

    point: np.ndarray
    space: SpaceDistances
    angle_a: float
    angle_b: float
    chord_bound: float          # 2 rho sin(phi/4), the derived distance bound
    sq_za: Fraction
    sq_zb: Fraction
    sq_ab: Fraction


def connectedness_witness(
    ts: TypeSphere,
    a,
    b,
    phi: float,
    rng: np.random.Generator,
    denom_bits: int = 32,
    max_draws: int = 20000,
) -> ConnectWitness:
    """Find z on the sphere with angles to a and b below phi/2, outside
    span(C u {a, b}), with exact rational distances; certify C u {a, b, z}.

    Rejection-samples directions; the angle condition is an open non-empty
    cap intersection because the angle between a and b is below phi. A draw
    whose snapped distances no grid of `snap_and_certify` certifies is
    skipped.
    """
    if not (0.0 < phi < math.pi):
        raise ValueError("phi must lie in (0, pi)")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    degenerate = float(np.linalg.norm(a - b)) < 1e-12  # a = b: cap around a only
    gap = 0.0 if degenerate else sphere_angle(ts, a, b)
    if gap >= phi:
        raise ValueError(f"angle between a and b ({gap}) must be below phi ({phi})")
    ua = _check_on_sphere(ts, a, "a")
    ua = ua / np.linalg.norm(ua)
    if degenerate:
        ub = ua
        span_rows = np.vstack([ts.base.coords, a[None, :]])
    else:
        ub = _check_on_sphere(ts, b, "b")
        ub = ub / np.linalg.norm(ub)
        span_rows = np.vstack([ts.base.coords, a[None, :], b[None, :]])
    half = phi / 2.0
    chord_bound = 2.0 * ts.radius * math.sin(phi / 4.0)

    def build_triple(snapped):
        sq_za, sq_zb, sq_ab = snapped
        cross = [
            [None, sq_ab, sq_za],
            [sq_ab, None, sq_zb],
            [sq_za, sq_zb, None],
        ]
        return _over_profile(ts, cross, ["a", "b", "z"])

    build = _pair(ts, ["a", "z"]) if degenerate else build_triple

    draws = 0
    while draws < max_draws:
        block = random_unit_vectors(rng, 64, 3)
        for d in block:
            draws += 1
            ca, cb = float(d @ ua), float(d @ ub)
            ang_a, ang_b = math.acos(min(max(ca, -1), 1)), math.acos(min(max(cb, -1), 1))
            if ang_a >= half or ang_b >= half:
                continue
            z = ts.center + ts.radius * d @ ts.orth_basis
            # z must leave the span of C u {a, b}
            sol, *_ = np.linalg.lstsq(span_rows.T, z, rcond=None)
            if np.linalg.norm(z - span_rows.T @ sol) <= 1e-6:
                continue
            values = [float(np.sum((z - a) ** 2)), float(np.sum((z - b) ** 2))]
            if not degenerate:
                values.append(float(np.sum((a - b) ** 2)))
            try:
                space, snapped = snap_and_certify(build, values, denom_bits)
            except SnapError:
                continue
            return ConnectWitness(
                point=z,
                space=space,
                angle_a=ang_a,
                angle_b=ang_b,
                chord_bound=chord_bound,
                sq_za=snapped[0],
                sq_zb=snapped[1],
                sq_ab=Fraction(0) if degenerate else snapped[2],
            )
    raise SearchError(
        f"no witness within {max_draws} draws; phi too tight for the rounding grid"
    )


@dataclass(frozen=True)
class SphereChain:
    """Great-circle chain between two realizations; every link re-certified."""

    points: tuple[np.ndarray, ...]
    links: tuple[SpaceDistances, ...]
    link_sq: tuple[Fraction, ...]

    @property
    def jumps(self) -> int:
        return len(self.link_sq)


def connect_by_chain(
    ts: TypeSphere, a, b, step_sq, denom_bits: int = 32
) -> SphereChain:
    """Join a to b along their great circle with jumps of squared length
    at most step_sq; each consecutive pair is emitted as a certified
    exact space C u {p_i, p_{i+1}}.

    The link distances are snapped downward on the dyadic grid so the
    exact values never exceed step_sq.
    """
    step_sq = as_fraction(step_sq)
    if step_sq <= 0:
        raise ValueError("step_sq must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if float(np.linalg.norm(a - b)) < 1e-12:
        return SphereChain(points=(a,), links=(), link_sq=())

    alpha = sphere_angle(ts, a, b)
    rho = ts.radius
    step = math.sqrt(float(step_sq))
    half_ratio = min(step / (2.0 * rho), 1.0)
    theta_step = 2.0 * math.asin(half_ratio) * 0.999  # margin so floor-snap stays legal
    m = max(1, math.ceil(alpha / theta_step))

    e1 = _check_on_sphere(ts, a, "a")
    e1 = e1 / np.linalg.norm(e1)
    vb = _check_on_sphere(ts, b, "b")
    w = vb - e1 * float(e1 @ vb)
    if np.linalg.norm(w) < 1e-9:
        # antipodal endpoints: any perpendicular fixes the great circle
        k = int(np.argmin(np.abs(e1)))
        w = np.eye(3)[k] - e1 * e1[k]
    e2 = w / np.linalg.norm(w)

    points = [a]
    for i in range(1, m):
        t = alpha * i / m
        u = math.cos(t) * e1 + math.sin(t) * e2
        points.append(ts.center + rho * u @ ts.orth_basis)
    points.append(b)

    def snap(d_sq: float, bits: int) -> Fraction:
        return min(snap_sq_dist_floor(d_sq, bits), step_sq)

    links: list[SpaceDistances] = []
    link_sq: list[Fraction] = []
    for p, q in zip(points, points[1:]):
        d_sq = float(np.sum((p - q) ** 2))
        link, (sq,) = snap_and_certify(_pair(ts, ["u", "v"]), [d_sq], denom_bits, snap=snap)
        links.append(link)
        link_sq.append(sq)
    return SphereChain(points=tuple(points), links=tuple(links), link_sq=tuple(link_sq))


def prescription_error(ts: TypeSphere, p) -> float:
    """Worst deviation of |p - c_i|^2 from the prescribed exact distances."""
    if ts.space.n == 0:
        return 0.0
    p = np.asarray(p, dtype=float)
    diffs = ts.base.coords - p[None, :]
    got = np.einsum("ij,ij->i", diffs, diffs)
    want = np.array([float(d) for d in ts.dists])
    return float(np.max(np.abs(got - want)))
