"""Strong amalgamation of certified spaces and generic chain growth.

Amalgamation is free: the two sides are glued exactly along the common
part and the residual components are placed in mutually orthogonal
complements of its span, so every cross inner product equals the inner
product of the projections onto that span. Each point's row is bordered
over the Bareiss rows of the common part, and only the left x right-only
block of products is computed. That makes the amalgam exact with no
rounding and never identifies points outside the common part.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import SnapError, UnrealizableTypeError
from .exact import _span_products, as_fraction
from .metric import (
    PartialIsometry,
    SpaceDistances,
    _border_point,
    _space_bytes,
    _store_certificate,
    embed,
    extend_space,
    require_member,
    snap_and_certify,
    space_from_json,
    verify_isometry,
)
from .sampling import random_unit_vectors

# fresh draws in random_extension before it gives up
RESAMPLES = 5


@dataclass(frozen=True)
class AmalgamProblem:
    """Two certified spaces with an exactly isometric common subspace."""

    left: SpaceDistances
    right: SpaceDistances
    common_left: tuple[int, ...]
    common_right: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "common_left", tuple(int(i) for i in self.common_left))
        object.__setattr__(self, "common_right", tuple(int(i) for i in self.common_right))
        if len(self.common_left) != len(self.common_right):
            raise ValueError("common index lists must have equal length")
        if len(set(self.common_left)) != len(self.common_left):
            raise ValueError("common_left indices must be distinct")
        if len(set(self.common_right)) != len(self.common_right):
            raise ValueError("common_right indices must be distinct")
        iso = PartialIsometry(self.common_left, self.common_right)
        if not verify_isometry(self.left, self.right, iso):
            raise ValueError("identified subspaces are not exactly isometric")
        require_member(self.left, "left")
        require_member(self.right, "right")


def amalgamate(problem: AmalgamProblem) -> SpaceDistances:
    """Free amalgam over the common part; exact, strong, and certified.

    Output points: all of `left` in order, then the right-only points in
    order. Cross squared distances are 2 - 2 <proj(x), proj(y)> with the
    projections onto span(common) computed exactly, so no identification
    between left-only and right-only points can occur.
    """
    left, right = problem.left, problem.right
    cl, cr = problem.common_left, problem.common_right
    right_only = [j for j in range(right.n) if j not in set(cr)]

    gl, gr = require_member(left, "left").g, require_member(right, "right").g
    # rows over the common part: every left point, and every right-only point
    rows_l = [[gl[i][c] for c in cl] for i in range(left.n)]
    rows_r = [[gr[j][c] for c in cr] for j in right_only]
    s = _span_products([rows_l[c] for c in cl], rows_l, rows_r)
    to_old = [[2 - 2 * v for v in row] for row in s]
    among = [[right.sq_dist[a][b] for b in right_only] for a in right_only]
    out = extend_space(left, to_old, among, [right.labels[j] for j in right_only])
    # right-only residuals are orthogonal to span(left): pivots of left, then over common
    over_common = require_member(right.restrict(list(cr) + right_only), "right").pd_certificate
    _store_certificate(out, require_member(left, "left").pd_certificate + over_common[len(cr):])
    return out


def random_extension(
    space: SpaceDistances,
    k: int,
    rng: np.random.Generator,
    denom_bits: int = 32,
) -> SpaceDistances:
    """Adjoin k points sampled uniformly on the unit sphere of an (n+k)-dim
    embedding of `space`, which `embed` requires to be a certified member;
    new distances are snapped to the dyadic grid and the result is
    certified (retrying with a finer grid, then fresh draws).
    """
    if k == 0:
        return space
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = space.n
    padded = np.zeros((n, n + k))
    padded[:, :n] = embed(space).coords
    names = [f"g{n + t}" for t in range(k)]

    def build(snapped):
        it = iter(snapped)
        rows = [[next(it) for _ in range(n + t)] for t in range(k)]  # to every earlier point
        among = [[rows[max(t, u)][n + min(t, u)] if t != u else None for u in range(k)]
                 for t in range(k)]
        return extend_space(space, [r[:n] for r in rows], among, names)

    for _ in range(RESAMPLES):
        fresh = random_unit_vectors(rng, k, n + k)
        allpts = np.vstack([padded, fresh])
        values = [float(np.sum((allpts[i] - allpts[n + t]) ** 2))
                  for t in range(k) for i in range(n + t)]
        try:
            return snap_and_certify(build, values, denom_bits)[0]
        except SnapError:
            continue
    raise SnapError(f"random extension failed certification after {RESAMPLES} resamples")


def one_point_extension_witness(space: SpaceDistances, target_dists) -> SpaceDistances:
    """Certified extension by one point at exactly the prescribed squared
    distances; the new point is last. Raises UnrealizableTypeError with the
    pivot witness when the prescription is not positive definite.
    """
    dists = tuple(as_fraction(d) for d in target_dists)
    if len(dists) != space.n:
        raise ValueError(f"expected {space.n} prescribed distances, got {len(dists)}")
    cert = require_member(space, "space")
    bordered = _border_point(cert, dists, "prescription")
    out = extend_space(space, [dists], [[None]], [f"w{space.n}"])
    _store_certificate(out, bordered)
    return out


def check_transitivity_witness(
    a_idx: int, b_idx: int, space: SpaceDistances
) -> PartialIsometry:
    """The one-point map a -> b; always a partial isometry here because every
    point sits at distance exactly 1 from the implicit base point."""
    for i in (a_idx, b_idx):
        if not 0 <= i < space.n:
            raise IndexError(f"index {i} out of range")
    iso = PartialIsometry(domain_indices=(a_idx,), codomain_indices=(b_idx,))
    assert verify_isometry(space, space, iso)
    return iso


@dataclass(frozen=True)
class NoAlgebraicityWitnesses:
    """m distinct one-point extensions sharing x's exact profile over `fixed`.

    `combined` holds the original space plus all m new points at once, so
    distinctness is itself certified: every new point is at exact squared
    distance 2 rho^2 > 0 from x and from each other new point.
    """

    combined: SpaceDistances
    new_indices: tuple[int, ...]
    extensions: tuple[SpaceDistances, ...]
    sq_to_x: Fraction


def no_algebraicity_witnesses(
    space: SpaceDistances, fixed, x_idx: int, m: int
) -> NoAlgebraicityWitnesses:
    """Produce m points with exactly x's distances to `fixed` but distinct
    from x (and from one another), each giving a certified extension.

    Each witness carries the residual of x's profile in a fresh orthogonal
    direction: distances to `fixed` are exactly x's, distances to every
    other point are the exact free-amalgam values, and all pairwise
    witness distances equal 2 rho^2 where rho^2 > 0 is the exact residual
    norm (strict positive definiteness of the space).
    """
    fixed = tuple(int(i) for i in fixed)
    if m < 1:
        raise ValueError("m must be at least 1")
    if x_idx in fixed:
        raise ValueError("x_idx must not belong to the fixed set")
    if not 0 <= x_idx < space.n:
        raise IndexError(f"x_idx {x_idx} out of range")
    for f in fixed:
        if not 0 <= f < space.n:
            raise IndexError(f"fixed index {f} out of range")
    if len(set(fixed)) != len(fixed):
        raise ValueError("fixed indices must be distinct")
    cert = require_member(space, "space")

    # rows over the fixed part: every point of the space, and x
    rows = [[cert.g[p][f] for f in fixed] for p in range(space.n)]
    (s,) = _span_products([rows[f] for f in fixed], rows, [rows[x_idx]])
    rho_sq = 1 - s[x_idx]  # exact Schur residual of x over fixed
    sq_between = 2 * rho_sq

    n = space.n
    cross_to_old = [2 - 2 * v for v in s]

    combined = extend_space(
        space, [cross_to_old] * m, [[sq_between] * m] * m, [f"orbit{t}" for t in range(m)]
    )
    # each witness's residual over the space is rho times a fresh unit vector
    _store_certificate(combined, cert.pd_certificate + (rho_sq,) * m)
    new_indices = tuple(range(n, n + m))
    extensions = tuple(combined.restrict(list(range(n)) + [n + t]) for t in range(m))
    return NoAlgebraicityWitnesses(
        combined=combined,
        new_indices=new_indices,
        extensions=extensions,
        sq_to_x=sq_between,
    )


@dataclass(frozen=True)
class GenericChain:
    """Nested certified stages approximating the generic countable structure."""

    stages: tuple[SpaceDistances, ...]
    seed: int
    denom_bits: int
    log: tuple[dict, ...] = field(default_factory=tuple)


def grow_chain(
    seed: int,
    n_stages: int,
    points_per_stage: int = 1,
    denom_bits: int = 32,
    start: SpaceDistances | None = None,
) -> GenericChain:
    """Grow a chain of certified spaces, one random extension per stage.

    Stage i is an exact principal submatrix of stage i+1 (identity on
    indices). New distances come from uniform sphere sampling, which is a
    modeling choice recorded in the log, not a canonical measure. The log
    also records the largest bit length of a new entry's denominator (33 on
    the 32-bit grid, more after a finer rung) and the smallest new pivot.
    """
    rng = np.random.default_rng(seed)
    current = start if start is not None else SpaceDistances(labels=(), sq_dist=())
    stages, log = [current], []
    for stage in range(n_stages):
        prev, current = current.n, random_extension(current, points_per_stage, rng, denom_bits)
        stages.append(current)
        new_pivots = require_member(current, "stage").pd_certificate[prev:]  # stored, not computed
        log.append(
            {
                "stage": stage + 1,
                "added": points_per_stage,
                "n": current.n,
                "denom_bits": denom_bits,
                "max_den_bits": max((v.denominator.bit_length()
                                     for row in current.sq_dist[prev:] for v in row), default=0),
                "min_new_pivot": float(min(new_pivots)) if new_pivots else None,
                "extension_measure": "uniform-sphere (modeling choice)",
            }
        )
    return GenericChain(
        stages=tuple(stages), seed=seed, denom_bits=denom_bits, log=tuple(log)
    )


def save_chain(chain: GenericChain, directory) -> None:
    """Write the last stage once, as `stage_{n_stages-1:03d}.json`, and a manifest with each
    stage's size and that file's sha256; ValueError, writing nothing, unless the stages nest."""
    top = chain.stages[-1]
    for i, s in enumerate(chain.stages):
        if s.labels != top.labels[:s.n] or s.sq_dist != tuple(r[:s.n] for r in top.sq_dist[:s.n]):
            raise ValueError(f"stage {i} is not a prefix of the last stage")
    blob = _space_bytes(top)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"stage_{len(chain.stages) - 1:03d}.json"), "wb") as fh:
        fh.write(blob)
    manifest = {"seed": chain.seed, "denom_bits": chain.denom_bits, "n_stages": len(chain.stages),
                "stage_points": [st.n for st in chain.stages],
                "last_stage_sha256": hashlib.sha256(blob).hexdigest(), "log": list(chain.log)}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_chain(directory) -> GenericChain:
    """Check the last stage's hash, then rebuild stage i as its first `stage_points[i]` points.
    ValueError on a bad hash, or unless `stage_points` rises from 0 to the last n in n_stages."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    points, n_stages = manifest.get("stage_points"), manifest.get("n_stages")
    if (not isinstance(points, list) or not points or len(points) != n_stages
            or any(type(b) is not int or a > b for a, b in zip([0] + points, points))):
        raise ValueError(f"bad manifest stage_points: {points}")
    with open(os.path.join(directory, f"stage_{n_stages - 1:03d}.json"), "rb") as fh:
        blob = fh.read()
    if hashlib.sha256(blob).hexdigest() != manifest.get("last_stage_sha256"):
        raise ValueError(f"stage {n_stages - 1} hash mismatch: file corrupted or edited")
    last = space_from_json(json.loads(blob))
    if points[-1] != last.n:
        raise ValueError(f"bad manifest stage_points: {points} for a {last.n}-point last stage")
    stages = tuple(last.restrict(range(p)) for p in points)
    return GenericChain(stages, manifest["seed"], manifest["denom_bits"], tuple(manifest["log"]))
