"""Realization spheres, rotations, thresholds, witnesses and chains."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import spherefield as sf
from exact_oracle import ldlt
from spherefield import (
    SearchError,
    UnrealizableTypeError,
    connect_by_chain,
    connectedness_witness,
    empty_space,
    epsilon_threshold,
    realize_type,
    realized_pair_space,
    rotate_about_axis,
    rotation_triple,
    solve_theta_for_distance,
    space_from_sq,
    sphere_angle,
    type_sphere,
)
from spherefield import typegeom
from spherefield.builder import random_extension
from spherefield.metric import gram_entries, snap_and_certify
from spherefield.typegeom import prescription_error


@pytest.fixture
def free_sphere():
    """No base configuration: the whole unit 2-sphere."""
    return type_sphere(empty_space(), [])


@pytest.fixture
def xy_at_60(free_sphere):
    """Two realizations with squared distance exactly 1 (angle 60 degrees)."""
    x = realize_type(free_sphere, [1.0, 0.0, 0.0])
    y = realize_type(free_sphere, [0.5, math.sqrt(3) / 2, 0.0])
    return x, y


# --- construction ---------------------------------------------------------------

def test_sphere_over_single_point():
    C = space_from_sq([[0]])
    ts = type_sphere(C, [F(1)])
    assert abs(np.linalg.norm(ts.center) - 0.5) < 1e-12
    assert ts.radius_sq_exact == F(3, 4)


def test_sphere_over_empty_base(free_sphere):
    assert free_sphere.radius_sq_exact == 1
    assert np.allclose(free_sphere.center, 0.0)


def test_orthogonal_profile_has_full_radius():
    C = space_from_sq([[0]])
    ts = type_sphere(C, [F(2)])
    assert np.allclose(ts.center, 0.0, atol=1e-12)
    assert ts.radius_sq_exact == 1


def test_unrealizable_profile_is_rejected():
    C = space_from_sq([[0]])
    with pytest.raises(UnrealizableTypeError) as err:
        type_sphere(C, [F(0)])  # coincident with the base point
    assert err.value.rejection.pivot_index == 1


def test_radius_independent_of_row_order():
    rng = np.random.default_rng(3)
    grown = random_extension(empty_space(), 5, rng)
    C = grown.restrict(range(4))
    # the fifth point's distances are a realizable profile over C, exactly
    dists = tuple(grown.sq_dist[4][i] for i in range(4))
    ts = type_sphere(C, dists)
    for _ in range(5):
        perm = rng.permutation(4).tolist()
        ts_p = type_sphere(C.restrict(perm), tuple(dists[i] for i in perm))
        assert ts_p.radius_sq_exact == ts.radius_sq_exact
        assert abs(ts_p.radius_sq - ts.radius_sq) < 1e-8


def test_type_sphere_eliminates_c_once(scalene, eliminations):
    # C's three rows once, then the profile's one row bordered onto them
    type_sphere(scalene, [F(1), F(1), F(1)])
    assert eliminations.calls == 2
    assert eliminations.rows == 4


def test_realized_pair_space_borders_two_rows_per_rung(scalene, eliminations, monkeypatch):
    # antipodal realizations on a 2-bit grid: the first rung fails, the second certifies
    ts = type_sphere(scalene, [F(1), F(1), F(1)])
    x = realize_type(ts, [1.0, 0.0, 0.0])
    y = realize_type(ts, [-1.0, 0.0, 0.0])
    rungs = []

    def counting_ladder(build, *args, **kwargs):
        def counted(snapped):
            rungs.append(snapped)
            return build(snapped)
        return snap_and_certify(counted, *args, **kwargs)

    monkeypatch.setattr(typegeom, "snap_and_certify", counting_ladder)
    calls, rows = eliminations.calls, eliminations.rows
    realized_pair_space(ts, x, y, denom_bits=2)
    assert len(rungs) == 2
    assert eliminations.calls - calls == 2
    assert eliminations.rows - rows == 4


# --- realization ----------------------------------------------------------------

def test_realize_unit_vector_over_empty_base(free_sphere):
    p = realize_type(free_sphere, [1.0, 0.0, 0.0])
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_antipodal_directions_span_the_diameter():
    C = space_from_sq([[0]])
    ts = type_sphere(C, [F(1)])
    p = realize_type(ts, [0.0, 1.0, 0.0])
    q = realize_type(ts, [0.0, -1.0, 0.0])
    d_sq = float(np.sum((p - q) ** 2))
    assert abs(d_sq - 4.0 * ts.radius_sq) < 1e-9


def test_realization_reproduces_prescribed_distances():
    C = space_from_sq([[0]])
    ts = type_sphere(C, [F(1)])
    p = realize_type(ts, [0.0, 0.6, 0.8])
    assert prescription_error(ts, p) < 1e-9


def test_direction_must_be_normalized(free_sphere):
    with pytest.raises(ValueError):
        realize_type(free_sphere, [2.0, 0.0, 0.0])


# --- rotation -------------------------------------------------------------------

def test_rotation_identity_and_full_turn(free_sphere, xy_at_60):
    x, y = xy_at_60
    assert np.allclose(rotate_about_axis(free_sphere, x, y, 0.0), x, atol=1e-12)
    assert np.allclose(rotate_about_axis(free_sphere, x, y, 2 * math.pi), x, atol=1e-12)


def test_half_turn_displacement_at_60_degrees(free_sphere, xy_at_60):
    # x = cos60 y + sin60 u; the half-turn negates u, so |x(pi)-x| = 2 sin60
    x, y = xy_at_60
    eps = epsilon_threshold(free_sphere, x, y)
    assert abs(eps * eps - 3.0) < 1e-10


def test_half_turn_displacement_orthogonal(free_sphere):
    x = realize_type(free_sphere, [1.0, 0.0, 0.0])
    y = realize_type(free_sphere, [0.0, 1.0, 0.0])
    assert abs(epsilon_threshold(free_sphere, x, y) - 2.0) < 1e-10


def test_rotation_axis_degenerate_cases(free_sphere):
    x = realize_type(free_sphere, [1.0, 0.0, 0.0])
    anti = realize_type(free_sphere, [-1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="axis"):
        rotate_about_axis(free_sphere, x, x, 1.0)
    with pytest.raises(ValueError, match="axis"):
        rotate_about_axis(free_sphere, x, anti, 1.0)


def test_rotation_preserves_sphere_and_prescriptions():
    rng = np.random.default_rng(17)
    trials = 0
    while trials < 1000:
        n = int(rng.integers(0, 4))
        C = random_extension(empty_space(), n, rng)
        emb = sf.embed(C) if n else None
        # realizable profile: distances from a random point in a higher dim
        from spherefield.sampling import random_unit_vectors
        probe = random_unit_vectors(rng, 1, n + 1)[0]
        padded = np.zeros((n, n + 1))
        if n:
            padded[:, :n] = emb.coords
        dists = [
            F(round(float(np.sum((probe - padded[i]) ** 2)) * 2**20), 2**20)
            for i in range(n)
        ]
        try:
            ts = type_sphere(C, dists)
        except UnrealizableTypeError:
            continue
        dirs = random_unit_vectors(rng, 2, 3)
        x, y = realize_type(ts, dirs[0]), realize_type(ts, dirs[1])
        if abs(float(dirs[0] @ dirs[1])) > 0.99:
            continue
        theta = float(rng.uniform(0, 2 * math.pi))
        moved = rotate_about_axis(ts, x, y, theta)
        trials += 1
        assert abs(np.linalg.norm(moved - ts.center) - ts.radius) < 1e-8
        assert prescription_error(ts, moved) < 1e-8


def test_displacement_strictly_increasing_on_grids():
    rng = np.random.default_rng(23)
    ts = type_sphere(empty_space(), [])
    for _ in range(100):
        from spherefield.sampling import random_unit_vectors
        dirs = random_unit_vectors(rng, 2, 3)
        if abs(float(dirs[0] @ dirs[1])) > 0.95:
            continue
        x, y = realize_type(ts, dirs[0]), realize_type(ts, dirs[1])
        thetas = np.linspace(0.0, math.pi, 20)
        vals = [
            float(np.sum((rotate_about_axis(ts, x, y, t) - x) ** 2)) for t in thetas
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))


# --- solving for a distance -----------------------------------------------------

def test_solve_theta_examples(free_sphere, xy_at_60):
    x, y = xy_at_60
    theta = solve_theta_for_distance(free_sphere, x, y, F(1))
    moved = rotate_about_axis(free_sphere, x, y, theta)
    assert abs(float(np.sum((moved - x) ** 2)) - 1.0) < 1e-8
    assert 0 < theta < math.pi


def test_solve_theta_small_target_gives_small_theta(free_sphere, xy_at_60):
    x, y = xy_at_60
    theta = solve_theta_for_distance(free_sphere, x, y, F(1, 10**6))
    assert theta < 0.01


def test_solve_theta_rejects_boundary(free_sphere, xy_at_60):
    x, y = xy_at_60
    eps = epsilon_threshold(free_sphere, x, y)
    with pytest.raises(ValueError):
        solve_theta_for_distance(free_sphere, x, y, F(0))
    with pytest.raises(ValueError):
        solve_theta_for_distance(free_sphere, x, y, F(3))  # eps^2 exactly
    assert abs(eps * eps - 3.0) < 1e-9


def test_rotation_triple_recertifies(free_sphere, xy_at_60):
    x, y = xy_at_60
    pair, sq_xy = realized_pair_space(free_sphere, x, y)
    assert sq_xy == 1  # the 60-degree chord snaps exactly
    theta, triple = rotation_triple(free_sphere, x, y, sq_xy, F(1, 2))
    assert triple.n == 3
    assert sf.is_member(triple)
    assert triple.sq_dist[0][2] == F(1, 2)   # x to x(theta): the target
    assert triple.sq_dist[1][2] == sq_xy     # y to x(theta): rotation-invariant


def test_rotation_triple_over_nonempty_base():
    C = space_from_sq([[0]])
    ts = type_sphere(C, [F(1)])
    x = realize_type(ts, [1.0, 0.0, 0.0])
    y = realize_type(ts, [0.0, 1.0, 0.0])
    pair, sq_xy = realized_pair_space(ts, x, y)
    eps = epsilon_threshold(ts, x, y)
    target = F(round(eps * eps / 2 * 2**20), 2**20)
    theta, triple = rotation_triple(ts, x, y, sq_xy, target)
    assert triple.n == 4
    assert sf.is_member(triple)
    # the base configuration is an exact principal block
    assert triple.sq_dist[0][1] == F(1) and triple.labels[0] == "p0"


# --- connectedness witnesses ----------------------------------------------------

def test_connect_witness_orthogonal_pair(free_sphere):
    rng = np.random.default_rng(5)
    a = realize_type(free_sphere, [1.0, 0.0, 0.0])
    b = realize_type(free_sphere, [0.0, 1.0, 0.0])
    phi = math.pi / 2 + 0.2
    wit = connectedness_witness(free_sphere, a, b, phi, rng)
    assert wit.angle_a < phi / 2 and wit.angle_b < phi / 2
    assert sf.is_member(wit.space)
    # chord bound follows from the angle bound
    assert np.linalg.norm(wit.point - a) < 2 * free_sphere.radius * math.sin(phi / 4) + 1e-9
    assert np.linalg.norm(wit.point - b) < 2 * free_sphere.radius * math.sin(phi / 4) + 1e-9


def test_connect_witness_degenerate_pair(free_sphere):
    rng = np.random.default_rng(6)
    a = realize_type(free_sphere, [0.0, 0.0, 1.0])
    phi = 0.8
    wit = connectedness_witness(free_sphere, a, a, phi, rng)
    assert wit.angle_a < phi / 2
    assert np.linalg.norm(wit.point - a) < 2 * free_sphere.radius * math.sin(phi / 4) + 1e-9
    assert sf.is_member(wit.space)
    assert wit.space.n == 2  # C empty, plus {a, z}; the coincident b is not duplicated
    assert wit.sq_ab == 0


def test_connect_witness_rejects_wide_pair(free_sphere):
    rng = np.random.default_rng(7)
    a = realize_type(free_sphere, [1.0, 0.0, 0.0])
    b = realize_type(free_sphere, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="phi"):
        connectedness_witness(free_sphere, a, b, math.pi / 2 - 0.1, rng)


def test_connect_witness_search_budget(free_sphere):
    rng = np.random.default_rng(8)
    a = realize_type(free_sphere, [1.0, 0.0, 0.0])
    b = realize_type(free_sphere, [0.0, 1.0, 0.0])
    with pytest.raises(SearchError):
        connectedness_witness(free_sphere, a, b, math.pi / 2 + 0.05, rng, max_draws=2)


# --- chains ---------------------------------------------------------------------

def test_chain_trivial_when_endpoints_coincide(free_sphere):
    a = realize_type(free_sphere, [1.0, 0.0, 0.0])
    chain = connect_by_chain(free_sphere, a, a, F(1, 4))
    assert chain.jumps == 0 and len(chain.points) == 1


def test_chain_antipodal_with_radius_steps():
    C = space_from_sq([[0]])
    ts = type_sphere(C, [F(1)])
    a = realize_type(ts, [1.0, 0.0, 0.0])
    b = realize_type(ts, [-1.0, 0.0, 0.0])
    chain = connect_by_chain(ts, a, b, ts.radius_sq_exact)
    assert len(chain.points) <= 8
    for link, sq in zip(chain.links, chain.link_sq):
        assert sq <= ts.radius_sq_exact
        assert sf.is_member(link)


def test_chain_direct_jump_when_step_allows(free_sphere, xy_at_60):
    x, y = xy_at_60
    chain = connect_by_chain(free_sphere, x, y, F(2))
    assert chain.jumps == 1
    assert np.allclose(chain.points[0], x) and np.allclose(chain.points[-1], y)


def test_chain_respects_step_and_length_bound(free_sphere):
    rng = np.random.default_rng(31)
    from spherefield.sampling import random_unit_vectors
    dirs = random_unit_vectors(rng, 2, 3)
    a, b = realize_type(free_sphere, dirs[0]), realize_type(free_sphere, dirs[1])
    step_sq = F(1, 16)
    chain = connect_by_chain(free_sphere, a, b, step_sq)
    step = math.sqrt(float(step_sq))
    assert chain.jumps <= math.ceil(math.pi * free_sphere.radius / step) + 2
    assert np.allclose(chain.points[0], a) and np.allclose(chain.points[-1], b)
    for p, q, sq in zip(chain.points, chain.points[1:], chain.link_sq):
        assert float(np.sum((p - q) ** 2)) <= float(sq) + 2.0**-20
    for link in chain.links:
        assert sf.is_member(link)


def test_sphere_angle_symmetry(free_sphere, xy_at_60):
    x, y = xy_at_60
    assert abs(sphere_angle(free_sphere, x, y) - sphere_angle(free_sphere, y, x)) < 1e-12
    assert abs(sphere_angle(free_sphere, x, y) - math.pi / 3) < 1e-9


def test_type_sphere_centre_is_the_bordered_factor_row_rounded():
    # an ill-conditioned 16-point chain prefix: the float radius^2 must
    # still agree with the exact rho^2 to rounding
    s = sf.grow_chain(2, 20).stages[-1]
    ts = type_sphere(s.restrict(range(16)), s.sq_dist[16][:16])
    L, d = ldlt(gram_entries(s))
    assert ts.center.tolist() == [float(L[16][k]) * math.sqrt(d[k]) for k in range(16)] + [0.0] * 3
    assert ts.radius_sq_exact == d[16]
    assert abs(ts.radius_sq - float(d[16])) <= 1e-15
