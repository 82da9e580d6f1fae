"""Field construction, sampling, invariance, copies, mixing, cylinder demo."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import spherefield as sf
from spherefield import (
    CylinderEvent,
    NotMemberError,
    PartialIsometry,
    build_model,
    cylinder_approximation_demo,
    invariance_check,
    kl_zero_mean,
    mixing_experiment,
    near_orthogonal_copy,
    nonproduct_witness,
    sample,
    space_from_sq,
    verify_isometry,
)
from spherefield.gaussian import energy_distance_test, tv_discretized_2d
from spherefield.orthant import orthant_2d


@pytest.fixture
def pair_half():
    """Two points at squared distance 1: correlation exactly 1/2."""
    return build_model(space_from_sq([[0, 1], [1, 0]]), seed=101)


# --- model construction ---------------------------------------------------------

def test_model_covariance_is_exact_gram(equilateral):
    m = build_model(equilateral, seed=0)
    for i in range(3):
        assert m.sigma[i][i] == 1
        for j in range(3):
            if i != j:
                assert m.sigma[i][j] == F(1, 2)
    assert np.max(np.abs(m.chol @ m.chol.T - m.sigma_float())) < 1e-10


def test_model_rejects_non_member():
    with pytest.raises(NotMemberError):
        build_model(space_from_sq([[0, 4], [4, 0]]), seed=0)


def test_single_point_unit_variance():
    m = build_model(space_from_sq([[0]]), seed=5)
    x = sample(m, 1_000_000)
    assert abs(float(np.var(x)) - 1.0) < 0.01


def test_orthogonal_pair_uncorrelated(orthogonal_pair):
    m = build_model(orthogonal_pair, seed=6)
    x = sample(m, 1_000_000)
    assert abs(float(np.corrcoef(x.T)[0, 1])) < 0.01


def test_polarized_pair_correlation_half(pair_half):
    x = sample(pair_half, 1_000_000)
    assert abs(float(np.corrcoef(x.T)[0, 1]) - 0.5) < 0.01


# --- sampling contract ----------------------------------------------------------

def test_sample_empty_count(pair_half):
    assert sample(pair_half, 0).shape == (0, 2)


def test_sample_determinism(pair_half):
    assert np.array_equal(sample(pair_half, 1000), sample(pair_half, 1000))


def test_sample_partition(pair_half):
    whole = sample(pair_half, 900)
    parts = np.vstack([sample(pair_half, 300), sample(pair_half, 600, row_offset=300)])
    assert np.array_equal(whole, parts)


def test_sample_covariance_within_standard_errors(pair_half):
    n = 200_000
    x = sample(pair_half, n)
    cov = x.T @ x / n
    se = 3.0 / math.sqrt(n)
    assert np.max(np.abs(cov - pair_half.sigma_float())) < 3 * se


def test_marginal_consistency(equilateral):
    # principal subspace model agrees in law with the marginal of the full model
    full = build_model(equilateral, seed=9)
    sub = build_model(equilateral.restrict((0, 2)), seed=10)
    assert sub.sigma[0][1] == full.sigma[0][2]
    n = 200_000
    cov_sub = np.cov(sample(sub, n).T)
    cov_marg = np.cov(sample(full, n)[:, (0, 2)].T)
    assert np.max(np.abs(cov_sub - cov_marg)) < 12.0 / math.sqrt(n)


# --- invariance -----------------------------------------------------------------

def test_invariance_identity(equilateral):
    m = build_model(equilateral, seed=11)
    rep = invariance_check(m, PartialIsometry((0, 1, 2), (0, 1, 2)), n_samples=800)
    assert rep.exact_sigma_invariant
    assert rep.p_value > 0.01


def test_invariance_swap_on_isoceles(isoceles):
    # swapping the two equidistant points is a self-isometry; sigma is fixed
    m = build_model(isoceles, seed=12)
    rep = invariance_check(m, PartialIsometry((0, 1, 2), (1, 0, 2)), n_samples=800)
    assert rep.exact_sigma_invariant
    assert rep.p_value > 0.01


def test_invariance_rejects_non_isometry(scalene):
    m = build_model(scalene, seed=13)
    assert not verify_isometry(scalene, scalene, PartialIsometry((0, 1, 2), (1, 0, 2)))
    with pytest.raises(ValueError, match="isometry"):
        invariance_check(m, PartialIsometry((0, 1, 2), (1, 0, 2)))


def test_invariance_requires_total_map(equilateral):
    m = build_model(equilateral, seed=14)
    with pytest.raises(ValueError, match="total"):
        invariance_check(m, PartialIsometry((0, 1), (1, 0)))


def test_invariance_rejects_empty_sample(equilateral):
    m = build_model(equilateral, seed=15)
    with pytest.raises(ValueError, match="non-empty"):
        invariance_check(m, PartialIsometry((0, 1, 2), (0, 1, 2)), n_samples=0)


# --- energy test ----------------------------------------------------------------

def energy_test_reference(x, y, rng, n_permutations):
    """The energy permutation test as three block copies per label split."""
    nx, ny = x.shape[0], y.shape[0]
    pool = np.vstack([x, y])
    dist = cdist(pool, pool)

    def stat(ix, iy):
        dxy = dist[np.ix_(ix, iy)].mean()
        dxx = dist[np.ix_(ix, ix)].mean()
        dyy = dist[np.ix_(iy, iy)].mean()
        return 2.0 * dxy - dxx - dyy

    base = np.arange(nx + ny)
    observed = stat(base[:nx], base[nx:])
    hits = 0
    for _ in range(n_permutations):
        perm = rng.permutation(nx + ny)
        if stat(perm[:nx], perm[nx:]) >= observed:
            hits += 1
    return float(observed), (hits + 1) / (n_permutations + 1)


@pytest.mark.parametrize(
    "nx,ny,dim,shift,n_permutations",
    [
        (40, 40, 3, 0.0, 99),
        (40, 40, 3, 0.4, 99),
        (25, 61, 2, 0.0, 50),
        (70, 13, 1, 0.3, 50),
        (300, 200, 4, 0.1, 30),
        (35, 35, 2, 0.2, 0),
        (18, 27, 3, 0.0, 0),
        (1, 1, 2, 0.0, 9),
    ],
)
def test_energy_test_matches_reference(nx, ny, dim, shift, n_permutations):
    data = np.random.default_rng(nx * 1000 + ny)
    x = data.normal(size=(nx, dim))
    y = data.normal(size=(ny, dim)) + shift
    rng_a, rng_b = np.random.default_rng(77), np.random.default_rng(77)
    stat, p = energy_distance_test(x, y, rng_a, n_permutations)
    ref_stat, ref_p = energy_test_reference(x, y, rng_b, n_permutations)
    assert p == ref_p
    assert abs(stat - ref_stat) <= 1e-9 * abs(ref_stat)
    # the shuffles consume the generator exactly as before
    assert rng_a.random() == rng_b.random()


def test_energy_test_rejects_empty_sample():
    y = np.ones((5, 3))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="non-empty"):
        energy_distance_test(np.zeros((0, 3)), y, rng, 99)
    with pytest.raises(ValueError, match="non-empty"):
        energy_distance_test(y, np.zeros((0, 3)), rng, 99)


# --- non-product witness --------------------------------------------------------

def test_nonproduct_witness_polarized_pair(pair_half):
    w = nonproduct_witness(pair_half, n_samples=50_000)
    assert w.exact_correlation == F(1, 2)
    assert w.confidence_interval[0] < w.empirical_correlation < w.confidence_interval[1]
    assert abs(w.empirical_correlation - 0.5) < 0.02


def test_nonproduct_no_witness_on_orthogonal_marginal(orthogonal_pair):
    m = build_model(orthogonal_pair, seed=15)
    assert nonproduct_witness(m, n_samples=100) is None


def test_nonproduct_equilateral(equilateral):
    m = build_model(equilateral, seed=16)
    w = nonproduct_witness(m, n_samples=10_000)
    assert w.exact_correlation == F(1, 2)


# --- near-orthogonal copies -----------------------------------------------------

def test_copy_k1_is_exactly_orthogonal():
    one = space_from_sq([[0]])
    copy, combined, iso = near_orthogonal_copy(one, 1)
    assert combined.sq_dist[0][1] == 2
    assert verify_isometry(one, copy, PartialIsometry((0,), (0,)))


def test_copy_prescribes_cross_exactly_one_over_k():
    one = space_from_sq([[0]])
    for k in (2, 3, 10):
        _, combined, _ = near_orthogonal_copy(one, k)
        # cross inner product exactly 1/k: d^2 = 2 - 2/k
        assert combined.sq_dist[0][1] == 2 - F(2, k)


def test_copy_cross_bound_and_certification(pair_half):
    space = pair_half.space
    copy, combined, iso = near_orthogonal_copy(space, 10)
    assert combined.n == 4
    assert sf.is_member(combined)
    assert verify_isometry(space, combined, iso)
    # all four cross inner products bounded by 1/10 exactly (rational check)
    for i in range(2):
        for j in range(2):
            cross_sq = combined.sq_dist[i][2 + j]
            inner = 1 - F(cross_sq) / 2
            assert abs(inner) <= F(1, 10)


def test_copy_is_exactly_isometric(equilateral):
    copy, combined, iso = near_orthogonal_copy(equilateral, 4)
    assert copy.sq_dist == equilateral.sq_dist
    assert combined.restrict(range(3, 6)).sq_dist == equilateral.sq_dist


# --- KL, TV, mixing -------------------------------------------------------------

def test_kl_zero_for_identical():
    s = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert abs(kl_zero_mean(s, s)) < 1e-12


def test_kl_known_one_dimensional_value():
    a, b = np.array([[2.0]]), np.array([[1.0]])
    expect = 0.5 * (2.0 - 1.0 - math.log(2.0))
    assert abs(kl_zero_mean(a, b) - expect) < 1e-12


def test_pinsker_bound_dominates_discretized_tv():
    for c in (0.05, 0.1, 0.3, 0.5):
        kl = -0.5 * math.log(1.0 - c * c)  # joint vs product for one pair
        tv = tv_discretized_2d(c)
        assert math.sqrt(kl / 2.0) >= tv > 0


def test_mixing_exactly_orthogonal_copy_is_independent():
    one = space_from_sq([[0]])
    ev = CylinderEvent(constraints=((0, ">", F(0)),))
    rep = mixing_experiment(one, ev, k_values=(1,), samples=200_000, seed=21)
    assert abs(rep.joint[0].value - 0.25) <= 4 * rep.joint[0].std_error
    assert rep.kl_bounds[0] == 0.0


def test_mixing_matches_bivariate_orthant_oracle():
    # c in {0, 1/10, 1/2} realized as k in {1, 10, 2}
    one = space_from_sq([[0]])
    ev = CylinderEvent(constraints=((0, ">", F(0)),))
    rep = mixing_experiment(one, ev, k_values=(1, 10, 2), samples=400_000, seed=22)
    for pos, c in ((0, 0.0), (1, 0.1), (2, 0.5)):
        exact = orthant_2d(c)
        assert abs(rep.joint[pos].value - exact) <= 4 * rep.joint[pos].std_error


def test_mixing_kl_strictly_decreasing_and_chain_bound():
    one = space_from_sq([[0]])
    ev = CylinderEvent(constraints=((0, ">", F(0)),))
    ks = (2, 4, 8, 16)
    rep = mixing_experiment(one, ev, k_values=ks, samples=300_000, seed=23)
    assert all(a > b for a, b in zip(rep.kl_bounds, rep.kl_bounds[1:]))
    assert all(kl >= 0 for kl in rep.kl_bounds)
    # the joint-product gap is exactly the orthant remainder, up to noise
    for pos, k in enumerate(ks):
        remainder = math.asin(1.0 / k) / (2.0 * math.pi)
        gap = abs(rep.joint[pos].value - rep.product[pos].value)
        noise = 4 * (rep.joint[pos].std_error + rep.product[pos].std_error)
        assert gap <= remainder + noise
    # KL closed form for the Kronecker copy: -n/2 log(1 - 1/k^2)
    for pos, k in enumerate(ks):
        assert abs(rep.kl_bounds[pos] + 0.5 * math.log(1 - 1 / k**2)) < 1e-9


def test_mixing_multi_coordinate_event(equilateral):
    ev = CylinderEvent(constraints=((0, ">", F(0)), (1, "<", F(1, 2))))
    rep = mixing_experiment(equilateral, ev, k_values=(3,), samples=100_000, seed=24)
    assert 0 < rep.joint[0].value < rep.mu_b[0].value
    assert rep.tv_bounds[0] == math.sqrt(rep.kl_bounds[0] / 2.0)


def test_mixing_rejects_bad_event_index(equilateral):
    ev = CylinderEvent(constraints=((7, ">", F(0)),))
    with pytest.raises(IndexError):
        mixing_experiment(equilateral, ev, k_values=(2,), samples=10, seed=0)


# --- cylinder approximation demo -----------------------------------------------

def test_cylinder_demo_recovers_threshold_cylinder(pair_half):
    target = CylinderEvent(constraints=((0, ">", F(1, 4)),))
    approx = cylinder_approximation_demo(
        pair_half, lambda d: target.evaluate(d), epsilon=0.05, n_samples=40_000
    )
    assert approx.reached
    assert approx.sym_diff.value <= 0.05


def test_cylinder_demo_complement_of_threshold(pair_half):
    target = CylinderEvent(constraints=((1, "<", F(-1, 2)),))
    approx = cylinder_approximation_demo(
        pair_half, lambda d: ~target.evaluate(d), epsilon=0.05, n_samples=40_000
    )
    assert approx.reached


def test_cylinder_demo_halfplane_two_coordinates(orthogonal_pair):
    # A = {eta_0 + eta_1 > 0}: a two-constraint cylinder reaches 0.2
    m = build_model(orthogonal_pair, seed=31)
    approx = cylinder_approximation_demo(
        m, lambda d: d[:, 0] + d[:, 1] > 0, epsilon=0.2, n_samples=60_000
    )
    assert approx.reached
    assert approx.sym_diff.value <= 0.2
    # grid-search oracle: best conjunction over a coarse threshold grid
    draws = sample(m, 60_000)
    a = draws[:, 0] + draws[:, 1] > 0
    best = 1.0
    for t0 in np.linspace(-1, 1, 9):
        for t1 in np.linspace(-1, 1, 9):
            b = (draws[:, 0] > t0) & (draws[:, 1] > t1)
            best = min(best, float(np.mean(a != b)))
    assert approx.sym_diff.value <= best + 0.03


# --- covariance exactness under symmetry ----------------------------------------

def test_permutation_isometries_fix_sigma_entrywise(equilateral, isoceles):
    m_eq = build_model(equilateral, seed=41)
    for perm in ((1, 2, 0), (2, 1, 0), (0, 2, 1)):
        iso = PartialIsometry((0, 1, 2), perm)
        assert verify_isometry(equilateral, equilateral, iso)
        assert all(
            m_eq.sigma[perm[i]][perm[j]] == m_eq.sigma[i][j]
            for i in range(3)
            for j in range(3)
        )
    m_iso = build_model(isoceles, seed=42)
    swap = (1, 0, 2)
    assert all(
        m_iso.sigma[swap[i]][swap[j]] == m_iso.sigma[i][j]
        for i in range(3)
        for j in range(3)
    )
