"""Sort-induced order distributions: exact values, uniformity, support."""

import itertools
from collections import Counter

import numpy as np
import pytest
from orthant_quadrature import orthant_3d
from scipy import stats

from spherefield import (
    build_model,
    empty_space,
    full_support_check,
    order_distribution,
    ordering_prob_exact,
    random_extension,
    sample,
    uniformity_test,
)

# hand-derived exact ordering probabilities for the isoceles triangle
# (d^2(1,2) = 2, d^2(1,3) = d^2(2,3) = 1): the consecutive-difference
# correlations give 1/8 for the four orderings with the far pair adjacent
# in rank and 1/4 for the two with point 3 in the middle
ISO_EXACT = {
    "123": 0.125,
    "213": 0.125,
    "312": 0.125,
    "321": 0.125,
    "132": 0.25,
    "231": 0.25,
}


@pytest.fixture
def iso_model(isoceles):
    return build_model(isoceles, seed=404)


@pytest.fixture
def eq_model(equilateral):
    return build_model(equilateral, seed=405)


# --- exact path -----------------------------------------------------------------

def test_single_point_is_certain(eq_model):
    assert ordering_prob_exact(eq_model, (0,)) == 1.0


def test_pairs_are_coin_flips(iso_model):
    for pair in itertools.permutations(range(3), 2):
        assert ordering_prob_exact(iso_model, pair) == 0.5


def test_equilateral_orderings_are_uniform(eq_model):
    for perm in itertools.permutations(range(3)):
        assert abs(ordering_prob_exact(eq_model, perm) - 1.0 / 6.0) < 1e-12


def test_isoceles_exact_values(iso_model):
    for key, expect in ISO_EXACT.items():
        perm = tuple(int(c) - 1 for c in key)
        assert abs(ordering_prob_exact(iso_model, perm) - expect) < 1e-12


def test_exact_probabilities_sum_to_one_k3(iso_model):
    total = sum(
        ordering_prob_exact(iso_model, perm) for perm in itertools.permutations(range(3))
    )
    assert abs(total - 1.0) < 1e-12


def test_exact_probabilities_sum_to_one_k4_quadrature():
    rng = np.random.default_rng(55)
    space = random_extension(empty_space(), 4, rng)
    m = build_model(space, seed=56)
    total = sum(
        ordering_prob_exact(m, perm) for perm in itertools.permutations(range(4))
    )
    assert abs(total - 1.0) < 1e-6


def test_k4_closed_form_matches_quadrature_oracle():
    rng = np.random.default_rng(61)
    m = build_model(random_extension(empty_space(), 5, rng), seed=62)
    sigma = m.sigma_float()
    diff = np.eye(3, 4, 1) - np.eye(3, 4)
    for perm in itertools.permutations(range(5), 4):
        sub = sigma[np.ix_(perm, perm)]
        oracle = orthant_3d(diff @ sub @ diff.T)
        assert abs(ordering_prob_exact(m, perm) - oracle) < 1e-7


def test_exact_path_size_limits(eq_model):
    with pytest.raises(ValueError):
        ordering_prob_exact(eq_model, ())
    rng = np.random.default_rng(57)
    m5 = build_model(random_extension(empty_space(), 5, rng), seed=58)
    with pytest.raises(ValueError, match="at most 4"):
        ordering_prob_exact(m5, (0, 1, 2, 3, 4))


# --- empirical distribution -----------------------------------------------------

def test_distribution_single_index(eq_model):
    dist = order_distribution(eq_model, (1,), 1000)
    assert dist.probs["1"].value == 1.0
    assert uniformity_test(dist) == (0.0, 1.0)


def test_distribution_keys_complete(iso_model):
    dist = order_distribution(iso_model, (0, 1, 2), 5000)
    assert sorted(dist.probs) == sorted(
        "".join(str(p + 1) for p in perm) for perm in itertools.permutations(range(3))
    )
    assert abs(sum(e.value for e in dist.probs.values()) - 1.0) < 1e-12


def test_distribution_rejects_too_many_points():
    rng = np.random.default_rng(59)
    m = build_model(random_extension(empty_space(), 9, rng), seed=60)
    with pytest.raises(ValueError, match="at most 8"):
        order_distribution(m, tuple(range(9)), 100)


def test_distribution_matches_exact_per_cell(iso_model):
    dist = order_distribution(iso_model, (0, 1, 2), 400_000)
    for key, est in dist.probs.items():
        assert abs(est.value - ISO_EXACT[key]) <= 3 * est.std_error
    assert dist.tie_count == 0 and not dist.flagged


def test_exchangeability_forces_uniformity(eq_model):
    dist = order_distribution(eq_model, (0, 1, 2), 400_000)
    for est in dist.probs.values():
        assert abs(est.value - 1.0 / 6.0) <= 3 * max(est.std_error, 1e-9)
    stat, p = uniformity_test(dist)
    assert p > 0.01


def test_symmetry_transport_on_isoceles(iso_model):
    # swapping points 1 and 2 is a self-isometry: transported cells agree
    dist = order_distribution(iso_model, (0, 1, 2), 400_000)
    swap = {"1": "2", "2": "1", "3": "3"}
    for key, est in dist.probs.items():
        mirrored = "".join(swap[c] for c in key)
        other = dist.probs[mirrored]
        gap = abs(est.value - other.value)
        assert gap <= 3 * (est.std_error + other.std_error) + 1e-9


def test_uniformity_rejected_for_isoceles(iso_model):
    dist = order_distribution(iso_model, (0, 1, 2), 400_000)
    stat, p = uniformity_test(dist)
    assert p < 1e-3


def test_uniformity_needs_enough_samples(iso_model):
    dist = order_distribution(iso_model, (0, 1, 2), 24)
    with pytest.raises(ValueError, match="small"):
        uniformity_test(dist)


def test_uniformity_k7_matches_scipy_chisquare():
    # 5040 cells at 5 expected draws each: the chi-square over the counts in
    # sorted key order, counted here straight from the draws
    rng = np.random.default_rng(63)
    m = build_model(random_extension(empty_space(), 8, rng), seed=64)
    indices = (6, 1, 3, 0, 7, 2, 5)
    n = 5 * 5040
    dist = order_distribution(m, indices, n)
    order = np.argsort(sample(m, n)[:, indices], axis=1, kind="stable")
    seen = Counter("".join(str(p + 1) for p in row) for row in order.tolist())
    keys = sorted("".join(str(p + 1) for p in perm) for perm in itertools.permutations(range(7)))
    expect = stats.chisquare([seen[key] for key in keys])
    assert uniformity_test(dist) == (float(expect[0]), float(expect[1]))


def test_distribution_determinism(iso_model):
    a = order_distribution(iso_model, (0, 1, 2), 20_000)
    b = order_distribution(iso_model, (0, 1, 2), 20_000)
    assert a.probs == b.probs


# --- full support ---------------------------------------------------------------

def test_full_support_isoceles(iso_model):
    dist = order_distribution(iso_model, (0, 1, 2), 200_000)
    rep = full_support_check(dist, model=iso_model)
    assert rep.all_observed
    assert rep.min_count > 0
    assert rep.exact_all_positive
    assert not rep.suspicious


def test_full_support_pair(eq_model):
    dist = order_distribution(eq_model, (0, 1), 100_000)
    rep = full_support_check(dist, model=eq_model)
    assert rep.all_observed
    for est in dist.probs.values():
        assert abs(est.value - 0.5) < 0.01
    assert rep.exact_probs == {"12": 0.5, "21": 0.5}


def test_full_support_flags_zero_cells(iso_model):
    dist = order_distribution(iso_model, (0, 1, 2), 10)
    rep = full_support_check(dist)
    # ten samples cannot populate six cells reliably; report, don't raise
    if not rep.all_observed:
        assert rep.suspicious
        assert rep.zero_cells
