"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import hashlib
import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

import spherefield as sf
from exact_oracle import ldlt
from spherefield import cli
from spherefield.exact import leading_minors
from spherefield.metric import GramMatrix, certify_membership, gram_entries
from spherefield.orthant import orthant_2d
from spherefield.sampling import random_unit_vectors
from spherefield.typegeom import prescription_error

EQUILATERAL = sf.space_from_sq([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
ISOCELES = sf.space_from_sq([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
ONE_POINT = sf.space_from_sq([[0]])

# hand-derived exact ordering probabilities of the isoceles triangle
ISO_EXACT = {"123": 0.125, "213": 0.125, "312": 0.125, "321": 0.125,
             "132": 0.25, "231": 0.25}


@contextmanager
def criterion(line):
    try:
        yield
    except BaseException:
        print(f"FAIL: {line}")
        raise
    print(f"PASS: {line}")


def test_c01_certification_vs_float_eigenvalue_oracle():
    with criterion("criterion 1: exact certification agrees with the float "
                   "eigenvalue oracle on 500 random spaces (n <= 8)"):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        disagreements = 0
        decided = 0
        for _ in range(500):
            n = int(rng.integers(1, 9))
            sq = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = F(int(rng.integers(1, 256)), 64)  # random rational in (0, 4)
                    sq[i][j] = sq[j][i] = v
            space = sf.space_from_sq(sq)
            exact_member = isinstance(certify_membership(space), GramMatrix)
            gf = np.array([[float(v) for v in row] for row in gram_entries(space)])
            eigs = np.linalg.eigvalsh(gf)
            if np.min(np.abs(eigs)) <= 1e-6:
                continue  # float oracle inconclusive at the boundary
            decided += 1
            if exact_member != bool(np.min(eigs) > 0):
                disagreements += 1
        elapsed = time.perf_counter() - t0
        assert disagreements == 0, f"{disagreements} disagreements"
        assert decided >= 400  # the oracle decides nearly every draw
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c02_embed_round_trip():
    with criterion("criterion 2: embedding round trip on 100 certified spaces "
                   "(n <= 32) with squared-distance error <= 1e-9"):
        rng = np.random.default_rng(1002)
        t0 = time.perf_counter()
        worst = 0.0
        sizes = [1 + (i * 32) // 100 for i in range(100)]  # spread over 1..32
        for n in sizes:
            space = sf.random_extension(sf.empty_space(), n, rng)
            emb = sf.embed(space, tol=1e-9)
            exact = np.array([[float(v) for v in row] for row in space.sq_dist])
            worst = max(worst, float(np.max(np.abs(emb.sq_distances() - exact))))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"max error {worst:.2e}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_c03_gaussian_covariance_matches_inner_products():
    with criterion("criterion 3: equilateral-triangle field correlations equal "
                   "1/2 within 3 standard errors over 1e6 draws"):
        t0 = time.perf_counter()
        model = sf.build_model(EQUILATERAL, seed=1003)
        n = 1_000_000
        draws = sf.sample(model, n)
        corr = np.corrcoef(draws.T)
        se = (1.0 - 0.5**2) / math.sqrt(n)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert model.sigma[i][j] == F(1, 2)
            assert abs(corr[i, j] - 0.5) <= 3 * se, f"corr[{i},{j}] = {corr[i, j]}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_c04_nonproduct_certificate():
    with criterion("criterion 4: every space with some d^2 != 2 yields a "
                   "nonzero exact rational correlation certificate"):
        fixtures = [
            sf.space_from_sq([[0, 1], [1, 0]]),
            sf.space_from_sq([[0, 3], [3, 0]]),
            EQUILATERAL,
            ISOCELES,
        ]
        for space in fixtures:
            model = sf.build_model(space, seed=1004)
            witness = sf.nonproduct_witness(model, n_samples=20_000)
            assert witness is not None
            assert witness.exact_correlation != 0
            assert isinstance(witness.exact_correlation, F)
        # orthogonal marginal: correctly reports no witness
        orth = sf.build_model(sf.space_from_sq([[0, 2], [2, 0]]), seed=1)
        assert sf.nonproduct_witness(orth, n_samples=100) is None


def test_c05_mixing_convergence():
    with criterion("criterion 5: mixing estimates match the bivariate orthant "
                   "oracle within 4 SE for k in {2,4,8,16}; KL strictly decreases"):
        t0 = time.perf_counter()
        ks = (2, 4, 8, 16)
        # validate the closed-form oracle itself against 2-D quadrature
        from scipy.integrate import dblquad
        for k in ks:
            c = 1.0 / k
            det = 1.0 - c * c

            def density(y, x, c=c, det=det):
                return math.exp(-0.5 * (x * x - 2 * c * x * y + y * y) / det) / (
                    2 * math.pi * math.sqrt(det)
                )

            quad_val, _ = dblquad(density, 0, 9, 0, 9, epsabs=1e-9)
            assert abs(orthant_2d(c) - quad_val) < 1e-6
        event = sf.CylinderEvent(constraints=((0, ">", F(0)),))
        report = sf.mixing_experiment(
            ONE_POINT, event, k_values=ks, samples=1_000_000, seed=1005
        )
        for pos, k in enumerate(ks):
            exact = 0.25 + math.asin(1.0 / k) / (2.0 * math.pi)
            est = report.joint[pos]
            assert abs(est.value - exact) <= 4 * est.std_error, (
                f"k={k}: {est.value} vs {exact}"
            )
        assert all(a > b for a, b in zip(report.kl_bounds, report.kl_bounds[1:]))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c06_and_c07_order_nonuniformity_and_full_support():
    with criterion("criterion 6: isoceles orderings reject uniformity at "
                   "p < 1e-3 and match exact probabilities within 3 SE; "
                   "equilateral control does not reject (p > 0.01)"):
        t0 = time.perf_counter()
        model = sf.build_model(ISOCELES, seed=1006)
        dist = sf.order_distribution(model, (0, 1, 2), 1_000_000)
        stat, p = sf.uniformity_test(dist)
        assert p < 1e-3, f"p = {p}"
        for key, est in dist.probs.items():
            exact = sf.ordering_prob_exact(
                model, tuple(dist.indices[int(c) - 1] for c in key)
            )
            assert abs(exact - ISO_EXACT[key]) < 1e-12
            assert abs(est.value - exact) <= 3 * est.std_error, f"cell {key}"
        control = sf.build_model(EQUILATERAL, seed=1006)
        cdist = sf.order_distribution(control, (0, 1, 2), 1_000_000)
        cstat, cp = sf.uniformity_test(cdist)
        assert cp > 0.01, f"control p = {cp}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    with criterion("criterion 7: all 6 isoceles orderings occur and every "
                   "exact ordering probability is positive"):
        support = sf.full_support_check(dist, model=model)
        assert support.all_observed
        assert support.min_count > 0
        assert support.exact_all_positive
        assert all(v > 0 for v in support.exact_probs.values())


def _random_rotation_fixture(rng):
    """A certified base C, a realizable profile, and two realizations."""
    n = int(rng.integers(0, 4))
    C = sf.random_extension(sf.empty_space(), n, rng)
    emb = sf.embed(C) if n else None
    probe = random_unit_vectors(rng, 1, n + 1)[0]
    padded = np.zeros((n, n + 1))
    if n:
        padded[:, :n] = emb.coords
    dists = [
        F(round(float(np.sum((probe - padded[i]) ** 2)) * 2**20), 2**20)
        for i in range(n)
    ]
    try:
        ts = sf.type_sphere(C, dists)
    except sf.UnrealizableTypeError:
        return None
    dirs = random_unit_vectors(rng, 2, 3)
    if abs(float(dirs[0] @ dirs[1])) > 0.9:
        return None
    x = sf.realize_type(ts, dirs[0])
    y = sf.realize_type(ts, dirs[1])
    return ts, x, y


def test_c08_constructive_rotation_geometry():
    with criterion("criterion 8: on 50 random fixtures the threshold is "
                   "positive, the solved rotation hits its target to 1e-8 with "
                   "an exactly re-certified triple, and chains certify"):
        rng = np.random.default_rng(1008)
        t0 = time.perf_counter()
        done = 0
        while done < 50:
            fixture = _random_rotation_fixture(rng)
            if fixture is None:
                continue
            ts, x, y = fixture
            eps = sf.epsilon_threshold(ts, x, y)
            assert eps > 0
            pair, sq_xy = sf.realized_pair_space(ts, x, y)
            target = F(round(eps * eps / 2 * 2**20), 2**20)
            if not 0 < target < F(eps) * F(eps):
                continue
            theta, triple = sf.rotation_triple(ts, x, y, sq_xy, target)
            moved = sf.rotate_about_axis(ts, x, y, theta)
            err = abs(float(np.sum((moved - x) ** 2)) - float(target))
            assert err <= 1e-8, f"distance error {err:.2e}"
            assert isinstance(certify_membership(triple), GramMatrix)
            assert prescription_error(ts, moved) < 1e-8
            chain = sf.connect_by_chain(ts, x, y, F(1, 8))
            assert np.allclose(chain.points[0], x)
            assert np.allclose(chain.points[-1], y)
            for link, sq in zip(chain.links, chain.link_sq):
                assert sq <= F(1, 8)
                assert isinstance(certify_membership(link), GramMatrix)
            done += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c09_strong_amalgamation():
    with criterion("criterion 9: 200 random amalgams restrict exactly to their "
                   "inputs, never identify new points, and re-certify"):
        rng = np.random.default_rng(1009)
        t0 = time.perf_counter()
        for _ in range(200):
            a_size = int(rng.integers(0, 3))
            base = sf.random_extension(sf.empty_space(), a_size, rng)
            left = sf.random_extension(base, int(rng.integers(1, 4)), rng)
            right = sf.random_extension(base, int(rng.integers(1, 4)), rng)
            common = tuple(range(a_size))
            out = sf.amalgamate(
                sf.AmalgamProblem(
                    left=left, right=right, common_left=common, common_right=common
                )
            )
            assert out.restrict(range(left.n)).sq_dist == left.sq_dist
            right_pos = list(common) + list(range(left.n, out.n))
            assert out.restrict(right_pos).sq_dist == right.sq_dist
            for i in range(left.n):
                for j in range(left.n, out.n):
                    assert out.sq_dist[i][j] > 0
            # an elimination that cannot read the certificate amalgamate stored
            assert leading_minors(gram_entries(out))[1] is None
            assert list(certify_membership(out).pd_certificate) == ldlt(gram_entries(out))[1]
        elapsed = time.perf_counter() - t0
        assert elapsed < 20.0, f"took {elapsed:.1f}s"


def _hash_tree(directory):
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_c10_cli_reproducibility(tmp_path):
    with criterion("criterion 10: every CLI command, run twice with the same "
                   "config, produces byte-identical outputs"):
        spaces = {}
        for name, space in (("tri", EQUILATERAL), ("iso", ISOCELES), ("one", ONE_POINT)):
            path = tmp_path / f"{name}.json"
            sf.save_space(space, path)
            spaces[name] = str(path)
        runs = [
            ["certify", "--space", spaces["tri"]],
            ["embed", "--space", spaces["tri"]],
            ["amalgamate", "--left", spaces["tri"], "--right", spaces["tri"],
             "--common-left", "0,1", "--common-right", "0,1"],
            ["grow", "--stages", "3", "--seed", "11"],
            ["witness", "--kind", "rotation", "--seed", "7"],
            ["witness", "--kind", "connect", "--phi", "2.0", "--seed", "7"],
            ["witness", "--kind", "chain", "--step-sq", "1/4", "--seed", "7"],
            ["sample", "--space", spaces["tri"], "--samples", "50", "--seed", "3"],
            ["mixing", "--space", spaces["one"], "--k", "2,4", "--samples", "5000"],
            ["orders", "--space", spaces["iso"], "--indices", "0,1,2",
             "--samples", "30000"],
        ]
        for pos, args in enumerate(runs):
            out_a = str(tmp_path / f"a{pos}")
            out_b = str(tmp_path / f"b{pos}")
            rc_a = cli.main(args + ["--out", out_a])
            rc_b = cli.main(args + ["--out", out_b])
            assert rc_a == rc_b
            assert rc_a in (0, 2)
            ha, hb = _hash_tree(out_a), _hash_tree(out_b)
            assert ha, f"{args[0]} wrote nothing"
            assert ha == hb, f"{args[0]} outputs differ between reruns"
