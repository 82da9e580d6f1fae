"""Membership certification, polarization, embedding, isometries, file I/O."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherefield as sf
from exact_oracle import ldlt, solve_posdef
from spherefield import (
    AmalgamProblem,
    GramMatrix,
    MalformedSpaceError,
    NotMemberError,
    PartialIsometry,
    Rejection,
    SnapError,
    UnrealizableTypeError,
    amalgamate,
    certify_membership,
    embed,
    gram_from_distances,
    is_member,
    near_orthogonal_copy,
    one_point_extension_witness,
    space_from_sq,
    verify_isometry,
)
from spherefield.builder import random_extension
from spherefield.exact import leading_minors, snap_sq_dist
from spherefield.metric import (
    _store_certificate,
    extend_space,
    gram_entries,
    load_space,
    require_member,
    save_space,
    snap_and_certify,
    space_from_json,
    space_hash,
    space_to_json,
)


# --- construction and validation ------------------------------------------------

def test_space_requires_symmetry():
    with pytest.raises(MalformedSpaceError, match="symmetric"):
        space_from_sq([[0, 1], [2, 0]])


def test_space_requires_zero_diagonal():
    with pytest.raises(MalformedSpaceError, match="diagonal"):
        space_from_sq([[1, 1], [1, 0]])


def test_space_requires_positive_off_diagonal():
    with pytest.raises(MalformedSpaceError, match="positive"):
        space_from_sq([[0, 0], [0, 0]])


def test_space_rejects_floats():
    with pytest.raises(TypeError):
        space_from_sq([[0, 1.5], [1.5, 0]])


def test_antipodal_is_constructible_but_not_member():
    # d^2 = 4 must load so that certification can reject it with a witness
    anti = space_from_sq([[0, 4], [4, 0]])
    rej = certify_membership(anti)
    assert isinstance(rej, Rejection)
    assert rej.pivot_index == 1
    assert rej.leading_minor == 0


# --- polarization ---------------------------------------------------------------

def test_gram_orthogonal_case():
    g = gram_from_distances(space_from_sq([[0, 2], [2, 0]]))
    assert g.g == ((F(1), F(0)), (F(0), F(1)))


def test_gram_polarization_identity():
    g = gram_from_distances(space_from_sq([[0, 1], [1, 0]]))
    assert g.g[0][1] == F(1, 2)


def test_gram_equilateral(equilateral):
    g = gram_from_distances(equilateral)
    for i in range(3):
        assert g.g[i][i] == 1
        for j in range(3):
            if i != j:
                assert g.g[i][j] == F(1, 2)


def test_gram_rejects_out_of_range():
    for bad in (F(4), F(9, 2)):
        space = space_from_sq([[0, bad], [bad, 0]])
        with pytest.raises(MalformedSpaceError):
            gram_from_distances(space)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=F(1, 64), max_value=F(255, 64)),
        min_size=1,
        max_size=6,
    )
)
def test_polarization_round_trip(values):
    # reconstructing 2 - 2g is the exact identity, whatever the entries
    n = 1 + (len(values) + 1) // 2
    sq = [[F(0)] * n for _ in range(n)]
    it = iter(values * n)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            sq[i][j] = sq[j][i] = v
    space = space_from_sq(sq)
    g = gram_from_distances(space)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert 2 - 2 * g.g[i][j] == space.sq_dist[i][j]


# --- certification --------------------------------------------------------------

def test_certify_equilateral_pivots(equilateral):
    cert = certify_membership(equilateral)
    assert isinstance(cert, GramMatrix)
    assert cert.pd_certificate == (F(1), F(3, 4), F(2, 3))
    # determinant = product of pivots
    assert F(1) * F(3, 4) * F(2, 3) == F(1, 2)


def test_certify_orthogonal_pair(orthogonal_pair):
    cert = certify_membership(orthogonal_pair)
    assert cert.pd_certificate == (F(1), F(1))


def test_certify_agrees_with_float_eigenvalues():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 9))
        sq = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = F(int(rng.integers(1, 256)), 64)
                sq[i][j] = sq[j][i] = v
        space = space_from_sq(sq)
        verdict = isinstance(certify_membership(space), GramMatrix)
        eigs = np.linalg.eigvalsh(
            np.array([[float(v) for v in row] for row in sf.metric.gram_entries(space)])
        )
        if np.min(np.abs(eigs)) <= 1e-6:
            continue  # float oracle inconclusive near the boundary
        checked += 1
        assert verdict == bool(np.min(eigs) > 0)
    assert checked > 50


def test_hereditary_submatrices_of_members_are_members():
    rng = np.random.default_rng(11)
    space = random_extension(sf.empty_space(), 6, rng)
    assert isinstance(certify_membership(space), GramMatrix)
    for _ in range(20):
        k = int(rng.integers(1, space.n + 1))
        idx = sorted(rng.choice(space.n, size=k, replace=False).tolist())
        sub = space.restrict(idx)
        assert isinstance(certify_membership(sub), GramMatrix)


def test_empty_space_is_member():
    assert isinstance(certify_membership(sf.empty_space()), GramMatrix)


@pytest.mark.parametrize("sq", [[[0, 1, 1], [1, 0, 1], [1, 1, 0]], [[0, 4], [4, 0]]],
                         ids=["member", "non-member"])
def test_verdict_is_computed_once_and_invisible(sq, eliminations):
    space, twin = space_from_sq(sq), space_from_sq(sq)
    first = certify_membership(space)
    assert certify_membership(space) is first
    assert is_member(space) == isinstance(first, GramMatrix)
    assert eliminations.calls == 1
    # the stored verdict is not part of the value
    assert space == twin and hash(space) == hash(twin) and repr(space) == repr(twin)
    assert space_to_json(space) == space_to_json(twin)


def test_store_certificate_guards_its_pivots(equilateral, stored_pivots):
    for bad in ([F(1), F(3, 4)], [F(1), F(3, 4), F(0)], [F(1), F(-1), F(2, 3)]):
        with pytest.raises(AssertionError):
            _store_certificate(space_from_sq(equilateral.sq_dist), bad)
    fresh = space_from_sq(equilateral.sq_dist)
    _store_certificate(fresh, [F(1), F(3, 4), F(2, 3)])
    assert stored_pivots(fresh) == [F(1), F(3, 4), F(2, 3)]


# --- bordered certificates --------------------------------------------------------

def assert_rows_match_oracle(space):
    """The stored Bareiss rows give the oracle's LDL^T: L[i][k] = B[i][k]/B[k][k]."""
    cert = certify_membership(space)
    rows, scale = cert._bareiss
    L, d = ldlt(gram_entries(space))
    assert len(rows) == space.n
    for i, row in enumerate(rows):
        assert [F(v, rows[k][k]) for k, v in enumerate(row)] == L[i][: i + 1]
    minors = [F(row[k], scale ** (k + 1)) for k, row in enumerate(rows)]
    assert [m / p for m, p in zip(minors, [F(1)] + minors[:-1])] == d
    assert list(cert.pd_certificate) == d


def assert_rejection_matches_oracle(space):
    """Same index and minor as `leading_minors`, and as the oracle: the
    minor is det of the accepted block times the Schur residual of the next
    point over it."""
    cert = certify_membership(space)
    assert isinstance(cert, Rejection)
    g = gram_entries(space)
    minors, stop = leading_minors(g)
    assert (cert.pivot_index, cert.leading_minor) == (stop, minors[stop])
    k = stop
    block, r = [row[:k] for row in g[:k]], g[k][:k]
    residual = g[k][k] - sum((a * b for a, b in zip(r, solve_posdef(block, r))), F(0))
    det = F(1)
    for p in ldlt(block)[1]:
        det *= p
    assert cert.leading_minor == det * residual <= 0


def _random_sq(rng, n, den):
    sq = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sq[i][j] = sq[j][i] = F(int(rng.integers(1, 4 * den)), den)
    return sq


def test_bordered_rows_match_oracle_on_members_and_non_members():
    rng = np.random.default_rng(41)
    seen = {True: 0, False: 0}
    for _ in range(40):
        n = int(rng.integers(1, 7))
        space = space_from_sq(_random_sq(rng, n, int(rng.integers(1, 9))))
        member = is_member(space)
        seen[member] += 1
        (assert_rows_match_oracle if member else assert_rejection_matches_oracle)(space)
    for _ in range(5):
        member = random_extension(sf.empty_space(), int(rng.integers(2, 9)), rng)
        assert_rows_match_oracle(space_from_sq(member.sq_dist))
    assert seen[True] >= 5 and seen[False] >= 5


def test_extensions_border_onto_the_base_and_match_oracle(eliminations):
    rng = np.random.default_rng(43)
    seen = {True: 0, False: 0}
    for _ in range(30):
        base = random_extension(sf.empty_space(), int(rng.integers(0, 6)), rng)
        m = int(rng.integers(1, 4))
        sq = _random_sq(rng, base.n + m, 16)
        ext = extend_space(base, [row[: base.n] for row in sq[base.n:]],
                           [row[base.n:] for row in sq[base.n:]], ["x", "y", "z"][:m])
        # the remembered base is invisible to equality, hash and repr
        twin = sf.SpaceDistances(labels=ext.labels, sq_dist=ext.sq_dist)
        assert ext == twin and hash(ext) == hash(twin) and repr(ext) == repr(twin)
        member = is_member(ext)
        seen[member] += 1
        if member:
            assert_rows_match_oracle(ext)
        else:
            assert_rejection_matches_oracle(ext)
            assert certify_membership(ext).pivot_index >= base.n
    assert seen[True] >= 3 and seen[False] >= 3
    # a chain of uncertified extensions is certified at once, each row bordered once
    big = random_extension(sf.empty_space(), 7, rng)
    chain = [space_from_sq(big.restrict(range(3)).sq_dist)]
    for j in range(3, 7):
        chain.append(extend_space(chain[-1], [big.sq_dist[j][:j]], [[None]], [f"c{j}"]))
    calls, rows = eliminations.calls, eliminations.rows
    assert_rows_match_oracle(chain[-1])
    assert (eliminations.calls - calls, eliminations.rows - rows) == (5, 7)
    for stage in chain:
        assert_rows_match_oracle(stage)
    # the extension of a rejected base keeps the base's witness
    far = space_from_sq([[0, 4], [4, 0]])
    ext = extend_space(far, [[F(1), F(1)]], [[None]], ["x"])
    assert certify_membership(ext) == certify_membership(far)


def test_finer_denominators_rescale_the_stored_rows():
    rng = np.random.default_rng(47)
    base = random_extension(sf.empty_space(), 6, rng)  # 32-bit grid
    base_rows = certify_membership(base)._bareiss[0]
    coords = np.hstack([embed(base).coords, np.zeros((6, 1))])
    for _ in range(3):
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        to_old = [snap_sq_dist(float(np.sum((c - v) ** 2)), 64) for c in coords]
        ext = extend_space(base, [to_old], [[None]], ["x"])
        assert_rows_match_oracle(ext)
        assert certify_membership(ext)._bareiss[1] > certify_membership(base)._bareiss[1]
    # 1/3-denominator prescriptions over dyadic bases
    pair = space_from_sq([[0, 1], [1, 0]])
    for space, dists in ((base, [F(11, 6)] + [F(2)] * 5), (pair, [F(4, 3), F(5, 3)])):
        ext = one_point_extension_witness(space, dists)
        assert_rows_match_oracle(ext)
        assert certify_membership(ext)._bareiss[1] == 3 * certify_membership(space)._bareiss[1]
    assert certify_membership(base)._bareiss[0] is base_rows
    # on the base's own grid an extension shares the base's row tuples
    same = random_extension(base, 1, rng)
    assert all(a is b for a, b in zip(certify_membership(same)._bareiss[0], base_rows))
    assert_rows_match_oracle(base)


def test_composed_certificate_gets_rows_when_first_extended():
    rng = np.random.default_rng(53)
    common = random_extension(sf.empty_space(), 2, rng)
    left, right = random_extension(common, 3, rng), random_extension(common, 2, rng)
    out = amalgamate(AmalgamProblem(left=left, right=right, common_left=(0, 1),
                                    common_right=(0, 1)))
    assert certify_membership(out)._bareiss == ((), 1)
    ext = random_extension(out, 2, rng)
    assert_rows_match_oracle(ext)
    assert_rows_match_oracle(out)


def test_zero_distance_prescription_keeps_a_zero_minor(equilateral):
    with pytest.raises(UnrealizableTypeError) as err:
        one_point_extension_witness(equilateral, [F(0), F(1), F(1)])
    row = [F(1), F(1, 2), F(1, 2)]  # polarized: the new point coincides with point 0
    g = [list(g_row) + [r] for g_row, r in zip(gram_entries(equilateral), row)] + [row + [F(1)]]
    minors, stop = leading_minors(g)
    rejection = err.value.rejection
    assert (rejection.pivot_index, rejection.leading_minor) == (stop, minors[stop]) == (3, 0)
    with pytest.raises(UnrealizableTypeError) as err:
        sf.type_sphere(equilateral, [F(0), F(1), F(1)])
    assert err.value.rejection == rejection


# --- embedding ------------------------------------------------------------------

def test_embed_single_point():
    emb = embed(space_from_sq([[0]]))
    assert np.allclose(emb.coords, [[1.0]])


def test_embed_orthogonal_pair_rows_orthonormal(orthogonal_pair):
    emb = embed(orthogonal_pair)
    gram = emb.coords @ emb.coords.T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert abs(emb.sq_distances()[0, 1] - 2.0) <= emb.tol


def test_embed_round_trip_within_tol(equilateral):
    emb = embed(equilateral, tol=1e-9)
    exact = np.array([[float(v) for v in row] for row in equilateral.sq_dist])
    assert np.max(np.abs(emb.sq_distances() - exact)) <= 1e-9


def test_embed_rejects_non_member():
    anti = space_from_sq([[0, 4], [4, 0]])
    with pytest.raises(NotMemberError) as err:
        embed(anti)
    assert err.value.rejection.pivot_index == 1


def test_embed_round_trip_medium_sizes():
    rng = np.random.default_rng(13)
    for n in (8, 16):
        space = random_extension(sf.empty_space(), n, rng)
        emb = embed(space, tol=1e-9)
        exact = np.array([[float(v) for v in row] for row in space.sq_dist])
        assert np.max(np.abs(emb.sq_distances() - exact)) <= 1e-9


def _oracle_factor(space):
    """L sqrt(D) from the Fraction LDL^T oracle, each entry rounded once."""
    L, d = ldlt(gram_entries(space))
    return [[float(L[i][k]) * math.sqrt(d[k]) if k <= i else 0.0 for k in range(space.n)]
            for i in range(space.n)]


def test_embed_is_the_exact_factor_rounded_bit_for_bit():
    rng = np.random.default_rng(59)
    members = [random_extension(sf.empty_space(), n, rng) for n in (1, 5, 12)]
    # grown stages up to 40 points: ill-conditioned, the smallest exact pivot 3.6e-5
    grown = list(sf.grow_chain(3, 40).stages[16::8])
    _, copied, _ = near_orthogonal_copy(members[2], 3)
    base = random_extension(sf.empty_space(), 3, rng)
    left, right = random_extension(base, 4, rng), random_extension(base, 5, rng)
    amalgam = amalgamate(AmalgamProblem(left=left, right=right, common_left=(0, 1, 2),
                                        common_right=(0, 1, 2)))
    for space in members + grown + [copied, amalgam]:
        assert embed(space).coords.tolist() == _oracle_factor(space)


def test_embedded_coords_are_read_only(equilateral):
    emb = embed(equilateral)
    with pytest.raises(ValueError):
        emb.coords[0, 0] = 5.0


# --- isometries -----------------------------------------------------------------

def test_identity_is_isometry(equilateral):
    iso = PartialIsometry((0, 1, 2), (0, 1, 2))
    assert verify_isometry(equilateral, equilateral, iso)


def test_swap_of_pair_is_isometry():
    space = space_from_sq([[0, 1], [1, 0]])
    assert verify_isometry(space, space, PartialIsometry((0, 1), (1, 0)))


def test_mismatched_distances_are_not_isometric():
    a = space_from_sq([[0, 1], [1, 0]])
    b = space_from_sq([[0, 2], [2, 0]])
    assert not verify_isometry(a, b, PartialIsometry((0, 1), (0, 1)))


def test_isometry_index_out_of_range(equilateral):
    with pytest.raises(IndexError):
        verify_isometry(equilateral, equilateral, PartialIsometry((0, 5), (0, 1)))


# --- file format ----------------------------------------------------------------

def test_space_file_round_trip(tmp_path, scalene):
    path = tmp_path / "space.json"
    save_space(scalene, path)
    loaded = load_space(path)
    assert loaded == scalene
    assert space_hash(loaded) == space_hash(scalene)


def test_space_json_uses_integer_pairs(equilateral):
    obj = space_to_json(equilateral)
    assert obj["sq_dist"][0][1] == [1, 1]
    assert obj["sq_dist"][0][0] == [0, 1]


def test_load_rejects_asymmetric(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": ["a", "b"], "sq_dist": [[[0, 1], [1, 1]], [[2, 1], [0, 1]]]}))
    with pytest.raises(MalformedSpaceError):
        load_space(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": ["a"]}))
    with pytest.raises(MalformedSpaceError):
        load_space(path)


def test_load_rejects_zero_denominator(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": ["a", "b"], "sq_dist": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]}))
    with pytest.raises(MalformedSpaceError):
        load_space(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedSpaceError):
        load_space(path)


def test_space_from_json_rejects_float_entries():
    with pytest.raises(MalformedSpaceError):
        space_from_json({"labels": ["a", "b"], "sq_dist": [[0.0, 1.5], [1.5, 0.0]]})


# --- extension helpers ------------------------------------------------------------

def test_require_member_returns_certificate_or_raises(equilateral):
    assert require_member(equilateral, "space").pd_certificate is not None
    anti = space_from_sq([[0, 4], [4, 0]])
    with pytest.raises(UnrealizableTypeError) as info:
        require_member(anti, "base", UnrealizableTypeError)
    assert info.value.rejection == certify_membership(anti)
    assert str(info.value).startswith("base is not a certified member")


def test_extend_space_layout_and_label_primes(equilateral):
    to_old = [[F(1), F(2), F(3, 2)], [F(1, 2), F(1, 2), F(1, 2)], [F(1)] * 3]
    among = [[None, F(5, 4), F(1)], [F(5, 4), None, F(3, 4)], [F(1), F(3, 4), None]]
    ext = extend_space(equilateral, to_old, among, ["p0", "q", "p0"])
    assert ext.labels == ("p0", "p1", "p2", "p0'", "q", "p0''")
    assert ext.restrict(range(3)).sq_dist == equilateral.sq_dist
    for t in range(3):
        assert list(ext.sq_dist[3 + t][:3]) == to_old[t]
        assert [ext.sq_dist[i][3 + t] for i in range(3)] == to_old[t]
        for u in range(3):
            assert ext.sq_dist[3 + t][3 + u] == (0 if t == u else among[t][u])


def test_extend_space_rejects_asymmetric_new_block(equilateral):
    with pytest.raises(MalformedSpaceError, match="symmetric"):
        extend_space(equilateral, [[F(1)] * 3] * 2, [[None, F(1)], [F(2), None]], ["x", "y"])


def test_near_orthogonal_copy_appends_primes_on_collision():
    s = space_from_sq([[0, 1], [1, 0]], labels=["a", "a*"])
    copy, combined, _ = near_orthogonal_copy(s, 2)
    assert copy.labels == ("a*'", "a**")
    assert combined.labels == ("a", "a*", "a*'", "a**")
    assert copy.sq_dist == s.sq_dist


def _always_rejected(seen):
    def build(snapped):
        seen.append(snapped)
        return space_from_sq([[0, 4], [4, 0]])  # antipodal pair: never a member
    return build


@pytest.mark.parametrize(
    "value, denom_bits, rungs",
    [
        (0.1, 32, [32, 64]),          # >= 2^-12: exact at 64 bits, so 128 moves nothing
        (0.5, 32, [32]),              # already on the first grid
        (2.0 ** -40, 32, [32, 64]),   # clamped to 2^-32, then exact at 64 bits
        (2.0 ** -40, 8, [8, 16, 32, 64]),  # every finer grid moves it
    ],
)
def test_snap_and_certify_stops_when_grid_moves_nothing(value, denom_bits, rungs):
    seen = []
    with pytest.raises(SnapError, match=f"up to {rungs[-1]} bits"):
        snap_and_certify(_always_rejected(seen), [value], denom_bits)
    assert seen == [[snap_sq_dist(value, bits)] for bits in rungs]


def test_snap_and_certify_returns_first_certified_grid():
    def pair(snapped):
        return space_from_sq([[0, snapped[0]], [snapped[0], 0]])

    space, snapped = snap_and_certify(pair, [0.1], 32)
    assert snapped == [snap_sq_dist(0.1, 32)]
    assert space.sq_dist[0][1] == snapped[0]

    def fine_only(snapped):  # rejects every value on the 32-bit grid
        d = snapped[0] if snapped[0].denominator > 2**32 else F(4)
        return space_from_sq([[0, d], [d, 0]])

    space, snapped = snap_and_certify(fine_only, [0.1], 32)
    assert snapped == [F(0.1)]
    assert space.sq_dist[0][1] == F(0.1)


def test_snap_and_certify_uses_the_given_snap():
    seen = []
    with pytest.raises(SnapError):
        snap_and_certify(_always_rejected(seen), [0.2, 0.3], 4, snap=lambda v, bits: min(
            snap_sq_dist(v, bits), F(1, 8)))
    assert seen == [[F(1, 8), F(1, 8)]]  # the cap leaves nothing for a finer grid to move
