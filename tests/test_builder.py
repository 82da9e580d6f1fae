"""Amalgamation, extension witnesses, and generic chain growth."""

import hashlib
import json
from fractions import Fraction as F

import numpy as np
import pytest

from exact_oracle import ldlt, solve_posdef
from spherefield import (
    AmalgamProblem,
    NotMemberError,
    PartialIsometry,
    UnrealizableTypeError,
    amalgamate,
    check_transitivity_witness,
    empty_space,
    grow_chain,
    load_chain,
    no_algebraicity_witnesses,
    one_point_extension_witness,
    random_extension,
    save_chain,
    space_from_sq,
    verify_isometry,
)
from spherefield import builder
from spherefield.exact import leading_minors, snap_sq_dist
from spherefield.metric import (
    GramMatrix,
    certify_membership,
    embed,
    gram_entries,
    snap_and_certify,
)
from spherefield.gaussian import build_model


# --- amalgamation ---------------------------------------------------------------

def test_amalgam_of_space_with_itself_is_identity(equilateral, stored_pivots):
    p = AmalgamProblem(
        left=equilateral,
        right=equilateral,
        common_left=(0, 1, 2),
        common_right=(0, 1, 2),
    )
    out = amalgamate(p)
    assert out.n == 3
    assert out.sq_dist == equilateral.sq_dist
    assert stored_pivots(out) == ldlt(gram_entries(out))[1]


def test_amalgam_over_empty_common_is_orthogonal(stored_pivots):
    left = space_from_sq([[0]], labels=("x",))
    right = space_from_sq([[0]], labels=("y",))
    out = amalgamate(AmalgamProblem(left=left, right=right, common_left=(), common_right=()))
    assert out.n == 2
    assert out.sq_dist[0][1] == 2  # free amalgam of unit vectors is orthogonal
    assert stored_pivots(out) == ldlt(gram_entries(out))[1]


def test_amalgam_projection_arithmetic():
    # A = {c}; x and y both at d^2 = 1 from c: <proj x, proj y> = 1/4, d^2(x,y) = 3/2
    left = space_from_sq([[0, 1], [1, 0]], labels=("c", "x"))
    right = space_from_sq([[0, 1], [1, 0]], labels=("c", "y"))
    out = amalgamate(AmalgamProblem(left=left, right=right, common_left=(0,), common_right=(0,)))
    assert out.n == 3
    assert out.sq_dist[1][2] == F(3, 2)


def _shuffled(space, a_size, rng):
    """`space` reordered at random with a non-common point first, and the
    new position of each of its common points 0..a_size-1."""
    order = rng.permutation(space.n)
    lead = next(p for p, i in enumerate(order) if i >= a_size)
    order = [int(i) for i in np.roll(order, -lead)]
    return space.restrict(order), [order.index(c) for c in range(a_size)]


def test_amalgam_restrictions_and_strongness_random(stored_pivots):
    rng = np.random.default_rng(19)
    shuffle_rng = np.random.default_rng(20)
    for _ in range(40):
        a_size = int(rng.integers(0, 3))
        base = random_extension(empty_space(), a_size, rng)
        left = random_extension(base, int(rng.integers(1, 4)), rng)
        right = random_extension(base, int(rng.integers(1, 4)), rng)
        common = tuple(range(a_size))
        # second input: common points at shuffled, non-leading positions in both
        left_s, pos_l = _shuffled(left, a_size, shuffle_rng)
        right_s, pos_r = _shuffled(right, a_size, shuffle_rng)
        ids = [int(c) for c in shuffle_rng.permutation(a_size)]
        for lt, rt, cl, cr in (
            (left, right, common, common),
            (left_s, right_s, [pos_l[c] for c in ids], [pos_r[c] for c in ids]),
        ):
            out = amalgamate(AmalgamProblem(left=lt, right=rt, common_left=cl, common_right=cr))
            # left block reproduced exactly, entry for entry
            assert out.restrict(range(lt.n)).sq_dist == lt.sq_dist
            # right reproduced exactly through its identification
            right_only = [j for j in range(rt.n) if j not in cr]
            right_pos = [cl[cr.index(j)] if j in cr else lt.n + right_only.index(j)
                         for j in range(rt.n)]
            assert out.restrict(right_pos).sq_dist == rt.sq_dist
            # strong: no left-only point collapses onto a right-only point
            for i in range(lt.n):
                if i not in cl:
                    for j in range(lt.n, out.n):
                        assert out.sq_dist[i][j] > 0
            # certified by an elimination that cannot read the stored certificate
            assert leading_minors(gram_entries(out))[1] is None
            # the composed certificate is the full factorization's, exactly
            assert stored_pivots(out) == ldlt(gram_entries(out))[1]


def test_embed_of_amalgam_eliminates_once_then_model_reuses_rows(eliminations):
    # the composed certificate carries pivots only: embed gets its rows once
    rng = np.random.default_rng(31)
    base = random_extension(empty_space(), 2, rng)
    left = random_extension(base, 3, rng)
    right = random_extension(base, 3, rng)
    out = amalgamate(AmalgamProblem(left=left, right=right, common_left=(0, 1),
                                    common_right=(0, 1)))
    before = eliminations.calls
    embed(out)
    assert eliminations.calls == before + 1
    build_model(out)
    assert eliminations.calls == before + 1


def test_amalgam_rejects_non_isometric_identification():
    left = space_from_sq([[0, 1], [1, 0]])
    right = space_from_sq([[0, 2], [2, 0]])
    with pytest.raises(ValueError, match="isometric"):
        AmalgamProblem(left=left, right=right, common_left=(0, 1), common_right=(0, 1))


def test_amalgam_requires_member_inputs():
    anti = space_from_sq([[0, 4], [4, 0]])
    good = space_from_sq([[0, 1], [1, 0]])
    with pytest.raises(NotMemberError):
        AmalgamProblem(left=anti, right=good, common_left=(), common_right=())


def test_amalgam_label_collision_resolved(equilateral):
    out = amalgamate(
        AmalgamProblem(
            left=equilateral, right=equilateral, common_left=(0,), common_right=(0,)
        )
    )
    assert len(set(out.labels)) == out.n == 5


# --- random extension -----------------------------------------------------------

def test_random_extension_zero_points_is_identity(equilateral):
    rng = np.random.default_rng(0)
    assert random_extension(equilateral, 0, rng) is equilateral


def test_random_extension_from_empty():
    rng = np.random.default_rng(1)
    one = random_extension(empty_space(), 1, rng)
    assert one.n == 1
    assert isinstance(certify_membership(one), GramMatrix)


def test_random_extension_determinism():
    a = random_extension(empty_space(), 2, np.random.default_rng(123))
    b = random_extension(empty_space(), 2, np.random.default_rng(123))
    assert a == b


def test_random_extension_preserves_base(equilateral):
    rng = np.random.default_rng(2)
    out = random_extension(equilateral, 3, rng)
    assert out.restrict(range(3)).sq_dist == equilateral.sq_dist
    assert isinstance(certify_membership(out), GramMatrix)


# --- one-point extension witness ------------------------------------------------

def test_orthogonal_prescription_always_realizable(equilateral):
    ext = one_point_extension_witness(equilateral, [F(2), F(2), F(2)])
    assert ext.n == 4
    cert = certify_membership(ext)
    assert isinstance(cert, GramMatrix)
    # block-diagonal Gram: the last pivot is exactly 1
    assert cert.pd_certificate[-1] == 1


def test_duplicate_point_prescription_rejected(equilateral):
    dup = list(equilateral.sq_dist[0])
    dup[0] = F(0)  # distance 0 to the duplicated point
    with pytest.raises(UnrealizableTypeError) as err:
        one_point_extension_witness(equilateral, dup)
    assert err.value.rejection.leading_minor == 0


def test_one_point_extension_borders_one_row(equilateral, eliminations, stored_pivots):
    certify_membership(equilateral)
    calls, rows = eliminations.calls, eliminations.rows
    ext = one_point_extension_witness(equilateral, [F(1), F(1), F(4, 3)])
    assert (eliminations.calls - calls, eliminations.rows - rows) == (1, 1)
    assert stored_pivots(ext) == ldlt(gram_entries(ext))[1]


def test_extension_over_orthogonal_pair_exact_pivots(orthogonal_pair):
    # prescribe d^2 = 1 to both: bordered Gram [[1,0,1/2],[0,1,1/2],[1/2,1/2,1]]
    ext = one_point_extension_witness(orthogonal_pair, [F(1), F(1)])
    cert = certify_membership(ext)
    assert cert.pd_certificate == (F(1), F(1), F(1, 2))


# --- transitivity ---------------------------------------------------------------

def test_transitivity_witness_everywhere(scalene):
    for a in range(3):
        for b in range(3):
            iso = check_transitivity_witness(a, b, scalene)
            assert verify_isometry(scalene, scalene, iso)


def test_transitivity_witness_bad_index(scalene):
    with pytest.raises(IndexError):
        check_transitivity_witness(0, 9, scalene)


def test_one_point_maps_between_different_spaces(equilateral, scalene):
    # every point is at distance 1 from the base point, so all singletons
    # are isometric, even across structurally different spaces
    assert verify_isometry(equilateral, scalene, PartialIsometry((2,), (0,)))


# --- no algebraicity ------------------------------------------------------------

def test_witnesses_single(equilateral, stored_pivots):
    wit = no_algebraicity_witnesses(equilateral, fixed=(1, 2), x_idx=0, m=1)
    assert wit.sq_to_x > 0
    assert stored_pivots(wit.combined) == ldlt(gram_entries(wit.combined))[1]
    ext = wit.extensions[0]
    assert ext.n == 4
    assert isinstance(certify_membership(ext), GramMatrix)
    # profile over the fixed set matches x exactly
    assert ext.sq_dist[3][1] == equilateral.sq_dist[0][1]
    assert ext.sq_dist[3][2] == equilateral.sq_dist[0][2]


def test_witnesses_three_over_empty_fixed(equilateral, stored_pivots):
    wit = no_algebraicity_witnesses(equilateral, fixed=(), x_idx=0, m=3)
    assert wit.combined.n == 6
    assert leading_minors(gram_entries(wit.combined))[1] is None
    assert stored_pivots(wit.combined) == ldlt(gram_entries(wit.combined))[1]
    # pairwise distinct: all pairwise distances positive (they equal 2 rho^2 = 2)
    for i in wit.new_indices:
        for j in wit.new_indices:
            if i != j:
                assert wit.combined.sq_dist[i][j] == 2
        assert wit.combined.sq_dist[i][0] > 0


def test_witnesses_over_all_other_points(stored_pivots):
    rng = np.random.default_rng(29)
    space = random_extension(empty_space(), 5, rng)
    fixed = (0, 1, 2, 3)
    wit = no_algebraicity_witnesses(space, fixed=fixed, x_idx=4, m=2)
    # oracle: rho^2 is the Schur residual of x over the fixed block
    g = gram_entries(space)
    gf = [[g[i][j] for j in fixed] for i in fixed]
    rhs = [g[4][j] for j in fixed]
    w = solve_posdef(gf, rhs)
    rho_sq = 1 - sum(rhs[i] * w[i] for i in range(4))
    assert rho_sq > 0
    assert wit.sq_to_x == 2 * rho_sq
    assert stored_pivots(wit.combined) == ldlt(gram_entries(wit.combined))[1]
    for ext in wit.extensions:
        assert leading_minors(gram_entries(ext))[1] is None
        for t, f in enumerate(fixed):
            assert ext.sq_dist[5][f] == space.sq_dist[4][f]


def test_witnesses_reject_fixed_containing_x(equilateral):
    with pytest.raises(ValueError):
        no_algebraicity_witnesses(equilateral, fixed=(0, 1), x_idx=0, m=1)


def test_witnesses_reject_negative_fixed_index(equilateral):
    # -1 would read as point 2, the last one
    with pytest.raises(IndexError, match="fixed index -1"):
        no_algebraicity_witnesses(equilateral, fixed=(-1,), x_idx=0, m=1)


def test_witnesses_reject_negative_fixed_index_naming_x(equilateral):
    # -1 reads as point 2, which is x itself, past the check that x is not fixed
    with pytest.raises(IndexError, match="fixed index -1"):
        no_algebraicity_witnesses(equilateral, fixed=(-1,), x_idx=2, m=1)


def test_witnesses_reject_fixed_index_past_the_end(equilateral):
    with pytest.raises(IndexError, match="fixed index 7"):
        no_algebraicity_witnesses(equilateral, fixed=(7,), x_idx=0, m=1)


# --- chains ---------------------------------------------------------------------

def test_chain_growth_coherence():
    chain = grow_chain(seed=4, n_stages=5)
    assert len(chain.stages) == 6
    for a, b in zip(chain.stages, chain.stages[1:]):
        assert b.restrict(range(a.n)).sq_dist == a.sq_dist
        assert isinstance(certify_membership(b), GramMatrix)


def test_grow_chain_eliminates_each_stage_once(eliminations, monkeypatch):
    # a member start not yet certified, then one bordering per ladder rung
    start = random_extension(empty_space(), 6, np.random.default_rng(37))
    start = space_from_sq(start.sq_dist)
    rungs = []

    def counting_ladder(build, *args, **kwargs):
        def counted(snapped):
            rungs.append(snapped)
            return build(snapped)
        return snap_and_certify(counted, *args, **kwargs)

    monkeypatch.setattr(builder, "snap_and_certify", counting_ladder)
    calls, rows = eliminations.calls, eliminations.rows
    grow_chain(seed=8, n_stages=6, start=start)
    assert len(rungs) >= 6
    assert eliminations.calls - calls == 1 + len(rungs)
    # the start's six rows, then each rung borders its one new row
    assert eliminations.rows - rows == 6 + len(rungs)


def test_chain_determinism_byte_for_byte(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_chain(grow_chain(seed=77, n_stages=4), d1)
    save_chain(grow_chain(seed=77, n_stages=4), d2)
    for name in sorted(p.name for p in d1.iterdir()):
        b1 = (d1 / name).read_bytes()
        b2 = (d2 / name).read_bytes()
        assert hashlib.sha256(b1).hexdigest() == hashlib.sha256(b2).hexdigest()


def test_chain_save_load_round_trip(tmp_path):
    chain = grow_chain(seed=5, n_stages=3, start=space_from_sq([[0, 1], [1, 0]]))
    save_chain(chain, tmp_path / "chain")
    loaded = load_chain(tmp_path / "chain")
    assert loaded.stages == chain.stages
    assert loaded.seed == chain.seed
    for t, more in enumerate([
        grow_chain(seed=9, n_stages=3, points_per_stage=2, start=space_from_sq([[0, 1], [1, 0]])),
        grow_chain(seed=10, n_stages=0),  # one stage, the empty start
        grow_chain(seed=10, n_stages=0, start=space_from_sq([[0, 3], [3, 0]])),
    ]):
        save_chain(more, tmp_path / f"more{t}")
        # one stage file, the last, whatever the number of stages
        assert sorted(p.name for p in (tmp_path / f"more{t}").iterdir()) == [
            "manifest.json", f"stage_{len(more.stages) - 1:03d}.json"]
        loaded = load_chain(tmp_path / f"more{t}")
        assert loaded.stages == more.stages
        assert (loaded.seed, loaded.denom_bits) == (more.seed, more.denom_bits)
        assert loaded.log == more.log


def test_chain_load_detects_corruption(tmp_path):
    chain = grow_chain(seed=6, n_stages=2)
    save_chain(chain, tmp_path / "chain")
    target = tmp_path / "chain" / "stage_002.json"  # the one stage file: the last
    obj = json.loads(target.read_text())
    obj["labels"] = ["zzz"]
    target.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="hash"):
        load_chain(tmp_path / "chain")


@pytest.mark.parametrize("stages", [
    # equal labels, but the middle stage's distance is not the last stage's
    (space_from_sq([[0]]), space_from_sq([[0, 1], [1, 0]]),
     space_from_sq([[0, 2, 1], [2, 0, 1], [1, 1, 0]])),
    # equal distances under different labels
    (space_from_sq([[0]], labels=("a",)), space_from_sq([[0, 1], [1, 0]], labels=("b", "c"))),
], ids=["sq_dist", "labels"])
def test_save_chain_rejects_unnested_stages_and_writes_nothing(stages, tmp_path):
    chain = builder.GenericChain(stages=stages, seed=0, denom_bits=32)
    with pytest.raises(ValueError, match="prefix"):
        save_chain(chain, tmp_path / "chain")
    assert not (tmp_path / "chain").exists()


@pytest.mark.parametrize("points", [None, [0, 1], [0, 1, 2, 3], [1, 0, 2], [-1, 1, 2],
                                    [0, 1, 1], "012", [0, 1.0, 2], [0, None, 2], [False, True, 2]],
                         ids=["missing", "short", "long", "decreasing", "negative",
                              "wrong-end", "not-a-list", "float", "null", "bool"])
def test_load_chain_rejects_bad_stage_points(points, tmp_path):
    save_chain(grow_chain(seed=12, n_stages=2), tmp_path / "chain")
    path = tmp_path / "chain" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["stage_points"] == [0, 1, 2]
    if points is None:
        del manifest["stage_points"]
    else:
        manifest["stage_points"] = points
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="stage_points"):
        load_chain(tmp_path / "chain")


def test_load_chain_without_hash_raises_value_error(tmp_path):
    save_chain(grow_chain(seed=12, n_stages=1), tmp_path / "chain")
    path = tmp_path / "chain" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["last_stage_sha256"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="hash"):
        load_chain(tmp_path / "chain")


def test_long_prefix_chain_directory_stays_small(tmp_path):
    # 97 stages: the prefixes of a random 96-point space, 0 to 96 points
    rng = np.random.default_rng(96)
    x = rng.standard_normal((96, 192))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    d = ((x[:, None] - x[None]) ** 2).sum(-1)
    last = space_from_sq([[0 if i == j else snap_sq_dist(float(d[i, j]), 32) for j in range(96)]
                          for i in range(96)])
    chain = builder.GenericChain(tuple(last.restrict(range(i)) for i in range(97)), 0, 32)
    save_chain(chain, tmp_path / "chain")
    files = list((tmp_path / "chain").iterdir())
    assert sorted(p.name for p in files) == ["manifest.json", "stage_096.json"]
    assert sum(p.stat().st_size for p in files) <= 1_000_000


@pytest.mark.parametrize("seed", range(10))
def test_grow_chain_reaches_forty_points(seed):
    chain = grow_chain(seed, 40)
    assert chain.stages[-1].n == 40
    assert isinstance(certify_membership(chain.stages[-1]), GramMatrix)


def test_chain_log_records_grid_bits_and_new_pivots():
    chain = grow_chain(seed=0, n_stages=40)
    d = ldlt(gram_entries(chain.stages[-1]))[1]
    for entry, stage in zip(chain.log, chain.stages[1:]):
        new = [v for row in stage.sq_dist[stage.n - 1:] for v in row]
        assert entry["denom_bits"] == 32  # the configured start, whatever rung was used
        assert entry["max_den_bits"] == max(v.denominator.bit_length() for v in new)
        assert entry["min_new_pivot"] == float(d[stage.n - 1])
    bits = [entry["max_den_bits"] for entry in chain.log]
    assert max(bits) > 33 and 33 in bits  # some stages needed a finer rung, others not


def test_chain_log_records_measure_choice():
    chain = grow_chain(seed=8, n_stages=2)
    assert all("uniform-sphere" in entry["extension_measure"] for entry in chain.log)
