"""Reproducibility and partitioning of the counter-based normal stream."""

import hashlib

import numpy as np
import pytest

from spherefield.sampling import normal_matrix, random_unit_vectors


def test_same_seed_same_output():
    a = normal_matrix(123, 500, 3)
    b = normal_matrix(123, 500, 3)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(normal_matrix(1, 100, 2), normal_matrix(2, 100, 2))


@pytest.mark.parametrize("cols", [1, 2, 3, 4, 5, 7, 8])
def test_row_partition_is_exact(cols):
    whole = normal_matrix(99, 1000, cols)
    split = np.vstack(
        [
            normal_matrix(99, 250, cols),
            normal_matrix(99, 500, cols, row_offset=250),
            normal_matrix(99, 250, cols, row_offset=750),
        ]
    )
    assert np.array_equal(whole, split)


def test_moments_are_standard_normal():
    z = normal_matrix(7, 200_000, 4)
    assert np.max(np.abs(z.mean(axis=0))) < 0.01
    assert np.max(np.abs(z.std(axis=0) - 1.0)) < 0.01
    # columns uncorrelated
    c = np.corrcoef(z.T) - np.eye(4)
    assert np.max(np.abs(c)) < 0.01


def test_zero_rows():
    assert normal_matrix(5, 0, 3).shape == (0, 3)


def test_negative_rows_rejected():
    with pytest.raises(ValueError, match="rows"):
        normal_matrix(5, -1, 3)


def test_negative_cols_rejected():
    with pytest.raises(ValueError, match="cols"):
        normal_matrix(5, 3, -2)


# sha256 of normal_matrix(20241029, 37, cols, row_offset).tobytes(), recorded
# before Box-Muller was rewritten in place; covers strides with padding (cols 1,
# 3) and without (cols 4, 8). The hashes pin one build of numpy and its maths
# library: a different build may round sin/cos/log1p differently.
STREAM_SHA256 = {
    (1, 0): "e6efe249ad067cde761ee6f7a296937e935ebb039471ab14ad518a727b0beacb",
    (1, 5): "e06a2ac0a40d95cfb4e6dae663d6c737bd79c819e10ec77cc2dcc178b9b78f96",
    (3, 0): "2c8ec73781619f21fd47542d077206242843decef220e67aeca81de84141d170",
    (3, 5): "479c47a85308fbeeba8d7f6280b48931b96c3ce14b008679e32ed16f6679f1d5",
    (4, 0): "40c06b434e5accd30c0bd78b98343ab50e155223546ef501663909c146db8209",
    (4, 5): "efb7e9211b52b4077817b97e11dcaa362a3e6dd6f8c110bfcef2d09c1da6e222",
    (8, 0): "ca27d149417d5688e458577e57ada2e12249593060ab861ed50845b8f6286abd",
    (8, 5): "329c8f2590523c7e2bb71ac0c99967ae3342fc8454f2194eba32cec3b718fc96",
}


@pytest.mark.parametrize("cols,row_offset", sorted(STREAM_SHA256))
def test_stream_is_pinned(cols, row_offset):
    z = normal_matrix(20241029, 37, cols, row_offset)
    assert z.shape == (37, cols) and z.dtype == np.float64 and z.flags.c_contiguous
    assert hashlib.sha256(z.tobytes()).hexdigest() == STREAM_SHA256[cols, row_offset]


def reference_normal_matrix(seed, rows, cols, row_offset=0):
    """Out-of-place Box-Muller over the same Philox stream, written plainly."""
    stride = 4 * ((cols + 3) // 4)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(row_offset * (stride // 4))
    u = np.random.Generator(bitgen).random((rows, stride // 2, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    ang = 2.0 * np.pi * u[..., 1]
    z = np.empty((rows, stride))
    z[:, 0::2] = r * np.cos(ang)
    z[:, 1::2] = r * np.sin(ang)
    return z[:, :cols]


@pytest.mark.parametrize("cols", [1, 2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("row_offset", [0, 5, 1001])
def test_stream_matches_reference_transform(cols, row_offset):
    got = normal_matrix(31, 257, cols, row_offset)
    assert np.array_equal(got, reference_normal_matrix(31, 257, cols, row_offset))


def test_unit_vectors_are_unit():
    rng = np.random.default_rng(0)
    v = random_unit_vectors(rng, 200, 6)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
