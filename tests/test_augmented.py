"""Tests for augmented complex vector/matrix containers."""

import numpy as np
import pytest

from gridfreq.augmented import AugmentedMatrix, AugmentedVector


def random_structured(rng, n, m=None):
    """Random n x m (default square) matrix with exact augmented block structure."""
    shape = (n, n if m is None else m)
    b11 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b12 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return AugmentedMatrix(b11, b12)


class TestAugmentedVector:
    def test_materialize_is_conjugate_pair(self):
        v = AugmentedVector([1 + 2j, -3j])
        full = v.materialize()
        assert full.shape == (4,)
        np.testing.assert_array_equal(full[:2], [1 + 2j, -3j])
        np.testing.assert_array_equal(full[2:], np.conj(full[:2]))

    def test_batched_shape(self):
        v = AugmentedVector(np.ones((7, 3), dtype=complex))
        assert v.materialize().shape == (7, 6)


class TestAugmentedMatrix:
    def test_materialize_blocks(self):
        m = AugmentedMatrix([[1 + 1j]], [[2 - 3j]])
        full = m.materialize()
        expected = np.array([[1 + 1j, 2 - 3j], [2 + 3j, 1 - 1j]])
        np.testing.assert_array_equal(full, expected)

    def test_matvec_preserves_conjugate_pair(self):
        # For any structured W and conjugate-pair a, W @ a is a conjugate pair.
        rng = np.random.default_rng(42)
        for n in (1, 2, 5):
            w = random_structured(rng, n)
            a = AugmentedVector(rng.normal(size=n) + 1j * rng.normal(size=n))
            out = (w @ a).materialize()
            np.testing.assert_allclose(out[n:], np.conj(out[:n]), rtol=0, atol=1e-12)
            # agrees with the dense product on the materialized forms
            dense = w.materialize() @ a.materialize()
            np.testing.assert_allclose(out, dense, rtol=1e-12, atol=1e-12)

    def test_matmul_matrix_matches_dense(self):
        rng = np.random.default_rng(3)
        a, b = random_structured(rng, 3), random_structured(rng, 3)
        prod = (a @ b).materialize()
        np.testing.assert_allclose(prod, a.materialize() @ b.materialize(), rtol=1e-12)

    def test_rectangular_blocks_match_dense(self):
        # an observation-shaped (1 x n) and a gain-shaped (n x 1) operand
        rng = np.random.default_rng(4)
        h, k = random_structured(rng, 1, 3), random_structured(rng, 3, 1)
        m, other = random_structured(rng, 3), random_structured(rng, 3)
        dense_h, dense_m = h.materialize(), m.materialize()
        np.testing.assert_array_equal(h.H.materialize(), np.conj(dense_h.T))
        np.testing.assert_allclose(
            (h @ m @ h.H).materialize(), dense_h @ dense_m @ np.conj(dense_h.T), rtol=1e-12
        )
        np.testing.assert_allclose((k @ h).materialize(), k.materialize() @ dense_h, rtol=1e-12)
        np.testing.assert_array_equal((m + other).materialize(), dense_m + other.materialize())
        np.testing.assert_array_equal((m - other).materialize(), dense_m - other.materialize())

    def test_results_keep_the_checked_invariants(self):
        # results skip the constructor's checks, so they must already hold:
        # complex128 blocks of one shape, also when operands broadcast
        rng = np.random.default_rng(5)
        batched = AugmentedMatrix(np.ones((2, 3, 3)), np.zeros((2, 3, 3)))
        m, h = random_structured(rng, 3), random_structured(rng, 1, 3)
        for out in (batched @ m, m @ batched, batched + m, m - batched, h.H, h @ batched):
            assert out.block11.dtype == out.block12.dtype == np.complex128
            assert out.block11.shape == out.block12.shape

    def test_diagonal_builder(self):
        m = AugmentedMatrix.diagonal([1e-6, 1e-4])
        full = m.materialize()
        np.testing.assert_array_equal(np.diag(full), [1e-6, 1e-4, 1e-6, 1e-4])
        assert np.count_nonzero(full - np.diag(np.diag(full))) == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AugmentedMatrix(np.zeros((2, 2)), np.zeros((3, 3)))
