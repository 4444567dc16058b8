"""Tests for augmented complex vector/matrix containers."""

import numpy as np
import pytest

from gridfreq.augmented import (
    AugmentedMatrix,
    StructureError,
    augment,
    enforce_structure,
)


def random_structured(rng, n):
    """Random matrix with exact augmented block structure."""
    b11 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b12 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return AugmentedMatrix(b11, b12)


class TestAugmentedVector:
    def test_materialize_is_conjugate_pair(self):
        v = augment([1 + 2j, -3j])
        full = v.materialize()
        assert full.shape == (4,)
        np.testing.assert_array_equal(full[:2], [1 + 2j, -3j])
        np.testing.assert_array_equal(full[2:], np.conj(full[:2]))

    def test_batched_shape(self):
        v = augment(np.ones((7, 3), dtype=complex))
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
            a = augment(rng.normal(size=n) + 1j * rng.normal(size=n))
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

    def test_diagonal_builder(self):
        m = AugmentedMatrix.diagonal([1e-6, 1e-4])
        full = m.materialize()
        np.testing.assert_array_equal(np.diag(full), [1e-6, 1e-4, 1e-6, 1e-4])
        assert np.count_nonzero(full - np.diag(np.diag(full))) == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AugmentedMatrix(np.zeros((2, 2)), np.zeros((3, 3)))


class TestEnforceStructure:
    def test_small_perturbation_is_repaired(self):
        rng = np.random.default_rng(5)
        m = random_structured(rng, 3)
        full = m.materialize()
        scale = np.max(np.abs(full))
        full[4, 4] += 0.5e-9 * scale  # one block-(2,2) entry, below tolerance
        fixed = enforce_structure(full)
        # projection restores the exact structure and stays near the input
        refixed = enforce_structure(fixed.materialize())
        np.testing.assert_array_equal(fixed.materialize(), refixed.materialize())
        assert np.max(np.abs(fixed.materialize() - full)) <= 0.5e-9 * scale

    def test_large_perturbation_raises(self):
        rng = np.random.default_rng(6)
        m = random_structured(rng, 3)
        full = m.materialize()
        full[4, 4] += 10e-9 * np.max(np.abs(full))
        with pytest.raises(StructureError):
            enforce_structure(full)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        m = random_structured(rng, 4)
        full = m.materialize() + 1e-10 * rng.normal(size=(8, 8))
        once = enforce_structure(full).materialize()
        twice = enforce_structure(once).materialize()
        np.testing.assert_array_equal(once, twice)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            enforce_structure(np.zeros((3, 3), dtype=complex))
