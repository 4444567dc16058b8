"""Tests for augmented complex vector/matrix containers."""

import numpy as np
import pytest

from gridfreq.augmented import AugmentedMatrix, AugmentedVector
from gridfreq.estimators import FilterState, _step, nss_model


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

    def test_results_keep_the_checked_invariants(self):
        # the step wraps its blocks without the constructor's checks, so they
        # must already hold: complex128 blocks of one shape, also when an
        # unbatched covariance broadcasts against a batch of states
        model = nss_model(1000.0, snr_db=30.0)
        x = AugmentedVector(np.full((2, 3, 3), 0.5 + 0.1j))
        state = FilterState(x, AugmentedMatrix.eye(3, 0.1))
        new, diag = _step(model, state, AugmentedVector(np.ones((2, 3, 1))))
        for out in (new.M, diag.gain, diag.M_prior, diag.M_post):
            assert out.block11.dtype == out.block12.dtype == np.complex128
            assert out.block11.shape == out.block12.shape
            assert out.block11.shape[:2] == (2, 3)

    def test_diagonal_builder(self):
        m = AugmentedMatrix.diagonal([1e-6, 1e-4])
        full = m.materialize()
        np.testing.assert_array_equal(np.diag(full), [1e-6, 1e-4, 1e-6, 1e-4])
        assert np.count_nonzero(full - np.diag(np.diag(full))) == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AugmentedMatrix(np.zeros((2, 2)), np.zeros((3, 3)))
