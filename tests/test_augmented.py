"""The augmented structure [[B11, B12], [conj(B12), conj(B11)]], held as its top block row."""

import numpy as np
from dense_reference import complex_normal, full

from gridfreq.analysis import _full
from gridfreq.estimators import _batch_first, _batch_last, _diagonal, _StepPlan, nss_model


class TestAugmentedMatrix:
    def test_materialize_blocks(self):
        got = _full(np.array([[1 + 1j, 2 - 3j]]))
        expected = np.array([[1 + 1j, 2 - 3j], [2 + 3j, 1 - 1j]])
        np.testing.assert_array_equal(got, expected)
        # batched and rectangular (a gain's top block row is n x 2), as the dense reference has it
        top = complex_normal(np.random.default_rng(3), (4, 3, 2))
        assert _full(top).shape == (4, 6, 2)
        np.testing.assert_array_equal(_full(top), full(top))

    def test_results_keep_the_checked_invariants(self):
        # the step leaves complex128 top block rows of the plan's batch, also when an
        # unbatched covariance broadcasts against a batch of states
        model = nss_model(1000.0, snr_db=30.0)
        batch = (2, 3)
        m = _batch_last(_diagonal([0.1, 0.1, 0.1]), 2, batch)
        out = _StepPlan(model, batch).step(np.full(batch + (3,), 0.5 + 0.1j), m, np.ones((1, 6)))
        for a, width in ((out.m, 6), (out.k, 2), (out.p, 6)):
            assert a.dtype == np.complex128
            assert _batch_first(a, batch).shape == batch + (3, width)

    def test_diagonal_builder(self):
        m = _diagonal([1e-6, 1e-4])
        assert m.shape == (2, 4) and m.dtype == np.complex128
        full_m = _full(m)
        np.testing.assert_array_equal(np.diag(full_m), [1e-6, 1e-4, 1e-6, 1e-4])
        assert np.count_nonzero(full_m - np.diag(np.diag(full_m))) == 0
