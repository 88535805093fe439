"""Tests for the shared distance kernel in repro.index.distances."""

import numpy as np

from repro.index.distances import pairwise_sq_distances, squared_norms


class TestSquaredNorms:
    def test_matches_linalg(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 7))
        np.testing.assert_allclose(squared_norms(x), np.linalg.norm(x, axis=1) ** 2)

    def test_empty(self):
        assert squared_norms(np.empty((0, 5))).shape == (0,)


class TestPairwiseSqDistances:
    def test_matches_naive_difference_tensor(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((25, 6))
        b = rng.standard_normal((13, 6))
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(pairwise_sq_distances(a, b), naive, atol=1e-9)

    def test_precomputed_norms_give_identical_results(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((8, 4))
        plain = pairwise_sq_distances(a, b)
        cached = pairwise_sq_distances(
            a, b, points_sq=squared_norms(a), others_sq=squared_norms(b)
        )
        assert np.array_equal(plain, cached)

    def test_never_negative(self):
        # Identical points cancel to ~0; the kernel must clip at exactly 0.
        x = np.full((6, 3), 1.234567)
        assert (pairwise_sq_distances(x, x) >= 0.0).all()

    def test_single_shared_kernel(self):
        # The exact scan and the ALM's k-means import this one kernel, and
        # coreset searches through the one exact scan (one distance
        # implementation for the whole system).
        import repro.index
        from repro.alm import clustering
        from repro.alm.acquisition import coreset
        from repro.index import distances, exact

        for module in (clustering, exact):
            assert module.pairwise_sq_distances is distances.pairwise_sq_distances
        assert coreset.ExactScan is repro.index.ExactScan
