"""Property tests for the exact nearest-neighbour scan (repro.index.ExactScan).

The contract under test (see repro.index.exact):

* the scan matches a naive full scan exactly;
* rows are sorted by (distance, index), k=1 breaks ties toward the first row;
* k larger than the row count pads with inf/-1;
* bad inputs raise VectorIndexError.
"""

import numpy as np
import pytest

from repro.exceptions import VectorIndexError
from repro.index import ExactScan, squared_norms

DIM = 16


def clustered(n, seed=0, num_centers=40, dim=DIM):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_centers, dim)) * 5.0
    vectors = centers[rng.integers(0, num_centers, n)] + rng.standard_normal((n, dim))
    queries = centers[rng.integers(0, num_centers, 50)] + rng.standard_normal((50, dim))
    return vectors, queries


def naive_topk(vectors, queries, k):
    sq = ((queries[:, None, :] - vectors[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(sq, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(sq, order, axis=1), order


class TestExactScan:
    def test_matches_naive_scan_exactly(self):
        vectors, queries = clustered(500, seed=1)
        distances, indices = ExactScan(vectors).search(queries, 7)
        naive_d, naive_i = naive_topk(vectors, queries, 7)
        assert np.array_equal(indices, naive_i)
        np.testing.assert_allclose(distances, naive_d, atol=1e-9)

    def test_single_vector_query(self):
        vectors, queries = clustered(100, seed=2)
        distances, indices = ExactScan(vectors).search(queries[0], 3)
        assert distances.shape == (1, 3) and indices.shape == (1, 3)

    def test_k1_tie_breaks_to_first_index(self):
        __, indices = ExactScan(np.zeros((5, 3))).search(np.zeros(3), 1)
        assert indices[0, 0] == 0

    def test_rows_sorted_by_distance_then_index(self):
        vectors, queries = clustered(200, seed=3)
        distances, indices = ExactScan(vectors).search(queries, 9)
        for row_d, row_i in zip(distances, indices):
            for a in range(len(row_d) - 1):
                assert (row_d[a], row_i[a]) <= (row_d[a + 1], row_i[a + 1])

    def test_k_larger_than_n_pads(self):
        vectors = np.random.default_rng(0).standard_normal((3, DIM))
        distances, indices = ExactScan(vectors).search(vectors[:2], 5)
        assert (indices[:, 3:] == -1).all()
        assert np.isinf(distances[:, 3:]).all()

    def test_empty_rows_pad_every_hit(self):
        distances, indices = ExactScan(np.empty((0, 4))).search(np.zeros(4), 2)
        assert (indices == -1).all() and np.isinf(distances).all()

    def test_cached_norms_give_identical_results(self):
        vectors, queries = clustered(300, seed=4)
        fresh = ExactScan(vectors).search(queries, 6)
        cached = ExactScan(vectors, squared_norms(vectors)).search(queries, 6)
        assert np.array_equal(fresh[0], cached[0]) and np.array_equal(fresh[1], cached[1])

    def test_chunked_blocks_match_one_block(self, monkeypatch):
        from repro.index import exact

        vectors, queries = clustered(120, seed=5)
        want = {k: ExactScan(vectors).search(queries, k) for k in (1, 4)}
        monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 7 * 120)  # 7 queries per block
        for k, (want_d, want_i) in want.items():
            got_d, got_i = ExactScan(vectors).search(queries, k)
            # A matmul over fewer query rows may round the last ulp differently.
            assert np.array_equal(got_i, want_i)
            np.testing.assert_allclose(got_d, want_d, rtol=0, atol=1e-12)

    def test_invalid_k_rejected(self):
        with pytest.raises(VectorIndexError):
            ExactScan(np.zeros((2, 2))).search(np.zeros(2), 0)

    def test_dim_mismatch_rejected(self):
        scan = ExactScan(np.zeros((2, 4)))
        with pytest.raises(VectorIndexError):
            scan.search(np.zeros(3), 1)
        with pytest.raises(VectorIndexError):
            scan.search(np.zeros((2, 2, 4)), 1)

    def test_non_matrix_rows_rejected(self):
        with pytest.raises(VectorIndexError):
            ExactScan(np.zeros(4))
