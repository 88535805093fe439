"""Property tests for the repro.index backends.

The contract under test (see repro.index.base):

* ExactIndex matches a naive full scan exactly;
* IVF recall@k stays above its floor on clustered data;
* builds and searches are deterministic under a fixed seed;
* incremental adds are immediately visible (IVF re-trains past its threshold).
"""

import numpy as np
import pytest

from repro.config import IndexConfig
from repro.exceptions import VectorIndexError
from repro.index import ExactIndex, IVFFlatIndex, make_index

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


def recall(found, truth):
    return np.mean(
        [len(set(f.tolist()) & set(t.tolist()) - {-1}) / len(t) for f, t in zip(found, truth)]
    )


class TestFactory:
    def test_make_index_builds_the_configured_backend(self):
        exact = make_index(IndexConfig(), seed=5)
        assert type(exact) is ExactIndex and exact.seed == 5
        ivf = make_index(
            IndexConfig(backend="ivf-flat", nlist=4, nprobe=2, retrain_factor=0.25), seed=3
        )
        assert type(ivf) is IVFFlatIndex
        assert (ivf.nlist, ivf.nprobe, ivf.retrain_factor, ivf.seed) == (4, 2, 0.25, 3)
        assert make_index(IndexConfig(backend="ivf-flat")).seed == 0

    def test_aliases_rejected_by_config(self):
        for alias in ("ivf", "flat", "ivf_flat"):
            with pytest.raises(ValueError):
                IndexConfig(backend=alias)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            IndexConfig(backend="faiss-gpu")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(VectorIndexError):
            IVFFlatIndex(nprobe=0)
        with pytest.raises(VectorIndexError):
            IVFFlatIndex(nlist=0)


class TestExactIndex:
    def test_matches_naive_scan_exactly(self):
        vectors, queries = clustered(500, seed=1)
        index = ExactIndex()
        index.build(vectors)
        distances, indices = index.search(queries, 7)
        naive_d, naive_i = naive_topk(vectors, queries, 7)
        assert np.array_equal(indices, naive_i)
        np.testing.assert_allclose(distances, naive_d, atol=1e-9)

    def test_single_vector_query(self):
        vectors, queries = clustered(100, seed=2)
        index = ExactIndex()
        index.build(vectors)
        distances, indices = index.search(queries[0], 3)
        assert distances.shape == (1, 3) and indices.shape == (1, 3)

    def test_k1_tie_breaks_to_first_index(self):
        vectors = np.zeros((5, 3))
        index = ExactIndex()
        index.build(vectors)
        __, indices = index.search(np.zeros(3), 1)
        assert indices[0, 0] == 0

    def test_rows_sorted_by_distance_then_index(self):
        vectors, queries = clustered(200, seed=3)
        index = ExactIndex()
        index.build(vectors)
        distances, indices = index.search(queries, 9)
        for row_d, row_i in zip(distances, indices):
            for a in range(len(row_d) - 1):
                assert (row_d[a], row_i[a]) <= (row_d[a + 1], row_i[a + 1])

    def test_k_larger_than_n_pads(self):
        vectors = np.random.default_rng(0).standard_normal((3, DIM))
        index = ExactIndex()
        index.build(vectors)
        distances, indices = index.search(vectors[:2], 5)
        assert (indices[:, 3:] == -1).all()
        assert np.isinf(distances[:, 3:]).all()

    def test_add_extends_ids(self):
        vectors, __ = clustered(60, seed=4)
        index = ExactIndex()
        index.build(vectors[:40])
        index.add(vectors[40:])
        assert len(index) == 60
        __, indices = index.search(vectors[55], 1)
        assert indices[0, 0] == 55

    def test_invalid_k_rejected(self):
        index = ExactIndex()
        index.build(np.zeros((2, 2)))
        with pytest.raises(VectorIndexError):
            index.search(np.zeros(2), 0)

    def test_dim_mismatch_rejected(self):
        index = ExactIndex()
        index.build(np.zeros((2, 4)))
        with pytest.raises(VectorIndexError):
            index.search(np.zeros(3), 1)
        with pytest.raises(VectorIndexError):
            index.add(np.zeros((1, 3)))


class TestIVFFlatIndex:
    def test_recall_floor_on_clustered_data(self):
        vectors, queries = clustered(4000, seed=5)
        exact = ExactIndex()
        exact.build(vectors)
        truth = exact.search(queries, 10)[1]
        index = IVFFlatIndex(seed=0)
        index.build(vectors)
        found = index.search(queries, 10)[1]
        assert recall(found, truth) >= 0.9

    def test_deterministic_across_rebuilds(self):
        vectors, queries = clustered(1500, seed=6)
        first = IVFFlatIndex(seed=3)
        first.build(vectors)
        second = IVFFlatIndex(seed=3)
        second.build(vectors)
        d1, i1 = first.search(queries, 8)
        d2, i2 = second.search(queries, 8)
        assert np.array_equal(i1, i2)
        assert np.array_equal(d1, d2)

    def test_incremental_add_visible_immediately(self):
        vectors, __ = clustered(1000, seed=7)
        index = IVFFlatIndex(seed=0, retrain_factor=10.0)  # no retrain
        index.build(vectors[:900])
        index.add(vectors[900:])
        assert len(index) == 1000
        # Fresh vectors live in the exactly-scanned side buffer: querying one
        # of them must return it first.
        __, indices = index.search(vectors[950], 1)
        assert indices[0, 0] == 950

    def test_add_past_threshold_retrains(self):
        vectors, queries = clustered(1200, seed=8)
        index = IVFFlatIndex(seed=0, retrain_factor=0.25)
        index.build(vectors[:800])
        index.add(vectors[800:])  # 400 > 0.25 * 800 -> retrain
        assert index._extra.shape[0] == 0  # side buffer folded in
        assert len(index) == 1200
        exact = ExactIndex()
        exact.build(vectors)
        truth = exact.search(queries, 10)[1]
        found = index.search(queries, 10)[1]
        assert recall(found, truth) >= 0.9

    def test_build_after_adds_only(self):
        vectors, __ = clustered(300, seed=9)
        index = IVFFlatIndex(seed=0)
        index.add(vectors)  # never built explicitly
        assert len(index) == 300
        __, indices = index.search(vectors[17], 1)
        assert indices[0, 0] == 17

    def test_nprobe_full_scan_matches_exact(self):
        vectors, queries = clustered(400, seed=10)
        index = IVFFlatIndex(nlist=10, nprobe=10, seed=0)
        index.build(vectors)
        exact = ExactIndex()
        exact.build(vectors)
        assert np.array_equal(index.search(queries, 5)[1], exact.search(queries, 5)[1])

