"""Tests for FeatureStore vector search: exact hits, writes between searches, restore."""

import numpy as np
import pytest

from repro.exceptions import MissingFeatureError
from repro.index import ExactScan
from repro.storage.feature_store import FeatureStore
from repro.types import ClipSpec, FeatureVector


def filled_store(n=60, dim=8, seed=0, fid="r3d"):
    rng = np.random.default_rng(seed)
    store = FeatureStore()
    vids = np.arange(n, dtype=np.int64)
    starts = np.zeros(n)
    ends = np.ones(n)
    vectors = rng.standard_normal((n, dim))
    store.add_batch(fid, vids, starts, ends, vectors)
    return store, vectors


def assert_scan_equal(store, fid, queries, k):
    """The store's hits equal a from-scratch exact scan of the shard's rows, bit for bit."""
    got = store.search(fid, queries, k=k)
    want = ExactScan(store._shards[fid].matrix.copy()).search(queries, k)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestSearch:
    def test_search_returns_nearest_rows(self):
        store, vectors = filled_store()
        distances, rows = store.search("r3d", vectors[13], k=1)
        assert rows[0, 0] == 13
        assert distances[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_search_batch_shapes(self):
        store, vectors = filled_store()
        distances, rows = store.search("r3d", vectors[:5], k=4)
        assert distances.shape == (5, 4) and rows.shape == (5, 4)

    def test_rows_convert_to_clips(self):
        store, vectors = filled_store()
        __, rows = store.search("r3d", vectors[7], k=2)
        clips = store.clips_at("r3d", rows[0])
        assert clips[0] == ClipSpec(7, 0.0, 1.0)

    def test_clips_at_maps_padding_to_none(self):
        store, vectors = filled_store(n=2)
        __, rows = store.search("r3d", vectors[0], k=5)
        clips = store.clips_at("r3d", rows[0])
        assert clips[2:] == [None, None, None]

    def test_unknown_extractor_raises(self):
        store, __ = filled_store()
        with pytest.raises(MissingFeatureError):
            store.search("nope", np.zeros(4), k=1)
        assert store.extractors() == ["r3d"]

    def test_empty_shard_raises(self):
        store = FeatureStore()
        store.restore_columns({"r3d": None}, {"r3d": 4})
        with pytest.raises(MissingFeatureError):
            store.search("r3d", np.zeros(4), k=1)


class TestExactHits:
    @pytest.mark.parametrize("dim", [512, 768, 37])
    @pytest.mark.parametrize("k", [1, 10])
    def test_interleaved_writes_and_searches_match_a_fresh_scan(self, dim, k):
        # Row norms are cached across searches and extended over appended
        # rows; every search must still equal a scan computed from scratch.
        rng = np.random.default_rng(dim + k)
        store = FeatureStore()
        next_vid = 0
        for step in range(6):
            count = int(rng.integers(1, 9))
            vids = np.arange(next_vid, next_vid + count)
            store.add_batch("r3d", vids, np.zeros(count), np.ones(count),
                            rng.standard_normal((count, dim)))
            next_vid += count
            if step % 2:
                store.add(FeatureVector("r3d", next_vid, 0.0, 1.0, rng.standard_normal(dim)))
                next_vid += 1
            queries = rng.standard_normal((3, dim))
            assert_scan_equal(store, "r3d", queries, k)
            assert_scan_equal(store, "r3d", queries[0], k)

    def test_restored_columns_match_a_fresh_scan(self):
        store, vectors = filled_store(n=90, dim=37, seed=4)
        store.search("r3d", vectors[0], k=3)  # caches norms on the old store
        restored = FeatureStore()
        restored.restore_columns({"r3d": store.columns("r3d")}, {"r3d": store.dim("r3d")})
        queries = np.random.default_rng(8).standard_normal((5, 37))
        for k in (1, 10):
            assert_scan_equal(restored, "r3d", queries, k)
        # Columns adopted by a shard that has searched replace its cached norms.
        fresh = np.random.default_rng(9).standard_normal((40, 37))
        store._shards["r3d"].adopt_columns(np.arange(40), np.zeros(40), np.ones(40), fresh)
        for k in (1, 10):
            assert_scan_equal(store, "r3d", queries, k)


class TestWriteInvalidation:
    def test_add_batch_rows_visible_to_next_search(self):
        store, vectors = filled_store(n=40)
        store.search("r3d", vectors[0], k=1)  # build the index
        rng = np.random.default_rng(99)
        fresh = rng.standard_normal((5, vectors.shape[1]))
        store.add_batch(
            "r3d", np.arange(100, 105), np.zeros(5), np.ones(5), fresh
        )
        distances, rows = store.search("r3d", fresh[2], k=1)
        assert rows[0, 0] == 42  # 40 existing + index 2 of the new batch
        assert distances[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_single_add_visible_to_next_search(self):
        store, vectors = filled_store(n=20)
        store.search("r3d", vectors[0], k=1)
        new_vector = np.full(vectors.shape[1], 123.0)
        store.add(FeatureVector("r3d", 500, 0.0, 1.0, new_vector))
        __, rows = store.search("r3d", new_vector, k=1)
        assert store.clips_at("r3d", rows[0])[0].vid == 500

    def test_search_results_deterministic_after_rebuild(self):
        runs = []
        for __ in range(2):
            store, vectors = filled_store(n=120)
            runs.append(store.search("r3d", vectors[:10], k=5))
        assert np.array_equal(runs[0][1], runs[1][1])
        assert np.array_equal(runs[0][0], runs[1][0])

    def test_restored_store_searches_its_rows(self):
        store, vectors = filled_store(n=30)
        store.search("r3d", vectors[0], k=1)
        restored = FeatureStore()
        restored.restore_columns({"r3d": store.columns("r3d")}, {"r3d": store.dim("r3d")})
        __, rows = restored.search("r3d", vectors[11], k=1)
        assert rows[0, 0] == 11
