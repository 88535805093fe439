"""Tests for FeatureStore vector search: backend choice, search, invalidation."""

import numpy as np
import pytest

from repro.config import IndexConfig
from repro.exceptions import MissingFeatureError
from repro.index import ExactIndex, IVFFlatIndex, make_index
from repro.storage.feature_store import FeatureStore
from repro.types import ClipSpec

IVF = IndexConfig(backend="ivf-flat")


def filled_store(n=60, dim=8, seed=0, fid="r3d"):
    rng = np.random.default_rng(seed)
    store = FeatureStore()
    vids = np.arange(n, dtype=np.int64)
    starts = np.zeros(n)
    ends = np.ones(n)
    vectors = rng.standard_normal((n, dim))
    store.add_batch(fid, vids, starts, ends, vectors)
    return store, vectors


class TestSearch:
    def test_default_backend_is_exact(self):
        store, vectors = filled_store()
        store.search("r3d", vectors[0], k=1)
        assert type(store._shards["r3d"]._vindex) is ExactIndex

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
            store.search("nope", np.zeros(4), k=1, index=IVF)
        assert store.extractors() == ["r3d"]

    def test_empty_shard_raises(self):
        store = FeatureStore()
        store.restore_columns({"r3d": None}, {"r3d": 4})
        with pytest.raises(MissingFeatureError):
            store.search("r3d", np.zeros(4), k=1)


class TestIndexConfig:
    def test_backend_switch_takes_effect(self):
        store, vectors = filled_store(n=200)
        distances, rows = store.search("r3d", vectors[3], k=1, index=IVF)
        assert type(store._shards["r3d"]._vindex) is IVFFlatIndex
        assert rows[0, 0] == 3  # its own cell is always probed

    def test_config_fields_and_seed_reach_the_index(self):
        store, vectors = filled_store(n=200)
        config = IndexConfig(backend="ivf-flat", nlist=5, nprobe=2, retrain_factor=0.25)
        store.search("r3d", vectors[0], k=1, index=config, seed=7)
        built = store._shards["r3d"]._vindex
        assert (built.nlist, built.nprobe, built.retrain_factor, built.seed) == (5, 2, 0.25, 7)

    def test_same_config_keeps_built_index(self):
        store, vectors = filled_store()
        store.search("r3d", vectors[0], k=1, index=IndexConfig(backend="ivf-flat"), seed=3)
        shard = store._shards["r3d"]
        built = shard._vindex
        # An equal config (not the same object) and seed reuse the index.
        store.search("r3d", vectors[1], k=1, index=IndexConfig(backend="ivf-flat"), seed=3)
        assert shard._vindex is built

    def test_different_config_or_seed_rebuilds_index(self):
        store, vectors = filled_store()
        store.search("r3d", vectors[0], k=1)
        shard = store._shards["r3d"]
        exact = shard._vindex
        store.search("r3d", vectors[0], k=1, index=IVF, seed=1)
        ivf = shard._vindex
        assert type(ivf) is IVFFlatIndex and ivf is not exact
        store.search("r3d", vectors[0], k=1, index=IVF, seed=2)
        assert shard._vindex is not ivf and shard._vindex.seed == 2
        store.search("r3d", vectors[0], k=1)
        assert type(shard._vindex) is ExactIndex

    def test_search_matches_a_fresh_index_of_the_config(self):
        # The store adds nothing to the index: hits equal a fresh index of
        # the same config and seed built over the stored matrix.
        for config in (IndexConfig(), IndexConfig(backend="ivf-flat", nprobe=2)):
            store, vectors = filled_store(n=150, seed=4)
            fresh = make_index(config, seed=9)
            fresh.build(vectors)
            got = store.search("r3d", vectors[:20], k=6, index=config, seed=9)
            want = fresh.search(vectors[:20], 6)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
        from repro.types import FeatureVector

        new_vector = np.full(vectors.shape[1], 123.0)
        store.add(FeatureVector("r3d", 500, 0.0, 1.0, new_vector))
        __, rows = store.search("r3d", new_vector, k=1)
        assert store.clips_at("r3d", rows[0])[0].vid == 500

    def test_search_results_deterministic_after_rebuild(self):
        for backend in ("exact", "ivf-flat"):
            runs = []
            for __ in range(2):
                store, vectors = filled_store(n=120)
                runs.append(
                    store.search("r3d", vectors[:10], k=5, index=IndexConfig(backend=backend), seed=7)
                )
            assert np.array_equal(runs[0][1], runs[1][1])
            assert np.array_equal(runs[0][0], runs[1][0])

    def test_restore_drops_index_and_rebuilds(self):
        store, vectors = filled_store(n=30)
        store.search("r3d", vectors[0], k=1)
        restored = FeatureStore()
        restored.restore_columns({"r3d": store.columns("r3d")}, {"r3d": store.dim("r3d")})
        assert restored._shards["r3d"]._vindex is None
        __, rows = restored.search("r3d", vectors[11], k=1)
        assert rows[0, 0] == 11
