"""Tests for the feature-vector store."""

import numpy as np
import pytest

from repro.exceptions import MissingFeatureError
from repro.storage.feature_store import FeatureStore
from repro.types import ClipSpec, FeatureVector


def feature(fid="r3d", vid=0, start=0.0, end=1.0, value=1.0, dim=8):
    return FeatureVector(fid=fid, vid=vid, start=start, end=end, vector=np.full(dim, value))


class TestFeatureStoreWrites:
    def test_add_new_feature(self):
        store = FeatureStore()
        assert store.add(feature()) is True
        assert store.count("r3d") == 1

    def test_add_duplicate_clip_ignored(self):
        store = FeatureStore()
        store.add(feature(value=1.0))
        assert store.add(feature(value=2.0)) is False
        assert store.count("r3d") == 1
        np.testing.assert_allclose(store.get("r3d", ClipSpec(0, 0.0, 1.0)), np.ones(8))

    def test_add_many_counts_new_only(self):
        store = FeatureStore()
        added = store.add_many([feature(), feature(vid=1), feature()])
        assert added == 2

    def test_extractors_listed(self):
        store = FeatureStore()
        store.add(feature(fid="r3d"))
        store.add(feature(fid="clip"))
        assert set(store.extractors()) == {"r3d", "clip"}


class TestFeatureStoreReads:
    def test_get_exact_clip(self):
        store = FeatureStore()
        store.add(feature(vid=2, start=3.0, end=4.0, value=5.0))
        np.testing.assert_allclose(store.get("r3d", ClipSpec(2, 3.0, 4.0)), np.full(8, 5.0))

    def test_get_missing_extractor(self):
        with pytest.raises(MissingFeatureError):
            FeatureStore().get("r3d", ClipSpec(0, 0.0, 1.0))

    def test_get_missing_clip(self):
        store = FeatureStore()
        store.add(feature())
        with pytest.raises(MissingFeatureError):
            store.get("r3d", ClipSpec(0, 5.0, 6.0))

    def test_has_and_has_any_for_video(self):
        store = FeatureStore()
        store.add(feature(vid=1, start=2.0, end=3.0))
        assert store.has("r3d", ClipSpec(1, 2.0, 3.0))
        assert not store.has("r3d", ClipSpec(1, 0.0, 1.0))
        assert store.has_any_for_video("r3d", 1)
        assert not store.has_any_for_video("r3d", 2)
        assert not store.has_any_for_video("clip", 1)

    def test_nearest_picks_closest_midpoint(self):
        store = FeatureStore()
        store.add(feature(vid=0, start=0.0, end=1.0, value=1.0))
        store.add(feature(vid=0, start=5.0, end=6.0, value=2.0))
        query = ClipSpec(0, 4.4, 4.6)
        assert store.resolve_clips("r3d", [query]) == [ClipSpec(0, 5.0, 6.0)]
        np.testing.assert_allclose(store.matrix("r3d", [query])[0], np.full(8, 2.0))

    def test_nearest_requires_same_video(self):
        store = FeatureStore()
        store.add(feature(vid=0))
        with pytest.raises(MissingFeatureError):
            store.matrix("r3d", [ClipSpec(1, 0.0, 1.0)])

    def test_clips_for_video_filter(self):
        store = FeatureStore()
        store.add(feature(vid=0, start=0.0, end=1.0))
        store.add(feature(vid=0, start=1.0, end=2.0))
        store.add(feature(vid=1, start=0.0, end=1.0))
        clips, __ = store.all_vectors("r3d")
        assert len(clips) == 3
        assert [clip for clip in clips if clip.vid == 0] == [
            ClipSpec(0, 0.0, 1.0),
            ClipSpec(0, 1.0, 2.0),
        ]
        assert store.has_any_for_video("r3d", 1)
        assert not store.has_any_for_video("r3d", 2)
        assert store.all_vectors("clip")[0] == []

    def test_vids_with_features(self):
        store = FeatureStore()
        store.add(feature(vid=4))
        store.add(feature(vid=9))
        assert set(store.vids_with_features("r3d")) == {4, 9}
        assert store.vids_with_features("clip") == []


class TestMatrixAccess:
    def test_matrix_exact_rows(self):
        store = FeatureStore()
        store.add(feature(vid=0, value=1.0))
        store.add(feature(vid=1, value=2.0))
        matrix = store.matrix("r3d", [ClipSpec(1, 0.0, 1.0), ClipSpec(0, 0.0, 1.0)])
        assert matrix.shape == (2, 8)
        np.testing.assert_allclose(matrix[0], np.full(8, 2.0))
        np.testing.assert_allclose(matrix[1], np.full(8, 1.0))

    def test_matrix_falls_back_to_nearest(self):
        store = FeatureStore()
        store.add(feature(vid=0, start=0.0, end=1.0, value=3.0))
        matrix = store.matrix("r3d", [ClipSpec(0, 0.25, 0.75)])
        np.testing.assert_allclose(matrix[0], np.full(8, 3.0))

    def test_all_vectors(self):
        store = FeatureStore()
        store.add(feature(vid=0, value=1.0))
        store.add(feature(vid=1, value=2.0))
        clips, matrix = store.all_vectors("r3d")
        assert len(clips) == 2
        assert matrix.shape == (2, 8)

    def test_all_vectors_empty(self):
        clips, matrix = FeatureStore().all_vectors("r3d")
        assert clips == []
        assert matrix.size == 0

    def test_matrix_empty_request_keeps_known_dim(self):
        store = FeatureStore()
        store.add(feature(dim=8))
        matrix = store.matrix("r3d", [])
        assert matrix.shape == (0, 8)
        # Downstream callers stack design matrices; (0, d) must compose.
        stacked = np.vstack([matrix, np.ones((2, 8))])
        assert stacked.shape == (2, 8)
        assert np.hstack([matrix, np.empty((0, 3))]).shape == (0, 11)

    def test_columns_are_aligned_views(self):
        store = FeatureStore()
        store.add(feature(vid=1, start=0.0, end=1.0, value=1.0))
        store.add(feature(vid=2, start=3.0, end=4.0, value=2.0))
        vids, starts, ends, vectors = store.columns("r3d")
        np.testing.assert_array_equal(vids, [1, 2])
        np.testing.assert_allclose(starts, [0.0, 3.0])
        np.testing.assert_allclose(ends, [1.0, 4.0])
        np.testing.assert_allclose(vectors[1], np.full(8, 2.0))


def restored_copy(store):
    """Restore ``store``'s shards into a fresh store, as snapshot recovery does."""
    fids = store.extractors()
    copy = FeatureStore()
    copy.restore_columns(
        {fid: store.columns(fid) if store.count(fid) else None for fid in fids},
        {fid: store.dim(fid) for fid in fids},
    )
    return copy


class TestRestoreColumns:
    def test_restore_roundtrip(self):
        store = FeatureStore()
        store.add(feature(fid="r3d", vid=0, value=1.5))
        store.add(feature(fid="clip", vid=1, start=2.0, end=3.0, value=-1.0, dim=4))
        loaded = restored_copy(store)
        assert set(loaded.extractors()) == {"r3d", "clip"}
        np.testing.assert_allclose(
            loaded.get("clip", ClipSpec(1, 2.0, 3.0)), np.full(4, -1.0)
        )

    def test_empty_shard_keeps_extractor_and_dim(self):
        loaded = FeatureStore()
        loaded.restore_columns({"clip": None}, {"clip": 4})
        assert loaded.extractors() == ["clip"]
        assert loaded.count("clip") == 0
        assert loaded.dim("clip") == 4
        assert loaded.matrix("clip", []).shape == (0, 4)
        clips, matrix = loaded.all_vectors("clip")
        assert clips == [] and matrix.shape == (0, 4)

    def test_restore_adopts_columns_in_order(self):
        store = FeatureStore()
        for vid in (3, 1, 2):
            store.add(feature(vid=vid, value=float(vid)))
        loaded = restored_copy(store)
        assert loaded.all_vectors("r3d")[0] == store.all_vectors("r3d")[0]
        vids, __, __, vectors = loaded.columns("r3d")
        np.testing.assert_array_equal(vids, [3, 1, 2])
        np.testing.assert_allclose(vectors[:, 0], [3.0, 1.0, 2.0])


class TestEpoch:
    def test_unknown_extractor_is_epoch_zero(self):
        store = FeatureStore()
        assert store.epoch("r3d") == 0

    def test_writes_bump_epoch(self):
        store = FeatureStore()
        store.add(feature())
        first = store.epoch("r3d")
        assert first > 0
        store.add(feature(vid=1))
        assert store.epoch("r3d") > first

    def test_duplicate_add_does_not_bump(self):
        store = FeatureStore()
        store.add(feature())
        before = store.epoch("r3d")
        assert store.add(feature(value=9.0)) is False
        assert store.epoch("r3d") == before

    def test_add_batch_bumps_once_for_fresh_rows(self):
        store = FeatureStore()
        store.add(feature())
        before = store.epoch("r3d")
        store.add_batch(
            "r3d",
            np.array([0, 1]),
            np.array([0.0, 0.0]),
            np.array([1.0, 1.0]),
            np.ones((2, 8)),
        )
        assert store.epoch("r3d") == before + 1

    def test_add_batch_of_only_duplicates_does_not_bump(self):
        store = FeatureStore()
        store.add(feature())
        before = store.epoch("r3d")
        store.add_batch(
            "r3d", np.array([0]), np.array([0.0]), np.array([1.0]), np.ones((1, 8))
        )
        assert store.epoch("r3d") == before

    def test_reads_do_not_bump(self):
        store = FeatureStore()
        store.add(feature())
        before = store.epoch("r3d")
        store.get("r3d", ClipSpec(0, 0.0, 1.0))
        store.matrix("r3d", [ClipSpec(0, 0.2, 0.8)])
        store.covering_mask("r3d", [ClipSpec(0, 0.0, 1.0)])
        assert store.epoch("r3d") == before

    def test_epochs_are_per_extractor(self):
        store = FeatureStore()
        store.add(feature(fid="r3d"))
        assert store.epoch("mvit") == 0


class TestResolveRows:
    def test_exact_and_nearest_resolution(self):
        store = FeatureStore()
        store.add(feature(vid=0, start=0.0, end=1.0, value=1.0))
        store.add(feature(vid=0, start=1.0, end=2.0, value=2.0))
        rows = store.resolve_rows(
            "r3d", [ClipSpec(0, 1.0, 2.0), ClipSpec(0, 0.1, 0.9), ClipSpec(0, 1.4, 1.6)]
        )
        assert rows.tolist() == [1, 0, 1]

    def test_rows_stable_under_appends_elsewhere(self):
        store = FeatureStore()
        store.add(feature(vid=0, start=0.0, end=1.0))
        clips = [ClipSpec(0, 0.0, 1.0)]
        before = store.resolve_rows("r3d", clips)
        store.add(feature(vid=5, start=0.0, end=1.0))
        np.testing.assert_array_equal(store.resolve_rows("r3d", clips), before)

    def test_unknown_extractor_raises(self):
        store = FeatureStore()
        with pytest.raises(MissingFeatureError):
            store.resolve_rows("r3d", [ClipSpec(0, 0.0, 1.0)])
