"""Property-style tests for the columnar FeatureStore's batched lookup paths.

The batched APIs (``get_many``, ``has_many``, ``matrix``, ``covering_mask``,
``add_batch``) must agree exactly with the per-clip reference semantics
(``get``, ``has``, and a linear-scan nearest-window reference) on randomized
clip sets, including nearest-fallback ties and missing-video error cases.
"""

import numpy as np
import pytest

from repro.exceptions import MissingFeatureError
from repro.storage.feature_store import FeatureStore
from repro.types import ClipSpec, FeatureVector

DIM = 6


def build_random_store(rng, num_videos=8, windows_per_video=10):
    """Store with a grid of 1s windows per video plus the raw columns."""
    store = FeatureStore()
    clips, vectors = [], []
    for vid in range(num_videos):
        for w in range(windows_per_video):
            clip = ClipSpec(vid, float(w), float(w + 1))
            vector = rng.standard_normal(DIM)
            store.add(
                FeatureVector(fid="f", vid=vid, start=clip.start, end=clip.end, vector=vector)
            )
            clips.append(clip)
            vectors.append(vector)
    return store, clips, np.vstack(vectors)


def reference_nearest(store, fid, clip):
    """Linear-scan nearest stored window on ``clip``'s video.

    The closest midpoint wins; a target equidistant from two midpoints takes
    the earlier one, and identical midpoints take the first-inserted row.
    """
    stored, vectors = store.all_vectors(fid)
    target = (clip.start + clip.end) * 0.5
    rows = [row for row, c in enumerate(stored) if c.vid == clip.vid]
    if not rows:
        raise MissingFeatureError(f"no {fid} features extracted for video {clip.vid}")
    row = min(rows, key=lambda r: (abs(stored[r].midpoint - target), stored[r].midpoint, r))
    return stored[row], vectors[row]


def random_queries(rng, stored_clips, count, miss_fraction=0.5):
    """Random mix of exact stored clips and misaligned (fallback) clips."""
    queries = []
    for _ in range(count):
        base = stored_clips[int(rng.integers(0, len(stored_clips)))]
        if rng.random() < miss_fraction:
            shift = float(rng.uniform(-0.45, 0.45))
            start = max(0.0, base.start + 0.1 + shift * 0.5)
            queries.append(ClipSpec(base.vid, start, base.end + shift))
        else:
            queries.append(base)
    return queries


@pytest.mark.parametrize("seed", range(5))
class TestBatchedAgreesWithPerClip:
    def test_matrix_matches_get_and_nearest(self, seed):
        rng = np.random.default_rng(seed)
        store, stored, __ = build_random_store(rng)
        queries = random_queries(rng, stored, count=40)

        batched = store.matrix("f", queries)
        assert batched.shape == (len(queries), DIM)
        for i, clip in enumerate(queries):
            if store.has("f", clip):
                expected = store.get("f", clip)
            else:
                __, expected = reference_nearest(store, "f", clip)
            np.testing.assert_array_equal(batched[i], expected)

    def test_get_many_matches_get(self, seed):
        rng = np.random.default_rng(seed)
        store, stored, __ = build_random_store(rng)
        queries = random_queries(rng, stored, count=30, miss_fraction=0.0)
        batched = store.get_many("f", queries)
        for i, clip in enumerate(queries):
            np.testing.assert_array_equal(batched[i], store.get("f", clip))

    def test_has_many_matches_has(self, seed):
        rng = np.random.default_rng(seed)
        store, stored, __ = build_random_store(rng)
        queries = random_queries(rng, stored, count=30)
        mask = store.has_many("f", queries)
        assert mask.tolist() == [store.has("f", c) for c in queries]

    def test_covering_mask_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        store, stored, __ = build_random_store(rng, num_videos=4)
        queries = random_queries(rng, stored, count=30)
        # Clips on a video with no features must be False, not an error.
        queries.append(ClipSpec(vid=99, start=0.0, end=1.0))

        mask = store.covering_mask("f", queries)
        for covered, clip in zip(mask, queries):
            if store.has("f", clip):
                assert covered
            elif not store.has_any_for_video("f", clip.vid):
                assert not covered
            else:
                nearest_clip, __ = reference_nearest(store, "f", clip)
                assert covered == (nearest_clip.start <= clip.midpoint <= nearest_clip.end)

    def test_add_batch_matches_add_many(self, seed):
        rng = np.random.default_rng(seed)
        num = 25
        vids = rng.integers(0, 5, size=num).astype(np.int64)
        starts = rng.integers(0, 20, size=num).astype(np.float64)
        ends = starts + 1.0
        vectors = rng.standard_normal((num, DIM))

        one_by_one = FeatureStore()
        added_single = one_by_one.add_many(
            FeatureVector(fid="f", vid=int(v), start=float(s), end=float(e), vector=row)
            for v, s, e, row in zip(vids, starts, ends, vectors)
        )
        batched = FeatureStore()
        added_batch = batched.add_batch("f", vids, starts, ends, vectors)

        assert added_batch == added_single
        assert batched.count("f") == one_by_one.count("f")
        assert batched.all_vectors("f")[0] == one_by_one.all_vectors("f")[0]
        for clip in batched.all_vectors("f")[0]:
            np.testing.assert_array_equal(batched.get("f", clip), one_by_one.get("f", clip))


class TestNearestTies:
    def test_tie_resolves_to_earlier_midpoint(self):
        store = FeatureStore()
        store.add(FeatureVector(fid="f", vid=0, start=0.0, end=1.0, vector=np.full(DIM, 1.0)))
        store.add(FeatureVector(fid="f", vid=0, start=2.0, end=3.0, vector=np.full(DIM, 2.0)))
        # Midpoint 1.5 is exactly between the stored midpoints 0.5 and 2.5.
        tie = ClipSpec(0, 1.25, 1.75)
        assert store.resolve_clips("f", [tie]) == [ClipSpec(0, 0.0, 1.0)]
        np.testing.assert_array_equal(store.matrix("f", [tie])[0], np.full(DIM, 1.0))

    def test_identical_midpoints_resolve_to_first_inserted(self):
        store = FeatureStore()
        store.add(FeatureVector(fid="f", vid=0, start=1.0, end=3.0, vector=np.full(DIM, 1.0)))
        store.add(FeatureVector(fid="f", vid=0, start=0.0, end=4.0, vector=np.full(DIM, 2.0)))
        query = ClipSpec(0, 1.9, 2.1)
        assert store.resolve_clips("f", [query]) == [ClipSpec(0, 1.0, 3.0)]
        np.testing.assert_array_equal(store.matrix("f", [query])[0], np.full(DIM, 1.0))

    def test_identical_midpoints_below_target_resolve_to_first_inserted(self):
        """Regression: a query above a run of equal midpoints must still pick
        the first-inserted row of the run, not its last entry."""
        store = FeatureStore()
        store.add(FeatureVector(fid="f", vid=0, start=3.0, end=4.0, vector=np.full(DIM, 1.0)))
        store.add(FeatureVector(fid="f", vid=0, start=2.5, end=4.5, vector=np.full(DIM, 2.0)))
        query = ClipSpec(0, 4.1, 4.3)
        assert store.resolve_clips("f", [query]) == [ClipSpec(0, 3.0, 4.0)]
        np.testing.assert_array_equal(store.matrix("f", [query])[0], np.full(DIM, 1.0))

    def test_batched_ties_agree_with_single_lookups(self):
        store = FeatureStore()
        for w in range(4):
            store.add(
                FeatureVector(
                    fid="f", vid=0, start=2.0 * w, end=2.0 * w + 1, vector=np.full(DIM, float(w))
                )
            )
        # Every query midpoint is equidistant from two stored windows.
        queries = [ClipSpec(0, 1.25, 1.75), ClipSpec(0, 3.25, 3.75), ClipSpec(0, 5.25, 5.75)]
        batched = store.matrix("f", queries)
        for i, q in enumerate(queries):
            __, expected = reference_nearest(store, "f", q)
            np.testing.assert_array_equal(batched[i], expected)


class TestBatchedErrors:
    def test_matrix_missing_video_raises(self):
        store = FeatureStore()
        store.add(FeatureVector(fid="f", vid=0, start=0.0, end=1.0, vector=np.ones(DIM)))
        with pytest.raises(MissingFeatureError, match="video 7"):
            store.matrix("f", [ClipSpec(0, 0.0, 1.0), ClipSpec(7, 0.0, 1.0)])

    def test_matrix_unknown_extractor_raises(self):
        with pytest.raises(MissingFeatureError):
            FeatureStore().matrix("nope", [ClipSpec(0, 0.0, 1.0)])

    def test_get_many_missing_clip_raises(self):
        store = FeatureStore()
        store.add(FeatureVector(fid="f", vid=0, start=0.0, end=1.0, vector=np.ones(DIM)))
        with pytest.raises(MissingFeatureError, match=r"vid=0 \[4.0, 5.0\]"):
            store.get_many("f", [ClipSpec(0, 0.0, 1.0), ClipSpec(0, 4.0, 5.0)])

    def test_add_batch_dimension_mismatch_raises(self):
        store = FeatureStore()
        store.add(FeatureVector(fid="f", vid=0, start=0.0, end=1.0, vector=np.ones(DIM)))
        with pytest.raises(ValueError, match="stores 6-d"):
            store.add_batch(
                "f",
                np.array([1]),
                np.array([0.0]),
                np.array([1.0]),
                np.ones((1, DIM + 1)),
            )

    def test_add_batch_misaligned_columns_raise(self):
        with pytest.raises(ValueError, match="equal length"):
            FeatureStore().add_batch(
                "f", np.array([0, 1]), np.array([0.0]), np.array([1.0]), np.ones((1, DIM))
            )
