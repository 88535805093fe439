"""Tests for acquisition functions and the k-means helper."""

import numpy as np
import pytest

from repro.config import IndexConfig
from repro.exceptions import ALMError, AcquisitionError
from repro.alm.acquisition import (
    AcquisitionContext,
    ClusterMarginAcquisition,
    CoresetAcquisition,
    RandomAcquisition,
    RareCategoryUncertaintyAcquisition,
)
from repro.alm.clustering import kmeans
from repro.models.linear import SoftmaxRegression
from repro.types import ClipSpec, VideoRecord


def videos(count=10):
    return [VideoRecord(vid=i, path=f"{i}.mp4", duration=10.0) for i in range(count)]


def make_context(num_candidates=20, dim=6, seed=0, with_model=False, label_counts=None, target=None):
    rng = np.random.default_rng(seed)
    candidates = [ClipSpec(i, 0.0, 1.0) for i in range(num_candidates)]
    features = rng.standard_normal((num_candidates, dim))
    model = None
    if with_model:
        train = rng.standard_normal((40, dim)) * 2
        labels = ["pos" if row[0] > 0 else "neg" for row in train]
        model = SoftmaxRegression(["pos", "neg"]).fit(train, labels)
    return AcquisitionContext(
        candidates=candidates,
        candidate_features=features,
        model=model,
        label_counts=label_counts or {},
        target_label=target,
    )


class TestKMeans:
    def test_two_well_separated_clusters(self):
        rng = np.random.default_rng(0)
        points = np.vstack([rng.standard_normal((20, 2)) + 10, rng.standard_normal((20, 2)) - 10])
        result = kmeans(points, 2, rng=rng)
        first_half = set(result.assignments[:20].tolist())
        second_half = set(result.assignments[20:].tolist())
        assert len(first_half) == 1 and len(second_half) == 1
        assert first_half != second_half

    def test_more_clusters_than_points_clipped(self):
        points = np.zeros((3, 2))
        result = kmeans(points, 10, rng=np.random.default_rng(0))
        assert result.num_clusters == 3

    def test_members_partition_points(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((30, 3))
        result = kmeans(points, 4, rng=rng)
        all_members = sorted(np.concatenate([result.members(c) for c in range(result.num_clusters)]).tolist())
        assert all_members == list(range(30))

    def test_empty_input_rejected(self):
        with pytest.raises(ALMError):
            kmeans(np.zeros((0, 3)), 2)

    def test_inertia_nonnegative(self):
        rng = np.random.default_rng(2)
        result = kmeans(rng.standard_normal((25, 4)), 3, rng=rng)
        assert result.inertia >= 0.0

    def test_ann_backend_misses_fall_back_to_exact(self, monkeypatch):
        # An ANN index may return the -1/inf no-neighbour sentinel; every
        # point must still get its exact nearest centroid.
        from repro.alm import clustering
        from repro.index import ExactIndex

        class MissEveryOther(ExactIndex):
            def search(self, queries, k):
                distances, indices = super().search(queries, k)
                distances[::2], indices[::2] = np.inf, -1
                return distances, indices

        monkeypatch.setattr(clustering, "make_index", lambda config, seed=0: MissEveryOther())
        rng = np.random.default_rng(3)
        points = rng.standard_normal((50, 8))
        for k in (1, 2, 5):
            ann = kmeans(
                points, k, rng=np.random.default_rng(0), index=IndexConfig(backend="ivf-flat")
            )
            exact = kmeans(points, k, rng=np.random.default_rng(0))
            assert np.array_equal(ann.assignments, exact.assignments)
            assert ann.inertia == pytest.approx(exact.inertia)

class TestRandomAcquisition:
    def test_selects_requested_count(self, rng):
        clips = RandomAcquisition().select(videos(), 5, 1.0, rng)
        assert len(clips) == 5
        assert all(clip.duration == pytest.approx(1.0) for clip in clips)

    def test_prefers_unlabeled_videos(self, rng):
        clips = RandomAcquisition().select(videos(10), 5, 1.0, rng, exclude_vids=[0, 1, 2, 3, 4])
        assert all(clip.vid >= 5 for clip in clips)

    def test_falls_back_when_everything_excluded(self, rng):
        clips = RandomAcquisition().select(videos(3), 2, 1.0, rng, exclude_vids=[0, 1, 2])
        assert len(clips) == 2

    def test_empty_videos_rejected(self, rng):
        with pytest.raises(AcquisitionError):
            RandomAcquisition().select([], 2, 1.0, rng)

    def test_invalid_count_rejected(self, rng):
        with pytest.raises(AcquisitionError):
            RandomAcquisition().select(videos(), 0, 1.0, rng)


class TestCoresetAcquisition:
    def test_selects_diverse_points(self, rng):
        # Three tight blobs: a 3-clip batch should touch all three.
        blobs = np.vstack(
            [np.zeros((5, 2)), np.full((5, 2), 10.0), np.full((5, 2), -10.0)]
        )
        context = AcquisitionContext(
            candidates=[ClipSpec(i, 0.0, 1.0) for i in range(15)],
            candidate_features=blobs,
        )
        clips = CoresetAcquisition().select(context, 3, rng)
        groups = {clip.vid // 5 for clip in clips}
        assert groups == {0, 1, 2}

    def test_far_from_labeled_points_selected_first(self, rng):
        features = np.vstack([np.zeros((5, 2)), np.full((1, 2), 50.0)])
        context = AcquisitionContext(
            candidates=[ClipSpec(i, 0.0, 1.0) for i in range(6)],
            candidate_features=features,
            labeled_clips=[ClipSpec(99, 0.0, 1.0)],
            labeled_features=np.zeros((1, 2)),
        )
        clips = CoresetAcquisition().select(context, 1, rng)
        assert clips[0].vid == 5

    def test_count_larger_than_pool(self, rng):
        context = make_context(num_candidates=3)
        clips = CoresetAcquisition().select(context, 10, rng)
        assert len(clips) == 3

    def test_empty_pool_rejected(self, rng):
        context = AcquisitionContext(candidates=[], candidate_features=np.empty((0, 2)))
        with pytest.raises(AcquisitionError):
            CoresetAcquisition().select(context, 1, rng)

    def test_mismatched_features_rejected(self, rng):
        context = AcquisitionContext(
            candidates=[ClipSpec(0, 0.0, 1.0)], candidate_features=np.zeros((2, 3))
        )
        with pytest.raises(AcquisitionError):
            CoresetAcquisition().select(context, 1, rng)

    def test_index_init_matches_difference_tensor(self, rng):
        # The labeled-distance initialisation runs a 1-NN search through the
        # index instead of materialising the seed's (n, L, d) tensor; the
        # selections must be identical.
        feat_rng = np.random.default_rng(17)
        features = feat_rng.standard_normal((80, 6))
        labeled = feat_rng.standard_normal((12, 6))
        context = AcquisitionContext(
            candidates=[ClipSpec(i, 0.0, 1.0) for i in range(80)],
            candidate_features=features,
            labeled_clips=[ClipSpec(1000 + i, 0.0, 1.0) for i in range(12)],
            labeled_features=labeled,
        )
        clips = CoresetAcquisition().select(context, 10, rng)

        distances = np.min(
            np.linalg.norm(features[:, None, :] - labeled[None, :, :], axis=2), axis=1
        )
        chosen = []
        for __ in range(10):
            nxt = int(np.argmax(distances))
            chosen.append(nxt)
            distances = np.minimum(
                distances, np.linalg.norm(features - features[nxt], axis=1)
            )
            distances[nxt] = -np.inf
        assert [clip.vid for clip in clips] == chosen

    def test_ann_backend_selects_requested_count(self, rng):
        context = make_context(num_candidates=60, dim=8, seed=21)
        context.labeled_features = np.random.default_rng(5).standard_normal((30, 8))
        clips = CoresetAcquisition(
            index=IndexConfig(backend="ivf-flat", nprobe=2), seed=0
        ).select(context, 5, rng)
        assert len(clips) == 5


class TestClusterMarginAcquisition:
    def test_selects_requested_count_with_model(self, rng):
        context = make_context(num_candidates=30, with_model=True)
        clips = ClusterMarginAcquisition().select(context, 5, rng)
        assert len(clips) == 5
        assert len({(c.vid, c.start) for c in clips}) == 5

    def test_works_without_model(self, rng):
        context = make_context(num_candidates=15, with_model=False)
        clips = ClusterMarginAcquisition().select(context, 4, rng)
        assert len(clips) == 4

    def test_low_margin_candidates_preferred(self, rng):
        dim = 4
        train = np.vstack([np.full((20, dim), 2.0), np.full((20, dim), -2.0)])
        labels = ["pos"] * 20 + ["neg"] * 20
        model = SoftmaxRegression(["pos", "neg"]).fit(train, labels)
        # Candidate 0 sits on the decision boundary, the rest are confident.
        features = np.vstack([np.zeros((1, dim)), np.full((9, dim), 3.0)])
        context = AcquisitionContext(
            candidates=[ClipSpec(i, 0.0, 1.0) for i in range(10)],
            candidate_features=features,
            model=model,
        )
        clips = ClusterMarginAcquisition(margin_pool_multiplier=1.0).select(context, 1, rng)
        assert clips[0].vid == 0

    def test_invalid_parameters(self):
        with pytest.raises(AcquisitionError):
            ClusterMarginAcquisition(margin_pool_multiplier=0.5)
        with pytest.raises(AcquisitionError):
            ClusterMarginAcquisition(clusters_per_batch=0)

    def test_empty_pool_rejected(self, rng):
        context = AcquisitionContext(candidates=[], candidate_features=np.empty((0, 2)))
        with pytest.raises(AcquisitionError):
            ClusterMarginAcquisition().select(context, 1, rng)


class TestRareCategoryUncertainty:
    def test_requires_target_label(self, rng):
        context = make_context(with_model=True)
        with pytest.raises(AcquisitionError):
            RareCategoryUncertaintyAcquisition().select(context, 2, rng)

    def test_without_model_falls_back_to_random(self, rng):
        context = make_context(with_model=False, target="pos")
        clips = RareCategoryUncertaintyAcquisition().select(context, 3, rng)
        assert len(clips) == 3

    def test_unknown_target_rejected(self, rng):
        context = make_context(with_model=True, target="unknown", label_counts={"pos": 1})
        with pytest.raises(AcquisitionError):
            RareCategoryUncertaintyAcquisition().select(context, 2, rng)

    def test_few_positives_returns_most_confident(self, rng):
        dim = 6
        train_rng = np.random.default_rng(1)
        train = train_rng.standard_normal((60, dim)) * 3
        labels = ["pos" if row[0] > 0 else "neg" for row in train]
        model = SoftmaxRegression(["pos", "neg"]).fit(train, labels)
        candidates = [ClipSpec(i, 0.0, 1.0) for i in range(40)]
        features = train_rng.standard_normal((40, dim)) * 3
        context = AcquisitionContext(
            candidates=candidates,
            candidate_features=features,
            model=model,
            label_counts={"pos": 1, "neg": 10},
            target_label="pos",
        )
        clips = RareCategoryUncertaintyAcquisition().select(context, 5, rng)
        probabilities = model.predict_proba(features)[:, model.classes.index("pos")]
        chosen = [candidates.index(c) for c in clips]
        assert np.mean(probabilities[chosen]) >= np.mean(probabilities)

    def test_many_positives_returns_most_uncertain(self, rng):
        dim = 6
        train_rng = np.random.default_rng(2)
        train = train_rng.standard_normal((60, dim)) * 3
        labels = ["pos" if row[0] > 0 else "neg" for row in train]
        model = SoftmaxRegression(["pos", "neg"]).fit(train, labels)
        candidates = [ClipSpec(i, 0.0, 1.0) for i in range(40)]
        features = train_rng.standard_normal((40, dim)) * 3
        context = AcquisitionContext(
            candidates=candidates,
            candidate_features=features,
            model=model,
            label_counts={"pos": 20, "neg": 5},
            target_label="pos",
        )
        clips = RareCategoryUncertaintyAcquisition().select(context, 5, rng)
        probabilities = model.predict_proba(features)[:, model.classes.index("pos")]
        chosen = [candidates.index(c) for c in clips]
        assert np.mean(np.abs(probabilities[chosen] - 0.5)) <= np.mean(np.abs(probabilities - 0.5))
