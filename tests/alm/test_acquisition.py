"""Tests for acquisition functions and the k-means helper.

``TestExactPathParity`` pins k-means and coreset to the seed's brute-force
implementations, replicated verbatim below (``seed_kmeans``,
``seed_coreset_select``): the exact scan and the shared distance kernel
must reproduce them bit for bit.
"""

import numpy as np
import pytest

from repro.exceptions import ALMError, AcquisitionError
from repro.alm.acquisition import (
    AcquisitionContext,
    ClusterMarginAcquisition,
    CoresetAcquisition,
    RandomAcquisition,
    RareCategoryUncertaintyAcquisition,
)
from repro.alm.clustering import _init_centroids, kmeans
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


# ------------------------------------------------ seed reference (pre-index)
def seed_pairwise_sq(points, points_sq, centroids):
    """The seed's ``clustering._pairwise_sq_distances``, verbatim."""
    sq = points_sq[:, None] + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    sq -= 2.0 * (points @ centroids.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def seed_kmeans(points, num_clusters, rng, max_iterations=50, tolerance=1e-6):
    """The seed's brute-force k-means, replicated verbatim."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    k = max(1, min(int(num_clusters), n))
    points_sq = np.einsum("ij,ij->i", points, points)
    centroids = _init_centroids(points, k, rng)
    for __ in range(max_iterations):
        sq_distances = seed_pairwise_sq(points, points_sq, centroids)
        assignments = sq_distances.argmin(axis=1)
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, points)
        new_centroids = centroids.copy()
        occupied = counts > 0
        new_centroids[occupied] = sums[occupied] / counts[occupied, None]
        if not occupied.all():
            farthest = int(sq_distances.min(axis=1).argmax())
            new_centroids[~occupied] = points[farthest]
        shift = float(np.linalg.norm(new_centroids - centroids))
        centroids = new_centroids
        if shift < tolerance:
            break
    final_sq = seed_pairwise_sq(points, points_sq, centroids)
    assignments = final_sq.argmin(axis=1)
    return assignments, centroids, float(np.sum(final_sq[np.arange(n), assignments]))


def seed_coreset_select(features, labeled, count, rng):
    """The seed's ``CoresetAcquisition.select`` index arithmetic, verbatim."""
    chosen = []
    count = min(count, features.shape[0])
    if labeled.size:
        distances = np.min(
            np.linalg.norm(features[:, None, :] - labeled[None, :, :], axis=2), axis=1
        )
    else:
        seed = int(rng.integers(0, features.shape[0]))
        chosen.append(seed)
        distances = np.linalg.norm(features - features[seed], axis=1)
        distances[seed] = -np.inf
    while len(chosen) < count:
        next_index = int(np.argmax(distances))
        if not np.isfinite(distances[next_index]) and chosen:
            break
        chosen.append(next_index)
        new_distances = np.linalg.norm(features - features[next_index], axis=1)
        distances = np.minimum(distances, new_distances)
        distances[next_index] = -np.inf
    return chosen


@pytest.fixture(scope="module")
def parity_pool():
    rng = np.random.default_rng(0)
    features = rng.standard_normal((3000, 32))
    labeled = rng.standard_normal((80, 32))
    candidates = [ClipSpec(i, 0.0, 1.0) for i in range(features.shape[0])]
    return candidates, features, labeled


class TestExactPathParity:
    @pytest.mark.parametrize("trial", range(5))
    @pytest.mark.parametrize("data", ["gaussian", "lattice"])
    def test_kmeans_bit_equal_to_seed(self, trial, data):
        rng = np.random.default_rng(10 + trial)
        if data == "gaussian":
            points = rng.standard_normal((600, 16))
        else:
            # Integer grid points: many exact distance ties between centroids.
            points = rng.integers(0, 4, size=(600, 3)).astype(np.float64)
        old_a, old_c, old_i = seed_kmeans(points, 12, np.random.default_rng(trial))
        result = kmeans(points, 12, rng=np.random.default_rng(trial))
        assert np.array_equal(old_a, result.assignments)
        assert np.array_equal(old_c, result.centroids)
        assert old_i == result.inertia

    @pytest.mark.parametrize("with_labeled", [True, False])
    def test_coreset_equals_seed(self, parity_pool, with_labeled):
        candidates, features, labeled = parity_pool
        lab = labeled if with_labeled else np.empty((0, 0))
        context = AcquisitionContext(
            candidates=candidates, candidate_features=features, labeled_features=lab
        )
        new = CoresetAcquisition().select(context, 25, np.random.default_rng(1))
        old = seed_coreset_select(features, lab, 25, np.random.default_rng(1))
        assert new == [candidates[i] for i in old]

    def test_cluster_margin_is_deterministic(self, parity_pool):
        candidates, features, __ = parity_pool
        context = AcquisitionContext(candidates=candidates, candidate_features=features)
        first = ClusterMarginAcquisition().select(context, 15, np.random.default_rng(2))
        again = ClusterMarginAcquisition().select(context, 15, np.random.default_rng(2))
        assert len(first) == 15 and first == again
