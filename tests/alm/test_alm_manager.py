"""Tests for the Active Learning Manager."""

import pytest

from repro.config import ALMConfig, FeatureSelectionConfig
from repro.exceptions import AcquisitionError
from repro.alm.manager import ActiveLearningManager
from repro.types import ClipSpec, Label

from tests.conftest import build_stack, make_corpus, make_skewed_corpus


def build_alm(corpus, alm_config=None, candidates=("r3d", "mvit", "clip"), seed=0):
    storage, feature_manager, model_manager = build_stack(corpus, seed=seed)
    alm = ActiveLearningManager(
        storage.videos,
        storage.labels,
        feature_manager,
        model_manager,
        list(candidates),
        alm_config if alm_config is not None else ALMConfig(),
        FeatureSelectionConfig(warmup_iterations=2, horizon=20),
        seed=seed,
    )
    return storage, feature_manager, model_manager, alm


def label_videos(storage, corpus, count, start=0):
    for video in corpus.videos()[start : start + count]:
        clip = ClipSpec(video.vid, 0.0, 1.0)
        storage.labels.add(Label(video.vid, 0.0, 1.0, corpus.dominant_label(clip)))


class TestFeatureSide:
    def test_initial_candidates_and_current_feature(self, small_corpus):
        __, __, __, alm = build_alm(small_corpus)
        assert alm.candidate_features() == ["r3d", "mvit", "clip"]
        assert alm.current_feature() == "r3d"
        assert not alm.feature_selection_converged
        assert alm.selected_feature is None

    def test_evaluate_features_scores_all_active_arms(self, small_corpus):
        storage, __, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 15)
        scores = alm.evaluate_features()
        assert set(scores) == {"r3d", "mvit", "clip"}
        assert all(0.0 <= value <= 1.0 for value in scores.values())

    def test_evaluate_features_with_too_few_labels_scores_zero(self, small_corpus):
        storage, __, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 2)
        scores = alm.evaluate_features()
        assert all(value == 0.0 for value in scores.values())

    def test_update_feature_scores_drives_bandit(self, small_corpus):
        __, __, __, alm = build_alm(small_corpus)
        for __unused in range(10):
            alm.update_feature_scores({"r3d": 0.9, "mvit": 0.85, "clip": 0.05})
        assert "clip" not in alm.candidate_features()
        assert alm.current_feature() in ("r3d", "mvit")


class TestSkewDecision:
    def test_uniform_labels_keep_random(self, small_corpus):
        storage, __, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 18)  # round-robin classes: uniform
        decision = alm.decide_acquisition()
        assert not decision.is_skewed
        assert not alm.use_active_learning

    def test_skewed_labels_trigger_active_learning(self, skewed_corpus):
        storage, __, __, alm = build_alm(skewed_corpus)
        # Label many videos of the skewed corpus: counts follow 70/20/10.
        label_videos(storage, skewed_corpus, 40)
        decision = alm.decide_acquisition()
        assert decision.is_skewed
        assert alm.use_active_learning


class TestCandidatePool:
    def test_ensure_candidate_pool_extracts_unlabeled_videos(self, small_corpus):
        storage, feature_manager, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 5)
        report = alm.ensure_candidate_pool("r3d", extra_videos=4)
        assert report.videos_touched == 4
        pooled_vids = set(feature_manager.vids_with_features("r3d"))
        assert not pooled_vids & set(storage.labels.labeled_vids())

    def test_ensure_candidate_pool_is_incremental(self, small_corpus):
        storage, __, __, alm = build_alm(small_corpus)
        alm.ensure_candidate_pool("r3d", extra_videos=4)
        report = alm.ensure_candidate_pool("r3d", extra_videos=4)
        assert report.videos_touched == 4  # the next four videos, not the same ones


class TestSelection:
    def test_random_selection_by_default(self, small_corpus):
        __, __, __, alm = build_alm(small_corpus)
        result = alm.select_segments(5, 1.0)
        assert result.acquisition == "random"
        assert len(result.clips) == 5
        assert all(clip.duration == pytest.approx(1.0) for clip in result.clips)

    def test_invalid_batch_size(self, small_corpus):
        __, __, __, alm = build_alm(small_corpus)
        with pytest.raises(AcquisitionError):
            alm.select_segments(0, 1.0)

    def test_forced_active_without_pool_falls_back_to_random(self, small_corpus):
        __, __, __, alm = build_alm(small_corpus)
        result = alm.select_segments(5, 1.0, use_active=True)
        assert result.acquisition == "random"

    def test_forced_active_with_pool_uses_cluster_margin(self, skewed_corpus):
        storage, __, model_manager, alm = build_alm(skewed_corpus)
        label_videos(storage, skewed_corpus, 20)
        model_manager.train("r3d")
        alm.ensure_candidate_pool("r3d", extra_videos=15)
        result = alm.select_segments(5, 1.0, use_active=True)
        assert result.acquisition == "cluster-margin"
        assert len(result.clips) == 5
        # Active selections must avoid already labeled videos.
        assert not {c.vid for c in result.clips} & set(storage.labels.labeled_vids())

    def test_coreset_configuration(self, skewed_corpus):
        config = ALMConfig(active_acquisition="coreset")
        storage, __, model_manager, alm = build_alm(skewed_corpus, alm_config=config)
        label_videos(storage, skewed_corpus, 20)
        model_manager.train("r3d")
        alm.ensure_candidate_pool("r3d", extra_videos=15)
        result = alm.select_segments(5, 1.0, use_active=True)
        assert result.acquisition == "coreset"

    def test_clips_clamped_to_requested_duration(self, skewed_corpus):
        storage, __, model_manager, alm = build_alm(skewed_corpus)
        label_videos(storage, skewed_corpus, 20)
        model_manager.train("r3d")
        alm.ensure_candidate_pool("r3d", extra_videos=15)
        result = alm.select_segments(5, 1.0, use_active=True)
        assert all(clip.duration <= 1.0 + 1e-6 for clip in result.clips)

    def test_targeted_selection_uses_rare_category(self, skewed_corpus):
        storage, __, model_manager, alm = build_alm(skewed_corpus)
        label_videos(storage, skewed_corpus, 20)
        model_manager.train("r3d")
        alm.ensure_candidate_pool("r3d", extra_videos=15)
        result = alm.select_segments(5, 1.0, target_label="rare")
        assert result.acquisition == "rare-category-uncertainty"
        assert len(result.clips) == 5

    def test_targeted_selection_without_pool_falls_back(self, small_corpus):
        __, __, __, alm = build_alm(small_corpus)
        result = alm.select_segments(3, 1.0, target_label="walk")
        assert result.acquisition == "random"

    def test_selection_records_skew_decision(self, small_corpus):
        storage, __, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 12)
        result = alm.select_segments(5, 1.0)
        assert result.skew is not None
        assert result.feature_name == alm.current_feature()


class TestEvaluateFeaturesErrorHandling:
    def test_insufficient_labels_scores_zero(self, small_corpus):
        storage, __, model_manager, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 2)
        scores = alm.evaluate_features()
        assert set(scores.values()) == {0.0}

    def test_unexpected_error_propagates(self, small_corpus, monkeypatch):
        """A real defect (e.g. a shape bug) must not be masked as a 0.0 score."""
        storage, __, model_manager, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 9)

        def broken(*args, **kwargs):
            raise ValueError("shape bug")

        monkeypatch.setattr(model_manager, "cross_validate", broken)
        with pytest.raises(ValueError, match="shape bug"):
            alm.evaluate_features()


class TestCandidateContextCache:
    def test_context_reused_when_nothing_changed(self, small_corpus):
        storage, feature_manager, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 6)
        feature_manager.ensure_video_features("r3d", storage.videos.vids()[:10])
        first = alm._candidate_context("r3d", None)
        second = alm._candidate_context("r3d", None)
        assert second is first

    def test_target_label_swapped_on_cache_hit(self, small_corpus):
        storage, feature_manager, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 6)
        feature_manager.ensure_video_features("r3d", storage.videos.vids()[:10])
        base = alm._candidate_context("r3d", None)
        targeted = alm._candidate_context("r3d", "walk")
        assert targeted.target_label == "walk"
        assert targeted.candidates is base.candidates

    def test_new_label_invalidates_context(self, small_corpus):
        storage, feature_manager, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 6)
        feature_manager.ensure_video_features("r3d", storage.videos.vids()[:10])
        first = alm._candidate_context("r3d", None)
        label_videos(storage, small_corpus, 1, start=6)
        second = alm._candidate_context("r3d", None)
        assert second is not first

    def test_feature_write_invalidates_context(self, small_corpus):
        storage, feature_manager, __, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 6)
        feature_manager.ensure_video_features("r3d", storage.videos.vids()[:10])
        first = alm._candidate_context("r3d", None)
        feature_manager.ensure_video_features("r3d", storage.videos.vids()[10:12])
        second = alm._candidate_context("r3d", None)
        assert second is not first
        assert len(second.candidates) > len(first.candidates)

    def test_new_model_invalidates_context(self, small_corpus):
        storage, feature_manager, model_manager, alm = build_alm(small_corpus)
        label_videos(storage, small_corpus, 9)
        feature_manager.ensure_video_features("r3d", storage.videos.vids()[:10])
        first = alm._candidate_context("r3d", None)
        assert first.model is None
        model_manager.train("r3d")
        second = alm._candidate_context("r3d", None)
        assert second is not first
        assert second.model is not None
