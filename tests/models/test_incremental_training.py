"""Tests for the incremental training engine.

Covers warm-start parity (cold and warm fits converge to the same predictor),
the design-matrix cache's hit/extension/rebuild transitions, the fast
cross-validation path (cached rounds, fold reuse), and the
``warm_start=False`` escape hatch.
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.models.linear import SoftmaxRegression
from repro.models.model_manager import ModelManager
from repro.types import ClipSpec, Label

from tests.conftest import build_stack, make_corpus


def make_dataset(seed, n=120, d=8, classes=("a", "b", "c")):
    """Seeded Gaussian blobs, one per class, linearly separable-ish."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 2.0, size=(len(classes), d))
    features, labels = [], []
    for i in range(n):
        which = i % len(classes)
        features.append(centers[which] + rng.normal(0.0, 1.0, size=d))
        labels.append(classes[which])
    return np.asarray(features), labels


def label_videos(storage, corpus, count, start=0):
    for video in corpus.videos()[start : start + count]:
        clip = ClipSpec(video.vid, 0.0, 1.0)
        storage.labels.add(Label(video.vid, 0.0, 1.0, corpus.dominant_label(clip)))


def build_managers(corpus, seed=0):
    """A warm and a cold model manager over the *same* storage and features."""
    storage, feature_manager, warm = build_stack(corpus, seed=seed)
    cold = ModelManager(
        feature_manager,
        storage.labels,
        storage.models,
        list(corpus.class_names),
        ModelConfig(warm_start=False),
        seed=seed,
    )
    return storage, feature_manager, warm, cold


class TestWarmStartParity:
    """Property tests: warm and cold fits agree on predictions."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_warm_fit_matches_cold_fit(self, seed):
        features, labels = make_dataset(seed)
        cold = SoftmaxRegression(("a", "b", "c")).fit(features, labels)
        # Warm start from a model trained on a prefix of the data.
        previous = SoftmaxRegression(("a", "b", "c")).fit(features[:90], labels[:90])
        initial = previous.initial_parameters_for(["a", "b", "c"], features.shape[1])
        warm = SoftmaxRegression(("a", "b", "c")).fit(
            features, labels, initial_parameters=initial
        )
        probe, __ = make_dataset(seed + 100, n=60)
        assert warm.predict(probe) == cold.predict(probe)
        np.testing.assert_allclose(
            warm.predict_proba(probe), cold.predict_proba(probe), atol=5e-3
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vocabulary_growth_zero_pads_new_class(self, seed):
        features, labels = make_dataset(seed, classes=("a", "b"))
        previous = SoftmaxRegression(("a", "b")).fit(features, labels)
        grown_features, grown_labels = make_dataset(seed + 1, classes=("a", "b", "c"))
        initial = previous.initial_parameters_for(
            ["a", "b", "c"], grown_features.shape[1]
        )
        assert initial is not None
        assert initial.shape == (grown_features.shape[1] * 3 + 3,)
        # The new class's weight column and bias start from zero.
        weights = initial[: grown_features.shape[1] * 3].reshape(-1, 3)
        assert np.all(weights[:, 2] == 0.0)
        warm = SoftmaxRegression(("a", "b", "c")).fit(
            grown_features, grown_labels, initial_parameters=initial
        )
        cold = SoftmaxRegression(("a", "b", "c")).fit(grown_features, grown_labels)
        probe, __ = make_dataset(seed + 200, n=60, classes=("a", "b", "c"))
        agree = np.mean(
            [w == c for w, c in zip(warm.predict(probe), cold.predict(probe))]
        )
        assert agree >= 0.95

    def test_initial_parameters_for_rejects_incompatible(self):
        features, labels = make_dataset(0)
        model = SoftmaxRegression(("a", "b", "c"))
        assert model.initial_parameters_for(["a", "b"], features.shape[1]) is None
        model.fit(features, labels)
        assert model.initial_parameters_for(["a", "b"], features.shape[1] + 1) is None

    def test_change_of_basis_preserves_predictor(self):
        features, labels = make_dataset(3)
        model = SoftmaxRegression(("a", "b", "c")).fit(features, labels)
        # Re-express the parameters under shifted statistics and install them
        # verbatim in a fresh model that standardizes with those statistics:
        # the seed must describe *exactly* the same predictor.
        d = features.shape[1]
        mean = features.mean(axis=0) + 0.05
        scale = features.std(axis=0) * 1.1
        initial = model.initial_parameters_for(
            ["a", "b", "c"], d, standardization=(mean, scale)
        )
        reseeded = SoftmaxRegression(("a", "b", "c"))
        reseeded._weights = initial[: d * 3].reshape(d, 3)
        reseeded._bias = initial[d * 3 :]
        reseeded._feature_mean = mean
        reseeded._feature_scale = scale
        probe, __ = make_dataset(42, n=60)
        np.testing.assert_allclose(
            reseeded.predict_proba(probe), model.predict_proba(probe), atol=1e-12
        )

    def test_standardization_parameter_matches_internal_stats(self):
        features, labels = make_dataset(5)
        mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale[scale < 1e-12] = 1.0
        explicit = SoftmaxRegression(("a", "b", "c")).fit(
            features, labels, standardization=(mean, scale)
        )
        implicit = SoftmaxRegression(("a", "b", "c")).fit(features, labels)
        probe, __ = make_dataset(6, n=40)
        np.testing.assert_allclose(
            explicit.predict_proba(probe), implicit.predict_proba(probe), atol=1e-6
        )


class TestManagerWarmStart:
    def test_retrain_uses_warm_start(self, small_corpus):
        storage, __, warm, __cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 9)
        warm.train("r3d")
        assert warm.stats.cold_trains == 1
        label_videos(storage, small_corpus, 9, start=9)
        warm.train("r3d")
        assert warm.stats.warm_trains == 1

    def test_escape_hatch_disables_warm_start(self, small_corpus):
        storage, __, __warm, cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 9)
        cold.train("r3d")
        label_videos(storage, small_corpus, 9, start=9)
        cold.train("r3d")
        assert cold.stats.warm_trains == 0
        assert cold.stats.cold_trains == 2
        assert cold.stats.design_rebuilds == 0  # cache never engaged

    def test_warm_and_cold_managers_agree(self, small_corpus):
        storage, feature_manager, warm, cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 12)
        warm.train("r3d")
        cold.train("r3d")
        label_videos(storage, small_corpus, 12, start=12)
        warm_info = warm.train("r3d")
        cold_info = cold.train("r3d")
        warm_model = warm.registry.get(warm_info.model_id)[0]
        cold_model = cold.registry.get(cold_info.model_id)[0]
        clips = [ClipSpec(v.vid, 0.0, 1.0) for v in small_corpus.videos()[24:30]]
        probe = feature_manager.matrix("r3d", clips)
        assert warm_model.predict(probe) == cold_model.predict(probe)

    def test_label_limit_prefix_matches_uncached_gather(self, small_corpus):
        storage, __, warm, cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 12)
        warm_matrix, warm_names = warm.training_design("r3d", label_limit=7)
        cold_matrix, cold_names = cold.training_design("r3d", label_limit=7)
        assert warm_names == cold_names
        np.testing.assert_array_equal(warm_matrix, cold_matrix)


class TestDesignCache:
    def test_hit_extension_rebuild_transitions(self, small_corpus):
        storage, feature_manager, warm, __ = build_managers(small_corpus)
        label_videos(storage, small_corpus, 9)
        warm.training_design("r3d")
        assert warm.stats.design_rebuilds == 1
        warm.training_design("r3d")
        assert warm.stats.design_hits == 1
        label_videos(storage, small_corpus, 3, start=9)
        warm.training_design("r3d")
        assert warm.stats.design_extensions == 1

    def test_cached_matrix_matches_fresh_gather(self, small_corpus):
        storage, feature_manager, warm, cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 9)
        warm.training_design("r3d")
        # Grow in two steps, with an unrelated-feature extraction in between.
        label_videos(storage, small_corpus, 6, start=9)
        warm.training_design("r3d")
        label_videos(storage, small_corpus, 6, start=15)
        cached, cached_names = warm.training_design("r3d")
        fresh, fresh_names = cold.training_design("r3d")
        assert cached_names == fresh_names
        np.testing.assert_array_equal(cached, fresh)

    def test_extension_survives_epoch_bump_from_new_clips(self, small_corpus):
        """Foreground extraction of freshly selected clips must not rebuild."""
        storage, feature_manager, warm, __ = build_managers(small_corpus)
        label_videos(storage, small_corpus, 9)
        warm.training_design("r3d")
        # New labels on videos with no features yet: the extension itself
        # extracts them (epoch moves), but old rows stay valid.
        label_videos(storage, small_corpus, 6, start=9)
        epoch_before = storage.features.epoch("r3d")
        warm.training_design("r3d")
        assert storage.features.epoch("r3d") > epoch_before
        assert warm.stats.design_extensions == 1
        assert warm.stats.design_rebuilds == 1

    def test_concurrent_append_during_extension_never_duplicates_rows(
        self, small_corpus, monkeypatch
    ):
        """Regression: a label added between the cache's tail read and its
        revision update (thread-engine interleaving) must not be re-appended
        by the next extension.  The entry's revision is derived from the
        labels actually read, so it always equals the cached row count."""
        storage, __, warm, __cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 9)
        warm.training_design("r3d")
        label_videos(storage, small_corpus, 3, start=9)

        real_since = storage.labels.since

        def racing_since(revision):
            tail = real_since(revision)
            # Simulate another thread appending while the cache extends.
            label_videos(storage, small_corpus, 1, start=12)
            return tail

        monkeypatch.setattr(storage.labels, "since", racing_since)
        warm.training_design("r3d")
        monkeypatch.setattr(storage.labels, "since", real_since)
        matrix, names = warm.training_design("r3d")
        entry = warm._design_cache["r3d"]
        assert entry.label_revision == len(entry.names) == len(storage.labels)
        assert len(names) == len(storage.labels) == 13
        assert matrix.shape[0] == 13

    def test_standardization_sums_match_direct_stats(self, small_corpus):
        storage, __, warm, __cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 9)
        warm.training_design("r3d")
        label_videos(storage, small_corpus, 9, start=9)
        warm.training_design("r3d")
        entry = warm._design_cache["r3d"]
        mean, scale = entry.standardization()
        np.testing.assert_allclose(mean, entry.matrix.mean(axis=0), atol=1e-9)
        expected_scale = entry.matrix.std(axis=0)
        expected_scale[expected_scale < 1e-12] = 1.0
        np.testing.assert_allclose(scale, expected_scale, atol=1e-9)


class TestFastCrossValidation:
    def test_unchanged_round_is_served_from_cache(self, small_corpus):
        storage, __, warm, __cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 15)
        first = warm.cross_validate("r3d")
        second = warm.cross_validate("r3d")
        assert first == second
        assert warm.stats.cv_cache_hits == 1
        assert warm.stats.cv_rounds == 1

    def test_new_labels_invalidate_cv_cache(self, small_corpus):
        storage, __, warm, __cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 15)
        warm.cross_validate("r3d")
        label_videos(storage, small_corpus, 6, start=15)
        warm.cross_validate("r3d")
        assert warm.stats.cv_rounds == 2
        assert warm.stats.cv_warm_folds > 0

    def test_fold_parameters_key_the_cache(self, small_corpus):
        storage, __, warm, __cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 15)
        warm.cross_validate("r3d", num_folds=3)
        warm.cross_validate("r3d", num_folds=2)
        assert warm.stats.cv_rounds == 2

    def test_warm_scores_close_to_cold_scores(self, small_corpus):
        storage, __, warm, cold = build_managers(small_corpus)
        label_videos(storage, small_corpus, 24)
        warm_result = warm.cross_validate("r3d")
        cold_result = cold.cross_validate("r3d")
        assert warm_result.classes_evaluated == cold_result.classes_evaluated
        assert warm_result.num_examples == cold_result.num_examples
        # Fold splits differ, so scores are estimates of the same quantity.
        assert abs(warm_result.mean_f1 - cold_result.mean_f1) < 0.25
