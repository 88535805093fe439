"""Tests for softmax regression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InsufficientLabelsError, NotFittedError
from repro.models.linear import SoftmaxRegression


def separable_data(n_per_class=30, num_classes=3, dim=10, seed=0, spread=4.0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim)) * spread
    features, labels = [], []
    for index in range(num_classes):
        features.append(centers[index] + rng.standard_normal((n_per_class, dim)))
        labels.extend([f"class_{index}"] * n_per_class)
    return np.vstack(features), labels


class TestSoftmaxRegression:
    def test_requires_classes(self):
        with pytest.raises(InsufficientLabelsError):
            SoftmaxRegression([])

    def test_duplicate_classes_deduplicated(self):
        model = SoftmaxRegression(["a", "b", "a"])
        assert model.classes == ["a", "b"]
        assert model.num_classes == 2

    def test_fit_and_predict_separable(self):
        features, labels = separable_data()
        model = SoftmaxRegression([f"class_{i}" for i in range(3)])
        model.fit(features, labels)
        predictions = model.predict(features)
        accuracy = np.mean([p == t for p, t in zip(predictions, labels)])
        assert accuracy > 0.95

    def test_predict_proba_rows_sum_to_one(self):
        features, labels = separable_data()
        model = SoftmaxRegression([f"class_{i}" for i in range(3)]).fit(features, labels)
        probabilities = model.predict_proba(features[:10])
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(10), atol=1e-9)
        assert np.all(probabilities >= 0)

    def test_predict_before_fit_raises(self):
        model = SoftmaxRegression(["a", "b"])
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((1, 4)))

    def test_vocabulary_larger_than_observed_classes(self):
        features, labels = separable_data(num_classes=2)
        model = SoftmaxRegression(["class_0", "class_1", "never_seen"]).fit(features, labels)
        probabilities = model.predict_proba(features[:5])
        assert probabilities.shape == (5, 3)
        # The unseen class should not dominate any prediction.
        assert all(p != "never_seen" for p in model.predict(features))

    def test_label_outside_vocabulary_rejected(self):
        model = SoftmaxRegression(["a", "b"])
        with pytest.raises(InsufficientLabelsError):
            model.fit(np.zeros((2, 3)), ["a", "z"])

    def test_dimension_mismatch_rejected(self):
        model = SoftmaxRegression(["a", "b"])
        with pytest.raises(InsufficientLabelsError):
            model.fit(np.zeros((3, 2)), ["a", "b"])

    def test_zero_examples_rejected(self):
        model = SoftmaxRegression(["a", "b"])
        with pytest.raises(InsufficientLabelsError):
            model.fit(np.zeros((0, 2)), [])

    def test_one_dimensional_input_promoted(self):
        features, labels = separable_data(dim=4)
        model = SoftmaxRegression([f"class_{i}" for i in range(3)]).fit(features, labels)
        single = model.predict_proba(features[0])
        assert single.shape == (1, 3)

    def test_constant_feature_column_handled(self):
        rng = np.random.default_rng(0)
        features = np.hstack([rng.standard_normal((40, 3)), np.ones((40, 1))])
        labels = ["a" if row[0] > 0 else "b" for row in features]
        model = SoftmaxRegression(["a", "b"]).fit(features, labels)
        assert len(model.predict(features)) == 40

    def test_regularization_shrinks_weights(self):
        features, labels = separable_data()
        weak = SoftmaxRegression([f"class_{i}" for i in range(3)], l2_regularization=1e-4).fit(
            features, labels
        )
        strong = SoftmaxRegression([f"class_{i}" for i in range(3)], l2_regularization=10.0).fit(
            features, labels
        )
        assert np.linalg.norm(strong.get_parameters()) < np.linalg.norm(weak.get_parameters())

    def test_parameter_roundtrip(self):
        features, labels = separable_data(dim=6)
        model = SoftmaxRegression([f"class_{i}" for i in range(3)]).fit(features, labels)
        parameters = model.get_parameters()
        clone = SoftmaxRegression([f"class_{i}" for i in range(3)])
        clone.set_parameters(parameters, feature_dim=6)
        np.testing.assert_allclose(
            clone.predict_proba(features[:7]), model.predict_proba(features[:7])
        )

    def test_parameter_roundtrip_wrong_length(self):
        model = SoftmaxRegression(["a", "b"])
        with pytest.raises(NotFittedError):
            model.set_parameters(np.zeros(5), feature_dim=6)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=3, max_value=8))
    def test_probabilities_valid_for_random_problems(self, num_classes, dim):
        features, labels = separable_data(n_per_class=10, num_classes=num_classes, dim=dim, seed=1)
        model = SoftmaxRegression([f"class_{i}" for i in range(num_classes)]).fit(features, labels)
        probabilities = model.predict_proba(features)
        assert probabilities.shape == (len(labels), num_classes)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-8)


class TestEncodeLabels:
    def test_vectorized_encoding_matches_vocabulary_order(self):
        model = SoftmaxRegression(["walk", "eat", "rest"])
        encoded = model.encode_labels(["rest", "walk", "eat", "walk"])
        assert encoded.tolist() == [2, 0, 1, 0]
        assert encoded.dtype == np.int64

    def test_empty_input(self):
        model = SoftmaxRegression(["walk", "eat"])
        assert model.encode_labels([]).shape == (0,)

    def test_unknown_labels_all_named_in_error(self):
        model = SoftmaxRegression(["walk", "eat"])
        with pytest.raises(InsufficientLabelsError) as excinfo:
            model.encode_labels(["walk", "swim", "fly", "swim"])
        message = str(excinfo.value)
        assert "swim" in message and "fly" in message
        assert "walk" not in message.split("vocabulary")[0]

    def test_label_longer_than_any_vocabulary_entry(self):
        model = SoftmaxRegression(["a", "b"])
        with pytest.raises(InsufficientLabelsError):
            model.encode_labels(["a", "zzzzzzzzzz"])

    @given(st.lists(st.sampled_from(["c0", "c1", "c2", "c3"]), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_round_trips_through_class_list(self, labels):
        model = SoftmaxRegression(["c0", "c1", "c2", "c3"])
        encoded = model.encode_labels(labels)
        assert [model.classes[i] for i in encoded] == labels
