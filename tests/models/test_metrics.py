"""Tests for evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.models.metrics import (
    accuracy,
    confusion_matrix,
    macro_f1,
    per_class_metrics,
    smax_diversity,
)

CLASSES = ["a", "b", "c"]


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        truth = ["a", "b", "c", "a"]
        matrix = confusion_matrix(truth, truth, CLASSES)
        assert matrix.tolist() == [[2, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_misclassification_off_diagonal(self):
        matrix = confusion_matrix(["a", "a"], ["b", "a"], CLASSES)
        assert matrix[0, 1] == 1
        assert matrix[0, 0] == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(["a"], ["a", "b"], CLASSES)

    def test_labels_outside_vocabulary_ignored(self):
        matrix = confusion_matrix(["z"], ["a"], CLASSES)
        assert matrix.sum() == 0


class TestPerClassMetrics:
    def test_perfect_scores(self):
        truth = ["a", "b", "c"]
        metrics = per_class_metrics(truth, truth, CLASSES)
        assert all(m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0 for m in metrics)

    def test_absent_class_scores_zero(self):
        metrics = per_class_metrics(["a", "a"], ["a", "a"], CLASSES)
        by_label = {m.label: m for m in metrics}
        assert by_label["b"].f1 == 0.0
        assert by_label["b"].support == 0
        assert by_label["a"].f1 == 1.0

    def test_precision_recall_breakdown(self):
        truth = ["a", "a", "b", "b"]
        predicted = ["a", "b", "b", "b"]
        by_label = {m.label: m for m in per_class_metrics(truth, predicted, ["a", "b"])}
        assert by_label["a"].precision == 1.0
        assert by_label["a"].recall == 0.5
        assert by_label["b"].precision == pytest.approx(2 / 3)
        assert by_label["b"].recall == 1.0


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1(["a", "b", "c"], ["a", "b", "c"], CLASSES) == 1.0

    def test_all_wrong(self):
        assert macro_f1(["a", "a"], ["b", "b"], CLASSES) == 0.0

    def test_full_vocabulary_penalises_missing_classes(self):
        # Only class "a" appears; the other two contribute zero F1.
        assert macro_f1(["a", "a"], ["a", "a"], CLASSES) == pytest.approx(1 / 3)

    def test_empty_class_list(self):
        assert macro_f1(["a"], ["a"], []) == 0.0

    @given(
        st.lists(st.sampled_from(CLASSES), min_size=1, max_size=50),
        st.lists(st.sampled_from(CLASSES), min_size=1, max_size=50),
    )
    def test_bounded_between_zero_and_one(self, truth, predicted):
        n = min(len(truth), len(predicted))
        value = macro_f1(truth[:n], predicted[:n], CLASSES)
        assert 0.0 <= value <= 1.0

    @given(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=50))
    def test_perfect_prediction_upper_bounds_any_prediction(self, truth):
        perfect = macro_f1(truth, truth, CLASSES)
        flipped = ["a" if t != "a" else "b" for t in truth]
        assert macro_f1(truth, flipped, CLASSES) <= perfect + 1e-12


class TestAccuracy:
    def test_accuracy_values(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0
        assert accuracy(["a", "b"], ["a", "c"]) == 0.5
        assert accuracy([], []) == 0.0


class TestSmaxDiversity:
    def test_empty_is_zero(self):
        assert smax_diversity([]) == 0.0

    def test_uniform_distribution(self):
        assert smax_diversity(["a", "b", "c", "a", "b", "c"]) == pytest.approx(1 / 3)

    def test_single_class_is_one(self):
        assert smax_diversity(["a", "a", "a"]) == 1.0

    def test_accepts_count_mapping(self):
        assert smax_diversity({"a": 8, "b": 2}) == pytest.approx(0.8)

    @given(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=60))
    def test_bounds(self, labels):
        value = smax_diversity(labels)
        assert 1.0 / len(CLASSES) <= value + 1e-12
        assert value <= 1.0
