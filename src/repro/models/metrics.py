"""Evaluation metrics.

The paper evaluates model quality with the macro F1 score and label diversity
with S_max (fraction of labels from the most frequent class).  Both are
implemented here along with the supporting per-class precision/recall and
confusion-matrix helpers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "ClassMetrics",
    "confusion_matrix",
    "per_class_metrics",
    "macro_f1",
    "accuracy",
    "smax_diversity",
]


@dataclass(frozen=True)
class ClassMetrics:
    """Precision, recall, and F1 for one class."""

    label: str
    precision: float
    recall: float
    f1: float
    support: int


def confusion_matrix(
    true_labels: Sequence[str],
    predicted_labels: Sequence[str],
    classes: Sequence[str],
) -> np.ndarray:
    """Confusion matrix with rows = true classes, columns = predicted classes."""
    if len(true_labels) != len(predicted_labels):
        raise ValueError("true and predicted label lists must have the same length")
    index = {name: i for i, name in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for true, predicted in zip(true_labels, predicted_labels):
        if true in index and predicted in index:
            matrix[index[true], index[predicted]] += 1
    return matrix


def per_class_metrics(
    true_labels: Sequence[str],
    predicted_labels: Sequence[str],
    classes: Sequence[str],
) -> list[ClassMetrics]:
    """Precision / recall / F1 per class (0 when a class has no predictions or support)."""
    matrix = confusion_matrix(true_labels, predicted_labels, classes)
    results = []
    for i, label in enumerate(classes):
        true_positive = matrix[i, i]
        predicted_positive = matrix[:, i].sum()
        actual_positive = matrix[i, :].sum()
        precision = true_positive / predicted_positive if predicted_positive else 0.0
        recall = true_positive / actual_positive if actual_positive else 0.0
        denominator = precision + recall
        f1 = 2 * precision * recall / denominator if denominator else 0.0
        results.append(
            ClassMetrics(
                label=label,
                precision=float(precision),
                recall=float(recall),
                f1=float(f1),
                support=int(actual_positive),
            )
        )
    return results


def macro_f1(
    true_labels: Sequence[str],
    predicted_labels: Sequence[str],
    classes: Sequence[str],
) -> float:
    """Unweighted mean of per-class F1 over the full vocabulary.

    Classes absent from both truth and predictions contribute an F1 of 0,
    matching the paper's setup of evaluating over the full label vocabulary.
    """
    if not classes:
        return 0.0
    metrics = per_class_metrics(true_labels, predicted_labels, classes)
    return float(np.mean([m.f1 for m in metrics]))


def accuracy(true_labels: Sequence[str], predicted_labels: Sequence[str]) -> float:
    """Fraction of exact matches."""
    if not true_labels:
        return 0.0
    matches = sum(1 for t, p in zip(true_labels, predicted_labels) if t == p)
    return matches / len(true_labels)


def smax_diversity(labels: Sequence[str] | Mapping[str, int]) -> float:
    """S_max: fraction of labels belonging to the most frequent class.

    Lower values indicate a more diverse labeled set.  Accepts either the raw
    label sequence or a precomputed count mapping; returns 0.0 when empty.
    """
    if isinstance(labels, Mapping):
        counts = dict(labels)
    else:
        counts = dict(Counter(labels))
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return max(counts.values()) / total
