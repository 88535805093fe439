"""Model subsystem: linear probes, metrics, cross-validation, Model Manager."""

from .linear import SoftmaxRegression
from .metrics import (
    ClassMetrics,
    accuracy,
    confusion_matrix,
    macro_f1,
    per_class_metrics,
    smax_diversity,
)
from .model_manager import ModelManager
from .validation import CrossValidationResult, cross_validate_macro_f1, stratified_folds

__all__ = [
    "SoftmaxRegression",
    "ClassMetrics",
    "confusion_matrix",
    "per_class_metrics",
    "macro_f1",
    "accuracy",
    "smax_diversity",
    "CrossValidationResult",
    "stratified_folds",
    "cross_validate_macro_f1",
    "ModelManager",
]
