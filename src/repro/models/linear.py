"""Multinomial softmax regression (the paper's linear probe).

The prototype trains "linear models" on top of frozen pretrained features.
This implementation is a standard L2-regularised softmax regression trained
with L-BFGS (scipy).  It supports a fixed vocabulary that can be larger than
the set of classes observed in the training labels, matching the paper's setup
of initialising the model with the full evaluation vocabulary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from ..exceptions import InsufficientLabelsError, ModelError, NotFittedError

__all__ = ["SoftmaxRegression", "standardization_stats"]


def standardization_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ``(mean, scale)`` with near-zero scales clamped to 1.

    The single definition of the standardization statistics used everywhere
    (cold fits, cached-design sums, warm cross-validation, warm-seed change
    of basis) — the clamp epsilon must stay identical across those sites or
    a warm seed would be re-expressed in a subtly different basis than the
    one the fit standardizes with.
    """
    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    scale[scale < 1e-12] = 1.0
    return mean, scale


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class SoftmaxRegression:
    """L2-regularised multinomial logistic regression."""

    def __init__(
        self,
        classes: Sequence[str],
        l2_regularization: float = 1e-2,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
    ) -> None:
        """Create an untrained model over a fixed class vocabulary.

        Args:
            classes: Full label vocabulary; predictions cover every class even
                when some have no training labels yet.
            l2_regularization: Strength of the L2 penalty on the weights.
            max_iterations: Maximum L-BFGS iterations.
            tolerance: L-BFGS convergence tolerance.
        """
        if not classes:
            raise InsufficientLabelsError("a model needs at least one class")
        self.classes = list(dict.fromkeys(classes))
        self.l2_regularization = float(l2_regularization)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self._class_index = {name: i for i, name in enumerate(self.classes)}
        # Sorted view of the vocabulary for vectorized label encoding: one
        # searchsorted over the whole label column instead of a per-label
        # Python dict loop.
        names = np.asarray(self.classes, dtype=np.str_)
        order = np.argsort(names)
        self._sorted_names = names[order]
        self._sorted_to_index = order.astype(np.int64)
        self._weights: np.ndarray | None = None
        self._bias: np.ndarray | None = None
        self._feature_mean: np.ndarray | None = None
        self._feature_scale: np.ndarray | None = None

    # ---------------------------------------------------------------- training
    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def encode_labels(self, labels: Sequence[str]) -> np.ndarray:
        """Map label names to class indices in one vectorized lookup.

        Raises:
            InsufficientLabelsError: when any label is outside the vocabulary;
                the message names every unknown label at once.
        """
        if len(labels) == 0:
            return np.empty(0, dtype=np.int64)
        queries = np.asarray(list(labels), dtype=np.str_)
        positions = np.searchsorted(self._sorted_names, queries)
        clipped = np.minimum(positions, len(self._sorted_names) - 1)
        known = self._sorted_names[clipped] == queries
        if not known.all():
            unknown = sorted(set(queries[~known].tolist()))
            raise InsufficientLabelsError(
                f"labels {unknown} are not in the model vocabulary {self.classes}"
            )
        return self._sorted_to_index[clipped]

    def fit(
        self,
        features: np.ndarray,
        labels: Sequence[str],
        initial_parameters: np.ndarray | None = None,
        standardization: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "SoftmaxRegression":
        """Train on a feature matrix and parallel list of label names.

        Args:
            features: ``(n, d)`` design matrix.
            labels: ``n`` label names, all inside the vocabulary.
            initial_parameters: Optional L-BFGS starting point — a flat
                ``d * k + k`` vector (weights then bias) aligned to this
                model's class order, typically produced by
                :meth:`initial_parameters_for` on an earlier model.  The
                objective is convex, so warm and cold starts converge to the
                same predictor; a good seed just gets there in far fewer
                iterations.  ``None`` starts from zero (cold start).
            standardization: Optional precomputed ``(mean, scale)`` pair of
                shape ``(d,)`` used instead of recomputing the per-column
                statistics from ``features`` (the Model Manager maintains
                these incrementally from cached column sums).

        Raises:
            InsufficientLabelsError: on empty or mis-shaped training data.
            ModelError: when ``initial_parameters`` or ``standardization``
                have the wrong shape.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise InsufficientLabelsError(f"features must be 2-D, got shape {features.shape}")
        if len(labels) != features.shape[0]:
            raise InsufficientLabelsError(
                f"{features.shape[0]} feature rows but {len(labels)} labels"
            )
        if features.shape[0] == 0:
            raise InsufficientLabelsError("cannot train on zero examples")
        targets = self.encode_labels(labels)

        # Standardise features; keeps L-BFGS well conditioned across extractors.
        if standardization is None:
            self._feature_mean, self._feature_scale = standardization_stats(features)
        else:
            mean, scale = standardization
            mean = np.asarray(mean, dtype=np.float64)
            scale = np.asarray(scale, dtype=np.float64).copy()
            if mean.shape != (features.shape[1],) or scale.shape != (features.shape[1],):
                raise ModelError(
                    f"standardization stats must have shape ({features.shape[1]},), "
                    f"got {mean.shape} and {scale.shape}"
                )
            scale[scale < 1e-12] = 1.0
            self._feature_mean = mean
            self._feature_scale = scale
        standardized = (features - self._feature_mean) / self._feature_scale

        n, d = standardized.shape
        k = self.num_classes
        one_hot = np.zeros((n, k))
        one_hot[np.arange(n), targets] = 1.0
        reg = self.l2_regularization

        def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
            weights = flat[: d * k].reshape(d, k)
            bias = flat[d * k :]
            logits = standardized @ weights + bias
            probs = _softmax(logits)
            # Cross-entropy averaged over examples plus L2 on the weights.
            log_probs = np.log(np.clip(probs, 1e-12, None))
            loss = -np.sum(one_hot * log_probs) / n + 0.5 * reg * np.sum(weights**2)
            grad_logits = (probs - one_hot) / n
            grad_weights = standardized.T @ grad_logits + reg * weights
            grad_bias = grad_logits.sum(axis=0)
            return loss, np.concatenate([grad_weights.ravel(), grad_bias])

        if initial_parameters is None:
            initial = np.zeros(d * k + k)
        else:
            initial = np.asarray(initial_parameters, dtype=np.float64)
            if initial.shape != (d * k + k,):
                raise ModelError(
                    f"initial parameters have shape {initial.shape}, expected ({d * k + k},)"
                )
        result = minimize(
            objective,
            initial,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iterations, "ftol": self.tolerance},
        )
        flat = result.x
        self._weights = flat[: d * k].reshape(d, k)
        self._bias = flat[d * k :]
        return self

    # --------------------------------------------------------------- inference
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape (n, num_classes)."""
        if not self.is_fitted:
            raise NotFittedError("model has not been trained")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        standardized = (features - self._feature_mean) / self._feature_scale
        logits = standardized @ self._weights + self._bias
        return _softmax(logits)

    def predict(self, features: np.ndarray) -> list[str]:
        """Most likely class name for each feature row."""
        probabilities = self.predict_proba(features)
        indices = probabilities.argmax(axis=1)
        return [self.classes[int(i)] for i in indices]

    # -------------------------------------------------------------- warm start
    def initial_parameters_for(
        self,
        classes: Sequence[str],
        feature_dim: int,
        standardization: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray | None:
        """Flat warm-start vector aligned to a (possibly larger) vocabulary.

        Maps this fitted model's per-class weight columns and biases onto
        ``classes`` by name: classes this model knows keep their learned
        column, classes it has never seen start from zero (the cold-start
        value for a class with no evidence).  Classes dropped from the target
        vocabulary are simply ignored.

        When ``standardization`` — the ``(mean, scale)`` the *next* fit will
        standardize with — is given, the learned parameters are additionally
        re-expressed in that basis (``W' = W * scale'/scale`` per row,
        ``b' = b + ((mean' - mean)/scale) @ W``), so the seed represents
        exactly the same predictor under the new statistics instead of a
        slightly shifted one.  Appending a handful of labels moves the column
        statistics just enough that, without this change of basis, the
        optimiser spends most of its iterations undoing the drift.

        Returns ``None`` — meaning "cold-start instead" — when the model is
        unfitted or was trained on a different feature dimensionality, so
        callers can pass the result straight to :meth:`fit`.
        """
        if not self.is_fitted or self._weights.shape[0] != feature_dim:
            return None
        source_weights = self._weights
        source_bias = self._bias
        if standardization is not None:
            new_mean = np.asarray(standardization[0], dtype=np.float64)
            new_scale = np.asarray(standardization[1], dtype=np.float64)
            if new_mean.shape != (feature_dim,) or new_scale.shape != (feature_dim,):
                raise ModelError(
                    f"standardization stats must have shape ({feature_dim},), "
                    f"got {new_mean.shape} and {new_scale.shape}"
                )
            ratio = new_scale / self._feature_scale
            shift = (new_mean - self._feature_mean) / self._feature_scale
            source_weights = source_weights * ratio[:, None]
            source_bias = source_bias + shift @ self._weights
        target = list(dict.fromkeys(classes))
        weights = np.zeros((feature_dim, len(target)))
        bias = np.zeros(len(target))
        for column, name in enumerate(target):
            source = self._class_index.get(name)
            if source is not None:
                weights[:, column] = source_weights[:, source]
                bias[column] = source_bias[source]
        return np.concatenate([weights.ravel(), bias])

    # ------------------------------------------------------------- persistence
    def get_parameters(self) -> np.ndarray:
        """Flattened parameter vector (weights then bias) for checkpointing."""
        if not self.is_fitted:
            raise NotFittedError("model has not been trained")
        return np.concatenate(
            [
                self._weights.ravel(),
                self._bias,
                self._feature_mean,
                self._feature_scale,
            ]
        )

    def set_parameters(self, flat: np.ndarray, feature_dim: int) -> None:
        """Restore parameters produced by :meth:`get_parameters`."""
        k = self.num_classes
        d = feature_dim
        expected = d * k + k + d + d
        if flat.shape[0] != expected:
            raise NotFittedError(
                f"parameter vector has length {flat.shape[0]}, expected {expected}"
            )
        cursor = d * k
        self._weights = flat[:cursor].reshape(d, k)
        self._bias = flat[cursor : cursor + k]
        cursor += k
        self._feature_mean = flat[cursor : cursor + d]
        cursor += d
        self._feature_scale = flat[cursor : cursor + d]
