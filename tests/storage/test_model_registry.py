"""Tests for the model registry."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.storage.model_registry import ModelRegistry


class DummyModel:
    """Minimal stand-in implementing the checkpoint protocol."""

    def __init__(self, value):
        self.value = value

    def get_parameters(self):
        return np.full(3, self.value)


class TestModelRegistry:
    def test_register_assigns_versions_per_feature(self):
        registry = ModelRegistry()
        first = registry.register("r3d", DummyModel(1), ["a"], 5, created_at=0.0)
        second = registry.register("r3d", DummyModel(2), ["a"], 10, created_at=1.0)
        other = registry.register("clip", DummyModel(3), ["a"], 5, created_at=2.0)
        assert (first.version, second.version, other.version) == (1, 2, 1)
        assert len(registry) == 3

    def test_latest_returns_most_recent(self):
        registry = ModelRegistry()
        registry.register("r3d", DummyModel(1), ["a"], 5, created_at=0.0)
        registry.register("r3d", DummyModel(2), ["a"], 10, created_at=1.0)
        model, info = registry.latest("r3d")
        assert model.value == 2
        assert info.version == 2

    def test_latest_missing_feature_returns_none(self):
        assert ModelRegistry().latest("r3d") is None

    def test_get_unknown_model_raises(self):
        with pytest.raises(ModelError):
            ModelRegistry().get(4)

    def test_info_and_history(self):
        registry = ModelRegistry()
        registry.register("r3d", DummyModel(1), ["a"], 5, created_at=0.0)
        registry.register("r3d", DummyModel(2), ["a"], 10, created_at=1.0)
        history = registry.history("r3d")
        assert [info.version for info in history] == [1, 2]
        assert registry.info(history[0].model_id).num_labels == 5

    def test_features_with_models(self):
        registry = ModelRegistry()
        registry.register("clip", DummyModel(1), ["a"], 5, created_at=0.0)
        assert registry.features_with_models() == ["clip"]


class TestLatestVersion:
    def test_zero_before_any_model(self):
        registry = ModelRegistry()
        assert registry.latest_version("r3d") == 0

    def test_tracks_registrations_per_feature(self):
        registry = ModelRegistry()
        registry.register("r3d", DummyModel(1.0), ["a"], 1, 0.0)
        registry.register("r3d", DummyModel(2.0), ["a"], 2, 1.0)
        registry.register("mvit", DummyModel(3.0), ["a"], 1, 2.0)
        assert registry.latest_version("r3d") == 2
        assert registry.latest_version("mvit") == 1
