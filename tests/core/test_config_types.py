"""Tests for configuration objects and core value types."""

import numpy as np
import pytest

from repro.config import (
    ALMConfig,
    ExploreConfig,
    FeatureSelectionConfig,
    IndexConfig,
    ModelConfig,
    SchedulerConfig,
    VocalExploreConfig,
)
from repro.exceptions import ConfigError, InvalidClipError
from repro.types import ClipSpec, FeatureVector, Label, Prediction, VideoRecord, VideoSegment


class TestConfigValidation:
    def test_defaults_match_paper(self):
        config = VocalExploreConfig()
        assert config.alm.skew_p_value == 0.001
        assert config.alm.active_acquisition == "cluster-margin"
        assert config.feature_selection.smoothing_span == 5
        assert config.feature_selection.slope_window == 5
        assert config.feature_selection.horizon == 50
        assert config.feature_selection.warmup_iterations == 10
        assert config.scheduler.user_labeling_time == 10.0
        assert config.scheduler.eager_batch_size == 10
        assert config.explore.batch_size == 5
        assert config.explore.clip_duration == 1.0

    def test_invalid_alm_settings(self):
        with pytest.raises(ValueError):
            ALMConfig(skew_test="chi-square")
        with pytest.raises(ValueError):
            ALMConfig(active_acquisition="dqn")
        with pytest.raises(ValueError):
            ALMConfig(skew_p_value=0.0)
        with pytest.raises(ValueError):
            ALMConfig(frequency_multiplier=0.5)

    def test_invalid_feature_selection_settings(self):
        with pytest.raises(ValueError):
            FeatureSelectionConfig(smoothing_span=0)
        with pytest.raises(ValueError):
            FeatureSelectionConfig(cv_folds=1)
        with pytest.raises(ValueError):
            FeatureSelectionConfig(horizon=0)

    def test_invalid_scheduler_settings(self):
        with pytest.raises(ValueError):
            SchedulerConfig(strategy="eager-only")
        with pytest.raises(ValueError):
            SchedulerConfig(user_labeling_time=-1.0)
        with pytest.raises(ValueError):
            SchedulerConfig(eager_batch_size=0)

    def test_engine_settings(self):
        config = SchedulerConfig(engine="threads", num_workers=2, time_scale=0.01)
        assert config.engine == "threads"
        assert config.num_workers == 2
        assert SchedulerConfig().engine == "simulated"
        with pytest.raises(ValueError):
            SchedulerConfig(engine="greenlets")
        with pytest.raises(ValueError):
            SchedulerConfig(num_workers=0)
        with pytest.raises(ValueError):
            SchedulerConfig(time_scale=0.0)

    def test_invalid_model_and_explore_settings(self):
        with pytest.raises(ValueError):
            ModelConfig(l2_regularization=-1.0)
        with pytest.raises(ValueError):
            ExploreConfig(batch_size=0)
        with pytest.raises(ValueError):
            ExploreConfig(clip_duration=0.0)

    def test_with_updates_replaces_sections(self):
        config = VocalExploreConfig()
        updated = config.with_updates(scheduler=SchedulerConfig(strategy="serial"), seed=9)
        assert updated.scheduler.strategy == "serial"
        assert updated.seed == 9
        # Original is unchanged (frozen dataclass semantics).
        assert config.scheduler.strategy == "ve-full"

    def test_with_updates_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="gpu"):
            VocalExploreConfig().with_updates(gpu="a100")

    def test_with_updates_builds_a_section_from_a_mapping(self, tmp_path):
        config = VocalExploreConfig(seed=3)
        from_mapping = config.with_updates(
            scheduler={"strategy": "serial", "checkpoint_dir": str(tmp_path)},
            index={"backend": "ivf-flat", "nprobe": 2},
        )
        from_dataclasses = config.with_updates(
            scheduler=SchedulerConfig(strategy="serial", checkpoint_dir=str(tmp_path)),
            index=IndexConfig(backend="ivf-flat", nprobe=2),
        )
        assert from_mapping == from_dataclasses
        assert isinstance(from_mapping.scheduler, SchedulerConfig)
        assert from_mapping.scheduler.engine == "simulated"  # a default
        assert from_mapping.seed == 3

    def test_with_updates_mapping_with_unknown_field_names_its_section(self):
        with pytest.raises(ConfigError, match=r"unknown scheduler config fields: \['engines'\]"):
            VocalExploreConfig().with_updates(scheduler={"engines": "threads"})
        # Field values are still validated by the section itself.
        with pytest.raises(ValueError, match="engine"):
            VocalExploreConfig().with_updates(scheduler={"engine": "greenlets"})


class TestVideoRecordAndClip:
    def test_video_record_frame_count(self):
        record = VideoRecord(vid=0, path="a.mp4", duration=2.0, fps=30.0)
        assert record.frame_count == 60

    def test_video_record_validation(self):
        with pytest.raises(InvalidClipError):
            VideoRecord(vid=0, path="a.mp4", duration=0.0)
        with pytest.raises(InvalidClipError):
            VideoRecord(vid=0, path="a.mp4", duration=1.0, fps=0.0)

    def test_clip_validation(self):
        with pytest.raises(InvalidClipError):
            ClipSpec(0, 2.0, 2.0)
        with pytest.raises(InvalidClipError):
            ClipSpec(0, -1.0, 2.0)

    def test_clip_properties(self):
        clip = ClipSpec(3, 2.0, 5.0)
        assert clip.duration == 3.0
        assert clip.midpoint == 3.5

    def test_clip_overlap(self):
        assert ClipSpec(0, 0.0, 2.0).overlaps(ClipSpec(0, 1.0, 3.0))
        assert not ClipSpec(0, 0.0, 2.0).overlaps(ClipSpec(0, 2.0, 3.0))
        assert not ClipSpec(0, 0.0, 2.0).overlaps(ClipSpec(1, 1.0, 3.0))

    def test_clip_ordering(self):
        clips = sorted([ClipSpec(1, 0.0, 1.0), ClipSpec(0, 5.0, 6.0), ClipSpec(0, 1.0, 2.0)])
        assert clips[0].vid == 0 and clips[0].start == 1.0
        assert clips[-1].vid == 1


class TestLabelFeaturePrediction:
    def test_label_clip(self):
        label = Label(2, 1.0, 2.0, "walk")
        assert label.clip == ClipSpec(2, 1.0, 2.0)

    def test_feature_vector_validation_and_dim(self):
        feature = FeatureVector("r3d", 0, 0.0, 1.0, np.zeros(16))
        assert feature.dim == 16
        assert feature.clip.vid == 0
        with pytest.raises(ValueError):
            FeatureVector("r3d", 0, 0.0, 1.0, np.zeros((2, 2)))

    def test_prediction_top_label_and_margin(self):
        prediction = Prediction(0, 0.0, 1.0, {"a": 0.7, "b": 0.2, "c": 0.1})
        assert prediction.top_label == "a"
        assert prediction.top_probability == pytest.approx(0.7)
        assert prediction.margin() == pytest.approx(0.5)

    def test_prediction_margin_single_class(self):
        assert Prediction(0, 0.0, 1.0, {"a": 1.0}).margin() == 1.0

    def test_video_segment_accessors(self):
        prediction = Prediction(4, 1.0, 2.0, {"a": 0.9, "b": 0.1})
        segment = VideoSegment(clip=ClipSpec(4, 1.0, 2.0), prediction=prediction)
        assert segment.vid == 4
        assert segment.start == 1.0
        assert segment.end == 2.0
        assert segment.predicted_label == "a"
        assert VideoSegment(clip=ClipSpec(4, 1.0, 2.0)).predicted_label is None
