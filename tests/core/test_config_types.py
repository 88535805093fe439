"""Tests for configuration objects and core value types."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.config import (
    ALMConfig,
    ExploreConfig,
    FeatureSelectionConfig,
    ModelConfig,
    SchedulerConfig,
    VocalExploreConfig,
)
from repro.exceptions import ConfigError, InvalidClipError
from repro.experiments.runner import RunnerConfig
from repro.types import ClipSpec, FeatureVector, Label, Prediction, VideoRecord, VideoSegment


#: Execution-engine knobs that no longer exist, with a value each once accepted.
REMOVED_ENGINE_FIELDS = [("engine", "threads"), ("num_workers", 4), ("time_scale", 0.01)]


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

    def test_engine_inputs_are_refused(self, capsys):
        # The scheduler has one execution path; the old engine knobs are
        # not fields any more, whichever way they are given.
        with pytest.raises(TypeError, match="engine"):
            SchedulerConfig(engine="threads")
        with pytest.raises(ConfigError, match=r"unknown scheduler config fields: \['engine'\]"):
            VocalExploreConfig().with_updates(scheduler={"engine": "threads"})
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(["explore", "--engine", "threads"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --engine threads" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", REMOVED_ENGINE_FIELDS)
    def test_removed_scheduler_field_refused(self, name, value):
        with pytest.raises(TypeError, match=name):
            SchedulerConfig(**{name: value})

    @pytest.mark.parametrize("name, value", REMOVED_ENGINE_FIELDS)
    def test_removed_scheduler_mapping_key_refused(self, name, value):
        with pytest.raises(ConfigError, match=rf"unknown scheduler config fields: \['{name}'\]"):
            VocalExploreConfig().with_updates(scheduler={name: value})

    @pytest.mark.parametrize("name, value", REMOVED_ENGINE_FIELDS)
    def test_removed_runner_field_refused(self, name, value):
        with pytest.raises(TypeError, match=name):
            RunnerConfig(**{name: value})

    @pytest.mark.parametrize(
        "flag, value", [("--engine", "threads"), ("--workers", "4"), ("--time-scale", "0.01")]
    )
    def test_removed_explore_flag_refused(self, flag, value, capsys):
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(["explore", flag, value])
        assert refused.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "section, value",
        [("gpu", "a100"), ("index", {"backend": "ivf-flat"})],
    )
    def test_with_updates_unknown_section_rejected(self, section, value):
        with pytest.raises(ConfigError, match=section):
            VocalExploreConfig().with_updates(**{section: value})

    def test_with_updates_builds_a_section_from_a_mapping(self, tmp_path):
        config = VocalExploreConfig(seed=3)
        from_mapping = config.with_updates(
            scheduler={"strategy": "serial", "checkpoint_dir": str(tmp_path)},
            model={"l2_regularization": 0.5},
        )
        from_dataclasses = config.with_updates(
            scheduler=SchedulerConfig(strategy="serial", checkpoint_dir=str(tmp_path)),
            model=ModelConfig(l2_regularization=0.5),
        )
        assert from_mapping == from_dataclasses
        assert isinstance(from_mapping.scheduler, SchedulerConfig)
        assert from_mapping.scheduler.eager_batch_size == 10  # a default
        assert from_mapping.seed == 3

    def test_with_updates_mapping_with_unknown_field_names_its_section(self):
        with pytest.raises(ConfigError, match=r"unknown scheduler config fields: \['engines'\]"):
            VocalExploreConfig().with_updates(scheduler={"engines": "threads"})
        # Field values are still validated by the section itself.
        with pytest.raises(ValueError, match="strategy"):
            VocalExploreConfig().with_updates(scheduler={"strategy": "greenlets"})


class TestVideoRecordAndClip:
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
