"""Tests for the exploration session and the VOCALExplore public API."""

import json

import numpy as np
import pytest

from repro.config import SchedulerConfig, VocalExploreConfig
from repro.core.api import VOCALExplore
from repro.core.oracle import OracleUser
from repro.exceptions import ReproError, SchemaError
from repro.scheduler.tasks import TaskKind
from repro.types import Label


def run_iterations(vocal, oracle, steps, batch_size=5, label=None):
    results = []
    for __ in range(steps):
        result = vocal.explore(batch_size=batch_size, clip_duration=1.0, label=label)
        for segment in result.segments:
            vocal.add_label(
                segment.vid, segment.start, segment.end, oracle.label_for(segment.clip)
            )
        vocal.finish_iteration()
        results.append(result)
    return results


class TestExploreBasics:
    def test_explore_returns_requested_batch(self, vocal_tiny):
        result = vocal_tiny.explore(batch_size=4, clip_duration=1.0)
        assert len(result.segments) == 4
        assert result.iteration == 1
        assert result.acquisition == "random"
        for segment in result.segments:
            assert segment.end - segment.start == pytest.approx(1.0)

    def test_no_predictions_before_minimum_labels(self, vocal_tiny):
        result = vocal_tiny.explore(batch_size=3, clip_duration=1.0)
        assert all(segment.prediction is None for segment in result.segments)

    def test_predictions_appear_after_labeling(self, vocal_tiny, oracle_tiny):
        run_iterations(vocal_tiny, oracle_tiny, steps=3)
        result = vocal_tiny.explore(batch_size=3, clip_duration=1.0)
        assert any(segment.prediction is not None for segment in result.segments)
        for segment in result.segments:
            if segment.prediction is not None:
                assert set(segment.prediction.probabilities) == {"a", "b", "c", "d"}
                assert segment.predicted_label in {"a", "b", "c", "d"}

    def test_explore_defaults_from_config(self, vocal_tiny):
        result = vocal_tiny.explore()
        assert len(result.segments) == 5

    def test_finish_without_open_iteration_raises(self, vocal_tiny):
        with pytest.raises(ReproError):
            vocal_tiny.finish_iteration()

    def test_explore_auto_finishes_previous_iteration(self, vocal_tiny, oracle_tiny):
        first = vocal_tiny.explore(batch_size=2, clip_duration=1.0)
        for segment in first.segments:
            vocal_tiny.add_label(
                segment.vid, segment.start, segment.end, oracle_tiny.label_for(segment.clip)
            )
        second = vocal_tiny.explore(batch_size=2, clip_duration=1.0)
        assert second.iteration == 2
        assert len(vocal_tiny.summaries()) == 1

    def test_targeted_explore_accepts_label(self, vocal_tiny, oracle_tiny):
        run_iterations(vocal_tiny, oracle_tiny, steps=3)
        result = vocal_tiny.explore(batch_size=3, clip_duration=1.0, label="a")
        assert len(result.segments) == 3


class TestLabelsAndWatch:
    def test_add_label_persists(self, vocal_tiny):
        vocal_tiny.add_label(0, 0.0, 1.0, "a")
        assert len(vocal_tiny.session.storage.labels) == 1

    def test_add_video_registers_metadata(self, vocal_tiny):
        before = len(vocal_tiny.session.storage.videos)
        vid = vocal_tiny.add_video("extra.mp4", duration=12.0)
        assert len(vocal_tiny.session.storage.videos) == before + 1
        assert vocal_tiny.session.storage.videos.get(vid).path == "extra.mp4"

    def test_watch_returns_consecutive_segments(self, vocal_tiny, oracle_tiny):
        run_iterations(vocal_tiny, oracle_tiny, steps=2)
        vid = vocal_tiny.session.storage.videos.vids()[0]
        segments = vocal_tiny.watch(vid, 0.0, 3.0)
        assert len(segments) == 3
        assert segments[0].start == 0.0
        assert segments[-1].end == pytest.approx(3.0)
        for before, after in zip(segments, segments[1:]):
            assert after.start == pytest.approx(before.end)

    def test_watch_before_any_model_gives_no_predictions(self, vocal_tiny):
        vid = vocal_tiny.session.storage.videos.vids()[0]
        segments = vocal_tiny.watch(vid, 0.0, 2.0)
        assert all(segment.prediction is None for segment in segments)


class TestIterationSummaries:
    def test_summary_records_progress(self, vocal_tiny, oracle_tiny):
        run_iterations(vocal_tiny, oracle_tiny, steps=4, batch_size=4)
        summaries = vocal_tiny.summaries()
        assert len(summaries) == 4
        assert summaries[-1].num_labels_total == 16
        assert summaries[-1].smax >= 0.25
        assert all(summary.visible_latency >= 0.0 for summary in summaries)
        assert summaries[0].candidate_features

    def test_cumulative_latency_is_monotonic(self, vocal_tiny, oracle_tiny):
        latencies = []
        for __ in range(3):
            run_iterations(vocal_tiny, oracle_tiny, steps=1)
            latencies.append(vocal_tiny.cumulative_visible_latency())
        assert latencies == sorted(latencies)

    def test_training_happens_in_background(self, vocal_tiny, oracle_tiny):
        run_iterations(vocal_tiny, oracle_tiny, steps=3)
        kinds = {record.kind for record in vocal_tiny.session.scheduler.completed_tasks()}
        assert TaskKind.MODEL_TRAINING in kinds
        assert vocal_tiny.session.models.has_model(vocal_tiny.current_feature())


class TestSchedulingStrategies:
    def build(self, dataset, strategy, seed=1):
        config = VocalExploreConfig(
            scheduler=SchedulerConfig(strategy=strategy, user_labeling_time=10.0), seed=seed
        )
        return VOCALExplore.for_corpus(
            dataset.train_corpus,
            vocabulary=dataset.class_names,
            feature_qualities=dataset.feature_qualities,
            config=config,
        )

    def test_serial_has_higher_latency_than_full(self, tiny_dataset):
        oracle = OracleUser(tiny_dataset.train_corpus)
        serial = self.build(tiny_dataset, "serial")
        full = self.build(tiny_dataset, "ve-full")
        run_iterations(serial, oracle, steps=4)
        run_iterations(full, oracle, steps=4)
        assert serial.cumulative_visible_latency() > full.cumulative_visible_latency()

    def test_ve_full_schedules_eager_extraction(self, tiny_dataset):
        oracle = OracleUser(tiny_dataset.train_corpus)
        full = self.build(tiny_dataset, "ve-full")
        run_iterations(full, oracle, steps=3)
        kinds = {record.kind for record in full.session.scheduler.completed_tasks()}
        assert TaskKind.EAGER_FEATURE_EXTRACTION in kinds

    def test_serial_never_schedules_eager_extraction(self, tiny_dataset):
        oracle = OracleUser(tiny_dataset.train_corpus)
        serial = self.build(tiny_dataset, "serial")
        run_iterations(serial, oracle, steps=3)
        kinds = {record.kind for record in serial.session.scheduler.completed_tasks()}
        assert TaskKind.EAGER_FEATURE_EXTRACTION not in kinds

    def test_eager_video_limit_respected(self, tiny_dataset):
        oracle = OracleUser(tiny_dataset.train_corpus)
        config = VocalExploreConfig(
            scheduler=SchedulerConfig(strategy="ve-full", eager_video_limit=5), seed=1
        )
        vocal = VOCALExplore.for_corpus(
            tiny_dataset.train_corpus,
            vocabulary=tiny_dataset.class_names,
            feature_qualities=tiny_dataset.feature_qualities,
            config=config,
        )
        run_iterations(vocal, oracle, steps=3)
        assert vocal.session._eager_videos_done <= 5

    def test_forced_feature_is_used(self, tiny_dataset):
        oracle = OracleUser(tiny_dataset.train_corpus)
        vocal = self.build(tiny_dataset, "ve-full")
        vocal.session.force_feature = "clip"
        results = run_iterations(vocal, oracle, steps=2)
        assert all(result.feature_name == "clip" for result in results)

    def test_forced_acquisition_random_never_switches(self, tiny_dataset):
        oracle = OracleUser(tiny_dataset.train_corpus)
        vocal = self.build(tiny_dataset, "ve-full")
        vocal.session.force_acquisition = "random"
        results = run_iterations(vocal, oracle, steps=6)
        assert all(result.acquisition == "random" for result in results)


_GOOD_LABEL = {"vid": 0, "start": 0.0, "end": 1.0, "label": "walk"}
_GOOD_VIDEO = {"path": "extra.mp4", "duration": 10.0, "start_time": 0.0, "fps": 30.0}


class TestInputChecks:
    @staticmethod
    def watched(vocal):
        """Attach a recording journal sink; return it with a store-size probe."""
        storage = vocal.session.storage
        journaled = []
        storage.attach_journal(journaled.append)
        return journaled, lambda: (
            len(storage.labels), storage.labels.revision, len(storage.videos)
        )

    @pytest.mark.parametrize(
        "call, field, bad",
        [
            ("add_label", "vid", True),
            ("add_label", "vid", 1.0),
            ("add_label", "vid", "1"),
            ("add_label", "start", "0"),
            ("add_label", "start", None),
            ("add_label", "end", True),
            ("add_label", "label", 3),
            ("add_label", "label", None),
            ("add_video", "path", 7),
            ("add_video", "duration", "10"),
            ("add_video", "duration", True),
            ("add_video", "start_time", None),
            ("add_video", "fps", 1j),
        ],
    )
    def test_bad_field_raises_schema_error_and_stores_nothing(
        self, vocal_tiny, call, field, bad
    ):
        journaled, sizes = self.watched(vocal_tiny)
        before = sizes()
        good = _GOOD_LABEL if call == "add_label" else _GOOD_VIDEO
        with pytest.raises(SchemaError, match=field):
            getattr(vocal_tiny, call)(**{**good, field: bad})
        assert sizes() == before
        assert journaled == []

    def test_good_fields_are_stored_and_journaled(self, vocal_tiny):
        journaled, sizes = self.watched(vocal_tiny)
        labels, revision, videos = sizes()
        vocal_tiny.add_label(**_GOOD_LABEL)
        vocal_tiny.add_video(**_GOOD_VIDEO)
        assert sizes() == (labels + 1, revision + 1, videos + 1)
        assert [record["type"] for record in journaled] == ["label", "video"]

    def test_numpy_scalars_are_journaled_as_plain_values(self, vocal_tiny):
        journaled, sizes = self.watched(vocal_tiny)
        vocal_tiny.add_label(np.int64(0), np.float32(0.5), np.float64(1.0), np.str_("walk"))
        (record,) = journaled
        assert [type(record[key]) for key in ("vid", "start", "end", "label")] == [
            int, float, float, str
        ]
        json.dumps(record)
        assert vocal_tiny.session.storage.labels.all()[-1] == Label(0, 0.5, 1.0, "walk")
