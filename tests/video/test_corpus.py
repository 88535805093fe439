"""Tests for the synthetic video corpus."""

import numpy as np
import pytest

from repro.exceptions import UnknownVideoError, VideoError
from repro.types import ClipSpec
from repro.video.activity import ActivitySegment, ActivityTrack
from repro.video.corpus import VideoCorpus
from repro.video.streams import MIN_VECTORIZED_BATCH


def single_activity_track(activity, duration=10.0):
    return ActivityTrack(duration, [ActivitySegment(0.0, duration, activity)])


class TestCorpusConstruction:
    def test_requires_classes(self):
        with pytest.raises(VideoError):
            VideoCorpus([])

    def test_add_video_assigns_vids(self):
        corpus = VideoCorpus(["a", "b"])
        first = corpus.add_video(single_activity_track("a"))
        second = corpus.add_video(single_activity_track("b"))
        assert (first.vid, second.vid) == (0, 1)
        assert len(corpus) == 2
        assert 0 in corpus and 5 not in corpus

    def test_add_video_rejects_unknown_activity(self):
        corpus = VideoCorpus(["a"])
        with pytest.raises(VideoError):
            corpus.add_video(single_activity_track("z"))

    def test_records_and_vids(self):
        corpus = VideoCorpus(["a"])
        corpus.add_videos([single_activity_track("a") for __ in range(3)])
        assert corpus.vids() == [0, 1, 2]
        assert [record.vid for record in corpus.records()] == [0, 1, 2]

    def test_video_lookup_unknown(self):
        with pytest.raises(UnknownVideoError):
            VideoCorpus(["a"]).video(3)

    def test_class_prototypes_are_unit_norm(self):
        corpus = VideoCorpus(["a", "b", "c"], seed=1)
        for name in ["a", "b", "c"]:
            assert np.linalg.norm(corpus.class_prototype(name)) == pytest.approx(1.0)

    def test_class_prototype_unknown(self):
        with pytest.raises(VideoError):
            VideoCorpus(["a"]).class_prototype("b")


class TestBatchedRegistration:
    """``add_videos`` seeds every video's noise in one pass, bit-identically."""

    @staticmethod
    def _per_video_noise(corpus, vid):
        rng = np.random.default_rng((corpus.seed, vid, 0xA5))
        return rng.standard_normal(corpus.latent_dim) * corpus.per_video_noise * corpus._noise_unit

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (MIN_VECTORIZED_BATCH - 1,), (MIN_VECTORIZED_BATCH,), (3, 2 * MIN_VECTORIZED_BATCH)],
        ids=["one", "below-cutoff", "at-cutoff", "two-batches"],
    )
    def test_noise_equals_the_per_video_formula(self, sizes):
        corpus = VideoCorpus(["a", "b"], latent_dim=24, per_video_noise=0.4, seed=6)
        for size in sizes:
            corpus.add_videos(single_activity_track("ab"[i % 2]) for i in range(size))
        assert corpus.vids() == list(range(sum(sizes)))
        for vid in corpus.vids():
            assert np.array_equal(corpus._video_noise[vid], self._per_video_noise(corpus, vid))

    def test_one_at_a_time_equals_batched(self):
        tracks = [
            ActivityTrack(8.0, [ActivitySegment(0.0, 8.0, "ab"[i % 2])])
            for i in range(2 * MIN_VECTORIZED_BATCH + 3)
        ]
        single = VideoCorpus(["a", "b"], seed=2)
        for track in tracks:
            single.add_video(track)
        batched = VideoCorpus(["a", "b"], seed=2)
        batched.add_videos(tracks)
        assert single.records() == batched.records()
        clips = [ClipSpec(vid, 1.0, 3.5) for vid in batched.vids()]
        assert np.array_equal(single.clip_latents(clips), batched.clip_latents(clips))

    def test_a_bad_track_registers_nothing(self):
        corpus = VideoCorpus(["a"])
        with pytest.raises(VideoError):
            corpus.add_videos([single_activity_track("a"), single_activity_track("z")])
        assert len(corpus) == 0
        assert corpus.add_video(single_activity_track("a")).vid == 0


class TestGroundTruth:
    def test_ground_truth_labels(self):
        corpus = VideoCorpus(["a", "b"])
        corpus.add_video(
            ActivityTrack(
                10.0,
                [ActivitySegment(0.0, 6.0, "a"), ActivitySegment(6.0, 10.0, "b")],
            )
        )
        assert corpus.ground_truth_labels(ClipSpec(0, 0.0, 5.0)) == ["a"]
        assert set(corpus.ground_truth_labels(ClipSpec(0, 5.0, 8.0))) == {"a", "b"}

    def test_dominant_label(self):
        corpus = VideoCorpus(["a", "b"])
        corpus.add_video(
            ActivityTrack(
                10.0,
                [ActivitySegment(0.0, 7.0, "a"), ActivitySegment(7.0, 10.0, "b")],
            )
        )
        assert corpus.dominant_label(ClipSpec(0, 0.0, 10.0)) == "a"
        assert corpus.dominant_label(ClipSpec(0, 8.0, 9.0)) == "b"

    def test_clip_end_clamped_to_duration(self):
        corpus = VideoCorpus(["a"])
        corpus.add_video(single_activity_track("a", duration=5.0))
        assert corpus.dominant_label(ClipSpec(0, 4.0, 9.0)) == "a"


class TestLatentContent:
    def test_clip_latent_is_deterministic(self):
        corpus = VideoCorpus(["a", "b"], seed=3)
        corpus.add_video(single_activity_track("a"))
        clip = ClipSpec(0, 1.0, 2.0)
        np.testing.assert_allclose(corpus.clip_latent(clip), corpus.clip_latent(clip))

    def test_clip_latent_differs_between_clips(self):
        corpus = VideoCorpus(["a", "b"], seed=3)
        corpus.add_video(single_activity_track("a"))
        first = corpus.clip_latent(ClipSpec(0, 1.0, 2.0))
        second = corpus.clip_latent(ClipSpec(0, 5.0, 6.0))
        assert not np.allclose(first, second)

    def test_same_class_clips_closer_than_cross_class(self):
        corpus = VideoCorpus(["a", "b"], seed=3, within_class_noise=0.3, per_video_noise=0.1)
        corpus.add_video(single_activity_track("a"))
        corpus.add_video(single_activity_track("a"))
        corpus.add_video(single_activity_track("b"))
        same = np.linalg.norm(
            corpus.clip_latent(ClipSpec(0, 0.0, 1.0)) - corpus.clip_latent(ClipSpec(1, 0.0, 1.0))
        )
        cross = np.linalg.norm(
            corpus.clip_latent(ClipSpec(0, 0.0, 1.0)) - corpus.clip_latent(ClipSpec(2, 0.0, 1.0))
        )
        assert same < cross

    def test_clip_latent_outside_video_rejected(self):
        corpus = VideoCorpus(["a"])
        corpus.add_video(single_activity_track("a", duration=5.0))
        with pytest.raises(VideoError):
            corpus.clip_latent(ClipSpec(0, 6.0, 7.0))

    def test_frame_latents_shape(self):
        corpus = VideoCorpus(["a"], latent_dim=32)
        corpus.add_video(single_activity_track("a"))
        frames = corpus.frame_latents(ClipSpec(0, 0.0, 1.0), num_frames=16)
        assert frames.shape == (16, 32)

    def test_frame_latents_requires_positive_frames(self):
        corpus = VideoCorpus(["a"])
        corpus.add_video(single_activity_track("a"))
        with pytest.raises(VideoError):
            corpus.frame_latents(ClipSpec(0, 0.0, 1.0), num_frames=0)

    def test_mixed_clip_latent_between_prototypes(self):
        corpus = VideoCorpus(["a", "b"], seed=0, within_class_noise=0.0, per_video_noise=0.0)
        corpus.add_video(
            ActivityTrack(
                10.0,
                [ActivitySegment(0.0, 5.0, "a"), ActivitySegment(5.0, 10.0, "b")],
            )
        )
        latent = corpus.clip_latent(ClipSpec(0, 0.0, 10.0))
        expected = 0.5 * (corpus.class_prototype("a") + corpus.class_prototype("b"))
        np.testing.assert_allclose(latent, expected, atol=1e-9)


class TestCorpusStats:
    def test_class_coverage_and_counts(self):
        corpus = VideoCorpus(["a", "b"])
        corpus.add_video(single_activity_track("a"))
        corpus.add_video(single_activity_track("a"))
        corpus.add_video(single_activity_track("b", duration=5.0))
        coverage = {
            name: sum(video.track.coverage(name) for video in corpus.videos())
            for name in corpus.class_names
        }
        counts = corpus.class_video_counts()
        assert coverage["a"] == pytest.approx(20.0)
        assert coverage["b"] == pytest.approx(5.0)
        assert counts == {"a": 2, "b": 1}

    def test_describe(self):
        corpus = VideoCorpus(["a", "b"])
        corpus.add_video(single_activity_track("a"))
        summary = corpus.describe()
        assert summary["num_videos"] == 1
        assert summary["num_classes"] == 2
        assert summary["total_duration"] == pytest.approx(10.0)

    def test_describe_empty(self):
        summary = VideoCorpus(["a"]).describe()
        assert summary["num_videos"] == 0
        assert summary["total_duration"] == 0.0


class TestBatchLatents:
    """The batch latents are the per-clip latents' exact bytes."""

    @pytest.fixture
    def corpus(self):
        corpus = VideoCorpus(["a", "b", "c"], latent_dim=16, seed=5)
        corpus.add_video(
            ActivityTrack(
                10.0,
                [
                    ActivitySegment(0.0, 4.0, "a"),
                    ActivitySegment(3.0, 6.5, "b"),
                    ActivitySegment(6.5, 10.0, "c"),
                ],
            )
        )
        corpus.add_video(single_activity_track("b", duration=3.0))
        corpus.add_video(ActivityTrack(8.0, [ActivitySegment(2.0, 3.0, "c")]))
        return corpus

    def clips(self):
        # Enough clips for the vectorized stream seeding.
        return [
            ClipSpec(0, 3.5, 4.5),  # two overlapping segments
            ClipSpec(0, 6.0, 7.0),  # crosses a boundary
            ClipSpec(1, 2.5, 9.0),  # clamped to the video's end
            ClipSpec(2, 5.0, 6.0),  # no segment at all
            ClipSpec(0, 3.5, 4.5),  # duplicate
            ClipSpec(2, 1.0, 3.5),
        ] + [ClipSpec(0, 0.5 * i, 0.5 * i + 1.0) for i in range(8)]

    def test_clip_latents_match_clip_latent(self, corpus):
        clips = self.clips()
        batch = corpus.clip_latents(clips)
        assert np.array_equal(batch, np.stack([corpus.clip_latent(c) for c in clips]))
        assert corpus.clip_latents([]).shape == (0, 16)

    def test_frame_latents_batch_match_frame_latents(self, corpus):
        clips = self.clips()
        counts = [30, 7, 30, 1, 30, 12] + [30] * 8
        batch = corpus.frame_latents_batch(clips, counts)
        for clip, count, frames in zip(clips, counts, batch):
            assert np.array_equal(frames, corpus.frame_latents(clip, count))
        assert corpus.frame_latents_batch([], []) == []

    def test_batch_errors_match_per_clip_errors(self, corpus):
        with pytest.raises(UnknownVideoError):
            corpus.clip_latents([ClipSpec(0, 0.0, 1.0), ClipSpec(9, 0.0, 1.0)])
        with pytest.raises(VideoError):
            corpus.clip_latents([ClipSpec(1, 4.0, 5.0)])
        with pytest.raises(VideoError):
            corpus.frame_latents_batch([ClipSpec(0, 0.0, 1.0)], [0])
        with pytest.raises(VideoError):
            corpus.frame_latents_batch([ClipSpec(0, 0.0, 1.0)], [3, 4])
