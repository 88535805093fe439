"""Tests for clip sampling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import InvalidClipError
from repro.types import VideoRecord
from repro.video.sampler import ClipSampler


def video(vid=0, duration=10.0, fps=30.0):
    return VideoRecord(vid=vid, path=f"{vid}.mp4", duration=duration, fps=fps)


class TestSamplerConfig:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidClipError):
            ClipSampler(sequence_length=0)
        with pytest.raises(InvalidClipError):
            ClipSampler(stride=0)
        with pytest.raises(InvalidClipError):
            ClipSampler(step=0)

    def test_window_and_step_durations(self):
        sampler = ClipSampler(sequence_length=16, stride=2, step=32)
        assert sampler.window_duration(30.0) == pytest.approx(32 / 30)
        assert sampler.step_duration(30.0) == pytest.approx(32 / 30)


class TestFeatureWindows:
    def test_windows_cover_video(self):
        sampler = ClipSampler()
        windows = sampler.feature_windows(video(duration=10.0))
        assert windows[0].start == 0.0
        assert windows[-1].end == pytest.approx(10.0)
        # Consecutive windows are contiguous for step == sequence * stride.
        for before, after in zip(windows, windows[1:]):
            assert after.start == pytest.approx(before.start + sampler.step_duration(30.0))

    def test_short_video_gets_single_window(self):
        sampler = ClipSampler()
        windows = sampler.feature_windows(video(duration=0.5))
        assert len(windows) == 1
        assert windows[0].end == pytest.approx(0.5)

    def test_window_containing(self):
        sampler = ClipSampler()
        record = video(duration=10.0)
        clip = sampler.window_containing(record, 5.0)
        assert clip.start <= 5.0 <= clip.end
        assert clip.vid == record.vid

    def test_window_containing_out_of_range(self):
        sampler = ClipSampler()
        with pytest.raises(InvalidClipError):
            sampler.window_containing(video(duration=10.0), 10.0)
        with pytest.raises(InvalidClipError):
            sampler.window_containing(video(duration=10.0), -1.0)

    @given(st.floats(min_value=0.0, max_value=9.99))
    def test_window_containing_property(self, time):
        sampler = ClipSampler()
        clip = sampler.window_containing(video(duration=10.0), time)
        assert clip.start <= time
        assert clip.end >= min(time, clip.end)
        assert clip.end <= 10.0 + 1e-9


class TestRandomClips:
    def test_random_clip_within_bounds(self):
        sampler = ClipSampler()
        rng = np.random.default_rng(0)
        for __ in range(20):
            clip = sampler.random_clip(video(duration=10.0), 1.0, rng)
            assert 0.0 <= clip.start
            assert clip.end <= 10.0
            assert clip.duration == pytest.approx(1.0)

    def test_random_clip_longer_than_video(self):
        sampler = ClipSampler()
        rng = np.random.default_rng(0)
        clip = sampler.random_clip(video(duration=0.5), 1.0, rng)
        assert clip.start == 0.0
        assert clip.end == pytest.approx(0.5)

    def test_random_clip_invalid_duration(self):
        sampler = ClipSampler()
        with pytest.raises(InvalidClipError):
            sampler.random_clip(video(), 0.0, np.random.default_rng(0))

    def test_random_clips_spread_across_videos(self):
        sampler = ClipSampler()
        rng = np.random.default_rng(0)
        videos = [video(i) for i in range(10)]
        clips = sampler.random_clips(videos, 1.0, 5, rng)
        assert len(clips) == 5
        assert len({clip.vid for clip in clips}) == 5

    def test_random_clips_with_replacement_when_needed(self):
        sampler = ClipSampler()
        rng = np.random.default_rng(0)
        clips = sampler.random_clips([video(0)], 1.0, 4, rng)
        assert len(clips) == 4
        assert all(clip.vid == 0 for clip in clips)

    def test_random_clips_empty_videos(self):
        sampler = ClipSampler()
        assert sampler.random_clips([], 1.0, 3, np.random.default_rng(0)) == []

    def test_random_clips_invalid_count(self):
        sampler = ClipSampler()
        with pytest.raises(InvalidClipError):
            sampler.random_clips([video(0)], 1.0, 0, np.random.default_rng(0))


class TestConsecutiveClips:
    def test_watch_segmentation(self):
        sampler = ClipSampler()
        clips = sampler.consecutive_clips(video(duration=10.0), 2.0, 5.5, 1.0)
        assert len(clips) == 4
        assert clips[0].start == pytest.approx(2.0)
        assert clips[-1].end == pytest.approx(5.5)
        for before, after in zip(clips, clips[1:]):
            assert after.start == pytest.approx(before.end)

    def test_watch_clamped_to_video(self):
        sampler = ClipSampler()
        clips = sampler.consecutive_clips(video(duration=3.0), -1.0, 10.0, 1.0)
        assert clips[0].start == 0.0
        assert clips[-1].end == pytest.approx(3.0)

    def test_watch_empty_window_rejected(self):
        sampler = ClipSampler()
        with pytest.raises(InvalidClipError):
            sampler.consecutive_clips(video(duration=3.0), 5.0, 6.0, 1.0)

    def test_watch_invalid_duration_rejected(self):
        sampler = ClipSampler()
        with pytest.raises(InvalidClipError):
            sampler.consecutive_clips(video(), 0.0, 1.0, 0.0)
