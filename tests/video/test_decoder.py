"""Tests for the simulated video decoder."""

import numpy as np
import pytest

from repro.exceptions import InvalidClipError
from repro.types import ClipSpec
from repro.video.activity import ActivitySegment, ActivityTrack
from repro.video.corpus import VideoCorpus
from repro.video.decoder import Decoder


@pytest.fixture
def corpus():
    corpus = VideoCorpus(["a", "b"], latent_dim=32, seed=2)
    corpus.add_video(ActivityTrack(10.0, [ActivitySegment(0.0, 10.0, "a")]))
    corpus.add_video(ActivityTrack(4.0, [ActivitySegment(0.0, 4.0, "b")]), fps=20.0)
    return corpus


@pytest.fixture
def decoder(corpus):
    return Decoder(corpus)


class TestDecode:
    def test_frame_count_matches_fps_and_duration(self, decoder):
        decoded = decoder.decode(ClipSpec(0, 0.0, 2.0))
        assert decoded.num_frames == 60
        assert decoded.frames.shape == (60, 32)
        assert decoded.fps == 30.0

    def test_decode_uses_video_fps(self, decoder):
        decoded = decoder.decode(ClipSpec(1, 0.0, 1.0))
        assert decoded.num_frames == 20
        assert decoded.fps == 20.0

    def test_decode_clamps_end_to_duration(self, decoder):
        decoded = decoder.decode(ClipSpec(1, 3.0, 9.0))
        assert decoded.clip.end == pytest.approx(4.0)
        assert decoded.num_frames == 20

    def test_decode_beyond_video_rejected(self, decoder):
        with pytest.raises(InvalidClipError):
            decoder.decode(ClipSpec(1, 4.5, 5.0))

    def test_decode_is_deterministic(self, decoder):
        clip = ClipSpec(0, 1.0, 2.0)
        np.testing.assert_allclose(decoder.decode(clip).frames, decoder.decode(clip).frames)

    def test_fps_override(self, decoder):
        decoded = decoder.decode(ClipSpec(0, 0.0, 1.0), fps=10.0)
        assert decoded.num_frames == 10

    def test_minimum_one_frame(self, decoder):
        decoded = decoder.decode(ClipSpec(0, 0.0, 0.01))
        assert decoded.num_frames == 1

    def test_corpus_property(self, decoder, corpus):
        assert decoder.corpus is corpus


class TestDecodeBatch:
    @pytest.mark.parametrize("size", [3, 20])  # below and above MIN_VECTORIZED_BATCH
    def test_batch_matches_per_clip_decode(self, decoder, size):
        clips = [
            ClipSpec(0, 0.0, 2.0),
            ClipSpec(1, 3.0, 9.0),  # clamped, 20 fps
            ClipSpec(0, 0.0, 0.01),  # one frame
            ClipSpec(0, 0.0, 2.0),  # duplicate
        ] + [ClipSpec(i % 2, 0.1 * i, 0.1 * i + 1.0) for i in range(16)]
        clips = clips[:size]
        for fps in (None, 10.0):
            batch = decoder.decode_batch(clips, fps=fps)
            assert len(batch) == len(clips)
            for clip, decoded in zip(clips, batch):
                expected = decoder.decode(clip, fps=fps)
                assert decoded.clip == expected.clip
                assert decoded.fps == expected.fps
                assert np.array_equal(decoded.frames, expected.frames)

    def test_batch_frames_are_separate_arrays(self, decoder):
        batch = decoder.decode_batch([ClipSpec(0, 0.1 * i, 0.1 * i + 1.0) for i in range(10)])
        assert not any(np.shares_memory(batch[0].frames, d.frames) for d in batch[1:])

    def test_empty_batch(self, decoder):
        assert decoder.decode_batch([]) == []

    def test_batch_rejects_like_per_clip(self, decoder):
        good = [ClipSpec(0, 0.1 * i, 0.1 * i + 1.0) for i in range(10)]
        with pytest.raises(InvalidClipError):
            decoder.decode_batch(good + [ClipSpec(1, 4.5, 5.0)])
        with pytest.raises(InvalidClipError):
            decoder.decode_batch([ClipSpec(1, 4.5, 5.0)])


class TestDecodedClipHelpers:
    def test_middle_frame(self, decoder):
        decoded = decoder.decode(ClipSpec(0, 0.0, 1.0))
        np.testing.assert_allclose(decoded.middle_frame(), decoded.frames[decoded.num_frames // 2])

    def test_strided_frames(self, decoder):
        decoded = decoder.decode(ClipSpec(0, 0.0, 1.0))
        assert decoded.strided_frames(2).shape[0] == 15
        with pytest.raises(InvalidClipError):
            decoded.strided_frames(0)
