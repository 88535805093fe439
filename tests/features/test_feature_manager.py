"""Tests for the extraction pipeline and Feature Manager."""

import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import UnknownExtractorError
from repro.features.feature_manager import FeatureManager
from repro.features.pipeline import FeatureExtractionPipeline
from repro.features.pretrained import build_default_registry
from repro.storage.feature_store import FeatureStore
from repro.storage.video_store import VideoStore
from repro.types import ClipSpec
from repro.video.decoder import Decoder
from repro.video.sampler import ClipSampler

from tests.conftest import make_corpus


@pytest.fixture
def setup():
    corpus = make_corpus(num_videos=12)
    videos = VideoStore()
    videos.add_records(corpus.records())
    registry = build_default_registry(corpus.latent_dim, {"r3d": 0.5, "clip": 0.3}, seed=0)
    manager = FeatureManager(registry, Decoder(corpus), videos, FeatureStore(), ClipSampler())
    return corpus, videos, registry, manager


class TestPipeline:
    def test_run_extracts_one_vector_per_clip(self, setup):
        corpus, __, registry, manager = setup
        pipeline = FeatureExtractionPipeline(Decoder(corpus))
        clips = [ClipSpec(0, 0.0, 1.0), ClipSpec(1, 0.0, 1.0)]
        extracted, vectors = pipeline.run(registry.get("r3d"), clips)
        assert extracted == clips
        assert vectors.shape == (2, 512)

    def test_run_empty_batch_is_noop(self, setup):
        corpus, __, registry, __ = setup
        pipeline = FeatureExtractionPipeline(Decoder(corpus))
        extracted, vectors = pipeline.run(registry.get("r3d"), [])
        assert extracted == [] and vectors.shape == (0, 512)
        assert pipeline.stats.pipelines_created == 0

    def test_stats_accumulate(self, setup):
        corpus, __, registry, __ = setup
        pipeline = FeatureExtractionPipeline(Decoder(corpus))
        pipeline.run(registry.get("r3d"), [ClipSpec(0, 0.0, 1.0)])
        pipeline.run(registry.get("clip"), [ClipSpec(0, 0.0, 1.0), ClipSpec(1, 0.0, 1.0)])
        assert pipeline.stats.pipelines_created == 2
        assert pipeline.stats.clips_processed == 3
        assert pipeline.stats.clips_by_extractor == {"r3d": 1, "clip": 2}

    def test_batch_vectors_match_per_clip_path(self, setup):
        corpus, __, registry, __ = setup
        decoder = Decoder(corpus)
        pipeline = FeatureExtractionPipeline(decoder)
        clips = [ClipSpec(v, 2.0, 3.0) for v in (4, 0, 4)] + [ClipSpec(1, 9.8, 10.0)]
        for extractor in registry:
            extracted, matrix = pipeline.run(extractor, clips)
            assert extracted == [decoder.decode(clip).clip for clip in clips]
            assert matrix.shape == (len(clips), extractor.dim)
            for clip, row in zip(clips, matrix):
                assert np.array_equal(row, extractor.extract(decoder.decode(clip)))

    def test_next_batch_reuses_the_last_batch_frames(self, setup):
        corpus, __, registry, __ = setup
        decoded_clips = []

        class CountingDecoder(Decoder):
            def decode_batch(self, clips, fps=None):
                decoded_clips.extend(clips)
                return super().decode_batch(clips, fps)

        pipeline = FeatureExtractionPipeline(CountingDecoder(corpus))
        first = [ClipSpec(v, 0.0, 1.0) for v in range(4)]
        pipeline.run(registry.get("r3d"), first)
        assert decoded_clips == first
        second = first[2:] + [ClipSpec(5, 0.0, 1.0), ClipSpec(5, 0.0, 1.0)]
        __, vectors = pipeline.run(registry.get("clip"), second)
        assert decoded_clips == first + [ClipSpec(5, 0.0, 1.0)]
        clip_extractor = registry.get("clip")
        for clip, row in zip(second, vectors):
            assert np.array_equal(row, clip_extractor.extract(Decoder(corpus).decode(clip)))
        # Only the last batch is kept: the first batch's clips decode again.
        pipeline.run(registry.get("r3d"), first[:1])
        assert decoded_clips[-1] == first[0]

    def test_concurrent_runs_on_one_pipeline_return_per_clip_bytes(self, setup):
        # Unlocked callers race on the last-chunk memo; any frames one run
        # takes from another's chunk are the same bytes, so every result
        # still equals the per-clip path.
        corpus, __, registry, __ = setup
        decoder = Decoder(corpus)
        pipeline = FeatureExtractionPipeline(decoder)
        batches = [
            [ClipSpec(v, s, s + 1.0) for v in range(b, b + 6) for s in (0.0, 5.0)] for b in range(4)
        ]
        extractors = list(registry)
        expected = {
            (b, e.name): np.stack([e.extract(decoder.decode(c)) for c in batches[b]])
            for b in range(len(batches))
            for e in extractors
        }
        failures = []

        def work(worker):
            for step in range(12):
                b = (worker + step) % len(batches)
                extractor = extractors[(worker * 3 + step) % len(extractors)]
                __, got = pipeline.run(extractor, batches[b])
                if not np.array_equal(got, expected[(b, extractor.name)]):
                    failures.append((worker, step))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_large_batches_decode_in_chunks(self, setup, monkeypatch):
        corpus, __, registry, __ = setup
        monkeypatch.setattr(FeatureExtractionPipeline, "DECODE_CHUNK", 5)
        chunk_sizes = []

        class CountingDecoder(Decoder):
            def decode_batch(self, clips, fps=None):
                chunk_sizes.append(len(clips))
                return super().decode_batch(clips, fps)

        pipeline = FeatureExtractionPipeline(CountingDecoder(corpus))
        clips = [ClipSpec(v, 0.0, 1.0) for v in range(12)]
        extractor = registry.get("mvit")
        extracted, vectors = pipeline.run(extractor, clips)
        assert chunk_sizes == [5, 5, 2]
        assert extracted == clips
        expected = np.stack([extractor.extract(Decoder(corpus).decode(clip)) for clip in clips])
        assert np.array_equal(vectors, expected)
        assert pipeline.stats.pipelines_created == 1


class TestEnsureClipFeatures:
    def test_extracts_missing_clips(self, setup):
        __, __, __, manager = setup
        clips = [ClipSpec(0, 0.5, 1.5), ClipSpec(1, 2.0, 3.0)]
        report = manager.ensure_clip_features("r3d", clips)
        assert report.extracted_clips == 2
        assert report.videos_touched == 2
        assert manager.store.count("r3d") == 2

    def test_second_call_is_incremental(self, setup):
        __, __, __, manager = setup
        clips = [ClipSpec(0, 0.5, 1.5)]
        manager.ensure_clip_features("r3d", clips)
        report = manager.ensure_clip_features("r3d", clips)
        assert report.extracted_clips == 0
        assert report.skipped_clips == 1

    def test_nearby_clip_covered_by_existing_window(self, setup):
        __, __, __, manager = setup
        manager.ensure_clip_features("r3d", [ClipSpec(0, 0.2, 1.2)])
        count_before = manager.store.count("r3d")
        # A clip whose midpoint falls inside the already-extracted window.
        report = manager.ensure_clip_features("r3d", [ClipSpec(0, 0.4, 1.0)])
        assert report.extracted_clips == 0
        assert manager.store.count("r3d") == count_before


class TestEnsureVideoFeatures:
    def test_extracts_window_grid(self, setup):
        corpus, videos, __, manager = setup
        report = manager.ensure_video_features("r3d", [0, 1])
        windows_per_video = len(manager.sampler.feature_windows(videos.get(0)))
        assert report.videos_touched == 2
        assert manager.store.count("r3d") == 2 * windows_per_video

    def test_videos_with_features_skipped(self, setup):
        __, __, __, manager = setup
        manager.ensure_video_features("r3d", [0])
        report = manager.ensure_video_features("r3d", [0, 1])
        assert report.videos_touched == 1

    def test_extract_all_covers_whole_corpus(self, setup):
        corpus, __, __, manager = setup
        report = manager.extract_all("clip")
        assert report.videos_touched == len(corpus)
        assert set(manager.vids_with_features("clip")) == set(corpus.vids())


class TestAccess:
    def test_matrix_extracts_on_demand(self, setup):
        __, __, __, manager = setup
        clips = [ClipSpec(0, 0.0, 1.0), ClipSpec(2, 4.0, 5.0)]
        matrix = manager.matrix("r3d", clips)
        assert matrix.shape == (2, 512)
        assert np.all(np.isfinite(matrix))

    def test_candidate_pool_returns_all_vectors(self, setup):
        __, __, __, manager = setup
        manager.ensure_video_features("r3d", [0, 1, 2])
        vids, __, __, matrix = manager.candidate_pool_columns("r3d")
        assert len(vids) == matrix.shape[0] == manager.store.count("r3d")
        assert set(vids.tolist()) == {0, 1, 2}

    def test_get_many_matches_per_clip_get(self, setup):
        __, __, __, manager = setup
        manager.ensure_video_features("r3d", [0, 1])
        clips, __ = manager.store.all_vectors("r3d")
        assert {clip.vid for clip in clips} == {0, 1}
        batched = manager.get_many("r3d", clips)
        assert batched.shape == (len(clips), 512)
        for row, clip in zip(batched, clips):
            np.testing.assert_array_equal(row, manager.store.get("r3d", clip))

    def test_has_many_masks_extracted_clips(self, setup):
        __, __, __, manager = setup
        stored = ClipSpec(0, 0.0, 1.0)
        manager.ensure_clip_features("r3d", [stored])
        window = manager.store.all_vectors("r3d")[0][0]
        assert window.vid == 0
        mask = manager.has_many("r3d", [window, ClipSpec(5, 0.0, 1.0)])
        assert mask.tolist() == [True, False]

    def test_candidate_pool_columns_align_with_pool(self, setup):
        __, __, __, manager = setup
        manager.ensure_video_features("r3d", [0, 1])
        clips, matrix = manager.store.all_vectors("r3d")
        vids, starts, ends, vectors = manager.candidate_pool_columns("r3d")
        assert list(vids) == [c.vid for c in clips]
        assert list(starts) == [c.start for c in clips]
        assert list(ends) == [c.end for c in clips]
        np.testing.assert_array_equal(vectors, matrix)

    def test_candidate_pool_columns_unknown_extractor_is_empty(self, setup):
        __, __, __, manager = setup
        vids, starts, ends, vectors = manager.candidate_pool_columns("r3d")
        assert len(vids) == len(starts) == len(ends) == 0
        assert vectors.shape == (0, 0)

    def test_extractor_names(self, setup):
        __, __, registry, manager = setup
        assert "r3d" in manager.registry.names()
        assert manager.registry.names() == registry.names()

    def test_extractor_lookup(self, setup):
        __, __, __, manager = setup
        assert manager.extractor("r3d").name == "r3d"
        with pytest.raises(UnknownExtractorError):
            manager.extractor("no_such_extractor")

    def test_pipeline_stats_exposed(self, setup):
        # Pipeline activity is published through the run's telemetry counters.
        __, __, __, manager = setup
        run = telemetry.start_run()
        try:
            manager.ensure_video_features("r3d", [0])
            counters = run.metrics.snapshot()["counters"]
        finally:
            run.close()
        assert counters["features.pipelines_created"] >= 1
        assert counters["features.clips_processed"] >= 1
