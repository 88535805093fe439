"""Integration tests: full exploration sessions across subsystem boundaries."""

import pytest

from repro.config import ALMConfig, SchedulerConfig, VocalExploreConfig
from repro.core.api import VOCALExplore
from repro.core.oracle import NoisyOracleUser, OracleUser
from repro.experiments.evaluation import ModelEvaluator


def run_session(vocal, oracle, steps, batch_size=5):
    for __ in range(steps):
        result = vocal.explore(batch_size=batch_size, clip_duration=1.0)
        for segment in result.segments:
            vocal.add_label(
                segment.vid, segment.start, segment.end, oracle.label_for(segment.clip)
            )
        vocal.finish_iteration()


class TestFullExplorationLoop:
    def test_model_quality_improves_with_labels(self, tiny_dataset):
        vocal = VOCALExplore.for_dataset(tiny_dataset, config=VocalExploreConfig(seed=0))
        oracle = OracleUser(tiny_dataset.train_corpus)
        evaluator = ModelEvaluator(tiny_dataset, seed=0)

        run_session(vocal, oracle, steps=2)
        early = evaluator.evaluate_manager(vocal.session.models, vocal.current_feature())
        run_session(vocal, oracle, steps=6)
        late = evaluator.evaluate_manager(vocal.session.models, vocal.current_feature())

        assert late >= early - 0.05
        assert late > 1.0 / len(tiny_dataset.class_names)

    def test_skewed_dataset_eventually_switches_to_active_learning(self, tiny_dataset):
        vocal = VOCALExplore.for_dataset(tiny_dataset, config=VocalExploreConfig(seed=2))
        oracle = OracleUser(tiny_dataset.train_corpus)
        run_session(vocal, oracle, steps=10)
        acquisitions = {summary.acquisition for summary in vocal.summaries()}
        assert "cluster-margin" in acquisitions or "coreset" in acquisitions

    def test_uniform_dataset_stays_random(self, uniform_dataset):
        vocal = VOCALExplore.for_dataset(uniform_dataset, config=VocalExploreConfig(seed=0))
        oracle = OracleUser(uniform_dataset.train_corpus)
        run_session(vocal, oracle, steps=8)
        acquisitions = [summary.acquisition for summary in vocal.summaries()]
        assert acquisitions.count("random") >= len(acquisitions) - 1

    def test_visible_latency_stays_interactive(self, tiny_dataset):
        vocal = VOCALExplore.for_dataset(tiny_dataset, config=VocalExploreConfig(seed=0))
        oracle = OracleUser(tiny_dataset.train_corpus)
        run_session(vocal, oracle, steps=8)
        latencies = [summary.visible_latency for summary in vocal.summaries()]
        # After the first couple of iterations the eager extraction makes the
        # visible latency small (the paper reports ~1 second per iteration).
        assert max(latencies[2:]) < 5.0

    def test_feature_candidates_shrink_over_time(self, tiny_dataset):
        config = VocalExploreConfig(seed=1).with_updates(
            feature_selection=__import__(
                "repro.config", fromlist=["FeatureSelectionConfig"]
            ).FeatureSelectionConfig(warmup_iterations=3, horizon=15),
        )
        vocal = VOCALExplore.for_dataset(tiny_dataset, config=config)
        oracle = OracleUser(tiny_dataset.train_corpus)
        run_session(vocal, oracle, steps=14)
        assert len(vocal.session.alm.candidate_features()) < 5

    def test_noisy_labels_still_produce_model(self, tiny_dataset):
        vocal = VOCALExplore.for_dataset(tiny_dataset, config=VocalExploreConfig(seed=0))
        oracle = NoisyOracleUser(tiny_dataset.train_corpus, noise_rate=0.2, seed=0)
        evaluator = ModelEvaluator(tiny_dataset, seed=0)
        run_session(vocal, oracle, steps=6)
        f1 = evaluator.evaluate_manager(vocal.session.models, vocal.current_feature())
        assert f1 > 0.0

    def test_targeted_exploration_returns_segments(self, tiny_dataset):
        vocal = VOCALExplore.for_dataset(tiny_dataset, config=VocalExploreConfig(seed=0))
        oracle = OracleUser(tiny_dataset.train_corpus)
        run_session(vocal, oracle, steps=4)
        result = vocal.explore(batch_size=3, clip_duration=1.0, label="c")
        assert len(result.segments) == 3
        for segment in result.segments:
            vocal.add_label(
                segment.vid, segment.start, segment.end, oracle.label_for(segment.clip)
            )
        vocal.finish_iteration()


class TestWorkspacePersistence:
    def test_session_state_survives_save_and_load(self, tiny_dataset, tmp_path):
        """Checkpoint, then resume into a fresh session: the stores come back."""

        def build():
            config = VocalExploreConfig(
                scheduler=SchedulerConfig(checkpoint_dir=str(tmp_path)), seed=0
            )
            return VOCALExplore.for_dataset(tiny_dataset, config=config)

        vocal = build()
        oracle = OracleUser(tiny_dataset.train_corpus)
        run_session(vocal, oracle, steps=3)
        vocal.checkpoint()
        storage = vocal.session.storage

        restored_vocal = build()
        restored_vocal.resume()
        restored = restored_vocal.session.storage
        assert restored.videos.all() == storage.videos.all()
        assert restored.labels.all() == storage.labels.all()
        assert restored.labels.class_counts() == storage.labels.class_counts()
        for fid in storage.features.extractors():
            assert restored.features.count(fid) == storage.features.count(fid)


class TestSerialVsOptimizedQuality:
    def test_optimized_schedule_keeps_quality_close_to_serial(self, tiny_dataset):
        oracle = OracleUser(tiny_dataset.train_corpus)
        evaluator = ModelEvaluator(tiny_dataset, seed=0)
        scores = {}
        for strategy in ("serial", "ve-full"):
            config = VocalExploreConfig(
                alm=ALMConfig(candidate_pool_size=10),
                scheduler=SchedulerConfig(strategy=strategy),
                seed=3,
            )
            vocal = VOCALExplore.for_dataset(tiny_dataset, config=config)
            run_session(vocal, oracle, steps=6)
            scores[strategy] = evaluator.evaluate_manager(
                vocal.session.models, vocal.current_feature()
            )
        # The paper's epsilon: the optimized schedule loses little quality.
        assert scores["ve-full"] >= scores["serial"] - 0.25
