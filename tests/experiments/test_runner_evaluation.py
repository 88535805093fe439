"""Tests for the experiment runner, evaluator, and reporting helpers."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.evaluation import ModelEvaluator
from repro.experiments.reporting import format_series, format_table, summarize_series
from repro.experiments.runner import RunnerConfig, SessionRunner


class TestReporting:
    def test_format_table_alignment_and_values(self):
        rows = [
            {"method": "random", "f1": 0.51234, "latency": 3},
            {"method": "ve-full", "f1": 0.6, "latency": None},
        ]
        text = format_table(rows, precision=2)
        assert "method" in text and "ve-full" in text
        assert "0.51" in text
        assert "-" in text  # None rendered as a dash

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_respects_column_order(self):
        rows = [{"b": 1, "a": 2}]
        text = format_table(rows, columns=["a", "b"])
        header = text.splitlines()[0]
        assert header.index("a") < header.index("b")

    def test_format_series(self):
        text = format_series({"f1": [0.1, 0.2, 0.3]}, every=1)
        assert "step" in text
        assert "0.300" in text

    def test_format_series_unequal_lengths(self):
        text = format_series({"a": [0.1, 0.2], "b": [0.3]}, every=1)
        assert "-" in text

    def test_summarize_series(self):
        summary = summarize_series([0.1, 0.5, 0.3])
        assert summary["min"] == pytest.approx(0.1)
        assert summary["max"] == pytest.approx(0.5)
        assert summary["final"] == pytest.approx(0.3)
        assert summarize_series([]) == {"mean": 0.0, "min": 0.0, "max": 0.0, "final": 0.0}


class TestModelEvaluator:
    def test_eval_features_cached_and_shaped(self, tiny_dataset):
        evaluator = ModelEvaluator(tiny_dataset, seed=0)
        features = evaluator.eval_features("r3d")
        assert features.shape == (evaluator.num_examples, 512)
        assert evaluator.eval_features("r3d") is features  # cache hit

    def test_eval_features_match_per_clip_extraction(self, tiny_dataset):
        import numpy as np

        from repro.video.decoder import Decoder

        evaluator = ModelEvaluator(tiny_dataset, seed=0)
        clips, __ = tiny_dataset.eval_examples()
        decoder = Decoder(tiny_dataset.eval_corpus)
        for name in ("clip_pooled", "concat"):
            extractor = evaluator._registry.get(name)
            expected = np.stack([extractor.extract(decoder.decode(clip)) for clip in clips])
            assert np.array_equal(evaluator.eval_features(name), expected)

    def test_evaluate_manager_without_model_is_zero(self, tiny_dataset, vocal_tiny):
        evaluator = ModelEvaluator(tiny_dataset, seed=0)
        assert evaluator.evaluate_manager(vocal_tiny.session.models, "r3d") == 0.0

class TestSessionRunner:
    def test_run_produces_step_metrics(self, tiny_dataset):
        runner = SessionRunner(tiny_dataset, RunnerConfig(num_steps=4, batch_size=4, seed=0))
        result = runner.run()
        assert len(result.steps) == 4
        assert result.steps[-1].num_labels == 16
        assert all(step.visible_latency >= 0 for step in result.steps)
        assert result.final_f1 == result.steps[-1].f1
        # Cumulative latency is non-decreasing.
        latencies = [step.cumulative_visible_latency for step in result.steps]
        assert latencies == sorted(latencies)

    def test_invalid_steps_rejected(self, tiny_dataset):
        runner = SessionRunner(tiny_dataset, RunnerConfig(num_steps=3))
        with pytest.raises(ExperimentError):
            runner.run(num_steps=0)

    def test_force_feature_restricts_candidates(self, tiny_dataset):
        runner = SessionRunner(
            tiny_dataset, RunnerConfig(num_steps=2, force_feature="clip", seed=0)
        )
        result = runner.run()
        assert all(step.feature == "clip" for step in result.steps)
        assert runner.vocal.session.alm.candidate_features() == ["clip"]

    def test_force_random_acquisition(self, tiny_dataset):
        runner = SessionRunner(
            tiny_dataset,
            RunnerConfig(num_steps=3, force_acquisition="random", force_feature="r3d", seed=0),
        )
        result = runner.run()
        assert all(step.acquisition == "random" for step in result.steps)

    def test_preprocess_all_adds_latency(self, tiny_dataset):
        with_pp = SessionRunner(
            tiny_dataset,
            RunnerConfig(num_steps=2, preprocess_all=True, force_feature="r3d", seed=0),
        ).run()
        without_pp = SessionRunner(
            tiny_dataset,
            RunnerConfig(num_steps=2, preprocess_all=False, force_feature="r3d", seed=0),
        ).run()
        assert with_pp.preprocessing_latency > 0
        assert with_pp.cumulative_visible_latency > without_pp.cumulative_visible_latency

    def test_label_noise_uses_noisy_oracle(self, tiny_dataset):
        from repro.core.oracle import NoisyOracleUser

        runner = SessionRunner(tiny_dataset, RunnerConfig(num_steps=1, label_noise=0.2, seed=0))
        assert isinstance(runner.oracle, NoisyOracleUser)

    def test_mean_f1_last_n(self, tiny_dataset):
        result = SessionRunner(tiny_dataset, RunnerConfig(num_steps=3, seed=0)).run()
        assert result.mean_f1(last_n=1) == pytest.approx(result.final_f1)
        assert 0.0 <= result.mean_f1() <= 1.0

    def test_serial_strategy_has_higher_latency(self, tiny_dataset):
        serial = SessionRunner(
            tiny_dataset, RunnerConfig(num_steps=3, strategy="serial", seed=0)
        ).run()
        full = SessionRunner(
            tiny_dataset, RunnerConfig(num_steps=3, strategy="ve-full", seed=0)
        ).run()
        assert serial.cumulative_visible_latency > full.cumulative_visible_latency
