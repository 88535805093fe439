"""Property tests for durable checkpoint/resume.

Three properties from the issue:

* **Resumed == uninterrupted** — interrupting a seeded run and resuming it
  from the last checkpoint reproduces the uninterrupted run bit-identically
  on the simulated engine: labels, model parameters, per-iteration latency
  records, and summaries.
* **Snapshot + journal tail == whole state** — restoring the snapshot and
  replaying the journal tail reproduces the live stores exactly.
* **Replay idempotence** — applying the same journal twice is a no-op; every
  record is keyed by its store's revision/epoch/version counter.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import CheckpointError
from repro.experiments.runner import RunnerConfig, SessionRunner
from repro.index import ExactIndex
from repro.serving import session_fingerprint as state_digest
from repro.storage.durability import replay_records
from repro.storage.durability.journal import read_journal
from repro.storage.storage_manager import StorageManager

from harness import micro_dataset


@pytest.fixture(scope="module")
def dataset():
    return micro_dataset()


def run_config(checkpoint_dir=None, **overrides):
    base = dict(
        num_steps=6,
        batch_size=3,
        strategy="serial",
        candidate_features=("r3d", "mvit"),
        evaluate_every=6,
        seed=3,
    )
    base.update(overrides)
    if checkpoint_dir is not None:
        base.setdefault("checkpoint_every", 2)
        base["checkpoint_dir"] = str(checkpoint_dir)
    return RunnerConfig(**base)


def session_fingerprint(session):
    """Everything the equivalence property compares, bit-exact."""
    labels = [(l.vid, l.start, l.end, l.label) for l in session.storage.labels.all()]
    models = {}
    for feature in session.storage.models.features_with_models():
        model, info = session.models.latest_model(feature)
        models[feature] = (info.version, info.num_labels, model.get_parameters())
    records = [
        (r.iteration, r.visible_latency, r.background_time_used, r.background_idle_time)
        for r in session.scheduler.iteration_records()
    ]
    summaries = [
        (s.iteration, s.acquisition, s.feature_name, s.num_labels_total, s.visible_latency)
        for s in session.summaries()
    ]
    return labels, models, records, summaries, session.cumulative_visible_latency()


def assert_fingerprints_equal(expected, actual):
    assert actual[0] == expected[0]  # labels
    assert actual[1].keys() == expected[1].keys()
    for feature, (version, num_labels, params) in expected[1].items():
        r_version, r_num_labels, r_params = actual[1][feature]
        assert (r_version, r_num_labels) == (version, num_labels)
        assert np.array_equal(r_params, params)  # bit-identical model
    assert actual[2] == expected[2]  # latency records, float-exact
    assert actual[3] == expected[3]  # summaries
    assert actual[4] == expected[4]  # cumulative visible latency


class TestResumedEqualsUninterrupted:
    @pytest.mark.parametrize("strategy", ["serial", "ve-full"])
    def test_interrupt_and_resume_is_bit_identical(self, dataset, tmp_path, strategy):
        baseline = SessionRunner(dataset, run_config(strategy=strategy))
        baseline.run()
        expected = session_fingerprint(baseline.vocal.session)
        baseline.close()

        interrupted = SessionRunner(
            dataset, run_config(tmp_path / "ckpt", strategy=strategy)
        )
        interrupted.run(num_steps=5)  # dies after step 5; last checkpoint at 4

        resumed = SessionRunner(
            dataset, run_config(tmp_path / "ckpt", strategy=strategy, resume=True)
        )
        assert resumed.recovery.generation == 2
        assert resumed.recovery.resumed_iteration == 4
        # Step 5's labels were durable in the journal tail (one commit per
        # add_labels batch) even though the resumed run re-derives them.
        assert len(resumed.recovery.tail_labels) == 3
        resumed.run()
        assert_fingerprints_equal(expected, session_fingerprint(resumed.vocal.session))
        resumed.close()

    def test_checkpointing_does_not_change_the_run(self, dataset, tmp_path):
        """Durability must be an observer: same trajectory with journaling on."""
        plain = SessionRunner(dataset, run_config())
        plain.run()
        expected = session_fingerprint(plain.vocal.session)
        plain.close()

        durable = SessionRunner(dataset, run_config(tmp_path / "ckpt"))
        durable.run()
        assert_fingerprints_equal(expected, session_fingerprint(durable.vocal.session))
        durable.close()

    def test_resume_restores_training_caches_bit_exactly(self, dataset, tmp_path):
        """The warm-start design cache must survive: its running column sums
        accumulate in iteration order, so a rebuild would differ in ulps."""
        interrupted = SessionRunner(dataset, run_config(tmp_path / "ckpt"))
        interrupted.run(num_steps=4)
        expected_cache = {
            fid: (
                entry.label_revision,
                entry.feature_epoch,
                entry.matrix.copy(),
                entry.column_sum.copy(),
                entry.column_sumsq.copy(),
            )
            for fid, entry in interrupted.vocal.session.models._design_cache.items()
        }
        assert expected_cache, "workload must exercise the design cache"

        resumed = SessionRunner(dataset, run_config(tmp_path / "ckpt", resume=True))
        restored = resumed.vocal.session.models._design_cache
        assert restored.keys() == expected_cache.keys()
        for fid, (revision, epoch, matrix, sums, sumsq) in expected_cache.items():
            entry = restored[fid]
            assert (entry.label_revision, entry.feature_epoch) == (revision, epoch)
            assert np.array_equal(entry.matrix, matrix)
            assert np.array_equal(entry.column_sum, sums)
            assert np.array_equal(entry.column_sumsq, sumsq)
        resumed.close()
        interrupted.close()


class TestSnapshotPlusTail:
    def test_snapshot_plus_tail_equals_live_state(self, dataset, tmp_path):
        live = SessionRunner(dataset, run_config(tmp_path / "ckpt"))
        live.run()  # 6 steps; checkpoints at 2/4/6... last checkpoint at 6
        live_session = live.vocal.session

        # Make the tail non-trivial: durable writes after the last snapshot.
        result = live.vocal.explore()
        for segment in result.segments:
            live.vocal.add_label(segment.vid, segment.start, segment.end, "a")
        live.vocal.finish_iteration()

        expected_labels = [(l.vid, l.start, l.end, l.label) for l in live_session.storage.labels.all()]
        expected_features = {
            fid: live_session.storage.features.columns(fid)[3].copy()
            for fid in live_session.storage.features.extractors()
        }
        expected_epochs = {
            fid: live_session.storage.features.epoch(fid)
            for fid in live_session.storage.features.extractors()
        }
        expected_models = {
            feature: live_session.models.latest_model(feature)[0].get_parameters()
            for feature in live_session.storage.models.features_with_models()
        }
        # close() commits the staged tail (model registrations and feature
        # rows written during finish_iteration ride with the next commit).
        live.close()

        recovered = SessionRunner(dataset, run_config(tmp_path / "ckpt", resume=True))
        storage = recovered.vocal.session.storage
        stats = replay_records(storage, recovered.recovery.tail_records)
        assert stats.labels_applied == len(recovered.recovery.tail_labels)

        assert [
            (l.vid, l.start, l.end, l.label) for l in storage.labels.all()
        ] == expected_labels
        assert set(storage.features.extractors()) == set(expected_features)
        for fid, vectors in expected_features.items():
            assert np.array_equal(storage.features.columns(fid)[3], vectors)
            assert storage.features.epoch(fid) == expected_epochs[fid]
        for feature, params in expected_models.items():
            restored_model, __ = recovered.vocal.session.models.latest_model(feature)
            assert np.array_equal(restored_model.get_parameters(), params)
        recovered.close()

    def test_resume_before_first_checkpoint_reports_whole_journal(self, dataset, tmp_path):
        first = SessionRunner(
            dataset, run_config(tmp_path / "ckpt", num_steps=2, checkpoint_every=0)
        )
        first.run()
        total_labels = len(first.vocal.session.storage.labels)
        assert total_labels > 0

        resumed = SessionRunner(
            dataset, run_config(tmp_path / "ckpt", num_steps=2, checkpoint_every=0, resume=True)
        )
        assert resumed.recovery.generation == 0
        assert resumed.recovery.resumed_iteration == 0
        assert len(resumed.recovery.tail_labels) == total_labels
        # Nothing acknowledged is lost: the tail rebuilds every store write.
        storage = resumed.vocal.session.storage
        replay_records(storage, resumed.recovery.tail_records)
        assert len(storage.labels) == total_labels
        resumed.close()
        first.close()


#: Record types a checkpointed session journals; the index backend is
#: configuration, so no index record is ever written.
STORE_RECORD_TYPES = {"label", "video", "features", "model", "iteration"}

#: Journal records of index choices as older versions wrote them.
OLD_INDEX_RECORDS = [
    {"type": "index_attach", "fid": "r3d", "backend": "lsh", "params": {}},
    {"type": "index_attach", "fid": "clip", "backend": "ivf-flat", "params": {"nprobe": 2}},
    {"type": "index_sync", "fid": "r3d", "backend": "lsh", "rows": 12},
]


def write_like_older_versions(monkeypatch):
    """Make a run write the index records and snapshot keys older versions did."""
    from repro.core import checkpoint
    from repro.storage.feature_store import FeatureStore

    capture = checkpoint._capture_features_meta

    def capture_with_specs(session):
        meta = capture(session)
        meta["index_specs"] = {"r3d": ["lsh", {}]}
        meta["pending_index"] = {"clip": ["ivf-flat", {"nprobe": 2}]}
        return meta

    add_batch = FeatureStore.add_batch

    def add_batch_with_index_records(self, fid, *columns):
        fresh = add_batch(self, fid, *columns)
        if fresh and self.journal_sink is not None:
            for record in OLD_INDEX_RECORDS:
                self.journal_sink(dict(record))
        return fresh

    monkeypatch.setattr(checkpoint, "_capture_features_meta", capture_with_specs)
    monkeypatch.setattr(FeatureStore, "add_batch", add_batch_with_index_records)


class TestIndexChoiceIsConfiguration:
    def test_searching_session_journals_only_store_records(self, dataset, tmp_path):
        # No automatic checkpoints: every record stays in generation 0's
        # journal, so the whole committed stream can be read back.
        runner = SessionRunner(dataset, run_config(tmp_path / "ckpt", checkpoint_every=0))
        for step in range(1, 7):
            runner.run(num_steps=step)
            assert len(runner.vocal.search((0, 0.0, 1.0), k=3)) == 3
        durability = runner.vocal.session.durability
        durability.commit()
        records = read_journal(tmp_path / "ckpt" / "journal-00000000.log").records
        seen = {record["type"] for record in records}
        assert seen <= STORE_RECORD_TYPES
        assert {"label", "features", "model", "iteration"} <= seen

        generation = runner.vocal.checkpoint()
        state = json.loads((durability.snapshot_path(generation) / "state.json").read_text())
        assert set(state["features"]) == {"epochs", "shards"}
        runner.close()

    @pytest.mark.parametrize("fid", ["r3d", "clip"])  # a stored shard, a pending spec
    def test_snapshot_naming_lsh_resumes_with_configured_backend(
        self, dataset, tmp_path, monkeypatch, fid
    ):
        from repro.core import checkpoint

        capture = checkpoint._capture_features_meta

        def capture_with_lsh(session):
            # Older versions kept a spec for a stored shard under
            # "index_specs" and for an extractor with no shard yet under
            # "pending_index".
            meta = capture(session)
            stored = fid in session.storage.features.extractors()
            meta["index_specs"] = {fid: ["lsh", {}]} if stored else {}
            meta["pending_index"] = {} if stored else {fid: ["lsh", {}]}
            return meta

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "_capture_features_meta", capture_with_lsh)
            live = SessionRunner(dataset, run_config(tmp_path / "ckpt", num_steps=2))
            live.run()
            live.vocal.checkpoint()
            live.close()

        resumed = SessionRunner(dataset, run_config(tmp_path / "ckpt", resume=True))
        hits = resumed.vocal.search((0, 0.0, 1.0), k=3, feature_name=fid)
        assert len(hits) == 3
        session = resumed.vocal.session
        shard = session.storage.features._shards[fid]
        assert type(shard._vindex) is ExactIndex
        assert shard._vindex_built_from == (session.config.index, session.config.seed)
        resumed.close()

    def test_old_index_records_replay_as_skipped(self):
        storage = StorageManager()
        stats = replay_records(storage, OLD_INDEX_RECORDS)
        assert stats.skipped == len(OLD_INDEX_RECORDS)
        assert stats.feature_rows_applied == stats.labels_applied == 0
        assert storage.features.extractors() == []

    def test_old_snapshot_and_journal_resume_bit_identically(
        self, dataset, tmp_path, monkeypatch
    ):
        baseline = SessionRunner(dataset, run_config())
        baseline.run()
        expected = session_fingerprint(baseline.vocal.session)
        expected_state = state_digest(baseline.vocal)
        baseline.close()

        with monkeypatch.context() as patch:
            write_like_older_versions(patch)
            interrupted = SessionRunner(dataset, run_config(tmp_path / "ckpt"))
            interrupted.run(num_steps=5)  # dies after step 5; last checkpoint at 4
        state = json.loads(
            (tmp_path / "ckpt" / "snapshot-00000002" / "state.json").read_text()
        )
        assert state["features"]["index_specs"] == {"r3d": ["lsh", {}]}

        resumed = SessionRunner(dataset, run_config(tmp_path / "ckpt", resume=True))
        tail = resumed.recovery.tail_records
        old = [r for r in tail if r["type"] in ("index_attach", "index_sync")]
        assert old, "the journal tail must carry the old index records"
        assert replay_records(StorageManager(), tail).skipped == len(old)
        resumed.run()
        assert_fingerprints_equal(expected, session_fingerprint(resumed.vocal.session))
        assert state_digest(resumed.vocal) == expected_state

        # The next search builds the index the session's config names.
        session = resumed.vocal.session
        feature = session.alm.current_feature()
        resumed.vocal.search((0, 0.0, 1.0), k=3, feature_name=feature)
        shard = session.storage.features._shards[feature]
        assert type(shard._vindex) is ExactIndex
        assert shard._vindex_built_from == (session.config.index, session.config.seed)
        resumed.close()
        interrupted.close()


class TestReplayIdempotence:
    def test_second_replay_is_a_no_op(self, dataset, tmp_path):
        live = SessionRunner(
            dataset, run_config(tmp_path / "ckpt", num_steps=3, checkpoint_every=2)
        )
        live.run()
        live.close()

        resumed = SessionRunner(dataset, run_config(tmp_path / "ckpt", resume=True))
        storage = resumed.vocal.session.storage
        tail = resumed.recovery.tail_records
        first = replay_records(storage, tail)
        applied = (
            first.labels_applied + first.feature_rows_applied + first.models_applied
        )
        assert applied > 0
        labels_before = [(l.vid, l.start, l.end, l.label) for l in storage.labels.all()]
        epochs_before = {
            fid: storage.features.epoch(fid) for fid in storage.features.extractors()
        }

        second = replay_records(storage, tail)
        assert second.labels_applied == 0
        assert second.feature_rows_applied == 0
        assert second.models_applied == 0
        assert [(l.vid, l.start, l.end, l.label) for l in storage.labels.all()] == labels_before
        assert {
            fid: storage.features.epoch(fid) for fid in storage.features.extractors()
        } == epochs_before
        resumed.close()


class TestCheckpointGuards:
    def test_checkpoint_requires_configuration(self, dataset):
        runner = SessionRunner(dataset, run_config())
        with pytest.raises(CheckpointError, match="not enabled"):
            runner.vocal.checkpoint()
        with pytest.raises(CheckpointError, match="not enabled"):
            runner.vocal.resume()
        runner.close()

    def test_checkpoint_requires_closed_iteration(self, dataset, tmp_path):
        runner = SessionRunner(dataset, run_config(tmp_path / "ckpt"))
        runner.vocal.explore()
        with pytest.raises(CheckpointError, match="closed iteration"):
            runner.vocal.checkpoint()
        runner.vocal.finish_iteration()
        runner.close()

    def test_checkpoint_requires_simulated_engine(self, dataset, tmp_path):
        runner = SessionRunner(
            dataset,
            run_config(
                tmp_path / "ckpt",
                engine="threads",
                num_workers=2,
                time_scale=1e-4,
                checkpoint_every=0,  # journaling alone is engine-agnostic
            ),
        )
        with pytest.raises(CheckpointError, match="simulated engine"):
            runner.vocal.checkpoint()
        runner.close()

    def test_auto_checkpoint_on_threads_engine_rejected_at_construction(
        self, dataset, tmp_path
    ):
        with pytest.raises(ValueError, match="simulated engine"):
            SessionRunner(
                dataset,
                run_config(
                    tmp_path / "ckpt", engine="threads", num_workers=2, time_scale=1e-4
                ),
            )

    def test_resume_with_wrong_seed_is_rejected(self, dataset, tmp_path):
        first = SessionRunner(dataset, run_config(tmp_path / "ckpt", num_steps=2))
        first.run()
        first.close()
        with pytest.raises(CheckpointError, match="seed"):
            SessionRunner(dataset, run_config(tmp_path / "ckpt", resume=True, seed=4))
