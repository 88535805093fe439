"""Tests for the similarity-search workload: session/VOCALExplore.search + CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.config import IndexConfig, VocalExploreConfig
from repro.core.api import VOCALExplore
from repro.core.session import SearchHit
from repro.exceptions import ReproError
from repro.index import IVFFlatIndex
from repro.scheduler.tasks import TaskKind
from repro.types import ClipSpec


@pytest.fixture
def vocal(tiny_dataset):
    return VOCALExplore.for_corpus(
        tiny_dataset.train_corpus,
        vocabulary=tiny_dataset.class_names,
        feature_qualities=tiny_dataset.feature_qualities,
        config=VocalExploreConfig(seed=1),
    )


class TestSessionSearch:
    def test_clip_query_returns_k_hits(self, vocal):
        hits = vocal.search((0, 0.0, 1.0), k=5)
        assert len(hits) == 5
        assert all(isinstance(hit, SearchHit) for hit in hits)
        distances = [hit.distance for hit in hits]
        assert distances == sorted(distances)

    def test_clipspec_query_accepted(self, vocal):
        hits = vocal.search(ClipSpec(0, 0.0, 1.0), k=3)
        assert len(hits) == 3

    def test_query_clip_excluded_from_results(self, vocal):
        vocal.search((0, 0.0, 1.0), k=3)  # extracts the query's window
        store = vocal.session.storage.features
        feature = vocal.current_feature()
        resolved = store.resolve_clips(feature, [ClipSpec(0, 0.0, 1.0)])[0]
        hits = vocal.search((0, 0.0, 1.0), k=5)
        assert resolved not in [hit.clip for hit in hits]

    def test_vector_query(self, vocal):
        vocal.search((0, 0.0, 1.0), k=1)  # populate the pool
        feature = vocal.current_feature()
        clips, vectors = vocal.session.storage.features.all_vectors(feature)
        hits = vocal.search(vectors[4], k=1)
        # A stored vector's own clip is its nearest neighbour (not excluded
        # for raw-vector queries).
        assert hits[0].clip == clips[4]
        assert hits[0].distance == pytest.approx(0.0, abs=1e-9)

    def test_latency_charged_through_scheduler(self, vocal):
        vocal.search((0, 0.0, 1.0), k=4)
        scheduler = vocal.session.scheduler
        kinds = {task.kind for task in scheduler.completed_tasks()}
        assert TaskKind.VECTOR_SEARCH in kinds
        assert TaskKind.FEATURE_EXTRACTION in kinds  # pool + query extraction
        assert scheduler.cumulative_visible_latency() > 0.0

    def test_search_before_explore_then_explore_still_works(self, vocal):
        vocal.search((0, 0.0, 1.0), k=2)
        result = vocal.explore(batch_size=2, clip_duration=1.0)
        assert len(result.segments) == 2

    def test_search_after_finished_iteration_gets_own_record(self, vocal, tiny_dataset):
        from repro.core.oracle import OracleUser

        user = OracleUser(tiny_dataset.train_corpus, labeling_time=10.0)
        result = vocal.explore(batch_size=2, clip_duration=1.0)
        for segment in result.segments:
            vocal.add_label(segment.vid, segment.start, segment.end, user.label_for(segment.clip))
        summary = vocal.finish_iteration()
        finalised = vocal.session.scheduler.iteration_records()[-1]
        vocal.search((0, 0.0, 1.0), k=2)
        vocal.watch(0, 0.0, 2.0)
        # The finalised record must not absorb search/watch cost.
        assert finalised.visible_latency == pytest.approx(summary.visible_latency)
        assert "vector_search" not in finalised.visible_by_kind
        assert vocal.session.scheduler.iteration_records()[-1] is not finalised

    def test_three_element_list_is_a_vector_not_a_clip(self, tiny_dataset):
        # A 3-d feature space must not reinterpret [a, b, c] as (vid, start, end).
        config = VocalExploreConfig(seed=1)
        vocal = VOCALExplore.for_corpus(
            tiny_dataset.train_corpus,
            vocabulary=tiny_dataset.class_names,
            feature_qualities=tiny_dataset.feature_qualities,
            config=config,
        )
        vocal.search((0, 0.0, 1.0), k=1)  # populate pool (dim != 3 here)
        with pytest.raises(ReproError):
            # Treated as a raw 3-d vector: dimensionality mismatch, not a
            # silent clip lookup on video 0.
            vocal.search([0.0, 0.2, 0.9], k=1)

    def test_invalid_k_rejected(self, vocal):
        with pytest.raises(ReproError):
            vocal.search((0, 0.0, 1.0), k=0)

    def test_bad_vector_shape_rejected(self, vocal):
        with pytest.raises(ReproError):
            vocal.search(np.zeros((2, 2)), k=1)

    def test_ann_backend_selectable_via_config(self, tiny_dataset):
        config = VocalExploreConfig(seed=1).with_updates(
            index=IndexConfig(backend="ivf-flat", nprobe=4)
        )
        vocal = VOCALExplore.for_corpus(
            tiny_dataset.train_corpus,
            vocabulary=tiny_dataset.class_names,
            feature_qualities=tiny_dataset.feature_qualities,
            config=config,
        )
        hits = vocal.search((0, 0.0, 1.0), k=5)
        assert len(hits) == 5
        feature = vocal.current_feature()
        built = vocal.session.storage.features._shards[feature]._vindex
        assert type(built) is IVFFlatIndex
        assert (built.nprobe, built.seed) == (4, 1)

    def test_exact_and_ann_agree_on_top_hit(self, tiny_dataset):
        results = {}
        for backend in ("exact", "ivf-flat"):
            config = VocalExploreConfig(seed=1).with_updates(
                index=IndexConfig(backend=backend)
            )
            vocal = VOCALExplore.for_corpus(
                tiny_dataset.train_corpus,
                vocabulary=tiny_dataset.class_names,
                feature_qualities=tiny_dataset.feature_qualities,
                config=config,
            )
            results[backend] = vocal.search((0, 0.0, 1.0), k=10)
        exact_clips = {hit.clip for hit in results["exact"]}
        ann_clips = {hit.clip for hit in results["ivf-flat"]}
        assert len(exact_clips & ann_clips) >= 5  # decent agreement


class TestSearchCLI:
    def test_cli_search_end_to_end(self, capsys):
        code = cli_main(
            ["search", "--dataset", "deer", "--vid", "0", "--start", "0", "--end", "1",
             "-k", "3", "--backend", "exact", "--pool-videos", "10"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "rank" in output
        assert "visible latency charged" in output
        latency = float(output.rsplit("visible latency charged:", 1)[1].split("s")[0])
        assert latency > 0.0

    def test_cli_search_ann_backend(self, capsys):
        code = cli_main(
            ["search", "--dataset", "deer", "-k", "3", "--backend", "ivf-flat",
             "--pool-videos", "10"]
        )
        assert code == 0
        assert "ivf-flat index" in capsys.readouterr().out
