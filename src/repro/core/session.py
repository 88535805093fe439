"""Exploration session: the engine behind the VOCALExplore API.

The session wires the five managers together and implements one Explore
iteration end to end:

1. (active learning only, lazy strategies) grow the candidate feature pool,
2. select the clips the user should label (T_s),
3. extract any missing features for those clips (T_f),
4. attach predictions from the latest trained model (T_i),
5. collect the user's labels,
6. schedule model training (T_m) and feature evaluation (T_e) — synchronously
   for the serial strategy, just-in-time in the background otherwise — and,
   for VE-full, eagerly extract features from unlabeled videos (T_f-) while
   the user is busy labeling.

Every duration is charged against the simulated clock through the cost model,
so cumulative visible latency per strategy reproduces the paper's Figures 2
and 8 without requiring the authors' GPU testbed.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import telemetry
from ..alm.manager import ActiveLearningManager, SelectionResult
from ..config import VocalExploreConfig
from ..exceptions import CheckpointError, InsufficientLabelsError, ReproError
from ..features.feature_manager import FeatureManager
from ..models.model_manager import ModelManager
from ..scheduler.cost_model import CostModel
from ..scheduler.engine import build_engine
from ..scheduler.scheduler import TaskScheduler
from ..scheduler.strategies import StrategyBehaviour, strategy_behaviour
from ..scheduler.tasks import Task, TaskKind
from ..storage.durability.manager import CheckpointManager
from ..storage.storage_manager import StorageManager
from ..types import ClipSpec, Label, VideoSegment
from ..video.corpus import VideoCorpus
from ..video.sampler import ClipSampler
from . import checkpoint as _checkpoint

__all__ = [
    "ExploreResult",
    "IterationSummary",
    "SearchHit",
    "RecoveryReport",
    "ExplorationSession",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExploreResult:
    """What one Explore call returns to the user."""

    iteration: int
    segments: list[VideoSegment]
    acquisition: str
    feature_name: str | None
    visible_latency: float


@dataclass(frozen=True)
class SearchHit:
    """One similarity-search result: a stored clip and its distance to the query."""

    clip: ClipSpec
    #: Squared L2 distance in the feature space of the searched extractor.
    distance: float

    @property
    def vid(self) -> int:
        return self.clip.vid

    @property
    def start(self) -> float:
        return self.clip.start

    @property
    def end(self) -> float:
        return self.clip.end


@dataclass
class IterationSummary:
    """Bookkeeping for one completed labeling iteration."""

    iteration: int
    acquisition: str
    feature_name: str | None
    num_labels_total: int
    visible_latency: float
    background_time_used: float = 0.0
    skew_p_value: float | None = None
    used_active_learning: bool = False
    eliminated_features: list[str] = field(default_factory=list)
    candidate_features: list[str] = field(default_factory=list)
    smax: float = 0.0


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`ExplorationSession.resume` recovered.

    The session continues from ``resumed_iteration`` (the last durable
    checkpoint).  Writes journaled *after* that checkpoint were durable but
    belong to iterations the resumed run will re-execute, so they are
    surfaced here instead of silently applied: ``tail_labels`` holds every
    recovered label, and ``tail_records`` the raw journal tail (apply it to
    a plain workspace with ``repro.storage.durability.replay_records``).
    """

    #: Snapshot generation recovered (0 = no checkpoint existed yet).
    generation: int
    #: Iteration the session was restored to.
    resumed_iteration: int
    #: Journal records durable after the recovered checkpoint.
    tail_records: list[dict]
    #: Labels contained in the journal tail (durable but not re-applied).
    tail_labels: list[Label]
    #: Iterations whose boundary markers appear in the tail.
    tail_iterations: list[int]
    #: Bytes of torn journal tail truncated during recovery.
    truncated_bytes: int
    #: Newer snapshot generations rejected as invalid/corrupt.
    rejected_generations: list[int]
    #: Caller-supplied state stored at checkpoint time (oracle RNGs etc.).
    extra_state: dict | None = None


class ExplorationSession:
    """Drives one pay-as-you-go exploration workflow over a video corpus."""

    def __init__(
        self,
        corpus: VideoCorpus,
        storage: StorageManager,
        feature_manager: FeatureManager,
        model_manager: ModelManager,
        alm: ActiveLearningManager,
        config: VocalExploreConfig,
        cost_model: CostModel | None = None,
    ) -> None:
        self.corpus = corpus
        self.storage = storage
        self.features = feature_manager
        self.models = model_manager
        self.alm = alm
        self.config = config
        self.cost_model = cost_model if cost_model is not None else CostModel()

        engine = build_engine(
            config.scheduler.engine,
            num_workers=config.scheduler.num_workers,
            time_scale=config.scheduler.time_scale,
        )
        self.scheduler = TaskScheduler(engine=engine)
        self.clock = self.scheduler.clock
        shard_pool = engine.shard_executor()
        if shard_pool is not None:
            feature_manager.set_shard_executor(shard_pool)
        self.behaviour: StrategyBehaviour = strategy_behaviour(config.scheduler)
        self.sampler: ClipSampler = feature_manager.sampler

        #: Experiment overrides: force a fixed acquisition function
        #: ("random", "cluster-margin", "coreset") or a fixed feature extractor
        #: instead of VE-sample / VE-select.  None applies the paper's dynamic
        #: behaviour.
        self.force_acquisition: str | None = None
        self.force_feature: str | None = None

        self._iteration = 0
        self._iteration_open = False
        self._labels_at_iteration_start = 0
        self._last_selection: SelectionResult | None = None
        self._summaries: list[IterationSummary] = []
        self._round_scores: dict[str, float] = {}
        self._round_expected: set[str] = set()
        self._eager_cursor = 0
        self._eager_videos_done = 0
        # Videos handed to eager tasks that have not completed yet.  With the
        # thread-pool engine the factory is consulted while earlier eager
        # tasks are still running on other workers; without this set every
        # worker would be handed the same "fresh" batch.  Serial engines never
        # observe it non-empty at factory time (an unfinished eager task sits
        # in the queue and is popped before the factory is asked).
        self._eager_inflight: dict[str, set[int]] = {}
        self._eager_lock = threading.Lock()

        if self.behaviour.eager_extraction:
            self.scheduler.idle_task_factory = self._make_eager_task

        #: Durable checkpointing (``repro.storage.durability``): when a
        #: checkpoint directory is configured, every store write is journaled
        #: and a full snapshot is taken every ``checkpoint_every`` completed
        #: iterations.  ``extra_state_provider`` lets the driver persist its
        #: own small state (e.g. a noisy oracle's RNG) inside each checkpoint.
        self.durability: CheckpointManager | None = None
        self.extra_state_provider = None
        if config.scheduler.checkpoint_dir is not None:
            self.durability = CheckpointManager(config.scheduler.checkpoint_dir)
            storage.attach_journal(self.durability.journal_record)

        #: Telemetry run (``repro.telemetry``): activated when any
        #: ``TelemetryConfig`` field is set.  The session owns the run — it
        #: records one SLO verdict per finished iteration and closes the run
        #: (flushing trace files) in :meth:`close`.
        self.telemetry_run: telemetry.TelemetryRun | None = None
        self._iteration_span = None
        if config.telemetry.active:
            self.telemetry_run = telemetry.start_run(
                trace_dir=config.telemetry.trace_dir,
                slo_budget_s=config.telemetry.visible_latency_slo_s,
                label=f"explore-{config.scheduler.strategy}-{config.scheduler.engine}",
            )
            logger.info(
                "telemetry run started (trace_dir=%s, slo=%s)",
                config.telemetry.trace_dir,
                config.telemetry.visible_latency_slo_s,
            )

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release execution-engine resources (worker threads, if any).

        A no-op for the simulated engine; for the thread-pool engine it joins
        the worker and shard pools.  Safe to call more than once.  When
        durable checkpointing is on, pending journal records are committed
        before the journal handle is released.  Dropping the scheduler's
        idle-task factory (a bound method of this session) cuts the graph's
        only reference cycle, so a closed session is freed by reference
        counting alone.
        """
        self.scheduler.shutdown()
        self.scheduler.idle_task_factory = None
        if self.durability is not None:
            self.durability.commit()
            self.durability.close()
        if self.telemetry_run is not None:
            if self._iteration_span is not None:
                self._iteration_span.end()
                self._iteration_span = None
            self.telemetry_run.close()

    def _journal_commit(self) -> None:
        """Make journaled writes durable (no-op without checkpointing)."""
        if self.durability is not None:
            self.durability.commit()

    def __enter__(self) -> "ExplorationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- queries
    @property
    def iteration(self) -> int:
        """Number of Explore iterations started so far."""
        return self._iteration

    @property
    def iteration_open(self) -> bool:
        """True between an ``explore`` call and its ``finish_iteration``.

        Checkpoints require a closed iteration, so the serving layer's LRU
        evictor consults this before paging a session to disk.
        """
        return self._iteration_open

    def summaries(self) -> list[IterationSummary]:
        """Per-iteration bookkeeping collected so far."""
        return list(self._summaries)

    def cumulative_visible_latency(self) -> float:
        """Total user-visible latency accumulated so far."""
        return self.scheduler.cumulative_visible_latency()

    def slo_results(self) -> list:
        """Per-iteration SLO verdicts so far ([] without a telemetry run)."""
        if self.telemetry_run is None:
            return []
        return self.telemetry_run.slo.results()

    def telemetry_report(self) -> str | None:
        """The run's human telemetry report (None without a telemetry run)."""
        if self.telemetry_run is None:
            return None
        return self.telemetry_run.report()

    def current_feature(self) -> str:
        """Feature extractor currently used for predictions."""
        return self.alm.current_feature()

    # --------------------------------------------------------------- user API
    def add_video(self, path: str, duration: float, start_time: float = 0.0, fps: float = 30.0) -> int:
        """Register an additional video (the paper's ``AddVideo``); returns its vid.

        The video must already exist in the synthetic corpus when ground truth
        is needed; videos added only through this call participate in sampling
        and feature extraction but have no ground-truth activities.
        """
        record = self.storage.videos.add(path, duration, start_time, fps)
        self._journal_commit()
        return record.vid

    def add_label(self, vid: int, start: float, end: float, label: str) -> None:
        """Store one user label (the paper's ``AddLabel``).

        With checkpointing on, the label is durable (journaled + fsynced)
        when this call returns.
        """
        self.storage.labels.add(Label(vid=vid, start=start, end=end, label=label))
        self._journal_commit()

    def add_labels(self, labels: Sequence[Label]) -> None:
        """Store several labels at once (one journal commit for the batch)."""
        self.storage.labels.add_many(labels)
        self._journal_commit()

    def watch(self, vid: int, start: float, end: float) -> list[VideoSegment]:
        """Return consecutive clips of the requested window with predictions."""
        with telemetry.span("watch", "session", vid=vid):
            video = self.storage.videos.get(vid)
            clips = self.sampler.consecutive_clips(
                video, start, end, self.config.explore.clip_duration
            )
            feature = self.alm.current_feature()
            self._charge_foreground_extraction(feature, clips)
            predictions = self._predict(feature, clips, charge=True)
            return [
                VideoSegment(clip=clip, prediction=pred)
                for clip, pred in zip(clips, predictions)
            ]

    def search(
        self,
        query: ClipSpec | Sequence[float] | np.ndarray,
        k: int = 10,
        feature_name: str | None = None,
    ) -> list[SearchHit]:
        """Find the ``k`` stored clips most similar to ``query`` ("clips like this").

        ``query`` is either a clip — a :class:`ClipSpec` or a ``(vid, start,
        end)`` **tuple**, whose feature is extracted on demand (charged as
        T_f) — or a raw feature vector (numpy array or list) in the
        extractor's space.  The search runs
        over every vector stored for the extractor through the shard's
        ``repro.index`` backend (chosen by ``config.index``) and is charged as
        a T_s-style foreground task, so similarity exploration shows up in
        visible-latency accounting like any other user-facing call.

        When fewer than ``k`` vectors are stored, a candidate pool of
        ``config.alm.candidate_pool_size`` videos is extracted first (charged
        as T_f), mirroring how Explore grows its pool.  A clip query that is
        itself stored is excluded from its own results.

        Raises:
            ReproError: when ``k < 1`` or no features can be produced.
        """
        if k < 1:
            raise ReproError(f"k must be >= 1, got {k}")
        feature = feature_name if feature_name is not None else self.alm.current_feature()
        store = self.storage.features

        with telemetry.span("search", "session", k=k, feature=feature):
            # Only ClipSpec and 3-tuples are clip queries; lists and arrays are
            # always raw vectors, so a 3-d feature vector is never silently
            # reinterpreted as (vid, start, end).
            query_clip: ClipSpec | None = None
            if isinstance(query, ClipSpec):
                query_clip = query
            elif isinstance(query, tuple) and len(query) == 3:
                query_clip = ClipSpec(int(query[0]), float(query[1]), float(query[2]))

            if store.count(feature) <= k:
                report = self.alm.ensure_candidate_pool(
                    feature, self.config.alm.candidate_pool_size
                )
                if report.videos_touched:
                    self._charge_extraction_batch(feature, report.videos_touched)

            if query_clip is not None:
                self._charge_foreground_extraction(feature, [query_clip])
                query_vector = store.matrix(feature, [query_clip])[0]
            else:
                query_vector = np.asarray(query, dtype=np.float64)
                if query_vector.ndim != 1:
                    raise ReproError(
                        f"vector query must be 1-D, got shape {query_vector.shape}"
                    )

            num_vectors = store.count(feature)
            if num_vectors == 0:
                raise ReproError(f"no {feature} features available to search")

            index = self.config.index
            approximate = index.backend != "exact"
            self.scheduler.run_foreground(
                Task(
                    kind=TaskKind.VECTOR_SEARCH,
                    duration=self.cost_model.search_time(1, num_vectors, approximate),
                    description=f"search top-{k} of {num_vectors} {feature} vectors",
                )
            )

            # Ask for one extra neighbour so the query clip can be dropped from
            # its own results without shrinking the answer.
            exclude = (
                store.resolve_clips(feature, [query_clip])[0] if query_clip is not None else None
            )
            distances, rows = store.search(
                feature, query_vector, k + (exclude is not None), index, self.config.seed
            )
            hits: list[SearchHit] = []
            for distance, clip in zip(distances[0], store.clips_at(feature, rows[0])):
                if clip is None or clip == exclude:
                    continue
                hits.append(SearchHit(clip=clip, distance=float(distance)))
            return hits[:k]

    # ----------------------------------------------------------------- explore
    def explore(
        self,
        batch_size: int | None = None,
        clip_duration: float | None = None,
        label: str | None = None,
    ) -> ExploreResult:
        """Return the next batch of clips the user should label.

        Any iteration whose labels were already provided is finalised first
        (its training / evaluation / eager work is scheduled into the labeling
        window), mirroring how the real system overlaps background work with
        the user's labeling time.
        """
        if self._iteration_open:
            self.finish_iteration()

        batch_size = batch_size if batch_size is not None else self.config.explore.batch_size
        clip_duration = (
            clip_duration if clip_duration is not None else self.config.explore.clip_duration
        )

        self._iteration += 1
        self.scheduler.begin_iteration(self._iteration)
        if self.telemetry_run is not None:
            if self._iteration_span is not None:
                self._iteration_span.end()
            # Manual span spanning explore + the labeling window; ended in
            # finish_iteration.  Tasks created meanwhile capture it as their
            # parent, so worker-executed background work nests under the
            # iteration that enqueued it.
            self._iteration_span = telemetry.start_span(
                "iteration", "session", iteration=self._iteration
            )
        self._labels_at_iteration_start = len(self.storage.labels)
        self._flush_round_scores()

        skew = self.alm.decide_acquisition()
        use_active = skew.is_skewed
        if self.force_acquisition is not None:
            use_active = self.force_acquisition != "random"
        feature = self.force_feature if self.force_feature is not None else self.alm.current_feature()

        # Lazy strategies grow the candidate pool in the foreground (paper's X).
        if use_active and not self.behaviour.eager_extraction and label is None:
            report = self.alm.ensure_candidate_pool(feature, self.config.alm.candidate_pool_size)
            if report.videos_touched:
                self._charge_extraction_batch(feature, report.videos_touched)

        selection = self.alm.select_segments(
            batch_size,
            clip_duration,
            target_label=label,
            use_active=use_active if label is None else None,
            feature_name=feature,
        )
        self._last_selection = selection
        self.scheduler.run_foreground(
            Task(
                kind=TaskKind.SAMPLE_SELECTION,
                duration=self.cost_model.selection_time(
                    len(selection.clips), selection.acquisition != "random"
                ),
                description=f"select {len(selection.clips)} clips via {selection.acquisition}",
            )
        )

        self._charge_foreground_extraction(selection.feature_name or feature, selection.clips)
        predictions = self._predict(selection.feature_name or feature, selection.clips, charge=True)
        segments = [
            VideoSegment(clip=clip, prediction=pred)
            for clip, pred in zip(selection.clips, predictions)
        ]

        self._iteration_open = True
        # Feature records staged by this call are deterministic derived data
        # (extractors are pure functions of clip and seed), so they ride
        # along with the next user-data commit instead of paying an fsync
        # here; a crash before then merely re-derives them on resume.
        visible = self.scheduler.current_iteration.visible_latency
        return ExploreResult(
            iteration=self._iteration,
            segments=segments,
            acquisition=selection.acquisition,
            feature_name=selection.feature_name,
            visible_latency=visible,
        )

    def finish_iteration(self) -> IterationSummary:
        """Finalise the current iteration after the user has provided labels.

        Schedules model training and feature evaluation according to the
        scheduling strategy, runs the background window that models the user's
        labeling time, and returns the iteration summary.
        """
        if not self._iteration_open:
            raise ReproError("finish_iteration() called with no open iteration")
        self._iteration_open = False

        selection = self._last_selection
        batch_size = len(selection.clips) if selection is not None else self.config.explore.batch_size
        user_time = self.config.scheduler.user_labeling_time
        window = batch_size * user_time
        num_labels = len(self.storage.labels)
        labels_added = num_labels - self._labels_at_iteration_start
        feature = selection.feature_name if selection is not None else self.alm.current_feature()
        eliminated: list[str] = []

        if self.behaviour.is_serial:
            # Everything runs synchronously and counts as visible latency.
            self._train_synchronously(feature)
            eliminated = self._evaluate_synchronously()
            self.clock.advance(window)
        else:
            self._schedule_background_training(feature, batch_size, user_time, labels_added)
            self._schedule_background_evaluation(num_labels)
            with telemetry.span("window", "session", window_s=window):
                self.scheduler.run_background_window(window)

        record = self.scheduler.current_iteration
        summary = IterationSummary(
            iteration=self._iteration,
            acquisition=selection.acquisition if selection is not None else "random",
            feature_name=feature,
            num_labels_total=num_labels,
            visible_latency=record.visible_latency,
            background_time_used=record.background_time_used,
            skew_p_value=selection.skew.p_value if selection is not None and selection.skew else None,
            used_active_learning=selection.acquisition not in ("random",) if selection else False,
            eliminated_features=eliminated,
            candidate_features=self.alm.candidate_features(),
            smax=self.storage.labels.diversity_smax(),
        )
        self._summaries.append(summary)
        # Freeze the record: user-facing calls between iterations (watch,
        # search) must not mutate latency figures already reported here.
        self.scheduler.close_iteration()
        if self.telemetry_run is not None:
            # SLO accounting folds the frozen record into the run's budget
            # verdicts; the iteration span closes with the final figure.
            self.telemetry_run.record_iteration(record)
            if self._iteration_span is not None:
                self._iteration_span.set_attribute(
                    "visible_latency_s", record.visible_latency
                )
                self._iteration_span.end()
                self._iteration_span = None
        if self.durability is not None:
            # Boundary marker: lets recovery report which iterations the
            # journal tail spans, without carrying state (checkpoints do).
            # Trained models and the marker are derived data (retrainable
            # from durable labels), so they stay staged until the next
            # user-data commit or checkpoint instead of paying an fsync per
            # iteration — labels got their own commit in add_label(s).
            self.durability.journal_record(
                {"type": "iteration", "iteration": self._iteration}
            )
            every = self.config.scheduler.checkpoint_every
            if every > 0 and self._iteration % every == 0:
                self.checkpoint()
        return summary

    # ------------------------------------------------------- durable checkpoints
    def _require_durability(self) -> CheckpointManager:
        if self.durability is None:
            raise CheckpointError(
                "durable checkpointing is not enabled; set "
                "SchedulerConfig.checkpoint_dir (CLI: --checkpoint-dir)"
            )
        if self.scheduler.engine.name != "simulated":
            raise CheckpointError(
                "checkpoint/resume requires the deterministic simulated engine; "
                f"this session runs {self.scheduler.engine.name!r}"
            )
        return self.durability

    def checkpoint(self) -> int:
        """Write an atomic snapshot generation and roll the journal.

        Captures the full session state — stores, registered models,
        warm-start caches, bandit, RNGs, scheduler clock/queue/records — so
        :meth:`resume` continues bit-identically on the simulated engine.
        Requires the current iteration to be finished.  Old generations are
        garbage-collected.  Returns the published generation number.
        """
        durability = self._require_durability()
        extras = self.extra_state_provider() if self.extra_state_provider is not None else None
        return durability.write_generation(
            lambda: _checkpoint.write_snapshot_files(self, extras)
        )

    def resume(self) -> RecoveryReport:
        """Restore this freshly built session from its checkpoint directory.

        Recovery protocol: load the newest snapshot whose manifest checksums
        validate, restore the session to it in place, then read (and repair
        the torn tail of) that generation's journal.  Tail writes — durable
        store writes from iterations after the checkpoint — are reported,
        not applied: the resumed run re-executes those iterations and, being
        deterministic, reproduces them exactly.

        When no checkpoint exists yet the session is left in its freshly
        built state (iteration 0) and the journal tail still reports every
        durable write, so nothing acknowledged is ever silently lost.
        """
        durability = self._require_durability()
        recovered = durability.recover()
        if recovered.snapshot_dir is not None:
            self.storage.detach_journal()
            try:
                extra_state = _checkpoint.restore_snapshot_files(
                    self, recovered.snapshot_files
                )
            finally:
                self.storage.attach_journal(durability.journal_record)
        else:
            extra_state = None
        tail_labels = [
            Label(
                vid=int(record["vid"]),
                start=float(record["start"]),
                end=float(record["end"]),
                label=str(record["label"]),
            )
            for record in recovered.tail_records
            if record.get("type") == "label"
        ]
        tail_iterations = [
            int(record["iteration"])
            for record in recovered.tail_records
            if record.get("type") == "iteration"
        ]
        return RecoveryReport(
            generation=recovered.generation,
            resumed_iteration=self._iteration,
            tail_records=recovered.tail_records,
            tail_labels=tail_labels,
            tail_iterations=tail_iterations,
            truncated_bytes=recovered.truncated_bytes,
            rejected_generations=recovered.rejected_generations,
            extra_state=extra_state,
        )

    def _resubmit_task(self, spec: dict) -> None:
        """Re-materialise one checkpointed background task into the queue.

        Tasks are recreated in the checkpoint's queue order, so the fresh
        monotonically assigned task ids preserve the original (priority, id)
        dispatch order.
        """
        task = self._spec_task(
            spec.get("action_spec"),
            kind=spec["kind"],
            duration=float(spec["duration"]),
            priority=int(spec["priority"]),
            description=spec.get("description", ""),
            available_at=float(spec["available_at"]),
        )
        task.remaining = float(spec["remaining"])
        self.scheduler.submit(task)

    def _spec_task(self, action_spec: dict | None, **fields) -> Task:
        """A task whose action is derived from ``action_spec``.

        Queued tasks carry only their spec; fresh submits and checkpoint
        resubmits both take the action from :meth:`_rebuild_action`, so a
        resumed task runs the same code as the original.
        """
        action = self._rebuild_action(action_spec) if action_spec is not None else None
        return Task(action=action, action_spec=action_spec, **fields)

    def _rebuild_action(self, spec: dict):
        """Closure for one action spec (see the submit sites)."""
        op = spec.get("op")
        if op == "train":
            limit = spec.get("label_limit")
            return lambda at, f=spec["feature"], l=limit: self.models.train_if_possible(
                f, at_time=at, label_limit=l
            )
        if op == "evaluate":
            return lambda at, n=spec["feature"]: self._record_feature_score(n)
        if op == "eager":
            return self._eager_action(spec["feature"], tuple(spec["vids"]))
        raise CheckpointError(f"unknown checkpointed action op {op!r}")

    # ------------------------------------------------------------ cost charging
    def _charge_foreground_extraction(self, feature: str, clips: Sequence[ClipSpec]) -> None:
        report = self.features.ensure_clip_features(feature, clips)
        if report.extracted_clips == 0:
            return
        spec = self.features.extractor(feature).spec
        duration = self.cost_model.pipeline_setup_time + sum(
            self.cost_model.clip_extraction_time(spec, clip.duration) for clip in clips
        )
        self.scheduler.run_foreground(
            Task(
                kind=TaskKind.FEATURE_EXTRACTION,
                duration=duration,
                description=f"extract {report.extracted_clips} clips with {feature}",
            )
        )

    def _charge_extraction_batch(self, feature: str, num_videos: int) -> None:
        spec = self.features.extractor(feature).spec
        mean_duration = self._mean_video_duration()
        duration = self.cost_model.extraction_batch_time(spec, num_videos, mean_duration)
        self.scheduler.run_foreground(
            Task(
                kind=TaskKind.FEATURE_EXTRACTION,
                duration=duration,
                description=f"extract candidate pool of {num_videos} videos with {feature}",
            )
        )

    def _mean_video_duration(self) -> float:
        total = self.storage.videos.total_duration()
        count = len(self.storage.videos)
        return total / count if count else self.cost_model.reference_video_duration

    def _predict(self, feature: str, clips: Sequence[ClipSpec], charge: bool) -> list:
        enough_labels = len(self.storage.labels) >= self.config.alm.min_labels_for_predictions
        if not clips or not enough_labels or not self.models.has_model(feature):
            return [None] * len(clips)
        if charge:
            self.scheduler.run_foreground(
                Task(
                    kind=TaskKind.MODEL_INFERENCE,
                    duration=self.cost_model.inference_time(len(clips)),
                    description=f"predict {len(clips)} clips with {feature}",
                )
            )
        return self.models.predict_clips(feature, clips)

    # --------------------------------------------------------------- training
    def _train_synchronously(self, feature: str) -> None:
        if not self.models.can_train():
            return
        num_labels = len(self.storage.labels)
        self.scheduler.run_foreground(
            Task(
                kind=TaskKind.MODEL_TRAINING,
                duration=self.cost_model.training_time(num_labels),
                action=lambda at, f=feature: self.models.train_if_possible(f, at_time=at),
                description=f"train {feature} on {num_labels} labels",
            )
        )

    def _evaluate_synchronously(self) -> list[str]:
        if not self.models.can_train():
            return []
        num_labels = len(self.storage.labels)
        scores = {}
        for name in self.alm.candidate_features():
            self.scheduler.run_foreground(
                Task(
                    kind=TaskKind.FEATURE_EVALUATION,
                    duration=self.cost_model.evaluation_time(num_labels),
                    description=f"evaluate feature {name}",
                )
            )
        scores = self.alm.evaluate_features()
        return self.alm.update_feature_scores(scores)

    def _schedule_background_training(
        self,
        feature: str,
        batch_size: int,
        user_time: float,
        labels_added: int,
    ) -> None:
        total_labels = len(self.storage.labels)
        if total_labels < 2:
            return
        offset = (
            self.cost_model.jit_training_offset(batch_size, user_time, total_labels)
            if self.behaviour.jit_training
            else 0.0
        )
        # Just-in-time training uses the labels that have arrived by the time
        # the task is submitted.
        labels_before = self._labels_at_iteration_start + (
            int(offset // user_time) if user_time > 0 else labels_added
        )
        labels_before = min(max(labels_before, self._labels_at_iteration_start), total_labels)
        label_limit = labels_before if labels_before > 0 else None
        self.scheduler.submit(
            self._spec_task(
                {"op": "train", "feature": feature, "label_limit": label_limit},
                kind=TaskKind.MODEL_TRAINING,
                duration=self.cost_model.training_time(labels_before),
                description=f"JIT train {feature} on {labels_before} labels",
            ),
            available_at=self.clock.now + offset,
        )

    def _schedule_background_evaluation(self, num_labels: int) -> None:
        if not self.models.can_train():
            return
        active = self.alm.candidate_features()
        if len(active) <= 1:
            return
        self._round_expected = set(active)
        self._round_scores = {}
        for name in active:
            self.scheduler.submit(
                self._spec_task(
                    {"op": "evaluate", "feature": name},
                    kind=TaskKind.FEATURE_EVALUATION,
                    duration=self.cost_model.evaluation_time(num_labels),
                    description=f"evaluate feature {name}",
                )
            )

    def _record_feature_score(self, feature_name: str) -> None:
        """Score one candidate feature for the current evaluation round.

        Only "not enough labels yet" is a legitimate zero score; any other
        exception is a real defect and propagates out of the evaluation task
        instead of being masked as a bad feature.
        """
        try:
            result = self.models.cross_validate(
                feature_name,
                num_folds=self.config.feature_selection.cv_folds,
                min_labels_per_class=self.config.feature_selection.min_labels_per_class,
            )
            self._round_scores[feature_name] = result.mean_f1
        except InsufficientLabelsError:
            self._round_scores[feature_name] = 0.0

    def _flush_round_scores(self) -> list[str]:
        """Feed a completed evaluation round to the bandit (at the next Explore)."""
        if not self._round_expected:
            return []
        completed = set(self._round_scores)
        if not self._round_expected.issubset(completed):
            return []
        scores = dict(self._round_scores)
        self._round_expected = set()
        self._round_scores = {}
        return self.alm.update_feature_scores(scores)

    # --------------------------------------------------------- eager extraction
    def _make_eager_task(self) -> Task | None:
        """Create one eager feature-extraction task (VE-full's T_f-)."""
        limit = self.config.scheduler.eager_video_limit
        if limit is not None and self._eager_videos_done >= limit:
            return None
        candidates = self.alm.candidate_features()
        if not candidates:
            return None
        labeled = set(self.storage.labels.labeled_vids())
        all_vids = self.storage.videos.vids()
        batch: list[int] = []
        feature_for_batch: str | None = None
        # The paper schedules eager tasks for every candidate feature over the
        # same batch of videos; here the candidates are kept balanced by always
        # extending the feature whose eager set S is currently smallest.
        batch_limit = self.config.scheduler.eager_batch_size
        if limit is not None:
            batch_limit = min(batch_limit, limit - self._eager_videos_done)
        with self.features.reserve(blocking=False) as acquired:
            if not acquired:
                # A worker holds the feature-manager lock for an in-flight
                # extraction; decline rather than stall the dispatcher —
                # it will ask again on its next pass.
                return None
            with self._eager_lock:
                processed_by_feature = {
                    feature: set(self.features.vids_with_features(feature))
                    | self._eager_inflight.setdefault(feature, set())
                    for feature in candidates
                }
                for feature in sorted(candidates, key=lambda f: len(processed_by_feature[f])):
                    processed = processed_by_feature[feature]
                    fresh = [
                        vid for vid in all_vids if vid not in processed and vid not in labeled
                    ]
                    if fresh:
                        batch = fresh[:batch_limit]
                        feature_for_batch = feature
                        break
                if not batch or feature_for_batch is None:
                    return None
                self._eager_inflight[feature_for_batch].update(batch)
                self._eager_videos_done += len(batch)

        spec = self.features.extractor(feature_for_batch).spec
        duration = self.cost_model.extraction_batch_time(
            spec, len(batch), self._mean_video_duration()
        )
        return self._spec_task(
            {"op": "eager", "feature": feature_for_batch, "vids": list(batch)},
            kind=TaskKind.EAGER_FEATURE_EXTRACTION,
            duration=duration,
            description=f"eager extract {len(batch)} videos with {feature_for_batch}",
        )

    def _eager_action(self, feature: str, vids: tuple[int, ...]):
        """Completion action of one eager-extraction task (also rebuilt on resume)."""

        def action(at_time: float) -> None:
            self.features.ensure_video_features(feature, list(vids))
            with self._eager_lock:
                self._eager_inflight.setdefault(feature, set()).difference_update(vids)

        return action
