"""Session state capture and restore for durable checkpoints.

A checkpoint must allow an interrupted ``explore`` run to *continue
bit-identically*, so the snapshot captures every piece of state the next
iteration reads, not just the stores:

* the four stores (video/label records, feature columns, registered models),
  including the feature shards' ``epoch`` counters that key derived caches;
* the Model Manager's incremental-training state — design-matrix caches
  with their running column sums (floating-point accumulation order matters
  for bit-identity), cross-validation caches, per-fold warm-start models,
  and the append-stable fold assigners;
* the ALM's RNG and the rising bandit (histories, EWMA accumulators,
  eliminations, bound trace);
* the scheduler's simulated clock, per-iteration latency records, and the
  pending background queue (tasks are serialised as *action specs* and
  re-materialised into closures on restore);
* session bookkeeping (iteration counter, evaluation-round state, eager
  extraction progress, per-iteration summaries).

Everything numeric round-trips bit-exactly: arrays as their raw bytes,
scalars via JSON's repr-faithful float encoding.

A snapshot is two files.  ``state.json`` holds the JSON document, and
``arrays.bin`` every array, C-contiguous at a 64-byte-aligned offset;
the document's ``arrays`` table maps each array's key to ``[dtype.str,
shape, offset]``.  Restore takes the bytes recovery already read and
checksummed, and each array is a writable view into them.  Snapshots of
format 1 kept the arrays in ``arrays.npz`` instead; they still restore.

What is deliberately *not* captured: pure caches that are bit-identical to
recompute (the ALM's acquisition-context cache, the lazily built
sorted-midpoint index and the row norms a feature search caches) and the
scheduler's completed-task log (inspection only; latency records are the
comparable artefact).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import fields
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..exceptions import CheckpointError
from ..models.model_manager import TrainingStats, _DesignCache
from ..models.validation import CrossValidationResult, IncrementalFoldAssigner
from ..scheduler.scheduler import IterationLatency
from ..types import ClipSpec, Label, TrainedModelInfo, VideoRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import ExplorationSession

__all__ = [
    "STATE_FILE",
    "ARRAYS_FILE",
    "capture_state",
    "stage_tables",
    "restore_tables",
    "write_snapshot_files",
    "restore_snapshot_files",
]

STATE_FILE = "state.json"
ARRAYS_FILE = "arrays.bin"
#: Where format-1 snapshots kept their arrays (read only).
_NPZ_FILE = "arrays.npz"
_FORMAT = 2
#: Byte alignment of every array's offset in ``arrays.bin``.
_ALIGN = 64

#: Fields captured from each record type, in declaration order (a test
#: checks them against the dataclasses).  Their list and dict values hold
#: scalars, so a one-level copy equals ``dataclasses.asdict``.
_SUMMARY_FIELDS = (
    "iteration", "acquisition", "feature_name", "num_labels_total", "visible_latency",
    "background_time_used", "skew_p_value", "used_active_learning",
    "eliminated_features", "candidate_features", "smax",
)
_LATENCY_FIELDS = (
    "iteration", "visible_latency", "background_time_used", "background_idle_time",
    "visible_by_kind",
)
_BOUND_FIELDS = ("step", "arm", "lower_bound", "upper_bound", "active")
_STATS_FIELDS = (
    "warm_trains", "cold_trains", "design_hits", "design_extensions", "design_rebuilds",
    "cv_cache_hits", "cv_rounds", "cv_warm_folds", "cv_cold_folds",
)
_CV_RESULT_FIELDS = ("mean_f1", "fold_scores", "classes_evaluated", "num_examples")


def _record_doc(record, names: tuple[str, ...]) -> dict:
    """``dataclasses.asdict(record)`` for a record whose fields are ``names``."""
    doc = {}
    for name in names:
        value = getattr(record, name)
        doc[name] = value.copy() if isinstance(value, (list, dict)) else value
    return doc


def _rng_state(generator: np.random.Generator) -> dict:
    return generator.bit_generator.state


def _restore_rng(state: dict) -> np.random.Generator:
    generator = np.random.default_rng()
    generator.bit_generator.state = state
    return generator


def _clips_doc(clips: list[ClipSpec]) -> list[list[float]]:
    return [[clip.vid, clip.start, clip.end] for clip in clips]


#: Snapshot dtype of each store column type (``np.str_`` keeps the bundle
#: pickle-free; an empty string column stages as ``<U1``).
_COLUMN_DTYPES = {"int": np.int64, "float": np.float64, "str": np.str_}


def _stage_table(store, arrays: dict) -> dict:
    """Stage one record store column by column; returns its doc.

    The first ``SCHEMA`` column is the primary key, staged as each record's
    list position (a video's vid is its position); every other column is the
    record field of that name.
    """
    name, schema = store.TABLE_NAME, store.SCHEMA
    records = store.all()
    key, *record_columns = schema
    arrays[f"table__{name}__{key}"] = np.arange(len(records), dtype=np.int64)
    for column in record_columns:
        arrays[f"table__{name}__{column}"] = np.array(
            [getattr(record, column) for record in records], dtype=_COLUMN_DTYPES[schema[column]]
        )
    return {
        "name": name,
        "primary_key": key,
        "schema": dict(schema),
        "row_count": len(records),
    }


def stage_tables(videos, labels, arrays: dict) -> dict:
    """Stage the video and label stores into the bundle; returns ``state["tables"]``.

    Each store becomes one ``table__<name>__<column>`` array per column of
    its ``SCHEMA`` (int64, float64, or ``np.str_``), and a doc naming the
    table, its primary key (the first column), its schema, and its row
    count.  Labels stage their position as ``label_id``.
    """
    return {
        "videos": _stage_table(videos, arrays),
        "labels": _stage_table(labels, arrays),
    }


def _table_records(store, record_type, doc: dict, arrays: dict) -> list:
    """The staged records of one store (inverse of :func:`_stage_table`).

    Raises:
        CheckpointError: if a column's length differs from the doc's row
            count or the keys are not ``0..n-1``.
    """
    name, row_count = store.TABLE_NAME, int(doc["row_count"])
    columns = {column: arrays[f"table__{name}__{column}"].tolist() for column in store.SCHEMA}
    if any(len(values) != row_count for values in columns.values()):
        raise CheckpointError(f"snapshot table {name!r} columns do not all hold {row_count} rows")
    if columns[next(iter(store.SCHEMA))] != list(range(row_count)):
        raise CheckpointError(f"snapshot table {name!r} keys are not 0..n-1")
    field_names = [field.name for field in fields(record_type)]
    return [record_type(*row) for row in zip(*(columns[column] for column in field_names))]


def restore_tables(videos, labels, tables: dict, arrays: dict) -> None:
    """Refill the video and label stores in place (inverse of :func:`stage_tables`).

    Both tables are checked before either store changes.
    """
    video_records = _table_records(videos, VideoRecord, tables["videos"], arrays)
    label_records = _table_records(labels, Label, tables["labels"], arrays)
    videos.restore(video_records)
    labels.restore(label_records)


def _clips_from_doc(doc: list[list[float]]) -> list[ClipSpec]:
    return [ClipSpec(int(vid), float(start), float(end)) for vid, start, end in doc]


# --------------------------------------------------------------------- capture
def _snapshot_model(model, arrays: dict, key: str, what: str) -> dict:
    """Stage one trained model's parameters into the binary bundle.

    Built through the shared ``model_document`` codec (the single owner of
    the document's field list), with the parameter array staged in the
    snapshot bundle under ``key`` and referenced as ``{"npz": key}`` (the
    name dates from format 1's ``.npz`` bundle) instead of inlined base64
    (the journal's default): the registry keeps every
    version ever trained, so inline encoding would grow each snapshot's JSON
    quadratically over a run.
    """
    from ..storage.model_registry import model_document

    def stage(params):
        arrays[key] = params
        return {"npz": key}

    document = model_document(model, encode_params=stage)
    if document is None:
        raise CheckpointError(f"{what} is not serialisable ({type(model).__name__})")
    return document


def _model_from_snapshot(doc: dict, arrays: dict):
    """Inverse of :func:`_snapshot_model` (shared ``rebuild_model`` codec)."""
    from ..storage.durability.replay import rebuild_model

    return rebuild_model(doc, decode_params=lambda ref: arrays[ref["npz"]])


class ArchivedModel:
    """Placeholder for a superseded model version after a resume.

    The registry keeps every version's *metadata* forever, but snapshots
    retain parameters only for models some code path can still consult: the
    serving (latest) model per feature and the warm-start CV fold models.
    Without this bound each snapshot would grow linearly with run length.
    Touching an archived model's attributes raises, so any future code path
    that starts depending on superseded parameters fails loudly instead of
    silently serving garbage.
    """

    def __init__(self, info: TrainedModelInfo) -> None:
        self.__dict__["archived_info"] = info

    def __getattr__(self, name: str):
        info = self.__dict__["archived_info"]
        raise CheckpointError(
            f"model {info.feature_name!r} v{info.version} was superseded before "
            "the checkpoint; its parameters are not retained across resume"
        )


def _capture_queue(session: "ExplorationSession") -> list[dict]:
    specs: list[dict] = []
    for priority, task_id, task in sorted(session.scheduler._queue):
        if task.action is not None and task.action_spec is None:
            raise CheckpointError(
                f"queued task {task.description!r} carries an action without an "
                "action spec and cannot be checkpointed"
            )
        specs.append(
            {
                "kind": task.kind,
                "duration": task.duration,
                "remaining": task.remaining,
                "priority": priority,
                "available_at": task.available_at,
                "description": task.description,
                "action_spec": task.action_spec,
            }
        )
    return specs


def _capture_models(session: "ExplorationSession", arrays: dict[str, np.ndarray]) -> dict:
    manager = session.models
    design: dict[str, dict] = {}
    for fid, entry in manager._design_cache.items():
        # The matrix itself is not stored: cached rows are exact gathers of
        # feature-store rows (both the rebuild and the extension path copy
        # ``store.matrix[rows]`` values verbatim), so restore re-gathers it
        # bit-identically from the restored shard.  The running column sums
        # *are* stored — their floating-point accumulation order is history-
        # dependent and cannot be recomputed.
        arrays[f"design__{fid}__rows"] = entry.rows
        arrays[f"design__{fid}__column_sum"] = entry.column_sum
        arrays[f"design__{fid}__column_sumsq"] = entry.column_sumsq
        design[fid] = {
            "label_revision": entry.label_revision,
            "feature_epoch": entry.feature_epoch,
            "names": list(entry.names),
            "clips": _clips_doc(entry.clips),
        }
    cv_cache = {
        fid: {"key": list(key), "result": _record_doc(result, _CV_RESULT_FIELDS)}
        for fid, (key, result) in manager._cv_cache.items()
    }
    # List entries with explicit fid/folds fields (never packed into a
    # delimited string: extractor names are user-defined and may contain
    # any separator); bundle keys use the entry index for the same reason.
    fold_models = []
    for index, ((fid, folds), models) in enumerate(manager._cv_fold_models.items()):
        fold_models.append(
            {
                "fid": fid,
                "folds": folds,
                "models": {
                    str(fold): _snapshot_model(
                        model,
                        arrays,
                        f"cvfold__{index}__{fold}",
                        f"CV fold model for {fid!r}",
                    )
                    for fold, model in models.items()
                },
            }
        )
    assigners = {
        str(folds): {
            "assignment": list(assigner._assignment),
            "next_fold": dict(assigner._next_fold),
            "rng": _rng_state(assigner._rng),
        }
        for folds, assigner in manager._fold_assigners.items()
    }
    return {
        "rng": _rng_state(manager._rng),
        "stats": _record_doc(manager.stats, _STATS_FIELDS),
        "design_cache": design,
        "cv_cache": cv_cache,
        "cv_fold_models": fold_models,
        "fold_assigners": assigners,
    }


def _capture_registry(session: "ExplorationSession", arrays: dict) -> dict:
    registry = session.storage.models
    entries = []
    serving_ids = set(registry._latest_by_feature.values())
    for model_id in sorted(registry._info):
        info = registry._info[model_id]
        if model_id in serving_ids:
            document = _snapshot_model(
                registry._models[model_id],
                arrays,
                f"model__{model_id}",
                f"registered model {model_id} ({info.feature_name!r})",
            )
        else:
            # Superseded version: metadata only (see ArchivedModel).
            document = {"kind": "archived"}
        entries.append(
            {
                "model_id": info.model_id,
                "feature": info.feature_name,
                "version": info.version,
                "classes": list(info.classes),
                "num_labels": info.num_labels,
                "created_at": info.created_at,
                "model": document,
            }
        )
    return {"next_id": registry._next_id, "entries": entries}


def _capture_bandit(session: "ExplorationSession") -> dict:
    bandit = session.alm.bandit
    arms = {}
    for name, arm in bandit._arms.items():
        arms[name] = {
            "raw_history": list(arm.raw_history),
            "eliminated_at": arm.eliminated_at,
            "smoother": {
                "numerator": arm.smoother._numerator,
                "denominator": arm.smoother._denominator,
                "history": list(arm.smoother._history),
            },
        }
    return {
        "step": bandit._step,
        "arms": arms,
        "bound_trace": [_record_doc(snapshot, _BOUND_FIELDS) for snapshot in bandit._bound_trace],
    }


def _capture_features_meta(session: "ExplorationSession") -> dict:
    store = session.storage.features
    return {"epochs": {fid: shard.epoch for fid, shard in store._shards.items()}}


def capture_state(session: "ExplorationSession", extra_state: dict | None) -> tuple[dict, dict]:
    """Session state as a JSON document plus a dict of exact binary arrays.

    Covers everything a snapshot holds, the stores included: the video and
    label tables (:func:`stage_tables`) and the feature shards.
    """
    if session._iteration_open:
        raise CheckpointError("checkpoint requires a closed iteration (finish_iteration first)")
    arrays: dict[str, np.ndarray] = {}
    scheduler = session.scheduler
    state = {
        "format": _FORMAT,
        "seed": session.config.seed,
        "session": {
            "iteration": session._iteration,
            "labels_at_iteration_start": session._labels_at_iteration_start,
            "eager_videos_done": session._eager_videos_done,
            "round_scores": dict(session._round_scores),
            "round_expected": sorted(session._round_expected),
            "force_acquisition": session.force_acquisition,
            "force_feature": session.force_feature,
            "summaries": [_record_doc(summary, _SUMMARY_FIELDS) for summary in session._summaries],
        },
        "scheduler": {
            "clock_now": scheduler.clock.now,
            "finalised": scheduler._finalised,
            "iterations": [
                _record_doc(record, _LATENCY_FIELDS) for record in scheduler._iterations
            ],
            "queue": _capture_queue(session),
        },
        "alm": {
            "rng": _rng_state(session.alm.rng),
            "iteration": session.alm._iteration,
            "bandit": _capture_bandit(session),
        },
        "models": _capture_models(session, arrays),
        "registry": _capture_registry(session, arrays),
        "features": _capture_features_meta(session),
        "extra_state": extra_state,
    }
    storage = session.storage
    state["tables"] = stage_tables(storage.videos, storage.labels, arrays)
    shards_doc: dict[str, dict] = {}
    for fid in storage.features.extractors():
        shard = storage.features._shards[fid]
        shards_doc[fid] = {"dim": shard.dim, "rows": len(shard)}
        if len(shard):
            arrays[f"shard__{fid}__vids"] = shard.vids
            arrays[f"shard__{fid}__starts"] = shard.starts
            arrays[f"shard__{fid}__ends"] = shard.ends
            arrays[f"shard__{fid}__vectors"] = shard.matrix
    state["features"]["shards"] = shards_doc
    return state, arrays


def _pack_arrays(arrays: dict[str, np.ndarray]) -> tuple[dict, bytearray]:
    """Lay every array out in one buffer; returns ``(table, buffer)``.

    Each array is stored C-contiguous at a 64-byte-aligned offset, and
    ``table`` maps its key to ``[dtype.str, shape, offset]``.

    Raises:
        CheckpointError: for an array whose dtype its ``dtype.str`` does
            not round-trip (object and structured dtypes).
    """
    table: dict[str, list] = {}
    placed = []
    end = 0
    for key, array in arrays.items():
        array = np.asarray(array)
        dtype = array.dtype
        if dtype.hasobject or np.dtype(dtype.str) != dtype:
            raise CheckpointError(
                f"snapshot array {key!r} has dtype {dtype}, which is not storable"
            )
        offset = -(-end // _ALIGN) * _ALIGN
        table[key] = [dtype.str, list(array.shape), offset]
        placed.append((offset, array))
        end = offset + array.nbytes
    buffer = bytearray(end)
    for offset, array in placed:
        if array.nbytes:
            np.ndarray(array.shape, array.dtype, buffer, offset)[...] = array
    return table, buffer


def _unpack_arrays(table: dict, payload: bytearray) -> dict[str, np.ndarray]:
    """Inverse of :func:`_pack_arrays`: views into ``payload``, one per key.

    Raises:
        CheckpointError: for an object dtype, a malformed entry, or an
            entry whose extent falls outside the buffer.
    """
    arrays = {}
    for key, entry in table.items():
        try:
            dtype_str, shape, offset = entry
            dtype = np.dtype(dtype_str)
            shape = tuple(int(n) for n in shape)
            offset = int(offset)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"snapshot array {key!r} has a malformed entry {entry!r}"
            ) from exc
        if dtype.hasobject:
            raise CheckpointError(f"snapshot array {key!r} has object dtype {dtype_str!r}")
        if (
            offset < 0
            or any(n < 0 for n in shape)
            or offset + math.prod(shape) * dtype.itemsize > len(payload)
        ):
            raise CheckpointError(
                f"snapshot array {key!r} ({dtype_str}, {shape} at {offset}) lies outside "
                f"the {len(payload)}-byte bundle"
            )
        arrays[key] = np.ndarray(shape, dtype, payload, offset)
    return arrays


def _load_arrays(state: dict, files: Mapping[str, bytes]) -> dict[str, np.ndarray]:
    """The snapshot's arrays, from ``arrays.bin`` (or format 1's ``arrays.npz``)."""
    name = _NPZ_FILE if state["format"] == 1 else ARRAYS_FILE
    if name not in files:
        raise CheckpointError(f"snapshot has no {name}")
    if state["format"] == 1:
        with np.load(io.BytesIO(files[name]), allow_pickle=False) as payload:
            return {key: payload[key] for key in payload.files}
    if not isinstance(state.get("arrays"), dict):
        raise CheckpointError("snapshot state has no arrays table")
    return _unpack_arrays(state["arrays"], files[name])


def write_snapshot_files(
    session: "ExplorationSession", extra_state: dict | None
) -> dict[str, bytes]:
    """The full snapshot payload: file name -> contents.

    The whole state bundles into exactly two files — ``arrays.bin`` for
    every binary array (table columns, feature shards, design-cache
    statistics, model parameters) and ``state.json`` for everything else,
    its ``arrays`` table included — keeping the per-snapshot fsync and
    checksum count constant instead of per-store.  The snapshot publisher
    writes, fsyncs, checksums, and atomically publishes them.
    """
    state, arrays = capture_state(session, extra_state)
    state["arrays"], payload = _pack_arrays(arrays)
    return {ARRAYS_FILE: payload, STATE_FILE: json.dumps(state).encode("utf-8")}


# --------------------------------------------------------------------- restore
def _restore_models(session: "ExplorationSession", doc: dict, arrays) -> None:
    manager = session.models
    manager._rng = _restore_rng(doc["rng"])
    manager.stats = TrainingStats(**doc["stats"])
    manager._design_cache = {}
    store = session.storage.features
    for fid, entry in doc["design_cache"].items():
        rows = arrays[f"design__{fid}__rows"]
        manager._design_cache[fid] = _DesignCache(
            label_revision=int(entry["label_revision"]),
            feature_epoch=int(entry["feature_epoch"]),
            # Bit-identical re-gather from the restored shard (see capture).
            matrix=store.columns(fid)[3][rows],
            names=list(entry["names"]),
            clips=_clips_from_doc(entry["clips"]),
            rows=rows,
            column_sum=arrays[f"design__{fid}__column_sum"],
            column_sumsq=arrays[f"design__{fid}__column_sumsq"],
        )
    manager._cv_cache = {
        fid: (
            tuple(entry["key"]),
            CrossValidationResult(
                mean_f1=entry["result"]["mean_f1"],
                fold_scores=tuple(entry["result"]["fold_scores"]),
                classes_evaluated=tuple(entry["result"]["classes_evaluated"]),
                num_examples=entry["result"]["num_examples"],
            ),
        )
        for fid, entry in doc["cv_cache"].items()
    }
    manager._cv_fold_models = {}
    for entry in doc["cv_fold_models"]:
        manager._cv_fold_models[(entry["fid"], int(entry["folds"]))] = {
            int(fold): _model_from_snapshot(document, arrays)
            for fold, document in entry["models"].items()
        }
    manager._fold_assigners = {}
    for folds, entry in doc["fold_assigners"].items():
        assigner = IncrementalFoldAssigner(int(folds), seed=session.config.seed)
        assigner._assignment = [int(fold) for fold in entry["assignment"]]
        assigner._next_fold = {name: int(fold) for name, fold in entry["next_fold"].items()}
        assigner._rng = _restore_rng(entry["rng"])
        manager._fold_assigners[int(folds)] = assigner


def _restore_registry(session: "ExplorationSession", doc: dict, arrays: dict) -> None:
    registry = session.storage.models
    if len(registry):
        raise CheckpointError("resume requires a freshly built session (registry not empty)")
    for entry in doc["entries"]:
        info = TrainedModelInfo(
            model_id=int(entry["model_id"]),
            feature_name=entry["feature"],
            version=int(entry["version"]),
            classes=list(entry["classes"]),
            num_labels=int(entry["num_labels"]),
            created_at=float(entry["created_at"]),
        )
        if entry["model"].get("kind") == "archived":
            registry.restore_entry(info, ArchivedModel(info))
        else:
            registry.restore_entry(info, _model_from_snapshot(entry["model"], arrays))
    registry._next_id = max(registry._next_id, int(doc["next_id"]))


def _restore_bandit(session: "ExplorationSession", doc: dict) -> None:
    from ..alm.bandit import BanditSnapshot

    bandit = session.alm.bandit
    if set(doc["arms"]) != set(bandit._arms):
        raise CheckpointError(
            f"checkpointed bandit arms {sorted(doc['arms'])} do not match the "
            f"session's candidates {sorted(bandit._arms)}"
        )
    bandit._step = int(doc["step"])
    for name, entry in doc["arms"].items():
        arm = bandit._arms[name]
        arm.raw_history = [float(value) for value in entry["raw_history"]]
        arm.eliminated_at = entry["eliminated_at"]
        arm.smoother._numerator = float(entry["smoother"]["numerator"])
        arm.smoother._denominator = float(entry["smoother"]["denominator"])
        arm.smoother._history = [float(value) for value in entry["smoother"]["history"]]
    bandit._bound_trace = [BanditSnapshot(**snapshot) for snapshot in doc["bound_trace"]]


def _restore_scheduler(session: "ExplorationSession", doc: dict) -> None:
    scheduler = session.scheduler
    scheduler.clock.advance_to(float(doc["clock_now"]))
    scheduler._iterations = [
        IterationLatency(
            iteration=record["iteration"],
            visible_latency=record["visible_latency"],
            background_time_used=record["background_time_used"],
            background_idle_time=record["background_idle_time"],
            visible_by_kind=dict(record["visible_by_kind"]),
        )
        for record in doc["iterations"]
    ]
    scheduler._current = scheduler._iterations[-1] if scheduler._iterations else None
    # Rebuild the closed-records running total exactly as begin_iteration
    # would have: every record except the open one, summed left to right.
    scheduler._closed_visible_total = sum(
        record.visible_latency for record in scheduler._iterations[:-1]
    )
    scheduler._finalised = bool(doc["finalised"])
    scheduler._queue = []
    for spec in doc["queue"]:
        session._resubmit_task(spec)


def restore_snapshot_files(session: "ExplorationSession", files: Mapping[str, bytes]) -> dict:
    """Restore a session in place from a snapshot's files; returns extras.

    ``files`` maps file names to their (checksum-verified) contents, as
    recovery read them.  The session must be freshly built with the same
    corpus, configuration, and seed that produced the checkpoint; restoring
    overwrites stores, caches, RNGs, the bandit, and scheduler state so the
    next ``explore`` call continues exactly where the checkpointed run would
    have.
    """
    from .session import IterationSummary

    try:
        state = json.loads(files[STATE_FILE])
    except (KeyError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"snapshot state is unreadable: {exc!r}") from exc
    if state.get("format") not in (1, _FORMAT):
        raise CheckpointError(f"unsupported snapshot format {state.get('format')!r}")
    if state["seed"] != session.config.seed:
        raise CheckpointError(
            f"checkpoint was written with seed {state['seed']}, session uses "
            f"{session.config.seed}; resume requires the same configuration"
        )
    arrays = _load_arrays(state, files)

    storage = session.storage
    features_meta = state["features"]
    restore_tables(storage.videos, storage.labels, state["tables"], arrays)
    shards: dict[str, tuple | None] = {}
    dims: dict[str, int] = {}
    for fid, doc in features_meta["shards"].items():
        dims[fid] = int(doc["dim"])
        if doc["rows"]:
            shards[fid] = (
                arrays[f"shard__{fid}__vids"],
                arrays[f"shard__{fid}__starts"],
                arrays[f"shard__{fid}__ends"],
                arrays[f"shard__{fid}__vectors"],
            )
        else:
            shards[fid] = None
    # Snapshots written by older versions also hold each shard's index
    # backend; search is always an exact scan now, so those keys are ignored.
    storage.features.restore_columns(
        shards,
        dims,
        epochs={fid: int(epoch) for fid, epoch in features_meta["epochs"].items()},
    )
    _restore_registry(session, state["registry"], arrays)
    _restore_models(session, state["models"], arrays)

    session.alm.rng = _restore_rng(state["alm"]["rng"])
    session.alm._iteration = int(state["alm"]["iteration"])
    session.alm._context_cache = {}
    _restore_bandit(session, state["alm"]["bandit"])

    _restore_scheduler(session, state["scheduler"])

    doc = state["session"]
    session._iteration = int(doc["iteration"])
    session._iteration_open = False
    session._labels_at_iteration_start = int(doc["labels_at_iteration_start"])
    session._eager_videos_done = int(doc["eager_videos_done"])
    # Older snapshots also hold "eager_inflight", the videos of unfinished
    # eager tasks.  Such a task is restored to the queue and runs before any
    # new eager task is made, so the key is ignored.
    session._round_scores = {
        name: float(score) for name, score in doc["round_scores"].items()
    }
    session._round_expected = set(doc["round_expected"])
    session.force_acquisition = doc["force_acquisition"]
    session.force_feature = doc["force_feature"]
    session._summaries = [IterationSummary(**summary) for summary in doc["summaries"]]
    session._last_selection = None
    return state.get("extra_state")
