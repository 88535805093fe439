"""Idempotent journal replay into a workspace's stores.

Each record type carries the value of the owning store's monotonic counter
*after* the journaled write (label ``revision``, feature-shard ``epoch``,
model ``version``); replay applies a record only when the live counter is
still behind it.  Replaying a journal — or a prefix of it — any number of
times therefore converges to the same state, which is the property the
durability test-suite checks as *replay idempotence*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ...exceptions import StorageError
from ...types import Label, TrainedModelInfo
from .codec import decode_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage_manager import StorageManager

__all__ = ["ReplayStats", "replay_records", "rebuild_model"]


@dataclass
class ReplayStats:
    """What one replay pass applied and skipped."""

    labels_applied: int = 0
    videos_applied: int = 0
    feature_rows_applied: int = 0
    models_applied: int = 0
    skipped: int = 0
    #: Session-level iteration markers seen (not applied to any store).
    iterations_seen: list[int] = field(default_factory=list)


def rebuild_model(doc: dict, decode_params=None):
    """Reconstruct a trained model from its journal/snapshot document.

    The inverse of ``repro.storage.model_registry.model_document`` — the
    only other place that knows the document's field list.  ``decode_params``
    mirrors the encoder the document was built with (inline base64 by
    default; snapshot restore resolves bundle references).  Only parametric
    models that expose ``get_parameters``/``set_parameters`` are
    journalable; currently that is the softmax linear probe the session
    trains.
    """
    if doc.get("kind") != "softmax":
        raise StorageError(f"cannot rebuild model of kind {doc.get('kind')!r}")
    from ...models.linear import SoftmaxRegression

    decode = decode_params if decode_params is not None else decode_array
    model = SoftmaxRegression(
        classes=list(doc["classes"]),
        l2_regularization=float(doc["l2_regularization"]),
        max_iterations=int(doc["max_iterations"]),
        tolerance=float(doc["tolerance"]),
    )
    model.set_parameters(decode(doc["params"]), int(doc["dim"]))
    return model


def replay_records(storage: "StorageManager", records: Iterable[dict]) -> ReplayStats:
    """Apply journal ``records`` to ``storage``, skipping already-applied ones.

    The storage manager's journal sinks are detached for the duration so a
    replay never re-journals its own writes.

    Raises:
        StorageError: on unknown record types or malformed payloads —
            a journal that cannot be interpreted must fail loudly, not
            half-apply.
    """
    stats = ReplayStats()
    sink = storage.journal_sink
    storage.detach_journal()
    try:
        for record in records:
            kind = record.get("type")
            if kind == "label":
                if int(record["revision"]) <= storage.labels.revision:
                    stats.skipped += 1
                    continue
                storage.labels.add(
                    Label(
                        vid=int(record["vid"]),
                        start=float(record["start"]),
                        end=float(record["end"]),
                        label=str(record["label"]),
                    )
                )
                stats.labels_applied += 1
            elif kind == "video":
                if int(record["vid"]) in storage.videos:
                    stats.skipped += 1
                    continue
                added = storage.videos.add(
                    str(record["path"]),
                    float(record["duration"]),
                    float(record["start_time"]),
                    float(record["fps"]),
                )
                if added.vid != int(record["vid"]):
                    raise StorageError(
                        f"video replay assigned vid {added.vid}, journal says {record['vid']}"
                    )
                stats.videos_applied += 1
            elif kind == "features":
                fid = str(record["fid"])
                if int(record["epoch"]) <= storage.features.epoch(fid):
                    stats.skipped += 1
                    continue
                stats.feature_rows_applied += storage.features.add_batch(
                    fid,
                    decode_array(record["vids"]),
                    decode_array(record["starts"]),
                    decode_array(record["ends"]),
                    decode_array(record["vectors"]),
                )
                storage.features.restore_epoch(fid, int(record["epoch"]))
            elif kind == "model":
                feature = str(record["feature"])
                if int(record["version"]) <= storage.models.latest_version(feature):
                    stats.skipped += 1
                    continue
                info = TrainedModelInfo(
                    model_id=int(record["model_id"]),
                    feature_name=feature,
                    version=int(record["version"]),
                    classes=list(record["classes"]),
                    num_labels=int(record["num_labels"]),
                    created_at=float(record["created_at"]),
                )
                storage.models.restore_entry(info, rebuild_model(record["model"]))
                stats.models_applied += 1
            elif kind in ("index_attach", "index_sync"):
                # Journals written by older versions record index choices;
                # the backend is configuration (IndexConfig), so skip them.
                stats.skipped += 1
            elif kind == "iteration":
                stats.iterations_seen.append(int(record["iteration"]))
            else:
                raise StorageError(f"unknown journal record type {kind!r}")
    finally:
        if sink is not None:
            storage.attach_journal(sink)
    return stats
