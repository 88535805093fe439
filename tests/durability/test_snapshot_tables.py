"""The snapshot layout of the video and label stores (format 1), pinned.

``stage_tables`` writes each store as one ``table__<name>__<column>`` array
per column plus a table doc.  The digests hash every array's name, dtype
(an empty string column is ``<U1``), shape and bytes plus the docs; they
must never move, or snapshots already on disk stop restoring byte-for-byte.
No model math is involved, so the values hold on every platform.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.core.checkpoint import restore_tables, stage_tables
from repro.exceptions import CheckpointError
from repro.storage.label_store import LabelStore
from repro.storage.video_store import VideoStore
from repro.types import Label

VIDEOS = [
    ("clips/a.mp4", 10.0, 0.0, 30.0),
    ("clips/café ☕.mp4", 12.5, 3600.25, 24.0),
    ("b.mp4", 0.1 + 0.2, 0.1, 29.97),
]
LABELS = [
    (0, 0.1, 1.0, "walk"),
    (1, 0.0, 2.5, "mangé"),
    (0, 3.0, 4.0, "walk"),
    (2, 0.2, 0.1 + 0.2, "鹿 grazing"),
]
DIGESTS = {
    "empty": "83b286a9afa8bc04c6fec8a73f2d7cb71d9a45de06e291ddeead8aba042dbb99",
    "filled": "4d5bb6b2fabb8f0536eb283bcd2e1a629867cc56260249afa68f9531b0fe9e9a",
}


def filled_stores():
    videos, labels = VideoStore(), LabelStore()
    for row in VIDEOS:
        videos.add(*row)
    for row in LABELS:
        labels.add(Label(*row))
    return videos, labels


def staging_digest(tables, arrays):
    digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode("utf-8"))
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def through_npz(arrays):
    """Round-trip the staged arrays through the snapshot's ``.npz`` codec."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer, allow_pickle=False) as payload:
        return {name: payload[name] for name in payload.files}


@pytest.mark.parametrize("case", ["empty", "filled"])
def test_staging_digest_is_pinned(case):
    stores = filled_stores() if case == "filled" else (VideoStore(), LabelStore())
    arrays = {}
    tables = stage_tables(*stores, arrays)
    assert staging_digest(tables, arrays) == DIGESTS[case]


def test_restore_roundtrip():
    videos, labels = filled_stores()
    arrays = {}
    tables = stage_tables(videos, labels, arrays)
    arrays = through_npz(arrays)

    new_videos, new_labels = VideoStore(), LabelStore()
    new_videos.add("stale.mp4", 1.0)
    new_labels.add(Label(9, 0.0, 1.0, "stale"))
    restore_tables(new_videos, new_labels, tables, arrays)

    assert new_videos.all() == videos.all()
    assert new_labels.all() == labels.all()
    assert len(new_videos) == 3 and len(new_labels) == 4
    assert new_labels.revision == labels.revision == 4
    assert new_labels.since(2) == labels.since(2) == [Label(*row) for row in LABELS[2:]]
    assert new_labels.labeled_vids() == [0, 1, 2]
    assert type(new_labels.all()[0].label) is str
    # Ids continue after the restored rows.
    assert new_videos.add("next.mp4", 5.0).vid == 3
    assert new_labels.add(Label(1, 0.0, 1.0, "walk")) == 4
    assert new_labels.revision == 5


def test_restore_empty_tables():
    arrays = {}
    tables = stage_tables(VideoStore(), LabelStore(), arrays)
    videos, labels = filled_stores()
    restore_tables(videos, labels, tables, through_npz(arrays))
    assert len(videos) == 0 and len(labels) == 0 and labels.revision == 0
    assert videos.add("first.mp4", 1.0).vid == 0


@pytest.mark.parametrize(
    "column, values",
    [
        ("table__videos__vid", np.array([0, 2, 1], dtype=np.int64)),
        ("table__labels__label", np.array(["walk", "walk", "walk"])),
    ],
    ids=["non-positional-keys", "short-column"],
)
def test_restore_rejects_inconsistent_tables(column, values):
    arrays = {}
    tables = stage_tables(*filled_stores(), arrays)
    arrays[column] = values
    videos, labels = filled_stores()
    before = (videos.all(), labels.all())
    with pytest.raises(CheckpointError):
        restore_tables(videos, labels, tables, arrays)
    # A failed restore leaves both stores as they were.
    assert (videos.all(), labels.all()) == before
