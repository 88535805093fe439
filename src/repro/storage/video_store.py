"""Video metadata store.

Tracks every video registered through ``AddVideo`` (or bulk loading) and hands
out stable integer video ids.  Videos are kept as an append-only list of
:class:`~repro.types.VideoRecord`; vids are assigned ``0..n-1``, so a record's
vid is its position in the list.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..exceptions import UnknownVideoError
from ..types import VideoRecord, check_field

__all__ = ["VideoStore"]


class VideoStore:
    """Registry of :class:`~repro.types.VideoRecord` rows keyed by ``vid``."""

    TABLE_NAME = "videos"
    #: Column types in snapshot order; the first column is the primary key.
    SCHEMA = {
        "vid": "int",
        "path": "str",
        "duration": "float",
        "start_time": "float",
        "fps": "float",
    }

    def __init__(self) -> None:
        self._records: list[VideoRecord] = []
        #: Optional write-ahead sink (``repro.storage.durability``): every
        #: registered video is journaled under its assigned vid.
        self.journal_sink = None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, vid: int) -> bool:
        return isinstance(vid, (int, np.integer)) and 0 <= vid < len(self._records)

    # ------------------------------------------------------------------ writes
    def add(
        self,
        path: str,
        duration: float,
        start_time: float = 0.0,
        fps: float = 30.0,
    ) -> VideoRecord:
        """Register one video and return its record (with an assigned ``vid``).

        Raises:
            SchemaError: if ``path`` is not a string or a number is not real;
                nothing is stored or journaled then.
        """
        check_field("path", path, "str")
        check_field("duration", duration, "float")
        check_field("start_time", start_time, "float")
        check_field("fps", fps, "float")
        record = VideoRecord(
            vid=len(self._records),
            path=path,
            duration=float(duration),
            start_time=float(start_time),
            fps=float(fps),
        )
        self._records.append(record)
        if self.journal_sink is not None:
            self.journal_sink(
                {
                    "type": "video",
                    "vid": record.vid,
                    "path": record.path,
                    "duration": record.duration,
                    "start_time": record.start_time,
                    "fps": record.fps,
                }
            )
        return record

    def add_records(self, records: Iterable[VideoRecord]) -> list[VideoRecord]:
        """Register pre-built records, preserving their durations and paths.

        The store assigns fresh vids; the returned records carry the assigned ids.
        """
        return [
            self.add(record.path, record.duration, record.start_time, record.fps)
            for record in records
        ]

    def restore(self, records: list[VideoRecord]) -> None:
        """Replace the contents in place (checkpoint recovery).

        Managers hold references to this store, so recovery refills it rather
        than swapping in a new one.  The journal sink is not invoked.
        """
        self._records = list(records)

    # ------------------------------------------------------------------- reads
    def get(self, vid: int) -> VideoRecord:
        """Return the record for ``vid``.

        Raises:
            UnknownVideoError: if the vid has not been registered.
        """
        if vid not in self:
            raise UnknownVideoError(f"video {vid} is not registered")
        return self._records[vid]

    def all(self) -> list[VideoRecord]:
        """Return every registered video in insertion order."""
        return list(self._records)

    def vids(self) -> list[int]:
        """Return all registered video ids in insertion order."""
        return list(range(len(self._records)))

    def total_duration(self) -> float:
        """Sum of all video durations in seconds."""
        if not self._records:
            return 0.0
        return float(np.sum([record.duration for record in self._records]))
