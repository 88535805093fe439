"""Checkpoint manager: generations of snapshots + per-generation journals.

Directory layout::

    <checkpoint_dir>/
        snapshot-00000001/        # atomic snapshot, MANIFEST.json + state files
        journal-00000001.log      # writes journaled *after* snapshot 1
        snapshot-00000002/
        journal-00000002.log      # the active tail
        journal-00000000.log      # writes journaled before any snapshot

Each snapshot starts a fresh journal segment, so recovery is always
"latest valid snapshot + that generation's journal tail".  Old generations
(snapshot and journal together) are garbage-collected after each new
snapshot publishes, keeping the directory bounded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from ... import telemetry
from .journal import JournalReadResult, JournalWriter, read_journal
from .snapshot import (
    gc_generations,
    latest_valid_snapshot,
    list_generations,
    snapshot_dir_name,
    write_snapshot,
)

__all__ = ["CheckpointManager", "RecoveredState"]

logger = logging.getLogger(__name__)


def _journal_name(generation: int) -> str:
    return f"journal-{generation:08d}.log"


@dataclass
class RecoveredState:
    """What :meth:`CheckpointManager.recover` found on disk."""

    #: Generation recovered to (0 = no snapshot yet; replay from empty state).
    generation: int = 0
    #: Directory of the recovered snapshot, or None before the first one.
    snapshot_dir: Path | None = None
    #: The recovered snapshot's files (name -> checksum-verified contents),
    #: read once during validation; empty before the first snapshot.
    snapshot_files: dict[str, bytearray] = field(default_factory=dict)
    #: Journal records durable after the recovered snapshot, in append order.
    tail_records: list[dict] = field(default_factory=list)
    #: Bytes of torn journal tail truncated during recovery.
    truncated_bytes: int = 0
    #: Newer generations that existed but failed validation and were skipped.
    rejected_generations: list[int] = field(default_factory=list)


class CheckpointManager:
    """Owns one checkpoint directory: journal appends, snapshots, recovery."""

    def __init__(self, directory: str | Path, keep_generations: int = 2) -> None:
        """Open (or create) a checkpoint directory.

        Args:
            directory: Root holding snapshots and journal segments.
            keep_generations: Snapshot generations retained by GC (>= 1).
        """
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_generations = max(1, int(keep_generations))
        #: Lazily resolved: validating snapshots reads every state byte for
        #: its checksum, so it is deferred until the generation is actually
        #: needed (first journal use or recovery) instead of paid at
        #: construction *and again* at recover().
        self._generation: int | None = None
        #: Generations proven valid in this process (validated at resolve /
        #: recovery, or published by us); GC retains exactly these.
        self._known_good: list[int] = []
        self._journal: JournalWriter | None = None

    # ------------------------------------------------------------------ journal
    def _resolve_generation(self) -> int:
        if self._generation is None:
            latest = latest_valid_snapshot(self.directory)
            if latest is not None:
                self._generation = latest[0]
                self._known_good = [latest[0]]
            else:
                self._generation = 0
        return self._generation

    @property
    def generation(self) -> int:
        """Generation the active journal segment belongs to."""
        return self._resolve_generation()

    @property
    def journal(self) -> JournalWriter:
        """The active journal segment's writer (opened lazily)."""
        if self._journal is None:
            self._journal = JournalWriter(
                self.directory / _journal_name(self._resolve_generation())
            )
        return self._journal

    def journal_record(self, record: dict) -> None:
        """Stage one record on the active segment (durable at next commit)."""
        self.journal.append(record)

    def commit(self) -> None:
        """Make every staged journal record durable (write + fsync)."""
        if self._journal is not None:
            self._journal.commit()

    # ---------------------------------------------------------------- snapshots
    def write_generation(self, writer: Callable[[], Mapping[str, bytes]]) -> int:
        """Publish the next snapshot generation and roll the journal.

        ``writer`` returns the snapshot's file contents by name (see
        :func:`~repro.storage.durability.snapshot.write_snapshot`).  The
        active journal segment is committed first (a snapshot must never
        be newer than the log), the snapshot is written and atomically
        renamed into place, a fresh journal segment is opened for the new
        generation, and old generations are garbage-collected.

        Returns the published generation number.
        """
        self.commit()
        current = self._resolve_generation()
        published = list_generations(self.directory)
        generation = (published[-1] if published else current) + 1
        with telemetry.span(
            "snapshot",
            "durability",
            metric="durability.snapshot_seconds",
            generation=generation,
        ):
            write_snapshot(self.directory, generation, writer)
        telemetry.counter("durability.snapshots").add(1)
        logger.debug("published snapshot generation %d", generation)
        if self._journal is not None:
            self._journal.close()
        self._generation = generation
        self._journal = JournalWriter(self.directory / _journal_name(generation))
        self._known_good.append(generation)
        self._known_good = self._known_good[-self.keep_generations :]
        gc_generations(self.directory, self._known_good)
        return generation

    # ----------------------------------------------------------------- recovery
    def recover(self) -> RecoveredState:
        """Find the latest valid snapshot and repair + read its journal tail.

        The snapshot's files are read once, to verify their checksums, and
        returned in :attr:`RecoveredState.snapshot_files`.  Also re-points
        the active journal segment at the recovered generation, so writes
        after recovery append beyond the durable prefix.  Corrupt newer
        snapshots are skipped (and reported), never deleted.
        """
        state = RecoveredState()
        latest = latest_valid_snapshot(self.directory)
        if latest is not None:
            state.generation, state.snapshot_dir, state.snapshot_files = latest
            self._known_good = [latest[0]]
        else:
            self._known_good = []
        state.rejected_generations = [
            generation
            for generation in list_generations(self.directory)
            if generation > state.generation
        ]
        tail: JournalReadResult = read_journal(
            self.directory / _journal_name(state.generation), repair=True
        )
        state.tail_records = tail.records
        state.truncated_bytes = tail.truncated_bytes
        if self._journal is not None:
            self._journal.close()
        self._generation = state.generation
        self._journal = JournalWriter(self.directory / _journal_name(state.generation))
        return state

    def snapshot_path(self, generation: int) -> Path:
        """Directory a given generation's snapshot lives in (existing or not)."""
        return self.directory / snapshot_dir_name(generation)

    def close(self) -> None:
        """Release the journal file handle (idempotent)."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None
