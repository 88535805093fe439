"""Append-only write-ahead journal.

One journal segment is a text file of framed records, one per line::

    <crc32 of payload, 8 hex digits> <payload JSON>\\n

The CRC framing makes every durability decision local to a line:

* a final line with a missing newline, a bad CRC, or unparsable JSON is a
  **torn tail** — the record was being appended when the process died — and
  is truncated away on recovery;
* a bad record *followed by* valid records is **mid-segment corruption**
  (bit rot, concurrent writers, manual edits); the segment is rejected with
  :class:`~repro.exceptions.StorageError` rather than silently skipped,
  because records after the corruption can depend on the lost one.

Records are buffered in memory by :class:`JournalWriter` and made durable
by :meth:`JournalWriter.commit` (write + flush + fsync); the un-committed
tail is exactly the data a crash may lose, which is the contract the
crash-injection harness asserts.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ... import telemetry
from ...exceptions import StorageError
from .faults import fault_point

__all__ = ["JournalWriter", "JournalReadResult", "read_journal"]

logger = logging.getLogger(__name__)


def _frame(record: dict) -> bytes:
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n".encode("utf-8")


class JournalWriter:
    """Buffered appender for one journal segment.

    ``append`` only stages a record in memory; ``commit`` writes every
    staged record and fsyncs the segment, making the prefix durable.  The
    file is opened lazily so an all-cache run never touches disk.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._pending: list[bytes] = []
        self._handle = None
        # One thread may journal a write while another commits; stage and
        # drain must be atomic or a record appended mid-commit would be
        # cleared unwritten.
        self._lock = threading.Lock()

    @property
    def pending_records(self) -> int:
        """Records staged since the last commit (lost if the process dies now)."""
        return len(self._pending)

    def append(self, record: dict) -> None:
        """Stage one record for the next commit (thread-safe)."""
        framed = _frame(record)
        with self._lock:
            self._pending.append(framed)

    def commit(self) -> None:
        """Write staged records and fsync the segment (no-op when none).

        Thread-safe: the whole drain-write-sync runs under the writer lock,
        so concurrent commits cannot interleave records mid-line.
        """
        with self._lock:
            if not self._pending:
                return
            staged = b"".join(self._pending)
            label = f"journal:{self.path.name}"
            with telemetry.span(
                "journal_commit",
                "durability",
                metric="durability.fsync_seconds",
                records=len(self._pending),
                bytes=len(staged),
            ):
                if self._handle is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    if self.path.exists():
                        # A previous process may have died mid-append; truncate
                        # any torn final line so new records start at a clean
                        # record boundary instead of merging with the fragment
                        # into one bad-CRC line that would poison the segment.
                        read_journal(self.path, repair=True)
                    self._handle = open(self.path, "ab")
                fault_point(f"write:{label}")
                self._handle.write(staged)
                self._handle.flush()
                fault_point(f"fsync:{label}")
                # fdatasync: flushes the data and the metadata needed to read
                # it back (the file size), skipping timestamp updates — the
                # standard WAL commit primitive.
                os.fdatasync(self._handle.fileno())
                telemetry.counter("durability.journal_commits").add(1)
            # Drain only after the records are on stable storage: a commit
            # that failed with a transient I/O error stays retryable instead
            # of silently dropping acknowledged writes (replay is idempotent,
            # so a retry that duplicates already-written records is harmless).
            self._pending.clear()

    def close(self) -> None:
        """Drop staged records and close the file handle (idempotent)."""
        with self._lock:
            self._pending.clear()
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass
class JournalReadResult:
    """Outcome of scanning one journal segment."""

    #: Every valid record, in append order.
    records: list[dict] = field(default_factory=list)
    #: Byte length of the valid prefix (the torn tail starts here).
    valid_length: int = 0
    #: Bytes discarded as a torn tail (0 for a clean segment).
    truncated_bytes: int = 0


def read_journal(path: str | Path, repair: bool = False) -> JournalReadResult:
    """Scan a journal segment, applying the torn-tail rule.

    Args:
        path: Segment file; a missing file reads as an empty journal.
        repair: Truncate the file to its valid prefix so a writer can
            append from a clean boundary (what recovery does).

    Raises:
        StorageError: on mid-segment corruption — a bad record that is not
            the final line cannot be a torn tail and poisons the segment.
    """
    path = Path(path)
    result = JournalReadResult()
    if not path.exists():
        return result
    data = path.read_bytes()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        torn_reason: str | None = None
        if newline < 0:
            torn_reason = "no trailing newline"
            line_end = len(data)
        else:
            line_end = newline
        line = data[offset:line_end]
        record: dict | None = None
        if torn_reason is None:
            if len(line) < 10 or line[8:9] != b" ":
                torn_reason = "bad frame"
            else:
                payload = line[9:]
                try:
                    expected = int(line[:8], 16)
                except ValueError:
                    expected = -1
                if expected != zlib.crc32(payload) & 0xFFFFFFFF:
                    torn_reason = "checksum mismatch"
                else:
                    try:
                        record = json.loads(payload.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        torn_reason = "unparsable payload"
        if torn_reason is not None:
            if newline >= 0 and newline + 1 < len(data):
                raise StorageError(
                    f"journal {path} is corrupt mid-segment at byte {offset} "
                    f"({torn_reason}); refusing to replay past lost records"
                )
            result.truncated_bytes = len(data) - offset
            break
        result.records.append(record)
        offset = newline + 1
    result.valid_length = offset if result.truncated_bytes == 0 else len(data) - result.truncated_bytes
    if repair and result.truncated_bytes:
        with open(path, "rb+") as handle:
            handle.truncate(result.valid_length)
            handle.flush()
            os.fsync(handle.fileno())
    return result
