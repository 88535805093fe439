"""Durable checkpoint/restore subsystem.

The paper's prototype persists its metadata database and columnar feature
files as a whole; this package adds the crash-safety layer a production
deployment needs (see the Cambridge Report's "recoverability as table
stakes"):

* :mod:`~repro.storage.durability.journal` — an append-only write-ahead
  journal of store writes (labels, feature-batch appends, model
  registrations), CRC-framed per record with
  torn-tail truncation and checksum rejection of corrupt segments;
* :mod:`~repro.storage.durability.snapshot` — atomic generation-numbered
  snapshots (write-to-temp + fsync + rename) with a per-file checksum
  manifest;
* :mod:`~repro.storage.durability.manager` — the
  :class:`~repro.storage.durability.manager.CheckpointManager` that rolls
  journal segments per snapshot generation, recovers the latest valid
  snapshot plus its journal tail, and garbage-collects old generations;
* :mod:`~repro.storage.durability.faults` — named fault points crossed by
  every write/fsync/rename, so the crash-injection test harness can kill
  persistence at each boundary and assert recovery;
* :mod:`~repro.storage.durability.replay` — idempotent replay of journal
  records into a :class:`~repro.storage.storage_manager.StorageManager`,
  keyed by the stores' existing revision/epoch/version counters.

Recovery protocol: load the newest snapshot whose manifest checksums
validate, then apply the journal tail of that generation.  Session-level
``checkpoint()``/``resume()`` (see :mod:`repro.core.checkpoint`) use the
snapshot as the bit-identical continuation point and surface the journal
tail as recovered-but-unapplied writes.
"""

from .faults import FaultInjector, InjectedCrash, fault_point, inject_faults
from .journal import JournalReadResult, JournalWriter, read_journal
from .manager import CheckpointManager, RecoveredState
from .replay import replay_records
from .snapshot import latest_valid_snapshot, list_generations, read_snapshot, write_snapshot

__all__ = [
    "CheckpointManager",
    "FaultInjector",
    "InjectedCrash",
    "JournalReadResult",
    "JournalWriter",
    "RecoveredState",
    "fault_point",
    "inject_faults",
    "latest_valid_snapshot",
    "list_generations",
    "read_journal",
    "read_snapshot",
    "replay_records",
    "write_snapshot",
]
