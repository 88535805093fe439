"""Unit tests for atomic snapshots, manifests, recovery fallback, and GC."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import StorageError
from repro.storage.durability import (
    CheckpointManager,
    latest_valid_snapshot,
    list_generations,
    read_snapshot,
    write_snapshot,
)
from repro.storage.durability.faults import FaultInjector, InjectedCrash, inject_faults


def write_simple(root, generation, content=b"payload"):
    return write_snapshot(
        root, generation, lambda: {"data.bin": content, "nested/more.txt": b"state"}
    )


class TestSnapshotWrite:
    def test_publish_and_validate(self, tmp_path):
        snapshot = write_simple(tmp_path, 1)
        files = read_snapshot(snapshot)
        manifest = json.loads((snapshot / "MANIFEST.json").read_text())
        assert manifest["generation"] == 1
        assert set(manifest["files"]) == {"data.bin", "nested/more.txt"}
        assert files == {"data.bin": b"payload", "nested/more.txt": b"state"}
        assert (snapshot / "nested" / "more.txt").read_bytes() == b"state"
        assert list_generations(tmp_path) == [1]

    def test_each_file_is_written_then_fsynced_before_the_manifest(self, tmp_path):
        with inject_faults(FaultInjector()) as injector:
            write_simple(tmp_path, 3)
        label = "snapshot-3"
        assert injector.crossed == [
            f"write:{label}:data.bin",
            f"fsync:{label}:data.bin",
            f"write:{label}:nested/more.txt",
            f"fsync:{label}:nested/more.txt",
            f"write:{label}:MANIFEST.json",
            f"fsync:{label}:MANIFEST.json",
            f"dirsync:{label}",
            f"rename:{label}",
            f"dirsync:{label}",
        ]

    def test_a_crash_before_a_file_write_leaves_it_absent(self, tmp_path):
        # Crossing #2 is the write of the second file.
        with pytest.raises(InjectedCrash, match="write:snapshot-1:nested/more.txt"):
            with inject_faults(FaultInjector(crash_at=2)):
                write_simple(tmp_path, 1)
        building = tmp_path / "snapshot-00000001.building"
        assert (building / "data.bin").read_bytes() == b"payload"
        assert not (building / "nested" / "more.txt").exists()
        assert latest_valid_snapshot(tmp_path) is None

    def test_duplicate_generation_rejected(self, tmp_path):
        write_simple(tmp_path, 1)
        with pytest.raises(StorageError, match="already exists"):
            write_simple(tmp_path, 1)

    def test_crash_during_write_leaves_no_published_snapshot(self, tmp_path):
        write_simple(tmp_path, 1)
        # Crash at every boundary of generation 2's write: generation 1 must
        # stay the latest valid snapshot throughout.
        index = 0
        while True:
            injector = FaultInjector(crash_at=index)
            try:
                with inject_faults(injector):
                    write_simple(tmp_path, 2, content=b"new payload")
            except InjectedCrash as crash:
                latest = latest_valid_snapshot(tmp_path)
                if crash.point.startswith("rename:") or latest[0] == 2:
                    # The rename is the commit point: a crash at or after it
                    # may leave generation 2 fully published — and if it did,
                    # the snapshot must be complete and valid.
                    assert latest[0] in (1, 2)
                    if latest[0] == 2:
                        break
                else:
                    assert latest[0] == 1
                index += 1
                continue
            break  # ran clean: every fault point was exercised
        assert latest_valid_snapshot(tmp_path)[0] == 2


class TestRecoveryFallback:
    def test_corrupt_newest_generation_is_skipped(self, tmp_path):
        write_simple(tmp_path, 1)
        snapshot2 = write_simple(tmp_path, 2)
        (snapshot2 / "data.bin").write_bytes(b"bit rot")
        generation, path, files = latest_valid_snapshot(tmp_path)
        assert generation == 1

    def test_missing_manifest_is_skipped(self, tmp_path):
        write_simple(tmp_path, 1)
        snapshot2 = write_simple(tmp_path, 2)
        (snapshot2 / "MANIFEST.json").unlink()
        assert latest_valid_snapshot(tmp_path)[0] == 1

    def test_unparsable_manifest_is_skipped(self, tmp_path):
        write_simple(tmp_path, 1)
        snapshot2 = write_simple(tmp_path, 2)
        (snapshot2 / "MANIFEST.json").write_text("{not json")
        assert latest_valid_snapshot(tmp_path)[0] == 1

    def test_no_valid_snapshot_returns_none(self, tmp_path):
        assert latest_valid_snapshot(tmp_path) is None


class TestCheckpointManager:
    def test_generation_rolls_journal_segment(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.journal_record({"type": "iteration", "iteration": 1})
        manager.commit()
        generation = manager.write_generation(lambda: {"s.txt": b"x"})
        assert generation == 1
        manager.journal_record({"type": "iteration", "iteration": 2})
        manager.commit()
        recovered = manager.recover()
        assert recovered.generation == 1
        assert [r["iteration"] for r in recovered.tail_records] == [2]
        manager.close()

    def test_gc_keeps_last_two_generations(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_generations=2)
        for n in range(1, 5):
            manager.journal_record({"n": n})
            manager.write_generation(lambda n=n: {"s.txt": str(n).encode()})
        manager.journal_record({"n": 5})
        manager.commit()
        assert list_generations(tmp_path) == [3, 4]
        journals = sorted(p.name for p in tmp_path.glob("journal-*.log"))
        assert journals == ["journal-00000003.log", "journal-00000004.log"]
        manager.close()

    def test_recover_skips_tampered_generation_and_reports_it(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_generations=3)
        manager.write_generation(lambda: {"s.txt": b"1"})
        manager.write_generation(lambda: {"s.txt": b"2"})
        snapshot2 = manager.snapshot_path(2)
        (snapshot2 / "s.txt").write_text("tampered")
        recovered = manager.recover()
        assert recovered.generation == 1
        assert recovered.rejected_generations == [2]
        manager.close()

    def test_next_generation_skips_over_invalid_one(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_generations=3)
        manager.write_generation(lambda: {"s.txt": b"1"})
        manager.write_generation(lambda: {"s.txt": b"2"})
        (manager.snapshot_path(2) / "s.txt").write_text("tampered")
        manager.recover()
        generation = manager.write_generation(lambda: {"s.txt": b"3"})
        assert generation == 3
        assert latest_valid_snapshot(tmp_path)[0] == 3
        manager.close()

    def test_gc_never_deletes_the_valid_fallback_over_a_corrupt_newer_one(self, tmp_path):
        """GC retains known-good generations, not a positional count: a
        bit-rotted newer snapshot must not displace the valid fallback."""
        manager = CheckpointManager(tmp_path, keep_generations=2)
        manager.write_generation(lambda: {"s.txt": b"2"})  # gen 1
        manager.write_generation(lambda: {"s.txt": b"2"})  # gen 2
        manager.close()
        (tmp_path / "snapshot-00000002" / "s.txt").write_text("bit rot")  # corrupt gen 2

        fresh = CheckpointManager(tmp_path, keep_generations=2)
        recovered = fresh.recover()
        assert recovered.generation == 1
        fresh.write_generation(lambda: {"s.txt": b"3"})  # gen 3
        # The corrupt gen 2 is collected; the valid gen 1 fallback survives.
        assert list_generations(tmp_path) == [1, 3]
        assert latest_valid_snapshot(tmp_path)[0] == 3
        fresh.close()

    def test_manifest_checksums_are_crc32(self, tmp_path):
        snapshot = write_simple(tmp_path, 7)
        manifest = json.loads((snapshot / "MANIFEST.json").read_text())
        digest = manifest["files"]["data.bin"]["crc32"]
        assert len(digest) == 8 and int(digest, 16) >= 0
