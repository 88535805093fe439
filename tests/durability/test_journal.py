"""Unit tests for the write-ahead journal: framing, torn tails, corruption."""

from __future__ import annotations

import pytest

from repro.exceptions import StorageError
from repro.storage.durability import JournalWriter, read_journal


def write_records(path, records):
    writer = JournalWriter(path)
    for record in records:
        writer.append(record)
    writer.commit()
    writer.close()


class TestJournalRoundtrip:
    def test_append_commit_read(self, tmp_path):
        path = tmp_path / "journal.log"
        records = [{"type": "label", "revision": i, "value": i * 0.1} for i in range(5)]
        write_records(path, records)
        result = read_journal(path)
        assert result.records == records
        assert result.truncated_bytes == 0

    def test_missing_file_reads_empty(self, tmp_path):
        result = read_journal(tmp_path / "absent.log")
        assert result.records == []
        assert result.truncated_bytes == 0

    def test_append_without_commit_is_not_durable(self, tmp_path):
        path = tmp_path / "journal.log"
        writer = JournalWriter(path)
        writer.append({"type": "label", "revision": 1})
        assert writer.pending_records == 1
        # Nothing on disk yet: the un-committed tail is exactly what a crash loses.
        assert read_journal(path).records == []
        writer.commit()
        assert writer.pending_records == 0
        assert len(read_journal(path).records) == 1
        writer.close()

    def test_floats_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "journal.log"
        value = 0.1 + 0.2  # not representable prettily; must survive bit-exactly
        write_records(path, [{"value": value}])
        assert read_journal(path).records[0]["value"] == value

    def test_commits_accumulate_across_writers(self, tmp_path):
        path = tmp_path / "journal.log"
        write_records(path, [{"n": 1}])
        write_records(path, [{"n": 2}])
        assert [r["n"] for r in read_journal(path).records] == [1, 2]


class TestConcurrency:
    def test_appends_during_commits_are_never_dropped(self, tmp_path):
        """Threads journal while the main thread commits; a record staged
        mid-commit must land in some later commit."""
        import threading

        path = tmp_path / "journal.log"
        writer = JournalWriter(path)
        total = 400

        def appender(offset):
            for i in range(total):
                writer.append({"writer": offset, "n": i})

        threads = [threading.Thread(target=appender, args=(t,)) for t in range(3)]
        for thread in threads:
            thread.start()
        for __ in range(200):
            writer.commit()
        for thread in threads:
            thread.join()
        writer.commit()
        writer.close()
        records = read_journal(path).records
        assert len(records) == 3 * total
        for offset in range(3):
            seen = [r["n"] for r in records if r["writer"] == offset]
            assert seen == sorted(seen) == list(range(total))


class TestTornTail:
    def test_half_written_last_record_is_truncated(self, tmp_path):
        path = tmp_path / "journal.log"
        write_records(path, [{"n": 1}, {"n": 2}])
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the last record mid-payload
        result = read_journal(path)
        assert [r["n"] for r in result.records] == [1]
        assert result.truncated_bytes > 0

    def test_bad_crc_on_last_record_is_truncated(self, tmp_path):
        path = tmp_path / "journal.log"
        write_records(path, [{"n": 1}, {"n": 2}])
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a payload byte of the final record
        path.write_bytes(bytes(data))
        result = read_journal(path)
        assert [r["n"] for r in result.records] == [1]

    def test_repair_truncates_file_to_valid_prefix(self, tmp_path):
        path = tmp_path / "journal.log"
        write_records(path, [{"n": 1}, {"n": 2}])
        clean_length = len(path.read_bytes())
        with open(path, "ab") as handle:
            handle.write(b"deadbeef {\"torn\": tr")
        read_journal(path, repair=True)
        assert len(path.read_bytes()) == clean_length
        # After repair a writer can append from the clean boundary.
        write_records(path, [{"n": 3}])
        assert [r["n"] for r in read_journal(path).records] == [1, 2, 3]

    def test_empty_file_is_clean(self, tmp_path):
        path = tmp_path / "journal.log"
        path.write_bytes(b"")
        assert read_journal(path).records == []


class TestCorruptSegments:
    def test_mid_segment_corruption_is_rejected(self, tmp_path):
        path = tmp_path / "journal.log"
        write_records(path, [{"n": 1}, {"n": 2}, {"n": 3}])
        lines = path.read_bytes().splitlines(keepends=True)
        corrupted = bytearray(lines[1])
        corrupted[12] ^= 0xFF  # corrupt the middle record, keep the tail valid
        path.write_bytes(lines[0] + bytes(corrupted) + lines[2])
        with pytest.raises(StorageError, match="corrupt mid-segment"):
            read_journal(path)

    def test_garbage_prefix_is_rejected(self, tmp_path):
        path = tmp_path / "journal.log"
        clean = tmp_path / "clean.log"
        write_records(clean, [{"n": 1}])
        path.write_bytes(b"not a journal\n" + clean.read_bytes())
        with pytest.raises(StorageError):
            read_journal(path)

    def test_writer_repairs_torn_tail_before_appending(self, tmp_path):
        """A process that died mid-append must not poison the segment for
        the next writer: the torn fragment is truncated on open, so new
        records never merge with it into one bad-CRC line."""
        path = tmp_path / "journal.log"
        write_records(path, [{"n": 1}])
        with open(path, "ab") as handle:
            handle.write(b"deadbeef {\"torn")  # simulated mid-append death
        write_records(path, [{"n": 2}])  # fresh writer, no recover() call
        assert [r["n"] for r in read_journal(path).records] == [1, 2]
