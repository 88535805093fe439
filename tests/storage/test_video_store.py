"""Tests for the video metadata store."""

import numpy as np
import pytest

from repro.exceptions import UnknownVideoError
from repro.storage.video_store import VideoStore
from repro.types import VideoRecord


class TestVideoStore:
    def test_add_assigns_incrementing_vids(self):
        store = VideoStore()
        first = store.add("a.mp4", 10.0)
        second = store.add("b.mp4", 20.0)
        assert (first.vid, second.vid) == (0, 1)
        assert len(store) == 2

    def test_get_returns_record(self):
        store = VideoStore()
        added = store.add("a.mp4", 12.5, start_time=3600.0, fps=25.0)
        fetched = store.get(added.vid)
        assert fetched == added
        assert fetched.duration == 12.5
        assert fetched.fps == 25.0

    def test_get_unknown_vid_raises(self):
        store = VideoStore()
        with pytest.raises(UnknownVideoError):
            store.get(7)

    def test_contains(self):
        store = VideoStore()
        record = store.add("a.mp4", 10.0)
        assert record.vid in store
        assert np.int64(record.vid) in store
        assert 99 not in store
        assert -1 not in store

    def test_get_negative_vid_raises(self):
        store = VideoStore()
        store.add("a.mp4", 10.0)
        with pytest.raises(UnknownVideoError):
            store.get(-1)

    def test_add_records_assigns_fresh_vids(self):
        store = VideoStore()
        originals = [
            VideoRecord(vid=55, path="x.mp4", duration=5.0),
            VideoRecord(vid=77, path="y.mp4", duration=6.0),
        ]
        added = store.add_records(originals)
        assert [record.vid for record in added] == [0, 1]
        assert [record.path for record in added] == ["x.mp4", "y.mp4"]

    def test_all_and_vids_in_insertion_order(self):
        store = VideoStore()
        for i in range(5):
            store.add(f"{i}.mp4", 10.0)
        assert store.vids() == [0, 1, 2, 3, 4]
        assert [record.path for record in store.all()] == [f"{i}.mp4" for i in range(5)]

    def test_total_duration(self):
        store = VideoStore()
        store.add("a.mp4", 10.0)
        store.add("b.mp4", 2.5)
        assert store.total_duration() == pytest.approx(12.5)

    def test_total_duration_empty(self):
        assert VideoStore().total_duration() == 0.0
