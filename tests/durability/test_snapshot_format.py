"""The snapshot's file format (format 2) and the read-once recovery path.

A snapshot holds ``state.json`` and ``arrays.bin``: every staged array
C-contiguous at a 64-byte-aligned offset, located by the ``arrays`` table
of ``state.json``.  Recovery reads each snapshot file once, to check its
CRC, and restores from those bytes.  ``data/format1_root`` is a session
root written by the previous format (arrays in one ``.npz``); it must
still resume, to the same state as a run that was never interrupted.
"""

from __future__ import annotations

import builtins
import io
import json
import shutil
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from repro.alm.bandit import BanditSnapshot
from repro.core import checkpoint
from repro.core.session import IterationSummary
from repro.exceptions import CheckpointError
from repro.experiments.runner import RunnerConfig, SessionRunner
from repro.models.model_manager import TrainingStats
from repro.models.validation import CrossValidationResult
from repro.scheduler.scheduler import IterationLatency
from repro.serving import session_fingerprint

from harness import micro_dataset

FORMAT1_ROOT = Path(__file__).resolve().parent / "data" / "format1_root"


@pytest.fixture(scope="module")
def dataset():
    return micro_dataset()


def run_config(checkpoint_dir=None, **overrides):
    """The configuration ``data/format1_root`` was written with (3 of 6 steps)."""
    base = dict(
        num_steps=6,
        batch_size=3,
        strategy="serial",
        candidate_features=("r3d", "mvit"),
        evaluate_every=6,
        seed=3,
    )
    if checkpoint_dir is not None:
        base.update(checkpoint_every=2, checkpoint_dir=str(checkpoint_dir))
    base.update(overrides)
    return RunnerConfig(**base)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def staged_arrays():
    return {
        "ints": np.arange(7, dtype=np.int64),
        "floats": np.array([0.1 + 0.2, -0.0, np.nan, np.inf, 5e-324]),
        "matrix": np.arange(12.0).reshape(3, 4),
        "strided": np.arange(20.0).reshape(4, 5)[:, ::2],
        "transposed": np.arange(6, dtype=np.int32).reshape(2, 3).T,
        "strings": np.array(["", "café ☕", "鹿"], dtype=np.str_),
        "no_strings": np.array([], dtype=np.str_),
        "bools": np.array([True, False, True]),
        "empty_rows": np.empty((0, 4)),
        "scalar": np.array(2.5),
    }


class TestArrayBundle:
    def test_arrays_come_back_bit_equal_and_writable(self):
        arrays = staged_arrays()
        table, buffer = checkpoint._pack_arrays(arrays)
        restored = checkpoint._unpack_arrays(json.loads(json.dumps(table)), buffer)
        assert list(restored) == list(arrays)
        for key, array in arrays.items():
            back = restored[key]
            assert same_bits(back, array), key
            assert back.flags.c_contiguous and back.flags.writeable and back.flags.aligned
        for dtype_str, shape, offset in table.values():
            assert offset % 64 == 0

    def test_arrays_do_not_overlap(self):
        table, buffer = checkpoint._pack_arrays(staged_arrays())
        restored = checkpoint._unpack_arrays(table, buffer)
        restored["matrix"][...] = -1.0
        assert restored["ints"].tolist() == list(range(7))
        assert restored["floats"][0] == 0.1 + 0.2

    @pytest.mark.parametrize("dtype", [object, [("a", "<i8"), ("b", "<f8")]])
    def test_unstorable_dtypes_are_refused_at_write(self, dtype):
        with pytest.raises(CheckpointError, match="'bad'"):
            checkpoint._pack_arrays({"bad": np.zeros(2, dtype=dtype)})

    def test_object_dtype_is_refused_at_restore(self):
        with pytest.raises(CheckpointError, match="object dtype"):
            checkpoint._unpack_arrays({"bad": ["|O", [2], 0]}, bytearray(64))

    @pytest.mark.parametrize(
        "entry",
        [
            ["<f8", [9], 0],  # 72 bytes from a 64-byte buffer
            ["<f8", [1], 64],  # starts at the end
            ["<f8", [1], -8],
            ["<i8", [-1, 2], 0],
            ["<U3", [2, 3], 0],  # 72 bytes
        ],
    )
    def test_an_extent_outside_the_buffer_is_refused(self, entry):
        with pytest.raises(CheckpointError, match="outside"):
            checkpoint._unpack_arrays({"a": entry}, bytearray(64))

    @pytest.mark.parametrize("entry", [["<f8", [1]], ["no-such-dtype", [1], 0], ["<f8", "x", 0]])
    def test_a_malformed_entry_is_refused(self, entry):
        with pytest.raises(CheckpointError, match="malformed"):
            checkpoint._unpack_arrays({"a": entry}, bytearray(64))


class TestCapturedRecords:
    """Captured records equal ``asdict`` and name every dataclass field."""

    RECORDS = [
        (
            checkpoint._SUMMARY_FIELDS,
            IterationSummary(
                3, "cluster-margin", "r3d", 9, 1.25, 0.5, 0.04, True, ["mvit"], ["r3d", "mvit"],
                0.7,
            ),
        ),
        (
            checkpoint._LATENCY_FIELDS,
            IterationLatency(2, 1.5, 0.25, 0.75, {"train": 1.0, "select": 0.5}),
        ),
        (checkpoint._BOUND_FIELDS, BanditSnapshot(4, "r3d", 0.25, 0.75, False)),
        (checkpoint._STATS_FIELDS, TrainingStats(*range(1, 10))),
        (checkpoint._CV_RESULT_FIELDS, CrossValidationResult(0.5, (0.25, 0.75), ("a", "b"), 12)),
    ]

    @pytest.mark.parametrize("names,record", RECORDS, ids=lambda value: type(value).__name__)
    def test_record_doc_equals_asdict(self, names, record):
        assert names == tuple(field.name for field in fields(record))
        doc = checkpoint._record_doc(record, names)
        assert doc == asdict(record)
        assert json.dumps(doc) == json.dumps(asdict(record))
        for name, value in doc.items():
            if isinstance(value, (list, dict)):
                assert value is not getattr(record, name)

    def test_every_record_type_is_covered(self):
        covered = {type(record) for _, record in self.RECORDS}
        assert covered == {
            IterationSummary,
            IterationLatency,
            BanditSnapshot,
            TrainingStats,
            CrossValidationResult,
        }


class TestFormat2Snapshot:
    def test_snapshot_is_state_json_plus_one_array_bundle(self, dataset, tmp_path):
        runner = SessionRunner(dataset, run_config(tmp_path / "ckpt", num_steps=2))
        runner.run()
        snapshot = runner.vocal.session.durability.snapshot_path(1)
        assert sorted(p.name for p in snapshot.iterdir()) == [
            "MANIFEST.json", "arrays.bin", "state.json"
        ]
        state = json.loads((snapshot / "state.json").read_text())
        assert state["format"] == 2
        size = (snapshot / "arrays.bin").stat().st_size
        assert state["arrays"]
        for dtype_str, shape, offset in state["arrays"].values():
            assert offset % 64 == 0 and offset <= size
            assert np.dtype(dtype_str) != np.dtype(object)
        runner.close()

    def test_resume_reads_each_snapshot_file_once(self, dataset, tmp_path, monkeypatch):
        live = SessionRunner(dataset, run_config(tmp_path / "ckpt", num_steps=2))
        live.run()
        live.close()
        snapshot = tmp_path / "ckpt" / "snapshot-00000001"
        opened: list[str] = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            path = Path(file) if isinstance(file, (str, Path)) else None
            if path is not None and path.parent == snapshot:
                opened.append(path.name)
            return real_open(file, *args, **kwargs)

        # pathlib opens through io.open, everything else through builtins.open.
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        resumed = SessionRunner(dataset, run_config(tmp_path / "ckpt", resume=True))
        monkeypatch.undo()
        assert resumed.recovery.generation == 1
        assert sorted(opened) == ["MANIFEST.json", "arrays.bin", "state.json"]
        resumed.close()

    def test_a_corrupt_array_bundle_falls_back_to_the_older_generation(self, dataset, tmp_path):
        live = SessionRunner(dataset, run_config(tmp_path / "ckpt", num_steps=4))
        live.run()
        live.close()
        bundle = tmp_path / "ckpt" / "snapshot-00000002" / "arrays.bin"
        payload = bytearray(bundle.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        bundle.write_bytes(payload)
        resumed = SessionRunner(dataset, run_config(tmp_path / "ckpt", resume=True))
        assert resumed.recovery.generation == 1
        assert resumed.recovery.rejected_generations == [2]
        resumed.close()


    def test_an_older_eager_inflight_key_is_ignored(self, dataset, tmp_path, monkeypatch):
        # Older versions wrote the videos of unfinished eager tasks under
        # "eager_inflight"; restore ignores the key, whatever it holds.
        baseline = SessionRunner(dataset, run_config(strategy="ve-full"))
        baseline.run()
        expected = session_fingerprint(baseline.vocal)
        baseline.close()

        capture = checkpoint.capture_state

        def capture_like_older_versions(session, extra_state):
            state, arrays = capture(session, extra_state)
            state["session"]["eager_inflight"] = {"r3d": [0, 1], "mvit": []}
            return state, arrays

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "capture_state", capture_like_older_versions)
            live = SessionRunner(dataset, run_config(tmp_path / "ckpt", strategy="ve-full"))
            live.run(num_steps=4)
            live.close()
        state = json.loads((tmp_path / "ckpt" / "snapshot-00000002" / "state.json").read_text())
        assert state["session"]["eager_inflight"] == {"r3d": [0, 1], "mvit": []}

        resumed = SessionRunner(
            dataset, run_config(tmp_path / "ckpt", strategy="ve-full", resume=True)
        )
        resumed.run()
        assert session_fingerprint(resumed.vocal) == expected
        resumed.close()


class TestFormat1Root:
    """``data/format1_root``: 3 of 6 steps, checkpointed after step 2."""

    @pytest.fixture
    def root(self, tmp_path):
        shutil.copytree(FORMAT1_ROOT, tmp_path / "ckpt")
        return tmp_path / "ckpt"

    def test_the_root_is_format_1(self):
        snapshot = FORMAT1_ROOT / "snapshot-00000001"
        assert sorted(p.name for p in snapshot.iterdir()) == [
            "MANIFEST.json", "arrays.npz", "state.json"
        ]
        assert json.loads((snapshot / "state.json").read_text())["format"] == 1

    def test_restore_reproduces_the_snapshot_exactly(self, dataset, root):
        """Restoring and capturing again gives back the format-1 files' contents."""
        snapshot = FORMAT1_ROOT / "snapshot-00000001"
        written = json.loads((snapshot / "state.json").read_text())
        with np.load(snapshot / "arrays.npz", allow_pickle=False) as payload:
            written_arrays = {key: payload[key] for key in payload.files}
        resumed = SessionRunner(dataset, run_config(root, resume=True))
        assert resumed.recovery.resumed_iteration == 2
        assert len(resumed.recovery.tail_labels) == 3
        state, arrays = checkpoint.capture_state(resumed.vocal.session, written["extra_state"])
        # Snapshots no longer hold the eager in-flight set; the root's is
        # empty, and restore ignores it.
        assert written["session"].pop("eager_inflight") == {}
        assert json.loads(json.dumps({**state, "format": 1})) == written
        assert arrays.keys() == written_arrays.keys()
        for key, array in written_arrays.items():
            assert same_bits(arrays[key], array), key
        resumed.close()

    def test_root_resumes_to_the_uninterrupted_fingerprint(self, dataset, root, tmp_path):
        baseline = SessionRunner(dataset, run_config(tmp_path / "baseline"))
        baseline.run(num_steps=2)
        # The root holds model parameters as the writing machine computed
        # them; a BLAS that rounds differently cannot continue it exactly.
        at_checkpoint = checkpoint.capture_state(baseline.vocal.session, None)[1]
        with np.load(root / "snapshot-00000001" / "arrays.npz") as payload:
            same_math = at_checkpoint.keys() == set(payload.files) and all(
                same_bits(at_checkpoint[key], payload[key]) for key in payload.files
            )
        if not same_math:
            baseline.close()
            pytest.skip("this machine's model math differs from the one that wrote the root")
        baseline.run()
        expected = session_fingerprint(baseline.vocal)
        baseline.close()

        resumed = SessionRunner(dataset, run_config(root, resume=True))
        resumed.run()
        assert session_fingerprint(resumed.vocal) == expected
        # The next checkpoint writes format 2.
        generation = resumed.vocal.checkpoint()
        snapshot = resumed.vocal.session.durability.snapshot_path(generation)
        assert json.loads((snapshot / "state.json").read_text())["format"] == 2
        resumed.close()
