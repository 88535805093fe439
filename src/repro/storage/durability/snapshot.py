"""Atomic generation-numbered snapshots with checksum manifests.

A snapshot is a directory ``snapshot-<generation>`` containing arbitrary
state files plus a ``MANIFEST.json`` recording the generation number and a
CRC-32 per file (corruption detection, matching the journal's framing).
Publication is atomic: everything is written into a ``*.building``
temporary directory, each file is fsynced as it is written and checksummed
from the bytes in memory, the manifest is written last, and a single
rename commits the snapshot.  Recovery walks generations newest-first and
uses the first snapshot whose manifest and checksums validate, so a
half-written or bit-rotted snapshot is rejected in favour of the previous
durable one; the files it verified are handed on, so a restore reads each
file once.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Callable, Iterable, Mapping

from ...exceptions import StorageError
from .atomic import atomic_replace_dir, crc32_hex, fsync_dir, write_file

__all__ = [
    "MANIFEST_NAME",
    "snapshot_dir_name",
    "write_snapshot",
    "read_snapshot",
    "list_generations",
    "latest_valid_snapshot",
    "gc_generations",
]

MANIFEST_NAME = "MANIFEST.json"
_PREFIX = "snapshot-"
_BUILDING_SUFFIX = ".building"


def snapshot_dir_name(generation: int) -> str:
    """Directory name for one generation (zero-padded so names sort)."""
    return f"{_PREFIX}{generation:08d}"


def _generation_of(name: str) -> int | None:
    if not name.startswith(_PREFIX) or name.endswith(_BUILDING_SUFFIX):
        return None
    try:
        return int(name[len(_PREFIX) :])
    except ValueError:
        return None


def write_snapshot(
    root: str | Path, generation: int, writer: Callable[[], Mapping[str, bytes]]
) -> Path:
    """Write and atomically publish one snapshot generation.

    Args:
        root: Checkpoint directory holding all generations.
        generation: Generation number to publish (must not already exist).
        writer: Callback returning the state files' contents, keyed by
            their path relative to the snapshot directory.  Each is written
            and fsynced once, and checksummed from these bytes.

    Returns:
        The published snapshot directory.

    Raises:
        StorageError: when the generation already exists.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    final = root / snapshot_dir_name(generation)
    if final.exists():
        raise StorageError(f"snapshot generation {generation} already exists at {final}")
    building = root / (snapshot_dir_name(generation) + _BUILDING_SUFFIX)
    if building.exists():
        shutil.rmtree(building)
    building.mkdir(parents=True)

    files: dict[str, dict] = {}
    label = f"snapshot-{generation}"
    for rel, payload in sorted(writer().items()):
        path = building / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        write_file(path, payload, f"{label}:{rel}")
        files[rel] = {"crc32": crc32_hex(payload), "bytes": len(payload)}
    manifest = {"format": 1, "generation": generation, "files": files}
    write_file(
        building / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        f"{label}:{MANIFEST_NAME}",
    )
    fsync_dir(building, label)
    atomic_replace_dir(building, final, label)
    return final


def _read(path: Path) -> bytearray:
    """A file's contents in one writable buffer (arrays restored from it
    may be views, so they stay writable like freshly built ones)."""
    with open(path, "rb") as handle:
        payload = bytearray(os.fstat(handle.fileno()).st_size)
        handle.readinto(payload)
    return payload


def read_snapshot(snapshot: Path) -> dict[str, bytearray]:
    """One snapshot's files, each read once and verified against its manifest.

    Returns each manifest entry's contents, whose CRC-32 matched the
    manifest's, by name.

    Raises:
        StorageError: when the manifest is missing/unparsable or any file
            is missing or fails its checksum.
    """
    manifest_path = snapshot / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"snapshot {snapshot} has no manifest (incomplete write?)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(f"snapshot {snapshot} manifest is unreadable: {exc}") from exc
    files: dict[str, bytearray] = {}
    for rel, meta in manifest.get("files", {}).items():
        try:
            payload = _read(snapshot / rel)
        except OSError as exc:
            raise StorageError(f"snapshot {snapshot} file {rel!r} is unreadable: {exc}") from exc
        if crc32_hex(payload) != meta["crc32"]:
            raise StorageError(f"snapshot {snapshot} file {rel!r} fails its checksum")
        files[rel] = payload
    return files


def list_generations(root: str | Path) -> list[int]:
    """Generation numbers with a published snapshot directory, ascending."""
    root = Path(root)
    if not root.exists():
        return []
    generations = []
    for entry in root.iterdir():
        gen = _generation_of(entry.name)
        if gen is not None and entry.is_dir():
            generations.append(gen)
    return sorted(generations)


def latest_valid_snapshot(root: str | Path) -> tuple[int, Path, dict[str, bytearray]] | None:
    """Newest generation whose manifest and checksums validate (or None).

    Returns ``(generation, directory, files)``, ``files`` being the
    verified contents :func:`read_snapshot` read, so a caller restoring
    from them never reads the snapshot a second time.  Invalid newer
    generations are skipped, not deleted — recovery never destroys
    evidence; garbage collection is a separate explicit step.
    """
    root = Path(root)
    for generation in reversed(list_generations(root)):
        snapshot = root / snapshot_dir_name(generation)
        try:
            files = read_snapshot(snapshot)
        except StorageError:
            continue
        return generation, snapshot, files
    return None


def gc_generations(root: str | Path, keep: Iterable[int]) -> list[int]:
    """Delete every generation not in ``keep`` (and stale journal segments).

    ``keep`` is an explicit list of *known-good* generations (validated at
    recovery or published by this process) rather than a count: counting
    positionally would let a corrupt newer snapshot displace the only valid
    fallback from the retention window.  Journal segments whose generation
    is not kept are unreplayable (recovery always starts at a kept
    snapshot) and are removed too — including the pre-snapshot segment 0.
    Abandoned ``*.building`` temporaries from crashed snapshot writes are
    also cleaned up.  Returns the deleted generation numbers.
    """
    root = Path(root)
    if not root.exists():
        return []
    kept = set(keep)
    for entry in root.iterdir():
        if entry.name.endswith(_BUILDING_SUFFIX) and entry.is_dir():
            shutil.rmtree(entry, ignore_errors=True)
    doomed = [generation for generation in list_generations(root) if generation not in kept]
    for generation in doomed:
        shutil.rmtree(root / snapshot_dir_name(generation), ignore_errors=True)
    for journal in root.glob("journal-*.log"):
        try:
            segment = int(journal.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        if segment not in kept:
            journal.unlink()
    return doomed
